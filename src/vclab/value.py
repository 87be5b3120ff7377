"""Bases for vclab's value classes: fields, equality, hash and repr.

A class's fields are its annotated names, in order.  ``==`` holds
between instances of the same class whose compared fields are equal
(all fields unless the class line names ``compare=``), repr shows every
field, and a ``Value`` is frozen and hashes as the tuple of its compared
fields, as a frozen dataclass does.  A subclass that declares no fields
keeps its base's.  Each class writes its fields in its own ``__init__``,
straight into ``self.__dict__``, which builds a SetSystem in about
0.33 us where the frozen dataclass ``__init__`` took about 0.6 us.

Dataclasses are not used because ``@dataclass`` writes each class's
methods as source text and compiles it on every import.  Importing
vclab and vclab.cli afresh, bytecode cached, took 8.5 to 9.2 ms with
the ten dataclasses and 3.5 to 4.1 ms with these bases (fastest of 60,
Python 3.11.7, 2 vCPUs); a new process also skips importing
``dataclasses`` and the ``inspect`` it loads.  The methods below are
written once.
"""

import operator


class FrozenInstanceError(AttributeError):
    """Assigning or deleting an attribute of a frozen value."""


class Record:
    """A mutable, unhashable record compared and shown by its fields."""

    def __init_subclass__(cls, compare=None):
        fields = tuple(cls.__annotations__)
        if fields:
            compare = compare or fields
            get = operator.attrgetter(*compare)
            cls._fields = fields
            # one name's attrgetter returns the bare value, not a 1-tuple
            cls._key = staticmethod(get if len(compare) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class Value(Record):
    """A frozen, hashable record."""

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
