"""Value semantics of vclab's record classes: repr, equality, hashing,
immutability, copying and pickling.  These pin the behaviour the classes
had as frozen dataclasses, so they hold whatever builds the methods."""

import copy
import pickle

import pytest

from vclab.estimator import ProfileSample, ShatterProfile
from vclab.errors import RangeError
from vclab.relations import BiRelation, FormulaSet, GuardedEncoding
from vclab.rooted import RootedGraph
from vclab.setsystem import SetSystem, TracePattern
from vclab.ultrametric import Ball, UltrametricSpace
from vclab.verify import VerificationCase


class FieldlessSetSystem(SetSystem):
    """A subclass that declares no fields, as the benchmark's tracer does."""


def _rel(rows=(1, 6)):
    return BiRelation(2, 3, tuple(rows))


# name -> (make(variant), compared fields of make(0), repr of make(0));
# make(0) and make(1) differ in one compared field
CASES = {
    "SetSystem": (
        lambda v: SetSystem(3, (1, 2 + v), True),
        (3, (1, 2)),
        "SetSystem(ground_size=3, members=(1, 2), had_duplicates=True)",
    ),
    "TracePattern": (
        lambda v: TracePattern("star", 3 + v),
        ("star", 3),
        "TracePattern(kind='star', size=3)",
    ),
    "BiRelation": (
        lambda v: BiRelation(2, 3, (1, 6 - v)),
        (2, 3, (1, 6)),
        "BiRelation(x_size=2, y_size=3, rows=(1, 6))",
    ),
    "FormulaSet": (
        lambda v: FormulaSet((_rel((1, 6 - v)),)),
        ((_rel(),),),
        "FormulaSet(relations=(BiRelation(x_size=2, y_size=3, rows=(1, 6)),))",
    ),
    "GuardedEncoding": (
        lambda v: GuardedEncoding(FormulaSet((_rel((1, 6 - v)),))),
        (FormulaSet((_rel(),)),),
        "GuardedEncoding(delta=FormulaSet(relations="
        "(BiRelation(x_size=2, y_size=3, rows=(1, 6)),)))",
    ),
    "ShatterProfile": (
        lambda v: ShatterProfile((ProfileSample(0, 1, True),), "src" * (1 - v)),
        ((ProfileSample(0, 1, True),), "src"),
        "ShatterProfile(samples=(ProfileSample(t=0, value=1, exact=True),),"
        " source='src')",
    ),
    # one edge: a frozenset of several prints in hash order
    "RootedGraph": (
        lambda v: RootedGraph(3, frozenset({v}), frozenset({(0, 1)})),
        (3, frozenset({0}), frozenset({(0, 1)})),
        "RootedGraph(n_vertices=3, roots=frozenset({0}), edges=frozenset({(0, 1)}))",
    ),
    "Ball": (
        lambda v: Ball("01", 1 + v),
        ("01", 1),
        "Ball(center='01', radius=1)",
    ),
    "UltrametricSpace": (
        lambda v: UltrametricSpace(2, 2, ("00", "01")[: 2 - v]),
        (2, 2, ("00", "01")),
        "UltrametricSpace(p=2, depth=2, elements=('00', '01'))",
    ),
    "VerificationCase": (
        lambda v: VerificationCase("a", "b", "c", "d", ("pass", "fail")[v]),
        ("a", "b", "c", "d", "pass"),
        "VerificationCase(name='a', description='b', expected='c', observed='d',"
        " status='pass')",
    ),
}
FROZEN = sorted(set(CASES) - {"VerificationCase"})


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr(name):
    make, _, text = CASES[name]
    assert repr(make(0)) == text
    assert type(make(0)).__name__ == name


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_by_fields_within_one_class(name):
    make, _, _ = CASES[name]
    a, b, other = make(0), make(0), make(1)
    assert a is not b
    assert a == b and not (a != b)
    assert a != other and not (a == other)
    assert a != object() and a != None  # noqa: E711


def test_instances_of_different_classes_are_unequal():
    values = [CASES[name][0](0) for name in sorted(CASES)]
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            assert a != b and b != a
    # same field values, different class
    rel = _rel()
    assert FormulaSet((rel,)) != GuardedEncoding((rel,))
    assert SetSystem(3, (1,)) != FieldlessSetSystem(3, (1,))
    assert Ball("01", 1) != ("01", 1)


@pytest.mark.parametrize("name", FROZEN)
def test_hash_is_the_hash_of_the_compared_fields(name):
    make, fields, _ = CASES[name]
    assert hash(make(0)) == hash(make(0)) == hash(fields)
    assert len({make(0), make(0), make(1)}) == 2


def test_verification_case_is_unhashable():
    with pytest.raises(TypeError):
        hash(CASES["VerificationCase"][0](0))


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = CASES[name][0](0)
    field = repr(value).split("(", 1)[1].split("=", 1)[0]
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 0
    assert repr(value) == before


def test_verification_case_stays_mutable():
    case = CASES["VerificationCase"][0](0)
    case.status = "fail"
    assert case == CASES["VerificationCase"][0](1)
    del case.observed
    assert not hasattr(case, "observed")


@pytest.mark.parametrize("name", sorted(CASES))
def test_copy_and_pickle_round_trip(name):
    value = CASES[name][0](0)
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
    ):
        assert type(twin) is type(value)
        assert twin == value and repr(twin) == repr(value)


def test_had_duplicates_is_shown_but_not_compared():
    a, b = SetSystem(3, (1,), True), SetSystem(3, (1,), False)
    assert a == b and hash(a) == hash(b)
    assert repr(a) != repr(b)
    assert SetSystem(3, (1,)).had_duplicates is False
    assert SetSystem(ground_size=3, members=(1,), had_duplicates=True).had_duplicates


def test_keyword_construction_and_defaults():
    assert ShatterProfile(samples=()).source == ""
    assert BiRelation(x_size=1, y_size=1, rows=(1,)) == BiRelation(1, 1, (1,))
    assert Ball(center="0", radius=0) == Ball("0", 0)
    with pytest.raises(TypeError):
        Ball("0")


def test_trace_pattern_validates_on_construction():
    with pytest.raises(RangeError):
        TracePattern("ladder", 3)
    with pytest.raises(RangeError):
        TracePattern("chain", 1)


def test_fieldless_subclass_behaves_like_its_base():
    a = FieldlessSetSystem(3, (1, 2), True)
    assert repr(a) == "FieldlessSetSystem(ground_size=3, members=(1, 2), had_duplicates=True)"
    assert a == FieldlessSetSystem(3, (1, 2), False)
    assert a != FieldlessSetSystem(3, (1, 4))
    assert hash(a) == hash(SetSystem(3, (1, 2))) == hash((3, (1, 2)))
    with pytest.raises(AttributeError):
        a.members = ()
    twin = pickle.loads(pickle.dumps(a))
    assert type(twin) is FieldlessSetSystem and twin == a
    assert copy.copy(a) == a


def test_formula_set_stacked_rows_are_cached():
    delta = FormulaSet((_rel((1, 6)), _rel((3, 4))))
    stacked = delta._stacked
    assert stacked == ((1 | 3 << 3, 6 | 4 << 3), 1 | 1 << 3)
    assert delta._stacked is stacked
    # the cache is not a field: it is left out of ==, hash and repr
    fresh = FormulaSet(delta.relations)
    assert fresh == delta and hash(fresh) == hash(delta)
    assert repr(fresh) == repr(delta)
    assert pickle.loads(pickle.dumps(delta)) == delta
