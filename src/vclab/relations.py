"""Binary relations on finite sets, their duals, and type counting.

A BiRelation stores Phi as one bit mask per row: bit b of rows[a] is set
iff (a, b) is in Phi.  The associated set system S_Phi has base X and one
member per distinct column.  FormulaSet models a finite nonempty list of
relations sharing both domains; count_types counts complete signature
vectors over (relation, parameter) pairs.

Also here: ladder dimension (the finite stability witness), computed by
the ladder search of setsystem that also finds chain patterns, pointwise
Boolean combinations, the guarded-implication single-relation encoding of
a formula set, the parameter-lift construction and the coordinate-power
construction.  The dual system and pullbacks of set systems along index
maps live in setsystem and are re-exported here.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    PreconditionError,
    RangeError,
    ShapeError,
)
from .setsystem import (  # dual_system and pullback are re-exported
    SetSystem,
    ShatterValue,
    _ladder_search,
    dual_system,
    json_field,
    mask_from_indices,
    mask_to_string,
    max_traces,
    pullback,
    shatter_function,
    string_to_mask,
    transpose,
)
from .value import Value


class BiRelation(Value):
    x_size: int
    y_size: int
    rows: tuple  # x_size ints, each a bit mask of width y_size

    def __init__(self, x_size, y_size, rows):
        d = self.__dict__
        d["x_size"] = x_size
        d["y_size"] = y_size
        d["rows"] = rows

    @classmethod
    def from_rows(cls, x_size: int, y_size: int, rows) -> "BiRelation":
        if x_size < 0 or y_size < 0:
            raise RangeError("domain sizes must be >= 0")
        rows = tuple(int(r) for r in rows)
        if len(rows) != x_size:
            raise ShapeError(f"expected {x_size} rows, got {len(rows)}")
        for r in rows:
            if r < 0 or r >> y_size:
                raise ShapeError(f"row {r} wider than y_size {y_size}")
        return cls(x_size, y_size, rows)

    @classmethod
    def from_pairs(cls, x_size: int, y_size: int, pairs) -> "BiRelation":
        rows = [0] * x_size
        for a, b in pairs:
            if not (0 <= a < x_size and 0 <= b < y_size):
                raise RangeError(f"pair ({a},{b}) out of range")
            rows[a] |= 1 << b
        return cls(x_size, y_size, tuple(rows))

    @classmethod
    def from_json(cls, data) -> "BiRelation":
        if isinstance(data, str):
            data = json.loads(data)
        y_size = json_field(data, "y_size", int)
        rows = []
        for s in json_field(data, "rows", list):
            if not isinstance(s, str):
                raise ShapeError(f"row {s!r} is not a bit string")
            if len(s) != y_size:
                raise ShapeError("row string width does not match y_size")
            rows.append(string_to_mask(s))
        return cls.from_rows(json_field(data, "x_size", int), y_size, rows)

    def to_json(self) -> dict:
        return {
            "x_size": self.x_size,
            "y_size": self.y_size,
            "rows": [mask_to_string(r, self.y_size) for r in self.rows],
        }

    def holds(self, a: int, b: int) -> bool:
        return bool((self.rows[a] >> b) & 1)

    def count_pairs(self) -> int:
        return sum(bin(r).count("1") for r in self.rows)

    def columns(self):
        return transpose(self.rows, self.y_size)


def dualize(rel: BiRelation) -> BiRelation:
    """The transposed relation Phi* on Y x X."""
    return BiRelation.from_rows(rel.y_size, rel.x_size, rel.columns())


def system_of(rel: BiRelation) -> SetSystem:
    """S_Phi: base X, members the distinct columns {Phi_y}."""
    return SetSystem.from_masks(rel.x_size, rel.columns())


def relation_of(system: SetSystem) -> BiRelation:
    """The membership relation of a set system: (x, y) related iff
    element x belongs to member y.  system_of inverts it."""
    rows = transpose(system.members, system.ground_size)
    return BiRelation.from_rows(system.ground_size, len(system.members), rows)


class FormulaSet(Value):
    """A nonempty list of relations on the same X x Y.  Its ``_stacked``
    rows, which pi* and type counts read, are built on first use and kept
    on the instance."""

    relations: tuple  # nonempty tuple of BiRelations sharing both sizes

    def __init__(self, relations):
        self.__dict__["relations"] = relations

    @classmethod
    def of(cls, relations) -> "FormulaSet":
        relations = tuple(relations)
        if not relations:
            raise PreconditionError("a formula set must be nonempty")
        x = relations[0].x_size
        y = relations[0].y_size
        for r in relations:
            if r.x_size != x or r.y_size != y:
                raise ShapeError("all relations must share x_size and y_size")
        return cls(relations)

    @classmethod
    def from_json(cls, data) -> "FormulaSet":
        if isinstance(data, str):
            data = json.loads(data)
        return cls.of(
            BiRelation.from_json(r) for r in json_field(data, "relations", list)
        )

    def to_json(self) -> dict:
        return {"relations": [r.to_json() for r in self.relations]}

    @property
    def x_size(self):
        return self.relations[0].x_size

    @property
    def y_size(self):
        return self.relations[0].y_size

    @functools.cached_property
    def _stacked(self) -> tuple:
        """Each x's rows of all relations side by side, relation k's row
        shifted by k*y, and the spread that repeats a parameter mask once
        per relation, so that ``row & A*spread`` is x's signature over A.
        Kept on the instance, an immutable value, after the first use."""
        y = self.y_size
        rows = tuple(
            sum(row << k * y for k, row in enumerate(xrows))
            for xrows in zip(*(rel.rows for rel in self.relations))
        )
        return rows, sum(1 << k * y for k in range(len(self.relations)))


def count_types(delta: FormulaSet, params) -> int:
    """|S^Delta(B)|: the number of distinct truth-signature vectors over
    all (relation, parameter) pairs realized by elements of X."""
    params = list(params)
    for b in params:
        if not (0 <= b < delta.y_size):
            raise RangeError(f"parameter index {b} out of range")
    rows, spread = delta._stacked
    a = mask_from_indices(params) * spread
    return len({row & a for row in rows})


def dual_shatter(delta: FormulaSet, t: int, budget=None) -> ShatterValue:
    """pi*_Delta(t): max of count_types over t-subsets of parameters.

    Walks the formula set's ``_stacked`` rows, which the instance keeps
    after the first call, so a profile over t stacks once and never hashes
    the formula set."""
    if t < 0 or t > delta.y_size:
        raise RangeError(f"t={t} out of range 0..{delta.y_size}")
    rows, spread = delta._stacked
    return ShatterValue(max_traces(rows, delta.y_size, t, budget, spread), "exact")


def dual_shatter_relation(rel: BiRelation, t: int, budget=None) -> ShatterValue:
    """pi*_Phi(t) for a single relation (atom counting over t columns)."""
    return dual_shatter(FormulaSet.of([rel]), t, budget=budget)


def shatter_relation(rel: BiRelation, t: int, budget=None) -> ShatterValue:
    """pi_Phi(t) = the shatter function of S_Phi."""
    return shatter_function(system_of(rel), t, budget=budget)


def ladder_dimension(rel: BiRelation, budget=None) -> int:
    """Largest n admitting a_1..a_n, b_1..b_n with (a_i, b_j) related
    iff i <= j.  The ladder search over the columns (``_ladder_search``),
    capped at min(|X|, |Y|), one budget unit per extension tested; on
    running out, BudgetExceededError carries the largest ladder found.
    """
    return _ladder_search(rel.columns(), min(rel.x_size, rel.y_size), budget)[0]


def boolean_combine(a: BiRelation, b=None, op: str = "and") -> BiRelation:
    """Pointwise Boolean combination (op in {not, and, or}; not is unary)."""
    full = (1 << a.y_size) - 1
    if op == "not":
        if b is not None:
            raise ShapeError("'not' is unary")
        return BiRelation.from_rows(
            a.x_size, a.y_size, [(~r) & full for r in a.rows]
        )
    if b is None:
        raise ShapeError(f"'{op}' needs two relations")
    if a.x_size != b.x_size or a.y_size != b.y_size:
        raise ShapeError("dimension mismatch")
    if op == "and":
        rows = [ra & rb for ra, rb in zip(a.rows, b.rows)]
    elif op == "or":
        rows = [ra | rb for ra, rb in zip(a.rows, b.rows)]
    else:
        raise RangeError(f"unknown op {op!r}")
    return BiRelation.from_rows(a.x_size, a.y_size, rows)


class GuardedEncoding(Value):
    """The single relation psi that encodes a formula set Delta of size d.

    Parameters of psi are tuples (y_1..y_2d, z, z_1..z_2d) of indices into
    Y; the tuple space is never materialized.  psi(x; p) holds iff z
    matches exactly one z_k, and then equals phi_k(x; y_k) for k <= d or
    the negation of phi_(k-d)(x; y_k) for k > d.
    """

    delta: FormulaSet

    def __init__(self, delta):
        self.__dict__["delta"] = delta

    @property
    def d(self):
        return len(self.delta.relations)

    @property
    def x_size(self):
        return self.delta.x_size

    def holds(self, x: int, param) -> bool:
        d = self.d
        ys = param[: 2 * d]
        z = param[2 * d]
        zs = param[2 * d + 1 :]
        matches = [k for k in range(2 * d) if zs[k] == z]
        if len(matches) != 1:
            return False
        k = matches[0]
        if k < d:
            return self.delta.relations[k].holds(x, ys[k])
        return not self.delta.relations[k - d].holds(x, ys[k])

    def count_types(self, params) -> int:
        seen = set()
        for x in range(self.x_size):
            sig = tuple(self.holds(x, p) for p in params)
            seen.add(sig)
        return len(seen)


def shelah_encode(delta: FormulaSet):
    """Return the guarded single-relation encoding of Delta together with
    the parameter builder that realizes |B'| = 2d|B|.

    build_params(B, b0, b1) needs two distinct anchors b0 != b1 from B
    (defaults: the first two listed); each b in B and each k in 1..d
    yield one positive and one negative parameter tuple, so that the
    signature of x over B' refines its Delta-signature over B.
    """
    psi = GuardedEncoding(delta)
    d = len(delta.relations)

    def build_params(B, b0=None, b1=None):
        B = list(B)
        if len(B) < 2:
            raise PreconditionError("need |B| >= 2 to build the parameter set")
        if b0 is None or b1 is None:
            b0, b1 = B[0], B[1]
        if b0 == b1:
            raise PreconditionError("anchors b0 and b1 must differ")
        params = []
        for b in B:
            for k in range(d):
                # positive tuple: psi(x; .) == phi_k(x; b)
                ys = [b0] * (2 * d)
                zs = [b0] * (2 * d)
                ys[k] = b
                zs[k] = b1
                params.append(tuple(ys) + (b1,) + tuple(zs))
                # negative tuple: psi(x; .) == not phi_k(x; b)
                ys = [b0] * (2 * d)
                zs = [b0] * (2 * d)
                ys[d + k] = b
                zs[d + k] = b1
                params.append(tuple(ys) + (b1,) + tuple(zs))
        return params

    return psi, build_params


class LiftedRelation(NamedTuple):
    """The parameter-lift construction and its proof witness.

    Objects are pairs (a, s) with a in X and s in an auxiliary domain D
    containing the distinguished zero; parameters are pairs (b, c) in
    Y x D.  psi((a,s);(b,c)) holds iff (s == zero and phi(a,b)) or s == c.
    """

    relation: BiRelation
    x_size: int
    y_size: int
    aux_size: int
    zero: int

    def object_index(self, a: int, s: int) -> int:
        return a * self.aux_size + s

    def param_index(self, b: int, c: int) -> int:
        return b * self.aux_size + c

    def witness_subset(self, base_subset, anchor: int = 0):
        """The proof's 2t-element object subset A' for a t-element subset
        A of X: A x {zero} together with (anchor, d_j) for t pairwise
        distinct nonzero d_j.  Errors when D is too small."""
        base_subset = list(base_subset)
        t = len(base_subset)
        nonzero = [s for s in range(self.aux_size) if s != self.zero]
        if len(nonzero) < t:
            raise PreconditionError(
                f"auxiliary domain of size {self.aux_size} cannot supply "
                f"{t} distinct nonzero elements"
            )
        objs = [self.object_index(a, self.zero) for a in base_subset]
        objs += [self.object_index(anchor, s) for s in nonzero[:t]]
        return sorted(objs)


def lift_parameter(phi: BiRelation, zero_element: int, aux_size=None) -> LiftedRelation:
    """Build the lifted relation on (X x D) objects by (Y x D) parameters.

    D defaults to a copy of X; zero_element is the index playing the
    constant 0.  Flattened indices: object (a,s) -> a*|D|+s, parameter
    (b,c) -> b*|D|+c.
    """
    if phi.x_size == 0:
        raise PreconditionError("object domain must be nonempty")
    aux = phi.x_size if aux_size is None else int(aux_size)
    if aux < 1:
        raise RangeError("auxiliary domain must be nonempty")
    if not (0 <= zero_element < aux):
        raise RangeError("zero_element must index the auxiliary domain")
    rows = []
    for a in range(phi.x_size):
        for s in range(aux):
            row = 0
            for b in range(phi.y_size):
                for c in range(aux):
                    if (s == zero_element and phi.holds(a, b)) or s == c:
                        row |= 1 << (b * aux + c)
            rows.append(row)
    rel = BiRelation.from_rows(phi.x_size * aux, phi.y_size * aux, rows)
    return LiftedRelation(rel, phi.x_size, phi.y_size, aux, zero_element)


def power_delta(delta: FormulaSet, d: int, cap: int = 1_000_000) -> FormulaSet:
    """Delta' = {phi(x_i; y) : phi in Delta, 1 <= i <= d} on the object
    domain X^d (row index in base-|X| digits, most significant = x_1)."""
    if d < 1:
        raise RangeError("d must be >= 1")
    if d == 1:
        return delta
    n = delta.x_size
    total = n**d
    if total * len(delta.relations) * d > cap:
        raise BudgetExceededError("object-domain blowup beyond budget")
    relations = []
    for rel in delta.relations:
        for i in range(d):
            rows = []
            for tup in itertools.product(range(n), repeat=d):
                rows.append(rel.rows[tup[i]])
            relations.append(BiRelation.from_rows(total, delta.y_size, rows))
    return FormulaSet.of(relations)
