import json
import math

import pytest

from vclab import (
    BiRelation,
    FormulaSet,
    PreconditionError,
    RangeError,
    SetSystem,
    ShapeError,
    boolean_combine,
    count_types,
    dual_shatter,
    dual_system,
    dualize,
    ladder_dimension,
    lift_parameter,
    power_delta,
    pullback,
    relation_of,
    shatter_function,
    shelah_encode,
    system_of,
    vc_dimension,
)
from vclab.generators import gen_pointline_fq
from vclab.relations import (
    dual_shatter_relation,
    shatter_relation,
)
from vclab.setsystem import mask_from_indices, trace_count


def half_graph(n):
    rows = [mask_from_indices(range(a, n)) for a in range(n)]
    return BiRelation.from_rows(n, n, rows)


def test_birelation_constructors_and_json():
    rel = BiRelation.from_pairs(2, 3, [(0, 0), (0, 2), (1, 1)])
    assert rel.rows == (0b101, 0b010)
    assert rel.holds(0, 2) and not rel.holds(1, 2)
    assert rel.count_pairs() == 3
    again = BiRelation.from_json(json.dumps(rel.to_json()))
    assert again == rel


def test_birelation_validation():
    with pytest.raises(ShapeError):
        BiRelation.from_rows(2, 2, [0b100, 0])
    with pytest.raises(ShapeError):
        BiRelation.from_rows(2, 2, [0])
    with pytest.raises(RangeError):
        BiRelation.from_pairs(2, 2, [(2, 0)])


def test_dualize_is_an_involution():
    rel = BiRelation.from_rows(3, 4, [0b1010, 0b0111, 0b0001])
    assert dualize(dualize(rel)) == rel
    assert dualize(rel).holds(2, 1) == rel.holds(1, 2)


def test_system_of_and_relation_of():
    rel = BiRelation.from_rows(3, 3, [0b111, 0b111, 0b111])
    assert system_of(rel).members == ((1 << 3) - 1,)
    ident = BiRelation.from_rows(3, 3, [0b001, 0b010, 0b100])
    assert set(system_of(ident).members) == {1, 2, 4}
    system = SetSystem.from_strings(4, ["1100", "0011", "1010"])
    assert system_of(relation_of(system)) == system


def test_dual_system_shape():
    system = SetSystem.from_strings(3, ["110", "011"])
    ds = dual_system(system)
    assert ds.ground_size == 2
    # element signatures: 0 -> {member 0}, 1 -> both, 2 -> {member 1}
    assert set(ds.members) == {0b01, 0b11, 0b10}


def test_formula_set_rejects_empty_and_mismatched():
    with pytest.raises(PreconditionError):
        FormulaSet.of([])
    a = BiRelation.from_rows(2, 2, [0, 0])
    b = BiRelation.from_rows(2, 3, [0, 0])
    with pytest.raises(ShapeError):
        FormulaSet.of([a, b])


def test_count_types_identity_relation():
    ident = BiRelation.from_rows(4, 4, [1 << b for b in range(4)])
    delta = FormulaSet.of([ident])
    # over parameters B the signatures are one per element of B plus the
    # all-false signature of the elements outside B
    assert count_types(delta, [0, 1, 2]) == 4
    assert count_types(delta, range(4)) == 4
    assert count_types(delta, []) == 1


def test_count_types_permutation_invariance():
    rel = BiRelation.from_rows(4, 4, [0b1010, 0b0110, 0b0001, 0b1111])
    other = BiRelation.from_rows(4, 4, [0b0011, 0b1100, 0b0101, 0b1000])
    d1 = FormulaSet.of([rel, other])
    d2 = FormulaSet.of([other, rel])
    assert count_types(d1, [0, 2, 3]) == count_types(d2, [3, 0, 2])


def test_dual_shatter_matches_transposed_shatter():
    rel = BiRelation.from_rows(5, 4, [0b1010, 0b0111, 0b0001, 0b1100, 0b0110])
    for t in range(5):
        assert (
            dual_shatter_relation(rel, t).value
            == shatter_relation(dualize(rel), t).value
        )


def test_dual_shatter_at_deep_t():
    # the search goes 1099 parameters deep
    delta = FormulaSet.of([BiRelation.from_rows(3, 1100, [0, 1, 2])])
    assert dual_shatter(delta, 1099) == (3, "exact")


@pytest.mark.parametrize("q", [3, 5])
def test_plane_shatter_and_dual_shatter(q):
    # two lines meet in at most one point and two points lie on at most
    # one line, so t <= 4 points (or lines) in general position have the
    # empty trace, t singletons and C(t, 2) pairs, up to the q^2 lines
    # (or points) there are
    rel = gen_pointline_fq(q)
    system, delta = system_of(rel), FormulaSet.of([rel])
    for t in range(5):
        expected = min(q * q, 1 + t + math.comb(t, 2))
        assert shatter_function(system, t) == (expected, "exact")
        assert dual_shatter(delta, t) == (expected, "exact")


def test_dual_shatter_profile_of_the_f7_plane():
    # pi*(t) = 1 + t + C(t, 2), below 2^t from t = 3 on: one relation
    # learns VC <= 2 there, and the walks at t = 4 and 5 stop at the
    # Sauer-Shelah bound instead of searching all C(49, t) sets of lines
    rel = gen_pointline_fq(7)
    delta = FormulaSet.of([rel])
    assert [dual_shatter(delta, t).value for t in range(1, 6)] == [2, 4, 7, 11, 16]
    # with its complement the types are the same, but two relations learn
    # nothing: the lone-member bound at the leaves prunes
    delta = FormulaSet.of([rel, boolean_combine(rel, op="not")])
    assert [dual_shatter(delta, t).value for t in range(1, 4)] == [2, 4, 7]


def test_dual_shatter_range_check():
    delta = FormulaSet.of([BiRelation.from_rows(2, 2, [1, 2])])
    with pytest.raises(RangeError):
        dual_shatter(delta, 3)


def test_ladder_dimension_examples():
    assert ladder_dimension(half_graph(4)) == 4
    full = BiRelation.from_rows(3, 3, [0b111] * 3)
    assert ladder_dimension(full) == 1
    empty = BiRelation.from_rows(3, 3, [0] * 3)
    assert ladder_dimension(empty) == 0


def test_ladder_dimension_deeper_than_the_recursion_limit():
    # the search keeps its own stack, so a ladder of 1100 rungs is found
    # under the default budget
    assert ladder_dimension(half_graph(1100)) == 1100


def test_boolean_combine():
    a = BiRelation.from_rows(2, 3, [0b101, 0b010])
    b = BiRelation.from_rows(2, 3, [0b011, 0b110])
    assert boolean_combine(a, b, "and").rows == (0b001, 0b010)
    assert boolean_combine(a, b, "or").rows == (0b111, 0b110)
    nota = boolean_combine(a, op="not")
    assert nota.rows == (0b010, 0b101)
    # De Morgan
    lhs = boolean_combine(boolean_combine(a, op="not"), boolean_combine(b, op="not"), "and")
    rhs = boolean_combine(boolean_combine(a, b, "or"), op="not")
    assert lhs == rhs
    with pytest.raises(ShapeError):
        boolean_combine(a, b, "not")
    with pytest.raises(RangeError):
        boolean_combine(a, b, "xor")


def test_shelah_encode_refines_types():
    a = BiRelation.from_rows(4, 5, [0b10101, 0b01010, 0b11100, 0b00011])
    b = BiRelation.from_rows(4, 5, [0b00111, 0b11000, 0b01101, 0b10010])
    delta = FormulaSet.of([a, b])
    psi, build = shelah_encode(delta)
    B = [0, 2, 4]
    params = build(B)
    assert len(params) == 2 * 2 * len(B)
    assert count_types(delta, B) <= psi.count_types(params)


def test_shelah_encode_anchor_validation():
    delta = FormulaSet.of([BiRelation.from_rows(2, 3, [0b101, 0b010])])
    _, build = shelah_encode(delta)
    with pytest.raises(PreconditionError):
        build([1])
    with pytest.raises(PreconditionError):
        build([1, 2], b0=1, b1=1)


def test_lift_parameter_shapes_and_witness():
    phi = BiRelation.from_rows(3, 2, [0b01, 0b11, 0b10])
    lifted = lift_parameter(phi, zero_element=0, aux_size=4)
    assert lifted.relation.x_size == 3 * 4
    assert lifted.relation.y_size == 2 * 4
    # psi((a, 0); (b, c)) iff phi(a, b) or c == 0
    assert lifted.relation.holds(lifted.object_index(0, 0), lifted.param_index(1, 0))
    assert not lifted.relation.holds(
        lifted.object_index(0, 0), lifted.param_index(1, 1)
    )
    # psi((a, s); (b, c)) iff s == c, for s != 0
    assert lifted.relation.holds(lifted.object_index(2, 3), lifted.param_index(0, 3))
    objs = lifted.witness_subset([0, 1, 2])
    assert len(objs) == 6
    with pytest.raises(PreconditionError):
        lift_parameter(phi, zero_element=0, aux_size=2).witness_subset([0, 1, 2])


def test_lift_parameter_multiplies_shatter():
    phi = BiRelation.from_rows(3, 3, [0b011, 0b101, 0b110])
    t = 2
    base = shatter_relation(phi, t).value
    lifted = lift_parameter(phi, zero_element=0, aux_size=t + 1)
    lifted_pi = shatter_relation(lifted.relation, 2 * t).value
    assert t * base <= lifted_pi


def test_power_delta_shapes():
    rel = BiRelation.from_rows(3, 4, [0b1010, 0b0111, 0b0001])
    delta = FormulaSet.of([rel])
    squared = power_delta(delta, 2)
    assert len(squared.relations) == 2
    assert squared.x_size == 9
    # row of the pair (a1, a2) in the i-th copy depends on coordinate i only
    assert squared.relations[0].rows[1 * 3 + 2] == rel.rows[1]
    assert squared.relations[1].rows[1 * 3 + 2] == rel.rows[2]
    assert power_delta(delta, 1) is delta


def test_pullback_preserves_shatter_when_surjective():
    system = SetSystem.from_strings(3, ["110", "011", "101"])
    f = [0, 1, 2, 0, 1]  # surjective with repeats
    pulled = pullback(system, f)
    assert pulled.ground_size == 5
    for t in range(4):
        assert (
            shatter_function(pulled, t).value == shatter_function(system, t).value
        )


def test_pullback_range_check():
    system = SetSystem.from_strings(2, ["10"])
    with pytest.raises(RangeError):
        pullback(system, [0, 2])


def test_vc_duality_bound_small():
    rel = half_graph(5)
    va = vc_dimension(system_of(rel))
    vb = vc_dimension(system_of(dualize(rel)))
    assert va < 2 ** (1 + vb)
