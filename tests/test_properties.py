import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from vclab import (
    BiRelation,
    FormulaSet,
    SetSystem,
    TracePattern,
    breadth,
    contains_trace,
    count_types,
    dualize,
    helly_number,
    independence_dimension,
    pullback,
    sauer_shelah_bound,
    shatter_function,
    system_of,
    trace,
    vc_dimension,
)
from vclab.relations import dual_shatter_relation, shatter_relation
from vclab.setsystem import indices_of_mask, mask_from_indices


@st.composite
def set_systems(draw, n_max=6, m_max=8):
    n = draw(st.integers(1, n_max))
    members = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=m_max))
    return SetSystem.from_masks(n, members)


@st.composite
def relations(draw, x_max=5, y_max=5):
    x = draw(st.integers(1, x_max))
    y = draw(st.integers(1, y_max))
    rows = draw(st.lists(st.integers(0, (1 << y) - 1), min_size=x, max_size=x))
    return BiRelation.from_rows(x, y, rows)


@given(set_systems(), st.data())
def test_trace_composition(system, data):
    n = system.ground_size
    amask = data.draw(st.integers(0, (1 << n) - 1))
    positions = indices_of_mask(amask)
    bmask = data.draw(st.integers(0, (1 << len(positions)) - 1)) if positions else 0
    # b as a subset of the original ground set
    b_orig = mask_from_indices(
        positions[j] for j in indices_of_mask(bmask)
    )
    assert trace(trace(system, amask), bmask) == trace(system, b_orig)


@given(set_systems())
def test_shatter_monotone_and_bounded(system):
    n = system.ground_size
    values = [shatter_function(system, t).value for t in range(n + 1)]
    for t, v in enumerate(values):
        assert v <= 1 << t
    if system.members:
        assert all(a <= b for a, b in zip(values, values[1:]))
        d = vc_dimension(system)
        for t in range(min(d, n) + 1):
            assert values[t] == 1 << t


@given(set_systems())
def test_sauer_shelah(system):
    d = vc_dimension(system)
    for t in range(system.ground_size + 1):
        value = shatter_function(system, t).value
        bound = sauer_shelah_bound(t, min(d, t)) if d >= 0 else 0
        assert value <= bound


@given(set_systems())
def test_set_system_json_round_trip(system):
    assert SetSystem.from_json(json.dumps(system.to_json())) == system


@given(relations())
def test_relation_json_round_trip(rel):
    assert BiRelation.from_json(json.dumps(rel.to_json())) == rel


@given(relations())
def test_dualize_involution(rel):
    assert dualize(dualize(rel)) == rel


@given(relations())
def test_shatter_duality(rel):
    dual = dualize(rel)
    for t in range(rel.x_size + 1):
        assert (
            shatter_relation(rel, t).value == dual_shatter_relation(dual, t).value
        )


@given(relations())
def test_dual_shatter_negation_invariant(rel):
    full = (1 << rel.y_size) - 1
    neg = BiRelation.from_rows(rel.x_size, rel.y_size, [(~r) & full for r in rel.rows])
    for t in range(rel.y_size + 1):
        assert (
            dual_shatter_relation(rel, t).value
            == dual_shatter_relation(neg, t).value
        )


@given(relations(x_max=4, y_max=4), relations(x_max=4, y_max=4))
def test_dual_shatter_union_submultiplicative(a, b):
    if a.x_size != b.x_size or a.y_size != b.y_size:
        return
    pair = FormulaSet.of([a, b])
    for t in range(a.y_size + 1):
        joint = max(
            count_types(pair, combo)
            for combo in _subsets(a.y_size, t)
        )
        fa = max(count_types(FormulaSet.of([a]), c) for c in _subsets(a.y_size, t))
        fb = max(count_types(FormulaSet.of([b]), c) for c in _subsets(a.y_size, t))
        assert joint <= fa * fb


def _subsets(n, t):
    import itertools

    return list(itertools.combinations(range(n), t))


@given(relations(), st.randoms(use_true_random=False))
def test_count_types_permutation_invariance(rel, rnd):
    delta = FormulaSet.of([rel])
    params = list(range(rel.y_size))
    base = count_types(delta, params)
    rnd.shuffle(params)
    assert count_types(delta, params) == base


@given(relations(x_max=4, y_max=4))
def test_dual_member_count_bound(rel):
    k = len(system_of(rel).members)
    if k <= 5:
        assert len(system_of(dualize(rel)).members) <= 1 << k


@given(set_systems(n_max=4, m_max=5), st.data())
def test_pullback_surjective_preserves_shatter(system, data):
    n = system.ground_size
    extra = data.draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=3))
    f = list(range(n)) + extra  # surjective by construction
    pulled = pullback(system, f)
    for t in range(n + 1):
        assert (
            shatter_function(pulled, t).value == shatter_function(system, t).value
        )


@given(set_systems(n_max=6, m_max=7))
def test_breadth_at_least_independence(system):
    b = breadth(system)
    if b is not None:
        assert b >= independence_dimension(system)


@given(set_systems(n_max=8, m_max=16))
def test_breadth_ignores_added_and_repeated_elements(system):
    # elements in no member, or copies of an element, change no
    # irredundant subfamily; padding to n + m elements moves breadth to the
    # search over members, and doubling repeats every element column
    n = system.ground_size
    m = len(system.members)
    b = breadth(system)
    assert breadth(SetSystem.from_masks(n + m, system.members)) == b
    doubled = SetSystem.from_masks(2 * n, [a | a << n for a in system.members])
    assert breadth(doubled) == b


@settings(max_examples=50)
@given(set_systems(n_max=5, m_max=5))
def test_helly_at_most_breadth_when_intersection_closed(system):
    masks = set(system.members)
    changed = True
    while changed:
        changed = False
        for a in list(masks):
            for b in list(masks):
                if (a & b) not in masks:
                    masks.add(a & b)
                    changed = True
    if not masks or 0 in masks:
        return
    closed = SetSystem.from_masks(system.ground_size, masks)
    assert helly_number(closed) <= breadth(closed)


@example(SetSystem.from_masks(0, [0]))
@given(set_systems())
def test_helly_at_most_ground_size(system):
    # a minimal inconsistent family has a witness point per member
    assert helly_number(system) <= max(1, system.ground_size)


@given(set_systems(n_max=6, m_max=7))
def test_helly_at_most_breadth_plus_one(system):
    # dropping one member of a minimal inconsistent k-family leaves an
    # irredundant (k-1)-family with a nonempty intersection
    if system.members:
        assert helly_number(system) <= breadth(system) + 1


@settings(max_examples=50)
@given(set_systems(n_max=5, m_max=7))
def test_helly_number_gives_a_costar_trace(system):
    # the witness points of a minimal inconsistent k-family, each in
    # every member but one, carry a k-costar
    k = helly_number(system)
    if k >= 2:
        assert contains_trace(system, TracePattern("costar", k)) is not None


@settings(max_examples=50)
@given(set_systems(n_max=5, m_max=7))
def test_costar_breadth_observations(system):
    b = breadth(system)
    if b is None:
        return
    # breadth >= k >= 2 implies the k-costar appears in some trace
    if b >= 2:
        assert contains_trace(system, TracePattern("costar", b)) is not None
    # a (k+1)-costar in some trace forces breadth >= k
    for k in range(2, system.ground_size):
        if contains_trace(system, TracePattern("costar", k + 1)) is not None:
            assert b >= k
