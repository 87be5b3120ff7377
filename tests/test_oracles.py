"""The level-search invariants (VC and independence dimension), the
co-identity-search invariants (breadth, the Helly number and the star and
costar trace patterns), the ladder-search invariants (chain trace
patterns and ladder dimension), the shatter and dual shatter functions
and type counts against their brute-force definitions, and the
Sauer-Shelah-Pajor and Assouad bounds."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    MAX_GROUND,
    breadth_oracle,
    chain_oracle,
    dual_pi_oracle,
    helly_oracle,
    ind_oracle,
    ladder_oracle,
    pi_oracle,
    shattered_count_oracle,
    trace_pattern_oracle,
    types_oracle,
    vc_oracle,
    vc_work_oracle,
)
from vclab import (
    BiRelation,
    BudgetExceededError,
    FormulaSet,
    SetSystem,
    TracePattern,
    breadth,
    contains_trace,
    count_types,
    dual_shatter,
    helly_number,
    independence_dimension,
    ladder_dimension,
    shatter_function,
    vc_dimension,
)
from vclab.relations import dual_system
from vclab.setsystem import _trace_setup


@st.composite
def small_systems(draw, m_max=8):
    n = draw(st.integers(0, MAX_GROUND))
    members = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=m_max))
    return SetSystem.from_masks(n, members)


@given(small_systems())
def test_vc_matches_oracle(system):
    assert vc_dimension(system) == vc_oracle(system)


@given(small_systems())
def test_ind_matches_oracle(system):
    assert independence_dimension(system) == ind_oracle(system)


@settings(max_examples=60)
@given(small_systems(m_max=7))
def test_breadth_matches_oracle(system):
    assert breadth(system) == breadth_oracle(system)


def co_singletons(n):
    full = (1 << n) - 1
    return SetSystem.from_masks(n, [full & ~(1 << i) for i in range(n)])


@example(SetSystem.from_masks(3, []))
@example(SetSystem.from_masks(0, [0]))
@example(SetSystem.from_masks(3, [0, 0b011, 0b110]))
@example(co_singletons(MAX_GROUND))
@given(small_systems(m_max=12))
def test_helly_matches_oracle(system):
    assert helly_number(system) == helly_oracle(system)


def test_helly_of_co_singletons_is_the_ground_size():
    # any n - 1 of the n sets X minus {i} meet in a point, all n in none
    for n in range(1, MAX_GROUND + 1):
        assert helly_number(co_singletons(n)) == helly_oracle(co_singletons(n)) == n


def singletons(n):
    return SetSystem.from_masks(n, [1 << i for i in range(n)])


@example(singletons(MAX_GROUND))
@example(co_singletons(MAX_GROUND))
@given(small_systems(m_max=16))
def test_star_and_costar_traces_match_oracle(system):
    for kind in ("star", "costar"):
        for k in range(2, system.ground_size + 2):
            pattern = TracePattern(kind, k)
            assert contains_trace(system, pattern) == trace_pattern_oracle(
                system, pattern
            )


def shuffled_chain(n):
    # the prefixes of the order n-1, 0, n-2, 1, ... as members
    order = [x for pair in zip(range(n - 1, -1, -1), range(n)) for x in pair]
    order = list(dict.fromkeys(order))
    return SetSystem.from_masks(n, [sum(1 << x for x in order[:j]) for j in range(n + 1)])


@example(shuffled_chain(MAX_GROUND))
@example(co_singletons(MAX_GROUND))
@given(small_systems(m_max=16))
def test_chain_traces_match_oracle(system):
    members = system.members
    for k in range(2, system.ground_size + 2):
        witness = contains_trace(system, TracePattern("chain", k))
        assert (witness is None) == (chain_oracle(system, k) is None)
        if witness is None:
            continue
        base, realisers = witness
        assert len(base) == k and list(base) == sorted(set(base))
        amask = sum(1 << x for x in base)
        traces = [members[j] & amask for j in realisers]
        # nested, of sizes 1..k, each realised by its lowest-indexed member
        assert [t.bit_count() for t in traces] == list(range(1, k + 1))
        assert all(t & ~u == 0 for t, u in zip(traces, traces[1:]))
        for j, t in zip(realisers, traces):
            assert j == min(i for i, m in enumerate(members) if m & amask == t)


@st.composite
def small_relations(draw, side_max=4):
    x = draw(st.integers(0, side_max))
    y = draw(st.integers(0, side_max))
    rows = draw(st.lists(st.integers(0, (1 << y) - 1), min_size=x, max_size=x))
    return BiRelation.from_rows(x, y, rows)


@given(small_relations())
def test_ladder_matches_oracle(rel):
    assert ladder_dimension(rel) == ladder_oracle(rel)


@given(small_systems())
def test_ind_is_vc_of_the_dual(system):
    dual_vc = vc_dimension(dual_system(system))
    # with ground size 0 the dual family is empty, so VC(S*) = -1 < 0 = IND(S)
    assert (dual_vc == -1) == (system.ground_size == 0)
    assert independence_dimension(system) == max(0, dual_vc)


def test_ind_of_ground_size_zero():
    for system in (SetSystem.from_masks(0, []), SetSystem.from_masks(0, [0])):
        assert independence_dimension(system) == 0


@given(small_systems())
def test_vc_at_most_log_member_count(system):
    if system.members:
        assert 1 << vc_dimension(system) <= len(system.members)


@st.composite
def shaped_systems(draw):
    """Systems with fewer distinct members than elements or more, so that
    the level search meets parents with fewer member visits than block
    tests and parents with more, for VC and for IND (whose dual swaps
    members and elements)."""
    n = draw(st.integers(2, MAX_GROUND))
    if draw(st.booleans()):
        m = draw(st.integers(1, n - 1))
    else:
        m = draw(st.integers(n + 1, min(1 << n, n + 4)))
    masks = st.integers(0, (1 << n) - 1)
    return SetSystem.from_masks(
        n, draw(st.lists(masks, min_size=m, max_size=m, unique=True))
    )


@given(shaped_systems())
def test_vc_and_ind_match_oracles_on_wide_and_tall_systems(system):
    assert vc_dimension(system) == vc_oracle(system)
    assert independence_dimension(system) == ind_oracle(system)


@pytest.mark.parametrize(
    "fn, least",
    [(vc_dimension, 0), (independence_dimension, 0), (breadth, 1)],
)
@given(system=small_systems(), budget=st.integers(0, 12))
def test_budget_gives_exact_value_or_certified_lower_bound(fn, least, system, budget):
    exact = fn(system)
    try:
        got = fn(system, budget=budget)
    except BudgetExceededError as exc:
        assert least <= exc.lower_bound <= exact
    else:
        assert got == exact


def budget_outcome(counts, exact, budget):
    """What a level search with these units per level gives at a budget:
    a skip at the first level where the running count exceeds it, with
    that level as lower bound, or else the exact value."""
    work = 0
    for d, count in enumerate(counts):
        work += count
        if work > budget:
            return ("skipped", d)
    return exact


def outcome(fn, system, budget):
    try:
        return fn(system, budget=budget)
    except BudgetExceededError as exc:
        return ("skipped", exc.lower_bound)


@example(SetSystem.from_masks(4, range(16)))
@example(co_singletons(MAX_GROUND))
@given(small_systems())
def test_level_search_spends_the_oracle_budget(system):
    # one unit per candidate tested, charged level by level: every budget
    # from 0 to the total + 1 gives the skip or value the oracle predicts
    searches = [(vc_dimension, system, vc_oracle(system))]
    if len(system.members) <= MAX_GROUND:
        searches.append(
            (independence_dimension, dual_system(system), ind_oracle(system))
        )
    for fn, searched, exact in searches:
        counts = vc_work_oracle(searched)
        for budget in range(sum(counts) + 2):
            expected = budget_outcome(counts, exact, budget)
            assert outcome(fn, system, budget) == expected


def test_breadth_reaches_its_cap():
    # X minus one point, for each point but 0: irredundant and meeting in {0}
    for n in range(2, MAX_GROUND + 1):
        full = (1 << n) - 1
        system = SetSystem.from_masks(n, [full & ~(1 << i) for i in range(1, n)])
        assert breadth(system) == breadth_oracle(system) == n - 1


budgets = st.one_of(st.none(), st.integers(0, 12))


def over_budget(n, t, budget):
    return budget is not None and math.comb(n, t) > budget


@given(data=st.data(), budget=budgets)
def test_shatter_matches_oracle(data, budget):
    system = data.draw(small_systems())
    t = data.draw(st.integers(0, system.ground_size))
    # the empty family and t = 0 are answered before the budget is checked
    if system.members and t and over_budget(system.ground_size, t, budget):
        with pytest.raises(BudgetExceededError) as info:
            shatter_function(system, t, budget=budget)
        assert info.value.lower_bound is None
    else:
        assert shatter_function(system, t, budget=budget).value == pi_oracle(system, t)


@st.composite
def formula_sets(draw, x_max=5, y_max=5):
    x = draw(st.integers(0, x_max))
    y = draw(st.integers(0, y_max))
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.integers(0, (1 << y) - 1), min_size=x, max_size=x))
        relations.append(BiRelation.from_rows(x, y, rows))
    return FormulaSet.of(relations)


def blank(x, y, d):
    return FormulaSet.of([BiRelation.from_rows(x, y, [0] * x)] * d)


@example(delta=blank(0, 3, 2), t=2, budget=None)
@example(delta=blank(3, 0, 3), t=0, budget=None)
@example(delta=blank(4, 4, 1), t=2, budget=5)
@given(delta=formula_sets(), t=st.integers(0, 5), budget=budgets)
def test_dual_shatter_matches_oracle(delta, t, budget):
    t = min(t, delta.y_size)
    if over_budget(delta.y_size, t, budget):
        with pytest.raises(BudgetExceededError) as info:
            dual_shatter(delta, t, budget=budget)
        assert info.value.lower_bound is None
    else:
        assert dual_shatter(delta, t, budget=budget).value == dual_pi_oracle(delta, t)


@given(systems=st.lists(small_systems(), min_size=2, max_size=2),
       deltas=st.lists(formula_sets(), min_size=2, max_size=2))
def test_profiles_interleaved_over_two_inputs_match_oracle(systems, deltas):
    """pi and pi* profiles taken in step over two inputs each (A, B, A, ...
    for every t), so that the memoised set-up of the last input is
    replaced at every call."""
    for t in range(MAX_GROUND + 1):
        for system in systems:
            if t <= system.ground_size:
                assert shatter_function(system, t).value == pi_oracle(system, t)
        for delta in deltas:
            if t <= delta.y_size:
                assert dual_shatter(delta, t).value == dual_pi_oracle(delta, t)


def check_caps(n, first, order, check, learned):
    """``check(t)`` at a large t (``first`` picks it from n // 2..n), then
    at t = 0..n up, then at the t <= n in ``order``.  The first call has
    learned nothing about the input; the rising profile learns its bound
    on the VC dimension, which ``learned()`` checks in the memoised
    set-up; the shuffled calls start from it.  The walks also meet the
    lone-member bound at their frames with one element left."""
    for t in [n // 2 + first % (n - n // 2 + 1), *range(n + 1)]:
        check(t)
    learned()
    for t in order:
        if t <= n:
            check(t)


firsts = st.integers(0, MAX_GROUND)
orders = st.permutations(range(MAX_GROUND + 1))


# The rows of the first relation, as members over the parameters, are the
# input of pi, and pi of them is pi* of that relation alone.  Few objects
# over the parameters leave most blocks of the walk with one member after
# the first elements, so the leaf frames meet lone blocks.
@given(delta=formula_sets(x_max=6, y_max=MAX_GROUND), first=firsts, order=orders)
def test_shatter_caps_match_oracle(delta, first, order):
    system = SetSystem.from_masks(delta.y_size, delta.relations[0].rows)
    n = system.ground_size

    def check(t):
        assert shatter_function(system, t).value == pi_oracle(system, t), t

    def learned():
        # with one bit of spread, a count below 2^t proves that the VC
        # dimension is below t, so the first such t of a profile gives it
        if system.members and n:
            assert _trace_setup(system.members, n, 1)[2] == [vc_oracle(system)]

    check_caps(n, first, order, check, learned)


# two relations at t = 2: parameter 0 with any other gives 4 types; after
# parameter 1 the blocks hold 1, 3 and 1 objects, and the 3 split into 3
# types on parameter 2, which a bound of 2 traces per block, not
# 2^relations, would rule out
@example(
    delta=FormulaSet.of([BiRelation.from_rows(5, 4, [6, 1, 1, 4, 0]),
                         BiRelation.from_rows(5, 4, [14, 5, 2, 4, 0])]),
    first=0, order=[2],
)
@given(delta=formula_sets(x_max=6, y_max=MAX_GROUND), first=firsts, order=orders)
def test_dual_shatter_caps_match_oracle(delta, first, order):
    y = delta.y_size

    def check(t):
        assert dual_shatter(delta, t).value == dual_pi_oracle(delta, t), t

    def learned():
        # one relation: pi* is pi of its rows; several: a count below
        # 2^(t * relations) bounds no VC dimension, so nothing is learned
        rows, spread = delta._stacked
        if rows and y:
            rel = delta.relations[0]
            vc = vc_oracle(SetSystem.from_masks(y, rel.rows))
            expect = vc if len(delta.relations) == 1 else y
            assert _trace_setup(rows, y, spread)[2] == [expect]

    check_caps(y, first, order, check, learned)


# With many members the most traces there can be, min(|S|, 2^t), is
# seldom reached, so the search's prune decides more than its early exit.
@given(data=st.data())
def test_shatter_matches_oracle_with_many_members(data):
    system = data.draw(small_systems(m_max=40))
    t = data.draw(st.integers(0, system.ground_size))
    assert shatter_function(system, t).value == pi_oracle(system, t)


@given(delta=formula_sets(x_max=40, y_max=MAX_GROUND), t=st.integers(0, MAX_GROUND))
def test_dual_shatter_matches_oracle_with_many_objects(delta, t):
    t = min(t, delta.y_size)
    assert dual_shatter(delta, t).value == dual_pi_oracle(delta, t)


@example(delta=blank(0, 2, 1), picks=[0, 1])
@example(delta=blank(2, 0, 2), picks=[])
@given(delta=formula_sets(), picks=st.lists(st.integers(0, 4), max_size=7))
def test_count_types_matches_oracle(delta, picks):
    # parameters may repeat; with y_size 0 there are none to pick
    params = [b % delta.y_size for b in picks] if delta.y_size else []
    assert count_types(delta, params) == types_oracle(delta, params)


@given(small_systems())
def test_sauer_shelah_pajor(system):
    # S shatters at least |S| subsets of its ground set
    assert len(system.members) <= shattered_count_oracle(system)


@given(small_systems(m_max=MAX_GROUND))
def test_assouad_dual_bound_both_ways(system):
    dual = dual_system(system)
    vc, dual_vc = vc_oracle(system), vc_oracle(dual)
    assert dual_vc < 2 ** (vc + 1)
    assert vc < 2 ** (dual_vc + 1)
