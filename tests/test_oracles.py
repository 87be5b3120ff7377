"""The level-search invariants and ladder dimension against their
brute-force definitions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import MAX_GROUND, breadth_oracle, ind_oracle, ladder_oracle, vc_oracle
from vclab import (
    BiRelation,
    BudgetExceededError,
    SetSystem,
    breadth,
    independence_dimension,
    ladder_dimension,
    vc_dimension,
)
from vclab.relations import dual_system


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


def test_breadth_reaches_its_cap():
    # X minus one point, for each point but 0: irredundant and meeting in {0}
    for n in range(2, MAX_GROUND + 1):
        full = (1 << n) - 1
        system = SetSystem.from_masks(n, [full & ~(1 << i) for i in range(1, n)])
        assert breadth(system) == breadth_oracle(system) == n - 1
