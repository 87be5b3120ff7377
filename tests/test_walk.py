"""The pi/pi* walk of ``setsystem.max_traces``: one-shot proofs on the
paper's families, brute-force diffs at the depths where its prunes act,
a leaf that beats the best count by one block, the lone-member bound with
several relations, and metamorphic checks past the oracles' ground sets."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import MAX_GROUND, dual_pi_oracle, pi_oracle
from vclab import (
    BiRelation,
    FormulaSet,
    SetSystem,
    dual_shatter,
    dualize,
    gen_intervals,
    gen_pointline_fq,
    pullback,
    shatter_function,
    system_of,
)
from vclab import setsystem
from vclab.relations import shatter_relation


@pytest.fixture(autouse=True)
def one_shot():
    """Every walk starts with no memoised set-up, so no learned cap."""
    setsystem._trace_setup.cache_clear()
    yield
    setsystem._trace_setup.cache_clear()


def relabelled_plane(seed):
    """The F_7 point-line incidence with points and lines permuted."""
    rng = random.Random(seed)
    rel = gen_pointline_fq(7)
    px, py = list(range(rel.x_size)), list(range(rel.y_size))
    rng.shuffle(px)
    rng.shuffle(py)
    rows = [sum(1 << j for j, y in enumerate(py) if rel.holds(x, y)) for x in px]
    return BiRelation.from_rows(rel.x_size, rel.y_size, rows)


# Each proof walks the t-sets with no cap to stop it: no 5 of the 13
# points carry all 32 traces of unions of 2 intervals (their 1st, 3rd and
# 5th points need 3), and no 3 points or 3 lines of the plane carry 8 (two
# lines meet in at most one point).
@pytest.mark.parametrize("seed", [0, 1])
def test_one_shot_proofs_on_the_paper_families(seed):
    perm = list(range(13))
    random.Random(seed).shuffle(perm)
    intervals = pullback(gen_intervals(13, 2), perm)
    assert shatter_function(intervals, 5).value == 31
    plane = relabelled_plane(seed)
    setsystem._trace_setup.cache_clear()
    assert shatter_function(system_of(plane), 3).value == 7
    setsystem._trace_setup.cache_clear()
    assert dual_shatter(FormulaSet.of([plane]), 3).value == 7


@st.composite
def systems(draw, n_max=MAX_GROUND, m_max=24):
    n = draw(st.integers(1, n_max))
    members = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=m_max))
    return SetSystem.from_masks(n, members)


@st.composite
def formula_sets(draw, x_max=24, y_max=MAX_GROUND):
    x = draw(st.integers(0, x_max))
    y = draw(st.integers(1, y_max))
    rows = st.lists(st.integers(0, (1 << y) - 1), min_size=x, max_size=x)
    d = draw(st.integers(1, 3))
    return FormulaSet.of([BiRelation.from_rows(x, y, draw(rows)) for _ in range(d)])


def depths(n):
    """t = 1, 2 and 3 put the leaf at the root, below one and below two
    frames; t = n walks a single t-set through every frame."""
    return sorted({t for t in (1, 2, 3, n) if t <= n})


@given(systems())
def test_walk_matches_pi_oracle_at_each_depth(system):
    for t in depths(system.ground_size):
        setsystem._trace_setup.cache_clear()
        assert shatter_function(system, t).value == pi_oracle(system, t), t


@given(formula_sets())
def test_walk_matches_dual_pi_oracle_at_each_depth(delta):
    for t in depths(delta.y_size):
        setsystem._trace_setup.cache_clear()
        assert dual_shatter(delta, t).value == dual_pi_oracle(delta, t), t


def test_a_leaf_that_beats_the_best_count_by_one_block():
    # element 0 cuts the members into {0}, {0, 2} and {}, {1}, {2}; the
    # leaf on element 1 splits one block (3 traces), and the leaf on
    # element 2 then splits both, 4 traces: its room over the best count
    # is one block, and no block may be left whole
    system = SetSystem.from_masks(3, [0b000, 0b001, 0b100, 0b101, 0b010])
    assert pi_oracle(system, 2) == 4
    assert shatter_function(system, 2).value == 4


def from_letters(words):
    """Two relations from objects given as words over 0..3, one letter per
    parameter: bit r of a letter is relation r at that parameter."""
    return FormulaSet.of([
        BiRelation.from_rows(len(words), len(words[0]), [
            sum((int(c) >> r & 1) << p for p, c in enumerate(w)) for w in words
        ])
        for r in (0, 1)
    ])


def test_the_lone_member_bound_counts_2_to_the_relations_per_block(monkeypatch):
    # parameters 0 and 2 give the most types, 6 of the 7 objects.
    # Parameter 1 leaves the objects in 2 blocks, one of them a single
    # object, so with one parameter left they give at most 2 * 4 - 3 = 5
    # types and the walk skips that frame.  Counting 1 for the lone block
    # in place of 2^2 - 1 would give 7 > 6 and walk its 2 leaves
    delta = from_letters(["0100", "0010", "1000", "1010", "2020", "3030", "3031"])
    assert dual_pi_oracle(delta, 2) == 6
    refine = setsystem._refine
    calls = []

    def counted(blocks, col):
        calls.append(col)
        return refine(blocks, col)

    monkeypatch.setattr(setsystem, "_refine", counted)
    assert dual_shatter(delta, 2).value == 6
    # two columns for each of parameters 0, 1 and 2 as a first element,
    # and one for each leaf: 3 below parameter 0, 1 below parameter 2
    assert len(calls) == 3 * 2 + 3 + 1


@st.composite
def wide_systems(draw):
    n = draw(st.integers(MAX_GROUND + 1, 16))
    members = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    return SetSystem.from_masks(n, members)


@given(wide_systems(), st.data())
def test_pi_is_unchanged_by_permuting_or_complementing(system, data):
    n = system.ground_size
    t = data.draw(st.integers(1, n))
    perm = data.draw(st.permutations(range(n)))
    full = (1 << n) - 1
    complement = SetSystem.from_masks(n, [full ^ m for m in system.members])
    value = shatter_function(system, t).value
    setsystem._trace_setup.cache_clear()
    assert shatter_function(pullback(system, perm), t).value == value
    setsystem._trace_setup.cache_clear()
    assert shatter_function(complement, t).value == value


@given(st.data())
def test_dual_shatter_is_pi_of_the_dual(data):
    x = data.draw(st.integers(1, 30))
    y = data.draw(st.integers(MAX_GROUND + 1, 16))
    rows = data.draw(st.lists(st.integers(0, (1 << y) - 1), min_size=x, max_size=x))
    rel = BiRelation.from_rows(x, y, rows)
    t = data.draw(st.integers(0, y))
    expect = shatter_relation(dualize(rel), t).value
    setsystem._trace_setup.cache_clear()
    assert dual_shatter(FormulaSet.of([rel]), t).value == expect
