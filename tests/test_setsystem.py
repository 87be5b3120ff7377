import json
import math
import random

import pytest
from oracles import chain_oracle

from vclab import (
    BudgetExceededError,
    InconclusiveError,
    PreconditionError,
    RangeError,
    SetSystem,
    ShapeError,
    TracePattern,
    breadth,
    check_breadth_duality,
    contains_trace,
    dual_system,
    helly_number,
    independence_dimension,
    sauer_shelah_bound,
    shatter_function,
    trace,
    vc_dimension,
)
from vclab import setsystem
from vclab.generators import gen_halfspaces, gen_intervals, gen_subsets_at_most_d
from vclab.setsystem import (
    indices_of_mask,
    mask_from_indices,
    mask_to_string,
    string_to_mask,
    trace_count,
    transpose,
)


def test_mask_string_round_trip():
    for mask in (0, 1, 0b1011, 0b10000):
        s = mask_to_string(mask, 6)
        assert len(s) == 6
        assert string_to_mask(s) == mask


def test_mask_to_string_matches_its_definition():
    # character i is bit i of the mask
    for width in range(9):
        for mask in range(1 << width):
            expected = "".join("1" if (mask >> i) & 1 else "0" for i in range(width))
            assert mask_to_string(mask, width) == expected


def test_transpose_matches_its_definition():
    rng = random.Random(0)
    for width in range(41):
        for rows in (0, 1, 2, 7, 40):
            masks = [rng.getrandbits(width) for _ in range(rows)]
            cols = transpose(masks, width)
            assert len(cols) == width
            for x, col in enumerate(cols):
                assert col >> rows == 0
                for j, m in enumerate(masks):
                    assert (col >> j) & 1 == (m >> x) & 1


def test_string_to_mask_rejects_bad_characters():
    with pytest.raises(ShapeError):
        string_to_mask("01x1")


def test_mask_index_helpers():
    assert mask_from_indices([0, 3]) == 0b1001
    assert indices_of_mask(0b1001) == [0, 3]
    assert indices_of_mask(0) == []


def test_canonicalization_sorts_and_dedups():
    system = SetSystem.from_masks(2, [0b10, 0b01, 0b10])
    assert system.had_duplicates
    # members sort lexicographically as bit strings (char i = bit i)
    assert system.to_json()["members"] == ["01", "10"]


def test_from_masks_orders_members_as_their_bit_strings():
    rng = random.Random(0)
    for width in range(41):
        singles = [1 << i for i in range(width)]
        masks = [rng.getrandbits(width) for _ in range(50)] + singles
        expected = sorted(set(masks), key=lambda m: mask_to_string(m, width))
        assert list(SetSystem.from_masks(width, masks).members) == expected


def test_from_masks_rejects_wide_members():
    with pytest.raises(ShapeError):
        SetSystem.from_masks(2, [0b100])


def test_json_round_trip():
    system = gen_intervals(5, 1)
    again = SetSystem.from_json(json.dumps(system.to_json()))
    assert again == system


def test_trace_reindexes():
    system = SetSystem.from_strings(4, ["1100", "0011", "1111"])
    cut = trace(system, "1010")  # keep elements 0 and 2
    assert cut.ground_size == 2
    assert set(cut.to_json()["members"]) == {"10", "01", "11"}


def test_trace_count_matches_trace():
    system = gen_intervals(6, 1)
    for amask in (0b101010, 0b000111, 0):
        assert trace_count(system, amask) == len(trace(system, amask))


def test_shatter_intervals_profile():
    system = gen_intervals(5, 1)
    values = [shatter_function(system, t).value for t in range(6)]
    assert values == [1, 2, 4, 7, 11, 16]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_shatter_intervals_closed_form(k):
    # the traces of unions of k intervals on any t points are the unions of
    # at most k runs of them; for 2k < t < n their number is below both
    # 2^t and |S|, so no early exit ends the search
    for n in range(1, 13):
        system = gen_intervals(n, k)
        for t in range(n + 1):
            expected = sum(math.comb(t, i) for i in range(2 * k + 1))
            assert shatter_function(system, t) == (expected, "exact")


def test_shatter_at_deep_t():
    # the search goes 1099 elements deep
    system = SetSystem.from_masks(1100, [0, 1, 2])
    assert shatter_function(system, 1099) == (3, "exact")


def test_shatter_empty_family_and_t_zero():
    empty = SetSystem.from_masks(3, [])
    assert shatter_function(empty, 2).value == 0
    system = gen_intervals(4, 1)
    assert shatter_function(system, 0) == (1, "exact")


def test_shatter_profile_of_intervals16():
    # unions of 2 intervals: pi(t) = sum_{i <= 4} C(t, i), below 2^t from
    # t = 5 on, which bounds the VC dimension by 4 for the later walks
    system = gen_intervals(16, 2)
    values = [shatter_function(system, t).value for t in range(1, 13)]
    assert values == [sauer_shelah_bound(t, min(t, 4)) for t in range(1, 13)]
    assert values[-1] == 794


@pytest.mark.parametrize("system", [SetSystem.from_masks(3, []), gen_intervals(4, 1)])
def test_shatter_rejects_an_unknown_mode_on_every_path(system):
    # the empty family and t = 0 are answered without a search, after the
    # mode is checked
    for t in (0, 2):
        with pytest.raises(RangeError, match="unknown mode"):
            shatter_function(system, t, mode="bogus")


def test_shatter_range_check():
    system = gen_intervals(4, 1)
    with pytest.raises(RangeError):
        shatter_function(system, 5)


def test_shatter_budget():
    system = gen_intervals(12, 1)
    with pytest.raises(BudgetExceededError):
        shatter_function(system, 6, budget=10)


def test_shatter_sample_mode_is_a_lower_bound():
    system = gen_intervals(8, 1)
    exact = shatter_function(system, 4)
    sampled = shatter_function(system, 4, mode="sample", samples=50, seed=3)
    assert sampled.exactness == "lower_bound"
    assert sampled.value <= exact.value


def test_shatter_sample_mode_stops_at_the_most_traces(monkeypatch):
    calls = []

    def counting(system, subset_mask):
        calls.append(subset_mask)
        return trace_count(system, subset_mask)

    monkeypatch.setattr(setsystem, "trace_count", counting)
    system = gen_intervals(13, 2)
    # 2^4 traces, the most there can be, is reached long before the last
    # draw; at t = 6 the best is below 2^6 and every draw is made
    sampled = shatter_function(system, 4, mode="sample", samples=2000)
    assert sampled == (16, "lower_bound")
    assert len(calls) < 2000
    calls.clear()
    sampled = shatter_function(system, 6, mode="sample", samples=50)
    assert sampled.value <= shatter_function(system, 6).value < 1 << 6
    assert len(calls) == 50


def test_sauer_shelah_bound_values():
    assert sauer_shelah_bound(5, 2) == 16
    assert sauer_shelah_bound(4, 4) == 16
    with pytest.raises(RangeError):
        sauer_shelah_bound(3, 4)


def test_vc_dimension_examples():
    assert vc_dimension(SetSystem.from_masks(3, [])) == -1
    power = SetSystem.from_masks(4, range(16))
    assert vc_dimension(power) == 4
    singletons = SetSystem.from_masks(5, [1 << i for i in range(5)])
    assert vc_dimension(singletons) == 1
    assert vc_dimension(gen_intervals(10, 1)) == 2
    assert vc_dimension(gen_intervals(10, 2)) == 4


def test_vc_dimension_budget():
    power = SetSystem.from_masks(10, range(1024))
    with pytest.raises(BudgetExceededError):
        vc_dimension(power, budget=5)


def test_independence_dimension_examples():
    assert independence_dimension(SetSystem.from_masks(3, [])) == 0
    # two crossing members on four elements: all four atoms nonempty
    crossing = SetSystem.from_strings(4, ["1100", "1010"])
    assert independence_dimension(crossing) == 2
    # a chain is never 2-independent
    chain = SetSystem.from_strings(4, ["1000", "1100", "1110"])
    assert independence_dimension(chain) == 1


@pytest.mark.parametrize(
    "n, budget, outcome",
    [
        # tuple outcomes take positional ids, so new cases go at the end
        (6, 300, ("skipped", 1)),
        (7, 5000, 2),
        (8, 10000, ("skipped", 1)),
        (7, 4754, ("skipped", 1)),
        (7, 4755, 2),
        (9, None, 3),
    ],
)
def test_independence_dimension_budget_outcomes(n, budget, outcome):
    # the benchmark's budget-capped jobs and its self-tests rely on these;
    # at n = 7 the search spends exactly 4755 units, and n = 9 is exact
    # within the default budget
    try:
        got = independence_dimension(gen_intervals(n, 2), budget=budget)
    except BudgetExceededError as exc:
        got = ("skipped", exc.lower_bound)
    assert got == outcome


def test_breadth_examples():
    assert breadth(SetSystem.from_masks(3, [])) is None
    singletons = SetSystem.from_masks(4, [1 << i for i in range(4)])
    assert breadth(singletons) == 1
    assert breadth(gen_subsets_at_most_d(5, 2)) == 2
    assert breadth(gen_subsets_at_most_d(5, 3)) == 3
    assert breadth(halfspaces14()) == 7
    assert breadth(gen_intervals(16, 2)) == 15


def halfspaces14():
    # half-planes on the 14 points (i, i^2 mod 17): 184 members
    return gen_halfspaces([(i, i * i % 17) for i in range(14)])


@pytest.mark.parametrize("budget", [0, 1, 50, 500, 3439])
def test_breadth_budget_outcomes(budget):
    # a budget-capped breadth is exact or certifies a lower bound
    try:
        assert breadth(halfspaces14(), budget=budget) == 7
    except BudgetExceededError as exc:
        assert 1 <= exc.lower_bound <= 7


def test_breadth_budget_unit_is_one_extension_tested():
    # halfspaces14 has more members than points, so breadth searches sets
    # of elements; the full search tests 3440 extensions
    with pytest.raises(BudgetExceededError):
        breadth(halfspaces14(), budget=3439)
    assert breadth(halfspaces14(), budget=3440) == 7


def test_breadth_of_few_members_on_a_large_ground_set():
    # with m <= n breadth searches subfamilies of members, one budget unit
    # per extension tested
    system = SetSystem.from_masks(1000, [(1 << 500) - 1, (1 << 1000) - 1])
    assert breadth(system) == 1
    assert breadth(system, budget=3) == 1
    # a nonempty intersection leaves |A| - 1 points for more members, so the
    # member of no points on one point is answered without a unit
    assert breadth(SetSystem.from_masks(1, [0]), budget=0) == 1
    # 8 independent members on 256 elements: every subfamily is irredundant,
    # and the search takes the 8 members in turn, then stops at the bound
    independent = dual_system(SetSystem.from_masks(8, range(1 << 8)))
    with pytest.raises(BudgetExceededError) as exc:
        breadth(independent, budget=7)
    assert exc.value.lower_bound == 7
    assert breadth(independent, budget=8) == 8


# pairwise intersecting triple with empty total intersection
HELLY_TRIPLE = SetSystem.from_strings(3, ["110", "011", "101"])


def half_integer_grid():
    # nine points at half-integer positions 0, 1/2, ..., 4; member i is
    # {x : x < i or x > i+1}, a 3-consistent but inconsistent family
    n = 9

    def member(i):
        return mask_from_indices(
            j for j in range(n) if j / 2 < i or j / 2 > i + 1
        )

    return SetSystem.from_masks(n, [member(i) for i in range(4)])


def test_helly_number_examples():
    assert helly_number(HELLY_TRIPLE) == 3
    # a directed family never has an inconsistent subfamily
    chain = SetSystem.from_strings(3, ["100", "110", "111"])
    assert helly_number(chain) == 1


def test_helly_number_half_integer_grid():
    assert helly_number(half_integer_grid()) == 4


def test_helly_number_ignores_the_budget_variable(monkeypatch):
    # the Helly search has no budget; only its member cap bounds it
    monkeypatch.setenv("VCLAB_BUDGET", "1")
    assert helly_number(HELLY_TRIPLE) == 3
    assert helly_number(half_integer_grid()) == 4


def test_helly_number_cap():
    system = SetSystem.from_masks(6, [1 << (i % 6) for i in range(6)])
    with pytest.raises(BudgetExceededError):
        helly_number(system, cap=3)


def test_helly_number_at_its_member_cap():
    # the six sets X minus {i} are minimal inconsistent and 6 = n is the
    # most there can be, whatever 14 two-element sets join them
    full = (1 << 6) - 1
    co_singletons = [full & ~(1 << i) for i in range(6)]
    pairs = [(1 << i) | (1 << j) for i in range(6) for j in range(i + 1, 6)]
    system = SetSystem.from_masks(6, co_singletons + pairs[:14])
    assert len(system) == 20
    assert helly_number(system) == 6
    with pytest.raises(BudgetExceededError, match="20 members exceeds cap 19"):
        helly_number(system, cap=19)


def test_trace_pattern_validation():
    with pytest.raises(RangeError):
        TracePattern("chain", 1)
    with pytest.raises(RangeError):
        TracePattern("loop", 3)


def test_contains_trace_chain():
    chain = SetSystem.from_strings(4, ["1000", "1100", "1110", "1111"])
    witness = contains_trace(chain, TracePattern("chain", 4))
    assert witness is not None
    assert len(witness.member_indices) == 4
    assert contains_trace(chain, TracePattern("star", 3)) is None


def test_contains_trace_star_and_costar():
    singletons = SetSystem.from_masks(4, [1 << i for i in range(4)])
    assert contains_trace(singletons, TracePattern("star", 4)) is not None
    costar = SetSystem.from_masks(4, [0b1111 & ~(1 << i) for i in range(4)])
    witness = contains_trace(costar, TracePattern("costar", 4))
    assert witness is not None
    assert contains_trace(costar, TracePattern("costar", 5)) is None


def test_contains_trace_with_zero_budget_is_inconclusive():
    costar = SetSystem.from_masks(4, [0b1111 & ~(1 << i) for i in range(4)])
    for kind in ("star", "costar"):
        with pytest.raises(InconclusiveError):
            contains_trace(costar, TracePattern(kind, 4), budget=0)
    # the chain search starts from a best of k - 1 = 3, and no member has
    # more than 3 elements, so it rules the 4-chain out before any move
    assert chain_oracle(costar, 4) is None
    assert contains_trace(costar, TracePattern("chain", 4), budget=0) is None


def test_contains_trace_with_zero_budget_rules_out_too_few_members_or_columns():
    # star and costar need k members and k distinct element columns;
    # with fewer the search ends before any extension is tested
    one = SetSystem.from_masks(3, [0b011])
    two_columns = SetSystem.from_masks(4, [0b0011, 0b1100, 0b1111])
    for system, k in ((one, 2), (two_columns, 3)):
        for kind in ("star", "costar"):
            assert contains_trace(system, TracePattern(kind, k), budget=0) is None
            assert contains_trace(system, TracePattern(kind, k)) is None
        with pytest.raises(InconclusiveError):
            contains_trace(system, TracePattern("chain", k), budget=0)


def test_contains_trace_chain_allows_reordered_base():
    # nested traces realized out of index order still form a chain
    system = SetSystem.from_strings(3, ["010", "011", "111"])
    assert contains_trace(system, TracePattern("chain", 3)) is not None


def test_check_breadth_duality_on_a_chain():
    chain = SetSystem.from_strings(3, ["100", "110", "111"])
    assert check_breadth_duality(chain, 1) == (True, True)


def test_check_breadth_duality_level_matters():
    # all subsets containing element 0: a breadth-2 lattice
    lattice = SetSystem.from_masks(3, [m for m in range(8) if m & 1])
    cond1, cond2 = check_breadth_duality(lattice, 1)
    assert not cond1 and not cond2
    assert check_breadth_duality(lattice, 2) == (True, True)


def test_check_breadth_duality_preconditions():
    with pytest.raises(PreconditionError):
        check_breadth_duality(SetSystem.from_strings(2, ["00", "11"]), 1)
    disjoint = SetSystem.from_strings(2, ["10", "01"])
    with pytest.raises(PreconditionError):
        check_breadth_duality(disjoint, 1)
    not_closed = SetSystem.from_strings(3, ["110", "011"])
    with pytest.raises(PreconditionError):
        check_breadth_duality(not_closed, 1)
