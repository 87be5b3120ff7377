import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import halfspaces_oracle, intervals_oracle
from vclab import (
    BiRelation,
    BudgetExceededError,
    PreconditionError,
    RangeError,
    SetSystem,
    breadth,
    detect_krs,
    gen_arithmetic_progressions,
    gen_cosets_zn,
    gen_elekes_grid,
    gen_halfspaces,
    gen_hypercube_edges,
    gen_intervals,
    gen_pointline_fq,
    gen_subgroups_zn,
    gen_subsets_at_most_d,
    independence_dimension,
    phi_hat,
    phi_hat_sandwich,
    vc_dimension,
)
from vclab.generators import max_induced_edges


def parabola(n):
    return [(i, i * i) for i in range(n)]


def test_subsets_at_most_d_counts():
    for n in range(1, 8):
        for d in range(n + 1):
            system = gen_subsets_at_most_d(n, d)
            assert len(system) == sum(math.comb(n, i) for i in range(d + 1))
    with pytest.raises(RangeError):
        gen_subsets_at_most_d(3, 4)


def test_intervals_counts():
    for n in range(1, 15):
        for k in range(1, 4):
            expect = sum(math.comb(n, j) for j in range(min(2 * k, n) + 1))
            assert len(gen_intervals(n, k)) == expect


def test_intervals_match_the_subset_scan():
    # same members in the same order as the scan of all 2^n subsets
    for n in range(1, 17):
        for k in sorted({1, 2, 3, (n + 1) // 2, (n + 1) // 2 + 1}):
            expect = SetSystem.from_masks(n, intervals_oracle(n, k))
            assert gen_intervals(n, k).members == expect.members


def test_halfspaces_general_position_count():
    # n points with no three collinear cut n^2 - n + 2 distinct traces
    for n in (3, 5, 7):
        assert len(gen_halfspaces(parabola(n))) == n * n - n + 2


def test_halfspaces_collinear_count():
    for n in (2, 4, 6):
        pts = [(i, 3 * i) for i in range(n)]
        assert len(gen_halfspaces(pts)) == 2 * n


def test_halfspaces_rational_inputs_and_validation():
    pts = [("1/2", "1/3"), (0, 1), (1, 0)]
    system = gen_halfspaces(pts)
    assert len(system) == 3 * 3 - 3 + 2
    with pytest.raises(PreconditionError):
        gen_halfspaces([(0, 0), (0, 0)])


def test_halfspaces_single_point():
    assert len(gen_halfspaces([(2, 5)])) == 2


def test_halfspaces_no_points():
    assert gen_halfspaces([]).members == (0,)


_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))


def _spellings(c):
    """The ways a coordinate may be given: as a Fraction, a "p/q" string,
    a float (exact only for power-of-two denominators) and, when whole,
    an int."""
    options = [c, f"{c.numerator}/{c.denominator}", float(c)]
    if c.denominator == 1:
        options.append(int(c))
    return st.sampled_from(options)


@st.composite
def point_sets(draw):
    """Up to 9 distinct points: some runs of 3 or 4 collinear points
    (vertical and horizontal lines among them), then random points."""
    pts = []
    for _ in range(draw(st.integers(0, 2))):
        px, py = draw(_rationals), draw(_rationals)
        dx = draw(st.sampled_from([0, 1, -2, Fraction(1, 2)]))  # 0: vertical
        dy = draw(_rationals) if dx else draw(st.sampled_from([1, -3]))
        steps = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=4, unique=True))
        pts += [(px + t * dx, py + t * dy) for t in steps]
    pts += draw(st.lists(st.tuples(_rationals, _rationals), max_size=9))
    pts = draw(st.permutations(list(dict.fromkeys(pts))[:9]))
    return [(draw(_spellings(x)), draw(_spellings(y))) for x, y in pts]


@given(point_sets())
def test_halfspaces_match_the_fraction_oracle(pts):
    expect = SetSystem.from_masks(len(pts), halfspaces_oracle(pts))
    assert gen_halfspaces(pts).members == expect.members


@pytest.mark.parametrize(
    "count, p, size", [(7, 11, 44), (8, 11, 58), (9, 11, 74), (8, 13, 58), (14, 17, 184)]
)
def test_halfspaces_on_quadratic_residues_match_the_oracle(count, p, size):
    pts = [(i, i * i % p) for i in range(count)]
    system = gen_halfspaces(pts)
    assert len(system) == size
    assert system.members == SetSystem.from_masks(count, halfspaces_oracle(pts)).members


def test_cosets_zn():
    system = gen_cosets_zn(6, [2, 3])
    # cosets of 2Z_6 (2 of them) and 3Z_6 (3 of them)
    assert len(system) == 5
    with pytest.raises(PreconditionError):
        gen_cosets_zn(6, [4])


def test_subgroups_zn_counts():
    for n in (2, 6, 12, 24):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert len(gen_subgroups_zn(n)) == len(divisors)


def test_arithmetic_progressions():
    system = gen_arithmetic_progressions(6, 3)
    # moduli 1, 2, 3 give 1 + 2 + 3 starting classes, all distinct on [0, 6)
    assert len(system) == 6
    with pytest.raises(RangeError):
        gen_arithmetic_progressions(2, 3)


def test_pointline_fq_structure():
    q = 3
    rel = gen_pointline_fq(q)
    assert rel.x_size == rel.y_size == q * q
    assert rel.count_pairs() == q**3
    # each line contains exactly q points, each point lies on q lines
    assert all(bin(r).count("1") == q for r in rel.rows)
    assert all(bin(c).count("1") == q for c in rel.columns())
    with pytest.raises(PreconditionError):
        gen_pointline_fq(4)
    with pytest.raises(BudgetExceededError):
        gen_pointline_fq(103)


def test_elekes_grid_counts():
    for k in (1, 2):
        grid = gen_elekes_grid(k)
        assert len(grid.points) == 4 * k**3
        assert len(grid.lines) == 4 * k**3
        assert grid.incidence.count_pairs() == 4 * k**4
        # every line meets the grid in exactly k points
        assert all(bin(c).count("1") == k for c in grid.incidence.columns())


def test_hypercube_edges():
    for d in range(1, 6):
        edges, system = gen_hypercube_edges(d)
        assert len(edges) == d * (1 << (d - 1))
        assert all(bin(v ^ w).count("1") == 1 for v, w in edges)
        # members are the edges plus all singleton vertices
        assert len(system) == len(edges) + (1 << d)


def test_hypercube_edge_system_vc_at_most_2():
    for d in (2, 3):
        _, system = gen_hypercube_edges(d)
        assert vc_dimension(system) <= 2


def test_max_induced_edges_square():
    edges, _ = gen_hypercube_edges(2)
    assert max_induced_edges(edges, 4, 4) == 4
    assert max_induced_edges(edges, 4, 2) == 1


def test_phi_hat_members():
    rel = BiRelation.from_rows(3, 3, [0b010, 0b100, 0b001])
    system = phi_hat(rel)
    assert set(system.members) == {0b011, 0b110, 0b101}
    with pytest.raises(PreconditionError):
        phi_hat(BiRelation.from_rows(2, 3, [0, 0]))


def test_phi_hat_sandwich_exhaustive_3x3():
    for rows in itertools.product(range(8), repeat=3):
        rel = BiRelation.from_rows(3, 3, list(rows))
        if rel.count_pairs() == 0:
            continue
        for amask in range(8):
            rep = phi_hat_sandwich(rel, amask)
            assert rep.lower_twice <= 2 * rep.trace_count
            assert rep.trace_count <= rep.upper


def test_phi_hat_sandwich_counts():
    # edges (0,1), (0,2), (1,2) restricted to A = {0, 1}
    rel = BiRelation.from_rows(3, 3, [0b110, 0b100, 0b000])
    rep = phi_hat_sandwich(rel, 0b011)
    assert rep.trace_count == 3  # {0,1}, {0}, {1}
    assert rep.a0 == 0
    assert rep.boundary == 2
    assert rep.induced_pairs == 1


def test_detect_krs():
    # K_{2,2}: rows 0 and 1 share columns 0 and 1
    rel = BiRelation.from_rows(3, 3, [0b011, 0b011, 0b100])
    witness = detect_krs(rel, 2, 2)
    assert witness is not None
    assert witness.left == (0, 1)
    assert set(witness.right) == {0, 1}
    assert detect_krs(gen_pointline_fq(3), 2, 2) is None
    with pytest.raises(PreconditionError):
        detect_krs(rel, 3, 2)


def test_poizat_equality_example():
    system = gen_subgroups_zn(12)
    assert breadth(system) == independence_dimension(system)
