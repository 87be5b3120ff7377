"""End-to-end acceptance checks, one test per criterion.

Each test is exact (integer or rational equality) except the estimator
slope window in the final test, which is the stated tolerance band.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from oracles import max_induced_edges

from vclab import (
    BiRelation,
    FormulaSet,
    SetSystem,
    TracePattern,
    breadth,
    classify_growth,
    contains_trace,
    count_types,
    detect_krs,
    dualize,
    fit_exponent,
    gen_elekes_grid,
    gen_halfspaces,
    gen_hypercube_edges,
    gen_intervals,
    gen_pointline_fq,
    gen_subgroups_zn,
    independence_dimension,
    lift_parameter,
    phi_hat_sandwich,
    sauer_shelah_bound,
    shatter_function,
    shelah_encode,
    system_of,
    vc_dimension,
)
from vclab.estimator import ShatterProfile
from vclab.instances import random_relation, random_system
from vclab.relations import shatter_relation
from vclab.rooted import (
    average_degree,
    max_average_degree,
    mdeg_setsystem_formula,
    rooted_graph_of,
)
from vclab.setsystem import mask_from_indices, trace_count
from vclab.ultrametric import (
    UltrametricSpace,
    ball_family_system,
    beta,
    count_balls_within,
    special_ball_count,
)


def parabola(n):
    return [(i, i * i) for i in range(n)]


def test_01_interval_family_counts_and_vc():
    for n in range(4, 13):
        assert len(gen_intervals(n, 1)) == sum(math.comb(n, j) for j in range(3))
    for k in (1, 2):
        assert vc_dimension(gen_intervals(10, k)) == 2 * k


def test_02_halfplane_trace_count_and_vc():
    assert len(gen_halfspaces(parabola(7))) == 44
    for n in (5, 6, 7):
        assert vc_dimension(gen_halfspaces(parabola(n))) == 3


def test_03_sauer_shelah_on_seeded_systems():
    rng = random.Random(0)
    for _ in range(100):
        system = random_system(rng, n_max=12, m_max=40)
        d = vc_dimension(system)
        for t in range(system.ground_size + 1):
            value = shatter_function(system, t).value
            bound = sauer_shelah_bound(t, min(d, t)) if d >= 0 else 0
            assert value <= bound


def test_04_shatter_duality_on_seeded_relations():
    rng = random.Random(0)
    for _ in range(50):
        rel = random_relation(rng, x_max=8, y_max=8)
        dual = dualize(rel)
        for t in range(rel.x_size + 1):
            dual_pi = max(
                count_types(FormulaSet.of([dual]), combo)
                for combo in itertools.combinations(range(dual.y_size), t)
            )
            assert shatter_relation(rel, t).value == dual_pi
        va = vc_dimension(system_of(rel))
        vb = vc_dimension(system_of(dual))
        assert va < 2 ** (1 + vb)


def test_05_breadth_independence_and_poizat():
    rng = random.Random(0)
    for _ in range(50):
        system = random_system(rng, n_max=8, m_max=12)
        assert breadth(system) >= independence_dimension(system)
    for n in range(2, 25):
        family = gen_subgroups_zn(n)
        assert breadth(family) == independence_dimension(family)


def test_06_costar_breadth_observations():
    rng = random.Random(0)
    for _ in range(30):
        system = random_system(rng, n_max=6, m_max=10)
        b = breadth(system)
        for k in range(2, system.ground_size):
            if contains_trace(system, TracePattern("costar", k + 1)) is not None:
                assert b >= k
        if b is not None and b >= 2 and system.ground_size >= b:
            assert contains_trace(system, TracePattern("costar", b)) is not None


def test_07_guarded_encoding_refines_types():
    rng = random.Random(0)
    for _ in range(20):
        d = rng.choice([1, 2])
        x = rng.randint(2, 8)
        y = rng.randint(3, 8)
        delta = FormulaSet.of(
            BiRelation.from_rows(x, y, [rng.randrange(1 << y) for _ in range(x)])
            for _ in range(d)
        )
        psi, build = shelah_encode(delta)
        B = rng.sample(range(y), 3)
        params = build(B)
        assert len(params) == 2 * d * len(B)
        assert count_types(delta, B) <= psi.count_types(params)


def test_08_parameter_lift_multiplies_shatter():
    rng = random.Random(0)
    t = 3
    for _ in range(10):
        x = rng.randint(t, 6)
        y = rng.randint(2, 6)
        phi = BiRelation.from_rows(x, y, [rng.randrange(1 << y) for _ in range(x)])
        base = shatter_relation(phi, t).value
        lifted = lift_parameter(phi, zero_element=0, aux_size=t + 1)
        lifted_system = system_of(lifted.relation)
        # a certified lower bound on pi_psi(2t) from the witness subsets
        best = 0
        for combo in itertools.combinations(range(x), t):
            objs = lifted.witness_subset(combo)
            best = max(best, trace_count(lifted_system, mask_from_indices(objs)))
        if t * base > best:
            best = shatter_function(lifted_system, 2 * t).value
        assert t * base <= best


def test_09_incidence_counts():
    for q in (3, 5, 7):
        rel = gen_pointline_fq(q)
        assert rel.count_pairs() == q**3
        assert detect_krs(rel, 2, 2) is None
    for k in (1, 2, 3):
        grid = gen_elekes_grid(k)
        total = grid.incidence.count_pairs()
        assert total == 4 * k**4
        n_vertices = len(grid.points) + len(grid.lines)
        assert n_vertices == (2 * k) ** 3
        assert 4 * total == (2 * k) ** 4  # total == (1/4) |V|^(4/3)


def _sandwich_instances():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(2, 8)
        rel = BiRelation.from_rows(n, n, [rng.randrange(1 << n) for _ in range(n)])
        for _ in range(5):
            yield rel, rng.randrange(1 << n)


def test_10_phi_hat_sandwich():
    for rel, amask in _sandwich_instances():
        rep = phi_hat_sandwich(rel, amask)
        assert rep.lower_twice <= 2 * rep.trace_count
        assert rep.trace_count <= rep.upper


@pytest.mark.xfail(
    strict=True,
    reason="the upper bound 1 + |A0| + |E| does not hold: a singleton trace "
    "{a} can arise from an edge leaving A even when a has a neighbor inside "
    "A, so a is outside A0; the three-element relation below realizes the "
    "traces {0,1}, {0}, {1} with |A0| = 0 and |E| = 1",
)
def test_10_phi_hat_sandwich_isolated_only_upper_bound():
    rel = BiRelation.from_rows(3, 3, [0b110, 0b100, 0b000])
    rep = phi_hat_sandwich(rel, 0b011)
    assert rep.trace_count <= 1 + rep.a0 + rep.induced_pairs
    for rel, amask in _sandwich_instances():
        rep = phi_hat_sandwich(rel, amask)
        assert rep.trace_count <= 1 + rep.a0 + rep.induced_pairs


def test_11_hypercube_edge_counts_and_local_density():
    for d in range(1, 9):
        edges, _ = gen_hypercube_edges(d)
        assert len(edges) == d * (1 << (d - 1))
    for d in (2, 3, 4):
        edges, _ = gen_hypercube_edges(d)
        assert max_induced_edges(edges, 1 << d, 4) == 4


def test_12_ball_counts():
    for p in (2, 3):
        space = UltrametricSpace.full(p, 6)
        center = space.elements[len(space.elements) // 2]
        for d in range(4):
            result = count_balls_within(space, space.ball(center, 3), d)
            assert not result.boundary
            assert result.count == beta(p, d)
            assert result.count == ((p + 1) ** (d + 1) - 1) // p
    space = UltrametricSpace.full(2, 4)
    for size in range(2, 7):
        for combo in itertools.combinations(space.elements, size):
            _, n_balls = special_ball_count(space, combo)
            assert n_balls <= size - 1
    rng = random.Random(0)
    for _ in range(10):
        balls = {
            space.ball(e, rng.randint(0, 4))
            for e in rng.sample(space.elements, rng.randint(1, 8))
        }
        assert breadth(ball_family_system(space, balls)) == 1


def test_13_rooted_graph_degrees():
    for t in range(2, 9):
        for k in range(1, min(t, 4)):
            system = SetSystem.from_masks(
                t,
                [mask_from_indices(c) for c in itertools.combinations(range(t), k)],
            )
            g = rooted_graph_of(system)
            assert average_degree(g) == Fraction(2 * k)
            assert max_average_degree(g) == Fraction(2 * k)
    rng = random.Random(0)
    for _ in range(20):
        system = random_system(rng, n_max=6, m_max=8)
        g = rooted_graph_of(system)
        assert max_average_degree(g) == mdeg_setsystem_formula(system)


def test_14_estimator_sanity():
    profile = ShatterProfile.of(
        [(t, sum(math.comb(t, i) for i in range(3)), True) for t in range(4, 13)]
    )
    fit = fit_exponent(profile)
    assert 1.6 <= fit.slope <= 2.0
    for tmax in (6, 9, 12):
        power = ShatterProfile.of([(t, 1 << t, True) for t in range(1, tmax)])
        assert classify_growth(power).kind == "exponential_so_far"
