import itertools
import json
import random
from fractions import Fraction

import pytest

from vclab import (
    BudgetExceededError,
    PreconditionError,
    RangeError,
    RootedGraph,
    SetSystem,
    ShapeError,
    average_degree,
    classify,
    max_average_degree,
    rooted_graph_of,
)
from vclab.generators import gen_subsets_at_most_d
from vclab.instances import random_system
from vclab.rooted import mdeg_setsystem_formula
from vclab.setsystem import mask_from_indices


def uniform_system(t, k):
    return SetSystem.from_masks(
        t, [mask_from_indices(c) for c in itertools.combinations(range(t), k)]
    )


def test_rooted_graph_validation():
    with pytest.raises(ShapeError):
        RootedGraph.of(3, [0], [(1, 1)])
    with pytest.raises(RangeError):
        RootedGraph.of(3, [0], [(1, 3)])
    with pytest.raises(RangeError):
        RootedGraph.of(3, [5], [])
    with pytest.raises(PreconditionError):
        RootedGraph.of(2, [0, 1], [])


def test_rooted_graph_json_round_trip():
    g = RootedGraph.of(4, [0, 1], [(0, 2), (2, 3), (0, 1)])
    again = RootedGraph.from_json(json.dumps(g.to_json()))
    assert again == g
    assert again.non_roots() == [2, 3]


@pytest.mark.parametrize(
    "data",
    [
        {"roots": [0], "edges": []},
        [3, [0], []],
        {"n_vertices": 3.0, "roots": [0], "edges": []},
        {"n_vertices": 3, "roots": [0.0], "edges": []},
        {"n_vertices": 3, "roots": [0], "edges": [[0, 1, 2]]},
    ],
    ids=["missing-field", "not-an-object", "float-size", "float-root", "triple-edge"],
)
def test_rooted_graph_from_json_rejects_bad_fields(data):
    with pytest.raises(ShapeError):
        RootedGraph.from_json(data)


def test_root_root_edges_do_not_count():
    g = RootedGraph.of(3, [0, 1], [(0, 1), (0, 2)])
    assert average_degree(g) == Fraction(2)
    assert max_average_degree(g) == Fraction(2)


def test_degrees_on_uniform_systems():
    for t, k in ((4, 2), (5, 3), (6, 2)):
        g = rooted_graph_of(uniform_system(t, k))
        assert average_degree(g) == Fraction(2 * k)
        assert max_average_degree(g) == Fraction(2 * k)


def test_max_average_degree_with_nonroot_edges():
    # path root - a - b: subgraph {a} has degree 2, {a, b} gives 2*2/2 = 2
    g = RootedGraph.of(3, [0], [(0, 1), (1, 2)])
    assert average_degree(g) == Fraction(2 * 2, 2)
    assert max_average_degree(g) == Fraction(2)
    # triangle on root and two non-roots: {a, b} gives 2*3/2 = 3
    tri = RootedGraph.of(3, [0], [(0, 1), (0, 2), (1, 2)])
    assert max_average_degree(tri) == Fraction(3)
    assert average_degree(tri) == Fraction(3)


def test_max_average_degree_cap():
    n = 25
    edges = [(i, i + 1) for i in range(1, n - 1)]  # long non-root path
    g = RootedGraph.of(n, [0], edges + [(0, 1)])
    with pytest.raises(BudgetExceededError):
        max_average_degree(g, cap=5)


def test_mdeg_matches_setsystem_formula():
    rng = random.Random(7)
    for _ in range(10):
        system = random_system(rng, n_max=6, m_max=8)
        g = rooted_graph_of(system)
        assert max_average_degree(g) == mdeg_setsystem_formula(system)


def test_classify_examples():
    g = rooted_graph_of(uniform_system(5, 2))  # adeg == mdeg == 4
    assert classify(g, Fraction(1, 3)) == ("safe", "sparse")  # threshold 6
    assert classify(g, Fraction(1, 2)) == ("unsafe", "boundary")  # threshold 4
    assert classify(g, Fraction(2, 3)) == ("unsafe", "dense")  # threshold 3
    with pytest.raises(RangeError):
        classify(g, 1)


def test_classify_monotone_in_alpha():
    g = rooted_graph_of(gen_subsets_at_most_d(5, 2))
    order_s = {"safe": 0, "unsafe": 1}
    order_d = {"sparse": 0, "boundary": 1, "dense": 2}
    prev = None
    for num in range(1, 20):
        result = classify(g, Fraction(num, 20))
        if prev is not None:
            assert order_s[result[0]] >= order_s[prev[0]]
            assert order_d[result[1]] >= order_d[prev[1]]
        prev = result


def test_small_subset_systems_are_never_dense():
    for t in range(3, 7):
        for k in range(2, t):
            system = gen_subsets_at_most_d(t, k)
            _, density = classify(rooted_graph_of(system), Fraction(1, k))
            assert density != "dense"


def test_rooted_graph_of_requires_members():
    with pytest.raises(PreconditionError):
        rooted_graph_of(SetSystem.from_masks(3, []))
