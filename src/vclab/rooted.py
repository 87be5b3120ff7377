"""Rooted graphs and their (maximum) average degree.

A rooted graph is a finite graph with a distinguished proper subset of
root vertices.  Writing v for the number of non-roots and e for the
number of edges that do not have both ends among the roots, the average
degree is 2e/v; the maximum average degree is the maximum of 2e/v over
all subgraphs whose vertex set properly contains the roots.  Induced
edge sets suffice for the maximum: dropping edges from a fixed vertex
set can only lower 2e/v.  All values are exact rationals.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from .errors import BudgetExceededError, PreconditionError, RangeError, ShapeError
from .setsystem import SetSystem, indices_of_mask, json_field
from .value import Value


class RootedGraph(Value):
    n_vertices: int
    roots: frozenset
    edges: frozenset  # pairs (i, j) with i < j

    def __init__(self, n_vertices, roots, edges):
        d = self.__dict__
        d["n_vertices"] = n_vertices
        d["roots"] = roots
        d["edges"] = edges

    @classmethod
    def of(cls, n_vertices: int, roots, edges) -> "RootedGraph":
        roots = frozenset(roots)
        norm = set()
        for i, j in edges:
            if i == j:
                raise ShapeError("self-loops are not allowed")
            if not (0 <= i < n_vertices and 0 <= j < n_vertices):
                raise RangeError(f"edge ({i},{j}) out of range")
            norm.add((min(i, j), max(i, j)))
        for r in roots:
            if not (0 <= r < n_vertices):
                raise RangeError(f"root {r} out of range")
        if len(roots) >= n_vertices:
            raise PreconditionError("roots must be a proper subset of the vertices")
        return cls(n_vertices, roots, frozenset(norm))

    @classmethod
    def from_json(cls, data) -> "RootedGraph":
        if isinstance(data, str):
            data = json.loads(data)
        roots = json_field(data, "roots", list)
        edges = json_field(data, "edges", list)
        if not all(type(r) is int for r in roots) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)
            for e in edges
        ):
            raise ShapeError("roots must be integers and edges pairs of integers")
        return cls.of(json_field(data, "n_vertices", int), roots, map(tuple, edges))

    def to_json(self) -> dict:
        return {
            "n_vertices": self.n_vertices,
            "roots": sorted(self.roots),
            "edges": sorted(map(list, self.edges)),
        }

    def non_roots(self):
        return [v for v in range(self.n_vertices) if v not in self.roots]


def _counted_edges(g: RootedGraph, vertex_set):
    """Edges with both ends in vertex_set but not both ends roots."""
    vs = set(vertex_set)
    return sum(
        1
        for i, j in g.edges
        if i in vs and j in vs and not (i in g.roots and j in g.roots)
    )


def average_degree(g: RootedGraph) -> Fraction:
    nr = g.non_roots()
    e = _counted_edges(g, set(range(g.n_vertices)))
    return Fraction(2 * e, len(nr))


def max_average_degree(g: RootedGraph, cap: int = 22) -> Fraction:
    """Maximum of 2e/v over vertex subsets properly containing the roots.

    When no edge joins two non-roots, every counted edge is incident to
    exactly one non-root, so the maximum is attained by a single best
    non-root; otherwise all non-root subsets are enumerated (bounded by
    the cap)."""
    nr = g.non_roots()
    nn_edges = [
        (i, j) for i, j in g.edges if i not in g.roots and j not in g.roots
    ]
    root_deg = {
        v: sum(1 for i, j in g.edges if (i == v) != (j == v) and (i in g.roots or j in g.roots))
        for v in nr
    }
    if not nn_edges:
        return Fraction(2 * max(root_deg.values()))
    if len(nr) > cap:
        raise BudgetExceededError(
            f"{len(nr)} non-roots exceed the enumeration cap {cap}"
        )
    best = Fraction(0)
    for size in range(1, len(nr) + 1):
        for combo in itertools.combinations(nr, size):
            vs = set(combo)
            e = sum(root_deg[v] for v in vs)
            e += sum(1 for i, j in nn_edges if i in vs and j in vs)
            best = max(best, Fraction(2 * e, size))
    return best


def classify(g: RootedGraph, alpha) -> tuple:
    """Classify against the threshold 2/alpha.

    Returns (safety, density) with safety in {safe, unsafe} (safe iff the
    maximum average degree is strictly below the threshold) and density in
    {sparse, dense, boundary} (by comparing the average degree to the
    threshold; boundary on equality, which can only happen for rational
    alpha)."""
    alpha = Fraction(alpha)
    if not (0 < alpha < 1):
        raise RangeError("alpha must lie strictly between 0 and 1")
    threshold = 2 / alpha
    mdeg = max_average_degree(g)
    adeg = average_degree(g)
    safety = "safe" if mdeg < threshold else "unsafe"
    if adeg > threshold:
        density = "dense"
    elif adeg < threshold:
        density = "sparse"
    else:
        density = "boundary"
    return safety, density


def rooted_graph_of(system: SetSystem) -> RootedGraph:
    """The incidence rooted graph of a set system: the ground elements are
    the roots, each member is one non-root, joined to its elements."""
    if not system.members:
        raise PreconditionError("the system must have at least one member")
    t = system.ground_size
    edges = []
    for j, mem in enumerate(system.members):
        for x in indices_of_mask(mem):
            edges.append((x, t + j))
    return RootedGraph.of(t + len(system.members), range(t), edges)


def mdeg_setsystem_formula(system: SetSystem) -> Fraction:
    """The closed form for the incidence rooted graph: the maximum over
    nonempty subfamilies of twice the mean member size.  Equals the
    largest member size doubled; kept as an independent oracle."""
    if not system.members:
        raise PreconditionError("the system must have at least one member")
    sizes = [bin(m).count("1") for m in system.members]
    best = Fraction(0)
    for size in range(1, len(sizes) + 1):
        for combo in itertools.combinations(sizes, size):
            best = max(best, Fraction(2 * sum(combo), size))
    return best
