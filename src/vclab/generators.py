"""Constructors for the example families used throughout the test suites.

All geometry is exact: half-plane traces come from candidate boundary
lines through point pairs, with every rational point scaled by the least
common denominator of all coordinates so that the side tests run on
integers, never on floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .config import resolve_budget
from .errors import (
    BudgetExceededError,
    InconclusiveError,
    PreconditionError,
    RangeError,
)
from .relations import BiRelation
from .setsystem import SetSystem, mask_from_indices, trace_count


def gen_subsets_at_most_d(n: int, d: int) -> SetSystem:
    """All subsets of an n-set of size at most d."""
    if not (0 <= d <= n):
        raise RangeError(f"need 0 <= d <= n, got n={n}, d={d}")
    masks = []
    for size in range(d + 1):
        for combo in itertools.combinations(range(n), size):
            masks.append(mask_from_indices(combo))
    return SetSystem.from_masks(n, masks)


def gen_intervals(n_points: int, k: int) -> SetSystem:
    """Subsets of n ordered points that are unions of at most k runs of
    consecutive points (the trace of unions of k intervals on the line)."""
    if n_points < 1 or k < 1:
        raise RangeError("need n_points >= 1 and k >= 1")
    # the sets of r runs, as (mask, lowest start of a next run), extend to
    # those of r + 1 by a run [s, e) that leaves a gap above the last one;
    # n points hold at most ceil(n/2) runs
    masks = [0]
    frontier = [(0, 0)]
    for _ in range(min(k, (n_points + 1) // 2)):
        frontier = [
            (mask | ((1 << e) - (1 << s)), e + 1)
            for mask, low in frontier
            for s in range(low, n_points)
            for e in range(s + 1, n_points + 1)
        ]
        masks += [mask for mask, _ in frontier]
    return SetSystem.from_masks(n_points, masks)


def gen_halfspaces(points) -> SetSystem:
    """All distinct traces of half-planes on the given rational points,
    plus the full and empty traces.

    Candidates: for each pair of points take the line through them; each
    side of the line, together with a prefix or suffix (in the along-line
    order) of the points lying on the line, is a half-plane trace obtained
    by an infinitesimal translation/rotation of the boundary.  Any
    half-plane can be translated and rotated onto such a position without
    changing its trace, so the enumeration is exhaustive.  Open and closed
    half-planes cut the same traces on a finite point set (nudge the
    boundary), so the traces are those of either.

    Coordinates are taken exactly (as ``Fraction`` takes ints, fractions,
    ``"p/q"`` strings and floats), then every point is scaled by the least
    common denominator ``den`` of all of them, so the side tests and the
    along-line keys run on integers.  Scaling by ``den > 0`` multiplies
    each of them by ``den**2``, which keeps every sign and every order.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if len(set(pts)) != len(pts):
        raise PreconditionError("points must be pairwise distinct")
    n = len(pts)
    den = math.lcm(*(c.denominator for p in pts for c in p))
    ints = [
        (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
        for x, y in pts
    ]
    bits = [1 << idx for idx in range(n)]
    traces = {0, (1 << n) - 1}
    for i, j in itertools.combinations(range(n), 2):
        px, py = ints[i]
        qx, qy = ints[j]
        ux, uy = qx - px, qy - py  # along-line direction
        c = ux * py - uy * px
        pos = 0
        neg = 0
        boundary = []
        for bit, (x, y) in zip(bits, ints):
            val = ux * y - uy * x
            if val > c:
                pos |= bit
            elif val < c:
                neg |= bit
            else:
                boundary.append((ux * x + uy * y, bit))
        boundary.sort()
        # the prefixes of the on-line points in along-line order, by a
        # running OR; the suffixes are their complements on the line
        prefixes = [0]
        for _, bit in boundary:
            prefixes.append(prefixes[-1] | bit)
        line = prefixes[-1]
        selections = prefixes + [line ^ pre for pre in prefixes[1:-1]]
        for sel in selections:
            traces.add(pos | sel)
            traces.add(neg | sel)
    return SetSystem.from_masks(n, traces)


def gen_cosets_zn(n: int, subgroup_divisors) -> SetSystem:
    """All cosets a + dZ_n of the listed subgroups dZ_n of Z_n."""
    divisors = list(subgroup_divisors)
    masks = []
    for d in divisors:
        if d <= 0 or n % d != 0:
            raise PreconditionError(f"{d} does not divide {n}")
        for a in range(d):
            masks.append(mask_from_indices(range(a, n, d)))
    return SetSystem.from_masks(n, masks)


def gen_subgroups_zn(n: int, divisors=None) -> SetSystem:
    """The family of subgroups dZ_n of Z_n (all of them by default)."""
    if n < 1:
        raise RangeError("modulus must be >= 1")
    if divisors is None:
        divisors = [d for d in range(1, n + 1) if n % d == 0]
    masks = []
    for d in divisors:
        if d <= 0 or n % d != 0:
            raise PreconditionError(f"{d} does not divide {n}")
        masks.append(mask_from_indices(range(0, n, d)))
    return SetSystem.from_masks(n, masks)


def gen_arithmetic_progressions(window: int, max_modulus: int) -> SetSystem:
    """The progressions a + bZ intersected with [0, window), for
    1 <= b <= max_modulus and 0 <= a < b."""
    if not (window >= max_modulus >= 1):
        raise RangeError("need window >= max_modulus >= 1")
    masks = []
    for b in range(1, max_modulus + 1):
        for a in range(b):
            masks.append(mask_from_indices(range(a, window, b)))
    return SetSystem.from_masks(window, masks)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def gen_pointline_fq(q: int, cap: int = 101) -> BiRelation:
    """The incidence relation between the q^2 points of the affine plane
    over F_q and its q^2 non-vertical lines eta = a*xi + b.

    Point (xi, eta) has index xi*q + eta; line (a, b) has index a*q + b.
    The relation has exactly q^3 incident pairs and no K_{2,2}.
    """
    if not _is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if q > cap:
        raise BudgetExceededError(f"q={q} exceeds cap {cap}")
    rows = [0] * (q * q)
    for xi in range(q):
        for eta in range(q):
            row = 0
            for a in range(q):
                b = (eta - a * xi) % q
                row |= 1 << (a * q + b)
            rows[xi * q + eta] = row
    return BiRelation.from_rows(q * q, q * q, rows)


class ElekesGrid(NamedTuple):
    points: tuple  # (x, y) pairs, index = position in tuple
    lines: tuple  # (a, b) pairs
    incidence: BiRelation


def gen_elekes_grid(k: int, cap: int = 20) -> ElekesGrid:
    """The grid construction with many point-line incidences.

    Points {0..k-1} x {0..4k^2-1}, lines y = a*x + b with 0 <= a < 2k and
    0 <= b < 2k^2.  Every line meets the grid in exactly k of its
    x-values, so there are 4k^4 incidences on 8k^3 vertices, which equals
    (1/4)|V|^(4/3).
    """
    if k < 1:
        raise RangeError("k must be >= 1")
    if k > cap:
        raise BudgetExceededError(f"k={k} exceeds cap {cap}")
    points = [(x, y) for x in range(k) for y in range(4 * k * k)]
    lines = [(a, b) for a in range(2 * k) for b in range(2 * k * k)]
    pindex = {p: i for i, p in enumerate(points)}
    rows = [0] * len(points)
    for j, (a, b) in enumerate(lines):
        for x in range(k):
            y = a * x + b
            rows[pindex[(x, y)]] |= 1 << j
    rel = BiRelation.from_rows(len(points), len(lines), rows)
    return ElekesGrid(tuple(points), tuple(lines), rel)


def gen_hypercube_edges(d: int, cap: int = 10):
    """The d-dimensional hypercube: 2^d vertices, d*2^(d-1) edges.

    Returns (edge list, SetSystem) where the system's members are the
    edges as 2-element subsets together with all singleton vertices, so
    that its traces on a vertex subset A are the singletons of A plus the
    edges induced on A.
    """
    if d < 1:
        raise RangeError("d must be >= 1")
    if d > cap:
        raise BudgetExceededError(f"d={d} exceeds cap {cap}")
    nv = 1 << d
    edges = []
    for v in range(nv):
        for bit in range(d):
            w = v ^ (1 << bit)
            if v < w:
                edges.append((v, w))
    masks = [(1 << v) | (1 << w) for v, w in edges]
    masks += [1 << v for v in range(nv)]
    return edges, SetSystem.from_masks(nv, masks)


def phi_hat(rel: BiRelation) -> SetSystem:
    """For a square relation, the family {{a, b} : (a, b) in Phi} of
    at-most-2-element subsets of X."""
    if rel.x_size != rel.y_size:
        raise PreconditionError("phi_hat needs a square relation")
    masks = []
    for a in range(rel.x_size):
        row = rel.rows[a]
        for b in range(rel.y_size):
            if (row >> b) & 1:
                masks.append((1 << a) | (1 << b))
    return SetSystem.from_masks(rel.x_size, masks)


class SandwichReport(NamedTuple):
    a0: int  # elements of A with a neighbor in X but none in A
    boundary: int  # elements of A with a neighbor outside A
    induced_pairs: int  # pairs of Phi with both coordinates in A
    trace_count: int  # |A cap S_phihat|
    lower_twice: int  # 2*|A0| + induced_pairs (lower bound, doubled)
    upper: int  # 1 + boundary + induced_pairs


def phi_hat_sandwich(rel: BiRelation, subset_mask: int) -> SandwichReport:
    """Exact data for the trace-count sandwich on a vertex subset A:

        |A0| + (1/2)|E| <= |A cap S_phihat| <= 1 + |B| + |E|

    Here |E| counts the relation's pairs with both coordinates in A
    (edges of the bigraph induced on two copies of A), A0 collects
    elements of A that have a neighbor somewhere in X but none inside A,
    and B collects elements of A with a neighbor outside A.  A0-elements
    contribute distinct singleton traces and each undirected within-A
    pair contributes at least one trace, giving the lower bound (reported
    doubled to stay in integers).  Every trace is the empty set, a
    singleton cut off by an edge leaving A (at most |B| of those, plus
    loops which E already counts), or a within-A pair, giving the upper
    bound.  Note that a singleton trace {a} can occur for a outside A0
    whenever a also has a neighbor inside A, so |B| rather than the
    smaller |A0| is needed on the right.
    """
    if rel.x_size != rel.y_size:
        raise PreconditionError("phi_hat needs a square relation")
    n = rel.x_size
    cols = rel.columns()
    a0 = 0
    boundary = 0
    for a in range(n):
        if not (subset_mask >> a) & 1:
            continue
        has_any = rel.rows[a] != 0 or cols[a] != 0
        has_in_a = (rel.rows[a] & subset_mask) != 0 or (cols[a] & subset_mask) != 0
        has_outside = (rel.rows[a] & ~subset_mask) != 0 or (
            cols[a] & ~subset_mask
        ) != 0
        if has_any and not has_in_a:
            a0 += 1
        if has_outside:
            boundary += 1
    induced = sum(
        bin(rel.rows[a] & subset_mask).count("1")
        for a in range(n)
        if (subset_mask >> a) & 1
    )
    count = trace_count(phi_hat(rel), subset_mask)
    return SandwichReport(
        a0, boundary, induced, count, 2 * a0 + induced, 1 + boundary + induced
    )


class KrsWitness(NamedTuple):
    left: tuple
    right: tuple


def detect_krs(rel: BiRelation, r: int, s: int, budget=None):
    """Find r left and s right vertices forming a complete sub-bigraph,
    or certify absence.  Left candidates are pruned to rows with at least
    s neighbors; candidate r-subsets intersect their rows directly."""
    if r > s:
        raise PreconditionError("call with r <= s")
    if r < 1:
        raise RangeError("r must be >= 1")
    budget = resolve_budget(budget)
    candidates = [a for a in range(rel.x_size) if bin(rel.rows[a]).count("1") >= s]
    work = 0
    for combo in itertools.combinations(candidates, r):
        work += 1
        if work > budget:
            raise InconclusiveError("K_{r,s} search exceeded budget")
        common = rel.rows[combo[0]]
        for a in combo[1:]:
            common &= rel.rows[a]
            if bin(common).count("1") < s:
                break
        else:
            bits = [b for b in range(rel.y_size) if (common >> b) & 1]
            if len(bits) >= s:
                return KrsWitness(tuple(combo), tuple(bits[:s]))
    return None
