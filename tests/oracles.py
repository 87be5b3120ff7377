"""Brute-force reference definitions of VC dimension, independence
dimension, the budget units of the VC level search, breadth, the Helly
number, the shatter function, the number of shattered sets and the
chain, star and costar trace patterns, for ground sets of at most 6
elements, of ladder dimension, the dual shatter function and type counts
for small relations, of the interval families by a scan of all 2^n
subsets, and of half-plane traces in ``Fraction`` arithmetic.

Each follows the definition directly and shares no code with the searches
in ``vclab``, so that the fast paths can be diffed against them.
"""

import itertools
from fractions import Fraction

MAX_GROUND = 6


def _check_small(system):
    if system.ground_size > MAX_GROUND:
        raise ValueError(f"oracles take ground sets of at most {MAX_GROUND}")


def vc_oracle(system):
    """Largest |A| over the whole power set with |S cap A| = 2^|A|; -1 for
    the empty family."""
    _check_small(system)
    if not system.members:
        return -1
    best = 0
    for a in range(1 << system.ground_size):
        size = bin(a).count("1")
        if size > best and len({m & a for m in system.members}) == 1 << size:
            best = size
    return best


def ind_oracle(system):
    """Largest k such that some k members have all 2^k atoms (intersections
    of members and complements) nonempty; 0 when no member qualifies."""
    _check_small(system)
    full = (1 << system.ground_size) - 1
    best = 0
    for k in range(1, len(system.members) + 1):
        for family in itertools.combinations(system.members, k):
            atoms_nonempty = True
            for signs in itertools.product((True, False), repeat=k):
                atom = full
                for mem, inside in zip(family, signs):
                    atom &= mem if inside else full & ~mem
                if atom == 0:
                    atoms_nonempty = False
                    break
            if atoms_nonempty:
                best = k
    return best


def _traces(system, a):
    """The traces S cap A, for A a tuple of elements."""
    return {frozenset(x for x in a if (m >> x) & 1) for m in system.members}


def shattered_count_oracle(system):
    """The number of subsets A of the ground set with |S cap A| = 2^|A|."""
    _check_small(system)
    return sum(
        len(_traces(system, a)) == 2**size
        for size in range(system.ground_size + 1)
        for a in itertools.combinations(range(system.ground_size), size)
    )


def vc_work_oracle(system):
    """The budget units of the VC level search, per level: for each d below
    the cap floor(log2 |S|), the number of (d+1)-sets of elements whose
    d-subsets are all shattered; it stops after the first level with no
    shattered (d+1)-set.  Empty for the empty family."""
    _check_small(system)
    n = system.ground_size

    def shattered(a):
        return len(_traces(system, a)) == 2 ** len(a)

    counts = []
    for d in range(len(system.members).bit_length() - 1):
        cands = [
            a
            for a in itertools.combinations(range(n), d + 1)
            if all(shattered(b) for b in itertools.combinations(a, d))
        ]
        counts.append(len(cands))
        if not any(shattered(a) for a in cands):
            break
    return counts


def intervals_oracle(n, k):
    """The masks of the subsets of n ordered points with at most k runs of
    consecutive points, by a scan of all 2^n subsets; a run starts at each
    bit set whose lower neighbour is clear."""
    return [m for m in range(1 << n) if (m & ~(m << 1)).bit_count() <= k]


def _mask(indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def halfspaces_oracle(points):
    """The masks of the half-plane traces on distinct points, with the
    full and empty traces: for each line through two points, each open
    side plus a prefix or suffix of the points on the line in along-line
    order, every side test and key computed on ``Fraction`` coordinates."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    n = len(pts)
    traces = {0, (1 << n) - 1}
    for i, j in itertools.combinations(range(n), 2):
        px, py = pts[i]
        qx, qy = pts[j]
        ux, uy = qx - px, qy - py  # along-line direction
        nx, ny = -uy, ux  # normal
        c = nx * px + ny * py
        pos = 0
        neg = 0
        boundary = []
        for idx, (x, y) in enumerate(pts):
            val = nx * x + ny * y
            if val > c:
                pos |= 1 << idx
            elif val < c:
                neg |= 1 << idx
            else:
                boundary.append((ux * x + uy * y, idx))
        boundary.sort()
        border_ids = [idx for _, idx in boundary]
        selections = {0, _mask(border_ids)}
        for cut in range(1, len(border_ids)):
            selections.add(_mask(border_ids[:cut]))
            selections.add(_mask(border_ids[cut:]))
        for side in (pos, neg):
            for sel in selections:
                traces.add(side | sel)
    return traces


def pi_oracle(system, t):
    """pi_S(t): the most distinct traces S cap A over t-subsets A of the
    ground set; 0 for the empty family."""
    _check_small(system)
    return max(
        len(_traces(system, a))
        for a in itertools.combinations(range(system.ground_size), t)
    )


def types_oracle(delta, params):
    """The number of distinct tuples (phi(x; b) for phi in Delta, b in
    params) over the objects x."""
    return len(
        {
            tuple(rel.holds(x, b) for rel in delta.relations for b in params)
            for x in range(delta.x_size)
        }
    )


def dual_pi_oracle(delta, t):
    """pi*_Delta(t): the most types over t-subsets of the parameters."""
    return max(
        types_oracle(delta, params)
        for params in itertools.combinations(range(delta.y_size), t)
    )


def _intersection(family, full):
    out = full
    for mem in family:
        out &= mem
    return out


def breadth_oracle(system):
    """Smallest d > 0 such that every nonempty intersection of more than d
    members equals the intersection of d of them; None for the empty
    family."""
    _check_small(system)
    members = system.members
    if not members:
        return None
    full = (1 << system.ground_size) - 1
    for d in range(1, len(members)):
        holds = True
        for size in range(d + 1, len(members) + 1):
            for family in itertools.combinations(members, size):
                inter = _intersection(family, full)
                if inter and not any(
                    _intersection(sub, full) == inter
                    for sub in itertools.combinations(family, d)
                ):
                    holds = False
                    break
            if not holds:
                break
        if holds:
            return d
    return len(members)  # no subfamily has more than |S| members


def helly_oracle(system):
    """Smallest d >= 1 such that every subfamily of more than d members
    whose d-member subfamilies all have nonempty intersection has a
    nonempty intersection itself (a subfamily of d or fewer members is
    one of its own d-subsets)."""
    _check_small(system)
    members = system.members
    full = (1 << system.ground_size) - 1
    d = 1
    while any(
        _intersection(family, full) == 0
        and all(
            _intersection(sub, full)
            for sub in itertools.combinations(family, d)
        )
        for size in range(d + 1, len(members) + 1)
        for family in itertools.combinations(members, size)
    ):
        d += 1
    return d


def trace_pattern_oracle(system, pattern):
    """The first base A (a k-subset of the ground set, in lexicographic
    order) on which the traces include every singleton {a} (star) or
    every co-singleton A minus {a} (costar), a in A, with the first member
    realising each, in the order of A, as (base, member indices); None
    when there is none."""
    _check_small(system)
    if pattern.kind not in ("star", "costar"):
        raise ValueError("the oracle takes star and costar patterns")
    for base in itertools.combinations(range(system.ground_size), pattern.size):
        amask = sum(1 << a for a in base)
        traces = {}
        for idx, mem in enumerate(system.members):
            traces.setdefault(mem & amask, idx)
        if pattern.kind == "star":
            wanted = [1 << a for a in base]
        else:
            wanted = [amask & ~(1 << a) for a in base]
        if all(w in traces for w in wanted):
            return base, tuple(traces[w] for w in wanted)
    return None


def chain_oracle(system, k):
    """The first ordering a_1..a_k of a k-subset of the ground set (bases
    in lexicographic order, then their orderings) on which the traces
    include every prefix {a_1..a_j}, j = 1..k; None when there is none."""
    _check_small(system)
    for base in itertools.combinations(range(system.ground_size), k):
        traces = _traces(system, base)
        for order in itertools.permutations(base):
            if all(frozenset(order[:j]) in traces for j in range(1, k + 1)):
                return order
    return None


def ladder_oracle(rel):
    """Largest n with distinct a_1..a_n and distinct b_1..b_n such that
    (a_i, b_j) is related iff i <= j, over all ordered choices."""
    for n in range(min(rel.x_size, rel.y_size), 0, -1):
        for a_seq in itertools.permutations(range(rel.x_size), n):
            for b_seq in itertools.permutations(range(rel.y_size), n):
                if all(
                    rel.holds(a, b) == (i <= j)
                    for i, a in enumerate(a_seq)
                    for j, b in enumerate(b_seq)
                ):
                    return n
    return 0
