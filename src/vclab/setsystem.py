"""Finite set systems and their exact invariants.

A set system is a base set X = {0..n-1} together with a family of subsets
of X.  Members are stored as integer bit masks: bit i of a member word
encodes whether element i belongs to the member.  After canonicalization
members are pairwise distinct and sorted lexicographically as bit strings
(character i of the string is bit i of the mask).

Provided invariants: traces and pullbacks, the dual system, the shatter
function pi(t), VC dimension, the Sauer-Shelah binomial bound,
independence dimension, breadth, Helly number, chain/star/costar trace
patterns, and the breadth-duality check for lattices of sets.  Three
searches compute them.  VC, and IND as VC of the dual, run a level search
over shattered element sets inside ``vc_dimension``.  Each shattered set
keeps its children as one element bitset, and the candidates of a set
are the AND of its immediate subsets' child bitsets, above its elements
(an Apriori join); a budget unit is one candidate tested.  The
shattering test keeps the candidates whose column splits every block of
the parent's partition, either candidate by candidate or, when the
members are fewer than candidates times blocks, all at once: the
columns that split a block are the union of its members minus their
intersection.  Breadth, the Helly number and the star and costar
patterns ask for k members and k elements where member i misses element
i and contains the other k - 1 (a co-identity submatrix); one
depth-first search, ``_cotrace_search``, finds them, with a ``meet``
condition on the common part of the chosen columns: star, costar and
breadth over element sets need none, breadth over member sets needs it
nonempty and Helly needs it empty.  A chain pattern is a ladder (a_i in
c_j iff i <= j) of the membership relation, found by the depth-first
``_ladder_search``, which also computes ``relations.ladder_dimension``
from a relation's columns.  Traces are counted by partition refinement:
``_refine`` splits blocks of members (member bitsets) by an element's
column, for pi and the dual pi* in ``max_traces`` and for the partitions
of the shattered sets of ``vc_dimension``.  ``transpose`` is the one
bit-matrix transpose behind every dual and every column.  The part of
``max_traces`` that does not depend on t (dedupe, transpose, pairing of
columns) is memoised for the last input, keyed by its value, so a profile
of pi or pi* over a t-range sets up once.
With it ``max_traces`` keeps the one fact its counts prove about the VC
dimension d of a single family (one bit of spread): a count below 2^t
gives d <= t - 1, and later walks on that input stop at the Sauer-Shelah
bound.  A walk bounds each frame before it pushes it, and with one
element left also skips a frame whose blocks cannot beat the best count,
a block of one member giving one trace; at the last element each leaf
stops at the first block that leaves it unable to beat the best count.
These caps and bounds bound the count, so no value changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from typing import NamedTuple, Optional

from .config import resolve_budget
from .errors import (
    BudgetExceededError,
    InconclusiveError,
    PreconditionError,
    RangeError,
    ShapeError,
)
from .value import Value


def mask_to_string(mask: int, width: int) -> str:
    return format(mask, f"0{width}b")[::-1] if width else ""


def string_to_mask(bits: str) -> int:
    mask = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            mask |= 1 << i
        elif ch != "0":
            raise ShapeError(f"bit string may contain only 0/1, got {ch!r}")
    return mask


def json_field(data, key: str, kind: type):
    """``data[key]`` of a parsed JSON object, checked to be a ``kind``; an
    int field rejects booleans and floats such as 3.0."""
    if not isinstance(data, dict):
        raise ShapeError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ShapeError(f"missing field {key!r}")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ShapeError(f"field {key!r} must be {kind.__name__}, got {value!r}")
    return value


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _string_order(width: int):
    """A sort key on masks of the given width that orders them as their bit
    strings (character i is bit i): the mask with its bits reversed within
    whole bytes, which is the mask reversed within its width, shifted."""
    size = (width + 7) // 8

    def key(m: int) -> int:
        reversed_bytes = m.to_bytes(size, "little").translate(_REVERSED_BYTE)
        return int.from_bytes(reversed_bytes, "big")

    return key


def mask_from_indices(indices) -> int:
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def indices_of_mask(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class SetSystem(Value, compare=("ground_size", "members")):
    """An immutable, canonicalized finite set system."""

    ground_size: int
    members: tuple  # tuple of int bit masks, distinct, sorted as bit strings
    had_duplicates: bool  # shown by repr, left out of == and hash

    def __init__(self, ground_size, members, had_duplicates=False):
        d = self.__dict__
        d["ground_size"] = ground_size
        d["members"] = members
        d["had_duplicates"] = had_duplicates

    @classmethod
    def from_masks(cls, ground_size: int, masks) -> "SetSystem":
        if ground_size < 0:
            raise RangeError("ground_size must be >= 0")
        full = (1 << ground_size) - 1
        masks = list(masks)
        for m in masks:
            if m < 0 or m & ~full:
                raise ShapeError(
                    f"member mask {m} does not fit ground size {ground_size}"
                )
        distinct = sorted(set(masks), key=_string_order(ground_size))
        return cls(
            ground_size=ground_size,
            members=tuple(distinct),
            had_duplicates=len(distinct) != len(masks),
        )

    @classmethod
    def from_strings(cls, ground_size: int, strings) -> "SetSystem":
        masks = []
        for s in strings:
            if not isinstance(s, str):
                raise ShapeError(f"member {s!r} is not a bit string")
            if len(s) != ground_size:
                raise ShapeError(
                    f"member string of length {len(s)}, expected {ground_size}"
                )
            masks.append(string_to_mask(s))
        return cls.from_masks(ground_size, masks)

    @classmethod
    def from_json(cls, data) -> "SetSystem":
        if isinstance(data, str):
            data = json.loads(data)
        return cls.from_strings(
            json_field(data, "ground_size", int), json_field(data, "members", list)
        )

    def to_json(self) -> dict:
        return {
            "ground_size": self.ground_size,
            "members": [mask_to_string(m, self.ground_size) for m in self.members],
        }

    def __len__(self):
        return len(self.members)


def _coerce_subset_mask(system: SetSystem, subset) -> int:
    if isinstance(subset, str):
        if len(subset) != system.ground_size:
            raise ShapeError(
                f"subset width {len(subset)} != ground size {system.ground_size}"
            )
        return string_to_mask(subset)
    mask = int(subset)
    if mask < 0 or mask >> system.ground_size:
        raise ShapeError("subset mask does not fit the ground set")
    return mask


def pullback(system: SetSystem, f) -> SetSystem:
    """The system on X' whose members are the f-preimages of the members,
    for an index map f: X' -> X given as a sequence."""
    f = list(f)
    for img in f:
        if not (0 <= img < system.ground_size):
            raise RangeError(f"image index {img} out of range")
    cols = transpose(system.members, system.ground_size)
    pulled = transpose([cols[img] for img in f], len(system.members))
    return SetSystem.from_masks(len(f), pulled)


def trace(system: SetSystem, subset) -> SetSystem:
    """The system S cap A = {S cap A : S in S} on the restricted base set A.

    Elements of A are reindexed 0..|A|-1 in increasing original order.
    """
    return pullback(system, indices_of_mask(_coerce_subset_mask(system, subset)))


def trace_count(system: SetSystem, subset_mask: int) -> int:
    """|S cap A| without building the restricted system."""
    return len({m & subset_mask for m in system.members})


def transpose(masks, width: int) -> list:
    """The columns of a bit matrix given as a sequence of rows: bit j of
    column x is bit x of masks[j], for x in 0..width-1.  Every mask must
    be below 2^width."""
    if not masks:
        return [0] * width
    # bin(m | 1 << width) is "0b1" and then the width bits of m, highest
    # first; with the rows joined last row first, the characters at one
    # offset of every block of width + 3 spell a column, row 0 last
    step = width + 3
    bits = "".join(map(bin, map((1 << width).__or__, reversed(masks))))
    return [int(bits[step - 1 - x :: step], 2) for x in range(width)]


def dual_system(system: SetSystem) -> SetSystem:
    """The set system of the dual relation: base = member indices, one
    member per element of X recording which original members contain it."""
    return SetSystem.from_masks(
        len(system.members), transpose(system.members, system.ground_size)
    )


def _refine(blocks, col: int) -> list:
    """The blocks of a partition of members (each a member bitset) split
    by a column: the members in it and those outside, empty parts dropped."""
    out = []
    for b in blocks:
        inside = b & col
        if inside and inside != b:
            out += (inside, b ^ inside)
        else:
            out.append(b)
    return out


@functools.lru_cache(maxsize=1)
def _trace_setup(masks: tuple, n: int, spread: int) -> tuple:
    """The part of ``max_traces`` that does not depend on t: the number of
    distinct masks, for each element x its columns over the distinct masks
    in their first order, as (the columns at x + s for the bits s of
    spread but the last, the column at x + the last bit), and a one-slot
    list holding an upper bound on the VC dimension of the masks that
    ``max_traces`` learns from its counts (n until one is learned)."""
    masks = list(dict.fromkeys(masks))
    *init, top = indices_of_mask(spread)
    columns = transpose(masks, n + top)
    # the last column stands apart, as a leaf only counts the blocks that
    # split on it
    inits = list(zip(*[columns[s : s + n] for s in init])) or [()] * n
    return len(masks), tuple(zip(inits, columns[top:])), [n]


def max_traces(masks, n: int, t: int, budget=None, spread: int = 1) -> int:
    """The largest number of distinct ``m & A*spread`` over the masks m,
    for A ranging over the t-subsets of {0..n-1}.

    With spread 1 this is pi(t) of the family; a spread of several bits
    repeats A once per bit, so that A picks the same columns out of each
    block of a stacked row.  Errors out when C(n,t) exceeds the budget,
    before any other work.

    The distinct masks are partitioned by their trace on A, each block a
    bitset over the masks; adding an element to A splits every block by
    the element's columns (one per bit of spread).  A depth-first walk
    over the t-subsets in lexicographic order carries the partition down.
    A frame is pushed only when its blocks times 2^(elements left * bits
    of spread) can beat the best count, tested once as its parent makes
    it, and the walk stops at the most there can be: the number of
    distinct masks, or 2^(t * bits of spread).  At the last element a
    leaf gives one trace per block and one more per block that splits, so
    it can beat the best count by at most 2 * blocks - best; each block
    left whole takes one from that room, and the leaf stops when none is
    left.

    Two more caps are exact.  A block of one member cannot split, so with
    one element left a frame of k blocks, ``lone`` of them of one member,
    gives at most k * 2^bits - lone * (2^bits - 1) traces, and is not
    pushed when that cannot beat the best count.  With one bit of spread
    the walk also stops at the Sauer-Shelah bound sum_{i <= d} C(t, i),
    for d an upper bound on the VC dimension of the masks (Sauer 1972;
    Shelah 1972).  Nothing computes d: a finished walk whose count is below 2^t
    proves that no t-set is shattered, so d <= t - 1, and the memo of the
    set-up keeps the least such bound for later calls on the same input.
    A profile over increasing t is so capped from its first count below
    2^t on.  With several bits nothing is learned: a count below
    2^(t * bits) bounds no VC dimension.

    The set-up (dedupe, transpose, and the pairing of each element's
    columns) depends only on (masks, n, spread) and is memoised for the
    last such input, with the learned bound, so a loop over t on one input
    sets up once; the inputs are immutable values, so the memo cannot go
    stale.
    """
    budget = resolve_budget(budget)
    if math.comb(n, t) > budget:
        raise BudgetExceededError(
            f"C({n},{t}) exceeds the enumeration budget {budget}",
            lower_bound=None,
        )
    masks = tuple(masks)
    if not masks or t == 0:  # no traces, or the one empty trace
        return min(len(masks), 1)
    distinct, cols, vc = _trace_setup(masks, n, spread)
    bits = spread.bit_count()
    cap = min(distinct, 1 << t * bits)
    # vc[0] bounds the VC dimension; it is n, which caps nothing, until a
    # count with one bit of spread falls below 2^t.  Above d the
    # Sauer-Shelah sum is at least C(t, d) + C(t, d - 1) = C(t + 1, d), so
    # only a cap above that can fall
    d = vc[0]
    if d < t and math.comb(t + 1, d) < cap:
        cap = min(cap, sauer_shelah_bound(t, d))
    best = 0
    # frames (partition by the chosen elements, next element to try,
    # elements still to choose, x included); a frame is pushed only when
    # it can beat the best count, and x <= n - left
    stack = [([(1 << distinct) - 1], 0, t)] if t <= n else []
    while stack:
        blocks, x, left = stack.pop()
        if left > 1:
            if x < n - left:  # the frame that skips x
                stack.append((blocks, x + 1, left))
            init, last = cols[x]
            for col in init:
                blocks = _refine(blocks, col)
            blocks = _refine(blocks, last)
            left -= 1
            k = len(blocks)
            if k << left * bits <= best:
                continue
            # a block of one member cannot split, so at the last element it
            # gives one trace, not 2^bits.  The bound is at least k, so it
            # can prune only when k is at most best; with one leaf left,
            # counting the blocks costs about what the leaf it could skip
            # costs
            if left == 1 and k <= best and x < n - 2:
                lone = list(map(int.bit_count, blocks)).count(1)
                if (k << bits) - lone * ((1 << bits) - 1) <= best:
                    continue
            stack.append((blocks, x + 1, left))
            continue
        # at the last element a leaf gives one trace per block and one more
        # per block that splits on its last column; room is what it can
        # still gain over the best count, and each block left whole costs
        # one, so the leaf stops once room is spent
        for init, last in cols[x:]:
            leaf = blocks
            for col in init:
                leaf = _refine(leaf, col)
            room = 2 * len(leaf) - best
            if room <= 0:
                continue
            for b in leaf:
                if not 0 != b & last != b:
                    room -= 1
                    if not room:
                        break
            else:
                best += room
                if best == cap:  # no count can beat it: end the walk
                    stack.clear()
                    break
    # no t-set is shattered: the VC dimension is at most t - 1
    if t <= d and best < 1 << t and bits == 1:
        vc[0] = t - 1
    return best


class ShatterValue(NamedTuple):
    value: int
    exactness: str  # "exact" or "lower_bound"


def shatter_function(
    system: SetSystem,
    t: int,
    mode: str = "exact",
    budget=None,
    samples: int = 2000,
    seed: int = 0,
) -> ShatterValue:
    """pi_S(t): the maximum of |S cap A| over t-element subsets A.

    Exact mode enumerates all C(n,t) subsets and errors out when that
    exceeds the budget.  Sample mode draws random t-subsets and returns
    the best value found, flagged as a lower bound; it stops drawing once
    the value is min(|S|, 2^t), which no t-subset can beat.
    """
    n = system.ground_size
    if t < 0 or t > n:
        raise RangeError(f"t={t} out of range 0..{n}")
    if mode not in ("exact", "sample"):
        raise RangeError(f"unknown mode {mode!r}")
    if not system.members:
        return ShatterValue(0, "exact")
    if t == 0:
        return ShatterValue(1, "exact")
    if mode == "exact":
        return ShatterValue(max_traces(system.members, n, t, budget), "exact")
    rng = random.Random(seed)
    best = 0
    most = min(len(system.members), 1 << t)
    universe = list(range(n))
    for _ in range(samples):
        a = mask_from_indices(rng.sample(universe, t))
        best = max(best, trace_count(system, a))
        if best == most:
            break
    return ShatterValue(best, "lower_bound")


def sauer_shelah_bound(n: int, d: int) -> int:
    """C(n,0) + ... + C(n,d), exact."""
    if d < 0 or d > n:
        raise RangeError(f"need 0 <= d <= n, got n={n}, d={d}")
    return sum(math.comb(n, i) for i in range(d + 1))


def vc_dimension(system: SetSystem, budget=None) -> int:
    """Largest size of a shattered subset; -1 for the empty family.

    Shattered sets are downward closed, so they are found level by level.
    A shattered d-set has 2^d distinct traces, so d <= floor(log2 |S|)
    (Linial, Mansour and Rivest, 1991), and the search stops at that cap.
    A candidate ``parent | 1 << x`` (x above the parent's elements) is
    tested only when all its immediate subsets are in the last level.
    Each parent P keeps its shattered children as one bitset, kids[P], of
    the x above P with P | 1 << x shattered; the candidates of a set Q at
    the next level are then the x above Q in kids[Q - q] for every q in
    Q, one AND per element (the Apriori join of Agrawal and Srikant,
    1994, on bitsets).  A candidate is shattered iff its column splits
    every block of the parent's partition of the members by trace.  The
    columns that split a block b are the union of b's members minus
    their intersection, so the shattered children of a parent are its
    candidates ANDed with that splitter set over every block, |S| member
    visits; this test is taken when |S| is below candidates x blocks, the
    most block tests a candidate-by-candidate loop can make, and that
    loop otherwise.  One test costs one budget unit; a parent's
    candidates are charged together before they are tested, and on
    running out BudgetExceededError carries the last full level as bound.
    """
    if not system.members:
        return -1
    budget = resolve_budget(budget)
    members = system.members
    n = system.ground_size
    cols = transpose(members, n)
    cap = len(members).bit_length() - 1
    # a level is its shattered sets in order and, in step, the partition
    # of the members by their traces on each set's parent, shared by the
    # parent's children (the empty set carries its own, one block); a
    # set's own partition, 2^d blocks, is split from it only once the set
    # has candidates
    sets, parts = [0], [[(1 << len(members)) - 1]]
    kids = {}  # parent of the level above -> bitset of its children
    work = 0
    d = 0
    while d < cap:
        # sets of the cap's size are never extended: no partition
        last = d + 1 == cap
        next_sets, next_parts = [], []
        next_kids = {}
        sets.reverse()
        parts.reverse()
        while sets:  # popping each parent frees its share of a partition
            parent, blocks = sets.pop(), parts.pop()
            cands = (1 << n) - (1 << parent.bit_length())
            rest = parent
            while rest and cands:
                low = rest & -rest
                cands &= kids.get(parent ^ low, 0)
                rest ^= low
            if not cands:
                continue
            if parent:
                blocks = _refine(blocks, cols[parent.bit_length() - 1])
            tests = cands.bit_count()
            work += tests
            if work > budget:
                raise BudgetExceededError(
                    "VC level search exceeded budget", lower_bound=d
                )
            if len(members) < tests * len(blocks):
                # keep the candidates whose column splits every block
                found = cands
                for b in blocks:
                    union, common = 0, -1
                    while b:
                        low = b & -b
                        b ^= low
                        mask = members[low.bit_length() - 1]
                        union |= mask
                        common &= mask
                    found &= union & ~common
                    if not found:
                        break
            else:
                found = 0
                rest = cands
                while rest:
                    low = rest & -rest
                    rest ^= low
                    col = cols[low.bit_length() - 1]
                    for b in blocks:
                        inside = b & col
                        if inside == 0 or inside == b:
                            break
                    else:
                        found |= low
            if not found:
                continue
            next_kids[parent] = found
            rest = found
            while rest:
                low = rest & -rest
                rest ^= low
                next_sets.append(parent | low)
                next_parts.append(None if last else blocks)
        if not next_sets:
            break
        sets, parts, kids = next_sets, next_parts, next_kids
        d += 1
    return d


def independence_dimension(system: SetSystem, budget=None) -> int:
    """Largest n such that some n members are independent: all 2^n atom
    patterns (intersections of members and complements) are nonempty.

    Members are independent exactly when the dual system, with one member
    per element x recording which members contain x, shatters them; so
    IND(S) = VC(S*).  IND of the empty family is 0.
    """
    # with ground size 0 the dual family is empty: VC -1, but IND 0
    return max(0, vc_dimension(dual_system(system), budget))


def _cotrace_search(searches, best, cap, budget, meet=None) -> tuple:
    """The largest size, above ``best`` and at most ``cap``, of a set W of
    elements on which the root members trace every co-singleton W minus
    {w}, over searches given as (root, cols): a member bitset and the
    columns (member bitsets) of the elements to try, in order.

    Such sets are downward closed.  A set's state is A, the root members
    containing W, and one bitset B_w per w in W, the root members that
    contain W minus {w} and miss w; extending W by x with column C takes
    A & C, every B_w & C and the new B_x = A & ~C, and is kept when every
    B is nonempty.  A kept set counts toward the size always (``meet``
    None), or only when its A is nonempty (True) or empty (False); a set
    with A empty has no extensions.  Sets are tried depth first, in
    lexicographic order, so the first of a size is the least.  Later B's
    are disjoint parts of A, and with ``meet`` True so is the final A, so
    a frame is pruned when |W| plus the most elements it can still take,
    at most the elements left and |A| (|A| - 1 with ``meet`` True), is at
    most ``best``.  One budget unit is one extension tested; on running
    out, BudgetExceededError carries the best size (given or found) as
    bound.

    Only the first element of each distinct column on the root is tried:
    two elements with the same one are never both in W (each B would have
    to hold a member with one and not the other), and the earlier gives
    the smaller set with the same B's.  A column holding every root member
    is never in W (its B_x is empty).  So a search tries fewer than
    min(len(cols) + 1, 2^|root|) elements.

    Returns (best, found): found is (W as indices into its search's cols,
    the B_w in that order) for the last improvement, or None.
    """
    budget = resolve_budget(budget)
    found = None
    work = 0
    for root, all_cols in searches:
        first = {}
        for x, col in enumerate(all_cols):
            first.setdefault(col & root, x)
        first.pop(root, None)
        cols = list(first)
        elements = list(first.values())
        n = len(cols)
        # frames (A, W, the B_w, next index into cols); a frame's sibling
        # (skip this element) is pushed under its child (take it)
        stack = [(root, (), (), 0)]
        while stack:
            a, w, bs, i = stack.pop()
            room = min(n - i, a.bit_count() - (meet is True))
            if i == n or len(w) + room <= best:
                continue
            stack.append((a, w, bs, i + 1))
            work += 1
            if work > budget:
                raise BudgetExceededError(
                    "co-singleton trace search exceeded budget", lower_bound=best
                )
            col = cols[i]
            fresh = a & ~col
            if not fresh:
                continue
            grown = []
            for b in bs:
                b &= col
                if not b:
                    break
                grown.append(b)
            else:
                grown.append(fresh)
                w += (elements[i],)
                a &= col
                if len(w) > best and (meet is None or meet == (a != 0)):
                    best, found = len(w), (w, grown)
                    if best == cap:
                        return best, found
                if a:
                    stack.append((a, w, grown, i + 1))
    return best, found


def _ladder_moves(a, u, within):
    """The moves from the ladder state (A, U), given the (column, index)
    pairs holding A: elements outside U in order, each with its columns."""
    free = 0
    for col, _ in within:
        free |= col
    free &= ~u
    while free:
        low = free & -free
        free ^= low
        inner = [(col, j) for col, j in within if col & low]
        for col, j in inner:
            yield a | low, u | col, inner, (low.bit_length() - 1, j)


def _ladder_search(cols, cap, budget, best=0) -> tuple:
    """The largest k, at most ``cap``, with elements a_1..a_k and columns
    (element bitsets) c_1..c_k such that a_i is in c_j iff i <= j, and
    the ladder as (a_i, index of c_i) pairs for the last improvement, or
    None.  Given a ``best`` to beat, only longer ladders are sought, and
    when there is none that ``best`` comes back with None.  A move adds an
    element a outside U, the union of the chosen columns (a misses them
    all), and a column holding A, the chosen elements, and a; no chosen
    column holds a, so (A, U) is the whole state and a seen state is
    skipped.  Moves go depth first, elements then columns in increasing
    order, first of each distinct column only; a frame is pruned when |A|
    plus the most elements outside U of a column holding A is at most the
    best.  A budget unit is one move, charged before the seen check;
    BudgetExceededError carries the best, which bounds the answer only if
    the ``best`` given does.
    """
    budget = resolve_budget(budget)
    first = {}
    for j, col in enumerate(cols):
        if col:
            first.setdefault(col, j)
    found = None
    work = 0
    seen = set()
    # frames (bound on the size, ladder so far, move generator)
    top = max((col.bit_count() for col in first), default=0)
    stack = [(top, (), _ladder_moves(0, 0, list(first.items())))]
    while stack:
        bound, path, moves = stack[-1]
        move = next(moves, None) if bound > best else None
        if move is None:
            stack.pop()
            continue
        work += 1
        if work > budget:
            raise BudgetExceededError("ladder search exceeded budget", lower_bound=best)
        a, u, within, step = move
        path += (step,)
        if len(path) > best:
            best, found = len(path), path
            if best == cap:
                return best, found
        if (a, u) not in seen:
            seen.add((a, u))
            bound = len(path) + max((col & ~u).bit_count() for col, _ in within)
            if bound > best:
                stack.append((bound, path, _ladder_moves(a, u, within)))
    return best, found


def breadth(system: SetSystem, budget=None) -> Optional[int]:
    """Smallest d > 0 such that every nonempty intersection of more than d
    members equals the intersection of d of them; None for the empty family.

    The answer is the maximum size of an irredundant subfamily with
    nonempty intersection (irredundant: dropping any one member strictly
    enlarges the intersection), or 1 if there is none; it is at most n - 1.
    Both sides are co-identity searches, ``_cotrace_search``, and the one
    over the smaller universe runs, one budget unit per extension tested:

    - m <= n members: a subfamily is irredundant exactly when each member
      misses a point, its B, that all the others contain: the co-singleton
      search over the members, with the members as columns on the root of
      all points, and ``meet`` True for the nonempty intersection A.
    - m > n: such a subfamily of size k with a point p in its
      intersection has pairwise distinct witness elements, w_i in every
      member but the i-th, forming a k-set W without p on which the
      members containing p trace every co-singleton W minus {w};
      conversely the members realising those traces form such a
      subfamily.  So the search from each distinct column of a point
      finds the largest W, with ``meet`` None.
    """
    members = system.members
    if not members:
        return None
    n = system.ground_size
    try:
        if len(members) <= n:
            best, _ = _cotrace_search([((1 << n) - 1, members)], 0, n - 1, budget, True)
        else:
            cols = transpose(members, n)
            searches = ((root, cols) for root in dict.fromkeys(cols))
            best, _ = _cotrace_search(searches, 0, n - 1, budget)
    except BudgetExceededError as exc:
        exc.lower_bound = max(1, exc.lower_bound)
        raise
    return max(1, best)


def helly_number(system: SetSystem, cap: int = 20) -> int:
    """Smallest d such that every subfamily whose d-subsets all intersect
    has nonempty total intersection.

    Equals the largest size of a minimal inconsistent subfamily (empty
    total intersection, but every proper subfamily intersects), or 1 when
    every subfamily intersects.  Those are the irredundant subfamilies
    (dropping any one member strictly enlarges the intersection) with
    empty intersection, so the co-singleton search over the members, as
    for breadth with m <= n, finds them with ``meet`` False; their
    distinct witness points (each in all members but one) bound their
    size by n.  Families of more than ``cap`` members are refused.
    """
    members = system.members
    m = len(members)
    if m > cap:
        raise BudgetExceededError(
            f"helly_number enumerates subfamilies; {m} members exceeds cap {cap}"
        )
    # a search over m columns tests fewer than (m + 1) * 2^m extensions,
    # so this budget never runs out
    n = system.ground_size
    best, _ = _cotrace_search([((1 << n) - 1, members)], 0, n, (m + 1) << m, False)
    return max(1, best)


class TracePattern(Value):
    kind: str  # chain | star | costar
    size: int

    def __init__(self, kind, size):
        if kind not in ("chain", "star", "costar"):
            raise RangeError(f"unknown pattern kind {kind!r}")
        if size < 2:
            raise RangeError("pattern size must be >= 2")
        d = self.__dict__
        d["kind"] = kind
        d["size"] = size


class TraceWitness(NamedTuple):
    base: tuple  # element indices, increasing
    member_indices: tuple  # member realizing each pattern set, in pattern order


def contains_trace(system: SetSystem, pattern: TracePattern, budget=None):
    """Search for a placement of the pattern inside a trace of the system.

    Returns a TraceWitness when present, None when certifiably absent; on
    running out of budget, raises InconclusiveError.  Each pattern set is
    realised by its lowest-indexed member.

    A k-costar on a base W is its co-singletons W minus {w}, a k-star its
    singletons, which are co-singletons for the complemented columns; both
    are found by ``_cotrace_search`` from all members, capped at k, one
    budget unit per extension tested, and the witness is the first base in
    lexicographic order.  A k-chain is a base a_1..a_k, in some order,
    whose prefixes {a_1..a_j} are all traces: a k-ladder of the membership
    relation, found by ``_ladder_search`` over the members from a best of
    k - 1, so that it prunes every frame that cannot reach k, capped at k,
    one budget unit per move tested; the witness is the first ladder in
    search order, as the sorted base and its prefixes' members, in order.
    """
    budget = resolve_budget(budget)
    n = system.ground_size
    k = pattern.size
    if k > n:
        return None
    try:
        if pattern.kind == "chain":
            best, found = _ladder_search(system.members, k, budget, k - 1)
        else:
            full = (1 << len(system.members)) - 1
            cols = transpose(system.members, n)
            if pattern.kind == "star":
                cols = [full ^ col for col in cols]
            best, found = _cotrace_search([(full, cols)], k - 1, k, budget)
    except BudgetExceededError:
        raise InconclusiveError(
            "pattern search exceeded budget before completing"
        ) from None
    if best < k:
        return None
    if pattern.kind == "chain":
        order, realisers = zip(*found)
        return TraceWitness(tuple(sorted(order)), realisers)
    base, realisers = found
    lowest = tuple((b & -b).bit_length() - 1 for b in realisers)
    return TraceWitness(base, lowest)


def check_breadth_duality(system: SetSystem, d: int):
    """Evaluate the two equivalent lattice conditions at level d.

    Precondition (checked): the family is closed under pairwise
    intersection and union, and does not contain the empty set.
    Condition 1: among any d+1 members, one contains the intersection of
    the others.  Condition 2: among any d+1 members, one is contained in
    the union of the others.
    """
    if d < 1:
        raise RangeError("d must be >= 1")
    members = system.members
    mset = set(members)
    if 0 in mset:
        raise PreconditionError("the empty set must not be a member")
    for a, b in itertools.combinations(members, 2):
        if (a & b) not in mset and (a & b) != 0:
            raise PreconditionError(
                f"family not intersection-closed: members {a} and {b}"
            )
        if (a & b) == 0:
            raise PreconditionError(
                f"members {a} and {b} have empty intersection, which the "
                "lattice cannot contain"
            )
        if (a | b) not in mset:
            raise PreconditionError(f"family not union-closed: members {a} and {b}")
    full = (1 << system.ground_size) - 1
    cond1 = True
    cond2 = True
    for combo in itertools.combinations(members, d + 1):
        ok1 = False
        ok2 = False
        for i in range(d + 1):
            inter = full
            union = 0
            for j in range(d + 1):
                if j != i:
                    inter &= combo[j]
                    union |= combo[j]
            if inter & ~combo[i] == 0:
                ok1 = True
            if combo[i] & ~union == 0:
                ok2 = True
            if ok1 and ok2:
                break
        cond1 = cond1 and ok1
        cond2 = cond2 and ok2
    return (cond1, cond2)
