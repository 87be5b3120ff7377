"""Finite ultrametric spaces as leaves of a p-ary tree of fixed depth.

Elements are digit strings of length D over {0..p-1}; the valuation
v(a, b) is the length of the longest common prefix.  A ball B_rho(a) is
the set of elements sharing a's first rho digits; balls are canonicalized
by their lexicographically least member.  Balls of all radii form a tree
(each ball of radius rho > 0 has the unique predecessor of radius rho-1),
and distances below are graph distances in that tree.
"""

from __future__ import annotations

import itertools
import json
from typing import NamedTuple

from .errors import PreconditionError, RangeError, ShapeError
from .setsystem import SetSystem, json_field, mask_from_indices
from .value import Value


class Ball(Value):
    center: str
    radius: int

    def __init__(self, center, radius):
        d = self.__dict__
        d["center"] = center
        d["radius"] = radius

    @classmethod
    def from_json(cls, data) -> "Ball":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(json_field(data, "center", str), json_field(data, "radius", int))

    def to_json(self) -> dict:
        return {"center": self.center, "radius": self.radius}

    @property
    def prefix(self) -> str:
        return self.center[: self.radius]


class UltrametricSpace(Value):
    p: int
    depth: int
    elements: tuple  # sorted digit strings of length depth

    def __init__(self, p, depth, elements):
        d = self.__dict__
        d["p"] = p
        d["depth"] = depth
        d["elements"] = elements

    @classmethod
    def full(cls, p: int, depth: int) -> "UltrametricSpace":
        if p < 2 or depth < 1:
            raise RangeError("need p >= 2 and depth >= 1")
        if p > 10:
            raise RangeError("branching factors above 10 are not supported")
        words = itertools.product("0123456789"[:p], repeat=depth)
        return cls(p, depth, tuple(map("".join, words)))

    @classmethod
    def of(cls, p: int, depth: int, elements) -> "UltrametricSpace":
        if p < 2 or depth < 1:
            raise RangeError("need p >= 2 and depth >= 1")
        elems = list(elements)
        if not all(isinstance(e, str) for e in elems):
            raise ShapeError("elements must be digit strings")
        elems = sorted(set(elems))
        for e in elems:
            if len(e) != depth or any(not ("0" <= ch < chr(ord("0") + p)) for ch in e):
                raise ShapeError(f"element {e!r} is not a depth-{depth} p={p} string")
        if not elems:
            raise PreconditionError("element set must be nonempty")
        return cls(p, depth, tuple(elems))

    @classmethod
    def from_json(cls, data) -> "UltrametricSpace":
        if isinstance(data, str):
            data = json.loads(data)
        p, depth = json_field(data, "p", int), json_field(data, "depth", int)
        if data.get("elements") == "all":
            return cls.full(p, depth)
        return cls.of(p, depth, json_field(data, "elements", list))

    def to_json(self) -> dict:
        full = UltrametricSpace.full(self.p, self.depth)
        if self.elements == full.elements:
            return {"p": self.p, "depth": self.depth, "elements": "all"}
        return {"p": self.p, "depth": self.depth, "elements": list(self.elements)}

    def valuation(self, a: str, b: str) -> int:
        """Longest common prefix length; equals depth for equal elements."""
        if len(a) != self.depth or len(b) != self.depth:
            raise ShapeError("elements must have the space's depth")
        v = 0
        while v < self.depth and a[v] == b[v]:
            v += 1
        return v

    def ball(self, center: str, radius: int) -> Ball:
        """The canonical form of B_radius(center): the center is replaced
        by the lexicographically least element of the ball."""
        if not (0 <= radius <= self.depth):
            raise RangeError(f"radius {radius} out of range 0..{self.depth}")
        prefix = center[:radius]
        members = [e for e in self.elements if e.startswith(prefix)]
        if not members:
            # fall back to the least leaf of the full tree under this prefix
            return Ball(prefix + "0" * (self.depth - radius), radius)
        return Ball(members[0], radius)


def ball_members(space: UltrametricSpace, ball: Ball) -> tuple:
    if not (0 <= ball.radius <= space.depth):
        raise RangeError("radius out of range")
    prefix = ball.prefix
    return tuple(e for e in space.elements if e.startswith(prefix))


def ball_graph_distance(space: UltrametricSpace, b1: Ball, b2: Ball) -> int:
    """Graph distance in the predecessor tree of balls: climb both balls
    to their meet (the smallest common containing radius) and add the
    two climb lengths."""
    v = space.valuation(b1.center, b2.center)
    meet = min(b1.radius, b2.radius, v)
    return (b1.radius - meet) + (b2.radius - meet)


class BallCount(NamedTuple):
    count: int
    boundary: bool  # True when the depth/root truncation clipped the count


def count_balls_within(space: UltrametricSpace, ball: Ball, d: int) -> BallCount:
    """Number of ball addresses within ball-graph distance d of the ball.

    An address is a walk of length at most d in the tree of balls (one
    predecessor and p successors per interior ball), the way the balls
    near a given one are enumerated with repetitions by a fixed list of
    address functions.  For an interior ball (radius at least d away from
    both the root and the leaves) the count is exactly
    beta_d = sum_{i<=d} (p+1)^i; near a boundary the exact truncated walk
    count is returned and the boundary flag is set.
    """
    if d < 0:
        raise RangeError("d must be >= 0")
    digits = "0123456789"[: space.p]

    def neighbors(prefix):
        out = []
        if len(prefix) > 0:
            out.append(prefix[:-1])
        if len(prefix) < space.depth:
            out.extend(prefix + ch for ch in digits)
        return out

    current = {ball.prefix: 1}
    total = 1
    for _ in range(d):
        nxt = {}
        for prefix, ways in current.items():
            for nb in neighbors(prefix):
                nxt[nb] = nxt.get(nb, 0) + ways
        total += sum(nxt.values())
        current = nxt
    interior = ball.radius - d >= 0 and ball.radius + d <= space.depth
    return BallCount(total, not interior)


def beta(p: int, d: int) -> int:
    """The interior ball count sum_{i=0}^{d} (p+1)^i."""
    return sum((p + 1) ** i for i in range(d + 1))


def special_ball_count(space: UltrametricSpace, elements):
    """The distinct balls B_{v(a,b)}(a) over ordered pairs a != b of the
    given elements; their number is at most |A| - 1."""
    elems = list(dict.fromkeys(elements))
    if not elems:
        raise PreconditionError("need at least one element")
    balls = {}
    for a in elems:
        for b in elems:
            if a == b:
                continue
            ball = space.ball(a, space.valuation(a, b))
            balls[(ball.prefix, ball.radius)] = ball
    out = tuple(sorted(balls.values(), key=lambda b: (b.radius, b.center)))
    return out, len(out)


def ball_family_system(space: UltrametricSpace, balls) -> SetSystem:
    """The set system on the space's elements whose members are the balls."""
    index = {e: i for i, e in enumerate(space.elements)}
    masks = []
    for ball in balls:
        masks.append(mask_from_indices(index[e] for e in ball_members(space, ball)))
    return SetSystem.from_masks(len(space.elements), masks)
