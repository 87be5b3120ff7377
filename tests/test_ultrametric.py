import json

import pytest

from vclab import (
    Ball,
    PreconditionError,
    RangeError,
    ShapeError,
    UltrametricSpace,
    ball_family_system,
    ball_graph_distance,
    ball_members,
    beta,
    breadth,
    count_balls_within,
    independence_dimension,
    special_ball_count,
)


def test_space_constructors_and_json():
    space = UltrametricSpace.full(2, 3)
    assert len(space.elements) == 8
    assert space.to_json() == {"p": 2, "depth": 3, "elements": "all"}
    sub = UltrametricSpace.of(2, 3, ["000", "011", "110"])
    again = UltrametricSpace.from_json(json.dumps(sub.to_json()))
    assert again == sub
    assert UltrametricSpace.from_json(space.to_json()) == space


@pytest.mark.parametrize(
    "data",
    [
        {"p": 2, "elements": "all"},
        [2, 3, "all"],
        {"p": 2, "depth": 3.0, "elements": "all"},
        {"p": 2, "depth": 3, "elements": [1]},
    ],
    ids=["missing-field", "not-an-object", "float-depth", "non-string-element"],
)
def test_space_from_json_rejects_bad_fields(data):
    with pytest.raises(ShapeError):
        UltrametricSpace.from_json(data)


@pytest.mark.parametrize(
    "data",
    [{"center": "001"}, ["001", 2], {"center": "001", "radius": 2.0}],
    ids=["missing-field", "not-an-object", "float-radius"],
)
def test_ball_from_json_rejects_bad_fields(data):
    with pytest.raises(ShapeError):
        Ball.from_json(data)


def test_space_validation():
    with pytest.raises(RangeError):
        UltrametricSpace.full(1, 3)
    with pytest.raises(ShapeError):
        UltrametricSpace.of(2, 3, ["0201"])
    with pytest.raises(PreconditionError):
        UltrametricSpace.of(2, 3, [])


@pytest.mark.parametrize("element", [1, b"011", None])
def test_space_of_rejects_elements_that_are_not_strings(element):
    with pytest.raises(ShapeError):
        UltrametricSpace.of(2, 3, ["000", element])


def test_valuation():
    space = UltrametricSpace.full(2, 4)
    assert space.valuation("0000", "0011") == 2
    assert space.valuation("1000", "0000") == 0
    assert space.valuation("0101", "0101") == 4
    with pytest.raises(ShapeError):
        space.valuation("00", "0000")


def test_ultrametric_inequality_exhaustive():
    space = UltrametricSpace.full(3, 2)
    for a in space.elements:
        for b in space.elements:
            for c in space.elements:
                assert space.valuation(a, c) >= min(
                    space.valuation(a, b), space.valuation(b, c)
                )


def test_ball_canonicalization():
    space = UltrametricSpace.full(2, 3)
    # two centers in the same radius-1 ball give the same canonical ball
    assert space.ball("011", 1) == space.ball("000", 1) == Ball("000", 1)
    for a in space.elements:
        for b in space.elements:
            for rho in range(4):
                same = space.ball(a, rho) == space.ball(b, rho)
                assert same == (space.valuation(a, b) >= rho)


def test_ball_members_and_sparse_fallback():
    space = UltrametricSpace.of(2, 3, ["110", "111"])
    ball = space.ball("110", 1)
    assert ball.center == "110"
    assert ball_members(space, ball) == ("110", "111")
    # a ball with no elements of the space falls back to the tree leaf
    empty = space.ball("000", 1)
    assert empty == Ball("000", 1)
    assert ball_members(space, empty) == ()


def test_ball_json_round_trip():
    ball = Ball("0110", 2)
    assert Ball.from_json(json.dumps(ball.to_json())) == ball
    assert ball.prefix == "01"


def test_ball_graph_distance():
    space = UltrametricSpace.full(2, 4)
    b = space.ball("0000", 2)
    assert ball_graph_distance(space, b, b) == 0
    # parent is one step away
    assert ball_graph_distance(space, b, space.ball("0000", 1)) == 1
    # sibling subtrees meet at their common prefix
    c = space.ball("0100", 2)
    assert ball_graph_distance(space, b, c) == 2
    # different radii on one branch
    assert ball_graph_distance(space, space.ball("0000", 4), space.ball("0011", 1)) == 3


def test_count_balls_within_interior_matches_beta():
    space = UltrametricSpace.full(2, 6)
    for d in range(4):
        result = count_balls_within(space, space.ball("010101", 3), d)
        assert result == (beta(2, d), False)
    space3 = UltrametricSpace.full(3, 6)
    for d in range(4):
        result = count_balls_within(space3, space3.ball("012012", 3), d)
        assert result == (beta(3, d), False)


def test_count_balls_within_boundary():
    space = UltrametricSpace.full(2, 3)
    # the root has no parent: only its p children at distance 1
    root = space.ball("000", 0)
    result = count_balls_within(space, root, 1)
    assert result.boundary
    assert result.count == 1 + 2
    # a leaf ball has no children
    leaf = space.ball("000", 3)
    result = count_balls_within(space, leaf, 1)
    assert result.boundary
    assert result.count == 1 + 1
    with pytest.raises(RangeError):
        count_balls_within(space, root, -1)


def test_beta_closed_form():
    for p in (2, 3):
        for d in range(5):
            assert beta(p, d) == ((p + 1) ** (d + 1) - 1) // p


def test_special_ball_count():
    space = UltrametricSpace.full(2, 4)
    balls, n = special_ball_count(space, ["0000", "0001", "1111"])
    assert n <= 2
    assert all(isinstance(b, Ball) for b in balls)
    with pytest.raises(PreconditionError):
        special_ball_count(space, [])


def test_ball_family_breadth_and_independence():
    space = UltrametricSpace.full(2, 3)
    balls = {space.ball(e, r) for e in space.elements for r in range(4)}
    system = ball_family_system(space, balls)
    assert breadth(system) == 1
    assert independence_dimension(system) <= 1
