import glob
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SCENARIO_DIR, load
from cormp.scenario import (
    Behavior,
    Polyline,
    ScenarioError,
    TrafficLight,
    load_scenario,
    serialize_scenario,
)


def minimal_doc() -> dict:
    return {
        "name": "tiny",
        "duration_s": 5.0,
        "apriori_lane": "l0",
        "lanes": [
            {"id": "l0", "centerline": [[0.0, 0.0], [100.0, 0.0]],
             "width": 3.5, "speed_limit": 13.89},
        ],
        "agents": [
            {"id": "ego", "kind": "ego", "position": [10.0, 0.0], "heading": 0.0,
             "speed": 8.0, "length": 4.5, "width": 1.8, "lane": "l0"},
        ],
    }


# ---------------------------------------------------------------- polyline


def test_polyline_basic_geometry():
    line = Polyline([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0]])
    assert line.length == pytest.approx(20.0)
    assert np.allclose(line.point_at(5.0), (5.0, 0.0))
    assert np.allclose(line.point_at(15.0), (10.0, 5.0))
    assert line.heading_at(5.0) == pytest.approx(0.0)
    assert line.heading_at(15.0) == pytest.approx(math.pi / 2)


def test_polyline_point_at_extrapolates_past_ends():
    line = Polyline([[0.0, 0.0], [10.0, 0.0]])
    assert np.allclose(line.point_at(-3.0), (-3.0, 0.0))
    assert np.allclose(line.point_at(13.0), (13.0, 0.0))


def test_polyline_project_returns_extended_s_and_lateral():
    line = Polyline([[0.0, 0.0], [10.0, 0.0]])
    s, lat = line.project((4.0, 1.5))
    assert s == pytest.approx(4.0)
    assert lat == pytest.approx(1.5)  # left of travel direction is positive
    s, lat = line.project((14.0, -2.0))
    assert s == pytest.approx(14.0)   # past the end, along the end segment
    assert lat == pytest.approx(-2.0)


def test_polyline_project_array_matches_points():
    rng = np.random.default_rng(5)
    angles = np.linspace(0.0, 2.0, 30)
    line = Polyline(np.column_stack([50.0 * np.cos(angles), 50.0 * np.sin(angles)]))
    pts = np.vstack([rng.uniform(-60.0, 60.0, (40, 2)),
                     [[60.0, -10.0], [-30.0, 60.0]]])   # beyond both ends
    s, lat = line.project(pts)
    assert s[-2] < 0.0 and s[-1] > line.length
    for k, p in enumerate(pts):
        assert (s[k], lat[k]) == pytest.approx(line.project(p), abs=1e-12)


def test_polyline_project_far_from_the_line():
    # 300 m off the line, 1e-12 m^2 is below the rounding of dist2: the
    # closest segment must still win on both paths
    line = Polyline([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
    pts = np.array([[150.0, 300.0], [150.0, -1000.0], [50.0, 500.0]])
    s, lat = line.project(pts)
    assert s.tolist() == [150.0, 150.0, 50.0] and lat.tolist() == [300.0, -1000.0, 500.0]
    assert [line.project(p) for p in pts] == list(zip(s.tolist(), lat.tolist()))


@st.composite
def polylines(draw) -> Polyline:
    """Two-point lines, and arcs of 2-60 points sweeping at most pi/2."""
    coord = st.floats(-200.0, 200.0)
    x0, y0, h0 = draw(coord), draw(coord), draw(st.floats(-math.pi, math.pi))
    if draw(st.booleans()):
        length = draw(st.floats(0.5, 300.0))
        return Polyline([[x0, y0], [x0 + length * math.cos(h0), y0 + length * math.sin(h0)]])
    radius = draw(st.floats(5.0, 1000.0))
    sweep = draw(st.floats(0.01, math.pi / 2.0))
    turn = draw(st.sampled_from([-1.0, 1.0]))
    a = h0 + turn * np.linspace(0.0, sweep, draw(st.integers(2, 60)))
    # centre a radius to the turning side of the start pose
    cx, cy = x0 - turn * radius * math.sin(h0), y0 + turn * radius * math.cos(h0)
    return Polyline(np.column_stack([cx + turn * radius * np.sin(a),
                                     cy - turn * radius * np.cos(a)]))


# an arc position: a fraction of [-30, length + 30], or an offset of
# 1e-8 to 1e-5 m to either side of an interior vertex (fraction of the way
# through the interior vertices); a two-point line has none and takes the
# fraction
arc_positions = st.one_of(
    st.builds(lambda f: (f, 0.0), st.floats(0.0, 1.0)),
    st.builds(lambda f, ds, side: (f, side * ds), st.floats(0.0, 1.0),
              st.floats(1e-8, 1e-5), st.sampled_from([-1.0, 1.0])),
)


def arc_position(line: Polyline, f: float, ds: float) -> float:
    interior = len(line.cum) - 2
    if ds == 0.0 or interior == 0:
        return -30.0 + f * (line.length + 60.0)
    return float(line.cum[1 + min(int(f * interior), interior - 1)]) + ds


@settings(max_examples=60)
@given(polylines(), st.lists(arc_positions, min_size=1, max_size=8))
def test_polyline_project_inverts_point_at_past_both_ends(line, positions):
    s = np.array([arc_position(line, f, ds) for f, ds in positions])
    pts = np.array([line.point_at(float(sk)) for sk in s])
    s_many, lat_many = line.project(pts)
    for k, p in enumerate(pts):
        s_one, lat_one = line.project(p)
        assert s_one == pytest.approx(s[k], abs=1e-9)
        assert (s_many[k], lat_many[k]) == pytest.approx((s_one, lat_one), abs=1e-12)


coords = st.floats(-200.0, 200.0)


@settings(max_examples=200)
@given(st.tuples(coords, coords), st.tuples(coords, coords),
       st.lists(st.tuples(coords, coords), max_size=6),
       st.lists(st.tuples(st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
                                    st.floats(-3.0, 4.0)),
                          st.one_of(st.just(0.0), st.floats(-50.0, 50.0))),
                min_size=1, max_size=6))
def test_one_segment_projection_matches_the_general_path_bitwise(a, b, free, along):
    # `free` points anywhere; `along` points (f, w) at fraction f of the
    # segment, w m to its left: on either end, on it, or past either end
    assume(math.dist(a, b) > 1e-3)
    line = Polyline([a, b])
    (ax, ay), (bx, by) = a, b
    ux, uy = (bx - ax) / math.dist(a, b), (by - ay) / math.dist(a, b)
    pts = np.array(free + [(ax + (bx - ax) * f - uy * w, ay + (by - ay) * f + ux * w)
                           for f, w in along])
    for got, want in zip(line.project(pts), line._project_segments(pts)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("turn", [1.0, -1.0])
def test_polyline_project_is_exact_next_to_interior_vertices(turn):
    # 60 points on a radius-140 m arc sweeping pi/2: the segment clamped to a
    # vertex is within 1e-12 m^2 of the one holding a point 1e-6 m past it
    a = np.linspace(0.0, math.pi / 2.0, 60)
    line = Polyline(np.column_stack([140.0 * np.sin(a), turn * 140.0 * (1.0 - np.cos(a))]))
    s = np.array([line.cum[k] + side * ds for k in range(1, 59)
                  for ds in (1e-8, 1e-7, 1e-6, 1e-5) for side in (-1.0, 1.0)])
    pts = np.array([line.point_at(float(sk)) for sk in s])
    s_many, _ = line.project(pts)
    s_one = [line.project(p)[0] for p in pts]
    assert np.max(np.abs(s_many - s)) < 1e-9
    assert np.max(np.abs(np.array(s_one) - s)) < 1e-9


def test_polyline_frames_on_an_arc():
    r = 140.0
    angles = np.linspace(0.0, 3.0, 60)
    line = Polyline(np.column_stack([r * np.sin(angles), r - r * np.cos(angles)]))
    s = np.linspace(-30.0, line.length + 30.0, 200)           # past both ends
    x, y, heading, kappa = line.frames(s)
    assert np.allclose(kappa, 1.0 / r, rtol=0.01)            # a left turn
    for k in [*range(0, 200, 17), 199]:
        assert np.allclose((x[k], y[k]), line.point_at(float(s[k])), atol=1e-9)
        assert heading[k] == pytest.approx(line.heading_at(float(s[k])), abs=1e-12)


def test_polyline_frames_on_a_two_point_line():
    line = Polyline([[0.0, 0.0], [3.0, 4.0]])
    s = [-2.0, 0.0, 2.5, 5.0, 7.0]
    x, y, heading, kappa = line.frames(s)
    assert np.array_equal(kappa, np.zeros(5))
    assert np.allclose(heading, math.atan2(4.0, 3.0))
    for k in (0, 4):                        # beyond either end, along the line
        assert (x[k], y[k]) == tuple(line.point_at(s[k]))
        assert heading[k] == line.heading_at(s[k])
    assert (x[-1], y[-1]) == pytest.approx((4.2, 5.6))


def test_polyline_project_extends_s_past_both_ends():
    line = Polyline([[0.0, 0.0], [100.0, 0.0], [100.0, 50.0]])
    assert line.project((40.0, 1.0))[0] == pytest.approx(40.0)
    assert line.project((-30.0, 0.5))[0] == pytest.approx(-30.0)   # before the start
    assert line.project((100.5, 80.0))[0] == pytest.approx(180.0)  # past the end


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Polyline([[0.0, 0.0]])
    with pytest.raises(ValueError):
        Polyline([[0.0, 0.0], [0.0, 0.0]])


def assert_same_polyline(got: Polyline, want: Polyline) -> None:
    for name in ("frame_table", "cum", "_kappa"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


BENT = np.column_stack([np.linspace(0.0, 100.0, 258), 5.0 * np.sin(np.linspace(0.0, 3.0, 258))])


@pytest.mark.parametrize("bad", [
    [[1.0, 2.0]],                                              # one point
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],                        # not 2D points
    [[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]],                   # not finite
    [[0.0, 0.0], [1.0, np.inf]],
    [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]],          # a zero-length segment
    [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]],                      # ... as its last one
])
def test_a_stacked_path_raises_what_it_raises_alone(bad):
    with pytest.raises(ValueError) as alone:
        Polyline(bad)
    for at in range(3):
        paths = [BENT, BENT[:7]]
        paths.insert(at, bad)
        with pytest.raises(ValueError) as stacked:
            Polyline.stack(paths)
        assert str(stacked.value) == str(alone.value)


def test_a_two_point_path_stacks_with_long_ones_as_it_builds_alone():
    short = [[3.0, 1.0], [4.0, 1.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no divide or invalid warning on the padding
        lines = Polyline.stack([BENT, short, BENT[::-1]])
    for line, points in zip(lines, [BENT, short, BENT[::-1]]):
        assert_same_polyline(line, Polyline(points))
    assert lines[1].length == Polyline(short).length and len(lines[1]._kappa) == 0


@settings(max_examples=100)
@given(st.lists(st.lists(st.tuples(st.floats(0.01, 30.0), st.floats(-3.0, 3.0)),
                         min_size=1, max_size=40), min_size=1, max_size=5))
def test_stacked_polylines_equal_their_lone_builds(steps):
    # each path walks forward by (length, turn) steps, so no segment is degenerate
    paths = []
    for walk in steps:
        heading = np.cumsum([turn for _, turn in walk])
        length = np.array([step for step, _ in walk])
        paths.append(np.vstack([[0.0, 0.0], np.column_stack(
            [np.cumsum(length * np.cos(heading)), np.cumsum(length * np.sin(heading))])]))
    for line, points in zip(Polyline.stack(paths), paths):
        assert_same_polyline(line, Polyline(points))


# ---------------------------------------------------------------- loading


def test_minimal_document_loads():
    sc = load_scenario(minimal_doc())
    assert len(sc.lanes) == 1
    assert len(sc.agents) == 1
    assert sc.ego.id == "ego"
    assert sc.ego.mass == 1500.0  # vehicle default applies
    assert sc.profile == "regular"


def test_missing_neighbor_reference_names_the_field():
    doc = minimal_doc()
    doc["lanes"][0]["left_neighbor"] = "ghost"
    with pytest.raises(ScenarioError, match="left_neighbor"):
        load_scenario(doc)


def test_unknown_keys_rejected():
    doc = minimal_doc()
    doc["lanes"][0]["colour"] = "red"
    with pytest.raises(ScenarioError, match="colour"):
        load_scenario(doc)


def test_duplicate_ids_rejected():
    doc = minimal_doc()
    doc["lanes"].append(dict(doc["lanes"][0]))
    with pytest.raises(ScenarioError, match="duplicate lane id"):
        load_scenario(doc)
    doc = minimal_doc()
    doc["agents"].append(dict(doc["agents"][0], kind="vehicle"))
    with pytest.raises(ScenarioError, match="duplicate agent id"):
        load_scenario(doc)


def test_exactly_one_ego_required():
    doc = minimal_doc()
    doc["agents"][0]["kind"] = "vehicle"
    with pytest.raises(ScenarioError, match="ego"):
        load_scenario(doc)
    doc = minimal_doc()
    del doc["agents"][0]["lane"]
    with pytest.raises(ScenarioError, match="lane"):
        load_scenario(doc)


def test_bad_behavior_and_boundary_rejected():
    doc = minimal_doc()
    doc["agents"][0]["behavior"] = {"type": "teleport"}
    with pytest.raises(ScenarioError, match="teleport"):
        load_scenario(doc)
    doc = minimal_doc()
    doc["lanes"][0]["left_boundary"] = "dotted"
    with pytest.raises(ScenarioError, match="left_boundary"):
        load_scenario(doc)


def test_crosswalk_span_checked_against_lane_length():
    doc = minimal_doc()
    doc["crosswalks"] = [{"lanes": ["l0"], "span": [90.0, 120.0]}]
    with pytest.raises(ScenarioError, match="span"):
        load_scenario(doc)


def test_light_schedule_validated():
    doc = minimal_doc()
    doc["lights"] = [{"lane": "l0", "stop_line_s": 50.0, "schedule": [["blue", 5.0]]}]
    with pytest.raises(ScenarioError, match="color"):
        load_scenario(doc)
    doc["lights"] = [{"lane": "nope", "stop_line_s": 50.0, "schedule": [["red", 5.0]]}]
    with pytest.raises(ScenarioError, match="nope"):
        load_scenario(doc)


def test_all_shipped_scenarios_load(scenario_dir):
    paths = sorted(glob.glob(str(scenario_dir / "*.json")))
    assert len(paths) >= 8
    names = {os.path.splitext(os.path.basename(p))[0] for p in paths}
    # the four canonical situations must be present
    assert {"overtake_static", "red_light", "slow_lead", "pedestrian_crossing"} <= names
    for p in paths:
        sc = load_scenario(p)
        assert sc.ego.kind == "ego"
        assert sc.duration_s > 0


def test_serialize_roundtrip():
    sc = load("highway")
    again = load_scenario(serialize_scenario(sc))
    assert set(again.lanes) == set(sc.lanes)
    assert [a.id for a in again.agents] == [a.id for a in sc.agents]
    assert again.apriori_lane == sc.apriori_lane
    assert again.duration_s == sc.duration_s


# ---------------------------------------------------------------- lookups


def lateral(point, lane) -> float:
    return lane.centerline.project(point)[1]


def test_lateral_offset_examples():
    sc = load_scenario(minimal_doc())
    lane = sc.lanes["l0"]
    assert lateral((50.0, 0.0), lane) == pytest.approx(0.0)
    assert lateral((50.0, 1.75), lane) == pytest.approx(1.75)
    assert lateral((50.0, -3.5), lane) == pytest.approx(-3.5)


def test_lateral_offset_neighbor_centerline_one_width_apart():
    sc = load("highway")
    right = sc.lanes["right"]
    left = sc.lanes["left"]
    probe = left.centerline.point_at(100.0)
    assert abs(lateral(probe, right)) == pytest.approx(right.width)


# ---------------------------------------------------------------- dynamics


def test_light_schedule_lookup():
    light = TrafficLight(lane="l0", stop_line_s=50.0,
                         schedule=[("red", 10.0), ("green", 10.0)], x=50.0, y=0.0)
    assert light.cycle == pytest.approx(20.0)
    assert light.color_at(12.3) == "green"
    assert light.color_at(0.0) == "red"
    assert light.color_at(25.0) == "red"    # second cycle starts at t=20
    assert light.color_at(35.0) == "green"  # wraps


def test_speed_schedule_steps():
    beh = Behavior(type="speed_schedule", profile=[[0.0, 5.0], [10.0, 2.0]])
    assert beh.speed_at(0.0, 99.0) == 5.0
    assert beh.speed_at(9.9, 99.0) == 5.0
    assert beh.speed_at(10.0, 99.0) == 2.0
    assert beh.speed_at(50.0, 99.0) == 2.0
