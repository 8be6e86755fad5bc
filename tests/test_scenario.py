import copy
import glob
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import CURVED, SCENARIO_DIR, SHIPPED, arc_centerline, lit_arc, load
from cormp.scenario import (
    BAND,
    Behavior,
    Lane,
    Polyline,
    ScenarioError,
    TrafficLight,
    load_scenario,
    serialize_scenario,
)
from projection_oracle import project_oracle


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
    assert np.allclose(line.pose_at(5.0), (5.0, 0.0, 0.0))
    assert np.allclose(line.pose_at(15.0), (10.0, 5.0, math.pi / 2))


def test_polyline_pose_at_extrapolates_past_ends():
    line = Polyline([[0.0, 0.0], [10.0, 0.0]])
    assert np.allclose(line.pose_at(-3.0), (-3.0, 0.0, 0.0))
    assert np.allclose(line.pose_at(13.0), (13.0, 0.0, 0.0))


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
    assert [line.project(p) for p in pts] == list(zip(s.tolist(), lat.tolist()))


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
def test_polyline_project_inverts_pose_at_past_both_ends(line, positions):
    s = np.array([arc_position(line, f, ds) for f, ds in positions])
    pts = np.array([line.pose_at(float(sk))[:2] for sk in s])
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
    want = np.array([project_oracle(line, q) for q in pts])
    assert np.column_stack(line.project(pts)).tobytes() == want.tobytes()


@pytest.mark.parametrize("turn", [1.0, -1.0])
def test_polyline_project_is_exact_next_to_interior_vertices(turn):
    # 60 points on a radius-140 m arc sweeping pi/2: the segment clamped to a
    # vertex is within 1e-12 m^2 of the one holding a point 1e-6 m past it
    a = np.linspace(0.0, math.pi / 2.0, 60)
    line = Polyline(np.column_stack([140.0 * np.sin(a), turn * 140.0 * (1.0 - np.cos(a))]))
    s = np.array([line.cum[k] + side * ds for k in range(1, 59)
                  for ds in (1e-8, 1e-7, 1e-6, 1e-5) for side in (-1.0, 1.0)])
    pts = np.array([line.pose_at(float(sk))[:2] for sk in s])
    s_many, _ = line.project(pts)
    s_one = [line.project(p)[0] for p in pts]
    assert np.max(np.abs(s_many - s)) < 1e-9
    assert np.max(np.abs(np.array(s_one) - s)) < 1e-9


@st.composite
def projection_cases(draw) -> tuple:
    """(vertices, queries) in the line's own frame, then moved together.

    Lines: left and right arcs of radius 100-300 m, zigzags (one of 1e-7 m
    amplitude), random walks and hairpins of 2-200 vertices (often 2: a
    one-segment lane), as drawn or rotated by 3.0 rad and moved to
    (-5000, 7000) m. A hairpin runs out along a straight line and back
    beside it, 0.5-12 m apart, so a cell of `Polyline._cells` between its
    legs must list segments far apart in index.
    Queries: the vertices, segment midpoints, points on the bisector at
    interior vertices (on a zigzag equidistant from both segments: exact
    ties), points midway between a hairpin's legs (exact ties of segments
    far apart in index), points jittered off the line, points 1e-6 m inside
    and outside `BAND` and one and two cells past it, points 1 km away, and
    some of these moved onto the edges and corners of their cells.
    """
    kind = draw(st.sampled_from(["arc", "zigzag", "walk", "hairpin"]))
    n = draw(st.one_of(st.just(2), st.integers(2, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "arc":
        pts = np.array(arc_centerline(draw(st.floats(100.0, 300.0)),
                                      draw(st.sampled_from([1, -1])), n_points=n))
    elif kind == "zigzag":
        amplitude = draw(st.sampled_from([1e-7, 0.5, 4.0]))
        pts = np.column_stack([2.0 * np.arange(n), amplitude * (np.arange(n) % 2)])
    elif kind == "walk":
        pts = np.cumsum(rng.normal(0.0, 10.0, (n, 2)), axis=0)
    else:
        gap, n = draw(st.sampled_from([0.5, 3.0, 12.0])), max(n, 4)
        out, back = np.linspace(0.0, 2.0 * n, n // 2), np.linspace(2.0 * n, 0.0, n - n // 2)
        pts = np.vstack([np.column_stack([out, np.zeros_like(out)]),
                         np.column_stack([back, np.full_like(back, gap)])])
    d = np.diff(pts, axis=0)
    normal = np.column_stack([-d[:, 1], d[:, 0]]) / np.hypot(d[:, 0], d[:, 1])[:, None]
    bisector = normal[:-1] + normal[1:]
    bisector /= np.maximum(np.hypot(bisector[:, 0], bisector[:, 1]), 1e-300)[:, None]
    away = rng.uniform(-math.pi, math.pi, 8)

    def some(m: int) -> np.ndarray:   # up to 24 of range(m)
        return rng.permutation(m)[:24]

    segments, inner, jittered = some(n - 1), 1 + some(n - 2), pts[some(n)]
    mid = 0.5 * (pts[segments] + pts[segments + 1])
    h = Polyline(pts)._cells[0] or 1.0
    queries = np.vstack([
        pts[some(n)], mid,
        pts[inner] + bisector[inner - 1] * rng.choice([-3.0, -0.5, 0.5, 3.0], (len(inner), 1)),
        jittered + rng.normal(0.0, 1.0, jittered.shape)
        * 10.0 ** rng.uniform(-9.0, 0.0, (len(jittered), 1)),
        mid + normal[segments] * rng.choice([-1.0, 1.0], (len(mid), 1))
        * rng.choice([BAND - 1e-6, BAND + 1e-6, BAND + h, BAND + 2.0 * h], (len(mid), 1)),
        pts.mean(axis=0) + 1000.0 * np.column_stack([np.cos(away), np.sin(away)]),
    ])
    if kind == "hairpin":   # midway between the legs
        queries = np.vstack([queries, mid * (1.0, 0.0) + (0.0, 0.5 * pts[-1, 1])])
    if draw(st.booleans()):
        c, s = math.cos(3.0), math.sin(3.0)
        turn = np.array([[c, s], [-s, c]])   # rows times it turn by 3.0 rad
        pts, queries = pts @ turn + (-5000.0, 7000.0), queries @ turn + (-5000.0, 7000.0)
    # some queries onto a cell's edge in x, in y, or both (a corner)
    h = Polyline(pts)._cells[0] or 1.0
    snap = rng.permutation(len(queries))[:12]
    queries[snap] = np.where(rng.random((len(snap), 2)) < 0.6,
                             np.round(queries[snap] / h) * h, queries[snap])
    return pts, queries


@settings(max_examples=120)
@given(projection_cases())
def test_polyline_project_equals_the_full_scan_bitwise(case):
    pts, queries = case
    line = Polyline(pts)
    want = np.array([project_oracle(line, q) for q in queries])
    pairs = np.array([line.project(tuple(q)) for q in queries.tolist()])
    assert pairs.tobytes() == want.tobytes()
    assert np.array([line.project(q) for q in queries]).tobytes() == want.tobytes()
    assert np.column_stack(line.project(queries)).tobytes() == want.tobytes()
    # arrays of 0 to 10 points, from either end of the queries
    for m in range(11):
        for part in (slice(m), slice(len(queries) - m, None)):
            s, lateral = line.project(queries[part])
            assert s.dtype == lateral.dtype == np.float64 and s.shape == lateral.shape == (m,)
            assert np.column_stack([s, lateral]).tobytes() == want[part].tobytes()


def test_a_thousand_vertex_arc_projects_a_plan_block_as_the_oracle_does():
    # rows of 41 samples at offsets across both lanes, on either side of
    # `BAND` and past it, and past both ends of a 1000-vertex arc
    line = Polyline(arc_centerline(150.0, 1, n_points=1000))
    s = np.linspace(-10.0, line.length + 10.0, 41)
    x, y, heading = line.frames(s)
    pts = np.vstack([np.column_stack([x - d * np.sin(heading), y + d * np.cos(heading)])
                     for d in (-1.75, 0.0, 1.75, 5.25, BAND - 1e-6, -BAND - 1e-6,
                               BAND + 3.0, -2.0 * BAND)])
    want = np.array([project_oracle(line, q) for q in pts])
    assert np.column_stack(line.project(pts)).tobytes() == want.tobytes()


def test_a_cell_corner_midway_between_diagonal_legs_ties_across_the_hairpin():
    # legs along (1, -1), the first from (-1, -1) and the second back to
    # (1, 1): (2k, -2k) lies sqrt(2) from both, on the corner of a 2 m cell
    # whose centre lies on the second leg, 2 sqrt(2) = h sqrt(2) from the
    # first. The first leg wins the tie, so the cell must list it.
    t = np.arange(21.0)
    line = Polyline(np.vstack([np.column_stack([t - 1.0, -t - 1.0]),
                               np.column_stack([t[::-1] + 1.0, 1.0 - t[::-1]])]))
    assert line._cells[0] == 2.0
    pts = np.column_stack([2.0 * t[1:10], -2.0 * t[1:10]])
    want = np.array([project_oracle(line, q) for q in pts])
    assert want[:, 0].max() < 20.0 * math.sqrt(2.0)   # on the first leg
    assert np.column_stack(line.project(pts)).tobytes() == want.tobytes()


def test_a_long_diagonal_segment_among_short_ones_builds_its_band_not_its_box():
    # 2000 segments of 0.1 m, so cells are 2 m wide, then one 3 km segment
    # along (1, 1). The cells within reach of it form a band about 20 cells
    # across, some 21k (cell, segment) pairs; its bounding box holds over a
    # million cells. The build's peak allocation stays near that of the
    # short segments alone.
    dense = np.column_stack([0.1 * np.arange(2001.0), np.zeros(2001)])
    line = Polyline(np.vstack([dense, dense[-1] + 3000.0 / math.sqrt(2.0)]))
    peaks = []
    for built in (Polyline(dense), line):
        tracemalloc.start()
        built._cells
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert line._cells[0] == 2.0
    assert peaks[1] < 2.0 * peaks[0], peaks
    s = np.concatenate([np.linspace(190.0, 210.0, 9), np.linspace(210.0, 3200.0, 31)])
    x, y, heading = line.frames(s)
    pts = np.vstack([np.column_stack([x - d * np.sin(heading), y + d * np.cos(heading)])
                     for d in (-BAND - 1e-6, -3.0, 0.0, 1.75, BAND - 1e-6)])
    want = np.array([project_oracle(line, q) for q in pts])
    assert np.column_stack(line.project(pts)).tobytes() == want.tobytes()


@pytest.mark.parametrize("vertices", [arc_centerline(140.0, -1), [[0.0, 0.0], [300.0, 0.0]]])
def test_a_small_array_is_walked_without_reentering_project(monkeypatch, vertices):
    # each call counts once wherever `project` is spied on or traced, and
    # every array is walked point by point, on one segment as on many
    line = Polyline(vertices)
    s = np.linspace(-10.0, line.length + 10.0, 10)
    x, y, heading = line.frames(s)
    pts = np.column_stack([x - 1.5 * np.sin(heading), y + 1.5 * np.cos(heading)])
    calls = []
    for name in ("project", "_project_one", "_nearest"):
        fn = getattr(Polyline, name)
        monkeypatch.setattr(Polyline, name,
                            lambda self, *a, fn=fn, name=name: calls.append(name) or fn(self, *a))
    for m in range(11):
        calls.clear()
        line.project(pts[:m])
        assert calls == ["project"] + ["_project_one", "_nearest"] * m


# Mean rows of `_rows` that `Polyline._nearest` weighs per point within a
# lane width of a `lit_arc` lane. A cell of `_cells` lists the segments
# within d + h sqrt(2) of its centre, d its distance to the line and h the
# mean segment length, at least 2 m: 4.4 rows at 60 vertices and 22 at 1000
# on the same 420 m (past 210 vertices h stays 2 m, so the rows grow with
# the vertex density). A search whose work grows with the segment count
# fails it at 1000 vertices: a full scan weighs 999 rows there, and a walk
# over runs of isqrt(n - 1) + 1 segments 40.
ROWS_PER_POINT = 30


@pytest.mark.parametrize("n_points", [60, 1000])
def test_a_near_lane_point_weighs_a_bounded_count_of_rows(monkeypatch, n_points):
    weighed = []
    nearest = Polyline._nearest
    monkeypatch.setattr(Polyline, "_nearest", lambda self, px, py, rows: weighed.append(
        len(rows)) or nearest(self, px, py, rows))
    for lane in load_scenario(lit_arc(n_points)).lanes.values():
        line = lane.centerline
        x, y, heading = line.frames(np.linspace(0.0, line.length, 97))
        for d in (-3.5, -1.75, 0.0, 1.75, 3.5):
            line.project(np.column_stack([x - d * np.sin(heading), y + d * np.cos(heading)]))
    assert len(weighed) == 2 * 97 * 5
    assert np.mean(weighed) <= ROWS_PER_POINT


def assert_scalar_poses_are_frames(line: Polyline, s: np.ndarray) -> None:
    """`pose_at` at each of s is bitwise the x, y and heading `frames` gives
    for the whole array."""
    x, y, heading = line.frames(s)
    for k, sk in enumerate(s.tolist()):
        pose = (x[k].item(), y[k].item(), heading[k].item())
        assert line.pose_at(sk) == pose, (k, sk)


def test_polyline_frames_on_an_arc():
    r = 140.0
    angles = np.linspace(0.0, 3.0, 60)
    line = Polyline(np.column_stack([r * np.sin(angles), r - r * np.cos(angles)]))
    s = np.linspace(-30.0, line.length + 30.0, 200)           # past both ends
    assert np.allclose(line.locate(s)[1], 1.0 / r, rtol=0.01)   # a left turn
    assert_scalar_poses_are_frames(line, s)


def test_polyline_frames_on_a_two_point_line():
    line = Polyline([[0.0, 0.0], [3.0, 4.0]])
    s = np.array([-2.0, 0.0, 2.5, 5.0, 7.0])
    x, y, heading = line.frames(s)
    assert np.array_equal(line.locate(s)[1], np.zeros(5))
    assert np.allclose(heading, math.atan2(4.0, 3.0))
    assert_scalar_poses_are_frames(line, s)   # beyond either end, along the line
    assert (x[-1], y[-1]) == pytest.approx((4.2, 5.6))


@settings(max_examples=80)
@given(projection_cases(), st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=12))
def test_pose_at_is_frames_bitwise_past_both_ends(case, fractions):
    # arcs, zigzags and random walks: each vertex, 1e-9 m to either side of
    # it, and fractions of the length from 20 % before the start to 20 % past the end
    line = Polyline(case[0])
    s = np.concatenate([line.cum, line.cum - 1e-9, line.cum + 1e-9,
                        np.array(fractions) * line.length])
    assert_scalar_poses_are_frames(line, s)


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


@pytest.mark.parametrize("bad", [
    [[1.0, 2.0]],                                              # one point
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],                        # not 2D points
    [[0.0, 0.0], [np.nan, 1.0], [2.0, 2.0]],                   # not finite
    [[0.0, 0.0], [1.0, np.inf]],
    [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]],          # a zero-length segment
    [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]],                      # ... as its last one
])
def test_a_bad_vertex_array_is_rejected(bad):
    with pytest.raises(ValueError):
        Polyline(bad)


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
    # every shipped scenario, both conftest arcs and the document with every
    # record kind: a reloaded scenario serializes to the same document, and
    # that document is strict JSON
    for sc in [load(name) for name in SHIPPED + sorted(CURVED)] + [load_scenario(full_doc())]:
        first = serialize_scenario(sc)
        json.dumps(first, allow_nan=False)
        assert serialize_scenario(load_scenario(first)) == first, sc.name


def full_doc() -> dict:
    """Every record kind: two neighbouring lanes, a road user of each
    behaviour type, a light with a position and a crosswalk over both lanes."""
    return {
        "name": "full",
        "duration_s": 10.0,
        "profile": "regular",
        "apriori_lane": "l0",
        "lanes": [
            {"id": "l0", "centerline": [[0.0, 0.0], [50.0, 0.0], [100.0, 0.0]],
             "width": 3.5, "speed_limit": 13.89, "left_neighbor": "l1",
             "left_boundary": "dashed", "right_boundary": "solid"},
            {"id": "l1", "centerline": [[0.0, 3.5], [100.0, 3.5]],
             "width": 3.5, "speed_limit": 13.89, "right_neighbor": "l0"},
        ],
        "agents": [
            {"id": "ego", "kind": "ego", "position": [5.0, 0.0], "heading": 0.0,
             "speed": 8.0, "length": 4.5, "width": 1.8, "mass": 1500.0, "lane": "l0",
             "behavior": {"type": "lane_follow"}},
            {"id": "lead", "kind": "vehicle", "position": [30.0, 3.5], "heading": 0.0,
             "speed": 6.0, "length": 4.5, "width": 1.8, "lane": "l1",
             "behavior": {"type": "speed_schedule", "profile": [[0.0, 6.0], [4.0, 3.0]]}},
            {"id": "walker", "kind": "pedestrian", "position": [61.0, -4.0], "heading": 1.5,
             "speed": 0.0, "length": 0.5, "width": 0.5,
             "behavior": {"type": "cross", "start_time": 2.0, "speed": 1.4, "distance": 9.0}},
            {"id": "cone", "kind": "obstacle", "position": [90.0, 3.5], "heading": 0.0,
             "speed": 0.0, "length": 1.0, "width": 1.0, "behavior": {"type": "static"}},
        ],
        "lights": [{"lane": "l0", "stop_line_s": 40.0, "position": [40.0, -2.0],
                    "schedule": [["red", 5.0], ["green", 10.0]]}],
        "crosswalks": [{"lanes": ["l0", "l1"], "span": [60.0, 63.0]}],
    }


def leaves(node, path: str, keys: tuple = ()):
    """(path, keys, value) of each scalar under `node`, the path as the loader names it."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        at = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"
        if isinstance(value, (dict, list)):
            yield from leaves(value, at, keys + (key,))
        else:
            yield at, keys + (key,), value


def doc_leaves(doc: dict):
    for key, value in doc.items():
        if isinstance(value, list):
            for i, item in enumerate(value):
                yield from leaves(item, f"{key}[{i}]", (key, i))
        else:
            yield f"scenario.{key}", (key,), value


def planted(keys: tuple, value) -> dict:
    doc = copy.deepcopy(full_doc())
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


NUMBERS = [(path, keys) for path, keys, v in doc_leaves(full_doc()) if isinstance(v, float)]
REFERENCES = [(path, keys) for path, keys, _ in doc_leaves(full_doc())
              if keys[-1] in ("id", "name", "apriori_lane", "lane", "left_neighbor",
                              "right_neighbor") or keys[-2:-1] == ("lanes",)]


def test_the_planted_document_loads_and_names_every_kind_of_leaf():
    sc = load_scenario(full_doc())
    assert {a.behavior.type for a in sc.agents} == {"lane_follow", "speed_schedule",
                                                    "cross", "static"}
    numbers = {path for path, _ in NUMBERS}
    assert {"lanes[0].centerline[1][0]", "agents[1].behavior.profile[1][0]",
            "lights[0].schedule[0][1]", "lights[0].position[1]",
            "crosswalks[0].span[0]", "scenario.duration_s"} <= numbers
    assert {path for path, _ in REFERENCES} == {
        "scenario.name", "scenario.apriori_lane", "lanes[0].id", "lanes[0].left_neighbor",
        "lanes[1].id", "lanes[1].right_neighbor", "agents[0].id", "agents[0].lane",
        "agents[1].id", "agents[1].lane", "agents[2].id", "agents[3].id", "lights[0].lane",
        "crosswalks[0].lanes[0]", "crosswalks[0].lanes[1]"}


@pytest.mark.parametrize("path, keys", NUMBERS, ids=[path for path, _ in NUMBERS])
def test_a_number_that_is_not_a_finite_real_is_rejected_by_its_path(path, keys):
    for bad in (math.nan, math.inf, -math.inf, True, "1"):
        with pytest.raises(ScenarioError) as err:
            load_scenario(planted(keys, bad))
        assert str(err.value).startswith(f"{path}:"), (bad, str(err.value))


@pytest.mark.parametrize("path, keys", REFERENCES, ids=[path for path, _ in REFERENCES])
def test_an_id_or_lane_reference_that_is_not_a_string_is_rejected_by_its_path(path, keys):
    for bad in (["l0"], 1.0):
        with pytest.raises(ScenarioError) as err:
            load_scenario(planted(keys, bad))
        assert str(err.value).startswith(f"{path}:"), (bad, str(err.value))


REJECTIONS = [
    (("lanes", 0), "l0", "lanes[0]: expected an object"),
    (("agents",), {"ego": {}}, "scenario.agents: expected a non-empty list"),
    (("lanes", 0, "centerline"), [[0.0, 0.0], [50.0, 0.0], [50.0, 0.0], [100.0, 0.0]],
     "lanes[0].centerline: polyline has zero-length segments"),
    (("agents", 1, "behavior", "profile"), [[0.0, 6.0], [4.0, 3.0], [4.0, 2.0]],
     "agents[1].behavior.profile[2]: times must increase"),
    (("agents", 3, "kind"), "tree", "agents[3].kind: expected one of"),
    (("lights", 0, "schedule", 1, 1), 0.0, "lights[0].schedule[1][1]: duration must be > 0"),
    (("crosswalks", 0, "span"), [63.0, 63.0], "crosswalks[0].span: s_begin must be < s_end"),
    (("profile",), "reckless", "scenario.profile: expected one of"),
]


@pytest.mark.parametrize("keys, bad, message", REJECTIONS,
                         ids=[message.split(":")[0] for _, _, message in REJECTIONS])
def test_a_malformed_record_is_rejected_by_its_path(keys, bad, message):
    with pytest.raises(ScenarioError) as err:
        load_scenario(planted(keys, bad))
    assert str(err.value).startswith(message), str(err.value)


def test_a_crosswalk_span_lies_within_its_lanes():
    for span, path in (([-5.0, 3.0], "crosswalks[0].span[0]"),
                       ([60.0, 100.5], "crosswalks[0].span[1]")):
        with pytest.raises(ScenarioError) as err:
            load_scenario(planted(("crosswalks", 0, "span"), span))
        assert str(err.value).startswith(f"{path}:")


def test_a_lane_without_boundaries_has_the_documented_solid_ones():
    doc = minimal_doc()
    loaded = load_scenario(doc).lanes["l0"]
    built = Lane(id="l0", centerline=loaded.centerline, width=3.5, speed_limit=13.89)
    assert (loaded.left_boundary, loaded.right_boundary) == ("solid", "solid")
    assert (built.left_boundary, built.right_boundary) == ("solid", "solid")


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
    point = left.centerline.pose_at(100.0)[:2]
    assert abs(lateral(point, right)) == pytest.approx(right.width)


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
