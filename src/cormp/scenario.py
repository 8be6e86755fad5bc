"""Static world model: lanes, agents, lights, crosswalks, and the JSON loader.

The file format is documented in SCHEMA.md. The loader is strict: unknown keys
anywhere in the document are rejected, and validation errors carry the path of
the offending field (e.g. ``agents[2].speed``). `serialize_scenario` is the
exact inverse of `load_scenario` so scenario files round-trip.
"""
from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import PROFILES, number
from .kernels import REACH_MARGIN

BOUNDARY_KINDS = ("solid", "dashed")
AGENT_KINDS = ("ego", "vehicle", "pedestrian", "obstacle")
LIGHT_COLORS = ("red", "green")

DEFAULT_VEHICLE_MASS = 1500.0
DEFAULT_PEDESTRIAN_MASS = 75.0

WALK_BELOW = 8   # from this many points, a one-segment lane projects an array in closed form


class ScenarioError(ValueError):
    """Raised for structural or semantic problems in a scenario document."""


class Polyline:
    """Arc-length parameterized 2D polyline: lane centerlines, and the path an
    aborted lane change brakes along."""

    def __init__(self, points) -> None:
        p = np.asarray(points, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 2:
            raise ValueError("polyline needs at least two 2D points")
        if not np.isfinite(p).all():
            raise ValueError("polyline points must be finite")
        # one column per vertex: x, y, the dx, dy and length of the segment it
        # starts (0 at the last vertex) and its arc position; `points`, `cum`,
        # `_d` and `_seg` are views of it, and `frames` gathers its columns
        table = np.zeros((6, len(p)))
        table[:2] = p.T
        d = np.subtract(table[:2, 1:], table[:2, :-1], out=table[2:4, :-1])
        seg = np.hypot(d[0], d[1], out=table[4, :-1])
        if not (seg > 0.0).all():
            raise ValueError("polyline has zero-length segments")
        np.cumsum(seg, out=table[5, 1:])
        self.frame_table = table
        self.points = table[:2].T
        self.cum = table[5]
        self._d = table[2:4, :-1].T
        self._seg = seg
        # signed turning angle at each interior vertex over the mean length of
        # its two segments: 1/R for vertices on an arc of radius R
        ax, ay, bx, by = d[0, :-1], d[1, :-1], d[0, 1:], d[1, 1:]
        self._kappa = (np.arctan2(ax * by - ay * bx, ax * bx + ay * by)
                       / (0.5 * (seg[:-1] + seg[1:])))

    @property
    def length(self) -> float:
        return float(self.cum[-1])

    @cached_property
    def _cum_floats(self) -> list:
        return self.cum.tolist()

    def _segment(self, s: float) -> int:
        """Index of the segment holding arc position s (an end one beyond the ends)."""
        i = bisect.bisect_right(self._cum_floats, s) - 1
        return min(max(i, 0), len(self._seg) - 1)

    def pose_at(self, s: float) -> tuple:
        """(x, y, heading) at arc length s, from one segment lookup: the scalar
        form of `frames`. Extrapolates along end tangents."""
        ax, ay, dx, dy, _, seg, cum, heading = self._segment_floats[self._segment(s)]
        f = (s - cum) / seg
        return ax + dx * f, ay + dy * f, heading

    def point_at(self, s: float) -> tuple:
        """(x, y) at arc length s; extrapolates along end tangents."""
        return self.pose_at(s)[:2]

    def heading_at(self, s: float) -> float:
        return self._segment_floats[self._segment(s)][7]

    def _segments(self, s: np.ndarray) -> np.ndarray:
        """`_segment` of each of an array of arc positions (0 on a two-point line)."""
        if len(self._kappa) == 0:
            return np.zeros(np.shape(s), dtype=np.intp)
        return np.searchsorted(self.cum[1:-1], s, side="right")

    def locate(self, s: np.ndarray) -> tuple:
        """(`_segments`, curvature) at an array of arc positions. Curvature is
        interpolated in s between the interior vertices, holds its end value
        beyond them, and is 0 on a two-point line."""
        kappa = np.interp(s, self.cum[1:-1], self._kappa) if len(self._kappa) else np.zeros_like(s)
        return self._segments(s), kappa

    def frames(self, s) -> tuple:
        """x, y and heading at an array of arc positions, bitwise those of
        `pose_at`: s beyond either end extends along that end's segment."""
        s = np.asarray(s, dtype=np.float64)
        ax, ay, dx, dy, seg, cum = self.frame_table.take(self._segments(s), axis=1)
        f = (s - cum) / seg
        return ax + dx * f, ay + dy * f, np.arctan2(dy, dx)

    @cached_property
    def _segment_floats(self) -> list:
        """Per-segment Python floats, which `_walk` (by the runs of `_chunks`) and `pose_at`
        read faster than numpy scalars: ax, ay, dx, dy, length^2, length, arc position and heading
        (by np.arctan2 as in `frames`; math.atan2 rounds some differently). Most lanes have one."""
        p, d = self.points, self._d
        return list(zip(p[:-1, 0].tolist(), p[:-1, 1].tolist(), d[:, 0].tolist(),
                        d[:, 1].tolist(), (self._seg * self._seg).tolist(),
                        self._seg.tolist(), self.cum[:-1].tolist(),
                        np.arctan2(d[:, 1], d[:, 0]).tolist()))

    @cached_property
    def _chunks(self) -> list:
        """(x, y, r, rows) per run of isqrt(n - 1) + 1 of the n segments: the disc about
        the mean (x, y) of its vertices, out to the farthest (r), covers the run, whose
        rows are each segment's index and ax, ay, dx, dy, length^2 (of `_segment_floats`).
        One run (n <= 2) has an infinite disc."""
        rows = [(i, *r[:5]) for i, r in enumerate(self._segment_floats)]
        k = math.isqrt(len(rows) - 1) + 1
        if k >= len(rows):
            return [(0.0, 0.0, math.inf, rows)]
        starts = range(0, len(rows), k)
        discs = [(v, v.mean(axis=0)) for v in (self.points[i:i + k + 1] for i in starts)]
        return [(*c.tolist(), float(np.hypot(*(v - c).T).max()), rows[i:i + k])
                for i, (v, c) in zip(starts, discs)]

    def project(self, point):
        """(s, signed lateral offset) of the closest point.

        s is the arc position with the end segments extended past either end
        (negative before the start, beyond `length` past the end), so that
        `point_at(s)` is the foot of the point on that extension: `project`
        inverts `point_at` and `frames` everywhere. Lateral offset is positive
        to the left of the travel direction. `point` is one (x, y) pair,
        giving two floats, or an (n, 2) array, giving two arrays. Among the
        segments within 1e-12 m^2 of the closest, the first whose unclamped
        foot lies on it wins, else the first: near a vertex the segment that
        holds the point beats its neighbour clamped to that vertex.

        On a one-segment lane, an array of `WALK_BELOW` or more points takes
        the segment's closed form, where no tie can arise. A pair, and every
        other array point by point, is located by `_walk`, the one statement
        of the tie rule; both paths give the same bits.
        Every shipped lane has one segment, and a curved drive sends its
        many-segment lanes fewer than `WALK_BELOW` points at a time: the
        seed-1 benchmark drives send 952 smaller arrays, and all 102 larger
        ones go to one-segment lanes. The walk's cost per point still grows
        with the segment count.
        """
        if not isinstance(point, tuple):   # a tuple is a pair, read without numpy
            point = np.asarray(point, dtype=np.float64)
            if point.ndim == 2:
                return self._project_many(point)
        return self._walk(float(point[0]), float(point[1]))

    def _walk(self, px: float, py: float) -> tuple:
        """`project` of one point, on Python floats: the runs of `_chunks` nearest
        first, up to the first whose disc lies over `REACH_MARGIN` beyond the
        closest segment so far."""
        runs = self._chunks
        edges, order = (-math.inf,), (0,)
        if len(runs) > 1:   # by the distance of their disc's edge, nearest first
            edges = [math.hypot(px - x, py - y) - r for x, y, r, _ in runs]
            order = sorted(range(len(runs)), key=edges.__getitem__)
        best, reach, near = math.inf, math.inf, []   # near: (i, dist2, t, tc, qx, qy)
        for k in order:
            # no segment is nearer than its disc's edge (<= 0 inside), both exact to ulps
            if edges[k] > reach:
                break
            for i, ax, ay, dx, dy, len2 in runs[k][3]:
                rx, ry = px - ax, py - ay
                t = (rx * dx + ry * dy) / len2
                tc = 0.0 if t < 0.0 else 1.0 if t > 1.0 else t
                qx, qy = rx - dx * tc, ry - dy * tc
                dist2 = qx * qx + qy * qy
                if dist2 < best - 1e-9:   # so much closer that none so far can tie with it
                    best, reach = dist2, math.sqrt(dist2) + REACH_MARGIN
                    near = [(i, dist2, t, tc, qx, qy)]
                elif dist2 <= best + 1e-12:   # a tie: reach lags best by < 1e-9 m^2, culling less
                    best = min(best, dist2)
                    near.append((i, dist2, t, tc, qx, qy))
        pick = near[0]
        if len(near) > 1:
            near = sorted(e for e in near if e[1] <= best + 1e-12)
            pick = next((e for e in near if e[2] == e[3]), near[0])
        i, _, t, tc, qx, qy = pick
        _, _, dx, dy, _, seg, cum, _ = self._segment_floats[i]
        if (i == 0 and t < 0.0) or (i == len(self._seg) - 1 and t > 1.0):
            tc = t  # past an end: along the end segment's extension
        return cum + tc * seg, (dx * qy - dy * qx) / seg

    def _project_many(self, p: np.ndarray) -> tuple:
        if len(p) >= WALK_BELOW and len(self._seg) == 1:
            # `_walk` on the one segment, bitwise: past either end the foot
            # is t on the extension, and on the segment t is tc
            ax, ay, dx, dy, len2, seg, cum, _ = self._segment_floats[0]
            rx, ry = p[:, 0] - ax, p[:, 1] - ay
            t = (rx * dx + ry * dy) / len2
            tc = np.minimum(np.maximum(t, 0.0), 1.0)
            return cum + t * seg, (dx * (ry - dy * tc) - dy * (rx - dx * tc)) / seg
        s, lateral = zip(*map(self._walk, *p.T.tolist())) if len(p) else ((), ())
        return np.array(s, dtype=np.float64), np.array(lateral, dtype=np.float64)


@dataclass(eq=False)
class Lane:
    id: str
    centerline: Polyline
    width: float
    speed_limit: float
    left_neighbor: str | None = None
    right_neighbor: str | None = None
    left_boundary: str = "solid"
    right_boundary: str = "solid"

    @property
    def length(self) -> float:
        return self.centerline.length


@dataclass
class Behavior:
    """Scripted motion for a non-ego agent (see SCHEMA.md)."""

    type: str = "lane_follow"
    profile: list = field(default_factory=list)  # speed_schedule: [[t, v], ...]
    start_time: float = 0.0                      # cross
    speed: float = 0.0                           # cross
    distance: float | None = None                # cross: stop after this far

    def speed_at(self, t: float, default: float) -> float:
        if self.type == "speed_schedule":
            v = default
            for t_k, v_k in self.profile:
                if t + 1e-9 >= t_k:
                    v = v_k
            return v
        return default


@dataclass(eq=False)
class AgentState:
    id: str
    kind: str
    x: float
    y: float
    heading: float
    speed: float
    length: float
    width: float
    mass: float
    lane: str | None = None
    behavior: Behavior = field(default_factory=Behavior)

    def copy(self) -> "AgentState":
        return replace(self)


@dataclass(eq=False)
class TrafficLight:
    lane: str
    stop_line_s: float
    schedule: list  # [(color, duration_s), ...] cycled from t=0
    x: float
    y: float

    @property
    def cycle(self) -> float:
        return sum(d for _, d in self.schedule)

    def color_at(self, t: float) -> str:
        phase = t % self.cycle
        for color, dur in self.schedule:
            if phase < dur:
                return color
            phase -= dur
        return self.schedule[-1][0]


@dataclass(eq=False)
class Crosswalk:
    lanes: list
    span: tuple  # (s_begin, s_end) along each listed lane


@dataclass(eq=False)
class Scenario:
    name: str
    duration_s: float
    profile: str
    apriori_lane: str
    lanes: dict          # id -> Lane
    agents: list         # AgentState, ego first
    lights: list
    crosswalks: list

    @property
    def ego(self) -> AgentState:
        return self.agents[0]

    def others(self) -> list:
        return self.agents[1:]


# --------------------------------------------------------------------------
# loading / validation


def _require(doc, path: str, allowed: set, required: set) -> None:
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected an object")
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {unknown}")
    missing = sorted(required - set(doc))
    if missing:
        raise ScenarioError(f"{path}: missing keys {missing}")


# The readers of one value each: `doc[key]`, checked, named in any error by
# its path, `path.key` for an object's key and `path[key]` for a list's index.


def _path(path: str, key) -> str:
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _number(doc, key, path: str, lo=None, hi=None) -> float:
    return number(doc[key], _path(path, key), lo, hi, ScenarioError)


def _name(doc, key, path: str) -> str:
    """An id or a name: a non-empty string."""
    v = doc[key]
    if not isinstance(v, str) or not v:
        raise ScenarioError(f"{_path(path, key)}: expected a non-empty string")
    return v


def _lane_ref(doc, key, path: str, lanes: dict) -> str:
    """The id of a lane in `lanes`."""
    v = doc[key]
    if not isinstance(v, str) or v not in lanes:
        raise ScenarioError(f"{_path(path, key)}: unknown lane {v!r}")
    return v


def _list(doc, key, path: str, what: str, least: int = 1, most: int | None = None) -> list:
    v = doc[key]
    if not isinstance(v, (list, tuple)) or not least <= len(v) <= (most or len(v)):
        raise ScenarioError(f"{_path(path, key)}: expected {what}")
    return v


def _pair(doc, key, path: str, what: str) -> tuple:
    """A two-item list and its path."""
    return _list(doc, key, path, what, least=2, most=2), _path(path, key)


def _point(doc, key, path: str) -> tuple:
    v, at = _pair(doc, key, path, "[x, y]")
    return _number(v, 0, at), _number(v, 1, at)


def _load_lane(doc: dict, path: str) -> Lane:
    _require(
        doc, path,
        allowed={"id", "centerline", "width", "speed_limit", "left_neighbor",
                 "right_neighbor", "left_boundary", "right_boundary"},
        required={"id", "centerline", "width", "speed_limit"},
    )
    points = _list(doc, "centerline", path, "[[x, y], ...] of at least two points", least=2)
    line = [_point(points, i, f"{path}.centerline") for i in range(len(points))]
    try:
        line = Polyline(line)
    except ValueError as exc:
        raise ScenarioError(f"{path}.centerline: {exc}") from exc
    for key in ("left_boundary", "right_boundary"):
        if key in doc and doc[key] not in BOUNDARY_KINDS:
            raise ScenarioError(f"{path}.{key}: expected one of {BOUNDARY_KINDS}")
    # absent keys take the `Lane` defaults; neighbours are checked once every lane is known
    optional = {k: doc[k] for k in ("left_neighbor", "right_neighbor",
                                    "left_boundary", "right_boundary") if k in doc}
    return Lane(id=_name(doc, "id", path), centerline=line,
                width=_number(doc, "width", path, lo=0.5),
                speed_limit=_number(doc, "speed_limit", path, lo=0.1), **optional)


def _load_behavior(doc: dict, path: str) -> Behavior:
    _require(
        doc, path,
        allowed={"type", "profile", "start_time", "speed", "distance"},
        required={"type"},
    )
    btype = doc["type"]
    if btype == "lane_follow" or btype == "static":
        _require(doc, path, allowed={"type"}, required={"type"})
        return Behavior(type=btype)
    if btype == "speed_schedule":
        _require(doc, path, allowed={"type", "profile"}, required={"type", "profile"})
        prof = _list(doc, "profile", path, "a non-empty list of [t, v]")
        out = []
        for i in range(len(prof)):
            pair, at = _pair(prof, i, f"{path}.profile", "[t, v]")
            out.append([_number(pair, 0, at), _number(pair, 1, at, lo=0.0)])
            if i and out[i][0] <= out[i - 1][0]:
                raise ScenarioError(f"{at}: times must increase")
        return Behavior(type="speed_schedule", profile=out)
    if btype == "cross":
        _require(doc, path, allowed={"type", "start_time", "speed", "distance"},
                 required={"type", "start_time", "speed"})
        start = _number(doc, "start_time", path, lo=0.0)
        speed = _number(doc, "speed", path, lo=0.0)
        dist = _number(doc, "distance", path, lo=0.0) if "distance" in doc else None
        return Behavior(type="cross", start_time=start, speed=speed, distance=dist)
    raise ScenarioError(f"{path}.type: unknown behavior type {btype!r}")


def _load_agent(doc: dict, path: str, index: int, lanes: dict) -> AgentState:
    _require(
        doc, path,
        allowed={"id", "kind", "position", "heading", "speed", "length",
                 "width", "mass", "lane", "behavior"},
        required={"kind", "position", "heading", "speed", "length", "width"},
    )
    kind = doc["kind"]
    if kind not in AGENT_KINDS:
        raise ScenarioError(f"{path}.kind: expected one of {AGENT_KINDS}")
    x, y = _point(doc, "position", path)
    default_mass = DEFAULT_PEDESTRIAN_MASS if kind == "pedestrian" else DEFAULT_VEHICLE_MASS
    behavior = (_load_behavior(doc["behavior"], f"{path}.behavior")
                if "behavior" in doc else _default_behavior(kind))
    return AgentState(
        id=_name(doc, "id", path) if "id" in doc else f"agent{index}",
        kind=kind,
        x=x, y=y,
        heading=_number(doc, "heading", path),
        speed=_number(doc, "speed", path, lo=0.0),
        length=_number(doc, "length", path, lo=0.05),
        width=_number(doc, "width", path, lo=0.05),
        mass=_number(doc, "mass", path, lo=1.0) if "mass" in doc else default_mass,
        lane=_lane_ref(doc, "lane", path, lanes) if doc.get("lane") is not None else None,
        behavior=behavior,
    )


def _default_behavior(kind: str) -> Behavior:
    if kind in ("obstacle", "pedestrian"):
        return Behavior(type="static")
    return Behavior(type="lane_follow")


def _load_light(doc: dict, path: str, lanes: dict) -> TrafficLight:
    _require(doc, path,
             allowed={"lane", "stop_line_s", "schedule", "position"},
             required={"lane", "stop_line_s", "schedule"})
    lane = lanes[_lane_ref(doc, "lane", path, lanes)]
    stop_s = _number(doc, "stop_line_s", path, lo=0.0, hi=lane.length)
    schedule = _list(doc, "schedule", path, "a non-empty list of [color, duration]")
    parsed = []
    for i in range(len(schedule)):
        entry, at = _pair(schedule, i, f"{path}.schedule", "[color, duration]")
        if entry[0] not in LIGHT_COLORS:
            raise ScenarioError(f"{at}[0]: color must be one of {LIGHT_COLORS}")
        dur = _number(entry, 1, at)
        if dur <= 0:
            raise ScenarioError(f"{at}[1]: duration must be > 0")
        parsed.append((entry[0], dur))
    if "position" in doc:
        x, y = _point(doc, "position", path)
    else:
        x, y = lane.centerline.point_at(stop_s)
    return TrafficLight(lane=lane.id, stop_line_s=stop_s, schedule=parsed, x=float(x), y=float(y))


def _load_crosswalk(doc: dict, path: str, lanes: dict) -> Crosswalk:
    _require(doc, path, allowed={"lanes", "span"}, required={"lanes", "span"})
    refs = _list(doc, "lanes", path, "a non-empty list of lane ids")
    lane_ids = [_lane_ref(refs, i, f"{path}.lanes", lanes) for i in range(len(refs))]
    span, at = _pair(doc, "span", path, "[s_begin, s_end]")
    end = min(lanes[lid].length for lid in lane_ids)   # within every lane's length
    s0, s1 = _number(span, 0, at, lo=0.0, hi=end), _number(span, 1, at, lo=0.0, hi=end)
    if not s0 < s1:
        raise ScenarioError(f"{at}: s_begin must be < s_end")
    return Crosswalk(lanes=lane_ids, span=(s0, s1))


def load_scenario(source) -> Scenario:
    """Load a scenario from a file path or an already-parsed dict."""
    if isinstance(source, dict):
        doc = source
        name_default = "scenario"
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        name_default = os.path.splitext(os.path.basename(str(source)))[0]
    _require(
        doc, "scenario",
        allowed={"name", "duration_s", "profile", "apriori_lane", "lanes",
                 "agents", "lights", "crosswalks"},
        required={"duration_s", "apriori_lane", "lanes", "agents"},
    )
    duration = _number(doc, "duration_s", "scenario", lo=0.1)
    profile = doc.get("profile", "regular")
    if profile not in PROFILES:
        raise ScenarioError(f"scenario.profile: expected one of {PROFILES}")

    lanes: dict = {}
    lane_docs = _list(doc, "lanes", "scenario", "a non-empty list")
    for i, lane_doc in enumerate(lane_docs):
        lane = _load_lane(lane_doc, f"lanes[{i}]")
        if lane.id in lanes:
            raise ScenarioError(f"lanes[{i}].id: duplicate lane id {lane.id!r}")
        lanes[lane.id] = lane
    for i, lane_doc in enumerate(lane_docs):
        for key in ("left_neighbor", "right_neighbor"):
            if lane_doc.get(key) is not None:
                _lane_ref(lane_doc, key, f"lanes[{i}]", lanes)

    agents = []
    seen_ids: set = set()
    for i, agent_doc in enumerate(_list(doc, "agents", "scenario", "a non-empty list")):
        agent = _load_agent(agent_doc, f"agents[{i}]", i, lanes)
        if agent.id in seen_ids:
            raise ScenarioError(f"agents[{i}].id: duplicate agent id {agent.id!r}")
        seen_ids.add(agent.id)
        agents.append(agent)
    egos = [a for a in agents if a.kind == "ego"]
    if len(egos) != 1:
        raise ScenarioError(f"scenario.agents: expected exactly one ego, got {len(egos)}")
    if egos[0].lane is None:
        raise ScenarioError("scenario.agents: the ego must reference a lane")
    agents.sort(key=lambda a: a.kind != "ego")  # ego first, stable otherwise

    lights, crosswalks = (_list(doc, key, "scenario", "a list", least=0) if key in doc else []
                          for key in ("lights", "crosswalks"))
    return Scenario(
        name=_name(doc, "name", "scenario") if "name" in doc else name_default,
        duration_s=duration,
        profile=profile,
        apriori_lane=_lane_ref(doc, "apriori_lane", "scenario", lanes),
        lanes=lanes,
        agents=agents,
        lights=[_load_light(d, f"lights[{i}]", lanes) for i, d in enumerate(lights)],
        crosswalks=[_load_crosswalk(d, f"crosswalks[{i}]", lanes)
                    for i, d in enumerate(crosswalks)],
    )


def serialize_scenario(sc: Scenario) -> dict:
    """Inverse of load_scenario (all defaults made explicit)."""
    lanes = []
    for lane in sc.lanes.values():
        lanes.append({
            "id": lane.id,
            "centerline": [[float(x), float(y)] for x, y in lane.centerline.points],
            "width": lane.width,
            "speed_limit": lane.speed_limit,
            "left_neighbor": lane.left_neighbor,
            "right_neighbor": lane.right_neighbor,
            "left_boundary": lane.left_boundary,
            "right_boundary": lane.right_boundary,
        })
    agents = []
    for a in sc.agents:
        b = a.behavior
        if b.type == "speed_schedule":
            beh = {"type": b.type, "profile": [[t, v] for t, v in b.profile]}
        elif b.type == "cross":
            beh = {"type": b.type, "start_time": b.start_time, "speed": b.speed}
            if b.distance is not None:
                beh["distance"] = b.distance
        else:
            beh = {"type": b.type}
        agents.append({
            "id": a.id, "kind": a.kind, "position": [a.x, a.y],
            "heading": a.heading, "speed": a.speed, "length": a.length,
            "width": a.width, "mass": a.mass, "lane": a.lane, "behavior": beh,
        })
    return {
        "name": sc.name,
        "duration_s": sc.duration_s,
        "profile": sc.profile,
        "apriori_lane": sc.apriori_lane,
        "lanes": lanes,
        "agents": agents,
        "lights": [
            {"lane": l.lane, "stop_line_s": l.stop_line_s,
             "schedule": [[c, d] for c, d in l.schedule], "position": [l.x, l.y]}
            for l in sc.lights
        ],
        "crosswalks": [
            {"lanes": list(c.lanes), "span": [c.span[0], c.span[1]]} for c in sc.crosswalks
        ],
    }
