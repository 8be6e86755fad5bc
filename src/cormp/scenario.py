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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import PROFILES

BOUNDARY_KINDS = ("solid", "dashed")
AGENT_KINDS = ("ego", "vehicle", "pedestrian", "obstacle")
LIGHT_COLORS = ("red", "green")

DEFAULT_VEHICLE_MASS = 1500.0
DEFAULT_PEDESTRIAN_MASS = 75.0


class ScenarioError(ValueError):
    """Raised for structural or semantic problems in a scenario document."""


def _frame_tables(paths) -> tuple:
    """The frame tables of polylines through each vertex array of `paths`, in one pass.

    Returns a (P, 6, V) table, V the most vertices of any path, the (P, V - 2)
    curvatures at the interior vertices and the P vertex counts. A path with n
    vertices is padded with its last one: its padded segments have dx = dy =
    length = 0, so the first n columns of its table and the first n - 2 of its
    curvatures are what it alone would give. Every path must have at least two
    points, all finite, and no zero-length segment of its own.
    """
    pts = [np.asarray(p, dtype=np.float64) for p in paths]
    for p in pts:
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 2:
            raise ValueError("polyline needs at least two 2D points")
    counts = [len(p) for p in pts]
    width = max(counts)
    # one column per vertex: x, y, the dx, dy and length of the segment it
    # starts (0 at the last vertex) and its arc position
    table = np.empty((len(pts), 6, width))
    for rows, p, n in zip(table, pts, counts):
        rows[:2, :n] = p.T
        rows[:2, n:] = p[-1:].T
    # one path works on its (6, V) table: numpy calls cost less on 2D views
    t = table[0] if len(pts) == 1 else table
    if not np.isfinite(t[..., :2, :]).all():
        raise ValueError("polyline points must be finite")
    d = np.subtract(t[..., :2, 1:], t[..., :2, :-1], out=t[..., 2:4, :-1])
    dx, dy = d[..., 0, :], d[..., 1, :]
    seg = np.hypot(dx, dy, out=t[..., 4, :-1])
    # the width - n padded segments of each path are exactly 0 long
    if np.count_nonzero(seg <= 0) > width * len(pts) - sum(counts):
        raise ValueError("polyline has zero-length segments")
    t[..., 2:, -1] = t[..., 5, 0] = 0.0
    np.cumsum(seg, axis=-1, out=t[..., 5, 1:])
    # signed turning angle at each interior vertex over the mean length of
    # its two segments: 1/R for vertices on an arc of radius R (0 where both
    # segments are padding)
    ax, ay, bx, by = dx[..., :-1], dy[..., :-1], dx[..., 1:], dy[..., 1:]
    turn = np.arctan2(ax * by - ay * bx, ax * bx + ay * by)
    mean = 0.5 * (seg[..., :-1] + seg[..., 1:])
    kappa = np.divide(turn, mean, out=turn, where=mean > 0.0)
    return table, kappa.reshape(len(pts), -1), counts


class Polyline:
    """Arc-length parameterized 2D polyline: lane centerlines and planned paths."""

    def __init__(self, points) -> None:
        table, kappa, _ = _frame_tables([points])
        self._adopt(table[0], kappa[0])

    @classmethod
    def stack(cls, paths) -> list:
        """One `Polyline` per vertex array of `paths`, equal to `Polyline(points)`
        of each, their tables filled in one padded pass (see `_frame_tables`)."""
        table, kappa, counts = _frame_tables(paths)
        lines = []
        for rows, turns, n in zip(table, kappa, counts):
            line = cls.__new__(cls)
            line._adopt(rows[:, :n], turns[:n - 2])
            lines.append(line)
        return lines

    def _adopt(self, table: np.ndarray, kappa: np.ndarray) -> None:
        # `points`, `cum`, `_d` and `_seg` are views of the (6, n) table;
        # `frames` gathers its columns
        self.frame_table = table
        self.points = table[:2].T
        self.cum = table[5]
        self._d = table[2:4, :-1].T
        self._seg = table[4, :-1]
        self._kappa = kappa

    @property
    def length(self) -> float:
        return float(self.cum[-1])

    @cached_property
    def _cum_floats(self) -> list:
        return self.cum.tolist()

    @cached_property
    def _heading_floats(self) -> list:
        # np.arctan2 as in `frames`: math.atan2 rounds some headings differently
        return np.arctan2(self._d[:, 1], self._d[:, 0]).tolist()

    def _segment(self, s: float) -> int:
        """Index of the segment holding arc position s (an end one beyond the ends)."""
        i = bisect.bisect_right(self._cum_floats, s) - 1
        return min(max(i, 0), len(self._seg) - 1)

    def vertices_between(self, lo: float, hi: float) -> np.ndarray:
        """The vertices whose arc position lies strictly between lo and hi (a view)."""
        cum = self._cum_floats
        return self.points[bisect.bisect_right(cum, lo):bisect.bisect_left(cum, hi)]

    def point_at(self, s: float) -> tuple:
        """(x, y) at arc length s; extrapolates along end tangents."""
        ax, ay, dx, dy, _, seg, cum = self._segment_floats[self._segment(s)]
        f = (s - cum) / seg
        return ax + dx * f, ay + dy * f

    def heading_at(self, s: float) -> float:
        return self._heading_floats[self._segment(s)]

    def locate(self, s: np.ndarray) -> tuple:
        """(segment, curvature) at an array of arc positions, as `frames` reads them:
        the count of interior vertices at or before s is `_segment`."""
        inner = self.cum[1:-1]
        i = np.searchsorted(inner, s, side="right")
        return i, np.interp(s, inner, self._kappa) if len(inner) else np.zeros_like(s)

    def frames(self, s) -> tuple:
        """x, y, heading and signed curvature at an array of arc positions.

        Positions and headings are those of `point_at` and `heading_at`: s
        beyond either end extends along that end's segment. Curvature is
        interpolated in s between the interior vertices, holds its end value
        beyond them, and is 0 on a two-point line.
        """
        s = np.asarray(s, dtype=np.float64)
        i, kappa = self.locate(s)
        ax, ay, dx, dy, seg, cum = self.frame_table.take(i, axis=1)
        f = (s - cum) / seg
        return ax + dx * f, ay + dy * f, np.arctan2(dy, dx), kappa

    @cached_property
    def _segment_floats(self) -> list:
        """Per-segment Python floats: the scalar `project` loop is faster on
        them than on numpy scalars, and most lanes have one segment."""
        p, d = self.points, self._d
        return list(zip(p[:-1, 0].tolist(), p[:-1, 1].tolist(), d[:, 0].tolist(),
                        d[:, 1].tolist(), (self._seg * self._seg).tolist(),
                        self._seg.tolist(), self.cum[:-1].tolist()))

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

        A pair runs a loop on Python floats, an array one vectorised pass.
        On a 2-core host with CPython 3.11 and numpy 2.4, the array pass wins
        from about 2 points on a 59-segment arc and 6 on a one-segment lane;
        one point costs 66 us looped against 72 us vectorised on the arc, 4
        against 24 us on the lane. So pass one point as a pair, several as an array.
        """
        p = np.asarray(point, dtype=np.float64)
        if p.ndim == 2:
            return self._project_many(p)
        px, py = float(p[0]), float(p[1])
        best = math.inf
        near = []   # (dist2, i, t, tc, qx, qy) of the segments near the closest so far
        for i, (ax, ay, dx, dy, len2, seg, cum) in enumerate(self._segment_floats):
            rx, ry = px - ax, py - ay
            t = (rx * dx + ry * dy) / len2
            tc = min(max(t, 0.0), 1.0)
            qx, qy = rx - dx * tc, ry - dy * tc
            dist2 = qx * qx + qy * qy
            if dist2 < best - 1e-9:   # so much closer that none so far can tie with it
                best = dist2
                near = [(dist2, i, t, tc, qx, qy)]
            elif dist2 <= best + 1e-12:
                best = min(best, dist2)
                near.append((dist2, i, t, tc, qx, qy))
        pick = near[0]
        if len(near) > 1:
            near = [e for e in near if e[0] <= best + 1e-12]
            pick = next((e for e in near if e[2] == e[3]), near[0])
        _, i, t, tc, qx, qy = pick
        _, _, dx, dy, _, seg, cum = self._segment_floats[i]
        if (i == 0 and t < 0.0) or (i == len(self._seg) - 1 and t > 1.0):
            tc = t  # past an end: along the end segment's extension
        return cum + tc * seg, (dx * qy - dy * qx) / seg

    def _project_many(self, p: np.ndarray) -> tuple:
        if len(self._seg) > 1:
            return self._project_segments(p)
        # `_project_segments` on its one segment, bitwise: past either end
        # the foot is t on the extension, and on the segment t is tc
        ax, ay, dx, dy, len2, seg, cum = self._segment_floats[0]
        rx, ry = p[:, 0] - ax, p[:, 1] - ay
        t = (rx * dx + ry * dy) / len2
        tc = np.minimum(np.maximum(t, 0.0), 1.0)
        return cum + t * seg, (dx * (ry - dy * tc) - dy * (rx - dx * tc)) / seg

    def _project_segments(self, p: np.ndarray) -> tuple:
        a, d, seg = self.points[:-1], self._d, self._seg
        rx = p[:, 0:1] - a[:, 0]
        ry = p[:, 1:2] - a[:, 1]
        t = (rx * d[:, 0] + ry * d[:, 1]) / (seg * seg)
        tc = np.minimum(np.maximum(t, 0.0), 1.0)
        qx = rx - d[:, 0] * tc
        qy = ry - d[:, 1] * tc
        dist2 = qx * qx + qy * qy
        near = dist2 <= dist2.min(axis=1, keepdims=True) + 1e-12
        # 2 for a near segment holding its foot, 1 for another near one
        j = np.argmax(near.astype(np.int8) + (near & (tc == t)), axis=1)
        r = np.arange(len(p))
        tj = t[r, j]
        past_end = ((j == 0) & (tj < 0.0)) | ((j == len(seg) - 1) & (tj > 1.0))
        s = self.cum[j] + np.where(past_end, tj, tc[r, j]) * seg[j]
        lateral = (d[j, 0] * qy[r, j] - d[j, 1] * qx[r, j]) / seg[j]
        return s, lateral


@dataclass(eq=False)
class Lane:
    id: str
    centerline: Polyline
    width: float
    speed_limit: float
    left_neighbor: str | None = None
    right_neighbor: str | None = None
    left_boundary: str = "solid"
    right_boundary: str = "dashed"

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
        return AgentState(
            self.id, self.kind, self.x, self.y, self.heading, self.speed,
            self.length, self.width, self.mass, self.lane, self.behavior,
        )


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


def _require(doc: dict, path: str, allowed: set, required: set) -> None:
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {unknown}")
    missing = sorted(required - set(doc))
    if missing:
        raise ScenarioError(f"{path}: missing keys {missing}")


def _number(doc, key, path, lo=None, hi=None):
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {type(v).__name__}")
    v = float(v)
    if not math.isfinite(v):
        raise ScenarioError(f"{path}.{key}: must be finite")
    if lo is not None and v < lo:
        raise ScenarioError(f"{path}.{key}: must be >= {lo}")
    if hi is not None and v > hi:
        raise ScenarioError(f"{path}.{key}: must be <= {hi}")
    return v


def _point(doc, key, path):
    v = doc[key]
    if (not isinstance(v, (list, tuple)) or len(v) != 2
            or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in v)):
        raise ScenarioError(f"{path}.{key}: expected [x, y]")
    return float(v[0]), float(v[1])


def _load_lane(doc: dict, path: str) -> Lane:
    _require(
        doc, path,
        allowed={"id", "centerline", "width", "speed_limit", "left_neighbor",
                 "right_neighbor", "left_boundary", "right_boundary"},
        required={"id", "centerline", "width", "speed_limit"},
    )
    if not isinstance(doc["id"], str) or not doc["id"]:
        raise ScenarioError(f"{path}.id: expected a non-empty string")
    try:
        line = Polyline(doc["centerline"])
    except (ValueError, TypeError) as exc:
        raise ScenarioError(f"{path}.centerline: {exc}") from exc
    width = _number(doc, "width", path, lo=0.5)
    limit = _number(doc, "speed_limit", path, lo=0.1)
    lane = Lane(
        id=doc["id"], centerline=line, width=width, speed_limit=limit,
        left_neighbor=doc.get("left_neighbor"),
        right_neighbor=doc.get("right_neighbor"),
        left_boundary=doc.get("left_boundary", "solid"),
        right_boundary=doc.get("right_boundary", "solid"),
    )
    for key in ("left_boundary", "right_boundary"):
        if getattr(lane, key) not in BOUNDARY_KINDS:
            raise ScenarioError(f"{path}.{key}: expected one of {BOUNDARY_KINDS}")
    return lane


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
        prof = doc["profile"]
        if not isinstance(prof, list) or not prof:
            raise ScenarioError(f"{path}.profile: expected a non-empty list of [t, v]")
        out = []
        last_t = -math.inf
        for i, pair in enumerate(prof):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ScenarioError(f"{path}.profile[{i}]: expected [t, v]")
            t_k, v_k = float(pair[0]), float(pair[1])
            if t_k <= last_t:
                raise ScenarioError(f"{path}.profile[{i}]: times must increase")
            if v_k < 0:
                raise ScenarioError(f"{path}.profile[{i}]: speed must be >= 0")
            out.append([t_k, v_k])
            last_t = t_k
        return Behavior(type="speed_schedule", profile=out)
    if btype == "cross":
        _require(doc, path, allowed={"type", "start_time", "speed", "distance"},
                 required={"type", "start_time", "speed"})
        start = _number(doc, "start_time", path, lo=0.0)
        speed = _number(doc, "speed", path, lo=0.0)
        dist = _number(doc, "distance", path, lo=0.0) if "distance" in doc else None
        return Behavior(type="cross", start_time=start, speed=speed, distance=dist)
    raise ScenarioError(f"{path}.type: unknown behavior type {btype!r}")


def _load_agent(doc: dict, path: str, index: int) -> AgentState:
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
    mass = _number(doc, "mass", path, lo=1.0) if "mass" in doc else default_mass
    behavior = (_load_behavior(doc["behavior"], f"{path}.behavior")
                if "behavior" in doc else _default_behavior(kind))
    return AgentState(
        id=doc.get("id", f"agent{index}"),
        kind=kind,
        x=x, y=y,
        heading=_number(doc, "heading", path),
        speed=_number(doc, "speed", path, lo=0.0),
        length=_number(doc, "length", path, lo=0.05),
        width=_number(doc, "width", path, lo=0.05),
        mass=mass,
        lane=doc.get("lane"),
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
    lane_id = doc["lane"]
    if lane_id not in lanes:
        raise ScenarioError(f"{path}.lane: unknown lane {lane_id!r}")
    stop_s = _number(doc, "stop_line_s", path, lo=0.0, hi=lanes[lane_id].length)
    schedule = doc["schedule"]
    if not isinstance(schedule, list) or not schedule:
        raise ScenarioError(f"{path}.schedule: expected a non-empty list of [color, duration]")
    parsed = []
    for i, entry in enumerate(schedule):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ScenarioError(f"{path}.schedule[{i}]: expected [color, duration]")
        color, dur = entry
        if color not in LIGHT_COLORS:
            raise ScenarioError(f"{path}.schedule[{i}]: color must be one of {LIGHT_COLORS}")
        dur = float(dur)
        if dur <= 0:
            raise ScenarioError(f"{path}.schedule[{i}]: duration must be > 0")
        parsed.append((color, dur))
    if "position" in doc:
        x, y = _point(doc, "position", path)
    else:
        x, y = lanes[lane_id].centerline.point_at(stop_s)
    return TrafficLight(lane=lane_id, stop_line_s=stop_s, schedule=parsed, x=float(x), y=float(y))


def _load_crosswalk(doc: dict, path: str, lanes: dict) -> Crosswalk:
    _require(doc, path, allowed={"lanes", "span"}, required={"lanes", "span"})
    lane_ids = doc["lanes"]
    if not isinstance(lane_ids, list) or not lane_ids:
        raise ScenarioError(f"{path}.lanes: expected a non-empty list of lane ids")
    for lid in lane_ids:
        if lid not in lanes:
            raise ScenarioError(f"{path}.lanes: unknown lane {lid!r}")
    span = doc["span"]
    if not isinstance(span, (list, tuple)) or len(span) != 2:
        raise ScenarioError(f"{path}.span: expected [s_begin, s_end]")
    s0, s1 = float(span[0]), float(span[1])
    if not s0 < s1:
        raise ScenarioError(f"{path}.span: s_begin must be < s_end")
    for lid in lane_ids:
        if s1 > lanes[lid].length:
            raise ScenarioError(f"{path}.span: extends past lane {lid!r} (length {lanes[lid].length:.1f})")
    return Crosswalk(lanes=list(lane_ids), span=(s0, s1))


def load_scenario(source) -> Scenario:
    """Load a scenario from a file path or an already-parsed dict."""
    if isinstance(source, dict):
        doc = source
        name_default = "scenario"
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        import os
        name_default = os.path.splitext(os.path.basename(str(source)))[0]
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: top level must be an object")
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

    if not isinstance(doc["lanes"], list) or not doc["lanes"]:
        raise ScenarioError("scenario.lanes: expected a non-empty list")
    lanes: dict = {}
    for i, lane_doc in enumerate(doc["lanes"]):
        lane = _load_lane(lane_doc, f"lanes[{i}]")
        if lane.id in lanes:
            raise ScenarioError(f"lanes[{i}].id: duplicate lane id {lane.id!r}")
        lanes[lane.id] = lane
    for lid, lane in lanes.items():
        for key in ("left_neighbor", "right_neighbor"):
            ref = getattr(lane, key)
            if ref is not None and ref not in lanes:
                raise ScenarioError(f"lane {lid!r}.{key}: unknown lane {ref!r}")

    if not isinstance(doc["agents"], list) or not doc["agents"]:
        raise ScenarioError("scenario.agents: expected a non-empty list")
    agents = []
    seen_ids: set = set()
    for i, agent_doc in enumerate(doc["agents"]):
        agent = _load_agent(agent_doc, f"agents[{i}]", i)
        if agent.id in seen_ids:
            raise ScenarioError(f"agents[{i}].id: duplicate agent id {agent.id!r}")
        seen_ids.add(agent.id)
        if agent.lane is not None and agent.lane not in lanes:
            raise ScenarioError(f"agents[{i}].lane: unknown lane {agent.lane!r}")
        agents.append(agent)
    egos = [a for a in agents if a.kind == "ego"]
    if len(egos) != 1:
        raise ScenarioError(f"scenario.agents: expected exactly one ego, got {len(egos)}")
    if egos[0].lane is None:
        raise ScenarioError("scenario.agents: the ego must reference a lane")
    agents.sort(key=lambda a: a.kind != "ego")  # ego first, stable otherwise

    if doc.get("apriori_lane") not in lanes:
        raise ScenarioError(f"scenario.apriori_lane: unknown lane {doc.get('apriori_lane')!r}")

    lights = [
        _load_light(d, f"lights[{i}]", lanes)
        for i, d in enumerate(doc.get("lights", []))
    ]
    crosswalks = [
        _load_crosswalk(d, f"crosswalks[{i}]", lanes)
        for i, d in enumerate(doc.get("crosswalks", []))
    ]

    return Scenario(
        name=doc.get("name", name_default),
        duration_s=duration,
        profile=profile,
        apriori_lane=doc["apriori_lane"],
        lanes=lanes,
        agents=agents,
        lights=lights,
        crosswalks=crosswalks,
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
