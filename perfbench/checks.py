"""Checks of one drive's outputs, computed apart from the program.

Everything here works from the drive's artifacts (``log.csv`` text and the
``events.json`` list), the scenario document, and the poses captured at every
tick. Geometry, weights and light phases are recomputed with this module's
own code; nothing is imported from ``cormp``.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

RESOURCES = ("safety", "comfort", "objective", "apriori_lane", "energy", "crowdedness")

# Profile rankings as documented by the planner (1 = most important).
PROFILE_RANKS = {
    "regular": {"safety": 1, "comfort": 2, "objective": 3, "apriori_lane": 4,
                "energy": 5, "crowdedness": 6},
    "aggressive": {"objective": 1, "safety": 2, "comfort": 3, "apriori_lane": 4,
                   "energy": 5, "crowdedness": 6},
    "fuel_efficient": {"energy": 1, "safety": 2, "comfort": 3, "apriori_lane": 4,
                       "objective": 5, "crowdedness": 6},
}

PROFIT_TOL = 1e-9     # |V - sum(w * mu)|; both sides are sums of six doubles
SPEED_TOLERANCE = 0.5  # m/s above the lane limit


@dataclass
class Capture:
    """Poses of every agent at every tick, in tick order.

    ``poses`` has shape (ticks, agents, 3) holding x, y, heading; agent 0 is
    the ego. ``half`` has shape (agents, 2) holding half length, half width.
    """

    t: np.ndarray
    ids: list
    kinds: list
    half: np.ndarray
    poses: np.ndarray


def roc_weights(profile: str) -> dict:
    """Rank-order-centroid weights in closed form: w_k = (1/n) sum_{j>=k} 1/j."""
    ranks = PROFILE_RANKS[profile]
    n = len(ranks)
    tail = [0.0] * (n + 2)
    for j in range(n, 0, -1):
        tail[j] = tail[j + 1] + 1.0 / j
    return {res: tail[k] / n for res, k in ranks.items()}


def corners(x, y, h, hl, hw) -> np.ndarray:
    """Corners of oriented rectangles, shape (..., 4, 2)."""
    x, y, h = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float),
                                  np.asarray(h, float))
    c, s = np.cos(h), np.sin(h)
    out = np.empty(x.shape + (4, 2))
    for k, (a, b) in enumerate(((1, 1), (-1, 1), (-1, -1), (1, -1))):
        out[..., k, 0] = x + a * hl * c - b * hw * s
        out[..., k, 1] = y + a * hl * s + b * hw * c
    return out


def rects_overlap(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Whether corner sets overlap (touching counts), batched over leading axes.

    Separating-axis test on the edge directions of both polygons, done on
    projected corner extents.
    """
    hit = np.ones(ra.shape[:-2], dtype=bool)
    for poly in (ra, rb):
        for k in range(2):
            edge = poly[..., k + 1, :] - poly[..., k, :]
            axis = np.stack([-edge[..., 1], edge[..., 0]], axis=-1)[..., None, :]
            pa = np.sum(ra * axis, axis=-1)
            pb = np.sum(rb * axis, axis=-1)
            hit &= (pa.max(-1) >= pb.min(-1)) & (pb.max(-1) >= pa.min(-1))
    return hit


def project(points: np.ndarray, line: np.ndarray) -> tuple:
    """Arc position and signed lateral offset (left > 0) of points on a polyline."""
    p = np.asarray(points, float).reshape(-1, 2)
    a = line[:-1]
    d = line[1:] - a
    seg = np.hypot(d[:, 0], d[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    rel = p[:, None, :] - a[None, :, :]
    t = np.clip(np.sum(rel * d[None], axis=-1) / (seg * seg)[None], 0.0, 1.0)
    foot = a[None] + d[None] * t[..., None]
    r = p[:, None, :] - foot
    dist2 = np.sum(r * r, axis=-1)
    i = np.argmin(dist2, axis=1)
    rows = np.arange(len(p))
    s = cum[i] + t[rows, i] * seg[i]
    lat = (d[i, 0] * r[rows, i, 1] - d[i, 1] * r[rows, i, 0]) / seg[i]
    return s, lat


def point_on(line: np.ndarray, s: float) -> tuple:
    """Position and heading at arc length s (clamped) along a polyline."""
    d = np.diff(line, axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = min(max(s, 0.0), cum[-1])
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
    f = (s - cum[i]) / seg[i]
    return line[i] + f * d[i], math.atan2(d[i, 1], d[i, 0])


def light_color(schedule: list, t: float) -> str:
    cycle = sum(float(dur) for _, dur in schedule)
    phase = t % cycle
    for color, dur in schedule:
        if phase < float(dur):
            return color
        phase -= float(dur)
    return schedule[-1][0]


def parse_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _num(cell: str):
    return None if cell == "" else float(cell)


def check_profits(rows: list, decision_ticks: list, profile: str) -> list:
    """Chosen profit equals sum(w * mu), mu in [0, 1], chosen is the feasible max."""
    weights = roc_weights(profile)
    maneuvers = [c[2:] for c in rows[0] if c.startswith("V_")] if rows else []
    bad = []
    for k in decision_ticks:
        row = rows[k]
        chosen = row["maneuver"]
        mu = {r: _num(row[f"mu_{r}"]) for r in RESOURCES}
        if any(v is None or not 0.0 <= v <= 1.0 for v in mu.values()):
            bad.append(f"t={row['t']}: mu outside [0, 1]: {mu}")
            continue
        v_chosen = _num(row[f"V_{chosen}"])
        if v_chosen is None or row[f"feasible_{chosen}"] != "1":
            bad.append(f"t={row['t']}: chosen {chosen} has no feasible profit")
            continue
        expect = sum(weights[r] * mu[r] for r in RESOURCES)
        if abs(v_chosen - expect) > PROFIT_TOL:
            bad.append(f"t={row['t']}: V_{chosen}={v_chosen!r} but sum(w*mu)={expect!r}")
        for m in maneuvers:
            v = _num(row[f"V_{m}"])
            if row[f"feasible_{m}"] == "1" and v is not None and v > v_chosen + PROFIT_TOL:
                bad.append(f"t={row['t']}: feasible {m} has V={v!r} above chosen {v_chosen!r}")
    return bad


def check_contacts(cap: Capture) -> list:
    """The ego footprint overlaps no other agent's at any tick."""
    if len(cap.ids) < 2:
        return []
    ego = corners(cap.poses[:, 0, 0], cap.poses[:, 0, 1], cap.poses[:, 0, 2],
                  cap.half[0, 0], cap.half[0, 1])
    bad = []
    for a in range(1, len(cap.ids)):
        other = corners(cap.poses[:, a, 0], cap.poses[:, a, 1], cap.poses[:, a, 2],
                        cap.half[a, 0], cap.half[a, 1])
        hits = np.nonzero(rects_overlap(ego, other))[0]
        if len(hits):
            bad.append(f"t={cap.t[hits[0]]:.1f}: ego overlaps {cap.ids[a]} "
                       f"on {len(hits)} ticks")
    return bad


def check_speed(rows: list, doc: dict) -> list:
    limits = {lane["id"]: float(lane["speed_limit"]) for lane in doc["lanes"]}
    for row in rows:
        if float(row["ego_speed"]) > limits[row["ego_lane"]] + SPEED_TOLERANCE:
            return [f"t={row['t']}: speed {row['ego_speed']} over the "
                    f"{row['ego_lane']} limit {limits[row['ego_lane']]}"]
    return []


def _lanes(doc: dict) -> dict:
    return {lane["id"]: (np.asarray(lane["centerline"], float), float(lane["width"]))
            for lane in doc["lanes"]}


def check_red_lights(rows: list, doc: dict, ego_half_length: float) -> list:
    """The ego front never passes a stop line while its light shows red."""
    lanes = _lanes(doc)
    xy = np.array([[float(r["ego_x"]), float(r["ego_y"])] for r in rows])
    ts = [float(r["t"]) for r in rows]
    bad = []
    for light in doc.get("lights", []):
        line, width = lanes[light["lane"]]
        s, lat = project(xy, line)
        front = s + ego_half_length
        stop = float(light["stop_line_s"])
        for k in range(1, len(rows)):
            on_lane = abs(lat[k]) <= width and abs(lat[k - 1]) <= width
            if (on_lane and front[k - 1] < stop <= front[k]
                    and light_color(light["schedule"], ts[k]) == "red"):
                bad.append(f"t={ts[k]:.1f}: ego front passes the red stop line "
                           f"of lane {light['lane']}")
    return bad


def check_crosswalks(doc: dict, cap: Capture) -> list:
    """The ego front never enters a crosswalk span a pedestrian is on."""
    lanes = _lanes(doc)
    xy = cap.poses[:, 0, :2]
    peds = [a for a, kind in enumerate(cap.kinds) if kind == "pedestrian"]
    bad = []
    for cw in doc.get("crosswalks", []):
        s0, s1 = float(cw["span"][0]), float(cw["span"][1])
        for lane_id in cw["lanes"]:
            line, width = lanes[lane_id]
            (cx, cy), heading = point_on(line, 0.5 * (s0 + s1))
            area = corners(cx, cy, heading, 0.5 * (s1 - s0), 0.5 * width)
            occupied = np.zeros(len(cap.t), dtype=bool)
            for a in peds:
                feet = corners(cap.poses[:, a, 0], cap.poses[:, a, 1], cap.poses[:, a, 2],
                               cap.half[a, 0], cap.half[a, 1])
                occupied |= rects_overlap(np.broadcast_to(area, feet.shape), feet)
            s, lat = project(xy, line)
            front = s + cap.half[0, 0]
            for k in range(1, len(cap.t)):
                if (occupied[k] and abs(lat[k]) <= width
                        and front[k - 1] < s0 <= front[k]):
                    bad.append(f"t={cap.t[k]:.1f}: ego enters the occupied crosswalk "
                               f"on lane {lane_id}")
    return bad


def check_events(events: list) -> list:
    return [f"t={e['t']}: {e['type']} {e.get('rule', e.get('agent', ''))}".rstrip()
            for e in events if e["type"] in ("collision", "rule_violation")]


def check_drive(csv_text: str, events: list, doc: dict, cap: Capture,
                decision_ticks: list) -> list:
    """Every failed check of one drive, as readable lines (empty when clean)."""
    rows = parse_csv(csv_text)
    if len(rows) != len(cap.t):
        return [f"log has {len(rows)} rows but {len(cap.t)} ticks were captured"]
    profile = doc.get("profile", "regular")
    return (check_events(events)
            + check_profits(rows, decision_ticks, profile)
            + check_contacts(cap)
            + check_speed(rows, doc)
            + check_red_lights(rows, doc, cap.half[0, 0])
            + check_crosswalks(doc, cap))
