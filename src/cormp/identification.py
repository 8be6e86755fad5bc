"""Maneuver identification: candidate generation, prediction, feasibility.

Six discrete maneuvers are turned into tick-sampled trajectory candidates from
the ego's current state, each along a path whose vertices `lane_path` gives:
a cubic Bezier from the current pose onto a lane centerline, then the
centerline itself. A plan projects the ego once onto each lane it considers,
builds all its paths with one `Polyline.stack` call and samples every
candidate, lane-change probe and stretched variant in one
`sample_trajectory` call, whose `CandidateBlock` is the plan's block: each
candidate records its row, and every later measure takes rows of it. Other
road users get constant-velocity predictions on the same tick grid, along
their centerline or a straight line, stacked into one `PredictionBlock` per
plan, so that every pairwise measure is one broadcast over both blocks, and
their corridors are crossed with the plan's rows at most once per plan
(`PlanContext.corridor_hits`). The feasibility filter removes candidates that
risk collision (footprint time-to-collision below the threshold) or break
traffic rules (speeding, solid boundaries, red lights, occupied crosswalks);
if everything is filtered out, Stop is retained as the fallback.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .bezier import CandidateBlock, SpeedProfile, TimedTrajectory, chord_points, sample_trajectory
from .config import PlannerConfig
from .kernels import REACH_MARGIN, pose_gaps
from .scenario import AgentState, Crosswalk, Lane, Polyline, Scenario


class Maneuver(Enum):
    CHANGE_LANE_LEFT = "change_lane_left"
    CHANGE_LANE_RIGHT = "change_lane_right"
    KEEP_LANE_ACCELERATE = "keep_lane_accelerate"
    KEEP_LANE_SAME_SPEED = "keep_lane_same_speed"
    KEEP_LANE_DECELERATE = "keep_lane_decelerate"
    STOP = "stop"
    __hash__ = object.__hash__   # identity, as `==` is; Enum's own runs in Python


LANE_CHANGES = (Maneuver.CHANGE_LANE_LEFT, Maneuver.CHANGE_LANE_RIGHT)

# reject reasons
NO_LANE = "no_lane"
RULE_VIOLATION = "rule_violation"
COLLISION_RISK = "collision_risk"


class PredictionBlock:
    """The predictions of one plan, stacked: row k is `agents[k]`.

    x, y, heading and speed are (K, T) arrays on the tick grid, filled from
    `predictions[k]`, an (x, y, heading, speed) tuple of `steps`-sample
    arrays or scalars that hold over the row (T = horizon_steps + 1 in a
    plan). A trajectory sample past T is compared with row sample T-1: road
    users persist beyond the horizon.
    """

    def __init__(self, agents: list, predictions: list, steps: int) -> None:
        rows = np.empty((4, len(agents), steps))
        for k, prediction in enumerate(predictions):
            for row, values in zip(rows[:, k], prediction):
                row[:] = values
        self.x, self.y, self.heading, self.speed = rows
        self.ids = [a.id for a in agents]
        self.half_length = np.array([a.length for a in agents], dtype=np.float64) / 2.0
        self.half_width = np.array([a.width for a in agents], dtype=np.float64) / 2.0
        self.pedestrian = np.array([a.kind == "pedestrian" for a in agents], dtype=bool)
        self.vehicle_like = np.array([a.kind in ("vehicle", "obstacle") for a in agents],
                                     dtype=bool)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def steps(self) -> int:
        return self.x.shape[1]

    def corridor_hits(self, cands: CandidateBlock, ego_length: float, ego_width: float,
                      cfg: PlannerConfig) -> np.ndarray:
        """(C, K) bool: rows whose corridor crosses each candidate's corridor.

        Both are subsampled every `crowd_sample_stride_s` and compared
        spatially, every sample of one against every sample of the other;
        a candidate's padding takes no part. Only sample pairs whose centers
        lie within the two circumradii plus `REACH_MARGIN` can overlap
        (see `kernels`), so only those are gathered for the SAT test. The
        verdict of each (candidate, row) pair is its own: stacking more
        candidates changes none.
        """
        if len(self) == 0:
            return np.zeros((len(cands), 0), dtype=bool)
        st = max(1, int(round(cfg.crowd_sample_stride_s / cfg.dt)))
        ax, ay, ah = cands.x[:, ::st], cands.y[:, ::st], cands.heading[:, ::st]
        bx, by, bh = self.x[:, ::st], self.y[:, ::st], self.heading[:, ::st]
        reach = (math.hypot(ego_length / 2.0, ego_width / 2.0) + REACH_MARGIN
                 + np.hypot(self.half_length, self.half_width))
        dx = bx[None, :, None, :] - ax[:, None, :, None]
        dy = by[None, :, None, :] - ay[:, None, :, None]
        near = dx * dx + dy * dy <= (reach * reach)[None, :, None, None]
        c, k, i, j = np.nonzero(near & cands.valid[:, None, ::st, None])
        gaps = pose_gaps(ax[c, i], ay[c, i], ah[c, i], ego_length / 2.0, ego_width / 2.0,
                         bx[k, j], by[k, j], bh[k, j], self.half_length[k], self.half_width[k])
        hits = np.zeros((len(cands), len(self)), dtype=bool)
        overlap = gaps <= 0.0
        hits[c[overlap], k[overlap]] = True
        return hits


@dataclass
class ManeuverCandidate:
    maneuver: Maneuver
    trajectory: TimedTrajectory
    target_lane: str | None
    feasible: bool = True
    reason: str | None = None
    fallback: bool = False
    min_ttc: float = math.inf
    stretched: bool = False
    block: CandidateBlock | None = None   # the plan's sampled rows; `trajectory` is row `row`
    row: int | None = None


@dataclass
class PlanContext:
    """Everything one planning call needs, snapshotted."""

    scenario: Scenario
    config: PlannerConfig
    ego: AgentState
    sim_time: float
    predictions: PredictionBlock
    _corridor: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def lane(self) -> Lane:
        return self.scenario.lanes[self.ego.lane]

    def corridor_hits(self, cands: CandidateBlock) -> np.ndarray:
        """(C, K) `PredictionBlock.corridor_hits` of the ego along `cands`.

        Kept for the last block asked about, so the lane-change lead probe
        and crowdedness read rows of one pass over the plan's block.
        """
        if self._corridor is None or self._corridor[0] is not cands:
            ego = self.ego
            self._corridor = cands, self.predictions.corridor_hits(cands, ego.length, ego.width,
                                                                   self.config)
        return self._corridor[1]

    @cached_property
    def ego_s(self) -> float:
        """The ego's arc position on its own lane, projected once per plan."""
        return self.lane.centerline.project((self.ego.x, self.ego.y))[0]


def interacting_agents(scenario: Scenario, ego: AgentState, config: PlannerConfig) -> list:
    """Non-ego agents within the interaction radius of the ego."""
    out = []
    for agent in scenario.agents:
        if agent.id == ego.id:
            continue
        d = math.hypot(agent.x - ego.x, agent.y - ego.y)
        if d <= config.interaction_radius_m:
            out.append(agent)
    return out


def predict_oru(agent: AgentState, scenario: Scenario, config: PlannerConfig) -> tuple:
    """Constant-velocity prediction on the tick grid: (x, y, heading, speed).

    Each is horizon_steps + 1 samples, or a scalar that holds over them. A
    lane-bound vehicle moves along its lane centerline from its projected
    arc position, on past either lane end along the end segment, as the
    simulator moves it. Every other road user extrapolates straight along
    its current heading. A standing agent rests where it is.
    """
    if agent.speed <= 1e-9:
        return agent.x, agent.y, agent.heading, 0.0
    n = config.horizon_steps + 1
    # arc length accumulates tick by tick, as the simulator steps it
    s = np.concatenate([[0.0], np.cumsum(np.full(n - 1, agent.speed * config.dt))])
    lane = scenario.lanes.get(agent.lane) if agent.kind in ("vehicle", "ego") else None
    if lane is not None:
        line = lane.centerline
        x, y, heading, _ = line.frames(line.project((agent.x, agent.y))[0] + s)
        return x, y, heading, agent.speed
    return (agent.x + math.cos(agent.heading) * s, agent.y + math.sin(agent.heading) * s,
            agent.heading, agent.speed)


def lane_path(lane: Lane, s0: float, x: float, y: float, heading: float,
              blend: float, span: float) -> np.ndarray:
    """(n, 2) vertices of the planned path from the pose (x, y, heading) onto
    `lane` and along its centerline, for `Polyline` or `Polyline.stack`.

    `s0` is the pose's arc position on the lane, as `project` gives it. A
    cubic Bezier with tangent handles of blend/3 (blend > 0) at both ends
    joins the pose to the centerline `blend` m ahead of s0; the path then
    follows the centerline's own vertices until `span` (>= blend) m ahead,
    extending the end segments past either lane end.
    """
    line = lane.centerline
    s_join = s0 + blend
    s_end = s0 + span
    x3, y3 = line.point_at(s_join)
    h3 = line.heading_at(s_join)
    handle = blend / 3.0
    ctrl = ((x, y), (x + math.cos(heading) * handle, y + math.sin(heading) * handle),
            (x3 - math.cos(h3) * handle, y3 - math.sin(h3) * handle), (x3, y3))
    if span <= blend:
        return chord_points(ctrl)
    # vertices within 1e-6 m of the join or the end would make a degenerate segment
    inner = line.vertices_between(s_join + 1e-6, s_end - 1e-6)
    points = chord_points(ctrl, extra=len(inner) + 1)
    points[-len(inner) - 1:-1] = inner
    points[-1] = line.point_at(s_end)
    return points


def _stop_constraint_distance(ctx: PlanContext) -> float | None:
    """Distance from the ego front bumper to the nearest active stop target."""
    cfg = ctx.config
    ego = ctx.ego
    lane = ctx.lane
    front = ctx.ego_s + ego.length / 2.0
    targets = []
    for light in ctx.scenario.lights:
        if light.lane != ego.lane:
            continue
        if light.stop_line_s <= front:
            continue
        if light.color_at(ctx.sim_time) == "red":
            targets.append(light.stop_line_s - cfg.stop_line_margin_m)
    for cw in ctx.scenario.crosswalks:
        if ego.lane not in cw.lanes or cw.span[0] <= front:
            continue
        if _crosswalk_occupied(ctx, cw, 0):
            targets.append(cw.span[0] - cfg.stop_line_margin_m)
    block = ctx.predictions
    # moving traffic is handled by TTC, not a fixed stop target
    still = block.vehicle_like & (block.speed[:, 0] <= 0.5)
    if still.any():
        s_obj, lateral = lane.centerline.project(
            np.column_stack([block.x[still, 0], block.y[still, 0]]))
        ahead = (s_obj > front) & (np.abs(lateral) <= lane.width / 2.0)
        stop_s = s_obj - block.half_length[still] - cfg.stop_line_margin_m
        targets.extend(stop_s[ahead].tolist())
    if not targets:
        return None
    return min(targets) - front


def _stop_decel(ctx: PlanContext) -> float:
    """Stop's braking rate: what reaches the nearest stop target, else the default."""
    cfg = ctx.config
    v = ctx.ego.speed
    d = _stop_constraint_distance(ctx)
    if d is None:
        return cfg.stop_decel_default
    if d <= 0.01 or v <= 1e-9:
        return cfg.stop_decel_max
    return min(max(v * v / (2.0 * d), 0.1), cfg.stop_decel_max)


def enumerate_candidates(ctx: PlanContext, maneuvers=LANE_CHANGES,
                         accels: dict | None = None) -> list:
    """The lane changes `maneuvers`, then one keep-lane candidate per maneuver -> acceleration.

    By default all six, in Maneuver enum order, Stop braking at `_stop_decel`.
    Every path is built by one `Polyline.stack` call and every trajectory is a
    row of one `sample_trajectory` call, whose block each candidate records
    with its row. Keep-lane candidates share a path back onto the ego's lane,
    capped at its limit. A lane change, a cubic onto the neighbour lane over
    the lane-change duration and then its centerline, is sampled over the
    longer of that duration and the planning horizon. With a vehicle ahead of
    the ego on its lane (first sample ahead in arc length), a constant-speed
    probe along it (the lane change's own row where profile and horizon
    agree) and a stretched path are sampled too; the stretched one is taken
    where such a vehicle is predicted inside the probe's corridor, read from
    the plan's one corridor pass. Without a neighbour lane the maneuver is an
    infeasible placeholder, one sample at the ego pose, with no row.
    """
    cfg, ego, lane, block = ctx.config, ctx.ego, ctx.lane, ctx.predictions
    if accels is None:
        accels = {
            Maneuver.KEEP_LANE_ACCELERATE: cfg.accel_keep_lane,
            Maneuver.KEEP_LANE_SAME_SPEED: 0.0,
            Maneuver.KEEP_LANE_DECELERATE: -cfg.decel_keep_lane,
            Maneuver.STOP: -_stop_decel(ctx),
        }
    targets = {m: lane.left_neighbor if m is Maneuver.CHANGE_LANE_LEFT else lane.right_neighbor
               for m in maneuvers}
    leads = None
    if any(targets.values()) and block.vehicle_like.any():
        s_obj, _ = lane.centerline.project(np.column_stack([block.x[:, 0], block.y[:, 0]]))
        leads = block.vehicle_like & (s_obj > ctx.ego_s)
    lead = leads is not None and bool(leads.any())
    duration = cfg.lane_change_duration_s
    horizon = max(duration, cfg.planning_horizon_s)
    v = max(ego.speed, 1.0)
    blend = v * duration
    wide = blend * cfg.lane_change_stretch
    tail = v * (horizon - duration) + 5.0
    paths, rows = [], []   # vertex arrays; (path index, profile, horizon)
    sides = {}   # maneuver -> [target lane, nominal row, probe row, stretched row]
    for m, target_id in targets.items():
        if target_id is None:
            continue
        target = ctx.scenario.lanes[target_id]
        cap = min(lane.speed_limit, target.speed_limit)
        s0 = target.centerline.project((ego.x, ego.y))[0]
        profile = SpeedProfile(ego.speed, 0.0, cap)
        sides[m] = at = [target_id, len(rows), len(rows), None]
        rows.append((len(paths), profile, horizon))
        paths.append(lane_path(target, s0, ego.x, ego.y, ego.heading, blend, blend + tail))
        if lead:
            if not (1.0 <= ego.speed <= cap and duration >= cfg.planning_horizon_s):
                at[2] = len(rows)
                rows.append((len(paths) - 1, SpeedProfile(v, 0.0), duration))
            at[3] = len(rows)
            rows.append((len(paths), profile, horizon))
            paths.append(lane_path(target, s0, ego.x, ego.y, ego.heading, wide, wide + tail))
    if accels:
        span = max(lane.speed_limit, ego.speed) * cfg.planning_horizon_s + 5.0
        rows += [(len(paths), SpeedProfile(ego.speed, a, lane.speed_limit),
                  cfg.planning_horizon_s) for a in accels.values()]
        paths.append(lane_path(lane, ctx.ego_s, ego.x, ego.y, ego.heading, span, span))
    lines = Polyline.stack(paths) if paths else []
    sampled = sample_trajectory([(lines[k], p, h) for k, p, h in rows], cfg.dt) if rows else None
    stretched = dict.fromkeys(sides, False)
    if lead:
        hits = ctx.corridor_hits(sampled)[:, leads]
        stretched = {m: bool(hits[probe].any()) for m, (_, _, probe, _) in sides.items()}
    out = []
    for m in maneuvers:
        if m not in sides:
            rest = TimedTrajectory.stationary(ego.x, ego.y, ego.heading, cfg.dt, 1)
            out.append(ManeuverCandidate(m, rest, None, feasible=False, reason=NO_LANE))
            continue
        target_id, nominal, _, stretched_row = sides[m]
        r = stretched_row if stretched[m] else nominal
        out.append(ManeuverCandidate(m, sampled[r], target_id, stretched=stretched[m],
                                     block=sampled, row=r))
    return out + [ManeuverCandidate(m, sampled[r], ego.lane, block=sampled, row=r)
                  for r, m in enumerate(accels, len(rows) - len(accels))]


def time_to_collision(cands: CandidateBlock, block: PredictionBlock,
                      ego_length: float, ego_width: float) -> np.ndarray:
    """(C,) footprint time-to-collision of each candidate with any predicted road user.

    Scans a candidate's first min(len, T) samples, aligned with every row's,
    for the first oriented-rectangle overlap and refines linearly on the
    separating-axis gap inside that tick (the gap is positive before it and
    <= 0 at it). +inf where no footprints overlap.
    """
    if len(block) == 0:
        return np.full(len(cands), math.inf)
    n = min(cands.x.shape[1], block.steps)
    gaps = pose_gaps(
        cands.x[:, None, :n], cands.y[:, None, :n], cands.heading[:, None, :n],
        ego_length / 2.0, ego_width / 2.0,
        block.x[None, :, :n], block.y[None, :, :n], block.heading[None, :, :n],
        block.half_length[None, :, None], block.half_width[None, :, None],
    )
    gaps = np.where(cands.valid[:, None, :n], gaps, np.inf)
    overlap = np.min(gaps, axis=1) <= 0.0
    ttc = np.where(overlap[:, 0], 0.0, math.inf)
    rows = np.nonzero(overlap.any(axis=1) & ~overlap[:, 0])[0]
    i = np.argmax(overlap[rows], axis=1)
    # each road user overlapping first at tick i collides in (t[i-1], t[i]]:
    # those that overlap only later cannot collide sooner
    g0 = gaps[rows, :, i - 1]
    g1 = gaps[rows, :, i]
    frac = np.divide(g0, g0 - g1, out=np.full_like(g0, np.inf), where=g1 <= 0.0)
    ttc[rows] = cands.t[rows, i - 1] + np.min(frac, axis=1) * cands.dt
    return ttc


def _front_s(traj: TimedTrajectory, lane: Lane, ego_length: float) -> np.ndarray:
    """Arc position of the ego front bumper on `lane` at every sample."""
    s, _ = lane.centerline.project(np.column_stack([traj.x, traj.y]))
    return s + ego_length / 2.0


def _crosswalk_occupied(ctx: PlanContext, cw: Crosswalk, sample_idx: int) -> bool:
    """Any pedestrian footprint predicted on the crosswalk area at this tick."""
    block = ctx.predictions
    ped = block.pedestrian
    if not ped.any():
        return False
    j = min(sample_idx, block.steps - 1)
    mid = 0.5 * (cw.span[0] + cw.span[1])
    for lane_id in cw.lanes:
        lane = ctx.scenario.lanes[lane_id]
        cx, cy = lane.centerline.point_at(mid)
        gaps = pose_gaps(
            cx, cy, lane.centerline.heading_at(mid), (cw.span[1] - cw.span[0]) / 2.0,
            lane.width / 2.0, block.x[ped, j], block.y[ped, j], block.heading[ped, j],
            block.half_length[ped], block.half_width[ped],
        )
        if np.any(gaps <= 0.0):
            return True
    return False


def _check_red_lights(ctx: PlanContext, cand: ManeuverCandidate, lanes: set) -> bool:
    """True if the candidate violates a red light (crossing or hold zone) on `lanes`."""
    cfg = ctx.config
    ego = ctx.ego
    for light in ctx.scenario.lights:
        if light.lane not in lanes:
            continue
        lane = ctx.scenario.lanes[light.lane]
        s_front = _front_s(cand.trajectory, lane, ego.length)
        if s_front[0] >= light.stop_line_s:
            continue  # already past this light
        red_now = light.color_at(ctx.sim_time) == "red"
        cross = np.nonzero(s_front >= light.stop_line_s)[0]
        if len(cross):
            t_cross = float(cand.trajectory.t[int(cross[0])])
            if red_now or light.color_at(ctx.sim_time + t_cross) == "red":
                return True
        # gate entry a bit outside the hold window so tracking fuzz cannot
        # park the bumper right on its boundary
        hold_line = light.stop_line_s - cfg.red_light_hold_m - cfg.hold_buffer_m
        hold = np.nonzero(s_front >= hold_line)[0]
        if len(hold) and s_front[0] < hold_line:
            t_enter = float(cand.trajectory.t[int(hold[0])])
            if red_now or light.color_at(ctx.sim_time + t_enter) == "red":
                return True
    return False


def _check_crosswalks(ctx: PlanContext, cand: ManeuverCandidate, lanes: set) -> bool:
    """True if the candidate enters an occupied crosswalk span on `lanes`."""
    cfg = ctx.config
    ego = ctx.ego
    for cw in ctx.scenario.crosswalks:
        if not lanes.intersection(cw.lanes):
            continue
        lane = ctx.scenario.lanes[ego.lane if ego.lane in cw.lanes else cand.target_lane]
        s_front = _front_s(cand.trajectory, lane, ego.length)
        if s_front[0] >= cw.span[1]:
            continue  # already past
        enter = np.nonzero(s_front >= cw.span[0] - cfg.crosswalk_hold_m)[0]
        if not len(enter):
            continue
        if s_front[0] >= cw.span[0] - cfg.crosswalk_hold_m and cand.trajectory.speed[0] <= 1e-9:
            continue  # parked at the hold line is not an entry
        idx = int(enter[0])
        if _crosswalk_occupied(ctx, cw, 0) or _crosswalk_occupied(ctx, cw, idx):
            return True
    return False


def feasibility_filter(ctx: PlanContext, candidates: list) -> list:
    """Mark candidates infeasible for rule or collision reasons (in place).

    Time-to-collision is one call over the rows of the plan's block that
    the candidates ruled in by the traffic rules record. Guarantees at least
    one feasible candidate by retaining Stop as a fallback when everything
    else is rejected.
    """
    cfg = ctx.config
    ego = ctx.ego
    eps = cfg.rule_speed_epsilon
    solid = {Maneuver.CHANGE_LANE_LEFT: ctx.lane.left_boundary == "solid",
             Maneuver.CHANGE_LANE_RIGHT: ctx.lane.right_boundary == "solid"}
    for cand in candidates:
        lanes = {ego.lane, cand.target_lane}
        if cand.feasible and (
                cand.trajectory.end_speed > ctx.scenario.lanes[cand.target_lane].speed_limit + eps
                or (cand.maneuver is Maneuver.KEEP_LANE_ACCELERATE
                    and ego.speed >= ctx.lane.speed_limit - eps)
                or solid.get(cand.maneuver, False)
                or _check_red_lights(ctx, cand, lanes) or _check_crosswalks(ctx, cand, lanes)):
            cand.feasible = False
            cand.reason = RULE_VIOLATION
    ruled_in = [c for c in candidates if c.feasible]
    if ruled_in:
        rows = ruled_in[0].block.take([c.row for c in ruled_in])
        ttc = time_to_collision(rows, ctx.predictions, ego.length, ego.width)
        for cand, min_ttc in zip(ruled_in, ttc.tolist()):
            cand.min_ttc = min_ttc
            if min_ttc < cfg.ttc_min_s:
                cand.feasible = False
                cand.reason = COLLISION_RISK

    if not any(c.feasible for c in candidates):
        for cand in candidates:
            if cand.maneuver is Maneuver.STOP:
                cand.feasible = True
                cand.fallback = True
    return candidates
