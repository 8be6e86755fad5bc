"""Maneuver identification: candidate generation, prediction, feasibility.

Six discrete maneuvers are turned into tick-sampled trajectory candidates from
the ego's current state, each along the `LanePath` that `lane_path` gives: a
lateral offset from a lane centerline, a cubic Bezier in its arc length from
the ego's pose onto the centerline, then the centerline itself. A plan
projects the ego once onto each lane it considers and samples every
candidate and stretched lane change in one `sample_trajectory` call, whose
`CandidateBlock` is the plan's block: each candidate records its row, and
every later measure takes rows of it. Other road users get constant-velocity
predictions on the same tick grid, along their centerline or a straight
line, stacked into one `PredictionBlock` per plan, so that every pairwise
measure is one broadcast over both blocks, and their corridors are crossed
with the plan's rows at most once per plan (`PlanContext.corridor_hits`).
The feasibility filter returns the plan's rule matrix: one row per
candidate, one column per rule in `RULES` (no lane, speeding, accelerating
at the limit, a solid boundary, a red light, an occupied crosswalk,
footprint time-to-collision below the threshold), each column one array
expression over the candidates' rows. A candidate is feasible where no
column is set; if none is, Stop is retained as the fallback.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property, lru_cache

import numpy as np

from .bezier import CandidateBlock, LanePath, SpeedProfile, sample_trajectory
from .config import PlannerConfig
from .kernels import pose_gaps, reach2
from .scenario import AgentState, Lane, Scenario


class Maneuver(Enum):
    CHANGE_LANE_LEFT = "change_lane_left"
    CHANGE_LANE_RIGHT = "change_lane_right"
    KEEP_LANE_ACCELERATE = "keep_lane_accelerate"
    KEEP_LANE_SAME_SPEED = "keep_lane_same_speed"
    KEEP_LANE_DECELERATE = "keep_lane_decelerate"
    STOP = "stop"
    __hash__ = object.__hash__   # identity, as `==` is; Enum's own runs in Python


LANE_CHANGES = (Maneuver.CHANGE_LANE_LEFT, Maneuver.CHANGE_LANE_RIGHT)

# the columns of `feasibility_filter`'s rule matrix; `no_lane` marks a candidate
# without a row (a lane change without a neighbour lane, or below 1 m/s)
RULES = ("no_lane", "speed", "accelerate_at_limit", "solid_line", "red_light", "crosswalk",
         "ttc")


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
        self._rows = rows
        self.x, self.y, self.heading, self.speed = rows
        self.ids = [a.id for a in agents]
        self._half = np.array([[a.length for a in agents], [a.width for a in agents]]) / 2.0
        self.half_length, self.half_width = self._half   # (2, K)
        self._reach = (None, None)   # the last ego box asked, and its reach2
        self.pedestrian = np.array([a.kind == "pedestrian" for a in agents], dtype=bool)
        self.vehicle_like = np.array([a.kind in ("vehicle", "obstacle") for a in agents],
                                     dtype=bool)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def steps(self) -> int:
        return self.x.shape[1]

    def reach2(self, ego_half_length: float, ego_half_width: float) -> np.ndarray:
        """(K,) `kernels.reach2` of the ego box with each row's, kept for the last box asked."""
        box = (ego_half_length, ego_half_width)
        if self._reach[0] != box:
            self._reach = box, reach2(*box, *self._half)
        return self._reach[1]

    def corridor_hits(self, cands: CandidateBlock, ego_length: float, ego_width: float,
                      cfg: PlannerConfig) -> np.ndarray:
        """(C, K) bool: rows whose corridor crosses each candidate's corridor.

        Both are subsampled every `crowd_sample_stride_s` and compared
        spatially, every sample of one against every sample of the other;
        a candidate's padding takes no part. Only sample pairs whose centers
        lie within reach (`kernels.reach2`) can overlap, so only those are
        gathered for the SAT test. The verdict of each (candidate, row) pair
        is its own: stacking more candidates changes none.
        """
        if len(self) == 0:
            return np.zeros((len(cands), 0), dtype=bool)
        st = max(1, int(round(cfg.crowd_sample_stride_s / cfg.dt)))
        a, b = cands._rows[1:4, :, ::st], self._rows[:3, :, ::st]   # x, y, heading
        dx = b[0][None, :, None, :] - a[0][:, None, :, None]
        dy = b[1][None, :, None, :] - a[1][:, None, :, None]
        near = dx * dx + dy * dy <= self.reach2(ego_length / 2.0,
                                                ego_width / 2.0)[None, :, None, None]
        c, k, i, j = np.nonzero(near & cands.valid[:, None, ::st, None])
        a, b, half = a[:, c, i], b[:, k, j], self._half.take(k, axis=1)
        gaps = pose_gaps(a[0], a[1], a[2], ego_length / 2.0, ego_width / 2.0,
                         b[0], b[1], b[2], half[0], half[1])
        hits = np.zeros((len(cands), len(self)), dtype=bool)
        overlap = gaps <= 0.0
        hits[c[overlap], k[overlap]] = True
        return hits


@dataclass
class ManeuverCandidate:
    maneuver: Maneuver
    target_lane: str | None
    row: int | None = None        # its trajectory's row of the plan's block; None without a lane
    stretched: bool = False
    feasible: bool = True
    join: float | None = None     # where a lane change's path meets its target's centerline, in s


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

        Kept for the last block asked about, so the lane changes' stretch
        verdicts and crowdedness read rows of one pass over the plan's block.
        """
        if self._corridor is None or self._corridor[0] is not cands:
            ego = self.ego
            self._corridor = cands, self.predictions.corridor_hits(cands, ego.length, ego.width,
                                                                   self.config)
        return self._corridor[1]

    @cached_property
    def ego_position(self) -> tuple:
        """The ego's arc position s and lateral offset on its own lane,
        projected once per plan."""
        return self.lane.centerline.project((self.ego.x, self.ego.y))

    @cached_property
    def lane_positions(self) -> tuple:
        """(K,) s and lateral of each road user's first predicted sample on
        the ego's lane, projected once per plan."""
        block = self.predictions
        return self.lane.centerline.project(np.column_stack([block.x[:, 0], block.y[:, 0]]))

    @cached_property
    def crosswalk_occupancy(self) -> list:
        """Per crosswalk, (T,) bool: a pedestrian footprint is predicted on
        its area, on any of its lanes, at each tick. One broadcast each."""
        block, ped = self.predictions, self.predictions.pedestrian
        out = []
        for cw in self.scenario.crosswalks:
            mid = 0.5 * (cw.span[0] + cw.span[1])
            rects = [(*lane.centerline.pose_at(mid), lane.width / 2.0)
                     for lane in map(self.scenario.lanes.get, cw.lanes)]
            cx, cy, heading, half_width = np.array(rects).T[:, :, None, None]
            gaps = pose_gaps(cx, cy, heading, (cw.span[1] - cw.span[0]) / 2.0, half_width,
                             block.x[ped], block.y[ped], block.heading[ped],
                             block.half_length[ped, None], block.half_width[ped, None])
            out.append(np.any(gaps <= 0.0, axis=(0, 1)))   # (L, P, T) -> (T,)
        return out


def interacting_agents(scenario: Scenario, ego: AgentState, config: PlannerConfig) -> list:
    """Non-ego agents within the interaction radius of the ego."""
    return [a for a in scenario.agents if a.id != ego.id
            and math.hypot(a.x - ego.x, a.y - ego.y) <= config.interaction_radius_m]


@lru_cache(maxsize=64)
def _travel(step: float, n: int) -> np.ndarray:
    """Read-only (n,) distances 0, step, 2 step, ... covered by n ticks at a
    constant speed, summed tick by tick as the simulator steps a road user."""
    s = np.concatenate([[0.0], np.cumsum(np.full(n - 1, step))])
    s.flags.writeable = False
    return s


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
    s = _travel(agent.speed * config.dt, config.horizon_steps + 1)
    lane = scenario.lanes.get(agent.lane) if agent.kind in ("vehicle", "ego") else None
    if lane is not None:
        line = lane.centerline
        return (*line.frames(line.project((agent.x, agent.y))[0] + s), agent.speed)
    return (agent.x + math.cos(agent.heading) * s, agent.y + math.sin(agent.heading) * s,
            agent.heading, agent.speed)


def lane_path(lane: Lane, s0: float, d0: float, heading: float, blend: float) -> LanePath:
    """The planned path from a pose at arc position s0 and lateral offset d0
    on `lane` (as `project` gives them), heading `heading`, along the lane and
    past either end along its end segment: its offset meets the centerline
    `blend` (> 0) m ahead of s0 (see `LanePath`).

    The start slope is the tangent of the heading's offset from the lane
    segment at s0, wrapped to (-pi, pi] and clamped to +-pi/4, so that every
    heading gives a finite path.
    """
    turn = math.pi - (math.pi - heading + lane.centerline.pose_at(s0)[2]) % math.tau
    slope = math.tan(min(max(turn, -math.pi / 4.0), math.pi / 4.0))
    return LanePath(lane.centerline, s0, d0, slope, blend)


def _stop_constraint_distance(ctx: PlanContext) -> float | None:
    """Distance from the ego front bumper to the nearest active stop target."""
    cfg, ego, lane = ctx.config, ctx.ego, ctx.lane
    front = ctx.ego_position[0] + ego.length / 2.0
    targets = []
    for light in ctx.scenario.lights:
        if (light.lane == ego.lane and light.stop_line_s > front
                and light.color_at(ctx.sim_time) == "red"):
            targets.append(light.stop_line_s - cfg.stop_line_margin_m)
    for cw, occupied in zip(ctx.scenario.crosswalks, ctx.crosswalk_occupancy):
        if ego.lane not in cw.lanes or cw.span[0] <= front:
            continue
        if occupied[0]:
            targets.append(cw.span[0] - cfg.stop_line_margin_m)
    block = ctx.predictions
    # moving traffic is handled by TTC, not a fixed stop target
    still = block.vehicle_like & (block.speed[:, 0] <= 0.5)
    if still.any():
        s_obj, lateral = (a[still] for a in ctx.lane_positions)
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
                         accels: dict | None = None) -> tuple:
    """(block, candidates): the lane changes `maneuvers`, then one keep-lane
    candidate per maneuver -> acceleration.

    By default all six, in Maneuver enum order, Stop braking at `_stop_decel`.
    Every trajectory is a row of one `sample_trajectory` call, whose block is
    returned; each candidate records its row, and a lane change its join.
    Keep-lane candidates, capped at the lane's limit, share a path back onto the
    ego's lane that joins it 5 m past the farthest the cap lets them go in the
    planning horizon. A lane change, onto the neighbour lane over the distance
    the ego covers in the lane-change duration, to its join, and then along its
    centerline, is sampled at constant speed over `lane_change_horizon_s`. With
    a vehicle or obstacle ahead of the ego in arc length along the ego's lane,
    on any lane (its first predicted sample projected onto the ego's lane), a
    stretched path is sampled too, and taken where such a road user is predicted
    inside the nominal row's corridor, read from the plan's one corridor pass.
    Without a neighbour lane, or below 1 m/s, the maneuver is an infeasible
    placeholder with no row. The rows are each side's nominal row, then every
    stretched row, then the keep-lane rows: lane changes that all stretch and
    the keep-lane rows form one run.
    """
    cfg, ego, lane, block = ctx.config, ctx.ego, ctx.lane, ctx.predictions
    if accels is None:
        accels = {
            Maneuver.KEEP_LANE_ACCELERATE: cfg.accel_keep_lane,
            Maneuver.KEEP_LANE_SAME_SPEED: 0.0,
            Maneuver.KEEP_LANE_DECELERATE: -cfg.decel_keep_lane,
            Maneuver.STOP: -_stop_decel(ctx),
        }
    # below 1 m/s a lane change, blended over the distance the ego covers in
    # its duration, gets no row
    targets = {m: lane.left_neighbor if m is Maneuver.CHANGE_LANE_LEFT else lane.right_neighbor
               for m in maneuvers} if ego.speed >= 1.0 else {}
    leads = None
    if any(targets.values()) and block.vehicle_like.any():
        leads = block.vehicle_like & (ctx.lane_positions[0] > ctx.ego_position[0])
    lead = leads is not None and bool(leads.any())
    horizon = cfg.lane_change_horizon_s
    blend = ego.speed * cfg.lane_change_duration_s
    wide_blend = blend * cfg.lane_change_stretch
    rows, wide_rows = [], []   # (`LanePath`, profile, horizon)
    sides = {}   # maneuver -> (target lane, nominal row, s0); stretched row: first_wide + nominal
    for m, target_id in targets.items():
        if target_id is None:
            continue
        target = ctx.scenario.lanes[target_id]
        s0, d0 = target.centerline.project((ego.x, ego.y))
        profile = SpeedProfile(ego.speed, 0.0, min(lane.speed_limit, target.speed_limit))
        sides[m] = target_id, len(rows), s0
        rows.append((lane_path(target, s0, d0, ego.heading, blend), profile, horizon))
        if lead:
            wide_rows.append((lane_path(target, s0, d0, ego.heading, wide_blend), profile, horizon))
    first_wide = len(rows)
    rows += wide_rows
    if accels:
        keep = lane_path(lane, *ctx.ego_position, ego.heading,
                         max(lane.speed_limit, ego.speed) * cfg.planning_horizon_s + 5.0)
        rows += [(keep, SpeedProfile(ego.speed, a, lane.speed_limit), cfg.planning_horizon_s)
                 for a in accels.values()]
    sampled = sample_trajectory(rows, cfg.dt) if rows else None
    stretched = dict.fromkeys(sides, False)
    if lead:
        hits = ctx.corridor_hits(sampled)[:, leads]
        stretched = {m: bool(hits[nominal].any()) for m, (_, nominal, _) in sides.items()}
    out = []
    for m in maneuvers:
        if m not in sides:
            out.append(ManeuverCandidate(m, None, feasible=False))
            continue
        target_id, nominal, s0 = sides[m]
        row, b = (first_wide + nominal, wide_blend) if stretched[m] else (nominal, blend)
        out.append(ManeuverCandidate(m, target_id, row, stretched[m], join=s0 + b))
    return sampled, out + [ManeuverCandidate(m, ego.lane, r)
                           for r, m in enumerate(accels, len(rows) - len(accels))]


def time_to_collision(cands: CandidateBlock, block: PredictionBlock,
                      ego_length: float, ego_width: float) -> tuple:
    """(ttc, who): each candidate's (C,) footprint time-to-collision with any
    predicted road user, and the (C,) row of `block` that sets it.

    Scans a candidate's first min(len, T) samples, aligned with every row's,
    for the first oriented-rectangle overlap and refines linearly on the
    separating-axis gap inside that tick (the gap is positive before it and
    <= 0 at it). +inf, and row -1, where no footprints overlap; of road
    users that tie, the first row.

    Only candidates and road users with an aligned pair of valid samples
    whose centers lie within reach (`kernels.reach2`) take part in
    the gap scan, kept in order: every other pair's gap is > 0 (see
    `kernels`), so it can neither overlap nor set a refined contact, and
    culling changes no result. Without such a pair there is no gap scan, and
    without road users no array work at all.
    """
    ttc, who = np.empty(len(cands)), np.empty(len(cands), dtype=np.int64)
    ttc.fill(math.inf)
    who.fill(-1)
    if len(block) == 0:
        return ttc, who
    n = min(cands.x.shape[1], block.steps)
    dx = block.x[None, :, :n] - cands.x[:, None, :n]
    dy = block.y[None, :, :n] - cands.y[:, None, :n]
    near = dx * dx + dy * dy <= block.reach2(ego_length / 2.0, ego_width / 2.0)[None, :, None]
    pairs = np.logical_or.reduce(near & cands.valid[:, None, :n], axis=2)   # (C, K)
    rows = np.logical_or.reduce(pairs, axis=1).nonzero()[0]
    if len(rows) == 0:
        return ttc, who
    users = np.logical_or.reduce(pairs, axis=0).nonzero()[0]
    a, b = cands._rows[1:4, rows, None, :n], block._rows[:3, None, users, :n]   # x, y, heading
    half = block._half[:, None, users, None]
    gaps = pose_gaps(a[0], a[1], a[2], ego_length / 2.0, ego_width / 2.0,
                     b[0], b[1], b[2], half[0], half[1])
    gaps = np.where(cands.valid[rows, None, :n], gaps, np.inf)
    overlap = np.min(gaps, axis=1) <= 0.0
    first = overlap[:, 0]
    ttc[rows[first]] = 0.0
    who[rows[first]] = users[np.argmax(gaps[first, :, 0] <= 0.0, axis=1)]
    later = np.flatnonzero(overlap.any(axis=1) & ~first)
    i = np.argmax(overlap[later], axis=1)
    # each road user overlapping first at tick i collides in (t[i-1], t[i]]:
    # those that overlap only later cannot collide sooner
    g0 = gaps[later, :, i - 1]
    g1 = gaps[later, :, i]
    frac = np.divide(g0, g0 - g1, out=np.full_like(g0, np.inf), where=g1 <= 0.0)
    ttc[rows[later]] = cands.t[rows[later], i - 1] + np.min(frac, axis=1) * cands.dt
    who[rows[later]] = users[np.argmin(frac, axis=1)]
    return ttc, who


def _red_lights(ctx: PlanContext, cands: CandidateBlock, targets: np.ndarray,
                front) -> np.ndarray:
    """(R,) rows that cross a red stop line, or enter its hold zone while it
    is red, on a lane they concern: the ego's, or `targets`, each row's
    target lane. `front(lane_id)` gives the (R, T) front-bumper arc positions
    of the rows on a lane. A light counts as red if it is red now or at the
    tick of the crossing or entry."""
    cfg = ctx.config
    out = np.zeros(len(cands), dtype=bool)
    for light in ctx.scenario.lights:
        ahead = (targets == light.lane) | (light.lane == ctx.ego.lane)
        if not ahead.any():
            continue
        s = front(light.lane)
        ahead &= s[:, 0] < light.stop_line_s   # not yet past this light
        # gate entry a bit outside the hold window so tracking fuzz cannot
        # park the bumper right on its boundary
        hold_line = light.stop_line_s - cfg.red_light_hold_m - cfg.hold_buffer_m
        crosses = ahead[:, None] & (s >= light.stop_line_s)
        enters = (ahead & (s[:, 0] < hold_line))[:, None] & (s >= hold_line)
        red_now = light.color_at(ctx.sim_time) == "red"
        for event in (crosses, enters):
            rows = np.nonzero(event.any(axis=1))[0]
            when = cands.t[rows, event[rows].argmax(axis=1)].tolist()
            out[rows[np.array([red_now or light.color_at(ctx.sim_time + t) == "red"
                               for t in when], dtype=bool)]] = True
    return out


def _crosswalks(ctx: PlanContext, cands: CandidateBlock, targets: np.ndarray,
                front) -> np.ndarray:
    """(R,) rows that enter a crosswalk's hold margin on a lane they concern
    while it is occupied now or at the tick of entry, with `targets` and
    `front` as in `_red_lights`. The span is measured along the ego's lane
    where the crosswalk spans it, else along each row's target lane; a row
    parked past the hold line does not enter while its front never advances."""
    cfg, ego = ctx.config, ctx.ego
    out = np.zeros(len(cands), dtype=bool)
    for cw, occupied in zip(ctx.scenario.crosswalks, ctx.crosswalk_occupancy):
        for lane_id in [ego.lane] if ego.lane in cw.lanes else cw.lanes:
            enters = (targets == lane_id) | (lane_id == ego.lane)
            if not enters.any():
                continue
            s = front(lane_id)
            at = s >= cw.span[0] - cfg.crosswalk_hold_m
            enters &= (s[:, 0] < cw.span[1]) & at.any(axis=1)
            enters &= ~(at[:, 0] & (s[:, -1] <= s[:, 0]))
            tick = np.minimum(at.argmax(axis=1), len(occupied) - 1)
            out |= enters & (occupied[0] | occupied[tick])
    return out


def feasibility_filter(ctx: PlanContext, block: CandidateBlock | None,
                       candidates: list) -> tuple:
    """(broken, min_ttc, ttc_agent): the rules each candidate breaks, its
    footprint TTC and the road user that sets it.

    `broken` is a (C, len(RULES)) bool matrix, column k set where a candidate
    breaks `RULES[k]`; `min_ttc` is (C,), inf for a candidate with no row;
    `ttc_agent` is the (C,) list of that road user's id, None where the TTC is
    inf. `no_lane` marks a candidate without a row (a lane change without a
    neighbour lane, or below 1 m/s); every other column is one array expression
    over the candidates' rows of `block`; `solid_line` marks a row whose target
    lies across a solid line from the ego's lane, which a committed change
    leaves behind; the red-light and crosswalk columns share one projection of
    every row's samples per lane they concern, and time-to-collision is one call
    over every row. Sets each candidate feasible where no column is set; when
    none is, Stop is retained as the fallback, its broken rules still set.
    """
    cfg, ego, lane, lanes = ctx.config, ctx.ego, ctx.lane, ctx.scenario.lanes
    eps = cfg.rule_speed_epsilon
    broken = np.zeros((len(candidates), len(RULES)), dtype=bool)
    min_ttc = np.full(len(candidates), math.inf)
    ttc_agent = [None] * len(candidates)
    has = np.array([c.row is not None for c in candidates], dtype=bool)
    broken[:, 0] = ~has
    ruled = [c for c in candidates if c.row is not None]
    if ruled:
        cands = block.take([c.row for c in ruled])
        solid = {lane.left_neighbor: lane.left_boundary == "solid",
                 lane.right_neighbor: lane.right_boundary == "solid"}
        ttc, who = time_to_collision(cands, ctx.predictions, ego.length, ego.width)
        min_ttc[has] = ttc
        ids = ctx.predictions.ids
        for k, w in zip(np.flatnonzero(has).tolist(), who.tolist()):
            ttc_agent[k] = ids[w] if w >= 0 else None
        rules = np.zeros((len(ruled), len(RULES) - 1), dtype=bool)   # `RULES[1:]`, in order
        np.greater(cands.speed[:, -1], [lanes[c.target_lane].speed_limit + eps for c in ruled],
                   out=rules[:, 0])
        if ego.speed >= lane.speed_limit - eps:
            rules[:, 1] = [c.maneuver is Maneuver.KEEP_LANE_ACCELERATE for c in ruled]
        rules[:, 2] = [solid.get(c.target_lane, False) for c in ruled]
        if ctx.scenario.lights or ctx.scenario.crosswalks:
            targets = np.array([c.target_lane for c in ruled])

            @cache
            def front(lane_id: str) -> np.ndarray:
                """(R, T) arc position of the ego front bumper on the lane."""
                s, _ = lanes[lane_id].centerline.project(
                    np.column_stack([cands.x.ravel(), cands.y.ravel()]))
                return s.reshape(cands.x.shape) + ego.length / 2.0

            rules[:, 3] = _red_lights(ctx, cands, targets, front)
            rules[:, 4] = _crosswalks(ctx, cands, targets, front)
        np.less(ttc, cfg.ttc_min_s, out=rules[:, 5])
        broken[has, 1:] = rules
    feasible = ~broken.any(axis=1)
    if not feasible.any():
        feasible = np.array([c.maneuver is Maneuver.STOP for c in candidates])
    for cand, ok in zip(candidates, feasible.tolist()):
        cand.feasible = ok
    return broken, min_ttc, ttc_agent
