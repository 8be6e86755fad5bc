"""Deterministic closed-loop traffic simulation.

Fixed 0.1 s ticks. The ego executes planner trajectories exactly (ideal
tracking); other agents follow their scripted behaviors. Collisions and rule
violations are detected, logged as events, and never raised. Two runs of the
same scenario, planner, and config produce identical logs byte for byte.
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .bezier import TimedTrajectory
from .config import PlannerConfig
from .identification import LANE_CHANGES, Maneuver
from .planner import Decision, PlanResult
from .resources import RESOURCES, STATES
from .scenario import AgentState, Scenario

SPEED_TOLERANCE = 0.5  # m/s over the limit before a violation event

MANEUVER_COLUMNS = [m.value for m in Maneuver]

CSV_COLUMNS = (
    ["t", "ego_x", "ego_y", "ego_heading", "ego_speed", "ego_accel_lon",
     "ego_accel_lat", "ego_lane", "maneuver", "committed", "fallback"]
    + [f"V_{m}" for m in MANEUVER_COLUMNS]
    + [f"feasible_{m}" for m in MANEUVER_COLUMNS]
    + [f"mu_{r.value}" for r in RESOURCES]
    + [f"state_{r.value}" for r in RESOURCES]
    + ["events"]
)


@dataclass
class SimEvent:
    t: float
    type: str
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"t": self.t, "type": self.type, **self.detail}


@dataclass
class SimLog:
    scenario_name: str
    planner: str
    profile: str
    dt: float
    rows: list = field(default_factory=list)       # dicts keyed by CSV_COLUMNS
    events: list = field(default_factory=list)     # SimEvent
    latencies_ms: list = field(default_factory=list)
    epoch_speeds: list = field(default_factory=list)  # ego speed at each decision time

    def to_csv(self) -> str:
        def cell(v) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(cell(row.get(c)) for c in CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def events_json(self) -> list:
        return [e.to_dict() for e in self.events]

    def count_events(self, etype: str) -> int:
        return sum(1 for e in self.events if e.type == etype)

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])


class _AgentRuntime:
    """Mutable per-agent bookkeeping the scripted behaviors need."""

    def __init__(self, agent: AgentState, scenario: Scenario) -> None:
        self.agent = agent
        self.traveled = 0.0  # pedestrian crossing distance
        lane = scenario.lanes.get(agent.lane)
        self.s = lane.centerline.project((agent.x, agent.y))[0] if lane is not None else 0.0


class SimWorld:
    """Runtime state for one simulation run."""

    def __init__(self, scenario: Scenario, config: PlannerConfig) -> None:
        agents = [a.copy() for a in scenario.agents]
        self.scenario = dataclasses.replace(scenario, agents=agents)
        self.config = config
        self.t = 0.0
        self.ego = self.scenario.ego
        self.runtimes = {a.id: _AgentRuntime(a, self.scenario) for a in agents}
        self._contact: set = set()        # agent ids currently touching the ego
        self._speeding = False
        self._off_lane = False
        self._prev_front_s: dict = {}     # light index -> ego front s on its lane
        self._lane_update: tuple = ()     # (lane, x, y, s, lateral) of the last lane update

    # ----- scripted agents -------------------------------------------------

    def _advance_agent(self, rt: _AgentRuntime) -> None:
        agent = rt.agent
        beh = agent.behavior
        dt = self.config.dt
        if beh.type == "static":
            agent.speed = 0.0
            return
        if beh.type == "cross":
            if self.t + 1e-9 < beh.start_time:
                agent.speed = 0.0
                return
            if beh.distance is not None and rt.traveled >= beh.distance - 1e-9:
                agent.speed = 0.0
                return
            step = beh.speed * dt
            if beh.distance is not None:
                step = min(step, beh.distance - rt.traveled)
            agent.x += math.cos(agent.heading) * step
            agent.y += math.sin(agent.heading) * step
            agent.speed = beh.speed
            rt.traveled += step
            return
        # lane_follow / speed_schedule
        lane = self.scenario.lanes.get(agent.lane)
        speed = beh.speed_at(self.t, agent.speed)
        agent.speed = speed
        if lane is None:
            agent.x += math.cos(agent.heading) * speed * dt
            agent.y += math.sin(agent.heading) * speed * dt
            return
        rt.s += speed * dt
        agent.x, agent.y = lane.centerline.point_at(rt.s)
        agent.heading = lane.centerline.heading_at(rt.s)

    def advance_others(self) -> None:
        for agent in self.scenario.others():
            self._advance_agent(self.runtimes[agent.id])

    # ----- ego -------------------------------------------------------------

    def apply_ego_sample(self, traj: TimedTrajectory, i: int) -> None:
        self.ego.x = float(traj.x[i])
        self.ego.y = float(traj.y[i])
        self.ego.heading = float(traj.heading[i])
        self.ego.speed = float(traj.speed[i])
        self._update_ego_lane()

    def _update_ego_lane(self) -> None:
        lane = self.scenario.lanes[self.ego.lane]
        best_id, best = self.ego.lane, None
        for lane_id in (self.ego.lane, lane.left_neighbor, lane.right_neighbor):
            if lane_id is None:
                continue
            on = self.scenario.lanes[lane_id].centerline.project((self.ego.x, self.ego.y))
            if best is None or abs(on[1]) < abs(best[1]) - 1e-9:
                best_id, best = lane_id, on
        self.ego.lane = best_id
        self._lane_update = (best_id, self.ego.x, self.ego.y, *best)

    # ----- events ----------------------------------------------------------

    def detect_collisions(self) -> list:
        events = []
        ego = self.ego
        for agent in self.scenario.others():
            gap = kernels.rect_gap(
                ego.x, ego.y, ego.heading, ego.length / 2.0, ego.width / 2.0,
                agent.x, agent.y, agent.heading, agent.length / 2.0, agent.width / 2.0,
            )
            if gap <= 0.0:
                if agent.id not in self._contact:
                    self._contact.add(agent.id)
                    events.append(SimEvent(self.t, "collision", {"agent": agent.id}))
            else:
                self._contact.discard(agent.id)
        return events

    def detect_violations(self) -> list:
        """Rule violations at the current tick (speed, solid line, red light)."""
        events = []
        ego = self.ego
        lane = self.scenario.lanes[ego.lane]

        speeding = ego.speed > lane.speed_limit + SPEED_TOLERANCE
        if speeding and not self._speeding:
            events.append(SimEvent(self.t, "rule_violation",
                                   {"rule": "speed", "lane": lane.id, "speed": ego.speed}))
        self._speeding = speeding

        last = self._lane_update
        s_ego, lateral = (last[3:] if last[:3] == (ego.lane, ego.x, ego.y)
                          else lane.centerline.project((ego.x, ego.y)))
        room = lane.width / 2.0 - ego.width / 2.0
        crossing = ((lateral > room and lane.left_boundary == "solid")
                    or (lateral < -room and lane.right_boundary == "solid"))
        if crossing and not self._off_lane:
            events.append(SimEvent(self.t, "rule_violation",
                                   {"rule": "solid_boundary", "lane": lane.id}))
        self._off_lane = crossing

        for i, light in enumerate(self.scenario.lights):
            llane = self.scenario.lanes[light.lane]
            s, lat = ((s_ego, lateral) if light.lane == ego.lane
                      else llane.centerline.project((ego.x, ego.y)))
            if abs(lat) > llane.width / 2.0:  # not on this light's lane
                self._prev_front_s.pop(i, None)
                continue
            front = s + ego.length / 2.0
            prev = self._prev_front_s.get(i)
            if (prev is not None and prev < light.stop_line_s <= front
                    and light.color_at(self.t) == "red"):
                events.append(SimEvent(self.t, "rule_violation",
                                       {"rule": "red_light", "lane": light.lane}))
            self._prev_front_s[i] = front
        return events


def _decision_row_fields(decision: Decision) -> dict:
    fields: dict = {}
    for cand in decision.candidates:
        name = cand.maneuver.value
        fields[f"feasible_{name}"] = int(cand.feasible)
        fields[f"V_{name}"] = decision.profits.get(cand.maneuver)
    # Python floats: the log writes repr(), which numpy 2 gives as np.float64(...)
    row = decision.chosen
    for res, mu, code in zip(RESOURCES, decision.values[row].tolist(),
                             decision.states[row].tolist()):
        fields[f"mu_{res.value}"] = mu
        fields[f"state_{res.value}"] = STATES[code].value
    return fields


def run(scenario: Scenario, planner, config: PlannerConfig | None = None) -> SimLog:
    """Closed-loop run of one scenario under one planner.

    Records ceil(duration/dt) ticks. The planner is consulted on the replan
    cadence (and immediately if its trajectory runs out). The first planner
    call is preceded by an untimed warm-up call, so one-time setup costs
    (imports, first-call allocations) never show up in the recorded latencies.
    """
    cfg = config if config is not None else PlannerConfig()
    world = SimWorld(scenario, cfg)
    log = SimLog(scenario_name=scenario.name, planner=getattr(planner, "name", "planner"),
                 profile=getattr(planner, "profile", scenario.profile), dt=cfg.dt)

    warm = SimWorld(scenario, cfg)
    planner.plan(warm.scenario, 0.0)
    planner.reset()

    n_ticks = math.ceil(scenario.duration_s / cfg.dt)
    active: TimedTrajectory | None = None
    active_idx = 0
    decision_fields: dict = {}
    maneuver: Maneuver | None = None
    committed = False
    fallback = False
    lc_active: Maneuver | None = None

    for k in range(n_ticks):
        t = k * cfg.dt
        world.t = t
        need_plan = (k % cfg.replan_steps == 0) or active is None or active_idx >= len(active) - 1
        if need_plan:
            t0 = time.perf_counter()
            result: PlanResult = planner.plan(world.scenario, t)
            log.latencies_ms.append((time.perf_counter() - t0) * 1000.0)
            active = result.trajectory
            active_idx = 0
            maneuver = result.maneuver
            committed = result.committed
            fallback = result.decision is not None and result.decision.fallback
            log.epoch_speeds.append(world.ego.speed)
            if result.decision is not None:
                decision_fields = _decision_row_fields(result.decision)
            if fallback:
                log.events.append(SimEvent(t, "fallback_stop", {}))
            # any result but a committed replay closes the open lane change,
            # then opens one if it is itself a lane change
            if not committed:
                if lc_active is not None:
                    closed = "lane_change_aborted" if result.aborted else "lane_change_completed"
                    log.events.append(SimEvent(t, closed, {"maneuver": lc_active.value}))
                lc_active = maneuver if maneuver in LANE_CHANGES else None
                if lc_active is not None:
                    log.events.append(SimEvent(t, "lane_change_started",
                                               {"maneuver": maneuver.value}))

        tick_events = world.detect_collisions() + world.detect_violations()
        log.events.extend(tick_events)

        row = {
            "t": t,
            "ego_x": world.ego.x,
            "ego_y": world.ego.y,
            "ego_heading": world.ego.heading,
            "ego_speed": world.ego.speed,
            "ego_accel_lon": float(active.a_lon[min(active_idx, len(active) - 1)]),
            "ego_accel_lat": float(active.a_lat[min(active_idx, len(active) - 1)]),
            "ego_lane": world.ego.lane,
            "maneuver": maneuver.value,
            "committed": int(committed),
            "fallback": int(fallback),
            "events": ";".join(e.type for e in tick_events),
        }
        row.update(decision_fields)
        log.rows.append(row)

        if active_idx < len(active) - 1:
            active_idx += 1
            world.apply_ego_sample(active, active_idx)
        world.advance_others()

    # close any lane change still open at the end of the run
    if lc_active is not None:
        log.events.append(SimEvent(n_ticks * cfg.dt, "lane_change_completed",
                                   {"maneuver": lc_active.value}))
    log.epoch_speeds.append(world.ego.speed)
    return log
