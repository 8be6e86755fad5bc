import dataclasses
import json
import math
from collections import Counter

import numpy as np
import pytest

from conftest import (CURVED, SCENARIO_DIR, assert_row_is_its_lone_block, curved_road, load,
                      prediction_block)
from cormp import identification, resources
from cormp.baselines import make_planner
from cormp.bezier import SpeedProfile, sample_trajectory
from cormp.config import PlannerConfig
from cormp.identification import (
    LANE_CHANGES,
    RULES,
    CandidateBlock,
    Maneuver,
    PlanContext,
    PredictionBlock,
    _stop_constraint_distance,
    _stop_decel,
    enumerate_candidates,
    feasibility_filter,
    lane_path,
    predict_oru,
    time_to_collision,
)
from cormp.kernels import pose_gaps
from cormp.planner import CorMpPlanner, plan_context, plan_tick
from cormp.scenario import Polyline, load_scenario
from cormp.simulator import SimWorld, run
from resource_oracle import path_length

EGO = {"id": "ego", "kind": "ego", "position": [15.0, 0.0], "heading": 0.0,
       "speed": 13.89, "length": 4.5, "width": 1.8, "mass": 1500.0,
       "lane": "right"}


def road(n_lanes: int = 2, limit: float = 13.89, ego=None, others=(),
         lights=(), crosswalks=(), left_boundary: str = "dashed",
         length: float = 600.0) -> dict:
    lanes = [{
        "id": "right", "centerline": [[0.0, 0.0], [length, 0.0]], "width": 3.5,
        "speed_limit": limit, "left_boundary": left_boundary,
        "right_boundary": "solid",
    }]
    if n_lanes == 2:
        lanes[0]["left_neighbor"] = "left"
        lanes.append({
            "id": "left", "centerline": [[0.0, 3.5], [length, 3.5]], "width": 3.5,
            "speed_limit": limit, "right_neighbor": "right",
            "left_boundary": "solid", "right_boundary": left_boundary,
        })
    return {
        "name": "fixture", "duration_s": 20.0, "apriori_lane": "right",
        "lanes": lanes, "agents": [dict(EGO, **(ego or {}))] + list(others),
        "lights": list(lights), "crosswalks": list(crosswalks),
    }


def context(doc: dict, cfg: PlannerConfig | None = None,
            sim_time: float = 0.0) -> PlanContext:
    return plan_context(load_scenario(doc), cfg or PlannerConfig(), sim_time)


def filtered(ctx: PlanContext) -> tuple:
    """A plan's candidates by maneuver after `feasibility_filter`, the set of
    `RULES` each breaks and its min TTC, each by maneuver."""
    block, cands = enumerate_candidates(ctx)
    broken, min_ttc, _ = feasibility_filter(ctx, block, cands)
    assert broken.shape == (len(cands), len(RULES)) and min_ttc.shape == (len(cands),)
    maneuvers = [c.maneuver for c in cands]
    return (by_maneuver(cands),
            {m: {RULES[k] for k in np.flatnonzero(row)} for m, row in zip(maneuvers, broken)},
            dict(zip(maneuvers, min_ttc.tolist())))


def by_maneuver(cands):
    return {c.maneuver: c for c in cands}


def trajectories(ctx: PlanContext, *args) -> dict:
    """Maneuver -> trajectory of each candidate of `enumerate_candidates(ctx, *args)`
    with a row, read from the block."""
    block, cands = enumerate_candidates(ctx, *args)
    return {c.maneuver: block[c.row] for c in cands if c.row is not None}


def stop_trajectory(ctx):
    return trajectories(ctx)[Maneuver.STOP]


# ---------------------------------------------------------------- prediction


def test_static_obstacle_prediction_is_stationary():
    ctx = context(road(others=[{"id": "rock", "kind": "obstacle",
                                "position": [50.0, 0.0], "heading": 0.0,
                                "speed": 0.0, "length": 2.0, "width": 2.0}]))
    pred = ctx.predictions
    assert np.allclose(pred.x[0], 50.0)
    assert np.allclose(pred.speed[0], 0.0)


def test_lane_vehicle_prediction_travels_downstream():
    ctx = context(road(others=[{"id": "car", "kind": "vehicle", "lane": "right",
                                "position": [50.0, 0.0], "heading": 0.0,
                                "speed": 10.0, "length": 4.5, "width": 1.8}]))
    pred = ctx.predictions
    assert (pred.steps - 1) * ctx.config.dt == pytest.approx(4.0)
    assert pred.x[0, -1] - pred.x[0, 0] == pytest.approx(40.0, abs=0.1)
    assert abs(pred.y[0, -1]) < 1e-6


def test_lane_vehicle_prediction_matches_the_simulator_on_an_arc():
    cfg = PlannerConfig()
    world = SimWorld(load_scenario(curved_road(140.0, -1, "left", 8.0, 8.5)), cfg)
    world.advance_others()  # the simulator snaps lane vehicles onto the centerline
    lead = world.scenario.agents[1]
    x, y, heading, _ = predict_oru(lead, world.scenario, cfg)
    assert len(x) == cfg.horizon_steps + 1
    for k in range(len(x)):
        assert math.hypot(x[k] - lead.x, y[k] - lead.y) < 1e-9
        assert heading[k] == pytest.approx(lead.heading, abs=1e-9)
        world.advance_others()


def test_pedestrian_prediction_extrapolates_heading():
    cfg = PlannerConfig(planning_horizon_s=3.0)
    ctx = context(road(others=[{"id": "ped", "kind": "pedestrian",
                                "position": [60.0, -5.0],
                                "heading": math.pi / 2, "speed": 1.4,
                                "length": 0.6, "width": 0.6}]), cfg=cfg)
    pred = ctx.predictions
    assert pred.y[0, -1] - pred.y[0, 0] == pytest.approx(4.2, abs=1e-6)
    assert pred.x[0, -1] == pytest.approx(60.0, abs=1e-9)


def test_lane_vehicle_prediction_continues_past_the_lane_end():
    doc = road(n_lanes=1, others=[{"id": "car", "kind": "vehicle", "lane": "right",
                                   "position": [180.0, 0.0], "heading": 0.0,
                                   "speed": 10.0, "length": 4.5, "width": 1.8}])
    doc["lanes"][0]["centerline"] = [[0.0, 0.0], [200.0, 0.0]]
    cfg = PlannerConfig()
    world = SimWorld(load_scenario(doc), cfg)
    car = world.scenario.agents[1]
    # from 20 m before the lane end to 220 m at t = 4 s, then on from there
    for start in (180.0, 220.0):
        assert car.x == pytest.approx(start, abs=1e-9)
        assert_prediction_matches_simulator(world, car, cfg)
    # placed 30 m past the lane end, or 30 m before its start: no jump onto the lane
    for start in (230.0, -30.0):
        doc["agents"][1]["position"] = [start, 0.0]
        world = SimWorld(load_scenario(doc), cfg)
        assert_prediction_matches_simulator(world, world.scenario.agents[1], cfg)


def assert_prediction_matches_simulator(world: SimWorld, car, cfg: PlannerConfig) -> None:
    """Each tick of car's prediction is within 1e-9 m of the simulator moving it."""
    x, y, _, _ = predict_oru(car, world.scenario, cfg)
    assert len(x) == cfg.horizon_steps + 1
    for k in range(len(x)):
        if k:
            world.advance_others()
        assert math.hypot(x[k] - car.x, y[k] - car.y) < 1e-9


def test_a_lane_vehicle_moves_by_one_rule_in_predictions_and_the_simulator():
    # a constant-speed car on the 60-point left arc of radius 140 m, 30 m
    # before its 420 m end: each of four predictions in a row, the first across
    # the last vertices and the lane end, is the pose the simulator steps it to
    doc = curved_road(140.0, +1, "right", 12.5, 20.0)
    line = Polyline(doc["lanes"][0]["centerline"])
    x0, y0, h0 = line.pose_at(390.0)
    doc["agents"][1].update(position=[x0, y0], heading=h0)
    cfg = PlannerConfig()
    world = SimWorld(load_scenario(doc), cfg)
    car = world.scenario.agents[1]
    for _ in range(4):
        x, y, heading, _ = predict_oru(car, world.scenario, cfg)
        assert len(x) == cfg.horizon_steps + 1
        for k in range(len(x)):
            if k:
                world.advance_others()
            assert math.hypot(x[k] - car.x, y[k] - car.y) < 1e-9, k
            assert abs(heading[k] - car.heading) < 1e-12, k
        world.advance_others()
    assert world.runtimes["lead"].s == pytest.approx(390.0 + 4 * 41 * 1.25)


def test_a_laneless_vehicle_moves_straight_in_predictions_and_the_simulator():
    # no lane: the simulator steps it along its heading tick by tick, as the
    # prediction extrapolates it, over three predictions in a row
    doc = road(others=[{"id": "car", "kind": "vehicle", "position": [40.0, -8.0],
                        "heading": 0.4, "speed": 11.0, "length": 4.5, "width": 1.8}])
    cfg = PlannerConfig()
    world = SimWorld(load_scenario(doc), cfg)
    car = world.scenario.agents[1]
    assert car.lane is None
    for _ in range(3):
        assert_prediction_matches_simulator(world, car, cfg)
        assert car.heading == 0.4
    assert car.x == pytest.approx(40.0 + 3 * cfg.horizon_steps * 11.0 * cfg.dt * math.cos(0.4))


def test_the_travel_table_is_cached_per_step_and_read_only():
    doc = road(others=[{"id": "car", "kind": "vehicle", "lane": "right",
                        "position": [50.0, 0.0], "heading": 0.0,
                        "speed": 11.125, "length": 4.5, "width": 1.8}])
    sc = load_scenario(doc)
    car = sc.agents[1]
    cfg = PlannerConfig()
    predict_oru(car, sc, cfg)
    info = identification._travel.cache_info()
    predict_oru(car, sc, cfg)                   # the same speed: a hit
    car.speed = 11.25
    predict_oru(car, sc, cfg)                   # a new speed: a miss
    after = identification._travel.cache_info()
    assert (after.hits - info.hits, after.misses - info.misses) == (1, 1)
    n = cfg.horizon_steps + 1
    table = identification._travel(11.25 * cfg.dt, n)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1] = 0.0
    # summed tick by tick, as the simulator steps
    steps = [0.0]
    for _ in range(n - 1):
        steps.append(steps[-1] + 11.25 * cfg.dt)
    assert table.tolist() == steps


def test_lane_prediction_keeps_its_last_tick_when_the_path_rounds_short():
    # the horizon ends 0.5 um past a 0.5 rad corner: the last tick lands just
    # beyond a centerline vertex, and it is kept on the lane past the corner
    doc = road(n_lanes=1, others=[{"id": "car", "kind": "vehicle", "lane": "right",
                                   "position": [60.0 + 0.5e-6, 0.0], "heading": 0.0,
                                   "speed": 10.0, "length": 4.5, "width": 1.8}])
    doc["lanes"][0]["centerline"] = [[0.0, 0.0], [100.0, 0.0],
                                     [100.0 + 200.0 * math.cos(0.5), 200.0 * math.sin(0.5)]]
    cfg = PlannerConfig()
    world = SimWorld(load_scenario(doc), cfg)
    car = world.scenario.agents[1]
    x, y, _, _ = predict_oru(car, world.scenario, cfg)
    assert len(x) == cfg.horizon_steps + 1
    for k in range(len(x)):
        if k:
            world.advance_others()
        assert math.hypot(x[k] - car.x, y[k] - car.y) < 1e-6


def test_every_row_spans_the_horizon_when_the_tick_does_not_divide_it():
    # 4 s / 0.15 s = 26.7: moving, standing and pedestrian rows all get the
    # 27 ticks within the horizon, and the closed loop plans on them
    cfg = PlannerConfig(dt=0.15)
    doc = road(others=[
        {"id": "car", "kind": "vehicle", "lane": "left", "position": [40.0, 3.5],
         "heading": 0.0, "speed": 12.0, "length": 4.5, "width": 1.8},
        {"id": "rock", "kind": "obstacle", "position": [100.0, 0.0], "heading": 0.0,
         "speed": 0.0, "length": 2.0, "width": 2.0},
        {"id": "ped", "kind": "pedestrian", "position": [70.0, -6.0],
         "heading": math.pi / 2, "speed": 1.4, "length": 0.6, "width": 0.6},
    ])
    block = context(doc, cfg=cfg).predictions
    assert block.ids == ["car", "rock", "ped"]
    assert cfg.horizon_steps + 1 == block.steps == 27
    assert block.x[0, -1] - block.x[0, 0] == pytest.approx(12.0 * 26 * 0.15)
    assert np.all(block.x[1] == 100.0)
    assert block.y[2, -1] - block.y[2, 0] == pytest.approx(1.4 * 26 * 0.15)
    doc["duration_s"] = 6.0
    log = run(load_scenario(doc), make_planner("cor-mp", cfg, "regular"), cfg)
    assert len(log.rows) == 40  # 6 s / 0.15 s
    assert log.count_events("collision") == 0


def test_interaction_radius_filters_far_agents():
    far = {"id": "far", "kind": "vehicle", "lane": "right",
           "position": [400.0, 0.0], "heading": 0.0, "speed": 5.0,
           "length": 4.5, "width": 1.8}
    near = dict(far, id="near", position=[80.0, 0.0])
    ctx = context(road(others=[far, near]))
    assert ctx.predictions.ids == ["near"]


# ---------------------------------------------------------------- candidates


def test_six_candidates_in_fixed_order():
    _, cands = enumerate_candidates(context(road()))
    assert [c.maneuver for c in cands] == [
        Maneuver.CHANGE_LANE_LEFT, Maneuver.CHANGE_LANE_RIGHT,
        Maneuver.KEEP_LANE_ACCELERATE, Maneuver.KEEP_LANE_SAME_SPEED,
        Maneuver.KEEP_LANE_DECELERATE, Maneuver.STOP,
    ]


def test_missing_neighbor_marks_no_lane():
    block, cands = enumerate_candidates(context(road()))
    right = by_maneuver(cands)[Maneuver.CHANGE_LANE_RIGHT]
    assert not right.feasible
    assert (right.target_lane, right.row) == (None, None)
    assert len(block) == 5                              # no row for it
    left = by_maneuver(cands)[Maneuver.CHANGE_LANE_LEFT]
    assert left.feasible
    assert left.target_lane == "left"


def test_accelerate_capped_at_the_speed_limit():
    # planted: accelerating at the limit is the only rule it breaks
    ctx = context(road(ego={"speed": 13.89}))
    assert float(np.max(trajectories(ctx)[Maneuver.KEEP_LANE_ACCELERATE].speed)) <= 13.89 + 1e-9
    cands, rules, _ = filtered(ctx)
    assert not cands[Maneuver.KEEP_LANE_ACCELERATE].feasible
    assert rules[Maneuver.KEEP_LANE_ACCELERATE] == {"accelerate_at_limit"}


def test_keep_lane_kinematics_with_explicit_rate():
    ctx = context(road(limit=30.0, ego={"speed": 10.0}))
    traj = trajectories(ctx, (), {Maneuver.KEEP_LANE_ACCELERATE: 1.5})[
        Maneuver.KEEP_LANE_ACCELERATE]
    assert traj.speed[-1] == pytest.approx(16.0, abs=1e-9)
    assert traj.t[-1] - traj.t[0] == pytest.approx(4.0)
    assert path_length(traj) == pytest.approx(52.0, abs=1e-6)


@pytest.mark.parametrize("turn", [-1, 1])
def test_keep_lane_and_lane_change_follow_a_curved_centerline(turn):
    sc = load_scenario(curved_road(140.0, turn, "left", 8.0, 8.5))
    cfg = PlannerConfig()
    ctx = PlanContext(scenario=sc, config=cfg, ego=sc.ego, sim_time=0.0,
                      predictions=prediction_block())
    keep = trajectories(ctx, (), {Maneuver.KEEP_LANE_SAME_SPEED: 0.0})[
        Maneuver.KEEP_LANE_SAME_SPEED]
    _, lateral = sc.lanes["right"].centerline.project(np.column_stack([keep.x, keep.y]))
    # the solid edge is 0.85 m from the centerline for this ego, which starts
    # at a vertex along the segment there
    assert np.max(np.abs(lateral)) < 0.05
    change = trajectories(ctx, (Maneuver.CHANGE_LANE_LEFT,), {})[Maneuver.CHANGE_LANE_LEFT]
    _, lateral = sc.lanes["left"].centerline.project((change.x[-1], change.y[-1]))
    assert abs(lateral) < 0.01


def test_short_lane_change_continues_along_the_target_centerline():
    cfg = PlannerConfig(lane_change_duration_s=3.0)
    traj = trajectories(context(road(), cfg), (Maneuver.CHANGE_LANE_LEFT,), {})[
        Maneuver.CHANGE_LANE_LEFT]
    assert traj.t[-1] - traj.t[0] == pytest.approx(cfg.planning_horizon_s)
    after = traj.t >= 3.2 - 1e-9   # the cubic is a little longer than its 41.7 m chord
    assert np.allclose(traj.y[after], 3.5, atol=1e-9)
    assert np.allclose(np.diff(traj.x[after]), 13.89 * cfg.dt, atol=1e-9)


def test_lane_change_stretches_around_a_near_lead():
    # close enough that the curve corridor still overlaps the lead before
    # the ego has pulled laterally clear
    blocker = {"id": "slow", "kind": "vehicle", "lane": "right",
               "position": [35.0, 0.0], "heading": 0.0, "speed": 2.0,
               "length": 4.5, "width": 1.8}
    near = by_maneuver(enumerate_candidates(context(road(others=[blocker])))[1])
    far_doc = road(others=[dict(blocker, position=[300.0, 0.0])])
    far = by_maneuver(enumerate_candidates(context(far_doc))[1])
    assert near[Maneuver.CHANGE_LANE_LEFT].stretched
    assert not far[Maneuver.CHANGE_LANE_LEFT].stretched



def test_lane_change_stretches_around_a_lead_past_the_lane_end():
    # the lanes end at x = 200 m; ahead of the ego is ahead on the lane's
    # extension too, so the lead 40 m ahead blocks the change either way
    for x in (130.0, 230.0):
        lead = {"id": "lead", "kind": "vehicle", "lane": "left",
                "position": [x + 40.0, 3.5], "heading": 0.0, "speed": 5.0,
                "length": 4.5, "width": 1.8}
        doc = road(length=200.0, ego={"position": [x, 0.0]}, others=[lead])
        _, (cand,) = enumerate_candidates(context(doc), (Maneuver.CHANGE_LANE_LEFT,), {})
        assert cand.stretched, x


@pytest.mark.parametrize("name", ["slow_lead", "busy_highway"])
def test_filter_and_assessment_read_the_plan_block_in_place(name, monkeypatch):
    # a one-lane plan's keep-lane rows, and on busy_highway both sides'
    # stretched rows before them, form a run of the plan's block
    cfg = PlannerConfig()
    ctx = plan_context(SimWorld(load(name), cfg).scenario, cfg, 0.0)
    block, cands = enumerate_candidates(ctx)
    sides = [c.stretched for c in cands if c.maneuver in LANE_CHANGES and c.row is not None]
    assert sides == {"slow_lead": [], "busy_highway": [True, True]}[name]
    read = []
    for module, attr in ((identification, "time_to_collision"), (resources, "safety_value")):
        def record(rows, *args, real=getattr(module, attr)):
            read.append(rows)
            return real(rows, *args)
        monkeypatch.setattr(module, attr, record)
    feasibility_filter(ctx, block, cands)
    resources.assess_candidates(ctx, block, [c.row for c in cands if c.feasible])
    assert len(read) == 2 and all(np.shares_memory(rows.x, block.x) for rows in read)
    # rows out of order, repeated or with a gap are copied, and a view's valid is its
    # own to rebind
    for idx in ([1, 0], [0, 2], [0, 1, 1], [0, 0, 2], [0, 2, 1, 3]):
        taken = block.take(idx)
        assert not np.shares_memory(taken.x, block.x), idx
        assert np.array_equal(taken.x, block.x[idx]), idx
    valid = block.valid.copy()
    view = block.take([0, 1])
    assert np.shares_memory(view.x, block.x)
    view.valid = np.zeros_like(view.valid)
    assert np.array_equal(block.valid, valid)


# ---------------------------------------------------------------- planned paths


@pytest.mark.parametrize("heading", [0.3, 0.8, 1.0, 1.5, math.pi / 2, 2.0, math.pi])
def test_an_off_lane_heading_gives_a_finite_drive_near_the_road(heading):
    # the start slope is clamped at pi/4: tan of the heading offset alone
    # grows without bound towards pi/2
    doc = json.loads((SCENARIO_DIR / "empty_road.json").read_text())
    doc["agents"][0]["heading"] = heading
    sc, cfg = load_scenario(doc), PlannerConfig()
    log = run(sc, make_planner("cor-mp", cfg, sc.profile), cfg)
    poses = np.array([[row["ego_x"], row["ego_y"], row["ego_heading"]] for row in log.rows],
                     dtype=float)
    assert np.isfinite(poses).all()
    assert np.max(np.abs(poses[:, 1])) < 15.0


# ---------------------------------------------------------------- stop rates


def test_stop_uses_default_rate_without_a_target():
    assert stop_trajectory(context(road())).a_lon[0] == pytest.approx(-2.0, abs=1e-6)


def test_stop_rate_sized_to_the_red_light():
    light = {"lane": "right", "stop_line_s": 100.0, "schedule": [["red", 1000.0]]}
    ctx = context(road(ego={"speed": 15.0, "position": [15.0, 0.0]},
                       limit=20.0, lights=[light]))
    d = _stop_constraint_distance(ctx)
    assert d == pytest.approx((100.0 - 12.0) - (15.0 + 2.25))
    assert stop_trajectory(ctx).a_lon[0] == pytest.approx(-(15.0 ** 2) / (2 * d), abs=1e-6)


def test_stop_rate_capped_when_past_the_margin():
    light = {"lane": "right", "stop_line_s": 100.0, "schedule": [["red", 1000.0]]}
    ctx = context(road(ego={"speed": 15.0, "position": [86.0, 0.0]},
                       limit=20.0, lights=[light]))
    assert stop_trajectory(ctx).a_lon[0] == pytest.approx(-3.0, abs=1e-6)


def test_green_light_is_not_a_stop_target():
    light = {"lane": "right", "stop_line_s": 100.0, "schedule": [["green", 1000.0]]}
    ctx = context(road(lights=[light]))
    assert _stop_constraint_distance(ctx) is None


def test_stopped_vehicle_is_a_stop_target_moving_one_is_not():
    parked = {"id": "v", "kind": "vehicle", "lane": "right",
              "position": [80.0, 0.0], "heading": 0.0, "speed": 0.0,
              "length": 4.5, "width": 1.8}
    ctx = context(road(others=[parked]))
    d = _stop_constraint_distance(ctx)
    assert d == pytest.approx((80.0 - 2.25 - 12.0) - (15.0 + 2.25))
    moving = dict(parked, speed=8.0)
    assert _stop_constraint_distance(context(road(others=[moving]))) is None



def test_vehicle_standing_past_the_lane_end_is_a_stop_target_where_it_stands():
    # the one lane ends at x = 200 m; the car stands 30 m past it
    parked = {"id": "v", "kind": "vehicle", "lane": "right",
              "position": [230.0, 0.0], "heading": 0.0, "speed": 0.0,
              "length": 4.5, "width": 1.8, "behavior": {"type": "static"}}
    doc = road(n_lanes=1, length=200.0, ego={"position": [150.0, 0.0], "speed": 10.0},
               others=[parked])
    d = _stop_constraint_distance(context(doc))
    assert d == pytest.approx((230.0 - 2.25 - 12.0) - (150.0 + 2.25))   # 63.5 m


# ---------------------------------------------------------------- collision


def lead_context(ego_speed: float, lead_speed: float, gap_centers: float,
                 limit: float = 25.0) -> PlanContext:
    lead = {"id": "lead", "kind": "vehicle", "lane": "right",
            "position": [15.0 + gap_centers, 0.0], "heading": 0.0,
            "speed": lead_speed, "length": 4.5, "width": 1.8}
    return context(road(limit=limit, ego={"speed": ego_speed}, others=[lead]))


def ttc_of(traj, ctx: PlanContext) -> float:
    return time_to_collision(CandidateBlock([traj]), ctx.predictions, 4.5, 1.8)[0][0]


def test_footprint_ttc_beats_the_point_mass_estimate():
    ctx = lead_context(15.0, 10.0, 20.0)
    ttc = ttc_of(trajectories(ctx)[Maneuver.KEEP_LANE_SAME_SPEED], ctx)
    point_mass = 20.0 / (15.0 - 10.0)
    assert point_mass == pytest.approx(4.0)
    assert ttc < point_mass
    # bumpers meet when the center distance equals one vehicle length
    assert ttc == pytest.approx((20.0 - 4.5) / 5.0, abs=1e-6)


def test_footprint_ttc_matches_millisecond_sweep():
    ctx = lead_context(15.0, 10.0, 20.0)
    ttc = ttc_of(trajectories(ctx)[Maneuver.KEEP_LANE_SAME_SPEED], ctx)
    brute = math.inf
    for k in range(4001):
        t = 0.001 * k
        gap = pose_gaps(15.0 + 15.0 * t, 0.0, 0.0, 2.25, 0.9,
                        35.0 + 10.0 * t, 0.0, 0.0, 2.25, 0.9)
        if gap <= 0.0:
            brute = t
            break
    assert abs(ttc - brute) <= 0.1


def test_faster_lead_never_collides():
    ctx = lead_context(15.0, 20.0, 20.0)
    assert ttc_of(trajectories(ctx)[Maneuver.KEEP_LANE_SAME_SPEED], ctx) == math.inf


def test_lateral_separation_never_collides():
    passer = {"id": "side", "kind": "vehicle", "position": [15.0, 7.0],
              "heading": 0.0, "speed": 10.0, "length": 4.5, "width": 1.8}
    ctx = context(road(ego={"speed": 15.0}, limit=25.0, others=[passer]))
    assert ttc_of(trajectories(ctx)[Maneuver.KEEP_LANE_SAME_SPEED], ctx) == math.inf


# ---------------------------------------------------------------- filtering


def test_short_ttc_marks_collision_risk():
    # static blocker 31.5 m center to center at 15 m/s: contact at 1.8 s
    blocker = {"id": "wall", "kind": "obstacle", "position": [46.5, 0.0],
               "heading": 0.0, "speed": 0.0, "length": 4.5, "width": 1.8}
    ctx = context(road(n_lanes=1, ego={"speed": 15.0}, limit=20.0,
                       others=[blocker]))
    cands, rules, min_ttc = filtered(ctx)
    assert not cands[Maneuver.KEEP_LANE_SAME_SPEED].feasible
    assert rules[Maneuver.KEEP_LANE_SAME_SPEED] == {"ttc"}   # planted: TTC alone
    assert min_ttc[Maneuver.KEEP_LANE_SAME_SPEED] == pytest.approx(1.8, abs=1e-3)
    assert min_ttc[Maneuver.KEEP_LANE_SAME_SPEED] < ctx.config.ttc_min_s
    assert min_ttc[Maneuver.CHANGE_LANE_LEFT] == math.inf   # no row


def test_ttc_names_the_road_user_that_overlaps_first():
    # two blockers ahead at 15 m/s, the farther one listed first: contact with
    # "near" at 1.8 s, with "far" (behind it) only later
    far = {"id": "far", "kind": "obstacle", "position": [60.0, 0.0],
           "heading": 0.0, "speed": 0.0, "length": 4.5, "width": 1.8}
    near = dict(far, id="near", position=[46.5, 0.0])
    ctx = context(road(n_lanes=1, ego={"speed": 15.0}, limit=20.0, others=[far, near]))
    assert ctx.predictions.ids == ["far", "near"]
    block, cands = enumerate_candidates(ctx)
    ttc, who = time_to_collision(block.take([c.row for c in cands if c.row is not None]),
                                 ctx.predictions, 4.5, 1.8)
    assert np.isfinite(ttc).any() and set(who[np.isfinite(ttc)].tolist()) == {1}
    assert set(who[~np.isfinite(ttc)].tolist()) <= {-1}
    decision = plan_tick(ctx)
    agents = {c.maneuver: a for c, a in zip(decision.candidates, decision.ttc_agent)}
    assert agents[Maneuver.KEEP_LANE_SAME_SPEED] == "near"
    assert agents[Maneuver.CHANGE_LANE_LEFT] is None          # no row
    for c, a, t in zip(decision.candidates, decision.ttc_agent, decision.min_ttc.tolist()):
        assert (a is None) == (t == math.inf), c.maneuver


def test_the_rule_matrix_names_every_rule_a_candidate_breaks():
    # at the limit and 1.8 s from a blocker: accelerating breaks both rules
    blocker = {"id": "wall", "kind": "obstacle", "position": [46.5, 0.0],
               "heading": 0.0, "speed": 0.0, "length": 4.5, "width": 1.8}
    ctx = context(road(n_lanes=1, ego={"speed": 15.0}, limit=15.0, others=[blocker]))
    _, rules, min_ttc = filtered(ctx)
    assert rules[Maneuver.KEEP_LANE_ACCELERATE] == {"accelerate_at_limit", "ttc"}
    assert rules[Maneuver.KEEP_LANE_SAME_SPEED] == {"ttc"}
    assert min_ttc[Maneuver.KEEP_LANE_ACCELERATE] < ctx.config.ttc_min_s


def test_solid_boundary_blocks_the_lane_change():
    cands, rules, _ = filtered(context(road(left_boundary="solid")))
    assert not cands[Maneuver.CHANGE_LANE_LEFT].feasible
    assert rules[Maneuver.CHANGE_LANE_LEFT] == {"solid_line"}   # planted: the boundary alone


def test_red_light_crossing_is_infeasible():
    light = {"lane": "right", "stop_line_s": 150.0, "schedule": [["red", 1000.0]]}
    cands, rules, _ = filtered(context(road(ego={"position": [130.0, 0.0]}, lights=[light])))
    assert not cands[Maneuver.KEEP_LANE_SAME_SPEED].feasible
    assert rules[Maneuver.KEEP_LANE_SAME_SPEED] == {"red_light"}


@pytest.mark.parametrize("schedule, broken", [
    ([["red", 1000.0]], True),                     # red now
    ([["green", 3.0], ["red", 1000.0]], True),     # red by the entry at 3.7 s
    ([["green", 5.0], ["red", 1000.0]], False),    # still green at the entry
])
def test_entering_a_red_lights_hold_zone_is_infeasible(schedule, broken):
    # planted: at 10 m/s from x = 100 m the bumper (102.25 m) enters the hold
    # zone, which begins 11.5 m before the stop line, at 3.7 s, and ends the
    # horizon short of the line itself, at 142.25 m
    light = {"lane": "right", "stop_line_s": 150.0, "schedule": schedule}
    ctx = context(road(ego={"position": [100.0, 0.0], "speed": 10.0}, lights=[light]))
    kls = trajectories(ctx)[Maneuver.KEEP_LANE_SAME_SPEED]
    assert 142.0 < kls.x[-1] + 2.25 < 150.0
    cands, rules, _ = filtered(ctx)
    assert rules[Maneuver.KEEP_LANE_SAME_SPEED] == ({"red_light"} if broken else set())
    assert cands[Maneuver.KEEP_LANE_SAME_SPEED].feasible is not broken


def test_a_start_above_the_target_lanes_limit_breaks_the_speed_rule():
    # planted: at 20 m/s into a lane limited to 10 m/s, the lane change holds
    # its speed instead of starting at 10 m/s, and only the speed rule rejects it
    doc = road(ego={"speed": 20.0}, limit=25.0)
    doc["lanes"][1]["speed_limit"] = 10.0
    ctx = context(doc)
    change = trajectories(ctx)[Maneuver.CHANGE_LANE_LEFT]
    assert np.all(change.speed == 20.0) and np.all(change.a_lon == 0.0)
    cands, rules, _ = filtered(ctx)
    assert not cands[Maneuver.CHANGE_LANE_LEFT].feasible
    assert rules[Maneuver.CHANGE_LANE_LEFT] == {"speed"}
    assert rules[Maneuver.KEEP_LANE_SAME_SPEED] == set()


def test_a_missing_lane_breaks_only_the_no_lane_rule():
    cands, rules, min_ttc = filtered(context(road()))
    assert rules[Maneuver.CHANGE_LANE_RIGHT] == {"no_lane"}
    assert min_ttc[Maneuver.CHANGE_LANE_RIGHT] == math.inf
    assert not cands[Maneuver.CHANGE_LANE_RIGHT].feasible


CROSSWALK = {"lanes": ["right"], "span": [100.0, 103.0]}
# on the crosswalk's right edge at 0 s, walking off the road
LEAVING = {"id": "ped", "kind": "pedestrian", "position": [101.5, -1.6],
           "heading": -math.pi / 2, "speed": 1.4, "length": 0.6, "width": 0.6}


def test_entering_an_occupied_crosswalk_is_infeasible():
    # planted: the bumper reaches the hold margin at about 2.7 s, when the
    # walker is long off the road, so the occupancy now alone rejects it
    ctx = context(road(n_lanes=1, ego={"position": [60.0, 0.0]}, others=[LEAVING],
                       crosswalks=[CROSSWALK]))
    assert ctx.crosswalk_occupancy[0][0] and not ctx.crosswalk_occupancy[0][-1]
    cands, rules, min_ttc = filtered(ctx)
    assert rules[Maneuver.KEEP_LANE_SAME_SPEED] == {"crosswalk"}
    assert min_ttc[Maneuver.KEEP_LANE_SAME_SPEED] == math.inf
    assert rules[Maneuver.STOP] == set() and cands[Maneuver.STOP].feasible
    # the same drive with the crosswalk empty breaks no rule
    empty = context(road(n_lanes=1, ego={"position": [60.0, 0.0]}, crosswalks=[CROSSWALK]))
    assert filtered(empty)[1][Maneuver.KEEP_LANE_SAME_SPEED] == set()


def test_standing_at_the_crosswalk_hold_line_breaks_no_rule():
    # planted: the bumper stands 0.2 m past the hold line, 0.8 m short of the
    # occupied span; staying or stopping there is not an entry
    ctx = context(road(n_lanes=1, ego={"position": [96.95, 0.0], "speed": 0.0},
                       others=[LEAVING], crosswalks=[CROSSWALK]))
    assert ctx.crosswalk_occupancy[0][0]
    cands, rules, _ = filtered(ctx)
    for m in (Maneuver.KEEP_LANE_SAME_SPEED, Maneuver.STOP):
        assert rules[m] == set() and cands[m].feasible, m


def test_accelerating_from_the_crosswalk_hold_line_enters_it():
    # planted: the bumper stands 0.2 m past the hold line with a walker
    # standing on the span at the lane's right edge, clear of the ego's path;
    # a row that starts at rest there is parked only while its front never
    # advances, so accelerating drives into the occupied crosswalk
    standing = dict(LEAVING, speed=0.0)
    ctx = context(road(n_lanes=1, ego={"position": [96.95, 0.0], "speed": 0.0},
                       others=[standing], crosswalks=[CROSSWALK]))
    assert ctx.crosswalk_occupancy[0].all()
    cands, rules, _ = filtered(ctx)
    assert rules[Maneuver.KEEP_LANE_ACCELERATE] == {"crosswalk"}
    assert not cands[Maneuver.KEEP_LANE_ACCELERATE].feasible
    for m in (Maneuver.KEEP_LANE_SAME_SPEED, Maneuver.STOP):
        assert rules[m] == set() and cands[m].feasible, m


def test_stop_survives_as_fallback_when_nothing_is_feasible():
    blocker = {"id": "wall", "kind": "obstacle", "position": [27.0, 0.0],
               "heading": 0.0, "speed": 0.0, "length": 4.5, "width": 1.8}
    ctx = context(road(n_lanes=1, ego={"speed": 13.89}, others=[blocker]))
    cands, rules, _ = filtered(ctx)
    assert cands[Maneuver.STOP].feasible and rules[Maneuver.STOP]
    assert all(not c.feasible for m, c in cands.items() if m is not Maneuver.STOP)
    decision = plan_tick(ctx)
    assert decision.maneuver is Maneuver.STOP and decision.fallback


def test_rule_columns_project_each_lane_once(monkeypatch):
    # a red light and an occupied crosswalk ahead on the ego's lane, and the
    # neighbour lane: one array projection of the plan's rows per lane concerned
    light = {"lane": "right", "stop_line_s": 150.0, "schedule": [["red", 1000.0]]}
    for doc, lanes in ((road(ego={"position": [60.0, 0.0]}, others=[LEAVING], lights=[light],
                             crosswalks=[CROSSWALK]), 1),
                       (road(ego={"position": [60.0, 0.0]}, others=[LEAVING], lights=[light],
                             crosswalks=[dict(CROSSWALK, lanes=["right", "left"])]), 1),
                       (road(ego={"position": [120.0, 0.0]},
                             lights=[light, dict(light, lane="left")]), 2)):
        ctx = context(doc)
        block, cands = enumerate_candidates(ctx)
        calls = []
        project = Polyline.project
        monkeypatch.setattr(Polyline, "project", lambda self, p: calls.append(
            np.ndim(p)) or project(self, p))
        broken, _, _ = feasibility_filter(ctx, block, cands)
        monkeypatch.undo()
        assert calls == [2] * lanes
        assert broken[:, [RULES.index("red_light"), RULES.index("crosswalk")]].any()


def test_filter_always_leaves_a_feasible_candidate():
    rng = np.random.default_rng(43)
    for _ in range(30):
        others = []
        for i in range(rng.integers(0, 4)):
            others.append({
                "id": f"o{i}", "kind": "obstacle",
                "position": [float(rng.uniform(20.0, 120.0)),
                             float(rng.uniform(-1.0, 4.5))],
                "heading": 0.0, "speed": 0.0,
                "length": 4.5, "width": 1.8,
            })
        doc = road(n_lanes=int(rng.integers(1, 3)),
                   ego={"speed": float(rng.uniform(0.0, 13.89))},
                   others=others)
        cands, _, _ = filtered(context(doc))
        assert any(c.feasible for c in cands.values())


def test_lane_change_tuple_matches_enum():
    assert LANE_CHANGES == (Maneuver.CHANGE_LANE_LEFT, Maneuver.CHANGE_LANE_RIGHT)


# ---------------------------------------------------------------- one sampler call


def per_path_reference(ctx: PlanContext) -> list:
    """The six candidates as sampled one path per call: each lane change's
    probe alone, and a stretched path built only once its probe hits a lead."""
    cfg, ego, lane, block = ctx.config, ctx.ego, ctx.lane, ctx.predictions

    def along(target, blend, span):
        s0, d0 = target.centerline.project((ego.x, ego.y))
        return lane_path(target, s0, d0, ego.heading, blend, span)

    def sample(path, profile, horizon):
        traj, = sample_trajectory([(path, profile, horizon)], cfg.dt)
        return traj

    duration = cfg.lane_change_duration_s
    horizon = max(duration, cfg.planning_horizon_s)
    v = max(ego.speed, 1.0)
    blend = v * duration
    tail = v * (horizon - duration) + 5.0
    targets = {Maneuver.CHANGE_LANE_LEFT: lane.left_neighbor,
               Maneuver.CHANGE_LANE_RIGHT: lane.right_neighbor}
    paths = {m: along(ctx.scenario.lanes[t], blend, blend + tail)
             for m, t in targets.items() if t is not None}
    stretched = dict.fromkeys(paths, False)
    if paths and block.vehicle_like.any():
        s_ego, _ = lane.centerline.project((ego.x, ego.y))
        s_obj, _ = lane.centerline.project(np.column_stack([block.x[:, 0], block.y[:, 0]]))
        leads = block.vehicle_like & (s_obj > s_ego)
        if leads.any():
            probes = CandidateBlock([sample(p, SpeedProfile(v, 0.0), duration)
                                     for p in paths.values()])
            hits = block.corridor_hits(probes, ego.length, ego.width, cfg)
            stretched = dict(zip(paths, np.any(hits[:, leads], axis=1).tolist()))
    out = []
    for m, target_id in targets.items():
        if target_id is None:
            out.append((m, None, False, None))
            continue
        target = ctx.scenario.lanes[target_id]
        path = paths[m]
        if stretched[m]:
            wide = blend * cfg.lane_change_stretch
            path = along(target, wide, wide + tail)
        cap = min(lane.speed_limit, target.speed_limit)
        out.append((m, target_id, stretched[m], sample(path, SpeedProfile(ego.speed, 0.0, cap),
                                                        horizon)))
    span = max(lane.speed_limit, ego.speed) * cfg.planning_horizon_s + 5.0
    keep = along(lane, span, span)
    for m, a in ((Maneuver.KEEP_LANE_ACCELERATE, cfg.accel_keep_lane),
                 (Maneuver.KEEP_LANE_SAME_SPEED, 0.0),
                 (Maneuver.KEEP_LANE_DECELERATE, -cfg.decel_keep_lane),
                 (Maneuver.STOP, -_stop_decel(ctx))):
        out.append((m, ego.lane, False, sample(keep, SpeedProfile(ego.speed, a, lane.speed_limit),
                                               cfg.planning_horizon_s)))
    return out


def assert_matches_reference(ctx: PlanContext) -> list:
    """Compare each candidate's row of the plan's block, bitwise, with its
    sampling in `per_path_reference`; returns the stretched flags."""
    block, got = enumerate_candidates(ctx)
    for cand in got:
        if cand.row is not None:
            assert_row_is_its_lone_block(block, cand.row)
    want = per_path_reference(ctx)
    assert [c.maneuver for c in got] == [m for m, _, _, _ in want]
    for cand, (m, target, stretched, traj) in zip(got, want):
        assert (cand.target_lane, cand.stretched) == (target, stretched), m
        if traj is None:
            assert cand.row is None
            continue
        for name in ("t", "x", "y", "heading", "speed", "a_lon", "a_lat"):
            assert np.array_equal(getattr(block[cand.row], name), getattr(traj, name)), (m, name)
    return [c.stretched for c in got]


def busy_highway_contexts(cfg: PlannerConfig, times=(0.0, 5.0, 10.0), **ego) -> list:
    """Contexts of a cor-mp drive of `busy_highway` at `times`, each checked
    against the reference as the drive reaches it."""
    doc = json.loads((SCENARIO_DIR / "busy_highway.json").read_text())
    doc["agents"][0].update(ego)
    sc = load_scenario(doc)
    flags = []

    class Checked(CorMpPlanner):
        def plan(self, scenario, sim_time):
            if any(abs(sim_time - t) < 1e-9 for t in times):
                flags.append(assert_matches_reference(plan_context(scenario, cfg, sim_time)))
            return super().plan(scenario, sim_time)

    run(dataclasses.replace(sc, duration_s=max(times) + 0.05), Checked(cfg, sc.profile), cfg)
    return flags


def test_enumerate_matches_the_per_path_reference_bitwise():
    cfg = PlannerConfig()
    flags = busy_highway_contexts(cfg)
    assert len(flags) == 4                          # the warm-up call, then t = 0, 5, 10 s
    flags += busy_highway_contexts(cfg, (0.0,), speed=0.0)     # a standing start
    flags += busy_highway_contexts(cfg, (0.0,), speed=27.0)    # above the 25 m/s limit
    # a lane change shorter than the horizon: the probe has its own row
    flags += busy_highway_contexts(PlannerConfig(lane_change_duration_s=3.0), (0.0,))
    arc = CURVED["arc_left_overtake_r140"]                    # a slow lead ahead
    for speed in (arc["agents"][0]["speed"], 0.0):
        doc = dict(arc, agents=[dict(arc["agents"][0], speed=speed), *arc["agents"][1:]])
        flags.append(assert_matches_reference(context(doc)))
    assert any(any(f) for f in flags)               # some lane change was stretched
    # no plan row above runs out of path: rows along the arc's keep-lane path
    # that do, at different ticks, next to one that does not and a 1-sample one
    ctx = context(arc)
    span = max(ctx.lane.speed_limit, ctx.ego.speed) * cfg.planning_horizon_s + 5.0
    keep = lane_path(ctx.lane, *ctx.ego_position, ctx.ego.heading, span, span)
    block = sample_trajectory([(keep, SpeedProfile(v, 0.0), 10.0) for v in (40.0, 25.0)]
                              + [(keep, SpeedProfile(5.0, 0.0), 4.0),
                                 (keep, SpeedProfile(5.0, 0.0), 0.0)], 0.1)
    lengths = [len(traj) for traj in block]
    assert lengths[2:] == [41, 1] and lengths[0] < lengths[1] < 101
    for row in range(len(block)):
        assert_row_is_its_lone_block(block, row)


def test_one_sampler_call_per_decision_and_no_path_after_it(monkeypatch):
    calls = []
    for name in ("sample_trajectory", "lane_path"):
        fn = getattr(identification, name)
        monkeypatch.setattr(identification, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    project = Polyline.project
    monkeypatch.setattr(Polyline, "project", lambda self, p: calls.append(
        "scalar_project" if np.ndim(p) == 1 else "project") or project(self, p))
    # no `Polyline` built, one corridor pass at most, and no block stacked
    # from a list of trajectories
    counted = {(Polyline, "__init__"): "polyline",
               (PredictionBlock, "corridor_hits"): "corridor",
               (CandidateBlock, "__init__"): "list_block"}
    for (owner, name), tag in counted.items():
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, fn=fn, tag=tag: calls.append(tag) or fn(*a))
    blocker = {"id": "slow", "kind": "vehicle", "lane": "right", "position": [35.0, 0.0],
               "heading": 0.0, "speed": 2.0, "length": 4.5, "width": 1.8}
    oncoming = dict(blocker, id="oncoming", lane=None, position=[60.0, 0.0], heading=math.pi)
    for doc, lanes in ((road(others=[blocker]), 2), (road(n_lanes=1), 1),
                       (road(n_lanes=1, others=[oncoming]), 1),
                       (CURVED["arc_left_overtake_r140"], 2)):
        ctx = context(doc)
        calls.clear()
        plan_tick(ctx)
        assert calls.count("sample_trajectory") == 1
        assert "lane_path" not in calls[calls.index("sample_trajectory"):]
        # one projection of the ego per lane: its own and each neighbour
        assert calls.count("scalar_project") == lanes
        tags = Counter(calls)
        assert (tags["polyline"], tags["list_block"]) == (0, 0)
        assert tags["corridor"] == 1   # the lead probe and crowdedness share it


@pytest.mark.parametrize("name", ["overtake_static", "busy_highway"])
def test_road_users_are_projected_onto_the_ego_lane_once_per_plan(name, monkeypatch):
    # the standing-vehicle stop target and the lane-change lead read one
    # projection of every road user's first sample, and the stop target and
    # the keep-lane path one of the ego
    ctx = plan_context(load(name), PlannerConfig(), 0.0)
    line, real, calls = ctx.lane.centerline, Polyline.project, []

    def spy(self, p):
        if self is line:
            calls.append(len(p) if np.ndim(p) == 2 else "ego")
        return real(self, p)

    monkeypatch.setattr(Polyline, "project", spy)
    enumerate_candidates(ctx)
    assert Counter(calls) == Counter(["ego", len(ctx.predictions.vehicle_like)])
