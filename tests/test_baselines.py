import math

import numpy as np
import pytest

from conftest import timed_run
from cormp import baselines
from cormp import planner as planner_module
from cormp.baselines import (
    IdmParams,
    MobilParams,
    MobilPlanner,
    UtilityPlanner,
    find_neighbors,
    idm_accel,
    make_planner,
)
from cormp.config import PlannerConfig
from cormp.identification import LANE_CHANGES, Maneuver
from cormp.planner import CorMpPlanner
from cormp.resources import ResourceType, profile_weights
from cormp.scenario import load_scenario
from cormp.simulator import run

IDM = IdmParams()


# ---------------------------------------------------------------- IDM


def test_idm_is_balanced_at_the_desired_speed():
    assert idm_accel(15.0, 15.0, None) == pytest.approx(0.0, abs=1e-12)


def test_idm_pulls_away_from_rest():
    assert idm_accel(0.0, 15.0, None) == pytest.approx(IDM.a_max, abs=1e-12)


def test_idm_at_the_equilibrium_gap_matches_the_formula():
    # dv = 0 so s* = s0 + v T = 2 + 15 = 17; interaction term is exactly 1
    v, v_des, gap = 10.0, 15.0, 17.0
    expected = IDM.a_max * (1.0 - (v / v_des) ** 4 - 1.0)
    assert idm_accel(v, v_des, gap, 0.0) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(-24.0 / 81.0, abs=1e-12)


def test_idm_closing_speed_term():
    v, v_des, gap, dv = 10.0, 15.0, 30.0, 2.0
    s_star = IDM.min_gap_m + v * IDM.headway_s + v * dv / (
        2.0 * math.sqrt(IDM.a_max * IDM.b_comf))
    expected = IDM.a_max * (1.0 - (v / v_des) ** 4 - (s_star / gap) ** 2)
    assert idm_accel(v, v_des, gap, dv) == pytest.approx(expected, abs=1e-12)


def test_idm_free_road_follows_the_speed_term():
    for v in (0.0, 5.0, 10.0, 13.0):
        expected = IDM.a_max * (1.0 - (v / 13.89) ** 4)
        assert idm_accel(v, 13.89, None) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------- neighbors


def neighbor_scenario():
    return load_scenario({
        "duration_s": 10.0, "apriori_lane": "main",
        "lanes": [{"id": "main", "centerline": [[0.0, 0.0], [300.0, 0.0]],
                   "width": 3.5, "speed_limit": 13.89}],
        "agents": [
            {"id": "ego", "kind": "ego", "position": [50.0, 0.0], "heading": 0.0,
             "speed": 10.0, "length": 4.5, "width": 1.8, "lane": "main"},
            {"id": "ahead", "kind": "vehicle", "position": [80.0, 0.0],
             "heading": 0.0, "speed": 8.0, "length": 4.5, "width": 1.8,
             "lane": "main"},
            {"id": "behind", "kind": "vehicle", "position": [20.0, 0.0],
             "heading": 0.0, "speed": 12.0, "length": 4.5, "width": 1.8,
             "lane": "main"},
            {"id": "walker", "kind": "pedestrian", "position": [60.0, 0.0],
             "heading": 1.5707963, "speed": 0.0, "length": 0.6, "width": 0.6},
            {"id": "aside", "kind": "vehicle", "position": [70.0, 3.0],
             "heading": 0.0, "speed": 10.0, "length": 4.5, "width": 1.8},
        ],
    })


def test_find_neighbors_reports_bumper_gaps():
    sc = neighbor_scenario()
    lane = sc.lanes["main"]
    lead, lead_gap, follower, follower_gap = find_neighbors(
        sc.agents, lane, 50.0, 4.5 / 2.0, "ego")
    assert lead.id == "ahead"
    assert lead_gap == pytest.approx(30.0 - 4.5, abs=1e-9)
    assert follower.id == "behind"
    assert follower_gap == pytest.approx(30.0 - 4.5, abs=1e-9)


def test_find_neighbors_skips_pedestrians_and_off_lane_agents():
    sc = neighbor_scenario()
    lane = sc.lanes["main"]
    lead, _, _, _ = find_neighbors(sc.agents, lane, 50.0, 2.25, "ego")
    assert lead.id == "ahead"  # walker at s=60 and the off-lane car are ignored


# ---------------------------------------------------------------- MOBIL


def two_lane_doc(agents, limit=13.89):
    return load_scenario({
        "duration_s": 20.0, "apriori_lane": "right",
        "lanes": [
            {"id": "right", "centerline": [[0.0, 0.0], [600.0, 0.0]],
             "width": 3.5, "speed_limit": limit, "left_neighbor": "left",
             "left_boundary": "dashed", "right_boundary": "solid"},
            {"id": "left", "centerline": [[0.0, 3.5], [600.0, 3.5]],
             "width": 3.5, "speed_limit": limit, "right_neighbor": "right",
             "left_boundary": "solid", "right_boundary": "dashed"},
        ],
        "agents": [{"id": "ego", "kind": "ego", "position": [15.0, 0.0],
                    "heading": 0.0, "speed": 12.0, "length": 4.5, "width": 1.8,
                    "lane": "right"}] + list(agents),
    })


def car(cid, x, y, speed, lane):
    return {"id": cid, "kind": "vehicle", "position": [x, y], "heading": 0.0,
            "speed": speed, "length": 4.5, "width": 1.8, "lane": lane}


def test_mobil_overtakes_a_slow_lead_into_an_empty_lane():
    sc = two_lane_doc([car("slow", 35.0, 0.0, 5.0, "right")])
    planner = MobilPlanner(PlannerConfig())
    result = planner.plan(sc, 0.0)
    assert result.maneuver is Maneuver.CHANGE_LANE_LEFT
    follow_up = planner.plan(sc, 0.5)
    assert follow_up.committed  # the change is held until its duration runs out


def test_mobil_respects_the_new_follower():
    sc = two_lane_doc([car("slow", 35.0, 0.0, 5.0, "right"),
                       car("fast", 5.0, 3.5, 25.0, "left")])
    result = MobilPlanner(PlannerConfig()).plan(sc, 0.0)
    assert result.maneuver not in LANE_CHANGES


def test_mobil_stays_put_without_a_lead():
    sc = two_lane_doc([])
    result = MobilPlanner(PlannerConfig()).plan(sc, 0.0)
    assert result.maneuver not in LANE_CHANGES
    assert result.maneuver is Maneuver.KEEP_LANE_ACCELERATE  # below the limit


def test_mobil_drives_on_past_the_lane_end():
    # red_light's one lane ends at x = 400 m, which MOBIL (blind to the
    # light) passes before the drive ends: its keep-lane path must lead on
    # from the pose, not back to the lane end
    _, log, _ = timed_run("red_light", "mobil")
    x = log.column("ego_x")
    assert x.max() > 420.0
    assert np.all(np.diff(x) >= 0.0)
    assert np.all(np.cos(log.column("ego_heading")) > 0.0)


@pytest.mark.parametrize("behavior", [{"speed": 3.0}, {"speed": 0.0, "behavior": {"type": "static"}}],
                         ids=["slow", "standing"])
def test_mobil_sees_a_lead_past_the_lane_end(behavior):
    # the one lane ends at x = 200 m and the car ahead is 30 m past it
    sc = load_scenario({
        "duration_s": 12.0, "apriori_lane": "main",
        "lanes": [{"id": "main", "centerline": [[0.0, 0.0], [200.0, 0.0]],
                   "width": 3.5, "speed_limit": 13.89}],
        "agents": [{"id": "ego", "kind": "ego", "position": [150.0, 0.0], "heading": 0.0,
                    "speed": 10.0, "length": 4.5, "width": 1.8, "lane": "main"},
                   dict(car("car", 230.0, 0.0, 3.0, "main"), **behavior)],
    })
    cfg = PlannerConfig()
    log = run(sc, make_planner("mobil", cfg, sc.profile), cfg)
    assert log.count_events("collision") == 0


def test_mobil_politeness_zero_is_purely_egoistic():
    # small ego gain (free left lane vs a distant same-speed lead), large
    # cost for the new follower: the polite driver stays, the egoist goes
    sc = load_scenario({
        "duration_s": 20.0, "apriori_lane": "right",
        "lanes": [
            {"id": "right", "centerline": [[0.0, 0.0], [600.0, 0.0]],
             "width": 3.5, "speed_limit": 13.89, "left_neighbor": "left",
             "left_boundary": "dashed", "right_boundary": "solid"},
            {"id": "left", "centerline": [[0.0, 3.5], [600.0, 3.5]],
             "width": 3.5, "speed_limit": 13.89, "right_neighbor": "right",
             "left_boundary": "solid", "right_boundary": "dashed"},
        ],
        "agents": [
            {"id": "ego", "kind": "ego", "position": [100.0, 0.0],
             "heading": 0.0, "speed": 10.0, "length": 4.5, "width": 1.8,
             "lane": "right"},
            car("lead", 160.0, 0.0, 10.0, "right"),
            car("fol", 75.0, 3.5, 12.0, "left"),
        ],
    })
    polite = MobilPlanner(PlannerConfig())
    selfish = MobilPlanner(PlannerConfig(), mobil=MobilParams(politeness=0.0))
    assert polite.plan(sc, 0.0).maneuver not in LANE_CHANGES
    assert selfish.plan(sc, 0.0).maneuver is Maneuver.CHANGE_LANE_LEFT


def test_mobil_politeness_weighs_the_old_followers_relief():
    # no lead on either lane, so the ego gains nothing by changing; a faster
    # follower 20 m behind it brakes hard now and drives free once it leaves:
    # the relief alone moves the polite driver, and the egoist stays
    sc = two_lane_doc([car("fol", 75.5, 0.0, 12.0, "right")])
    sc.ego.x, sc.ego.speed = 100.0, 10.0
    polite = MobilPlanner(PlannerConfig())
    selfish = MobilPlanner(PlannerConfig(), mobil=MobilParams(politeness=0.0))
    assert polite.plan(sc, 0.0).maneuver is Maneuver.CHANGE_LANE_LEFT
    assert selfish.plan(sc, 0.0).maneuver not in LANE_CHANGES


def test_mobil_finds_the_current_lanes_neighbors_once_per_plan(monkeypatch):
    # the ego's own-lane terms do not depend on the target lane: one search
    # on its lane serves both sides
    doc = {
        "duration_s": 10.0, "apriori_lane": "mid",
        "lanes": [{"id": lane, "centerline": [[0.0, y], [600.0, y]], "width": 3.5,
                   "speed_limit": 13.89, "left_neighbor": left, "right_neighbor": right,
                   "left_boundary": "dashed" if left else "solid",
                   "right_boundary": "dashed" if right else "solid"}
                  for lane, y, left, right in (("right", -3.5, "mid", None),
                                               ("mid", 0.0, "left", "right"),
                                               ("left", 3.5, None, "mid"))],
        "agents": [{"id": "ego", "kind": "ego", "position": [100.0, 0.0], "heading": 0.0,
                    "speed": 10.0, "length": 4.5, "width": 1.8, "lane": "mid"},
                   car("lead", 130.0, 0.0, 5.0, "mid"), car("fol", 80.0, 0.0, 10.0, "mid")],
    }
    calls = []

    def counted(agents, lane, s_ref, ref_half_len, exclude):
        calls.append((lane.id, exclude))
        return find_neighbors(agents, lane, s_ref, ref_half_len, exclude)

    monkeypatch.setattr(baselines, "find_neighbors", counted)
    MobilPlanner(PlannerConfig()).plan(load_scenario(doc), 0.0)
    assert sorted(calls) == [("left", "ego"), ("mid", "ego"), ("right", "ego")]


def test_mobil_builds_the_interacting_agents_once_per_fresh_plan(monkeypatch):
    # the neighbour search and the predictions share one list; a committed
    # call builds none
    calls = []
    for module in (baselines, planner_module):
        fn = module.interacting_agents
        monkeypatch.setattr(module, "interacting_agents",
                            lambda *a, fn=fn: calls.append(1) or fn(*a))
    planner = MobilPlanner(PlannerConfig())
    for sc, maneuvers in ((two_lane_doc([car("slow", 35.0, 0.0, 5.0, "right")]),
                           [Maneuver.CHANGE_LANE_LEFT, Maneuver.CHANGE_LANE_LEFT]),
                          (two_lane_doc([]), [Maneuver.KEEP_LANE_ACCELERATE])):
        planner.reset()
        for k, maneuver in enumerate(maneuvers):
            calls.clear()
            result = planner.plan(sc, 0.5 * k)
            assert result.maneuver is maneuver
            assert len(calls) == (0 if result.committed else 1)


# ---------------------------------------------------------------- utility


def test_utility_weights_cover_four_resources_equally():
    w = UtilityPlanner.UTILITY_WEIGHTS
    assert w[ResourceType.SAFETY] == w[ResourceType.COMFORT] \
        == w[ResourceType.OBJECTIVE] == w[ResourceType.APRIORI_LANE] == 0.25
    assert w[ResourceType.ENERGY] == w[ResourceType.CROWDEDNESS] == 0.0
    assert sum(w.values()) == pytest.approx(1.0)


def test_utility_ignores_energy_and_crowdedness(weigh):
    w = UtilityPlanner.UTILITY_WEIGHTS
    a, b = weigh([[0.5, 0.5, 0.5, 0.5, 0.0, 0.0],
                  [0.5, 0.5, 0.5, 0.5, 1.0, 1.0]], w).profits.values()
    assert a == b == pytest.approx(0.5)


def test_utility_and_resource_scoring_agree_under_dominance(weigh):
    # when one candidate beats another on every shared resource (and the
    # unshared ones are equal), both scorers must pick the same winner
    rng = np.random.default_rng(11)
    regular = profile_weights("regular")
    flat = UtilityPlanner.UTILITY_WEIGHTS
    for _ in range(100):
        low = rng.uniform(0.0, 0.8, 4)
        high = low + rng.uniform(0.01, 0.2, 4)
        tail = rng.uniform(0.0, 1.0, 2)
        weak = list(low) + list(tail)
        strong = list(high) + list(tail)
        for weights in (regular, flat):
            p_strong, p_weak = weigh([strong, weak], weights).profits.values()
            assert p_strong > p_weak


def test_utility_tie_breaks_like_the_primary_planner(weigh):
    shared = [0.7, 0.7, 0.7, 0.7, 0.2, 0.9]
    flat = UtilityPlanner.UTILITY_WEIGHTS
    decision = weigh([shared, shared], flat,
                     (Maneuver.KEEP_LANE_ACCELERATE, Maneuver.KEEP_LANE_SAME_SPEED))
    assert decision.tie_break_applied
    assert decision.maneuver is Maneuver.KEEP_LANE_SAME_SPEED


def test_highway_split_between_planners():
    # the resource planner overtakes the slow truck; the flat-utility planner
    # has no incentive to leave the mission lane and sits behind it
    _, cor_log, _ = timed_run("highway")
    _, util_log, _ = timed_run("highway", "utility")
    assert cor_log.count_events("lane_change_started") >= 1
    assert util_log.count_events("lane_change_started") == 0
    cor_speed = float(np.mean(cor_log.column("ego_speed").astype(float)))
    util_speed = float(np.mean(util_log.column("ego_speed").astype(float)))
    assert cor_speed > util_speed + 1.0


# ---------------------------------------------------------------- registry


def test_make_planner_registry():
    cfg = PlannerConfig()
    assert isinstance(make_planner("cor-mp", cfg, "regular"), CorMpPlanner)
    assert isinstance(make_planner("mobil", cfg, "regular"), MobilPlanner)
    assert isinstance(make_planner("utility", cfg, "regular"), UtilityPlanner)
    assert make_planner("cor-mp", cfg, "aggressive").profile == "aggressive"
    with pytest.raises(ValueError):
        make_planner("dijkstra", cfg, "regular")
