"""`SimWorld.detect_collisions` tests the separating-axis gap only on road
users within reach of the ego, and agrees with the full scan of
`collision_oracle` tick by tick."""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

import cormp.kernels
from collision_oracle import collisions_oracle
from cormp.config import PlannerConfig
from cormp.kernels import REACH_MARGIN
from cormp.scenario import load_scenario
from cormp.simulator import SimWorld

MODES = ("far", "reach_out", "reach_in", "corner", "near")


def contact_world(ego_size: tuple, sizes: list) -> SimWorld:
    """An ego and one standing obstacle per (length, width) of `sizes`, on an
    empty lane; the tests move them by hand."""
    def agent(name, kind, size):
        return {"id": name, "kind": kind, "position": [0.0, 0.0], "heading": 0.0,
                "speed": 0.0, "length": size[0], "width": size[1]}

    return SimWorld(load_scenario({
        "duration_s": 1.0, "apriori_lane": "main",
        "lanes": [{"id": "main", "centerline": [[0.0, 0.0], [100.0, 0.0]], "width": 3.5,
                   "speed_limit": 13.89}],
        "agents": [{**agent("ego", "ego", ego_size), "lane": "main"}]
                  + [agent(f"obj{k}", "obstacle", size) for k, size in enumerate(sizes)],
    }), PlannerConfig())


def place(world: SimWorld, agent, mode: str, angle: float, heading: float, f: float) -> None:
    """Put `agent` relative to the ego: `far` beyond reach by 5-105 m, `reach_out`
    and `reach_in` at reach +- 1e-6 m, `corner` with a corner on one of the ego's
    and both diagonals on one line (centers ra + rb apart), `near` at f x reach."""
    ego = world.ego
    ra = math.hypot(ego.length / 2.0, ego.width / 2.0)
    rb = math.hypot(agent.length / 2.0, agent.width / 2.0)
    reach = ra + rb + REACH_MARGIN
    if mode == "corner":
        diagonal = math.atan2(ego.width, ego.length)
        angle = ego.heading + (diagonal, math.pi - diagonal, math.pi + diagonal,
                               -diagonal)[int(4 * f) % 4]
        distance = ra + rb
        heading = angle + math.pi - math.atan2(agent.width, agent.length)
    else:
        distance = {"far": reach + 5.0 + 100.0 * f, "reach_out": reach + 1e-6,
                    "reach_in": reach - 1e-6, "near": f * reach}[mode]
    agent.x = ego.x + distance * math.cos(angle)
    agent.y = ego.y + distance * math.sin(angle)
    agent.heading = heading


size = st.tuples(st.floats(0.3, 12.0), st.floats(0.3, 4.0))
angle = st.floats(-math.pi, math.pi)
coord = st.floats(-500.0, 500.0)


@st.composite
def contact_cases(draw) -> tuple:
    """(ego size, road user sizes, ticks): each tick an ego pose and one
    (mode, angle, heading, f) placement per road user."""
    sizes = draw(st.lists(size, min_size=1, max_size=5))
    placement = st.tuples(st.sampled_from(MODES), angle, angle, st.floats(0.0, 1.0))
    tick = st.tuples(st.tuples(coord, coord, angle),
                     st.lists(placement, min_size=len(sizes), max_size=len(sizes)))
    return draw(size), sizes, draw(st.lists(tick, min_size=1, max_size=12))


@settings(max_examples=300)
@given(contact_cases())
def test_culled_contacts_equal_the_full_scan_tick_by_tick(case):
    ego_size, sizes, ticks = case
    world = contact_world(ego_size, sizes)
    contact: set = set()
    for k, ((x, y, heading), placements) in enumerate(ticks):
        world.t = 0.1 * k
        world.ego.x, world.ego.y, world.ego.heading = x, y, heading
        for agent, placement in zip(world.scenario.others(), placements):
            place(world, agent, *placement)
        want = [e.to_dict() for e in collisions_oracle(world, contact)]
        assert [e.to_dict() for e in world.detect_collisions()] == want, k
        assert world._contact == contact, k


def count_gaps(monkeypatch) -> list:
    calls = []
    gap = cormp.kernels.pose_gaps
    monkeypatch.setattr(cormp.kernels, "pose_gaps",
                        lambda *args: calls.append(args) or gap(*args))
    return calls


def test_no_gap_is_computed_for_road_users_beyond_reach(monkeypatch):
    world = contact_world((4.5, 1.8), [(4.5, 1.8), (0.6, 0.6), (12.0, 2.5)])
    calls = count_gaps(monkeypatch)
    for k, angle in enumerate((0.0, 1.0, -2.5, math.pi)):
        world.t = 0.1 * k
        for j, agent in enumerate(world.scenario.others()):
            place(world, agent, "reach_out", angle + j, 0.3 * j, 0.0)
        assert world.detect_collisions() == []
    assert calls == []
    place(world, world.scenario.others()[1], "reach_in", 0.0, 0.0, 0.0)
    assert world.detect_collisions() == []
    assert len(calls) == 1


def test_a_contact_that_ends_beyond_reach_and_starts_again_is_two_collisions(monkeypatch):
    world = contact_world((4.5, 1.8), [(4.5, 1.8)])
    car, = world.scenario.others()
    calls = count_gaps(monkeypatch)
    logged = []
    for k, mode in enumerate(("near", "near", "far", "near", "reach_in")):
        world.t = 0.1 * k
        place(world, car, mode, 0.5, 0.0, 0.25)
        logged += [(e.t, e.detail["agent"]) for e in world.detect_collisions()]
    assert logged == [(0.0, "obj0"), (0.30000000000000004, "obj0")]
    assert world._contact == set()       # reach - 1e-6 m is out of contact
    assert len(calls) == 4               # every tick but the one beyond reach
