"""The per-tick contact test over every road user, for tests.

`collisions_oracle` is `SimWorld.detect_collisions` as it was before road
users beyond reach were culled: one separating-axis gap per road user per
tick. The simulator must give the same events and leave the same contact
set at every tick.
"""
from __future__ import annotations

from cormp.kernels import pose_gaps
from cormp.simulator import SimEvent, SimWorld


def collisions_oracle(world: SimWorld, contact: set) -> list:
    """The collision events of `world`'s current tick, given the ids of the
    road users touching the ego at the tick before in `contact`, which it
    updates."""
    events = []
    ego = world.ego
    for agent in world.scenario.others():
        gap = pose_gaps(
            ego.x, ego.y, ego.heading, ego.length / 2.0, ego.width / 2.0,
            agent.x, agent.y, agent.heading, agent.length / 2.0, agent.width / 2.0,
        )
        if gap <= 0.0:
            if agent.id not in contact:
                contact.add(agent.id)
                events.append(SimEvent(world.t, "collision", {"agent": agent.id}))
        else:
            contact.discard(agent.id)
    return events
