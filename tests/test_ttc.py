"""The culled time-to-collision scan against the full scan of `ttc_oracle`.

`identification.time_to_collision` runs the separating-axis gap only on the
candidates and road users with a pair of aligned centers within reach. It
must return the oracle's ttc floats (compared by their hex form) and
limiting rows exactly: for road users just inside and just outside reach,
footprints that overlap at the first tick, road users tied in one tick,
padded candidate samples near a road user, no road users at all, and rows of
unequal length; and on the real plans of `busy_highway`.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import load, prediction_block, timed_run
from cormp import identification
from cormp.bezier import CandidateBlock, TimedTrajectory
from cormp.config import PlannerConfig
from cormp.identification import time_to_collision
from cormp.kernels import REACH_MARGIN
from cormp.planner import plan_context, plan_tick
from cormp.simulator import SimWorld
from ttc_oracle import ttc_oracle

DT = 0.1
EGO_L, EGO_W = 4.5, 1.8
EGO_REACH = math.hypot(EGO_L / 2.0, EGO_W / 2.0)
# the ego's corner directions, relative to its heading
CORNERS = (math.atan2(EGO_W, EGO_L), -math.atan2(EGO_W, EGO_L),
           math.pi - math.atan2(EGO_W, EGO_L), math.atan2(EGO_W, EGO_L) - math.pi)
# center distance beyond the circumradius sum: overlapping corners, touching,
# just inside reach, just outside it
OFFSETS = (-0.05, -1e-6, 0.0, 0.5 * REACH_MARGIN, REACH_MARGIN * (1.0 + 1e-6), 0.3)


def line(x0, y0, heading, speed, n) -> tuple:
    """x, y and heading of n samples from (x0, y0) at constant velocity."""
    s = speed * DT * np.arange(n)
    return x0 + math.cos(heading) * s, y0 + math.sin(heading) * s, np.full(n, heading)


def traj(x, y, heading, speed) -> TimedTrajectory:
    n = len(x)
    return TimedTrajectory(DT, np.arange(n) * DT, x, y, heading, np.full(n, speed),
                           np.zeros(n), np.zeros(n))


def blocks(rows, users, steps) -> tuple:
    """The candidate block of `rows` (x0, y0, heading, speed, n) and the
    prediction block of `users` (x0, y0, heading, speed, half length, half
    width) over `steps` ticks."""
    cands = CandidateBlock([traj(*line(x0, y0, h, v, n), v) for x0, y0, h, v, n in rows])
    preds = prediction_block(*[("vehicle", traj(*line(x0, y0, h, v, steps), v), 2.0 * hl,
                                2.0 * hw) for x0, y0, h, v, hl, hw in users], steps=steps)
    return cands, preds


def assert_matches_oracle(cands, preds) -> tuple:
    ttc, who = time_to_collision(cands, preds, EGO_L, EGO_W)
    want_ttc, want_who = ttc_oracle(cands, preds, EGO_L, EGO_W)
    assert ttc.dtype == want_ttc.dtype and who.dtype == want_who.dtype
    assert [t.hex() for t in ttc.tolist()] == [t.hex() for t in want_ttc.tolist()]
    assert who.tolist() == want_who.tolist()
    return ttc, who


coords = st.floats(-40.0, 40.0)
headings = st.floats(-math.pi, math.pi)
speeds = st.floats(0.0, 20.0)
halves = st.floats(0.2, 3.0)


@st.composite
def ttc_cases(draw) -> tuple:
    """(rows, users, steps). A road user is placed freely, copied from the one
    before it (a tie), or corner to corner with a candidate's sample at some
    tick, at a center distance of the circumradius sum plus one of `OFFSETS`;
    where that tick is past the candidate's own samples, its padding."""
    steps = draw(st.integers(1, 12))
    rows = draw(st.lists(st.tuples(coords, coords, headings, speeds, st.integers(1, 16)),
                         min_size=1, max_size=4))
    users = []
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(["free", "reach", "copy"]))
        if how == "copy" and users:
            users.append(users[-1])
            continue
        hl, hw, speed = draw(halves), draw(halves), draw(speeds)
        if how != "reach":
            users.append((draw(coords), draw(coords), draw(headings), speed, hl, hw))
            continue
        x0, y0, h, v, n = draw(st.sampled_from(rows))
        tick = draw(st.integers(0, steps - 1))
        s = v * DT * min(tick, n - 1)
        diag = h + draw(st.sampled_from(CORNERS))
        d = EGO_REACH + math.hypot(hl, hw) + draw(st.sampled_from(OFFSETS))
        cx = x0 + math.cos(h) * s + math.cos(diag) * d
        cy = y0 + math.sin(h) * s + math.sin(diag) * d
        bh = diag + math.pi - math.atan2(hw, hl)   # its corner points back at the ego's
        back = speed * DT * tick
        users.append((cx - math.cos(bh) * back, cy - math.sin(bh) * back, bh, speed, hl, hw))
    return rows, users, steps


# a far road user listed before a standing car that meets the standing
# second row corner to corner, its center within reach but beyond the sum of
# the two larger half extents at every tick
CORNER = 2.0 * EGO_REACH - 0.05
FAR_THEN_CORNER = ([(0.0, 0.0, 0.0, 10.0, 12), (0.0, 20.0, 0.0, 0.0, 12)],
                   [(500.0, 0.0, 0.0, 0.0, 2.25, 0.9),
                    (CORNER * math.cos(CORNERS[0]), 20.0 + CORNER * math.sin(CORNERS[0]),
                     math.pi, 0.0, 2.25, 0.9)],
                   12)


def test_culled_ttc_matches_the_full_scan():
    seen = set()

    @settings(max_examples=400)
    @given(ttc_cases())
    @example(([(0.0, 0.0, 0.0, 10.0, 8)], [], 10))   # no road users
    @example(FAR_THEN_CORNER)
    # the same candidates as a view of rows 1.. of a block whose row 0 is longer
    @example(FAR_THEN_CORNER + ((0.0, -20.0, 0.0, 10.0, 16),))
    def check(case):
        rows, users, steps, *lead = case
        cands, preds = blocks(lead + rows, users, steps)
        if lead:
            whole, cands = cands, cands.take(list(range(1, len(cands))))
            assert np.shares_memory(cands.x, whole.x)
        ttc, who = assert_matches_oracle(cands, preds)
        seen.update("zero" if t == 0.0 else "refined" for t in ttc.tolist() if t < math.inf)
        if any(0 <= k < len(users) - 1 and users[k + 1] == users[k] for k in who.tolist()):
            seen.add("tie")
        unpadded = cands.take(list(range(len(cands))))
        unpadded.valid = np.ones_like(cands.valid)
        if (ttc_oracle(unpadded, preds, EGO_L, EGO_W)[0] < ttc).any():
            seen.add("padding")

    check()
    # a contact at the first tick, a refined contact, a tie named by its
    # first row, and a road user that overlaps only a candidate's padding
    assert seen == {"zero", "refined", "tie", "padding"}


def test_culled_ttc_matches_the_full_scan_on_busy_highway(monkeypatch):
    # the real plans at t = 0 and 5 s, with the ego where the closed loop put
    # it: every time_to_collision call returns the full scan's values
    _, log, _ = timed_run("busy_highway")
    cfg = PlannerConfig()
    world = SimWorld(load("busy_highway"), cfg)
    calls = []
    culled = identification.time_to_collision

    def record(cands, block, ego_length, ego_width):
        got = culled(cands, block, ego_length, ego_width)
        calls.append((got, ttc_oracle(cands, block, ego_length, ego_width), len(block)))
        return got

    monkeypatch.setattr(identification, "time_to_collision", record)
    for tick in range(51):
        if tick in (0, 50):
            row = log.rows[tick]
            ego = world.ego
            ego.x, ego.y, ego.heading, ego.speed = (row["ego_x"], row["ego_y"],
                                                    row["ego_heading"], row["ego_speed"])
            ego.lane = row["ego_lane"]
            plan_tick(plan_context(world.scenario, cfg, tick * cfg.dt))
        world.advance_others()
    assert len(calls) >= 2 and any(np.isfinite(want[0]).any() for _, want, _ in calls)
    assert any(k > 1 for _, _, k in calls)
    for (ttc, who), (want_ttc, want_who), _ in calls:
        assert [t.hex() for t in ttc.tolist()] == [t.hex() for t in want_ttc.tolist()]
        assert who.tolist() == want_who.tolist()


def spy_on_gaps(monkeypatch) -> list:
    """The argument shapes of every `pose_gaps` call `time_to_collision` makes."""
    calls = []
    gaps = identification.pose_gaps

    def spy(*args):
        calls.append([np.shape(a) for a in args])
        return gaps(*args)

    monkeypatch.setattr(identification, "pose_gaps", spy)
    return calls


def ring(k: int, radius: float) -> list:
    """k standing 4.5 x 1.8 m cars on a circle of `radius` m about (30, 0)."""
    return [(30.0 + radius * math.cos(a), radius * math.sin(a), a, 0.0, 2.25, 0.9)
            for a in np.linspace(0.0, 2.0 * math.pi, k, endpoint=False).tolist()]


ROWS = [(0.0, 0.0, 0.0, 10.0, 41), (0.0, 0.0, 0.0, 5.0, 30), (0.0, 0.0, 0.0, 0.0, 41)]


def test_no_gap_scan_when_every_road_user_is_beyond_reach(monkeypatch):
    # 80 cars 200 m from the ego's path: every row inf and -1, and no gap call
    calls = spy_on_gaps(monkeypatch)
    cands, preds = blocks(ROWS, ring(80, 200.0), 41)
    ttc, who = assert_matches_oracle(cands, preds)
    assert ttc.tolist() == [math.inf] * 3 and who.tolist() == [-1] * 3
    assert calls == []


def test_an_empty_block_returns_before_any_broadcast(monkeypatch):
    # no road user in reach: every row inf and -1, as the oracle gives, with
    # neither the reach rule nor a gap call
    calls = spy_on_gaps(monkeypatch)
    monkeypatch.setattr(identification, "reach2", lambda *a: calls.append("reach2"))
    for steps in (1, 41):
        cands, preds = blocks(ROWS, [], steps)
        ttc, who = assert_matches_oracle(cands, preds)
        assert ttc.tolist() == [math.inf] * 3 and who.tolist() == [-1] * 3
    assert calls == []


def test_one_gap_scan_over_the_live_rows_and_road_users(monkeypatch):
    # the same 80 cars and one standing at x = 30 m, listed 41st, which only
    # the 10 m/s row reaches within its 41 samples (the 5 m/s one stops at
    # x = 14.5 m, and the third stands still)
    users = ring(80, 200.0)
    users.insert(40, (30.0, 0.0, 0.0, 0.0, 2.25, 0.9))
    calls = spy_on_gaps(monkeypatch)
    cands, preds = blocks(ROWS, users, 41)
    ttc, who = assert_matches_oracle(cands, preds)
    assert ttc[0] == ttc_oracle(*blocks(ROWS[:1], users[40:41], 41), EGO_L, EGO_W)[0][0] < 3.0
    assert who.tolist() == [40, -1, -1]
    assert len(calls) == 1
    ax, bx = calls[0][0], calls[0][5]
    assert ax == (1, 1, 41) and bx == (1, 1, 41)
