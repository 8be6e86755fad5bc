"""The red-light and crosswalk columns by projecting every sample, for tests.

`rule_columns` is how `feasibility_filter` judged lights and crosswalks
before rows carried their own arc positions: it projects every sample of
every row onto each lane that a light or crosswalk concerns, and compares
the projected front bumper with that lane's stop line and span. The filter
now reads each row's own s on its own lane and maps a rule lane's threshold
onto a row's lane instead.

On straight parallel lanes both give the same verdicts. On a polyline arc,
a sample offset by d towards the inside of a turn of angle theta at a
vertex, within |d| tan(theta / 2) of it, projects onto the neighbouring
segment, and its projected s differs from its own by up to
2 |d| tan(theta / 2) (`vertex_slack`), about |d| sin(theta): 0.178 m at
d = 3.5 m on a 60-vertex, 420 m arc of radius 140 m.
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np


def vertex_slack(line, d: np.ndarray) -> np.ndarray:
    """2 |d| tan(theta / 2), theta the sharpest turn at a vertex of `line`:
    the most by which the projection of a sample `d` m off it strays from
    its own arc position."""
    u = np.diff(line.points, axis=0)
    turn = np.arctan2(u[:-1, 0] * u[1:, 1] - u[:-1, 1] * u[1:, 0],
                      u[:-1, 0] * u[1:, 0] + u[:-1, 1] * u[1:, 1])
    return 2.0 * np.abs(d) * math.tan(float(np.max(np.abs(turn), initial=0.0)) / 2.0)


def rule_columns(ctx, cands, targets: np.ndarray) -> np.ndarray:
    """(R, 2) red-light and crosswalk verdicts of the rows of `cands`, each
    on its target lane in `targets`, by projecting every sample."""
    cfg, ego, lanes = ctx.config, ctx.ego, ctx.scenario.lanes

    @cache
    def front(lane_id: str) -> np.ndarray:
        """(R, T) arc position of the ego front bumper on the lane."""
        s, _ = lanes[lane_id].centerline.project(
            np.column_stack([cands.x.ravel(), cands.y.ravel()]))
        return s.reshape(cands.x.shape) + ego.length / 2.0

    out = np.zeros((len(cands), 2), dtype=bool)
    for light in ctx.scenario.lights:
        ahead = (targets == light.lane) | (light.lane == ego.lane)
        if not ahead.any():
            continue
        s = front(light.lane)
        ahead &= s[:, 0] < light.stop_line_s
        hold_line = light.stop_line_s - cfg.red_light_hold_m - cfg.hold_buffer_m
        crosses = ahead[:, None] & (s >= light.stop_line_s)
        enters = (ahead & (s[:, 0] < hold_line))[:, None] & (s >= hold_line)
        red_now = light.color_at(ctx.sim_time) == "red"
        for event in (crosses, enters):
            rows = np.nonzero(event.any(axis=1))[0]
            when = cands.t[rows, event[rows].argmax(axis=1)].tolist()
            out[rows[np.array([red_now or light.color_at(ctx.sim_time + t) == "red"
                               for t in when], dtype=bool)], 0] = True
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
            out[:, 1] |= enters & (occupied[0] | occupied[tick])
    return out
