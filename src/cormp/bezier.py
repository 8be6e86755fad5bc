"""Lane paths, speed profiles and time-sampled trajectories.

Every planned path lies in its lane's frame (as in Werling et al., "Optimal
trajectory generation for dynamic street scenarios in a Frenet frame", ICRA
2010): a `LanePath` runs along a lane centerline from the ego's arc position,
offset from it by a cubic Bezier in arc length, the paper's curve primitive,
that reaches the centerline at the join and follows it from there on.
`sample_trajectory` turns any number of (lane path, constant-acceleration
speed profile, horizon) rows into trajectories on the simulator tick grid in
one call, the profile measuring distance along the centerline, and returns
them as one `CandidateBlock`: the padded (R, T) rows every pairwise measure of
a plan broadcasts over, with each sample's arc position on its lane.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .scenario import Polyline


class LanePath(NamedTuple):
    """A path along the centerline `line` from arc position `s0`, offset
    d(s) to the left of it, on past either end of the line along its end
    segment.

    d is the cubic Bezier through the (s, d) points (s0, d0), (s0 + b/3,
    d0 + slope b/3), (s0 + 2b/3, 0) and (s0 + b, 0), b = `blend` > 0: a cubic
    in s that starts at offset d0 with slope dd/ds = `slope` and meets the
    centerline with d = d' = 0 at the join s0 + b, after which d is 0.
    """

    line: Polyline
    s0: float
    d0: float
    slope: float
    blend: float


@dataclass
class SpeedProfile:
    """Constant-acceleration speed profile, clamped at 0 and at max(v_max, v0)."""

    v0: float
    accel: float = 0.0
    v_max: float = float("inf")

    def __post_init__(self) -> None:
        if self.v0 < 0:
            raise ValueError("v0 must be >= 0")
        if self.v_max < 0:
            raise ValueError("v_max must be >= 0")


@dataclass
class TimedTrajectory:
    """Trajectory samples on the tick grid (arrays share one length)."""

    dt: float
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    heading: np.ndarray
    speed: np.ndarray
    a_lon: np.ndarray
    a_lat: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


class CandidateBlock:
    """Trajectories on one tick grid, stacked: the (8, C, T) `rows` of C trajectories.

    t, x, y, heading, speed, a_lon, a_lat and s are its (C, T) arrays, T the
    longest trajectory's sample count; a shorter row repeats its last sample,
    and `valid` marks each row's own samples. s is the arc position of each
    sample on the centerline its row was sampled along. Indexing or iterating
    the block gives each row's `TimedTrajectory`, built on demand as views of
    the row's valid samples. `sample_trajectory` returns its own buffers as
    one; a plan hands `take` of the rows in play to each measure. Padding
    changes no measure: none reads a sample that `valid` does not mark, or
    one that only repeats a marked sample (such as a row's largest |a_lon|).
    """

    def __init__(self, rows: np.ndarray, valid: np.ndarray, dt: float) -> None:
        self._rows = rows
        self.t, self.x, self.y, self.heading, self.speed, self.a_lon, self.a_lat, self.s = rows
        self.valid = valid
        self.dt = dt

    def take(self, idx: list) -> CandidateBlock:
        """A new block of rows `idx`, padded as here: views of a run in order, else copies."""
        if idx and idx == list(range(idx[0], idx[0] + len(idx))):
            idx = slice(idx[0], idx[0] + len(idx))
        return CandidateBlock(self._rows[:, idx], self.valid[idx], self.dt)

    @property
    def end_xy(self) -> np.ndarray:
        """(C, 2) last sample of each row."""
        return self._rows[1:3, :, -1].T

    def __len__(self) -> int:
        return self._rows.shape[1]

    def __getitem__(self, c: int) -> TimedTrajectory:
        return TimedTrajectory(self.dt, *self._rows[:7, c, :np.count_nonzero(self.valid[c])])


# a profile's v0, accel and v_max, bit for bit: the key of `_speeds_and_arcs`
_PROFILE = struct.Struct("3d")


@lru_cache(maxsize=32)
def _speeds_and_arcs(profiles: bytes, dt: float, n: int) -> tuple[np.ndarray, ...]:
    """(P, n) speeds and arc lengths, and the (P, n - 1) speed steps over dt,
    at n ticks, row p under the p-th profile packed in `profiles` by `_PROFILE`.

    Each row follows v(t) = clip(v0 + a t, 0, cap), cap = max(v_max, v0).
    Speeds and arcs are running sums of per-tick steps, so they equal stepping
    `v += a dt` and `s += ds` tick by tick. The speed ramps by a dt while a
    whole tick fits before the clip; the one tick that reaches the cap or
    rest is integrated exactly, and the speed holds from there on (from the
    first tick without acceleration).

    Cached and read-only, like `tick_times`: steady driving asks for the
    same profiles plan after plan. The key is bitwise, so 0.0 and -0.0,
    whose speeds differ in sign, keep their own tables.
    """
    rows = []
    for v0, a, v_max in _PROFILE.iter_unpack(profiles):
        cap = max(v_max, v0)
        # the clip's speed, and (clip - v) / a is the time left before it;
        # dividing by inf puts a profile without acceleration at its clip now
        clip, hold = (cap, cap) if a > 0 else ((0.0, 0.0) if a < 0 else (0.0, v0))
        rows.append((v0, a * dt, 0.5 * a * dt * dt, clip, a if a != 0 else math.inf,
                     0.5 * a, hold, hold * dt))
    v0, a_dt, ramp, clip, a, half_a, hold, hold_ds = np.array(rows).T[:, :, None]
    v = np.empty((len(rows), n))
    v[:, :1] = v0
    v[:, 1:] = a_dt
    np.cumsum(v, axis=1, out=v)
    steps = v[:, :-1]
    s = np.empty_like(v)
    s[:, 0] = 0.0
    ds = s[:, 1:]
    np.multiply(steps, dt, out=ds)
    ds += ramp
    # steps move monotonically towards the clip, so each row clips from its
    # first tick k with less than a tick left: ds[k] is integrated exactly,
    # and later ticks hold
    with np.errstate(over="ignore", invalid="ignore"):   # inf or nan on rows that never clip
        left = (clip - steps) / a
        t_hit = np.maximum(left, 0.0)
        exact = steps * t_hit + half_a * t_hit * t_hit + hold * (dt - t_hit)
    clips = left < dt
    np.copyto(ds, exact, where=clips)
    np.copyto(ds[:, 1:], hold_ds, where=clips[:, :-1])
    np.copyto(v[:, 1:], hold, where=clips)
    np.cumsum(s, axis=1, out=s)
    a_lon = (v[:, 1:] - v[:, :-1]) / dt
    v.flags.writeable = s.flags.writeable = a_lon.flags.writeable = False
    return v, s, a_lon


@lru_cache(maxsize=8)
def tick_times(dt: float, horizon: float) -> np.ndarray:
    """Tick times 0, dt, 2 dt, ... up to `horizon`, with a 1e-9 s tolerance.

    Cached and read-only: every trajectory sampled on the grid shares it.
    """
    t = np.arange(int((horizon + 1e-9) / dt) + 2) * dt
    t = t[t <= horizon + 1e-9]
    t.flags.writeable = False
    return t


def sample_trajectory(rows, dt: float) -> CandidateBlock:
    """Sample poses along lane paths under clamped constant-accel speed profiles.

    `rows` is a sequence of (`LanePath`, `SpeedProfile`, horizon) triples;
    row r of the `CandidateBlock` returned is the trajectory of `rows[r]`.
    A profile measures distance x along its path's centerline: the sample at
    x is the centerline point at s = s0 + x moved d(s) along its segment's
    left normal, past either end of the centerline along its end segment. A
    row's samples fall on the ticks up to its own horizon, so the
    trajectories may differ in length; a profile that comes to rest keeps
    emitting resting samples up to the horizon. Heading is the segment's plus
    arctan d'; lateral acceleration is v^2 times the path curvature, taken as
    the centerline's (interpolated by `Polyline.locate`) plus d'', both first
    order in the curvature times d and in d'.

    One cached `_speeds_and_arcs` table covers every row, and each distinct
    centerline locates and gathers its rows' samples once; each row is
    bitwise what it would be if sampled alone, and a sample from the join on,
    or of a path without offset, is bitwise the centerline's `frames` and
    `locate` at s.

    The block's (R, T) rows are the read-only buffers the samples are
    written to, each padded with its row's last sample; the s row is each
    sample's s0 + x.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    horizons = [h for _, _, h in rows]
    if min(horizons) < 0:
        raise ValueError("horizon must be >= 0")
    t = tick_times(dt, max(horizons))
    v, x, dv_dt = _speeds_and_arcs(
        b"".join(_PROFILE.pack(p.v0, p.accel, p.v_max) for _, p, _ in rows), dt, len(t))
    groups: dict = {}
    terms = []
    for r, ((line, s0, d0, slope, b), _, _) in enumerate(rows):
        groups.setdefault(line, []).append(r)
        # d = d0 + x (slope + x (c2 + x c3)) at x = s - s0 < b
        terms.append((s0, b, d0, slope, -(3.0 * d0 + 2.0 * slope * b) / (b * b),
                      (2.0 * d0 + slope * b) / (b * b * b)))
    s0, b, d0, slope, c2, c3 = np.array(terms).T[:, :, None]
    counts = np.array([len(tick_times(dt, h)) for h in horizons])
    buffers = np.empty((8,) + x.shape)
    block_t, px, py, heading, speed, a_lon, a_lat, s = buffers
    np.add(x, s0, out=s)
    before = x < b   # the offset and its derivatives are 0 from the join on
    d = (((x * c3 + c2) * x + slope) * x + d0) * before   # by Horner's rule
    dd = ((x * (3.0 * c3) + 2.0 * c2) * x + slope) * before
    kappa = np.empty_like(s)
    frames = np.empty((6,) + s.shape)   # each sample's column of its centerline's `frame_table`
    for line, idx in groups.items():
        # adjacent rows, the usual case, are read and written as a slice, not copied
        sel = slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] == len(idx) - 1 else idx
        i, kappa[sel] = line.locate(s[sel])
        frames[:, sel] = line.frame_table.take(i, axis=1)
    ax, ay, dx, dy, seg_len, cum = frames
    f = (s - cum) / seg_len
    d /= seg_len
    kappa += (x * (6.0 * c3) + 2.0 * c2) * before   # plus d''
    block_t[:] = t
    np.add(ax, dx * f, out=px)
    px -= dy * d
    np.add(ay, dy * f, out=py)
    py += dx * d
    np.arctan2(dy, dx, out=heading)
    heading += np.arctan(dd)
    speed[:] = v
    a_lon[:, :-1] = dv_dt
    np.multiply(kappa * v, v, out=a_lat)
    width, ns = len(t), counts.tolist()
    a_lon[:, -1] = a_lon[:, -2] if width > 1 else 0.0   # a row's last step repeats
    for r, n in enumerate(ns):
        if n < width:   # a row with a shorter horizon: its own last step, then padding
            a_lon[r, n - 1] = a_lon[r, n - 2] if n > 1 else 0.0
            buffers[:, r, n:] = buffers[:, r, n - 1:n]
    buffers.flags.writeable = False
    return CandidateBlock(buffers, np.arange(width) < counts[:, None], dt)
