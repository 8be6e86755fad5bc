"""The pair projection over every segment, for tests.

`project_oracle` is the loop that `Polyline.project` ran on one (x, y) pair
before it culled segments by the bounding discs of `Polyline._chunks`: it
visits all segments in index order on the line's `_segment_floats`.
`Polyline.project` must equal it bitwise, on a pair and on an array.
"""
from __future__ import annotations

import math


def project_oracle(line, point) -> tuple:
    """(s, signed lateral offset) of `point` on `line`, by the full scan."""
    px, py = float(point[0]), float(point[1])
    best = math.inf
    near = []   # (dist2, i, t, tc, qx, qy) of the segments near the closest so far
    for i, (ax, ay, dx, dy, len2, seg, cum, _) in enumerate(line._segment_floats):
        rx, ry = px - ax, py - ay
        t = (rx * dx + ry * dy) / len2
        tc = min(max(t, 0.0), 1.0)
        qx, qy = rx - dx * tc, ry - dy * tc
        dist2 = qx * qx + qy * qy
        if dist2 < best - 1e-9:   # so much closer that none so far can tie with it
            best = dist2
            near = [(dist2, i, t, tc, qx, qy)]
        elif dist2 <= best + 1e-12:
            best = min(best, dist2)
            near.append((dist2, i, t, tc, qx, qy))
    pick = near[0]
    if len(near) > 1:
        near = [e for e in near if e[0] <= best + 1e-12]
        pick = next((e for e in near if e[2] == e[3]), near[0])
    _, i, t, tc, qx, qy = pick
    _, _, dx, dy, _, seg, cum, _ = line._segment_floats[i]
    if (i == 0 and t < 0.0) or (i == len(line._seg) - 1 and t > 1.0):
        tc = t  # past an end: along the end segment's extension
    return cum + tc * seg, (dx * qy - dy * qx) / seg
