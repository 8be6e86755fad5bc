"""Maneuver timeline rendering as a standalone SVG strip chart.

No plotting dependency: the chart is a few hundred rects and text nodes, and
writing them directly keeps the output byte-stable across runs.
"""
from __future__ import annotations

from .simulator import SimLog

MANEUVER_COLORS = {
    "change_lane_left": "#7b5cd6",
    "change_lane_right": "#2e9e6b",
    "keep_lane_accelerate": "#3b82c4",
    "keep_lane_same_speed": "#9cb7d4",
    "keep_lane_decelerate": "#e0a84a",
    "stop": "#d1495b",
}

_MARGIN_LEFT = 110
_MARGIN_RIGHT = 20
_MARGIN_TOP = 36
_ROW_HEIGHT = 34
_ROW_GAP = 10
_AXIS_HEIGHT = 30
_PLOT_WIDTH = 740
_LEGEND_HEIGHT = 26


def _bands(log: SimLog) -> list:
    """Contiguous (t_start, t_end, maneuver) runs from the log rows."""
    bands = []
    start, current = None, None
    for row in log.rows:
        m = row["maneuver"]
        if m != current:
            if current is not None:
                bands.append((start, row["t"], current))
            start, current = row["t"], m
    if current is not None:
        bands.append((start, len(log.rows) * log.dt, current))
    return bands


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def render_timeline(runs: list, duration_s: float) -> str:
    """SVG for one or more (label, SimLog) rows sharing a time axis."""
    n = len(runs)
    height = (_MARGIN_TOP + n * (_ROW_HEIGHT + _ROW_GAP)
              + _AXIS_HEIGHT + _LEGEND_HEIGHT)
    width = _MARGIN_LEFT + _PLOT_WIDTH + _MARGIN_RIGHT
    duration = max(duration_s, 1e-9)

    def sx(t: float) -> float:
        return _MARGIN_LEFT + _PLOT_WIDTH * min(max(t / duration, 0.0), 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_MARGIN_LEFT}" y="20" font-size="14" fill="#222222">'
        f'Maneuver timeline</text>',
    ]

    for i, (label, log) in enumerate(runs):
        y = _MARGIN_TOP + i * (_ROW_HEIGHT + _ROW_GAP)
        parts.append(f'<text x="8" y="{y + _ROW_HEIGHT / 2 + 4:.1f}" '
                     f'fill="#222222">{_esc(label)}</text>')
        parts.append(f'<rect x="{_MARGIN_LEFT}" y="{y}" width="{_PLOT_WIDTH}" '
                     f'height="{_ROW_HEIGHT}" fill="#f2f2f2" stroke="#cccccc"/>')
        for t0, t1, m in _bands(log):
            x0, x1 = sx(t0), sx(t1)
            color = MANEUVER_COLORS.get(m, "#888888")
            parts.append(
                f'<rect x="{x0:.2f}" y="{y + 2}" width="{max(x1 - x0, 0.5):.2f}" '
                f'height="{_ROW_HEIGHT - 4}" fill="{color}">'
                f'<title>{_esc(m)} {t0:.1f}-{t1:.1f}s</title></rect>')

    axis_y = _MARGIN_TOP + n * (_ROW_HEIGHT + _ROW_GAP) + 6
    parts.append(f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" '
                 f'x2="{_MARGIN_LEFT + _PLOT_WIDTH}" y2="{axis_y}" stroke="#444444"/>')
    tick = 5.0 if duration > 15 else 1.0
    t = 0.0
    while t <= duration + 1e-9:
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" '
                     f'y2="{axis_y + 5}" stroke="#444444"/>')
        parts.append(f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle" '
                     f'fill="#444444">{t:g}s</text>')
        t += tick

    lx = _MARGIN_LEFT
    ly = axis_y + _AXIS_HEIGHT
    for m, color in MANEUVER_COLORS.items():
        parts.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{ly + 10}" fill="#222222">{m}</text>')
        lx += 16 + 7 * len(m) + 18

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_timeline(path, runs: list, duration_s: float) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_timeline(runs, duration_s))
