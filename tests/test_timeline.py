import re
import xml.etree.ElementTree as ET

from conftest import timed_run
from cormp.simulator import SimLog, Tick
from cormp.timeline import MANEUVER_COLORS, _bands, render_timeline, write_timeline


def mk_log(maneuvers, dt=0.1):
    ticks = [Tick(k * dt, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, "lane", m, 0, 0, "", None)
             for k, m in enumerate(maneuvers)]
    return SimLog(scenario_name="synthetic", planner="test", profile="regular",
                  dt=dt, ticks=ticks)


def band_titles(svg):
    return re.findall(r"<title>(\S+) ([0-9.]+)-([0-9.]+)s</title>", svg)


def test_empty_log_renders_a_valid_chart():
    svg = render_timeline([("empty", mk_log([]))], 10.0)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    ET.fromstring(svg)  # well-formed XML
    assert band_titles(svg) == []
    assert svg.count("s</text>") >= 11  # 0..10 s ticks


def test_single_maneuver_fills_the_row():
    log = mk_log(["keep_lane_same_speed"] * 50)
    svg = render_timeline([("run", log)], 5.0)
    titles = band_titles(svg)
    assert titles == [("keep_lane_same_speed", "0.0", "5.0")]
    band = re.search(r'width="([0-9.]+)"[^>]*><title>keep_lane_same_speed', svg)
    assert band is not None
    assert float(band.group(1)) == 740.0  # full plot width


def test_bands_match_contiguous_runs():
    _, log, _ = timed_run("highway")
    bands = _bands(log)
    maneuvers = [row["maneuver"] for row in log.rows]
    expected = []
    start, cur = 0, maneuvers[0]
    for i, m in enumerate(maneuvers):
        if m != cur:
            expected.append((start * log.dt, i * log.dt, cur))
            start, cur = i, m
    expected.append((start * log.dt, len(maneuvers) * log.dt, cur))
    assert len(bands) == len(expected)
    for got, want in zip(bands, expected):
        assert got[2] == want[2]
        assert abs(got[0] - want[0]) < 1e-9
        assert abs(got[1] - want[1]) < 1e-9
    svg = render_timeline([("cor-mp", log)], 40.0)
    assert [t[0] for t in band_titles(svg)] == [b[2] for b in bands]


def test_every_maneuver_has_a_color():
    from cormp.identification import Maneuver
    assert set(MANEUVER_COLORS) == {m.value for m in Maneuver}


def test_rendering_is_deterministic_and_writable(tmp_path):
    _, log, _ = timed_run("red_light")
    a = render_timeline([("x", log)], 30.0)
    b = render_timeline([("x", log)], 30.0)
    assert a == b
    out = tmp_path / "chart.svg"
    write_timeline(out, [("x", log)], 30.0)
    assert out.read_text(encoding="utf-8") == a


def test_stacked_rows_share_the_axis():
    log_a = mk_log(["stop"] * 20)
    log_b = mk_log(["keep_lane_accelerate"] * 20)
    svg = render_timeline([("a", log_a), ("b", log_b)], 2.0)
    titles = band_titles(svg)
    assert [t[0] for t in titles] == ["stop", "keep_lane_accelerate"]
    assert svg.count('fill="#f2f2f2"') == 2  # one backdrop per row
