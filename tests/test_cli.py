import csv
import json

import pytest

from conftest import SCENARIO_DIR
from cormp.cli import PLANNERS, main


def scenario(name):
    return str(SCENARIO_DIR / f"{name}.json")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- run


def test_run_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "red"
    code = main(["run", scenario("red_light"), "--out", str(out)])
    assert code == 0
    for name in ("log.csv", "events.json", "metrics.json", "timeline.svg"):
        assert (out / name).is_file()

    with open(out / "log.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 300  # 30 s at 0.1 s ticks
    assert rows[0]["maneuver"]

    metrics = read_json(out / "metrics.json")
    assert metrics["collisions"] == 0
    assert metrics["rule_violations"] == 0
    assert isinstance(read_json(out / "events.json"), list)
    assert (out / "timeline.svg").read_text(encoding="utf-8").startswith("<svg")
    assert "red_light" in capsys.readouterr().out


def test_unknown_planner_is_a_usage_error(tmp_path, capsys):
    code = main(["run", scenario("red_light"), "--planner", "a-star",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_scenario_file_is_a_usage_error(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_malformed_scenario_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"duration_s": 5.0}', encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "missing keys" in capsys.readouterr().err


@pytest.mark.parametrize("edit, config", [
    pytest.param(('"id": "ego"', '"id": ["ego"]'), None, id="list-agent-id"),
    pytest.param(('["red", 15.0]', '["red", NaN]'), None, id="nan-red-phase"),
    pytest.param(None, '{"dt": "0.1"}', id="string-dt"),
    pytest.param(None, '{"ttc_min_s": NaN}', id="nan-ttc-min"),
])
def test_a_bad_value_is_an_error_line_not_a_run(tmp_path, capsys, edit, config):
    # red_light.json with one value edited in its text, or a config file
    args = ["run", scenario("red_light"), "--out", str(tmp_path / "out")]
    if edit is not None:
        text = (SCENARIO_DIR / "red_light.json").read_text(encoding="utf-8")
        assert edit[0] in text
        args[1] = str(tmp_path / "scenario.json")
        (tmp_path / "scenario.json").write_text(text.replace(*edit), encoding="utf-8")
    if config is not None:
        (tmp_path / "config.json").write_text(config, encoding="utf-8")
        args += ["--config", str(tmp_path / "config.json")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("cormp: error: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_incident_runs_exit_two(tmp_path):
    # MOBIL ignores crosswalks by design, so it hits the crossing pedestrian
    out = tmp_path / "mobil-ped"
    code = main(["run", scenario("pedestrian_crossing"), "--planner", "mobil",
                 "--out", str(out)])
    assert code == 2
    metrics = read_json(out / "metrics.json")
    assert metrics["collisions"] + metrics["rule_violations"] >= 1
    assert (out / "log.csv").is_file()  # artifacts written despite incidents


def test_config_override_changes_the_replan_cadence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"replan_period_s": 1.0}', encoding="utf-8")
    fast = tmp_path / "fast"
    slow = tmp_path / "slow"
    assert main(["run", scenario("empty_road"), "--out", str(fast)]) == 0
    assert main(["run", scenario("empty_road"), "--config", str(cfg),
                 "--out", str(slow)]) == 0
    n_fast = read_json(fast / "metrics.json")["latency_ms"]["count"]
    n_slow = read_json(slow / "metrics.json")["latency_ms"]["count"]
    assert n_slow < n_fast


def test_profile_flag_overrides_the_scenario(tmp_path):
    out = tmp_path / "aggr"
    assert main(["run", scenario("empty_road"), "--profile", "aggressive",
                 "--out", str(out)]) == 0
    assert (out / "metrics.json").is_file()


# ---------------------------------------------------------------- compare


def test_compare_writes_one_block_per_planner(tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", scenario("two_lane_slow_lead"),
                 "--planners", "cor-mp,utility", "--out", str(out)])
    assert code == 0
    report = read_json(out / "report.json")
    assert set(report["planners"]) == {"cor-mp", "utility"}
    assert report["scenario"] == "two_lane_slow_lead"
    for name in ("cor-mp", "utility"):
        block = report["planners"][name]
        assert {"avg_speed_mps", "collisions", "rule_violations"} <= set(block)
        assert (out / name / "log.csv").is_file()
        assert (out / name / "metrics.json").is_file()
    svg = (out / "timeline.svg").read_text(encoding="utf-8")
    assert svg.count('fill="#f2f2f2"') == 2  # one timeline row per planner


def test_compare_rejects_an_empty_planner_list(tmp_path, capsys):
    code = main(["compare", scenario("empty_road"), "--planners", " , ",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "at least one planner" in capsys.readouterr().err


def test_exit_codes_are_mutually_exclusive(tmp_path):
    codes = {
        main(["run", scenario("red_light"), "--out", str(tmp_path / "a")]),
        main(["run", str(tmp_path / "missing.json"), "--out", str(tmp_path / "b")]),
        main(["run", scenario("pedestrian_crossing"), "--planner", "mobil",
              "--out", str(tmp_path / "c")]),
    }
    assert codes == {0, 1, 2}


def test_planner_registry_matches_the_cli_choices():
    assert tuple(PLANNERS) == ("cor-mp", "mobil", "utility")
