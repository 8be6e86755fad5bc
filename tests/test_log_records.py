"""`SimLog`'s tick and decision records.

The writers that read them (`to_csv`, `compute_metrics`, the timeline bands)
must give what the row-dict writers of `log_oracle.py` give, byte for byte,
and a decision's fields must be stored once, on the record every tick up to
the next decision refers to.
"""
import csv
import json
from dataclasses import asdict

import pytest

import log_oracle
from conftest import SHIPPED, load, timed_run
from cormp import timeline
from cormp.baselines import PLANNERS, make_planner
from cormp.config import PlannerConfig
from cormp.metrics import compute_metrics
from cormp.simulator import CSV_COLUMNS, DECISION_COLUMNS, Tick, _decision_row_fields, run
from cormp.timeline import render_timeline
from log_digest import diff_logs

@pytest.mark.parametrize("planner", list(PLANNERS))
@pytest.mark.parametrize("name", SHIPPED)
def test_writers_match_the_row_dict_oracle(name, planner, monkeypatch):
    sc, log, _ = timed_run(name, planner)
    got, want = log.to_csv(), log_oracle.to_csv(log)
    same = got == want   # a diff of two whole logs would take minutes
    assert same, diff_logs(*(list(csv.reader(text.splitlines())) for text in (got, want)))
    assert json.dumps(compute_metrics(log, sc).to_dict(), indent=2) == \
        json.dumps(asdict(log_oracle.compute_metrics(log, sc)), indent=2)
    svg = render_timeline([(planner, log)], sc.duration_s)
    monkeypatch.setattr(timeline, "_bands", log_oracle._bands)
    assert render_timeline([(planner, log)], sc.duration_s) == svg


def test_records_hold_every_csv_column_once():
    # `SimLog.rows` names a tick's fields by these
    assert Tick._fields[:-1] + DECISION_COLUMNS == \
        tuple(CSV_COLUMNS[:11]) + ("events",) + tuple(CSV_COLUMNS[11:-1])
    assert sorted(Tick._fields[:-1] + DECISION_COLUMNS) == sorted(CSV_COLUMNS)


class DecisionSpy:
    """A planner that remembers the tick and decision of every result that has one."""

    def __init__(self, planner) -> None:
        self.planner = planner
        self.name = planner.name
        self.profile = planner.profile
        self.decided: list = []   # (t, Decision)

    def reset(self) -> None:
        self.decided.clear()
        self.planner.reset()

    def plan(self, scenario, t):
        result = self.planner.plan(scenario, t)
        if result.decision is not None:
            self.decided.append((t, result.decision))
        return result


@pytest.mark.parametrize("planner", list(PLANNERS))
def test_ticks_between_two_decisions_share_one_record(planner):
    # overtake_static: two lane changes, each re-sampled while committed
    sc = load("overtake_static")
    cfg = PlannerConfig()
    spy = DecisionSpy(make_planner(planner, cfg, sc.profile))
    log = run(sc, spy, cfg)

    assert [_decision_row_fields(d) for _, d in spy.decided] == log.decisions
    assert all(len(values) == len(DECISION_COLUMNS) for values in log.decisions)
    times = [t for t, _ in spy.decided]
    for tick in log.ticks:
        made = sum(1 for t in times if t <= tick.t)
        assert tick.decision == (made - 1 if made else None)
    if planner == "mobil":   # MOBIL logs no decision
        assert not log.decisions
    else:
        assert len(log.decisions) < len(log.ticks) / 4
        replays = [tick for tick in log.ticks if tick.committed]
        assert replays and all(tick.decision is not None for tick in replays)
