"""The benchmark harness still reads what it needs of the program.

`perfbench/closed_loop.py`'s `TimedPlanner` counts the feasible and the built
candidates of each decision from `Decision.candidates`, and `perfbench` and its
own tests read `PlannerConfig.replace`, `SimLog.rows` and `PlanResult.aborted`.
A change to that API would otherwise show only as a crash of the benchmark.
The harness is imported as it is; nothing of it is edited.
"""
import dataclasses
import importlib
import subprocess
import sys

from conftest import ROOT, load
from cormp import simulator
from cormp.baselines import make_planner
from cormp.config import PlannerConfig


def test_the_harness_counts_each_decisions_feasible_and_built_candidates(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    closed_loop = importlib.import_module("closed_loop")
    speed = importlib.import_module("speed")
    sc = dataclasses.replace(load("busy_highway"), duration_s=2.0)
    cfg = PlannerConfig()
    planner = closed_loop.TimedPlanner(make_planner("cor-mp", cfg, sc.profile),
                                       speed.SpeedClock())
    simulator.run(sc, planner, cfg)
    decisions = [call for call in planner.calls if call.kind == "decision"]
    assert decisions
    assert all(1 <= call.feasible <= call.built == 6 for call in decisions)


def test_the_harness_own_tests_pass():
    # in their own session: `tests/` and `perfbench/tests` each have a
    # `conftest` module, and one session can import only one of them
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/tests"], cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
