"""Shared fixtures: cache closed-loop runs across tests."""
from __future__ import annotations

import pathlib
import time

import pytest

from cormp.baselines import make_planner
from cormp.config import PlannerConfig
from cormp.scenario import Scenario, load_scenario
from cormp.simulator import SimLog, run

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


@pytest.fixture(scope="session")
def scenario_dir() -> pathlib.Path:
    return SCENARIO_DIR


def load(name: str) -> Scenario:
    return load_scenario(str(SCENARIO_DIR / f"{name}.json"))


# Closed-loop runs are the expensive part of the suite; identical
# (scenario, planner, profile) runs are deterministic, so share them.
_RUN_CACHE: dict = {}


def timed_run(name: str, planner_id: str = "cor-mp",
              profile: str | None = None) -> tuple[Scenario, SimLog, float]:
    key = (name, planner_id, profile)
    if key not in _RUN_CACHE:
        sc = load(name)
        cfg = PlannerConfig()
        planner = make_planner(planner_id, cfg, profile or sc.profile)
        t0 = time.perf_counter()
        log = run(sc, planner, cfg)
        elapsed = time.perf_counter() - t0
        _RUN_CACHE[key] = (sc, log, elapsed)
    return _RUN_CACHE[key]
