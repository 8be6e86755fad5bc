"""Every site the benchmark's traced run wraps still names a function of the
program, and the program still calls it there.

`perfbench/spans.py` wraps each `SITES` entry where its module looks the
function up; a site that no longer resolves is reported once and then reads 0
in every traced metric, and so does one that resolves but is no longer called
through that name (say, a function inlined into its caller). `SITES` is parsed
from the source, so no span is installed and nothing of the benchmark runs;
the reach test puts its own spies where `install` would put the spans.
"""
import ast
import importlib

import pytest

from conftest import ROOT, load
from cormp.config import PlannerConfig
from cormp.planner import CorMpPlanner
from cormp.simulator import run

# the sites that went stale before this guard; fixing one removes it from here
STALE = {
    "cormp.planner.assess_candidate",
    "cormp.bezier.arc_length",
    "cormp.identification.any_overlap",
    "cormp.identification.rect_gap",
    "cormp.resources.any_overlap",
    "cormp.bezier.bezier_points",
    "cormp.bezier.bezier_frames",
    "cormp.scenario.Polyline.point_at",
    "cormp.scenario.Polyline.heading_at",
}


# live sites that no cor-mp drive calls
UNREACHED: set = set()


def traced_sites() -> list:
    """`SITES` as (module, attribute) pairs, read from the source."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    sites, = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SITES"]]
    return [(site.elts[0].value, site.elts[1].value) for site in sites.elts]


def lookup(module: str, attr: str) -> tuple:
    """(owner, leaf name, function) where `install` finds the site: each dotted
    part of `attr` looked up from the module in turn; None where one is missing."""
    owner = importlib.import_module(module)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, leaf, getattr(owner, leaf, None)


def resolves(module: str, attr: str) -> bool:
    return callable(lookup(module, attr)[2])


@pytest.mark.parametrize("module, attr", traced_sites(), ids=lambda name: name)
def test_a_traced_site_resolves_unless_it_is_known_stale(module, attr):
    assert resolves(module, attr) is (f"{module}.{attr}" not in STALE)


def test_every_known_stale_site_is_still_traced():
    assert STALE <= {f"{module}.{attr}" for module, attr in traced_sites()}


def test_every_live_site_is_called_on_a_drive_with_a_committed_lane_change(monkeypatch):
    # a spy where each span would go; `overtake_static` changes lanes around a
    # parked car, so committed rows are judged through `planner`'s filter and
    # safety value
    called = set()
    live = [(f"{module}.{attr}", *lookup(module, attr)) for module, attr in traced_sites()
            if f"{module}.{attr}" not in STALE]
    for name, owner, leaf, fn in live:
        def spy(*args, fn=fn, name=name, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, leaf, spy)
    scenario, cfg = load("overtake_static"), PlannerConfig()
    log = run(scenario, CorMpPlanner(cfg, scenario.profile), cfg)
    assert any(row["committed"] for row in log.rows)
    names = {name for name, *_ in live}
    assert UNREACHED <= names
    assert sorted(names - UNREACHED - called) == []
    assert not called & UNREACHED   # a caller appeared: move the site out of UNREACHED
