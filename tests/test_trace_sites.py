"""Every site the benchmark's traced run wraps still names a function of the program.

`perfbench/spans.py` wraps each `SITES` entry where its module looks the
function up; a site that no longer resolves is reported once and then reads 0
in every traced metric. `SITES` is parsed from the source, so no span is
installed and nothing of the benchmark runs.
"""
import ast
import importlib

import pytest

from conftest import ROOT

# the sites that went stale before this guard; fixing one removes it from here
STALE = {
    "cormp.planner.assess_candidate",
    "cormp.bezier.arc_length",
    "cormp.identification.any_overlap",
    "cormp.identification.rect_gap",
    "cormp.resources.any_overlap",
    "cormp.bezier.bezier_points",
    "cormp.bezier.bezier_frames",
}


def traced_sites() -> list:
    """`SITES` as (module, attribute) pairs, read from the source."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    sites, = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SITES"]]
    return [(site.elts[0].value, site.elts[1].value) for site in sites.elts]


def resolves(module: str, attr: str) -> bool:
    """Whether `install` would find the function: each dotted part of `attr`
    looked up from the module in turn."""
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


@pytest.mark.parametrize("module, attr", traced_sites(), ids=lambda name: name)
def test_a_traced_site_resolves_unless_it_is_known_stale(module, attr):
    assert resolves(module, attr) is (f"{module}.{attr}" not in STALE)


def test_every_known_stale_site_is_still_traced():
    assert STALE <= {f"{module}.{attr}" for module, attr in traced_sites()}
