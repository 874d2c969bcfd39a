"""Guards on the names that code outside the package relies on.

The demos import from ``qreflect`` by name, and the benchmark's tracer
(``perfbench/tracing.py``) patches module attributes and class methods by
name; a rename or a pruned alias must fail here, not in a demo run or a
traced benchmark run. One pass of each benchmark workload
(``perfbench/workloads.py``) must pass the workload's own checks here too.
"""

import ast
from pathlib import Path

import pytest

import qreflect

from helpers import ROOT, load_perfbench

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def imported_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "qreflect"
            for alias in node.names]


def test_demos_found():
    assert DEMOS, "no demos found: the import checks below would pass vacuously"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    names = imported_names(demo)
    assert names
    missing = [name for name in names if not hasattr(qreflect, name)]
    assert missing == []


WORKLOADS = load_perfbench("workloads").WORKLOADS


def test_benchmark_tracer_installs_and_uninstalls():
    tracer = load_perfbench("tracing").Tracer()
    try:
        tracer.install()
        patched = [(owner, attr, original) for owner, attr, original in tracer._patched]
        assert patched
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_passes_its_checks(tmp_path, name):
    # one pass of the workload at seed 1, as the benchmark runs it: every
    # operation must pass the workload's own check
    workload = WORKLOADS[name](1, str(tmp_path / "input"))
    workload.write_inputs()
    workload.setup()
    workload.prepare()
    results = [(label, op()) for label, op in workload.ops()]
    ok, _ = workload.check(results)
    assert ok and all(ok), [label for (label, _), good in zip(results, ok) if not good]
