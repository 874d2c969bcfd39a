"""Guards on the names that code outside the package relies on.

The demos import from ``qreflect`` by name, and the benchmark's tracer
(``perfbench/tracing.py``) patches module attributes and class methods by
name; a rename or a pruned alias must fail here, not in a demo run or a
traced benchmark run.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

import qreflect

ROOT = Path(__file__).resolve().parents[1]
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


def test_benchmark_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = [(owner, attr, original) for owner, attr, original in tracer._patched]
        assert patched
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
