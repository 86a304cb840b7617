"""The package surface and the demos."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainbounds as cb

ROOT = Path(__file__).resolve().parents[1]
MODULES = (
    "bounds", "chaining", "conversions", "errors", "metric", "orlicz", "processes",
    "registry", "results", "rip", "schatten", "serialize", "validation",
)


def test_all_is_the_union_of_the_module_exports():
    lists = [importlib.import_module(f"chainbounds.{m}").__all__ for m in MODULES]
    names = [n for names in lists for n in names]
    assert len(names) == len(set(names)), "a name is exported by two modules"
    assert sorted(cb.__all__) == sorted(names)
    assert [n for n in cb.__all__ if not hasattr(cb, n)] == []


def test_import_loads_no_scipy_stats_or_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = (
        "import sys, chainbounds, chainbounds.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
