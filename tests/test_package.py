"""The package surface, the demos, and the caps the README states."""

import importlib
import os
import re
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


def test_import_loads_no_public_scipy_subpackage_but_special():
    # The README states that the package imports only scipy.special, so a
    # stray module-level import of scipy.stats, say, fails here.
    # scipy.version is loaded by `import scipy` itself.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, chainbounds, chainbounds.cli; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = {m.split(".")[1] for m in proc.stdout.split() if m.startswith("scipy.")}
    assert {m for m in loaded if not m.startswith("_")} <= {"special", "version"}


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
_NUMBER = r"(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)"  # 5000, or a power such as 10⁶ or 2¹⁵


# Each cap the README states, by module and constant: the phrase that states it.
_README_CAPS = {
    ("metric", "MAX_POINTS"): rf"`MAX_POINTS` = {_NUMBER} points",
    ("metric", "EXACT_COVER_CAP"): rf"up to `EXACT_COVER_CAP` = {_NUMBER} points",
    ("chaining", "GAMMA_EXACT_CAP"): rf"capped at {_NUMBER} points, `GAMMA_EXACT_CAP`",
    ("rip", "ENUMERATION_CAP"): rf"capped at {_NUMBER} supports, `ENUMERATION_CAP`",
    ("processes", "SIGN_ENUM_CAP"): rf"n ≤ {_NUMBER} \(`SIGN_ENUM_CAP`\)",
    ("processes", "BLOCK"): rf"`BLOCK` = {_NUMBER} replications",
    ("rip", "_BATCH"): rf"at most `_BATCH` = {_NUMBER} blocks",
    ("validation", "_RESAMPLE_BLOCK"): rf"`_RESAMPLE_BLOCK` = {_NUMBER},",
}


@pytest.mark.parametrize("module, constant", _README_CAPS, ids=lambda name: name)
def test_readme_caps_match_the_code(module, constant):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(_README_CAPS[module, constant], readme)
    assert match, f"README no longer states {constant}"
    base, power = match.group(1), match.group(2).translate(_SUPERSCRIPTS)
    stated = int(base) ** int(power) if power else int(base)
    assert stated == getattr(importlib.import_module(f"chainbounds.{module}"), constant)
