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


def _python(*args, cwd=None) -> str:
    """Standard output of a fresh interpreter that imports the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_import_loads_no_public_scipy_subpackage_but_special():
    # The README states that importing the package loads no scipy: only the
    # Clopper-Pearson bounds import scipy.special, on their first call.
    code = "import sys, chainbounds, chainbounds.cli; print(' '.join(sys.modules))"
    assert [m for m in _python("-c", code).split() if m.split(".")[0] == "scipy"] == []


def test_commands_without_validation_load_no_scipy(tmp_path):
    (tmp_path / "s.json").write_text('{"points": [[0, 0], [1, 0], [0, 2], [3, 1], [2, 2]]}')
    (tmp_path / "g.json").write_text('{"gamma2": {"alpha": 2, "value": 1}, "sigma": 1, "u": 1}')
    commands = [
        ["gamma", "--space", "s.json", "--alpha", "2"],
        ["gamma", "--space", "s.json", "--alpha", "2", "--functional", "gamma-prime"],
        ["cover", "--space", "s.json", "--profile", "--entropy-alpha", "2", "--radius", "1"],
        ["bound", "union-constant"],
        ["bound", "gaussian", "--params", "g.json"],
        ["rip", "exact", "--N", "8", "--m", "4", "--s", "2", "--seed", "3"],
    ]
    code = (
        "import sys\n"
        "from chainbounds.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv + ['--out', 'out']) == 0, argv\n"
        "    assert 'scipy' not in sys.modules, argv\n"
        "print('ok')\n"
    )
    assert _python("-c", code, cwd=tmp_path).split()[-1] == "ok"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    _python(str(ROOT / "demos" / demo), cwd=tmp_path)


_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
_NUMBER = r"(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)"  # 5000, or a power such as 10⁶ or 2¹⁵


# Each cap the README states, by module and constant: the phrase that states it.
_README_CAPS = {
    ("metric", "MAX_POINTS"): rf"`MAX_POINTS` = {_NUMBER} points",
    ("metric", "EXACT_COVER_CAP"): rf"up to `EXACT_COVER_CAP` = {_NUMBER} points",
    ("chaining", "GAMMA_EXACT_CAP"): rf"capped at {_NUMBER} points, `GAMMA_EXACT_CAP`",
    ("chaining", "_TABLE_BUDGET"): rf"`_TABLE_BUDGET` = {_NUMBER} entries",
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
