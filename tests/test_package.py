"""The package surface, the demos, and the caps the README states."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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
    ("errors", "_TABLE_BUDGET"): rf"`_TABLE_BUDGET` = {_NUMBER} entries",
    ("errors", "_BLOCK_ENTRIES"): rf"`_BLOCK_ENTRIES` = {_NUMBER} entries",
    ("chaining", "_CACHED_POINTS"): rf"tables on at most {_NUMBER} points stay cached",
    ("processes", "BLOCK"): rf"`BLOCK` = {_NUMBER} replications",
    ("validation", "BOOTSTRAP_RESAMPLES"): rf"`BOOTSTRAP_RESAMPLES` = {_NUMBER} resamples",
}


@pytest.mark.parametrize("module, constant", _README_CAPS, ids=lambda name: name)
def test_readme_caps_match_the_code(module, constant):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(_README_CAPS[module, constant], readme)
    assert match, f"README no longer states {constant}"
    base, power = match.group(1), match.group(2).translate(_SUPERSCRIPTS)
    stated = int(base) ** int(power) if power else int(base)
    assert stated == getattr(importlib.import_module(f"chainbounds.{module}"), constant)


def _circulant_admits(N: int, s: int) -> bool:
    """Whether the DFT path's count admits (N, s), found without building its table."""
    rip = importlib.import_module("chainbounds.rip")
    with pytest.MonkeyPatch.context() as patched:
        for name in ("_class_table", "_cached_class_table"):
            patched.setattr(rip, name, lambda *args: None)
        try:
            rip._classes(N, s)
        except cb.CapacityError:
            return False
    return True


def test_readme_states_the_circulant_path_edges():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"circulant path admits ([^(]*)\(", readme)
    assert sentence, "README no longer states the circulant path's edges"
    edges = [(int(s), int(N)) for s, N in re.findall(r"s = (\d+) up to N = (\d+)",
                                                     sentence.group(1))]
    assert [s for s, _ in edges] == [1, 2, 3, 4, 5]
    for s, N in edges:
        assert _circulant_admits(N, s) and not _circulant_admits(N + 1, s), (s, N)


def test_one_budget_refuses_every_table_and_two_caps_every_space():
    # Exhaustive tables are refused only through errors._check_table_budget;
    # the only other CapacityErrors are metric's point caps, MAX_POINTS and
    # EXACT_COVER_CAP.
    raises = {}
    for path in sorted((ROOT / "src" / "chainbounds").glob("*.py")):
        blocks = path.read_text(encoding="utf-8").split("raise CapacityError(")[1:]
        if blocks:
            raises[path.name] = [block.split(")\n")[0] for block in blocks]
    assert sorted(raises) == ["errors.py", "metric.py"]
    assert len(raises["errors.py"]) == 1 and "_TABLE_BUDGET" in raises["errors.py"][0]
    (points, cover) = raises["metric.py"]
    assert "{MAX_POINTS}" in points and "{EXACT_COVER_CAP}" in cover


def test_one_validator_checks_every_array_for_finite_entries():
    # Arrays a caller hands in are checked by errors.check_array; np.isfinite
    # appears elsewhere only in metric's role-naming space checks and in
    # TailBound._valid_u's "finite u".
    calls = {}
    for path in sorted((ROOT / "src" / "chainbounds").glob("*.py")):
        count = path.read_text(encoding="utf-8").count("np.isfinite")
        if count and path.name not in ("errors.py", "metric.py"):
            calls[path.name] = count
    assert calls == {"results.py": 1}
    assert "np.isfinite" in inspect.getsource(cb.TailBound._valid_u)


def _public_callables():
    """(name, callable) for every callable in chainbounds.__all__, and for the
    constructor and public methods of every exported class."""
    for name in cb.__all__:
        obj = getattr(cb, name)
        if inspect.isclass(obj):
            yield name, obj
            for attr in dir(obj):
                member = getattr(obj, attr)
                if not attr.startswith("_") and inspect.isroutine(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


# Settings that module constants fix: the confidence level, the resample
# count, the Orlicz bisection's tolerance and budget, and a count of random
# test vectors, which no callable takes today.
_FIXED_SETTINGS = {"n_small", "confidence", "resamples", "tol", "max_iter", "test_vectors"}
# Result records that store such a setting as provenance, not take it.
_RECORDED = {"MomentEstimate(resamples)"}


def test_no_public_callable_takes_a_caller_set_cap():
    # Exhaustive searches are refused, and verdicts drawn, by module constants
    # alone; a cap or a level the caller can pass (NaN, a string, True) is a
    # knob with no validator.
    taken = []
    for name, fn in _public_callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # builtins without a signature
            continue
        taken += [f"{name}({p})" for p in params if p.endswith("_cap") or p in _FIXED_SETTINGS]
    assert [t for t in taken if t not in _RECORDED] == []


def _functions_calling(module: str, call: str) -> list[str]:
    """Names of the module-level functions of chainbounds/<module>.py whose
    source holds call."""
    source = (ROOT / "src" / "chainbounds" / f"{module}.py").read_text(encoding="utf-8")
    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and call in ast.get_source_segment(source, node)]


def test_each_value_has_one_way_in():
    # A value that repeats another input, has one legal value or only leads to
    # a refusal is not settable: the registry sets the Hanson-Wright rate, the
    # psi_1 form of Bernstein was sigma and K renamed, radii carry their gamma_2
    # estimate and space, every row family's mean is known, and a CSV always
    # carries its config hash.
    assert "c_fit" not in inspect.signature(cb.hanson_wright_tail).parameters
    assert "form" not in inspect.signature(cb.bernstein_tail).parameters
    assert [f.name for f in dataclasses.fields(cb.BernsteinParams)] == ["m", "sigma", "K"]
    assert [f.name for f in dataclasses.fields(cb.RowDistribution)] == ["name", "scale"]
    radii = inspect.signature(cb.SchattenRadii).parameters
    assert [radii[n].default for n in ("gamma2_dinf", "space")] == [inspect.Parameter.empty] * 2
    with pytest.raises(cb.DomainError, match="unknown mode 'none'"):
        cb.schatten_radii([[[1.0]]], gamma_mode="none")
    header = inspect.signature(importlib.import_module("chainbounds.serialize").write_csv)
    assert header.parameters["header_comment"].default is inspect.Parameter.empty


def test_one_constructor_per_bound_form():
    # Every TailBound is built, and a given u checked, by conversions._tail;
    # in bounds.py only the fitted-family helper and hanson_wright_tail (whose
    # envelope is not exp(-u)) look up a constant with no derived value.
    built = {}
    for path in sorted((ROOT / "src" / "chainbounds").glob("*.py")):
        count = path.read_text(encoding="utf-8").count("TailBound(")
        if count:
            built[path.name] = count
    assert built == {"conversions.py": 1}
    assert _functions_calling("conversions", "TailBound(") == ["_tail"]
    assert _functions_calling("bounds", "registry.require(") == [
        "_fitted_bound", "hanson_wright_tail"]


def test_only_emit_prints_to_stdout_in_the_cli():
    # A command's stdout is printed by cli._emit once the report is written, so
    # a command that fails prints nothing there; errors go to sys.stderr.
    source = (ROOT / "src" / "chainbounds" / "cli.py").read_text(encoding="utf-8")
    printers = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "print":
                target = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
                if target != ["sys.stderr"]:
                    printers.append(getattr(top, "name", "<module>"))
    assert printers == ["_emit"]
    assert "sys.stdout" not in source


def test_the_gamma_auto_rule_lives_in_chaining():
    # chainbounds gamma and schatten_radii ask chaining._gamma_search which
    # search answers; neither resolves a mode itself.
    for module in ("cli", "schatten"):
        source = (ROOT / "src" / "chainbounds" / f"{module}.py").read_text(encoding="utf-8")
        assert "_exact_entries" not in source and "_gamma_mode" not in source, module


def test_every_function_the_benchmark_span_recorder_groups_is_one_it_wraps():
    # The recorder (bench/spans.py) wraps the public functions of its layer
    # modules and sums a group over the names it lists; a renamed or private
    # function would leave its group at zero without an error.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    layered = {m for modules in spans.LAYERS.values() for m in modules}
    wrapped = {f"{m}.{name}" for m in layered
               for name, _ in spans._public_functions(importlib.import_module(f"chainbounds.{m}"))}
    tables = {"GROUPS": [n for members, _ in spans.GROUPS.values() for n in members],
              "_SIMULATORS": spans._SIMULATORS, "_WRITES": spans._WRITES,
              "_BUILDS": spans._BUILDS}
    missing = {table: [n for n in names if n not in wrapped and n not in layered]
               for table, names in tables.items()}
    assert missing == dict.fromkeys(tables, [])


# Public names that nothing in src/chainbounds/, demos/ or bench/ reads, each
# with its reason to stay: the numbered ROADMAP item that will call it, or the
# test that compares a package path against it.
_UNREACHED = {
    "admissible_sets": "ROADMAP item 9: checks a swap-descent witness sequence",
    "functional_value": "ROADMAP item 9: the certified value of a swap-descent witness",
    "merge_partitions": "ROADMAP item 3: builds a partition witness of exact γ′",
    "lp_tail_integral_bound": "ROADMAP item 17: the derived chaining constants",
    "build_dft": "reference: tests/test_rip.py::test_dft_constant_is_the_enumeration_bit_for_bit",
}


def _read_names(path: Path) -> set[str]:
    """The names ("x") and attribute names (".x") a file reads, each outside
    the body of a definition of the same name."""
    read = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and node.id not in defining:
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            read.add("." + node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return read


def _public_surface():
    """(key, token) for every chainbounds.__all__ name, read as a name or an
    attribute, and for every public method or property an exported class
    defines, read as an attribute."""
    for name in cb.__all__:
        yield name, name
        obj = getattr(cb, name)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(
                        member, (property, classmethod, staticmethod))):
                    yield f"{name}.{attr}", "." + attr


def test_the_public_surface_is_what_the_system_reaches():
    # A public name is read by the package outside its own definition, by a
    # demo or by bench/, or it is allowlisted with its reason.  An allowlisted
    # name that something reads fails too, so the list cannot go stale.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    read = {"." + qualified.rsplit(".", 1)[-1]
            for members, _ in spans.GROUPS.values() for qualified in members}
    for folder in ("src/chainbounds", "demos", "bench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            read |= _read_names(path)
    unreached = [key for key, token in _public_surface()
                 if token not in read and (token.startswith(".") or "." + token not in read)]
    assert sorted(unreached) == sorted(_UNREACHED)
    for reason in _UNREACHED.values():
        item = re.fullmatch(r"ROADMAP item (\d+): .+", reason)
        ref = re.fullmatch(r"reference: (tests/\w+\.py)::(\w+)", reason)
        assert item or ref, reason
        if ref:
            assert f"def {ref[2]}(" in (ROOT / ref[1]).read_text(encoding="utf-8"), reason
