"""chainbounds command-line interface.

Subcommands: gamma, cover, orlicz, bound, simulate, rip, chaos.  rip takes
its action first, and each action declares only the options it reads:
``rip exact --N --m --s --seed``, ``rip curve --N --s --delta --m-list
[--reps] --seed`` and ``rip complexity --N --s --delta --eta --d1 --d2 [--K]``.
Every stochastic command demands an explicit --seed (or config seed) and
exits 2 without one; exit 1 is reserved for a "violated" validation verdict,
exit 2 for usage/config errors.  A command prints to stdout only once its
artifacts are written (see _emit), so one that fails prints nothing there
and stdout states only what an artifact records.  Artifacts are JSON reports
(plus plot-ready CSV for grids), named by a hash of the config with no
timestamps, so re-running a config reproduces the files byte for byte.  The
config is every option the command declares except --out, with each input
file named by what was read from it (see _config); orlicz names its samples
by their float64 values and simulate hashes its config file's contents.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import math
import os
import sys

import numpy as np

from . import conversions
from .bounds import (
    azuma_uniform_bound,
    chaos_supremum_bound,
    empirical_process_bound,
    gaussian_process_bound,
    hanson_wright_tail,
    kmr_parameters,
    mixed_tail_supremum_bound,
    psi_alpha_supremum_bound,
    squares_l2_increment_tail,
    squares_supremum_bound,
)
from .chaining import (
    GammaEstimate,
    _gamma_search,
    gamma_prime,
    truncation_level,
)
from .errors import DomainError, check_int, check_real
from .metric import covering_number, covering_profile, entropy_integral
from .orlicz import OrliczNorm, psi_norm_analytic, psi_norm_empirical
from .processes import (
    SEED_MAX,
    RowDistribution,
    empirical_model,
    gaussian_model,
    martingale_model,
    simulate_chaos,
    simulate_empirical,
    simulate_gaussian,
    simulate_martingale_family,
    simulate_squares,
    squares_model,
)
from .registry import DEFAULT_REGISTRY, ConstantRegistry
from .results import MomentBound, TailBound
from .rip import (
    _class_count,
    _instance_arguments,
    estimate_failure_probability,
    sample_complexity,
    subsampled_instance,
)
from .schatten import schatten_radii
from .serialize import (
    config_hash,
    load_json,
    load_samples,
    matrix_from_json,
    space_from_json,
    write_csv,
    write_json,
)
from .validation import _moment_orders, _u_grid, estimate_moments, validate_bound

OUTPUT_DIR_ENV = "CHAINBOUNDS_OUTPUT_DIR"
CURVE_FIELDS = ("m", "estimate", "ci_lower", "ci_upper", "failures", "reps", "mean_realized_rows")


def _registry(args, inline=None) -> tuple[ConstantRegistry, dict | None]:
    """Default constants overridden by a --fit file, then by inline values;
    and the "fit" entry of the hashed config: the constants used when --fit is
    given, not its path, so different fits never share an artifact name."""
    reg = DEFAULT_REGISTRY
    if args.fit:
        reg = ConstantRegistry.from_json(args.fit)
    if inline:
        reg = reg.with_fitted(**{str(k): v for k, v in inline.items()})
    return reg, (dict(reg.fitted) if args.fit else None)


def _config(args, **read) -> dict:
    """The hashed config: every parsed option but --out, each input replaced by
    what was read from it (read), so what was read names the artifact, not where."""
    options = {k: v for k, v in vars(args).items() if k not in ("out", "command", "func")}
    return {**options, **read}


def _emit(args, stem: str, config: dict, payload: dict, lines: list, rows=None,
          code: int = 0) -> int:
    """Write the JSON report (and optional CSV grid, whose columns are the keys
    of its rows), then print lines and the paths written; returns code.

    The one place a command prints to stdout: a command that fails before its
    report is written prints nothing, so stdout states only what an artifact records.
    """
    h = config_hash(config)
    report = {
        "command": stem,
        "config": config,
        "config_hash": h,
        **payload,
    }
    base = os.path.join(args.out or os.environ.get(OUTPUT_DIR_ENV) or ".", f"{stem}-{h[:12]}")
    paths = [base + ".json"]
    write_json(paths[0], report)
    if rows is not None:
        paths.append(base + ".csv")
        write_csv(paths[1], rows[0].keys(), rows, header_comment=f"config_hash: {h}")
    for line in [*lines, *(f"wrote {p}" for p in paths)]:
        print(line)
    return code


def _parse_float_list(text: str, name: str) -> list[float]:
    try:
        vals = [float(v) for v in str(text).split(",") if v.strip() != ""]
    except ValueError:
        raise DomainError(f"{name} must be a comma-separated number list, got {text!r}")
    if not vals:
        raise DomainError(f"{name} must contain at least one value")
    return vals


def _require_seed(seed) -> int:
    if seed is None:
        raise DomainError("a --seed (or config seed) is mandatory for stochastic commands")
    return check_int("seed", seed, 0, SEED_MAX)


# ---------------------------------------------------------------- gamma


def _cmd_gamma(args) -> int:
    # gamma_prime has no order; p, 1 by default, still enters the config hash.
    if args.functional == "gamma-prime" and math.isfinite(args.p) and args.p != 1.0:
        raise DomainError(f"--p applies to --functional gamma only, got --p {args.p:g} "
                          "with gamma-prime")
    check_real("order p", args.p, 1.0)
    contents = load_json(args.space)
    space = space_from_json(contents)
    if args.functional == "gamma-prime":
        est = gamma_prime(space, args.alpha, mode=args.mode)
    else:
        est = _gamma_search(args.mode, space.size, args.p)(space, args.alpha, p=args.p)
    witness = None
    if est.sequence is not None:
        witness = {"kind": est.sequence.kind, "levels": est.sequence.levels}
    payload = {
        "value": est.value,
        "alpha": est.alpha,
        "p": est.p,
        "truncation_level": est.l,
        "mode": est.mode,
        "size": space.size,
        "witness": witness,
    }
    line = (f"{args.functional} alpha={args.alpha:g} p={args.p:g} mode={est.mode}: "
            f"value = {est.value:.12g}")
    return _emit(args, "gamma", _config(args, space=config_hash(contents)), payload, [line])


# ---------------------------------------------------------------- cover


def _cmd_cover(args) -> int:
    if args.radius is not None and not math.isfinite(args.radius):
        raise DomainError(f"--radius must be finite, got {args.radius}")
    contents = load_json(args.space)
    space = space_from_json(contents)
    payload: dict = {"size": space.size, "diameter": space.diameter()}
    rows = None
    lines = []
    if args.radius is None and not args.profile and args.entropy_alpha is None:
        raise DomainError("cover needs --radius, --profile, or --entropy-alpha")
    if args.radius is not None:
        res = covering_number(space, args.radius, mode=args.mode)
        payload["cover"] = {
            "radius": res.radius,
            "count": res.count,
            "centers": [space.labels[i] for i in res.centers],
            "mode": res.mode,
        }
        lines.append(f"N(T, d, {res.radius:g}) = {res.count} [{res.mode}]")
    if args.profile or args.entropy_alpha is not None:
        # memoised on the space: entropy_integral below reads this same profile
        prof = covering_profile(space, mode=args.mode)
    if args.profile:
        rows = [{"radius": r, "count": c} for r, c in zip(prof.radii, prof.counts)]
        payload["profile"] = {"radii": prof.radii, "counts": prof.counts, "mode": prof.mode}
        lines += [f"radius {r:.6g}: count {c}" for r, c in zip(prof.radii, prof.counts)]
    if args.entropy_alpha is not None:
        ent = entropy_integral(space, args.entropy_alpha, mode=args.mode)
        payload["entropy_integral"] = {"alpha": ent.alpha, "value": ent.value, "mode": ent.mode}
        lines.append(f"entropy integral (alpha={ent.alpha:g}) = {ent.value:.12g}")
    return _emit(args, "cover", _config(args, space=config_hash(contents)), payload, lines,
                 rows=rows)


# ---------------------------------------------------------------- orlicz


def _cmd_orlicz(args) -> int:
    if (args.family is None) == (args.samples is None):
        raise DomainError("orlicz needs exactly one of --family or --samples")
    if args.family is not None:
        norm = psi_norm_analytic(args.family, args.parameter, args.alpha)
        config = {"family": args.family, "parameter": args.parameter, "alpha": args.alpha}
    else:
        data = load_samples(args.samples, args.format)
        norm = psi_norm_empirical(data, args.alpha)
        # what was read names the artifact, not where
        digest = hashlib.sha256(np.asarray(data, dtype="<f8").tobytes()).hexdigest()
        config = {"samples": digest, "format": args.format, "alpha": args.alpha}
    payload = {
        "alpha": norm.alpha,
        "value": norm.value,
        "source": norm.source,
        "sample_count": norm.sample_count,
    }
    line = f"psi_{norm.alpha:g} norm = {norm.value:.12g} ({norm.source})"
    return _emit(args, "orlicz", config, payload, [line])


# ---------------------------------------------------------------- bound


def _gamma_param(obj, what: str) -> GammaEstimate:
    if not isinstance(obj, dict) or "value" not in obj or "alpha" not in obj:
        raise DomainError(f'{what} must be an object with "alpha", "value", optional "p"')
    p = check_real(f"{what}.p", obj.get("p", 1.0), 1.0)
    return GammaEstimate(
        alpha=check_real(f"{what}.alpha", obj["alpha"], 0.0, strict=True),
        p=p,
        l=truncation_level(p),
        value=check_real(f"{what}.value", obj["value"], 0.0),
        mode=str(obj.get("mode", "supplied")),
        sequence=None,
    )


def _orlicz_param(obj, what: str) -> OrliczNorm:
    if not isinstance(obj, dict) or "value" not in obj:
        raise DomainError(f'{what} must be an object with "value" and optional "alpha"')
    return OrliczNorm(
        alpha=check_real(f"{what}.alpha", obj.get("alpha", 2.0), 0.0, strict=True),
        value=check_real(f"{what}.value", obj["value"], 0.0),
        source=str(obj.get("source", "supplied")),
    )


def _matrices(values) -> list:
    """A JSON matrix family, decoded; DomainError naming matrices unless it is a list."""
    if not isinstance(values, list):
        raise DomainError(f"matrices must be a JSON list of matrices, got {type(values).__name__}")
    return [matrix_from_json(m) for m in values]


def _radii_param(params: dict):
    return schatten_radii(
        _matrices(params["matrices"]),
        gamma_mode=params.get("gamma_mode", "auto"),
        p=check_real("gamma_p", params.get("gamma_p", 1.0), 1.0),
    )


# Bound names whose params are exactly their evaluator's keyword arguments.
_DIRECT_BOUNDS = {
    "moments-to-tails": conversions.moments_to_tails,
    "moments-to-tails-mixed": conversions.moments_to_tails_mixed,
    "tails-to-moments": conversions.tails_to_moments,
    "tails-to-moments-mixed": conversions.tails_to_moments_mixed,
    "small-set": conversions.small_set_moment_bound,
    "lp-from-tail": conversions.lp_from_tail,
    "psi-alpha": psi_alpha_supremum_bound,
    "gaussian": gaussian_process_bound,
    "azuma": azuma_uniform_bound,
    "mixed-tail": mixed_tail_supremum_bound,
    "empirical": empirical_process_bound,
    "squares": squares_supremum_bound,
    "squares-l2": squares_l2_increment_tail,
}
# JSON decoders by parameter annotation, a string under postponed evaluation.
_DECODERS = {"GammaEstimate": _gamma_param, "OrliczNorm": _orlicz_param}


def _call_with_params(fn, params: dict, reg: ConstantRegistry, /, **given):
    """fn(**given) plus every other keyword argument read from params by name.

    Arguments are read in signature order, so a config with two faults
    reports the first.  registry is reg; a functional or psi-norm is decoded
    by its annotation; keys that are not parameters are ignored.  A missing
    required argument raises KeyError(name).
    """
    kwargs = dict(given)
    for name, par in inspect.signature(fn).parameters.items():
        if name in given:
            continue
        if name == "registry":
            kwargs[name] = reg
        elif name in params:
            decode = _DECODERS.get(par.annotation)
            kwargs[name] = params[name] if decode is None else decode(params[name], name)
        elif par.default is par.empty:
            raise KeyError(name)
    return fn(**kwargs)


def _build_bound(name: str, params: dict, reg: ConstantRegistry):
    """Dispatch a bound name to its evaluator; returns the result object."""
    if not isinstance(name, str):
        raise DomainError(f"bound name must be a string, got {name!r}")
    if name in _DIRECT_BOUNDS:
        return _call_with_params(_DIRECT_BOUNDS[name], params, reg)
    if name == "union-constant":
        return {"value": conversions.union_bound_constant(), "cap": 16.0}
    if name == "union-probability":
        prob = _call_with_params(conversions.union_bound_probability, params, reg)
        c, fitted = reg.union_c()
        return {"probability": prob, "union_c": c, "fitted": fitted}
    if name == "bernstein":
        bp = _call_with_params(conversions.BernsteinParams, params, reg)
        return _call_with_params(conversions.bernstein_tail, params, reg, params=bp)
    if name == "hanson-wright":
        return _call_with_params(
            hanson_wright_tail, params, reg, B=matrix_from_json(params["matrix"])
        )
    if name == "chaos":
        return _call_with_params(chaos_supremum_bound, params, reg, radii=_radii_param(params))
    if name == "kmr":
        return {**kmr_parameters(_radii_param(params)), "fitted": False}
    raise DomainError(f"unknown bound name {name!r}")


def _bound_payload(result, params: dict, reg: ConstantRegistry) -> tuple[dict, str]:
    """The bound report's payload and its stdout line."""
    payload: dict = {"registry": reg.snapshot()}
    if isinstance(result, TailBound):
        payload["bound"] = result.to_dict()
        payload["kind"] = "tail"
        payload["fitted"] = result.fitted
        if params.get("u") is not None:
            u = check_real("u", params["u"], -math.inf)  # the bound checks its range
            at_u = {"u": u, "threshold": result.threshold(u),
                    "envelope": float(result.probability(u))}
            payload["at_u"] = at_u
            line = (f"{result.name}: threshold(u={u:g}) = {at_u['threshold']:.12g}, "
                    f"envelope = {at_u['envelope']:.6g}, fitted = {result.fitted}")
        else:
            line = f"{result.name}: tail bound (fitted = {result.fitted})"
    elif isinstance(result, MomentBound):
        payload["bound"] = result.to_dict()
        payload["kind"] = "moment"
        payload["fitted"] = result.fitted
        line = f"{result.name}: (E sup^p)^(1/p) <= {result.value:.12g} at p = {result.p:g}"
    else:
        payload["bound"] = dict(result)
        payload["kind"] = "scalar"
        payload["fitted"] = bool(result.get("fitted", False))
        shown = {k: v for k, v in result.items() if isinstance(v, (int, float))}
        line = ", ".join(f"{k} = {v}" if isinstance(v, bool) else f"{k} = {v:.10g}"
                         for k, v in shown.items())
    return payload, line


def _cmd_bound(args) -> int:
    params = load_json(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise DomainError("--params file must hold a JSON object")
    reg, fit = _registry(args)
    payload, line = _bound_payload(_build_bound(args.name, params, reg), params, reg)
    return _emit(args, "bound", _config(args, params=params, fit=fit), payload, [line])


# ---------------------------------------------------------------- simulate


def _flag(name: str, value) -> bool:
    """value, which must be a JSON boolean."""
    if not isinstance(value, bool):
        raise DomainError(f"{name} must be true or false, got {value!r}")
    return value


def _object(name: str, value) -> dict:
    """value, which must be a JSON object."""
    if not isinstance(value, dict):
        raise DomainError(f"{name} must be a JSON object, got {value!r}")
    return value


def _run_model(spec: dict, reps: int, seed: int):
    """Build the configured model and simulate it."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError('model config must be an object with a "kind"')
    kind = spec["kind"]
    labels = spec.get("labels")
    if kind == "gaussian":
        model = gaussian_model(spec["covariance"], labels=labels)
        return simulate_gaussian(model, reps, seed, base_point=spec.get("base_point", 0))
    if kind == "martingale-family":
        model = martingale_model(spec["coefficients"], labels=labels,
                                 step_bounds=spec.get("step_bounds"))
        return simulate_martingale_family(model, reps, seed)
    if kind in ("empirical", "squares"):
        base_spec = _object("base", spec.get("base", {}))
        base = RowDistribution(
            name=base_spec.get("name", "rademacher"),
            scale=check_real("base.scale", base_spec.get("scale", 1.0), -math.inf),
            mean_known=_flag("base.mean_known", base_spec.get("mean_known", True)),
        )
        builder, simulate = (
            (empirical_model, simulate_empirical)
            if kind == "empirical"
            else (squares_model, simulate_squares)
        )
        model = builder(spec["coefficients"], base, labels=labels)
        return simulate(model, spec.get("m", model.coefficients.shape[1]), reps, seed)
    if kind == "chaos":
        mats = _matrices(spec["matrices"])
        xi_spec = _object("xi", spec.get("xi", {}))
        xi = RowDistribution(
            name=xi_spec.get("name", "rademacher"),
            scale=check_real("xi.scale", xi_spec.get("scale", 1.0), -math.inf),
        )
        decoupled = _flag("decoupled", spec.get("decoupled", False))
        return simulate_chaos(mats, xi, reps, seed, decoupled=decoupled)
    raise DomainError(f"unknown model kind {kind!r} in simulate config")


def _record_validation(report, payload: dict, lines: list) -> tuple[list, int]:
    """Record a report's verdict in payload and its rows in lines; return (rows,
    exit code).  A moment row has no tail envelope; its rows entry carries None there.
    """
    rows = [dict(r) for r in report.rows]
    for r in rows:
        if not math.isfinite(r["envelope"]):
            r["envelope"] = None
        point = f"u={r['u']:g}" if "u" in r else f"p={r['p']:g}"
        env = "" if r["envelope"] is None else f"envelope={r['envelope']:.6g} "
        lines.append(f"{point} threshold={r['threshold']:.6g} {env}"
                     f"empirical={r['empirical']:.6g} ci_upper={r['ci_upper']:.6g} {r['verdict']}")
    payload["bound"] = report.bound.to_dict()
    payload["verdict"] = report.verdict
    payload["paper_confirmed"] = report.paper_confirmed
    return rows, int(report.verdict == "violated")


def _checked_grid(bound: TailBound, u_grid) -> np.ndarray:
    """u_grid typed and checked entry by entry against bound, in the order
    validate_bound reads it, so that a faulty entry costs no simulation."""
    grid = _u_grid(u_grid)
    for u in grid:
        bound.threshold(u)
    return grid


def _cmd_simulate(args) -> int:
    config = load_json(args.config)
    if not isinstance(config, dict):
        raise DomainError("simulate config must be a JSON object")
    seed = _require_seed(args.seed if args.seed is not None else config.get("seed"))
    reps = args.reps if args.reps is not None else config.get("reps", 0)
    reps = check_int("reps (config or --reps)", reps, 1)
    reg, fit = _registry(args, inline=_object("fit", config.get("fit", {})))
    spec = config["model"]
    # The bound is built, and every u_grid entry checked against it, or the
    # moment orders read, before the model runs: a faulty one costs no simulation.
    if "bound" in config:
        bound_spec = _object("bound", config["bound"])
        params = _object("bound.params", bound_spec.get("params", {}))
        bound = _build_bound(bound_spec["name"], params, reg)
        if not isinstance(bound, (TailBound, MomentBound)):
            raise DomainError(f"bound {bound_spec['name']!r} is not validatable")
        u_grid = config.get("u_grid")
        if isinstance(bound, TailBound):
            if u_grid is None:
                raise DomainError("tail-bound validation needs a u_grid in the config")
            u_grid = _checked_grid(bound, u_grid)
    else:
        p_list = _moment_orders(config.get("p_list", [1.0]))
    sample = _run_model(spec, reps, seed)
    payload: dict = {
        "seed": seed,
        "reps": reps,
        "registry": reg.snapshot(),
        "sample": {
            "mean": float(sample.values.mean()),
            "max": float(sample.values.max()),
            "base_point": sample.base_point,
        },
    }
    rows = None
    code = 0
    lines: list = []
    if "bound" in config:
        rows, code = _record_validation(validate_bound(sample, bound, u_grid=u_grid), payload,
                                        lines)
        payload["rows"] = rows
    else:
        ests = estimate_moments(sample, p_list)
        payload["moments"] = [
            {"p": e.p, "estimate": e.estimate, "ci_low": e.ci_low, "ci_high": e.ci_high}
            for e in ests
        ]
        lines += [f"p={e.p:g} estimate={e.estimate:.6g} ci=[{e.ci_low:.6g}, {e.ci_high:.6g}]"
                  for e in ests]
    hashed = {**config, "seed": seed, "reps": reps}
    if fit is not None:
        hashed["fit"] = fit
    return _emit(args, "simulate", hashed, payload, lines, rows=rows, code=code)


# ---------------------------------------------------------------- rip


def _cmd_rip_exact(args) -> int:
    seed = _require_seed(args.seed)
    # s and its class table are refused before the draw and the N^2 flatness read
    N, m, seed = _instance_arguments(args.N, args.m, seed)
    _class_count(N, check_int("s", args.s, 1, N))
    inst = subsampled_instance(N, m, seed)
    report = inst.delta(args.s)
    payload = {
        "seed": seed,
        "delta_s": report.delta_s,
        "s": args.s,
        "realized_rows": inst.realized_rows,
        "selected": list(inst.I),
        "witness_support": list(report.witness_support),
        "witness_value": report.witness_value,
        "K": inst.K,
    }
    line = (f"delta_{args.s} = {report.delta_s:.12g} (|I| = {inst.realized_rows}, "
            f"support {report.witness_support})")
    return _emit(args, "rip-exact", _config(args), payload, [line])


def _cmd_rip_curve(args) -> int:
    seed = _require_seed(args.seed)
    # Every entry is checked against N before the first replication; s and
    # the table budget of the support enumeration are checked by the first
    # estimate before its draws.
    N = check_int("N", args.N, 1)
    m_list = [check_int("m", check_int("--m-list entry", v, 1), 1, N)
              for v in _parse_float_list(args.m_list, "--m-list")]
    rows = []
    for m in m_list:
        est = estimate_failure_probability(args.N, m, args.s, args.delta, args.reps, seed)
        rows.append({k: est[k] for k in CURVE_FIELDS})
    lines = [f"m={r['m']}: P(delta_{args.s} >= {args.delta:g}) ~ {r['estimate']:.4f} "
             f"[{r['ci_lower']:.4f}, {r['ci_upper']:.4f}]" for r in rows]
    payload = {"seed": seed, "curve": rows}
    return _emit(args, "rip-curve", _config(args, m_list=m_list), payload, lines, rows=rows)


def _cmd_rip_complexity(args) -> int:
    m = sample_complexity(args.s, args.K, args.delta, args.eta, args.d1, args.d2, args.N)
    payload = {
        "m": m,
        "fitted": True,
        "log_convention": "natural logs; log^2(s) means (ln s)^2",
    }
    line = f"minimal m = {m} (fitted d1={args.d1:g}, d2={args.d2:g})"
    return _emit(args, "rip-complexity", _config(args), payload, [line])


# ---------------------------------------------------------------- chaos


def _cmd_chaos(args) -> int:
    seed = _require_seed(args.seed)
    contents = load_json(args.matrices)
    mats = _matrices(contents)
    xi = RowDistribution(name=args.xi, scale=args.scale)
    reg, fit = _registry(args)
    u_grid = None if args.u_grid is None else _parse_float_list(args.u_grid, "--u-grid")
    radii = schatten_radii(mats, gamma_mode="auto")
    if u_grid is not None:  # its fitted constants and every u entry, before the simulation
        bound = chaos_supremum_bound(radii, xi.psi_norm(2), u=min(u_grid), registry=reg)
        _checked_grid(bound, u_grid)
    sample = simulate_chaos(mats, xi, args.reps, seed, decoupled=args.decoupled)
    payload: dict = {
        "seed": seed,
        "radii": {
            "delta_2": radii.delta_2,
            "delta_4": radii.delta_4,
            "delta_inf": radii.delta_inf,
            "gamma2_dinf": radii.gamma2_dinf.value,
        },
        "comparison_parameters": kmr_parameters(radii),
        "registry": reg.snapshot(),
        "sample": {"mean": float(sample.values.mean()), "max": float(sample.values.max())},
    }
    lines = [f"radii: delta_2={radii.delta_2:.6g} delta_4={radii.delta_4:.6g} "
             f"delta_inf={radii.delta_inf:.6g} gamma2={radii.gamma2_dinf.value:.6g}"]
    rows = None
    code = 0
    if u_grid is not None:
        rows, code = _record_validation(validate_bound(sample, bound, u_grid=u_grid), payload,
                                        lines)
    return _emit(args, "chaos", _config(args, matrices=config_hash(contents), fit=fit),
                 payload, lines, rows=rows, code=code)


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainbounds",
        description="Chaining functionals, explicit tail bounds, and their simulators.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory (default $%s or .)" % OUTPUT_DIR_ENV)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", parents=[common], help="chaining functional of a metric space")
    g.add_argument("--space", required=True, help="metric space JSON file")
    g.add_argument("--alpha", type=float, required=True)
    g.add_argument("--p", type=float, default=1.0)
    g.add_argument("--mode", choices=("auto", "exact", "greedy"), default="auto")
    g.add_argument("--functional", choices=("gamma", "gamma-prime"), default="gamma")
    g.set_defaults(func=_cmd_gamma)

    c = sub.add_parser("cover", parents=[common], help="covering numbers / entropy integral")
    c.add_argument("--space", required=True)
    c.add_argument("--radius", type=float, default=None)
    c.add_argument("--profile", action="store_true")
    c.add_argument("--entropy-alpha", type=float, default=None)
    c.add_argument("--mode", choices=("auto", "exact", "greedy"), default="auto")
    c.set_defaults(func=_cmd_cover)

    o = sub.add_parser("orlicz", parents=[common], help="psi_alpha Orlicz norms")
    o.add_argument("--alpha", type=float, required=True)
    o.add_argument("--family", choices=("constant", "symmetric-sign", "gaussian", "bounded"))
    o.add_argument("--parameter", type=float, default=1.0)
    o.add_argument("--samples", help="sample file for the empirical norm")
    o.add_argument("--format", choices=("text", "binary"), default="text")
    o.set_defaults(func=_cmd_orlicz)

    b = sub.add_parser("bound", parents=[common], help="evaluate a named bound")
    b.add_argument("name", help="bound name, e.g. psi-alpha, gaussian, union-constant")
    b.add_argument("--params", help="JSON file of evaluator parameters")
    b.add_argument("--fit", help="JSON file of fitted constant overrides")
    b.set_defaults(func=_cmd_bound)

    s = sub.add_parser("simulate", parents=[common], help="run an experiment config")
    s.add_argument("--config", required=True, help="experiment config JSON")
    s.add_argument("--seed", type=int, default=None)
    s.add_argument("--reps", type=int, default=None)
    s.add_argument("--fit", help="JSON file of fitted constant overrides")
    s.set_defaults(func=_cmd_simulate)

    r = sub.add_parser("rip", help="restricted isometry toolkit")
    actions = r.add_subparsers(dest="action", required=True)
    # Full option names only, or curve would read exact's --m as --m-list.
    size = argparse.ArgumentParser(add_help=False, parents=[common])
    size.add_argument("--N", type=int, required=True)
    size.add_argument("--s", type=int, required=True)
    per_action = {"parents": [size], "allow_abbrev": False}
    exact = actions.add_parser("exact", **per_action, help="delta_s of one subsampled DFT draw")
    exact.add_argument("--m", type=int, required=True, help="row budget")
    exact.add_argument("--seed", type=int, default=None)
    exact.set_defaults(func=_cmd_rip_exact)
    curve = actions.add_parser("curve", **per_action, help="failure probability over an m grid")
    curve.add_argument("--seed", type=int, default=None)
    curve.add_argument("--delta", type=float, required=True, help="target distortion")
    curve.add_argument("--m-list", required=True, help="comma-separated m grid")
    curve.add_argument("--reps", type=int, default=200)
    curve.set_defaults(func=_cmd_rip_curve)
    complexity = actions.add_parser("complexity", **per_action,
                                    help="minimal m of the fitted condition")
    complexity.add_argument("--delta", type=float, required=True, help="target distortion")
    complexity.add_argument("--K", type=float, default=1.0)
    complexity.add_argument("--eta", type=float, required=True, help="failure budget")
    complexity.add_argument("--d1", type=float, required=True, help="fitted constant d1")
    complexity.add_argument("--d2", type=float, required=True, help="fitted constant d2")
    complexity.set_defaults(func=_cmd_rip_complexity)

    ch = sub.add_parser("chaos", parents=[common], help="matrix-family chaos simulation")
    ch.add_argument("--matrices", required=True, help="JSON list of matrices")
    ch.add_argument("--xi", default="rademacher",
                    choices=("rademacher", "gaussian", "uniform"))
    ch.add_argument("--scale", type=float, default=1.0)
    ch.add_argument("--reps", type=int, required=True)
    ch.add_argument("--seed", type=int, default=None)
    ch.add_argument("--decoupled", action="store_true")
    ch.add_argument("--u-grid", default=None)
    ch.add_argument("--fit", help="JSON file of fitted constant overrides")
    ch.set_defaults(func=_cmd_chaos)
    return parser


# Built once per process: parsing keeps no state between main() calls.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: missing config field {exc}", file=sys.stderr)
        return 2
    except (OSError, TypeError, ValueError) as exc:  # ChainboundsError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
