"""chainbounds command-line interface.

Subcommands: gamma, cover, orlicz, bound, simulate, rip, chaos.  Every
stochastic command demands an explicit --seed (or config seed) and exits 2
without one; exit 1 is reserved for a "violated" validation verdict, exit 2
for usage/config errors.  Artifacts are JSON reports (plus plot-ready CSV
for grids), named by a hash of the resolved config, with no timestamps, so
re-running a config reproduces the files byte for byte.
"""

from __future__ import annotations

import argparse
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
    GAMMA_EXACT_CAP,
    GammaEstimate,
    gamma_exact,
    gamma_greedy,
    gamma_prime,
    truncation_level,
)
from .errors import DomainError, check_int, check_real
from .metric import _resolve_mode, covering_number, covering_profile, entropy_integral
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
    build_dft,
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
from .validation import estimate_moments, validate_bound

OUTPUT_DIR_ENV = "CHAINBOUNDS_OUTPUT_DIR"
CURVE_FIELDS = ("m", "estimate", "ci_lower", "ci_upper", "failures", "reps", "mean_realized_rows")


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


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


def _emit(args, stem: str, config: dict, payload: dict, rows=None):
    """Write the JSON report (and optional CSV grid, whose columns are the keys
    of its rows); returns the paths."""
    h = config_hash(config)
    report = {
        "command": stem,
        "config": config,
        "config_hash": h,
        **payload,
    }
    base = os.path.join(_out_dir(args), f"{stem}-{h[:12]}")
    paths = [base + ".json"]
    write_json(paths[0], report)
    if rows is not None:
        paths.append(base + ".csv")
        write_csv(paths[1], rows[0].keys(), rows, header_comment=f"config_hash: {h}")
    for p in paths:
        print(f"wrote {p}")
    return paths


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
    # gamma_prime ignores p, but p enters the config hash of every report.
    check_real("order p", args.p, 1.0)
    space = space_from_json(load_json(args.space))
    mode = _resolve_mode(args.mode, space.size, GAMMA_EXACT_CAP)
    if args.functional == "gamma-prime":
        est = gamma_prime(space, args.alpha, mode=mode)
    elif mode == "exact":
        est = gamma_exact(space, args.alpha, p=args.p)
    else:
        est = gamma_greedy(space, args.alpha, p=args.p)
    witness = None
    if est.sequence is not None:
        witness = {"kind": est.sequence.kind, "levels": est.sequence.levels}
    config = {
        "space": args.space,
        "alpha": args.alpha,
        "p": args.p,
        "mode": args.mode,
        "functional": args.functional,
    }
    payload = {
        "value": est.value,
        "alpha": est.alpha,
        "p": est.p,
        "truncation_level": est.l,
        "mode": est.mode,
        "size": space.size,
        "witness": witness,
    }
    print(
        f"{args.functional} alpha={args.alpha:g} p={args.p:g} mode={est.mode}: "
        f"value = {est.value:.12g}"
    )
    _emit(args, "gamma", config, payload)
    return 0


# ---------------------------------------------------------------- cover


def _cmd_cover(args) -> int:
    space = space_from_json(load_json(args.space))
    config = {
        "space": args.space,
        "radius": args.radius,
        "profile": args.profile,
        "entropy_alpha": args.entropy_alpha,
        "mode": args.mode,
    }
    payload: dict = {"size": space.size, "diameter": space.diameter()}
    rows = None
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
        print(f"N(T, d, {res.radius:g}) = {res.count} [{res.mode}]")
    if args.profile or args.entropy_alpha is not None:
        # memoised on the space: entropy_integral below reads this same profile
        prof = covering_profile(space, mode=args.mode)
    if args.profile:
        rows = [{"radius": r, "count": c} for r, c in zip(prof.radii, prof.counts)]
        payload["profile"] = {"radii": prof.radii, "counts": prof.counts, "mode": prof.mode}
        for r, c in zip(prof.radii, prof.counts):
            print(f"radius {r:.6g}: count {c}")
    if args.entropy_alpha is not None:
        ent = entropy_integral(space, args.entropy_alpha, mode=args.mode)
        payload["entropy_integral"] = {"alpha": ent.alpha, "value": ent.value, "mode": ent.mode}
        print(f"entropy integral (alpha={ent.alpha:g}) = {ent.value:.12g}")
    _emit(args, "cover", config, payload, rows=rows)
    return 0


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
        config = {"samples": args.samples, "format": args.format, "alpha": args.alpha}
    payload = {
        "alpha": norm.alpha,
        "value": norm.value,
        "source": norm.source,
        "sample_count": norm.sample_count,
    }
    print(f"psi_{norm.alpha:g} norm = {norm.value:.12g} ({norm.source})")
    _emit(args, "orlicz", config, payload)
    return 0


# ---------------------------------------------------------------- bound


def _gamma_param(obj, what: str) -> GammaEstimate:
    if not isinstance(obj, dict) or "value" not in obj or "alpha" not in obj:
        raise DomainError(f'{what} must be an object with "alpha", "value", optional "p"')
    p = float(obj.get("p", 1.0))
    return GammaEstimate(
        alpha=float(obj["alpha"]),
        p=p,
        l=truncation_level(p),
        value=float(obj["value"]),
        mode=str(obj.get("mode", "supplied")),
        sequence=None,
    )


def _orlicz_param(obj, what: str) -> OrliczNorm:
    if not isinstance(obj, dict) or "value" not in obj:
        raise DomainError(f'{what} must be an object with "value" and optional "alpha"')
    return OrliczNorm(
        alpha=float(obj.get("alpha", 2.0)),
        value=float(obj["value"]),
        source=str(obj.get("source", "supplied")),
    )


def _radii_param(params: dict):
    mats = [matrix_from_json(m) for m in params["matrices"]]
    return schatten_radii(
        mats, gamma_mode=params.get("gamma_mode", "auto"), p=float(params.get("gamma_p", 1.0))
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


def _bound_payload(result, params: dict, reg: ConstantRegistry) -> dict:
    payload: dict = {"registry": reg.snapshot()}
    if isinstance(result, TailBound):
        payload["bound"] = result.to_dict()
        payload["kind"] = "tail"
        payload["fitted"] = result.fitted
        if params.get("u") is not None:
            u = float(params["u"])
            payload["at_u"] = {
                "u": u,
                "threshold": result.threshold(u),
                "envelope": float(result.probability(u)),
            }
            print(
                f"{result.name}: threshold(u={u:g}) = {result.threshold(u):.12g}, "
                f"envelope = {float(result.probability(u)):.6g}, fitted = {result.fitted}"
            )
        else:
            print(f"{result.name}: tail bound (fitted = {result.fitted})")
    elif isinstance(result, MomentBound):
        payload["bound"] = result.to_dict()
        payload["kind"] = "moment"
        payload["fitted"] = result.fitted
        print(f"{result.name}: (E sup^p)^(1/p) <= {result.value:.12g} at p = {result.p:g}")
    else:
        payload["bound"] = dict(result)
        payload["kind"] = "scalar"
        payload["fitted"] = bool(result.get("fitted", False))
        shown = {k: v for k, v in result.items() if isinstance(v, (int, float))}
        print(", ".join(f"{k} = {v}" if isinstance(v, bool) else f"{k} = {v:.10g}"
                        for k, v in shown.items()))
    return payload


def _cmd_bound(args) -> int:
    params = load_json(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise DomainError("--params file must hold a JSON object")
    reg, fit = _registry(args)
    result = _build_bound(args.name, params, reg)
    config = {"name": args.name, "params": params, "fit": fit}
    _emit(args, "bound", config, _bound_payload(result, params, reg))
    return 0


# ---------------------------------------------------------------- simulate


def _run_model(spec: dict, reps: int, seed: int):
    """Build the configured model and simulate it."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError('model config must be an object with a "kind"')
    kind = spec["kind"]
    labels = spec.get("labels")
    if kind == "gaussian":
        model = gaussian_model(np.asarray(spec["covariance"], dtype=float), labels=labels)
        return simulate_gaussian(model, reps, seed, base_point=spec.get("base_point", 0))
    if kind == "martingale-family":
        model = martingale_model(
            np.asarray(spec["coefficients"], dtype=float),
            labels=labels,
            step_bounds=spec.get("step_bounds"),
        )
        return simulate_martingale_family(model, reps, seed)
    if kind in ("empirical", "squares"):
        base_spec = spec.get("base", {})
        base = RowDistribution(
            name=base_spec.get("name", "rademacher"),
            scale=float(base_spec.get("scale", 1.0)),
            mean_known=bool(base_spec.get("mean_known", True)),
        )
        builder, simulate = (
            (empirical_model, simulate_empirical)
            if kind == "empirical"
            else (squares_model, simulate_squares)
        )
        model = builder(np.asarray(spec["coefficients"], dtype=float), base, labels=labels)
        return simulate(model, spec.get("m", model.coefficients.shape[1]), reps, seed)
    if kind == "chaos":
        mats = [matrix_from_json(m) for m in spec["matrices"]]
        xi_spec = spec.get("xi", {})
        xi = RowDistribution(
            name=xi_spec.get("name", "rademacher"), scale=float(xi_spec.get("scale", 1.0))
        )
        return simulate_chaos(mats, xi, reps, seed, decoupled=bool(spec.get("decoupled", False)))
    raise DomainError(f"unknown model kind {kind!r} in simulate config")


def _record_validation(report, payload: dict) -> tuple[list, int]:
    """Print a report's rows, record its verdict in payload, return (rows, exit code).

    A moment row has no tail envelope; its rows entry carries None there.
    """
    rows = [dict(r) for r in report.rows]
    for r in rows:
        if not math.isfinite(r["envelope"]):
            r["envelope"] = None
        point = f"u={r['u']:g}" if "u" in r else f"p={r['p']:g}"
        env = "" if r["envelope"] is None else f"envelope={r['envelope']:.6g} "
        print(
            f"{point} threshold={r['threshold']:.6g} {env}"
            f"empirical={r['empirical']:.6g} ci_upper={r['ci_upper']:.6g} {r['verdict']}"
        )
    payload["bound"] = report.bound.to_dict()
    payload["verdict"] = report.verdict
    payload["paper_confirmed"] = report.paper_confirmed
    return rows, int(report.verdict == "violated")


def _cmd_simulate(args) -> int:
    config = load_json(args.config)
    if not isinstance(config, dict):
        raise DomainError("simulate config must be a JSON object")
    seed = _require_seed(args.seed if args.seed is not None else config.get("seed"))
    reps = args.reps if args.reps is not None else config.get("reps", 0)
    reps = check_int("reps (config or --reps)", reps, 1)
    reg, fit = _registry(args, inline=config.get("fit"))
    sample = _run_model(config["model"], reps, seed)
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
    if "bound" in config:
        bound_spec = config["bound"]
        bound = _build_bound(bound_spec["name"], bound_spec.get("params", {}), reg)
        if not isinstance(bound, (TailBound, MomentBound)):
            raise DomainError(f"bound {bound_spec['name']!r} is not validatable")
        u_grid = config.get("u_grid")
        if isinstance(bound, TailBound) and u_grid is None:
            raise DomainError("tail-bound validation needs a u_grid in the config")
        rows, code = _record_validation(validate_bound(sample, bound, u_grid=u_grid), payload)
        payload["rows"] = rows
    else:
        p_list = config.get("p_list", [1.0])
        ests = estimate_moments(sample, p_list)
        payload["moments"] = [
            {"p": e.p, "estimate": e.estimate, "ci_low": e.ci_low, "ci_high": e.ci_high}
            for e in ests
        ]
        for e in ests:
            print(f"p={e.p:g} estimate={e.estimate:.6g} ci=[{e.ci_low:.6g}, {e.ci_high:.6g}]")
    hashed = {"config_file": args.config, **config, "seed": seed, "reps": reps}
    if fit is not None:
        hashed["fit"] = fit
    _emit(args, "simulate", hashed, payload, rows=rows)
    return code


# ---------------------------------------------------------------- rip


def _cmd_rip(args) -> int:
    if args.action == "complexity":
        m = sample_complexity(args.s, args.K, args.delta, args.eta, args.d1, args.d2, args.N)
        config = {
            "action": "complexity", "s": args.s, "K": args.K, "delta": args.delta,
            "eta": args.eta, "d1": args.d1, "d2": args.d2, "N": args.N,
        }
        payload = {
            "m": m,
            "fitted": True,
            "log_convention": "natural logs; log^2(s) means (ln s)^2",
        }
        print(f"minimal m = {m} (fitted d1={args.d1:g}, d2={args.d2:g})")
        _emit(args, "rip-complexity", config, payload)
        return 0
    seed = _require_seed(args.seed)
    if args.action == "exact":
        inst = subsampled_instance(build_dft(args.N), args.m, seed)
        report = inst.delta(args.s)
        config = {"action": "exact", "N": args.N, "m": args.m, "s": args.s, "seed": seed}
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
        print(
            f"delta_{args.s} = {report.delta_s:.12g} (|I| = {inst.realized_rows}, "
            f"support {report.witness_support})"
        )
        _emit(args, "rip-exact", config, payload)
        return 0
    # curve
    # Every entry is checked against N before the first replication; s and
    # the enumeration cap are checked by the first estimate before its draws.
    N = check_int("N", args.N, 1)
    m_list = [check_int("m", check_int("--m-list entry", v, 1), 1, N)
              for v in _parse_float_list(args.m_list, "--m-list")]
    config = {
        "action": "curve", "N": args.N, "s": args.s, "delta": args.delta,
        "m_list": m_list, "reps": args.reps, "seed": seed,
    }
    rows = []
    for m in m_list:
        est = estimate_failure_probability(args.N, m, args.s, args.delta, args.reps, seed)
        rows.append({k: est[k] for k in CURVE_FIELDS})
        print(
            f"m={m}: P(delta_{args.s} >= {args.delta:g}) ~ {est['estimate']:.4f} "
            f"[{est['ci_lower']:.4f}, {est['ci_upper']:.4f}]"
        )
    payload = {"seed": seed, "curve": rows}
    _emit(args, "rip-curve", config, payload, rows=rows)
    return 0


# ---------------------------------------------------------------- chaos


def _cmd_chaos(args) -> int:
    seed = _require_seed(args.seed)
    mats = [matrix_from_json(m) for m in load_json(args.matrices)]
    xi = RowDistribution(name=args.xi, scale=args.scale)
    radii = schatten_radii(mats, gamma_mode="auto")
    sample = simulate_chaos(mats, xi, args.reps, seed, decoupled=args.decoupled)
    reg, fit = _registry(args)
    config = {
        "matrices": args.matrices, "xi": args.xi, "scale": args.scale, "reps": args.reps,
        "seed": seed, "decoupled": args.decoupled, "u_grid": args.u_grid, "fit": fit,
    }
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
    print(
        f"radii: delta_2={radii.delta_2:.6g} delta_4={radii.delta_4:.6g} "
        f"delta_inf={radii.delta_inf:.6g} gamma2={radii.gamma2_dinf.value:.6g}"
    )
    rows = None
    code = 0
    if args.u_grid is not None:
        u_grid = _parse_float_list(args.u_grid, "--u-grid")
        bound = chaos_supremum_bound(radii, xi.psi_norm(2), u=min(u_grid), registry=reg)
        rows, code = _record_validation(validate_bound(sample, bound, u_grid=u_grid), payload)
    _emit(args, "chaos", config, payload, rows=rows)
    return code


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

    r = sub.add_parser("rip", parents=[common], help="restricted isometry toolkit")
    r.add_argument("action", choices=("exact", "curve", "complexity"))
    r.add_argument("--N", type=int, required=True)
    r.add_argument("--m", type=int, help="row budget (exact)")
    r.add_argument("--s", type=int, required=True, dest="s")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--delta", type=float, help="target distortion (curve/complexity)")
    r.add_argument("--m-list", help="comma-separated m grid (curve)")
    r.add_argument("--reps", type=int, default=200)
    r.add_argument("--K", type=float, default=1.0)
    r.add_argument("--eta", type=float, help="failure budget (complexity)")
    r.add_argument("--d1", type=float, help="fitted constant d1 (complexity)")
    r.add_argument("--d2", type=float, help="fitted constant d2 (complexity)")
    r.set_defaults(func=_cmd_rip)

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


def _require_rip_args(args) -> None:
    need = {
        "exact": ("m",),
        "curve": ("delta", "m_list"),
        "complexity": ("delta", "eta", "d1", "d2"),
    }[args.action]
    for field in need:
        if getattr(args, field, None) is None:
            raise DomainError(f"rip {args.action} requires --{field.replace('_', '-')}")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "rip":
            _require_rip_args(args)
        return args.func(args)
    except KeyError as exc:
        print(f"error: missing config field {exc}", file=sys.stderr)
        return 2
    except (OSError, TypeError, ValueError) as exc:  # ChainboundsError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
