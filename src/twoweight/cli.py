"""Command-line interface.

Subcommands: gen, apply, testing, norm, decompose, verify. Exit code 0 means
all checks passed, 1 means an exact-direction check failed, 2 means the
configuration or an input file was invalid (including a grid over the leaf
budget and an unreadable or malformed instance or --f file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .constants import carleson_norm, compute_testing_report
from .extremal import (
    AscentOptions,
    carleson_embedding_constant,
    strong_norm_lower,
    weak_norm_lower,
)
from .grid import GridSizeError, Measure
from .harness import (
    ConfigError,
    GeneratorConfig,
    Instance,
    SuiteConfig,
    check_decomposition_params,
    check_seed,
    gen_instance,
    instance_f,
    run_suite,
)
from .operators import apply_T
from .prooflab import classify_cubes, corridor_sets, principal_cubes, whitney_layers


_FLAGS = {
    "seed": dict(type=int, default=0, help="master random seed"),
    "tol": dict(type=float, default=1e-8, help="relative tolerance for checks"),
    "eta": dict(type=float, default=0.25, help="classification mass fraction"),
    "rho": dict(type=int, default=1, help="margin levels in the cube layers"),
    "threads": dict(type=int, default=1, help="worker processes for suites (default 1: in-process)"),
    "out": dict(default=None, help="output file or directory"),
}


def _flags(sub: argparse.ArgumentParser, *names: str) -> None:
    """Give a subcommand exactly the shared flags it reads."""
    for name in names:
        sub.add_argument(f"--{name}", **_FLAGS[name])


def _gen_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--d", type=int, default=1)
    sub.add_argument("--depth", type=int, default=3)
    sub.add_argument("--sigma", default="lognormal")
    sub.add_argument("--omega", default="lognormal")
    sub.add_argument("--tau", default="random")
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--q", type=float, default=2.0)


def _config_from(args) -> GeneratorConfig:
    return GeneratorConfig(
        d=args.d,
        depth=args.depth,
        sigma=args.sigma,
        omega=args.omega,
        tau=args.tau,
        alpha=args.alpha,
        p=args.p,
        q=args.q,
    )


def _load_instance(path: str) -> Instance:
    with open(path) as fh:
        return Instance.from_json(fh.read())


def _load_f(inst: Instance, path: str | None) -> np.ndarray:
    if path is None:
        return instance_f(inst)
    with open(path) as fh:
        try:
            f = np.asarray_chkfinite(json.load(fh), dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"f must be a JSON array of finite numbers: {exc}") from exc
    if f.shape != (inst.grid.n_leaves,):
        raise ConfigError(f"f must have {inst.grid.n_leaves} leaf values, got {f.shape}")
    return f


def _check_tol(tol: float) -> None:
    """A negative or non-finite tolerance would turn a passing check into a failure."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be a finite number >= 0, got {tol}")


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gen(args) -> int:
    inst = gen_instance(_config_from(args), args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(inst.to_json() + "\n")
    else:
        print(inst.to_json())
    return 0


def _cmd_apply(args) -> int:
    inst = _load_instance(args.instance)
    f = _load_f(inst, args.f)
    values = apply_T(inst.tau, Measure.product(f, inst.sigma))
    _emit({"leaves": values.tolist()}, args.out)
    return 0


def _cmd_testing(args) -> int:
    _check_tol(args.tol)
    inst = _load_instance(args.instance)
    rep = compute_testing_report(inst.tau, inst.sigma, inst.omega, inst.exps)
    car, car_arg = carleson_norm(inst.tau)
    cet = carleson_embedding_constant(inst.tau, inst.exps.p)
    payload = rep.to_dict()
    payload["carleson"] = car
    payload["carleson_argmax"] = None if car_arg is None else {
        "level": car_arg.level,
        "coords": list(car_arg.coords),
    }
    payload["cet"] = cet.value
    _emit(payload, args.out)
    ok = car ** (1.0 / inst.exps.p) <= cet.value * (1 + args.tol)
    return 0 if ok else 1


def _cmd_norm(args) -> int:
    _check_tol(args.tol)
    inst = _load_instance(args.instance)
    opts = AscentOptions(seed=check_seed(args.seed))
    strong = strong_norm_lower(inst.tau, inst.sigma, inst.omega, inst.exps, opts)
    weak = weak_norm_lower(inst.tau, inst.sigma, inst.omega, inst.exps, opts)
    payload = {"strong": strong.to_dict(), "weak": weak.to_dict()}
    if inst.exps.is_l2:
        # strong_norm_lower is exact_norm_22 at p = q = 2
        payload["exact"] = strong.to_dict()
    if not args.extremals:
        for entry in payload.values():
            entry.pop("extremal_f", None)
            entry.pop("extremal_g", None)
    _emit(payload, args.out)
    return 0 if weak.value <= strong.value * (1 + args.tol) else 1


def _cmd_decompose(args) -> int:
    check_decomposition_params(args.eta, args.rho)
    inst = _load_instance(args.instance)
    f = _load_f(inst, args.f)
    if np.any(f < 0):
        raise ConfigError("f must be >= 0 for decompose (principal cubes average f)")
    v = apply_T(inst.tau, Measure.product(f, inst.sigma))
    deco = whitney_layers(inst.grid, v, rho=args.rho)
    classified = classify_cubes(corridor_sets(deco), f, inst.sigma, inst.omega, inst.tau, args.eta)
    seeds = sorted({int(c) for lay in deco.layers for c in lay.cubes})
    forest = principal_cubes(f, inst.sigma, seeds)
    payload = {
        "whitney": deco.to_json_dict(),
        "classified": classified.to_json_dict(),
        "principal": forest.to_json_dict(),
    }
    _emit(payload, args.out)
    bad = deco.violations or classified.violations or forest.violations
    return 1 if bad else 0


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(
        generators=[_config_from(args)],
        n=args.n,
        seed=args.seed,
        eta=args.eta,
        rho=args.rho,
        ratio_cap=args.ratio_cap,
        threads=args.threads,
        out_dir=args.out,
    )
    report = run_suite(cfg)
    summary = dict(report.aggregates)
    summary["ok"] = report.ok
    print(json.dumps(summary, sort_keys=True, indent=2))
    if not report.ok:
        for viol in report.violations[:5]:
            print(f"violation [{viol['check']}]: {viol['detail']}", file=sys.stderr)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoweight",
        description="Dyadic two-weight operator toolkit: instances, constants, "
        "norm estimates, decompositions, verification suites.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate an instance as canonical JSON")
    _flags(gen, "seed", "out")
    _gen_flags(gen)
    gen.set_defaults(func=_cmd_gen)

    apply_p = subs.add_parser("apply", help="apply the operator to f on an instance")
    _flags(apply_p, "out")
    apply_p.add_argument("--instance", required=True, help="instance JSON file")
    apply_p.add_argument("--f", default=None, help="file with a JSON array of leaf values")
    apply_p.set_defaults(func=_cmd_apply)

    testing = subs.add_parser("testing", help="testing constants and Carleson data")
    _flags(testing, "tol", "out")
    testing.add_argument("--instance", required=True)
    testing.set_defaults(func=_cmd_testing)

    norm = subs.add_parser("norm", help="norm estimates (certified at p=q, lower bounds otherwise)")
    _flags(norm, "seed", "tol", "out")
    norm.add_argument("--instance", required=True)
    norm.add_argument("--extremals", action="store_true", help="include extremal functions")
    norm.set_defaults(func=_cmd_norm)

    deco = subs.add_parser("decompose", help="layer/classification/principal JSON")
    _flags(deco, "eta", "rho", "out")
    deco.add_argument("--instance", required=True)
    deco.add_argument("--f", default=None, help="file with a JSON array of leaf values")
    deco.set_defaults(func=_cmd_decompose)

    verify = subs.add_parser("verify", help="run the verification suite")
    _flags(verify, "seed", "eta", "rho", "threads", "out")
    _gen_flags(verify)
    verify.add_argument("--n", type=int, default=50, help="instances per generator")
    verify.add_argument("--ratio-cap", type=float, default=16.0)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridSizeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
