"""Command-line interface.

Subcommands: gen, apply, testing, norm, decompose, verify. Exit code 0 means
all checks passed, 1 means an exact-direction check failed, 2 means the
configuration or an input file was invalid (including a grid over the leaf
budget and an unreadable or malformed instance or --f file).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .constants import carleson_norm, compute_testing_report
from .extremal import carleson_embedding_constant, norm_bounds
from .grid import GridSizeError, Measure
from .harness import (
    CHECK_RTOL,
    ConfigError,
    GeneratorConfig,
    Instance,
    SuiteConfig,
    cet_violations,
    check_decomposition_params,
    gen_instance,
    instance_f,
    json_numbers,
    run_suite,
)
from .operators import apply_T
from .prooflab import audit_decomposition, principal_cubes


_FLAGS = {
    "seed": dict(type=int, default=0, help="master random seed"),
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
            f = np.asarray_chkfinite(json_numbers(json.load(fh), "f"))
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"f must be a JSON array of finite numbers: {exc}") from exc
    if f.shape != (inst.grid.n_leaves,):
        raise ConfigError(f"f must have {inst.grid.n_leaves} leaf values, got {f.shape}")
    return f


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
    payload["cet_upper"] = cet.upper
    payload["cet_kind"] = cet.kind
    _emit(payload, args.out)
    failed = cet_violations(cet, car, inst.exps.p, CHECK_RTOL)
    for check, detail in failed:
        print(f"violation [{check}]: {detail}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_norm(args) -> int:
    inst = _load_instance(args.instance)
    # the seed pool of a suite row, drawn from the instance's seed: the row's numbers
    strong, weak = norm_bounds(inst.tau, inst.sigma, inst.omega, inst.exps, seed=inst.seed)
    payload = {"strong": strong.to_dict(), "weak": weak.to_dict()}
    if not args.extremals:
        for entry in payload.values():
            entry.pop("extremal_f", None)
            entry.pop("extremal_g", None)
    _emit(payload, args.out)
    return 0 if weak.value <= strong.value * (1 + CHECK_RTOL) else 1


def _cmd_decompose(args) -> int:
    check_decomposition_params(args.eta, args.rho)
    inst = _load_instance(args.instance)
    f = _load_f(inst, args.f)
    if np.any(f < 0):
        raise ConfigError("f must be >= 0 for decompose (principal cubes average f)")
    audit = audit_decomposition(
        f, inst.sigma, inst.omega, inst.tau, eta=args.eta, rho=args.rho, p=inst.exps.p
    )
    # without layer cubes the audit grows no forest; the payload shows the empty one
    forest = principal_cubes(f, inst.sigma, []) if audit.forest is None else audit.forest
    payload = {
        "whitney": audit.whitney.to_json_dict(),
        "classified": audit.classified.to_json_dict(),
        "principal": forest.to_json_dict(),
        "violations": audit.violations,
        "checks_run": audit.checks_run,
    }
    _emit(payload, args.out)
    return 0 if audit.clean else 1


def _cmd_verify(args) -> int:
    cfg = SuiteConfig(
        generators=[_config_from(args)],
        n=args.n,
        seed=args.seed,
        eta=args.eta,
        rho=args.rho,
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
    _flags(testing, "out")
    testing.add_argument("--instance", required=True)
    testing.set_defaults(func=_cmd_testing)

    norm = subs.add_parser("norm", help="norm estimates (certified at p=q, lower bounds otherwise)")
    _flags(norm, "out")
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
    verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process: parsing
    leaves it unchanged and gives each call a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GridSizeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
