"""Instance generation, suite execution, and serialization.

An Instance bundles one grid with its two measures, the cube weights, and the
exponent pair; everything downstream (constants, norms, audits) consumes it.
Serialization is canonical JSON — leaf and cube arrays in canonical order,
keys sorted, floats as shortest round-trip decimals — so identical instances
produce identical bytes, and suite reports hash reproducibly.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .constants import carleson_norm, compute_testing_report
from .extremal import NormEstimate, carleson_embedding_constant, norm_bounds
from .grid import DyadicGrid, Exponents, Measure, build_grid
from .operators import CubeWeights
from .prooflab import audit_decomposition

SIGMA_STYLES = ("lognormal", "spikes", "uniform")
TAU_STYLES = ("random", "fractional", "sparse", "root_only")

# Relative slack of a row's embedding-theorem, weak <= strong and (away from
# p = q = 2) testing <= norm checks. ``twoweight testing`` and ``twoweight
# norm`` check at it too, so their exit codes give the instance's row verdict.
CHECK_RTOL = 1e-12


class ConfigError(ValueError):
    """Raised when a generator or suite configuration is invalid."""


@dataclass
class GeneratorConfig:
    d: int = 1
    depth: int = 3
    sigma: str = "lognormal"
    omega: str = "lognormal"
    tau: str = "random"
    alpha: float | None = None
    p: float = 2.0
    q: float = 2.0
    allow_zero_sigma: bool = False

    def validate(self) -> None:
        if self.d < 1 or self.depth < 0:
            raise ConfigError(f"bad grid spec d={self.d}, depth={self.depth}")
        if self.sigma not in SIGMA_STYLES or self.omega not in SIGMA_STYLES:
            raise ConfigError(
                f"measure styles must be one of {SIGMA_STYLES}, "
                f"got sigma={self.sigma!r} omega={self.omega!r}"
            )
        if self.tau not in TAU_STYLES:
            raise ConfigError(f"tau style must be one of {TAU_STYLES}, got {self.tau!r}")
        if self.tau == "fractional":
            if self.alpha is None or not (0.0 < self.alpha < self.d):
                raise ConfigError(f"fractional tau needs 0 < alpha < d, got {self.alpha}")
        try:
            Exponents(self.p, self.q)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def tag(self) -> str:
        bits = [f"d{self.d}D{self.depth}", self.sigma, self.omega, self.tau]
        if self.tau == "fractional":
            bits.append(f"a{self.alpha}")
        bits.append(f"p{self.p}q{self.q}")
        return "-".join(bits)


@dataclass
class Instance:
    grid: DyadicGrid
    sigma: Measure
    omega: Measure
    tau: CubeWeights
    exps: Exponents
    seed: int
    generator: str

    def to_json_dict(self) -> dict:
        return {
            "d": self.grid.d,
            "depth": self.grid.depth,
            "sigma": self.sigma.leaf_mass.tolist(),
            "omega": self.omega.leaf_mass.tolist(),
            "tau": {"rule": self.tau.rule, "values": self.tau.tau.tolist()},
            "p": self.exps.p,
            "q": self.exps.q,
            "seed": self.seed,
            "generator": self.generator,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        """Rebuild an instance; a missing key, wrong shape or invalid value raises ConfigError."""
        try:
            return cls._from_json_dict(data)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed instance: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def _from_json_dict(cls, data: dict) -> "Instance":
        grid = build_grid(_json_int(data, "d"), _json_int(data, "depth"))
        sigma = Measure(grid, json_numbers(data["sigma"], "sigma"))
        omega = Measure(grid, json_numbers(data["omega"], "omega"))
        t = data["tau"]
        if not isinstance(t, dict):
            raise ConfigError(f"tau must be an object, got {type(t).__name__}")
        if "values" in t:
            tau = CubeWeights(grid, json_numbers(t["values"], "tau.values"), rule=t.get("rule", "explicit"))
        elif t.get("rule") == "fractional":
            tau = CubeWeights.fractional(grid, _json_number(t["alpha"], "tau.alpha"))
        else:
            raise ConfigError(f"unrecognized tau serialization: {t!r}")
        return cls(
            grid=grid,
            sigma=sigma,
            omega=omega,
            tau=tau,
            exps=Exponents(_json_number(data["p"], "p"), _json_number(data["q"], "q")),
            seed=check_seed(_json_int(data, "seed")),
            generator=str(data.get("generator", "")),
        )

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"instance is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def _json_int(data: dict, key: str) -> int:
    """``data[key]`` if it is an integer; ConfigError for anything else, bools
    included, rather than truncating it."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """``value`` if it is a JSON number; ConfigError for anything else, numeric
    strings and bools included, which ``float`` would convert."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def json_numbers(value, name: str) -> np.ndarray:
    """``value`` as floats if it is a JSON array of numbers; ConfigError for
    anything else, numeric strings and bools included, which ``np.array`` would
    convert."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise ConfigError(f"{name} must be an array of numbers")
    return np.array(value, dtype=np.float64)


def _draw_masses(rng: np.random.Generator, style: str, grid: DyadicGrid, allow_zero: bool) -> np.ndarray:
    vol = grid.leaf_volume
    n = grid.n_leaves
    if style == "lognormal":
        return rng.lognormal(0.0, 1.0, n) * vol
    if style == "uniform":
        return rng.uniform(0.1, 2.0, n) * vol
    # spikes: a few heavy leaves over a (possibly zero) floor
    mass = np.zeros(n) if allow_zero else np.full(n, 1e-8 * vol)
    k = max(1, n // 8)
    hot = rng.choice(n, size=k, replace=False)
    mass[hot] += rng.lognormal(1.0, 1.0, k) * vol * n / k
    return mass


def _draw_tau(rng: np.random.Generator, cfg: GeneratorConfig, grid: DyadicGrid) -> CubeWeights:
    if cfg.tau == "random":
        return CubeWeights.explicit(grid, rng.uniform(0.0, 1.0, grid.n_cubes))
    if cfg.tau == "fractional":
        return CubeWeights.fractional(grid, cfg.alpha)
    if cfg.tau == "sparse":
        t = np.where(
            rng.uniform(0.0, 1.0, grid.n_cubes) < 0.25,
            rng.uniform(0.0, 2.0, grid.n_cubes),
            0.0,
        )
        return CubeWeights.explicit(grid, t)
    return CubeWeights.root_only(grid)


def gen_instance(cfg: GeneratorConfig, seed: int) -> Instance:
    """Deterministic instance from a generator config and an integer seed."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence(check_seed(seed)))
    grid = build_grid(cfg.d, cfg.depth)
    sigma = Measure(grid, _draw_masses(rng, cfg.sigma, grid, cfg.allow_zero_sigma))
    omega = Measure(grid, _draw_masses(rng, cfg.omega, grid, cfg.allow_zero_sigma))
    tau = _draw_tau(rng, cfg, grid)
    return Instance(
        grid=grid,
        sigma=sigma,
        omega=omega,
        tau=tau,
        exps=Exponents(cfg.p, cfg.q),
        seed=int(seed),
        generator=cfg.tag(),
    )


def instance_f(inst: Instance) -> np.ndarray:
    """The deterministic test function attached to an instance (for audits)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(inst.seed), 0x5F]))
    return rng.lognormal(0.0, 1.0, inst.grid.n_leaves)


@dataclass
class SuiteConfig:
    generators: list = field(default_factory=lambda: [GeneratorConfig()])
    n: int = 50
    seed: int = 0
    eta: float = 0.25
    rho: int = 1
    ratio_cap: float = 16.0
    threads: int = 1
    out_dir: str | None = None

    def validate(self) -> None:
        for g in self.generators:
            g.validate()
        if self.n < 0:
            raise ConfigError(f"instances per generator must be >= 0, got n={self.n}")
        check_seed(self.seed)
        check_decomposition_params(self.eta, self.rho)
        if not self.ratio_cap > 0:
            raise ConfigError(f"ratio cap must be > 0, got {self.ratio_cap}")
        if self.threads < 1:
            raise ConfigError(f"worker processes must be >= 1, got threads={self.threads}")


def check_seed(seed: int) -> int:
    """The seed; ConfigError if it is negative, which numpy cannot seed from."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def check_decomposition_params(eta: float, rho: int) -> None:
    """Raise ConfigError unless 0 < eta < 1 and rho >= 1."""
    if not 0.0 < eta < 1.0:
        raise ConfigError(f"eta must be in (0, 1), got {eta}")
    if rho < 1:
        raise ConfigError(f"rho must be >= 1, got {rho}")


@dataclass
class SuiteReport:
    rows: list
    violations: list  # each: {"check", "detail", "instance" (serialized)}
    aggregates: dict
    digest: str

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _row_for_instance(inst: Instance, cfg: SuiteConfig) -> tuple[dict, list]:
    """One suite row with its violations.

    Besides ``time_total`` the row carries per-stage wall times: the testing
    report (at p = q = 2 also C1 = ``local_dual`` and C2 = ``local``), the
    Carleson embedding, the norm estimates and the decomposition audit, which
    ``time_audit_*`` breaks down by audit stage. ``cet`` and ``cet_upper``
    bracket the Carleson embedding constant (the leaf-to-root recursion of
    ``carleson_embedding_constant``), ``cet_kind`` says whether the bracket
    closed, and both ends are checked against the embedding theorem
    (``cet_violations``). ``cet_iterations`` counts the recursion's passes.
    ``strong`` and ``weak`` come from ``extremal.norm_bounds`` with the seed
    pool drawn from the instance's seed, as in ``twoweight norm``, so that
    command reproduces the row.
    ``strong_iterations`` counts the solver iterations behind ``strong``
    (power-solver steps at p = q != 2; fixed-point (Boyd) ascent rounds where
    p < q; LOBPCG steps at p = q = 2, where ``strong`` is also C3 and is
    "exact" only when its singular-pair residual is at most 1e-9 relative). At
    p = q the testing constants are checked against the norm: against C3 at
    p = q = 2 and against the certified upper value of the strong norm
    elsewhere.
    """
    t0 = time.perf_counter()
    row: dict = {
        "seed": inst.seed,
        "generator": inst.generator,
        "d": inst.grid.d,
        "depth": inst.grid.depth,
        "p": inst.exps.p,
        "q": inst.exps.q,
    }
    violations: list = []

    def flag(check: str, detail: str) -> None:
        violations.append({"check": check, "detail": detail, "instance": inst.to_json_dict()})

    rep = compute_testing_report(inst.tau, inst.sigma, inst.omega, inst.exps)
    row["local"] = rep.loc
    row["local_dual"] = rep.loc_dual
    row["global"] = rep.glo
    row["global_dual"] = rep.glo_dual
    t_cet = time.perf_counter()
    row["time_testing"] = t_cet - t0

    car, _ = carleson_norm(inst.tau)
    row["carleson"] = car

    cet = carleson_embedding_constant(inst.tau, inst.exps.p)
    row["cet"] = cet.value
    row["cet_upper"] = cet.upper
    row["cet_kind"] = cet.kind
    row["cet_iterations"] = cet.iterations
    for check, detail in cet_violations(cet, car, inst.exps.p, CHECK_RTOL):
        flag(check, detail)
    t_norm = time.perf_counter()
    row["time_cet"] = t_norm - t_cet

    strong, weak = norm_bounds(inst.tau, inst.sigma, inst.omega, inst.exps, seed=inst.seed)
    row["strong"] = strong.value
    row["strong_iterations"] = strong.iterations
    row["weak"] = weak.value
    row["strong_kind"] = strong.kind
    if weak.value > strong.value * (1 + CHECK_RTOL):
        flag("weak-le-strong", f"weak={weak.value!r} exceeds strong={strong.value!r}")

    if inst.exps.is_l2:
        c1, c2 = rep.loc_dual, rep.loc  # the quadratic constants at p = q = 2
        c3 = strong.value  # norm_bounds takes it from exact_norm_22 at p = q = 2
        row["c1"] = c1
        row["c2"] = c2
        row["c3"] = c3
        if max(c1, c2) > c3 * (1 + 1e-8):
            flag("necessity", f"max(C1,C2)={max(c1, c2)!r} exceeds C3={c3!r}")
        denom = c1 + c2
        ratio = math.inf if (denom == 0 and c3 > 0) else (c3 / denom if denom else 0.0)
        row["ratio_sufficiency"] = ratio
        if ratio > cfg.ratio_cap:
            flag("sufficiency-cap", f"C3/(C1+C2)={ratio!r} exceeds cap {cfg.ratio_cap}")
        for name in ("local", "local_dual", "global", "global_dual"):
            if row[name] > c3 * (1 + 1e-8):
                flag("testing-le-norm", f"{name}={row[name]!r} exceeds C3={c3!r}")
    elif inst.exps.p == inst.exps.q:
        for name in ("local", "local_dual", "global", "global_dual"):
            if row[name] > strong.upper * (1 + CHECK_RTOL):
                flag("testing-le-norm", f"{name}={row[name]!r} exceeds norm <= {strong.upper!r}")
    t_audit = time.perf_counter()
    row["time_norm"] = t_audit - t_norm

    f = instance_f(inst)
    audit = audit_decomposition(
        f,
        inst.sigma,
        inst.omega,
        inst.tau,
        eta=cfg.eta,
        rho=cfg.rho,
        p=inst.exps.p,
    )
    row["audit_clean"] = audit.clean
    row["audit_violations"] = len(audit.violations)
    row["fo_max"] = audit.fo_max
    row["occurrence_max"] = audit.occurrence_max
    row["geometric_ratio"] = audit.geometric_ratio
    row["carleson_principal_ratio"] = audit.carleson_ratio
    row.update({f"time_audit_{stage}": t for stage, t in audit.timings.items()})
    for v in audit.violations:
        flag("prooflab", v)
    t_end = time.perf_counter()
    row["time_audit"] = t_end - t_audit
    row["time_total"] = t_end - t0
    return row, violations


def cet_violations(cet: NormEstimate, car: float, p: float, tol: float) -> list:
    """The exact-direction checks of the Carleson embedding theorem on one estimate.

    car^(1/p) <= C_p (the normalized indicator of the Carleson argmax is a
    test function) and C_p <= p' car^(1/p) (Carleson's lemma with Doob's
    maximal inequality), with ``car`` the Carleson norm of tau against the
    same measure: "cet-lower" checks the value, "cet-upper" the certified
    upper value. Returns (check, detail) pairs, empty when both hold to ``tol``.
    """
    root = car ** (1.0 / p)
    cap = p / (p - 1.0) * root
    found = []
    if root > cet.value * (1 + tol):
        found.append(("cet-lower", f"carleson^(1/p)={root!r} exceeds C_p={cet.value!r}"))
    if cet.upper > cap * (1 + tol):
        found.append(("cet-upper", f"C_p <= {cet.upper!r} exceeds p'*carleson^(1/p)={cap!r}"))
    return found


def _suite_row(generator: GeneratorConfig, seed: int, cfg: SuiteConfig) -> tuple[dict, list]:
    """Generate one instance and compute its row where the row is computed.

    A worker process thus receives a generator config and a seed, never a
    grid, and every instance it computes holds a single grid object.
    """
    return _row_for_instance(gen_instance(generator, seed), cfg)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run every generator n times, assert the exact directions, write reports.

    With ``cfg.threads == 1`` the rows are computed in-process, one after the
    other; with more, each row is generated and computed in one of that many
    worker processes, each of which runs its scans on its own thread only
    (``_kernels.run_inline``): its siblings use the other CPUs. Either way
    the rows are assembled in instance order, so reports are deterministic
    for a fixed config and seed (timing fields excluded from the digest) and
    independent of the worker count.
    """
    cfg.validate()
    total = cfg.n * len(cfg.generators)
    report = SuiteReport([], [], {}, "")
    if total:
        seeds = np.random.SeedSequence(cfg.seed).generate_state(total, dtype=np.uint64).tolist()
        generators = [g for g in cfg.generators for _ in range(cfg.n)]
        cfgs = [cfg] * total
        if cfg.threads == 1:
            results = list(map(_suite_row, generators, seeds, cfgs))
        else:
            workers = min(cfg.threads, total)
            with concurrent.futures.ProcessPoolExecutor(workers, initializer=_kernels.run_inline) as pool:
                results = list(pool.map(_suite_row, generators, seeds, cfgs))
        for row, viol in results:
            report.rows.append(row)
            report.violations.extend(viol)

    report.aggregates = _aggregate(report.rows, report.violations)
    report.digest = rows_digest(report.rows)
    report.aggregates["digest"] = report.digest
    if cfg.out_dir:
        _write_reports(cfg.out_dir, report)
    return report


def rows_digest(rows: list) -> str:
    """SHA-256 over the canonical row serialization, timing keys excluded."""
    stripped = [
        {k: v for k, v in row.items() if not k.startswith("time_")} for row in rows
    ]
    blob = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _aggregate(rows: list, violations: list) -> dict:
    agg: dict = {"n_rows": len(rows), "n_violations": len(violations)}
    def col(name):
        return [r[name] for r in rows if name in r and r[name] is not None]

    ratios = [r for r in col("ratio_sufficiency") if math.isfinite(r)]
    if ratios:
        agg["ratio_sufficiency_max"] = max(ratios)
        agg["ratio_sufficiency_min"] = min(ratios)
    for name in ("geometric_ratio", "carleson_principal_ratio", "fo_max", "occurrence_max"):
        vals = col(name)
        if vals:
            agg[f"{name}_max"] = max(vals)
    dirty = [r["seed"] for r in rows if r.get("audit_clean") is False]
    agg["audit_dirty_seeds"] = dirty
    return agg


def _write_reports(out_dir: str, report: SuiteReport) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows.jsonl"), "w") as fh:
        for row in report.rows:
            fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")
    with open(os.path.join(out_dir, "aggregates.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for key in sorted(report.aggregates):
            writer.writerow([key, report.aggregates[key]])
    for i, viol in enumerate(report.violations):
        path = os.path.join(out_dir, f"counterexample_{i}.json")
        with open(path, "w") as fh:
            json.dump(viol, fh, sort_keys=True, indent=2)
