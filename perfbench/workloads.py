"""The four workloads: their inputs, their ops and the checks on each op's output.

A workload builds its inputs in ``setup`` from the run's seed and hands out
one round of ops, which a run repeats until its time is used. An op calls the package
through module attributes (``harness.gen_instance``, not a local import), so
that a traced run sees every call. ``Op.run`` is the timed part; ``Op.check``
compares its output with ``reference`` outside the timed region and raises
``reference.CheckFailed`` on a wrong value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

import reference as ref
from reference import Tree, require, require_close

from twoweight import cli, constants, extremal, grid, harness, operators, prooflab

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def derive_seed(*keys: int) -> int:
    """A 32-bit seed fixed by the run's seed and the position of an input."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, dtype=np.uint32)[0])


def clear_grid_cache() -> None:
    """Forget cached grids, so that each set-up builds its grids again.

    The cache is private to the package; a version without it needs nothing here.
    """
    cached = getattr(grid, "_cached_grid", None)
    if cached is not None and hasattr(cached, "cache_clear"):
        cached.cache_clear()


class Op:
    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    """Builds a round's inputs from the seed (``setup``) and hands out its ops."""

    name = ""
    key = 0  # mixed into every input seed, so that workloads draw apart

    def prepare(self, seed: int) -> None:
        """Benchmark-side choices made once per run, before set-up is timed."""

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def ops(self, state: dict) -> list:
        raise NotImplementedError

    def finish(self, state: dict) -> None:
        """Checks that concern the whole run rather than one op."""


def _cube_of(tree: Tree, index: int) -> tuple:
    lev = next(lev for lev in range(tree.depth + 1) if index < tree.offsets[lev + 1])
    within = index - tree.offsets[lev]
    mask = (1 << lev) - 1
    return lev, tuple((within >> (lev * k)) & mask for k in range(tree.d))


# -- verify_mix ------------------------------------------------------------------

# The ten generators of the acceptance suite (tests/test_acceptance.py).
SUITE_GENERATORS = [
    dict(d=1, depth=3),
    dict(d=1, depth=4, omega="spikes", tau="sparse"),
    dict(d=1, depth=5, sigma="spikes"),
    dict(d=1, depth=6, sigma="uniform", tau="sparse"),
    dict(d=1, depth=4, sigma="spikes", omega="spikes"),
    dict(d=1, depth=5, omega="uniform", tau="fractional", alpha=0.5),
    dict(d=2, depth=2),
    dict(d=2, depth=3, omega="spikes", tau="sparse"),
    dict(d=2, depth=3, sigma="uniform", omega="uniform", tau="fractional", alpha=1.0),
    dict(d=1, depth=6, tau="root_only"),
]
EXPONENT_PAIRS = [(2.0, 2.0), (1.5, 3.0)]
VERIFY_INSTANCES = 1  # instances per verify command
VERIFY_COMMANDS = 2  # commands per generator and exponent pair in a round


def _verify_argv(gen: dict, p: float, q: float, n: int, seed: int, out: str) -> list:
    argv = ["verify"]
    for key in ("d", "depth", "sigma", "omega", "tau", "alpha"):
        if key in gen:
            argv += [f"--{key}", str(gen[key])]
    argv += ["--p", repr(p), "--q", repr(q), "--n", str(n), "--seed", str(seed)]
    return argv + ["--threads", "1", "--out", out]


def check_verify_rows(rows: list, gen: dict, p: float, q: float, n: int) -> None:
    """The properties every row of a verify report must have."""
    require(len(rows) == n, f"verify wrote {len(rows)} rows, expected {n}")
    cfg = harness.GeneratorConfig(p=p, q=q, **gen)
    p_conj = ref.conjugate(p)
    for row in rows:
        inst = harness.gen_instance(cfg, row["seed"])
        tree = Tree(cfg.d, cfg.depth)
        tau = inst.tau.tau
        car = ref.carleson_norm(tree, tau)
        require_close("carleson", row["carleson"], car, 1e-12)
        root = car ** (1.0 / p)
        require(
            root <= row["cet"] * (1 + 1e-12) and row["cet"] <= 2 * p_conj * root * (1 + 1e-12),
            f"cet {row['cet']!r} outside [car^(1/p), 2p'car^(1/p)] = [{root!r}, {2 * p_conj * root!r}]",
        )
        require(
            row["weak"] <= row["strong"] * (1 + 1e-12),
            f"weak {row['weak']!r} exceeds strong {row['strong']!r}",
        )
        if p == 2.0 and q == 2.0:
            svd = ref.dense_norm_22(tree, tau, inst.sigma.leaf_mass, inst.omega.leaf_mass)
            require_close("c3 against the dense SVD", row["c3"], svd, 1e-8)
            for key in ("local", "local_dual", "global", "global_dual", "c1", "c2"):
                require(
                    row[key] <= svd * (1 + 1e-8),
                    f"testing constant {key}={row[key]!r} exceeds the norm {svd!r}",
                )


class VerifyMix(Workload):
    name = "verify_mix"
    key = 1

    def setup(self, seed: int) -> dict:
        for gen in SUITE_GENERATORS:
            grid.build_grid(gen["d"], gen["depth"])
        os.makedirs(OUT_DIR, exist_ok=True)
        state = {"seed": seed}
        warm = verify_op(dict(d=1, depth=2), 2.0, 2.0, 1, derive_seed(seed, self.key, 0xFFFF))
        warm.check(warm.run())
        return state

    def ops(self, state: dict) -> list:
        ops = []
        for pair_index, (p, q) in enumerate(EXPONENT_PAIRS):
            for gen_index, gen in enumerate(SUITE_GENERATORS):
                for k in range(VERIFY_COMMANDS):
                    seed = derive_seed(state["seed"], self.key, pair_index, gen_index, k)
                    ops.append(verify_op(gen, p, q, VERIFY_INSTANCES, seed))
        return ops


def verify_op(gen: dict, p: float, q: float, n: int, seed: int) -> Op:
    label = "verify " + " ".join(f"{k}={v}" for k, v in gen.items()) + f" p={p} q={q}"
    holder = {}

    def run():
        out = tempfile.mkdtemp(prefix="verify-", dir=OUT_DIR)
        holder["out"] = out
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(_verify_argv(gen, p, q, n, seed, out))
        return code

    def check(code):
        out = holder.pop("out")
        try:
            require(code == 0, f"verify exited with {code}")
            with open(os.path.join(out, "rows.jsonl")) as fh:
                rows = [json.loads(line) for line in fh]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        check_verify_rows(rows, gen, p, q, n)

    return Op(label, run, check)


# -- testing_mid -----------------------------------------------------------------

TESTING_CONFIGS = [
    dict(d=1, depth=8, p=2.0, q=2.0),
    dict(d=1, depth=9, sigma="spikes", tau="sparse", p=1.5, q=3.0),
    dict(d=1, depth=10, sigma="uniform", omega="spikes", tau="fractional", alpha=0.5, p=2.0, q=2.0),
    dict(d=2, depth=5, omega="uniform", p=1.5, q=3.0),
    dict(d=3, depth=3, sigma="spikes", omega="spikes", tau="sparse", p=2.0, q=2.0),
    dict(d=1, depth=10, p=1.5, q=3.0),
    dict(d=2, depth=5, sigma="uniform", omega="uniform", tau="fractional", alpha=1.0, p=2.0, q=2.0),
    dict(d=3, depth=3, tau="fractional", alpha=1.5, p=1.5, q=3.0),
]
SAMPLED_CUBES = 12  # other cubes at which each reported constant must be the larger


def check_testing(inst, out: dict, sample: np.ndarray) -> None:
    """Testing constants against their values at the argmax and at sampled cubes."""
    tree = Tree(inst.grid.d, inst.grid.depth)
    tau, sig, om = inst.tau.tau, inst.sigma.leaf_mass, inst.omega.leaf_mass
    p, q = inst.exps.p, inst.exps.q
    pc, qc = ref.conjugate(p), ref.conjugate(q)
    rep = out["report"]
    # (name, value, argmax, functional, norm measure, tested measure, norm
    # exponent, exponent of the tested mass); the duals swap the measures and
    # use the pair (q', p'), whose conjugates are (q, p)
    cases = [
        ("local", rep.loc, rep.loc_argmax, ref.local_testing_at, sig, om, pc, qc),
        ("local_dual", rep.loc_dual, rep.loc_dual_argmax, ref.local_testing_at, om, sig, q, p),
        ("global", rep.glo, rep.glo_argmax, ref.global_testing_at, sig, om, pc, qc),
        ("global_dual", rep.glo_dual, rep.glo_dual_argmax, ref.global_testing_at, om, sig, q, p),
    ]
    for name, value, arg, functional, s_mass, w_mass, pc, qc in cases:
        if arg is None:
            require(value == 0.0, f"{name}={value!r} has no argmax cube")
        else:
            at = functional(tree, tau, s_mass, w_mass, pc, qc, arg.level, arg.coords)
            require_close(f"{name} at its argmax cube", value, at, 1e-10)
        for index in sample:
            lev, coords = _cube_of(tree, int(index))
            at = functional(tree, tau, s_mass, w_mass, pc, qc, lev, coords)
            require(
                value >= at * (1 - 1e-10),
                f"{name}={value!r} is below its value {at!r} at cube {lev}:{coords}",
            )
    if "c12" in out:
        c1, c2 = out["c12"]
        require_close("C1 against local_dual", c1, rep.loc_dual, 1e-10)
        require_close("C2 against local", c2, rep.loc, 1e-10)
    check_carleson(tree, inst, out["carleson"], out["weighted_carleson"])


def check_carleson(tree: Tree, inst, car, wcar) -> None:
    tau = inst.tau.tau
    value, arg = car
    require_close("carleson_norm", value, ref.carleson_norm(tree, tau), 1e-12)
    require_close(
        "carleson_norm at its argmax", value, ref.carleson_at(tree, tau, arg.level, arg.coords), 1e-12
    )
    want = ref.weighted_carleson_norm(tree, tau, inst.omega.leaf_mass)
    require(not wcar.degenerate and math.isfinite(want), "weighted Carleson norm is degenerate")
    require_close("weighted_carleson_norm", wcar.value, want, 1e-12)


class TestingMid(Workload):
    name = "testing_mid"
    key = 2

    def setup(self, seed: int) -> dict:
        items = []
        for i, spec in enumerate(TESTING_CONFIGS):
            inst = harness.gen_instance(harness.GeneratorConfig(**spec), derive_seed(seed, self.key, i))
            rng = np.random.default_rng(derive_seed(seed, self.key, i, 1))
            sample = rng.choice(inst.grid.n_cubes, size=SAMPLED_CUBES, replace=False)
            items.append((inst, sample))
        warm = harness.gen_instance(harness.GeneratorConfig(d=1, depth=3), 0)
        self._run(warm)
        return {"items": items}

    @staticmethod
    def _run(inst) -> dict:
        out = {
            "report": constants.compute_testing_report(inst.tau, inst.sigma, inst.omega, inst.exps),
            "carleson": constants.carleson_norm(inst.tau),
            "weighted_carleson": constants.weighted_carleson_norm(inst.tau, inst.omega),
        }
        if inst.exps.is_l2:
            out["c12"] = constants.testing_constants_22(inst.tau, inst.sigma, inst.omega)
        return out

    def ops(self, state: dict) -> list:
        ops = []
        for inst, sample in state["items"]:
            label = f"testing {inst.generator} cubes={inst.grid.n_cubes}"
            ops.append(
                Op(
                    label,
                    lambda inst=inst: self._run(inst),
                    lambda out, inst=inst, sample=sample: check_testing(inst, out, sample),
                )
            )
        return ops


# -- audit_mid -------------------------------------------------------------------

# Audits cost about (number of layer cubes)^2, and that number swings by a
# factor of ten between seeds of one generator. Each input is therefore drawn
# until the benchmark's own count of layer cubes falls in the given band, so
# that a run's ops do comparable work whatever the seed.
AUDIT_CONFIGS = [
    (dict(d=1, depth=8, sigma="spikes", tau="sparse"), (500, 580)),
    (dict(d=1, depth=7, sigma="spikes", tau="sparse"), (280, 320)),
    (dict(d=2, depth=3, sigma="spikes", tau="sparse"), (280, 320)),
    (dict(d=3, depth=2, sigma="spikes", tau="sparse"), (280, 320)),
]
AUDIT_INPUTS_PER_CONFIG = 2
AUDIT_MAX_DRAWS = 400


class AuditMid(Workload):
    name = "audit_mid"
    key = 3

    def prepare(self, seed: int) -> None:
        """Pick the input seeds; the number of draws varies with the seed, so it is not set-up."""
        self.picks = []
        for i, (spec, (lo, hi)) in enumerate(AUDIT_CONFIGS):
            cfg = harness.GeneratorConfig(**spec)
            tree = Tree(cfg.d, cfg.depth)
            found = 0
            for draw in range(AUDIT_MAX_DRAWS):
                inst_seed = derive_seed(seed, self.key, i, draw)
                inst = harness.gen_instance(cfg, inst_seed)
                f = harness.instance_f(inst)
                v = ref.apply_T(tree, inst.tau.tau, f * inst.sigma.leaf_mass)
                if lo <= ref.whitney_cube_count(tree, v) <= hi:
                    self.picks.append((cfg, inst_seed))
                    found += 1
                    if found == AUDIT_INPUTS_PER_CONFIG:
                        break
            else:
                raise RuntimeError(f"no input of {cfg.tag()} in the band {lo}..{hi}")

    def setup(self, seed: int) -> dict:
        items = []
        for cfg, inst_seed in self.picks:
            inst = harness.gen_instance(cfg, inst_seed)
            f = harness.instance_f(inst)
            v = ref.apply_T(Tree(cfg.d, cfg.depth), inst.tau.tau, f * inst.sigma.leaf_mass)
            items.append((inst, ref.layer_window(v)))
        warm = harness.gen_instance(harness.GeneratorConfig(d=1, depth=3), 0)
        self._run(warm)
        return {"items": items, "classes_23": 0}

    @staticmethod
    def _run(inst):
        f = harness.instance_f(inst)
        return prooflab.audit_decomposition(f, inst.sigma, inst.omega, inst.tau)

    def ops(self, state: dict) -> list:
        ops = []
        for inst, window in state["items"]:
            ops.append(
                Op(
                    f"audit {inst.generator} seed={inst.seed}",
                    lambda inst=inst: self._run(inst),
                    lambda rep, window=window: self._check(state, rep, window),
                )
            )
        return ops

    @staticmethod
    def _check(state: dict, rep, window) -> None:
        check_audit(rep, window)
        state["classes_23"] += rep.class_counts[2] + rep.class_counts[3]

    def finish(self, state: dict) -> None:
        require(state["classes_23"] > 0, "no class-2 or class-3 cube in the whole run")


def check_audit(rep, window) -> None:
    require(not rep.violations, f"audit violations: {rep.violations[:3]}")
    require(rep.n_layers > 0 and rep.principal_count > 0, "audit with no layers or no principal cubes")
    k_lo, k_hi, n_layers = window
    require(
        (rep.k_lo, rep.k_hi, rep.n_layers) == (k_lo, k_hi, n_layers),
        f"layer window {(rep.k_lo, rep.k_hi, rep.n_layers)} != benchmark's {window}",
    )


# -- linear_large ----------------------------------------------------------------

# Fractional tau kept the power iteration at 8-29 steps on every seed tried; with
# random tau it takes 15-117 steps at 2^20 leaves, a spread one run cannot
# average out.
LINEAR_CONFIGS = [
    dict(d=1, depth=20, tau="fractional", alpha=0.5),
    dict(d=2, depth=10, sigma="uniform", omega="uniform", tau="fractional", alpha=1.0),
    dict(d=1, depth=19, sigma="uniform", omega="spikes", tau="fractional", alpha=0.3),
    dict(d=1, depth=18, sigma="spikes", tau="fractional", alpha=0.7),
]


def check_linear(out: dict) -> None:
    inst, f = out["inst"], out["f"]
    tree = Tree(inst.grid.d, inst.grid.depth)
    tau, sig, om = inst.tau.tau, inst.sigma.leaf_mass, inst.omega.leaf_mass
    tf = ref.apply_T(tree, tau, f * sig)
    ref.require_allclose("apply_T", out["Tf"], tf, 1e-12)
    check_carleson(tree, inst, out["carleson"], out["weighted_carleson"])
    ref.require_allclose("maximal", out["maximal"], ref.maximal(tree, f, sig), 1e-12)
    est = out["exact"]
    require(est.kind == "exact", f"exact_norm_22 returned kind {est.kind!r}")
    schur = ref.schur_bound_22(tree, tau, sig, om)
    require(est.value <= schur * (1 + 1e-12), f"norm {est.value!r} above the Schur bound {schur!r}")
    ef, eg = est.extremal_f, est.extremal_g
    pairing = float(np.sum(ref.apply_T(tree, tau, ef * sig) * eg * om))
    norms = math.sqrt(float(np.sum(ef * ef * sig))) * math.sqrt(float(np.sum(eg * eg * om)))
    require_close("exact_norm_22 against its extremal pair", est.value, pairing / norms, 1e-9)


class LinearLarge(Workload):
    name = "linear_large"
    key = 4

    def setup(self, seed: int) -> dict:
        for spec in LINEAR_CONFIGS:
            grid.build_grid(spec["d"], spec["depth"])
        warm = self._run(dict(d=1, depth=4, tau="fractional", alpha=0.5), 0)
        check_linear(warm)
        return {"seed": seed}

    @staticmethod
    def _run(spec: dict, seed: int) -> dict:
        inst = harness.gen_instance(harness.GeneratorConfig(**spec), seed)
        f = harness.instance_f(inst)
        return {
            "inst": inst,
            "f": f,
            "Tf": operators.apply_T(inst.tau, grid.Measure.product(f, inst.sigma)),
            "carleson": constants.carleson_norm(inst.tau),
            "weighted_carleson": constants.weighted_carleson_norm(inst.tau, inst.omega),
            "maximal": operators.maximal(f, inst.sigma),
            "exact": extremal.exact_norm_22(inst.tau, inst.sigma, inst.omega),
        }

    def ops(self, state: dict) -> list:
        ops = []
        for i, spec in enumerate(LINEAR_CONFIGS):
            seed = derive_seed(state["seed"], self.key, i)
            tag = harness.GeneratorConfig(**spec).tag()
            ops.append(Op(f"linear {tag} seed={seed}", lambda spec=spec, seed=seed: self._run(spec, seed), check_linear))
        return ops


WORKLOADS = {w.name: w for w in (VerifyMix(), TestingMid(), AuditMid(), LinearLarge())}
