"""Acceptance gate: ten criteria, one test function (= one pass/fail line) each.

Each test prints a summary line with the measured margins, so a verbose run
shows one verdict per criterion and the numbers behind it. The shared
200-instance suite (p = q = 2, mixed grids/styles) backs criteria 1-3 and
8-10 and a last test that pins its digest at two worker processes; the
remaining criteria draw their own corpora at desk scale.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from twoweight import extremal
from twoweight.constants import carleson_norm, weighted_carleson_norm
from twoweight.extremal import (
    _pool_images,
    _strong_ascent,
    carleson_embedding_constant,
    dense_norm_22,
    exact_norm_22,
)
from twoweight.grid import CubeRef, Exponents, Measure, build_grid, lp_norm
from twoweight.harness import GeneratorConfig, SuiteConfig, gen_instance, run_suite
from twoweight.operators import CubeWeights, apply_T, apply_T_restricted, maximal
from twoweight.prooflab import (
    carleson_of_principal,
    principal_cubes,
    whitney_layers,
)

from test_operators import _apply_T_brute

SUITE_GENERATORS = [
    GeneratorConfig(d=1, depth=3),
    GeneratorConfig(d=1, depth=4, omega="spikes", tau="sparse"),
    GeneratorConfig(d=1, depth=5, sigma="spikes"),
    GeneratorConfig(d=1, depth=6, sigma="uniform", tau="sparse"),
    GeneratorConfig(d=1, depth=4, sigma="spikes", omega="spikes"),
    GeneratorConfig(d=1, depth=5, omega="uniform", tau="fractional", alpha=0.5),
    GeneratorConfig(d=2, depth=2),
    GeneratorConfig(d=2, depth=3, omega="spikes", tau="sparse"),
    GeneratorConfig(d=2, depth=3, sigma="uniform", omega="uniform", tau="fractional", alpha=1.0),
    GeneratorConfig(d=1, depth=6, tau="root_only"),
]


SUITE_DIGEST = "12bf36c74af53f21537033336257d8b81d8f858468b4cd8be0756ab72a742e45"


def _suite_config():
    return SuiteConfig(
        generators=SUITE_GENERATORS,
        n=20,
        seed=2026,
    )


@pytest.fixture(scope="module")
def l2_suite():
    return run_suite(_suite_config())


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


def _random_l2_instance(seed: int, d: int, depth: int, style: int):
    rng = np.random.default_rng(seed)
    g = build_grid(d, depth)
    if style == 0:
        tau = CubeWeights(g, rng.exponential(size=g.n_cubes))
    elif style == 1:
        t = rng.exponential(size=g.n_cubes)
        t[rng.random(g.n_cubes) < 0.6] = 0.0
        tau = CubeWeights(g, t)
    else:
        tau = CubeWeights.fractional(g, 0.5 * d)
    sigma = Measure(g, rng.exponential(size=g.n_leaves))
    omega = Measure(g, rng.exponential(size=g.n_leaves))
    return g, tau, sigma, omega, rng


def test_criterion_01_necessity_quadratic_constants_below_exact_norm(l2_suite):
    # max(C1, C2) <= C3 * (1 + 1e-8) on all 200 instances
    worst = 0.0
    bad = 0
    for row in l2_suite.rows:
        c1, c2, c3 = row["c1"], row["c2"], row["c3"]
        if c3 == 0.0:
            if max(c1, c2) > 0.0:
                bad += 1
            continue
        margin = max(c1, c2) / c3
        worst = max(worst, margin)
        if max(c1, c2) > c3 * (1 + 1e-8):
            bad += 1
    ok = bad == 0
    _verdict(1, ok, f"max(C1,C2) <= C3*(1+1e-8) on {len(l2_suite.rows) - bad}/"
                    f"{len(l2_suite.rows)} instances (worst margin {worst:.12f})")
    assert ok, f"{bad} instances violate the exact necessity direction"


def test_criterion_02_sufficiency_ratio_capped(l2_suite):
    # C3/(C1+C2) <= 16 on every instance; the max ratio is reported
    ratios = [row["ratio_sufficiency"] for row in l2_suite.rows]
    finite = [r for r in ratios if math.isfinite(r)]
    worst = max(finite) if finite else 0.0
    bad = sum(1 for r in ratios if r > 16.0)
    ok = bad == 0
    _verdict(2, ok, f"C3/(C1+C2) <= 16 on {len(ratios) - bad}/{len(ratios)} "
                    f"instances (max ratio {worst:.6f})")
    assert ok, f"{bad} instances exceed the sufficiency cap 16 (max {worst})"


def test_criterion_03_quadratic_constants_match_local_testing(l2_suite):
    # a row reads C1 and C2 from its local testing constants; both equal the
    # quadratic indicator constants by their per-cube definition, enumerated
    # cube by cube (test_constants._oracle_quadratic), to 1e-10 relative on
    # every instance
    from test_constants import _oracle_quadratic  # test_constants imports this module

    n = _suite_config().n
    worst = 0.0
    bad = 0
    for i, row in enumerate(l2_suite.rows):
        inst = gen_instance(SUITE_GENERATORS[i // n], row["seed"])
        assert inst.generator == row["generator"]
        c1 = _oracle_quadratic(inst.tau, inst.sigma, inst.omega)
        c2 = _oracle_quadratic(inst.tau, inst.omega, inst.sigma)
        for a, b in ((row["c1"], c1), (row["c2"], c2)):
            scale = max(a, b)
            if scale == 0.0:
                continue
            rel = abs(a - b) / scale
            worst = max(worst, rel)
            if rel > 1e-10:
                bad += 1
    ok = bad == 0
    _verdict(3, ok, f"C1, C2 == quadratic indicator constants by enumeration to 1e-10 "
                    f"on 200 instances (worst rel {worst:.2e})")
    assert ok, f"{bad} orientation checks exceed 1e-10 relative"


def test_criterion_04_carleson_embedding_sandwich():
    # ||tau||_Car^(1/p) <= C_p (exact via the indicator floor) and
    # C_p <= 2 p' ||tau||_Car^(1/p), for 200 tau at p in {1.5, 2, 3};
    # same with the weighted norm against a random strictly positive omega;
    # every certified bracket closes
    grids = [(1, 4), (1, 5), (1, 6), (2, 2), (2, 3)]
    checked = bad = open_brackets = 0
    worst_lower = math.inf  # min C_p / car^(1/p), should stay >= 1
    worst_upper = 0.0  # max C_p / (2 p' car^(1/p)), should stay <= 1
    for i in range(200):
        d, depth = grids[i % len(grids)]
        g, tau, _, omega, rng = _random_l2_instance(7000 + i, d, depth, style=i % 3)
        car, _ = carleson_norm(tau)
        wres = weighted_carleson_norm(tau, omega)
        assert not wres.degenerate  # omega is strictly positive by construction
        for p in (1.5, 2.0, 3.0):
            pc = p / (p - 1.0)
            for mu, base in ((None, car), (omega, wres.value)):
                est = carleson_embedding_constant(tau, p, mu=mu)
                open_brackets += est.kind != "exact"
                cet = est.value
                root = base ** (1.0 / p)
                checked += 1
                if root > 0:
                    worst_lower = min(worst_lower, cet / root)
                    worst_upper = max(worst_upper, cet / (2 * pc * root))
                if cet < root * (1 - 1e-12) or cet > 2 * pc * root * (1 + 1e-9):
                    bad += 1
    ok = bad == 0 and open_brackets == 0
    _verdict(4, ok, f"car^(1/p) <= C_p <= 2p'*car^(1/p) on {checked - bad}/{checked} "
                    f"checks (min lower margin {worst_lower:.9f}, "
                    f"max upper fraction {worst_upper:.6f}); "
                    f"{checked - open_brackets}/{checked} brackets closed")
    assert bad == 0, f"{bad} of {checked} embedding sandwich checks failed"
    assert open_brackets == 0, f"{open_brackets} of {checked} brackets stayed open"


def test_criterion_05_maximal_function_conjugate_exponent_bound():
    # ||M_w f||_p / ||f||_p <= p' + 1e-6 on 500 random (omega, f, p) triples
    grids = [(1, 4), (1, 5), (1, 6), (2, 2), (2, 3)]
    rng = np.random.default_rng(31)
    worst_excess = -math.inf
    bad = 0
    for i in range(500):
        d, depth = grids[i % len(grids)]
        g = build_grid(d, depth)
        draw = rng.lognormal(0.0, 1.0, g.n_leaves) if i % 2 else rng.exponential(size=g.n_leaves)
        omega = Measure(g, draw)
        f = rng.lognormal(0.0, 1.5, g.n_leaves) if i % 3 else rng.exponential(size=g.n_leaves)
        p = float(rng.uniform(1.1, 3.5))
        pc = p / (p - 1.0)
        ratio = lp_norm(maximal(f, omega), omega, p) / lp_norm(f, omega, p)
        worst_excess = max(worst_excess, ratio - pc)
        if ratio > pc + 1e-6:
            bad += 1
    ok = bad == 0
    _verdict(5, ok, f"||M f||_p/||f||_p <= p' + 1e-6 on {500 - bad}/500 triples "
                    f"(worst ratio-minus-p' {worst_excess:.3e})")
    assert ok, f"{bad} of 500 maximal-function triples exceed p' + 1e-6"


def test_criterion_06_operator_matches_brute_force_and_localization_split():
    # (a) fast evaluation vs the ancestor-walk oracle, <= 1e-12 relative, on
    #     grids up to 4096 leaves; (b) self-adjointness to 1e-10; (c) the
    #     in/out split identity on every (R, leaf) pair of a 50-instance
    #     sample, at accumulation roundoff (the split reassociates exactly
    #     one addition, so 'exact' means a couple of ulps here)
    parity_worst = 0.0
    for j, (d, depth) in enumerate(
        [(1, 6), (1, 8), (1, 10), (1, 12), (2, 3), (2, 4), (2, 5), (2, 6)]
    ):
        for style in (0, 1):
            g, tau, sigma, _, _ = _random_l2_instance(8000 + 10 * j + style, d, depth, style)
            fast = apply_T(tau, sigma)
            slow = _apply_T_brute(tau, sigma)
            rel = float(np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-300)))
            parity_worst = max(parity_worst, rel)
    assert parity_worst <= 1e-12

    adj_worst = 0.0
    split_worst = 0.0
    for i in range(50):
        d = 1 + i % 2
        depth = 3 + (i // 2) % 4 if d == 1 else 2 + i % 2
        g, tau, sigma, omega, rng = _random_l2_instance(8500 + i, d, depth, style=i % 3)
        f = rng.exponential(size=g.n_leaves)
        h = rng.exponential(size=g.n_leaves)
        lhs = float(np.sum(apply_T(tau, Measure.product(f, sigma)) * h * omega.leaf_mass))
        rhs = float(np.sum(apply_T(tau, Measure.product(h, omega)) * f * sigma.leaf_mass))
        if max(abs(lhs), abs(rhs)) > 0:
            adj_worst = max(adj_worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        full = apply_T(tau, sigma)
        for r in range(g.n_cubes):
            R = g.cube(r)
            up = CubeRef(R.level - 1, tuple(c >> 1 for c in R.coords)) if R.level else CubeRef(-1)
            split = apply_T_restricted(tau, sigma, R, "in") + apply_T_restricted(
                tau, sigma, up, "out"
            )
            on = g.subtree_leaf_mask(r)
            gap = np.abs(split[on] - full[on]) / np.maximum(full[on], 1e-300)
            split_worst = max(split_worst, float(gap.max(initial=0.0)))
    ok = parity_worst <= 1e-12 and adj_worst <= 1e-10 and split_worst <= 2e-15
    _verdict(6, ok, f"brute-force parity {parity_worst:.2e} (<=1e-12), "
                    f"self-adjointness {adj_worst:.2e} (<=1e-10), "
                    f"in/out split {split_worst:.2e} (<=2e-15, machine exact)")
    assert adj_worst <= 1e-10
    assert split_worst <= 2e-15


def test_criterion_07_exact_norm_matches_dense_oracle_and_ascent_recovers_it(monkeypatch):
    # (a) exact_norm_22 vs the materialized-kernel SVD, <= 1e-8 relative, on
    #     every tested instance with <= 1024 leaves; (b) the p < q ascent,
    #     run at p = q = 2, lands within 1e-6 of the exact value on >= 95% of
    #     instances; stragglers are counted, not failed
    dense_worst = 0.0
    for j, (d, depth) in enumerate([(1, 2), (1, 4), (1, 6), (1, 8), (1, 10), (2, 2), (2, 3), (2, 4), (2, 5)]):
        for style in (0, 1):
            if d * depth >= 10 and style == 1:
                continue  # one instance at each 1024-leaf cap is enough
            g, tau, sigma, omega, _ = _random_l2_instance(9000 + 10 * j + style, d, depth, style)
            e = exact_norm_22(tau, sigma, omega)
            assert e.kind == "exact"
            dn = dense_norm_22(tau, sigma, omega)
            if dn > 0:
                dense_worst = max(dense_worst, abs(e.value - dn) / dn)
    assert dense_worst <= 1e-8

    gaps = []
    monkeypatch.setattr(extremal, "_RESTARTS", 16)
    monkeypatch.setattr(extremal, "_ASCENT_ROUNDS", 400)
    exps = Exponents(2.0, 2.0)
    for i in range(60):
        d = 1 + i % 2
        depth = 3 + (i // 2) % 4 if d == 1 else 2 + i % 2
        g, tau, sigma, omega, _ = _random_l2_instance(9500 + i, d, depth, style=i % 3)
        exact = exact_norm_22(tau, sigma, omega).value
        est = _strong_ascent(tau, sigma, omega, exps, _pool_images(tau, sigma, omega, exps, i))
        gaps.append(abs(est.value - exact) / exact if exact > 0 else 0.0)
    gaps = np.asarray(gaps)
    frac = float(np.mean(gaps <= 1e-6))
    ok = dense_worst <= 1e-8 and frac >= 0.95
    _verdict(7, ok, f"dense-oracle parity {dense_worst:.2e} (<=1e-8); ascent within "
                    f"1e-6 on {frac * 100:.1f}% of 60 instances (need >=95%, "
                    f"worst gap {gaps.max():.2e})")
    assert frac >= 0.95, f"only {frac * 100:.1f}% of ascent runs reach the exact value"


def test_criterion_08_decomposition_audits_all_silent(l2_suite):
    # zero violations from any audit family on the 200-instance suite, the
    # finite-overlap cap on every row, plus fresh principal-forest rechecks
    prooflab_violations = [v for v in l2_suite.violations if v["check"] == "prooflab"]
    dirty = [row["seed"] for row in l2_suite.rows if not row["audit_clean"]]
    fo_bad = [
        row["seed"]
        for row in l2_suite.rows
        if row["fo_max"] > 8 * 2 ** (2 * row["d"])  # rho = 1 in the suite config
    ]

    forest_bad = 0
    forests = 0
    for i in range(30):
        d = 1 + i % 2
        g, tau, sigma, _, rng = _random_l2_instance(12000 + i, d, 5 if d == 1 else 3, i % 3)
        f = rng.exponential(size=g.n_leaves)
        deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
        seeds = sorted({int(c) for lay in deco.layers for c in lay.cubes})
        if not seeds:
            continue
        forest = principal_cubes(f, sigma, seeds)
        forests += 1
        forest_bad += len(forest.violations)
        for p in (1.5, 2.0, 3.0):
            pc = p / (p - 1.0)
            if carleson_of_principal(forest, p) > pc**p * (1 + 1e-9):
                forest_bad += 1

    ok = not prooflab_violations and not dirty and not fo_bad and not forest_bad
    _verdict(8, ok, f"audits silent on 200 instances ({len(prooflab_violations)} violations, "
                    f"{len(dirty)} dirty, {len(fo_bad)} overlap-cap breaches); "
                    f"{forests} principal forests: audits and Carleson sums within (p')^p "
                    f"at p = 1.5, 2, 3 ({forest_bad} bad)")
    assert not prooflab_violations, prooflab_violations[:3]
    assert not dirty and not fo_bad
    assert forest_bad == 0


def test_criterion_09_weak_below_strong_and_testing_below_norm(l2_suite):
    # weak estimate <= strong estimate on every instance; all four testing
    # constants <= the exact norm within 1e-8 at p = q = 2
    order_bad = 0
    testing_bad = 0
    worst_order = 0.0
    worst_testing = 0.0
    for row in l2_suite.rows:
        if row["strong"] > 0:
            worst_order = max(worst_order, row["weak"] / row["strong"])
        if row["weak"] > row["strong"] * (1 + 1e-12):
            order_bad += 1
        c3 = row["c3"]
        for name in ("local", "local_dual", "global", "global_dual"):
            if c3 > 0:
                worst_testing = max(worst_testing, row[name] / c3)
            if row[name] > c3 * (1 + 1e-8):
                testing_bad += 1
    ok = order_bad == 0 and testing_bad == 0
    _verdict(9, ok, f"weak <= strong on 200 instances (max weak/strong "
                    f"{worst_order:.6f}); testing <= exact norm "
                    f"(max constant/norm {worst_testing:.9f})")
    assert order_bad == 0 and testing_bad == 0


def test_criterion_10_suite_rerun_reproduces_identical_rows(l2_suite):
    # a second run of the same 200-instance suite: identical digest, and the
    # canonical serialization of every row matches byte for byte (timing
    # metadata excluded; it is the only nondeterministic field family)
    second = run_suite(_suite_config())

    def canonical(rows):
        stripped = [
            {k: v for k, v in row.items() if not k.startswith("time_")} for row in rows
        ]
        return json.dumps(stripped, sort_keys=True, separators=(",", ":")).encode()

    same_digest = second.digest == l2_suite.digest
    same_bytes = canonical(second.rows) == canonical(l2_suite.rows)
    ok = same_digest and same_bytes
    _verdict(10, ok, f"rerun digest {second.digest[:16]}… "
                     f"{'matches' if same_digest else 'DIFFERS'}; canonical rows "
                     f"{'byte-identical' if same_bytes else 'DIFFER'}")
    assert same_digest and same_bytes


def test_suite_digest_pinned_and_independent_of_worker_processes(l2_suite):
    # the same suite in two worker processes: the recorded digest, and every
    # row equal to the in-process run's, timing fields aside
    parallel = run_suite(dataclasses.replace(_suite_config(), threads=2))

    def untimed(rows):
        return [{k: v for k, v in row.items() if not k.startswith("time_")} for row in rows]

    assert l2_suite.digest == SUITE_DIGEST
    assert parallel.digest == SUITE_DIGEST
    assert untimed(parallel.rows) == untimed(l2_suite.rows)
