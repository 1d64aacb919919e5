"""Instance generation, canonical serialization, suites, the CLI, and the
package names the benchmark traces."""

import concurrent.futures
import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from twoweight import _kernels, cli, constants, extremal, harness, prooflab
from twoweight.cli import main
from twoweight.extremal import carleson_embedding_constant, exact_norm_22, strong_norm_lower
from twoweight.grid import Measure, build_grid
from twoweight.harness import (
    ConfigError,
    GeneratorConfig,
    Instance,
    SuiteConfig,
    gen_instance,
    instance_f,
    rows_digest,
    run_suite,
)
from twoweight.operators import CubeWeights, apply_T
from twoweight.prooflab import WhitneyDecomposition, WhitneyLayer, audit_decomposition

from test_acceptance import SUITE_GENERATORS
from test_operators import _volumes


# -- configs and generation -----------------------------------------------------


def test_generator_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(sigma="gaussian").validate()
    with pytest.raises(ConfigError):
        GeneratorConfig(tau="dense").validate()
    with pytest.raises(ConfigError):
        GeneratorConfig(tau="fractional").validate()  # alpha missing
    with pytest.raises(ConfigError):
        GeneratorConfig(tau="fractional", alpha=1.5, d=1).validate()
    with pytest.raises(ConfigError):
        GeneratorConfig(p=3.0, q=2.0).validate()  # p > q
    with pytest.raises(ConfigError):
        GeneratorConfig(depth=-1).validate()
    GeneratorConfig(tau="fractional", alpha=0.5).validate()


def test_generator_tag_round_trips_style():
    cfg = GeneratorConfig(d=2, depth=2, tau="fractional", alpha=0.5, p=1.5, q=2.5)
    tag = cfg.tag()
    assert "d2D2" in tag and "fractional" in tag and "a0.5" in tag and "p1.5q2.5" in tag


@pytest.mark.parametrize("style", ["lognormal", "spikes", "uniform"])
def test_gen_instance_styles(style):
    inst = gen_instance(GeneratorConfig(sigma=style, omega=style), seed=7)
    assert inst.sigma.total > 0 and inst.omega.total > 0
    assert np.all(inst.sigma.leaf_mass >= 0)


def test_spikes_floor_behavior():
    lively = gen_instance(GeneratorConfig(sigma="spikes", depth=5), seed=1)
    assert np.all(lively.sigma.leaf_mass > 0)  # tiny floor, never exactly zero
    zeroed = gen_instance(
        GeneratorConfig(sigma="spikes", depth=5, allow_zero_sigma=True), seed=1
    )
    assert np.any(zeroed.sigma.leaf_mass == 0.0)


def test_gen_instance_deterministic():
    cfg = GeneratorConfig(d=1, depth=4, tau="sparse")
    a = gen_instance(cfg, seed=123).to_json()
    b = gen_instance(cfg, seed=123).to_json()
    assert a == b
    c = gen_instance(cfg, seed=124).to_json()
    assert a != c


def test_instance_f_deterministic_and_positive():
    inst = gen_instance(GeneratorConfig(), seed=5)
    f1, f2 = instance_f(inst), instance_f(inst)
    np.testing.assert_array_equal(f1, f2)
    assert np.all(f1 > 0)


# -- serialization ---------------------------------------------------------------


def test_json_round_trip_byte_exact():
    for style in ("random", "sparse", "root_only"):
        inst = gen_instance(GeneratorConfig(d=2, depth=2, tau=style), seed=9)
        text = inst.to_json()
        back = Instance.from_json(text)
        assert back.to_json() == text


def test_fractional_rule_deserialization():
    inst = gen_instance(GeneratorConfig(tau="fractional", alpha=0.5), seed=3)
    # a rule-only payload (no dense values) reconstructs the same weights
    data = inst.to_json_dict()
    data["tau"] = {"rule": "fractional", "alpha": 0.5}
    rebuilt = Instance.from_json_dict(data)
    np.testing.assert_allclose(rebuilt.tau.tau, inst.tau.tau, rtol=1e-15)


def test_tau_and_stored_coefficient_match_the_per_cube_volume_formulas():
    # the per-level vector expanded per cube rounds as the old per-cube arrays:
    # tau = |Q|**(alpha/d) by numpy's vectorized power, and tau/|Q|
    def same(a, b):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    for cfg in SUITE_GENERATORS:
        for seed in range(5):
            tau = gen_instance(cfg, seed).tau
            assert same(tau.coef, tau.tau / _volumes(tau.grid)), (cfg.tag(), seed)
    for d, depths in ((1, range(15)), (2, range(11)), (3, range(7)), (4, range(5))):
        for depth in depths:
            g = build_grid(d, depth)
            vol = _volumes(g)
            for alpha in (0.3, 0.5, 0.7, 1.0):
                if alpha >= d:
                    continue
                tau = CubeWeights.fractional(g, alpha)
                assert same(tau.tau, vol ** (alpha / d)), (d, depth, alpha)
                assert same(tau.coef, tau.tau / vol), (d, depth, alpha)


def test_unrecognized_tau_payload():
    inst = gen_instance(GeneratorConfig(), seed=4)
    data = inst.to_json_dict()
    data["tau"] = {"rule": "mystery"}
    with pytest.raises(ConfigError):
        Instance.from_json_dict(data)


def test_rows_digest_ignores_timing():
    rows_a = [{"seed": 1, "local": 0.5, "time_total": 0.010}]
    rows_b = [{"seed": 1, "local": 0.5, "time_total": 99.0}]
    assert rows_digest(rows_a) == rows_digest(rows_b)
    rows_c = [{"seed": 1, "local": 0.6, "time_total": 0.010}]
    assert rows_digest(rows_a) != rows_digest(rows_c)


def test_stage_timings_in_rows_stay_out_of_digest():
    report = run_suite(_small_suite(n=1, threads=1))
    stages = ("time_testing", "time_cet", "time_norm", "time_audit")
    for row in report.rows:
        assert all(row[k] >= 0.0 for k in stages)
        assert sum(row[k] for k in stages) == pytest.approx(row["time_total"])
        audit_stages = [k for k in row if k.startswith("time_audit_")]
        assert audit_stages and sum(row[k] for k in audit_stages) <= row["time_audit"]
    shifted = [{**row, **{k: row[k] + 1.0 for k in stages}} for row in report.rows]
    assert rows_digest(shifted) == report.digest


# -- suites ------------------------------------------------------------------------


def _small_suite(**kw):
    defaults = dict(
        generators=[
            GeneratorConfig(d=1, depth=3),
            GeneratorConfig(d=2, depth=2, tau="sparse"),
        ],
        n=3,
        seed=11,
    )
    defaults.update(kw)
    return SuiteConfig(**defaults)


def test_suite_runs_clean():
    report = run_suite(_small_suite())
    assert report.ok and report.exit_code == 0
    assert len(report.rows) == 6
    # the default exponents are p = q = 2, so the L2 block must be present
    for row in report.rows:
        assert {"c1", "c2", "c3", "ratio_sufficiency", "local", "strong", "weak"} <= set(row)
        assert row["audit_clean"]
    assert report.aggregates["n_rows"] == 6
    assert report.aggregates["n_violations"] == 0
    assert report.aggregates["audit_dirty_seeds"] == []
    # each constant is <= the norm, so the sum is at most twice the norm
    assert report.aggregates["ratio_sufficiency_min"] >= 0.5 - 1e-12
    assert report.aggregates["ratio_sufficiency_max"] <= 16.0


def test_suite_digest_reproducible_across_thread_counts():
    r1 = run_suite(_small_suite(threads=1))
    r2 = run_suite(_small_suite(threads=3))
    assert r1.digest == r2.digest
    assert [  # full row equality, timing aside
        {k: v for k, v in row.items() if not k.startswith("time_")} for row in r1.rows
    ] == [{k: v for k, v in row.items() if not k.startswith("time_")} for row in r2.rows]


def _start_the_kernel_pool(monkeypatch):
    """Every grid on the kernels' two threads (a fork copies the setting),
    and the pool of the second thread started here."""
    monkeypatch.setattr(_kernels, "PARALLEL_MIN_LEAVES", 1)
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    monkeypatch.setattr(_kernels, "_inline", False)
    grid = build_grid(1, 13)
    assert _kernels.workers(grid.n_leaves) is not None
    return grid


def test_worker_processes_started_after_the_kernel_pool(monkeypatch):
    # the suite's worker processes are forked from a process whose kernel
    # pool has a live thread; they run their rows inline and give the digest
    # of the in-process run, whose scans ran on the two threads
    _start_the_kernel_pool(monkeypatch)
    in_process = run_suite(_small_suite(threads=1))
    forked = run_suite(_small_suite(threads=2))
    assert forked.digest == in_process.digest


def _scan_on_two_threads(grid):
    # in a forked child: the pool copied from the parent has no thread, so
    # the scan must start a pool of its own
    _kernels.down_sum(np.ones(grid.n_cubes), grid)
    os._exit(0 if _kernels._pool is not None else 3)


def test_forked_child_drops_the_kernel_pool(monkeypatch):
    grid = _start_the_kernel_pool(monkeypatch)
    child = multiprocessing.get_context("fork").Process(target=_scan_on_two_threads, args=(grid,))
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung, "the child waited on a pool thread that did not survive the fork"
    assert child.exitcode == 0


def test_serial_suite_starts_no_worker(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    threads = threading.active_count()
    report = run_suite(_small_suite(n=1))
    assert report.ok and len(report.rows) == 2
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []


def test_suite_seed_changes_digest():
    r1 = run_suite(_small_suite())
    r2 = run_suite(_small_suite(seed=12))
    assert r1.digest != r2.digest


def test_empty_suite():
    report = run_suite(SuiteConfig(generators=[], n=0))
    assert report.ok and report.rows == []
    assert report.digest == rows_digest([])


def test_suite_report_files(tmp_path):
    out = tmp_path / "report"
    report = run_suite(_small_suite(out_dir=str(out)))
    lines = (out / "rows.jsonl").read_text().strip().splitlines()
    assert len(lines) == len(report.rows)
    for line in lines:
        json.loads(line)
    csv_text = (out / "aggregates.csv").read_text()
    assert csv_text.startswith("metric,value")
    assert "digest," + report.digest in csv_text.replace("\r", "")
    assert not list(out.glob("counterexample_*.json"))  # clean suite


def test_suite_off_diagonal_rows():
    cfg = SuiteConfig(
        generators=[GeneratorConfig(d=1, depth=3, p=1.5, q=2.0)],
        n=2,
        seed=0,
    )
    report = run_suite(cfg)
    assert report.ok
    for row in report.rows:
        assert "c3" not in row  # the L2 block is diagonal-only
        assert row["weak"] <= row["strong"] * (1 + 1e-12)


def test_suite_diagonal_rows_certified():
    # at p = q = 3 the strong norm is certified, so the testing constants are
    # checked against its upper value
    cfg = SuiteConfig(
        generators=[
            GeneratorConfig(d=1, depth=4, p=3.0, q=3.0),
            GeneratorConfig(d=2, depth=2, omega="spikes", tau="sparse", p=3.0, q=3.0),
        ],
        n=3,
        seed=3,
    )
    report = run_suite(cfg)
    assert report.ok and len(report.rows) == 6
    for row in report.rows:
        assert "c3" not in row
        assert row["strong_kind"] == row["cet_kind"] == "exact"
        assert row["cet"] <= row["cet_upper"] <= row["cet"] * (1 + 1e-12)
        for key in ("local", "local_dual", "global", "global_dual", "weak"):
            assert row[key] <= row["strong"] * (1 + 1e-12)


def test_suite_solves_the_l2_norm_once_per_row(monkeypatch):
    # the row's strong bound at p = q = 2 is the exact norm, and c3 reuses it
    calls = []
    solve = extremal.exact_norm_22

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(extremal, "exact_norm_22", counting)
    # the harness may hold its own reference to the routine
    monkeypatch.setattr(harness, "exact_norm_22", counting, raising=False)
    gens = [GeneratorConfig(d=1, depth=3), GeneratorConfig(d=2, depth=2, tau="sparse")]
    report = run_suite(SuiteConfig(generators=gens, n=3, seed=4))
    assert report.ok and len(report.rows) == 6
    assert len(calls) == 6
    for row in report.rows:
        assert row["c3"] == row["strong"] and row["strong_kind"] == "exact"


@pytest.mark.parametrize("p,q", [(1.5, 3.0), (2.0, 4.0), (2.0, 2.0), (3.0, 3.0)])
def test_row_builds_one_seed_pool(monkeypatch, p, q):
    # where p < q the weak bound scans the ascent's own starting pool and images:
    # one pool, and the ascent's 2 * iterations + 1 batched applications in all
    calls = {"pool": 0, "batch": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(extremal, "_seed_pool", counting("pool", extremal._seed_pool))
    monkeypatch.setattr(extremal, "_t_leafmass_batch", counting("batch", extremal._t_leafmass_batch))
    for k, cfg in enumerate(SUITE_GENERATORS[:4]):
        inst = gen_instance(GeneratorConfig(**{**vars(cfg), "p": p, "q": q}), 60 + k)
        calls.update(pool=0, batch=0)
        row, violations = harness._row_for_instance(inst, SuiteConfig())
        assert violations == [] and calls["pool"] == 1
        if p < q:
            assert calls["batch"] == 2 * row["strong_iterations"] + 1


def test_l2_row_reads_c1_c2_from_the_report(monkeypatch):
    # at p = q = 2, C1 and C2 are the local testing constants: the row takes
    # them from its report, so it runs three in-sweeps (the report's local
    # pair and the seed pool's strengthened values), and they are the
    # report's bits
    calls = []
    sweep = constants._inner_power_sums

    def counting(*args, **kwargs):
        calls.append(None)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(constants, "_inner_power_sums", counting)
    for k, cfg in enumerate(SUITE_GENERATORS):
        inst = gen_instance(cfg, 80 + k)
        calls.clear()
        row, violations = harness._row_for_instance(inst, SuiteConfig())
        assert violations == [] and len(calls) == 3, cfg.tag()
        assert (row["c1"], row["c2"]) == (row["local_dual"], row["local"]), cfg.tag()


def test_suite_flags_testing_above_certified_norm(monkeypatch):
    def shrunk(*args, **kwargs):
        est = strong_norm_lower(*args, **kwargs)
        est.upper = 0.5 * est.value
        return est

    monkeypatch.setattr(extremal, "strong_norm_lower", shrunk)
    cfg = SuiteConfig(generators=[GeneratorConfig(d=1, depth=3, p=3.0, q=3.0)], n=1, seed=3)
    report = run_suite(cfg)
    assert not report.ok
    assert {v["check"] for v in report.violations} == {"testing-le-norm"}


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_suite_flags_cet_outside_the_embedding_theorem(monkeypatch, direction):
    # car^(1/p) <= C_p <= p' car^(1/p): a value below the left end fires
    # "cet-lower", an upper value above the right end fires "cet-upper"
    def broken(tau, p, mu=None):
        est = carleson_embedding_constant(tau, p, mu)
        if direction == "lower":
            est.value *= 1e-3
        else:
            est.upper *= 1e3
        return est

    monkeypatch.setattr(harness, "carleson_embedding_constant", broken)
    cfg = SuiteConfig(generators=[GeneratorConfig(d=1, depth=3)], n=1, seed=3)
    report = run_suite(cfg)
    assert {v["check"] for v in report.violations} == {f"cet-{direction}"}
    assert report.rows[0]["cet_kind"] == "exact"


def test_suite_rows_carry_solver_iterations():
    gens = [GeneratorConfig(d=1, depth=3, p=1.5, q=3.0), GeneratorConfig(d=1, depth=3)]
    report = run_suite(SuiteConfig(generators=gens, n=1, seed=5))
    seeds = np.random.SeedSequence(5).generate_state(2, dtype=np.uint64)
    for row, cfg, seed in zip(report.rows, gens, seeds):
        inst = gen_instance(cfg, int(seed))
        cet = carleson_embedding_constant(inst.tau, inst.exps.p)
        if inst.exps.is_l2:
            strong = exact_norm_22(inst.tau, inst.sigma, inst.omega)
        else:
            strong = strong_norm_lower(inst.tau, inst.sigma, inst.omega, inst.exps, inst.seed)
        assert (row["cet"], row["cet_upper"], row["cet_kind"], row["cet_iterations"]) == (
            cet.value, cet.upper, cet.kind, cet.iterations
        )
        assert (row["strong"], row["strong_iterations"]) == (strong.value, strong.iterations)
        assert row["cet_iterations"] >= 1 and row["strong_iterations"] >= 1


def test_suite_config_validation():
    SuiteConfig(threads=5).validate()
    assert SuiteConfig().threads == 1
    for bad in (
        dict(threads=0),
        dict(threads=-2),
        dict(n=-1),
        dict(eta=0.0),
        dict(eta=1.0),
        dict(eta=float("nan")),
        dict(rho=0),
        dict(ratio_cap=0.0),
        dict(ratio_cap=-1.0),
        dict(generators=[GeneratorConfig(tau="dense")]),
    ):
        with pytest.raises(ConfigError):
            SuiteConfig(**bad).validate()
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(threads=0))


# -- CLI ---------------------------------------------------------------------------


def _gen_file(tmp_path, name="inst.json", extra=()):
    path = tmp_path / name
    rc = main(["gen", "--d", "1", "--depth", "3", "--seed", "21", "--out", str(path), *extra])
    assert rc == 0
    return path


def test_cli_gen_deterministic(tmp_path):
    p1 = _gen_file(tmp_path, "a.json")
    p2 = _gen_file(tmp_path, "b.json")
    assert p1.read_bytes() == p2.read_bytes()
    inst = Instance.from_json(p1.read_text())
    assert inst.seed == 21 and inst.grid.depth == 3


def test_cli_gen_stdout(capsys):
    rc = main(["gen", "--seed", "2"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 2


def test_cli_apply(tmp_path, capsys):
    inst_path = _gen_file(tmp_path)
    rc = main(["apply", "--instance", str(inst_path)])
    assert rc == 0
    leaves = json.loads(capsys.readouterr().out)["leaves"]
    assert len(leaves) == 8 and all(v >= 0 for v in leaves)

    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps([1.0] * 8))
    rc = main(["apply", "--instance", str(inst_path), "--f", str(f_path)])
    assert rc == 0

    f_path.write_text(json.dumps([1.0] * 5))
    assert main(["apply", "--instance", str(inst_path), "--f", str(f_path)]) == 2


@pytest.mark.parametrize("command", ["apply", "decompose"])
@pytest.mark.parametrize(
    "content",
    [
        "not json [",
        json.dumps(["a"] + [1.0] * 7),
        json.dumps(["1"] + [1.0] * 7),
        json.dumps([True] + [1.0] * 7),
        "[NaN, 1, 1, 1, 1, 1, 1, 1]",
        "[" + "9" * 400 + ", 1, 1, 1, 1, 1, 1, 1]",
        None,
    ],
    ids=["not-json", "not-numeric", "numeric-string", "bool", "not-finite", "out-of-range",
         "directory"],
)
def test_cli_malformed_f_exit_code(tmp_path, capsys, command, content):
    inst_path = _gen_file(tmp_path)
    f_path = tmp_path / "f"
    if content is None:
        f_path.mkdir()
    else:
        f_path.write_text(content)
    assert main([command, "--instance", str(inst_path), "--f", str(f_path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag",
    [("gen", "--tol"), ("apply", "--seed"), ("testing", "--eta"), ("testing", "--seed"),
     ("testing", "--tol"), ("norm", "--rho"), ("norm", "--seed"), ("norm", "--tol"),
     ("decompose", "--threads"), ("verify", "--tol")],
)
def test_cli_rejects_flags_it_does_not_read(tmp_path, capsys, command, flag):
    argv = [command, flag, "5"]
    if command not in ("gen", "verify"):
        argv += ["--instance", str(_gen_file(tmp_path))]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_testing(tmp_path, capsys):
    inst_path = _gen_file(tmp_path)
    rc = main(["testing", "--instance", str(inst_path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    for key in ("local", "local_dual", "global", "global_dual", "carleson", "cet", "cet_upper"):
        assert key in out
    assert out["cet_kind"] == "exact"
    assert out["carleson"] ** 0.5 <= out["cet"] <= out["cet_upper"] <= 2 * out["carleson"] ** 0.5


@pytest.mark.parametrize("direction", ["lower", "upper"])
def test_cli_testing_exit_code_covers_both_directions(tmp_path, capsys, monkeypatch, direction):
    # like a suite row, the exit code is 1 when either end of the bracket
    # leaves [car^(1/p), p' car^(1/p)]
    def broken(tau, p, mu=None):
        est = carleson_embedding_constant(tau, p, mu)
        if direction == "lower":
            est.value *= 1e-3
        else:
            est.upper *= 1e3
        return est

    inst_path = _gen_file(tmp_path)
    monkeypatch.setattr(cli, "carleson_embedding_constant", broken)
    assert main(["testing", "--instance", str(inst_path)]) == 1
    captured = capsys.readouterr()
    assert f"[cet-{direction}]" in captured.err
    assert json.loads(captured.out)["cet_kind"] == "exact"


def test_cli_norm(tmp_path, capsys):
    inst_path = _gen_file(tmp_path)
    rc = main(["norm", "--instance", str(inst_path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert "exact" in out  # default exponents are on the diagonal
    assert out["weak"]["value"] <= out["strong"]["value"] * (1 + 1e-8)
    assert "extremal_f" not in out["strong"]
    rc = main(["norm", "--instance", str(inst_path), "--extremals"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and isinstance(out["strong"]["extremal_f"], list)


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 1.5), (3.0, 3.0), (1.5, 3.0), (2.0, 4.0)])
def test_cli_norm_reproduces_the_suite_row(tmp_path, capsys, p, q):
    # the command seeds its pool from the written instance, as a row does, so
    # every strong and weak value re-evaluates to the row's bits
    path = tmp_path / "inst.json"
    for k, cfg in enumerate(SUITE_GENERATORS):
        inst = gen_instance(GeneratorConfig(**{**vars(cfg), "p": p, "q": q}), 100 + k)
        path.write_text(inst.to_json())
        row, _ = harness._row_for_instance(inst, SuiteConfig())
        assert main(["norm", "--instance", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["strong"]["value"] == row["strong"], cfg.tag()
        assert out["weak"]["value"] == row["weak"], cfg.tag()
        assert out["strong"]["iterations"] == row["strong_iterations"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("p,q", [(1.5, 3.0), (2.0, 2.0)])
def test_cli_norm_prints_strict_json(tmp_path, capsys, p, q):
    # lower bounds carry no residual: it is written as null, never as NaN
    inst_path = _gen_file(tmp_path, extra=("--p", str(p), "--q", str(q)))
    assert main(["norm", "--instance", str(inst_path)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert out["weak"]["residual"] is None
    if p == q:
        assert out["exact"] == out["strong"] and out["strong"]["kind"] == "exact"
        assert out["strong"]["residual"] <= 1e-9 * out["strong"]["value"]
    else:
        assert "exact" not in out and out["strong"]["residual"] is None


def test_cli_decompose(tmp_path, capsys):
    inst_path = _gen_file(tmp_path)
    rc = main(["decompose", "--instance", str(inst_path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["whitney"]["violations"] == []
    assert out["classified"]["violations"] == []
    assert out["principal"]["violations"] == []
    assert out["violations"] == []
    assert len(out["whitney"]["layers"]) >= 1
    # the audit verify runs, family by family
    inst = Instance.from_json(inst_path.read_text())
    audit = audit_decomposition(instance_f(inst), inst.sigma, inst.omega, inst.tau)
    assert out["checks_run"] == audit.checks_run


# sha256 of `twoweight decompose` stdout: entry order, corridor leaves and the
# alpha/beta values byte for byte
DECOMPOSE_PINS = [
    (dict(d=1, depth=8), 0, "be9d68a00e6da1ee627679e0da69e19d7507589b18007ca6575f5c1f271861b8"),
    (
        dict(d=2, depth=4, sigma="spikes", tau="sparse"),
        0,
        "80abcd1adf02c785ee32396a7cf5310510d78d2e853cee01c7ba36ca55b96652",
    ),
]


@pytest.mark.parametrize("spec,seed,digest", DECOMPOSE_PINS, ids=["d1D8", "d2D4-spikes"])
def test_cli_decompose_output_pinned(tmp_path, capsys, spec, seed, digest):
    path = tmp_path / "inst.json"
    path.write_text(gen_instance(GeneratorConfig(**spec), seed).to_json() + "\n")
    assert main(["decompose", "--instance", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_decompose_runs_the_max_principle_audit(tmp_path, capsys, monkeypatch):
    # layer thresholds halved: the layers, the classification and the
    # principal forest stay clean, and only the maximum principle fires
    real = prooflab.whitney_layers

    def halved(grid, v, rho):
        deco = real(grid, v, rho)
        layers = [
            WhitneyLayer(lay.k, lay.threshold * 0.5, lay.cubes, lay.clamped, lay.saturated)
            for lay in deco.layers
        ]
        return WhitneyDecomposition(deco.grid, deco.v, deco.rho, deco.base, layers)

    inst_path = tmp_path / "spiky.json"
    argv = ["gen", "--depth", "6", "--sigma", "spikes", "--tau", "sparse", "--seed", "1"]
    assert main(argv + ["--out", str(inst_path)]) == 0
    monkeypatch.setattr(prooflab, "whitney_layers", halved)
    assert main(["decompose", "--instance", str(inst_path)]) == 1
    out = json.loads(capsys.readouterr().out)
    for stage in ("whitney", "classified", "principal"):
        assert out[stage]["violations"] == []
    assert out["violations"] and all(v.startswith("max principle") for v in out["violations"])
    assert out["checks_run"]["max_principle"] > 0


def test_cli_verify(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    rc = main([
        "verify", "--d", "1", "--depth", "3", "--n", "2", "--seed", "3",
        "--threads", "2", "--out", str(out_dir),
    ])
    summary = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert summary["ok"] is True and summary["n_rows"] == 2
    assert (out_dir / "rows.jsonl").exists()
    assert (out_dir / "aggregates.csv").exists()


def test_cli_verify_near_p_one(capsys):
    # at p = q = 1.001 (p' = 1001) the testing sweeps scale their powers, so
    # no constant overflows to inf and fails testing <= norm
    rc = main(["verify", "--n", "3", "--depth", "4", "--p", "1.001", "--q", "1.001"])
    summary = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert summary["ok"] is True and summary["n_violations"] == 0 and summary["n_rows"] == 3


def _fresh_run(argv):
    """(exit code, stdout) of ``twoweight`` in a process of its own."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "twoweight.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return done.returncode, done.stdout


def test_cli_builds_its_parser_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for seed in range(3):
            assert main(["gen", "--seed", str(seed)]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert [json.loads(line)["seed"] for line in capsys.readouterr().out.splitlines()] == [0, 1, 2]


def test_cli_repeated_calls_match_fresh_runs(capsys):
    # one parser per process: every call parses a fresh namespace, so repeated
    # in-process calls print what separate processes print, and a flag given
    # in one call is not there in the next
    frac = ["--tau", "fractional", "--d", "1", "--depth", "3", "--n", "1", "--seed", "5"]
    calls = [
        ["verify", "--d", "1", "--depth", "3", "--n", "2", "--seed", "3"],
        ["gen", "--d", "2", "--depth", "2", "--seed", "4"],
        ["verify", *frac, "--alpha", "0.5", "--p", "1.5", "--q", "3"],
        ["verify", "--d", "2", "--depth", "2", "--n", "1", "--seed", "3", "--rho", "2"],
    ]
    for argv in calls:
        rc = main(argv)
        assert (rc, capsys.readouterr().out) == _fresh_run(argv)
    # without --alpha, fractional tau is a configuration error, as in a fresh run
    assert main(["verify", *frac]) == 2
    assert "fractional tau needs 0 < alpha < d" in capsys.readouterr().err
    assert _fresh_run(["verify", *frac])[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus"])
    assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    assert main(calls[1]) == 0 and json.loads(capsys.readouterr().out)["seed"] == 4


@pytest.mark.parametrize(
    "command,flag,value",
    [("verify", "--n", "-1"), ("verify", "--eta", "2"), ("verify", "--rho", "0"),
     ("verify", "--ratio-cap", "-1"), ("verify", "--threads", "0"),
     ("decompose", "--eta", "0"), ("decompose", "--rho", "0"),
     ("gen", "--seed", "-1"), ("verify", "--seed", "-1")],
)
def test_cli_out_of_range_flag_exit_code(tmp_path, capsys, command, flag, value):
    argv = [command, flag, value]
    if command == "decompose":
        argv += ["--instance", str(_gen_file(tmp_path))]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["testing", "norm"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_tol_out_of_range_exit_code(tmp_path, capsys, command, tol):
    # both commands check at the row's fixed slack: a --tol, in range or not,
    # is an unknown flag and still exits 2
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", str(_gen_file(tmp_path)), "--tol", tol])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_decompose_negative_f_exit_code(tmp_path, capsys):
    inst_path = _gen_file(tmp_path)
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps([1, -1, 2, 0, 1, 1, 0, 3]))
    assert main(["decompose", "--instance", str(inst_path), "--f", str(f_path)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""
    # the operator itself takes signed f
    assert main(["apply", "--instance", str(inst_path), "--f", str(f_path)]) == 0


def test_cli_config_error_exit_code(capsys):
    assert main(["gen", "--sigma", "gaussian"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_missing_instance_file(tmp_path, capsys):
    assert main(["norm", "--instance", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_grid_over_budget_exit_code(capsys):
    assert main(["gen", "--depth", "30"]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_instance_missing_key_exit_code(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"d": 1}))
    assert main(["testing", "--instance", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["apply", "decompose"])
def test_cli_negative_instance_seed_exit_code(tmp_path, capsys, command):
    # the instance's seed draws the attached test function
    data = json.loads(_gen_file(tmp_path).read_text())
    data["seed"] = -5
    path = tmp_path / "negative_seed.json"
    path.write_text(json.dumps(data))
    assert main([command, "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""
    with pytest.raises(ConfigError):
        Instance.from_json_dict(data)


@pytest.mark.parametrize("key", ["d", "depth", "seed"])
@pytest.mark.parametrize("value", [2.7, 1.0, True, "3", None])
def test_instance_non_integer_field_is_config_error(key, value):
    data = gen_instance(GeneratorConfig(), seed=4).to_json_dict()
    data[key] = value
    with pytest.raises(ConfigError, match=f"{key} must be an integer"):
        Instance.from_json_dict(data)


@pytest.mark.parametrize("key", ["p", "q", "tau.alpha", "sigma", "omega", "tau.values"])
@pytest.mark.parametrize("value", ["2", True])
def test_instance_non_number_field_is_config_error(key, value):
    # float() and np.array(..., dtype=float64) would read both as numbers
    data = gen_instance(GeneratorConfig(), seed=4).to_json_dict()
    if key == "tau.alpha":
        data["tau"] = {"rule": "fractional", "alpha": value}
    elif key == "tau.values":
        data["tau"]["values"][0] = value
    elif key in ("sigma", "omega"):
        data[key][0] = value
    else:
        data[key] = value
    with pytest.raises(ConfigError, match=f"{key} must be"):
        Instance.from_json_dict(data)
    if key == "tau.alpha":
        data["tau"]["alpha"] = 0.5
        assert Instance.from_json_dict(data).tau.rule == "fractional(alpha=0.5)"


def test_instance_out_of_range_number_is_config_error():
    data = gen_instance(GeneratorConfig(), seed=4).to_json_dict()
    data["sigma"][0] = 10**400  # a JSON integer no float holds
    with pytest.raises(ConfigError):
        Instance.from_json_dict(data)


@pytest.mark.parametrize("command", ["apply", "decompose"])
@pytest.mark.parametrize("seed", [2.7, True])
def test_cli_non_integer_instance_seed_exit_code(tmp_path, capsys, command, seed):
    # truncating the seed would attach another seed's test function
    data = json.loads(_gen_file(tmp_path).read_text())
    data["seed"] = seed
    path = tmp_path / "float_seed.json"
    path.write_text(json.dumps(data))
    assert main([command, "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and captured.out == ""


def test_cli_instance_not_json_exit_code(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("this is not json {")
    assert main(["testing", "--instance", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_instance_wrong_shape_is_config_error():
    data = gen_instance(GeneratorConfig(), seed=4).to_json_dict()
    data["sigma"] = data["sigma"][:-1]
    with pytest.raises(ConfigError):
        Instance.from_json_dict(data)
    data = gen_instance(GeneratorConfig(), seed=4).to_json_dict()
    data["tau"] = [1.0, 2.0]
    with pytest.raises(ConfigError):
        Instance.from_json_dict(data)


# -- names the benchmark traces -------------------------------------------------------


def _perfbench_spans():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps these functions and methods by name; a missing one
    # makes a traced benchmark run fail before it measures anything
    spans = _perfbench_spans()
    for span_name, mod_name, attr, _ in spans.TARGETS:
        holder = importlib.import_module(mod_name)
        *owner, name = attr.split(".")
        for part in owner:
            holder = getattr(holder, part)
        fn = vars(holder).get(name)
        assert callable(fn), f"{span_name}: {mod_name}.{attr} is missing"


def test_benchmark_span_meters_read_real_results():
    # a meter that no longer reads its function's result fails only in a traced run
    meters = {name: meter for name, _, _, meter in _perfbench_spans().TARGETS}
    inst = gen_instance(GeneratorConfig(d=2, depth=4, sigma="spikes", tau="sparse"), 0)
    f = instance_f(inst)
    deco = prooflab.whitney_layers(inst.grid, apply_T(inst.tau, Measure.product(f, inst.sigma)))
    cls = prooflab.classify_cubes(prooflab.corridor_sets(deco), f, inst.sigma, inst.omega, inst.tau)
    n_cubes = sum(len(lay.cubes) for lay in deco.layers)
    assert meters["prooflab.classify_cubes"]((), {}, cls) == n_cubes > 0
    est = carleson_embedding_constant(inst.tau, 2.0)
    assert meters["extremal.cet"]((), {}, est) == est.iterations > 0
    est = exact_norm_22(inst.tau, inst.sigma, inst.omega)
    assert meters["extremal.exact"]((), {}, est) == est.iterations > 0
