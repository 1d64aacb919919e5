"""Instance generation, canonical serialization, suites, the CLI, and the
package names the benchmark traces."""

import concurrent.futures
import importlib
import importlib.util
import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from twoweight import extremal, harness
from twoweight.cli import main
from twoweight.extremal import (
    AscentOptions,
    carleson_embedding_constant,
    exact_norm_22,
    strong_norm_lower,
)
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

FAST_ASCENT = AscentOptions(restarts=4, max_iter=60, seed=0)


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
        ascent=FAST_ASCENT,
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
        ascent=FAST_ASCENT,
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
        ascent=FAST_ASCENT,
    )
    report = run_suite(cfg)
    assert report.ok and len(report.rows) == 6
    for row in report.rows:
        assert "c3" not in row
        assert row["strong_kind"] == "exact"
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
    report = run_suite(SuiteConfig(generators=gens, n=3, seed=4, ascent=FAST_ASCENT))
    assert report.ok and len(report.rows) == 6
    assert len(calls) == 6
    for row in report.rows:
        assert row["c3"] == row["strong"] and row["strong_kind"] == "exact"


def test_suite_flags_testing_above_certified_norm(monkeypatch):
    def shrunk(*args, **kwargs):
        est = strong_norm_lower(*args, **kwargs)
        est.upper = 0.5 * est.value
        return est

    monkeypatch.setattr(harness, "strong_norm_lower", shrunk)
    cfg = SuiteConfig(generators=[GeneratorConfig(d=1, depth=3, p=3.0, q=3.0)], n=1, seed=3)
    report = run_suite(cfg)
    assert not report.ok
    assert {v["check"] for v in report.violations} == {"testing-le-norm"}


def test_suite_rows_carry_solver_iterations():
    gens = [GeneratorConfig(d=1, depth=3, p=1.5, q=3.0), GeneratorConfig(d=1, depth=3)]
    report = run_suite(SuiteConfig(generators=gens, n=1, seed=5, ascent=FAST_ASCENT))
    seeds = np.random.SeedSequence(5).generate_state(2, dtype=np.uint64)
    for row, cfg, seed in zip(report.rows, gens, seeds):
        inst = gen_instance(cfg, int(seed))
        cet = carleson_embedding_constant(inst.tau, inst.exps.p)
        if inst.exps.is_l2:
            strong = exact_norm_22(inst.tau, inst.sigma, inst.omega)
        else:
            strong = strong_norm_lower(inst.tau, inst.sigma, inst.omega, inst.exps, FAST_ASCENT)
        assert (row["cet"], row["cet_upper"], row["cet_iterations"]) == (
            cet.value, cet.upper, cet.iterations
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
        dict(m=0),
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
    ["not json [", json.dumps(["a"] + [1.0] * 7), "[NaN, 1, 1, 1, 1, 1, 1, 1]", None],
    ids=["not-json", "not-numeric", "not-finite", "directory"],
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
     ("norm", "--rho"), ("decompose", "--threads"), ("verify", "--tol")],
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
    for key in ("local", "local_dual", "global", "global_dual", "carleson", "cet"):
        assert key in out
    assert out["carleson"] ** 0.5 <= out["cet"] * (1 + 1e-8)


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
    assert len(out["whitney"]["layers"]) >= 1


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


@pytest.mark.parametrize(
    "command,flag,value",
    [("verify", "--n", "-1"), ("verify", "--eta", "2"), ("verify", "--rho", "0"),
     ("verify", "--ratio-cap", "-1"), ("verify", "--threads", "0"),
     ("decompose", "--eta", "0"), ("decompose", "--rho", "0"),
     ("gen", "--seed", "-1"), ("verify", "--seed", "-1"), ("norm", "--seed", "-1")],
)
def test_cli_out_of_range_flag_exit_code(tmp_path, capsys, command, flag, value):
    argv = [command, flag, value]
    if command in ("decompose", "norm"):
        argv += ["--instance", str(_gen_file(tmp_path))]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["testing", "norm"])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_cli_tol_out_of_range_exit_code(tmp_path, capsys, command, tol):
    assert main([command, "--instance", str(_gen_file(tmp_path)), "--tol", tol]) == 2
    assert "config error" in capsys.readouterr().err


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


def test_benchmark_span_targets_resolve():
    # perfbench/spans.py wraps these functions and methods by name; a missing one
    # makes a traced benchmark run fail before it measures anything
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("_perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for span_name, mod_name, attr, _ in spans.TARGETS:
        holder = importlib.import_module(mod_name)
        *owner, name = attr.split(".")
        for part in owner:
            holder = getattr(holder, part)
        fn = vars(holder).get(name)
        assert callable(fn), f"{span_name}: {mod_name}.{attr} is missing"
