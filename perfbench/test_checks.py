"""The benchmark's checks: they accept the program's outputs and reject perturbed ones.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from reference import CheckFailed, Tree  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

from twoweight import grid, harness, operators, prooflab  # noqa: E402
from twoweight.grid import CubeRef  # noqa: E402


def _instance(**spec):
    seed = spec.pop("seed", 5)
    return harness.gen_instance(harness.GeneratorConfig(**spec), seed)


# -- the reference computations agree with the program --------------------------


@pytest.mark.parametrize("d,depth", [(1, 6), (2, 3), (3, 2)])
def test_reference_matches_program(d, depth):
    inst = _instance(d=d, depth=depth, omega="spikes")
    tree = Tree(d, depth)
    f = harness.instance_f(inst)
    sig, om, tau = inst.sigma.leaf_mass, inst.omega.leaf_mass, inst.tau.tau
    want = operators.apply_T(inst.tau, grid.Measure.product(f, inst.sigma))
    ref.require_allclose("apply_T", want, ref.apply_T(tree, tau, f * sig), 1e-12)
    ref.require_allclose("maximal", operators.maximal(f, inst.sigma), ref.maximal(tree, f, sig), 1e-12)
    from twoweight import constants, extremal

    car, arg = constants.carleson_norm(inst.tau)
    ref.require_close("carleson", car, ref.carleson_norm(tree, tau), 1e-12)
    ref.require_close("carleson at argmax", car, ref.carleson_at(tree, tau, arg.level, arg.coords), 1e-12)
    dense = extremal.dense_norm_22(inst.tau, inst.sigma, inst.omega)
    ref.require_close("dense norm", dense, ref.dense_norm_22(tree, tau, sig, om), 1e-10)


@pytest.mark.parametrize("d,depth", [(1, 7), (2, 3), (3, 2)])
def test_layer_counts_match_program(d, depth):
    for seed in range(4):
        inst = _instance(d=d, depth=depth, sigma="spikes", tau="sparse", seed=seed)
        f = harness.instance_f(inst)
        v = operators.apply_T(inst.tau, grid.Measure.product(f, inst.sigma))
        deco = prooflab.whitney_layers(inst.grid, v)
        tree = Tree(d, depth)
        assert ref.whitney_cube_count(tree, v) == sum(len(lay.cubes) for lay in deco.layers)
        window = (deco.layers[0].k, deco.layers[-1].k, len(deco.layers))
        assert ref.layer_window(v) == window


# -- each check rejects a perturbed output ---------------------------------------


def _perturbed(value, factor=1 + 1e-6):
    return value * factor


def test_verify_rows_check(tmp_path):
    gen = dict(d=1, depth=4, omega="spikes", tau="sparse")
    for p, q in wl.EXPONENT_PAIRS:
        op = wl.verify_op(gen, p, q, 2, 11)
        holder_dir = tmp_path / f"p{p}"
        holder_dir.mkdir()
        wl.OUT_DIR, saved = str(holder_dir), wl.OUT_DIR
        try:
            op.check(op.run())
        finally:
            wl.OUT_DIR = saved
    rows = harness.run_suite(
        harness.SuiteConfig(generators=[harness.GeneratorConfig(**gen)], n=2, seed=11, threads=1)
    ).rows
    wl.check_verify_rows(rows, gen, 2.0, 2.0, 2)

    def bad(key, value):
        changed = [dict(rows[0], **{key: value})] + rows[1:]
        with pytest.raises(CheckFailed):
            wl.check_verify_rows(changed, gen, 2.0, 2.0, 2)

    row = rows[0]
    bad("c3", _perturbed(row["c3"]))
    bad("carleson", _perturbed(row["carleson"]))
    bad("weak", row["strong"] * 1.01)
    bad("cet", row["carleson"] ** 0.5 * 0.99)
    bad("cet", row["carleson"] ** 0.5 * 4.01)
    bad("local", row["c3"] * 1.01)
    with pytest.raises(CheckFailed):
        wl.check_verify_rows(rows[:1], gen, 2.0, 2.0, 2)


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 3.0)])
def test_testing_check(p, q):
    inst = _instance(d=2, depth=3, omega="spikes", p=p, q=q)
    out = wl.TestingMid._run(inst)
    sample = np.arange(inst.grid.n_cubes)
    wl.check_testing(inst, out, sample)

    def bad(**changes):
        rep = dataclasses.replace(out["report"], **changes)
        with pytest.raises(CheckFailed):
            wl.check_testing(inst, dict(out, report=rep), sample)

    rep = out["report"]
    bad(loc=_perturbed(rep.loc, 1 + 1e-8))
    bad(loc_dual=_perturbed(rep.loc_dual, 1 - 1e-8))
    bad(glo=_perturbed(rep.glo, 1 + 1e-8))
    bad(glo_dual=_perturbed(rep.glo_dual, 1 - 1e-8))
    other = CubeRef(3, (0, 0)) if rep.loc_argmax != CubeRef(3, (0, 0)) else CubeRef(3, (1, 1))
    bad(loc_argmax=other)
    # the runner-up cube with its own value passes the argmax check, not the sup
    tree = Tree(2, 3)
    pc, qc = ref.conjugate(p), ref.conjugate(q)
    sig, om = inst.sigma.leaf_mass, inst.omega.leaf_mass
    values = sorted(
        (ref.local_testing_at(tree, inst.tau.tau, sig, om, pc, qc, *wl._cube_of(tree, i)), i)
        for i in range(inst.grid.n_cubes)
    )
    second, index = values[-2]
    assert second < rep.loc * (1 - 1e-9)
    lev, coords = wl._cube_of(tree, index)
    bad(loc=second, loc_argmax=CubeRef(lev, coords))
    value, arg = out["carleson"]
    with pytest.raises(CheckFailed):
        wl.check_testing(inst, dict(out, carleson=(_perturbed(value), arg)), sample)
    wcar = out["weighted_carleson"]
    with pytest.raises(CheckFailed):
        wl.check_testing(inst, dict(out, weighted_carleson=wcar._replace(value=_perturbed(wcar.value))), sample)
    if "c12" in out:
        c1, c2 = out["c12"]
        with pytest.raises(CheckFailed):
            wl.check_testing(inst, dict(out, c12=(_perturbed(c1), c2)), sample)
        with pytest.raises(CheckFailed):
            wl.check_testing(inst, dict(out, c12=(c1, _perturbed(c2))), sample)


def test_audit_check():
    inst = _instance(d=2, depth=3, sigma="spikes", tau="sparse", seed=0)
    rep = wl.AuditMid._run(inst)
    f = harness.instance_f(inst)
    window = ref.layer_window(ref.apply_T(Tree(2, 3), inst.tau.tau, f * inst.sigma.leaf_mass))
    wl.check_audit(rep, window)
    for changes in (
        dict(violations=["a violation"]),
        dict(k_lo=rep.k_lo - 1),
        dict(k_hi=rep.k_hi + 1),
        dict(n_layers=rep.n_layers - 1),
        dict(principal_count=0),
    ):
        with pytest.raises(CheckFailed):
            wl.check_audit(dataclasses.replace(rep, **changes), window)
    with pytest.raises(CheckFailed):
        wl.AuditMid().finish({"classes_23": 0})


def test_linear_check():
    spec = dict(d=2, depth=5, tau="fractional", alpha=1.0)
    out = wl.LinearLarge._run(spec, 3)
    wl.check_linear(out)

    def bad(**changes):
        with pytest.raises(CheckFailed):
            wl.check_linear(dict(out, **changes))

    tf = out["Tf"].copy()
    tf[7] *= 1 + 1e-9
    bad(Tf=tf)
    mx = out["maximal"].copy()
    mx[3] *= 1 - 1e-9
    bad(maximal=mx)
    est = out["exact"]
    bad(exact=dataclasses.replace(est, value=_perturbed(est.value, 1 + 1e-7)))
    bad(exact=dataclasses.replace(est, kind="lower-bound"))
    g = est.extremal_g.copy()
    g[::2] *= 1.5
    bad(exact=dataclasses.replace(est, extremal_g=g))
    value, arg = out["carleson"]
    bad(carleson=(_perturbed(value), arg))
    with pytest.raises(CheckFailed, match="Schur"):
        wl.check_linear(dict(out, exact=dataclasses.replace(est, value=est.value * 1e3)))


# -- the tracer ------------------------------------------------------------------


def test_tracer_records_no_spans_while_paused():
    inst = _instance(d=1, depth=4)
    orig = operators.apply_T
    tracer = Tracer()
    tracer.install()
    try:
        operators.apply_T(inst.tau, inst.sigma)
        with tracer.pause():
            operators.apply_T(inst.tau, inst.sigma)
    finally:
        tracer.uninstall()
    assert operators.apply_T is orig
    assert tracer.table()["operators.apply_T"]["calls"] == 1
    layers = tracer.per_layer()
    assert set(layers) == set(PER_LAYER)
    assert layers["operators.apply_T.calls"]["value"] == 1
