"""Norm estimation: exact L2 routine, dense oracle, certified power solver, embedding recursion, ascent lower bounds."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from twoweight import _kernels, extremal
from twoweight.extremal import (
    _cet_scores,
    _indicator_rows,
    _pool_images,
    _project_lp_sphere,
    _seed_pool,
    _strong_ascent,
    _strong_scores,
    _top_cubes,
    _weak_bound,
    _weak_scan,
    carleson_embedding_constant,
    dense_norm_22,
    exact_norm_22,
    norm_bounds,
    strong_norm_lower,
    weak_norm_lower,
)
from twoweight.constants import carleson_norm
from twoweight.grid import Exponents, GridSizeError, Measure, build_grid, lp_norm
from twoweight.harness import GeneratorConfig, gen_instance
from twoweight.operators import CubeWeights, apply_T, bilinear_form

from test_acceptance import SUITE_GENERATORS
from test_operators import _volumes


def _random_instance(d, depth, seed, tau_style="random"):
    g = build_grid(d, depth)
    rng = np.random.default_rng(seed)
    if tau_style == "fractional":
        tau = CubeWeights.fractional(g, 0.5 * g.d)
    elif tau_style == "sparse":
        t = rng.exponential(size=g.n_cubes)
        t[rng.random(g.n_cubes) < 0.7] = 0.0
        tau = CubeWeights(g, t)
    else:
        tau = CubeWeights(g, rng.exponential(size=g.n_cubes))
    sigma = Measure(g, rng.exponential(size=g.n_leaves))
    omega = Measure(g, rng.exponential(size=g.n_leaves))
    return g, tau, sigma, omega


# -- exact L2 norm ------------------------------------------------------------


def _oracle_instance(d, depth, style):
    """A random instance, or a generator's: zero-mass leaves on both sides
    (``spikes`` with ``allow_zero_sigma``) or the rank-one ``root_only`` tau."""
    seed = depth * 7 + d
    if style == "zero-mass":
        cfg = GeneratorConfig(d=d, depth=depth, sigma="spikes", omega="spikes", allow_zero_sigma=True)
    elif style == "root_only":
        cfg = GeneratorConfig(d=d, depth=depth, tau="root_only")
    else:
        return _random_instance(d, depth, seed=seed, tau_style=style)[1:]
    inst = gen_instance(cfg, seed)
    return inst.tau, inst.sigma, inst.omega


@pytest.mark.parametrize("d,depth,style", [
    (1, 2, "random"), (1, 4, "random"), (1, 5, "sparse"),
    (2, 2, "random"), (2, 3, "fractional"),
    (1, 6, "zero-mass"), (2, 3, "zero-mass"), (1, 5, "root_only"), (2, 2, "root_only"),
])
def test_exact_matches_dense_oracle(d, depth, style):
    tau, sigma, omega = _oracle_instance(d, depth, style)
    est = exact_norm_22(tau, sigma, omega)
    assert est.kind == "exact"
    assert est.value == pytest.approx(dense_norm_22(tau, sigma, omega), rel=1e-12)


def test_exact_drops_a_dependent_step(monkeypatch):
    # a floor no Gram matrix passes drops p at every step: the two-term step
    # (steepest ascent with the best step size) reaches the same value
    for style in ("random", "zero-mass"):
        tau, sigma, omega = _oracle_instance(1, 6, style)
        full = exact_norm_22(tau, sigma, omega)
        monkeypatch.setattr(extremal, "_GRAM_FLOOR", 1.0)
        est = exact_norm_22(tau, sigma, omega)
        monkeypatch.undo()
        assert est.kind == "exact"
        assert est.iterations > full.iterations
        assert est.value == pytest.approx(dense_norm_22(tau, sigma, omega), rel=1e-12)


def test_exact_history_monotone(monkeypatch):
    # capping the iteration at k = 1, 2, ... reads the value after each step
    _, tau, sigma, omega = _random_instance(1, 5, seed=1)
    est = exact_norm_22(tau, sigma, omega)
    history = []
    for k in range(1, est.iterations + 1):
        monkeypatch.setattr(extremal, "_POWER_MAX_ITER", k)
        history.append(exact_norm_22(tau, sigma, omega).value)
    h = np.asarray(history)
    assert h.size > 1
    assert np.all(np.diff(h) >= -1e-13 * h[:-1])
    assert h[-1] == est.value


def test_exact_extremal_pair_attains_value():
    g, tau, sigma, omega = _random_instance(1, 4, seed=2)
    est = exact_norm_22(tau, sigma, omega)
    # the returned pair is unit-normalized and reproduces the value as a form
    assert lp_norm(est.extremal_f, sigma, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert lp_norm(est.extremal_g, omega, 2.0) == pytest.approx(1.0, rel=1e-12)
    form = bilinear_form(tau, est.extremal_f, sigma, est.extremal_g, omega)
    assert form == pytest.approx(est.value, rel=1e-10)
    # and as an image norm
    image = apply_T(tau, Measure.product(est.extremal_f, sigma))
    assert lp_norm(image, omega, 2.0) == pytest.approx(est.value, rel=1e-10)


def test_exact_form_maximality():
    # no random unit pair beats the top singular pair
    g, tau, sigma, omega = _random_instance(1, 4, seed=3)
    est = exact_norm_22(tau, sigma, omega)
    rng = np.random.default_rng(4)
    for _ in range(25):
        f = rng.standard_normal(g.n_leaves)
        h = rng.standard_normal(g.n_leaves)
        f /= lp_norm(f, sigma, 2.0)
        h /= lp_norm(h, omega, 2.0)
        assert bilinear_form(tau, f, sigma, h, omega) <= est.value * (1 + 1e-10)


def test_exact_zero_kernel():
    g = build_grid(1, 2)
    est = exact_norm_22(CubeWeights(g, np.zeros(g.n_cubes)), Measure.lebesgue(g), Measure.lebesgue(g))
    assert est.value == 0.0 and est.kind == "exact" and not est.flagged


def test_exact_zero_measures():
    g = build_grid(1, 2)
    tau = CubeWeights(g, np.ones(g.n_cubes))
    dead = Measure(g, np.zeros(g.n_leaves))
    est = exact_norm_22(tau, dead, Measure.lebesgue(g))
    assert est.value == 0.0 and est.kind == "exact"


def _exact_norm_22_reference(tau, sigma, omega, apply_t):
    """The LOBPCG of ``exact_norm_22`` with fresh arrays at every step, T being
    ``apply_t(leaf_masses)``: the same arithmetic in the same order, so the
    same bits. x, r and their images are kept unnormalized, Ax.Ar and Ax.Ap
    come from A^T(Ax) = r + s^2 x, and the Ritz coefficients apply to the
    vectors as kept."""
    grid = tau.grid
    sq_s, sq_w = np.sqrt(sigma.leaf_mass), np.sqrt(omega.leaf_mass)
    zero = np.zeros(grid.n_leaves)

    def fwd(v):
        return sq_s * apply_t(sq_w * v)

    def adj(u):
        return sq_w * apply_t(sq_s * u)

    x = sq_w.copy()
    if x @ x == 0.0 or sq_s @ sq_s == 0.0:
        return 0.0, zero, zero, 0, 0.0
    ax = fwd(x)
    if ax @ ax == 0.0:
        return 0.0, zero, zero, 1, 0.0
    p = ap = None
    for iterations in range(1, extremal._POWER_MAX_ITER + 1):
        nx, na = math.sqrt(x @ x), math.sqrt(ax @ ax)
        s = na / nx
        r = adj(ax) - (s * s) * x
        residual = math.sqrt(r @ r) / na
        if residual <= extremal._POWER_RESIDUAL_TOL * s or iterations == extremal._POWER_MAX_ITER:
            break
        ar = fwd(r)
        c = _ritz_reference(s * s, [x, r, p], [ax, ar, ap])
        if len(c) == 2:
            p, ap = c[1] * r, c[1] * ar
        else:
            p, ap = c[2] * p + c[1] * r, c[2] * ap + c[1] * ar
        x, ax = c[0] * x + p, c[0] * ax + ap
    f = np.where(sq_s > 0, (ax / na) / np.where(sq_s > 0, sq_s, 1.0), 0.0)
    g = np.where(sq_w > 0, (x / nx) / np.where(sq_w > 0, sq_w, 1.0), 0.0)
    return s, f, g, iterations, residual


def _ritz_reference(s2, vecs, imgs):
    """Top Ritz coefficients over [x, r] or [x, r, p] (p is None on the first
    step, and dropped where the scaled basis Gram matrix is near-singular);
    Ax.Ar and Ax.Ap are r.r + s2 x.r and r.p + s2 x.p."""
    if vecs[2] is None:
        vecs, imgs = vecs[:2], imgs[:2]
    k = len(vecs)
    basis = np.array([[vecs[i] @ vecs[j] for j in range(k)] for i in range(k)])
    images = np.array([[imgs[i] @ imgs[j] for j in range(k)] for i in range(k)])
    for j in range(1, k):
        images[0, j] = images[j, 0] = vecs[1] @ vecs[j] + s2 * (vecs[0] @ vecs[j])
    scale = 1.0 / np.sqrt(np.diag(basis))
    basis = basis * np.outer(scale, scale)
    images = images * np.outer(scale, scale)
    lam, vec = np.linalg.eigh(basis)
    if k == 3 and not lam[0] > extremal._GRAM_FLOOR:
        return _ritz_reference(s2, vecs[:2] + [None], imgs[:2] + [None])
    white = vec / np.sqrt(lam)
    c = scale * (white @ np.linalg.eigh(white.T @ images @ white)[1][:, -1])
    return -c if c[0] < 0.0 else c


def _library_t(tau):
    """T through the library's in-place application, as ``exact_norm_22`` calls it."""
    work = np.empty(tau.grid.n_cubes)
    return lambda leafmass: extremal._t_leafmass(tau.grid, tau.coef, leafmass, work)


def _exact_22_corpus():
    for i, cfg in enumerate(SUITE_GENERATORS):
        for seed in range(2):
            inst = gen_instance(cfg, 900 + 10 * i + seed)
            yield inst.tau, inst.sigma, inst.omega
    inst = gen_instance(GeneratorConfig(d=1, depth=14), 7)
    yield inst.tau, inst.sigma, inst.omega


def test_exact_reuses_the_last_adjoint_image(monkeypatch):
    # a step makes 2 operator applications, A^T(Ax) and A r, so a solve makes
    # 2 * iterations: the exit residual reads the adjoint image of the last
    # step instead of applying it again, with the bits of the fresh-array
    # reference
    calls = []
    leafmass = extremal._t_leafmass

    def counting(*args):
        calls.append(1)
        return leafmass(*args)

    for tau, sigma, omega in _exact_22_corpus():
        want = _exact_norm_22_reference(tau, sigma, omega, _library_t(tau))
        monkeypatch.setattr(extremal, "_t_leafmass", counting)
        calls.clear()
        est = exact_norm_22(tau, sigma, omega)
        monkeypatch.setattr(extremal, "_t_leafmass", leafmass)
        # the rank-one root_only kernel maps every start vector onto its
        # singular vector, so its first step stops; every other input
        # reuses the image of a step after the first
        rank_one = np.count_nonzero(tau.tau) == 1
        assert (est.iterations == 1) if rank_one else (est.iterations >= 2)
        assert len(calls) == 2 * est.iterations
        got = (est.value, est.extremal_f, est.extremal_g, est.iterations, est.residual)
        assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]

    # the zero kernel: one application finds the zero image and returns
    g = build_grid(1, 3)
    tau, lebesgue = CubeWeights(g, np.zeros(g.n_cubes)), Measure.lebesgue(g)
    want = _exact_norm_22_reference(tau, lebesgue, lebesgue, _library_t(tau))
    monkeypatch.setattr(extremal, "_t_leafmass", counting)
    calls.clear()
    est = exact_norm_22(tau, lebesgue, lebesgue)
    assert len(calls) == est.iterations == 1
    got = (est.value, est.extremal_f, est.extremal_g, est.iterations, est.residual)
    assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]


def test_exact_step_makes_three_passes(monkeypatch):
    # a full step passes over the leaf vectors three times (residual, Gram
    # dots, update); the set-up makes two passes (square roots, then Ax) and
    # the exit two (the last residual, then the extremals)
    passes = []
    chunked = extremal._chunked

    def counting(pool, chunks, task):
        passes.append(len(chunks))
        return chunked(pool, chunks, task)

    monkeypatch.setattr(extremal, "_chunked", counting)
    corpus = [*_exact_22_corpus(), _oracle_instance(2, 8, "zero-mass")]
    for tau, sigma, omega in corpus:
        passes.clear()
        est = exact_norm_22(tau, sigma, omega)
        assert len(passes) == 3 * (est.iterations - 1) + 4
    # the last grid's passes run over its two chunks
    assert passes == [2] * len(passes)

    # the zero kernel stops after the set-up, and zero measures after its first pass
    g = build_grid(1, 3)
    lebesgue = Measure.lebesgue(g)
    for tau, sigma, want in [
        (CubeWeights(g, np.zeros(g.n_cubes)), lebesgue, 2),
        (CubeWeights(g, np.ones(g.n_cubes)), Measure(g, np.zeros(g.n_leaves)), 1),
    ]:
        passes.clear()
        assert exact_norm_22(tau, sigma, lebesgue).value == 0.0
        assert len(passes) == want


# grids of several chunks, the first with strided scans on every large
# level; the last two with measures that vanish on 7/8 of the leaves
_SPIKES = dict(sigma="spikes", omega="spikes", allow_zero_sigma=True)


@pytest.mark.parametrize("cfg", [
    dict(d=1, depth=17), dict(d=2, depth=8, sigma="spikes"),
    dict(d=1, depth=17, **_SPIKES), dict(d=2, depth=8, **_SPIKES),
])
def test_exact_bits_do_not_depend_on_the_threads(kernel_threads, cfg):
    # inline, and with the chunk list's halves and the scans' half-trees on
    # two threads: the chunks' partial dots are summed in chunk order either
    # way, so the solve is the same bit for bit
    inst = gen_instance(GeneratorConfig(**cfg), 3)
    tau, sigma, omega = inst.tau, inst.sigma, inst.omega
    assert inst.grid.n_leaves >= 2 * extremal._CHUNK

    def solve():
        est = exact_norm_22(tau, sigma, omega)
        assert est.kind == "exact" and est.iterations > 2
        # the chunked passes go through on_halves, with or without the pool
        assert kernel_threads.calls
        return est.value, est.extremal_f, est.extremal_g, est.iterations, est.residual

    s, f, g, _, residual = kernel_threads.assert_split_matches_inline(solve)
    # the pair is 0 off the supports and satisfies both singular-pair
    # equations, recomputed with fresh arrays, to the residual it claims
    assert np.all(f[sigma.leaf_mass == 0] == 0) and np.all(g[omega.leaf_mass == 0] == 0)
    fwd = apply_T(tau, Measure.product(g, omega)) - s * f
    adj = apply_T(tau, Measure.product(f, sigma)) - s * g
    pair = max(lp_norm(fwd, sigma, 2.0), lp_norm(adj, omega, 2.0))
    assert pair <= residual + 1e-12 * s, f"pair residual {pair / s:.2e}, claimed {residual / s:.2e}"


@pytest.mark.parametrize(
    "cfg", [dict(d=1, depth=7), dict(d=2, depth=4, sigma="spikes", allow_zero_sigma=True)]
)
def test_norm_stage_bits_do_not_depend_on_the_threads(kernel_threads, cfg):
    # the batched applications of the seed pool, the ascent and the weak
    # bound, with their scans' half-trees and coefficient product on two
    # threads, the strong scores' sweeps, and the embedding recursion's
    # passes on half-trees: the same estimates bit for bit
    inst = gen_instance(GeneratorConfig(**cfg), 4)

    def bounds():
        out = []
        for exps in (Exponents(1.5, 3.0), Exponents(2.0, 2.0)):
            for est in norm_bounds(inst.tau, inst.sigma, inst.omega, exps, inst.seed):
                out.append((est.value, est.kind, est.extremal_f, est.iterations, est.upper))
        for p in (1.5, 3.0):
            est = carleson_embedding_constant(inst.tau, p, inst.sigma)
            # a bracket search, whose last pass keeps the children's sums
            assert est.kind == "exact" and est.iterations > 1
            out.append((est.value, est.extremal_f, est.iterations, est.upper))
        return out

    kernel_threads.assert_split_matches_inline(bounds)


def test_exact_only_when_the_pair_residual_is_small(monkeypatch):
    # stopped after one step, the value is a Rayleigh quotient short of the
    # norm, and its pair residual says so
    inst = gen_instance(
        GeneratorConfig(d=1, depth=12, sigma="uniform", omega="spikes", tau="fractional", alpha=0.3), 5
    )
    full = exact_norm_22(inst.tau, inst.sigma, inst.omega)
    monkeypatch.setattr(extremal, "_POWER_MAX_ITER", 1)
    est = exact_norm_22(inst.tau, inst.sigma, inst.omega)
    assert est.kind == "lower-bound" and est.flagged
    assert est.value < full.value * (1 - 1e-3)
    assert est.residual > extremal._POWER_RESIDUAL_TOL * est.value
    monkeypatch.undo()

    # an "exact" value's pair satisfies both singular-pair equations,
    # T(g omega) = s f in L^2(sigma) and T(f sigma) = s g in L^2(omega), to
    # the residual the label claims, recomputed with fresh arrays
    for tau, sigma, omega in [*_exact_22_corpus(), (inst.tau, inst.sigma, inst.omega)]:
        est = exact_norm_22(tau, sigma, omega)
        s, f, g = est.value, est.extremal_f.copy(), est.extremal_g.copy()
        fwd = apply_T(tau, Measure.product(g, omega)) - s * f
        adj = apply_T(tau, Measure.product(f, sigma)) - s * g
        pair = max(lp_norm(fwd, sigma, 2.0), lp_norm(adj, omega, 2.0))
        assert est.kind == "exact"
        assert pair <= extremal._POWER_RESIDUAL_TOL * s, f"pair residual {pair / s:.2e}"


def test_exact_homogeneous_in_tau():
    g, tau, sigma, omega = _random_instance(1, 3, seed=5)
    v1 = exact_norm_22(tau, sigma, omega).value
    v4 = exact_norm_22(CubeWeights(g, 4.0 * tau.tau), sigma, omega).value
    assert v4 == pytest.approx(4.0 * v1, rel=1e-11)


def test_exact_symmetric_in_measures():
    # the form is symmetric under swapping (sigma, omega) at p = q = 2
    _, tau, sigma, omega = _random_instance(2, 2, seed=6)
    a = exact_norm_22(tau, sigma, omega).value
    b = exact_norm_22(tau, omega, sigma).value
    assert a == pytest.approx(b, rel=1e-11)


def test_dense_oracle_size_guard():
    _, tau, sigma, omega = _random_instance(1, 3, seed=7)
    with pytest.raises(GridSizeError):
        dense_norm_22(tau, sigma, omega, max_leaves=4)


def test_estimate_serialization():
    _, tau, sigma, omega = _random_instance(1, 2, seed=8)
    d = exact_norm_22(tau, sigma, omega).to_dict()
    assert d["kind"] == "exact"
    assert d["upper"] is None
    cet = carleson_embedding_constant(tau, 2.0)
    assert cet.to_dict()["upper"] == cet.upper >= cet.value
    assert isinstance(d["extremal_f"], list)
    assert d["residual"] <= 1e-9 * d["value"]


# -- ascent lower bounds --------------------------------------------------------


def _ascent(tau, sigma, omega, exps, seed):
    """The fixed-point ascent from the seed pool drawn from ``seed``, at any exponents."""
    return _strong_ascent(tau, sigma, omega, exps, _pool_images(tau, sigma, omega, exps, seed))


def test_strong_routes_to_exact_at_l2():
    _, tau, sigma, omega = _random_instance(1, 3, seed=9)
    est = strong_norm_lower(tau, sigma, omega, Exponents(2.0, 2.0))
    assert est.kind == "exact"


def test_ascent_reaches_exact_value_at_l2(monkeypatch):
    monkeypatch.setattr(extremal, "_ASCENT_ROUNDS", 200)
    for seed in range(5):
        _, tau, sigma, omega = _random_instance(1, 4, seed=20 + seed)
        exact = exact_norm_22(tau, sigma, omega).value
        est = _ascent(tau, sigma, omega, Exponents(2.0, 2.0), seed)
        assert est.kind == "lower-bound"
        assert est.value == pytest.approx(exact, rel=1e-8)
        assert est.value <= exact * (1 + 1e-9)


def test_strong_extremal_reproduces_value(monkeypatch):
    monkeypatch.setattr(extremal, "_RESTARTS", 6)
    _, tau, sigma, omega = _random_instance(1, 4, seed=10)
    exps = Exponents(1.5, 2.5)
    est = strong_norm_lower(tau, sigma, omega, exps, 1)
    f = est.extremal_f
    assert np.all(f >= 0)
    assert lp_norm(f, sigma, exps.p) == pytest.approx(1.0, rel=1e-12)
    image = apply_T(tau, Measure.product(f, sigma))
    assert lp_norm(image, omega, exps.q) == pytest.approx(est.value, rel=1e-10)


def test_weak_below_strong_same_pool():
    for seed in range(4):
        _, tau, sigma, omega = _random_instance(1, 4, seed=30 + seed, tau_style="sparse")
        for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0)):
            weak = weak_norm_lower(tau, sigma, omega, exps, seed)
            strong = _ascent(tau, sigma, omega, exps, seed)
            assert weak.value <= strong.value * (1 + 1e-12)


def test_weak_scan_confirmed_by_direct_thresholding(monkeypatch):
    monkeypatch.setattr(extremal, "_RESTARTS", 4)
    g, tau, sigma, omega = _random_instance(1, 4, seed=11)
    exps = Exponents(2.0, 2.0)
    est = weak_norm_lower(tau, sigma, omega, exps, 2)
    h = apply_T(tau, Measure.product(est.extremal_f, sigma))
    best = 0.0
    for v in np.unique(h[h > 0]):
        lam = v * (1 - 2.0**-40)
        mass = float(np.sum(omega.leaf_mass[h > lam]))
        best = max(best, lam * mass ** (1.0 / exps.q))
    assert est.value == pytest.approx(best, rel=1e-9)


def test_weak_zero_operator():
    g = build_grid(1, 2)
    est = weak_norm_lower(
        CubeWeights(g, np.zeros(g.n_cubes)), Measure.lebesgue(g), Measure.lebesgue(g),
        Exponents(2.0, 2.0),
    )
    assert est.value == 0.0


def _weak_every_row(h, w_lm, q):
    """Oracle: (value, row) of the weak scan of every pool row in order, the first maximum kept."""
    best_val, best_row = 0.0, 0
    for r in range(h.shape[0]):
        val = _weak_scan(h[r], w_lm, q)
        if val > best_val:
            best_val, best_row = val, r
    return best_val, best_row


def _assert_weak_matches_every_row(est, f, h, w_lm, q):
    value, row = _weak_every_row(h, w_lm, q)
    assert est.value.hex() == value.hex()
    np.testing.assert_array_equal(est.extremal_f, f[row])
    assert 1 <= est.iterations <= h.shape[0]


@pytest.mark.parametrize("p,q", [(2.0, 2.0), (1.5, 1.5), (3.0, 3.0), (1.5, 3.0), (2.0, 4.0)])
def test_pruned_weak_bound_equals_the_scan_of_every_row(monkeypatch, p, q):
    # the Chebyshev-pruned scan keeps the value bits and the extremal row of the
    # scan of every row, and counts the rows it scans
    scans = []
    scan = extremal._weak_scan

    def counting(*args):
        scans.append(1)
        return scan(*args)

    exps = Exponents(p, q)
    skipped = 0
    for k, cfg in enumerate(SUITE_GENERATORS):
        for seed in range(2):
            inst = gen_instance(cfg, 700 + 10 * k + seed)
            args = (inst.tau, inst.sigma, inst.omega, exps, seed)
            f, h, _ = _pool_images(*args)
            monkeypatch.setattr(extremal, "_weak_scan", counting)
            scans.clear()
            est = weak_norm_lower(*args)
            monkeypatch.setattr(extremal, "_weak_scan", scan)
            assert est.iterations == len(scans)
            skipped += h.shape[0] - est.iterations
            _assert_weak_matches_every_row(est, f, h, inst.omega.leaf_mass, q)
            # the norm stage's one entry point gives these estimates, bit for bit
            strong, weak = norm_bounds(*args)
            alone = _ascent(*args) if p < q else strong_norm_lower(*args)
            assert (weak.value, weak.iterations) == (est.value, est.iterations)
            np.testing.assert_array_equal(weak.extremal_f, est.extremal_f)
            assert (strong.value, strong.iterations) == (alone.value, alone.iterations)
            np.testing.assert_array_equal(strong.extremal_f, alone.extremal_f)
    assert skipped > 0


def test_pruned_weak_bound_ties_go_to_the_first_row(monkeypatch):
    monkeypatch.setattr(extremal, "_RESTARTS", 3)
    g, tau, sigma, omega = _random_instance(1, 5, seed=31)
    exps = Exponents(1.5, 3.0)
    f, h, j = _pool_images(tau, sigma, omega, exps, 4)
    w_lm = omega.leaf_mass
    top = int(np.argmax(j))
    # duplicates of the best row before and after it, and of the others
    for order in ([1, top, 0, top], [top, 2, top, 1], [0, 0, 2, top, 1, top, top]):
        pool = f[order]
        est = _weak_bound(pool, h[order], j[order], w_lm, exps.q)
        _assert_weak_matches_every_row(est, pool, h[order], w_lm, exps.q)
        assert not np.shares_memory(est.extremal_f, pool)


def test_pruned_weak_bound_of_zero_images_is_row_zero():
    g = build_grid(1, 3)
    f = np.arange(4 * g.n_leaves, dtype=float).reshape(4, -1)
    h = np.zeros((4, g.n_leaves))
    w_lm = np.ones(g.n_leaves)
    est = _weak_bound(f, h, np.zeros(4), w_lm, 2.0)
    assert est.value == 0.0 and est.iterations == 1
    np.testing.assert_array_equal(est.extremal_f, f[0])
    # a row with a positive norm can still have weak value 0: its omega-mass
    # sits below the nudge under its largest value, which omega does not see
    h[2, :2] = 1.0, 1e-13
    w_lm[0] = 0.0
    j = extremal._lq_rows(h, w_lm, 2.0)
    assert j[2] > 0 and _weak_scan(h[2], w_lm, 2.0) == 0.0
    est = _weak_bound(f, h, j, w_lm, 2.0)
    assert est.value == 0.0 and est.iterations == 1
    np.testing.assert_array_equal(est.extremal_f, f[0])


# -- Carleson embedding ---------------------------------------------------------


def test_embedding_frozen_volume_weights():
    # tau_Q = |Q| on the depth-2 interval grid: the embedding constant equals
    # (depth+1)^(1/p), attained by the constant function
    g = build_grid(1, 2)
    tau = CubeWeights(g, _volumes(g))
    for p in (1.5, 2.0, 3.0):
        est = carleson_embedding_constant(tau, p)
        assert est.value == pytest.approx(3.0 ** (1.0 / p), rel=1e-9)


def test_embedding_at_least_carleson_root():
    # indicator seeds make the lower bound >= ||tau||_Car^(1/p) by construction
    for seed in range(4):
        g, tau, _, _ = _random_instance(1, 4, seed=40 + seed)
        car, _ = carleson_norm(tau)
        for p in (1.5, 2.0, 3.0):
            est = carleson_embedding_constant(tau, p)
            assert est.value >= car ** (1.0 / p) * (1 - 1e-12)


def test_embedding_upper_bound_conjugate():
    # the embedding theorem: C_p <= p' * ||tau||_Car^(1/p); the ascent result
    # is a lower bound for C_p so it must respect the same ceiling
    for seed in range(4):
        g, tau, _, _ = _random_instance(2, 2, seed=50 + seed)
        car, _ = carleson_norm(tau)
        for p in (1.5, 2.0, 3.0):
            pc = p / (p - 1.0)
            est = carleson_embedding_constant(tau, p)
            assert est.value <= pc * car ** (1.0 / p) * (1 + 1e-9)


def test_embedding_extremal_reproduces_value():
    g, tau, _, _ = _random_instance(1, 4, seed=12)
    p = 2.5
    mu = Measure.lebesgue(g)
    est = carleson_embedding_constant(tau, p)
    f = est.extremal_f
    assert lp_norm(f, mu, p) == pytest.approx(1.0, rel=1e-12)
    # recompute the objective directly from cube averages
    sums = g.subtree_sums(f * mu.leaf_mass)
    avg = np.where(mu.cube_mass > 0, sums / np.where(mu.cube_mass > 0, mu.cube_mass, 1.0), 0.0)
    direct = float(np.sum(tau.tau * avg**p) ** (1.0 / p))
    assert direct == pytest.approx(est.value, rel=1e-10)


def test_embedding_weighted_dead_subtree():
    # cubes with mu(Q) == 0 contribute nothing even when tau lives there
    g = build_grid(1, 2)
    tau = CubeWeights(g, [0.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    mu = Measure(g, [0.0, 0.0, 1.0, 1.0])  # left half dead
    est = carleson_embedding_constant(tau, 2.0, mu=mu)
    assert est.value == 0.0 and est.kind == "exact"


def test_embedding_rejects_bad_exponent():
    g = build_grid(1, 1)
    with pytest.raises(ValueError):
        carleson_embedding_constant(CubeWeights(g, np.ones(3)), 1.0)


# -- the two-candidate ascent that the solvers replaced, kept as an oracle ---------

# initial gradient step, and the step below which a row stops moving
_STEP0 = 0.5
_MIN_STEP = 1e-10


def _ascend(pool, project, objective, proposals, max_iter):
    """Oracle: monotone ascent over restart rows, gradient steps plus fixed-point steps.

    ``objective(f)`` returns the row values and the rows' images, and
    ``proposals(f, images)`` returns (gradient rows, fixed-point rows); the
    images of accepted candidates are kept, so they are never recomputed.
    Per iteration each row tries the projected gradient step at its adaptive
    step size (clipped to the nonnegative cone before ``project``) and the
    projected fixed-point candidate, keeping whichever improves its
    objective. Rejected gradient steps halve the step; the loop exits after a
    few rounds with no improvement anywhere.
    """
    f = project(pool.copy())
    j, img = objective(f)
    step = np.full(f.shape[0], _STEP0)
    iterations = 0
    stall = 0
    for iterations in range(1, max_iter + 1):
        g, fp = proposals(f, img)
        gn = np.linalg.norm(g, axis=1)
        live = (gn > 0) & (step > _MIN_STEP)
        d = np.zeros_like(g)
        d[live] = g[live] / gn[live, None]
        cand1 = project(np.maximum(f + step[:, None] * d, 0.0))
        j1, img1 = objective(cand1)
        cand2 = project(fp)
        j2, img2 = objective(cand2)

        take2 = j2 > j1
        jc = np.where(take2, j2, j1)
        accept = jc > j
        rows = np.flatnonzero(accept)
        f[rows] = np.where(take2[rows, None], cand2[rows], cand1[rows])
        img[rows] = np.where(take2[rows, None], img2[rows], img1[rows])
        j[rows] = jc[rows]
        step[accept & ~take2] *= 1.3
        step[live & (j1 <= j)] *= 0.5
        if not np.any(accept):
            stall += 1
            if stall >= 4:
                break
        else:
            stall = 0
    best = int(np.argmax(j))
    return f[best], float(j[best]), iterations, float(step.max())


def _ascent_strong(tau, sigma, omega, exps, seed, max_iter):
    """Oracle: the two-candidate ascent for the strong norm, from the same seed pool."""
    grid = tau.grid
    q = exps.q
    s_lm = sigma.leaf_mass
    w_lm = omega.leaf_mass

    def objective(f):
        h = extremal._t_leafmass_batch(grid, tau.tau, f * s_lm)
        return np.sum(h**q * w_lm, axis=1) ** (1.0 / q), h

    def proposals(f, h):
        path = extremal._t_leafmass_batch(grid, tau.tau, h ** (q - 1.0) * w_lm)
        return s_lm * path, path ** (1.0 / (exps.p - 1.0))

    pool = _seed_pool(grid, seed, _strong_scores(tau, sigma, omega, exps))
    return _ascend(
        pool, lambda x: _project_lp_sphere(x, s_lm, exps.p), objective, proposals, max_iter
    )[1]


def _ascent_corpus():
    """(tau, sigma, omega) triples: suite generators and exponential measures."""
    for i, cfg in enumerate((
        GeneratorConfig(d=1, depth=4, omega="spikes", tau="sparse"),
        GeneratorConfig(d=1, depth=5, omega="uniform", tau="fractional", alpha=0.5),
        GeneratorConfig(d=2, depth=3, sigma="spikes"),
        GeneratorConfig(d=1, depth=6, tau="root_only"),
    )):
        for seed in range(2):
            inst = gen_instance(cfg, 400 + 10 * i + seed)
            yield inst.tau, inst.sigma, inst.omega
    for d, depth, style in ((1, 5, "random"), (1, 4, "sparse"), (2, 2, "fractional"), (2, 3, "sparse")):
        for seed in range(2):
            yield _random_instance(d, depth, 450 + 10 * depth + seed, tau_style=style)[1:]


@pytest.mark.parametrize("p,q", [(1.5, 3.0), (1.5, 2.5), (3.0, 4.0), (2.0, 2.0), (1.5, 1.5)])
def test_strong_ascent_reaches_two_candidate_oracle(monkeypatch, p, q):
    # dropping the gradient candidate loses nothing: from the same pool and
    # round cap, the fixed-point ascent ends at least as high as the old ascent
    monkeypatch.setattr(extremal, "_RESTARTS", 6)
    monkeypatch.setattr(extremal, "_ASCENT_ROUNDS", 80)
    exps = Exponents(p, q)
    for k, (tau, sigma, omega) in enumerate(_ascent_corpus()):
        oracle = _ascent_strong(tau, sigma, omega, exps, k, 80)
        est = _ascent(tau, sigma, omega, exps, k)
        assert est.value >= oracle * (1 - 1e-12)


def test_strong_ascent_applies_the_operator_twice_per_iteration(monkeypatch):
    # one batched application for the pool, then per iteration one for the
    # fixed-point path and one for the candidates' images
    calls = []
    batch = extremal._t_leafmass_batch

    def counting(*args):
        calls.append(1)
        return batch(*args)

    monkeypatch.setattr(extremal, "_t_leafmass_batch", counting)
    for seed in range(3):
        _, tau, sigma, omega = _random_instance(1, 5, seed=480 + seed)
        calls.clear()
        est = strong_norm_lower(tau, sigma, omega, Exponents(1.5, 3.0), seed)
        assert est.iterations >= 2
        assert len(calls) == 2 * est.iterations + 1


def test_strong_ascent_drops_rows_that_stop_improving(monkeypatch):
    # a row whose candidate fails to raise it is final: the next round leaves it out
    rows = []
    batch = extremal._t_leafmass_batch

    def counting(grid, tau, leafmass):
        rows.append(leafmass.shape[0])
        return batch(grid, tau, leafmass)

    monkeypatch.setattr(extremal, "_t_leafmass_batch", counting)
    for seed in range(3):
        _, tau, sigma, omega = _random_instance(1, 5, seed=480 + seed)
        rows.clear()
        est = strong_norm_lower(tau, sigma, omega, Exponents(1.5, 3.0), seed)
        path, cand = rows[1::2], rows[2::2]
        assert len(rows) == 2 * est.iterations + 1 and path == cand
        assert rows[0] == path[0] == 2 * extremal._RESTARTS
        assert all(a >= b >= 1 for a, b in zip(path, path[1:]))
        assert path[-1] < rows[0]


# -- the embedding recursion against the old ascent, the solver and the dense SVD ---


def _ascent_cet(tau, p, mu, seed, max_iter):
    """Oracle: the projected ascent that estimated the embedding constant from below."""
    grid = tau.grid
    m_lm = mu.leaf_mass
    ok = mu.cube_mass > 0
    inv_mass = np.where(ok, 1.0 / np.where(ok, mu.cube_mass, 1.0), 0.0)

    def objective(f):
        full = np.zeros((f.shape[0], grid.n_cubes))
        full[:, grid.leaf_start :] = f * m_lm
        avg = _kernels.up_sum_batch(full, grid) * inv_mass
        return np.sum(tau.tau * avg**p, axis=1) ** (1.0 / p), avg

    def proposals(f, avg):
        coeff = tau.tau * avg ** (p - 1.0) * inv_mass
        path = _kernels.down_sum_batch(coeff, grid)[:, grid.leaf_start :]
        return m_lm * path, path ** (1.0 / (p - 1.0))

    pool = _seed_pool(grid, seed, _cet_scores(grid, tau.tau, mu.cube_mass, p))
    return _ascend(
        pool, lambda x: _project_lp_sphere(x, m_lm, p), objective, proposals, max_iter
    )[1]


def _embedding_matrix(grid, tau, mu):
    """Oracle: the cube-by-leaf matrix whose top singular value is C_2.

    With u = f sqrt(mu) on the leaves, sqrt(tau_Q) E_Q f is row Q of this
    matrix applied to u, and ||u||_2 = ||f||_{L^2(mu)}.
    """
    anc = grid.leaf_ancestor_matrix()
    mat = np.zeros((grid.n_cubes, grid.n_leaves))
    cols = np.arange(grid.n_leaves)
    for lev in range(grid.depth + 1):
        cubes = anc[lev]
        live = mu.cube_mass[cubes] > 0
        q, x = cubes[live], cols[live]
        mat[q, x] = np.sqrt(tau.tau[q] * mu.leaf_mass[x]) / mu.cube_mass[q]
    return mat


def _solver_cet(tau, p, mu):
    """Oracle: the certified power solver that computed the constant before the
    recursion, floored by the best normalized cube indicator; (value, kind)."""
    est = extremal._power_solve(_embedding_image_alloc(tau, mu, p), mu.leaf_mass, p)
    top = float(_cet_scores(tau.grid, tau.tau, mu.cube_mass, p).max())
    return max(est.value, top), est.kind


def _assert_closed(est):
    assert est.kind == "exact" and not est.flagged
    assert est.value <= est.upper <= est.value * (1 + 1e-12)


@pytest.mark.parametrize("d,depth,style", [
    (1, 4, "random"), (1, 5, "sparse"), (1, 6, "fractional"), (2, 2, "sparse"), (2, 3, "random"),
])
def test_embedding_brackets_the_ascent(monkeypatch, d, depth, style):
    monkeypatch.setattr(extremal, "_RESTARTS", 6)
    for seed in range(3):
        g, tau, _, omega = _random_instance(d, depth, seed=60 + seed, tau_style=style)
        for p in (1.5, 2.0, 3.0):
            for mu in (Measure.lebesgue(g), omega):
                est = carleson_embedding_constant(tau, p, mu=mu)
                _assert_closed(est)
                ascent = _ascent_cet(tau, p, mu, seed, 100)
                assert ascent <= est.upper * (1 + 1e-12)
                assert est.value >= ascent * (1 - 1e-12)


@pytest.mark.parametrize("d,tau_style,weighted", [
    (1, "random", False), (1, "sparse", True), (2, "random", True), (3, "sparse", False),
])
def test_embedding_matches_dense_svd_at_l2(d, tau_style, weighted):
    g, tau, mu, _ = _score_instance(d, tau_style, weighted, seed=90 + d)
    est = carleson_embedding_constant(tau, 2.0, mu=mu)
    _assert_closed(est)
    svd = np.linalg.svd(_embedding_matrix(g, tau, mu), compute_uv=False)[0]
    assert est.value == pytest.approx(svd, rel=1e-10)


def _max_passes(grid, p):
    """Passes the recursion may take: the indicator pass, the bracket search
    from (1 + gap) to (p')^p down to ``_CET_BRACKET``, and the extremal pass."""
    rows = max(1, extremal._CET_BATCH_CUBES // grid.n_cubes)
    span = math.log((p / (p - 1.0)) ** p) / math.log1p(extremal._CET_BRACKET)
    return 2 + 1 + math.ceil(math.log(span) / math.log(rows + 1))


def _record_passes(monkeypatch):
    """Replaces the embedding pass by one that records how many lam values each call tests."""
    calls = []
    run = extremal._embedding_pass

    def recording(grid, b, theta, lams, p, keep=False):
        calls.append(lams.size)
        return run(grid, b, theta, lams, p, keep)

    monkeypatch.setattr(extremal, "_embedding_pass", recording)
    return calls


def test_embedding_closes_near_degenerate_spectrum(monkeypatch):
    # sparse tau at d = 1, depth 6: the top two singular values of the
    # embedding lie within 0.003 %, where power steps crawl; the recursion's
    # passes do not see the spectrum, only the width of the bracket on lam.
    # The power solver, kept for the strong norm, closes here too, but only
    # because each J that falls below its predecessor sends it back to its
    # last plain image
    g, tau, _, _ = _random_instance(1, 6, seed=303, tau_style="sparse")
    mu = Measure.lebesgue(g)
    s = np.linalg.svd(_embedding_matrix(g, tau, mu), compute_uv=False)
    assert s[1] / s[0] > 0.9999
    calls = _record_passes(monkeypatch)
    rows = extremal._CET_BATCH_CUBES // g.n_cubes
    for p in (1.5, 2.0, 3.0):
        calls.clear()
        est = carleson_embedding_constant(tau, p)
        _assert_closed(est)
        # one indicator pass, batched search passes, one extremal pass
        assert est.iterations == len(calls) <= _max_passes(g, p)
        assert calls[0] == calls[-1] == 1 and set(calls[1:-1]) == {rows}
        values = []
        image = _embedding_image_alloc(tau, mu, p)

        def recording(f):
            j, path = image(f)
            values.append(j)
            return j, path

        solved = extremal._power_solve(recording, mu.leaf_mass, p)
        assert solved.kind == "exact" and np.any(np.diff(values) < 0)
        assert est.value == pytest.approx(solved.value, rel=1e-12)
        if p == 2.0:
            assert est.value == pytest.approx(s[0], rel=1e-12)


def test_indicator_certified_in_one_pass(monkeypatch):
    # where the best normalized cube indicator is extremal (root_only tau,
    # fractional tau, or a sparse tau of the acceptance suite) the first pass
    # certifies it: the value is the indicator's, the extremal the indicator
    calls = _record_passes(monkeypatch)
    g = build_grid(1, 6)
    weighted = Measure(g, np.random.default_rng(22).exponential(size=g.n_leaves))
    cases = [
        (CubeWeights.root_only(g, 3.0), Measure.lebesgue(g)),
        (CubeWeights.root_only(g, 3.0), weighted),
        (CubeWeights.fractional(build_grid(2, 3), 1.0), None),
        (gen_instance(GeneratorConfig(d=2, depth=3, omega="spikes", tau="sparse"), 5).tau, None),
    ]
    for tau, mu in cases:
        grid = tau.grid
        mu = mu or Measure.lebesgue(grid)
        car, _ = carleson_norm(tau)
        for p in (1.5, 2.0, 3.0):
            calls.clear()
            est = carleson_embedding_constant(tau, p, mu=mu)
            _assert_closed(est)
            assert est.iterations == len(calls) == 1
            scores = _cet_scores(grid, tau.tau, mu.cube_mass, p)
            f = est.extremal_f
            assert np.array_equal(f > 0, _indicator_rows(grid, np.array([np.argmax(scores)]))[0] > 0)
            assert est.value == scores.max()
            avg = grid.subtree_sums(f * mu.leaf_mass) / mu.cube_mass
            assert float(np.sum(tau.tau * avg**p)) ** (1.0 / p) == pytest.approx(est.value, rel=1e-12)
            if mu is not weighted:
                assert est.value >= car ** (1.0 / p) * (1 - 1e-12)


def test_indicator_floors_a_short_extremal(monkeypatch):
    # should the recovered extremal fall short of the best indicator, the
    # indicator is the value and the extremal; the upper value is the search's
    g, tau, _, _ = _random_instance(1, 4, seed=13)
    mu = Measure.lebesgue(g)
    honest = {p: carleson_embedding_constant(tau, p) for p in (1.5, 2.0, 3.0)}
    flat = np.full(g.n_leaves, 1.0)
    monkeypatch.setattr(extremal, "_embedding_extremal", lambda *args: (flat, 0.0))
    for p, good in honest.items():
        assert good.iterations > 1  # the indicator alone is not certified here
        est = carleson_embedding_constant(tau, p)
        top = _cet_scores(g, tau.tau, mu.cube_mass, p).max()
        assert est.value == top < good.value
        assert est.upper == good.upper and est.kind == "lower-bound" and est.flagged
        assert np.count_nonzero(est.extremal_f) < g.n_leaves


@pytest.mark.parametrize("d,depth", [(1, 3), (1, 5), (2, 2), (2, 3), (3, 2)])
def test_embedding_recursion_against_brute_force(d, depth):
    # p = 2: the top singular value of the dense cube-by-leaf matrix; other p:
    # the certified power solver wherever its bracket closes. Lebesgue mu, a
    # random mu and a mu with a dead subtree (a child of the root and some leaves)
    rng = np.random.default_rng(10 * d + depth)
    g = build_grid(d, depth)
    dead = rng.exponential(size=g.n_leaves)
    dead[g.subtree_leaf_mask(1)] = 0.0
    dead[rng.random(g.n_leaves) < 0.2] = 0.0
    measures = [Measure.lebesgue(g), Measure(g, rng.lognormal(size=g.n_leaves)), Measure(g, dead)]
    compared = 0
    for style in ("random", "sparse"):
        t = rng.exponential(size=g.n_cubes)
        if style == "sparse":
            t[rng.random(g.n_cubes) < 0.6] = 0.0
        tau = CubeWeights(g, t)
        for mu in measures:
            svd = np.linalg.svd(_embedding_matrix(g, tau, mu), compute_uv=False)[0]
            for p in (1.5, 2.0, 3.0):
                est = carleson_embedding_constant(tau, p, mu=mu)
                _assert_closed(est)
                if p == 2.0:
                    assert est.value == pytest.approx(svd, rel=1e-12)
                    continue
                value, kind = _solver_cet(tau, p, mu)
                if kind == "exact":
                    compared += 1
                    assert est.value == pytest.approx(value, rel=1e-12)
    assert compared >= 6


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_embedding_closes_at_d3_depth5(p):
    # 32768 leaves at d = 3, where the power solver's upper value stalled near 1e-8
    inst = gen_instance(GeneratorConfig(d=3, depth=5), 7)
    est = carleson_embedding_constant(inst.tau, p)
    _assert_closed(est)
    assert est.iterations <= _max_passes(inst.grid, p)
    car, _ = carleson_norm(inst.tau)
    assert car ** (1.0 / p) <= est.value <= est.upper <= p / (p - 1.0) * car ** (1.0 / p)


def test_embedding_closed_forms_are_exact():
    g = build_grid(1, 3)
    rng = np.random.default_rng(21)
    lebesgue = Measure.lebesgue(g)
    weighted = Measure(g, rng.exponential(size=g.n_leaves))
    for p in (1.5, 2.0, 3.0):
        est = carleson_embedding_constant(CubeWeights(g, np.zeros(g.n_cubes)), p)
        assert est.value == est.upper == 0.0 and est.kind == "exact"
        est = carleson_embedding_constant(
            CubeWeights(g, np.ones(g.n_cubes)), p, mu=Measure(g, np.zeros(g.n_leaves))
        )
        assert est.value == est.upper == 0.0 and est.kind == "exact"
        for mu in (lebesgue, weighted):
            # only the root average counts: C_p^p = tau_root / mu(root), attained by constants
            est = carleson_embedding_constant(CubeWeights.root_only(g, 3.0), p, mu=mu)
            _assert_closed(est)
            assert est.value == pytest.approx((3.0 / mu.total) ** (1.0 / p), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_strong_certified_on_the_diagonal(p):
    exps = Exponents(p, p)
    for seed, style in enumerate(("random", "sparse", "fractional")):
        _, tau, sigma, omega = _random_instance(1, 4, seed=70 + seed, tau_style=style)
        est = strong_norm_lower(tau, sigma, omega, exps)
        _assert_closed(est)
        ascent = _ascent(tau, sigma, omega, exps, seed)
        assert ascent.kind == "lower-bound" and ascent.upper is None
        assert ascent.value <= est.upper * (1 + 1e-12)
        assert est.value >= ascent.value * (1 - 1e-12)
        assert weak_norm_lower(tau, sigma, omega, exps, seed).value <= est.value * (1 + 1e-12)
        f = est.extremal_f
        assert lp_norm(f, sigma, p) == pytest.approx(1.0, rel=1e-12)
        image = apply_T(tau, Measure.product(f, sigma))
        assert lp_norm(image, omega, p) == pytest.approx(est.value, rel=1e-10)


def test_strong_certified_at_exponents_near_one():
    # at p = q = 1.001 the power step raises path to the power 1000; scaled to a
    # maximum of 1 first, it stays finite, so no inf or NaN reaches the mixing
    exps = Exponents(1.001, 1.001)
    for seed, (d, depth) in enumerate(((1, 4), (2, 3), (1, 7))):
        inst = gen_instance(GeneratorConfig(d=d, depth=depth, p=exps.p, q=exps.q), seed)
        est = strong_norm_lower(inst.tau, inst.sigma, inst.omega, exps)
        assert np.isfinite(est.value) and np.isfinite(est.upper)
        assert np.all(np.isfinite(est.extremal_f))
        assert 0 < est.value <= est.upper
        _assert_closed(est)


@pytest.mark.parametrize("p", [12.0, 30.0])
@pytest.mark.parametrize("cfg", [
    dict(d=1, depth=6, sigma="uniform", tau="sparse"),
    dict(d=2, depth=3, omega="spikes", tau="sparse"),
])
def test_strong_certified_at_large_exponents(cfg, p):
    # sparse tau leaves path_f = 0 where the iterate sits at its floor, and at
    # large p the floor's f^(p-1) underflows to 0: the upper value must come
    # from the scaled root path^(1/(p-1)), not from path / f^(p-1), which is
    # 0 / 0 there and would leave the bracket open
    for seed in range(3):
        inst = gen_instance(GeneratorConfig(**cfg, p=p, q=p), seed)
        est = strong_norm_lower(inst.tau, inst.sigma, inst.omega, inst.exps)
        _assert_closed(est)


def test_strong_certified_where_sigma_vanishes_near_p_one():
    # sigma lives on the left half of the leaves and omega mostly on the
    # right, so path_f is largest where sigma vanishes. Scaled by that
    # maximum, the live part of path_f^1000 would underflow to 0: the step
    # would lose it, and the upper value would read 0 there and certify a
    # value below what the ascent finds. The scale is taken on sigma's support
    g = build_grid(1, 4)
    tau = CubeWeights(g, np.random.default_rng(0).exponential(size=g.n_cubes))
    half = np.arange(g.n_leaves) < g.n_leaves // 2
    sigma = Measure(g, np.where(half, 1.0, 0.0))
    omega = Measure(g, np.where(half, 1e-3, 1.0))
    for p in (1.001, 1.01):
        exps = Exponents(p, p)
        est = strong_norm_lower(tau, sigma, omega, exps)
        _assert_closed(est)
        ascent = _ascent(tau, sigma, omega, exps, 0)
        assert ascent.value <= est.upper * (1 + 1e-12)


def test_ascent_finite_near_p_one(monkeypatch):
    # where p < q and p is near 1 the ascent raises path to the power
    # 1/(p-1) = 1000; scaled row by row first, no candidate overflows to a
    # NaN row, which could never improve
    inst = gen_instance(GeneratorConfig(d=1, depth=4, p=1.001, q=2.0), 0)
    args = (inst.tau, inst.sigma, inst.omega, inst.exps, 0)
    best_pool = float(_pool_images(*args)[2].max())
    rows = []
    project = extremal._project_lp_sphere

    def recording(f, mass, p):
        rows.append(project(f, mass, p))
        return rows[-1]

    monkeypatch.setattr(extremal, "_project_lp_sphere", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strong, _ = norm_bounds(*args)
    # the pool's projection, then one batch of candidates per round
    assert len(rows) == strong.iterations + 1
    assert all(np.all(np.isfinite(r)) for r in rows)
    assert strong.value >= best_pool


# -- closed-form indicator scores against the dense indicator pool ---------------


def _indicator_seeds(grid):
    """Oracle: one row per cube, the indicator of its leaves (n_cubes x n_leaves)."""
    anc = grid.leaf_ancestor_matrix()
    seeds = np.zeros((grid.n_cubes, grid.n_leaves))
    cols = np.arange(grid.n_leaves)
    for lev in range(grid.depth + 1):
        seeds[anc[lev], cols] = 1.0
    return seeds


def _oracle_cet(grid, tau, mu, p):
    """The embedding objective evaluated on every normalized indicator row."""
    f = _project_lp_sphere(_indicator_seeds(grid), mu.leaf_mass, p)
    full = np.zeros((grid.n_cubes, grid.n_cubes))
    full[:, grid.leaf_start :] = f * mu.leaf_mass
    sums = _kernels.up_sum_batch(full, grid)
    ok = mu.cube_mass > 0
    avg = sums * np.where(ok, 1.0 / np.where(ok, mu.cube_mass, 1.0), 0.0)
    return np.sum(tau.tau * avg**p, axis=1) ** (1.0 / p)


def _oracle_strong(grid, tau, sigma, omega, exps):
    """||T(f sigma)||_{L^q(omega)} on every normalized indicator row."""
    f = _project_lp_sphere(_indicator_seeds(grid), sigma.leaf_mass, exps.p)
    return np.array([
        np.sum(apply_T(tau, Measure.product(row, sigma)) ** exps.q * omega.leaf_mass)
        ** (1.0 / exps.q)
        for row in f
    ])


def _score_instance(d, tau_style, weighted, seed):
    g = build_grid(d, {1: 5, 2: 3, 3: 2}[d])
    rng = np.random.default_rng(seed)
    if tau_style == "root_only":
        tau = CubeWeights.root_only(g)
    else:
        t = rng.exponential(size=g.n_cubes)
        if tau_style == "sparse":
            t[rng.random(g.n_cubes) < 0.7] = 0.0
        tau = CubeWeights(g, t)

    def measure():
        if not weighted:
            return Measure.lebesgue(g)
        m = rng.lognormal(size=g.n_leaves)
        m[g.subtree_leaf_mask(1)] = 0.0  # a whole child of the root is dead
        m[rng.random(g.n_leaves) < 0.3] = 0.0
        return Measure(g, m)

    return g, tau, measure(), measure()


def _assert_top_holds_argmax(scores, oracle, k):
    top = _top_cubes(scores, k)
    peak = oracle.max()
    # cubes whose indicators test the same function tie in the oracle and may
    # round apart in closed form; all of them make the cut when they fit
    tied = np.flatnonzero(oracle >= peak * (1 - 1e-12))
    assert oracle[top].max() >= peak * (1 - 1e-12)
    if tied.size <= k:
        assert int(np.argmax(oracle)) in top


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p,q", [(1.5, 3.0), (2.0, 2.0), (3.0, 4.0)])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("tau_style", ["random", "sparse", "root_only"])
def test_closed_form_scores_match_indicator_pool(d, p, q, weighted, tau_style):
    seed = 100 * d + 10 * int(p) + (5 if weighted else 0) + len(tau_style)
    g, tau, sigma, omega = _score_instance(d, tau_style, weighted, seed)
    if weighted:
        assert sigma.cube_mass[1] == 0 and omega.cube_mass[1] == 0
    exps = Exponents(p, q)

    cet = _cet_scores(g, tau.tau, sigma.cube_mass, p)
    oracle = _oracle_cet(g, tau, sigma, p)
    np.testing.assert_allclose(cet, oracle, rtol=1e-12, atol=0.0)
    _assert_top_holds_argmax(cet, oracle, 4)

    strong = _strong_scores(tau, sigma, omega, exps)
    oracle = _oracle_strong(g, tau, sigma, omega, exps)
    np.testing.assert_allclose(strong, oracle, rtol=1e-12, atol=0.0)
    _assert_top_holds_argmax(strong, oracle, 4)


def test_indicator_rows_match_dense_pool():
    for d, depth in ((1, 4), (2, 3), (3, 2)):
        g = build_grid(d, depth)
        cubes = np.array([0, 1, g.n_cubes // 3, g.leaf_start, g.n_cubes - 1])
        np.testing.assert_array_equal(_indicator_rows(g, cubes), _indicator_seeds(g)[cubes])


# (d, depth, strided): leaf levels on both sides of the strided-scan threshold, d = 1..4
SCAN_SIDES = [
    (1, 6, False), (1, 13, True), (2, 3, False), (2, 7, True),
    (3, 2, False), (3, 4, True), (4, 2, False), (4, 3, True),
]


@pytest.mark.parametrize("d,depth,strided", SCAN_SIDES)
def test_indicator_rows_match_the_scan_of_one_hot_rows(d, depth, strided):
    # the box-slice rows against the root-to-leaf scan of one-hot cube rows
    g = build_grid(d, depth)
    assert (g.n_leaves >= _kernels.STRIDED_MIN_CUBES) == strided
    rng = np.random.default_rng(d * depth)
    cubes = np.concatenate([g.level_offsets[:-1], g.level_offsets[1:] - 1, rng.integers(0, g.n_cubes, 8)])
    onehot = np.zeros((cubes.size, g.n_cubes))
    onehot[np.arange(cubes.size), cubes] = 1.0
    scan = _kernels.down_sum_batch(onehot, g)[:, g.leaf_start :]
    rows = _indicator_rows(g, cubes)
    assert rows.shape == scan.shape and rows.flags.c_contiguous
    assert rows.tobytes() == scan.tobytes()


def test_top_cubes_stable_ties():
    scores = np.array([1.0, 3.0, 2.0, 3.0, 0.0, 3.0])
    assert _top_cubes(scores, 2).tolist() == [1, 3]
    assert _top_cubes(scores, 4).tolist() == [1, 2, 3, 5]
    assert _top_cubes(scores, 10).tolist() == list(range(6))


def test_top_cubes_match_the_stable_sort():
    # the partition's selection against the stable sort it replaces, on
    # tie-heavy scores, all-equal ones, signed zeros and infinities, and NaN
    # (which both place after every number), for k below, at and above n
    rng = np.random.default_rng(60)
    inputs = [np.zeros(9), np.full(9, 2.5), np.full(9, np.nan), np.array([-0.0, 0.0, -0.0, 1.0])]
    for n in rng.integers(1, 40, 120).tolist():
        scores = rng.integers(0, 4, n).astype(float)
        scores[rng.random(n) < 0.2] = rng.choice([-0.0, np.inf, -np.inf, np.nan])
        inputs.append(scores)
    for scores in inputs:
        n = scores.size
        for k in sorted({1, 2, 3, 8, max(1, n - 1), n, n + 3}):
            want = np.sort(np.argsort(-scores, kind="stable")[:k])
            got = _top_cubes(scores, k)
            assert got.dtype == want.dtype and got.tolist() == want.tolist(), (scores, k)


def test_pool_holds_best_indicator_without_restarts():
    # the best indicator floors the value, keeping car^(1/p) <= C_p
    g, tau, _, _ = _random_instance(1, 4, seed=13)
    car, _ = carleson_norm(tau)
    est = carleson_embedding_constant(tau, 2.0)
    assert est.value >= math.sqrt(car) * (1 - 1e-12)


# -- the weak scan against its per-threshold loop --------------------------------


def _weak_scan_loop(h, w_lm, q):
    """Oracle: one searchsorted and one Python-float power per distinct value."""
    scale = float(h.max(initial=0.0))
    if scale <= 0.0:
        return 0.0
    offset = scale * 2.0**-40
    order = np.argsort(h)
    hs = h[order]
    suffix = np.cumsum(w_lm[order][::-1])[::-1]
    best = 0.0
    for v in np.unique(hs[hs > 0]):
        lam = float(v) - offset
        i = int(np.searchsorted(hs, lam, side="right"))
        mass = float(suffix[i]) if i < hs.size else 0.0
        cand = lam * mass ** (1.0 / q)
        if cand > best:
            best = cand
    return best


def test_weak_scan_bit_identical_to_loop():
    rng = np.random.default_rng(17)
    for i in range(400):
        m = int(rng.integers(1, 200))
        h = rng.exponential(size=m) * (rng.random(m) < 0.8)
        if i % 3 == 0:
            h = np.round(h, 2)  # repeated values
        w = rng.exponential(size=m) * (rng.random(m) < 0.9)
        for q in (4.0 / 3.0, 1.5, 2.0, 3.0, 4.0):
            assert _weak_scan(h, w, q) == _weak_scan_loop(h, w, q)
    assert _weak_scan(np.zeros(5), np.ones(5), 2.0) == 0.0


# -- memory ------------------------------------------------------------------------


def test_ascent_memory_bounded_at_depth_12():
    # the dense indicator pool alone would be 8191 x 4096 doubles = 268 MB
    g = build_grid(1, 12)
    rng = np.random.default_rng(19)
    tau = CubeWeights(g, rng.exponential(size=g.n_cubes))
    sigma = Measure(g, rng.lognormal(size=g.n_leaves))
    omega = Measure(g, rng.lognormal(size=g.n_leaves))
    exps = Exponents(1.5, 3.0)
    for run in (
        lambda: carleson_embedding_constant(tau, 1.5),
        lambda: strong_norm_lower(tau, sigma, omega, exps),
        lambda: weak_norm_lower(tau, sigma, omega, exps),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("d,depth", [(1, 16), (2, 8)])
def test_power_solver_memory_in_leaf_vectors(d, depth):
    # the solve holds its work buffer, the current and the last iterate and
    # plain image, the best iterate and a few temporaries: a bounded number
    # of leaf vectors whatever the number of steps
    inst = gen_instance(GeneratorConfig(d=d, depth=depth), 7)
    leaf_vector = 8 * inst.grid.n_leaves
    for p in (1.5, 3.0):
        tracemalloc.start()
        try:
            est = strong_norm_lower(inst.tau, inst.sigma, inst.omega, Exponents(p, p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_closed(est)
        assert peak < 16 * leaf_vector, f"{peak / leaf_vector:.1f} leaf vectors"


def test_weak_bound_memory_in_leaf_vectors():
    # the bound holds the pool's images (2 * _RESTARTS rows of one entry per
    # cube, about 4 * _RESTARTS leaf vectors), the projected pool and its
    # product with sigma; the seed pool is freed once projected. A pool held
    # through the batched application adds 2 * _RESTARTS leaf vectors, 81
    # instead of 65 here
    inst = gen_instance(GeneratorConfig(d=1, depth=16), 7)
    leaf_vector = 8 * inst.grid.n_leaves
    tracemalloc.start()
    try:
        est = weak_norm_lower(inst.tau, inst.sigma, inst.omega, Exponents(2.0, 2.0), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.value > 0
    assert peak < (8 * extremal._RESTARTS + 8) * leaf_vector, f"{peak / leaf_vector:.1f} leaf vectors"


@pytest.mark.parametrize("d,depth", [(1, 16), (2, 8)])
def test_exact_memory_in_leaf_vectors(d, depth):
    # the solve holds the square roots of the measures, the cube-sized work
    # buffer and x, r, p with their images, whatever the number of steps
    inst = gen_instance(GeneratorConfig(d=d, depth=depth), 7)
    leaf_vector = 8 * inst.grid.n_leaves
    tracemalloc.start()
    try:
        est = exact_norm_22(inst.tau, inst.sigma, inst.omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.kind == "exact" and est.iterations > 2
    assert peak < 10.5 * leaf_vector, f"{peak / leaf_vector:.2f} leaf vectors"


def test_embedding_memory_linear_in_cubes():
    # the recursion holds a few floats per cube whatever the grid: a batch of
    # lam values never exceeds the cube budget, and nothing is cube-by-leaf
    for d, depth in ((1, 12), (1, 14), (3, 4)):
        g = build_grid(d, depth)
        tau = CubeWeights(g, np.random.default_rng(19).exponential(size=g.n_cubes))
        tracemalloc.start()
        try:
            est = carleson_embedding_constant(tau, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.kind == "exact"
        assert peak < 24 * 8 * g.n_cubes + extremal._CET_BATCH_CUBES * 8, f"{peak / 2**20:.1f} MB"


# -- in-place operator application against the allocating loops ---------------


def _t_leafmass_alloc(grid, tau, leafmass):
    """T by the textbook formula tau_Q * mu(Q) / |Q| with fresh arrays."""
    contrib = tau * grid.subtree_sums(leafmass) / _volumes(grid)
    return _kernels.down_sum(contrib, grid)[grid.leaf_start :]


def _strong_image_alloc(tau, sigma, omega, p):
    def image(f):
        h = _t_leafmass_alloc(tau.grid, tau.tau, f * sigma.leaf_mass)
        weighted = h ** (p - 1.0) * omega.leaf_mass
        return float(weighted @ h) ** (1.0 / p), _t_leafmass_alloc(tau.grid, tau.tau, weighted)

    return image


def _embedding_image_alloc(tau, mu, p):
    """The embedding objective and its gradient path, as ``_power_solve`` takes them."""
    grid = tau.grid
    mass = mu.cube_mass
    ok = mass > 0
    inv_mass = np.where(ok, 1.0 / np.where(ok, mass, 1.0), 0.0)

    def image(f):
        avg = grid.subtree_sums(f * mu.leaf_mass) * inv_mass
        coeff = tau.tau * avg ** (p - 1.0)
        path = _kernels.down_sum(coeff * inv_mass, grid)
        return float(coeff @ avg) ** (1.0 / p), path[grid.leaf_start :]

    return image


def _same_estimate(est, oracle):
    assert (est.value, est.upper, est.iterations, est.residual, est.kind) == (
        oracle.value, oracle.upper, oracle.iterations, oracle.residual, oracle.kind,
    )
    assert np.array_equal(est.extremal_f, oracle.extremal_f)


# deep levels of both grids are read through strided views
@pytest.mark.parametrize("cfg", [dict(d=1, depth=13), dict(d=2, depth=7, sigma="spikes")])
def test_in_place_solvers_bit_identical_to_allocating_loops(cfg):
    inst = gen_instance(GeneratorConfig(**cfg), 4)
    tau, sigma, omega = inst.tau, inst.sigma, inst.omega
    est = exact_norm_22(tau, sigma, omega)
    value, ef, eg, iterations, residual = _exact_norm_22_reference(
        tau, sigma, omega, lambda leafmass: _t_leafmass_alloc(tau.grid, tau.tau, leafmass)
    )
    assert (est.value, est.iterations, est.residual) == (value, iterations, residual)
    assert np.array_equal(est.extremal_f, ef) and np.array_equal(est.extremal_g, eg)

    strong = strong_norm_lower(tau, sigma, omega, Exponents(3.0, 3.0))
    image = _strong_image_alloc(tau, sigma, omega, 3.0)
    _same_estimate(strong, extremal._power_solve(image, sigma.leaf_mass, 3.0))
