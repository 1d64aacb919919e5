"""Carleson norms and testing constants.

Frozen values below were derived by hand on tiny grids (the depth-2 interval
grid with its 7 cubes). The closed-form sweeps are checked against per-cube
enumeration oracles built on the operator module's localized evaluators.
"""

import math

import numpy as np
import pytest

from twoweight import constants
from twoweight.constants import (
    carleson_norm,
    compute_testing_report,
    global_testing,
    local_testing,
    strengthened_local_values,
    weighted_carleson_norm,
)
from twoweight.constants import testing_constants_22 as quadratic_constants_22
from twoweight.grid import Exponents, Measure, build_grid, lp_norm
from twoweight.harness import GeneratorConfig, gen_instance
from twoweight.operators import CubeWeights, apply_T, apply_T_restricted

from test_acceptance import SUITE_GENERATORS, _suite_config
from test_extremal import _scale_cases, _scale_factor, _scaled
from test_operators import _volumes


def strengthened_local_testing(tau, sigma, omega, exps):
    """sup_R omega(R)^(-1/q') ||T(omega 1_R)||_{L^p'(sigma)} with its cube: the
    full-operator variant of the local constant, from the library's per-cube
    values (``strengthened_local_values``) as the library's sweeps take their sup."""
    return constants._sup(tau.grid, strengthened_local_values(tau, sigma, omega, exps))


def _random_instance(d, depth, seed):
    g = build_grid(d, depth)
    rng = np.random.default_rng(seed)
    tau = CubeWeights(g, rng.exponential(size=g.n_cubes))
    sigma = Measure(g, rng.exponential(size=g.n_leaves))
    omega = Measure(g, rng.exponential(size=g.n_leaves))
    return g, tau, sigma, omega


# -- Carleson norms -----------------------------------------------------------


def test_carleson_norm_of_volume_weights():
    # tau_Q = |Q|: each cube Q at height h has subtree sum (h+1)|Q|, so the
    # sup is depth+1, attained at the root
    for d, depth in [(1, 2), (1, 5), (2, 3)]:
        g = build_grid(d, depth)
        tau = CubeWeights(g, _volumes(g))
        val, argmax = carleson_norm(tau)
        assert val == pytest.approx(depth + 1.0, rel=1e-14)
        assert argmax == g.cube(0)


def test_carleson_norm_homogeneous():
    g, tau, _, _ = _random_instance(1, 4, seed=0)
    val, _ = carleson_norm(tau)
    val3, _ = carleson_norm(CubeWeights(g, 3.0 * tau.tau))
    assert val3 == pytest.approx(3.0 * val, rel=1e-14)


def test_carleson_argmax_no_tie_to_larger_index():
    g = build_grid(1, 1)
    tau = CubeWeights(g, [0.0, 1.0, 1.0])  # both halves give 1/(1/2) = 2, root gives 2
    val, argmax = carleson_norm(tau)
    assert val == pytest.approx(2.0)
    assert argmax == g.cube(0)  # smallest canonical index wins the tie


def test_weighted_carleson_matches_unweighted_for_lebesgue():
    g, tau, _, _ = _random_instance(2, 2, seed=1)
    uval, uarg = carleson_norm(tau)
    res = weighted_carleson_norm(tau, Measure.lebesgue(g))
    assert not res.degenerate
    assert res.value == pytest.approx(uval, rel=1e-12)
    assert res.argmax == uarg


def test_weighted_carleson_degenerate():
    g = build_grid(1, 1)
    tau = CubeWeights(g, [0.0, 1.0, 0.0])
    omega = Measure(g, [0.0, 1.0])  # left half carries tau mass but no omega mass
    res = weighted_carleson_norm(tau, omega)
    assert res.degenerate and math.isinf(res.value)
    assert res.argmax.level == 1 and res.argmax.coords == (0,)


def test_weighted_carleson_all_zero():
    g = build_grid(1, 1)
    res = weighted_carleson_norm(CubeWeights(g, np.zeros(3)), Measure(g, [0.0, 0.0]))
    assert res.value == 0.0 and res.argmax is None and not res.degenerate


# -- testing constants: frozen values ------------------------------------------


def test_root_only_weights_all_constants_one():
    # tau concentrated at the root with Lebesgue measures: the in-sweep only
    # sees the root, whose indicator test gives exactly 1 at every exponent
    g = build_grid(1, 2)
    tau = CubeWeights.root_only(g)
    leb = Measure.lebesgue(g)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0)):
        loc, arg = local_testing(tau, leb, leb, exps)
        assert loc == pytest.approx(1.0, rel=1e-14)
        assert arg == g.cube(0)
        glo, _ = global_testing(tau, leb, leb, exps)
        assert glo == pytest.approx(1.0, rel=1e-14)
    c1, c2 = quadratic_constants_22(tau, leb, leb)
    assert c1 == pytest.approx(1.0, rel=1e-14)
    assert c2 == pytest.approx(1.0, rel=1e-14)


def test_quadratic_constants_match_local_testing():
    # at p = q = 2 the quadratic indicator constants ARE the local constants:
    # testing_constants_22 reads them from the local sweeps, and they match
    # their per-cube definition on the acceptance suite's generators, the
    # first two instances of each
    cfg = _suite_config()
    total = cfg.n * len(SUITE_GENERATORS)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(total, dtype=np.uint64)
    for k, gen in enumerate(SUITE_GENERATORS):
        for seed in seeds[k * cfg.n : k * cfg.n + 2].tolist():
            inst = gen_instance(gen, seed)
            c1, c2 = quadratic_constants_22(inst.tau, inst.sigma, inst.omega)
            want = (
                _oracle_quadratic(inst.tau, inst.sigma, inst.omega),
                _oracle_quadratic(inst.tau, inst.omega, inst.sigma),
            )
            assert (c1, c2) == pytest.approx(want, rel=1e-10, abs=0.0), gen.tag()


# -- per-cube enumeration oracles ---------------------------------------------
#
# The library computes every testing constant in closed form with a few
# whole-grid passes. These oracles enumerate the cubes R one at a time and
# evaluate the tested function through the operator module, one tree scan per
# cube; ties keep the first (smallest-index) cube, as the library does.


def _oracle_testing(tau, sigma, omega, exps, image, norm=lp_norm):
    """sup_R omega(R)^(-1/q') ||image(omega 1_R, R)||_{L^p'(sigma)} by enumeration."""
    g = tau.grid
    pc, qc = exps.p_conj, exps.q_conj
    best, arg = 0.0, None
    for r in range(g.n_cubes):
        w_r = omega.cube_mass[r]
        if w_r <= 0:
            continue
        restricted = omega.with_leaf_mask(g.subtree_leaf_mask(r))
        val = w_r ** (-1.0 / qc) * norm(image(tau, restricted, r), sigma, pc)
        if val > best:
            best, arg = val, g.cube(r)
    return best, arg


def _in_image(tau, nu, r):
    return apply_T_restricted(tau, nu, r, "in")


def _out_image(tau, nu, r):
    return apply_T_restricted(tau, nu, r, "out")


def _full_image(tau, nu, r):
    return apply_T(tau, nu)


def _oracle_quadratic(tau, inner, against):
    """sqrt(sup_R inner(R)^-1 int_R T^in_R(inner 1_R)^2 d(against)) by enumeration."""
    g = tau.grid
    best = 0.0
    for r in range(g.n_cubes):
        m_r = inner.cube_mass[r]
        if m_r <= 0:
            continue
        t = _in_image(tau, inner.with_leaf_mask(g.subtree_leaf_mask(r)), r)
        best = max(best, float(np.sum(t * t * against.leaf_mass) / m_r))
    return math.sqrt(best)


def _spiky(rng, g, hot):
    """A measure on ``hot`` random leaves, exactly zero elsewhere."""
    mass = np.zeros(g.n_leaves)
    mass[rng.choice(g.n_leaves, size=hot, replace=False)] = rng.lognormal(size=hot)
    return Measure(g, mass)


def _assert_matches(name, got, want):
    (val, arg), (oval, oarg) = got, want
    assert val == pytest.approx(oval, rel=1e-12, abs=0.0), name
    assert arg == oarg, name


def test_local_testing_against_localization_oracle():
    g, tau, sigma, omega = _random_instance(2, 2, seed=3)
    exps = Exponents(1.5, 2.5)
    _assert_matches(
        "local",
        local_testing(tau, sigma, omega, exps),
        _oracle_testing(tau, sigma, omega, exps, _in_image),
    )


def test_global_testing_against_localization_oracle():
    g, tau, sigma, omega = _random_instance(1, 4, seed=4)
    exps = Exponents(2.0, 3.0)
    _assert_matches(
        "global",
        global_testing(tau, sigma, omega, exps),
        _oracle_testing(tau, sigma, omega, exps, _out_image),
    )


ORACLE_TAU_STYLES = ("random", "sparse", "root_only")


@pytest.mark.parametrize("tau_style", ORACLE_TAU_STYLES)
@pytest.mark.parametrize("pq", [(2.0, 2.0), (1.5, 3.0)])
@pytest.mark.parametrize("d, depth", [(1, 5), (2, 3), (3, 2)])
def test_closed_forms_match_enumeration(d, depth, pq, tau_style):
    # spiky measures leave many cubes with zero tested mass, and a single hot
    # leaf makes whole chains of cubes test the same function (exact ties)
    g = build_grid(d, depth)
    rng = np.random.default_rng([d, depth, int(10 * pq[0]), ORACLE_TAU_STYLES.index(tau_style)])
    if tau_style == "random":
        tau = CubeWeights(g, rng.exponential(size=g.n_cubes))
    elif tau_style == "sparse":
        tau = CubeWeights(
            g, np.where(rng.random(g.n_cubes) < 0.3, rng.exponential(size=g.n_cubes), 0.0)
        )
    else:
        tau = CubeWeights.root_only(g)
    exps = Exponents(*pq)
    dual = exps.dual()
    for hot in (1, 3, g.n_leaves // 4):
        sigma, omega = _spiky(rng, g, hot), _spiky(rng, g, hot)
        rep = compute_testing_report(tau, sigma, omega, exps)
        _assert_matches(
            "local", (rep.loc, rep.loc_argmax), _oracle_testing(tau, sigma, omega, exps, _in_image)
        )
        _assert_matches(
            "local_dual",
            (rep.loc_dual, rep.loc_dual_argmax),
            _oracle_testing(tau, omega, sigma, dual, _in_image),
        )
        _assert_matches(
            "global", (rep.glo, rep.glo_argmax), _oracle_testing(tau, sigma, omega, exps, _out_image)
        )
        _assert_matches(
            "global_dual",
            (rep.glo_dual, rep.glo_dual_argmax),
            _oracle_testing(tau, omega, sigma, dual, _out_image),
        )
        _assert_matches(
            "strengthened",
            strengthened_local_testing(tau, sigma, omega, exps),
            _oracle_testing(tau, sigma, omega, exps, _full_image),
        )
        c1, c2 = quadratic_constants_22(tau, sigma, omega)
        assert c1 == pytest.approx(_oracle_quadratic(tau, sigma, omega), rel=1e-12, abs=0.0)
        assert c2 == pytest.approx(_oracle_quadratic(tau, omega, sigma), rel=1e-12, abs=0.0)


def _scaled_lp_norm(f, mu, p):
    """``lp_norm`` with |f| divided by its largest value on the support of mu
    first, so that no power overflows, or underflows to 0."""
    f = np.where(mu.leaf_mass > 0, np.abs(np.asarray(f, dtype=np.float64)), 0.0)
    top = float(np.max(f, initial=0.0))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((f / top) ** p * mu.leaf_mass)) ** (1.0 / p)


def _vanishing_instances():
    """(tau, sigma, omega) on which sigma vanishes on whole cubes.

    The first input puts sigma on the left half of the leaves and omega mostly
    on the right, so the tested functions are largest where sigma is 0. The
    second puts sigma on the leftmost leaf only, and omega and most of tau on
    the right half: each tested cube has sigma(R) = 0, and its global value
    comes from the root alone, far below its A(R). The others are ``spikes``
    draws with zero masses allowed.
    """
    g = build_grid(1, 4)
    tau = CubeWeights(g, np.random.default_rng(0).exponential(size=g.n_cubes))
    half = np.arange(g.n_leaves) < g.n_leaves // 2
    yield tau, Measure(g, np.where(half, 1.0, 0.0)), Measure(g, np.where(half, 1e-3, 1.0))
    cubes = [g.cube(i) for i in range(g.n_cubes)]
    right = np.array([c.level > 0 and 2 * c.coords[0] >= 2**c.level for c in cubes])
    weights = _volumes(g) * np.where(right, 10.0, 0.0)
    weights[0] = 1.0
    tau = CubeWeights(g, weights)
    leftmost = np.arange(g.n_leaves) == 0
    yield tau, Measure(g, np.where(leftmost, 1.0, 0.0)), Measure(g, np.where(half, 0.0, 1.0))
    for d, depth in ((1, 5), (2, 3)):
        cfg = GeneratorConfig(d=d, depth=depth, sigma="spikes", omega="spikes", allow_zero_sigma=True)
        for seed in range(3):
            inst = gen_instance(cfg, seed)
            yield inst.tau, inst.sigma, inst.omega


@pytest.mark.parametrize("q", [1.001, 2.0])
def test_constants_near_p_one_match_scaled_oracles(q):
    # at p = 1.001 (p' = 1001) the unscaled powers overflow on most suite
    # inputs; every constant is finite and matches the scaled enumeration,
    # also where a measure vanishes on whole cubes, which must not set the
    # scale: a live term far below a dead one would round to 0 against it
    exps = Exponents(1.001, q)
    dual = exps.dual()
    suite = [gen_instance(cfg, seed) for cfg in SUITE_GENERATORS for seed in range(2)]
    inputs = [(i.tau, i.sigma, i.omega, True) for i in suite]
    inputs += [(*args, False) for args in _vanishing_instances()]
    for tau, sigma, omega, positive in inputs:
        rep = compute_testing_report(tau, sigma, omega, exps)
        cases = [
            ("local", (rep.loc, rep.loc_argmax), (sigma, omega, exps, _in_image)),
            ("local_dual", (rep.loc_dual, rep.loc_dual_argmax), (omega, sigma, dual, _in_image)),
            ("global", (rep.glo, rep.glo_argmax), (sigma, omega, exps, _out_image)),
            ("global_dual", (rep.glo_dual, rep.glo_dual_argmax), (omega, sigma, dual, _out_image)),
            ("strengthened", strengthened_local_testing(tau, sigma, omega, exps),
             (sigma, omega, exps, _full_image)),
        ]
        for name, got, args in cases:
            assert math.isfinite(got[0]) and (got[0] > 0.0 or not positive), name
            _assert_matches(name, got, _oracle_testing(tau, *args, norm=_scaled_lp_norm))


@pytest.mark.parametrize("pq,factors", [
    ((1.001, 1.001), (1e-6, 1e6)), ((1.001, 2.0), (1e-6, 1e6)), ((2.0, 2.0), (1e-160, 1e160)),
])
def test_constants_scale_out_of_float_range_homogeneously(pq, factors):
    # each factor sends every unscaled power at p' (1001, or 2) out of the
    # float range, below or above; each constant scales with tau
    inst = gen_instance(SUITE_GENERATORS[0], 0)
    exps = Exponents(*pq)
    base = compute_testing_report(inst.tau, inst.sigma, inst.omega, exps)
    for c in factors:
        tau = CubeWeights(inst.grid, c * inst.tau.tau)
        rep = compute_testing_report(tau, inst.sigma, inst.omega, exps)
        for name in ("loc", "loc_dual", "glo", "glo_dual"):
            assert getattr(rep, name) == pytest.approx(c * getattr(base, name), rel=1e-12), name
        if exps.is_l2:
            got = quadratic_constants_22(tau, inst.sigma, inst.omega)
            want = quadratic_constants_22(inst.tau, inst.sigma, inst.omega)
            assert got == pytest.approx((c * want[0], c * want[1]), rel=1e-12)


@pytest.mark.parametrize(
    "pq", [(2.0, 2.0), (3.0, 3.0), (1.5, 3.0), (2.0, 4.0), (1.2, 1.5), (1.5, 2.0)]
)
def test_testing_report_scales_out_of_float_range(pq):
    # tau * 2^m with sigma, omega * 4^k from about 10^-100 to 10^100: where
    # small powers meet a small weight the sweeps scale (``_needs_scale``),
    # so every constant scales as the norm does, within 1e-12, with no
    # RuntimeWarning; each of the 27 scale triples is tried on one generator
    exps = Exponents(*pq)
    insts = [gen_instance(cfg, 40 + k) for k, cfg in enumerate(SUITE_GENERATORS)]
    bases = [compute_testing_report(i.tau, i.sigma, i.omega, exps) for i in insts]
    for k, (m, k_s, k_w) in _scale_cases():
        scaled = _scaled(insts[k], m, k_s, k_w)
        rep = compute_testing_report(scaled.tau, scaled.sigma, scaled.omega, exps)
        c = _scale_factor(exps, m, k_s, k_w)
        for name in ("loc", "loc_dual", "glo", "glo_dual"):
            want = c * getattr(bases[k], name)
            tag = (SUITE_GENERATORS[k].tag(), m, k_s, k_w, name)
            assert getattr(rep, name) == pytest.approx(want, rel=1e-12, abs=0.0), tag


# -- the sweeps on two threads ----------------------------------------------------


@pytest.mark.parametrize("d,depth", [(1, 7), (2, 4), (3, 3)])
def test_sweeps_bit_identical_on_two_threads(kernel_threads, d, depth):
    # each half of the leaves walks its half-tree on its own thread and the
    # root level follows: every per-cube value and constant keeps its bits,
    # unscaled and scaled (p = 1.001), on measures that vanish on whole cubes
    cfg = GeneratorConfig(d=d, depth=depth, sigma="spikes", omega="spikes", allow_zero_sigma=True)
    inst = gen_instance(cfg, 3)
    args = (inst.tau, inst.sigma, inst.omega)
    pairs = [Exponents(2.0, 2.0), Exponents(1.5, 3.0), Exponents(1.001, 2.0)]
    assert constants._needs_scale(inst.tau, inst.omega, inst.sigma, pairs[-1].p_conj)

    def sweeps():
        out = [quadratic_constants_22(*args)]
        for exps in pairs:
            out.append(strengthened_local_values(*args, exps))
            out.append(compute_testing_report(*args, exps).to_dict())
        return out

    kernel_threads.assert_split_matches_inline(sweeps)


def _serial_power_sums(grid, contrib, weight, e, shift=None, floor=None):
    # the sweep as one allocating loop over every level: the arithmetic the
    # in-place walk of constants._inner_power_sums must keep, bit for bit
    out = np.empty(grid.n_cubes)
    scale, live = (None, None) if floor is None else (floor.copy(), weight > 0)
    anc = np.arange(grid.leaf_start, grid.n_cubes)
    run = np.zeros(grid.n_leaves)
    for lev in range(grid.depth, -1, -1):
        lo, hi = int(grid.level_offsets[lev]), int(grid.level_offsets[lev + 1])
        run += contrib[anc]
        t = run if shift is None else run + shift[anc]
        if scale is not None:
            t = np.where(live, t, 0.0)
            np.maximum.at(scale, anc, t)
            t = np.divide(t, scale[anc], out=np.zeros_like(t), where=scale[anc] > 0)
        out[lo:hi] = np.bincount(anc - lo, weights=t**e * weight, minlength=hi - lo)
        anc = grid.parent[anc]
    return scale, out


@pytest.mark.parametrize("d,depth", [(1, 7), (2, 4), (3, 3)])
def test_sweep_bits_match_the_serial_walk(kernel_threads, d, depth):
    # unscaled and scaled, with and without a shift, at the exponents with
    # numpy's fast paths (2, 0.5) and without, and scaled at the power of
    # p = 1.001; zero weights, zero contributions and scales of 0 included,
    # inline and on two threads
    grid = build_grid(d, depth)
    rng = np.random.default_rng(d)
    contrib = rng.random(grid.n_cubes) * (rng.random(grid.n_cubes) < 0.7)
    weight = rng.random(grid.n_leaves) * (rng.random(grid.n_leaves) < 0.6)
    shift = rng.random(grid.n_cubes) * (rng.random(grid.n_cubes) < 0.5)
    floor = rng.random(grid.n_cubes) * (rng.random(grid.n_cubes) < 0.3)
    cases = [(e, s, f) for e in (2.0, 0.5, 3.0) for s in (None, shift) for f in (None, floor)]
    cases += [(1001.0, s, floor) for s in (None, shift)]  # near p = 1 the sweeps scale
    for on in (False, True):
        kernel_threads.force(on)
        for e, s, f in cases:
            got = constants._inner_power_sums(grid, contrib, weight, e, s, f)
            want = _serial_power_sums(grid, contrib, weight, e, s, f)
            for a, b in zip(got, want):
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
        if on:
            assert kernel_threads.calls and all(kernel_threads.calls)
        else:
            assert not any(kernel_threads.calls)


# -- structural properties -----------------------------------------------------


def test_testing_homogeneous_in_tau():
    g, tau, sigma, omega = _random_instance(1, 3, seed=5)
    exps = Exponents(2.0, 2.0)
    loc, _ = local_testing(tau, sigma, omega, exps)
    loc5, _ = local_testing(CubeWeights(g, 5.0 * tau.tau), sigma, omega, exps)
    assert loc5 == pytest.approx(5.0 * loc, rel=1e-12)


def test_testing_monotone_in_tau():
    g, tau, sigma, omega = _random_instance(1, 3, seed=6)
    exps = Exponents(1.5, 2.0)
    bigger = CubeWeights(g, tau.tau + 0.3)
    for sweep in (local_testing, global_testing):
        small, _ = sweep(tau, sigma, omega, exps)
        large, _ = sweep(bigger, sigma, omega, exps)
        assert large >= small - 1e-12


def test_strengthened_dominates_local():
    g, tau, sigma, omega = _random_instance(2, 2, seed=7)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0)):
        loc, _ = local_testing(tau, sigma, omega, exps)
        strong, _ = strengthened_local_testing(tau, sigma, omega, exps)
        assert strong >= loc - 1e-12


def test_testing_zero_omega_gives_zero():
    g, tau, sigma, _ = _random_instance(1, 2, seed=8)
    dead = Measure(g, np.zeros(g.n_leaves))
    assert local_testing(tau, sigma, dead, Exponents(2.0, 2.0)) == (0.0, None)
    assert global_testing(tau, sigma, dead, Exponents(2.0, 2.0)) == (0.0, None)


def test_nan_per_cube_value_raises(monkeypatch):
    # a NaN among the per-cube values must not read as "no positive value",
    # (0.0, None), which a testing <= norm check would pass untested
    g, tau, sigma, omega = _random_instance(1, 3, seed=10)
    values = constants._values

    def one_nan(*args):
        vals = values(*args)
        vals[g.n_cubes // 2] = np.nan
        return vals

    monkeypatch.setattr(constants, "_values", one_nan)
    for exps in (Exponents(2.0, 2.0), Exponents(1.5, 3.0), Exponents(1.001, 1.001)):
        with pytest.raises(FloatingPointError, match="NaN"):
            local_testing(tau, sigma, omega, exps)
        with pytest.raises(FloatingPointError, match="NaN"):
            global_testing(tau, sigma, omega, exps)


def test_report_fields_and_advisory():
    g, tau, sigma, omega = _random_instance(1, 3, seed=9)
    rep = compute_testing_report(tau, sigma, omega, Exponents(2.0, 2.0))
    assert rep.glo_advisory
    off = compute_testing_report(tau, sigma, omega, Exponents(2.0, 2.5))
    assert not off.glo_advisory
    # duals are the primal constants of the swapped pair at conjugate exponents
    exps = Exponents(2.0, 2.5)
    locd, _ = local_testing(tau, omega, sigma, exps.dual())
    assert off.loc_dual == pytest.approx(locd, rel=1e-14)
    d = rep.to_dict()
    for key in ("p", "q", "local", "local_dual", "global", "global_dual",
                "global_advisory_p_eq_q", "local_argmax"):
        assert key in d
    assert d["local_argmax"] == {"level": rep.loc_argmax.level,
                                 "coords": list(rep.loc_argmax.coords)}
