"""Operator evaluation, localizations, and maximal functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoweight.grid import CubeRef,Exponents, Measure, UndefinedAverageError, build_grid, lp_norm
from twoweight.operators import (
    CubeWeights,
    Selection,
    SelectionError,
    apply_T,
    apply_T_restricted,
    bilinear_form,
    linearized_maximal,
    localized_two_weight_maximal,
    maximal,
)


def _volumes(g):
    """|Q| per cube, from each cube's level."""
    levels = np.repeat(np.arange(g.depth + 1), np.diff(g.level_offsets))
    return np.power(2.0, -float(g.d) * levels)


def _instance(d, depth, seed, tau_style="random"):
    g = build_grid(d, depth)
    rng = np.random.default_rng(seed)
    sigma = Measure(g, rng.exponential(size=g.n_leaves))
    omega = Measure(g, rng.exponential(size=g.n_leaves))
    if tau_style == "random":
        tau = CubeWeights(g, rng.exponential(size=g.n_cubes))
    elif tau_style == "fractional":
        tau = CubeWeights.fractional(g, 0.5 * g.d)
    else:
        tau = CubeWeights.root_only(g)
    return g, tau, sigma, omega, rng


def _apply_T_brute(tau, nu):
    """Oracle for apply_T: an explicit ancestor walk from every leaf to the root."""
    grid = tau.grid
    volumes = _volumes(grid)
    out = np.zeros(grid.n_leaves)
    for leaf_pos in range(grid.n_leaves):
        i = grid.leaf_start + leaf_pos
        acc = 0.0
        while i >= 0:
            acc += tau.tau[i] * nu.cube_mass[i] / volumes[i]
            i = int(grid.parent[i])
        out[leaf_pos] = acc
    return out


# -- CubeWeights --------------------------------------------------------------


def test_cube_weights_validation():
    g = build_grid(1, 2)
    with pytest.raises(ValueError):
        CubeWeights(g, -np.ones(g.n_cubes))
    with pytest.raises(ValueError):
        CubeWeights(g, np.ones(3))
    with pytest.raises(ValueError):
        CubeWeights.fractional(g, 1.5)  # alpha must stay below d


def test_fractional_rule_values():
    g = build_grid(2, 2)
    tau = CubeWeights.fractional(g, 1.0)
    # tau_Q = |Q|**(1/2) in d=2: 1 at the root, 1/2 one level down
    assert tau.tau[0] == pytest.approx(1.0)
    assert tau.tau[1] == pytest.approx(0.5)


# -- apply_T ------------------------------------------------------------------


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 3), (1, 6), (2, 2), (2, 3)])
@pytest.mark.parametrize("style", ["random", "fractional", "root_only"])
def test_fast_path_matches_brute_force(d, depth, style):
    g, tau, sigma, _, _ = _instance(d, depth, seed=depth * 10 + d, tau_style=style)
    fast = apply_T(tau, sigma)
    slow = _apply_T_brute(tau, sigma)
    np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=1e-13)


def test_apply_T_is_linear_in_nu():
    g, tau, sigma, omega, _ = _instance(1, 4, seed=1)
    lhs = apply_T(tau, Measure(g, sigma.leaf_mass + omega.leaf_mass))
    np.testing.assert_allclose(lhs, apply_T(tau, sigma) + apply_T(tau, omega), rtol=1e-12)


def test_apply_T_grid_mismatch():
    g1, tau, _, _, _ = _instance(1, 2, seed=2)
    other = Measure.lebesgue(build_grid(1, 3))
    with pytest.raises(ValueError):
        apply_T(tau, other)


def test_self_adjointness_of_bilinear_form():
    # <T(f sigma), g>_omega == <f, T(g omega)>_sigma == the symmetric cube sum
    g, tau, sigma, omega, rng = _instance(2, 2, seed=3)
    f = rng.exponential(size=g.n_leaves)
    h = rng.exponential(size=g.n_leaves)
    form = bilinear_form(tau, f, sigma, h, omega)
    lhs = np.sum(apply_T(tau, Measure.product(f, sigma)) * h * omega.leaf_mass)
    rhs = np.sum(apply_T(tau, Measure.product(h, omega)) * f * sigma.leaf_mass)
    assert lhs == pytest.approx(form, rel=1e-12)
    assert rhs == pytest.approx(form, rel=1e-12)


# -- localizations ------------------------------------------------------------


def test_in_plus_out_identity_exact():
    # T nu = T^in_R nu + T^out_parent(R) nu on R, with exact float equality
    # because both sides add the same contributions in the same order
    g, tau, sigma, _, _ = _instance(1, 4, seed=4)
    full = apply_T(tau, sigma)
    for i in range(g.n_cubes):
        R = g.cube(i)
        inside = apply_T_restricted(tau, sigma, R, "in")
        outside = apply_T_restricted(tau, sigma, CubeRef(R.level - 1, tuple(c >> 1 for c in R.coords)) if R.level > 0 else CubeRef(-1), "out")
        on_R = g.subtree_leaf_mask(i)
        np.testing.assert_allclose(
            (inside + outside)[on_R], full[on_R], rtol=1e-13, atol=1e-13
        )


def test_in_localization_at_root_is_full_operator():
    g, tau, sigma, _, _ = _instance(2, 2, seed=5)
    np.testing.assert_array_equal(apply_T_restricted(tau, sigma, 0, "in"), apply_T(tau, sigma))


def test_out_localization_at_leaf_is_ancestor_sum():
    g, tau, sigma, _, _ = _instance(1, 3, seed=6)
    leaf = g.n_cubes - 1
    out = apply_T_restricted(tau, sigma, leaf, "out")
    pos = leaf - g.leaf_start
    expected = sum(
        tau.tau[j] * sigma.cube_mass[j] / _volumes(g)[j] for j in g.ancestor_indices(leaf)
    )
    assert out[pos] == pytest.approx(expected, rel=1e-13)
    # other leaves only see the strict ancestors they share
    assert out[0] == pytest.approx(tau.tau[0] * sigma.total)


def test_virtual_localizations():
    g, tau, sigma, _, _ = _instance(1, 3, seed=7)
    v = CubeRef(-2)
    np.testing.assert_array_equal(apply_T_restricted(tau, sigma, v, "out"), np.zeros(g.n_leaves))
    np.testing.assert_array_equal(apply_T_restricted(tau, sigma, v, "in"), apply_T(tau, sigma))


def test_restricted_mode_validation():
    g, tau, sigma, _, _ = _instance(1, 1, seed=8)
    with pytest.raises(ValueError):
        apply_T_restricted(tau, sigma, 0, "sideways")


# -- maximal functions --------------------------------------------------------


def test_maximal_dominates_averages():
    g, _, sigma, _, rng = _instance(1, 5, seed=9)
    f = rng.exponential(size=g.n_leaves)
    m = maximal(f, sigma)
    # at every leaf, M f >= |global average| and >= |f| at the leaf (leaves have mass > 0 here)
    assert np.all(m >= np.abs(f) - 1e-12)
    glob = np.sum(np.abs(f) * sigma.leaf_mass) / sigma.total
    assert np.all(m >= glob - 1e-12)


def test_maximal_skips_zero_mass_cubes():
    g = build_grid(1, 2)
    mu = Measure(g, [0.0, 0.0, 1.0, 1.0])  # left half carries no mass
    f = np.array([5.0, 5.0, 1.0, 2.0])
    m = maximal(f, mu)
    # left leaves only see the root average (1.5); the huge f-values there are invisible
    assert m[0] == pytest.approx(1.5)
    assert m[1] == pytest.approx(1.5)
    assert m[3] == pytest.approx(2.0)


def test_maximal_needs_positive_total():
    g = build_grid(1, 1)
    mu = Measure(g, [0.0, 0.0])
    with pytest.raises(UndefinedAverageError):
        maximal(np.ones(2), mu)


def test_maximal_lp_bound_conjugate_exponent():
    # the sharp dyadic bound: ||M_mu f||_p <= p' ||f||_p for any locally finite mu
    rng = np.random.default_rng(10)
    for p in (1.5, 2.0, 3.0):
        pc = p / (p - 1.0)
        for trial in range(20):
            d = 1 + trial % 2
            depth = 4 if d == 1 else 2
            g = build_grid(d, depth)
            mu = Measure(g, rng.exponential(size=g.n_leaves))
            f = rng.exponential(size=g.n_leaves)
            ratio = lp_norm(maximal(f, mu), mu, p) / lp_norm(f, mu, p)
            assert ratio <= pc * (1 + 1e-10)


def test_selection_validation():
    g = build_grid(1, 2)
    with pytest.raises(SelectionError):
        Selection(g, {1: [2]})  # leaf 2 lies in the right half, not in cube 1
    with pytest.raises(SelectionError):
        Selection(g, {1: [0], 0: [0]})  # overlap
    with pytest.raises(SelectionError):
        Selection(g, {0: [7]})  # out of range
    sel = Selection(g, {1: [0, 1], 2: []})
    assert set(sel.sets) == {1, 2}


def test_linearized_maximal_matches_selected_averages():
    g = build_grid(1, 2)
    mu = Measure(g, [1.0, 3.0, 2.0, 2.0])
    f = np.array([4.0, 0.0, 1.0, 3.0])
    sel = Selection(g, {1: [0], 2: [2, 3]})
    lin = linearized_maximal(f, mu, sel)
    assert lin[0] == pytest.approx(1.0)  # E_mu over left half = 4/4
    assert lin[1] == 0.0
    assert lin[2] == lin[3] == pytest.approx(2.0)  # (2+6)/4
    # linearization never exceeds the maximal function where defined
    assert np.all(lin <= maximal(f, mu) + 1e-12)


def test_linearized_maximal_zero_mass_cube_raises():
    g = build_grid(1, 2)
    mu = Measure(g, [0.0, 0.0, 1.0, 1.0])
    sel = Selection(g, {1: [0]})
    with pytest.raises(UndefinedAverageError):
        linearized_maximal(np.ones(4), mu, sel)


def test_localized_maximal_supported_on_Q0():
    g, _, sigma, omega, rng = _instance(1, 4, seed=11)
    f = rng.exponential(size=g.n_leaves)
    vals = localized_two_weight_maximal(f, sigma, omega, 1, 2.0)
    on = g.subtree_leaf_mask(1)
    assert np.all(vals[~on] == 0.0)
    assert np.all(vals[on] > 0.0)


def test_localized_maximal_brute_force_parity():
    g, _, sigma, omega, rng = _instance(1, 3, seed=12)
    f = rng.exponential(size=g.n_leaves)
    p = 1.5
    vals = localized_two_weight_maximal(f, sigma, omega, 0, p)
    num = np.zeros(g.n_cubes)
    for i in range(g.n_cubes):
        mask = g.subtree_leaf_mask(i)
        num[i] = np.sum(f[mask] ** p * sigma.leaf_mass[mask])
    for leaf_pos in range(g.n_leaves):
        best = 0.0
        for i in g.ancestor_indices(g.leaf_start + leaf_pos):
            if omega.cube_mass[i] > 0:
                best = max(best, (num[i] / omega.cube_mass[i]) ** (1.0 / p))
        assert vals[leaf_pos] == pytest.approx(best, rel=1e-12)


def test_localized_maximal_uncovered_mask():
    g = build_grid(1, 2)
    sigma = Measure.lebesgue(g)
    omega = Measure(g, [1.0, 1.0, 0.0, 0.0])
    vals, uncovered = localized_two_weight_maximal(
        np.ones(4), sigma, omega, 2, 2.0, return_uncovered=True
    )
    # inside the right half no cube has positive omega-mass
    assert np.all(uncovered == np.array([False, False, True, True]))
    assert np.all(vals == 0.0)
    with pytest.raises(ValueError):
        localized_two_weight_maximal(-np.ones(4), sigma, omega, 0, 2.0)
    with pytest.raises(ValueError):
        localized_two_weight_maximal(np.ones(4), sigma, omega, 0, 0.5)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_property_in_out_split_random_R(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    depth = int(rng.integers(1, 5 if d == 1 else 3))
    g = build_grid(d, depth)
    tau = CubeWeights(g, rng.exponential(size=g.n_cubes))
    nu = Measure(g, rng.exponential(size=g.n_leaves))
    i = int(rng.integers(0, g.n_cubes))
    R = g.cube(i)
    up = CubeRef(R.level - 1, tuple(c >> 1 for c in R.coords)) if R.level > 0 else CubeRef(-1)
    split = apply_T_restricted(tau, nu, R, "in") + apply_T_restricted(tau, nu, up, "out")
    full = apply_T(tau, nu)
    on = g.subtree_leaf_mask(i)
    np.testing.assert_allclose(split[on], full[on], rtol=1e-12, atol=1e-12)
