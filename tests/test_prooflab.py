"""Decomposition machinery: Whitney layers, classification, principal cubes.

The frozen examples on the depth-2 interval grid were worked out by hand
(leaf values, thresholds, and the resulting cube families) and serve as
ground truth; the randomized tests assert the built-in audits stay silent.
The oracles at the end are the per-cube definitions the tree-scan audits must
reproduce exactly, on random and on deliberately corrupted decompositions.
"""

import functools
import json
import math

import numpy as np
import pytest

from twoweight.grid import CubeRef, DyadicGrid, Measure, build_grid, cube_integrals
from twoweight.harness import GeneratorConfig, gen_instance, instance_f
from twoweight.operators import CubeWeights, apply_T, apply_T_restricted, maximal
from twoweight import _kernels, prooflab
from twoweight.prooflab import (
    DEFAULT_M,
    MaxPrincipleViolation,
    WhitneyDecomposition,
    WhitneyLayer,
    _audit_whitney,
    _principal_violations,
    audit_decomposition,
    carleson_of_principal,
    classify_cubes,
    corridor_sets,
    geometric_sum_audit,
    max_principle_audit,
    neighbor_sets,
    occurrence_audit,
    principal_cubes,
    whitney_layers,
)


def _malformed(f, bad):
    """``f`` cut to one value, or with one leaf NaN or +inf."""
    if bad == "short":
        return f[:1]
    f = f.copy()
    f[-1] = np.nan if bad == "nan" else np.inf
    return f


def _random_case(seed, d=1, depth=4, tau_style="random"):
    g = build_grid(d, depth)
    rng = np.random.default_rng(seed)
    sigma = Measure(g, rng.exponential(size=g.n_leaves))
    omega = Measure(g, rng.exponential(size=g.n_leaves))
    if tau_style == "fractional":
        tau = CubeWeights.fractional(g, 0.5 * g.d)
    elif tau_style == "sparse":
        t = rng.exponential(size=g.n_cubes)
        t[rng.random(g.n_cubes) < 0.6] = 0.0
        tau = CubeWeights(g, t)
    else:
        tau = CubeWeights(g, rng.exponential(size=g.n_cubes))
    f = rng.exponential(size=g.n_leaves)
    f[rng.random(g.n_leaves) < 0.2] = 0.0
    return g, tau, sigma, omega, f


# -- Whitney layers -------------------------------------------------------------


def test_whitney_frozen_two_leaf_plateau():
    g = build_grid(1, 2)
    deco = whitney_layers(g, [3.0, 3.0, 0.0, 0.0], rho=1)
    assert [lay.k for lay in deco.layers] == [1]
    lay = deco.layers[0]
    assert list(lay.cubes) == [3, 4]
    assert not lay.saturated and not lay.clamped.any()
    assert deco.violations == []


def test_whitney_saturated_layer():
    g = build_grid(1, 2)
    deco = whitney_layers(g, [3.0, 3.0, 3.0, 3.0], rho=1)
    assert len(deco.layers) == 1
    lay = deco.layers[0]
    assert lay.saturated and list(lay.cubes) == [0]
    assert deco.violations == []
    # the root's parent lies above the root and still covers every leaf once
    assert deco.fo_max == deco.crowd_max == 1


def test_whitney_leaf_clamp_flagged():
    # a single hot leaf: the topmost contained ancestor is the leaf itself,
    # so descending rho more levels clamps and gets flagged
    g = build_grid(1, 2)
    deco = whitney_layers(g, [9.0, 1.0, 1.0, 1.0], rho=1)
    top = deco.layers[-1]
    assert list(top.cubes) == [3]
    assert top.clamped.all()
    assert deco.violations == []


def test_whitney_window_covers_value_range():
    g, tau, sigma, _, f = _random_case(1)
    v = apply_T(tau, Measure.product(f, sigma))
    deco = whitney_layers(g, v)
    ks = [lay.k for lay in deco.layers]
    pos = v[v > 0]
    assert 2.0 ** ks[0] < pos.min() <= 2.0 ** (ks[0] + 1)
    assert 2.0 ** ks[-1] < pos.max() <= 2.0 ** (ks[-1] + 1)
    # each layer's cubes cover Omega_k disjointly (that audit already ran,
    # but recheck one layer explicitly)
    lay = deco.layers[len(deco.layers) // 2]
    cover = np.zeros(g.n_leaves, dtype=np.int64)
    for c in lay.cubes:
        cover += g.subtree_leaf_mask(int(c))
    target = deco.omega_mask(lay.k)
    assert np.all(cover[target] == 1) and np.all(cover[~target] == 0)


def test_whitney_zero_function():
    g = build_grid(1, 2)
    deco = whitney_layers(g, np.zeros(4))
    assert deco.layers == [] and deco.violations == []


def test_whitney_validation():
    g = build_grid(1, 2)
    with pytest.raises(ValueError):
        whitney_layers(g, np.ones(4), rho=0)
    with pytest.raises(ValueError):
        whitney_layers(g, np.ones(3))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("rho", [1, 2])
def test_whitney_audits_silent_on_random_input(seed, rho):
    d = 1 + seed % 2
    depth = 5 if d == 1 else 3
    g, tau, sigma, _, f = _random_case(seed, d=d, depth=depth)
    v = apply_T(tau, Measure.product(f, sigma))
    deco = whitney_layers(g, v, rho=rho)
    assert deco.violations == []
    assert deco.fo_max <= 8 * 2 ** ((rho + 1) * g.d)
    assert deco.crowd_max <= 2 ** (rho + 2) * 2 ** (rho * g.d)


# -- corridors and classification -------------------------------------------------


def test_corridor_union_is_clipped_band():
    g, tau, sigma, _, f = _random_case(2, depth=5)
    v = apply_T(tau, Measure.product(f, sigma))
    deco = whitney_layers(g, v)
    cor = corridor_sets(deco, m=2)
    assert cor.violations == []
    lay = deco.layers[0]
    band = deco.omega_mask(lay.k + 1) & ~deco.omega_mask(lay.k + 2)
    union = np.zeros(g.n_leaves, dtype=bool)
    for i, c in enumerate(lay.cubes):  # the first layer's entries come first
        leaves = cor.corridor(i)
        assert np.all(g.subtree_leaf_mask(int(c))[leaves])  # inside the cube
        union[leaves] = True
    np.testing.assert_array_equal(union, band & deco.omega_mask(lay.k))


def test_corridor_m_validation():
    g = build_grid(1, 2)
    deco = whitney_layers(g, [3.0, 3.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        corridor_sets(deco, m=0)


def test_classify_eta_validation():
    g, tau, sigma, omega, f = _random_case(3)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    with pytest.raises(ValueError):
        classify_cubes(corridor_sets(deco), f, sigma, omega, tau, eta=1.0)


@pytest.mark.parametrize("seed", range(6))
def test_classification_clean_and_key_inequality(seed):
    g, tau, sigma, omega, f = _random_case(seed + 10, depth=5)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    cls = classify_cubes(corridor_sets(deco), f, sigma, omega, tau)
    assert cls.violations == []
    assert len(cls.entries) == sum(len(lay.cubes) for lay in deco.layers)
    for e in cls.entries:
        assert e.cls in (1, 2, 3)
        if e.cls == 1:
            assert e.omega_corridor <= cls.eta * e.omega_cube
        else:
            assert e.omega_corridor > cls.eta * e.omega_cube
        if e.cls == 2:
            assert e.alpha > e.beta
    # audited inequality: margin never drops below 1 (up to the audit slack)
    if math.isfinite(cls.key_margin_min):
        assert cls.key_margin_min >= 1.0 - 1e-9


@pytest.mark.parametrize("bad", ["short", "nan", "inf"])
def test_classify_rejects_malformed_f(bad):
    g, tau, sigma, omega, f = _random_case(3, depth=5)
    corridors = corridor_sets(whitney_layers(g, apply_T(tau, Measure.product(f, sigma))))
    with pytest.raises(ValueError):
        classify_cubes(corridors, _malformed(f, bad), sigma, omega, tau)


def test_classified_json_structure():
    g, tau, sigma, omega, f = _random_case(4)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    cls = classify_cubes(corridor_sets(deco), f, sigma, omega, tau)
    blob = json.loads(json.dumps(cls.to_json_dict()))
    assert blob["eta"] == cls.eta and blob["m"] == cls.m
    assert len(blob["layers"]) == len(deco.layers)
    assert blob["violations"] == []


# -- neighbors and occurrences -----------------------------------------------------


def test_neighbor_sets_frozen():
    g = build_grid(1, 2)
    deco = whitney_layers(g, [3.0, 3.0, 0.0, 0.0], rho=1)
    ns = neighbor_sets(deco, 3, k=1)
    assert list(ns.neighbors) == [3, 4]  # both layer cubes meet the parent (cube 1)
    assert ns.refined.size == 0  # there is no layer k+m
    assert ns.violations == []


def test_neighbor_sets_rejects_foreign_cube():
    g = build_grid(1, 2)
    deco = whitney_layers(g, [3.0, 3.0, 0.0, 0.0], rho=1)
    with pytest.raises(ValueError):
        neighbor_sets(deco, 5, k=1)


def test_neighbor_refinements_inside_parent():
    g, tau, sigma, omega, f = _random_case(5, depth=6)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    m = 2  # small band gap so refinements actually exist on depth-6 data
    found = 0
    for lay in deco.layers:
        for c in lay.cubes:
            ns = neighbor_sets(deco, int(c), lay.k, m=m, tau=tau, omega=omega)
            assert ns.violations == []
            found += ns.refined.size
    assert found > 0


@pytest.mark.parametrize("seed", range(4))
def test_occurrence_counts_within_cap(seed):
    g, tau, sigma, omega, f = _random_case(seed + 20, depth=5)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    cls = classify_cubes(corridor_sets(deco), f, sigma, omega, tau)
    occ = occurrence_audit(cls)
    assert occ.violations == []
    assert occ.max_count <= occ.cap
    assert all(v >= 1 for v in occ.counts.values())


# -- principal cubes -----------------------------------------------------------------


def test_principal_frozen_example():
    # f = (8,1,1,1), Lebesgue: the root (average 2.75) governs everything except
    # the hot leaf cube (average 8 > 2*2.75), which becomes principal itself
    g = build_grid(1, 2)
    sigma = Measure.lebesgue(g)
    f = np.array([8.0, 1.0, 1.0, 1.0])
    forest = principal_cubes(f, sigma, seeds=range(g.n_cubes))
    assert list(forest.cubes) == [0, 3]
    assert forest.averages[0] == pytest.approx(2.75)
    assert forest.averages[3] == pytest.approx(8.0)
    assert forest.gamma[3] == 3 and forest.gamma[1] == 0 and forest.gamma[4] == 0
    assert forest.violations == [] and forest.skipped == []


def test_principal_skips_zero_mass_seeds():
    g = build_grid(1, 2)
    sigma = Measure(g, [1.0, 1.0, 0.0, 0.0])
    forest = principal_cubes(np.ones(4), sigma, seeds=[0, 5, 6])
    assert forest.skipped == [5, 6]
    assert list(forest.cubes) == [0]


def test_principal_rejects_negative_f():
    g = build_grid(1, 1)
    with pytest.raises(ValueError):
        principal_cubes(np.array([-1.0, 1.0]), Measure.lebesgue(g), seeds=[0])


@pytest.mark.parametrize("bad", ["short", "nan", "inf"])
def test_principal_rejects_malformed_f(bad):
    g, _, sigma, _, f = _random_case(3, depth=5)
    with pytest.raises(ValueError):
        principal_cubes(_malformed(f, bad), sigma, range(g.n_cubes))


def test_principal_no_usable_seeds():
    g = build_grid(1, 1)
    sigma = Measure(g, [0.0, 1.0])
    forest = principal_cubes(np.ones(2), sigma, seeds=[1])  # cube 1 has zero mass
    assert forest.cubes.size == 0 and forest.skipped == [1]


def test_geometric_sum_frozen_value():
    g = build_grid(1, 2)
    forest = principal_cubes(
        np.array([8.0, 1.0, 1.0, 1.0]), Measure.lebesgue(g), seeds=range(g.n_cubes)
    )
    # hot leaf: (2.75 + 8) / max-function 8 = 1.34375; all other leaves are smaller
    assert geometric_sum_audit(forest) == pytest.approx(1.34375, rel=1e-12)


def test_carleson_of_principal_frozen_value():
    g = build_grid(1, 2)
    forest = principal_cubes(
        np.array([8.0, 1.0, 1.0, 1.0]), Measure.lebesgue(g), seeds=range(g.n_cubes)
    )
    # (1*2.75^2 + 0.25*8^2) / ((64+3)/4)
    assert carleson_of_principal(forest, 2.0) == pytest.approx(23.5625 / 16.75, rel=1e-12)
    with pytest.raises(ValueError):
        carleson_of_principal(forest, 1.0)


@pytest.mark.parametrize("seed", range(8))
def test_principal_bounds_random(seed):
    g, tau, sigma, _, f = _random_case(seed + 30, depth=5)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    seeds = sorted({int(c) for lay in deco.layers for c in lay.cubes})
    if not seeds:
        return
    forest = principal_cubes(f, sigma, seeds)
    assert forest.violations == []
    assert geometric_sum_audit(forest) <= 2.0 + 1e-9
    for p in (1.5, 2.0, 3.0):
        pc = p / (p - 1.0)
        assert carleson_of_principal(forest, p) <= pc**p * (1 + 1e-9)


# -- maximum principle and the end-to-end audit ------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_max_principle_silent(seed):
    g, tau, sigma, _, f = _random_case(seed + 40, depth=5)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    assert max_principle_audit(corridor_sets(deco), f, sigma, tau).violations == []


@pytest.mark.parametrize("seed", range(10))
def test_full_audit_clean(seed):
    d = 1 + seed % 2
    depth = 5 if d == 1 else 3
    style = ("random", "sparse", "fractional")[seed % 3]
    g, tau, sigma, omega, f = _random_case(seed + 50, d=d, depth=depth, tau_style=style)
    rep = audit_decomposition(f, sigma, omega, tau)
    assert rep.clean, rep.violations
    assert set(rep.class_counts) == {1, 2, 3}
    assert rep.geometric_ratio <= 2.0 + 1e-9
    assert rep.carleson_ratio <= rep.carleson_cap * (1 + 1e-9)
    assert rep.occurrence_max <= rep.occurrence_cap
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["violations"] == []


def test_full_audit_report_fields():
    g, tau, sigma, omega, f = _random_case(60, depth=4)
    rep = audit_decomposition(f, sigma, omega, tau, p=3.0)
    assert rep.carleson_cap == pytest.approx(1.5**3)
    if rep.n_layers:
        # layers with an empty superlevel band are skipped, so the count can
        # only fall short of the window length
        assert rep.k_lo <= rep.k_hi
        assert rep.n_layers <= rep.k_hi - rep.k_lo + 1
    d = rep.to_dict()
    for key in ("n_layers", "class_counts", "key_margin_min", "occurrence_cap",
                "geometric_ratio", "carleson_ratio", "violations"):
        assert key in d


# -- oracles: the per-cube audits, one subtree mask or ancestor walk per cube ------------
#
# The library answers every containment question with tree scans over a layer's
# cube counts and with ``DyadicGrid.ancestor``. These are the direct
# definitions they replace; the tests below demand identical output, violation
# strings and their order included.


@functools.lru_cache(maxsize=1 << 14)
def _leaf_mask(g, c):
    """``g.subtree_leaf_mask(c)``, built once per grid and cube and read-only:
    the oracles ask for the same masks once per layer cube they examine."""
    mask = g.subtree_leaf_mask(c)
    mask.flags.writeable = False
    return mask


def _cube_parent(cube, j):
    """The j-fold dyadic parent of a real cube, by halving its coordinates j
    times; virtual once the level drops below 0."""
    level = cube.level - j
    return CubeRef(level) if level < 0 else CubeRef(level, tuple(c >> j for c in cube.coords))


def _layer(deco, k):
    """The first layer of ``deco`` with index k, or None."""
    return next((lay for lay in deco.layers if lay.k == k), None)


def _full_oracle(g, in_mask):
    return np.array([in_mask[_leaf_mask(g, c)].all() for c in range(g.n_cubes)])


def _whitney_cubes_oracle(g, in_mask, rho):
    """Each leaf's topmost ancestor inside the set, rho levels further down."""
    anc = g.leaf_ancestor_matrix()
    j = np.argmax(_full_oracle(g, in_mask)[anc], axis=0)
    w_idx = anc[np.minimum(j + rho, g.depth), np.arange(g.n_leaves)]
    sel = np.flatnonzero(in_mask)
    cubes, first = np.unique(w_idx[sel], return_index=True)
    return cubes, (j[sel][first] + rho) > g.depth


def _audit_whitney_oracle(deco):
    """(violations, fo_max, crowd_max) of the Whitney audits, cube by cube."""
    g, rho = deco.grid, deco.rho
    fo_cap = 8 * 2 ** ((rho + 1) * g.d)
    crowd_cap = 2 ** (rho + 2) * 2 ** (rho * g.d)
    out, fo_max, crowd_max = [], 0, 0
    for lay in deco.layers:
        in_mask = deco.omega_mask(lay.k)
        full = _full_oracle(g, in_mask)
        masks = [_leaf_mask(g, int(c)) for c in lay.cubes]
        cover = np.sum(masks, axis=0) if masks else np.zeros(g.n_leaves)
        if not (np.all(cover[in_mask] == 1) and np.all(cover[~in_mask] == 0)):
            out.append(f"disjoint-cover k={lay.k}: cubes do not disjointly cover the set")
        if not lay.saturated:
            for c, fl in zip(lay.cubes, lay.clamped):
                if fl:
                    continue
                up = _cube_parent(g.cube(int(c)), rho)
                if up.is_virtual or not full[g.index_of(up)]:
                    out.append(f"margin k={lay.k} cube {int(c)}: {rho}-fold parent not inside")
                up2 = _cube_parent(g.cube(int(c)), rho + 1)
                if not up2.is_virtual and full[g.index_of(up2)]:
                    out.append(
                        f"margin k={lay.k} cube {int(c)}: {rho + 1}-fold parent fails to escape"
                    )
        parent_masks = []
        for c in lay.cubes:
            up = _cube_parent(g.cube(int(c)), rho)
            parent_masks.append(
                np.ones(g.n_leaves, dtype=bool)
                if up.is_virtual
                else _leaf_mask(g, g.index_of(up))
            )
        overlap = np.sum(parent_masks, axis=0) if parent_masks else np.zeros(g.n_leaves)
        if in_mask.any():
            fo = int(overlap[in_mask].max())
            fo_max = max(fo_max, fo)
            if fo > fo_cap:
                out.append(f"finite-overlap k={lay.k}: overlap {fo} exceeds cap {fo_cap}")
        for pm in parent_masks:
            crowd = sum(1 for m in masks if np.any(m & pm))
            crowd_max = max(crowd_max, crowd)
            if crowd > crowd_cap:
                out.append(f"crowding k={lay.k}: {crowd} neighbors exceed cap {crowd_cap}")
    chains = {int(q): g.ancestor_indices(int(q)) for lay in deco.layers for q in lay.cubes}
    levels = {q: g.cube(q).level for q in chains}
    for a in deco.layers:
        for b in deco.layers:
            if a.k > b.k:
                continue
            for q in a.cubes:
                lev_q = levels[int(q)]
                for qp in b.cubes:
                    lev_p = levels[int(qp)]
                    if lev_q > lev_p and chains[int(q)][lev_q - lev_p] == int(qp):
                        out.append(
                            f"nestedness cube {int(q)} in k={a.k} strictly inside "
                            f"cube {int(qp)} of k={b.k}"
                        )
    return out, fo_max, crowd_max


def _corridor_sets_oracle(deco, m):
    g = deco.grid
    sets, out = {}, []
    for lay in deco.layers:
        band = deco.omega_mask(lay.k + m - 1) & ~deco.omega_mask(lay.k + m)
        seen = np.zeros(g.n_leaves, dtype=np.int64)
        for c in lay.cubes:
            mask = _leaf_mask(g, int(c)) & band
            seen += mask
            sets[(lay.k, int(c))] = np.flatnonzero(mask)
        target = band & deco.omega_mask(lay.k)
        if not (np.all(seen[target] == 1) and np.all(seen[~target] == 0)):
            out.append(f"corridor k={lay.k}: union of E_k(Q) differs from the clipped band")
    return sets, out


def _neighbor_sets_oracle(deco, q, k, m, tau=None, omega=None):
    """(neighbors, refined, violations) with one leaf mask per layer cube."""
    g = deco.grid
    up = _cube_parent(g.cube(q), 1)
    up_mask = (
        np.ones(g.n_leaves, dtype=bool) if up.is_virtual else _leaf_mask(g, g.index_of(up))
    )
    out = []
    crowd_cap = 2 ** (deco.rho + 2) * 2 ** (deco.rho * g.d)

    def meeting(lay):
        return sorted(int(c) for c in lay.cubes if np.any(_leaf_mask(g, int(c)) & up_mask))

    neighbors = meeting(_layer(deco, k))
    if len(neighbors) > crowd_cap:
        out.append(f"neighbor count {len(neighbors)} exceeds cap {crowd_cap} at k={k}")
    lay_hi = _layer(deco, k + m)
    refined = [] if lay_hi is None else meeting(lay_hi)
    for r in refined:
        if not np.all(up_mask[_leaf_mask(g, r)]):
            out.append(f"refinement cube {r} at k+m={k + m} is not inside the parent of {q}")
    if tau is not None and omega is not None and refined:
        band = deco.omega_mask(k + m - 1) & ~deco.omega_mask(k + m)
        e_mask = _leaf_mask(g, q) & band
        t_in = apply_T_restricted(tau, omega.with_leaf_mask(e_mask), up, "in")
        for r in refined:
            vals = t_in[_leaf_mask(g, r)]
            if vals.size and not np.all(vals == vals[0]):
                out.append(
                    f"refinement-constant localization not constant on refinement cube {r}"
                )
    return neighbors, refined, out


def _classify_oracle(deco, f, sigma, omega, tau, eta=0.25, m=DEFAULT_M):
    """(entries as (k, cube, class, alpha, beta), violations, key_margin_min), one
    inward localization per layer cube."""
    g = deco.grid
    sets, out = _corridor_sets_oracle(deco, m)
    entries, margin = [], math.inf
    for lay in deco.layers:
        above = deco.omega_mask(lay.k + m)
        for c in lay.cubes:
            c = int(c)
            leaves = sets[(lay.k, c)]
            e_mask = np.zeros(g.n_leaves, dtype=bool)
            e_mask[leaves] = True
            w_e = float(omega.leaf_mass[leaves].sum())
            w_q = float(omega.cube_mass[c])
            up = _cube_parent(g.cube(c), 1)
            dom = (
                np.ones(g.n_leaves, dtype=bool)
                if up.is_virtual
                else _leaf_mask(g, g.index_of(up))
            )
            t_in = apply_T_restricted(tau, omega.with_leaf_mask(e_mask), up, "in")
            integrand = f * t_in * sigma.leaf_mass
            alpha = float(integrand[dom & ~above].sum())
            beta = float(integrand[dom & above].sum())
            cls = 1 if w_e <= eta * w_q else (2 if alpha > beta else 3)
            entries.append((lay.k, c, cls, alpha, beta, leaves))
            lhs = lay.threshold * w_e
            if lhs > (alpha + beta) * (1 + 1e-9):
                out.append(
                    f"key inequality k={lay.k} cube {c}: {lhs!r} > alpha+beta={alpha + beta!r}"
                )
            if lhs > 0:
                margin = min(margin, (alpha + beta) / lhs)
    by_cube = {}
    for e in entries:
        by_cube.setdefault(e[1], []).append(e)
    cap = math.ceil(1.0 / eta)
    for c, group in by_cube.items():
        leaves = np.concatenate([e[5] for e in group])
        if np.unique(leaves).size < leaves.size:
            out.append(f"corridors of cube {c} overlap across layers")
        hot = sum(1 for e in group if e[2] != 1)
        if hot > cap:
            out.append(f"layer-count cube {c}: non-class-1 in {hot} layers, cap {cap}")
    return [e[:5] for e in entries], out, margin


def _max_principle_oracle(deco, f, sigma, tau, m=DEFAULT_M, rtol=1e-9):
    """The maximum-principle records, with three operator applications per layer cube."""
    g = deco.grid
    fs = Measure.product(f, sigma)
    sets, _ = _corridor_sets_oracle(deco, m)
    out = []
    for lay in deco.layers:
        thr = lay.threshold
        for c in lay.cubes:
            c = int(c)
            up1 = _cube_parent(g.cube(c), 1)
            up2 = _cube_parent(g.cube(c), 2)
            up2_mask = (
                np.ones(g.n_leaves, dtype=bool)
                if up2.is_virtual
                else _leaf_mask(g, g.index_of(up2))
            )
            out_local = apply_T_restricted(tau, fs.with_leaf_mask(up2_mask), up2, "out")
            out_far = apply_T(tau, fs.with_leaf_mask(~up2_mask))
            for leaf in np.flatnonzero(_leaf_mask(g, c)):
                for kind, vals in (("out-local", out_local), ("out-far", out_far)):
                    if vals[leaf] > thr * (1 + rtol):
                        lhs = float(vals[leaf])
                        out.append(MaxPrincipleViolation(lay.k, c, int(leaf), kind, lhs, thr))
            corridor = sets[(lay.k, c)]
            if corridor.size:
                t_in = apply_T_restricted(tau, fs, up1, "in")
                for leaf in corridor:
                    if t_in[leaf] < thr * (1 - rtol):
                        lhs = float(t_in[leaf])
                        out.append(MaxPrincipleViolation(lay.k, c, int(leaf), "in-lower", lhs, thr))
    return out


def _occurrence_oracle(deco, entries, m):
    counts = {}
    for k, c, cls, _, _ in entries:
        if cls == 3:
            for r in _neighbor_sets_oracle(deco, c, k, m)[1]:
                counts[r] = counts.get(r, 0) + 1
    return counts


def _principal_violations_oracle(g, usable, avg, family, gamma):
    strict = {c: set(g.ancestor_indices(c, include_self=False)) for c in family}
    out = []
    for i in usable:
        gov = gamma.get(i)
        if gov is None:
            out.append(f"seed {i} has no governing principal cube")
            continue
        if avg[i] > 2.0 * avg[gov] * (1 + 1e-12):
            out.append(
                f"principal-domination seed {i}: average {avg[i]!r} exceeds twice that of {gov}"
            )
    fam_sorted = sorted(family, key=lambda i: g.cube(i).level)
    for gi in fam_sorted:
        for gj in fam_sorted:
            if gi in strict[gj] and not (2.0 * avg[gi] < avg[gj]):
                out.append(f"principal-doubling chain {gj} inside {gi}: averages fail to double")
    return out


def _principal_cubes_oracle(f, sigma, seeds):
    """(cubes, gamma, averages, skipped, violations, checks), walking ancestor lists per seed."""
    g = sigma.grid
    seed_idx = sorted({g.index_of(s) for s in seeds})
    skipped = [i for i in seed_idx if sigma.cube_mass[i] == 0]
    usable = [i for i in seed_idx if sigma.cube_mass[i] > 0]
    if not usable:
        return [], {}, {}, skipped, [], 0
    ints = cube_integrals(f, sigma)
    avg = {i: float(ints[i] / sigma.cube_mass[i]) for i in usable}
    strict = {i: set(g.ancestor_indices(i, include_self=False)) for i in usable}

    family = []
    pool = set(usable)
    queue = [i for i in usable if not strict[i] & pool]
    while queue:
        gov = queue.pop()
        family.append(gov)
        inside = {i for i in usable if gov in strict[i] and avg[i] > 2.0 * avg[gov]}
        queue.extend(i for i in usable if i in inside and not strict[i] & inside)
    gamma = {}
    members = set(family)
    for i in usable:
        for a in g.ancestor_indices(i):
            if a in members:
                gamma[i] = a
                break
    return (
        sorted(family),
        gamma,
        {i: avg[i] for i in family},
        skipped,
        _principal_violations_oracle(g, usable, avg, family, gamma),
        # one domination check per seed, one doubling check per member pair on a chain
        len(usable) + sum(len(strict[c] & members) for c in family),
    )


def _assert_principal_matches_oracle(f, sigma, seeds):
    forest = principal_cubes(f, sigma, seeds)
    got = (
        forest.cubes.tolist(),
        forest.gamma,
        forest.averages,
        forest.skipped,
        forest.violations,
        forest.checks,
    )
    assert got == _principal_cubes_oracle(f, sigma, seeds)
    return forest


def _geometric_sum_oracle(forest):
    g = forest.grid
    numer = np.zeros(g.n_leaves)
    for c in forest.cubes:
        numer[g.subtree_leaf_mask(int(c))] += forest.averages[int(c)]
    mx = maximal(forest.f, forest.sigma)
    ok = mx > 0
    return float((numer[ok] / mx[ok]).max()) if np.any(ok) else 0.0


# -- new audits against the oracles ---------------------------------------------------------


def _spiky_case(d, depth, seed):
    inst = gen_instance(GeneratorConfig(d=d, depth=depth, sigma="spikes", tau="sparse"), seed)
    return inst.grid, inst.tau, inst.sigma, inst.omega, instance_f(inst)


def _oracles(deco, tau, omega, ms=(2, DEFAULT_M), f=None, sigma=None):
    """What the oracles give on ``deco``: the Whitney audits and, per m, the
    corridors, the neighbour sets of every layer cube and, with ``f`` and
    ``sigma``, the classification, occurrence counts and maximum principle.

    They call grid and operator functions only, never the blocked prooflab
    stages, so they do not depend on ``prooflab._LAYER_CELLS``.
    """
    want = {"whitney": _audit_whitney_oracle(deco)}
    for m in ms:
        if f is not None:
            entries, viol, margin = _classify_oracle(deco, f, sigma, omega, tau, m=m)
            occurrences = _occurrence_oracle(deco, entries, m)
            want["classified", m] = (
                entries, viol, margin, occurrences, _max_principle_oracle(deco, f, sigma, tau, m)
            )
        want["corridors", m] = _corridor_sets_oracle(deco, m)
        want["neighbors", m] = [
            _neighbor_sets_oracle(deco, int(c), lay.k, m, tau, omega)
            for lay in deco.layers
            for c in lay.cubes
        ]
    return want


def _assert_classified_matches_oracles(deco, f, sigma, omega, tau, m, want):
    """Classification, occurrence counts and maximum principle of ``deco`` against
    the oracles' ``want["classified", m]``."""
    corridors = corridor_sets(deco, m)
    cls = classify_cubes(corridors, f, sigma, omega, tau)
    entries, viol, margin, occurrences, max_principle = want
    assert [(e.k, e.cube, e.cls) for e in cls.entries] == [e[:3] for e in entries]
    assert cls.violations == viol
    got = np.array([(e.alpha, e.beta) for e in cls.entries]).reshape(-1, 2)
    expected = np.array([e[3:] for e in entries]).reshape(-1, 2)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert cls.key_margin_min == pytest.approx(margin, rel=1e-12)
    assert occurrence_audit(cls).counts == occurrences
    mp = max_principle_audit(corridors, f, sigma, tau).violations
    assert mp == max_principle
    return cls, mp


def _assert_matches_oracles(deco, tau, omega, ms=(2, DEFAULT_M), f=None, sigma=None, want=None):
    """Every layer audit of ``deco`` against its oracle; returns the Whitney violations.

    With ``f`` and ``sigma`` the classification, occurrence counts and maximum
    principle are compared as well. ``want`` is ``_oracles`` of the same
    arguments, computed here when omitted.
    """
    want = want if want is not None else _oracles(deco, tau, omega, ms, f, sigma)
    fresh = WhitneyDecomposition(deco.grid, deco.v, deco.rho, deco.base, deco.layers)
    _audit_whitney(fresh)
    assert (fresh.violations, fresh.fo_max, fresh.crowd_max) == want["whitney"]
    for m in ms:
        if f is not None:
            _assert_classified_matches_oracles(deco, f, sigma, omega, tau, m, want["classified", m])
        cor = corridor_sets(deco, m)
        sets, viol = want["corridors", m]
        assert cor.violations == viol
        # one entry per layer cube, repeats included, in the oracle's order
        keys = [(deco.layers[j].k, c) for j, c in zip(cor.layer.tolist(), cor.cube.tolist())]
        assert len(keys) == sum(len(lay.cubes) for lay in deco.layers)
        assert list(dict.fromkeys(keys)) == list(sets)
        for i, key in enumerate(keys):
            np.testing.assert_array_equal(cor.corridor(i), sets[key])
        got = []
        for lay in deco.layers:
            for c in lay.cubes:
                ns = neighbor_sets(deco, int(c), lay.k, m, tau=tau, omega=omega)
                got.append((ns.neighbors.tolist(), ns.refined.tolist(), ns.violations))
        assert got == want["neighbors", m]
    return fresh.violations


LAYER_INPUTS = [
    (1, 6, 0), (1, 6, 1), (1, 7, 2), (2, 1, 8), (2, 3, 0), (2, 3, 1), (2, 4, 3), (3, 2, 0),
    (3, 2, 4),
]
CORRUPTED_INPUTS = [(1, 6, 1), (2, 3, 1), (3, 2, 4)]


@pytest.mark.parametrize("rho", [1, 2])
@pytest.mark.parametrize("d,depth,seed", LAYER_INPUTS)
def test_layer_audits_match_oracles(d, depth, seed, rho):
    g, tau, sigma, omega, f = _spiky_case(d, depth, seed)
    v = apply_T(tau, Measure.product(f, sigma))
    deco = whitney_layers(g, v, rho=rho)
    for lay in deco.layers:
        if not lay.saturated:
            cubes, clamped = _whitney_cubes_oracle(g, deco.omega_mask(lay.k), rho)
            np.testing.assert_array_equal(lay.cubes, cubes)
            np.testing.assert_array_equal(lay.clamped, clamped)
    assert _assert_matches_oracles(deco, tau, omega, f=f, sigma=sigma) == deco.violations == []

    seeds = sorted({int(c) for lay in deco.layers for c in lay.cubes})
    forest = _assert_principal_matches_oracle(f, sigma, seeds)
    assert geometric_sum_audit(forest) == _geometric_sum_oracle(forest)


@pytest.mark.parametrize("d,depth", [(1, 12), (2, 6)])
@pytest.mark.parametrize("pool", ["layers", "every"])
def test_principal_sweep_matches_oracle(d, depth, pool):
    g, tau, sigma, _, f = _spiky_case(d, depth, 0)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    layers = sorted({int(c) for lay in deco.layers for c in lay.cubes})
    seeds = layers if pool == "layers" else range(g.n_cubes)
    forest = _assert_principal_matches_oracle(f, sigma, seeds)
    assert forest.cubes.size >= 100


def test_principal_cubes_takes_no_ancestor_queries(monkeypatch):
    calls = []
    ancestor = DyadicGrid.ancestor

    def counting(self, *args):
        calls.append(1)
        return ancestor(self, *args)

    g, _, sigma, _, f = _random_case(5, depth=12)
    monkeypatch.setattr(DyadicGrid, "ancestor", counting)
    forest = principal_cubes(f, sigma, range(g.n_cubes))
    assert forest.cubes.size >= 100 and calls == []


def _corrupt(deco, idx, cubes):
    """A copy of ``deco`` whose layer ``idx`` holds ``cubes`` (clamped flags dropped)."""
    layers = list(deco.layers)
    old = layers[idx]
    cubes = np.asarray(cubes, dtype=np.int64)
    layers[idx] = WhitneyLayer(old.k, old.threshold, cubes, np.zeros(cubes.size, bool), False)
    return WhitneyDecomposition(deco.grid, deco.v, deco.rho, deco.base, layers)


def _corrupted_cases(deco):
    """Corrupted copies of ``deco`` (at least three layers) by name, each with the
    kind of violation it must fire."""
    g = deco.grid
    mid = len(deco.layers) // 2
    cubes = deco.layers[mid].cubes
    assert len(deco.layers) >= 3 and cubes.size >= 2
    # the top layer takes in the parent of a cube of layer 1; with one or two
    # layers to a block, the two layers lie in different blocks
    top = len(deco.layers) - 1
    nested = np.union1d(deco.layers[top].cubes, g.parent[deco.layers[1].cubes[:1]])
    return {
        "dropped": (_corrupt(deco, mid, np.delete(cubes, 1)), "disjoint-cover"),
        "duplicated": (_corrupt(deco, mid, np.insert(cubes, 1, cubes[1])), "disjoint-cover"),
        "parent": (
            _corrupt(deco, mid, np.where(cubes == cubes[-1], g.parent[cubes[-1]], cubes)),
            "margin",
        ),
        "nested": (_corrupt(deco, top, nested), "nestedness"),
    }


@pytest.fixture(scope="module")
def corrupted_oracles():
    """``_oracles`` of each corrupted copy, by (input, corruption, ms): the block
    sizes change only the library side, so each is computed once."""
    return {}


def _assert_corruptions_fire(monkeypatch, cache, d, depth, seed, rows=None):
    """Each corrupted copy of the input's layers matches the oracles and fires its
    kind of violation; with ``rows``, the stages take that many layers to a block.
    The oracles' outputs are kept in ``cache``."""
    g, tau, sigma, omega, f = _spiky_case(d, depth, seed)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    if rows is not None:
        monkeypatch.setattr(prooflab, "_LAYER_CELLS", rows * g.n_cubes)
    ms = (2,)
    for name, (bad, kind) in _corrupted_cases(deco).items():
        key = (d, depth, seed, name, ms)
        if key not in cache:
            cache[key] = _oracles(bad, tau, omega, ms, f, sigma)
        viol = _assert_matches_oracles(bad, tau, omega, ms, f, sigma, want=cache[key])
        assert any(s.startswith(kind) for s in viol), name


@pytest.mark.parametrize("d,depth,seed", CORRUPTED_INPUTS)
def test_corrupted_layers_fire_the_same_violations(monkeypatch, corrupted_oracles, d, depth, seed):
    _assert_corruptions_fire(monkeypatch, corrupted_oracles, d, depth, seed)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("d,depth,seed", CORRUPTED_INPUTS)
def test_corrupted_layers_in_small_blocks_match_oracles(
    monkeypatch, corrupted_oracles, d, depth, seed, rows
):
    _assert_corruptions_fire(monkeypatch, corrupted_oracles, d, depth, seed, rows)


def _stage_outputs(deco, f, sigma, omega, tau, m):
    """Everything the layer stages report on ``deco``, as comparable values."""
    fresh = WhitneyDecomposition(deco.grid, deco.v, deco.rho, deco.base, deco.layers)
    _audit_whitney(fresh)
    cor = corridor_sets(deco, m)
    cls = classify_cubes(cor, f, sigma, omega, tau)
    occ = occurrence_audit(cls)
    neighbors = prooflab._layer_neighbors(deco, range(len(deco.layers)), m, tau, omega)
    return (
        (fresh.violations, fresh.checks, fresh.fo_max, fresh.crowd_max),
        (cor.layer.tolist(), cor.cube.tolist(), cor.leaves.tolist(), cor.starts.tolist()),
        (cor.violations, cls.entries.tolist(), cls.violations, cls.checks, cls.reevaluated),
        (occ.counts, occ.checks, neighbors),
    )


def _layered_outputs(g, tau, sigma, omega, f):
    """The stage outputs of every decomposition the block tests compare: the
    layers at rho = 1 and 2, the audit of each, and the corrupted copies."""
    v = apply_T(tau, Measure.product(f, sigma))
    out = []
    for rho in (1, 2):
        deco = whitney_layers(g, v, rho=rho)
        rep = audit_decomposition(f, sigma, omega, tau, rho=rho).to_dict()
        out.append([(lay.k, lay.cubes.tolist(), lay.clamped.tolist()) for lay in deco.layers])
        out.append({k: val for k, val in rep.items() if not k.startswith("time_")})
        decos = [deco] + [bad for bad, _ in _corrupted_cases(deco).values()]
        out += [_stage_outputs(x, f, sigma, omega, tau, m) for x in decos for m in (2, DEFAULT_M)]
    return out


# (2, 1, 8) has too few layers to corrupt
@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("d,depth,seed", sorted(set(LAYER_INPUTS + CORRUPTED_INPUTS) - {(2, 1, 8)}))
def test_layer_blocks_change_no_output(monkeypatch, d, depth, seed, rows):
    # every input fits one block by default; one or two layers to a block must
    # give the same layers, findings, checks and counts, corrupted layers included
    g, tau, sigma, omega, f = _spiky_case(d, depth, seed)
    n_layers = len(whitney_layers(g, apply_T(tau, Measure.product(f, sigma))).layers)
    assert n_layers > rows and len(prooflab._blocks(g, n_layers)) == 1
    whole = _layered_outputs(g, tau, sigma, omega, f)
    monkeypatch.setattr(prooflab, "_LAYER_CELLS", rows * g.n_cubes)
    assert len(prooflab._blocks(g, n_layers)) == -(-n_layers // rows)
    assert _layered_outputs(g, tau, sigma, omega, f) == whole


def test_audit_scans_do_not_grow_with_the_layers(monkeypatch):
    # two inputs on one grid, each in one block of layers: the audit makes as
    # many tree scans and ancestor walks on 41 layers as on 10
    cases = [_spiky_case(1, 8, seed) for seed in (3, 2)]
    scans = ("down_sum", "down_max", "up_sum", "down_sum_batch", "up_sum_batch")
    calls = _Calls(monkeypatch, ())
    for name in scans:
        monkeypatch.setattr(_kernels, name, calls.counted(name, getattr(_kernels, name)))
    ancestor = DyadicGrid.ancestor
    monkeypatch.setattr(DyadicGrid, "ancestor", calls.counted("ancestor", ancestor))
    counts = []
    for g, tau, sigma, omega, f in cases:
        calls.count = dict.fromkeys((*scans, "ancestor"), 0)
        rep = audit_decomposition(f, sigma, omega, tau)
        assert rep.clean and rep.reevaluated == 0
        assert len(prooflab._blocks(g, rep.n_layers)) == 1
        counts.append((rep.n_layers, calls.count))
    (few, fewer_calls), (many, more_calls) = counts
    assert (few, many) == (10, 41)
    assert more_calls == fewer_calls


def _violations(g, usable, avg, family, gamma):
    """``_principal_violations`` on the oracle's arguments: the seed averages
    and governors as arrays in seed order, -1 for a seed without one."""
    return _principal_violations(
        g,
        np.array(usable),
        np.array([avg[i] for i in usable]),
        np.array([gamma.get(i, -1) for i in usable]),
        family,
    )


def test_non_doubling_chain_fires_the_same_violations():
    g = build_grid(1, 3)
    usable = [0, 1, 3, 4, 7]
    avg = {0: 1.0, 1: 1.5, 3: 3.0, 4: 0.5, 7: 2.5}
    family = [0, 3, 1, 7]  # 1 fails to double 0, 3 only ties with twice 1, 7 fails 1 and 3
    gamma = {0: 0, 1: 1, 3: 3, 7: 7}  # seed 4 is left ungoverned
    viol = _violations(g, usable, avg, family, gamma)
    assert viol == _principal_violations_oracle(g, usable, avg, family, gamma)
    kinds = [s.split()[0] for s in viol]
    assert kinds == ["seed"] + ["principal-doubling"] * 4

    avg[4], gamma[4] = 3.5, 1  # more than twice the average of its governor
    viol = _violations(g, usable, avg, family, gamma)
    assert viol == _principal_violations_oracle(g, usable, avg, family, gamma)
    assert viol[0].startswith("principal-domination seed 4")

    # 1 and 3 double every member above them; 7 doubles 0 and 1 but not 3
    avg = {0: 1.0, 1: 3.0, 3: 7.0, 7: 10.0}
    gamma = {0: 0, 1: 1, 3: 3, 7: 7}
    viol = _violations(g, [0, 1, 3, 7], avg, family, gamma)
    assert viol == _principal_violations_oracle(g, [0, 1, 3, 7], avg, family, gamma)
    assert viol == ["principal-doubling chain 7 inside 3: averages fail to double"]


def test_domination_failures_keep_their_strings_and_seed_order():
    g = build_grid(2, 3)
    usable = [0, 2, 5, 9, 12, 30, 44, 60]
    family = [0, 2, 9]  # doubling down every chain
    avg = {0: 1.0, 2: 2.5, 9: 6.0, 5: 0.1, 12: 2.000000000002, 30: 2.0 * 2.5 * (1 + 1e-12),
           44: 1e300, 60: 0.3}
    # 5 lies far below twice its governor's average, 12 within the relative
    # slack above it and 30 exactly on the slack bound: none of them fails.
    # 44 lies far above, and 60 has no governor
    gamma = {0: 0, 2: 2, 9: 9, 5: 0, 12: 0, 30: 2, 44: 9}
    viol = _violations(g, usable, avg, family, gamma)
    assert viol == _principal_violations_oracle(g, usable, avg, family, gamma)
    assert viol == [
        "principal-domination seed 44: average 1e+300 exceeds twice that of 9",
        "seed 60 has no governing principal cube",
    ]
    # every seed fails, the members against themselves included
    avg = {i: 10.0 ** k for k, i in enumerate(usable)}
    gamma = {i: 0 for i in usable if i != 12}
    viol = _violations(g, usable, avg, [0], gamma)
    assert viol == _principal_violations_oracle(g, usable, avg, [0], gamma)
    assert viol == [
        "principal-domination seed 2: average 10.0 exceeds twice that of 0",
        "principal-domination seed 5: average 100.0 exceeds twice that of 0",
        "principal-domination seed 9: average 1000.0 exceeds twice that of 0",
        "seed 12 has no governing principal cube",
        "principal-domination seed 30: average 100000.0 exceeds twice that of 0",
        "principal-domination seed 44: average 1000000.0 exceeds twice that of 0",
        "principal-domination seed 60: average 10000000.0 exceeds twice that of 0",
    ]


def test_ancestor_by_index():
    g = build_grid(2, 3)
    for c in range(g.n_cubes):
        chain = g.ancestor_indices(c)
        for j in range(g.depth + 3):
            assert g.ancestor(c, j) == (chain[j] if j < len(chain) else -1)
    every = np.arange(g.n_cubes)
    np.testing.assert_array_equal(g.ancestor(every, 1), g.parent)
    np.testing.assert_array_equal(g.ancestor(every, 0), every)
    leaf = g.n_cubes - 1
    assert g.ancestor(leaf, np.arange(4)).tolist() == g.ancestor_indices(leaf)
    with pytest.raises(ValueError):
        g.ancestor(g.n_cubes, 1)
    with pytest.raises(ValueError):
        g.ancestor(0, -1)


# -- batched decisions at and beyond their bounds -------------------------------------------


def _rescaled(deco, factor, only=None):
    """A copy of ``deco`` with the threshold of layer ``only`` (or of all) times ``factor``."""
    layers = [
        WhitneyLayer(lay.k, lay.threshold * factor, lay.cubes, lay.clamped, lay.saturated)
        if only in (None, i)
        else lay
        for i, lay in enumerate(deco.layers)
    ]
    return WhitneyDecomposition(deco.grid, deco.v, deco.rho, deco.base, layers)


class _Calls:
    """Counts prooflab's calls to the named functions (by default, the operator)."""

    def __init__(self, monkeypatch, names=("apply_T", "apply_T_restricted")):
        self.count = dict.fromkeys(names, 0)
        for name in self.count:
            monkeypatch.setattr(prooflab, name, self.counted(name, getattr(prooflab, name)))

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count[name] += 1
            return fn(*args, **kwargs)

        return wrapper


@pytest.mark.parametrize(
    "d,depth,seed,m,factor,kinds",
    [
        (1, 6, 1, 5, 0.01, {"out-local", "out-far"}),
        (2, 3, 1, 5, 0.5, {"out-local"}),
        (2, 3, 1, 5, 0.1, {"out-local", "out-far"}),
        (1, 6, 1, 2, 2.0, {"in-lower"}),
        (2, 3, 1, 2, 100.0, {"in-lower"}),
    ],
)
def test_max_principle_fires_like_oracle(monkeypatch, d, depth, seed, m, factor, kinds):
    g, tau, sigma, omega, f = _spiky_case(d, depth, seed)
    deco = _rescaled(whitney_layers(g, apply_T(tau, Measure.product(f, sigma))), factor)
    want = _max_principle_oracle(deco, f, sigma, tau, m)
    calls = _Calls(monkeypatch)
    mp = max_principle_audit(corridor_sets(deco, m), f, sigma, tau)
    got, checks, reevaluated = mp.violations, mp.checks, mp.reevaluated
    assert got == want
    assert {v.kind for v in got} == kinds
    assert calls.count == {"apply_T": 0, "apply_T_restricted": reevaluated}
    assert 0 < reevaluated <= len(got) and checks >= len(got)


@pytest.mark.parametrize("kind", ["out-local", "out-far", "in-lower"])
def test_max_principle_on_its_bound_takes_the_per_cube_value(kind):
    # a layer threshold placed exactly where one cube's value meets the bound:
    # the batched value cannot decide it, the per-cube one does
    g, tau, sigma, omega, f = _spiky_case(1, 6, 1)
    deco = whitney_layers(g, apply_T(tau, Measure.product(f, sigma)))
    m = 2 if kind == "in-lower" else 5
    rtol = prooflab._MP_RTOL
    shifted = _rescaled(deco, 0.01 if kind == "out-far" else (2.0 if kind == "in-lower" else 0.5))
    fired = [v for v in _max_principle_oracle(shifted, f, sigma, tau, m) if v.kind == kind]
    # the most extreme value of its kind, so no other cube's value of that kind passes the bound
    pick = (min if kind == "in-lower" else max)(fired, key=lambda v: v.lhs)
    i = next(i for i, lay in enumerate(deco.layers) if lay.k == pick.k)
    edge = pick.lhs / (1 - rtol if kind == "in-lower" else 1 + rtol)
    on_bound = _rescaled(deco, edge / deco.layers[i].threshold, only=i)
    mp = max_principle_audit(corridor_sets(on_bound, m), f, sigma, tau)
    assert mp.violations == _max_principle_oracle(on_bound, f, sigma, tau, m)
    assert mp.reevaluated >= 1


def _tie_case(threshold):
    """Two-cube layer on the depth-2 interval grid where alpha == beta == 4 exactly.

    Cube 1 (leaves 0, 1) has its corridor on leaf 0; leaf 1 lies in Omega_{k+m}.
    With unit f, sigma, omega and tau on the two top levels, the inward
    localization is 3 on leaves 0 and 1 and 1 on leaves 2 and 3, so the pairing
    splits 3 + 1 on either side of Omega_{k+m}.
    """
    g = build_grid(1, 2)
    v = np.array([1.5, 3.0, 1.5, 3.0])
    layer = WhitneyLayer(0, threshold, np.array([1, 2]), np.zeros(2, dtype=bool), False)
    deco = WhitneyDecomposition(g, v, 1, 2.0, [layer])
    tau = CubeWeights(g, [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    unit = Measure(g, np.ones(4))
    return deco, np.ones(4), unit, unit, tau


def test_classification_exact_tie_is_class_3():
    deco, f, sigma, omega, tau = _tie_case(1.0)
    cls = classify_cubes(corridor_sets(deco, 1), f, sigma, omega, tau)
    entries, viol, margin = _classify_oracle(deco, f, sigma, omega, tau, m=1)
    first = cls.entries[0]
    assert (first.cube, first.cls, first.alpha, first.beta) == (1, 3, 4.0, 4.0)
    assert [(e.k, e.cube, e.cls, e.alpha, e.beta) for e in cls.entries] == entries
    assert cls.violations == viol == [] and cls.key_margin_min == margin
    assert cls.reevaluated >= 1


def test_key_inequality_violation_prints_per_cube_values():
    deco, f, sigma, omega, tau = _tie_case(100.0)
    cls = classify_cubes(corridor_sets(deco, 1), f, sigma, omega, tau)
    _, viol, margin = _classify_oracle(deco, f, sigma, omega, tau, m=1)
    assert cls.violations == viol
    assert viol[0] == "key inequality k=0 cube 1: 100.0 > alpha+beta=8.0"
    assert cls.key_margin_min == margin


@pytest.mark.parametrize("threshold", [1.0, 1000.0])
def test_one_pass_corridor_mass_never_decides(threshold):
    # omega(E) of the root's corridor is 1.0 summed in one pass and 1 + 3 ulps
    # summed per corridor, with eta * omega(Q) in between: only the per-corridor
    # sum decides the class, and it is the value a key inequality violation prints
    g = build_grid(1, 4)
    mass = np.array([1.0] + [1e-16] * 9 + [1.0] + [0.0] * 5)
    omega = Measure(g, mass)
    one_pass = np.bincount(np.zeros(10, dtype=np.int64), mass[:10])[0]
    assert one_pass < 0.5 * omega.cube_mass[0] < mass[:10].sum()
    layer = WhitneyLayer(0, threshold, np.array([0]), np.array([False]), False)
    deco = WhitneyDecomposition(g, np.array([1.5] * 10 + [3.0] * 6), 1, 2.0, [layer])
    unit, tau, f = Measure(g, np.ones(16)), CubeWeights(g, np.ones(g.n_cubes)), np.ones(16)
    cls = classify_cubes(corridor_sets(deco, 1), f, unit, omega, tau, eta=0.5)
    entries, viol, _ = _classify_oracle(deco, f, unit, omega, tau, eta=0.5, m=1)
    assert [(e.k, e.cube, e.cls) for e in cls.entries] == [e[:3] for e in entries] == [(0, 0, 2)]
    assert cls.entries.omega_corridor[0] == mass[:10].sum()
    assert cls.violations == viol and len(viol) == (threshold > 1)



def test_audit_applies_the_operator_once(monkeypatch):
    g, tau, sigma, omega, f = _spiky_case(2, 4, 3)
    calls = _Calls(monkeypatch)
    rep = audit_decomposition(f, sigma, omega, tau)
    assert rep.n_layers >= 3 and rep.clean
    assert calls.count == {"apply_T": 1, "apply_T_restricted": rep.reevaluated}


def test_audit_runs_each_stage_once(monkeypatch):
    g, tau, sigma, omega, f = _spiky_case(1, 6, 1)
    stages = ("whitney_layers", "corridor_sets", "classify_cubes", "max_principle_audit")
    calls = _Calls(monkeypatch, stages)
    rep = audit_decomposition(f, sigma, omega, tau)
    assert rep.n_layers >= 3
    assert calls.count == dict.fromkeys(stages, 1)


@pytest.mark.parametrize("p", [1.0, 0.5, -2.0, math.nan])
def test_audit_rejects_p_at_most_one(p):
    g, tau, sigma, omega, f = _spiky_case(1, 6, 1)
    # with layers, and with none (v has no positive value), where the principal
    # Carleson ratio is never computed
    for values in (f, np.zeros(g.n_leaves)):
        with pytest.raises(ValueError, match="need p > 1"):
            audit_decomposition(values, sigma, omega, tau, p=p)



def test_report_counts_checks_and_stage_times():
    g, tau, sigma, omega, f = _spiky_case(1, 6, 1)
    rep = audit_decomposition(f, sigma, omega, tau)
    blob = json.loads(json.dumps(rep.to_dict()))
    families = {"whitney", "corridor", "classification", "neighbor", "occurrence",
                "max_principle", "principal", "geometric", "carleson"}
    assert set(blob["checks_run"]) == families
    assert all(blob["checks_run"][k] > 0 for k in families - {"occurrence"})
    assert blob["reevaluated"] == rep.reevaluated == 0
    stages = [k for k in blob if k.startswith("time_")]
    assert stages and all(blob[k] >= 0 for k in stages)
    # no layers: nothing to check, so every layer family reports zero checks
    empty = audit_decomposition(np.zeros(g.n_leaves), sigma, omega, tau)
    assert empty.clean and set(empty.checks_run.values()) == {0}
