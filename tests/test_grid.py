"""Grid indexing, measures, and exponent pairs."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoweight import _kernels
from twoweight import grid as grid_module
from twoweight.grid import (
    CubeRef,
    DyadicGrid,
    Exponents,
    GridSizeError,
    Measure,
    build_grid,
    cube_averages,
    cube_integrals,
    lp_norm,
)
from twoweight.operators import CubeWeights


# -- indexing -----------------------------------------------------------------


def test_canonical_index_d1_depth2():
    # the frozen layout: 0 root, 1-2 halves, 3-6 quarters left to right
    g = build_grid(1, 2)
    assert g.n_cubes == 7
    assert g.index_of(CubeRef(0, (0,))) == 0
    assert g.index_of(CubeRef(1, (0,))) == 1
    assert g.index_of(CubeRef(1, (1,))) == 2
    assert [g.index_of(CubeRef(2, (k,))) for k in range(4)] == [3, 4, 5, 6]
    assert list(g.parent[:7]) == [-1, 0, 0, 1, 1, 2, 2]


def test_level_offsets_are_geometric():
    g = build_grid(2, 3)
    assert list(g.level_offsets) == [0, 1, 5, 21, 85]
    assert g.n_leaves == 64 and g.leaf_start == 21


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 5), (2, 3), (3, 2), (4, 2)])
def test_level_of_and_per_cube_match_the_level_blocks(d, depth):
    g = build_grid(d, depth)
    levels = np.repeat(np.arange(depth + 1), np.diff(g.level_offsets))
    cubes = np.arange(g.n_cubes)
    assert np.array_equal(g.level_of(cubes), levels)
    assert [g.level_of(i) for i in range(g.n_cubes)] == levels.tolist()
    assert all(type(g.level_of(i)) is int for i in (0, g.n_cubes - 1, np.int64(1)))
    assert np.array_equal(g.level_of(cubes.reshape(-1, 1)), levels.reshape(-1, 1))
    assert np.array_equal(g.level_volumes, [2.0 ** (-d * lev) for lev in range(depth + 1)])
    assert np.array_equal(g.per_cube(g.level_volumes), np.power(2.0, -float(d) * levels))
    assert g.leaf_volume == g.level_volumes[-1]


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 5), (3, 3), (1, 12), (2, 7), (4, 3)])
def test_divide_by_volume_is_the_per_cube_division(d, depth):
    # both sides of the crossover: level by level from 4096 leaves on, per cube below
    g = build_grid(d, depth)
    rng = np.random.default_rng(d * 100 + depth)
    vals = rng.standard_normal(g.n_cubes) * rng.lognormal(0.0, 30.0, g.n_cubes)
    vals[rng.integers(0, g.n_cubes, 5)] = -0.0
    vals[-1], vals[0] = 5e-324, np.inf
    expect = (vals / g.per_cube(g.level_volumes)).tobytes()
    assert g.divide_by_volume(vals).tobytes() == expect
    assert g.divide_by_volume(vals, out=vals) is vals
    assert vals.tobytes() == expect


def _bytes_per_cube(obj, n_cubes):
    """Bytes of the arrays an object holds, per cube. A held view adds nothing,
    and must look into an array the object holds itself."""
    held = [v for v in vars(obj).values() if isinstance(v, np.ndarray)]
    own = [a for a in held if a.base is None]
    assert all(any(a.base is b for b in own) for a in held if a.base is not None)
    return sum(a.nbytes for a in own) / n_cubes


@pytest.mark.parametrize("d,depth", [(1, 16), (2, 8)])
def test_bytes_held_per_cube(d, depth):
    # one int64 parent link per cube, plus O(depth) per-level numbers; one mass
    # array per measure; tau and tau/|Q| per set of cube weights
    g = DyadicGrid(d, depth)
    assert _bytes_per_cube(g, g.n_cubes) <= 8 + 16 * (depth + 2) / g.n_cubes
    rng = np.random.default_rng(0)
    mu = Measure(g, rng.exponential(size=g.n_leaves))
    assert _bytes_per_cube(mu, g.n_cubes) <= 8
    assert np.shares_memory(mu.leaf_mass, mu.cube_mass) and not mu.leaf_mass.flags.writeable
    tau = CubeWeights(g, rng.uniform(size=g.n_cubes))
    assert _bytes_per_cube(tau, g.n_cubes) <= 16


def test_index_roundtrip():
    g = build_grid(2, 2)
    for i in range(g.n_cubes):
        assert g.index_of(g.cube(i)) == i


def test_ancestor_chain():
    g = build_grid(1, 3)
    leaf = g.n_cubes - 1  # rightmost leaf
    chain = g.ancestor_indices(leaf)
    assert chain[0] == leaf and chain[-1] == 0
    assert len(chain) == g.depth + 1
    assert g.ancestor_indices(g.parent[leaf]) == chain[1:]
    assert g.ancestor_indices(0) == [0]
    for i in range(g.n_cubes):  # the parent walk, one step at a time
        walk = [i]
        while g.parent[walk[-1]] >= 0:
            walk.append(int(g.parent[walk[-1]]))
        chain = g.ancestor_indices(i)
        assert chain == walk and all(type(c) is int for c in chain)


def test_subtree_masks():
    g = build_grid(1, 3)
    m = g.subtree_cube_mask(1)  # left half
    idx = np.flatnonzero(m)
    assert 1 in idx and 0 not in idx
    assert len(idx) == 1 + 2 + 4
    leaves = np.flatnonzero(g.subtree_leaf_mask(1))
    assert list(leaves) == [0, 1, 2, 3]


@pytest.mark.parametrize("d,depth", [(1, 5), (2, 3), (3, 2)])
def test_subtree_cube_mask_matches_scan_oracle(d, depth):
    # the box-slice mask against the root-to-leaf scan of a one-hot vector
    g = build_grid(d, depth)
    for i in range(g.n_cubes):
        onehot = np.zeros(g.n_cubes)
        onehot[i] = 1.0
        scan = _kernels.down_sum(onehot, g) == 1.0
        mask = g.subtree_cube_mask(i)
        assert mask.dtype == bool and np.array_equal(mask, scan)
        assert np.array_equal(g.subtree_leaf_mask(i), scan[g.leaf_start :])
    assert np.array_equal(g.subtree_cube_mask(g.cube(g.n_cubes - 1)), g.subtree_cube_mask(g.n_cubes - 1))
    with pytest.raises(ValueError):
        g.subtree_cube_mask(g.n_cubes)


@pytest.mark.parametrize(
    "d,depth,strided",
    [(1, 6, False), (1, 13, True), (2, 3, False), (2, 7, True),
     (3, 2, False), (3, 4, True), (4, 2, False), (4, 3, True)],
)
def test_subtree_leaf_mask_is_the_cube_mask_at_the_leaves(d, depth, strided):
    # the leaf-level box against the leaf part of the whole-subtree mask, on
    # leaf levels both sides of the strided-scan threshold
    g = build_grid(d, depth)
    assert (g.n_leaves >= _kernels.STRIDED_MIN_CUBES) == strided
    rng = np.random.default_rng(d * depth)
    cubes = np.concatenate([g.level_offsets[:-1], g.level_offsets[1:] - 1, rng.integers(0, g.n_cubes, 8)])
    for i in cubes.tolist():
        mask = g.subtree_leaf_mask(i)
        assert mask.dtype == bool and mask.flags.c_contiguous
        assert np.array_equal(mask, g.subtree_cube_mask(i)[g.leaf_start :])


@pytest.mark.parametrize("d,depth", [(1, 5), (2, 3), (3, 2)])
def test_ancestor_matches_parent_walk(d, depth):
    g = build_grid(d, depth)

    def walk(i, j):
        for _ in range(j):
            if i < 0:
                break
            i = int(g.parent[i]) if i > 0 else -1
        return i

    every = np.arange(g.n_cubes)
    steps = np.arange(depth + 3)
    expect = np.array([[walk(i, j) for j in steps] for i in every])
    for j in steps:
        assert np.array_equal(g.ancestor(every, int(j)), expect[:, j])
    # arrays broadcast against each other, and against ints
    assert np.array_equal(g.ancestor(every[:, None], steps[None, :]), expect)
    for i in every:
        got = g.ancestor(int(i), steps)
        assert got.dtype == np.int64 and np.array_equal(got, expect[i])
        assert g.ancestor(int(i), 1) == expect[i, 1] and type(g.ancestor(int(i), 1)) is int
    assert g.ancestor(every[:0], 2).shape == (0,)
    with pytest.raises(ValueError):
        g.ancestor(-1, 1)
    with pytest.raises(ValueError):
        g.ancestor(every, -1)


def test_leaf_ancestor_matrix_consistent():
    g = build_grid(2, 2)
    anc = g.leaf_ancestor_matrix()
    assert anc.shape == (g.depth + 1, g.n_leaves)
    for j, leaf in enumerate(range(g.leaf_start, g.n_cubes)):
        chain = g.ancestor_indices(leaf)  # deepest first
        assert list(anc[:, j]) == chain[::-1]


@pytest.mark.parametrize("d,depth", [(1, 4), (2, 3), (3, 2)])
def test_queries_leave_the_grid_unchanged(d, depth):
    g = DyadicGrid(d, depth)  # its own grid, not the cached one
    before = {k: (v, v.copy() if isinstance(v, np.ndarray) else v) for k, v in vars(g).items()}
    for i in (0, 1, g.leaf_start - 1, g.n_cubes - 1):
        g.ancestor(i, 2)
        g.ancestor_indices(i)
        g.subtree_cube_mask(i)
        g.subtree_leaf_mask(i)
        g.index_of(g.cube(i))
    g.ancestor(np.arange(g.n_cubes), np.arange(g.n_cubes) % (depth + 2))
    g.leaf_ancestor_matrix()
    g.subtree_sums(np.ones(g.n_leaves))
    assert vars(g).keys() == before.keys()
    arrays = {k for k, v in vars(g).items() if isinstance(v, np.ndarray)}
    assert arrays == {"level_offsets", "level_volumes", "parent"}
    for k, (obj, value) in before.items():
        assert vars(g)[k] is obj
        if k in arrays:
            assert not obj.flags.writeable and np.array_equal(obj, value)
        else:
            assert obj == value


def test_size_budget_enforced(monkeypatch):
    assert grid_module.MAX_LEAVES == 2**20
    for d, depth in ((1, 21), (2, 11), (3, 7)):  # over 2^20 leaves
        with pytest.raises(GridSizeError):
            DyadicGrid(d, depth)
    with pytest.raises(GridSizeError):
        build_grid(1, 63)  # index arithmetic would overflow int64
    # the check reads the module's budget when a grid is built
    monkeypatch.setattr(grid_module, "MAX_LEAVES", 16)
    with pytest.raises(GridSizeError):
        DyadicGrid(1, 5)  # 32 leaves over the budget
    DyadicGrid(1, 4)  # 16 exactly at the cap


def test_virtual_parent():
    g = build_grid(1, 1)
    up = CubeRef(-2)  # the root's two-fold parent
    assert up.is_virtual
    with pytest.raises(ValueError):
        g.index_of(up)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4))
# the grids whose levels cross the kernels' strided crossover
@example(1, 13)
@example(2, 7)
@example(3, 5)
@example(4, 4)
@settings(max_examples=30, deadline=None)
def test_parent_collapses_coords(d, depth):
    g = build_grid(d, depth)
    # every cube: halve each coordinate and encode the result one level up
    for lev in range(1, depth + 1):
        within = np.arange(1 << (d * lev))
        coords = [(within >> (lev * k)) & ((1 << lev) - 1) for k in range(d)]
        up = sum((c >> 1) << ((lev - 1) * k) for k, c in enumerate(coords))
        lo, hi = g.level_offsets[lev], g.level_offsets[lev + 1]
        assert np.array_equal(g.parent[lo:hi], g.level_offsets[lev - 1] + up)
    if d * depth > 8:
        return
    for i in range(1, g.n_cubes):
        cube = g.cube(i)
        up = CubeRef(cube.level - 1, tuple(c >> 1 for c in cube.coords))
        assert g.index_of(up) == int(g.parent[i])


# -- measures -----------------------------------------------------------------


def test_lebesgue_masses():
    g = build_grid(2, 2)
    mu = Measure.lebesgue(g)
    assert mu.total == pytest.approx(1.0, abs=1e-15)
    assert mu.cube_mass[1] == pytest.approx(0.25, abs=1e-15)
    assert cube_averages(mu)[0] == pytest.approx(1.0)


def test_mass_additivity_is_exact():
    g = build_grid(1, 6)
    rng = np.random.default_rng(3)
    mu = Measure(g, rng.exponential(size=g.n_leaves))
    for i in range(g.leaf_start):
        kids = np.flatnonzero(g.parent == i)
        # bit-exact because cube masses accumulate children in a fixed order
        assert mu.cube_mass[i] == mu.cube_mass[kids[0]] + mu.cube_mass[kids[1]]


def test_measure_leaf_mass_is_the_leaf_part_of_its_cube_masses():
    g = build_grid(2, 3)
    leaf = np.random.default_rng(4).exponential(size=g.n_leaves)
    mu = Measure(g, leaf)
    expect = leaf.copy()
    leaf[:] = 0.0  # the measure keeps no reference to its input
    assert np.array_equal(mu.leaf_mass, expect)
    assert mu.leaf_mass.base is mu.cube_mass
    assert np.array_equal(mu.cube_mass[g.leaf_start :], expect)


def test_weight_rejects_negative_mass():
    g = build_grid(1, 1)
    with pytest.raises(ValueError):
        Measure(g, [1.0, -1.0])
    signed = Measure(g, [1.0, -1.0], is_weight=False)
    assert signed.total == 0.0


def test_product_measure_signed():
    g = build_grid(1, 2)
    w = Measure(g, [1.0, 2.0, 3.0, 4.0])
    f = np.array([1.0, -1.0, 0.5, 0.0])
    fm = Measure.product(f, w)
    assert not fm.is_weight
    assert fm.total == pytest.approx(1.0 - 2.0 + 1.5)
    for bad in ([2.0], np.ones(8), [1.0, np.nan, 0.0, 0.0], [np.inf, 1.0, 1.0, 1.0]):
        with pytest.raises(ValueError):  # a scalar-like f would broadcast
            Measure.product(bad, w)


def test_masked_restriction():
    g = build_grid(1, 2)
    mu = Measure(g, [1.0, 2.0, 3.0, 4.0])
    restricted = mu.with_leaf_mask([True, False, False, True])
    assert restricted.total == pytest.approx(5.0)


def test_cube_integrals_match_pointwise():
    g = build_grid(2, 2)
    rng = np.random.default_rng(11)
    mu = Measure(g, rng.exponential(size=g.n_leaves))
    f = rng.standard_normal(g.n_leaves)
    ints = cube_integrals(f, mu)
    for i in range(g.n_cubes):
        mask = g.subtree_leaf_mask(i)
        assert ints[i] == pytest.approx(np.sum(f[mask] * mu.leaf_mass[mask]), rel=1e-12, abs=1e-12)
    avgs = cube_averages(mu)
    assert avgs[0] == pytest.approx(mu.total)


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 5), (2, 3), (3, 2)])
def test_subtree_sums_is_the_one_leaf_to_cube_sum(d, depth):
    g = build_grid(d, depth)
    rng = np.random.default_rng(d * 10 + depth)
    mass = rng.exponential(size=g.n_leaves)
    f = rng.standard_normal(g.n_leaves)
    sums = g.subtree_sums(mass)
    # bit-identical to the measure's masses, the integrals, and an embed-then-up_sum
    assert np.array_equal(sums, Measure(g, mass).cube_mass)
    assert np.array_equal(g.subtree_sums(f * mass), cube_integrals(f, Measure(g, mass)))
    full = np.zeros(g.n_cubes)
    full[g.leaf_start :] = mass
    assert np.array_equal(sums, _kernels.up_sum(full, g))
    for i in range(g.n_cubes):  # brute force: the leaves under each cube
        under = g.ancestor(np.arange(g.leaf_start, g.n_cubes), depth - g.cube(i).level) == i
        assert sums[i] == pytest.approx(mass[under].sum(), rel=1e-13)


@given(st.floats(min_value=1.0, max_value=8.0))
@settings(max_examples=25, deadline=None)
def test_lp_norm_scaling(p):
    g = build_grid(1, 3)
    rng = np.random.default_rng(5)
    mu = Measure(g, rng.exponential(size=g.n_leaves))
    f = rng.standard_normal(g.n_leaves)
    n1 = lp_norm(f, mu, p)
    assert lp_norm(2.0 * f, mu, p) == pytest.approx(2.0 * n1, rel=1e-12)
    assert lp_norm(-f, mu, p) == pytest.approx(n1, rel=1e-12)


def test_lp_norm_rejects_bad_p():
    g = build_grid(1, 1)
    mu = Measure.lebesgue(g)
    with pytest.raises(ValueError):
        lp_norm(np.ones(2), mu, 0.5)


# -- exponents ----------------------------------------------------------------


def test_exponent_conjugates():
    e = Exponents(1.5, 3.0)
    assert e.p_conj == pytest.approx(3.0)
    assert e.q_conj == pytest.approx(1.5)
    d = e.dual()
    assert (d.p, d.q) == (e.q_conj, e.p_conj)
    assert d.dual() == e


def test_exponent_validation():
    with pytest.raises(ValueError):
        Exponents(1.0, 2.0)
    with pytest.raises(ValueError):
        Exponents(3.0, 2.0)
    with pytest.raises(ValueError):
        Exponents(2.0, math.inf)
    assert Exponents(2.0, 2.0).is_l2
    assert not Exponents(2.0, 2.5).is_l2
