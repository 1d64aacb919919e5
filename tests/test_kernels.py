"""Tree-scan kernels against their definitions: ancestor prefixes and subtree sums.

The batched kernels must agree bit-for-bit with the 1-D ones, row by row: the
accumulation order is pinned, so a value does not depend on which of the two
computed it. On grids whose deep levels reach ``STRIDED_MIN_CUBES`` the
kernels read those levels through strided views; every kernel must then match
the index-gather scan kept here as the oracle, bit for bit. The oracle groups
each level's cubes by parent with a stable argsort of ``parent``, a recipe of
its own rather than the layout's.
"""

import numpy as np
import pytest

from twoweight import _kernels, _layout
from twoweight.grid import build_grid
from twoweight.prooflab import _sibling_mass


def _rand(grid, rng):
    return rng.standard_normal(grid.n_cubes)


def test_down_sum_is_ancestor_prefix():
    grid = build_grid(2, 3)
    rng = np.random.default_rng(7)
    vals = _rand(grid, rng)
    out = _kernels.down_sum(vals, grid.parent, grid.level_offsets)
    for i in range(grid.n_cubes):
        acc = 0.0
        j = i
        while j >= 0:
            acc += vals[j]
            j = int(grid.parent[j])
        assert out[i] == pytest.approx(acc, rel=1e-14)


def test_down_max_is_ancestor_max():
    grid = build_grid(1, 5)
    rng = np.random.default_rng(8)
    vals = _rand(grid, rng)
    out = _kernels.down_max(vals, grid.parent, grid.level_offsets)
    for i in range(grid.n_cubes):
        chain = [vals[j] for j in grid.ancestor_indices(i)]
        assert out[i] == max(chain)


def test_up_sum_is_subtree_sum():
    grid = build_grid(2, 2)
    rng = np.random.default_rng(9)
    vals = _rand(grid, rng)
    out = _kernels.up_sum(vals, grid.level_offsets)
    for i in range(grid.n_cubes):
        mask = grid.subtree_cube_mask(i)
        assert out[i] == pytest.approx(vals[mask].sum(), rel=1e-13, abs=1e-13)


# deep levels at or above the strided crossover, shallow ones below it
CROSSING = [(1, 13), (2, 7), (3, 5), (4, 4)]


def _argsort_child_order(grid):
    """Per cube, grouped by parent level by level: the stable sort keeps each
    parent's children in canonical order."""
    order = np.zeros(grid.n_cubes, dtype=np.int64)
    for lev in range(1, grid.depth + 1):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        order[lo:hi] = lo + np.argsort(grid.parent[lo:hi], kind="stable")
    return order


def _gather_down(values, parent, level_offsets, op):
    out = np.array(values, dtype=np.float64, copy=True)
    for lev in range(1, len(level_offsets) - 1):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        out[..., lo:hi] = op(out[..., lo:hi], out[..., parent[lo:hi]])
    return out


def _gather_up(values, child_order, level_offsets):
    acc = np.array(values, dtype=np.float64, copy=True)
    for lev in range(len(level_offsets) - 2, 0, -1):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        plo, phi = level_offsets[lev - 1], level_offsets[lev]
        arity = (hi - lo) // (phi - plo)
        child_vals = acc[..., child_order[lo:hi]].reshape(acc.shape[:-1] + (phi - plo, arity))
        for s in range(arity):
            acc[..., plo:phi] += child_vals[..., s]
    return acc


def _oracles(grid):
    return {
        "down_sum": lambda v: _gather_down(v, grid.parent, grid.level_offsets, np.add),
        "down_max": lambda v: _gather_down(v, grid.parent, grid.level_offsets, np.maximum),
        "up_sum": lambda v: _gather_up(v, _argsort_child_order(grid), grid.level_offsets),
        "down_sum_batch": lambda v: _gather_down(v, grid.parent, grid.level_offsets, np.add),
        "up_sum_batch": lambda v: _gather_up(v, _argsort_child_order(grid), grid.level_offsets),
    }


def _grid_arrays(grid, name):
    # leaf-to-root kernels take the level offsets alone
    return (grid.level_offsets,) if name.startswith("up") else (grid.parent, grid.level_offsets)


@pytest.mark.parametrize("d,depth", CROSSING)
def test_crossing_grids_have_levels_on_both_sides(d, depth):
    sizes = np.diff(build_grid(d, depth).level_offsets)
    assert sizes[-1] >= _kernels.STRIDED_MIN_CUBES > sizes[depth - 2]


@pytest.mark.parametrize("d,depth", CROSSING)
@pytest.mark.parametrize("name", ["down_sum", "down_max", "up_sum", "down_sum_batch", "up_sum_batch"])
def test_kernels_match_gather_oracle(d, depth, name):
    grid = build_grid(d, depth)
    rng = np.random.default_rng(11)
    shape = (3, grid.n_cubes) if name.endswith("batch") else (grid.n_cubes,)
    vals = rng.standard_normal(shape)
    vals.flat[rng.integers(0, vals.size, 50)] = 0.0
    kernel = getattr(_kernels, name)
    arrays = _grid_arrays(grid, name)
    expect = _oracles(grid)[name](vals)
    assert np.array_equal(kernel(vals, *arrays), expect)
    if name == "down_max":  # no out=: its callers keep their inputs
        return
    # into a separate buffer: the input stays as it was
    before = vals.copy()
    buf = np.full(shape, np.nan)
    assert kernel(vals, *arrays, out=buf) is buf
    assert np.array_equal(buf, expect)
    assert np.array_equal(vals, before)
    # in place
    assert kernel(vals, *arrays, out=vals) is vals
    assert np.array_equal(vals, expect)


def test_batch_matches_single_row():
    for d, depth in [(1, 5)] + CROSSING:
        grid = build_grid(d, depth)
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((6, grid.n_cubes))
        down = _kernels.down_sum_batch(rows, grid.parent, grid.level_offsets)
        up = _kernels.up_sum_batch(rows, grid.level_offsets)
        for r in range(rows.shape[0]):
            assert np.array_equal(down[r], _kernels.down_sum(rows[r], grid.parent, grid.level_offsets))
            assert np.array_equal(up[r], _kernels.up_sum(rows[r], grid.level_offsets))


@pytest.mark.parametrize("d,depth", CROSSING)
def test_layout_child_order_matches_argsort(d, depth):
    grid = build_grid(d, depth)
    oracle = _argsort_child_order(grid)
    for lev in range(1, depth + 1):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        if hi - lo < _kernels.STRIDED_MIN_CUBES:  # the levels the kernels gather
            groups = _layout.child_groups(lev, d)
            assert not groups.flags.writeable
            assert np.array_equal(lo + groups.ravel(), oracle[lo:hi])
    for i in range(grid.leaf_start):  # a parent's children are its group of the next level
        lev = int(grid.levels[i])
        start = grid.level_offsets[lev + 1] + (i - grid.level_offsets[lev]) * grid.arity
        assert np.array_equal(grid.children_indices(i), oracle[start : start + grid.arity])
    # the sibling masses, read through the child-slot views on every level, equal
    # the argsort-grouped formula bit for bit
    rng = np.random.default_rng(d)
    mass = rng.standard_normal(grid.n_cubes) * rng.lognormal(size=grid.n_cubes)
    expect = np.zeros(grid.n_cubes)
    for lev in range(1, depth + 1):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        group = oracle[lo:hi].reshape(-1, grid.arity)
        vals = mass[group]
        for j in range(grid.arity):
            expect[group[:, j]] = np.delete(vals, j, axis=1).sum(axis=1)
    assert np.array_equal(_sibling_mass(grid, mass), expect)
