"""Tree-scan kernels against their definitions: ancestor prefixes and subtree sums.

The batched kernels must agree bit-for-bit with the 1-D ones, row by row: the
accumulation order is pinned, so a value does not depend on which of the two
computed it. On grids whose deep levels reach ``STRIDED_MIN_CUBES`` the
kernels read those levels through strided views; every kernel must then match
the index-gather scan kept here as the oracle, bit for bit.
"""

import numpy as np
import pytest

from twoweight import _kernels
from twoweight.grid import build_grid


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
    out = _kernels.up_sum(vals, grid.child_order, grid.level_offsets)
    for i in range(grid.n_cubes):
        mask = grid.subtree_cube_mask(i)
        assert out[i] == pytest.approx(vals[mask].sum(), rel=1e-13, abs=1e-13)


# deep levels at or above the strided crossover, shallow ones below it
CROSSING = [(1, 13), (2, 7), (3, 5)]


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
        "up_sum": lambda v: _gather_up(v, grid.child_order, grid.level_offsets),
        "down_sum_batch": lambda v: _gather_down(v, grid.parent, grid.level_offsets, np.add),
        "up_sum_batch": lambda v: _gather_up(v, grid.child_order, grid.level_offsets),
    }


def _index(grid, name):
    return grid.child_order if name.startswith("up") else grid.parent


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
    idx = _index(grid, name)
    expect = _oracles(grid)[name](vals)
    assert np.array_equal(kernel(vals, idx, grid.level_offsets), expect)
    if name == "down_max":  # no out=: its callers keep their inputs
        return
    # into a separate buffer: the input stays as it was
    before = vals.copy()
    buf = np.full(shape, np.nan)
    assert kernel(vals, idx, grid.level_offsets, out=buf) is buf
    assert np.array_equal(buf, expect)
    assert np.array_equal(vals, before)
    # in place
    assert kernel(vals, idx, grid.level_offsets, out=vals) is vals
    assert np.array_equal(vals, expect)


def test_batch_matches_single_row():
    for d, depth in [(1, 5)] + CROSSING:
        grid = build_grid(d, depth)
        rng = np.random.default_rng(10)
        rows = rng.standard_normal((6, grid.n_cubes))
        down = _kernels.down_sum_batch(rows, grid.parent, grid.level_offsets)
        up = _kernels.up_sum_batch(rows, grid.child_order, grid.level_offsets)
        for r in range(rows.shape[0]):
            assert np.array_equal(down[r], _kernels.down_sum(rows[r], grid.parent, grid.level_offsets))
            assert np.array_equal(up[r], _kernels.up_sum(rows[r], grid.child_order, grid.level_offsets))
