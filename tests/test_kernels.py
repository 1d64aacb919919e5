"""Tree-scan kernels against their definitions: ancestor prefixes and subtree sums.

The batched kernels must agree bit-for-bit with the 1-D ones, row by row: the
accumulation order is pinned, so a value does not depend on which of the two
computed it.
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


def test_batch_matches_single_row():
    grid = build_grid(1, 5)
    rng = np.random.default_rng(10)
    rows = rng.standard_normal((6, grid.n_cubes))
    down = _kernels.down_sum_batch(rows, grid.parent, grid.level_offsets)
    up = _kernels.up_sum_batch(rows, grid.child_order, grid.level_offsets)
    for r in range(rows.shape[0]):
        assert np.array_equal(down[r], _kernels.down_sum(rows[r], grid.parent, grid.level_offsets))
        assert np.array_equal(up[r], _kernels.up_sum(rows[r], grid.child_order, grid.level_offsets))
