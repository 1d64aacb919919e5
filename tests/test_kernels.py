"""Tree-scan kernels against their definitions: ancestor prefixes and subtree sums.

The batched kernels must agree bit-for-bit with the 1-D ones, row by row: the
accumulation order is pinned, so a value does not depend on which of the two
computed it. On grids whose deep levels reach ``STRIDED_MIN_CUBES`` the
kernels read those levels through strided views; every kernel must then match
the index-gather scan kept here as the oracle, bit for bit. The oracle groups
each level's cubes by parent with a stable argsort of ``parent``, a recipe of
its own rather than the layout's. "Bit for bit" compares the bytes
(``_same_bits``), so it also tells -0.0 from +0.0, which ``np.array_equal``
does not.
"""

import sys
import threading
import time

import numpy as np
import pytest

from twoweight import _kernels, _layout
from twoweight.grid import Measure, build_grid
from twoweight.operators import CubeWeights, apply_T, maximal


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _rand(grid, rng):
    return rng.standard_normal(grid.n_cubes)


def test_down_sum_is_ancestor_prefix():
    grid = build_grid(2, 3)
    rng = np.random.default_rng(7)
    vals = _rand(grid, rng)
    out = _kernels.down_sum(vals, grid)
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
    out = _kernels.down_max(vals, grid)
    for i in range(grid.n_cubes):
        chain = [vals[j] for j in grid.ancestor_indices(i)]
        assert out[i] == max(chain)


def test_up_sum_is_subtree_sum():
    grid = build_grid(2, 2)
    rng = np.random.default_rng(9)
    vals = _rand(grid, rng)
    out = _kernels.up_sum(vals, grid)
    for i in range(grid.n_cubes):
        mask = grid.subtree_cube_mask(i)
        assert out[i] == pytest.approx(vals[mask].sum(), rel=1e-13, abs=1e-13)


# deep levels at or above the strided crossover, shallow ones below it
CROSSING = [(1, 13), (2, 7), (3, 5), (4, 4)]
# every level below it
SMALL = [(1, 6), (2, 3), (3, 2), (4, 2)]


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


@pytest.mark.parametrize("d,depth", CROSSING)
def test_crossing_grids_have_levels_on_both_sides(d, depth):
    sizes = np.diff(build_grid(d, depth).level_offsets)
    assert sizes[-1] >= _kernels.STRIDED_MIN_CUBES > sizes[depth - 2]


@pytest.mark.parametrize("d,depth", CROSSING)
@pytest.mark.parametrize("name", ["down_sum", "down_max", "up_sum", "down_sum_batch", "up_sum_batch"])
def test_kernels_match_gather_oracle(d, depth, name):
    grid = build_grid(d, depth)
    rng = np.random.default_rng(11)
    kernel = getattr(_kernels, name)
    # the batch kernels also on one row, whose slice of the buffer is contiguous
    for lead in [(1,), (3,)] if name.endswith("batch") else [()]:
        shape = lead + (grid.n_cubes,)
        vals = rng.standard_normal(shape)
        vals.flat[rng.integers(0, vals.size, 50)] = 0.0
        vals.flat[rng.integers(0, vals.size, 50)] = -0.0
        expect = _oracles(grid)[name](vals)
        assert _same_bits(kernel(vals, grid), expect)
        # into a separate buffer: the input stays as it was
        before = vals.copy()
        buf = np.full(shape, np.nan)
        assert kernel(vals, grid, out=buf) is buf
        assert _same_bits(buf, expect)
        assert _same_bits(vals, before)
        # in place
        assert kernel(vals, grid, out=vals) is vals
        assert _same_bits(vals, expect)


def _signed_zero_leaves(grid, rng):
    """Leaf vectors with scattered -0.0 entries and whole subtrees of -0.0,
    from single leaves up to the root's."""
    base = rng.standard_normal(grid.n_leaves)
    base[rng.random(grid.n_leaves) < 0.2] = -0.0
    base[rng.random(grid.n_leaves) < 0.1] = 0.0
    for lev in range(grid.depth + 1):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        for c in rng.integers(lo, hi, 3).tolist():
            base[grid.subtree_leaf_mask(c)] = -0.0
    yield base
    half = base.copy()
    half[: grid.n_leaves // 2] = -0.0
    yield half
    yield np.full(grid.n_leaves, -0.0)
    yield np.zeros(grid.n_leaves)


def _subtree_oracle(grid, leaf):
    full = np.zeros(grid.n_cubes)
    full[grid.leaf_start :] = leaf
    return _gather_up(full, _argsort_child_order(grid), grid.level_offsets)


@pytest.mark.parametrize("d,depth", SMALL + CROSSING)
def test_leaf_input_kernels_keep_signed_zeros(d, depth):
    # leaf sums write their parents instead of adding into zero-filled ones;
    # the bits, signed zeros included, stay those of the zero-filled scan
    grid = build_grid(d, depth)
    rng = np.random.default_rng(20 + d)
    tau = CubeWeights(grid, rng.exponential(size=grid.n_cubes) * (rng.random(grid.n_cubes) < 0.8))
    for leaf in _signed_zero_leaves(grid, rng):
        expect = _subtree_oracle(grid, leaf)
        assert _same_bits(_kernels.subtree_sums(leaf, grid), expect)
        assert _same_bits(grid.subtree_sums(leaf), expect)
        buf = np.full(grid.n_cubes, np.nan)
        buf[grid.leaf_start :] = leaf
        assert _kernels.subtree_sums(buf[grid.leaf_start :], grid, out=buf) is buf
        assert _same_bits(buf, expect)

        nu = Measure(grid, leaf, is_weight=False)
        assert _same_bits(nu.cube_mass, expect)
        path = _gather_down(tau.coef * expect, grid.parent, grid.level_offsets, np.add)
        assert _same_bits(apply_T(tau, nu), path[grid.leaf_start :])

        # a weight with the same signed zeros (-0.0 is not negative), and f = leaf
        mu = Measure(grid, np.where(leaf == 0, leaf, rng.exponential(size=grid.n_leaves)))
        mass = _subtree_oracle(grid, mu.leaf_mass)
        ints = _subtree_oracle(grid, np.abs(leaf) * mu.leaf_mass)
        cand = np.where(mass > 0, ints / np.where(mass > 0, mass, 1.0), -np.inf)
        best = _gather_down(cand, grid.parent, grid.level_offsets, np.maximum)
        if mu.total > 0:
            assert _same_bits(maximal(leaf, mu), best[grid.leaf_start :])


def test_batch_matches_single_row():
    for d, depth in [(1, 5)] + CROSSING:
        grid = build_grid(d, depth)
        rng = np.random.default_rng(10)
        for n_rows in (1, 6):
            rows = rng.standard_normal((n_rows, grid.n_cubes))
            for batch, single in [
                (_kernels.down_sum_batch, _kernels.down_sum),
                (_kernels.up_sum_batch, _kernels.up_sum),
            ]:
                fresh = batch(rows, grid)
                in_place = rows.copy()
                assert batch(in_place, grid, out=in_place) is in_place
                for r in range(n_rows):
                    expect = single(rows[r], grid)
                    assert _same_bits(fresh[r], expect)
                    assert _same_bits(in_place[r], expect)


def _slot_children(grid, i):
    """The children of cube ``i`` in the order of the child slots that the
    scans read (``_layout._slot_keys``): the child in slot s has coordinates
    2 * c_k + ((s >> k) & 1)."""
    lev = grid.level_of(i)
    bits = np.array([key[1::2] for key in _layout._slot_keys(grid.d)], dtype=np.int64)
    coords = _layout.decode(lev, i - int(grid.level_offsets[lev]), grid.d)
    kids = [(c << 1) | bits[:, k] for k, c in enumerate(coords)]
    return grid.level_offsets[lev + 1] + _layout.encode(lev + 1, kids)


@pytest.mark.parametrize("d,depth", CROSSING)
def test_layout_child_order_matches_argsort(d, depth):
    grid = build_grid(d, depth)
    oracle = _argsort_child_order(grid)
    for i in range(grid.leaf_start):  # a parent's children are its group of the next level
        lev = grid.cube(i).level
        start = grid.level_offsets[lev + 1] + (i - grid.level_offsets[lev]) * grid.arity
        kids = _slot_children(grid, i)
        assert np.array_equal(kids, oracle[start : start + grid.arity])
        # child order is index order: the leaf-to-root gather adds in index order
        assert np.all(np.diff(kids) > 0)


# -- half-tree scans on two threads ---------------------------------------------


def _scan_outputs(grid, rng):
    """Every split scan, on inputs with signed zeros, and the operator layer
    over them: ``Measure``'s subtree sums, ``apply_T`` and ``maximal``, whose
    massless cubes read -inf before the root-to-leaf maximum."""
    vals = rng.standard_normal(grid.n_cubes)
    vals[rng.random(grid.n_cubes) < 0.2] = -0.0
    vals[rng.random(grid.n_cubes) < 0.1] = 0.0
    tau = CubeWeights(grid, rng.exponential(size=grid.n_cubes) * (rng.random(grid.n_cubes) < 0.8))
    out = {}
    for name in ("down_sum", "down_max", "up_sum"):
        out[name] = getattr(_kernels, name)(vals, grid)
        in_place = vals.copy()
        getattr(_kernels, name)(in_place, grid, out=in_place)
        out[name + " in place"] = in_place
    # the -inf that maximal gives massless cubes, on single cubes and on
    # whole subtrees below the root
    massless = np.where(rng.random(grid.n_cubes) < 0.1, -np.inf, vals)
    for c in rng.integers(1, grid.n_cubes, 3).tolist():
        massless[grid.subtree_cube_mask(c)] = -np.inf
    out["down_max -inf"] = _kernels.down_max(massless, grid)
    # the batched scans and the product of a batch with per-cube factors
    rows = rng.standard_normal((3, grid.n_cubes))
    rows[rng.random(rows.shape) < 0.2] = -0.0
    for name in ("down_sum_batch", "up_sum_batch"):
        out[name] = getattr(_kernels, name)(rows, grid)
        in_place = rows.copy()
        getattr(_kernels, name)(in_place, grid, out=in_place)
        out[name + " in place"] = in_place
    for values in (vals.copy(), rows.copy()):
        _kernels.multiply(values, tau.coef, grid)
        out[f"multiply {values.ndim}-D"] = values
    for i, leaf in enumerate(_signed_zero_leaves(grid, rng)):
        out[f"subtree_sums {i}"] = _kernels.subtree_sums(leaf, grid)
        out[f"apply_T {i}"] = apply_T(tau, Measure(grid, leaf, is_weight=False))
        mu = Measure(grid, np.where(leaf == 0, leaf, rng.exponential(size=grid.n_leaves)))
        if mu.total > 0:
            out[f"maximal {i}"] = maximal(leaf, mu)
    return out


# above the lowered threshold: small levels on the calling thread, large ones
# (from the first strided level) as two half-tree tasks
@pytest.mark.parametrize("d,depth", CROSSING)
def test_half_tree_scans_bit_identical_to_serial(kernel_threads, d, depth):
    # every scan ran its large levels on the pool's thread (inline_and_split)
    grid = build_grid(d, depth)
    serial, split = kernel_threads.inline_and_split(
        lambda: _scan_outputs(grid, np.random.default_rng(30 + d))
    )
    assert serial.keys() == split.keys()
    for name in serial:
        assert _same_bits(split[name], serial[name]), name


def test_halves_cut_the_last_axis_in_two_on_the_pool(kernel_threads):
    # views of two contiguous halves of every array's last axis, the second
    # on the pool's thread, results in range order; inline, one task on the
    # arrays themselves
    cubes, rows = np.arange(7.0), np.arange(14.0).reshape(2, 7)
    seen = []

    def task(a, b):
        seen.append((a.tolist(), b.tolist(), threading.current_thread() is threading.main_thread()))
        a += 1.0
        return a.size

    kernel_threads.force(False)
    assert _kernels.halves(1, task, cubes, rows) == [7] and not kernel_threads.calls
    assert seen == [(list(range(7)), rows.tolist(), True)] and cubes[0] == 1.0
    seen.clear()
    kernel_threads.force(True)
    assert _kernels.halves(1, task, cubes, rows) == [3, 4] and kernel_threads.calls == [True]
    assert sorted(seen) == [
        ([1.0, 2.0, 3.0], [[0.0, 1.0, 2.0], [7.0, 8.0, 9.0]], True),
        ([4.0, 5.0, 6.0, 7.0], [[3.0, 4.0, 5.0, 6.0], [10.0, 11.0, 12.0, 13.0]], False),
    ]
    # the tasks wrote through their views
    assert cubes.tolist() == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]


@pytest.mark.parametrize("d,depth", [(1, 19), (2, 10), (3, 6)])
def test_half_tree_scans_at_the_threshold(monkeypatch, kernel_threads, d, depth):
    # at the real threshold: grids from PARALLEL_MIN_LEAVES leaves on split,
    # smaller ones run inline, and the bits are the serial ones
    grid = build_grid(d, depth)
    on = grid.n_leaves >= _kernels.PARALLEL_MIN_LEAVES
    assert (_kernels.workers(grid.n_leaves) is not None) == on
    rng = np.random.default_rng(40 + d)
    vals = rng.standard_normal(grid.n_cubes)
    vals[rng.random(grid.n_cubes) < 0.3] = -0.0
    leaf = vals[grid.leaf_start :].copy()
    rows = np.stack([vals, vals[::-1]])

    def scans():
        out = [getattr(_kernels, name)(vals, grid) for name in ("down_sum", "down_max", "up_sum")]
        out.append(_kernels.subtree_sums(leaf, grid))
        return out + [_kernels.down_sum_batch(rows, grid), _kernels.up_sum_batch(rows, grid)]

    got = scans()
    assert kernel_threads.calls == ([True] * 6 if on else [])
    monkeypatch.setattr(_kernels, "PARALLEL_MIN_LEAVES", 1 << 62)
    want = scans()
    assert all(_same_bits(a, b) for a, b in zip(got, want))


def test_one_cpu_and_inline_processes_run_on_the_calling_thread(monkeypatch):
    n = _kernels.PARALLEL_MIN_LEAVES
    monkeypatch.setattr(_kernels, "_cpus", lambda: 1)
    assert _kernels.workers(n) is None
    monkeypatch.setattr(_kernels, "_cpus", lambda: 2)
    assert _kernels.workers(n - 1) is None
    assert _kernels.workers(n) is not None
    monkeypatch.setattr(_kernels, "_inline", True)
    assert _kernels.workers(n) is None


def test_both_halves_finish_before_an_error_is_raised(kernel_threads):
    # a task that fails on the calling thread still waits for the task on
    # the pool's thread, which writes into the same arrays
    kernel_threads.force(True)
    pool = _kernels.workers(1)
    done = []

    def task(which):
        if which == 0:
            raise ZeroDivisionError
        time.sleep(0.05)
        done.append(which)

    with pytest.raises(ZeroDivisionError):
        _kernels.on_halves(pool, task)
    assert done == [1]
    with pytest.raises(ZeroDivisionError):
        _kernels.on_halves(pool, lambda which: 1 / which)


def test_concurrent_callers_share_one_pool(monkeypatch, kernel_threads):
    # more calling threads than CPUs, each splitting its scans on the shared
    # pool under a short switch interval: one pool serves them all, and every
    # result keeps the serial bits
    grid = build_grid(2, 7)
    rng = np.random.default_rng(50)
    vals = rng.standard_normal(grid.n_cubes)
    leaf = vals[grid.leaf_start :].copy()
    kernel_threads.force(False)
    want = (_kernels.down_sum(vals, grid), _kernels.subtree_sums(leaf, grid))
    kernel_threads.force(True)
    monkeypatch.setattr(_kernels, "_pool", None)
    same, pools = [], set()

    def caller():
        for _ in range(25):
            pools.add(id(_kernels.workers(grid.n_leaves)))
            got = (_kernels.down_sum(vals, grid), _kernels.subtree_sums(leaf, grid))
            same.append(all(_same_bits(a, b) for a, b in zip(got, want)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(same) == 100 and all(same)
    assert len(pools) == 1
