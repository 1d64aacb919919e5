"""Tree-scan kernels: numpy, one level slice at a time.

The operator, its localizations and the testing and Carleson sweeps are
built from scans over the cube tree. ``down_sum``/``down_max`` run root to
leaf (each cube adds, or takes the maximum with, its finalized parent);
``up_sum`` runs leaf to root (each parent accumulates its children in
canonical-index order). ``subtree_sums`` is the leaf-to-root scan of leaf
input, which every measure goes through: per-cube input (tau, counts)
accumulates into the values its parents already hold, while leaf input
writes each parent of a strided level as the sum of its children, with no
zero-fill first. The two give the same bits, signed zeros included, because
the first level above the leaves adds +0.0 once (a parent of all -0.0
children then reads +0.0, as from a zero-filled parent). The accumulation
order is fixed, so results are bit-for-bit reproducible. The ``_batch``
variants apply the same scans to every row of a (rows, n_cubes) array, with
the same per-entry order. The leaf-to-root scans share their strided levels
and their level loop with ``up_sum``; below those, and root to leaf, the 1-D
kernels keep their own level bodies because row-generic indexing slows them
down on small grids.

Every kernel takes the grid whose tree it scans. A level is scanned one of
two ways, with the same arithmetic in the same order, so both give the same
bits. By default it is gathered through ``grid.parent`` in both directions:
root to leaf each cube reads its parent (``_GATHER_BLOCK`` cubes to one
gather), and leaf to root one unbuffered
``np.add.at`` adds the level into its parents in index order. That is
canonical child order: in the canonical layout (``_layout``) a child at level
``l`` with coordinate bits ``b_k`` sits ``sum(b_k << (l * k))`` after its
first sibling, which grows with its child slot ``sum(b_k << k)``. From
``STRIDED_MIN_CUBES`` cubes per level on, the level is read instead through
strided views of the canonical layout: one view per child slot, in canonical
child order, against the parent block. The views skip the index gather and
its copy, which is most of a scan on large levels, but cost a few numpy calls
more, which loses on small ones. Root-to-leaf scans take the views only at
d = 1: for d >= 2 a parent gather, whose indices run almost in order, was
measured as fast as the 2**d strided passes or faster. Every kernel takes
``out``: a C-contiguous float array of the result's shape that the scan runs
in (it may be ``values`` itself, or for ``subtree_sums`` hold the leaf values
in its leaf part), returned; without it the scan runs in a fresh array.

On grids of ``PARALLEL_MIN_LEAVES`` leaves or more, every scan, 1-D and
batched, takes its large levels (from the first of ``STRIDED_MIN_CUBES``
cubes, and from level 2 at the least) as two tasks, one per half-tree of the
canonical layout (``_layout``): a cube's children lie in its own half, so the
two tasks touch disjoint cubes. One task runs on the calling thread, the
other on the one thread of a private pool (``workers``) started on first use.
The levels above run on the calling thread alone, before the two tasks root
to leaf and after them leaf to root. Elementwise passes over arrays of one
entry per cube or leaf (``multiply``, the linear layer's products, masks
and copies, and ``Measure``'s input checks, whose boolean reductions
combine exactly) run through ``halves``: the two contiguous halves of the
arrays as two tasks. Leaf-to-root scans that transform each level, the embedding
recursion of ``extremal``, split through ``up_levels``; the testing sweeps
(``constants``) and ``extremal.exact_norm_22``'s chunked passes use the same
two workers. Every entry sees the same operations in the same order as on
one thread, so the bits do not depend on whether the second thread ran.
Tasks on the pool's thread write into arrays of the calling thread and
allocate little, boolean masks at most: its malloc arena keeps what they
allocated after the task. Below the threshold, in a process that may run on
one CPU only, and in a process that asked to run inline (``run_inline``: the
suite's worker processes, whose siblings use the other CPUs), every task
runs on the calling thread, and a ``halves`` task once on the whole arrays. A forked child drops the pool it inherited, whose thread
did not survive the fork.
"""

import concurrent.futures
import os
import threading

import numpy as np

from . import _layout

# Cubes per level from which a level is scanned through strided views; chosen
# by timing both paths per level at d = 1, 2, 3 (the views win from about
# 4096 cubes on leaf-to-root scans at every d and on root-to-leaf ones at d = 1).
STRIDED_MIN_CUBES = 4096

# Cubes gathered through one parent index at a time on a root-to-leaf level:
# the gathered copy (256 KB, or that per row of a batch) stays in cache, which
# was measured 5-13 % faster than whole levels at d = 2 to 4 and 2**16 to
# 2**20 leaves, and the pool's thread never holds a level-sized copy in its
# own malloc arena, which would keep that memory after the scan.
_GATHER_BLOCK = 1 << 15

# Leaves from which the tree scans' large levels, the elementwise passes of
# the linear layer (``halves``), the testing sweeps and exact_norm_22's
# passes over its leaf vectors run on two threads. A hand-off to the pool's
# thread costs 50-100 us on a 2-vCPU VM, and every numpy call of a task
# waits for the interpreter lock while the other task holds it.
# Timed on one thread against two on that VM, exact_norm_22 at d = 1 took
# 24 against 33 ms at 2**16 leaves, 86 against 84 ms at 2**18 and 206
# against 138 ms at 2**19. The scans alone lost on two threads up to 2**18
# at d = 1, 2, 3, were mixed at 2**19 (down_sum 2.6 against 2.4 ms,
# subtree_sums 1.2 against 1.5 ms at d = 1) and all won at 2**20, by 20-35 %.
# At 2**19 leaves (d = 1) the later passes won on two threads as well:
# apply_T took 3.1 against 2.0 ms and maximal 5.6 against 3.9 ms with only
# their ``halves`` passes inline or split, and local_testing's sweep 183
# against 106 ms.
PARALLEL_MIN_LEAVES = 1 << 19

_pool = None  # the second thread, started on first use
_pool_lock = threading.Lock()
_inline = False  # set by run_inline: no task of this process leaves its thread


def _forget_pool():
    # a forked child holds a copy of the pool whose threads did not survive the
    # fork, and of a lock another thread may have held: submitting to that
    # pool would wait forever
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def run_inline() -> None:
    """Run every task of this process on the calling thread from now on.

    Worker processes of a suite call it: their siblings already use the
    other CPUs.
    """
    global _inline
    _inline = True


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(n_leaves: int):
    """The pool of the second thread when work on a grid of ``n_leaves``
    leaves runs on two threads, else None: from ``PARALLEL_MIN_LEAVES``
    leaves on, unless the process runs inline or may run on one CPU only."""
    global _pool
    if n_leaves < PARALLEL_MIN_LEAVES or _inline or _cpus() < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = concurrent.futures.ThreadPoolExecutor(1, thread_name_prefix="twoweight")
        return _pool


def on_halves(pool, task) -> list:
    """``[task(0), task(1)]``: with ``pool`` (``workers``), ``task(1)`` on
    its thread while ``task(0)`` runs on the calling thread; without, in
    order on the calling thread. Both tasks finish before an error of either
    is raised, since both write into the same arrays. A task must not call
    ``on_halves`` itself: the pool has one thread, which would wait on
    itself."""
    if pool is None:
        return [task(0), task(1)]
    second = pool.submit(task, 1)
    try:
        first = task(0)
    finally:
        concurrent.futures.wait([second])
    return [first, second.result()]


def halves(n_leaves: int, task, *arrays) -> list:
    """``task(*arrays)`` for arrays of one entry per cube, or per leaf, of a
    grid of ``n_leaves`` leaves on their last axis: on the two contiguous
    halves of that axis, ``[0, size // 2)`` and ``[size // 2, size)``, as
    views, on two threads (``on_halves``) when the grid runs on them
    (``workers``); else once on the arrays themselves, on the calling thread.
    Returns the list of the results, in range order. For elementwise tasks,
    and for reductions whose halves combine exactly."""
    pool = workers(n_leaves)
    if pool is None:
        return [task(*arrays)]
    size = arrays[0].shape[-1]
    parts = (slice(0, size // 2), slice(size // 2, size))
    return on_halves(pool, lambda which: task(*[a[..., parts[which]] for a in arrays]))


def multiply(values, factors, grid) -> None:
    """``values *= factors`` in place: ``factors`` holds one entry per cube of
    ``grid``, and ``values`` too, on its last axis (rows of a batch)."""
    halves(grid.n_leaves, lambda f, v: np.multiply(f, v, out=v), factors, values)


def _start(values, out):
    if out is None:
        return np.array(values, dtype=np.float64, copy=True, order="C")
    if out is not values:
        out[...] = values
    return out


def _first_large(grid) -> int:
    """The first level of ``grid`` with at least ``STRIDED_MIN_CUBES`` cubes
    (levels only grow with depth), or the level count when none has."""
    if grid.n_leaves < STRIDED_MIN_CUBES:
        return grid.depth + 1
    # level l has 2**(d * l) cubes, and STRIDED_MIN_CUBES is a power of two
    return -(-(STRIDED_MIN_CUBES.bit_length() - 1) // grid.d)


def _first_strided(grid, root_to_leaf: bool) -> int:
    """The first level of ``grid`` scanned through strided views, or the level
    count when none is: the first large level, and for a root-to-leaf scan
    none unless d = 1."""
    return grid.depth + 1 if root_to_leaf and grid.d > 1 else _first_large(grid)


def _strided_level(acc, grid, lev, which=None):
    """The child-slot views of level ``lev`` of ``acc`` and their parent
    block, or those of half ``which`` of both levels."""
    kids = _layout.child_slots(acc, grid.level_offsets, lev, grid.d, which)
    return kids, _layout.level_block(acc, grid.level_offsets, lev - 1, grid.d, which)


def _first_half_level(grid) -> int:
    """The first level scanned as two half-tree tasks: the first large level,
    and level 2 at the least (a half of level 1 has the root as parent)."""
    return max(2, _first_large(grid))


def _down(out, grid, scan, *args):
    """A root-to-leaf scan in ``out``: ``scan(out, grid, *args, levels,
    which)`` on the levels, from level 1 (with the pool, the large levels as
    two half-tree tasks last), and ``out`` returned."""
    pool = workers(grid.n_leaves)
    if pool is None:
        scan(out, grid, *args, range(1, grid.depth + 1), None)
        return out
    cut = _first_half_level(grid)
    scan(out, grid, *args, range(1, cut), None)
    large = range(cut, grid.depth + 1)
    on_halves(pool, lambda which: scan(out, grid, *args, large, which))
    return out


def _down_levels(out, grid, op, levels, which):
    """The given levels of the root-to-leaf scan of ``down_sum`` (``op`` is
    ``np.add``) or ``down_max`` (``np.maximum``) in ``out``, or half
    ``which`` of each."""
    split = _first_strided(grid, True)
    offsets = grid.level_offsets.tolist()  # int arithmetic below, not numpy's
    for lev in levels:
        if lev >= split:
            kids, parents = _strided_level(out, grid, lev, which)
            for k in kids:
                op(k, parents, out=k)
            continue
        lo, hi = offsets[lev], offsets[lev + 1]
        if which is not None:
            lo, hi = _layout.half(lo, hi, which)
        while lo < hi:
            top = lo + _GATHER_BLOCK if hi - lo > _GATHER_BLOCK else hi
            seg = out[lo:top]
            op(seg, out[grid.parent[lo:top]], out=seg)
            lo = top


def down_sum(values, grid, out=None):
    """Root-to-leaf prefix sums: out[i] = sum of values over ancestors of i, inclusive."""
    return _down(_start(values, out), grid, _down_levels, np.add)


def down_max(values, grid, out=None):
    """Root-to-leaf prefix maxima: out[i] = max of values over ancestors of i, inclusive."""
    return _down(_start(values, out), grid, _down_levels, np.maximum)


def up_sum(values, grid, out=None):
    """Leaf-to-root subtree sums: out[i] = sum of values over descendants of i, inclusive.

    Each parent adds its children in canonical child order, which fixes the
    accumulation order exactly.
    """
    acc = _start(values, out)
    _up(acc, grid, _add_children, _gather_up)
    return acc


def _add_children(acc, grid, lev, which):
    kids, seg = _strided_level(acc, grid, lev, which)
    for k in kids:
        seg += k


def _write_children(acc, grid, lev, which):
    # the strided levels of subtree_sums: each parent written as the sum of its
    # children, the leaves' parents with +0.0 added once
    kids, seg = _strided_level(acc, grid, lev, which)
    np.add(kids[0], kids[1], out=seg)
    if lev == grid.depth:
        seg += 0.0
    for k in kids[2:]:
        seg += k


def _up(acc, grid, level, gather):
    """A leaf-to-root scan in ``acc``: ``level(acc, grid, lev, which)`` on
    every strided level, deepest first (with the pool, the large levels as
    two half-tree tasks first), then ``gather(acc, grid, top)`` on the
    levels ``top`` to 1 above them."""
    split = _first_strided(grid, False)
    pool = workers(grid.n_leaves)
    cut = grid.depth + 1
    if pool is not None:
        cut = _first_half_level(grid)
        large = range(grid.depth, cut - 1, -1)
        on_halves(pool, lambda which: [level(acc, grid, lev, which) for lev in large])
    for lev in range(cut - 1, split - 1, -1):
        level(acc, grid, lev, None)
    gather(acc, grid, split - 1)


def _gather_up(acc, grid, top):
    """Levels ``top`` to 1 of ``acc`` added into their parents, deepest first,
    each by one unbuffered ``np.add.at`` in index order, which is canonical
    child order."""
    for lev in range(top, 0, -1):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        # the target ends where the level starts: an overlapping one makes numpy copy
        np.add.at(acc[:lo], grid.parent[lo:hi], acc[lo:hi])


def subtree_sums(leaf_values, grid, out=None):
    """Leaf-to-root subtree sums of leaf input: out[i] = sum of ``leaf_values``
    over the leaves under cube i, for every cube.

    The bits are those of ``up_sum`` on the leaf values with every internal
    cube zero, without the zero-fill on strided levels: there each parent is
    written as the sum of its children in canonical child order, one add per
    child slot. ``0 + a + b`` and ``a + b`` differ only when a and b are both
    -0.0, so the first level above the leaves adds +0.0 once: a parent of
    all -0.0 children comes out +0.0, as from a zero-filled parent, and no
    internal cube is -0.0 after that. Small levels are zero-filled and
    gathered as in ``up_sum``. ``out`` is a C-contiguous float array of one
    entry per cube (``leaf_values`` may be its leaf part), returned.
    """
    acc = np.empty(grid.n_cubes) if out is None else out
    acc[grid.leaf_start :] = leaf_values
    acc[: grid.level_offsets[_first_strided(grid, False) - 1]] = 0.0
    _up(acc, grid, _write_children, _gather_up)
    return acc


# Batched variants: row-stacked inputs of shape (rows, n_cubes), the same
# per-entry accumulation order as the 1-D kernels.


def down_sum_batch(values, grid, out=None):
    return _down(_start(values, out), grid, _down_levels_batch)


def _down_levels_batch(out, grid, levels, which):
    """``_down_levels`` of ``np.add`` on every row, ``_GATHER_BLOCK`` cubes
    of a gathered level to one parent gather."""
    split = _first_strided(grid, True)
    offsets = grid.level_offsets.tolist()  # int arithmetic below, not numpy's
    for lev in levels:
        if lev >= split:
            kids, parents = _strided_level(out, grid, lev, which)
            for k in kids:
                k += parents
            continue
        lo, hi = offsets[lev], offsets[lev + 1]
        if which is not None:
            lo, hi = _layout.half(lo, hi, which)
        while lo < hi:
            top = lo + _GATHER_BLOCK if hi - lo > _GATHER_BLOCK else hi
            out[:, lo:top] += out[:, grid.parent[lo:top]]
            lo = top


def up_sum_batch(values, grid, out=None):
    acc = _start(values, out)
    _up(acc, grid, _add_children, _gather_up_batch)
    return acc


def _gather_up_batch(acc, grid, top):
    """``_gather_up`` on every row: the gathered steps of ``up_level_batch``,
    with the flat row offsets formed once."""
    row_start = np.arange(acc.shape[0])[:, None] * acc.shape[1]
    flat = acc.reshape(-1)
    offsets = grid.level_offsets.tolist()
    for lev in range(top, 0, -1):
        lo, hi = offsets[lev], offsets[lev + 1]
        np.add.at(flat, (row_start + grid.parent[lo:hi]).ravel(), acc[:, lo:hi].flatten())


def up_levels(grid, scan) -> None:
    """The level loop of a leaf-to-root scan that transforms each level before
    passing it up (the embedding recursion of ``extremal``):
    ``scan(levels, which)`` on the levels, deepest first, with ``which``
    None, or with the pool (``workers``) the large levels first as two
    half-tree tasks, ``which`` 0 and 1, then the levels above. A scan that
    adds a level into its parents through ``up_level_batch(..., which)``
    then reads and writes only its half of each level."""
    pool = workers(grid.n_leaves)
    if pool is None:
        scan(range(grid.depth, -1, -1), None)
        return
    cut = _first_half_level(grid)
    on_halves(pool, lambda which: scan(range(grid.depth, cut - 1, -1), which))
    scan(range(cut - 1, -1, -1), None)


def up_level_batch(acc, grid, lev, which=None):
    """One step of ``up_sum_batch``: level ``lev >= 1`` of every row of the
    C-contiguous (rows, n_cubes) array ``acc`` added into its parents, in
    canonical child order; or, on a level of ``up_levels``' half-tree tasks,
    half ``which`` of it into half ``which`` of its parents."""
    if lev >= _first_strided(grid, False):
        _add_children(acc, grid, lev, which)
        return
    # one flat np.add.at, measured faster than one on a 2-D index
    lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
    row_start = np.arange(acc.shape[0])[:, None] * acc.shape[1]
    np.add.at(acc.reshape(-1), (row_start + grid.parent[lo:hi]).ravel(), acc[:, lo:hi].flatten())
