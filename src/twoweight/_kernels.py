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
the same per-entry order; the 1-D kernels keep their own bodies because
row-generic indexing slows them down on small grids.

Every kernel takes the grid whose tree it scans. A level is scanned one of
two ways, with the same arithmetic in the same order, so both give the same
bits. By default it is gathered through ``grid.parent`` in both directions:
root to leaf each cube reads its parent, and leaf to root one unbuffered
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
"""

import numpy as np

from . import _layout

# Cubes per level from which a level is scanned through strided views; chosen
# by timing both paths per level at d = 1, 2, 3 (the views win from about
# 4096 cubes on leaf-to-root scans at every d and on root-to-leaf ones at d = 1).
STRIDED_MIN_CUBES = 4096


def _start(values, out):
    if out is None:
        return np.array(values, dtype=np.float64, copy=True, order="C")
    if out is not values:
        out[...] = values
    return out


def _first_strided(grid, root_to_leaf: bool) -> int:
    """The first level of ``grid`` scanned through strided views, or the level
    count when none is: the first with at least ``STRIDED_MIN_CUBES`` cubes
    (levels only grow with depth), and for a root-to-leaf scan none unless
    d = 1."""
    if grid.n_leaves < STRIDED_MIN_CUBES or (root_to_leaf and grid.d > 1):
        return grid.depth + 1
    lev = 1
    while 1 << (grid.d * lev) < STRIDED_MIN_CUBES:
        lev += 1
    return lev


def _strided_level(acc, grid, lev):
    """The child-slot views of level ``lev`` of ``acc`` and their parent block."""
    kids = _layout.child_slots(acc, grid.level_offsets, lev, grid.d)
    return kids, _layout.level_block(acc, grid.level_offsets, lev - 1, grid.d)


def down_sum(values, grid, out=None):
    """Root-to-leaf prefix sums: out[i] = sum of values over ancestors of i, inclusive."""
    out = _start(values, out)
    split = _first_strided(grid, True)
    for lev in range(1, split):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        out[lo:hi] += out[grid.parent[lo:hi]]
    for lev in range(split, grid.depth + 1):
        kids, parents = _strided_level(out, grid, lev)
        for k in kids:
            k += parents
    return out


def down_max(values, grid, out=None):
    """Root-to-leaf prefix maxima: out[i] = max of values over ancestors of i, inclusive."""
    out = _start(values, out)
    split = _first_strided(grid, True)
    for lev in range(1, split):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        np.maximum(out[lo:hi], out[grid.parent[lo:hi]], out=out[lo:hi])
    for lev in range(split, grid.depth + 1):
        kids, parents = _strided_level(out, grid, lev)
        for k in kids:
            np.maximum(k, parents, out=k)
    return out


def up_sum(values, grid, out=None):
    """Leaf-to-root subtree sums: out[i] = sum of values over descendants of i, inclusive.

    Each parent adds its children in canonical child order, which fixes the
    accumulation order exactly.
    """
    acc = _start(values, out)
    split = _first_strided(grid, False)
    for lev in range(grid.depth, split - 1, -1):
        kids, seg = _strided_level(acc, grid, lev)
        for k in kids:
            seg += k
    _gather_up(acc, grid, split - 1)
    return acc


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
    split = _first_strided(grid, False)
    acc[: grid.level_offsets[split - 1]] = 0.0
    for lev in range(grid.depth, split - 1, -1):
        kids, seg = _strided_level(acc, grid, lev)
        np.add(kids[0], kids[1], out=seg)
        if lev == grid.depth:
            seg += 0.0
        for k in kids[2:]:
            seg += k
    _gather_up(acc, grid, split - 1)
    return acc


# Batched variants: row-stacked inputs of shape (rows, n_cubes), the same
# per-entry accumulation order as the 1-D kernels.


def down_sum_batch(values, grid, out=None):
    out = _start(values, out)
    split = _first_strided(grid, True)
    for lev in range(1, split):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        out[:, lo:hi] += out[:, grid.parent[lo:hi]]
    for lev in range(split, grid.depth + 1):
        kids, parents = _strided_level(out, grid, lev)
        for k in kids:
            k += parents
    return out


def up_sum_batch(values, grid, out=None):
    acc = _start(values, out)
    for lev in range(grid.depth, 0, -1):
        up_level_batch(acc, grid, lev)
    return acc


def up_level_batch(acc, grid, lev):
    """One step of ``up_sum_batch``: level ``lev >= 1`` of every row of the
    C-contiguous (rows, n_cubes) array ``acc`` added into its parents, in
    canonical child order. Scans that transform each level before passing it
    up (the embedding recursion of ``extremal``) run these steps themselves."""
    if lev >= _first_strided(grid, False):
        kids, seg = _strided_level(acc, grid, lev)
        for k in kids:
            seg += k
        return
    # one flat np.add.at, measured faster than one on a 2-D index
    lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
    row_start = np.arange(acc.shape[0])[:, None] * acc.shape[1]
    np.add.at(acc.reshape(-1), (row_start + grid.parent[lo:hi]).ravel(), acc[:, lo:hi].flatten())
