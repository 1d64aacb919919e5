"""Tree-scan kernels: numpy, one level slice at a time.

The operator, its localizations and the testing and Carleson sweeps are
built from scans over the cube tree. ``down_sum``/``down_max`` run root to leaf (each cube adds, or takes the
maximum with, its finalized parent); ``up_sum`` runs leaf to root (each
parent accumulates its children in canonical-index order). The accumulation
order is fixed, so results are bit-for-bit reproducible. The ``_batch``
variants apply the same scans to every row of a (rows, n_cubes) array, with
the same per-entry order; the 1-D kernels keep their own bodies because
row-generic indexing slows them down on small grids.

A level is scanned one of two ways, with the same arithmetic in the same
order, so both give the same bits. By default the level's parents or
children are gathered through the ``parent`` and ``child_order`` index
arrays. From ``STRIDED_MIN_CUBES`` cubes per level on, the level is read
instead through strided views of the canonical layout (``_layout``): one
view per child slot, in canonical child order, against the parent block.
Those levels do not consult ``parent`` or ``child_order``, so the kernels
take only the arrays of a ``DyadicGrid``, whose cubes are in that layout.
The views skip the index gather and its copy, which is most of a scan on
large levels, but cost a few numpy calls more, which loses on small ones.
Root-to-leaf scans take the views only at d = 1: for d >= 2 a parent gather,
whose indices run almost in order, was measured as fast as the 2**d strided
passes or faster. ``down_sum``, ``up_sum`` and their batch variants take
``out``: a C-contiguous float array of the input's shape that the scan runs
in (it may be ``values`` itself), returned; without it the scan runs in a
copy.
"""

import numpy as np

from . import _layout

# Cubes per level from which a level is scanned through strided views; chosen
# by timing both paths per level at d = 1, 2, 3 (the views win from about
# 4096 cubes on leaf-to-root scans at every d and on root-to-leaf ones at d = 1).
STRIDED_MIN_CUBES = 4096


def _start(values, out):
    if out is None:
        return np.array(values, dtype=np.float64, copy=True)
    if out is not values:
        out[...] = values
    return out


def _first_strided(acc, level_offsets, root_to_leaf: bool) -> int:
    """The first level of ``acc`` scanned through strided views, or the level
    count when none is: the first with at least ``STRIDED_MIN_CUBES`` cubes
    (levels only grow with depth), and for a root-to-leaf scan none unless
    d = 1."""
    nlev = len(level_offsets) - 1
    if (
        acc.shape[-1] < STRIDED_MIN_CUBES  # the cheap test: no level is that large
        or level_offsets[nlev] - level_offsets[nlev - 1] < STRIDED_MIN_CUBES
        or (root_to_leaf and level_offsets[2] - level_offsets[1] > 2)
    ):
        return nlev
    lev = 1
    while level_offsets[lev + 1] - level_offsets[lev] < STRIDED_MIN_CUBES:
        lev += 1
    return lev


def _strided_level(acc, level_offsets, lev):
    """The child-slot views of level ``lev`` of ``acc`` and their parent block."""
    lo, hi = level_offsets[lev], level_offsets[lev + 1]
    d = int((hi - lo) // (lo - level_offsets[lev - 1])).bit_length() - 1
    kids = _layout.child_slots(acc, level_offsets, lev, d)
    return kids, _layout.level_block(acc, level_offsets, lev - 1, d)


def down_sum(values, parent, level_offsets, out=None):
    """Root-to-leaf prefix sums: out[i] = sum of values over ancestors of i, inclusive."""
    out = _start(values, out)
    split = _first_strided(out, level_offsets, True)
    for lev in range(1, split):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        out[lo:hi] += out[parent[lo:hi]]
    for lev in range(split, len(level_offsets) - 1):
        kids, parents = _strided_level(out, level_offsets, lev)
        for k in kids:
            k += parents
    return out


def down_max(values, parent, level_offsets):
    """Root-to-leaf prefix maxima: out[i] = max of values over ancestors of i, inclusive."""
    out = np.array(values, dtype=np.float64, copy=True)
    split = _first_strided(out, level_offsets, True)
    for lev in range(1, split):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        np.maximum(out[lo:hi], out[parent[lo:hi]], out=out[lo:hi])
    for lev in range(split, len(level_offsets) - 1):
        kids, parents = _strided_level(out, level_offsets, lev)
        for k in kids:
            np.maximum(k, parents, out=k)
    return out


def up_sum(values, child_order, level_offsets, out=None):
    """Leaf-to-root subtree sums: out[i] = sum of values over descendants of i, inclusive.

    ``child_order[lo:hi]`` lists the cubes of each level grouped by parent
    (parents in canonical order, children within a group in canonical order),
    which fixes the accumulation order exactly.
    """
    acc = _start(values, out)
    split = _first_strided(acc, level_offsets, False)
    for lev in range(len(level_offsets) - 2, split - 1, -1):
        kids, seg = _strided_level(acc, level_offsets, lev)
        for k in kids:
            seg += k
    for lev in range(split - 1, 0, -1):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        plo, phi = level_offsets[lev - 1], level_offsets[lev]
        arity = (hi - lo) // (phi - plo)
        child_vals = acc[child_order[lo:hi]].reshape(phi - plo, arity)
        seg = acc[plo:phi]
        for s in range(arity):
            seg += child_vals[:, s]
    return acc


# Batched variants: row-stacked inputs of shape (rows, n_cubes), the same
# per-entry accumulation order as the 1-D kernels.


def down_sum_batch(values, parent, level_offsets, out=None):
    out = _start(values, out)
    split = _first_strided(out, level_offsets, True)
    for lev in range(1, split):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        out[:, lo:hi] += out[:, parent[lo:hi]]
    for lev in range(split, len(level_offsets) - 1):
        kids, parents = _strided_level(out, level_offsets, lev)
        for k in kids:
            k += parents
    return out


def up_sum_batch(values, child_order, level_offsets, out=None):
    acc = _start(values, out)
    split = _first_strided(acc, level_offsets, False)
    for lev in range(len(level_offsets) - 2, split - 1, -1):
        kids, seg = _strided_level(acc, level_offsets, lev)
        for k in kids:
            seg += k
    for lev in range(split - 1, 0, -1):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        plo, phi = level_offsets[lev - 1], level_offsets[lev]
        arity = (hi - lo) // (phi - plo)
        child_vals = acc[:, child_order[lo:hi]].reshape(acc.shape[0], phi - plo, arity)
        seg = acc[:, plo:phi]
        for s in range(arity):
            seg += child_vals[:, :, s]
    return acc
