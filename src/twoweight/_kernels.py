"""Tree-scan kernels: numpy, one level slice at a time.

The operator, its localizations and the testing and Carleson sweeps are
built from scans over the cube tree. ``down_sum``/``down_max`` run root to leaf (each cube adds, or takes the
maximum with, its finalized parent); ``up_sum`` runs leaf to root (each
parent accumulates its children in canonical-index order). The accumulation
order is fixed, so results are bit-for-bit reproducible. The ``_batch``
variants apply the same scans to every row of a (rows, n_cubes) array, with
the same per-entry order; the 1-D kernels keep their own bodies because
row-generic indexing slows them down on small grids.
"""

import numpy as np


def down_sum(values, parent, level_offsets):
    """Root-to-leaf prefix sums: out[i] = sum of values over ancestors of i, inclusive."""
    out = np.array(values, dtype=np.float64, copy=True)
    for lev in range(1, len(level_offsets) - 1):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        out[lo:hi] += out[parent[lo:hi]]
    return out


def down_max(values, parent, level_offsets):
    """Root-to-leaf prefix maxima: out[i] = max of values over ancestors of i, inclusive."""
    out = np.array(values, dtype=np.float64, copy=True)
    for lev in range(1, len(level_offsets) - 1):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        np.maximum(out[lo:hi], out[parent[lo:hi]], out=out[lo:hi])
    return out


def up_sum(values, child_order, level_offsets):
    """Leaf-to-root subtree sums: out[i] = sum of values over descendants of i, inclusive.

    ``child_order[lo:hi]`` lists the cubes of each level grouped by parent
    (parents in canonical order, children within a group in canonical order),
    which fixes the accumulation order exactly.
    """
    acc = np.array(values, dtype=np.float64, copy=True)
    nlev = len(level_offsets) - 1
    for lev in range(nlev - 1, 0, -1):
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


def down_sum_batch(values, parent, level_offsets):
    out = np.array(values, dtype=np.float64, copy=True)
    for lev in range(1, len(level_offsets) - 1):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        out[:, lo:hi] += out[:, parent[lo:hi]]
    return out


def up_sum_batch(values, child_order, level_offsets):
    acc = np.array(values, dtype=np.float64, copy=True)
    nlev = len(level_offsets) - 1
    for lev in range(nlev - 1, 0, -1):
        lo, hi = level_offsets[lev], level_offsets[lev + 1]
        plo, phi = level_offsets[lev - 1], level_offsets[lev]
        arity = (hi - lo) // (phi - plo)
        child_vals = acc[:, child_order[lo:hi]].reshape(acc.shape[0], phi - plo, arity)
        seg = acc[:, plo:phi]
        for s in range(arity):
            seg += child_vals[:, :, s]
    return acc
