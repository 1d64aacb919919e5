"""The canonical layout of cubes in a grid's arrays.

Levels are stored root first. Within level ``l`` of a ``d``-dimensional grid,
the cube with coordinates ``(c_0, ..., c_{d-1})`` (each in ``range(2**l)``)
sits at offset ``sum(c_k << (l * k))``. Read as an array, a level is therefore
one C-order block of shape ``(2**l,) * d`` with coordinate ``k`` on axis
``d - 1 - k``, and the ``2**d`` children of every cube (coordinates
``2 * c_k + b_k``, ``b_k`` in {0, 1}) sit at fixed strides. Among siblings the
canonical order is that of the child slot ``s = sum(b_k << k)``.

This module is the only code that knows that order. ``DyadicGrid`` builds
its index arrays and answers its index queries with these functions, and the
tree-scan kernels read large levels through ``level_block`` and
``child_slots`` and small ones through ``child_groups``.
"""

from functools import lru_cache

import numpy as np


def encode(lev, coords):
    """Offset within level ``lev`` of the cube with coordinates ``coords``;
    ``lev`` and the coordinates are ints or int arrays, broadcast together."""
    within = coords[-1]
    for c in reversed(coords[:-1]):
        within = (within << lev) | c
    return within


def decode(lev, within, d):
    """The ``d`` coordinates of the cube at offset ``within`` of level ``lev``
    (ints or int arrays, broadcast together), as a list."""
    coords = []
    for _ in range(d - 1):
        coords.append(within & ((1 << lev) - 1))
        within = within >> lev
    return coords + [within]


def level_block(values, level_offsets, lev, d):
    """Level ``lev`` of ``values`` (cubes on the last axis) as a view of shape
    ``values.shape[:-1] + (2**lev,) * d`` whose axis ``-d + k`` is coordinate
    ``k``."""
    lo, hi = level_offsets[lev], level_offsets[lev + 1]
    lead = values.ndim - 1
    block = values[..., lo:hi].reshape(values.shape[:-1] + (1 << lev,) * d)
    return block.transpose(tuple(range(lead)) + tuple(range(lead + d - 1, lead - 1, -1)))


@lru_cache(maxsize=None)
def _slot_keys(d: int) -> tuple:
    # the child-slot rule: per slot s, in canonical order, the index into a block
    # reshaped to (side/2, 2) * d, whose entry 2k + 1 is the slot's bit (s >> k) & 1
    return tuple(
        tuple(x for k in range(d) for x in (slice(None), (s >> k) & 1)) for s in range(1 << d)
    )


def child_offsets(lev, within, d):
    """Offsets within level ``lev + 1`` of the children of the cubes at offsets
    ``within`` (int or int array) of level ``lev``, in child order on a new axis."""
    bits = np.array([key[1::2] for key in _slot_keys(d)], dtype=np.int64)
    coords = decode(lev, np.asarray(within, dtype=np.int64)[..., None], d)
    return encode(lev + 1, [(c << 1) | bits[:, k] for k, c in enumerate(coords)])


@lru_cache(maxsize=None)
def child_groups(lev: int, d: int) -> np.ndarray:
    """Offsets within level ``lev >= 1`` of its cubes, one row per parent in
    canonical order. Cached and read-only: the kernels ask for it only on
    levels below their strided crossover."""
    groups = child_offsets(lev - 1, np.arange(1 << ((lev - 1) * d)), d)
    groups.flags.writeable = False
    return groups


def child_slots(values, level_offsets, lev, d):
    """Level ``lev >= 1`` of ``values`` as one view per child slot, in
    canonical child order: view ``s`` has the shape of the parent block
    (``level_block(values, level_offsets, lev - 1, d)``) and holds, for every
    parent, its child in slot ``s``."""
    block = level_block(values, level_offsets, lev, d)
    pairs = block.reshape(values.shape[:-1] + (1 << (lev - 1), 2) * d)
    return [pairs[(Ellipsis,) + key] for key in _slot_keys(d)]
