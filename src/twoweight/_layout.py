"""The canonical layout of cubes in a grid's arrays.

Levels are stored root first. Within level ``l`` of a ``d``-dimensional grid,
the cube with coordinates ``(c_0, ..., c_{d-1})`` (each in ``range(2**l)``)
sits at offset ``sum(c_k << (l * k))``. Read as an array, a level is therefore
one C-order block of shape ``(2**l,) * d`` with coordinate ``k`` on axis
``d - 1 - k``, and the ``2**d`` children of every cube (coordinates
``2 * c_k + b_k``, ``b_k`` in {0, 1}) sit at fixed strides. Among siblings the
canonical order is that of the child slot ``s = sum(b_k << k)``. It is also
index order: a child at level ``m`` sits ``sum(b_k << (m * k))`` after its
first sibling, which grows with ``s`` because ``m >= 1``.

Coordinate ``d - 1`` is the outermost axis of a level's block, so the cubes
whose last coordinate has its top bit clear (or set) are the first (or
second) half of the level, and the children of a cube in one half of level
``l >= 1`` lie in the same half of level ``l + 1``. Below level 0 the tree is
therefore two half-trees, each one contiguous range per level; the
tree-scan kernels scan the two on two threads.

This module is the only code that knows that order. ``DyadicGrid`` builds
its index arrays and answers its index queries with these functions, and the
tree-scan kernels read large levels through ``level_block`` and
``child_slots``; small ones they gather through ``DyadicGrid.parent``, which
relies on index order being child order.
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


def block(level_values, lev, d):
    """The cubes of level ``lev`` (on the last axis of ``level_values``, in
    layout order) as a view of shape ``level_values.shape[:-1] + (2**lev,) * d``
    whose axis ``-d + k`` is coordinate ``k``. ``level_values`` may also hold
    a contiguous range of the level's last coordinates (a ``half``), whose
    length the last axis of the view then has."""
    lead = level_values.ndim - 1
    side = 1 << lev
    rows = level_values.shape[-1] // side ** (d - 1)
    view = level_values.reshape(level_values.shape[:-1] + (rows,) + (side,) * (d - 1))
    return view.transpose(tuple(range(lead)) + tuple(range(lead + d - 1, lead - 1, -1)))


def half(lo, hi, which):
    """The cube range of half ``which`` (0 or 1) of the level ``[lo, hi)``."""
    mid = (lo + hi) // 2
    return (lo, mid) if which == 0 else (mid, hi)


def level_block(values, level_offsets, lev, d, which=None):
    """Level ``lev`` of ``values`` (every cube on the last axis), or its half
    ``which``, as a ``block``."""
    lo, hi = level_offsets[lev], level_offsets[lev + 1]
    if which is not None:
        lo, hi = half(lo, hi, which)
    return block(values[..., lo:hi], lev, d)


@lru_cache(maxsize=None)
def _slot_keys(d: int) -> tuple:
    # the child-slot rule: per slot s, in canonical order, the index into a block
    # reshaped to (side/2, 2) * d, whose entry 2k + 1 is the slot's bit (s >> k) & 1
    return tuple(
        tuple(x for k in range(d) for x in (slice(None), (s >> k) & 1)) for s in range(1 << d)
    )


def child_slots(values, level_offsets, lev, d, which=None):
    """Level ``lev >= 1`` of ``values`` as one view per child slot, in
    canonical child order: view ``s`` has the shape of the parent block
    (``level_block(values, level_offsets, lev - 1, d, which)``) and holds, for
    every parent, its child in slot ``s``. With ``which`` set, ``lev >= 2``:
    the children of half ``which`` of level ``lev - 1`` are half ``which`` of
    level ``lev``."""
    block = level_block(values, level_offsets, lev, d, which)
    side = 1 << (lev - 1)  # parents per axis, half as many on the last axis of a half
    rows = side if which is None else side // 2
    pairs = block.reshape(values.shape[:-1] + (side, 2) * (d - 1) + (rows, 2))
    return [pairs[(Ellipsis,) + key] for key in _slot_keys(d)]
