"""Finite dyadic grids over the unit cube, measures on them, and Lp norms.

A grid of dimension ``d`` and depth ``D`` holds every dyadic cube of the unit
cube down to side length ``2**-D``. Cubes are addressed by a canonical linear
index: levels are enumerated root first, and within level ``l`` the cube with
coordinates ``(i_0, ..., i_{d-1})`` (each in ``range(2**l)``) sits at offset
``sum(i_k * 2**(l*k))`` (``_layout`` encodes and decodes it). Leaves are the
cubes at the final level.

Ancestors above the root are "virtual": they carry no mass and no weight, and
by the zero-outside-root convention they always intersect the complement of
any subset of the root. They exist so that boundary cases of the decomposition
machinery (parents of the root) have a well-defined handle.

Grids and measures are immutable after construction; their arrays are marked
read-only so they can be shared freely by everything that reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels, _layout

MAX_LEAVES = 1 << 20


class GridSizeError(ValueError):
    """Requested grid exceeds the leaf budget."""


class UndefinedAverageError(ValueError):
    """The maximal function against a measure with no mass: mu(root) = 0."""


GridFunction = np.ndarray
"""A function on the grid: one float per leaf, in canonical leaf order."""


@dataclass(frozen=True)
class CubeRef:
    """Reference to a dyadic cube.

    Real cubes have ``level >= 0`` and one coordinate per dimension. Virtual
    ancestors of the root have ``level < 0`` and empty coordinates; their
    level is minus their height above the root.
    """

    level: int
    coords: tuple = ()

    def __post_init__(self):
        if self.level < 0 and self.coords:
            raise ValueError("virtual cubes carry no coordinates")

    @property
    def is_virtual(self) -> bool:
        return self.level < 0


class DyadicGrid:
    """All dyadic subcubes of [0,1)^d down to depth ``depth``.

    Holds three read-only arrays and nothing a query can add to: the level
    offsets, the volume of each level (``level_volumes``) and the parent index
    of every non-root cube (-1 at the root); only the parents have one entry
    per cube. A cube's level comes from the offsets (``level_of``),
    ``divide_by_volume`` divides per-cube values by |Q|, and
    ``per_cube`` expands a per-level vector to one entry per cube for the few
    callers that need that. The order of a cube's children, which pins down
    the deterministic bottom-up summation order, is the layout's (``_layout``).
    """

    def __init__(self, d: int, depth: int):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if d * depth >= 63 or (1 << (d * depth)) > MAX_LEAVES:
            raise GridSizeError(
                f"grid (d={d}, depth={depth}) would have 2**{d * depth} leaves; "
                f"budget is {MAX_LEAVES}"
            )
        self.d = d
        self.depth = depth
        self.arity = 1 << d

        offsets = np.cumsum([0] + [1 << (d * lev) for lev in range(depth + 1)], dtype=np.int64)
        self.level_offsets = offsets
        self.n_cubes = int(offsets[-1])
        self.n_leaves = 1 << (d * depth)
        self.leaf_start = int(offsets[depth])

        self.parent = np.full(self.n_cubes, -1, dtype=np.int64)
        for lev in range(1, depth + 1):
            lo, hi = int(offsets[lev]), int(offsets[lev + 1])
            up = [c >> 1 for c in _layout.decode(lev, np.arange(hi - lo, dtype=np.int64), d)]
            self.parent[lo:hi] = offsets[lev - 1] + _layout.encode(lev - 1, up)
        self.level_volumes = np.power(2.0, -float(d) * np.arange(depth + 1))
        self.leaf_volume = 2.0 ** (-d * depth)
        for arr in (offsets, self.parent, self.level_volumes):
            arr.flags.writeable = False

    # -- index arithmetic ---------------------------------------------------

    def level_of(self, index):
        """The level of a cube index; an int gives an int, an int array an array.
        Indices are not range-checked."""
        if isinstance(index, (int, np.integer)):
            # level l starts at index (2**(d*l) - 1) / (2**d - 1)
            return (((self.arity - 1) * int(index) + 1).bit_length() - 1) // self.d
        return np.searchsorted(self.level_offsets, index, side="right") - 1

    def per_cube(self, level_values) -> np.ndarray:
        """A vector of one value per level (root first) as one value per cube."""
        return np.repeat(level_values, self.level_offsets[1:] - self.level_offsets[:-1])

    def divide_by_volume(self, values, out=None) -> np.ndarray:
        """``values[Q] / |Q|`` for every cube. ``out`` is a float array of one
        entry per cube to divide into (it may be ``values``), returned.

        From ``_kernels.STRIDED_MIN_CUBES`` leaves on this is one division by
        a scalar per level, so no per-cube volume array is built. Below it a
        numpy call per level costs more than the data, and one division by the
        volumes expanded per cube is faster (5 against 13 us at d = 1, depth
        10). Either way each value is divided by the same volume.
        """
        if self.n_leaves < _kernels.STRIDED_MIN_CUBES:
            return np.divide(values, self.per_cube(self.level_volumes), out=out)
        out = np.empty(self.n_cubes) if out is None else out
        off = self.level_offsets.tolist()
        for lo, hi, vol in zip(off, off[1:], self.level_volumes.tolist()):
            np.divide(values[lo:hi], vol, out=out[lo:hi])
        return out

    def index_of(self, cube) -> int:
        """Canonical linear index of a real cube (CubeRef or already an int)."""
        if isinstance(cube, (int, np.integer)):
            i = int(cube)
            if not 0 <= i < self.n_cubes:
                raise ValueError(f"cube index {i} out of range")
            return i
        if cube.is_virtual:
            raise ValueError("virtual cubes have no linear index")
        if cube.level > self.depth:
            raise ValueError(f"level {cube.level} exceeds grid depth {self.depth}")
        if len(cube.coords) != self.d:
            raise ValueError(f"expected {self.d} coordinates, got {len(cube.coords)}")
        for c in cube.coords:
            if not 0 <= c < 1 << cube.level:
                raise ValueError(f"coordinate {c} out of range for level {cube.level}")
        return int(self.level_offsets[cube.level]) + _layout.encode(cube.level, cube.coords)

    def cube(self, index: int) -> CubeRef:
        index = self.index_of(index)
        lev = self.level_of(index)
        within = index - int(self.level_offsets[lev])
        return CubeRef(lev, tuple(_layout.decode(lev, within, self.d)))

    def ancestor(self, index, j):
        """The j-fold parent of a cube index, -1 above the root; ``index`` and ``j``
        are ints (giving an int) or int arrays, broadcast against each other."""
        a = np.asarray(index, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        if a.size and (a.min() < 0 or a.max() >= self.n_cubes):
            raise ValueError("cube index out of range")
        if j.size and j.min() < 0:
            raise ValueError("parent order must be >= 0")
        a = a + 0 * j  # broadcast, and a fresh array
        # after depth + 1 steps every cube is above the root
        for step in range(min(int(j.max(initial=0)), self.depth + 1)):
            a = np.where((step < j) & (a >= 0), self.parent[a], a)
        return int(a) if a.ndim == 0 else a

    def ancestor_indices(self, index: int) -> list:
        """Chain from the cube up to the root, deepest first, as a list of ints."""
        i = self.index_of(index)
        return self.ancestor(i, np.arange(self.level_of(i) + 1)).tolist()

    def subtree_cube_mask(self, index: int) -> np.ndarray:
        """Boolean mask over cubes: descendants of ``index``, inclusive.

        At each level from the cube's down, its descendants form one box of the
        level's block of coordinates, which is set by one slice.
        """
        cube = self.cube(index)
        mask = np.zeros(self.n_cubes, dtype=bool)
        for lev in range(cube.level, self.depth + 1):
            _layout.level_block(mask, self.level_offsets, lev, self.d)[_box(cube, lev)] = True
        return mask

    def leaves_in(self, values: np.ndarray, index: int) -> np.ndarray:
        """The entries of ``values`` (one per leaf, on the last axis) at the
        leaves inside cube ``index``, as a view: one box of the leaf level's
        block of coordinates, which a write through the view fills."""
        view = _layout.block(values, self.depth, self.d)
        return view[(Ellipsis,) + _box(self.cube(index), self.depth)]

    def subtree_leaf_mask(self, index: int) -> np.ndarray:
        """Boolean mask over leaves: the leaves inside cube ``index``."""
        mask = np.zeros(self.n_leaves, dtype=bool)
        self.leaves_in(mask, index)[...] = True
        return mask

    def leaf_ancestor_matrix(self) -> np.ndarray:
        """Array of shape (depth+1, n_leaves): row l holds each leaf's level-l
        ancestor. Built on each call; the grid caches nothing."""
        heights = self.depth - np.arange(self.depth + 1)[:, None]
        return self.ancestor(np.arange(self.leaf_start, self.n_cubes), heights)

    def subtree_sums(self, leaf_values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per cube, the sum of ``leaf_values`` over the leaves inside it.

        ``out``, when given, is a float array of one entry per cube that the
        sums are computed in and that is returned; ``leaf_values`` may be its
        leaf part (``out[leaf_start:]``).
        """
        return _kernels.subtree_sums(leaf_values, self, out=out)

    def __repr__(self):
        return f"DyadicGrid(d={self.d}, depth={self.depth}, cubes={self.n_cubes})"


def _box(cube: CubeRef, lev: int) -> tuple:
    """The descendants of a real cube at level ``lev`` (at or below its own):
    one slice per axis of that level's block of coordinates (``_layout.block``)."""
    h = lev - cube.level
    return tuple(slice(c << h, (c + 1) << h) for c in cube.coords)


@lru_cache(maxsize=64)
def _cached_grid(d: int, depth: int) -> DyadicGrid:
    return DyadicGrid(d, depth)


def build_grid(d: int, depth: int) -> DyadicGrid:
    """Build (or fetch from cache) the grid of dimension ``d`` and depth ``depth``."""
    return _cached_grid(d, depth)


class Measure:
    """Nonnegative (or, via :meth:`product`, signed) measure given by leaf masses.

    Per-cube masses are accumulated bottom-up with a fixed pairwise child-sum
    order, so ``mass(Q) == sum(mass(child) for child in Q)`` holds exactly in
    floating point. The measure holds one array, ``cube_mass``; ``leaf_mass``
    is a view of its leaf part, which the accumulation copies unchanged.
    """

    def __init__(self, grid: DyadicGrid, leaf_mass, *, is_weight: bool = True):
        leaf_mass = np.asarray(leaf_mass, dtype=np.float64)
        if leaf_mass.shape != (grid.n_leaves,):
            raise ValueError(
                f"expected {grid.n_leaves} leaf masses, got shape {leaf_mass.shape}"
            )
        # (every mass finite, some mass negative) per half, which combine exactly
        checks = _kernels.halves(
            grid.n_leaves, lambda m: (np.all(np.isfinite(m)), is_weight and np.any(m < 0)), leaf_mass
        )
        finite, negative = zip(*checks)
        if not all(finite):
            raise ValueError("leaf masses must be finite")
        if any(negative):
            raise ValueError("weights require nonnegative leaf masses")
        self.grid = grid
        self.is_weight = is_weight
        with np.errstate(over="ignore", invalid="ignore"):
            self.cube_mass = grid.subtree_sums(leaf_mass)
        # a cube sum that overflows makes every sum above it, the total too,
        # inf or NaN
        if not math.isfinite(self.cube_mass[0]):
            raise ValueError("the total mass must be finite")
        self.cube_mass.flags.writeable = False
        self.leaf_mass = self.cube_mass[grid.leaf_start :]

    @cached_property
    def mass_bounds(self) -> tuple[float, float]:
        """(least positive leaf mass, inf if there is none; total mass): the
        mass of every cube of a weight is 0 or lies between the two."""
        leaf = self.leaf_mass
        return float(np.min(leaf, where=leaf > 0, initial=np.inf)), float(self.cube_mass[0])

    @classmethod
    def lebesgue(cls, grid: DyadicGrid) -> "Measure":
        return cls(grid, np.full(grid.n_leaves, grid.leaf_volume))

    @staticmethod
    def product(f: GridFunction, weight: "Measure") -> "Measure":
        """The signed measure f*mu (the only route to signed masses).

        ``f`` holds one finite value per leaf; anything else raises ValueError.
        """
        f = np.asarray(f, dtype=np.float64)
        if f.shape != weight.leaf_mass.shape:
            raise ValueError(f"expected {weight.grid.n_leaves} leaf values, got shape {f.shape}")
        return Measure(weight.grid, _leaf_product(f, weight, np.empty(f.size)), is_weight=False)

    @property
    def total(self) -> float:
        return float(self.cube_mass[0])

    def with_leaf_mask(self, mask) -> "Measure":
        """Restriction: masses kept where ``mask`` is true, zero elsewhere."""
        mask = np.asarray(mask, dtype=bool)
        return Measure(self.grid, np.where(mask, self.leaf_mass, 0.0), is_weight=self.is_weight)

    def __repr__(self):
        kind = "weight" if self.is_weight else "signed"
        return f"Measure({kind}, total={self.total:.6g})"


def lp_norm(f: GridFunction, mu: Measure, p: float) -> float:
    """L^p(mu) norm of a leaf function, 1 <= p < inf."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (mu.grid.n_leaves,):
        raise ValueError("function length must equal the leaf count")
    return float(np.sum(np.abs(f) ** p * mu.leaf_mass) ** (1.0 / p))


def cube_averages(nu: Measure) -> np.ndarray:
    """E_Q nu for every cube at once."""
    return nu.grid.divide_by_volume(nu.cube_mass)


def cube_integrals(f: GridFunction, mu: Measure) -> np.ndarray:
    """integral_Q f dmu for every cube at once."""
    grid = mu.grid
    f = np.asarray(f, dtype=np.float64)
    out = np.empty(grid.n_cubes)
    # the products are written in the leaf part of the sums' buffer
    return grid.subtree_sums(_leaf_product(f, mu, out[grid.leaf_start :]), out=out)


def _leaf_product(f, mu: Measure, out) -> np.ndarray:
    """``f * mu.leaf_mass`` computed in ``out`` and returned, as two halves
    (``_kernels.halves``); ``f`` broadcasts against the leaf masses."""
    mass = mu.leaf_mass
    if f.shape != mass.shape:
        f = np.broadcast_to(f, mass.shape)
    _kernels.halves(mu.grid.n_leaves, np.multiply, f, mass, out)
    return out


@dataclass(frozen=True)
class Exponents:
    """A valid exponent pair 1 < p <= q < inf with its conjugates."""

    p: float
    q: float

    def __post_init__(self):
        if not (1.0 < self.p <= self.q) or not math.isfinite(self.q):
            raise ValueError(f"need 1 < p <= q < inf, got p={self.p}, q={self.q}")
        # conjugate identities must hold to within 1e-12
        for a, a_conj in ((self.p, self.p_conj), (self.q, self.q_conj)):
            if abs(1.0 / a + 1.0 / a_conj - 1.0) > 1e-12:
                raise ValueError(f"conjugate identity failed for exponent {a}")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_conj(self) -> float:
        return self.q / (self.q - 1.0)

    def dual(self) -> "Exponents":
        """The swapped-conjugate pair (q', p'), again a valid pair."""
        return Exponents(self.q_conj, self.p_conj)

    @property
    def is_l2(self) -> bool:
        return self.p == 2.0 and self.q == 2.0
