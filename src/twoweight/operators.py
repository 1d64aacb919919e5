"""The positive dyadic operator, its localizations, and the dyadic maximal function.

The operator is ``T nu(x) = sum_Q tau_Q * E_Q(nu) * 1_Q(x)`` over the real
cubes of the grid. The in-localization at R keeps the summands Q inside R, the
out-localization keeps Q containing R (both inclusive); together they satisfy
``T = T^in_R + T^out_{parent(R)}`` pointwise on R, exactly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import _kernels
from .grid import (
    CubeRef,
    DyadicGrid,
    GridFunction,
    Measure,
    UndefinedAverageError,
    cube_integrals,
)


class CubeWeights:
    """Nonnegative weight tau_Q per real cube, with a tag recording its rule.

    Also holds ``coef`` = tau_Q/|Q|, the coefficient every application of the
    operator reads. Volumes are powers of two, so tau_Q * mu(Q) / |Q| and
    coef_Q * mu(Q) round alike unless tau_Q * mu(Q) is subnormal. Weights
    whose tau_Q/|Q| overflows are rejected with the non-finite ones.
    """

    def __init__(self, grid: DyadicGrid, tau, rule: str = "explicit"):
        tau = np.array(tau, dtype=np.float64, copy=True)
        if tau.shape != (grid.n_cubes,):
            raise ValueError(f"expected {grid.n_cubes} cube weights, got {tau.shape}")
        if np.any(tau < 0):
            raise ValueError("cube weights must be nonnegative")
        with np.errstate(over="ignore"):
            coef = grid.divide_by_volume(tau)
        # tau/|Q| is at least tau, so this rejects a tau that is not finite too
        if not np.all(np.isfinite(coef)):
            raise ValueError("cube weights and tau/|Q| must be finite")
        self._hold(grid, tau, coef, rule)

    def _hold(self, grid: DyadicGrid, tau: np.ndarray, coef: np.ndarray, rule: str) -> None:
        self.grid = grid
        self.tau = tau
        self.rule = rule
        self.coef = coef
        self.tau.flags.writeable = False
        self.coef.flags.writeable = False

    @classmethod
    def explicit(cls, grid: DyadicGrid, tau) -> "CubeWeights":
        return cls(grid, tau, rule="explicit")

    @classmethod
    def fractional(cls, grid: DyadicGrid, alpha: float) -> "CubeWeights":
        """tau_Q = |Q|**(alpha/d), accepted for 0 < alpha < d."""
        if not 0.0 < alpha < grid.d:
            raise ValueError(f"fractional order must satisfy 0 < alpha < d, got {alpha}")
        # tau and tau/|Q| once per level, each expanded once: numpy's vectorized
        # power and division give every cube the bits a per-cube array would,
        # and numbers computed here need no validation or copy
        tau = grid.level_volumes ** (alpha / grid.d)
        weights = cls.__new__(cls)
        coef = grid.per_cube(tau / grid.level_volumes)
        weights._hold(grid, grid.per_cube(tau), coef, f"fractional(alpha={alpha!r})")
        return weights

    @classmethod
    def root_only(cls, grid: DyadicGrid) -> "CubeWeights":
        """tau = 1 on the root and 0 on every other cube."""
        tau = np.zeros(grid.n_cubes)
        tau[0] = 1.0
        return cls(grid, tau, rule="root-only")

    @cached_property
    def coef_bounds(self) -> tuple[float, float]:
        """(least positive coef, inf if there is none; sum of coef): a sum of
        coefs over any set of cubes is 0 or lies between the two."""
        coef = self.coef
        return float(np.min(coef, where=coef > 0, initial=np.inf)), float(coef.sum())

    def __repr__(self):
        return f"CubeWeights({self.rule}, cubes={self.grid.n_cubes})"


def apply_T(tau: CubeWeights, nu: Measure) -> GridFunction:
    """Evaluate T(nu) at every leaf.

    A single top-down prefix pass over per-cube contributions tau_Q * E_Q(nu).
    """
    grid = tau.grid
    if nu.grid is not grid:
        raise ValueError("weights and measure live on different grids")
    contrib = np.empty(grid.n_cubes)
    _kernels.halves(grid.n_leaves, np.multiply, tau.coef, nu.cube_mass, contrib)
    return _leaf_copy(_kernels.down_sum(contrib, grid, out=contrib), grid)


def _leaf_copy(values, grid: DyadicGrid) -> GridFunction:
    """The leaf part of per-cube ``values`` in a fresh array, copied as two
    halves (``_kernels.halves``)."""
    out = np.empty(grid.n_leaves)
    _kernels.halves(grid.n_leaves, np.copyto, out, values[grid.leaf_start :])
    return out


def apply_T_restricted(tau: CubeWeights, nu: Measure, R, mode: str) -> GridFunction:
    """T^in_R (summands Q <= R) or T^out_R (summands Q >= R), as a leaf function.

    Virtual R is allowed: in-mode then sums every real cube (a virtual cube
    contains the whole grid) and out-mode contributes nothing.
    """
    grid = tau.grid
    if mode not in ("in", "out"):
        raise ValueError(f"mode must be 'in' or 'out', got {mode!r}")
    contrib = tau.coef * nu.cube_mass
    if isinstance(R, CubeRef) and R.is_virtual:
        if mode == "out":
            return np.zeros(grid.n_leaves)
        masked = contrib
    else:
        i = grid.index_of(R)
        if mode == "in":
            masked = np.where(grid.subtree_cube_mask(i), contrib, 0.0)
        else:
            masked = np.zeros(grid.n_cubes)
            chain = grid.ancestor(i, np.arange(grid.level_of(i) + 1))
            masked[chain] = contrib[chain]
    path = _kernels.down_sum(masked, grid, out=masked)
    return path[grid.leaf_start :].copy()


def maximal(f: GridFunction, mu: Measure) -> GridFunction:
    """Dyadic maximal function M_mu f(x) = sup over cubes containing x of E_mu_Q |f|.

    Cubes with mu(Q) == 0 are skipped; mu(root) > 0 is required so every leaf
    sees at least one admissible cube.
    """
    grid = mu.grid
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (grid.n_leaves,):
        raise ValueError(f"expected {grid.n_leaves} leaf values, got shape {f.shape}")
    if mu.total <= 0:
        raise UndefinedAverageError("maximal function needs mu(root) > 0")
    # the averages, the -inf of massless cubes and the scan share one array
    best = cube_integrals(np.abs(f), mu)
    _kernels.halves(grid.n_leaves, _averages, best, mu.cube_mass)
    return _leaf_copy(_kernels.down_max(best, grid, out=best), grid)


def _averages(integrals, mass) -> None:
    """``integrals / mass`` in place where the mass is positive, -inf elsewhere."""
    live = mass > 0
    np.divide(integrals, mass, out=integrals, where=live)
    np.copyto(integrals, -np.inf, where=~live)
