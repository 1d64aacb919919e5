"""The positive dyadic operator, its localizations, and dyadic maximal functions.

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
    cube_averages,
    cube_integrals,
)


class SelectionError(ValueError):
    """Invalid disjoint-selection input for the linearized maximal function."""


class CubeWeights:
    """Nonnegative weight tau_Q per real cube, with a tag recording its rule.

    Also holds ``coef`` = tau_Q/|Q|, the coefficient every application of the
    operator reads. Volumes are powers of two, so tau_Q * mu(Q) / |Q| and
    coef_Q * mu(Q) round alike unless tau_Q * mu(Q) is subnormal.
    """

    def __init__(self, grid: DyadicGrid, tau, rule: str = "explicit"):
        tau = np.array(tau, dtype=np.float64, copy=True)
        if tau.shape != (grid.n_cubes,):
            raise ValueError(f"expected {grid.n_cubes} cube weights, got {tau.shape}")
        if not np.all(np.isfinite(tau)) or np.any(tau < 0):
            raise ValueError("cube weights must be finite and nonnegative")
        self._hold(grid, tau, grid.divide_by_volume(tau), rule)

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
    def root_only(cls, grid: DyadicGrid, value: float = 1.0) -> "CubeWeights":
        tau = np.zeros(grid.n_cubes)
        tau[0] = value
        return cls(grid, tau, rule="root-only")

    @cached_property
    def coef_bounds(self) -> tuple[float, float]:
        """(least positive coef, inf if there is none; sum of coef): a sum of
        coefs over any set of cubes is 0 or lies between the two."""
        coef = self.coef
        return float(np.min(coef, where=coef > 0, initial=np.inf)), float(coef.sum())

    def __repr__(self):
        return f"CubeWeights({self.rule}, cubes={self.grid.n_cubes})"


class Selection:
    """Disjoint leaf-sets E(Q) <= Q, one per chosen cube.

    ``sets`` maps cube index -> array of leaf positions. Containment and
    pairwise disjointness are validated up front.
    """

    def __init__(self, grid: DyadicGrid, sets: dict):
        self.grid = grid
        self.sets = {}
        used = np.zeros(grid.n_leaves, dtype=bool)
        for cube, leaves in sets.items():
            i = grid.index_of(cube)
            leaves = np.asarray(leaves, dtype=np.int64)
            if leaves.size == 0:
                self.sets[i] = leaves
                continue
            if leaves.min() < 0 or leaves.max() >= grid.n_leaves:
                raise SelectionError("leaf positions out of range")
            inside = grid.subtree_leaf_mask(i)
            if not np.all(inside[leaves]):
                raise SelectionError(f"selection for cube {grid.cube(i)} leaves its cube")
            if np.any(used[leaves]):
                raise SelectionError("selections overlap")
            used[leaves] = True
            self.sets[i] = leaves


def _leaf_function(grid: DyadicGrid, f) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (grid.n_leaves,):
        raise ValueError(f"expected {grid.n_leaves} leaf values, got shape {f.shape}")
    return f


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


def bilinear_form(
    tau: CubeWeights, f: GridFunction, sigma: Measure, g: GridFunction, omega: Measure
) -> float:
    """sum_Q tau_Q * E_Q(f sigma) * E_Q(g omega) * |Q|."""
    grid = tau.grid
    mf = cube_integrals(_leaf_function(grid, f), sigma)
    mg = cube_integrals(_leaf_function(grid, g), omega)
    return float(np.sum(tau.coef * mf * mg))


def maximal(f: GridFunction, mu: Measure) -> GridFunction:
    """Dyadic maximal function M_mu f(x) = sup over cubes containing x of E_mu_Q |f|.

    Cubes with mu(Q) == 0 are skipped; mu(root) > 0 is required so every leaf
    sees at least one admissible cube.
    """
    grid = mu.grid
    f = _leaf_function(grid, f)
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


def linearized_maximal(f: GridFunction, mu: Measure, selection: Selection) -> GridFunction:
    """L f = sum_Q 1_{E(Q)} E_mu_Q f over the disjoint selection."""
    grid = mu.grid
    f = _leaf_function(grid, f)
    ints = cube_integrals(f, mu)
    out = np.zeros(grid.n_leaves)
    for i, leaves in selection.sets.items():
        if leaves.size == 0:
            continue
        denom = float(mu.cube_mass[i])
        if denom == 0.0:
            raise UndefinedAverageError(
                f"selected cube {grid.cube(i)} has zero mass but a nonempty selection"
            )
        out[leaves] = ints[i] / denom
    return out


def localized_two_weight_maximal(
    f: GridFunction,
    sigma: Measure,
    omega: Measure,
    Q0,
    p: float,
    *,
    return_uncovered: bool = False,
):
    """sup over Q <= Q0 containing x of (omega(Q)^-1 int_Q f^p dsigma)^(1/p).

    Supported on Q0 (zero outside). Leaves of Q0 not contained in any cube of
    positive omega-mass get value 0; pass ``return_uncovered=True`` to also get
    that diagnostic mask.
    """
    grid = sigma.grid
    f = _leaf_function(grid, f)
    if np.any(f < 0):
        raise ValueError("the localized maximal function requires f >= 0")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    i0 = grid.index_of(Q0)
    num = cube_integrals(f**p, sigma)
    ok = omega.cube_mass > 0
    cand = np.where(ok, (num / np.where(ok, omega.cube_mass, 1.0)) ** (1.0 / p), -np.inf)
    cand = np.where(grid.subtree_cube_mask(i0), cand, -np.inf)
    best = _kernels.down_max(cand, grid)[grid.leaf_start :]
    in_q0 = grid.subtree_leaf_mask(i0)
    uncovered = in_q0 & ~np.isfinite(best)
    values = np.where(in_q0 & np.isfinite(best), best, 0.0)
    if return_uncovered:
        return values, uncovered
    return values
