"""Independent computations the benchmark checks the program's outputs against.

Everything here works on a d-dimensional leaf array instead of the package's
parent/child index arrays. The leaves of a grid of depth D, in canonical
order, reshape to an array of shape ``(2**D,) * d`` indexed by
``[i_{d-1}, ..., i_0]``; the cubes of level l reshape the same way to
``(2**l,) * d``. A level-l cube is then a block of side ``2**(D-l)`` of the
leaf array, and every quantity below is a sum over such blocks. Only numpy and
the definitions are used; nothing is imported from the package.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own computation."""


class Tree:
    """Shapes of one grid: dimension ``d``, depth ``D``, level offsets."""

    def __init__(self, d: int, depth: int):
        self.d = d
        self.depth = depth
        self.side = 1 << depth
        self.n_leaves = 1 << (d * depth)
        self.offsets = [0]
        for lev in range(depth + 1):
            self.offsets.append(self.offsets[-1] + (1 << (d * lev)))

    def volume(self, lev: int) -> float:
        return 2.0 ** (-self.d * lev)

    def leaf_array(self, leaf_values) -> np.ndarray:
        return np.asarray(leaf_values, dtype=np.float64).reshape((self.side,) * self.d)

    def levels(self, cube_values) -> list:
        """Split a canonical per-cube array into one d-dim array per level."""
        cube_values = np.asarray(cube_values, dtype=np.float64)
        return [
            cube_values[self.offsets[lev] : self.offsets[lev + 1]].reshape((1 << lev,) * self.d)
            for lev in range(self.depth + 1)
        ]

    def block_sums(self, leaf_values) -> list:
        """Per level, the sum of the leaf values over each cube."""
        out = [None] * (self.depth + 1)
        cur = self.leaf_array(leaf_values)
        out[self.depth] = cur
        axes = tuple(range(1, 2 * self.d, 2))
        for lev in range(self.depth - 1, -1, -1):
            m = 1 << lev
            cur = cur.reshape((m, 2) * self.d).sum(axis=axes)
            out[lev] = cur
        return out

    def spread_add(self, acc: np.ndarray, level_values: np.ndarray, lev: int) -> None:
        """Add each level-``lev`` cube's value to every leaf of that cube."""
        m, s = 1 << lev, 1 << (self.depth - lev)
        acc.reshape((m, s) * self.d)[...] += level_values.reshape((m, 1) * self.d)

    def spread_max(self, acc: np.ndarray, level_values: np.ndarray, lev: int) -> None:
        m, s = 1 << lev, 1 << (self.depth - lev)
        view = acc.reshape((m, s) * self.d)
        np.maximum(view, level_values.reshape((m, 1) * self.d), out=view)

    def block(self, lev: int, coords, at_level: int) -> tuple:
        """Slices selecting, in a level-``at_level`` array, the cube (lev, coords)."""
        s = 1 << (at_level - lev)
        return tuple(slice(c * s, (c + 1) * s) for c in reversed(coords))

    def ancestor_ids(self, lev: int) -> np.ndarray:
        """For each leaf in canonical order, its level-``lev`` ancestor's position."""
        ids = np.arange(1 << (self.d * lev), dtype=np.int64).reshape((1 << lev,) * self.d)
        s = 1 << (self.depth - lev)
        for axis in range(self.d):
            ids = np.repeat(ids, s, axis=axis)
        return ids.ravel()


# -- the operator and its relatives -------------------------------------------


def apply_T(tree: Tree, tau, leaf_mass) -> np.ndarray:
    """T nu = sum_Q tau_Q E_Q(nu) 1_Q at every leaf, for nu given by leaf masses."""
    tau_l = tree.levels(tau)
    mass_l = tree.block_sums(leaf_mass)
    acc = np.zeros((tree.side,) * tree.d)
    for lev in range(tree.depth + 1):
        tree.spread_add(acc, tau_l[lev] * mass_l[lev] / tree.volume(lev), lev)
    return acc.ravel()


def subtree_tau(tree: Tree, tau) -> list:
    """Per level, sum of tau over each cube's subtree (the cube included)."""
    tau_l = tree.levels(tau)
    out = [None] * (tree.depth + 1)
    out[tree.depth] = tau_l[tree.depth]
    axes = tuple(range(1, 2 * tree.d, 2))
    for lev in range(tree.depth - 1, -1, -1):
        m = 1 << lev
        out[lev] = tau_l[lev] + out[lev + 1].reshape((m, 2) * tree.d).sum(axis=axes)
    return out


def carleson_norm(tree: Tree, tau) -> float:
    """sup_Q |Q|^-1 sum_{R <= Q} tau_R."""
    sub = subtree_tau(tree, tau)
    return max(float((sub[lev] / tree.volume(lev)).max()) for lev in range(tree.depth + 1))


def carleson_at(tree: Tree, tau, lev: int, coords) -> float:
    sub = subtree_tau(tree, tau)
    return float(sub[lev][tree.block(lev, coords, lev)].sum() / tree.volume(lev))


def weighted_carleson_norm(tree: Tree, tau, omega_mass) -> float:
    """sup over omega(Q) > 0 of omega(Q)^-1 sum_{R <= Q} tau_R (finite case only)."""
    sub = subtree_tau(tree, tau)
    om = tree.block_sums(omega_mass)
    best = -math.inf
    for lev in range(tree.depth + 1):
        ok = om[lev] > 0
        if np.any(sub[lev][~ok] > 0):
            return math.inf
        if np.any(ok):
            best = max(best, float((sub[lev][ok] / om[lev][ok]).max()))
    return best


def maximal(tree: Tree, f, mu_mass) -> np.ndarray:
    """sup over cubes Q containing x with mu(Q) > 0 of int_Q |f| dmu / mu(Q)."""
    num = tree.block_sums(np.abs(np.asarray(f, dtype=np.float64)) * mu_mass)
    den = tree.block_sums(mu_mass)
    acc = np.full((tree.side,) * tree.d, -np.inf)
    for lev in range(tree.depth + 1):
        ok = den[lev] > 0
        ratio = np.where(ok, num[lev] / np.where(ok, den[lev], 1.0), -np.inf)
        tree.spread_max(acc, ratio, lev)
    return acc.ravel()


def dense_kernel(tree: Tree, tau) -> np.ndarray:
    """K[x, y] = sum over cubes Q containing both leaves of tau_Q / |Q|."""
    if tree.n_leaves > 1024:
        raise ValueError("the dense kernel is built for at most 1024 leaves")
    tau_l = tree.levels(tau)
    K = np.zeros((tree.n_leaves, tree.n_leaves))
    for lev in range(tree.depth + 1):
        ids = tree.ancestor_ids(lev)
        w = (tau_l[lev] / tree.volume(lev)).ravel()[ids]
        K += np.where(ids[:, None] == ids[None, :], w[:, None], 0.0)
    return K


def dense_norm_22(tree: Tree, tau, sigma_mass, omega_mass) -> float:
    """Largest singular value of diag(sqrt sigma) K diag(sqrt omega)."""
    A = np.sqrt(sigma_mass)[:, None] * dense_kernel(tree, tau) * np.sqrt(omega_mass)[None, :]
    return float(np.linalg.svd(A, compute_uv=False)[0])


def schur_bound_22(tree: Tree, tau, sigma_mass, omega_mass) -> float:
    """sqrt(max row sum * max column sum) of diag(sqrt sigma) K diag(sqrt omega)."""
    ss, sw = np.sqrt(sigma_mass), np.sqrt(omega_mass)
    rows = ss * apply_T(tree, tau, sw)
    cols = sw * apply_T(tree, tau, ss)
    return math.sqrt(float(rows.max()) * float(cols.max()))


def largest_k_below(x: float) -> int:
    """Largest integer k with 2**k < x, for x > 0, exact in binary floating point."""
    mant, exp = math.frexp(x)  # x = mant * 2**exp, 0.5 <= mant < 1
    return exp - 2 if mant == 0.5 else exp - 1


def layer_window(v) -> tuple:
    """(k_lo, k_hi, n_layers) of the superlevel sets {v > 2**k} of a leaf function."""
    pos = v[v > 0]
    if pos.size == 0:
        return None, None, 0
    k_lo, k_hi = largest_k_below(float(pos.min())), largest_k_below(float(pos.max()))
    return k_lo, k_hi, k_hi - k_lo + 1


def whitney_cube_count(tree: Tree, v, rho: int = 1) -> int:
    """Number of (layer, cube) pairs in the Whitney layers of every {v > 2**k}.

    A layer is the set of cubes ``rho`` levels below the maximal dyadic cubes
    inside the superlevel set (a maximal leaf stands for itself); a superlevel
    set equal to the whole space is the root alone. Used only to pick inputs
    whose audits do a comparable amount of work.
    """
    k_lo, k_hi, _ = layer_window(v)
    if k_lo is None:
        return 0
    total = 0
    axes = tuple(range(1, 2 * tree.d, 2))
    for k in range(k_lo, k_hi + 1):
        inside = (v > 2.0**k).reshape((tree.side,) * tree.d)
        if inside.all():
            total += 1
            continue
        full = [None] * (tree.depth + 1)
        full[tree.depth] = inside
        for lev in range(tree.depth - 1, -1, -1):
            m = 1 << lev
            full[lev] = full[lev + 1].reshape((m, 2) * tree.d).all(axis=axes)
        for lev in range(tree.depth + 1):
            maximal_cubes = full[lev]
            if lev > 0:
                m = 1 << (lev - 1)
                above = np.broadcast_to(
                    full[lev - 1].reshape((m, 1) * tree.d), (m, 2) * tree.d
                ).reshape(full[lev].shape)
                maximal_cubes = full[lev] & ~above
            total += int(maximal_cubes.sum()) * (1 << (tree.d * min(rho, tree.depth - lev)))
    return total


# -- testing functionals at one cube ------------------------------------------


def local_testing_at(tree: Tree, tau, sigma_mass, omega_mass, p_conj, q_conj, lev, coords):
    """omega(R)^(-1/q') ||T^in_R(omega 1_R)||_{L^p'(sigma)} at R = (lev, coords)."""
    tau_l = tree.levels(tau)
    om = tree.block_sums(omega_mass)
    w_r = float(om[lev][tree.block(lev, coords, lev)].sum())
    if w_r <= 0:
        return 0.0
    sub = Tree(tree.d, tree.depth - lev)
    acc = np.zeros((sub.side,) * tree.d)
    for j in range(lev, tree.depth + 1):
        sl = tree.block(lev, coords, j)
        sub.spread_add(acc, tau_l[j][sl] * om[j][sl] / tree.volume(j), j - lev)
    sig = tree.leaf_array(sigma_mass)[tree.block(lev, coords, tree.depth)]
    norm = float(np.sum(acc**p_conj * sig)) ** (1.0 / p_conj)
    return w_r ** (-1.0 / q_conj) * norm


def global_testing_at(tree: Tree, tau, sigma_mass, omega_mass, p_conj, q_conj, lev, coords):
    """omega(R)^(-1/q') ||T^out_R(omega 1_R)||_{L^p'(sigma)} at R = (lev, coords)."""
    tau_l = tree.levels(tau)
    om = tree.block_sums(omega_mass)
    w_r = float(om[lev][tree.block(lev, coords, lev)].sum())
    if w_r <= 0:
        return 0.0
    acc = np.zeros((tree.side,) * tree.d)
    for j in range(lev + 1):
        anc = tuple(c >> (lev - j) for c in coords)
        acc[tree.block(j, anc, tree.depth)] += float(
            tau_l[j][tree.block(j, anc, j)].sum()
        ) * w_r / tree.volume(j)
    norm = float(np.sum(acc**p_conj * tree.leaf_array(sigma_mass))) ** (1.0 / p_conj)
    return w_r ** (-1.0 / q_conj) * norm


def conjugate(a: float) -> float:
    return a / (a - 1.0)


# -- comparisons ---------------------------------------------------------------


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_close(name: str, got: float, want: float, rtol: float) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300),
        f"{name}: program {got!r}, benchmark {want!r} (rtol {rtol})",
    )


def require_allclose(name: str, got, want, rtol: float) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    bad = ~(err <= rtol * np.maximum(np.abs(want), 1e-300))
    require(
        not bad.any(),
        f"{name}: {int(bad.sum())} of {got.size} entries differ beyond rtol {rtol}",
    )
