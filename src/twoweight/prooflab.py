"""Executable decomposition machinery, each construction paired with its audit.

Everything here operates on superlevel sets of v = T(f sigma): Whitney-style
cube layers, corridor sets, the three-way cube classification, neighbor and
occurrence counting, principal-cube coronas, and the maximum principle.
Constructions return their audit findings as plain strings instead of
raising, so a suite can aggregate violations across instances; an empty
violation list is the expected outcome on every input.

Conventions, fixed once and used consistently:

* Superlevel sets are strict: Omega_k = {v > BASE**k}; a tie v(x) == BASE**k
  leaves x outside.
* The layer window is finite: k runs from the largest k with Omega_k equal to
  the full positive support of v up to the largest k with Omega_k nonempty.
  Below the window every Omega_k coincides with the bottom layer.
* When Omega_k is the whole space the layer is the single root cube, flagged
  ``saturated`` (a boundary effect of the bounded ambient; such layers are
  exempt from the escape half of the Whitney audit).
* A Whitney cube whose ideal level would exceed the leaf level is clamped to
  the leaf and flagged; clamped cubes are likewise exempt from that audit.
* Virtual ancestors (levels below the root) contain every real cube and count
  as meeting the complement of every superlevel set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .constants import _outer_sums
from .grid import CubeRef, DyadicGrid, Measure, lp_norm
from .operators import CubeWeights, apply_T, apply_T_restricted, maximal

DEFAULT_M = 5
DEFAULT_ETA = 0.25
DEFAULT_RHO = 1
BASE = 2.0  # Omega_k = {v > BASE**k}

# Relative slack of the maximum-principle comparisons against a layer threshold.
_MP_RTOL = 1e-9

# A batched audit value and the per-cube operator evaluation it stands for add
# the same terms in different orders. Both are sums of like-signed terms, so
# they differ by a few dozen ulps of the sum of the terms' magnitudes (under
# 1e-13 relative at the grid budget's depth). A decision whose batched value
# lies closer than this margin to its bound, or that fails, is taken again with
# the per-cube formula, and that value is the one reported.
_MARGIN = 1e-10

# Cells (rows times cubes) in one block of the per-layer rows that a stage stacks
# and scans together. Chosen by timing the audit's four per-layer stages on
# 10-49 layer inputs: below about 8k cubes one scan of a whole block beat one
# call per layer by up to 2x (the calls' overhead dominates there), from 16k
# cubes on the block size made no difference beyond noise, and grids of this
# many cubes or more take one layer per block, as many arrays as a scan per layer.
_LAYER_CELLS = 1 << 16

_NO_LEAVES = np.empty(0, dtype=np.int64)


def _power(base: float, k: int) -> float:
    try:
        return float(base) ** k
    except OverflowError:
        return math.inf


def _largest_k_below(x: float) -> int:
    """Largest integer k with BASE**k < x, for x > 0."""
    k = int(math.floor(math.log(x, BASE)))
    while _power(BASE, k) >= x:
        k -= 1
    while _power(BASE, k + 1) < x:
        k += 1
    return k


def _blocks(grid: DyadicGrid, n_rows: int) -> list:
    """Consecutive row ranges (lo, hi) covering ``n_rows`` rows of one value per cube,
    ``max(1, _LAYER_CELLS // n_cubes)`` rows to a range: the blocks a stage stacks
    and scans its per-layer rows in."""
    step = max(1, _LAYER_CELLS // grid.n_cubes)
    return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _entries(groups) -> tuple:
    """The cubes of ``groups`` (cube arrays, one per layer) as entries numbered group
    by group: each entry's group, its cube, and where each group's entries begin
    (one bound per group and one past the last)."""
    sizes = np.array([g.size for g in groups], dtype=np.int64)
    group = np.repeat(np.arange(sizes.size), sizes)
    return group, np.concatenate([_NO_LEAVES, *groups]), np.concatenate([[0], np.cumsum(sizes)])


def _layer_index(layers) -> dict:
    """Layer k -> the position of the first layer with that k."""
    return {lay.k: j for j, lay in reversed(list(enumerate(layers)))}


def _omega_rows(deco: WhitneyDecomposition, ks) -> np.ndarray:
    """Leaf masks of Omega_k = {v > base**k}, one row per k of ``ks``."""
    thr = np.array([_power(deco.base, int(k)) for k in ks], dtype=np.float64)
    return deco.v > thr[:, None]


def _full_cube_mask(grid: DyadicGrid, leaf_masks: np.ndarray) -> np.ndarray:
    """Boolean per row and cube: every leaf of the cube lies in that row of ``leaf_masks``."""
    counts = np.zeros((len(leaf_masks), grid.n_cubes))
    counts[:, grid.leaf_start :] = leaf_masks
    _kernels.up_sum_batch(counts, grid, out=counts)
    return counts == grid.per_cube(grid.level_volumes * grid.n_leaves)


def _maximal_mask(grid: DyadicGrid, full: np.ndarray) -> np.ndarray:
    """Boolean per cube (on the last axis): in ``full`` while its parent is not."""
    keep = full.copy()
    keep[..., 1:] &= ~full[..., grid.parent[1:]]
    return keep


def _counts(grid: DyadicGrid, rows, cubes: np.ndarray, n_rows: int) -> np.ndarray:
    """(n_rows, n_cubes) floats: row i counts how often each cube occurs among the
    ``cubes`` whose entry of ``rows`` is i."""
    flat = np.bincount(rows * grid.n_cubes + cubes, minlength=n_rows * grid.n_cubes)
    return flat.reshape(n_rows, grid.n_cubes).astype(np.float64)


def _below(grid: DyadicGrid, cubes: np.ndarray) -> np.ndarray:
    """Per cube, how many entries of ``cubes`` contain it (itself included)."""
    return _kernels.down_sum(_counts(grid, 0, cubes, 1)[0], grid)


def _meeting(grid: DyadicGrid, cnt: np.ndarray) -> tuple:
    """Per row of the counts ``cnt`` and per cube: how many counted cubes meet the
    cube (those inside it plus those containing it), and how many contain it
    (itself included)."""
    below = _kernels.down_sum_batch(cnt, grid)
    meet = _kernels.up_sum_batch(cnt, grid)
    meet += below
    meet -= cnt
    return meet, below


def _read(values: np.ndarray, rows, cubes: np.ndarray, above) -> np.ndarray:
    """``values[rows, cubes]`` per entry, ``above`` where the cube is -1, the cube
    above the root."""
    return np.where(cubes >= 0, values[rows, np.maximum(cubes, 0)], above)


def _at(values: np.ndarray, cubes: np.ndarray) -> np.ndarray:
    """``values`` read at ``cubes``, 0 at -1, the cube above the root."""
    return np.where(cubes >= 0, values[np.maximum(cubes, 0)], 0.0)


def _near(value, bound, scale):
    """Where a batched value lies too close to its bound to decide by it."""
    return np.abs(value - bound) < _MARGIN * scale


def _handle(c: int):
    """A cube index as the operators take it; -1 becomes a virtual cube."""
    return c if c >= 0 else CubeRef(-1)


def _leaves_under(
    grid: DyadicGrid, cube_rows, cubes: np.ndarray, leaf_rows, leaves: np.ndarray
) -> tuple:
    """The positions of ``leaves`` inside each of ``cubes`` on the same row, as one CSR
    pair (held, starts).

    Cube i holds the ``leaves`` whose entry of ``leaf_rows`` equals its entry of
    ``cube_rows``, as ``held[starts[i]:starts[i + 1]]`` in the order of ``leaves``.
    A repeated cube holds its leaves again, and nested cubes each hold theirs. The
    leaves climb one level at a time, down to the coarsest level of any cube.
    """
    uniq, slot = np.unique(cube_rows * grid.n_cubes + cubes, return_inverse=True)
    levels = np.zeros(grid.depth + 1, dtype=bool)
    levels[grid.level_of(uniq % grid.n_cubes)] = True
    owners, found = [_NO_LEAVES], [_NO_LEAVES]
    up = grid.leaf_start + leaves
    lowest = int(np.argmax(levels)) if uniq.size else grid.depth + 1
    for lev in range(grid.depth, lowest - 1, -1):
        if lev < grid.depth:
            up = grid.parent[up]
        if levels[lev]:
            key = leaf_rows * grid.n_cubes + up
            pos = np.minimum(np.searchsorted(uniq, key), uniq.size - 1)
            hit = uniq[pos] == key
            owners.append(pos[hit])
            found.append(leaves[hit])
    owner = np.concatenate(owners)
    found = np.concatenate(found)[np.argsort(owner, kind="stable")]
    size = np.bincount(owner, minlength=uniq.size)
    first = np.cumsum(size) - size  # where each distinct cube's run begins in ``found``
    starts = np.concatenate([[0], np.cumsum(size[slot])])
    return found[np.arange(starts[-1]) + np.repeat(first[slot] - starts[:-1], size[slot])], starts


def _cube_json(grid: DyadicGrid, c: int, extra: dict) -> dict:
    """Cube ``c`` as the JSON payloads list it, with the fields of ``extra``."""
    return {"index": c, "level": grid.level_of(c), "coords": list(grid.cube(c).coords), **extra}


def _meets(grid: DyadicGrid, cubes: np.ndarray, u: int) -> np.ndarray:
    """Which of ``cubes`` meet cube ``u``; -1, the cube above the root, meets all.

    Two dyadic cubes meet when they have the same ancestor at the coarser level of the two.
    """
    if u < 0:
        return np.ones(len(cubes), dtype=bool)
    gap = grid.level_of(cubes) - grid.level_of(u)
    return grid.ancestor(cubes, np.maximum(gap, 0)) == grid.ancestor(u, np.maximum(-gap, 0))


@dataclass
class WhitneyLayer:
    k: int
    threshold: float
    cubes: np.ndarray  # sorted cube indices
    clamped: np.ndarray  # bool per cube, aligned with `cubes`
    saturated: bool


@dataclass
class WhitneyDecomposition:
    grid: DyadicGrid
    v: np.ndarray
    rho: int
    base: float
    layers: list[WhitneyLayer]
    violations: list[str] = field(default_factory=list)
    fo_max: int = 0
    crowd_max: int = 0
    checks: int = 0  # comparisons made by the structural audits

    def omega_mask(self, k: int) -> np.ndarray:
        """Leaf mask of Omega_k = {v > base**k}, for any integer k."""
        return self.v > _power(self.base, k)

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "base": self.base,
            "layers": [
                {
                    "k": lay.k,
                    "threshold": lay.threshold,
                    "saturated": lay.saturated,
                    "cubes": [
                        _cube_json(self.grid, c, {"clamped": fl})
                        for c, fl in zip(lay.cubes.tolist(), lay.clamped.tolist())
                    ],
                }
                for lay in self.layers
            ],
            "violations": list(self.violations),
        }


def whitney_layers(grid: DyadicGrid, v, rho: int = DEFAULT_RHO) -> WhitneyDecomposition:
    """Whitney cube layers of every superlevel set of v, audited at build time.

    For each leaf x in Omega_k, take its topmost ancestor contained in Omega_k
    and descend ``rho`` levels (clamping at the leaf level); the layer is the
    set of cubes so produced. The five structural audits (disjoint cover,
    margin condition, nestedness across layers, finite overlap of the
    rho-fold parents, and neighbor crowding) run on the result and append to
    ``violations``.
    """
    if rho < 1:
        raise ValueError(f"rho must be >= 1, got {rho}")
    v = np.asarray(v, dtype=np.float64).copy()
    if v.shape != (grid.n_leaves,):
        raise ValueError(f"expected {grid.n_leaves} leaf values, got shape {v.shape}")
    v.flags.writeable = False

    deco = WhitneyDecomposition(grid, v, rho, BASE, [])
    positive = v[v > 0]
    if positive.size == 0:
        return deco
    k_lo = _largest_k_below(float(positive.min()))
    k_hi = _largest_k_below(float(positive.max()))

    # A Whitney cube lies rho levels below a maximal cube of Omega_k; a leaf
    # fewer than rho levels below one is its own, clamped, Whitney cube.
    up = grid.ancestor(np.arange(grid.n_cubes), rho)
    real = up >= 0
    ks = np.arange(k_lo, k_hi + 1)
    for lo, hi in _blocks(grid, ks.size):
        in_mask = _omega_rows(deco, ks[lo:hi])
        full = _full_cube_mask(grid, in_mask)
        clamped = np.zeros_like(full)
        clamped[:, grid.leaf_start :] = in_mask & ~(real & full[:, up])[:, grid.leaf_start :]
        chosen = (real & _maximal_mask(grid, full)[:, up]) | clamped
        for k, row, picked, flags in zip(ks[lo:hi].tolist(), in_mask, chosen, clamped):
            if not row.any():
                continue
            if row.all():
                cubes, flags, saturated = np.array([0], dtype=np.int64), np.array([False]), True
            else:
                cubes, saturated = np.flatnonzero(picked).astype(np.int64), False
                flags = flags[cubes]
            deco.layers.append(WhitneyLayer(k, _power(BASE, k), cubes, flags, saturated))

    _audit_whitney(deco)
    return deco


def _audit_whitney(deco: WhitneyDecomposition) -> None:
    """The five structural audits of ``deco``'s layers, a block of layers at a time.

    Each layer's findings come in the order checked: disjoint cover, margin (per
    cube), finite overlap, crowding (per cube); the nestedness findings follow,
    by layer pair and then cube.
    """
    grid = deco.grid
    rho = deco.rho
    layers = deco.layers
    fo_cap = 8 * 2 ** ((rho + 1) * grid.d)
    crowd_cap = 2 ** (rho + 2) * 2 ** (rho * grid.d)

    layer, cubes, bounds = _entries([lay.cubes for lay in layers])
    sizes = np.diff(bounds)
    ks = np.array([lay.k for lay in layers], dtype=np.int64)
    free = ~np.concatenate([np.zeros(0, dtype=bool), *(lay.clamped for lay in layers)])
    free &= ~np.array([lay.saturated for lay in layers], dtype=bool)[layer]
    up, up2 = grid.ancestor(cubes, rho), grid.ancestor(cubes, rho + 1)
    real = up >= 0
    deco.checks += len(layers) + int(sizes.sum()) + 2 * int(np.count_nonzero(free))
    found = []  # (layer, rank, entry, text), ranked in the order a layer is checked
    for lo, hi in _blocks(grid, len(layers)):
        e = slice(bounds[lo], bounds[hi])
        row, n = layer[e] - lo, hi - lo
        in_mask = _omega_rows(deco, ks[lo:hi])
        full = _full_cube_mask(grid, in_mask)
        meet, below = _meeting(grid, _counts(grid, row, cubes[e], n))

        # disjoint cover: every leaf of the set under exactly one cube, no other leaf under any
        for t in np.flatnonzero(~np.all(below[:, grid.leaf_start :] == in_mask, axis=1)):
            text = f"disjoint-cover k={layers[lo + t].k}: cubes do not disjointly cover the set"
            found.append((lo + t, 0, 0, text))

        # margin condition: rho-fold parent inside, (rho+1)-fold escapes
        outside = free[e] & ~(real[e] & full[row, up[e]])
        stuck = free[e] & (up2[e] >= 0) & full[row, up2[e]]
        for i in np.flatnonzero(outside | stuck):
            j, c = lo + row[i], int(cubes[e][i])
            if outside[i]:
                text = f"margin k={layers[j].k} cube {c}: {rho}-fold parent not inside"
                found.append((j, 1, i, text))
            if stuck[i]:
                text = f"margin k={layers[j].k} cube {c}: {rho + 1}-fold parent fails to escape"
                found.append((j, 1, i, text))

        # finite overlap of rho-fold parents on the set; a parent above the
        # root covers every leaf
        lifted = _counts(grid, row[real[e]], up[e][real[e]], n)
        overlap = _kernels.down_sum_batch(lifted, grid)[:, grid.leaf_start :]
        overlap += np.bincount(row[~real[e]], minlength=n)[:, None]
        held = in_mask.any(axis=1)
        fo = np.where(in_mask, overlap, -1.0).max(axis=1).astype(np.int64)
        deco.checks += int(held.sum())
        deco.fo_max = max(deco.fo_max, int(fo[held].max(initial=0)))
        for t in np.flatnonzero(held & (fo > fo_cap)):
            text = f"finite-overlap k={layers[lo + t].k}: overlap {fo[t]} exceeds cap {fo_cap}"
            found.append((lo + t, 2, 0, text))

        # crowding: same-layer cubes meeting each rho-fold parent
        crowd = _read(meet, row, up[e], sizes[layer[e]]).astype(np.int64)
        deco.crowd_max = max(deco.crowd_max, int(crowd.max(initial=0)))
        for i in np.flatnonzero(crowd > crowd_cap):
            j = lo + row[i]
            text = f"crowding k={layers[j].k}: {crowd[i]} neighbors exceed cap {crowd_cap}"
            found.append((j, 3, i, text))
    deco.violations += [text for *_, text in sorted(found, key=lambda x: x[:3])]

    # nestedness: a cube q of layer a strictly inside a cube of a layer b with
    # b.k >= a.k. The largest k of a layer cube around each cube (one root-to-leaf
    # maximum over every layer), read at q's parent, flags every such q; only
    # flagged entries are paired with the cubes around them.
    k_entry = ks[layer]
    top = np.full(grid.n_cubes, -np.inf)
    np.maximum.at(top, cubes, k_entry)
    top = _kernels.down_max(top, grid)
    parent = grid.parent[cubes]
    deco.checks += int(sizes @ (len(layers) - np.searchsorted(np.sort(ks), ks)))
    pairs = []
    for i in np.flatnonzero((parent >= 0) & (top[np.maximum(parent, 0)] >= k_entry)).tolist():
        around = grid.ancestor(int(cubes[i]), np.arange(1, grid.level_of(cubes[i]) + 1))
        hits = np.flatnonzero(np.isin(cubes, around) & (k_entry >= k_entry[i]))
        pairs += [(layer[i], layer[j], i, j) for j in hits.tolist()]
    for a, b, i, j in sorted(pairs):
        deco.violations.append(
            f"nestedness cube {cubes[i]} in k={layers[a].k} strictly inside cube {cubes[j]} "
            f"of k={layers[b].k}"
        )


@dataclass
class CorridorSets:
    """E_k(Q) for every (layer, cube) entry of a decomposition.

    Entries are numbered layer by layer, in layer-cube order: entry i is cube
    ``cube[i]`` of ``whitney.layers[layer[i]]``, and its corridor is the sorted
    leaf run ``leaves[starts[i]:starts[i + 1]]``.
    """

    whitney: WhitneyDecomposition
    m: int
    layer: np.ndarray
    cube: np.ndarray
    leaves: np.ndarray
    starts: np.ndarray
    violations: list[str] = field(default_factory=list)
    checks: int = 0  # one union check per layer

    def corridor(self, i: int) -> np.ndarray:
        return self.leaves[self.starts[i] : self.starts[i + 1]]

    def layer_bounds(self) -> np.ndarray:
        """Layer j's entries are ``layer_bounds()[j]`` up to ``layer_bounds()[j + 1]``."""
        return np.searchsorted(self.layer, np.arange(len(self.whitney.layers) + 1))


def corridor_sets(deco: WhitneyDecomposition, m: int = DEFAULT_M) -> CorridorSets:
    """E_k(Q) = Q intersected with the band between levels k+m-1 and k+m.

    Audited: every corridor sits inside its cube, corridors of one layer are
    pairwise disjoint, and their union is exactly the band clipped to Omega_k.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    grid = deco.grid
    layers = deco.layers
    layer, cubes, _ = _entries([lay.cubes for lay in layers])
    ks = np.array([lay.k for lay in layers], dtype=np.int64)
    band_layer, band_leaves, n_target = [_NO_LEAVES], [_NO_LEAVES], [_NO_LEAVES]
    for lo, hi in _blocks(grid, len(layers)):
        band = _omega_rows(deco, ks[lo:hi] + m - 1) & ~_omega_rows(deco, ks[lo:hi] + m)
        n_target.append(np.count_nonzero(band & _omega_rows(deco, ks[lo:hi]), axis=1))
        rows, leaves = np.nonzero(band)
        band_layer.append(lo + rows)
        band_leaves.append(leaves)
    leaves, starts = _leaves_under(
        grid, layer, cubes, np.concatenate(band_layer), np.concatenate(band_leaves)
    )
    # the union is the clipped band exactly when each layer holds every band leaf
    # in Omega_k once and no other leaf
    keys, times = np.unique(
        np.repeat(layer, np.diff(starts)) * grid.n_leaves + leaves, return_counts=True
    )
    key_layer, key_leaf = np.divmod(keys, grid.n_leaves)
    thr = np.array([_power(deco.base, k) for k in ks.tolist()], dtype=np.float64)
    wrong = (times != 1) | ~(deco.v[key_leaf] > thr[key_layer])
    bad = np.bincount(key_layer[wrong], minlength=len(layers)) > 0
    bad |= np.bincount(key_layer, minlength=len(layers)) != np.concatenate(n_target)
    violations = [
        f"corridor k={layers[j].k}: union of E_k(Q) differs from the clipped band"
        for j in np.flatnonzero(bad).tolist()
    ]
    return CorridorSets(deco, m, layer, cubes, leaves, starts, violations, len(layers))


@dataclass
class ClassifiedDecomposition:
    corridors: CorridorSets  # the layers, m, and the corridor of every entry
    eta: float
    # one record per entry of ``corridors``: k, cube, cls (1, 2 or 3), alpha, beta,
    # omega_corridor = omega(E_k(Q)) and omega_cube = omega(Q)
    entries: np.recarray
    violations: list[str] = field(default_factory=list)
    key_margin_min: float = math.inf  # min (alpha+beta)/(thr * omega(E)) observed
    checks: int = 0  # key inequalities, corridor-overlap and layer-count checks
    reevaluated: int = 0  # cubes decided by the per-cube formula

    @property
    def whitney(self) -> WhitneyDecomposition:
        return self.corridors.whitney

    @property
    def m(self) -> int:
        return self.corridors.m

    def to_json_dict(self) -> dict:
        grid, e = self.whitney.grid, self.entries
        runs = [r.tolist() for r in np.split(self.corridors.leaves, self.corridors.starts[1:-1])]
        rows = zip(e.cube.tolist(), e.cls.tolist(), runs, e.alpha.tolist(), e.beta.tolist())
        cubes = [
            _cube_json(grid, c, {"class": cls, "corridor_leaves": run, "alpha": a, "beta": b})
            for c, cls, run, a, b in rows
        ]
        bounds = self.corridors.layer_bounds()
        return {
            "eta": self.eta,
            "m": self.m,
            "rho": self.whitney.rho,
            "base": self.whitney.base,
            "layers": [
                {"k": lay.k, "cubes": cubes[lo:hi]}
                for lay, lo, hi in zip(self.whitney.layers, bounds[:-1], bounds[1:])
            ],
            "violations": list(self.whitney.violations) + list(self.violations),
        }


def classify_cubes(
    corridors: CorridorSets,
    f,
    sigma: Measure,
    omega: Measure,
    tau: CubeWeights,
    eta: float = DEFAULT_ETA,
) -> ClassifiedDecomposition:
    """Three-way classification of the layer cubes, with the key inequality audit.

    Class 1: the corridor carries at most an eta fraction of the cube's omega
    mass. Otherwise the pairing of f against the inward localization of the
    corridor's omega mass over the cube's parent is split into the part
    outside Omega_{k+m} (alpha) and the part inside (beta): class 2 when
    alpha > beta, class 3 when not. Audited: threshold * omega(E_k(Q)) never
    exceeds alpha + beta, corridors for a fixed cube are disjoint across
    layers, and a fixed cube is non-class-1 in at most ceil(1/eta) layers.
    The layers and m are those of ``corridors``.

    alpha + beta of a cube Q is sum over P <= parent(Q) of
    tau_P * omega_E(P) * f sigma(P) / |P|, and omega_E vanishes on every P
    that does not meet Q. Below Q, omega_E agrees with omega_k, omega
    restricted to the union of the layer's corridors (every corridor is its
    cube cut with the band), so one subtree sum per layer gives the part
    below Q for every cube at once, and the parent adds its own term. alpha
    and beta take f sigma off and on Omega_{k+m}. The class decision and the
    key inequality are taken again with the per-cube formula (``_pairing``)
    where they lie within the rounding margin or the inequality fails.

    omega(E_k(Q)) of every entry comes from one pass over the corridors, which
    rounds unlike a sum per corridor. An ordered sum of n like-signed terms is
    off by less than n ulps of its total, so where that could tip a decision,
    and wherever the value is printed, the per-corridor sum replaces it.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must be in (0,1), got {eta}")
    deco = corridors.whitney
    grid = deco.grid
    m = corridors.m
    f = np.asarray(f, dtype=np.float64)
    fs_leaf = Measure.product(f, sigma).leaf_mass
    size = grid.subtree_sums(np.abs(fs_leaf))  # |f sigma|, the scale of rounding
    weight = tau.coef
    cubes, starts = corridors.cube, corridors.starts
    bounds = corridors.layer_bounds()

    n = np.diff(starts)
    owner = np.repeat(np.arange(cubes.size), n)
    layer_k = np.array([lay.k for lay in deco.layers], dtype=np.int64)
    up = grid.parent[cubes]
    real = up >= 0
    top = np.where(real, up, 0)
    pairing = np.empty((3, cubes.size))  # rows: alpha, beta and the scale of rounding
    for lo, hi in _blocks(grid, len(deco.layers)):
        e = slice(bounds[lo], bounds[hi])
        row = corridors.layer[e] - lo
        held = slice(starts[bounds[lo]], starts[bounds[hi]])
        leaves = corridors.leaves[held]
        above = _omega_rows(deco, layer_k[lo:hi] + m)
        # per layer: omega on its corridors (w_k), f sigma off Omega_{k+m} (alpha) and on it (beta)
        sums = np.zeros((3, hi - lo, grid.n_cubes))
        rows = corridors.layer[owner[held]] - lo
        sums[0, rows, grid.leaf_start + leaves] = omega.leaf_mass[leaves]
        np.copyto(sums[1, :, grid.leaf_start :], fs_leaf, where=~above)
        np.copyto(sums[2, :, grid.leaf_start :], fs_leaf, where=above)
        flat = sums.reshape(-1, grid.n_cubes)
        _kernels.up_sum_batch(flat, grid, out=flat)
        w_k, fs_off, fs_on = sums
        ww = weight * w_k
        terms = np.stack([ww * fs_off, ww * fs_on, ww * size])
        flat = terms.reshape(-1, grid.n_cubes)
        below = _kernels.up_sum_batch(flat, grid, out=flat).reshape(terms.shape)
        t = top[e]
        parts = np.stack([fs_off[row, t], fs_on[row, t], size[t]])
        own = np.where(real[e], weight[t] * w_k[row, cubes[e]] * parts, 0.0)
        pairing[:, e] = below[:, row, cubes[e]] + own
    alpha, beta, scale = pairing

    w_e = np.bincount(owner, omega.leaf_mass[corridors.leaves], minlength=cubes.size)
    w_q = omega.cube_mass[cubes]
    thr = np.array([lay.threshold for lay in deco.layers])[corridors.layer]
    ks = layer_k[corridors.layer]
    bound = (alpha + beta) * (1 + 1e-9)
    tight = _near(w_e, eta * w_q, n * w_e) | _near(thr * w_e, bound, scale + n * thr * w_e)
    for i in np.flatnonzero(tight).tolist():
        w_e[i] = omega.leaf_mass[corridors.corridor(i)].sum()
    lhs = thr * w_e
    redo = (lhs > bound) | _near(lhs, bound, scale)
    redo |= ~(w_e <= eta * w_q) & _near(alpha, beta, scale)
    for i in np.flatnonzero(redo).tolist():
        leaves = corridors.corridor(i)
        w_e[i] = omega.leaf_mass[leaves].sum()
        above = deco.omega_mask(int(ks[i]) + m)
        alpha[i], beta[i] = _pairing(grid, f, sigma, omega, tau, int(cubes[i]), leaves, above)
    lhs = thr * w_e
    rhs = alpha + beta
    cls = np.where(w_e <= eta * w_q, 1, np.where(alpha > beta, 2, 3))
    names = "k,cube,cls,alpha,beta,omega_corridor,omega_cube"
    entries = np.rec.fromarrays([ks, cubes, cls, alpha, beta, w_e, w_q], names=names)
    margin = float((rhs[lhs > 0] / lhs[lhs > 0]).min(initial=math.inf))
    out = ClassifiedDecomposition(corridors, eta, entries, list(corridors.violations), margin)
    out.reevaluated = int(redo.sum())
    for i in np.flatnonzero(lhs > rhs * (1 + 1e-9)).tolist():
        out.violations.append(
            f"key inequality k={int(ks[i])} cube {int(cubes[i])}: "
            f"{float(lhs[i])!r} > alpha+beta={float(rhs[i])!r}"
        )

    # corridor disjointness in k for a fixed cube, and the occurrence bound, for
    # every cube at once: a (cube, leaf) key that occurs twice is an overlap
    uniq, first, slot = np.unique(cubes, return_index=True, return_inverse=True)
    out.checks = cubes.size + 2 * uniq.size
    keys = np.sort(slot[owner] * grid.n_leaves + corridors.leaves)
    overlap = np.zeros(uniq.size, dtype=bool)
    overlap[keys[1:][keys[1:] == keys[:-1]] // grid.n_leaves] = True
    hot = np.bincount(slot[cls != 1], minlength=uniq.size)
    many_cap = math.ceil(1.0 / eta)
    bad = np.flatnonzero(overlap | (hot > many_cap))
    for s in bad[np.argsort(first[bad])]:  # in the order the cubes first occur
        c = int(uniq[s])
        if overlap[s]:
            out.violations.append(f"corridors of cube {c} overlap across layers")
        if hot[s] > many_cap:
            out.violations.append(
                f"layer-count cube {c}: non-class-1 in {hot[s]} layers, cap {many_cap}"
            )
    return out


def _pairing(grid, f, sigma, omega, tau, c, leaves, above) -> tuple[float, float]:
    """(alpha, beta) of cube ``c`` by one inward localization: the per-cube formula."""
    e_mask = np.zeros(grid.n_leaves, dtype=bool)
    e_mask[leaves] = True
    up = int(grid.parent[c])
    dom = grid.subtree_leaf_mask(up) if up >= 0 else np.ones(grid.n_leaves, dtype=bool)
    t_in = apply_T_restricted(tau, omega.with_leaf_mask(e_mask), _handle(up), "in")
    integrand = f * t_in * sigma.leaf_mass
    return float(integrand[dom & ~above].sum()), float(integrand[dom & above].sum())


@dataclass
class NeighborSets:
    k: int
    cube: int
    neighbors: np.ndarray  # same-layer cubes meeting the parent
    refined: np.ndarray  # layer k+m cubes meeting the parent
    violations: list[str] = field(default_factory=list)


def neighbor_sets(
    deco: WhitneyDecomposition,
    cube,
    k: int,
    m: int = DEFAULT_M,
    *,
    tau: CubeWeights,
    omega: Measure,
) -> NeighborSets:
    """Same-layer neighbors and layer-(k+m) refinements meeting the cube's parent.

    Audited: every refinement cube sits inside the parent; the neighbor count
    respects the crowding cap; and the inward localization of the corridor's
    omega mass is exactly constant on every refinement cube. The violations
    are the cube's entry in the audit of its layer (``_layer_neighbors``).
    """
    grid = deco.grid
    index = _layer_index(deco.layers)
    j = index.get(k)
    q = grid.index_of(cube)
    if j is None or not np.any(deco.layers[j].cubes == q):
        raise ValueError(f"cube {q} is not in layer k={k}")
    lay = deco.layers[j]
    up = int(grid.parent[q])
    out = NeighborSets(k, q, np.sort(lay.cubes[_meets(grid, lay.cubes, up)]), _NO_LEAVES)
    if k + m in index:
        refined = deco.layers[index[k + m]].cubes
        out.refined = np.sort(refined[_meets(grid, refined, up)])
    own = int(np.argmax(lay.cubes == q))
    found = _layer_neighbors(deco, range(j, j + 1), m, tau, omega)[0]
    out.violations = [text for i, text in found if i == own]
    return out


def _layer_neighbors(
    deco: WhitneyDecomposition, js: range, m: int, tau: CubeWeights, omega: Measure
) -> tuple[list[tuple[int, str]], int, int]:
    """The ``neighbor_sets`` audits of every cube of the layers ``js`` at once.

    Returns the violations as (entry, text) pairs in audit order, the entries
    numbered layer by layer from the first layer of ``js``; the number of checks
    run; and the number of cubes re-evaluated. Neighbor and refinement counts
    come from count passes over blocks of layers. A refinement cube that does
    not lie inside the parent contains the parent's parent. The localization is
    constant on a refinement cube R whenever the omega mass of the band inside
    R is zero, which always holds for a refinement cube inside Omega_{k+m}:
    every summand strictly inside R is then an exact zero. Only cubes whose
    parent meets a refinement cube with band mass get the per-cube evaluation.
    """
    grid = deco.grid
    index = _layer_index(deco.layers)
    lays = [deco.layers[j] for j in js]
    crowd_cap = 2 ** (deco.rho + 2) * 2 ** (deco.rho * grid.d)
    layer, cubes, bounds = _entries([lay.cubes for lay in lays])
    sizes = np.diff(bounds)
    up = grid.parent[cubes]

    count = np.zeros(cubes.size, dtype=np.int64)
    for lo, hi in _blocks(grid, len(lays)):
        e = slice(bounds[lo], bounds[hi])
        row = layer[e] - lo
        meet = _meeting(grid, _counts(grid, row, cubes[e], hi - lo))[0]
        count[e] = _read(meet, row, up[e], sizes[layer[e]])

    # refinements: the cubes of layer k+m, for every layer that has one
    grand = grid.parent[np.maximum(up, 0)]
    refining = [j for j, lay in enumerate(lays) if lay.k + m in index]
    refined_of = {j: deco.layers[index[lays[j].k + m]].cubes for j in refining}
    n_refined = np.zeros(cubes.size)
    outside = np.zeros(cubes.size, dtype=bool)
    loaded = np.zeros(cubes.size, dtype=bool)
    for lo, hi in _blocks(grid, len(refining)):
        chosen, n = refining[lo:hi], hi - lo
        e = np.concatenate([np.arange(bounds[j], bounds[j + 1]) for j in chosen])
        row = np.repeat(np.arange(n), sizes[chosen])
        hi_row, hi_cubes, hi_bounds = _entries([refined_of[j] for j in chosen])
        meet, below = _meeting(grid, _counts(grid, hi_row, hi_cubes, n))
        n_refined[e] = _read(meet, row, up[e], np.diff(hi_bounds)[row])
        outside[e] = (up[e] >= 0) & (_read(below, row, grand[e], 0.0) > 0)
        ks = np.array([lays[j].k for j in chosen], dtype=np.int64)
        band = _omega_rows(deco, ks + m - 1) & ~_omega_rows(deco, ks + m)
        mass = np.zeros((n, grid.n_cubes))
        np.copyto(mass[:, grid.leaf_start :], omega.leaf_mass, where=band)
        heavy = _kernels.up_sum_batch(mass, grid, out=mass)[hi_row, hi_cubes] > 0
        meet = _meeting(grid, _counts(grid, hi_row[heavy], hi_cubes[heavy], n))[0]
        n_heavy = np.bincount(hi_row[heavy], minlength=n)
        loaded[e] = _read(meet, row, up[e], n_heavy[row]) > 0
    checks = int(cubes.size) + 2 * int(n_refined.sum())

    found = [
        (i, f"neighbor count {count[i]} exceeds cap {crowd_cap} at k={lays[layer[i]].k}")
        for i in np.flatnonzero(count > crowd_cap).tolist()
    ]
    reevaluated = 0
    for i in np.flatnonzero(outside | loaded).tolist():
        k, q, u = lays[layer[i]].k, int(cubes[i]), int(up[i])
        lay_hi = refined_of[layer[i]]
        refined = np.sort(lay_hi[_meets(grid, lay_hi, u)])
        if outside[i]:
            for r in refined[grid.level_of(refined) < grid.level_of(u)]:
                text = f"refinement cube {int(r)} at k+m={k + m} is not inside the parent of {q}"
                found.append((i, text))
        if loaded[i]:
            reevaluated += 1
            band = deco.omega_mask(k + m - 1) & ~deco.omega_mask(k + m)
            e_mask = grid.subtree_leaf_mask(q) & band
            t_in = apply_T_restricted(tau, omega.with_leaf_mask(e_mask), _handle(u), "in")
            held, starts = _leaves_under(grid, 0, refined, 0, np.arange(grid.n_leaves))
            for j, r in enumerate(refined):
                vals = t_in[held[starts[j] : starts[j + 1]]]
                if vals.size and not np.all(vals == vals[0]):
                    text = "refinement-constant localization not constant on refinement cube"
                    found.append((i, f"{text} {int(r)}"))
    found.sort(key=lambda pair: pair[0])
    return found, checks, reevaluated


@dataclass
class OccurrenceAudit:
    counts: dict  # refinement cube index -> number of (Q, k) class-3 pairs
    cap: float
    max_count: int
    violations: list[str] = field(default_factory=list)
    checks: int = 0  # refinement cubes counted


def occurrence_audit(classified: ClassifiedDecomposition) -> OccurrenceAudit:
    """How often each refinement cube is hit by class-3 pairs, against the cap.

    A class-3 cube Q of layer k hits every layer-(k+m) cube meeting its
    parent, so each k is one count row over the parents, scanned a block of
    rows at a time. The cap is 64 * 2**(rho*d) * (m+2) / eta.
    """
    deco = classified.whitney
    grid = deco.grid
    m = classified.m
    cap = 64.0 * 2 ** (deco.rho * grid.d) * (m + 2) / classified.eta
    e = classified.entries
    hit = e.cls == 3
    index = _layer_index(deco.layers)
    ks = np.array(sorted(k for k in set(e.k[hit].tolist()) if k + m in index), dtype=np.int64)
    k_hit, up = e.k[hit], grid.parent[e.cube[hit]]
    counted, row = np.isin(k_hit, ks), np.searchsorted(ks, k_hit)
    total = np.zeros(grid.n_cubes, dtype=np.int64)
    for lo, hi in _blocks(grid, ks.size):
        n = hi - lo
        mine = counted & (row >= lo) & (row < hi)
        real = mine & (up >= 0)
        meet = _meeting(grid, _counts(grid, row[real] - lo, up[real], n))[0]
        virtual = np.bincount(row[mine & ~real] - lo, minlength=n)
        refined = [deco.layers[index[k + m]].cubes for k in ks[lo:hi].tolist()]
        hi_row, hi_cubes, _ = _entries(refined)
        np.add.at(total, hi_cubes, meet[hi_row, hi_cubes].astype(np.int64) + virtual[hi_row])
    counts = {int(r): int(total[r]) for r in np.flatnonzero(total)}
    out = OccurrenceAudit(counts, cap, max(counts.values(), default=0), checks=len(counts))
    if out.max_count > cap:
        out.violations.append(f"occurrence count {out.max_count} exceeds cap {cap}")
    return out


@dataclass
class PrincipalForest:
    grid: DyadicGrid
    f: np.ndarray
    sigma: Measure
    cubes: np.ndarray  # sorted principal cube indices
    gamma: dict  # seed index -> governing principal index
    averages: dict  # principal index -> sigma-average of f
    skipped: list[int] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    checks: int = 0  # seeds checked for domination plus member pairs checked for doubling

    def to_json_dict(self) -> dict:
        return {
            "principal": [
                _cube_json(self.grid, c, {"average": self.averages[c]}) for c in self.cubes.tolist()
            ],
            "gamma": {str(k): int(v) for k, v in sorted(self.gamma.items())},
            "skipped": [int(s) for s in self.skipped],
            "violations": list(self.violations),
        }


def principal_cubes(f, sigma: Measure, seeds) -> PrincipalForest:
    """Stopping-time corona over the seed cubes: averages double down each chain.

    One sweep from the root carries gov[c], the deepest member at or above
    cube c. A usable seed enters when no member lies above it or when its
    sigma-average of f exceeds twice that of gov[parent]; any other cube takes
    gov[parent]. Gamma is gov at each usable seed. Seeds with zero sigma mass
    are skipped and recorded. ``f`` is one finite value >= 0 per leaf.
    Audited: the governing average dominates half the seed's average, and
    averages strictly double down every chain.
    """
    grid = sigma.grid
    f = np.asarray(f, dtype=np.float64)
    fs = Measure.product(f, sigma)
    if np.any(f < 0):
        raise ValueError("principal cubes require f >= 0")
    seed_idx = _seed_indices(grid, seeds)
    skipped = seed_idx[sigma.cube_mass[seed_idx] == 0].tolist()
    cubes = seed_idx[sigma.cube_mass[seed_idx] > 0]
    averages = fs.cube_mass[cubes] / sigma.cube_mass[cubes]
    # the last slot is above the root, where every seed clears -inf; NaN never enters
    seed_avg = np.append(np.full(grid.n_cubes, np.nan), -np.inf)
    seed_avg[cubes] = averages
    gov = np.full(grid.n_cubes + 1, -1, dtype=np.int64)
    for lev in range(grid.depth + 1):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        up = gov[grid.parent[lo:hi]]
        gov[lo:hi] = np.where(seed_avg[lo:hi] > 2.0 * seed_avg[up], np.arange(lo, hi), up)
    governing = gov[cubes]
    member = governing == cubes
    members = cubes[member]
    gamma = dict(zip(cubes.tolist(), governing.tolist()))
    family_avg = dict(zip(members.tolist(), averages[member].tolist()))
    forest = PrincipalForest(grid, f.copy(), sigma, members, gamma, family_avg)
    forest.skipped = skipped
    forest.violations = _principal_violations(grid, cubes, averages, governing, members)
    # each member is checked against every member strictly above it
    forest.checks = cubes.size + int(_below(grid, members)[members].sum()) - members.size
    return forest


def _seed_indices(grid: DyadicGrid, seeds) -> np.ndarray:
    """The distinct cube indices of ``seeds``, sorted. Int seeds are range-checked
    in one pass; anything else goes through ``grid.index_of`` one by one. Sorting
    and dropping repeats is many times faster here than ``np.unique``, which hashes."""
    seeds = seeds if isinstance(seeds, np.ndarray) else list(seeds)
    idx = np.asarray(seeds)
    if idx.dtype.kind not in "iu" or idx.ndim != 1:
        idx = np.array([grid.index_of(s) for s in seeds], dtype=np.int64)
    bad = (idx < 0) | (idx >= grid.n_cubes)
    if bad.any():
        raise ValueError(f"cube index {int(idx[bad][0])} out of range")
    idx = np.sort(idx.astype(np.int64))
    return idx[np.diff(idx, prepend=-1) > 0]


def _principal_violations(grid: DyadicGrid, seeds, averages, governing, family) -> list[str]:
    """Audit of a principal family: every seed governed and dominated, averages doubling.

    ``seeds`` are the usable seeds in ascending order, and the arrays
    ``averages`` and ``governing`` hold their sigma-averages of f and their
    governing members (-1 for none); the governors and the ``family`` are
    among the seeds. Domination
    is one comparison over all seeds, reported in seed order. A member
    doubles every member above it exactly when twice their largest average
    (one ``down_max``, read at its parent) lies below its own. Members
    failing this screen are paired with their ancestors, ancestor first by level.
    The family is ordered by level (stably), and pairs are listed in that order.
    """
    bad = governing < 0
    live = ~bad
    gov_avg = averages[np.searchsorted(seeds, governing[live])]
    bad[live] = averages[live] > 2.0 * gov_avg * (1 + 1e-12)
    out = [
        f"seed {i} has no governing principal cube"
        if g < 0
        else f"principal-domination seed {i}: average {a!r} exceeds twice that of {g}"
        for i, a, g in zip(seeds[bad].tolist(), averages[bad].tolist(), governing[bad].tolist())
    ]
    fam = np.asarray(family, dtype=np.int64)
    fam = fam[np.argsort(grid.level_of(fam), kind="stable")]
    rank = np.full(grid.n_cubes, -1, dtype=np.int64)
    rank[fam] = np.arange(fam.size)
    placed = np.full(grid.n_cubes, -np.inf)
    placed[fam] = averages[np.searchsorted(seeds, fam)]
    top = np.append(_kernels.down_max(placed, grid), -np.inf)
    fails = ~(2.0 * top[grid.parent[fam]] < placed[fam])  # top[-1] is above the root
    pairs = [
        (int(rank[gi]), int(rank[gj]))
        for gj in fam[fails].tolist()
        for gi in grid.ancestor(gj, np.arange(1, grid.level_of(gj) + 1)).tolist()
        if rank[gi] >= 0 and not (2.0 * placed[gi] < placed[gj])
    ]
    for i, j in sorted(pairs):
        out.append(f"principal-doubling chain {fam[j]} inside {fam[i]}: averages fail to double")
    return out


def geometric_sum_audit(forest: PrincipalForest) -> float:
    """Sup over leaves of (sum of principal averages at the leaf) / maximal function.

    The doubling property makes each leaf's sum a geometric series dominated
    by twice its largest term, so the returned ratio should never exceed 2.
    """
    grid = forest.grid
    if forest.cubes.size == 0:
        return 0.0
    # each leaf adds the averages root first, as a loop over ascending indices would
    placed = np.zeros(grid.n_cubes)
    placed[forest.cubes] = [forest.averages[int(c)] for c in forest.cubes]
    numer = _kernels.down_sum(placed, grid)[grid.leaf_start :]
    mx = maximal(forest.f, forest.sigma)
    bad = (numer > 0) & (mx == 0)
    if np.any(bad):
        raise RuntimeError("positive principal sum where the maximal function vanishes")
    ok = mx > 0
    if not np.any(ok):
        return 0.0
    return float((numer[ok] / mx[ok]).max())


def carleson_of_principal(forest: PrincipalForest, p: float) -> float:
    """Ratio of the principal-cube Carleson sum to the p-th power of ||f||."""
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    denom = lp_norm(forest.f, forest.sigma, p) ** p
    if denom == 0:
        return 0.0
    numer = sum(
        float(forest.sigma.cube_mass[int(c)]) * forest.averages[int(c)] ** p
        for c in forest.cubes
    )
    return numer / denom


@dataclass
class MaxPrincipleViolation:
    k: int
    cube: int
    leaf: int
    kind: str  # "out-local", "out-far", or "in-lower"
    lhs: float
    rhs: float


@dataclass
class MaxPrincipleAudit:
    violations: list[MaxPrincipleViolation]  # empty list expected
    checks: int = 0  # comparisons made
    reevaluated: int = 0  # per-cube operator calls


def max_principle_audit(
    corridors: CorridorSets, f, sigma: Measure, tau: CubeWeights
) -> MaxPrincipleAudit:
    """On each layer cube: both outward contributions stay below the threshold,
    and the inward localization clears it on the corridor, each within the
    relative slack ``_MP_RTOL``. The layers are those of ``corridors``.

    Let A = down_sum(tau/|Q|), D = down_sum(tau * f sigma(Q)/|Q|) and P1, P2
    the parent and grandparent of a layer cube. By T = T^in_R + T^out_parent(R),
    on the cube the local outward part is the constant f sigma(P2) * A(P2); the
    far outward part is the sum over P strictly above P2 of
    tau_P * f sigma(P minus P2)/|P|, which regroups ring by ring into
    down_sum((f sigma(parent) - f sigma(Q)) * A(parent)) at P2, a sum of
    like-signed terms (``constants._outer_sums`` at exponent 1) whose
    subtractions round by at most eps * down_sum(|f sigma|(parent) * A(parent));
    and the inward part is v - D(P2) on the corridor leaves, v = T(f sigma) = D
    at the leaves. A comparison within the rounding margin, or one that fails,
    is made again with the per-cube operator call.
    """
    deco = corridors.whitney
    grid = deco.grid
    fs = Measure.product(f, sigma)
    size = grid.subtree_sums(np.abs(fs.leaf_mass))  # |f sigma|, the scale of rounding

    def path(values):
        return _kernels.down_sum(values, grid)

    reach, far = _outer_sums(tau, fs, 1.0)
    local = fs.cube_mass * reach
    far_scale = path(_at(size * reach, grid.parent))
    inner = path(tau.coef * fs.cube_mass)
    inner_scale = path(tau.coef * size)[grid.leaf_start :]

    cubes, leaves = corridors.cube, corridors.leaves
    thr = np.array([lay.threshold for lay in deco.layers])[corridors.layer]
    hi, lo = thr * (1 + _MP_RTOL), thr * (1 - _MP_RTOL)
    p1 = grid.parent[cubes]
    p2 = grid.ancestor(cubes, 2)
    out_local = _at(local, p2)
    out_far = _at(far, p2)
    redo_local = (out_local > hi) | _near(out_local, hi, np.abs(out_local))
    redo_far = (out_far > hi) | _near(out_far, hi, _at(far_scale, p2))

    owner = np.repeat(np.arange(cubes.size), np.diff(corridors.starts))
    t_in = inner[grid.leaf_start + leaves] - _at(inner, p2)[owner]
    shaky = (t_in < lo[owner]) | _near(t_in, lo[owner], inner_scale[leaves])
    redo_in = np.zeros(cubes.size, dtype=bool)
    redo_in[owner[shaky]] = True
    volumes = grid.level_volumes[grid.level_of(cubes)]
    checks = 2 * int(np.rint(grid.n_leaves * volumes).sum()) + leaves.size

    violations: list[MaxPrincipleViolation] = []
    reevaluated = 0
    for i in np.flatnonzero(redo_local | redo_far | redo_in).tolist():
        k, c, up1, up2 = deco.layers[corridors.layer[i]].k, int(cubes[i]), int(p1[i]), int(p2[i])
        t = float(thr[i])
        outward = []
        if redo_local[i] or redo_far[i]:
            up2_mask = grid.subtree_leaf_mask(up2) if up2 >= 0 else np.ones(grid.n_leaves, bool)
        if redo_local[i]:
            vals = apply_T_restricted(tau, fs.with_leaf_mask(up2_mask), _handle(up2), "out")
            outward.append(("out-local", vals))
        if redo_far[i]:
            # T(f sigma off P2): the in-localization above the root keeps every
            # summand, as apply_T does
            vals = apply_T_restricted(tau, fs.with_leaf_mask(~up2_mask), CubeRef(-1), "in")
            outward.append(("out-far", vals))
        reevaluated += len(outward)
        if outward:
            for leaf in np.flatnonzero(grid.subtree_leaf_mask(c)):
                violations += [
                    MaxPrincipleViolation(k, c, int(leaf), kind, float(vals[leaf]), t)
                    for kind, vals in outward
                    if vals[leaf] > hi[i]
                ]
        if redo_in[i]:
            reevaluated += 1
            vals = apply_T_restricted(tau, fs, _handle(up1), "in")
            violations += [
                MaxPrincipleViolation(k, c, int(leaf), "in-lower", float(vals[leaf]), t)
                for leaf in corridors.corridor(i)
                if vals[leaf] < lo[i]
            ]
    return MaxPrincipleAudit(violations, checks, reevaluated)


@dataclass
class ProofLabReport:
    n_layers: int
    k_lo: int | None
    k_hi: int | None
    saturated_layers: list[int]
    clamped_cubes: int
    fo_max: int
    crowd_max: int
    class_counts: dict
    key_margin_min: float
    occurrence_max: int
    occurrence_cap: float
    max_principle_violations: int
    principal_count: int
    geometric_ratio: float
    carleson_ratio: float
    carleson_cap: float
    violations: list[str] = field(default_factory=list)
    checks_run: dict = field(default_factory=dict)  # audit family -> checks made
    reevaluated: int = 0  # decisions the batched screen sent to a per-cube operator call
    timings: dict = field(default_factory=dict)  # stage -> wall seconds
    # the audited stages themselves, for callers that report them; not serialized
    whitney: WhitneyDecomposition | None = field(default=None, repr=False)
    classified: ClassifiedDecomposition | None = field(default=None, repr=False)
    forest: PrincipalForest | None = field(default=None, repr=False)  # None without seeds

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """Every field but the audited stages, in field order, with timings as ``time_<stage>``."""
        keep = [f.name for f in fields(self) if f.repr and f.name != "timings"]
        out = {name: getattr(self, name) for name in keep}
        out["class_counts"] = {str(k): v for k, v in sorted(self.class_counts.items())}
        out["checks_run"] = dict(self.checks_run)
        return {**out, **{f"time_{stage}": t for stage, t in self.timings.items()}}


def audit_decomposition(
    f,
    sigma: Measure,
    omega: Measure,
    tau: CubeWeights,
    *,
    eta: float = DEFAULT_ETA,
    rho: int = DEFAULT_RHO,
    p: float = 2.0,
) -> ProofLabReport:
    """Run the full decomposition pipeline on one instance and aggregate audits.

    Builds v = T(f sigma), the Whitney layers, the corridors at m =
    ``DEFAULT_M`` (once, for the classification, the neighbor sets and the
    maximum principle), the classification, the
    neighbor/occurrence counts, the maximum-principle check, and a principal
    forest seeded with all layer cubes. Every violation string from every
    stage lands in one list; an empty list means the instance passes
    everything. The report also counts the checks each audit family
    made, the decisions re-taken by a per-cube operator call, the wall time
    of each stage, and the layers, classification and forest it audited.
    Raises ValueError unless p > 1.
    """
    if not p > 1:
        raise ValueError(f"need p > 1, got {p}")
    grid = sigma.grid
    timings: dict[str, float] = {}
    start = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal start
        now = time.perf_counter()
        timings[stage] = now - start
        start = now

    v = apply_T(tau, Measure.product(f, sigma))
    deco = whitney_layers(grid, v, rho)
    lap("whitney")
    corridors = corridor_sets(deco, DEFAULT_M)
    lap("corridors")
    classified = classify_cubes(corridors, f, sigma, omega, tau, eta)
    lap("classify")

    violations = list(deco.violations) + list(classified.violations)
    occurrence = occurrence_audit(classified)
    violations += occurrence.violations
    found, neighbor_checks, reevaluated = _layer_neighbors(
        deco, range(len(deco.layers)), DEFAULT_M, tau, omega
    )
    violations += [text for _, text in found]
    lap("neighbors")

    mp = max_principle_audit(corridors, f, sigma, tau)
    reevaluated += mp.reevaluated + classified.reevaluated
    violations += [
        f"max principle {v.kind} k={v.k} cube={v.cube} leaf={v.leaf}: "
        f"{v.lhs!r} vs {v.rhs!r}"
        for v in mp.violations
    ]
    lap("max_principle")

    seeds = corridors.cube
    forest = principal_cubes(f, sigma, seeds) if seeds.size else None
    geo = car = 0.0
    if forest is not None:
        violations += forest.violations
        geo, car = geometric_sum_audit(forest), carleson_of_principal(forest, p)
    car_cap = (p / (p - 1.0)) ** p
    if geo > 2.0 + 1e-9:
        violations.append(f"geometric principal sum ratio {geo!r} exceeds 2")
    if car > car_cap * (1 + 1e-9):
        violations.append(f"principal Carleson ratio {car!r} exceeds {car_cap!r}")
    lap("principal")

    counts = np.bincount(classified.entries.cls, minlength=4)
    grown = forest is not None
    return ProofLabReport(
        n_layers=len(deco.layers),
        k_lo=deco.layers[0].k if deco.layers else None,
        k_hi=deco.layers[-1].k if deco.layers else None,
        saturated_layers=[lay.k for lay in deco.layers if lay.saturated],
        clamped_cubes=int(sum(int(lay.clamped.sum()) for lay in deco.layers)),
        fo_max=deco.fo_max,
        crowd_max=deco.crowd_max,
        class_counts={c: int(counts[c]) for c in (1, 2, 3)},
        key_margin_min=classified.key_margin_min,
        occurrence_max=occurrence.max_count,
        occurrence_cap=occurrence.cap,
        max_principle_violations=len(mp.violations),
        principal_count=0 if forest is None else int(forest.cubes.size),
        geometric_ratio=geo,
        carleson_ratio=car,
        carleson_cap=car_cap,
        violations=violations,
        checks_run={
            "whitney": deco.checks,
            "corridor": corridors.checks,
            "classification": classified.checks,
            "neighbor": neighbor_checks,
            "occurrence": occurrence.checks,
            "max_principle": mp.checks,
            "principal": forest.checks if grown else 0,
            "geometric": int(grown),
            "carleson": int(grown),
        },
        reevaluated=reevaluated,
        timings=timings,
        whitney=deco,
        classified=classified,
        forest=forest,
    )
