"""Executable decomposition machinery, each construction paired with its audit.

Everything here operates on superlevel sets of v = T(f sigma): Whitney-style
cube layers, corridor sets, the three-way cube classification, neighbor and
occurrence counting, halving chains, principal-cube coronas, and the maximum
principle. Constructions return their audit findings as plain strings instead
of raising, so a suite can aggregate violations across instances; an empty
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
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _layout
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


def _full_cube_mask(grid: DyadicGrid, leaf_mask: np.ndarray) -> np.ndarray:
    """Boolean per cube: every leaf of the cube lies in ``leaf_mask``."""
    counts = grid.subtree_sums(leaf_mask.astype(np.float64))
    totals = grid.volumes * grid.n_leaves
    return counts == totals


def _maximal_mask(grid: DyadicGrid, full: np.ndarray) -> np.ndarray:
    """Boolean per cube: in ``full`` while its parent is not."""
    keep = full.copy()
    keep[1:] &= ~full[grid.parent[1:]]
    return keep


def _counts(grid: DyadicGrid, cubes: np.ndarray) -> np.ndarray:
    """How often each cube occurs in ``cubes``, as one float per cube."""
    return np.bincount(cubes, minlength=grid.n_cubes).astype(np.float64)


def _below(grid: DyadicGrid, cubes: np.ndarray) -> np.ndarray:
    """Per cube, how many entries of ``cubes`` contain it (itself included)."""
    return _kernels.down_sum(_counts(grid, cubes), grid.parent, grid.level_offsets)


def _meeting(grid: DyadicGrid, cubes: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per entry of ``targets``, how many entries of ``cubes`` meet it: those inside
    it plus those containing it. -1, the cube above the root, meets them all."""
    cnt = _counts(grid, cubes)
    meet = (
        _kernels.up_sum(cnt, grid.level_offsets)
        + _kernels.down_sum(cnt, grid.parent, grid.level_offsets)
        - cnt
    )
    return np.where(targets >= 0, meet[np.maximum(targets, 0)], len(cubes)).astype(np.int64)


def _at(values: np.ndarray, cubes: np.ndarray) -> np.ndarray:
    """``values`` read at ``cubes``, 0 at -1, the cube above the root."""
    return np.where(cubes >= 0, values[np.maximum(cubes, 0)], 0.0)


def _near(value, bound, scale):
    """Where a batched value lies too close to its bound to decide by it."""
    return np.abs(value - bound) < _MARGIN * scale


def _handle(c: int):
    """A cube index as the operators take it; -1 becomes a virtual cube."""
    return c if c >= 0 else CubeRef(-1)


def _leaves_under(grid: DyadicGrid, cubes: np.ndarray, leaves: np.ndarray) -> dict:
    """Cube index -> the sorted positions of ``leaves`` inside it, for every cube of ``cubes``."""
    groups = {}
    member = np.zeros(grid.n_cubes, dtype=bool)
    member[cubes] = True
    for lev in np.unique(grid.levels[cubes]):
        owner = grid.ancestor(grid.leaf_start + leaves, grid.depth - int(lev))
        hit = member[owner]
        order = np.argsort(owner[hit], kind="stable")
        keys, starts = np.unique(owner[hit][order], return_index=True)
        groups.update(zip(keys.tolist(), np.split(leaves[hit][order], starts[1:])))
    empty = np.empty(0, dtype=np.int64)
    return {int(c): groups.get(int(c), empty) for c in cubes}


def _meets(grid: DyadicGrid, cubes: np.ndarray, u: int) -> np.ndarray:
    """Which of ``cubes`` meet cube ``u``; -1, the cube above the root, meets all.

    Two dyadic cubes meet when they have the same ancestor at the coarser level of the two.
    """
    if u < 0:
        return np.ones(len(cubes), dtype=bool)
    gap = grid.levels[cubes] - grid.levels[u]
    return grid.ancestor(cubes, np.maximum(gap, 0)) == grid.ancestor(u, np.maximum(-gap, 0))


def superlevel_maximal_cubes(
    grid: DyadicGrid, v, lam: float, *, require_double: bool = False
) -> np.ndarray:
    """Maximal dyadic cubes entirely inside {v > lam}, as sorted cube indices.

    With ``require_double=True`` the list is filtered to cubes that also meet
    {v > 2*lam}.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (grid.n_leaves,):
        raise ValueError(f"expected {grid.n_leaves} leaf values, got shape {v.shape}")
    keep = _maximal_mask(grid, _full_cube_mask(grid, v > lam))
    if require_double:
        keep &= ~_full_cube_mask(grid, ~(v > 2 * lam))
    return np.flatnonzero(keep).astype(np.int64)


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

    def layer(self, k: int) -> WhitneyLayer | None:
        for lay in self.layers:
            if lay.k == k:
                return lay
        return None

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
                        {
                            "index": int(c),
                            "level": int(self.grid.levels[c]),
                            "coords": list(self.grid.cube(int(c)).coords),
                            "clamped": bool(fl),
                        }
                        for c, fl in zip(lay.cubes, lay.clamped)
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
    for k in range(k_lo, k_hi + 1):
        thr = _power(BASE, k)
        in_mask = v > thr
        if not in_mask.any():
            continue
        if in_mask.all():
            deco.layers.append(
                WhitneyLayer(k, thr, np.array([0], dtype=np.int64), np.array([False]), True)
            )
            continue
        full = _full_cube_mask(grid, in_mask)
        clamped = np.zeros(grid.n_cubes, dtype=bool)
        clamped[grid.leaf_start :] = in_mask & ~(real & full[up])[grid.leaf_start :]
        cubes = np.flatnonzero((real & _maximal_mask(grid, full)[up]) | clamped)
        deco.layers.append(WhitneyLayer(k, thr, cubes.astype(np.int64), clamped[cubes], False))

    _audit_whitney(deco)
    return deco


def _audit_whitney(deco: WhitneyDecomposition) -> None:
    grid = deco.grid
    rho = deco.rho
    d = grid.d
    fo_cap = 8 * 2 ** ((rho + 1) * d)
    crowd_cap = 2 ** (rho + 2) * 2 ** (rho * d)

    for lay in deco.layers:
        in_mask = deco.omega_mask(lay.k)
        full = _full_cube_mask(grid, in_mask)
        below = _below(grid, lay.cubes)

        # disjoint cover
        deco.checks += 1 + len(lay.cubes) + int(in_mask.any())  # cover, crowding, overlap
        cover = below[grid.leaf_start :]
        if not (np.all(cover[in_mask] == 1) and np.all(cover[~in_mask] == 0)):
            deco.violations.append(f"disjoint-cover k={lay.k}: cubes do not disjointly cover the set")

        # margin condition: rho-fold parent inside, (rho+1)-fold escapes
        up = grid.ancestor(lay.cubes, rho)
        real = up >= 0
        if not lay.saturated:
            deco.checks += 2 * int(np.count_nonzero(~lay.clamped))
            up2 = grid.ancestor(lay.cubes, rho + 1)
            outside = ~(real & full[up]) & ~lay.clamped
            stuck = (up2 >= 0) & full[up2] & ~lay.clamped
            for i in np.flatnonzero(outside | stuck):
                c = int(lay.cubes[i])
                if outside[i]:
                    deco.violations.append(f"margin k={lay.k} cube {c}: {rho}-fold parent not inside")
                if stuck[i]:
                    deco.violations.append(
                        f"margin k={lay.k} cube {c}: {rho + 1}-fold parent fails to escape"
                    )

        # finite overlap of rho-fold parents on the set; a parent above the
        # root covers every leaf
        overlap = _below(grid, up[real])[grid.leaf_start :] + np.count_nonzero(~real)
        if in_mask.any():
            fo = int(overlap[in_mask].max())
            deco.fo_max = max(deco.fo_max, fo)
            if fo > fo_cap:
                deco.violations.append(f"finite-overlap k={lay.k}: overlap {fo} exceeds cap {fo_cap}")

        # crowding: same-layer cubes meeting each rho-fold parent
        crowd = _meeting(grid, lay.cubes, up)
        deco.crowd_max = max(deco.crowd_max, int(crowd.max(initial=0)))
        for n in crowd[crowd > crowd_cap]:
            deco.violations.append(f"crowding k={lay.k}: {n} neighbors exceed cap {crowd_cap}")

    # nestedness: strict containment only ever points from deeper layers down;
    # layer b's count pass, read at q's parent, counts the b-cubes strictly containing q
    layers = deco.layers
    parents = [grid.ancestor(lay.cubes, 1) for lay in layers]
    hits = []
    for bi, b in enumerate(layers):
        around = _below(grid, b.cubes)
        for ai, a in enumerate(layers):
            if a.k > b.k:
                continue  # violation requires k <= l
            deco.checks += len(a.cubes)
            inside = (parents[ai] >= 0) & (around[parents[ai]] > 0)
            hits += [(ai, bi, int(q)) for q in a.cubes[inside]]
    for ai, bi, q in sorted(hits, key=lambda h: h[:2]):
        a, b = layers[ai], layers[bi]
        gap = grid.levels[q] - grid.levels[b.cubes]
        for qp in b.cubes[(gap > 0) & (grid.ancestor(q, np.maximum(gap, 0)) == b.cubes)]:
            deco.violations.append(
                f"nestedness cube {q} in k={a.k} strictly inside cube {int(qp)} of k={b.k}"
            )


@dataclass
class CorridorSets:
    whitney: WhitneyDecomposition
    m: int
    sets: dict  # (k, cube index) -> sorted np.ndarray of leaf indices
    violations: list[str] = field(default_factory=list)
    checks: int = 0  # one union check per layer


def corridor_sets(deco: WhitneyDecomposition, m: int = DEFAULT_M) -> CorridorSets:
    """E_k(Q) = Q intersected with the band between levels k+m-1 and k+m.

    Audited: every corridor sits inside its cube, corridors of one layer are
    pairwise disjoint, and their union is exactly the band clipped to Omega_k.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    grid = deco.grid
    out = CorridorSets(deco, m, {})
    for lay in deco.layers:
        band = deco.omega_mask(lay.k + m - 1) & ~deco.omega_mask(lay.k + m)
        seen = np.where(band, _below(grid, lay.cubes)[grid.leaf_start :], 0.0)
        groups = _leaves_under(grid, lay.cubes, np.flatnonzero(band))
        out.sets.update(((lay.k, c), leaves) for c, leaves in groups.items())
        target = band & deco.omega_mask(lay.k)
        if not (np.all(seen[target] == 1) and np.all(seen[~target] == 0)):
            out.violations.append(
                f"corridor k={lay.k}: union of E_k(Q) differs from the clipped band"
            )
    out.checks = len(deco.layers)
    return out


@dataclass
class ClassifiedCube:
    k: int
    cube: int
    cls: int  # 1, 2, or 3
    corridor: np.ndarray  # leaf indices
    alpha: float
    beta: float
    omega_corridor: float
    omega_cube: float


@dataclass
class ClassifiedDecomposition:
    whitney: WhitneyDecomposition
    eta: float
    m: int
    entries: list[ClassifiedCube]
    violations: list[str] = field(default_factory=list)
    key_margin_min: float = math.inf  # min (alpha+beta)/(thr * omega(E)) observed
    checks: int = 0  # key inequalities, corridor-overlap and layer-count checks
    reevaluated: int = 0  # cubes decided by the per-cube formula

    def to_json_dict(self) -> dict:
        grid = self.whitney.grid
        per_layer: dict[int, list] = {lay.k: [] for lay in self.whitney.layers}
        for e in self.entries:
            per_layer[e.k].append(
                {
                    "index": e.cube,
                    "level": int(grid.levels[e.cube]),
                    "coords": list(grid.cube(e.cube).coords),
                    "class": e.cls,
                    "corridor_leaves": e.corridor.tolist(),
                    "alpha": e.alpha,
                    "beta": e.beta,
                }
            )
        return {
            "eta": self.eta,
            "m": self.m,
            "rho": self.whitney.rho,
            "base": self.whitney.base,
            "layers": [
                {"k": k, "cubes": cubes} for k, cubes in sorted(per_layer.items())
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
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must be in (0,1), got {eta}")
    deco = corridors.whitney
    grid = deco.grid
    m = corridors.m
    f = np.asarray(f, dtype=np.float64)
    out = ClassifiedDecomposition(deco, eta, m, [])
    out.violations.extend(corridors.violations)
    fs_leaf = Measure.product(f, sigma).leaf_mass
    size = grid.subtree_sums(np.abs(fs_leaf))  # |f sigma|, the scale of rounding
    weight = tau.tau / grid.volumes

    for lay in deco.layers:
        above = deco.omega_mask(lay.k + m)
        corridor = [corridors.sets[(lay.k, int(c))] for c in lay.cubes]
        in_corridor = np.zeros(grid.n_leaves, dtype=bool)
        in_corridor[np.concatenate([_NO_LEAVES, *corridor])] = True
        w_k = grid.subtree_sums(np.where(in_corridor, omega.leaf_mass, 0.0))
        # rows: f sigma off Omega_{k+m} (alpha), on it (beta), and the scale
        fs_mass = np.stack([
            grid.subtree_sums(np.where(above, 0.0, fs_leaf)),
            grid.subtree_sums(np.where(above, fs_leaf, 0.0)),
            size,
        ])
        below = _kernels.up_sum_batch(weight * w_k * fs_mass, grid.level_offsets)
        up = grid.ancestor(lay.cubes, 1)
        real = up >= 0
        top = np.where(real, up, 0)
        own = np.where(real, weight[top] * w_k[lay.cubes] * fs_mass[:, top], 0.0)
        alpha, beta, scale = below[:, lay.cubes] + own

        w_e = np.array([float(omega.leaf_mass[leaves].sum()) for leaves in corridor])
        w_q = omega.cube_mass[lay.cubes]
        lhs = lay.threshold * w_e
        bound = (alpha + beta) * (1 + 1e-9)
        redo = (lhs > bound) | _near(lhs, bound, scale)
        redo |= ~(w_e <= eta * w_q) & _near(alpha, beta, scale)

        for i, c in enumerate(lay.cubes.tolist()):
            a, b = float(alpha[i]), float(beta[i])
            if redo[i]:
                a, b = _pairing(grid, f, sigma, omega, tau, c, corridor[i], above)
                out.reevaluated += 1
            if w_e[i] <= eta * w_q[i]:
                cls = 1
            elif a > b:
                cls = 2
            else:
                cls = 3
            out.entries.append(
                ClassifiedCube(lay.k, c, cls, corridor[i], a, b, float(w_e[i]), float(w_q[i]))
            )
            rhs = a + b
            if lhs[i] > rhs * (1 + 1e-9):
                out.violations.append(
                    f"key inequality k={lay.k} cube {c}: {float(lhs[i])!r} > alpha+beta={rhs!r}"
                )
            if lhs[i] > 0:
                out.key_margin_min = min(out.key_margin_min, rhs / float(lhs[i]))

    # corridor disjointness in k for a fixed cube, and the occurrence bound
    by_cube: dict[int, list[ClassifiedCube]] = {}
    for e in out.entries:
        by_cube.setdefault(e.cube, []).append(e)
    out.checks = len(out.entries) + 2 * len(by_cube)
    many_cap = math.ceil(1.0 / eta)
    for c, entries in by_cube.items():
        leaves = np.concatenate([e.corridor for e in entries])
        if np.unique(leaves).size < leaves.size:
            out.violations.append(f"corridors of cube {c} overlap across layers")
        hot = sum(1 for e in entries if e.cls != 1)
        if hot > many_cap:
            out.violations.append(
                f"layer-count cube {c}: non-class-1 in {hot} layers, cap {many_cap}"
            )
    return out


def _pairing(grid, f, sigma, omega, tau, c, leaves, above) -> tuple[float, float]:
    """(alpha, beta) of cube ``c`` by one inward localization: the per-cube formula."""
    e_mask = np.zeros(grid.n_leaves, dtype=bool)
    e_mask[leaves] = True
    up = grid.ancestor(c, 1)
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
    tau: CubeWeights | None = None,
    omega: Measure | None = None,
) -> NeighborSets:
    """Same-layer neighbors and layer-(k+m) refinements meeting the cube's parent.

    Audited: every refinement cube sits inside the parent; the neighbor count
    respects the crowding cap; and, when ``tau`` and ``omega`` are supplied,
    the inward localization of the corridor's omega mass is exactly constant
    on every refinement cube. The violations are the cube's entry in the
    audit of the whole layer (``_layer_neighbors``).
    """
    grid = deco.grid
    lay = deco.layer(k)
    q = grid.index_of(cube)
    if lay is None or not np.any(lay.cubes == q):
        raise ValueError(f"cube {q} is not in layer k={k}")
    up = grid.ancestor(q, 1)
    out = NeighborSets(k, q, np.sort(lay.cubes[_meets(grid, lay.cubes, up)]), _NO_LEAVES)
    lay_hi = deco.layer(k + m)
    if lay_hi is not None:
        out.refined = np.sort(lay_hi.cubes[_meets(grid, lay_hi.cubes, up)])
    out.violations = _layer_neighbors(deco, k, m, tau, omega)[0][int(np.argmax(lay.cubes == q))]
    return out


def _layer_neighbors(
    deco: WhitneyDecomposition,
    k: int,
    m: int,
    tau: CubeWeights | None = None,
    omega: Measure | None = None,
) -> tuple[list[list[str]], int, int]:
    """The ``neighbor_sets`` audits of every cube of layer k at once.

    Returns each cube's violation strings (aligned with the layer's cubes), the
    number of checks run and the number of cubes re-evaluated. Neighbor and
    refinement counts come from count passes over the layers. A refinement
    cube that does not lie inside the parent contains the parent's parent.
    The localization is constant on a refinement cube R whenever the omega
    mass of the band inside R is zero, which always holds for a refinement
    cube inside Omega_{k+m}: every summand strictly inside R is then an exact
    zero. Only cubes whose parent meets a refinement cube with band mass get
    the per-cube evaluation.
    """
    grid = deco.grid
    lay = deco.layer(k)
    up = grid.ancestor(lay.cubes, 1)
    crowd_cap = 2 ** (deco.rho + 2) * 2 ** (deco.rho * grid.d)
    count = _meeting(grid, lay.cubes, up)
    out = [
        [f"neighbor count {n} exceeds cap {crowd_cap} at k={k}"] if n > crowd_cap else []
        for n in count.tolist()
    ]
    checks = len(lay.cubes)
    lay_hi = deco.layer(k + m)
    if lay_hi is None:
        return out, checks, 0

    n_refined = _meeting(grid, lay_hi.cubes, up)
    checks += int(n_refined.sum())
    outside = (up >= 0) & (_at(_below(grid, lay_hi.cubes), grid.ancestor(np.maximum(up, 0), 1)) > 0)
    loaded = np.zeros(len(lay.cubes), dtype=bool)
    band = None
    if tau is not None and omega is not None:
        checks += int(n_refined.sum())
        band = deco.omega_mask(k + m - 1) & ~deco.omega_mask(k + m)
        heavy = grid.subtree_sums(np.where(band, omega.leaf_mass, 0.0))[lay_hi.cubes] > 0
        loaded = _meeting(grid, lay_hi.cubes[heavy], up) > 0

    reevaluated = 0
    for i in np.flatnonzero(outside | loaded):
        q, u = int(lay.cubes[i]), int(up[i])
        refined = np.sort(lay_hi.cubes[_meets(grid, lay_hi.cubes, u)])
        if outside[i]:
            for r in refined[grid.levels[refined] < grid.levels[u]]:
                out[i].append(
                    f"refinement cube {int(r)} at k+m={k + m} is not inside the parent of {q}"
                )
        if loaded[i]:
            reevaluated += 1
            e_mask = grid.subtree_leaf_mask(q) & band
            t_in = apply_T_restricted(tau, omega.with_leaf_mask(e_mask), _handle(u), "in")
            groups = _leaves_under(grid, refined, np.arange(grid.n_leaves))
            for r in refined:
                vals = t_in[groups[int(r)]]
                if vals.size and not np.all(vals == vals[0]):
                    out[i].append(
                        f"refinement-constant localization not constant on refinement cube {int(r)}"
                    )
    return out, checks, reevaluated


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
    parent, so each layer pair is one count pass over the parents. The cap is
    64 * 2**(rho*d) * (m+2) / eta.
    """
    deco = classified.whitney
    grid = deco.grid
    m = classified.m
    cap = 64.0 * 2 ** (deco.rho * grid.d) * (m + 2) / classified.eta
    hit: dict[int, list[int]] = {}
    for e in classified.entries:
        if e.cls == 3:
            hit.setdefault(e.k, []).append(e.cube)
    total = np.zeros(grid.n_cubes, dtype=np.int64)
    for k, cubes in hit.items():
        lay_hi = deco.layer(k + m)
        if lay_hi is None:
            continue
        up = grid.ancestor(np.array(cubes, dtype=np.int64), 1)
        real = up[up >= 0]
        np.add.at(total, lay_hi.cubes, _meeting(grid, real, lay_hi.cubes) + (up.size - real.size))
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
                {
                    "index": int(c),
                    "level": int(self.grid.levels[c]),
                    "coords": list(self.grid.cube(int(c)).coords),
                    "average": self.averages[int(c)],
                }
                for c in self.cubes
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
    seed_idx = sorted({grid.index_of(s) for s in seeds})
    skipped = [i for i in seed_idx if sigma.cube_mass[i] == 0]
    usable = [i for i in seed_idx if sigma.cube_mass[i] > 0]
    cubes = np.array(usable, dtype=np.int64)
    averages = fs.cube_mass[cubes] / sigma.cube_mass[cubes]
    avg = dict(zip(usable, averages.tolist()))
    # the last slot is above the root, where every seed clears -inf; NaN never enters
    seed_avg = np.append(np.full(grid.n_cubes, np.nan), -np.inf)
    seed_avg[cubes] = averages
    gov = np.full(grid.n_cubes + 1, -1, dtype=np.int64)
    for lev in range(grid.depth + 1):
        lo, hi = grid.level_offsets[lev], grid.level_offsets[lev + 1]
        up = gov[grid.parent[lo:hi]]
        gov[lo:hi] = np.where(seed_avg[lo:hi] > 2.0 * seed_avg[up], np.arange(lo, hi), up)
    governing = gov[cubes]
    members = cubes[governing == cubes]
    family = members.tolist()
    gamma = dict(zip(usable, governing.tolist()))
    forest = PrincipalForest(grid, f.copy(), sigma, members, gamma, {i: avg[i] for i in family})
    forest.skipped = skipped
    forest.violations = _principal_violations(grid, usable, avg, family, gamma)
    # each member is checked against every member strictly above it
    forest.checks = len(usable) + int(_below(grid, members)[members].sum()) - len(family)
    return forest


def _principal_violations(grid: DyadicGrid, usable, avg, family, gamma) -> list[str]:
    """Audit of a principal family: every seed governed and dominated, averages doubling.

    A member doubles every member above it exactly when twice their largest
    average (one ``down_max``, read at its parent) lies below its own. Members
    failing this screen are paired with their ancestors, ancestor first by level.
    """
    out = []
    for i in usable:
        g = gamma.get(i)
        if g is None:
            out.append(f"seed {i} has no governing principal cube")
        elif avg[i] > 2.0 * avg[g] * (1 + 1e-12):
            out.append(
                f"principal-domination seed {i}: average {avg[i]!r} exceeds twice that of {g}"
            )
    fam = sorted(family, key=lambda i: int(grid.levels[i]))
    rank = {c: r for r, c in enumerate(fam)}
    placed = np.full(grid.n_cubes, -np.inf)
    placed[fam] = [avg[c] for c in fam]
    top = np.append(_kernels.down_max(placed, grid.parent, grid.level_offsets), -np.inf)
    fails = ~(2.0 * top[grid.parent[fam]] < placed[fam])  # top[-1] is above the root
    pairs = [
        (rank[gi], rank[gj])
        for gj in np.array(fam, dtype=np.int64)[fails].tolist()
        for gi in grid.ancestor(gj, np.arange(1, grid.levels[gj] + 1)).tolist()
        if gi in rank and not (2.0 * avg[gi] < avg[gj])
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
    numer = _kernels.down_sum(placed, grid.parent, grid.level_offsets)[grid.leaf_start :]
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


def halving_chain(omega: Measure, x, q0) -> list[int]:
    """Descending cube chain along x where the omega mass at least halves per step.

    Each successor is the largest cube on x's ancestor line, strictly inside
    the current cube, whose mass is at most half the current mass; the chain
    stops at the leaf or when no such cube exists.
    """
    grid = omega.grid
    xi = grid.index_of(x)
    if int(grid.levels[xi]) != grid.depth:
        raise ValueError("x must be a leaf cube")
    q0i = grid.index_of(q0)
    height = grid.depth - int(grid.levels[q0i])
    if grid.ancestor(xi, height) != q0i:
        raise ValueError("x does not lie in the starting cube")
    if omega.cube_mass[q0i] == 0:
        raise ValueError("starting cube has zero mass")
    chain = [q0i]
    for c in grid.ancestor(xi, np.arange(height - 1, -1, -1)).tolist():  # down to the leaf
        if omega.cube_mass[c] <= 0.5 * omega.cube_mass[chain[-1]]:
            chain.append(c)
    return chain


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
    down_sum(f sigma(siblings) * A(parent)) at P2, a sum of like-signed terms;
    and the inward part is v - D(P2) on the corridor leaves, v = T(f sigma) = D
    at the leaves. A comparison within the rounding margin, or one that fails,
    is made again with the per-cube operator call.
    """
    deco = corridors.whitney
    grid = deco.grid
    fs = Measure.product(f, sigma)
    size = grid.subtree_sums(np.abs(fs.leaf_mass))  # |f sigma|, the scale of rounding

    def path(values):
        return _kernels.down_sum(values, grid.parent, grid.level_offsets)

    reach = path(tau.tau / grid.volumes)
    local = fs.cube_mass * reach
    far = path(_sibling_mass(grid, fs.cube_mass) * _at(reach, grid.parent))
    far_scale = path(_sibling_mass(grid, size) * _at(reach, grid.parent))
    inner = path(tau.tau * fs.cube_mass / grid.volumes)
    inner_scale = path(tau.tau * size / grid.volumes)[grid.leaf_start :]

    violations: list[MaxPrincipleViolation] = []
    checks = reevaluated = 0
    for lay in deco.layers:
        thr = lay.threshold
        hi, lo = thr * (1 + _MP_RTOL), thr * (1 - _MP_RTOL)
        p1 = grid.ancestor(lay.cubes, 1)
        p2 = grid.ancestor(lay.cubes, 2)
        out_local = _at(local, p2)
        out_far = _at(far, p2)
        redo_local = (out_local > hi) | _near(out_local, hi, np.abs(out_local))
        redo_far = (out_far > hi) | _near(out_far, hi, _at(far_scale, p2))

        corridor = [corridors.sets[(lay.k, int(c))] for c in lay.cubes]
        leaves = np.concatenate([_NO_LEAVES, *corridor])
        owner = np.repeat(np.arange(len(corridor)), [x.size for x in corridor])
        t_in = inner[grid.leaf_start + leaves] - _at(inner, p2)[owner]
        shaky = (t_in < lo) | _near(t_in, lo, inner_scale[leaves])
        redo_in = np.zeros(len(lay.cubes), dtype=bool)
        redo_in[owner[shaky]] = True
        checks += 2 * int(np.rint(grid.n_leaves * grid.volumes[lay.cubes]).sum()) + leaves.size

        for i in np.flatnonzero(redo_local | redo_far | redo_in):
            c, up1, up2 = int(lay.cubes[i]), int(p1[i]), int(p2[i])
            outward = []
            if redo_local[i] or redo_far[i]:
                up2_mask = (
                    grid.subtree_leaf_mask(up2) if up2 >= 0 else np.ones(grid.n_leaves, dtype=bool)
                )
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
                        MaxPrincipleViolation(lay.k, c, int(leaf), kind, float(vals[leaf]), thr)
                        for kind, vals in outward
                        if vals[leaf] > hi
                    ]
            if redo_in[i]:
                reevaluated += 1
                vals = apply_T_restricted(tau, fs, _handle(up1), "in")
                violations += [
                    MaxPrincipleViolation(lay.k, c, int(leaf), "in-lower", float(vals[leaf]), thr)
                    for leaf in corridor[i]
                    if vals[leaf] < lo
                ]
    return MaxPrincipleAudit(violations, checks, reevaluated)


def _sibling_mass(grid: DyadicGrid, mass: np.ndarray) -> np.ndarray:
    """Per cube, the summed mass of its siblings (0 at the root).

    Summed directly rather than as parent minus self, so that a light ring
    beside a heavy cube keeps its relative accuracy.
    """
    out = np.zeros(grid.n_cubes)
    for lev in range(1, grid.depth + 1):
        # one row of the last axis per parent, its children in canonical order
        vals = np.stack(_layout.child_slots(mass, grid.level_offsets, lev, grid.d), axis=-1)
        for j, slot in enumerate(_layout.child_slots(out, grid.level_offsets, lev, grid.d)):
            slot[...] = np.delete(vals, j, axis=-1).sum(axis=-1)
    return out


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

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "saturated_layers": self.saturated_layers,
            "clamped_cubes": self.clamped_cubes,
            "fo_max": self.fo_max,
            "crowd_max": self.crowd_max,
            "class_counts": {str(k): v for k, v in sorted(self.class_counts.items())},
            "key_margin_min": self.key_margin_min,
            "occurrence_max": self.occurrence_max,
            "occurrence_cap": self.occurrence_cap,
            "max_principle_violations": self.max_principle_violations,
            "principal_count": self.principal_count,
            "geometric_ratio": self.geometric_ratio,
            "carleson_ratio": self.carleson_ratio,
            "carleson_cap": self.carleson_cap,
            "violations": self.violations,
            "checks_run": dict(self.checks_run),
            "reevaluated": self.reevaluated,
            **{f"time_{stage}": t for stage, t in self.timings.items()},
        }


def audit_decomposition(
    f,
    sigma: Measure,
    omega: Measure,
    tau: CubeWeights,
    *,
    eta: float = DEFAULT_ETA,
    rho: int = DEFAULT_RHO,
    m: int = DEFAULT_M,
    p: float = 2.0,
) -> ProofLabReport:
    """Run the full decomposition pipeline on one instance and aggregate audits.

    Builds v = T(f sigma), the Whitney layers, the corridors (once, for the
    classification and the maximum principle), the classification, the
    neighbor/occurrence counts, the maximum-principle check, and a principal
    forest seeded with all layer cubes. Every violation string from every
    stage lands in one list; an empty list means the instance passes
    everything. The report also counts the checks each audit family
    made, the decisions re-taken by a per-cube operator call, and the wall
    time of each stage.
    """
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
    corridors = corridor_sets(deco, m)
    lap("corridors")
    classified = classify_cubes(corridors, f, sigma, omega, tau, eta)
    lap("classify")

    violations = list(deco.violations) + list(classified.violations)
    occurrence = occurrence_audit(classified)
    violations += occurrence.violations
    neighbor_checks = reevaluated = 0
    for lay in deco.layers:
        per_cube, checks, redone = _layer_neighbors(deco, lay.k, m, tau, omega)
        neighbor_checks += checks
        reevaluated += redone
        for found in per_cube:
            violations += found
    lap("neighbors")

    mp = max_principle_audit(corridors, f, sigma, tau)
    reevaluated += mp.reevaluated + classified.reevaluated
    violations += [
        f"max principle {v.kind} k={v.k} cube={v.cube} leaf={v.leaf}: "
        f"{v.lhs!r} vs {v.rhs!r}"
        for v in mp.violations
    ]
    lap("max_principle")

    seeds = sorted({int(c) for lay in deco.layers for c in lay.cubes})
    forest = principal_cubes(f, sigma, seeds) if seeds else None
    if forest is not None:
        violations += forest.violations
        geo = geometric_sum_audit(forest)
        car = carleson_of_principal(forest, p)
    else:
        geo = 0.0
        car = 0.0
    p_conj = p / (p - 1.0)
    car_cap = p_conj**p
    if geo > 2.0 + 1e-9:
        violations.append(f"geometric principal sum ratio {geo!r} exceeds 2")
    if car > car_cap * (1 + 1e-9):
        violations.append(f"principal Carleson ratio {car!r} exceeds {car_cap!r}")
    lap("principal")

    class_counts: dict[int, int] = {1: 0, 2: 0, 3: 0}
    for e in classified.entries:
        class_counts[e.cls] += 1
    grown = forest is not None
    return ProofLabReport(
        n_layers=len(deco.layers),
        k_lo=deco.layers[0].k if deco.layers else None,
        k_hi=deco.layers[-1].k if deco.layers else None,
        saturated_layers=[lay.k for lay in deco.layers if lay.saturated],
        clamped_cubes=int(sum(int(lay.clamped.sum()) for lay in deco.layers)),
        fo_max=deco.fo_max,
        crowd_max=deco.crowd_max,
        class_counts=class_counts,
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
    )
