"""Operator-norm estimation: certified values where p = q, lower bounds elsewhere.

At p = q = 2 the norm is the top singular value of a weighted kernel matrix
that is never materialized: each matrix-vector product is one application of
the dyadic operator. ``exact_norm_22`` takes locally optimal (LOBPCG) steps,
two applications each, and calls its value "exact" only when the singular
pair's residual at exit is at most 1e-9 relative. The strong norm at
p = q != 2 is the p -> p norm of a nonnegative map; ``_power_solve`` brackets it between the value of its best
iterate and a Hoelder (Collatz-Wielandt) upper value, two operator
applications per step. It runs Boyd's fixed-point step, mixed with the
step before by a one-pair Anderson step, so it keeps only the last iterate
and its image. Both Boyd solvers, this one and the ascent where p < q, raise
the gradient to the power 1/(p-1) in one place, ``_boyd_power``, which
scales each row to a maximum of 1 first: the power stays finite however
close p is to 1, and the upper value needs no division by an f^(p-1) that
underflowed. The Carleson embedding constant (every p) has an exact
Bellman recursion on the tree: one leaf-to-root pass decides whether a number
exceeds C_p^p, so a bracket search on that number certifies the constant from
above, and one root-to-leaf pass recovers the extremal that attains it from
below (``carleson_embedding_constant``). Where p < q the
module reports honest lower bounds found by Boyd's fixed-point step, kept
row by row where it improves, on the nonnegative part of the L^p(sigma)
sphere, seeded with Dirichlet-like restarts and the best cube indicators.
The objective at every normalized cube indicator has a closed form of a few
tree scans (``_cet_scores``; ``strengthened_local_values`` for the strong
norm), so all cubes are ranked without building their indicators, and only
the top ``_RESTARTS`` of them join the pool: the ascent holds
O(_RESTARTS * n_cubes) numbers. The weak-type bound scans the same pool rows
and their images, which where p < q are built once for both bounds. Since
l * omega(h > l)^(1/q) <= ||h||_{L^q(omega)} (Chebyshev), a row whose norm
times (1 + ``_WEAK_MARGIN``), 1e-9, does not exceed the best weak value so
far cannot beat it and is not scanned. ``norm_bounds`` is the norm stage's
one entry point: it picks the solvers for the exponent pair, and every
caller shares one pool policy, ``_RESTARTS`` rows of each kind and at most
``_ASCENT_ROUNDS`` rounds, with only the pool's seed left to choose. Every
estimate carries the extremal function that attains it, so values can be
re-evaluated independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .constants import strengthened_local_values
from .grid import DyadicGrid, Exponents, GridSizeError, Measure
from .operators import CubeWeights

DENSE_ORACLE_MAX_LEAVES = 1 << 12

# LOBPCG for exact_norm_22: iteration cap, relative singular-pair residual
# that stops it and makes the value "exact", and the smallest eigenvalue of
# the unit-diagonal Gram matrix of [x, r, p] below which p is dropped.
_POWER_MAX_ITER = 50000
_POWER_RESIDUAL_TOL = 1e-9
_GRAM_FLOOR = 1e-12

# Certified power solver: iteration cap, relative bracket width that makes a
# value "exact" (for the embedding constant too) and positivity floor
# (relative to the image's maximum), which keeps the Hoelder upper value
# defined.
_SOLVE_MAX_ITER = 2000
_SOLVE_GAP = 1e-12
_FLOOR = 1e-30

# Embedding recursion: relative margin on its upper value for the rounding of
# a pass (the pass rounds at about depth * 1e-16), relative width in lam at
# which the bracket search stops, and the cubes one pass may hold (rows of lam
# values times the grid's cubes), which keeps a pass O(n_cubes) in memory.
_CET_MARGIN = 1e-13
_CET_BRACKET = 1e-13
_CET_BATCH_CUBES = 1 << 11

# Weak bound: relative margin on a pool row's L^q(omega) norm, the Chebyshev
# bound below which the row is not scanned. A scan's suffix sums round by at
# most about n_leaves * 1.1e-16 relative (1.2e-10 at 2^20 leaves); the margin
# equals the scan's own near-top tolerance.
_WEAK_MARGIN = 1e-9

# Row norms of a pool's images: the numbers one block of rows may hold.
_LQ_CELLS = 1 << 16

# Seed pool of the lower bounds (the weak bound, and the strong bound where
# p < q): the random restarts it holds, as many best cube indicators, and the
# rounds the ascent may take.
_RESTARTS = 8
_ASCENT_ROUNDS = 120


@dataclass
class NormEstimate:
    value: float
    kind: str  # "exact" or "lower-bound"
    extremal_f: np.ndarray | None = None
    extremal_g: np.ndarray | None = None
    iterations: int = 0
    residual: float = math.nan
    flagged: bool = False
    upper: float | None = None  # certified upper value, when the solver gives one

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "kind": self.kind,
            "upper": self.upper,
            "iterations": self.iterations,
            "residual": None if math.isnan(self.residual) else self.residual,
            "flagged": self.flagged,
            "extremal_f": None if self.extremal_f is None else self.extremal_f.tolist(),
            "extremal_g": None if self.extremal_g is None else self.extremal_g.tolist(),
        }


def _t_leafmass(
    grid: DyadicGrid, coef: np.ndarray, leafmass: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """T applied to the measure with the given (possibly signed) leaf masses,
    with ``coef`` = tau/|Q| per cube (``CubeWeights.coef``).

    The subtree sums, one multiply by ``coef`` and the prefix sums all run in
    place in ``work``, a float buffer of one entry per cube (``leafmass`` may
    be its leaf part); the result is the leaf part of ``work``, valid until
    the buffer is used again.
    """
    grid.subtree_sums(leafmass, out=work)
    np.multiply(coef, work, out=work)
    return _kernels.down_sum(work, grid, out=work)[grid.leaf_start :]


def _t_leafmass_batch(grid: DyadicGrid, coef: np.ndarray, leafmass: np.ndarray) -> np.ndarray:
    """``_t_leafmass`` of every row of ``leafmass``, in a fresh (rows, n_cubes) array."""
    rows = leafmass.shape[0]
    full = np.zeros((rows, grid.n_cubes))
    full[:, grid.leaf_start :] = leafmass
    _kernels.up_sum_batch(full, grid, out=full)
    full *= coef
    return _kernels.down_sum_batch(full, grid, out=full)[:, grid.leaf_start :]


def exact_norm_22(tau: CubeWeights, sigma: Measure, omega: Measure) -> NormEstimate:
    """Top singular value of the p=q=2 form by a locally optimal (LOBPCG) step.

    The form is A = sqrt(sigma) T sqrt(omega) between unit vectors; the kernel
    matrix is never built. Each step maximizes the Rayleigh quotient of
    M = A^T A over the span of the iterate x, its residual r = Mx - s^2 x and
    the last step p (Knyazev, SIAM J. Sci. Comput. 23(2), 2001): a 3x3
    Rayleigh-Ritz problem on the Gram matrices of [x, r, p] and of their
    images [Ax, Ar, Ap]. A step makes two operator applications, A^T(Ax) and
    A r; Ax and Ap follow x and p by the same linear combinations, so a solve
    makes 2 * iterations applications. The value s = ||Ax|| never decreases.
    The solve stops on the singular pair's residual ||A^T u - s x|| with
    u = Ax/s (then Ax = s u exactly), and the value is "exact" only when that
    residual is at most ``_POWER_RESIDUAL_TOL`` * s.
    """
    grid = tau.grid
    n = grid.n_leaves
    sq_s = np.sqrt(sigma.leaf_mass)
    sq_w = np.sqrt(omega.leaf_mass)
    # the solve's buffers: the scans run in work, whose leaf part takes each
    # input measure; the vectors are updated in place
    work = np.empty(grid.n_cubes)
    leaves = work[grid.leaf_start :]

    def a_fwd(v, out):
        np.multiply(sq_w, v, out=leaves)
        return np.multiply(sq_s, _t_leafmass(grid, tau.coef, leaves, work), out=out)

    def a_adj(u, out):
        np.multiply(sq_s, u, out=leaves)
        return np.multiply(sq_w, _t_leafmass(grid, tau.coef, leaves, work), out=out)

    x = sq_w.copy()
    nx = float(np.linalg.norm(x))
    if nx == 0.0 or float(np.linalg.norm(sq_s)) == 0.0:
        return NormEstimate(0.0, "exact", np.zeros(n), np.zeros(n), 0, 0.0)
    x /= nx
    ax = a_fwd(x, np.empty(n))
    r, ar, p, ap = (np.empty(n) for _ in range(4))
    for iterations in range(1, _POWER_MAX_ITER + 1):
        s = float(np.linalg.norm(ax))
        if s == 0.0:
            # the start vector is strictly positive on the omega-support, so a
            # vanishing image means the kernel is identically zero
            return NormEstimate(0.0, "exact", np.zeros(n), np.zeros(n), iterations, 0.0)
        # ||A^T u - s x|| = ||r|| / s, tested before r is normalized: r may vanish
        a_adj(ax, r)
        r -= np.multiply(s * s, x, out=ar)
        nr = float(np.linalg.norm(r))
        residual = nr / s
        if residual <= _POWER_RESIDUAL_TOL * s or iterations == _POWER_MAX_ITER:
            break
        r /= nr
        a_fwd(r, ar)
        # the first step has no last step p
        c0, c1, c2 = _ritz_step(s, x, r, ax, ar, p if iterations > 1 else None, ap)
        # p <- c1 r + c2 p and x <- c0 x + p, the images alike; x is
        # renormalized explicitly, so no drift of its norm enters s
        if c2 is None:
            np.multiply(r, c1, out=p)
            np.multiply(ar, c1, out=ap)
        else:
            p *= c2
            p += np.multiply(r, c1, out=r)
            ap *= c2
            ap += np.multiply(ar, c1, out=ar)
        x *= c0
        x += p
        ax *= c0
        ax += ap
        nx = float(np.linalg.norm(x))
        x /= nx
        ax /= nx
    kind = "exact" if residual <= _POWER_RESIDUAL_TOL * s else "lower-bound"
    # u = Ax / s is the input singular vector: f pairs with sigma, g with
    # omega; the extremals are written in the Ax and x buffers
    ax /= s
    return NormEstimate(
        value=s,
        kind=kind,
        extremal_f=_divide_live(ax, sq_s),
        extremal_g=_divide_live(x, sq_w),
        iterations=iterations,
        residual=residual,
        flagged=(kind != "exact"),
    )


def _ritz_step(s, x, r, ax, ar, p, ap):
    """Coefficients (c0, c1, c2) of the top Ritz vector c0 x + c1 r + c2 p of A^T A.

    x and r are unit vectors and s = ||Ax||; ``p`` is None on the first step.
    The Gram matrices of the basis and of its images are scaled to a unit
    basis diagonal; one ``eigh`` whitens the basis and one solves the
    whitened problem. A basis whose Gram matrix is near-singular (p almost in
    the span of x and r) drops p, and c2 is then None. c0 is made
    nonnegative, so the iterate keeps its orientation.
    """
    xr, axar, arar = x @ r, ax @ ar, ar @ ar
    if p is None:
        basis = np.array([[1.0, xr], [xr, 1.0]])
        images = np.array([[s * s, axar], [axar, arar]])
    else:
        xp, rp, pp = x @ p, r @ p, p @ p
        axap, arap, apap = ax @ ap, ar @ ap, ap @ ap
        basis = np.array([[1.0, xr, xp], [xr, 1.0, rp], [xp, rp, pp]])
        images = np.array([[s * s, axar, axap], [axar, arar, arap], [axap, arap, apap]])
    scale = 1.0 / np.sqrt(np.diag(basis))
    basis *= np.outer(scale, scale)
    images *= np.outer(scale, scale)
    lam, vec = np.linalg.eigh(basis)
    if len(lam) == 3 and not lam[0] > _GRAM_FLOOR:
        basis, images, scale = basis[:2, :2], images[:2, :2], scale[:2]
        lam, vec = np.linalg.eigh(basis)
    white = vec / np.sqrt(lam)
    c = scale * (white @ np.linalg.eigh(white.T @ images @ white)[1][:, -1])
    if c[0] < 0.0:
        c = -c
    return c[0], c[1], (c[2] if len(c) == 3 else None)


def _divide_live(num, den):
    """num / den where den > 0 and 0 elsewhere, computed in ``num`` and returned."""
    live = den > 0
    np.divide(num, den, out=num, where=live)
    np.copyto(num, 0.0, where=~live)
    return num


def dense_norm_22(
    tau: CubeWeights,
    sigma: Measure,
    omega: Measure,
    max_leaves: int = DENSE_ORACLE_MAX_LEAVES,
) -> float:
    """Dense singular-value oracle for the p=q=2 norm (small grids only)."""
    grid = tau.grid
    if grid.n_leaves > max_leaves:
        raise GridSizeError(
            f"dense oracle limited to {max_leaves} leaves, grid has {grid.n_leaves}"
        )
    # path[Q] = sum of tau_P/|P| over ancestors P of Q, inclusive; the kernel
    # entry at a leaf pair is path[] at their deepest common ancestor
    path = _kernels.down_sum(tau.coef, grid)
    anc = grid.leaf_ancestor_matrix()
    K = np.zeros((grid.n_leaves, grid.n_leaves))
    for lev in range(grid.depth + 1):
        a = anc[lev]
        eq = a[:, None] == a[None, :]
        K = np.where(eq, path[a][:, None], K)
    A = np.sqrt(sigma.leaf_mass)[:, None] * K * np.sqrt(omega.leaf_mass)[None, :]
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _indicator_rows(grid: DyadicGrid, cubes: np.ndarray) -> np.ndarray:
    """One row per given cube: the indicator of its leaves, one box of the leaf level."""
    rows = np.zeros((cubes.size, grid.n_leaves))
    for row, cube in zip(rows, cubes.tolist()):
        grid.leaves_in(row, cube)[...] = 1.0
    return rows


def _top_cubes(scores: np.ndarray, k: int) -> np.ndarray:
    """The k best-scored cubes in canonical order; ties go to the smaller index."""
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def _seed_pool(grid: DyadicGrid, seed: int, scores: np.ndarray) -> np.ndarray:
    """``_RESTARTS`` random restarts drawn from ``seed``, then the indicators
    of the ``_RESTARTS`` best cubes; ``scores`` holds the objective at every
    cube's normalized indicator."""
    rng = np.random.default_rng(seed)
    restarts = rng.exponential(1.0, size=(_RESTARTS, grid.n_leaves))
    top = _top_cubes(scores, _RESTARTS)
    return np.concatenate([restarts, _indicator_rows(grid, top)], axis=0)


def _project_lp_sphere(f: np.ndarray, mass: np.ndarray, p: float) -> np.ndarray:
    """Renormalize nonnegative rows to unit L^p(mass); rows of norm 0 become 0."""
    norms = np.sum(f**p * mass, axis=1) ** (1.0 / p)
    ok = norms > 0
    return np.where(ok[:, None], f / np.where(ok, norms, 1.0)[:, None], 0.0)


def _strong_scores(tau, sigma, omega, exps) -> np.ndarray:
    """sigma(R)^(-1/p) ||T(1_R sigma)||_{L^q(omega)} for every cube R; 0 where sigma(R) == 0."""
    return np.maximum(strengthened_local_values(tau, omega, sigma, exps.dual()), 0.0)


def _lq_rows(h: np.ndarray, w_lm: np.ndarray, q: float) -> np.ndarray:
    """||h_r||_{L^q(omega)} for every row h_r of ``h``, with ``w_lm`` omega's leaf masses.

    A block of rows at a time, ``_LQ_CELLS`` numbers to a block (at least one
    row), so the temporaries never hold a copy of ``h``; a row's sum is the
    same in any block, bit for bit.
    """
    step = max(1, _LQ_CELLS // h.shape[1])
    sums = [np.sum(h[i : i + step] ** q * w_lm, axis=1) for i in range(0, len(h), step)]
    return np.concatenate(sums) ** (1.0 / q)


def _pool_images(tau, sigma, omega, exps, seed: int) -> tuple:
    """(f, h, j): the seed pool shared by the strong and weak bounds, ranked by
    the strong score and projected to the unit L^p(sigma) sphere, its images
    h = T(f sigma) in one batched application, and their values
    j = ||h||_{L^q(omega)}, one row each."""
    s_lm = sigma.leaf_mass
    pool = _seed_pool(tau.grid, seed, _strong_scores(tau, sigma, omega, exps))
    f = _project_lp_sphere(pool, s_lm, exps.p)
    h = _t_leafmass_batch(tau.grid, tau.coef, f * s_lm)
    return f, h, _lq_rows(h, omega.leaf_mass, exps.q)


def strong_norm_lower(
    tau: CubeWeights,
    sigma: Measure,
    omega: Measure,
    exps: Exponents,
    seed: int = 0,
) -> NormEstimate:
    """Lower bound for ||T(f sigma)||_{L^q(omega)} over the unit L^p(sigma) sphere.

    The exponents pick the method: the singular-value routine at p = q = 2,
    ``_power_solve`` (certified) at every other p = q, and at p < q the
    fixed-point (Boyd) ascent ``_strong_ascent`` from ``_RESTARTS``
    Dirichlet-like restarts drawn from ``seed`` plus the indicators of the
    ``_RESTARTS`` cubes R with the largest
    sigma(R)^(-1/p) ||T(1_R sigma)||_{L^q(omega)}, scored in closed form for
    every cube.
    """
    if exps.is_l2:
        return exact_norm_22(tau, sigma, omega)
    if exps.p == exps.q:
        grid = tau.grid
        p = exps.p
        work = np.empty(grid.n_cubes)
        leaves = work[grid.leaf_start :]

        def image(f):
            h = _t_leafmass(grid, tau.coef, np.multiply(f, sigma.leaf_mass, out=leaves), work)
            weighted = h ** (p - 1.0) * omega.leaf_mass
            j = float(weighted @ h) ** (1.0 / p)
            return j, _t_leafmass(grid, tau.coef, weighted, work)

        return _power_solve(image, sigma.leaf_mass, p)
    return _strong_ascent(tau, sigma, omega, exps, _pool_images(tau, sigma, omega, exps, seed))


def norm_bounds(
    tau: CubeWeights,
    sigma: Measure,
    omega: Measure,
    exps: Exponents,
    seed: int = 0,
) -> tuple[NormEstimate, NormEstimate]:
    """(strong, weak): the strong norm bound and the weak-type lower bound.

    The one entry point of the norm stage: suite rows and ``twoweight norm``
    both call it with the instance's seed, so the same instance gives the
    same two estimates. At p = q the strong norm is ``strong_norm_lower``
    (certified) and the weak bound ``weak_norm_lower``, computed one after
    the other.
    Where p < q both start from the same projected pool and its images
    (``_pool_images``), so they are built once: the weak bound scans them
    before the ascent overwrites its rows in place. The two estimates are
    those of ``strong_norm_lower`` and ``weak_norm_lower`` with the same
    seed, bit for bit.
    """
    if exps.p == exps.q:
        strong = strong_norm_lower(tau, sigma, omega, exps, seed)
        return strong, weak_norm_lower(tau, sigma, omega, exps, seed)
    start = _pool_images(tau, sigma, omega, exps, seed)
    weak = _weak_bound(*start, omega.leaf_mass, exps.q)
    return _strong_ascent(tau, sigma, omega, exps, start), weak


def _strong_ascent(
    tau: CubeWeights,
    sigma: Measure,
    omega: Measure,
    exps: Exponents,
    start: tuple,
) -> NormEstimate:
    """Boyd's fixed-point ascent from the strong seed pool, one candidate per row.

    Stationary points of ||T(f sigma)||_{L^q(omega)} on the unit L^p(sigma)
    sphere satisfy f^(p-1) proportional to path = T(h^(q-1) omega) on the
    support of sigma, where h = T(f sigma). Each iteration renormalizes
    ``_boyd_power``, path^(1/(p-1)) of every row scaled to a maximum of 1
    on the support of sigma, and keeps it where it raises the row's value,
    at two batched operator applications. A row whose candidate fails to
    raise it is final, since its next candidate would be the same, so each
    round applies the operator to the rows that improved in the last one. The
    loop stops after ``_ASCENT_ROUNDS`` rounds or when no row improves. Every
    row stays nonnegative, so no clipping is needed. The best row is the
    extremal. ``start`` is the pool's (f, h, j) from ``_pool_images``; the
    ascent overwrites its arrays.
    """
    grid = tau.grid
    p, q = exps.p, exps.q
    s_lm = sigma.leaf_mass
    w_lm = omega.leaf_mass
    f, h, j = start
    live = np.arange(len(f))
    iterations = 0
    for iterations in range(1, _ASCENT_ROUNDS + 1):
        path = _t_leafmass_batch(grid, tau.coef, h[live] ** (q - 1.0) * w_lm)
        cand = _project_lp_sphere(_boyd_power(path, p, s_lm > 0), s_lm, p)
        h_cand = _t_leafmass_batch(grid, tau.coef, cand * s_lm)
        j_cand = _lq_rows(h_cand, w_lm, q)
        up = j_cand > j[live]
        live = live[up]
        if live.size == 0:
            break
        f[live] = cand[up]
        h[live] = h_cand[up]
        j[live] = j_cand[up]
    best = int(np.argmax(j))
    return NormEstimate(float(j[best]), "lower-bound", f[best].copy(), None, iterations)


def weak_norm_lower(
    tau: CubeWeights,
    sigma: Measure,
    omega: Measure,
    exps: Exponents,
    seed: int = 0,
) -> NormEstimate:
    """Lower bound for the weak-type quasinorm sup_l l * omega(T(f sigma) > l)^(1/q).

    The candidates f are the rows of the strong bound's seed pool, so the
    result is at most the strong bound of the same seed. For each f the
    supremum over l is computed exactly by scanning the distinct leaf values
    of T(f sigma), each nudged down by 2**-40 times the value scale so the
    strict inequality is unambiguous in floating point. Rows whose
    Chebyshev bound rules them out are not scanned (``_weak_bound``);
    ``iterations`` counts the rows that were. Where p < q ``norm_bounds``
    gives the same estimate without building the pool a second time.
    """
    return _weak_bound(*_pool_images(tau, sigma, omega, exps, seed), omega.leaf_mass, exps.q)


def _weak_bound(f, h, j, w_lm, q) -> NormEstimate:
    """The best weak value over the pool rows f, from their images h and values j.

    By Chebyshev, l * omega(h > l)^(1/q) <= ||h||_{L^q(omega)} for every
    l > 0, so a row's weak value is at most its j. The row of largest j is
    scanned first; then, in pool order, only the rows with
    j * (1 + ``_WEAK_MARGIN``) above the best value so far. The margin covers
    the rounding of a scan's suffix sums, so a row that is skipped has a
    weak value below the best. Ties go to the first row and a pool whose
    values are all 0 gives row 0, as a scan of every row in pool order with
    a strict comparison would: the value and the extremal row are that
    scan's, bit for bit. ``iterations`` is the number of rows scanned.
    """
    top = int(np.argmax(j))
    best_val, best_row = _weak_scan(h[top], w_lm, q), top
    scanned = 1
    for r in range(len(j)):
        if r == top or not j[r] * (1.0 + _WEAK_MARGIN) > best_val:
            continue
        val = _weak_scan(h[r], w_lm, q)
        scanned += 1
        if val > best_val or (val == best_val and r < best_row):
            best_val, best_row = val, r
    if best_val == 0.0:
        best_row = 0
    return NormEstimate(best_val, "lower-bound", f[best_row].copy(), None, scanned, math.nan)


def _weak_scan(h: np.ndarray, w_lm: np.ndarray, q: float) -> float:
    """max(0, max over distinct values v > 0 of h of l * omega(h > l)^(1/q)), l = v - nudge.

    All thresholds go through one ``searchsorted``. numpy's vectorized power
    may differ from the C library's in the last bit, so the few candidates
    near the top are re-evaluated with Python floats: the result is the value
    a scalar scan over the thresholds returns, bit for bit.
    """
    scale = float(h.max(initial=0.0))
    if scale <= 0.0:
        return 0.0
    order = np.argsort(h)
    hs = h[order]
    suffix = np.append(np.cumsum(w_lm[order][::-1])[::-1], 0.0)
    lam = np.unique(hs[hs > 0]) - scale * 2.0**-40
    mass = suffix[np.searchsorted(hs, lam, side="right")]
    cand = lam * mass ** (1.0 / q)
    top = float(cand.max())
    if not top > 0.0:
        return 0.0
    near = np.flatnonzero(cand >= top * (1.0 - 1e-9))
    return max(float(lam[i]) * float(mass[i]) ** (1.0 / q) for i in near)


def carleson_embedding_constant(
    tau: CubeWeights,
    p: float,
    mu: Measure | None = None,
) -> NormEstimate:
    """The Carleson embedding constant at exponent p, certified by an exact recursion.

    C_p = sup over unit-norm f >= 0 of (sum_Q tau_Q |E_Q f|^p)^(1/p), with
    averages and norms against ``mu`` (Lebesgue when omitted); cubes with
    mu(Q) == 0 contribute nothing. ``_embedding_pass`` decides exactly, in
    one leaf-to-root pass, whether a number lam exceeds C_p^p (the Bellman
    function of the embedding on the finite tree: Nazarov, Treil & Volberg,
    J. Amer. Math. Soc. 12, 1999; Melas, Adv. Math. 192, 2005).

    The first pass tests the best normalized cube indicator
    (``_cet_scores``), whose value is at least the p-th root of the weighted
    Carleson norm of tau: when lam = score^p (1 + _SOLVE_GAP / 2) passes, the
    indicator is the extremal. Otherwise the passes bracket C_p^p between
    that lam and (p')^p score^p (Carleson's lemma with Doob's maximal
    inequality), a batch of lam values per pass, ``_CET_BATCH_CUBES`` cubes
    in all, until the bracket is ``_CET_BRACKET`` wide; a last pass at its
    passing end recovers the extremal f, and ``value`` is J(f). ``upper`` is
    the passing lam^(1/p) times (1 + ``_CET_MARGIN``), a bound on the
    rounding of the pass; ``iterations`` counts passes, and the kind is
    "exact" when upper - value <= ``_SOLVE_GAP`` * value.
    """
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    grid = tau.grid
    mu = mu if mu is not None else Measure.lebesgue(grid)
    mass = mu.cube_mass
    scores = _cet_scores(grid, tau.tau, mass, p)
    best = int(np.argmax(scores))
    top = float(scores[best])
    if top == 0.0:
        # tau vanishes on every cube of positive mass: J is 0 at every f
        return NormEstimate(0.0, "exact", np.zeros(grid.n_leaves), None, 0, 0.0, upper=0.0)

    # lam and the cube weights are scaled by top^p, so the bracket is [1, (p')^p]
    ok = mass > 0
    safe = np.where(ok, mass, 1.0)
    b = np.where(ok, tau.tau / safe, 0.0) / top**p
    theta = np.ones(grid.n_cubes)
    theta[1:] = np.where(ok[1:], mass[1:] / safe[grid.parent[1:]], 0.0)

    def passes(lams):
        return np.isfinite(_embedding_pass(grid, b, theta, lams, p)[:, 0])

    def indicator():
        f = _indicator_rows(grid, np.array([best]))[0]
        return f / float(f**p @ mu.leaf_mass) ** (1.0 / p), top

    lam = 1.0 + _SOLVE_GAP / 2
    iterations = 1
    if passes(np.array([lam]))[0]:
        f, value = indicator()
    else:
        lam, searched = _bracket(passes, lam, (p / (p - 1.0)) ** p, grid.n_cubes)
        y, sums = _embedding_pass(grid, b, theta, np.array([lam]), p, keep=True)
        iterations += searched + 1
        f, value = _embedding_extremal(grid, tau.tau, mu, y[0], sums, p)
        if top > value:
            f, value = indicator()
    upper = top * lam ** (1.0 / p) * (1.0 + _CET_MARGIN)
    kind = "exact" if upper - value <= _SOLVE_GAP * value else "lower-bound"
    return NormEstimate(
        value=value,
        kind=kind,
        extremal_f=f,
        iterations=iterations,
        residual=upper - value,
        flagged=(kind != "exact"),
        upper=upper,
    )


def _bracket(passes, lo: float, hi: float, n_cubes: int) -> tuple[float, int]:
    """The passing end of a bracket on lam at most ``_CET_BRACKET`` wide, and the passes it took.

    ``lo`` failed and ``hi`` is expected to pass. Each pass tests as many lam
    values as ``_CET_BATCH_CUBES`` cubes allow, evenly spaced in log lam
    inside the bracket (with ``hi`` itself until one of them passes), and
    keeps the smallest passing value and the largest failing one below it.
    """
    rows = max(1, _CET_BATCH_CUBES // n_cubes)
    lo, hi = math.log(lo), math.log(hi)
    width = math.log1p(_CET_BRACKET)
    passed = None  # the smallest lam that passed, exactly as tested
    count = 0
    while passed is None or hi - lo > width:
        steps = rows if passed is None else rows + 1
        logs = lo + (hi - lo) * np.arange(1, rows + 1) / steps
        lams = np.exp(logs)
        ok = passes(lams)
        count += 1
        if not ok.any():
            if passed is None:
                # the top of the bracket failed (only rounding can do that): widen it
                lo, hi = hi, 2.0 * hi - lo
            else:
                lo = float(logs[-1])
            continue
        first = int(np.argmax(ok))
        hi, passed = float(logs[first]), float(lams[first])
        if first:
            lo = float(logs[first - 1])
    return passed, count


def _embedding_pass(grid, b, theta, lams, p, keep=False):
    """The embedding recursion at every lam in ``lams``, one row each, leaf to root.

    With lam and the weights scaled as in ``carleson_embedding_constant``
    (b_Q = tau_Q / mu(Q) / top^p, theta_Q = mu(Q) / mu(parent Q)), every cube
    gets x_Q = -kappa_Q mu(Q)^(p-1) / top^p, where kappa is the Bellman coefficient:
    the sup over g >= 0 on Q with integral s of
    sum_{P <= Q} tau_P (E_P g)^p - lam ||g 1_Q||_p^p is kappa_Q s^p. The
    recursion is x = lam - b at a leaf and
    x_Q = M_Q - b_Q with M_Q = (sum_children theta_i x_i^(-1/(p-1)))^(-(p-1))
    above, a power mean of the children's x. lam exceeds C_p^p exactly when
    every x_Q > 0. Each cube passes up y_Q = theta_Q max(x_Q, 0)^(-1/(p-1)),
    so a cube with x_Q <= 0 passes up +inf, every ancestor's M is 0, and the
    root's y is +inf; a cube of zero mass passes up 0. Returns the rows of y
    (the root's is finite exactly when lam passes); with ``keep``, also the
    children's sums sum theta_i x_i^(-1/(p-1)) of the first row, per cube.
    """
    r = 1.0 / (p - 1.0)
    acc = np.zeros((lams.size, grid.n_cubes))
    offsets = grid.level_offsets
    sums = np.zeros(grid.n_cubes) if keep else None
    with np.errstate(divide="ignore", over="ignore"):
        for lev in range(grid.depth, -1, -1):
            lo, hi = offsets[lev], offsets[lev + 1]
            x = acc[:, lo:hi]
            if lev == grid.depth:
                np.subtract(lams[:, None], b[lo:hi], out=x)
            else:
                _kernels.up_level_batch(acc, grid, lev + 1)
                if keep:
                    sums[lo:hi] = x[0]
                x **= -(p - 1.0)
                x -= b[lo:hi]
            np.maximum(x, 0.0, out=x)
            x **= -r
            x *= theta[lo:hi]
    return (acc, sums) if keep else acc


def _embedding_extremal(grid, tau, mu, y, sums, p):
    """The extremal f of a passing ``_embedding_pass`` row and J(f).

    Root to leaf, each cube hands its children shares of its mass in
    proportion to their y (the optimal split of the Bellman recursion), so a
    leaf's mass is the product of the shares above it; f is that mass over
    mu, normalized in L^p(mu), and J(f) is computed from f's cube averages.
    """
    share = np.ones(grid.n_cubes)
    share[1:] = 0.0
    parent_sums = sums[grid.parent[1:]]
    np.divide(y[1:], parent_sums, out=share[1:], where=parent_sums > 0)
    with np.errstate(divide="ignore"):
        leaf = np.exp(_kernels.down_sum(np.log(share), grid)[grid.leaf_start :])
    m_lm = mu.leaf_mass
    f = np.where(m_lm > 0, leaf / np.where(m_lm > 0, m_lm, 1.0), 0.0)
    f /= float(f**p @ m_lm) ** (1.0 / p)
    mass = mu.cube_mass
    ok = mass > 0
    avg = np.where(ok, grid.subtree_sums(f * m_lm) / np.where(ok, mass, 1.0), 0.0)
    return f, float(tau @ avg**p) ** (1.0 / p)


def _boyd_power(path: np.ndarray, p: float, live: np.ndarray) -> np.ndarray:
    """path^(1/(p-1)) on ``live`` with each row of ``path`` first scaled to a
    maximum of 1 there, in a fresh array; 0 off ``live`` and on a row whose
    maximum there is 0.

    Boyd's step is scale-invariant, so the scaling changes no iterate after
    normalization, and it keeps the power finite however large 1/(p-1) is.
    The maximum is taken on ``live``, the support of the measure: a larger
    value off it would scale the live part towards 0, where a power as
    large as 1000 (p = 1.001) would underflow it.
    """
    root = np.where(live, path, 0.0)
    top = root.max(axis=-1, keepdims=True)
    np.divide(root, top, out=root, where=top > 0)
    root **= 1.0 / (p - 1.0)
    return root


def _power_solve(image, mass: np.ndarray, p: float) -> NormEstimate:
    """Certified p -> p norm of a nonnegative map: Boyd's power method with a one-pair Anderson step.

    ``image(f)`` returns (J(f), path_f) for f >= 0 of unit L^p(mass) norm,
    where path_f is the gradient of J^p / p divided by ``mass``, so that
    J(f)^p = sum f * mass * path_f; path_f is read before the next call, so
    it may be a view of a buffer that call overwrites. Stationary points
    satisfy f^(p-1) proportional to path_f, and for nonnegative maps the
    plain step f -> g = path_f^(1/(p-1)), normalized, never lowers J
    (D. W. Boyd, Linear Algebra Appl. 9, 1974). Hoelder's inequality bounds
    every unit g by J(g)^p <= max over the support of mass of
    path_f / f^(p-1), for any f > 0 there, so each step gives a lower value
    J(f) and an upper value for free. Both the step and the upper value are
    taken from root = ``_boyd_power(path_f, p, mass > 0)``: the upper value
    is max(path_f)^(1/p) * max (root / f)^((p-1)/p), both maxima over the
    support of mass, which divides no 0 by 0 and no number by an f^(p-1)
    that underflowed.

    The step mixes the current iterate and plain image (f, g) with the last
    ones (f0, g0) (Anderson mixing with one pair; Walker & Ni, SIAM J.
    Numer. Anal. 49, 2011): with r = g - f and dr = r - (g0 - f0) it goes to
    g - gamma (g - g0), gamma = <r, dr> / <dr, dr>, clipped to a positive
    floor, or to g when dr = 0. When a mixed iterate lowers J, the solve
    restarts from the last plain image. It stops with kind "exact" once
    upper - lower <= ``_SOLVE_GAP`` * lower, and with "lower-bound" at
    ``_SOLVE_MAX_ITER`` steps; ``value`` is the best J, ``upper`` the
    smallest upper value and ``residual`` their difference.
    """
    live = mass > 0
    if not np.any(live):
        return NormEstimate(0.0, "exact", np.zeros(mass.size), None, 0, 0.0, upper=0.0)

    def normalize(f):
        f /= float(f**p @ mass) ** (1.0 / p)
        return f

    f = normalize(np.ones(mass.size))
    lower, best_f = 0.0, f
    upper = math.inf
    prev_j, last = -math.inf, None  # last: the previous step's iterate and plain image
    iterations = 0
    for iterations in range(1, _SOLVE_MAX_ITER + 1):
        j, path = image(f)
        root = _boyd_power(path, p, live)
        ratio = float(np.max(root[live] / f[live])) ** ((p - 1.0) / p)
        upper = min(upper, float(np.max(path, where=live, initial=0.0)) ** (1.0 / p) * ratio)
        if j > lower:
            lower, best_f = j, f
        if upper - lower <= _SOLVE_GAP * lower:
            break
        if last is not None and j < prev_j:
            # the mixed iterate lost ground: restart from the last plain image
            f, last = last[1], None
            continue
        g = normalize(np.maximum(root, _FLOOR, out=root))
        mixed = None if last is None else _anderson_step(f, g, *last)
        last, prev_j = (f, g), j
        f = g if mixed is None else normalize(np.maximum(mixed, _FLOOR * g.max(), out=mixed))
    kind = "exact" if upper - lower <= _SOLVE_GAP * lower else "lower-bound"
    # at a closed bracket the two values may round past each other
    upper = max(upper, lower)
    return NormEstimate(
        value=lower,
        kind=kind,
        extremal_f=best_f,
        iterations=iterations,
        residual=upper - lower,
        flagged=(kind != "exact"),
        upper=upper,
    )


def _anderson_step(f, g, f0, g0):
    """g - gamma (g - g0) in a fresh array, from the iterates f0, f and their
    plain images g0, g, with r = g - f, dr = r - (g0 - f0) and
    gamma = <r, dr> / <dr, dr>; None when dr = 0."""
    r = g - f
    dr = r - g0
    dr += f0
    dd = float(dr @ dr)
    if dd == 0.0:
        return None
    gamma = float(r @ dr) / dd
    mixed = np.subtract(g, g0, out=r)
    mixed *= gamma
    return np.subtract(g, mixed, out=mixed)


def _cet_scores(grid: DyadicGrid, tau: np.ndarray, mass: np.ndarray, p: float) -> np.ndarray:
    """The embedding objective at f = 1_R / mu(R)^(1/p) for every cube R; 0 where mu(R) == 0.

    E_Q f is mu(R)^(-1/p) for Q inside R and mu(R)^(1 - 1/p) / mu(Q) for Q
    strictly containing R, so objective^p = up_sum(tau [mu > 0])(R) / mu(R)
    + mu(R)^(p-1) down_sum(tau mu^-p [mu > 0])(parent R): two tree scans.
    """
    ok = mass > 0
    live = np.where(ok, tau, 0.0)
    safe = np.where(ok, mass, 1.0)
    inside = _kernels.up_sum(live, grid) / safe
    above = _kernels.down_sum(live * safe**-p, grid)
    outside = np.zeros(grid.n_cubes)
    outside[1:] = mass[1:] ** (p - 1.0) * above[grid.parent[1:]]
    return np.where(ok, (inside + outside) ** (1.0 / p), 0.0)
