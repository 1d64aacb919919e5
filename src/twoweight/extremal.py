"""Operator-norm estimation: certified values where p = q, lower bounds elsewhere.

At p = q = 2 the norm is the top singular value of a weighted kernel matrix
that is never materialized: each matrix-vector product is one application of
the dyadic operator. The Carleson embedding constant (every p) and the strong
norm at p = q != 2 are p -> p norms of nonnegative maps; ``_power_solve``
brackets them between the value of its best iterate and a Hoelder
(Collatz-Wielandt) upper value, two tree scans per step each. Where p < q the
module reports honest lower bounds found by Boyd's fixed-point step, kept
row by row where it improves, on the nonnegative part of the L^p(sigma)
sphere, seeded with Dirichlet-like restarts and the best cube indicators.
The objective at every normalized cube indicator has a closed form of a few
tree scans (``_cet_scores``; ``strengthened_local_values`` for the strong
norm), so all cubes are ranked without building their indicators, and only
the top ``restarts`` of them join the pool: the ascent holds
O(restarts * n_cubes) numbers. Every estimate carries the extremal function
that attains it, so values can be re-evaluated independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .constants import strengthened_local_values
from .grid import DyadicGrid, Exponents, GridSizeError, Measure
from .operators import CubeWeights

DENSE_ORACLE_MAX_LEAVES = 1 << 12

# Power iteration for exact_norm_22: iteration cap, relative change of the
# value that stops it, and relative residual that makes the value "exact".
_POWER_MAX_ITER = 50000
_POWER_VALUE_TOL = 1e-14
_POWER_RESIDUAL_TOL = 1e-9

# Certified power solver: iteration cap, relative bracket width that makes a
# value "exact", Anderson memory (iterate/image pairs) and positivity floor
# (relative to the image's maximum).
_SOLVE_MAX_ITER = 2000
_SOLVE_GAP = 1e-12
_ANDERSON_PAIRS = 5
_FLOOR = 1e-30


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


@dataclass
class AscentOptions:
    restarts: int = 16
    max_iter: int = 120
    seed: int = 0


def _t_leafmass(
    grid: DyadicGrid, tau: np.ndarray, leafmass: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """T applied to the measure with the given (possibly signed) leaf masses.

    Both scans run in place in ``work``, a float buffer of one entry per cube
    (``leafmass`` may be its leaf part); the result is the leaf part of
    ``work``, valid until the buffer is used again.
    """
    grid.subtree_sums(leafmass, out=work)
    np.multiply(tau, work, out=work)
    np.divide(work, grid.volumes, out=work)
    return _kernels.down_sum(work, grid.parent, grid.level_offsets, out=work)[grid.leaf_start :]


def _t_leafmass_batch(grid: DyadicGrid, tau: np.ndarray, leafmass: np.ndarray) -> np.ndarray:
    rows = leafmass.shape[0]
    full = np.zeros((rows, grid.n_cubes))
    full[:, grid.leaf_start :] = leafmass
    _kernels.up_sum_batch(full, grid.level_offsets, out=full)
    full *= tau / grid.volumes
    return _kernels.down_sum_batch(full, grid.parent, grid.level_offsets, out=full)[
        :, grid.leaf_start :
    ]


def exact_norm_22(tau: CubeWeights, sigma: Measure, omega: Measure) -> NormEstimate:
    """Top singular value of the p=q=2 form by alternating power iteration.

    Each half-step is one operator application; the kernel matrix is never
    built. The Rayleigh value is nondecreasing across iterations; the residual
    is the defect of the singular-pair equations at exit.
    """
    grid = tau.grid
    sq_s = np.sqrt(sigma.leaf_mass)
    sq_w = np.sqrt(omega.leaf_mass)
    # the solve's buffers: the scans run in work, whose leaf part takes each
    # input measure; the vectors are updated in place
    work = np.empty(grid.n_cubes)
    leaves = work[grid.leaf_start :]

    def a_fwd(v, out):
        np.multiply(sq_w, v, out=leaves)
        return np.multiply(sq_s, _t_leafmass(grid, tau.tau, leaves, work), out=out)

    def a_adj(u, out):
        np.multiply(sq_s, u, out=leaves)
        return np.multiply(sq_w, _t_leafmass(grid, tau.tau, leaves, work), out=out)

    v = sq_w.copy()
    nv = float(np.linalg.norm(v))
    if nv == 0.0 or float(np.linalg.norm(sq_s)) == 0.0:
        return NormEstimate(0.0, "exact", np.zeros(grid.n_leaves), np.zeros(grid.n_leaves), 0, 0.0)
    v /= nv
    s_prev = -1.0
    u = np.zeros(grid.n_leaves)
    img = np.empty(grid.n_leaves)
    iterations = 0
    for iterations in range(1, _POWER_MAX_ITER + 1):
        s = float(np.linalg.norm(a_fwd(v, img)))
        if s == 0.0:
            # the start vector is strictly positive on the omega-support, so a
            # vanishing image means the kernel is identically zero
            return NormEstimate(
                0.0, "exact", np.zeros(grid.n_leaves), np.zeros(grid.n_leaves), iterations, 0.0
            )
        np.divide(img, s, out=u)
        np.divide(img, float(np.linalg.norm(a_adj(u, img))), out=v)
        if abs(s - s_prev) <= _POWER_VALUE_TOL * s:
            break
        s_prev = s
    s = float(u @ a_fwd(v, img))
    residual = float(np.linalg.norm(a_adj(u, img) - s * v))
    kind = "exact" if residual <= _POWER_RESIDUAL_TOL * max(s, 1e-300) else "lower-bound"
    # the iteration runs on the sigma-side/omega-side transposed matrix, so u
    # is the input singular vector: f pairs with sigma, g with omega
    return NormEstimate(
        value=s,
        kind=kind,
        extremal_f=_safe_div(u, sq_s),
        extremal_g=_safe_div(v, sq_w),
        iterations=iterations,
        residual=residual,
        flagged=(kind != "exact"),
    )


def _safe_div(num, den):
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)


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
    path = _kernels.down_sum(tau.tau / grid.volumes, grid.parent, grid.level_offsets)
    anc = grid.leaf_ancestor_matrix()
    K = np.zeros((grid.n_leaves, grid.n_leaves))
    for lev in range(grid.depth + 1):
        a = anc[lev]
        eq = a[:, None] == a[None, :]
        K = np.where(eq, path[a][:, None], K)
    A = np.sqrt(sigma.leaf_mass)[:, None] * K * np.sqrt(omega.leaf_mass)[None, :]
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _indicator_rows(grid: DyadicGrid, cubes: np.ndarray) -> np.ndarray:
    """One row per given cube: the indicator of its leaves."""
    onehot = np.zeros((cubes.size, grid.n_cubes))
    onehot[np.arange(cubes.size), cubes] = 1.0
    return _kernels.down_sum_batch(onehot, grid.parent, grid.level_offsets)[
        :, grid.leaf_start :
    ]


def _top_cubes(scores: np.ndarray, k: int) -> np.ndarray:
    """The k best-scored cubes in canonical order; ties go to the smaller index."""
    return np.sort(np.argsort(-scores, kind="stable")[:k])


def _seed_pool(grid: DyadicGrid, opts: AscentOptions, scores: np.ndarray) -> np.ndarray:
    """Random restarts, then the indicators of the ``opts.restarts`` best cubes.

    ``scores`` holds the objective at every cube's normalized indicator; at
    least the best indicator is always included.
    """
    rng = np.random.default_rng(opts.seed)
    restarts = rng.exponential(1.0, size=(opts.restarts, grid.n_leaves))
    top = _top_cubes(scores, max(1, opts.restarts))
    return np.concatenate([restarts, _indicator_rows(grid, top)], axis=0)


def _project_lp_sphere(f: np.ndarray, mass: np.ndarray, p: float) -> np.ndarray:
    """Renormalize nonnegative rows to unit L^p(mass); rows of norm 0 become 0."""
    norms = np.sum(f**p * mass, axis=1) ** (1.0 / p)
    ok = norms > 0
    return np.where(ok[:, None], f / np.where(ok, norms, 1.0)[:, None], 0.0)


def _strong_scores(tau, sigma, omega, exps) -> np.ndarray:
    """sigma(R)^(-1/p) ||T(1_R sigma)||_{L^q(omega)} for every cube R; 0 where sigma(R) == 0."""
    return np.maximum(strengthened_local_values(tau, omega, sigma, exps.dual()), 0.0)


def _strong_pool(tau, sigma, omega, exps, opts: AscentOptions) -> np.ndarray:
    """The seed pool shared by the strong and weak bounds, ranked by the strong score."""
    return _seed_pool(tau.grid, opts, _strong_scores(tau, sigma, omega, exps))


def strong_norm_lower(
    tau: CubeWeights,
    sigma: Measure,
    omega: Measure,
    exps: Exponents,
    opts: AscentOptions | None = None,
) -> NormEstimate:
    """Lower bound for ||T(f sigma)||_{L^q(omega)} over the unit L^p(sigma) sphere.

    The exponents pick the method: the singular-value routine at p = q = 2,
    ``_power_solve`` (certified) at every other p = q, and at p < q the
    fixed-point (Boyd) ascent ``_strong_ascent`` from ``opts.restarts``
    Dirichlet-like restarts plus the indicators of the ``opts.restarts``
    cubes R with the largest sigma(R)^(-1/p) ||T(1_R sigma)||_{L^q(omega)},
    scored in closed form for every cube.
    """
    if exps.is_l2:
        return exact_norm_22(tau, sigma, omega)
    if exps.p == exps.q:
        grid = tau.grid
        p = exps.p
        work = np.empty(grid.n_cubes)
        leaves = work[grid.leaf_start :]

        def image(f):
            h = _t_leafmass(grid, tau.tau, np.multiply(f, sigma.leaf_mass, out=leaves), work)
            weighted = h ** (p - 1.0) * omega.leaf_mass
            j = float(weighted @ h) ** (1.0 / p)
            return j, _t_leafmass(grid, tau.tau, weighted, work)

        return _power_solve(image, sigma.leaf_mass, p)
    return _strong_ascent(tau, sigma, omega, exps, opts or AscentOptions())


def _strong_ascent(
    tau: CubeWeights, sigma: Measure, omega: Measure, exps: Exponents, opts: AscentOptions
) -> NormEstimate:
    """Boyd's fixed-point ascent from the strong seed pool, one candidate per row.

    Stationary points of ||T(f sigma)||_{L^q(omega)} on the unit L^p(sigma)
    sphere satisfy f^(p-1) proportional to path = T(h^(q-1) omega) on the
    support of sigma, where h = T(f sigma). Each iteration renormalizes
    path^(1/(p-1)) for every row and keeps it where it raises the row's value,
    at two batched operator applications. A row whose candidate fails to
    raise it is final, since its next candidate would be the same, so each
    round applies the operator to the rows that improved in the last one. The
    loop stops at ``opts.max_iter`` or when no row improves. Every row stays
    nonnegative, so no clipping is needed. The best row is the extremal.
    """
    grid = tau.grid
    p, q = exps.p, exps.q
    s_lm = sigma.leaf_mass
    w_lm = omega.leaf_mass

    def value(h):
        return np.sum(h**q * w_lm, axis=1) ** (1.0 / q)

    f = _project_lp_sphere(_strong_pool(tau, sigma, omega, exps, opts), s_lm, p)
    h = _t_leafmass_batch(grid, tau.tau, f * s_lm)
    j = value(h)
    live = np.arange(len(f))
    iterations = 0
    for iterations in range(1, opts.max_iter + 1):
        path = _t_leafmass_batch(grid, tau.tau, h[live] ** (q - 1.0) * w_lm)
        cand = _project_lp_sphere(path ** (1.0 / (p - 1.0)), s_lm, p)
        h_cand = _t_leafmass_batch(grid, tau.tau, cand * s_lm)
        j_cand = value(h_cand)
        up = j_cand > j[live]
        live = live[up]
        if live.size == 0:
            break
        f[live] = cand[up]
        h[live] = h_cand[up]
        j[live] = j_cand[up]
    best = int(np.argmax(j))
    return NormEstimate(float(j[best]), "lower-bound", f[best], None, iterations)


def weak_norm_lower(
    tau: CubeWeights,
    sigma: Measure,
    omega: Measure,
    exps: Exponents,
    opts: AscentOptions | None = None,
) -> NormEstimate:
    """Lower bound for the weak-type quasinorm sup_l l * omega(T(f sigma) > l)^(1/q).

    The candidates f are the rows of the strong bound's seed pool, so the
    result is at most the strong bound of the same options. For each f the
    supremum over l is computed exactly by scanning the distinct leaf values
    of T(f sigma), each nudged down by 2**-40 times the value scale so the
    strict inequality is unambiguous in floating point.
    """
    opts = opts or AscentOptions()
    grid = tau.grid
    pool = _project_lp_sphere(_strong_pool(tau, sigma, omega, exps, opts), sigma.leaf_mass, exps.p)
    h = _t_leafmass_batch(grid, tau.tau, pool * sigma.leaf_mass)
    best_val = 0.0
    best_row = 0
    for r in range(pool.shape[0]):
        val = _weak_scan(h[r], omega.leaf_mass, exps.q)
        if val > best_val:
            best_val = val
            best_row = r
    return NormEstimate(best_val, "lower-bound", pool[best_row], None, 1, math.nan)


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
    """The Carleson embedding constant at exponent p, certified by ``_power_solve``.

    C_p = sup over unit-norm f >= 0 of (sum_Q tau_Q |E_Q f|^p)^(1/p), with
    averages and norms against ``mu`` (Lebesgue when omitted); cubes with
    mu(Q) == 0 contribute nothing. The value is at least the best normalized
    cube indicator's (``_cet_scores``), which is the p-th root of the
    (weighted) Carleson norm of tau; when that indicator beats the solver's
    iterates it is the extremal.
    """
    if p <= 1:
        raise ValueError(f"need p > 1, got {p}")
    grid = tau.grid
    mu = mu if mu is not None else Measure.lebesgue(grid)
    m_lm = mu.leaf_mass
    mass = mu.cube_mass
    ok = mass > 0
    inv_mass = np.where(ok, 1.0 / np.where(ok, mass, 1.0), 0.0)

    work = np.empty(grid.n_cubes)
    leaves = work[grid.leaf_start :]

    def image(f):
        avg = grid.subtree_sums(np.multiply(f, m_lm, out=leaves), out=work)
        avg *= inv_mass
        coeff = tau.tau * avg ** (p - 1.0)
        j = float(coeff @ avg) ** (1.0 / p)
        np.multiply(coeff, inv_mass, out=work)
        path = _kernels.down_sum(work, grid.parent, grid.level_offsets, out=work)
        return j, path[grid.leaf_start :]

    scores = _cet_scores(grid, tau.tau, mass, p)
    best = int(np.argmax(scores))
    floor = None
    if scores[best] > 0:
        f = _indicator_rows(grid, np.array([best]))[0]
        floor = (float(scores[best]), f / float(f**p @ m_lm) ** (1.0 / p))
    return _power_solve(image, m_lm, p, floor)


def _power_solve(image, mass: np.ndarray, p: float, floor=None) -> NormEstimate:
    """Certified p -> p norm of a nonnegative map: Boyd's power method with Anderson mixing.

    ``image(f)`` returns (J(f), path_f) for f >= 0 of unit L^p(mass) norm,
    where path_f is the gradient of J^p / p divided by ``mass``, so that
    J(f)^p = sum f * mass * path_f; path_f is read before the next call, so
    it may be a view of a buffer that call overwrites. Stationary points
    satisfy f^(p-1) proportional to path_f, and for nonnegative maps the plain step
    f -> path_f^(1/(p-1)) never lowers J (D. W. Boyd, Linear Algebra Appl. 9,
    1974). Hoelder's inequality bounds every unit g by
    J(g)^p <= max over the support of mass of path_f / f^(p-1), for any f > 0
    there, so each step gives a lower value J(f) and an upper value for free.

    The step mixes the last ``_ANDERSON_PAIRS`` (iterate, image) pairs
    (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) and clips to a positive
    floor. When a mixed iterate lowers J, the history is dropped and the
    iteration restarts from the previous plain image. The solve stops with
    kind "exact" once upper - lower <= ``_SOLVE_GAP`` * lower, and with
    "lower-bound" at ``_SOLVE_MAX_ITER`` steps; ``value`` is the best J, or
    the (value, f) pair ``floor`` when that is larger, ``upper`` the smallest
    upper value and ``residual`` their difference.
    """
    live = mass > 0
    if not np.any(live):
        return NormEstimate(0.0, "exact", np.zeros(mass.size), None, 0, 0.0, upper=0.0)

    def normalize(f):
        return f / float(f**p @ mass) ** (1.0 / p)

    f = normalize(np.ones(mass.size))
    lower, best_f = floor if floor is not None else (0.0, f)
    upper = math.inf
    prev_j, prev_g = -math.inf, f
    history = []
    iterations = 0
    for iterations in range(1, _SOLVE_MAX_ITER + 1):
        j, path = image(f)
        upper = min(upper, float(np.max(path[live] / f[live] ** (p - 1.0))) ** (1.0 / p))
        if j > lower:
            lower, best_f = j, f
        if upper - lower <= _SOLVE_GAP * lower:
            break
        if len(history) > 1 and j < prev_j:
            # the mixed iterate lost ground: restart from the last plain image
            history = []
            f = prev_g
            continue
        g = path ** (1.0 / (p - 1.0))
        g = normalize(np.maximum(g, _FLOOR * g.max()))
        history = history[1 - _ANDERSON_PAIRS :] + [(f, g)]
        f = g
        if len(history) > 1:
            fs, gs = (np.array(x) for x in zip(*history))
            res = gs - fs
            gamma = np.linalg.lstsq(np.diff(res, axis=0).T, res[-1], rcond=None)[0]
            f = normalize(np.maximum(g - gamma @ np.diff(gs, axis=0), _FLOOR * g.max()))
        prev_j, prev_g = j, g
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


def _cet_scores(grid: DyadicGrid, tau: np.ndarray, mass: np.ndarray, p: float) -> np.ndarray:
    """The embedding objective at f = 1_R / mu(R)^(1/p) for every cube R; 0 where mu(R) == 0.

    E_Q f is mu(R)^(-1/p) for Q inside R and mu(R)^(1 - 1/p) / mu(Q) for Q
    strictly containing R, so objective^p = up_sum(tau [mu > 0])(R) / mu(R)
    + mu(R)^(p-1) down_sum(tau mu^-p [mu > 0])(parent R): two tree scans.
    """
    ok = mass > 0
    live = np.where(ok, tau, 0.0)
    safe = np.where(ok, mass, 1.0)
    inside = _kernels.up_sum(live, grid.level_offsets) / safe
    above = _kernels.down_sum(live * safe**-p, grid.parent, grid.level_offsets)
    outside = np.zeros(grid.n_cubes)
    outside[1:] = mass[1:] ** (p - 1.0) * above[grid.parent[1:]]
    return np.where(ok, (inside + outside) ** (1.0 / p), 0.0)
