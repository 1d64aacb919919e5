"""Carleson norms and two-weight testing constants.

The local testing constant tests the operator on indicators of cubes with the
summation restricted inside the cube; the global variant restricts it outside.
Both come with duals obtained by swapping the measure pair and conjugating the
exponents. At p = q = 2 the quadratic indicator-testing constants coincide
with the local constants, which the test-suite asserts as an identity.

Every constant is a sup over all cubes R, and each is computed for all R at
once from the tree identity T = T^in_R + T^out_R (summands inside R, and
containing R), never by evaluating the operator once per cube. With
c_Q = tau_Q mu(Q)/|Q| for the tested measure mu and A = down_sum(tau/|Q|),
both read from the stored coefficient tau/|Q| (``CubeWeights.coef``):

* the in-parts (local constants, C1/C2, the inside of the strengthened
  constant) are sums over x in R of (sum_{x in Q <= R} c_Q)^e, gathered level
  by level from the leaves up (``_inner_power_sums``);
* the out-parts equal mu(R) A at the deepest common ancestor of x and R, so
  two ``down_sum`` passes give them for every R (``_outer_sums``).

That is O(N * depth) time and O(N) memory for N cubes, so the constants scale
to the full grid budget. The per-cube enumerations remain in the tests as
oracles. From ``_kernels.PARALLEL_MIN_LEAVES`` leaves on the in-part sweep
runs on two threads: each half of the leaves walks its own half-tree through
levels depth...1, and the root level, whose one sum adds every leaf, follows
on the calling thread. The weighted Carleson norm's masks and ratios run
as two halves of the cubes (``_kernels.halves``). Every sum adds the same terms in the
same order as on one thread, so no value or argmax moves.

Every sweep raises its sums to the power p'. Near p = 1 that power overflows
(and small sums underflow to 0), so when an a-priori bound says the powers may
leave the float range (``_needs_scale``), each cube's sum is taken relative to
its own largest term on the support of the measure it is summed against, as
``extremal._boyd_power`` does for the Boyd step, and the constant is assembled
from (scale, relative sum) pairs (``_values``). Elsewhere the sums are formed
as they are.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _layout
from .grid import CubeRef, Exponents, Measure
from .operators import CubeWeights

WeightedCarlesonResult = namedtuple("WeightedCarlesonResult", "value argmax degenerate")

# Relative gap below which two testing values count as tied (see ``_sup``).
# The sweeps round differently from a per-cube evaluation by a few ulps (under
# 1e-15 relative on the test corpus), so cubes that test the same function
# must not be told apart by less than this.
_TIE_RTOL = 1e-13

# log2 of the largest number, and minus log2 of the smallest positive one,
# that a sweep's e-th powers and their sums may reach unscaled (see
# ``_needs_scale``); floats reach 2^1023 and, in normal form, 2^-1022.
_POWER_EXP2 = 1000.0


def carleson_norm(tau: CubeWeights):
    """sup_Q |Q|^-1 sum_{R <= Q} tau_R, with its argmax cube.

    Ties break to the smallest canonical index.
    """
    grid = tau.grid
    vals = _kernels.up_sum(tau.tau, grid)
    grid.divide_by_volume(vals, out=vals)
    best = int(np.argmax(vals))
    return float(vals[best]), grid.cube(best)


def weighted_carleson_norm(tau: CubeWeights, omega: Measure) -> WeightedCarlesonResult:
    """sup_Q omega(Q)^-1 sum_{R <= Q} tau_R over cubes with omega(Q) > 0.

    A cube with omega(Q) == 0 but positive subtree tau-mass makes the constant
    degenerate: the result carries value +inf, that cube, and a flag.
    """
    grid = tau.grid
    subtree = _kernels.up_sum(tau.tau, grid)
    mass = omega.cube_mass
    ok = np.empty(grid.n_cubes, dtype=bool)
    parts = _kernels.halves(grid.n_leaves, _carleson_masks, mass, subtree, ok)
    if any(dead for dead, _ in parts):
        first = int(np.argmax((mass == 0) & (subtree > 0)))
        return WeightedCarlesonResult(math.inf, grid.cube(first), True)
    if not any(live for _, live in parts):
        return WeightedCarlesonResult(0.0, None, False)
    # the ratios are taken in the subtree sums
    _kernels.halves(grid.n_leaves, _carleson_ratios, subtree, mass, ok)
    best = int(np.argmax(subtree))
    return WeightedCarlesonResult(float(subtree[best]), grid.cube(best), False)


def _carleson_masks(mass, subtree, ok) -> tuple:
    """Whether a cube is dead (massless, with tau mass under it) and whether
    one is live (``ok``, its mass positive, written in place)."""
    np.greater(mass, 0, out=ok)
    return bool(np.any((mass == 0) & (subtree > 0))), bool(ok.any())


def _carleson_ratios(subtree, mass, ok) -> None:
    """``subtree / mass`` in place on the live cubes, -inf on the others."""
    np.divide(subtree, mass, out=subtree, where=ok)
    np.copyto(subtree, -np.inf, where=~ok)


def local_testing(tau: CubeWeights, sigma: Measure, omega: Measure, exps: Exponents):
    """sup_R omega(R)^(-1/q') * || T^in_R(omega 1_R) ||_{L^p'(sigma)}.

    Returns (value, argmax cube). Cubes with omega(R) == 0 contribute 0 and
    are skipped; the sup of an empty family is 0 with argmax None.
    """
    grid = tau.grid
    pc = exps.p_conj
    contrib = tau.coef * omega.cube_mass
    floor = np.zeros(grid.n_cubes) if _needs_scale(tau, omega, sigma, pc) else None
    scale, power = _inner_power_sums(grid, contrib, sigma.leaf_mass, pc, floor=floor)
    return _sup(grid, _values(scale, power, omega.cube_mass, pc, exps.q_conj))


def global_testing(tau: CubeWeights, sigma: Measure, omega: Measure, exps: Exponents):
    """sup_R omega(R)^(-1/q') * || T^out_R(omega 1_R) ||_{L^p'(sigma)}.

    Equivalence with the norm is only claimed for p < q; at p == q the value
    is still well-defined and reported (callers may attach an advisory).

    For x in R the summands are the cubes containing R, so the value is
    omega(R) A(R) with A = down_sum(tau/|Q|); for x outside R only the cubes
    containing both survive, giving omega(R) A(P) at their deepest common
    ancestor P. Two tree scans therefore cover every R (see ``_outer_sums``).
    Scaled, the power is taken relative to the larger of A(R), where
    sigma(R) > 0, and the outside part's own scale B(R).
    """
    grid = tau.grid
    pc = exps.p_conj
    scaled = _needs_scale(tau, omega, sigma, pc)
    avg, outside = _outer_sums(tau, sigma, pc, scaled)
    w = omega.cube_mass
    mass = sigma.cube_mass
    if scaled:
        far, rel = outside
        near = np.where(mass > 0, avg, 0.0)
        top = np.maximum(near, far)
        power = mass * _ratio(near, top) ** pc + rel * _ratio(far, top) ** pc
        return _sup(grid, _values(w * top, power, w, pc, exps.q_conj))
    power = w**pc * (mass * avg**pc + outside)
    return _sup(grid, _values(None, power, w, pc, exps.q_conj))


def strengthened_local_values(tau: CubeWeights, sigma: Measure, omega: Measure, exps: Exponents):
    """omega(R)^(-1/q') ||T(omega 1_R)||_{L^p'(sigma)} for every cube R; -inf where omega(R) == 0.

    Inside R the full operator is the local sum shifted by omega(R) A(parent
    R); outside R it is the global operator's outside part. With the measures
    swapped and the dual exponents this is the strong-norm objective at each
    normalized cube indicator, sigma(R)^(-1/p) ||T(1_R sigma)||_{L^q(omega)}.
    Scaled, both parts are taken relative to the larger of the inside's
    largest term and the outside's, omega(R) B(R) (see ``_outer_sums``).
    """
    grid = tau.grid
    pc = exps.p_conj
    scaled = _needs_scale(tau, omega, sigma, pc)
    avg, outside = _outer_sums(tau, sigma, pc, scaled)
    w = omega.cube_mass
    shift = np.zeros(grid.n_cubes)
    shift[1:] = w[1:] * avg[grid.parent[1:]]
    contrib = tau.coef * w
    if not scaled:
        _, power = _inner_power_sums(grid, contrib, sigma.leaf_mass, pc, shift)
        power += w**pc * outside
        return _values(None, power, w, pc, exps.q_conj)
    far, rel = outside
    far *= w
    scale, power = _inner_power_sums(grid, contrib, sigma.leaf_mass, pc, shift, floor=far)
    power += rel * _ratio(far, scale) ** pc
    return _values(scale, power, w, pc, exps.q_conj)


def testing_constants_22(tau: CubeWeights, sigma: Measure, omega: Measure):
    """The two quadratic indicator-testing constants (C1, C2).

    C1^2 = sup_R sigma(R)^-1 int_R [sum_{Q <= R} tau_Q 1_Q E_Q(sigma)]^2 domega
    and C2 swaps sigma and omega. Both come from one leaf-to-root pass each
    (``_inner_power_sums`` with exponent 2), O(n_leaves * (depth+1)); they
    equal the corresponding local testing constants at p = q = 2.
    """
    c1 = _quadratic_sweep(tau, sigma, omega)
    c2 = _quadratic_sweep(tau, omega, sigma)
    return c1, c2


def _quadratic_sweep(tau, inner: Measure, against: Measure) -> float:
    grid = tau.grid
    contrib = tau.coef * inner.cube_mass
    floor = np.zeros(grid.n_cubes) if _needs_scale(tau, inner, against, 2.0) else None
    scale, sums = _inner_power_sums(grid, contrib, against.leaf_mass, 2.0, floor=floor)
    ok = inner.cube_mass > 0
    ratio = sums[ok] / inner.cube_mass[ok]
    if scale is None:
        return math.sqrt(float(np.max(ratio, initial=0.0)))
    return float(np.max(scale[ok] * np.sqrt(ratio), initial=0.0))


def _needs_scale(tau: CubeWeights, mass: Measure, weight: Measure, e: float) -> bool:
    """Whether a sweep's e-th powers may leave the float range, by an a-priori bound.

    Every number a sweep raises to the power e (sums of tau/|Q|, masses of
    ``mass``, the tested measure, and their products) is 0 or lies in
    [lo, hi], with lo and hi the products of the bounds of
    ``CubeWeights.coef_bounds`` and ``Measure.mass_bounds`` clipped at 1
    from above and from below. The powers are summed against at most
    max(1, total mass of ``weight``). They are formed unscaled when hi^e
    times that total and lo^e stay within 2^(+-``_POWER_EXP2``). The bounds
    are cached on their objects, so the test costs O(1) after a measure's
    first sweep.
    """
    c_lo, c_hi = tau.coef_bounds
    m_lo, m_hi = mass.mass_bounds
    lo = min(1.0, c_lo) * min(1.0, m_lo)
    hi = max(1.0, c_hi) * max(1.0, m_hi)
    total = max(1.0, weight.mass_bounds[1])
    return e * math.log2(hi) + math.log2(total) > _POWER_EXP2 or e * math.log2(lo) < -_POWER_EXP2


def _inner_power_sums(grid, contrib, weight, e, shift=None, floor=None):
    """For every cube R: S_R = sum_{x in R} (shift_R + sum_{x in Q <= R} contrib_Q)^e * weight(x).

    Returns (scale, sums) with S = scale^e * sums. Without ``floor``, scale is
    None and sums is S. With it, scale_R is the larger of floor_R and the
    largest bracketed sum over the leaves x of R with weight(x) > 0, so that
    each term is at most weight(x) and, where the bracket reaches the scale,
    equals it: no cube's sum overflows, or underflows to 0. Leaves of zero
    weight add nothing and take no part in the scale.

    Walks from the leaves to the root one level per step, carrying for each
    leaf the running sum of ``contrib`` over its ancestors up to the current
    level, so it costs O(n_leaves * (depth+1)) time and O(n_leaves) memory.
    The sums are built from nonnegative terms, so nothing cancels.

    On two threads (``_kernels.workers``) each half of the leaves walks levels
    depth...1 as its own task: its ancestors there are that half of each
    level (``_layout``), so every cube's sum adds the same terms in the same
    order. The root level, whose one sum adds every leaf in index order,
    follows on the calling thread. Every buffer is allocated here, on the
    calling thread, and filled in place, since the pool thread's malloc arena
    would keep what it allocated: the takes use ``mode="clip"``, which numpy
    does not buffer (the indices are in range), and a half adds its sums
    into ``out`` with ``np.add.at``, which adds from 0 in index order as
    ``np.bincount`` does but allocates nothing. The powers are taken by
    ``**=``, which takes the same fast paths as ``**``; the ratio to the
    scale is taken in ``t``, which is already +0.0 wherever the scale is 0.
    """
    n = grid.n_leaves
    out = np.zeros(grid.n_cubes)
    scale, dead = (None, None) if floor is None else (floor.copy(), ~(weight > 0))
    run = np.zeros(n)
    terms = np.empty(n)
    den, pos = (None, None) if scale is None else (np.empty(n), np.empty(n, dtype=bool))
    offsets = grid.level_offsets.tolist()
    # the leaves' ancestors at the current level and the buffer of the next
    bufs = (np.arange(grid.leaf_start, grid.n_cubes), np.empty(n, dtype=np.int64))

    def level(lev, which, anc, idx):
        # level lev of the leaves of half `which` (all with None), whose
        # ancestors there are anc; writes theirs one level up in idx
        lo, hi = offsets[lev], offsets[lev + 1]
        r, t, w, no, d, ok = run, terms, weight, dead, den, pos
        if which is not None:
            lo, hi = _layout.half(lo, hi, which)
            part = slice(*_layout.half(0, n, which))
            r, t, w = r[part], t[part], w[part]
            if scale is not None:
                no, d, ok = no[part], d[part], ok[part]
        r += contrib.take(anc, out=t, mode="clip")
        if shift is None:
            t[...] = r
        else:
            np.add(r, shift.take(anc, out=t, mode="clip"), out=t)
        if scale is not None:
            np.copyto(t, 0.0, where=no)
            np.maximum.at(scale, anc, t)
            scale.take(anc, out=d, mode="clip")
            np.divide(t, d, out=t, where=np.greater(d, 0, out=ok))
        t **= e
        t *= w
        np.subtract(anc, lo, out=idx)
        if which is None:
            out[lo:hi] = np.bincount(idx, weights=t, minlength=hi - lo)
        else:
            # the same sums from 0 in the same order, added into out itself,
            # since np.bincount would allocate them on the pool's thread
            np.add.at(out[lo:hi], idx, t)
        grid.parent.take(anc, out=idx, mode="clip")

    def walk(which):
        # levels depth...1 of half `which` (all with None)
        part = slice(None) if which is None else slice(*_layout.half(0, n, which))
        anc, idx = bufs[0][part], bufs[1][part]
        for lev in range(grid.depth, 0, -1):
            level(lev, which, anc, idx)
            anc, idx = idx, anc

    pool = _kernels.workers(n)
    if pool is None:
        walk(None)
    else:
        _kernels.on_halves(pool, walk)
    # both halves took depth steps, so their root ancestors share one buffer
    anc, idx = bufs[grid.depth % 2], bufs[1 - grid.depth % 2]
    level(0, None, anc, idx)
    return scale, out


def _ratio(num, den):
    """num / den where den > 0, and 0 elsewhere."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def _outer_sums(tau: CubeWeights, sigma: Measure, pc: float, scaled: bool = False):
    """A = down_sum(tau/|Q|) and F with F(R) = sum_{x not in R} A(x ^ R)^p' sigma(x).

    x ^ R is the deepest common ancestor. The leaves whose common ancestor
    with R is a strict ancestor P of R are those of P outside its child on the
    way to R, so F = down_sum(ring) with ring[Q] = (sigma(parent Q) -
    sigma(Q)) A(parent Q)^p'. The difference is never negative. Its rounding
    error, at most eps sigma(Q) A(parent Q)^p', stays at the eps level
    relative to the tested sum, which is at least sigma(Q) A(Q)^p' for every
    Q containing R (A only grows down the tree).

    Scaled, F comes as the pair (B, F / B^p'), where B(R) is the largest
    A(x ^ R) over x outside R with sigma(x) > 0: A at the deepest strict
    ancestor whose ring is positive, and 0 with F = 0 where there is none.
    From the root down, for Q a child of R with a positive ring, B(Q) = A(R)
    >= B(R) and F(Q) / B(Q)^p' = ring + F(R) / B(R)^p' * (B(R) / A(R))^p';
    otherwise Q inherits R's pair. So F / B^p' is at least the last positive
    ring and at most sigma(root): it neither overflows nor underflows to 0.
    """
    grid = tau.grid
    avg = _kernels.down_sum(tau.coef, grid)
    mass = sigma.cube_mass
    if scaled:
        far = np.zeros(grid.n_cubes)
        rel = np.zeros(grid.n_cubes)
        for lev in range(1, grid.depth + 1):
            lo, hi = int(grid.level_offsets[lev]), int(grid.level_offsets[lev + 1])
            par = grid.parent[lo:hi]
            ring = mass[par] - mass[lo:hi]
            step = ring > 0
            far[lo:hi] = np.where(step, avg[par], far[par])
            grown = ring + rel[par] * _ratio(far[par], avg[par]) ** pc
            rel[lo:hi] = np.where(step, grown, rel[par])
        return avg, (far, rel)
    par = grid.parent[1:]
    ring = np.zeros(grid.n_cubes)
    ring[1:] = (mass[par] - mass[1:]) * avg[par] ** pc
    return avg, _kernels.down_sum(ring, grid)


def _values(scale, power, mass, pc: float, qc: float):
    """mass(R)^(-1/q') * scale(R) * power(R)^(1/p') per cube, -inf where mass(R) <= 0.

    ``scale`` is None for unscaled sums (see ``_inner_power_sums``).
    """
    ok = mass > 0
    root = power ** (1.0 / pc)
    if scale is not None:
        root *= scale
    return np.where(ok, np.where(ok, mass, 1.0) ** (-1.0 / qc) * root, -np.inf)


def _sup(grid, vals):
    """The largest of the per-cube ``vals`` (see ``_values``), with its cube.

    Returns (0.0, None) when no value is positive. Ties break to the smallest
    canonical index, where values within ``_TIE_RTOL`` of the maximum count
    as tied: two cubes whose tested functions coincide (all of the mass of R
    sits in one child) have equal values that these sums may round apart. A
    NaN among the values raises FloatingPointError: read as "no positive
    value", it would let a check against the constant pass untested.
    """
    top = float(np.max(vals))
    if math.isnan(top):
        raise FloatingPointError("a per-cube testing value is NaN")
    if not top > 0.0:
        return 0.0, None
    best = int(np.argmax(vals >= top * (1.0 - _TIE_RTOL)))
    return float(vals[best]), grid.cube(best)


@dataclass
class TestingReport:
    """All four testing constants for one (tau, sigma, omega, exps) instance."""

    p: float
    q: float
    loc: float
    loc_argmax: CubeRef | None
    loc_dual: float
    loc_dual_argmax: CubeRef | None
    glo: float
    glo_argmax: CubeRef | None
    glo_dual: float
    glo_dual_argmax: CubeRef | None
    glo_advisory: bool = field(default=False)

    def to_dict(self) -> dict:
        def cube_id(c):
            return None if c is None else {"level": c.level, "coords": list(c.coords)}

        return {
            "p": self.p,
            "q": self.q,
            "local": self.loc,
            "local_argmax": cube_id(self.loc_argmax),
            "local_dual": self.loc_dual,
            "local_dual_argmax": cube_id(self.loc_dual_argmax),
            "global": self.glo,
            "global_argmax": cube_id(self.glo_argmax),
            "global_dual": self.glo_dual,
            "global_dual_argmax": cube_id(self.glo_dual_argmax),
            "global_advisory_p_eq_q": self.glo_advisory,
        }


def compute_testing_report(
    tau: CubeWeights, sigma: Measure, omega: Measure, exps: Exponents
) -> TestingReport:
    """Local and global testing constants plus their duals in one report.

    The dual constants swap (sigma, omega) and use the conjugate pair (q', p').
    When p == q the global constants carry an advisory flag: the global-to-norm
    equivalence is not claimed on the diagonal.
    """
    dual = exps.dual()
    loc, loc_arg = local_testing(tau, sigma, omega, exps)
    locd, locd_arg = local_testing(tau, omega, sigma, dual)
    glo, glo_arg = global_testing(tau, sigma, omega, exps)
    glod, glod_arg = global_testing(tau, omega, sigma, dual)
    return TestingReport(
        p=exps.p,
        q=exps.q,
        loc=loc,
        loc_argmax=loc_arg,
        loc_dual=locd,
        loc_dual_argmax=locd_arg,
        glo=glo,
        glo_argmax=glo_arg,
        glo_dual=glod,
        glo_dual_argmax=glod_arg,
        glo_advisory=(exps.p == exps.q),
    )
