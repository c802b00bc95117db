"""Proximal map J_tau and discrete gradient flow (JKO) sequences.

1D flows use the quantile (Lagrangian) parametrization: the decision
variables are the n quantile positions, the W2 term to the previous state
is the exact diagonal quadratic sum(m_i (x_i - y_i)^2), and the hard cap
||mu||_inf <= M becomes the linear spacing constraints
x_{i+1} - x_i >= cell_mass_i / M handled inside an isotonic projection.
On that feasible set (the sorted cone) the 1D Newtonian term is linear in
x, and its gradient counts tied atoms by their order.

Two inner solvers share one stopping test: the projected-gradient
residual below ``inner_tol``, or ``inner_max_iter`` iterations (reported,
result still returned with a residual flag).

* Projected Newton with a banded solve (:func:`_newton`) takes the steps
  whose energy is convex in quantile coordinates and has a second
  derivative in every term: potentials with a ``hess`` (quadratic,
  granular, zero), the 1D Newtonian kernel, entropy and power internal
  terms, caps.  Its iteration count does not grow with the number of
  nodes.  When its line search fails it hands the iterate to FISTA.
* Accelerated projected gradient (monotone FISTA with backtracking,
  :func:`_fista`) takes everything else: the nonconvex multi-start (e.g.
  ``log_pinch``, log and Riesz kernels) and potentials without a ``hess``.
  It stops early, flagged, at an iterate whose value is -inf.

A finite-p cap ||rho||_p <= C is a multiplier search on the same solvers
(:func:`_cap_search`): when the step without it ends above the cap, the
step is solved again with lam U_p added, U_p = ||rho||_p^p / (p - 1) being
the power-p internal term, and lam >= 0 is grown and bisected until the
state ends at the cap.  Its solves spend what the first solve left of
``inner_max_iter``; a search that cannot finish sets the residual flag.

2D proximal steps are limited to atomic measures with at most 64 atoms and
use exact transport plans inside a block-coordinate
(majorize-minimize) scheme; each outer pass after the first warm-starts
its LP from the previous pass's optimal basis.  Their residual is the
relative objective change of the last outer pass, and the flag is set when
it exceeds ``inner_tol`` or when a fixed-plan pass used up its iterations.

Everything here is deterministic: fixed reduction orders, fixed multi-start
order with best-objective selection and lowest-index tie-breaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import Energy, _finite_field
from .measures import (
    AtomicMeasure,
    MeasureError,
    QuantileMeasure,
    lp_norm,
    make_atomic,
)
# w2_exact is not called here; perfbench's tracer tests patch jko.w2_exact
from .transport import (
    _exact_plan,
    _plan_distance,
    geodesic,
    same_quantile_grid,
    w2,
    w2_exact,
)

__all__ = [
    "JkoError",
    "JkoConfig",
    "FlowTrajectory",
    "isotonic_project",
    "proximal_step",
    "flow",
    "flow_time_dependent",
    "rescaled_intermediate",
    "quantile_w2",
]

ATOM_CAP_2D = 64
_FIXED_PLAN_ITERS = 500   # gradient steps per fixed-plan pass of the 2D step
# projected Newton: largest slack of a glued gap, as a fraction of the mean
# gap; sufficient-decrease fraction and step halvings of its Armijo search
_EPS_ACTIVE = 1e-3
_ARMIJO = 1e-4
_ARMIJO_HALVINGS = 30


class JkoError(ValueError):
    """Invalid JKO configuration or an infeasible proximal problem."""


@dataclass(frozen=True)
class JkoConfig:
    """Configuration of the discrete gradient flow driver."""

    tau: float = 0.05
    steps: int = 1
    inner_tol: float = 1e-8
    inner_max_iter: int = 20000

    def __post_init__(self):
        if self.tau < 0:
            raise JkoError("tau must be nonnegative")
        if self.steps < 1:
            raise JkoError("steps must be >= 1")
        if self.inner_tol <= 0:
            raise JkoError("inner_tol must be positive")
        if self.inner_max_iter < 1:
            raise JkoError("inner_max_iter must be >= 1")


@dataclass
class FlowTrajectory:
    """States mu^0..mu^n with per-step bookkeeping."""

    states: list
    energies: np.ndarray
    step_distances: np.ndarray
    diagnostics: list
    config: JkoConfig

    def max_constraint_violation(self, p, cap) -> float:
        return max([0.0] + [lp_norm(s, p) - cap for s in self.states])


# ---------------------------------------------------------------------------
# isotonic projection (pool-adjacent-violators after gap substitution)
# ---------------------------------------------------------------------------

def isotonic_project(values, weights=None, min_gaps=None) -> np.ndarray:
    """Weighted least-squares projection onto
    {x : x_{i+1} - x_i >= min_gaps_i}.

    The affine substitution z_i = x_i - sum_{j<i} min_gaps_j reduces the
    problem to plain isotonic regression, solved exactly by
    pool-adjacent-violators.  Every block before the first pair that pools
    is a single atom, so one vectorized test of the merge predicate on
    adjacent atoms finds that pair: feasible input returns at once, and
    otherwise the PAV loop starts there on a stack of singletons.
    """
    means, counts, offsets = _pav(values, weights, min_gaps)
    return (means if counts is None else np.repeat(means, counts)) + offsets


def _pav(values, weights, min_gaps):
    """The pools of :func:`isotonic_project`: (pool means in the shifted
    coordinates z, pool sizes or None when no pair pools, offsets)."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != n or (w <= 0).any():
        raise JkoError("weights must be positive and match values")
    offsets = np.zeros(n)
    if min_gaps is not None:
        g = np.asarray(min_gaps, dtype=float)
        if len(g) != n - 1 or (g < 0).any():
            raise JkoError("min_gaps must be nonnegative of length n-1")
        np.cumsum(g, out=offsets[1:])
    wz = w * (v - offsets)
    # the loop's merge predicate on two single-atom blocks, same products
    pools = wz[:-1] * w[1:] > wz[1:] * w[:-1]
    if not pools.any():
        return np.divide(wz, w), None, offsets
    # PAV with a block stack: (weight sum, weighted value sum, count),
    # seeded with the singletons before atom k, which pools with atom k-1;
    # the loop runs on Python floats, which index far faster than numpy
    # scalars
    k = int(pools.argmax()) + 1
    bw, bs, bc = w[:k].tolist(), wz[:k].tolist(), [1] * k
    for sw, ss in zip(w[k:].tolist(), wz[k:].tolist()):
        cnt = 1
        while bw and bs[-1] * sw > ss * bw[-1]:
            sw += bw.pop()
            ss += bs.pop()
            cnt += bc.pop()
        bw.append(sw)
        bs.append(ss)
        bc.append(cnt)
    return np.divide(bs, bw), bc, offsets


# ---------------------------------------------------------------------------
# quantile inner solver
# ---------------------------------------------------------------------------

def _spacing_min_gaps(energy: Energy, cell_mass: np.ndarray):
    """Linear spacing lower bounds encoding the hard density caps."""
    caps = []
    if energy.constraint is not None and energy.constraint[0] == math.inf:
        caps.append(energy.constraint[1])
    if energy.internal is not None and energy.internal[0] == "power" \
            and energy.internal[1] == math.inf:
        caps.append(1.0)
    if not caps:
        return None
    m_cap = min(caps)
    return cell_mass[:-1] / m_cap


class _QuantileObjective:
    """(1/2 tau) sum m (x - y)^2 + discrete energy (+ ``weight`` U_p, U_p
    the power-``power`` internal term: a finite-p cap's multiplier term)."""

    def __init__(self, energy, q_prev, tau, power=None, weight=0.0):
        self.energy = energy
        self.q = q_prev
        self.y = q_prev.positions
        self.m = q_prev.cell_mass
        self.tau = tau
        self.cap_term = None if power is None \
            else Energy(internal=("power", power))
        self.weight = weight
        self._x = self._qs = None

    def state(self, x):
        """The state at positions ``x``.  The last one is kept, keyed on the
        array object, so a residual probe right after ``value(x)`` reuses
        it; callers never change an evaluated array in place."""
        if x is not self._x:
            self._x, self._qs = x, self.q.with_positions(x)
        return self._qs

    def value(self, x):
        return self._value(self.state(x), x)

    def grad(self, x):
        return self._grad(self.state(x), x)

    def value_and_grad(self, x):
        """(value(x), grad(x)) from one state."""
        qs = self.state(x)
        return self._value(qs, x), self._grad(qs, x)

    def _value(self, qs, x):
        val = 0.5 / self.tau * float((self.m * (x - self.y) ** 2).sum())
        if self.energy.potential is not None:
            val += self.energy.potential_value(qs)
        if self.energy.kernel is not None:
            val += self.energy.interaction_value(qs)
        if self.energy.internal is not None and self.energy.internal != ("power", math.inf):
            v = self.energy.internal_value(qs)
            if not math.isfinite(v):
                return math.inf
            val += v
        if self.cap_term is not None:   # +inf stays +inf: weight > 0
            val += self.weight * self.cap_term.internal_value(qs)
        return val

    def hess(self, x):
        """Bands (diagonal, first and second superdiagonal) of the Hessian
        of the objective at ``x`` (see :meth:`Energy.quantile_hess`)."""
        qs = self.state(x)
        bands = self.energy.quantile_hess(qs)   # a tuple of fresh arrays
        bands[0][:] += self.m / self.tau
        if self.cap_term is not None:
            for band, extra in zip(bands, self.cap_term.quantile_hess(qs)):
                band += self.weight * extra
        return bands

    def _grad(self, qs, x):
        g = self.m * (x - self.y) / self.tau + self.energy.quantile_grad(qs)
        if self.cap_term is not None:
            g += self.weight * self.cap_term.quantile_grad(qs)
        return g


def _fista(objective, x0, min_gaps, tol, max_iter):
    """Accelerated projected gradient with Barzilai-Borwein step sizing,
    backtracking safeguard and gradient-based momentum restarts.

    Evaluates each point once: the start by ``value_and_grad``, which the
    first iteration reuses as its extrapolated point.  Stops at the first
    accepted iterate whose value is -inf, with an infinite residual.

    Returns (x, iterations, projected-gradient residual, objective at x)."""
    m = objective.m
    proj = lambda v: isotonic_project(v, m, min_gaps)
    s_probe = min(objective.tau, 1.0)

    def residual(x):
        gx = objective.grad(x) / m
        return float(np.abs((x - proj(x - s_probe * gx)) / s_probe).max())

    x = proj(np.asarray(x0, dtype=float))
    z = x.copy()
    t_m = 1.0
    L = max(float(m.max()) / objective.tau, 1e-12)
    res = math.inf
    it = 0
    z_prev = None
    g_prev = None
    x_best = x.copy()
    fz, g = objective.value_and_grad(z)
    fx = f_best = fz
    for it in range(1, max_iter + 1):
        if it > 1:
            try:
                fz, g = objective.value_and_grad(z)
            except MeasureError:  # z out of order: restart the momentum at x
                z, t_m = x, 1.0
                fz, g = objective.value_and_grad(z)
        if g_prev is not None:
            # BB curvature estimate; the backtracking loop repairs
            # underestimates, nonconvex directions keep the previous L
            dz = z - z_prev
            denom = float(dz @ dz)
            if denom > 0:
                l_bb = float((g - g_prev) @ dz) / denom
                if l_bb > 0:
                    L = min(max(l_bb, 1e-12), 1e18)
        z_prev, g_prev = z.copy(), g
        while True:
            x_new = proj(z - g / L)
            dx = x_new - z
            quad = fz + float(g @ dx) + 0.5 * L * float(dx @ dx)
            fxn = objective.value(x_new)
            if fxn <= quad + 1e-15 * (1.0 + abs(quad)) or L >= 1e17:
                break
            L *= 2.0
        if float(np.dot(z - x_new, x_new - x)) > 0:  # momentum restart
            t_m = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_m * t_m))
        z = x_new + (t_m - 1.0) / t_new * (x_new - x)
        moved = float(np.abs(x_new - x).max())
        x, fx, t_m = x_new, fxn, t_new
        if fxn == -math.inf:   # unbounded below: no minimizer to approach
            return x, it, math.inf, fxn
        if fxn < f_best:
            f_best = fxn
            x_best = x.copy()
        if it <= 3 or it % 5 == 0 or moved <= 0.1 * tol * s_probe:
            res = residual(x)
            if res <= tol:
                break
    else:
        res = residual(x)
    if fx > f_best + 1e-12 * (1.0 + abs(f_best)):
        x, fx = x_best, f_best
        res = residual(x)
    return x, it, res, fx


def _newton(objective, x0, min_gaps, tol, max_iter):
    """Projected Newton (Bertsekas 1982) in the gap coordinates
    s_i = x_{i+1} - x_i - min_gap_i >= 0, for a convex objective with a
    Hessian (:meth:`_QuantileObjective.hess`).

    Each iteration glues the gaps that the projected-gradient probe pools
    (the ones at or near their bound that the gradient closes), so the
    nodes fall into blocks, and takes the Newton step of the block
    positions to the minimizer of the quadratic model on that face; the
    reduced Hessian stays pentadiagonal and is solved by a banded LDL^T.
    An Armijo search runs along the projection arc, which clips the gaps
    that the step would close past their bound.  The stopping test and the
    budget are FISTA's; when the search fails, the iterate and the rest of
    the budget go to :func:`_fista`.

    Returns (x, iterations, projected-gradient residual, objective at x)."""
    m = objective.m
    n = len(m)
    lo = np.zeros(n - 1) if min_gaps is None else min_gaps
    s_probe = min(objective.tau, 1.0)
    x = np.asarray(x0, dtype=float)
    # a start feasible up to the rounding that QuantileMeasure allows in
    # its order keeps its bits (the arc clips the gaps it moves)
    if (np.diff(x) < lo - 1e-12).any():
        x = isotonic_project(x, m, min_gaps)
    fx, g = objective.value_and_grad(x)
    it = 0
    while True:
        # FISTA's residual; the probe's pools are the gaps that the
        # gradient closes, and those within eps of their bound are glued
        means, counts, offsets = _pav(x - s_probe * (g / m), m, min_gaps)
        probe = (means if counts is None else np.repeat(means, counts)) + offsets
        res = float(np.abs((x - probe) / s_probe).max())
        if res <= tol or it == max_iter:
            return x, it, res, fx
        it += 1
        slack = np.diff(x) - lo
        glued = np.zeros(n - 1, dtype=bool)
        if counts is not None:
            pooled = np.repeat(np.arange(len(counts)), counts)
            eps = _EPS_ACTIVE * (x[-1] - x[0]) / (n - 1)
            glued = (pooled[1:] == pooled[:-1]) & (slack <= eps)
        dx = _newton_direction(objective.hess(x), g, slack, glued)
        x_new, f_new = _armijo_arc(objective, x, fx, g, dx, slack)
        if x_new is None:
            x, more, res, fx = _fista(objective, x, min_gaps, tol, max_iter - it)
            return x, it + more, res, fx
        x, fx = x_new, f_new
        g = objective.grad(x)


def _newton_direction(bands, g, slack, glued):
    """Node displacement to the minimizer of the quadratic model
    g.d + d.H.d/2 over the face where the ``glued`` gaps sit at their
    bounds; None when H is not positive definite on that face."""
    if not glued.any():
        v = _solve_pentadiagonal(*bands, -g)
        return None if v is None else np.asarray(v)
    blk = np.concatenate(([0], np.cumsum(~glued)))
    nb = int(blk[-1]) + 1
    # close the glued gaps, moving the nodes right of each
    close = np.concatenate(([0.0], np.cumsum(np.where(glued, -slack, 0.0))))
    rhs = np.bincount(blk, weights=-(g + _band_matvec(bands, close)),
                      minlength=nb)
    v = _solve_pentadiagonal(*_reduce_bands(bands, blk, nb), rhs)
    return None if v is None else close + np.asarray(v)[blk]


def _band_matvec(bands, v):
    """H v for symmetric H given by its (diagonal, first, second) bands."""
    d0, d1, d2 = bands
    out = d0 * v
    out[:-1] += d1 * v[1:]
    out[1:] += d1 * v[:-1]
    out[:-2] += d2 * v[2:]
    out[2:] += d2 * v[:-2]
    return out


def _reduce_bands(bands, blk, nb):
    """Bands of P^T H P for the contiguous-block indicator P of ``blk``
    (node -> block index); a pentadiagonal H stays pentadiagonal."""
    out = [np.bincount(blk, weights=bands[0], minlength=nb),
           np.zeros(nb), np.zeros(nb)]
    for k in (1, 2):
        row = blk[:-k]
        dist = blk[k:] - row
        for j in range(k + 1):
            sel = dist == j
            add = np.bincount(row[sel], weights=bands[k][sel], minlength=nb)
            out[j] += 2.0 * add if j == 0 else add
    return out[0], out[1][:nb - 1], out[2][:max(nb - 2, 0)]


def _solve_pentadiagonal(a, b, c, r):
    """Solve A v = r for the symmetric pentadiagonal A with diagonal ``a``
    and superdiagonals ``b``, ``c`` by LDL^T, on Python floats (a loop, as
    in :func:`_pav`).  Returns a list, or None on a nonpositive pivot."""
    b = b.tolist() + [0.0, 0.0]
    c = c.tolist() + [0.0, 0.0]
    l1, l2, z = [], [], []
    # L[i, i-1], L[i, i-2], L[i+1, i-1], D[i-1], D[i-2], y[i-1], y[i-2]
    l1m, l2mm, l2m, dm, dmm, ym, ymm = 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0
    for ai, bi, ci, ri in zip(a.tolist(), b, c, r.tolist()):
        e = l1m * dm
        di = ai - l1m * e - l2mm * l2mm * dmm
        if not di > 0.0:
            return None
        l1i = (bi - l2m * e) / di
        l2i = ci / di
        yi = ri - l1m * ym - l2mm * ymm     # L y = r
        l1.append(l1i)
        l2.append(l2i)
        z.append(yi / di)
        l1m, l2mm, l2m, dm, dmm, ym, ymm = l1i, l2m, l2i, di, dm, yi, ym
    v = [0.0] * len(z)
    vp = vpp = 0.0
    for i in range(len(z) - 1, -1, -1):    # L^T v = D^-1 y
        vp, vpp = z[i] - l1[i] * vp - l2[i] * vpp, vp
        v[i] = vp
    return v


def _armijo_arc(objective, x, fx, g, dx, slack):
    """First point x(a), a = 1, 1/2, ..., of the projection arc with
    f(x(a)) <= f(x) + _ARMIJO min(g.(x(a) - x), 0) (up to rounding of f):
    the glued gaps and the clipping can turn the arc away from descent, so
    no step raises f beyond that rounding.  x(a) steps by a dx and then
    clips each gap whose ``slack`` over its bound turns negative, shifting
    the nodes right of it.  (None, None) when none is found."""
    if dx is None:
        return None, None
    dslack = np.diff(dx)
    alpha = 1.0
    for _ in range(_ARMIJO_HALVINGS):
        xt = x + alpha * dx
        over = np.maximum(-(slack + alpha * dslack), 0.0)
        if over.any():
            xt[1:] += np.cumsum(over)
        try:
            ft = objective.value(xt)
        except MeasureError:
            ft = math.nan
        decrease = _ARMIJO * min(float(g @ (xt - x)), 0.0)
        if ft <= fx + decrease + 1e-15 * (1.0 + abs(fx)):
            return xt, ft
        alpha *= 0.5
    return None, None


def _multi_starts(q_prev, prev_prev, nonconvex):
    starts = [q_prev.positions.copy()]
    if not nonconvex:
        return starts
    x = q_prev.positions
    qn = q_prev.q_nodes
    mean = float(np.sum(q_prev.cell_mass * x))
    std = math.sqrt(max(float(np.sum(q_prev.cell_mass * (x - mean) ** 2)), 0.0))
    if std > 0:
        uniform = mean + (qn - 0.5) * math.sqrt(12.0) * std
        starts.append(0.9 * x + 0.1 * uniform)
    if prev_prev is not None:
        starts.append(2.0 * x - prev_prev.positions)
    return starts


def _prox_quantile(energy, q_prev, tau, cfg, prev_prev=None):
    min_gaps = _spacing_min_gaps(energy, q_prev.cell_mass)
    convex = energy.convex_in_quantile()
    solver = _newton if convex and energy.has_quantile_hess() else _fista
    tol = cfg.inner_tol

    def solve(x0, budget, power=None, weight=0.0):
        objective = _QuantileObjective(energy, q_prev, tau, power, weight)
        x, its, res, val = solver(objective, x0, min_gaps, tol, budget)
        return val, x, its, res, objective

    best = None
    for x0 in _multi_starts(q_prev, prev_prev, not convex):
        cand = solve(x0, cfg.inner_max_iter)
        if best is None or cand[0] < best[0] - 1e-15:
            best = cand
    _, x, its, res, objective = best
    q_new = objective.state(x)   # built when the solver evaluated x
    if energy.constraint is not None and energy.constraint[0] < math.inf \
            and not lp_norm(q_new, energy.constraint[0]) <= energy.constraint[1]:
        return _cap_search(solve, q_prev, *energy.constraint, tol, its,
                           cfg.inner_max_iter)
    return q_new, {"inner_iters": its, "residual": res,
                   "residual_flag": res > tol}


def _cap_search(solve, q_prev, p, cap, tol, its, max_iter):
    """The step under ||rho||_p <= cap, once the solve without it (``its``
    iterations) ended above: solves with lam U_p added, U_p = ||rho||_p^p /
    (p-1), lam grown 4x from 1 until a solve ends feasible, then bisected
    until a state reaches cap (1 - tol) or the bracket is tol-relative
    narrow.  Each solve starts from the last feasible state and gets what is
    left of ``max_iter``.  An unconverged solve (value -inf or no budget
    left) or an overflowing lam ends the search flagged, at the last
    feasible state or ``q_prev``."""
    x0 = q_prev.positions
    if not lp_norm(q_prev, p) <= cap:
        # start from the nearest nodes whose densities stay below
        # M = (cap^p / mass)^(1 / (p-1)), so that ||rho||_p^p <= M^(p-1) mass
        c = q_prev.cell_mass
        dens = (cap ** p / float(c.sum())) ** (1.0 / (p - 1.0))
        x0 = isotonic_project(x0, c, np.maximum(c[:-1], c[1:]) / dens)
    lo, hi, lam = 0.0, math.inf, 1.0
    q_ok = q_prev
    while math.isfinite(lam):
        _, x, add, res, objective = solve(x0, max_iter - its, p, lam)
        its += add
        if res > tol:
            break
        q = objective.state(x)
        norm = lp_norm(q, p)
        if norm > cap:
            lo = lam
        else:
            q_ok, x0, hi = q, x, lam
            if norm >= cap * (1.0 - tol) or hi - lo <= tol * hi:
                return q, {"inner_iters": its, "residual": res,
                           "residual_flag": False}
        lam = 4.0 * lam if hi == math.inf else 0.5 * (lo + hi)
    return q_ok, {"inner_iters": its, "residual": res, "residual_flag": True}


# ---------------------------------------------------------------------------
# 2D block-coordinate proximal step
# ---------------------------------------------------------------------------

def _prox_atomic_2d(energy, mu, tau, cfg):
    if len(mu) > ATOM_CAP_2D:
        raise JkoError(f"2D proximal steps support at most {ATOM_CAP_2D} atoms")
    if energy.internal is not None:
        raise JkoError("internal terms are not available for 2D atomic states")
    w = mu.weights
    z = mu.points_2d().copy()
    total_iters = 0
    prev_obj = math.inf
    residual = math.inf
    capped = False
    basis = None
    for outer in range(40):
        nu = make_atomic(z, w)
        # every nu has the same weights, so the last pass's optimal basis
        # is a feasible start for this one
        plan, basis = _exact_plan(mu, nu, basis)
        dist = _plan_distance(plan)
        obj = 0.5 / tau * dist * dist + energy.eval(nu)
        if outer > 0:
            # relative objective change of this outer pass, the stopping test
            residual = abs(prev_obj - obj) / (1.0 + abs(obj))
            if prev_obj - obj <= cfg.inner_tol * (1.0 + abs(obj)):
                break
        prev_obj = obj
        # fixed plan: minimize (1/2tau) sum pi_ij |x_i - z_j|^2 + E(z)
        bary = plan.matrix.T @ mu.points_2d()
        colw = plan.matrix.sum(axis=0)
        L = float(np.max(colw)) / tau + 1.0
        for _ in range(_FIXED_PLAN_ITERS):
            g = (colw[:, None] * z - bary) / tau + _atomic_energy_grad(energy, z, w)
            z_new = z - g / L
            step = float(np.max(np.abs(z_new - z)))
            z = z_new
            total_iters += 1
            if step < 0.1 * cfg.inner_tol:
                break
        else:
            capped = True
    else:
        # z moved after the last LP: no plan couples mu to the result
        nu, plan = make_atomic(z, w), None
    info = {"inner_iters": total_iters, "residual": residual,
            "residual_flag": residual > cfg.inner_tol or capped}
    if plan is not None:
        info["plan"] = plan   # optimal mu -> nu, the returned state
    return nu, info


def _atomic_energy_grad(energy, pts, w):
    g = np.zeros_like(pts)
    if energy.potential is not None:
        grad = np.asarray(energy.potential.grad(pts), dtype=float).reshape(pts.shape)
        g += w[:, None] * grad
    if energy.kernel is not None:
        g += w[:, None] * _finite_field(energy.kernel, pts, pts, w)
    return g


# ---------------------------------------------------------------------------
# public proximal map and flow drivers
# ---------------------------------------------------------------------------

def proximal_step(energy: Energy, mu, tau: float, cfg: JkoConfig | None = None,
                  prev_state=None, return_info: bool = False):
    """One proximal step argmin_nu (1/2 tau) W2^2(mu, nu) + E(nu).

    ``mu`` is a :class:`QuantileMeasure` or an :class:`AtomicMeasure`, 1D
    atoms stepped exactly as quantile cells; the result has the input's type.
    Grids raise (see :func:`measures.to_quantile`); ``tau = 0`` returns ``mu``.
    """
    cfg = cfg or JkoConfig(tau=tau)
    if tau < 0:
        raise JkoError("tau must be nonnegative")
    if tau == 0:
        return (mu, {"inner_iters": 0, "residual": 0.0, "residual_flag": False}) \
            if return_info else mu
    if isinstance(mu, QuantileMeasure):
        out, info = _prox_quantile(energy, mu, tau, cfg, prev_prev=prev_state)
    elif isinstance(mu, AtomicMeasure) and mu.dim == 2:
        out, info = _prox_atomic_2d(energy, mu, tau, cfg)
    elif isinstance(mu, AtomicMeasure):
        keep = mu.weights > 0   # one quantile cell per atom of positive mass
        n = int(keep.sum())
        q = QuantileMeasure((np.arange(n) + 0.5) / n, mu.points[keep],
                            mu.weights[keep])
        q_out, info = _prox_quantile(energy, q, tau, cfg)
        out = q_out.to_atomic()
    else:
        raise JkoError(f"unsupported measure type {type(mu)!r}; convert 1D "
                       "grids with measures.to_quantile")
    return (out, info) if return_info else out


def flow(energy: Energy, mu0, cfg: JkoConfig) -> FlowTrajectory:
    """Discrete gradient flow sequence mu^0 -> mu^1 -> ... -> mu^steps."""
    return flow_time_dependent(lambda k, tau: energy, mu0, cfg)


def flow_time_dependent(schedule, mu0, cfg: JkoConfig) -> FlowTrajectory:
    """JKO against a step-indexed energy schedule (k, tau) -> Energy.

    Step k (1-based) minimizes (1/2 tau) W2^2(mu^{k-1}, .) + E^k_tau(.)."""
    states = [mu0]
    energies = [schedule(0, cfg.tau).eval(mu0)]
    dists = []
    diagnostics = []
    prev_prev = None
    for k in range(1, cfg.steps + 1):
        ek = schedule(k, cfg.tau)
        new, info = proximal_step(ek, states[-1], cfg.tau, cfg,
                                  prev_state=prev_prev, return_info=True)
        plan = info.pop("plan", None)
        dists.append(w2(states[-1], new) if plan is None else _plan_distance(plan))
        prev_prev = states[-1]
        states.append(new)
        energies.append(ek.eval(new))
        diagnostics.append(info)
    return FlowTrajectory(states, np.asarray(energies), np.asarray(dists),
                          diagnostics, cfg)


def quantile_w2(qa: QuantileMeasure, qb: QuantileMeasure) -> float:
    """Exact 1D W2 between states sharing the same quantile grid."""
    if not same_quantile_grid(qa, qb):
        raise JkoError("states do not share a quantile grid")
    return w2(qa, qb)


def rescaled_intermediate(mu, mu_tau, plan, h: float, tau: float):
    """Partial displacement nu = ((tau-h)/tau * t_mu^{mu_tau} + h/tau * id) # mu.

    This is the point at (tau - h) / tau on the geodesic from ``mu`` to
    ``mu_tau`` (:func:`transport.geodesic`): along ``plan`` when given,
    node to node for states on one quantile grid, otherwise along the
    optimal plan computed by :func:`transport.w2`.
    """
    if not 0.0 <= h <= tau:
        raise JkoError("need 0 <= h <= tau")
    if tau == 0:
        return mu
    return geodesic(mu, mu_tau, (tau - h) / tau, plan)
