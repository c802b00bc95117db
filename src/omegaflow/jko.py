"""Proximal map J_tau and discrete gradient flow (JKO) sequences.

1D flows use the quantile (Lagrangian) parametrization: the decision
variables are the n quantile positions, the W2 term to the previous state
is the exact diagonal quadratic sum(m_i (x_i - y_i)^2), and the hard cap
||mu||_inf <= M on the interval densities of :mod:`measures` becomes the
linear spacing constraints x_{i+1} - x_i >= interval_mass_i / M handled
inside an isotonic projection.
On that feasible set (the sorted cone) the 1D Newtonian term is linear in
x, and its gradient counts tied atoms by their order.

Two inner solvers share one stopping test, the projected-gradient
residual (:func:`_residual`) below ``inner_tol`` or ``inner_max_iter``
iterations (the result then comes back with a residual flag), and read a
trial point whose value or gradient is not finite (an overflowing power
term) as +inf.  Each step makes one solve, from the previous state's
positions:

* projected Newton with a tridiagonal solve (:func:`_newton`) when
  :meth:`Energy.has_quantile_hess`: potentials with a ``hess`` (every
  shipped one), the 1D Newtonian kernel, entropy and power internal terms,
  caps.  Its iteration count does not grow with the number of nodes; where
  its Hessian is not positive definite or its search fails, it hands the
  iterate to FISTA;
* accelerated projected gradient (monotone FISTA with backtracking,
  :func:`_fista`) otherwise: potentials without a ``hess``, log, Riesz
  and smooth kernels.  It stops early, flagged, at a value of -inf.

Near a minimizer on a dense state one float spacing of a gap moves the
residual by more than 1e-12: both solvers stop where their iteration no
longer moves, and a residual left above the tolerance is cut by rounding
the last Newton step to the best float point (:func:`_rounded_newton`).

A finite-p cap ||rho||_p <= C is a multiplier search on the same solvers
(:func:`_cap_search`): a step that ends above the cap is solved again with
lam U_p added (U_p = ||rho||_p^p / (p - 1), the power-p internal term),
lam >= 0 grown and bisected until the state ends at the cap, on what the
first solve left of ``inner_max_iter``; a search that cannot finish sets
the residual flag.

2D proximal steps are limited to atomic measures with at most 64 atoms and
are Lagrangian too (Westdickenberg & Wilkening 2010; Carrillo, Craig &
Patacchini 2019): each atom keeps its weight, and the positions minimize
Phi(z) = sum_i w_i |x_i - z_i|^2 / (2 tau) + E(z), by L-BFGS in the metric
diag(w_i / tau) with an Armijo search (:func:`_lbfgs`), each trial point
in one pair pass (:meth:`Energy.atoms_value_and_grad`).  The diagonal plan
x_i -> z_i is then certified optimal by cyclical monotonicity (Rockafellar
1966; :func:`_cycle_slack`), so the step solves no LP; it hands the plan
out when certified, and sets the flag when the certificate fails or the
stationarity residual stays above ``inner_tol``.

The 1D solvers know one shape, the :class:`QuantileStack`: states on one
grid (:func:`measures.same_grid`) step together as its rows (:func:`flows`;
a semigroup-contraction check evolves its two states so), one state as a
stack of one, each row with its own stopping test, iteration count and
budget.  Every row is bitwise the step of its own state: the per-row sums
run along the last axis of C-contiguous arrays, which numpy sums row by
row as it sums a 1D array, and the inner products stay one BLAS dot per
row.  A stack keeps the energy terms and gradient computed at it
(:meth:`QuantileStack.kept`); a step returns the stack its solver
evaluated last, which a flow's energy column and next step then read.
Everything here is deterministic: fixed reduction orders, one start per
solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import Energy, EnergyError
from .measures import (
    AtomicMeasure,
    QuantileMeasure,
    QuantileStack,
    gaps,
    gaps_adjoint,
    interval_masses,
    lp_norm,
    midpoint_grid,
    pair_differences,
    same_grid,
)
# w2_exact is not called here; perfbench's tracer tests patch jko.w2_exact
from .transport import (
    _node_distance,
    _plan_distance,
    diagonal_plan,
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
    "flows",
    "flow_time_dependent",
]

ATOM_CAP_2D = 64
# projected Newton: largest slack of a glued gap, as a fraction of the mean
# gap; sufficient-decrease fraction and step halvings of its Armijo search
# (the 2D step's search uses the same two)
_EPS_ACTIVE = 1e-3
_ARMIJO = 1e-4
_ARMIJO_HALVINGS = 30
_LBFGS_MEMORY = 10   # (s, y) pairs kept by the 2D step's L-BFGS
_VALUE_ROUNDING = 1e-15   # relative rounding of the 2D step's objective value
# the 2D certificate accepts a lightest cycle down to -_CERTIFICATE_EPS max C:
# rounding of the Floyd-Warshall sums on tied atoms, about n^2 ulp of max C
_CERTIFICATE_EPS = 1e-12


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
        for name in ("steps", "inner_max_iter"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise JkoError(f"{name} must be an integer, got {count!r}")
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
    v = np.asarray(values, dtype=float)
    n = len(v)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if len(w) != n or (w <= 0).any():
        raise JkoError("weights must be positive and match values")
    if min_gaps is not None:
        g = np.asarray(min_gaps, dtype=float)
        if len(g) != n - 1 or (g < 0).any():
            raise JkoError("min_gaps must be nonnegative of length n-1")
    return _pav(v[None], w[None], _offsets(min_gaps, v[None]))[0][0]


def _offsets(min_gaps, x):
    """The shifts sum_{j<i} min_gaps_j of the substitution z = x - shift,
    in the shape of the stack ``x``."""
    offsets = np.zeros(np.shape(x))
    if min_gaps is not None:
        offsets[..., 1:] = np.cumsum(min_gaps)
    return offsets


def _pav(v, w, offsets):
    """:func:`isotonic_project` of each row of the stack ``v`` ((K, n)), for
    checked positive weights ``w`` and shifts ``offsets`` (:func:`_offsets`)
    of the same shape (None: no shift, which keeps a -0 that a zero shift
    makes +0), and each row's pools: a list of the pool sizes, or None
    where no pair pools."""
    wz = w * v if offsets is None else w * (v - offsets)
    # the loop's merge predicate on two single-atom blocks, same products
    pools = wz[..., :-1] * w[..., 1:] > wz[..., 1:] * w[..., :-1]
    z = np.divide(wz, w)
    counts = [None] * len(v) if not pools.any() else [
        _pool(z[k], w[k], wz[k], pools[k]) if any_k else None
        for k, any_k in enumerate(pools.any(axis=1).tolist())]
    return (z if offsets is None else z + offsets), counts


def _pool(z, w, wz, pools):
    """PAV on one row whose ``pools`` has a pair that pools: writes the
    pool means into ``z`` and returns the pool sizes.  A block stack of
    (weight sum, weighted value sum, count) is seeded with the singletons
    before atom k, which pools with atom k-1; the loop runs on Python
    floats, which index far faster than numpy scalars."""
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
    z[:] = np.repeat(np.divide(bs, bw), bc)
    return bc


# ---------------------------------------------------------------------------
# quantile inner solver
# ---------------------------------------------------------------------------

def _spacing_min_gaps(energy: Energy, cell_mass: np.ndarray):
    """Linear spacing lower bounds encoding a hard density cap, or None."""
    if energy.constraint is None or energy.constraint[0] < math.inf:
        return None
    return interval_masses(cell_mass) / energy.constraint[1]


class _QuantileObjective:
    """(1/2 tau) sum m (x - y)^2 + discrete energy (+ ``weight`` U_p, U_p
    the power-``power`` internal term: a finite-p cap's multiplier term)
    on the rows of the :class:`QuantileStack` ``q_prev``: points x are
    (K, n), and each row's value is its own state's.  A row out of order
    reads value NaN (its :attr:`QuantileStack.faults` entry)."""

    def __init__(self, energy, q_prev, tau, power=None, weight=0.0):
        self.energy = energy
        self.grid = q_prev.grid
        self.y = q_prev.positions
        self.m = q_prev.cell_mass
        # the masses in the shape of y: numpy multiplies arrays of one
        # shape about twice as fast as it broadcasts (n,) against (K, n)
        self.mass = self.m[None].repeat(len(self.y), 0)
        self.tau = tau
        self.power = power
        self.cap_term = None if power is None \
            else Energy(internal=("power", power))
        self.weight = weight
        self._x, self._qs = self.y, q_prev   # the state at y is q_prev

    def rows(self, idx):
        """The objective of the rows ``idx`` of the stack."""
        return _QuantileObjective(self.energy, QuantileStack(self.grid, self.y[idx]),
                                  self.tau, self.power, self.weight)

    def state(self, x):
        """The :class:`QuantileStack` at positions ``x``.  The last one is
        kept, keyed on the array object, for a residual probe right after
        ``value(x)``: callers never change an evaluated array in place."""
        if x is not self._x:
            self._x, self._qs = x, QuantileStack(self.grid, x)
        return self._qs

    def value(self, x):
        return self._value(self.state(x), x)

    def grad(self, x):
        return self._grad(self.state(x), x)

    def value_and_grad(self, x):
        """(value(x), grad(x)) from one state; the value reads +inf in the
        rows where the gradient is not finite."""
        qs = self.state(x)
        g = self._grad(qs, x)
        if np.isfinite(g).all():
            return self._value(qs, x), g
        return np.where(np.isfinite(g).all(axis=1), self._value(qs, x), math.inf), g

    def _value(self, qs, x):
        # at y the W2 term and its gradient are +0 (a stack is finite)
        move = 0.0 if x is self.y \
            else 0.5 / self.tau * (self.mass * (x - self.y) ** 2).sum(axis=-1)
        val = self.energy.terms_value(qs, move)
        if self.cap_term is not None:   # +inf stays +inf: weight > 0
            val = val + self.weight * self.cap_term.internal_value(qs)
        if qs.faults is not None:
            val = np.where(qs.faults, math.nan, val)
        return val

    def hess(self, x):
        """The Hessian of the objective at ``x`` as the pair (e, w) of
        :meth:`Energy.quantile_hess`."""
        qs = self.state(x)
        diag, curv = self.energy.quantile_hess(qs)
        diag = diag + self.mass / self.tau
        if self.cap_term is not None:
            curv = curv + self.weight * self.cap_term.quantile_hess(qs)[1]
        return diag, curv

    def _grad(self, qs, x):
        move = 0.0 if x is self.y else self.mass * (x - self.y) / self.tau
        g = move + self.energy.quantile_grad(qs)
        if self.cap_term is not None:
            g += self.weight * self.cap_term.quantile_grad(qs)
        return g


def _residual(objective, x, g, offsets):
    """The projected-gradient residual of each row of the stack ``x``
    ((K, n)) at gradient ``g``, the stopping test of both 1D solvers:
    max_i |x - P(x - s g / m)|_i / s, P the projection of :func:`_pav`
    (shifts ``offsets`` or None), m the cell masses, s = min(tau, 1); inf
    in a row without a finite gradient, whose probe's NaN reads inf.
    Returns (the residuals as a list, the pools of each row's projection,
    as :func:`_pav`'s)."""
    s = min(objective.tau, 1.0)
    probe, counts = _pav(x - s * (g / objective.mass), objective.mass, offsets)
    # rounding is monotone, so max_i fl(|d_i| / s) = fl(max_i |d_i| / s)
    r = np.abs(x - probe).max(axis=1).tolist()
    return [math.inf if math.isnan(r_k) else r_k / s for r_k in r], counts


def _fista(objective, x0, min_gaps, tol, max_iter):
    """Accelerated projected gradient with Barzilai-Borwein step sizing,
    backtracking safeguard and gradient-based momentum restarts, on each
    row of the stack ``x0`` ((K, n)) as if alone: its own step 1/L,
    momentum, restarts, stops, best point and budget (``max_iter``, an
    integer or a list of one per row).  Evaluates each point once.  A row
    stops with an infinite residual at an iterate of value -inf, where
    neither the extrapolated point nor the iterate has a finite gradient,
    and where a projected point is out of order (its ``faults`` entry); it
    stops at a fixed point of the float iteration, where a residual above
    ``tol`` is rounding: with a Hessian, :func:`_rounded_newton`'s point
    replaces it when smaller in residual and no larger in value.  A stopped
    row stays pinned at a point it evaluated until the iteration ends, then
    leaves the stack.  Returns (x, iterations, residuals, objective at x)."""
    K = len(x0)
    budget = list(max_iter) if isinstance(max_iter, list) else [max_iter] * K
    offsets = _offsets(min_gaps, x0)
    s_probe = min(objective.tau, 1.0)

    proj = lambda obj, v: _pav(v, obj.mass, offsets[:len(v)])[0]

    def residual(obj, x, idx):   # of the rows idx of x
        if len(idx) < len(x):
            obj, x = obj.rows(idx), x[idx]
        return _residual(obj, x, obj.grad(x), offsets[:len(x)])[0]

    def end(i, at, r, its):
        """Row i stops at row i of the evaluated ``at``, unless its best
        point, then its rounded Newton point, takes that place (not at -inf)."""
        point, f, fb = at[i], fx[i], f_best[i]
        if f > fb + 1e-12 * (1.0 + abs(fb)):
            at, point, f = None, x_best[i], fb
            (r,) = residual(obj.rows([i]), point[None], [0])
        if r > tol and f > -math.inf and objective.energy.has_quantile_hess():
            one, y = obj.rows([i]), point[None]
            x_r = _rounded_newton([b[0] for b in one.hess(y)], one.m, point,
                                  one.grad(y)[0], min_gaps)
            if x_r is not None:
                y = x_r[None]
                (r_r,), (f_r,) = residual(one, y, [0]), one.value(y).tolist()
                if r_r < r and f_r <= f + 1e-15 * (1.0 + abs(f)):
                    at, point, r, f = None, x_r, r_r, f_r
        out[live[i]] = point, its, r, f, at
        done.append(i)

    obj, live, out, done = objective, list(range(K)), [None] * K, []
    x = proj(obj, np.asarray(x0, dtype=float))
    z, x_best = x.copy(), x.copy()
    fz, g = obj.value_and_grad(z)
    fz = fz.tolist()
    fx, f_best = list(fz), list(fz)
    t_m, coef = [1.0] * K, [0.0] * K
    L = [max(float(objective.m.max()) / objective.tau, 1e-12)] * K
    step = z_prev = g_prev = None
    spent = [i for i in range(K) if budget[i] == 0]
    for i, r in zip(spent, residual(obj, x, spent) if spent else ()):
        end(i, x, r, 0)
    it = 0
    while len(done) < len(live):
        if done:   # the stopped rows leave the stack
            keep = [i for i in range(len(live)) if i not in done]
            live, L, t_m, coef, fx, fz, f_best, budget, x, z, g, step, x_best, \
                z_prev, g_prev = [r if r is None else r[keep] if isinstance(r, np.ndarray)
                                  else [r[i] for i in keep] for r in (
                                      live, L, t_m, coef, fx, fz, f_best, budget, x, z,
                                      g, step, x_best, z_prev, g_prev)]
            del done[:]
            obj = obj.rows(keep)
        it += 1
        if it > 1:
            z = x + np.array(coef)[:, None] * step
            fz, g = obj.value_and_grad(z)
            fz, bad = fz.tolist(), obj.state(z).faults
            restart = [f == math.inf or bad is not None and bad[i]
                       for i, f in enumerate(fz)]
            if any(restart):   # restart the momentum at x
                t_m = [1.0 if r else t for r, t in zip(restart, t_m)]
                z = np.where(np.array(restart)[:, None], x, z)
                fz, g = obj.value_and_grad(z)
                fz = fz.tolist()
        # value_and_grad reads +inf where the gradient is not finite
        halt = [i for i, f in enumerate(fz)
                if f == math.inf and not np.isfinite(g[i]).all()]
        for i in halt:   # no direction to step along
            end(i, x, math.inf, it)
            g[i] = 0.0
        if g_prev is not None:
            # BB curvature estimate; the backtracking loop repairs
            # underestimates, nonconvex directions keep the previous L
            dz, dg = z - z_prev, g - g_prev
            for i, d in enumerate(dz):
                denom = float(d @ d)
                l_bb = float(dg[i] @ d) / denom if denom > 0 else 0.0
                if l_bb > 0:
                    L[i] = min(max(l_bb, 1e-12), 1e18)
        z_prev, g_prev = z, g
        pending = [i for i in range(len(live)) if i not in done]
        while pending:   # a row that accepts keeps its L, and so its point
            x_new = proj(obj, z - g / np.array(L)[:, None])
            if done:
                x_new[done] = x[done]
            dx = x_new - z
            f_new = obj.value(x_new).tolist()
            bad = obj.state(x_new).faults
            waiting = []
            for i in pending:
                d = dx[i]
                quad = fz[i] + float(g[i] @ d) + 0.5 * L[i] * float(d @ d)
                if bad is not None and bad[i]:   # order lost to rounding
                    end(i, x, math.inf, it)
                elif not (f_new[i] <= quad + 1e-15 * (1.0 + abs(quad)) or L[i] >= 1e17):
                    L[i] *= 2.0
                    waiting.append(i)
            pending = waiting
        step, ahead = x_new - x, z - x_new
        moved = np.abs(step).max(axis=1).tolist()
        fixed, probed = [], []
        for i in range(len(live)):
            if i in done:
                continue
            if moved[i] == 0.0 and not (z[i] != x[i]).any():
                fixed.append(i)   # a fixed point: no later iteration moves
                continue
            if float(ahead[i] @ step[i]) > 0:   # momentum restart
                t_m[i] = 1.0
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_m[i] * t_m[i]))
            coef[i], t_m[i], fx[i] = (t_m[i] - 1.0) / t_new, t_new, f_new[i]
            if f_new[i] == -math.inf:   # unbounded below: no minimizer to approach
                end(i, x_new, math.inf, it)
                continue
            if f_new[i] < f_best[i]:
                f_best[i], x_best[i] = f_new[i], x_new[i]
            if it <= 3 or it % 5 == 0 or moved[i] <= 0.1 * tol * s_probe \
                    or it == budget[i]:
                probed.append(i)
        for i, r in zip(fixed, residual(obj, x, fixed) if fixed else ()):
            end(i, x, r, it)
        for i, r in zip(probed, residual(obj, x_new, probed) if probed else ()):
            if r <= tol or it == budget[i]:
                end(i, x_new, r, it)
        x = x_new
    # rows that all end on one evaluated stack return it: the objective
    # keeps its state for the caller
    x, its, res, f, at = zip(*out)
    same = at[0] is not None and len(at[0]) == K and all(a is at[0] for a in at)
    return at[0] if same else np.stack(x), list(its), list(res), np.array(f)


def _newton(objective, x0, min_gaps, tol, max_iter):
    """Projected Newton (Bertsekas 1982) in the gap coordinates
    s_i = x_{i+1} - x_i - min_gap_i >= 0, for an objective with a Hessian
    (:meth:`_QuantileObjective.hess`), on every row of the stack ``x0``
    ((K, n)) as if it were alone.  Each iteration glues the gaps that the
    residual probe pools and that lie near their bound, so the nodes fall
    into blocks, and takes the Newton step of the blocks to the minimizer
    of the quadratic model on that face (a tridiagonal LDL^T solve), with
    an Armijo search along the projection arc, which clips the gaps the
    step would close past their bound.  The stopping test and the budget
    are FISTA's.  A row whose search fails, has no direction (H not
    positive definite on the face) or ends at a point without a finite
    gradient or at the iterate itself (a step below the float spacing)
    goes to :func:`_fista` with the rest of its budget; the rows handed
    over step in one call on their sub-stack.  A stopped row leaves the
    active set, but the whole stack is evaluated (cheap at small n)."""
    n = len(objective.m)
    x = np.asarray(x0, dtype=float)
    offsets = lo = None
    if min_gaps is not None:   # without bounds the rows are in order already
        offsets, lo = _offsets(min_gaps, x), min_gaps[None].repeat(len(x), 0)
        # a start feasible up to the rounding that QuantileMeasure allows in
        # its order keeps its bits (the arc clips the gaps it moves)
        off = (gaps(x) < lo - 1e-12).any(axis=1)
        if off.any():
            x = np.where(off[:, None], _pav(x, objective.mass, offsets)[0], x)
    fx, g = objective.value_and_grad(x)
    active = list(range(len(x)))
    its, res, handed = [0] * len(x), [math.inf] * len(x), {}
    it = 0
    while True:
        # the probe's pools are the gaps that the gradient closes, and
        # those within eps of their bound are glued
        r, counts = _residual(objective, x, g, offsets)
        stop = [k for k in active if r[k] <= tol or it == max_iter]
        for k in stop:
            its[k], res[k] = it, r[k]
        active = [k for k in active if k not in stop]
        if not active:
            break
        it += 1
        slack = gaps(x) if lo is None else gaps(x) - lo
        diag, curv = objective.hess(x)
        # the bands and right-hand sides of the rows with no glued gap
        e, w, rhs = diag.tolist(), curv.tolist(), (-g).tolist()
        dx, todo = [[0.0] * n] * len(x), []
        for k in active:
            glued = None
            if counts[k] is not None:
                pooled = np.repeat(np.arange(len(counts[k])), counts[k])
                eps = _EPS_ACTIVE * (x[k, -1] - x[k, 0]) / (n - 1)
                glued = (pooled[1:] == pooled[:-1]) & (slack[k] <= eps)
            d = _solve_tridiagonal(e[k], w[k], rhs[k]) if glued is None \
                or not glued.any() else _newton_direction(
                    (diag[k], curv[k]), g[k], slack[k], glued)
            if d is not None:
                dx[k] = d
                todo.append(k)
        dx = np.array(dx)
        x_new, f_new, found = _armijo_arc(objective, x, fx, g, dx, slack, todo)
        g_new = objective.grad(x_new)
        going = (x_new != x).any(axis=1)
        if not np.isfinite(g_new).all():
            going &= np.isfinite(g_new).all(axis=1)
        for k in active:
            if k not in found or not going[k]:
                handed[k] = (x[k], it)
        active = [k for k in active if k not in handed]
        if not active:
            break
        x, fx, g = x_new, f_new, g_new
    if handed:
        rows = list(handed)
        x_f, its_f, res_f, f_f = _fista(
            objective.rows(rows), np.stack([handed[k][0] for k in rows]),
            min_gaps, tol, [max_iter - handed[k][1] for k in rows])
        x, fx = np.array(x), np.array(fx, dtype=float)
        x[rows], fx[rows] = x_f, f_f
        for k, i, r in zip(rows, its_f, res_f):
            its[k], res[k] = handed[k][1] + i, r
    return x, its, res, fx


def _newton_direction(bands, g, slack, glued):
    """Node displacement to the minimizer of the quadratic model
    g.d + d.H.d/2 over the face where the ``glued`` gaps (some) sit at
    their bounds; None when H is not positive definite on that face."""
    if (bands[0] == -math.inf).any():   # V'' = -inf (log_pinch at 0)
        return None
    blk = np.concatenate(([0], np.cumsum(~glued)))
    nb = int(blk[-1]) + 1
    # close the glued gaps, moving the nodes right of each
    close = np.concatenate(([0.0], np.cumsum(np.where(glued, -slack, 0.0))))
    rhs = np.bincount(blk, weights=-(g + _band_matvec(bands, close)),
                      minlength=nb)
    e, w = _reduce_bands(bands, blk, nb)
    v = _solve_tridiagonal(e.tolist(), w.tolist(), rhs.tolist())
    return None if v is None else close + np.asarray(v)[blk]


def _band_matvec(bands, v):
    """H v for H = diag(e) + D^T diag(w) D given as (e, w)."""
    e, w = bands
    return e * v + gaps_adjoint(w * gaps(v))


def _reduce_bands(bands, blk, nb):
    """P^T H P for the contiguous-block indicator P of ``blk`` (node ->
    block index), H and the result as (e, w): the blocks sum their e, and
    only the intervals between two blocks keep their w (D P is 0 on the
    intervals inside a block)."""
    e, w = bands
    return np.bincount(blk, weights=e, minlength=nb), w[blk[1:] != blk[:-1]]


def _solve_tridiagonal(e, w, r):
    """Solve (diag(e) + D^T diag(w) D) v = r by LDL^T on lists of Python
    floats (a loop, as in :func:`_pav`).  Pivot i is s_i + w_i with
    s_i = e_i + w_{i-1} s_{i-1} / pivot_{i-1}: for e, w >= 0 every term is
    nonnegative, so no pivot cancels however large w is against e.
    Returns a list, or None on a nonpositive pivot."""
    l, z = [], []
    lm, sm, ym = 0.0, 0.0, 0.0   # w_{i-1} / pivot_{i-1}, s_{i-1}, y_{i-1}
    for ei, wi, ri in zip(e, [*w, 0.0], r):
        si = ei + lm * sm
        di = si + wi
        if not di > 0.0:
            return None
        yi = ri + lm * ym        # L y = r, L[i, i-1] = -w_{i-1} / pivot
        lm, sm, ym = wi / di, si, yi
        l.append(lm)
        z.append(yi / di)
    v = [0.0] * len(z)
    vp = 0.0
    for i in range(len(z) - 1, -1, -1):    # L^T v = D^-1 y
        vp = z[i] + l[i] * vp
        v[i] = vp
    return v


def _rounded_newton(bands, m, x, g, min_gaps):
    """The Newton step from one row ``x`` (gradient ``g``, Hessian
    ``bands`` as (e, w), cell masses ``m``) rounded to float64 so as to
    minimize the residual: of the points whose node i is the float nearest
    to x_i + v_i (v the Newton displacement) or one of its two neighbours,
    the one of smallest linearized residual max_i |g + H d|_i / m_i
    (d = point - x), by a min-max Viterbi pass over the tridiagonal H.  On
    dense states one spacing of a gap moves the residual past a 1e-12
    tolerance, which rounding each node to its nearest float can miss.
    None when H is not positive definite or the point leaves the bounds."""
    e, w = bands
    v = _solve_tridiagonal(e.tolist(), w.tolist(), (-g).tolist())
    if v is None:
        return None
    n = len(x)
    p = x + np.asarray(v)
    d = (p[:, None] + np.spacing(np.abs(p))[:, None] * (-1.0, 0.0, 1.0)) - x[:, None]
    # virtual fixed nodes -1 and n, joined by zero curvature
    dp = np.vstack((np.zeros(3), d, np.zeros(3)))
    wp = np.concatenate(([0.0], w, [0.0]))
    best = None
    backs = []
    for i in range(n):
        # residual i over (k_{i-1}, k_i, k_{i+1})
        mid = dp[i + 1][None, :, None]
        r = np.abs(g[i] + e[i] * mid + wp[i] * (mid - dp[i][:, None, None])
                   + wp[i + 1] * (mid - dp[i + 2][None, None, :])) / m[i]
        if best is not None:
            r = np.maximum(best[:, :, None], r)
        backs.append(r.argmin(axis=0))
        best = r.min(axis=0)              # over (k_i, k_{i+1})
    b, c = np.unravel_index(best.argmin(), best.shape)
    k = np.empty(n, dtype=int)
    for i in range(n - 1, -1, -1):
        k[i] = b
        b, c = backs[i][b, c], b
    x_r = x + d[np.arange(n), k]
    lo = 0.0 if min_gaps is None else min_gaps
    return x_r if (gaps(x_r) >= lo).all() else None


def _armijo_arc(objective, x, fx, g, dx, slack, todo):
    """For each row k in ``todo`` of the stack ``x`` ((K, n)), the first
    point x_k(a), a = 1, 1/2, ..., of its projection arc with
    f(x_k(a)) <= f(x_k) + _ARMIJO min(g_k.(x_k(a) - x_k), 0) (up to
    rounding of f; the glued gaps and the clipping can turn the arc away
    from descent).  x(a) steps by a dx and then clips each gap whose
    ``slack`` over its bound turns negative, shifting the nodes right of it.
    Returns (points, values, the rows that found a point); every other row
    keeps x and fx.  When every searching row succeeds on one halving, the
    points are the array last evaluated, whose state the objective keeps."""
    dslack = dx[:, 1:] - dx[:, :-1]
    # a gap above its bound at a = 0 and a = 1 stays above it at every
    # halving, rounding included (a dslack is exact): then nothing clips
    clips = not (slack + np.minimum(dslack, 0.0) >= 0.0).all()
    pending, found = list(todo), []
    x_new, f_new = x, fx
    f0 = fx.tolist()
    alpha = 1.0
    for _ in range(_ARMIJO_HALVINGS):
        if not pending:
            break
        xt = x + alpha * dx
        if clips:
            over = np.maximum(-(slack + alpha * dslack), 0.0)
            if over.any():
                clip = over.any(axis=1)
                xt[clip, 1:] += np.cumsum(over[clip], axis=1)
        if len(pending) < len(x):   # the other rows stay where they are
            rest = [k for k in range(len(x)) if k not in pending]
            xt[rest] = x_new[rest]
        ft = objective.value(xt)
        step = xt - x
        f1 = ft.tolist()
        # one BLAS dot per row
        ok = [k for k in pending if f1[k] <= f0[k] + _ARMIJO * min(
            float(g[k] @ step[k]), 0.0) + 1e-15 * (1.0 + abs(f0[k]))]
        if ok:
            found += ok
            if len(ok) == len(pending):
                x_new = xt
            else:
                x_new = np.array(x_new)
                x_new[ok] = xt[ok]
            if len(ok) == len(x):
                f_new = ft
            else:
                f_new = np.array(f_new)
                f_new[ok] = ft[ok]
            pending = [k for k in pending if k not in ok]
        alpha *= 0.5
    return x_new, f_new, found


def _prox_quantile(energy, q_prev, tau, cfg):
    """The step from each row of the :class:`QuantileStack` ``q_prev``: the
    stack of the results and a list of infos, one per row.  The rows are
    solved together, and a row that ends above a finite-p cap then gets its
    own cap search."""
    min_gaps = _spacing_min_gaps(energy, q_prev.cell_mass)
    solver = _newton if energy.has_quantile_hess() else _fista
    tol = cfg.inner_tol

    def solve(q0, x0, budget, power=None, weight=0.0):
        objective = _QuantileObjective(energy, q0, tau, power, weight)
        x, its, res, _ = solver(objective, x0, min_gaps, tol, budget)
        return objective.state(x), its, res   # built when the solver evaluated x

    out, its, res = solve(q_prev, q_prev.positions, cfg.inner_max_iter)
    infos = [{"inner_iters": i, "residual": r, "residual_flag": r > tol}
             for i, r in zip(its, res)]
    if energy.constraint is None or energy.constraint[0] == math.inf:
        return out, infos
    rows = [out.row(k) for k in range(len(out))]
    above = [k for k, q in enumerate(rows) if not lp_norm(q, energy.constraint[0])
             <= energy.constraint[1]]
    for k in above:   # without a search the solved stack, and its kept terms, stay
        rows[k], infos[k] = _cap_search(solve, QuantileStack.of([q_prev.row(k)]),
                                        *energy.constraint, tol, its[k], cfg.inner_max_iter)
    return (QuantileStack.of(rows) if above else out), infos


def _cap_search(solve, q_prev, p, cap, tol, its, max_iter):
    """The step from the stack of one ``q_prev`` under ||rho||_p <= cap,
    once the solve without it (``its`` iterations) ended above: solves with
    lam U_p added, U_p = ||rho||_p^p / (p-1), lam grown 4x from 1 until a
    solve ends feasible, then bisected until a state reaches cap (1 - tol)
    or the bracket is tol-relative narrow, each solve from the last
    feasible state with what is left of ``max_iter``.  An unconverged solve
    or an overflowing lam ends the search flagged, at the last feasible
    state or ``q_prev``'s."""
    q_ok = q_prev.row(0)
    x0 = q_prev.positions
    if not lp_norm(q_ok, p) <= cap:
        # start from the nearest nodes whose interval densities stay below
        # M = cap^(p / (p-1)): the intervals hold at most mass 1, so
        # ||rho||_p^p <= M^(p-1)
        c = q_prev.cell_mass
        x0 = isotonic_project(x0[0], c, interval_masses(c) / cap ** (p / (p - 1.0)))[None]
    lo, hi, lam = 0.0, math.inf, 1.0
    while math.isfinite(lam):
        q, (add,), (res,) = solve(q_prev, x0, max_iter - its, p, lam)
        its += add
        if res > tol:
            break
        q = q.row(0)
        norm = lp_norm(q, p)
        if norm > cap:
            lo = lam
        else:
            q_ok, x0, hi = q, q.positions[None], lam
            if norm >= cap * (1.0 - tol) or hi - lo <= tol * hi:
                return q, {"inner_iters": its, "residual": res,
                           "residual_flag": False}
        lam = 4.0 * lam if hi == math.inf else 0.5 * (lo + hi)
    return q_ok, {"inner_iters": its, "residual": res, "residual_flag": True}


# ---------------------------------------------------------------------------
# 2D Lagrangian proximal step with a cycle certificate
# ---------------------------------------------------------------------------

def _prox_atomic_2d(energy, mu, tau, cfg):
    """One Lagrangian solve over the atoms of positive weight (those of
    zero weight stay put), then the certificate that the diagonal plan
    couples ``mu`` to the result optimally; the plan is handed out only
    when certified, and an uncertified step is flagged."""
    if len(mu) > ATOM_CAP_2D:
        raise JkoError(f"2D proximal steps support at most {ATOM_CAP_2D} atoms")
    if energy.internal is not None or energy.constraint is not None:
        # atoms have no density: every state would read E = +inf
        raise JkoError("internal terms and density constraints are not "
                       "available for 2D atomic states")
    w = mu.weights
    keep = w > 0
    x = mu.points_2d()
    z = x.copy()
    z[keep], its, res = _lbfgs(_LagrangianObjective(energy, x[keep], w[keep], tau),
                               cfg.inner_tol, cfg.inner_max_iter)
    z.flags.writeable = False   # fresh: the measure takes it without a copy
    nu = AtomicMeasure(z, w)
    slack, scale = _cycle_slack(x[keep], z[keep])
    certified = slack >= -_CERTIFICATE_EPS * scale
    info = {"inner_iters": its, "residual": res, "certificate_slack": slack,
            "residual_flag": not res <= cfg.inner_tol or not certified}
    if certified:
        info["plan"] = diagonal_plan(mu, nu)   # optimal mu -> nu
    return nu, info


class _LagrangianObjective:
    """Phi(z) = sum_i w_i |x_i - z_i|^2 / (2 tau) + E(z) over 2D atoms z of
    weights ``w`` > 0, and its gradient in the metric diag(w_i / tau):
    h_i = tau grad_i Phi / w_i = z_i - x_i + tau grad_i E / w_i, a length."""

    def __init__(self, energy, x, w, tau):
        self.energy, self.x, self.w, self.tau = energy, x, w, tau

    def inner(self, a, b):
        """The metric's inner product, up to the factor 1 / tau."""
        return float(self.w @ (a * b).sum(axis=1))

    def value_and_grad(self, z):
        """(Phi(z), h(z)) from one pair geometry
        (:meth:`Energy.atoms_value_and_grad`); raises :class:`EnergyError`
        where the kernel's field overflows at z."""
        d = z - self.x
        e, g = self.energy.atoms_value_and_grad(z, self.w,
                                                0.5 / self.tau * self.inner(d, d))
        return e, d + self.tau * g


def _lbfgs(objective, tol, max_iter):
    """L-BFGS in the metric of :class:`_LagrangianObjective`, from z = x,
    with the line search of :func:`_armijo_step`.  The residual is the
    stationarity residual max_i |h_i|, in length units.  The solve stops
    when it is at most ``tol``, after ``max_iter`` iterations, or when the
    search fails: that is the rounding floor, where Phi no longer moves by
    more than its rounding and the residual no longer halves, and the
    caller compares the residual left there with ``tol``.  A value of -inf
    (colliding atoms under an attractive singular kernel) ends the solve
    with an infinite residual; a field that overflows at the start raises
    :class:`EnergyError`.  Returns (z, iterations, residual)."""
    z = objective.x.copy()
    fz, h = objective.value_and_grad(z)
    memory = []   # (s, y, 1 / <s, y>) of the last _LBFGS_MEMORY steps
    it = 0
    while True:
        if fz == -math.inf or not np.isfinite(h).all():
            return z, it, math.inf
        res = _max_length(h)
        if res <= tol or it == max_iter:
            return z, it, res
        d = -_two_loop(objective, h, memory)
        slope = objective.inner(h, d)
        if not slope < 0.0:   # no descent along the quasi-Newton direction
            memory.clear()
            d, slope = -h, -objective.inner(h, h)
        step = _armijo_step(objective, z, fz, res, slope / objective.tau, d)
        if step is None:
            return z, it, res
        it += 1
        z_new, fz, h_new = step
        s, y = z_new - z, h_new - h
        sy = objective.inner(s, y)
        if sy > 0.0:
            memory.append((s, y, 1.0 / sy))
            del memory[:-_LBFGS_MEMORY]
        z, h = z_new, h_new


def _max_length(h):
    """max_i |h_i| over the rows of ``h``."""
    return float(np.sqrt((h * h).sum(axis=1)).max())


def _two_loop(objective, h, memory):
    """The L-BFGS product H h, the first matrix gamma I scaled by the last
    pair's <s, y> / <y, y> (I, the prox term's inverse Hessian, with no
    pairs)."""
    q = h.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        a = rho * objective.inner(s, q)
        q -= a * y
        alphas.append(a)
    if memory:
        s, y, _ = memory[-1]
        q *= objective.inner(s, y) / objective.inner(y, y)
    for (s, y, rho), a in zip(memory, reversed(alphas)):
        q += (a - rho * objective.inner(y, q)) * s
    return q


def _armijo_step(objective, z, fz, res, slope, d):
    """First z + a d, a = 1, 1/2, ... (_ARMIJO_HALVINGS halvings), that
    lowers Phi by at least _ARMIJO a |``slope``| (``slope`` = grad Phi . d
    < 0) and by more than Phi's rounding, _VALUE_ROUNDING (1 + |Phi|); or,
    where Phi stays within that rounding of Phi(z), that halves the
    residual ``res``.  A drop below the rounding alone is not progress:
    accepting it lets the solve wander on rounding noise.  A trial point
    whose field overflows is rejected.  Returns (point, value, metric
    gradient), or None when no halving is accepted."""
    rounding = _VALUE_ROUNDING * (1.0 + abs(fz))
    alpha = 1.0
    for _ in range(_ARMIJO_HALVINGS):
        zt = z + alpha * d
        try:
            ft, ht = objective.value_and_grad(zt)
        except EnergyError:   # distinct atoms too close: w'(r) overflows
            ht = None
        if ht is not None:
            drop = fz - ft
            if drop >= max(-_ARMIJO * alpha * slope, rounding) \
                    or (drop >= -rounding and _max_length(ht) <= 0.5 * res):
                return zt, ft, ht
        alpha *= 0.5
    return None


def _cycle_slack(x, z):
    """(lightest cycle, max C) for the diagonal plan x_i -> z_i under the
    cost C_ij = |x_i - z_j|^2.  The plan is optimal iff it is cyclically
    monotone (Rockafellar 1966): no cycle i_1 -> ... -> i_k -> i_1 of the
    arc weights a_ij = C_ij - C_ii has negative weight.  Floyd-Warshall over
    the n atoms, with +inf on the diagonal, leaves in D_ii the lightest
    cycle through i; the slack is min_i D_ii (+inf for one atom).  Where a
    cycle is negative, its walks can repeat it, and the slack is only some
    value at or below the lightest cycle's weight."""
    C = pair_differences(x, z)[1]
    D = C - np.diag(C)[:, None]
    np.fill_diagonal(D, math.inf)
    via = np.empty_like(D)
    for k in range(len(D)):   # D_ij = min(D_ij, D_ik + D_kj), all i, j at once
        np.add(D[:, k, None], D[None, k, :], out=via)
        np.minimum(D, via, out=D)
    return float(np.diag(D).min()), float(C.max())


# ---------------------------------------------------------------------------
# public proximal map and flow drivers
# ---------------------------------------------------------------------------

def proximal_step(energy: Energy, mu, tau: float, cfg: JkoConfig | None = None):
    """One proximal step argmin_nu (1/2 tau) W2^2(mu, nu) + E(nu): the pair
    (nu, info), info the solve's ``inner_iters``, ``residual`` and
    ``residual_flag`` (a 2D step's also its ``certificate_slack`` and, when
    certified, its optimal ``plan`` mu -> nu).

    ``mu`` is a :class:`QuantileMeasure`, an :class:`AtomicMeasure` (1D
    atoms stepped exactly as quantile cells) or a :class:`QuantileStack`,
    whose rows step together, each bitwise as it would alone (the info is
    then a list, one dict per row); nu has the input's type.
    Other types raise :class:`JkoError`; ``tau = 0`` gives nu = ``mu``.
    ``cfg`` is read for the inner solver only; the step is ``tau``.
    """
    cfg = cfg or JkoConfig()
    if tau < 0:
        raise JkoError("tau must be nonnegative")
    if tau == 0:
        info = {"inner_iters": 0, "residual": 0.0, "residual_flag": False}
        if isinstance(mu, QuantileStack):
            info = [dict(info) for _ in range(len(mu))]
        return mu, info
    if isinstance(mu, QuantileStack):
        return _prox_quantile(energy, mu, tau, cfg)
    if isinstance(mu, QuantileMeasure):
        out, (info,) = _prox_quantile(energy, QuantileStack.of([mu]), tau, cfg)
        return out.row(0), info
    if isinstance(mu, AtomicMeasure) and mu.dim == 2:
        return _prox_atomic_2d(energy, mu, tau, cfg)
    if isinstance(mu, AtomicMeasure):
        keep = mu.weights > 0   # one quantile cell per atom of positive mass
        cell_mass = mu.weights[keep]
        cell_mass.flags.writeable = False   # fresh: the measure takes it without a copy
        q = QuantileMeasure(midpoint_grid(len(cell_mass))[0], mu.points[keep], cell_mass)
        q_out, (info,) = _prox_quantile(energy, QuantileStack.of([q]), tau, cfg)
        return q_out.row(0).to_atomic(), info
    raise JkoError(f"unsupported measure type {type(mu)!r}")


def flow(energy: Energy, mu0, cfg: JkoConfig) -> FlowTrajectory:
    """Discrete gradient flow sequence mu^0 -> mu^1 -> ... -> mu^steps."""
    return flows(energy, [mu0], cfg)[0]


def flows(energy: Energy, states, cfg: JkoConfig) -> list:
    """:func:`flow` from each of ``states``, as a list of trajectories.

    States on one quantile grid (:func:`measures.same_grid`) step
    together: each step solves them as the rows of one
    :class:`QuantileStack`, and every row comes out bitwise equal to its
    own :func:`flow`.  Any other state steps alone."""
    return _flows(lambda k, tau: energy, states, cfg)


def flow_time_dependent(schedule, mu0, cfg: JkoConfig) -> FlowTrajectory:
    """JKO against a step-indexed energy schedule (k, tau) -> Energy.

    Step k (1-based) minimizes (1/2 tau) W2^2(mu^{k-1}, .) + E^k_tau(.)."""
    return _flows(schedule, [mu0], cfg)[0]


def _flows(schedule, starts, cfg: JkoConfig) -> list:
    """The trajectories of :func:`flows` under a step-indexed schedule."""
    groups = []
    for i, mu in enumerate(starts):
        for group in groups:
            if same_grid(starts[group[0]], mu):
                group.append(i)
                break
        else:
            groups.append([i])
    out = [None] * len(starts)
    for group in groups:
        for i, traj in zip(group, _flow_group(schedule, [starts[i] for i in group], cfg)):
            out[i] = traj
    return out


def _flow_group(schedule, starts, cfg: JkoConfig) -> list:
    """Trajectories from ``starts``: QuantileMeasures on one grid, which step
    as the rows of one :class:`QuantileStack` (one state as a stack of one),
    or one other state.  Each step's result is the next step's start, so
    the terms it kept for an energy are read again there, not recomputed."""
    stacked = isinstance(starts[0], QuantileMeasure)
    prev = QuantileStack.of(starts) if stacked else starts[0]
    e0 = schedule(0, cfg.tau)
    # each state's columns: states, energies, step distances, step infos
    columns = [([mu], [e], [], []) for mu, e in zip(
        starts, e0.eval(prev) if stacked else [e0.eval(prev)])]
    for k in range(1, cfg.steps + 1):
        ek = schedule(k, cfg.tau)
        new, info = proximal_step(ek, prev, cfg.tau, cfg)
        if stacked:
            steps = zip([new.row(r) for r in range(len(new))], ek.eval(new),
                        _node_distance(prev.cell_mass, prev.positions,
                                       new.positions), info)
        else:
            plan = info.pop("plan", None)
            steps = [(new, ek.eval(new),
                      w2(prev, new) if plan is None else _plan_distance(plan), info)]
        for row, step in zip(columns, steps):
            for column, value in zip(row, step):
                column.append(value)
        prev = new
    return [FlowTrajectory(s, np.asarray(e), np.asarray(d), di, cfg)
            for s, e, d, di in columns]

