"""Composable energy functionals on discrete measures.

An :class:`Energy` is a sum of optional terms

* potential        int V(x) dmu
* interaction      1/2 int (W * mu)(x) dmu(x)   (kernel W, radial)
* internal         entropy  int mu log mu,  or power  1/(m-1) int mu^m
                   with 1 < m < inf
* constraint       +inf whenever ||mu||_p > C_p; p = inf is the hard
                   density cap ||mu||_inf <= C, the only way to write it

together with value, Lagrangian gradient in quantile coordinates,
directional derivatives along couplings, the above-tangent convexity
certificate, and a sampled estimate of the metric slope.

Interaction kernels follow the desk-scale conventions: the 1D "Newtonian"
kernel is W(x) = |x|/2 (fundamental solution of d^2/dx^2, convex in 1D);
singular kernels on atomic supports exclude the diagonal i = j term.

The 1D Newtonian term on 1D atoms is evaluated in O(n log n) without pair
matrices (the 1D Lagrangian scheme of Blanchet, Calvez & Carrillo, 2008).
1D atoms are stored sorted, so the value is
(c/2) sum_k (x_{k+1} - x_k) W_k (1 - W_k) with W_k the mass of atoms 0..k,
and the quantile gradient of atom i is
c_i (c/2) (mass of atoms 0..i-1 - mass of atoms i+1..n-1).  Tied atoms
are counted by their order, as if atom i lay left of atom i+1: on the
sorted cone, the feasible set of the proximal step, the term is linear in
x with this gradient.  Away from ties it is the pair-matrix gradient used
for every other kernel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .measures import (
    GAP_FLOOR,
    AtomicMeasure,
    QuantileMeasure,
    QuantileStack,
    gaps,
    gaps_adjoint,
    interval_masses,
    lp_norm,
    pair_differences,
)
from .moduli import JUNCTION, Modulus, _first_unknown, _log_positive, psi
from .transport import GluedPlan, TransportPlan, w2

__all__ = [
    "EnergyError",
    "Kernel",
    "Potential",
    "Energy",
    "kernel_gradient",
    "directional_derivative",
    "above_tangent_slack",
    "metric_slope_estimate",
    "calibrate_interaction_constant",
    "parse_energy",
    "POTENTIALS",
]

CONSTRAINT_SLACK = 1e-9


class EnergyError(ValueError):
    """Invalid energy construction or evaluation outside the domain."""


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class Kernel:
    """Radial interaction kernel W(x) = w(|x|).

    kinds: ``newtonian`` (d), ``riesz`` (alpha, d, sign, c), ``log`` (c),
    ``smooth`` (user radial profile with derivative).
    """

    kind: str
    d: int = 1
    alpha: float = 2.0
    sign: int = 1
    c: float = 1.0
    profile: object = field(default=None, compare=False)   # w(r)
    dprofile: object = field(default=None, compare=False)  # w'(r)

    def __post_init__(self):
        if self.kind == "riesz":
            if not (2.0 <= self.alpha < self.d):
                raise EnergyError(
                    "riesz kernel requires 2 <= alpha < d "
                    f"(got alpha={self.alpha}, d={self.d})")
            if self.sign not in (+1, -1):
                raise EnergyError("riesz sign must be +1 or -1")
        elif self.kind == "newtonian":
            if self.d < 1:
                raise EnergyError("newtonian kernel requires d >= 1")
        elif self.kind == "log":
            pass
        elif self.kind == "smooth":
            if self.profile is None or self.dprofile is None:
                raise EnergyError("smooth kernel needs profile and dprofile")
        else:
            raise EnergyError(f"unknown kernel kind {self.kind!r}")

    @property
    def singular(self) -> bool:
        """True when W(0) or grad W(0) is undefined (diagonal excluded)."""
        if self.kind == "newtonian":
            return True  # |x|/2 has a gradient kink at 0; log/|x|^(2-d) blow up
        if self.kind in ("riesz", "log"):
            return True
        return False

    def _power_law(self):
        """(sign, sign * c, exponent) of a kernel sign * c * r^exponent: the
        Riesz kernel, exponent alpha - d in [2-d, 0), and the Newtonian one
        in d >= 3, the Riesz kernel with alpha = 2 and
        sign * c = c / (d (2 - d) |B_d|)."""
        if self.kind == "riesz":
            return self.sign, self.sign * self.c, self.alpha - self.d
        coef = self.c / (self.d * (2.0 - self.d) * _ball_volume(self.d))
        return (1 if coef > 0 else -1), coef, 2.0 - self.d

    def value(self, r):
        """w(r) for r = |x - y| >= 0."""
        r = np.asarray(r, dtype=float)
        if self.kind == "newtonian" and self.d == 1:
            out = 0.5 * r * self.c
        elif self.kind == "newtonian" and self.d == 2:
            out = self.c * _log_positive(r, -np.inf) / (2.0 * math.pi)
        elif self.kind in ("newtonian", "riesz"):
            sign, coef, expo = self._power_law()
            with np.errstate(divide="ignore"):
                out = coef * np.where(r > 0, r, np.nan) ** expo
            # lsc convention: +c|x|^(a-d) takes 0 at x=0, -c|x|^(a-d) is -inf
            out = np.where(r > 0, out, 0.0 if sign > 0 else -np.inf)
        elif self.kind == "log":
            out = self.c * _log_positive(r, -np.inf)
        else:
            out = np.asarray(self.profile(r), dtype=float)
        return out if out.ndim else float(out)

    def dvalue(self, r):
        """w'(r) for r > 0."""
        r = np.asarray(r, dtype=float)
        safe = np.where(r > 0, r, 1.0)
        if self.kind == "newtonian" and self.d == 1:
            out = np.full_like(r, 0.5 * self.c)
        elif self.kind == "newtonian" and self.d == 2:
            out = self.c / (2.0 * math.pi * safe)
        elif self.kind in ("newtonian", "riesz"):
            _, coef, expo = self._power_law()
            out = coef * expo * safe ** (expo - 1.0)
        elif self.kind == "log":
            out = self.c / safe
        else:
            out = np.asarray(self.dprofile(r), dtype=float)
        out = np.where(r > 0, out, 0.0)
        return out if out.ndim else float(out)

    def field(self, at: np.ndarray, pts: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Radial field sum_j w_j w'(|a - p_j|) (a - p_j)/|a - p_j| at each
        row a of ``at`` ((k, d)) from atoms ``pts`` ((n, d)) of mass ``w``;
        coincident points contribute nothing.

        Built one coordinate at a time (:func:`measures.pair_differences`):
        column c is the matvec of the (k, n) products w'(r) (a_c - p_c) / r
        with ``w``.  Where r = 0, w'(r) is 0, so those products are 0; where
        w'(r) overflows at distinct points, inf * 0 gives NaN for the caller
        to reject (:func:`_finite_field`)."""
        diffs, sq = pair_differences(at, pts)
        r = np.sqrt(sq)
        dv = self.dvalue(r)
        safe = np.where(r > 0, r, 1.0)
        return np.stack([(dv * (dc / safe)) @ w for dc in diffs], axis=1)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Scalar potential V with gradient; 1D or radial-in-2D evaluators.

    ``hess`` is V'' at 1D points, or None when not given; with it (and a
    second derivative in the other terms, :meth:`Energy.has_quantile_hess`)
    a 1D quantile step is solved by projected Newton instead of FISTA
    (every shipped potential has one; user potentials need not).
    """

    name: str
    value: object
    grad: object
    hess: object = None


def _radius_sq(x):
    """|x|^2 pointwise: scalars and (n,) are 1D points, (n,d) are d-dim."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return np.sum(x * x, axis=1)
    return x * x


def _quadratic():
    return Potential("quadratic", lambda x: 0.5 * _radius_sq(x),
                     lambda x: np.asarray(x, dtype=float),
                     hess=lambda x: np.ones(np.shape(x)))


def _granular(b: float = 2.0, beta: float = 1.0):
    # beta/(b+2) |x|^(b+2); gradient beta |x|^b x
    def val(x):
        return beta / (b + 2.0) * _radius_sq(x) ** ((b + 2.0) / 2.0)

    def grd(x):
        x = np.asarray(x, dtype=float)
        r = np.sqrt(_radius_sq(x))
        scale = beta * np.where(r > 0, r, 0.0) ** b
        return scale[..., None] * x if x.ndim == 2 else scale * x

    def hss(x):
        # 1D: beta (b+1) |x|^b
        return beta * (b + 1.0) * np.abs(np.asarray(x, dtype=float)) ** b

    return Potential(f"granular(b={b})", val, grd, hess=hss)


def _log_pinch(strength: float = 1.0):
    """Radial potential V(x) = v(|x|) whose gradient is log-Lipschitz but
    not Lipschitz.

    v'(r) = -(strength/2) * omega(r^2)/r with omega(u) = u|log u| on the
    lower branch, so two symmetric Diracs at +-a satisfy d(|a|^2)/dt =
    strength * omega(|a|^2): the flow expands at exactly the Osgood rate.
    Closed form below the branch junction: v(r) = -(s/4) r^2 (1 - 2 log r).
    In 2D, grad V(x) = v'(|x|) x / |x|, and 0 at x = 0.  In 1D,
    V''(x) = s (1 + log|x|) below the junction, 0 above it and -inf at 0,
    where a Newton step's pivot is not positive and FISTA takes the step.
    """
    s = float(strength)
    j = math.sqrt(JUNCTION)

    def val(x):
        x = np.asarray(x, dtype=float)
        x = np.sqrt(_radius_sq(x)) if x.ndim == 2 else np.abs(x)
        xc = np.minimum(x, j)
        lg = _log_positive(xc)
        core = -(s / 4.0) * xc**2 * (1.0 - 2.0 * lg)
        # continue linearly in the (unused) far region to keep V C^1
        slope_j = -(s / 2.0) * j * (-2.0 * math.log(j))
        out = np.where(x <= j, core,
                       core + slope_j * (x - xc))
        return out if out.ndim else float(out)

    def dv(r):
        # v'(r) for r >= 0
        rc = np.minimum(r, j)
        lg = _log_positive(rc)
        return np.where(r <= j, -s * rc * (-lg), -s * j * (-math.log(j)))

    def grd(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            r = np.sqrt(_radius_sq(x))
            scale = np.where(r > 0, dv(r) / np.where(r > 0, r, 1.0), 0.0)
            return scale[:, None] * x
        out = np.sign(x) * dv(np.abs(x))
        return out if out.ndim else float(out)

    def hss(x):
        r = np.abs(np.asarray(x, dtype=float))
        return np.where(r <= j, s * (1.0 + _log_positive(r, -np.inf)), 0.0)

    return Potential(f"log_pinch({s})", val, grd, hess=hss)


def _zero():
    def val(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:1] if x.ndim else ())
        return out if out.ndim else 0.0

    zeros = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Potential("zero", val, zeros, hess=zeros)


def _reject_unknown(spec, known, what: str) -> None:
    """Raise at the first key of the config object ``spec`` not in ``known``."""
    key = _first_unknown(spec, known)
    if key is not None:
        raise EnergyError(f"unknown {what} {key!r}")


def _from_params(factory, *keys):
    """A :data:`POTENTIALS` entry: ``factory`` called with a parameter dict,
    which may hold only ``keys``."""
    def build(params):
        _reject_unknown(params, keys, "potential parameter")
        return factory(**params)
    return build


POTENTIALS = {
    "quadratic": _from_params(_quadratic),
    "granular": _from_params(_granular, "b", "beta"),
    "log_pinch": _from_params(_log_pinch, "strength"),
    "zero": _from_params(_zero),
}


# ---------------------------------------------------------------------------
# the energy functional
# ---------------------------------------------------------------------------

def _atoms(mu):
    """(points as an (n, d) array, weights) of any measure type."""
    if isinstance(mu, AtomicMeasure):
        return mu.points_2d(), mu.weights
    if isinstance(mu, QuantileMeasure):
        return mu.positions[:, None], mu.cell_mass
    raise EnergyError(f"unsupported measure type {type(mu)!r}")


_QUANTILE = (QuantileMeasure, QuantileStack)


def _on_nodes(fn, x) -> np.ndarray:
    """A potential's pointwise ``fn`` (value, grad or hess) at 1D nodes
    ``x`` of any shape: a potential reads a 2D array as 2D points, so a
    stack's rows go in flattened."""
    if x.ndim == 1:
        return np.asarray(fn(x), dtype=float)
    return np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)


def _per_row(total):
    """A term's sum over the nodes: a float for one state, an array of one
    value per row for a stack."""
    return total if np.ndim(total) else float(total)


def _newtonian_1d(kernel: Kernel, dim: int) -> bool:
    """True when the interaction is c|x|/2 between 1D atoms, which is
    evaluated by prefix sums over the sorted atoms instead of pair matrices."""
    return kernel.kind == "newtonian" and kernel.d == 1 and dim == 1


@dataclass(frozen=True)
class Energy:
    """Sum of potential + interaction + internal terms with an Lp cap."""

    potential: Potential | None = None
    kernel: Kernel | None = None
    internal: tuple | None = None          # ("entropy",) or ("power", m), m < inf
    constraint: tuple | None = None        # (p, cap); p = math.inf: hard cap

    def __post_init__(self):
        if self.internal is not None:
            kind = self.internal[0]
            if kind == "power" and not (self.internal[1] > 1
                                        and math.isfinite(self.internal[1])):
                raise EnergyError(
                    "power internal term requires 1 < m < inf; write a hard "
                    "density cap as constraint=(inf, cap)")
            if kind not in ("power", "entropy"):
                raise EnergyError(f"unknown internal term {kind!r}")
        if self.constraint is not None:
            p, cap = self.constraint
            if not (p > 1):
                raise EnergyError("constraint requires p > 1")
            if cap <= 0:
                raise EnergyError("constraint cap must be positive")

    # -- pieces ---------------------------------------------------------------

    def potential_value(self, mu):
        """The potential term: a float, or one per row of a
        :class:`QuantileStack` (as are the other terms' values)."""
        if isinstance(mu, _QUANTILE):
            x, w = mu.positions, mu.cell_mass
            v = _on_nodes(self.potential.value, x)
        else:
            pts, w = _atoms(mu)
            v = self.potential.value(pts[:, 0] if pts.shape[1] == 1 else pts)
        return _per_row((w * np.asarray(v, dtype=float)).sum(axis=-1))

    def interaction_value(self, mu):
        if isinstance(mu, _QUANTILE):
            x, w = mu.positions, mu.cell_mass
            newtonian = _newtonian_1d(self.kernel, 1)
        else:
            pts, w = _atoms(mu)
            newtonian = _newtonian_1d(self.kernel, pts.shape[1])
            x = pts[:, 0] if newtonian else None
        if newtonian:
            # 1D atoms of every measure type are kept sorted
            left = np.cumsum(w)[:-1]                # mass of atoms 0..k
            right = np.cumsum(w[::-1])[::-1][1:]    # mass of atoms k+1..
            # a sum over gaps of nonnegative terms: no cancellation
            return 0.5 * self.kernel.c * _per_row(
                np.sum(gaps(x) * left * right, axis=-1))
        if x is not None:   # the pair distances of 1D nodes, per row
            d = x[..., :, None] - x[..., None, :]
            r = np.sqrt(d * d)
        else:
            if not w.all():
                # a zero-weight atom on another one would give 0 * inf = nan
                pts, w = pts[w > 0], w[w > 0]
            r = np.sqrt(pair_differences(pts, pts)[1])
        # each row's n x n block as one contiguous run, its diagonal every
        # n + 1 entries
        pair = (np.outer(w, w) * self.kernel.value(r)).reshape(r.shape[:-2] + (-1,))
        if self.kernel.singular:
            pair[..., ::len(w) + 1] = 0.0
        return 0.5 * _per_row(pair.sum(axis=-1))

    def internal_value(self, mu):
        kind = self.internal[0]
        if isinstance(mu, _QUANTILE):
            c, rho = self._interval_densities(mu)
            if kind == "entropy":
                return _per_row(np.sum(c * np.log(rho), axis=-1))
            m = self.internal[1]
            # c rho^(m-1), not c^m g^(1-m): no overflow of the two factors
            return _per_row(np.sum(c * rho ** (m - 1.0), axis=-1) / (m - 1.0))
        if isinstance(mu, AtomicMeasure):
            return math.inf  # atoms have no density
        raise EnergyError(f"unsupported measure type {type(mu)!r}")

    # -- evaluation -----------------------------------------------------------

    def constraint_ok(self, mu) -> bool:
        if self.constraint is None:
            return True
        p, cap = self.constraint
        return lp_norm(mu, p) <= cap * (1.0 + CONSTRAINT_SLACK)

    def eval(self, mu):
        """Energy value; +inf on constraint violation.  One per row of a
        :class:`QuantileStack`."""
        if isinstance(mu, QuantileStack):
            if self.constraint is None:
                return self.terms_value(mu)
            return np.array([self.eval(mu.row(k)) for k in range(len(mu))])
        return self.terms_value(mu) if self.constraint_ok(mu) else math.inf

    def terms_value(self, mu, start=0.0):
        """``start`` plus the potential, interaction and internal terms, added
        in that order, without the constraint; +inf where the internal term
        is.  Per row for a :class:`QuantileStack` (``start`` then has one
        entry per row)."""
        total = start
        if self.potential is not None:
            total = total + self.potential_value(mu)
        if self.kernel is not None:
            total = total + self.interaction_value(mu)
        if self.internal is not None:
            v = self.internal_value(mu)
            if not np.ndim(v):
                return math.inf if v == math.inf else total + v
            inf = v == math.inf
            return np.where(inf, math.inf, total + v) if inf.any() else total + v
        return total

    # -- Lagrangian gradient in 1D quantile coordinates ------------------------

    def quantile_grad(self, q) -> np.ndarray:
        """d/dx_i of the discretized energy (constraint terms excluded), per
        row of a :class:`QuantileStack`; the 1D Newtonian term counts tied
        atoms by their order."""
        x = q.positions
        c = q.cell_mass
        g = np.zeros(x.shape)
        if self.potential is not None:
            g += c * _on_nodes(self.potential.grad, x)
        if self.kernel is not None and _newtonian_1d(self.kernel, 1):
            cum = np.concatenate(([0.0], np.cumsum(c)))
            g += c * (0.5 * self.kernel.c) * (cum[:-1] - (cum[-1] - cum[1:]))
        elif self.kernel is not None:
            diff = x[..., :, None] - x[..., None, :]
            contrib = self.kernel.dvalue(np.abs(diff)) * np.sign(diff) * c
            contrib.reshape(x.shape[:-1] + (-1,))[..., ::len(c) + 1] = 0.0
            g += c * contrib.sum(axis=-1)
        if self.internal is not None:
            g += gaps_adjoint(self._du_dgap(q))
        return g

    def has_quantile_hess(self) -> bool:
        """True when every term has a second derivative in quantile
        coordinates: a potential with ``hess``, the 1D Newtonian kernel,
        internal terms.  This alone picks the solver of a 1D step: projected
        Newton when True (it hands over to FISTA where the Hessian is not
        positive definite or its search fails), FISTA otherwise."""
        return (self.potential is None or self.potential.hess is not None) \
            and (self.kernel is None or _newtonian_1d(self.kernel, 1))

    def quantile_hess(self, q):
        """Hessian of the discretized energy in the nodes, tridiagonal, as
        the pair (e, w) with H = diag(e) + D^T diag(w) D, D the first
        differences of :func:`gaps`: its superdiagonal is -w and its
        diagonal e_i + w_{i-1} + w_i (per row of a :class:`QuantileStack`).
        Assumes :meth:`has_quantile_hess`.  The potential gives e, the 1D
        Newtonian term is linear in x on the sorted cone (0), and the
        internal term gives w = U''(g) per interval."""
        x = q.positions
        diag = np.zeros(x.shape) if self.potential is None else \
            q.cell_mass * _on_nodes(self.potential.hess, x)
        curv = np.zeros(x.shape[:-1] + (x.shape[-1] - 1,)) \
            if self.internal is None else self._d2u_dgap2(q)
        return diag, curv

    def _interval_densities(self, q: QuantileMeasure):
        """(interval masses, their densities with each width clamped at
        GAP_FLOOR)."""
        c = interval_masses(q.cell_mass)
        return c, c / np.maximum(q.gaps(), GAP_FLOOR)

    def _d2u_dgap2(self, q: QuantileMeasure) -> np.ndarray:
        """Second derivative of the internal term w.r.t. each interval
        width; 0 below GAP_FLOOR, where :meth:`_du_dgap` is clamped."""
        g = q.gaps()
        c, rho = self._interval_densities(q)
        if self.internal[0] == "entropy":
            u2 = rho * rho / c
        else:
            m = self.internal[1]
            u2 = m * rho ** (m + 1.0) / c
        return np.where(g < GAP_FLOOR, 0.0, u2)

    def _du_dgap(self, q: QuantileMeasure) -> np.ndarray:
        """Derivative of the internal term w.r.t. each interval width."""
        rho = self._interval_densities(q)[1]
        if self.internal[0] == "entropy":
            return -rho
        return -(rho ** self.internal[1])


# ---------------------------------------------------------------------------
# fields, derivatives, certificates
# ---------------------------------------------------------------------------

def _finite_field(kernel: Kernel, at, pts, w) -> np.ndarray:
    """``kernel.field``, raising where w'(r) overflows at distinct points
    too close together (there inf * 0 in the unit vector gives NaN)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel.field(at, pts, w)
    if not np.all(np.isfinite(out)):
        raise EnergyError("kernel field is undefined (overflow): distinct "
                          "points lie too close together")
    return out


def kernel_gradient(kernel: Kernel, mu, x):
    """Convolution gradient (grad W * mu)(x) at one or many points.

    Atoms coinciding with the evaluation point contribute nothing (the
    diagonal is excluded).
    """
    pts, w = _atoms(mu)
    d = pts.shape[1]
    xq = np.atleast_2d(np.asarray(x, dtype=float))
    if xq.shape[1] != d:
        xq = xq.reshape(-1, d)
    out = _finite_field(kernel, xq, pts, w)
    if np.ndim(x) == 0 or (np.ndim(x) == 1 and len(np.atleast_1d(x)) == d and d > 1):
        return out[0] if d > 1 else float(out[0, 0])
    return out[:, 0] if d == 1 else out


def _coupling_pairs(curve):
    if not isinstance(curve, (TransportPlan, GluedPlan)):
        raise EnergyError("curve must be a TransportPlan or GluedPlan")
    return curve.pairs()


def directional_derivative(energy: Energy, curve, at: float = 0.0) -> float:
    """d/dalpha E(mu_alpha) along the coupling's displacement interpolation.

    Potential and interaction terms use the coupling integrals
    (< grad V(pi_a), y - x > and < grad W * mu_a (pi_a), y - x >); internal
    terms require a node-to-node 1D coupling and differentiate the interval
    formulas directly.
    """
    xs, ys, ms = _coupling_pairs(curve)
    pa = (1.0 - at) * xs + at * ys
    vel = ys - xs
    total = 0.0
    if energy.potential is not None:
        x_in = pa[:, 0] if pa.shape[1] == 1 else pa
        grad = np.asarray(energy.potential.grad(x_in), dtype=float)
        grad = grad.reshape(pa.shape)
        total += float(np.sum(ms * np.sum(grad * vel, axis=1)))
    if energy.kernel is not None:
        field_at = _finite_field(energy.kernel, pa, pa, ms)
        total += float(np.sum(ms * np.sum(field_at * vel, axis=1)))
    if energy.internal is not None:
        total += _internal_directional(energy, curve, at)
    return total


def _internal_directional(energy: Energy, curve, at: float) -> float:
    xs, ys, ms = _coupling_pairs(curve)
    if xs.shape[1] != 1:
        raise EnergyError("internal terms support 1D quantile couplings only")
    n = len(ms)
    if not np.allclose(ms, ms[0]):
        raise EnergyError("internal directional derivative needs a "
                          "node-to-node coupling with equal masses")
    x0 = np.sort(xs[:, 0])
    x1 = ys[np.argsort(xs[:, 0], kind="stable"), 0]
    if np.any(np.diff(x1) < -1e-12):
        raise EnergyError("coupling is not monotone node-to-node")
    qn = (np.arange(n) + 0.5) / n
    qa = QuantileMeasure(qn, (1.0 - at) * x0 + at * x1, ms)
    du = energy._du_dgap(qa)
    # widths are linear in the nodes: width velocities are the gaps of x1 - x0
    return float(np.sum(du * gaps(x1 - x0)))


def coupling_cost(curve) -> float:
    """Squared transport cost of the coupling (W2^2 when optimal)."""
    xs, ys, ms = _coupling_pairs(curve)
    d = xs - ys
    return float(np.sum(ms * np.sum(d * d, axis=1)))


def above_tangent_slack(energy: Energy, mu0, mu1, coupling, modulus: Modulus) -> float:
    """E(mu1) - E(mu0) - dE/da|_0 - (lam/2) omega(cost^2): the omega-convexity
    certificate (nonnegative when the energy is omega-convex along the curve)."""
    e0 = energy.eval(mu0)
    e1 = energy.eval(mu1)
    if not (math.isfinite(e0) and math.isfinite(e1)):
        raise EnergyError("above-tangent certificate needs finite endpoints")
    dd = directional_derivative(energy, coupling, at=0.0)
    w2sq = coupling_cost(coupling)
    return e1 - e0 - dd - 0.5 * modulus.lam * modulus.omega(w2sq)


def metric_slope_estimate(energy: Energy, mu, samples, modulus: Modulus) -> float:
    """Lower estimate of the metric slope |dE|(mu) from a sample set.

    max over nu of ((E(mu) - E(nu))/W2 + (lam/2) omega(W2^2)/W2)^+ ; the
    estimate is monotone nondecreasing as the sample set grows.
    """
    if not samples:
        raise EnergyError("metric slope estimate needs a nonempty sample set")
    e_mu = energy.eval(mu)
    if not math.isfinite(e_mu):
        raise EnergyError("metric slope requires E(mu) < inf")
    best = 0.0
    for nu in samples:
        w = w2(mu, nu)
        if w <= 0:
            continue
        e_nu = energy.eval(nu)
        if not math.isfinite(e_nu):
            continue
        val = (e_mu - e_nu) / w + 0.5 * modulus.lam * modulus.omega(w * w) / w
        best = max(best, val)
    return best


def calibrate_interaction_constant(kernel: Kernel, measures, rng,
                                   n_pairs: int = 100,
                                   span: float = 3.0) -> float:
    """Empirical constant C of the log-Lipschitz field estimate.

    Samples point pairs, measures |grad W * mu(x) - grad W * mu(y)|^2 /
    psi(|x - y|^2) over the calibration measures, and returns 1.05 times
    the max observed ratio's square root.
    """
    worst = 0.0
    for mu in measures:
        pts = rng.uniform(-span, span, size=(n_pairs, 2))
        fx = kernel_gradient(kernel, mu, pts[:, 0])
        fy = kernel_gradient(kernel, mu, pts[:, 1])
        num = np.abs(np.asarray(fx) - np.asarray(fy)) ** 2
        den = psi((pts[:, 0] - pts[:, 1]) ** 2)
        ok = den > 0
        if np.any(ok):
            worst = max(worst, float(np.max(num[ok] / den[ok])))
    return 1.05 * math.sqrt(worst)


# ---------------------------------------------------------------------------
# config JSON
# ---------------------------------------------------------------------------

def parse_energy(data) -> Energy:
    """Energy from config JSON, e.g.
    {"potential":"quadratic","kernel":{"kind":"newtonian","d":1},
     "constraint":{"p":"inf","cap":1.0},"internal":{"power":2}}"""
    if isinstance(data, str):
        data = json.loads(data)
    _reject_unknown(data, ("potential", "kernel", "internal", "constraint"),
                    "energy key")
    pot = None
    if "potential" in data and data["potential"] is not None:
        spec = data["potential"]
        if isinstance(spec, str):
            name, params = spec, {}
        else:
            name, params = spec["name"], {k: v for k, v in spec.items() if k != "name"}
        if name not in POTENTIALS:
            raise EnergyError(f"unknown potential {name!r}")
        pot = POTENTIALS[name](params)
    ker = None
    if "kernel" in data and data["kernel"] is not None:
        kd = dict(data["kernel"])
        kind = kd.pop("kind")
        ker = Kernel(kind=kind, **kd)
    internal = None
    if "internal" in data and data["internal"] is not None:
        idata = data["internal"]
        if idata == "entropy":
            internal = ("entropy",)
        elif isinstance(idata, dict) and set(idata) == {"power"} \
                and isinstance(idata["power"], (int, float)):
            internal = ("power", float(idata["power"]))
        else:
            raise EnergyError(f"unknown internal term {idata!r}; write a "
                              "hard density cap as constraint")
    constraint = None
    if "constraint" in data and data["constraint"] is not None:
        cd = data["constraint"]
        _reject_unknown(cd, ("p", "cap"), "constraint key")
        p = cd["p"]
        if p is None:
            raise EnergyError('constraint p is a number or "inf", got null')
        p = math.inf if p == "inf" else float(p)
        constraint = (p, float(cd["cap"]))
    return Energy(potential=pot, kernel=ker, internal=internal,
                  constraint=constraint)
