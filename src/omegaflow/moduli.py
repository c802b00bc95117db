"""Moduli of convexity and their comparison-ODE machinery.

A modulus omega is a continuous, nondecreasing function on [0, inf) that
vanishes only at 0, together with a concave continuity majorant
omega_tilde >= omega satisfying the Osgood condition
int_0^1 dx / omega_tilde(x) = +inf and omega_tilde(x) = o(sqrt(x)) near 0.

Shipped kinds
-------------
``lipschitz``       omega(x) = omega_tilde(x) = x
``polynomial``      omega(x) = x^(p+1) capped at 1,  omega_tilde(x) = (p+1) x
                    (the factor p+1 makes omega_tilde an actual modulus of
                    continuity for the capped power)
``log_lipschitz``   omega(x) = x|log x| below the junction e^(-1-sqrt(2)),
                    sqrt(x^2 + 2(1+sqrt(2)) e^(-1-sqrt(2)) x) above
``sqrt_psi``        sqrt(x psi(x)), which is the log_lipschitz formula; the
                    kind is kept as a tag for the interaction-energy
                    certificates whose lambda is calibrated
``phi_derived``     omega built by quadrature of a sampled phi (see
                    :func:`modulus_from_phi`), with linear majorant
                    ``meta["slope"]`` x

Each modulus carries a signed rate ``lam`` and exposes:

* ``flow(t, x)``        the exact solution F_t(x) of  dF/dt = lam * omega(F)
* ``euler_step``        f_tau(x) = x + lam * tau * omega(x)  (0 for x < 0)
* ``tilde_euler_step``  f~_tau(x) = x - lam^- * tau * omega_tilde(x)
* ``euler_iterate`` / ``tilde_euler_iterate``  m-fold compositions
* ``euler_error_bound`` the a-priori bound on |F_t(x) - f^(m)_{t/m}(x)|
* ``tilde_flow``        the decaying comparison flow dG/dt = -lam^- om~(G)
* ``envelope``          the growing Bihari majorant dG/ds = om~(G) used on
                        the bound side of the error estimates
* ``c_r``               max_{0 <= x <= r} omega_tilde(x) / sqrt(x)

``tilde_flow``, ``envelope`` and ``flow`` (for the lipschitz and log
kinds, where omega = omega_tilde) all solve the one majorant ODE
dG/dt = rate * omega_tilde(G), at rates -lam^-, 1 and lam.

Sign conventions here keep the Euler map, the exact flow, and the error
bound mutually consistent: F_t(x) = exp(lam*t) * x for the Lipschitz kind,
so that the Euler iterates f^(m)_{t/m} actually converge to F_t and the
contraction bound F_{2t}(W^2) <= W^2(0) yields the e^{-lam t} rate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "JUNCTION",
    "LOG_JUNCTION",
    "LOG_KINDS",
    "PSI_SHIFT",
    "FlowWindowError",
    "ModulusError",
    "Modulus",
    "psi",
    "lipschitz",
    "polynomial",
    "log_lipschitz",
    "sqrt_psi",
    "modulus_from_phi",
    "modulus_from_json",
    "adaptive_simpson",
]

# branch junction of the log-Lipschitz modulus and of psi, and its logarithm
LOG_JUNCTION = -1.0 - math.sqrt(2.0)
JUNCTION = math.exp(LOG_JUNCTION)
PSI_SHIFT = 2.0 * (1.0 + math.sqrt(2.0)) * JUNCTION
# kinds whose omega and omega_tilde are both the log-Lipschitz formula
LOG_KINDS = ("log_lipschitz", "sqrt_psi")
_KINDS = ("lipschitz", "polynomial", "phi_derived") + LOG_KINDS

_QUAD_TOL = 1e-11
_QUAD_MAX_DEPTH = 48        # bisection depth of adaptive_simpson
_BISECT_TOL = 1e-12
_PHI_TABLE_SIZE = 2048      # nodes of the modulus_from_phi table


class ModulusError(ValueError):
    """Invalid modulus construction or evaluation outside the domain."""


class FlowWindowError(ValueError):
    """Requested time lies outside the flow's existence window.

    Carries the exact window bound so callers can skip deterministically.
    """

    def __init__(self, t: float, window: float):
        self.t = t
        self.window = window
        super().__init__(f"t = {t} outside existence window [0, {window})")


def adaptive_simpson(f, a: float, b: float, tol: float = _QUAD_TOL) -> float:
    """Adaptive Simpson quadrature with absolute tolerance ``tol``."""
    if a == b:
        return 0.0

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        fl, fr = f(lmid), f(rmid)
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if depth >= _QUAD_MAX_DEPTH or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, fl, fmid, left, eps / 2.0, depth + 1)
                + recurse(mid, hi, fmid, fr, fhi, right, eps / 2.0, depth + 1))

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


def _log_positive(x, fill=0.0):
    """log x where x > 0, else ``fill``, in one log call that sees no
    x <= 0, so no warning."""
    return np.log(x, out=np.full(np.shape(x), fill), where=x > 0)


def psi(x):
    """x (log x)^2 below the junction, x + 2(1+sqrt 2) e^(-1-sqrt 2) above.

    Both branches agree at x = e^(-1-sqrt(2)); psi(x) >= x everywhere.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ModulusError("psi requires x >= 0")
    logs = _log_positive(x)
    lower = x * logs * logs
    upper = x + PSI_SHIFT
    out = np.where(x <= JUNCTION, lower, upper)
    out = np.where(x == 0, 0.0, out)
    return out if out.ndim else float(out)


def _log_lip_omega(x):
    x = np.asarray(x, dtype=float)
    logs = _log_positive(x)
    lower = x * np.abs(logs)
    upper = np.sqrt(x * x + PSI_SHIFT * x)
    out = np.where(x <= JUNCTION, lower, upper)
    out = np.where(x <= 0, 0.0, out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Modulus:
    """A modulus of convexity with rate ``lam`` and majorant ``omega_tilde``."""

    kind: str
    lam: float
    p: float = 0.0                       # polynomial exponent, if applicable
    _omega_fn: object = field(default=None, repr=False, compare=False)
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ModulusError(f"unknown modulus kind {self.kind!r}")
        slope = self.meta.get("slope") or 0.0
        if self.kind == "phi_derived" and not (callable(self._omega_fn)
                                               and slope > 0.0):
            raise ModulusError("phi_derived modulus needs an omega function "
                               "and meta['slope'] > 0")

    # -- evaluators ---------------------------------------------------------

    def omega(self, x):
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0):
            raise ModulusError("omega requires x >= 0")
        if self.kind == "lipschitz":
            out = xa.copy()
        elif self.kind == "polynomial":
            out = np.where(xa <= 1.0, xa ** (self.p + 1.0), 1.0)
        elif self.kind == "phi_derived":
            out = self._omega_fn(xa)
        else:
            out = _log_lip_omega(xa)
        return out if np.ndim(x) else float(out)

    def omega_tilde(self, x):
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0):
            raise ModulusError("omega_tilde requires x >= 0")
        slope = self.tilde_slope
        out = _log_lip_omega(xa) if slope is None else slope * xa
        return out if np.ndim(x) else float(out)

    @property
    def tilde_slope(self) -> float | None:
        """Slope of the linear majorant, or None for the log family.

        1 for lipschitz, p+1 for the capped power (its sharp Lipschitz
        constant), ``meta["slope"]`` for phi_derived."""
        if self.kind == "lipschitz":
            return 1.0
        if self.kind == "polynomial":
            return self.p + 1.0
        if self.kind == "phi_derived":
            return self.meta["slope"]
        return None

    @property
    def lam_minus(self) -> float:
        return max(0.0, -self.lam)

    # -- Euler maps ---------------------------------------------------------

    def euler_step(self, tau: float, x):
        """f_tau(x) = x + lam * tau * omega(x) for x >= 0, else 0."""
        xa = np.asarray(x, dtype=float)
        pos = np.maximum(xa, 0.0)
        out = np.where(xa >= 0, xa + self.lam * tau * self.omega(pos), 0.0)
        return out if np.ndim(x) else float(out)

    def tilde_euler_step(self, tau: float, x):
        """f~_tau(x) = x - lam^- * tau * omega_tilde(x) for x >= 0, else 0."""
        xa = np.asarray(x, dtype=float)
        pos = np.maximum(xa, 0.0)
        out = np.where(xa >= 0, xa - self.lam_minus * tau * self.omega_tilde(pos), 0.0)
        return out if np.ndim(x) else float(out)

    def _omega_scalar(self, x: float) -> float:
        """Pure-scalar omega for hot iteration loops."""
        if x <= 0.0:
            return 0.0
        if self.kind == "lipschitz":
            return x
        if self.kind == "polynomial":
            # np.power as in omega: libm's pow can differ in the last bit
            return float(np.power(x, self.p + 1.0)) if x <= 1.0 else 1.0
        if self.kind in LOG_KINDS:
            if x <= JUNCTION:
                # np.log as in omega: libm's log can differ in the last bit
                return x * abs(float(np.log(x)))
            return math.sqrt(x * x + PSI_SHIFT * x)
        return float(self._omega_fn(x))

    def euler_iterate(self, tau: float, x, steps: int):
        if steps < 0:
            raise ModulusError("steps must be >= 0")
        if np.ndim(x):
            y = np.asarray(x, dtype=float)
            for _ in range(steps):
                y = self.euler_step(tau, y)
            return y
        y = float(x)
        lam_tau = self.lam * tau
        for _ in range(steps):
            if y < 0.0:
                y = 0.0
            else:
                y = y + lam_tau * self._omega_scalar(y)
        return y

    def tilde_euler_iterate(self, tau: float, x, steps: int):
        if steps < 0:
            raise ModulusError("steps must be >= 0")
        y = np.asarray(x, dtype=float) if np.ndim(x) else float(x)
        for _ in range(steps):
            y = self.tilde_euler_step(tau, y)
        return y

    # -- exact flow ---------------------------------------------------------

    def flow_window(self, x: float) -> float:
        """Existence window T(x) for the flow from x (inf when global)."""
        if self.lam <= 0 or x <= 0:
            return math.inf
        if self.kind == "polynomial":
            if x >= 1.0 or self.p == 0.0:
                return math.inf
            return (x ** (-self.p) - 1.0) / (self.lam * self.p)
        if self.kind in LOG_KINDS:
            if x > JUNCTION:
                return math.inf
            return math.log(math.log(x) / LOG_JUNCTION) / self.lam
        return math.inf  # linear growth; capped phi_derived at most linear

    def flow(self, t: float, x: float) -> float:
        """Exact flow F_t(x) of dF/dt = lam * omega(F), F_0 = x."""
        if x < 0:
            raise ModulusError("flow requires x >= 0")
        if t < 0:
            raise ModulusError("flow requires t >= 0")
        if t == 0 or x == 0 or self.lam == 0:
            return float(x)
        window = self.flow_window(x)
        if t >= window:
            raise FlowWindowError(t, window)
        if self.kind == "polynomial":
            return self._flow_polynomial(t, x)
        if self.kind == "phi_derived":
            return self._flow_numeric(t, x)
        return self._majorant_flow(self.lam, t, x)  # omega = omega_tilde

    def _flow_polynomial(self, t: float, x: float) -> float:
        lam, p = self.lam, self.p
        if p == 0.0:
            # omega(x) = min(x, 1): exponential below 1, linear above
            if lam < 0:
                if x <= 1.0:
                    return x * math.exp(lam * t)
                t1 = (x - 1.0) / (-lam)
                if t <= t1:
                    return x + lam * t
                return math.exp(lam * (t - t1))
            if x >= 1.0:
                return x + lam * t
            t1 = math.log(1.0 / x) / lam
            if t <= t1:
                return x * math.exp(lam * t)
            return 1.0 + lam * (t - t1)
        if lam > 0:
            if x >= 1.0:
                return x + lam * t
            # inside the stated window the closed form stays <= 1
            return x * (1.0 - lam * p * t * x ** p) ** (-1.0 / p)
        # lam < 0
        if x <= 1.0:
            return x * (1.0 - lam * p * t * x ** p) ** (-1.0 / p)
        t1 = (x - 1.0) / (-lam)
        if t <= t1:
            return x + lam * t
        return (1.0 - lam * p * (t - t1)) ** (-1.0 / p)

    @staticmethod
    def _cosh_branch(s: float, y: float) -> float:
        """Flow of dG/ds = sqrt(G^2 + c G) on the upper branch (signed s)."""
        c = PSI_SHIFT
        k = math.acosh(1.0 + 2.0 * y / c)
        return 0.5 * c * (math.cosh(k + s) - 1.0)

    def _majorant_flow(self, rate: float, t: float, x: float) -> float:
        """G_t(x) of dG/dt = rate * omega_tilde(G), G_0 = x, for t, x > 0.

        Exponential for a linear majorant; for the log family the power
        branch x^exp(-rate t) below the junction and the cosh branch above
        it, crossing the junction in the direction of motion."""
        slope = self.tilde_slope
        if slope is not None:
            return x * math.exp(rate * slope * t)
        if x <= JUNCTION:
            if rate > 0:
                t_cross = math.log(math.log(x) / LOG_JUNCTION) / rate
                if t > t_cross:
                    return self._cosh_branch(rate * (t - t_cross), JUNCTION)
            return x ** math.exp(-rate * t)
        if rate < 0:
            # time for the cosh branch to decay from x to the junction
            c = PSI_SHIFT
            t_cross = (math.acosh(1.0 + 2.0 * x / c)
                       - math.acosh(1.0 + 2.0 * JUNCTION / c)) / -rate
            if t > t_cross:
                return JUNCTION ** math.exp(-rate * (t - t_cross))
        return self._cosh_branch(rate * t, x)

    def _flow_numeric(self, t: float, x: float) -> float:
        """Solve int_x^y dz / omega(z) = lam * t for y by bracket + bisection."""
        target = self.lam * t

        def inv(z):
            return 1.0 / self.omega(z)

        def T(y):
            if y < x:
                return -adaptive_simpson(inv, y, x)
            return adaptive_simpson(inv, x, y)

        if target > 0:
            hi = max(2.0 * x, 1.0)
            it = 0
            while T(hi) < target:
                hi *= 2.0
                it += 1
                if it > 200 or hi > 1e200:
                    raise FlowWindowError(t, self.flow_window(x))
            lo = x
        else:
            lo = 0.5 * x
            it = 0
            while T(lo) > target:
                lo *= 0.5
                it += 1
                if it > 400 or lo < 1e-300:
                    raise ModulusError("flow inversion underflow")
            hi = x
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if T(mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _BISECT_TOL * max(1.0, hi):
                break
        return 0.5 * (lo + hi)

    # -- comparison flows used on the bound side ----------------------------

    def tilde_flow(self, t: float, x: float) -> float:
        """Decaying comparison flow of dG/dt = -lam^- * omega_tilde(G)."""
        if x < 0 or t < 0:
            raise ModulusError("tilde_flow requires t, x >= 0")
        lm = self.lam_minus
        if lm == 0.0 or t == 0.0 or x == 0.0:
            return float(x)
        return self._majorant_flow(-lm, t, x)

    def envelope(self, s: float, y: float) -> float:
        """Growing Bihari majorant G_s(y) of dG/ds = omega_tilde(G)."""
        if y < 0 or s < 0:
            raise ModulusError("envelope requires s, y >= 0")
        if y == 0.0 or s == 0.0:
            return float(y)
        return self._majorant_flow(1.0, s, y)

    def euler_error_bound(self, t: float, x: float, steps: int) -> float:
        """Bound on |F_t(x) - f^(steps)_{t/steps}(x)|.

        Equals envelope(|lam| t, |lam| t omega(F_t(x)) / steps) for lam > 0
        and envelope(|lam| t, |lam| t omega(x) / steps) for lam <= 0.
        """
        if steps <= 0:
            raise ModulusError("steps must be >= 1")
        if self.lam == 0.0:
            return 0.0
        al = abs(self.lam)
        if self.lam > 0:
            seed = al * t * self.omega(self.flow(t, x)) / steps
        else:
            seed = al * t * self.omega(x) / steps
        return self.envelope(al * t, seed)

    # -- misc ----------------------------------------------------------------

    def c_r(self, r: float) -> float:
        """max over 0 <= x <= r of omega_tilde(x)/sqrt(x).

        Closed form slope * sqrt(r) for linear majorants; for the log family
        grid maximization over a fixed master grid (so the result is
        nondecreasing in r) with a 1.01 safety factor.
        """
        if r < 1.0:
            raise ModulusError("c_r requires r >= 1")
        slope = self.tilde_slope
        if slope is not None:
            return slope * math.sqrt(r)
        grid = _master_grid()
        pts = grid[grid <= r]
        pts = np.append(pts, r)
        vals = self.omega_tilde(pts) / np.sqrt(pts)
        return float(1.01 * vals.max())

    def validate(self) -> None:
        """Check the modulus axioms on a dense grid; raise on violation."""
        grid = np.concatenate([np.geomspace(1e-14, 1.0, 600),
                               np.linspace(1.0, 50.0, 200)[1:]])
        om = self.omega(grid)
        omt = self.omega_tilde(grid)
        if np.any(om <= 0.0):
            raise ModulusError("omega must be positive for x > 0")
        if self.omega(0.0) != 0.0:
            raise ModulusError("omega(0) must vanish")
        if np.any(np.diff(om) < -1e-12):
            raise ModulusError("omega must be nondecreasing")
        if np.any(om > omt * (1.0 + 1e-9) + 1e-15):
            raise ModulusError("omega must be dominated by omega_tilde")
        mid = self.omega_tilde(0.5 * (grid[:-1] + grid[1:]))
        if np.any(mid - 0.5 * (omt[:-1] + omt[1:]) < -1e-12):
            raise ModulusError("omega_tilde must be midpoint concave")
        # omega_tilde must actually majorize the increments of omega
        for stride in (1, 7, 40):
            da = np.abs(om[stride:] - om[:-stride])
            bound = self.omega_tilde(grid[stride:] - grid[:-stride])
            if np.any(da > bound * (1.0 + 1e-9) + 1e-15):
                raise ModulusError(
                    "omega_tilde is not a modulus of continuity for omega")
        decay = [self.omega_tilde(10.0 ** (-k)) / math.sqrt(10.0 ** (-k))
                 for k in range(4, 13)]
        if np.any(np.diff(decay) > 1e-15):
            raise ModulusError("omega_tilde(x)/sqrt(x) must decrease to 0")


_MASTER_GRID = None


def _master_grid() -> np.ndarray:
    global _MASTER_GRID
    if _MASTER_GRID is None:
        g = np.geomspace(1e-14, 1e8, 8192)
        g = np.union1d(g, np.array([math.exp(-2.0), JUNCTION]))
        _MASTER_GRID = g
    return _MASTER_GRID


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def lipschitz(lam: float) -> Modulus:
    return Modulus("lipschitz", float(lam))


def polynomial(p: float, lam: float) -> Modulus:
    if p < 0:
        raise ModulusError("polynomial modulus requires p >= 0")
    return Modulus("polynomial", float(lam), p=float(p))


def log_lipschitz(lam: float) -> Modulus:
    return Modulus("log_lipschitz", float(lam))


def sqrt_psi(lam: float) -> Modulus:
    """omega(x) = sqrt(x psi(x)) with calibrated rate (negative for the
    constrained interaction certificates)."""
    return Modulus("sqrt_psi", float(lam))


def modulus_from_phi(s_samples, phi_samples, sign: int) -> Modulus:
    """Convert a sampled uniformly-convexifying phi into a modulus.

    omega_1(x) = (2/lam) int_0^sqrt(x) phi(s) ds with lam = +-1 per
    ``sign``; for phi >= 0 the result is capped at x = 1.  The returned
    modulus stores a log-spaced table with monotone-cubic interpolation.
    """
    from scipy.interpolate import PchipInterpolator

    s = np.asarray(s_samples, dtype=float)
    ph = np.asarray(phi_samples, dtype=float)
    if s.ndim != 1 or s.shape != ph.shape or len(s) < 3:
        raise ModulusError("phi samples must be two equal-length 1D arrays")
    if s[0] != 0.0 or ph[0] != 0.0:
        raise ModulusError("phi samples must start at phi(0) = 0")
    if np.any(np.diff(s) <= 0):
        raise ModulusError("phi sample abscissae must be strictly increasing")
    if sign not in (+1, -1):
        raise ModulusError("sign must be +1 or -1")
    body = ph[1:]
    if sign > 0 and np.any(body < -1e-15):
        raise ModulusError("sign-indefinite phi samples (expected phi >= 0)")
    if sign < 0 and np.any(body > 1e-15):
        raise ModulusError("sign-indefinite phi samples (expected phi <= 0)")
    if np.max(np.abs(body)) <= 0:
        raise ModulusError("phi == 0 would give omega == 0 (not a modulus)")
    if sign > 0 and s[-1] < 1.0:
        raise ModulusError("phi samples must cover [0, 1] for the cap")
    lam = float(sign)

    interp = PchipInterpolator(s, ph)
    anti = interp.antiderivative()
    cap_at = 1.0 if sign > 0 else float(s[-1] ** 2)

    def omega_exact(x):
        x = np.asarray(x, dtype=float)
        root = np.sqrt(np.minimum(x, cap_at))
        return (2.0 / lam) * anti(root)

    # log-spaced table with monotone-cubic interpolation, split exactly at
    # the cap so the kink there is not smoothed over
    xs = np.concatenate([[0.0], np.geomspace(1e-16, cap_at, _PHI_TABLE_SIZE - 1)])
    xs[-1] = cap_at
    ys = omega_exact(xs)
    ys = np.maximum.accumulate(np.maximum(ys, 0.0))
    table = PchipInterpolator(xs, ys)
    y_cap = float(ys[-1])

    def omega_fn(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < cap_at, table(np.minimum(x, cap_at)), y_cap)

    if sign > 0:
        slope = 2.0 * float(interp(1.0)) / lam
    else:
        pos = s > 0
        slope = float(np.max(-ph[pos] / s[pos]))
    mod = Modulus("phi_derived", lam, _omega_fn=omega_fn,
                  meta={"slope": slope, "sign": sign})
    mod.validate()
    return mod


# ---------------------------------------------------------------------------
# JSON config
# ---------------------------------------------------------------------------

def _reject_unknown(spec, known, error) -> None:
    """Raise ``error(key)`` at the first key of the config object ``spec``,
    in sorted order, that is not in ``known``: a key that is not read is a
    typo, not a default.  Each config parser builds its own error."""
    unknown = sorted(set(spec) - set(known))
    if unknown:
        raise error(unknown[0])


def modulus_from_json(data) -> Modulus:
    """Build a modulus from config JSON, e.g. {"kind":"polynomial","p":1,
    "lambda":-0.5}."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ModulusError(f"a modulus is a JSON object, got {data!r}")
    kind = data.get("kind")
    if kind not in ("lipschitz", "polynomial") + LOG_KINDS:
        raise ModulusError(f"unknown modulus kind {kind!r}")
    known = {"kind", "lambda", "p"} if kind == "polynomial" else {"kind", "lambda"}
    _reject_unknown(data, known, lambda key: ModulusError(
        f"unknown key {key!r} of a {kind} modulus"))
    lam = float(data.get("lambda", 0.0))
    if kind == "polynomial":
        return polynomial(float(data.get("p", 1.0)), lam)
    return Modulus(kind, lam)
