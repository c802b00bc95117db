"""Numerical verification of the gradient-flow inequalities and rates.

Each check evaluates one inequality (discrete EVI, one-step and n-step
contraction, HWI, above-tangent convexity certificates, the large-vs-small
step identity, the asymmetric recursion deep audit) on concrete fixtures
and returns an :class:`InequalityReport` with the raw left/right hand
sides.  The suites read their families from one table, :data:`FAMILIES`;
:func:`calibrated_modulus` is the one reader of a frozen constant.
``pass`` means ``slack = rhs - lhs >= -tolerance``; checks whose
preconditions fail are skipped with a machine-readable reason rather than
failed.

A failing :func:`check_discrete_evi` reruns once at a 10x tighter inner
tolerance, to tell solver error from a violation; a failing :func:`check_hwi`
refines its slope samples; no other check reruns.  A check or rate study
reads its :class:`JkoConfig` for the inner solver only: it sets tau and steps.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from .energies import (
    POTENTIALS,
    Energy,
    Kernel,
    Potential,
    above_tangent_slack,
    metric_slope_estimate,
)
from .jko import (
    JkoConfig,
    JkoError,
    flow,
    flow_time_dependent,
    flows,
    isotonic_project,
    proximal_step,
)
from .measures import QuantileMeasure, make_atomic, measure_to_json, midpoint_grid
from .measures import dirac_state, uniform_state   # the fixtures' starts, re-exported
from .moduli import (
    JUNCTION,
    LOG_JUNCTION,
    LOG_KINDS,
    Modulus,
    lipschitz,
    log_lipschitz,
    modulus_from_phi,
    polynomial,
    sqrt_psi,
)
from .transport import (
    _plan_distance,
    diagonal_plan,
    geodesic,
    glue,
    pseudo_distance,
    w2,
    w2_1d,
    w2_exact,
)

__all__ = [
    "InequalityReport",
    "RateStudy",
    "check_discrete_evi",
    "check_contraction",
    "check_semigroup_contraction",
    "check_hwi",
    "check_omega_convexity",
    "check_large_small_step",
    "check_asymmetric_recursion",
    "rate_study",
    "run_suite",
    "SUITES",
    "fixtures_dir",
    "load_frozen",
    "calibrated_modulus",
    "FAMILIES",
]

DEFAULT_TOL = 1e-6


@dataclass
class InequalityReport:
    """One inequality evaluation: pass iff slack = rhs - lhs >= -tolerance."""

    name: str
    lhs: float
    rhs: float
    tolerance: float
    context: dict = field(default_factory=dict)
    skipped: bool = False
    skip_reason: str | None = None

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        if self.skipped:
            return True
        # a Python bool: rhs - lhs may be a numpy scalar, and the report's
        # JSON cannot hold numpy.bool
        return bool(self.slack >= -self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "skipped": self.skipped,
            "skip_reason": self.skip_reason,
            "context": self.context,
        }


def _skip(name: str, reason: str, **ctx) -> InequalityReport:
    return InequalityReport(name, 0.0, 0.0, 0.0, context=ctx,
                            skipped=True, skip_reason=reason)


@dataclass
class RateStudy:
    """Errors of the n-step discretization against an n_ref reference."""

    family: str
    t: float
    n_list: list
    errors: list
    bound_name: str
    bounds: list
    c_star: float
    loglog_slope: float
    richardson_ratio: float
    context: dict = field(default_factory=dict)

    def monotone_violation(self) -> float:
        """The largest rise of the error from one n to the next (0 if none)."""
        return max(np.diff(self.errors).tolist() + [0.0])

    def monotone(self) -> bool:
        return self.monotone_violation() <= 1e-12

    def below_envelope(self) -> bool:
        return all(e <= self.c_star * b * (1.0 + 1e-9) + 1e-15
                   for e, b in zip(self.errors, self.bounds))

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "t": self.t,
            "n_list": list(self.n_list),
            "errors": list(self.errors),
            "bound": self.bound_name,
            "bounds": list(self.bounds),
            "C_star": self.c_star,
            "loglog_slope": self.loglog_slope,
            "richardson_ratio": self.richardson_ratio,
            "monotone": self.monotone(),
            "below_envelope": self.below_envelope(),
            "context": self.context,
        }


# ---------------------------------------------------------------------------
# discrete EVI
# ---------------------------------------------------------------------------

def check_discrete_evi(energy: Energy, mu, nu, tau: float, modulus: Modulus,
                       cfg: JkoConfig | None = None, mu_tau=None, info=None,
                       tol: float = DEFAULT_TOL, name: str = "discrete_evi",
                       ) -> InequalityReport:
    """f_tau(W_{2,mu}^2(mu_tau, nu)) - W2^2(mu, nu)
       <= 2 tau (E(nu) - E(mu_tau)) - W2^2(mu, mu_tau).

    In 1D W_{2,mu} is W2.  In 2D it is glued over mu from the transposes of
    the plans mu -> mu_tau (the one a 2D step hands out in ``info``, else
    a fresh exact solve) and mu -> nu, so the check solves one LP of its own.

    A failing check is rerun once from a fresh proximal step at a 10x
    tighter inner tolerance; the rerun's report says ``reran_tighter``."""
    cfg = cfg or JkoConfig()
    e_nu = energy.eval(nu)
    e_mu = energy.eval(mu)
    if not (math.isfinite(e_nu) and math.isfinite(e_mu)):
        return _skip(name, "endpoint outside the energy domain", tau=tau)
    if mu.dim == 1:
        w_mu_nu = w2(mu, nu)
    else:
        w_mu_nu, plan_mn = w2_exact(mu, nu)

    def report(mu_tau, info) -> InequalityReport:
        e_mt = energy.eval(mu_tau)
        if mu.dim == 1:
            w_cross, w_step = w2(mu_tau, nu), w2(mu, mu_tau)
        else:
            plan = (info or {}).get("plan")
            if plan is None or plan.source is not mu or plan.target is not mu_tau:
                _, plan = w2_exact(mu, mu_tau)
            w_cross = pseudo_distance(glue(plan.transpose(), plan_mn.transpose()))
            w_step = _plan_distance(plan)
        lhs = modulus.euler_step(tau, w_cross**2) - w_mu_nu**2
        rhs = 2.0 * tau * (e_nu - e_mt) - w_step**2
        ctx = {"tau": tau, "E_mu": e_mu, "E_mu_tau": e_mt, "E_nu": e_nu}
        if info:
            ctx.update({k: info[k] for k in ("inner_iters", "residual_flag",
                                             "certificate_slack") if k in info})
        return InequalityReport(name, lhs, rhs, tol, context=ctx)

    if mu_tau is None:
        mu_tau, info = proximal_step(energy, mu, tau, cfg)
    rep = report(mu_tau, info)
    if not rep.passed:
        tighter = replace(cfg, inner_tol=cfg.inner_tol / 10.0)
        rep = report(*proximal_step(energy, mu, tau, tighter))
        rep.context["reran_tighter"] = True
    return rep


# ---------------------------------------------------------------------------
# one-step contraction
# ---------------------------------------------------------------------------

def check_contraction(energy: Energy, mu, nu, tau: float, modulus: Modulus,
                      cfg: JkoConfig | None = None, tol: float = DEFAULT_TOL,
                      name: str = "contraction") -> InequalityReport:
    """f_tau^(2)(W2^2(mu_tau, nu_tau)) against the explicit right-hand sides;
    both steps come from one :func:`jko.flows` call (one stack on one grid)."""
    cfg = cfg or JkoConfig()
    e_mu, e_nu = energy.eval(mu), energy.eval(nu)
    if not (math.isfinite(e_mu) and math.isfinite(e_nu)):
        return _skip(name, "endpoint outside the energy domain", tau=tau)
    lam = modulus.lam
    if lam > 0 and tau >= 1.0:
        return _skip(name, "tau cap violated (tau >= 1)", tau=tau)
    tr_mu, tr_nu = flows(energy, [mu, nu], replace(cfg, tau=tau, steps=1))
    e_mt, e_nt = tr_mu.energies[1], tr_nu.energies[1]
    w0 = w2(mu, nu)
    wt = w2(tr_mu.states[1], tr_nu.states[1])
    ctx = {"tau": tau, "W0": w0, "Wt": wt,
           "residual_flag": tr_mu.diagnostics[0]["residual_flag"]
           or tr_nu.diagnostics[0]["residual_flag"]}
    lhs = modulus.euler_step(tau, modulus.euler_step(tau, wt**2))
    if lam > 0:
        gap = max(2.0 * tau * (e_nt - e_mt), 0.0)
        rhs = w0**2 + lam * tau * modulus.omega_tilde(gap) \
            + 2.0 * tau * (e_mu - e_mt)
        return InequalityReport(name, lhs, rhs, tol, context=ctx)
    big_r = max(w0, 3.0)
    r = 4.0 * (big_r**2 + abs(lam) * modulus.omega_tilde(big_r**2))
    c_r = modulus.c_r(r)
    caps = [1.0]
    if lam != 0:
        caps.append(1.0 / (c_r * abs(lam)))
    for gap in (e_mu - e_mt, e_nu - e_nt):
        if gap > 0:
            caps.append(0.5 / gap)
    cap = min(caps)
    if tau >= cap:
        return _skip(name, f"tau cap violated (tau >= {cap})", tau=tau)
    rhs = w0**2 - lam * tau * modulus.omega_tilde(big_r**2 * tr_nu.step_distances[0]) \
        + 2.0 * tau * (e_mu - e_mt) + 3.0 * lam**2 * c_r**2 * tau**2
    ctx.update({"R": big_r, "r": r, "c_r": c_r})
    return InequalityReport(name, lhs, rhs, tol, context=ctx)


# ---------------------------------------------------------------------------
# semigroup contraction rates
# ---------------------------------------------------------------------------

def check_semigroup_contraction(energy: Energy, mu, nu, t: float, n: int,
                                modulus: Modulus, cfg: JkoConfig | None = None,
                                rate_slack: float = 1e-3,
                                name: str = "semigroup_contraction",
                                ) -> InequalityReport:
    """Evolve both states to time t (n JKO steps, one stack when they share
    a grid: :func:`jko.flows`) and compare W2 against the modulus-specific
    contraction rate with multiplicative slack."""
    return _semigroup_contraction(energy, [(mu, nu)], t, n, modulus, cfg,
                                  rate_slack, name)[0]


def _semigroup_contraction(energy: Energy, pairs, t: float, n: int,
                           modulus: Modulus, cfg: JkoConfig | None,
                           rate_slack: float, name: str) -> list:
    """:func:`check_semigroup_contraction` of each (mu, nu) in ``pairs``.

    A pair's skip or rate bound reads W2(0) alone, so it is decided before
    any step; the pairs left step in one :func:`jko.flows` call."""
    w0s = [w2(mu, nu) for mu, nu in pairs]
    if t == 0:
        return [InequalityReport(name, w0, w0, 1e-12, context={"t": 0.0})
                for w0 in w0s]
    cfg = replace(cfg or JkoConfig(), tau=t / max(n, 1), steps=n)
    out = [_rate_bound(modulus, w0, t, name) for w0 in w0s]
    todo = [i for i, b in enumerate(out) if not isinstance(b, InequalityReport)]
    trajs = flows(energy, [m for i in todo for m in pairs[i]], cfg)
    for i, tr_mu, tr_nu in zip(todo, trajs[::2], trajs[1::2]):
        wt = w2(tr_mu.states[-1], tr_nu.states[-1])
        ctx = {"t": t, "n": n, "W0": w0s[i], "Wt": wt, "rate_kind": modulus.kind}
        out[i] = InequalityReport(name, wt, out[i] * (1.0 + rate_slack), 1e-15,
                                  context=ctx)
    return out


def _rate_bound(modulus: Modulus, w0: float, t: float, name: str):
    """The contraction rate's bound on W2(t) from W2(0) = w0, or the skip
    report when w0 or t lies outside the rate's window."""
    lam, kind = modulus.lam, modulus.kind
    if kind == "lipschitz":
        return math.exp(-lam * t) * w0
    if kind == "polynomial":
        if w0 > 1.0:
            return _skip(name, "W2(0) > 1 outside the polynomial rate window", W0=w0)
        p = modulus.p
        base = 1.0 + 2.0 * lam * p * t * w0 ** (2.0 * p)
        if base <= 0:
            return _skip(name, "polynomial rate window exceeded", t=t)
        return w0 * base ** (-1.0 / (2.0 * p))
    if kind in LOG_KINDS:
        if w0 > JUNCTION:
            return _skip(name, "W2(0) above the log-Lipschitz junction", W0=w0)
        if lam < 0:
            window = math.log(math.log(w0**2) / LOG_JUNCTION) / (2.0 * abs(lam))
            if t >= window:
                return _skip(name, f"t outside rate window [0, {window})", t=t)
    return w0 ** math.exp(2.0 * lam * t)


def nstep_contraction_error_terms(modulus: Modulus, big_r: float, t: float,
                                  n: int) -> float:
    """Explicit error terms of the n-step contraction corollary (lam <= 0)."""
    lam = modulus.lam
    r = 4.0 * (t + 1.0) * (big_r**2 + abs(lam) * modulus.omega_tilde(big_r**2))
    c_r = modulus.c_r(max(r, 1.0))
    e1 = abs(lam) * t * modulus.omega_tilde(big_r**3 * math.sqrt(t / n))
    e2 = 2.0 * big_r * t / n
    e3 = 5.0 * lam**2 * c_r**2 * t**2 / n
    e4 = modulus.envelope(2.0 * abs(lam) * t,
                          2.0 * abs(lam) * t * modulus.omega(big_r**2) / n) \
        if lam != 0 else 0.0
    return e1 + e2 + e3 + e4


def check_nstep_contraction(energy: Energy, mu, nu, t: float, n: int,
                            modulus: Modulus, cfg: JkoConfig | None = None,
                            tol: float = DEFAULT_TOL,
                            name: str = "nstep_contraction") -> InequalityReport:
    """F_2t(W2^2(mu^n, nu^n)) <= W2^2(mu,nu) + explicit error terms (lam<=0)."""
    if n < 1:
        raise JkoError("steps must be >= 1")
    if modulus.lam > 0:
        return _skip(name, "n-step corollary stated for lam <= 0")
    cfg = replace(cfg or JkoConfig(), tau=t / n, steps=n)
    tr_mu, tr_nu = flows(energy, [mu, nu], cfg)
    w0 = w2(mu, nu)
    wt = w2(tr_mu.states[-1], tr_nu.states[-1])
    gap_mu = max(tr_mu.energies[0] - tr_mu.energies.min(), 0.0)
    gap_nu = max(tr_nu.energies[0] - tr_nu.energies.min(), 0.0)
    big_r = max(w0 + math.sqrt(2.0 * (t + 1.0)) * (math.sqrt(gap_mu + 1e-12)
                                                   + math.sqrt(gap_nu + 1e-12)), 3.0)
    lhs = modulus.flow(2.0 * t, wt**2) if modulus.lam != 0 else wt**2
    rhs = w0**2 + nstep_contraction_error_terms(modulus, big_r, t, n)
    return InequalityReport(name, lhs, rhs, tol,
                            context={"t": t, "n": n, "R": big_r, "W0": w0, "Wt": wt})


# ---------------------------------------------------------------------------
# HWI
# ---------------------------------------------------------------------------

def check_hwi(energy: Energy, mu0, mu1, modulus: Modulus, slope_samples,
              tol: float = DEFAULT_TOL, name: str = "hwi") -> InequalityReport:
    """E(mu0) - E(mu1) <= |dE|(mu0) W2 - (lam/2) omega(W2^2).

    The metric slope is a sampled lower estimate, so a failure first
    triggers refinement (geodesic interpolants toward each sample)."""
    e0, e1 = energy.eval(mu0), energy.eval(mu1)
    if not (math.isfinite(e0) and math.isfinite(e1)):
        return _skip(name, "endpoint outside the energy domain")
    w = w2(mu0, mu1)
    if w == 0:
        return InequalityReport(name, 0.0, 0.0, tol, context={"W2": 0.0})
    slope = metric_slope_estimate(energy, mu0, slope_samples, modulus)
    lhs = e0 - e1
    rhs = slope * w - 0.5 * modulus.lam * modulus.omega(w * w)
    rep = InequalityReport(name, lhs, rhs, tol,
                           context={"W2": w, "slope_estimate": slope})
    if rep.passed:
        return rep
    refined = list(slope_samples)
    # a sample at mu0 has no geodesic to refine along, and one built
    # toward it lands off mu0 by rounding, where the slope reads too high
    for s in [s for s in slope_samples if w2(mu0, s) > 0] + [mu1]:
        for alpha in (0.3, 0.1, 0.03, 0.01):
            refined.append(geodesic(mu0, s, alpha))
    slope = metric_slope_estimate(energy, mu0, refined, modulus)
    rhs = slope * w - 0.5 * modulus.lam * modulus.omega(w * w)
    return InequalityReport(name, lhs, rhs, tol,
                            context={"W2": w, "slope_estimate": slope,
                                     "refined": True})


# ---------------------------------------------------------------------------
# omega-convexity certificates
# ---------------------------------------------------------------------------

def check_omega_convexity(energy: Energy, pair_sampler, modulus: Modulus,
                          trials: int, tol: float = DEFAULT_TOL,
                          name: str = "omega_convexity") -> InequalityReport:
    """Min above-tangent slack across sampled pairs; the worst pair is
    serialized into the context when it dips below -tolerance."""
    worst = math.inf
    worst_pair = None
    for k in range(trials):
        mu0, mu1, coupling = pair_sampler(k)
        s = above_tangent_slack(energy, mu0, mu1, coupling, modulus)
        if s < worst:
            worst = s
            worst_pair = (mu0, mu1)
    ctx = {"trials": trials, "min_slack": worst}
    if worst < -tol and worst_pair is not None:
        ctx["witness_mu0"] = json.loads(measure_to_json(worst_pair[0]))
        ctx["witness_mu1"] = json.loads(measure_to_json(worst_pair[1]))
    return InequalityReport(name, -worst, 0.0, tol, context=ctx)


# ---------------------------------------------------------------------------
# large vs small proximal steps
# ---------------------------------------------------------------------------

def check_large_small_step(energy: Energy, mu, tau: float, h: float,
                           cfg: JkoConfig | None = None, tol: float = 1e-5,
                           name: str = "large_small_step") -> InequalityReport:
    """W2(J_h(nu), mu_tau) <= tol, nu the rescaled intermediate: the point
    at (tau - h) / tau on the geodesic from mu to mu_tau."""
    if not 0.0 <= h <= tau:
        return _skip(name, "need 0 <= h <= tau", tau=tau, h=h)
    cfg = cfg or JkoConfig()
    mu_tau, _ = proximal_step(energy, mu, tau, cfg)
    nu = mu if tau == 0 else geodesic(mu, mu_tau, (tau - h) / tau)
    back, _ = proximal_step(energy, nu, h, cfg)
    d = w2(back, mu_tau)
    return InequalityReport(name, d, 0.0, tol,
                            context={"tau": tau, "h": h, "distance": d})


# ---------------------------------------------------------------------------
# asymmetric recursion deep audit
# ---------------------------------------------------------------------------

def check_asymmetric_recursion(energy: Energy, mu0, T: float, n_steps: int,
                               m_steps: int, modulus: Modulus,
                               cfg: JkoConfig | None = None,
                               tol: float = DEFAULT_TOL,
                               name: str = "asymmetric_recursion") -> list:
    """Per-(n, m) check of the recursive inequality with explicit C-bar."""
    tau = T / n_steps
    h = T / m_steps
    if h > tau:
        tau, h = h, tau
        n_steps, m_steps = m_steps, n_steps
    cfg = cfg or JkoConfig()
    tr_tau = flow(energy, mu0, replace(cfg, tau=tau, steps=n_steps))
    tr_h = flow(energy, mu0, replace(cfg, tau=h, steps=m_steps))
    e_all = np.concatenate([tr_tau.energies, tr_h.energies])
    c_mu = max(float(tr_tau.energies[0] - e_all.min()), 0.0) + 1e-12
    lam_m = modulus.lam_minus
    big_r = max(2.0 * math.sqrt(2.0 * (T + 1.0) * c_mu), 3.0)
    r = 4.0 * (big_r**2 + lam_m * modulus.omega_tilde(big_r**2))
    c_r = modulus.c_r(max(r, 1.0))
    cbar = lam_m * max(lam_m * modulus.omega_tilde(big_r**2) + 4.0 * big_r**2,
                       3.0 * lam_m * c_r**2,
                       2.0 * T * (lam_m**2 * c_r**2 + 1.0)) + big_r
    tau_bar = min(1.0, big_r**-2 / 2.0,
                  (c_r * lam_m) ** -1 if lam_m > 0 else math.inf)
    reports = []
    if tau >= tau_bar:
        return [_skip(name, f"tau >= tau_bar = {tau_bar}", tau=tau)]
    err = cbar * (h * modulus.omega_tilde(math.sqrt(tau)) + h**2
                  + modulus.omega_tilde(h**2))
    for nn in range(1, n_steps + 1):
        for mm in range(1, m_steps + 1):
            w_nm = w2(tr_tau.states[nn], tr_h.states[mm])
            w_a = w2(tr_tau.states[nn - 1], tr_h.states[mm - 1])
            w_b = w2(tr_tau.states[nn], tr_h.states[mm - 1])
            lhs = modulus.tilde_euler_iterate(h, w_nm**2, 2 * mm)
            rhs = (h / tau) * modulus.tilde_euler_iterate(h, w_a**2, 2 * (mm - 1)) \
                + ((tau - h) / tau) * modulus.tilde_euler_iterate(h, w_b**2, 2 * (mm - 1)) \
                + err + 2.0 * h * (tr_h.energies[mm - 1] - tr_h.energies[mm])
            reports.append(InequalityReport(
                name, lhs, rhs, tol,
                context={"n": nn, "m": mm, "tau": tau, "h": h, "C_bar": cbar}))
    return reports


# ---------------------------------------------------------------------------
# rate studies
# ---------------------------------------------------------------------------

def rate_study(energy: Energy, mu0, t: float, n_list, modulus: Modulus,
               cfg: JkoConfig | None = None, n_ref: int = 4096,
               family: str = "unnamed") -> RateStudy:
    """Errors W2(mu^n_{t/n}, mu^{n_ref}_{t/n_ref}) against the paper envelope.

    The envelope is n^(-1/4) for linear majorants and
    [n^(-1/2) log n]^(1 / (2 exp(2 lam^- t))) for the log-Lipschitz family;
    C* is fitted at the smallest n (frozen by the acceptance suite).
    """
    cfg = cfg or JkoConfig()
    n_list = sorted(n_list)
    traj_ref = flow(energy, mu0, replace(cfg, tau=t / n_ref, steps=n_ref))
    ref = traj_ref.states[-1]
    cache = {}
    for n in list(n_list) + [n_ref // 2, n_ref // 4]:
        if n not in cache:
            tr = flow(energy, mu0, replace(cfg, tau=t / n, steps=n))
            cache[n] = w2(tr.states[-1], ref)
    errors = [cache[n] for n in n_list]
    if modulus.kind in LOG_KINDS:
        expo = 1.0 / (2.0 * math.exp(2.0 * modulus.lam_minus * t))
        bounds = [(n ** -0.5 * math.log(n)) ** expo for n in n_list]
        bound_name = "[n^-1/2 log n]^(1/(2 exp(2 lam- t)))"
    else:
        bounds = [n ** -0.25 for n in n_list]
        bound_name = "n^-1/4"
    c_star = errors[0] / bounds[0] if bounds[0] > 0 else 0.0
    pos = [(n, e) for n, e in zip(n_list, errors) if e > 0]
    if len(pos) >= 2:
        ln = np.log([p[0] for p in pos])
        le = np.log([p[1] for p in pos])
        slope = float(np.polyfit(ln, le, 1)[0])
    else:
        slope = 0.0
    rich = cache[n_ref // 4] / cache[n_ref // 2] if cache[n_ref // 2] > 0 else math.inf
    return RateStudy(family, t, list(n_list), errors, bound_name, bounds,
                     c_star, slope, rich,
                     context={"n_ref": n_ref, "E0": energy.eval(mu0)})


# ---------------------------------------------------------------------------
# fixture construction
# ---------------------------------------------------------------------------

def fixtures_dir() -> str:
    env = os.environ.get("OMEGAFLOW_FIXTURES")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "fixtures")


def load_frozen() -> dict:
    path = os.path.join(fixtures_dir(), "calibration.json")
    with open(path) as fh:
        return json.load(fh)


def calibrated_modulus(key: str, constants: dict | None = None) -> Modulus:
    """The certified modulus ``sqrt_psi(-4 C)`` of a calibration key, C read
    from ``constants`` or else from :func:`load_frozen` at call time (so that
    ``OMEGAFLOW_FIXTURES`` set after import holds)."""
    constants = load_frozen() if constants is None else constants
    return sqrt_psi(-4.0 * constants[key]["C"])


def quadratic_energy() -> Energy:
    return Energy(potential=POTENTIALS["quadratic"]({}))


def entropy_energy() -> Energy:
    return Energy(internal=("entropy",))


def capped_aggregation_energy(cap: float = 2.0, c: float = 1.0) -> Energy:
    return Energy(kernel=Kernel("newtonian", d=1, c=c),
                  constraint=(math.inf, cap))


def ks_surrogate_energy(cap: float = 2.0, c: float = 4.0) -> Energy:
    return Energy(kernel=Kernel("newtonian", d=1, c=c),
                  internal=("entropy",), constraint=(math.inf, cap))


def granular_energy(b: float = 2.0, beta: float = 1.0) -> Energy:
    return Energy(potential=POTENTIALS["granular"]({"b": b, "beta": beta}))


def log_pinch_energy(strength: float = 1.0) -> Energy:
    return Energy(potential=POTENTIALS["log_pinch"]({"strength": strength}))


def drift_diffusion_energy() -> Energy:
    """V_2 drift-diffusion with V = N * rho, rho = 2 on [-1/4, 1/4]."""
    rho = uniform_state(-0.25, 0.25, 33)
    zk = rho.positions.copy()
    wk = rho.cell_mass.copy()

    def val(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(wk * np.abs(x[..., None] - zk), axis=-1)

    def grd(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(wk * np.sign(x[..., None] - zk), axis=-1)

    pot = Potential("newtonian_drift(rho cap 2.0)", val, grd)
    return Energy(potential=pot, internal=("power", 2.0))


def feasible_random_state(rng, n: int = 32, cap: float | None = 2.0,
                          span: float = 1.5) -> QuantileMeasure:
    """Random spacing-feasible quantile state (density <= cap when given)."""
    q, c = midpoint_grid(n)
    x = np.sort(rng.uniform(-span, span, size=n))
    min_gaps = None if cap is None else np.full(n - 1, 1.0 / (n * cap))
    return QuantileMeasure(q, isotonic_project(x, c, min_gaps), c)


class Family(NamedTuple):
    """A name, an energy factory and its moduli (each a :class:`Modulus` or a
    calibration key, the sharpest last), plus a start factory, a :class:`JkoConfig`
    and a rate-study horizon ``t`` where two readers share them."""

    name: str
    energy: Callable[[], Energy]
    moduli: tuple
    start: Callable[[], QuantileMeasure] | None = None
    cfg: JkoConfig | None = None
    t: float | None = None

    def certified(self, constants: dict | None = None) -> list:
        """The moduli, each calibration key read by :func:`calibrated_modulus`."""
        return [calibrated_modulus(m, constants) if isinstance(m, str) else m
                for m in self.moduli]


# Every family that two or more suites, demos or tests read.  The rows with
# a horizon t are the rate studies, named as calibration.json's rate_families.
# The granular quartic's sharp constant is lambda = 1/6 (worst Dirac ray y = -2x).
FAMILIES = (
    Family("quadratic", quadratic_energy, (lipschitz(1.0),),
           lambda: dirac_state(1.5, 8), JkoConfig(tau=0.05, inner_tol=1e-10)),
    Family("entropy", entropy_energy, (lipschitz(0.0),),
           lambda: uniform_state(-0.5, 0.5, 48), JkoConfig(tau=0.02, inner_tol=1e-9)),
    Family("aggregation_cap", capped_aggregation_energy,
           (lipschitz(0.0), "aggregation_cap2"), lambda: uniform_state(-1.0, 1.0, 48),
           JkoConfig(tau=0.05, inner_tol=1e-9)),
    Family("ks_surrogate", ks_surrogate_energy, (lipschitz(0.0), "ks_surrogate_cap2"),
           lambda: uniform_state(-0.8, 0.8, 48), JkoConfig(tau=0.02, inner_tol=1e-9)),
    Family("granular", granular_energy, (polynomial(1.0, 1.0 / 6.0),)),
    Family("log_pinch", log_pinch_energy, ("log_pinch_s1",)),
    Family("quadratic_dirac", quadratic_energy, (lipschitz(1.0),),
           lambda: dirac_state(1.0, 2), JkoConfig(inner_tol=1e-9), t=0.5),
    Family("granular_dirac", granular_energy, (polynomial(1.0, 1.0 / 6.0),),
           lambda: dirac_state(1.0, 2), JkoConfig(inner_tol=1e-9), t=0.5),
    Family("ks_surrogate", ks_surrogate_energy, ("ks_surrogate_cap2",),
           lambda: uniform_state(-0.8, 0.8, 48), JkoConfig(inner_tol=1e-8), t=0.5),
)
_BY_NAME = {f.name: f for f in FAMILIES if f.t is None}      # rate rows aside
_FLOW_FIXTURES = [f for f in _BY_NAME.values() if f.start]  # evi, contraction


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _suite_ode(tol: float, seed: int, quick: bool) -> list:
    reports = []
    moduli = [lipschitz(-1.0), lipschitz(1.0),
              polynomial(1.0, -1.0), polynomial(1.0, 0.5),
              log_lipschitz(-1.0), log_lipschitz(0.5)]
    xs = [0.01, 0.05, 0.2, 0.5, 0.9]
    for mod in moduli:
        for x in xs:
            for t in (0.5, 1.0):
                for m in (10, 100, 1000):
                    if mod.flow_window(x) <= t:
                        reports.append(_skip(
                            "ode_error_bound",
                            f"outside window {mod.flow_window(x)}",
                            kind=mod.kind, lam=mod.lam, x=x, t=t))
                        continue
                    exact = mod.flow(t, x)
                    approx = mod.euler_iterate(t / m, x, m)
                    bound = mod.euler_error_bound(t, x, m)
                    reports.append(InequalityReport(
                        "ode_error_bound", abs(exact - approx), bound, tol,
                        context={"kind": mod.kind, "lam": mod.lam,
                                 "x": x, "t": t, "m": m}))
    # semigroup property of the exact flow
    for mod in (lipschitz(-0.7), polynomial(1.0, -1.0), log_lipschitz(-1.0)):
        for x in (0.05, 0.4):
            f_st = mod.flow(0.7, x)
            f_s_t = mod.flow(0.3, mod.flow(0.4, x))
            reports.append(InequalityReport(
                "ode_semigroup", abs(f_st - f_s_t), 0.0, 1e-8,
                context={"kind": mod.kind, "x": x}))
    return reports


def _suite_transport(tol: float, seed: int, quick: bool) -> list:
    rng = np.random.default_rng(seed)
    reports = []
    n_rand = 30 if quick else 200
    for k in range(n_rand):
        sizes = rng.integers(1, 16, size=2)
        mu = make_atomic(rng.normal(size=sizes[0]), rng.uniform(0.1, 1, sizes[0]))
        nu = make_atomic(rng.normal(size=sizes[1]), rng.uniform(0.1, 1, sizes[1]))
        d1 = w2_1d(mu, nu, return_plan=False)
        d2 = w2_exact(mu, nu)[0]
        reports.append(InequalityReport(
            "w2_1d_vs_exact", abs(d1 - d2), 0.0, 1e-9, context={"case": k}))
    for k in range(15 if quick else 60):
        n = int(rng.integers(2, 7))
        ms = [make_atomic(rng.normal(size=n), rng.uniform(0.1, 1, n))
              for _ in range(3)]
        d01 = w2_exact(ms[0], ms[1])[0]
        d10 = w2_exact(ms[1], ms[0])[0]
        d02 = w2_exact(ms[0], ms[2])[0]
        d12 = w2_exact(ms[1], ms[2])[0]
        reports.append(InequalityReport("w2_symmetry", abs(d01 - d10), 0.0,
                                        1e-9, context={"case": k}))
        reports.append(InequalityReport("w2_triangle", d02, d01 + d12, 1e-9,
                                        context={"case": k}))
    for k in range(20 if quick else 100):
        dim = 1 if k % 2 == 0 else 2
        n = int(rng.integers(2, 7))
        shape = (n,) if dim == 1 else (n, 2)
        mu0 = make_atomic(rng.normal(size=shape), rng.uniform(0.2, 1, n))
        mu1 = make_atomic(rng.normal(size=shape), rng.uniform(0.2, 1, n))
        base = make_atomic(rng.normal(size=shape), rng.uniform(0.2, 1, n))
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        alpha = float(rng.uniform(0.1, 0.9))
        lhs = g.squared_pseudo_distance_to_base(alpha)
        rhs = (1 - alpha) * g.squared_pseudo_distance_to_base(0.0) \
            + alpha * g.squared_pseudo_distance_to_base(1.0) \
            - alpha * (1 - alpha) * g.squared_pseudo_distance()
        reports.append(InequalityReport(
            "generalized_geodesic_identity", abs(lhs - rhs), 0.0, 1e-10,
            context={"case": k, "dim": dim, "alpha": alpha}))
        d_exact = w2_exact(mu0, mu1)[0]
        reports.append(InequalityReport(
            "pseudo_distance_dominates_w2", d_exact,
            pseudo_distance(g), 1e-9,
            context={"case": k, "dim": dim}))
    return reports


def _suite_evi(tol: float, seed: int, quick: bool) -> list:
    rng = np.random.default_rng(seed)
    reports = []
    steps = {"quadratic": (12, 40), "entropy": (10, 40),
             "aggregation_cap": (12, 45), "ks_surrogate": (10, 40)}
    for row in _FLOW_FIXTURES:
        fam, energy, mods, mu0 = row.name, row.energy(), row.certified(), row.start()
        cfg = replace(row.cfg, steps=steps[fam][0 if quick else 1])
        tr = flow(energy, mu0, cfg)
        cap = energy.constraint[1] if energy.constraint else None
        probes = [tr.states[len(tr.states) // 2], tr.states[-1]]
        probes.append(feasible_random_state(rng, len(mu0), cap=cap))
        for k in range(1, len(tr.states)):
            mu_prev = tr.states[k - 1]
            mu_tau = tr.states[k]
            info = tr.diagnostics[k - 1]
            for mod in mods:
                for pi, nu in enumerate(probes):
                    reports.append(check_discrete_evi(
                        energy, mu_prev, nu, cfg.tau, mod, cfg,
                        mu_tau=mu_tau, info=info, tol=tol,
                        name=f"discrete_evi[{fam}]"))
                    reports[-1].context.update({"fixture": fam, "step": k,
                                                "probe": pi, "modulus": mod.kind})
    return reports


def _suite_contraction(tol: float, seed: int, quick: bool) -> list:
    rng = np.random.default_rng(seed)
    reports = []
    # one-step contraction on the flow fixtures
    for row in _FLOW_FIXTURES:
        energy, mu0 = row.energy(), row.start()
        cap = energy.constraint[1] if energy.constraint else None
        nu0 = feasible_random_state(rng, len(mu0), cap=cap)
        for mod in row.certified():
            for tau in (0.01, 0.05):
                rep = check_contraction(energy, mu0, nu0, tau, mod,
                                        replace(row.cfg, tau=tau), tol=tol,
                                        name=f"contraction[{row.name}]")
                rep.context["fixture"] = row.name
                reports.append(rep)
    # semigroup rates at the sharp modulus, each family's pairs one stack per
    # time: (name, family, times, steps, rate slack, pairs).  The granular
    # pairs nearly saturate the rate; the pinch pairs sit deep in the branch
    quad = [rng.uniform(-2, 2, size=2) for _ in range(5 if quick else 20)]
    gran = [0.15 + 0.05 * k for k in range(2 if quick else 6)]
    pinch = [math.exp(-8.0 - 0.4 * k) / 2.0 for k in range(2 if quick else 5)]
    rates = [
        ("contraction_rate_lipschitz", "quadratic", (0.5, 1.0), 1024, 1e-3,
         [(dirac_state(a, 2), dirac_state(b, 2)) for a, b in quad]),
        ("contraction_rate_polynomial", "granular", (0.5,), 512, 1e-3,
         [(dirac_state(a, 2), dirac_state(-a, 2)) for a in gran]),
        ("contraction_rate_log_lipschitz", "log_pinch", (0.5,), 512, 1e-2,
         [(dirac_state(a, 2), dirac_state(-a, 2)) for a in pinch]),
    ]
    for name, fam, times, n, rate_slack, pairs in rates:
        energy, mod = _BY_NAME[fam].energy(), _BY_NAME[fam].certified()[-1]
        for t in times:
            reps = _semigroup_contraction(energy, pairs, t, n, mod,
                                          JkoConfig(inner_tol=1e-9), rate_slack, name)
            for k, rep in enumerate(reps):
                rep.context["pair"] = k
            reports.extend(reps)
    # n-step contraction corollary with the explicit error bookkeeping
    ks = _BY_NAME["ks_surrogate"]
    reports.append(check_nstep_contraction(
        ks.energy(), ks.start(), feasible_random_state(rng, 48, cap=2.0), 0.2,
        16 if quick else 64, ks.certified()[-1], ks.cfg, tol=tol))
    return reports


def _suite_rates(tol: float, seed: int, quick: bool) -> list:
    frozen = load_frozen()
    reports = []
    n_list = [8, 16, 32, 64, 128] if quick else [8, 16, 32, 64, 128, 256, 512]
    n_ref = 1024 if quick else 4096
    for row in (f for f in FAMILIES if f.t is not None):
        st = rate_study(row.energy(), row.start(), row.t, n_list,
                        row.certified(frozen)[-1], row.cfg, n_ref=n_ref, family=row.name)
        frozen_c = frozen["rate_families"].get(row.name, {}).get("C_star")
        ctx = st.to_dict()
        if frozen_c is not None and not quick:
            ctx["frozen_C_star"] = frozen_c
            ctx["frozen_match"] = abs(st.c_star - frozen_c) <= 0.05 * abs(frozen_c)
        worst = max((e / (st.c_star * b) if st.c_star * b > 0 else 0.0)
                    for e, b in zip(st.errors, st.bounds))
        reports.append(InequalityReport(
            f"rate_envelope[{row.name}]", worst, 1.0, 1e-9, context=ctx))
        reports.append(InequalityReport(
            f"rate_monotone[{row.name}]", st.monotone_violation(), 0.0, 1e-10,
            context={"family": row.name, "errors": st.errors}))
    return reports


def _pair_sampler_interaction(rng, n=32, cap=2.0):
    def sample(_k):
        mu0 = feasible_random_state(rng, n, cap=cap)
        mu1 = feasible_random_state(rng, n, cap=cap)
        return mu0, mu1, diagonal_plan(mu0, mu1)
    return sample


def _pinch_sampler(rng):
    """Dirac pairs near the log-pinch singularity, one pair per draw."""
    def sample(_k):
        a = math.exp(-rng.uniform(1.5, 4.0))
        b = a * math.exp(rng.uniform(-1.0, 1.0))
        mu0, mu1 = dirac_state(a, 4), dirac_state(b, 4)
        return mu0, mu1, diagonal_plan(mu0, mu1)
    return sample


def _suite_convexity(tol: float, seed: int, quick: bool) -> list:
    rng = np.random.default_rng(seed)
    reports = []
    trials = 40 if quick else 100
    agg, pinch_fam, gran, quad = (_BY_NAME[k] for k in (
        "aggregation_cap", "log_pinch", "granular", "quadratic"))
    mod_agg = agg.certified()[-1]
    reports.append(check_omega_convexity(
        agg.energy(), _pair_sampler_interaction(rng, n=32, cap=2.0),
        mod_agg, trials, tol=tol, name="omega_convexity[W_inf]"))
    reports.append(check_omega_convexity(
        drift_diffusion_energy(), _pair_sampler_interaction(rng, n=32, cap=2.0),
        calibrated_modulus("vm_drift_cap2"), trials, tol=tol,
        name="omega_convexity[V_m]"))
    # adversarial wrong-modulus control on a genuinely nonconvex 1D energy,
    # then the correct modulus on the same pairs
    energy_pinch = pinch_fam.energy()
    pinch = _pinch_sampler(rng)
    pinch_pairs = [pinch(k) for k in range(50)]
    wrong = check_omega_convexity(energy_pinch, pinch_pairs.__getitem__,
                                  lipschitz(0.0), 50, tol=tol,
                                  name="adversarial_wrong_modulus")
    # this control PASSES when a negative witness is found
    found = wrong.context["min_slack"] < -tol
    reports.append(InequalityReport(
        "adversarial_wrong_modulus_witness", 0.0 if found else 1.0, 0.0, 1e-12,
        context=wrong.context))
    reports.append(check_omega_convexity(
        energy_pinch, pinch_pairs.__getitem__, pinch_fam.certified()[-1], 50,
        tol=tol, name="omega_convexity[log_pinch]"))
    # granular quartic with its sharp polynomial certificate, including
    # pairs on the extremal ray y = -2x where the slack vanishes
    def granular_sampler(k):
        if k % 3 == 0:
            a = float(rng.uniform(-0.5, 0.5))
            mu0, mu1 = dirac_state(a, 2), dirac_state(-2.0 * a, 2)
        else:
            mu0 = dirac_state(float(rng.uniform(-1, 1)), 2)
            mu1 = dirac_state(float(rng.uniform(-1, 1)), 2)
        return mu0, mu1, diagonal_plan(mu0, mu1)

    reports.append(check_omega_convexity(
        gran.energy(), granular_sampler, gran.certified()[-1], 60,
        tol=tol, name="omega_convexity[granular]"))
    # HWI on the constrained suite
    for k in range(3 if quick else 10):
        mu0 = feasible_random_state(rng, 24, cap=2.0)
        mu1 = feasible_random_state(rng, 24, cap=2.0)
        samples = [feasible_random_state(rng, 24, cap=2.0) for _ in range(6)]
        rep = check_hwi(agg.energy(), mu0, mu1, mod_agg, samples, tol=1e-5,
                        name="hwi[W_inf]")
        rep.context["case"] = k
        reports.append(rep)
    a = 1.3
    rep = check_hwi(quad.energy(), dirac_state(a, 4), dirac_state(0.4, 4),
                    quad.certified()[-1],
                    [dirac_state(a - 1e-4, 4), dirac_state(0.4, 4)],
                    tol=1e-8, name="hwi[quadratic]")
    reports.append(rep)
    return reports


def _suite_appendix(tol: float, seed: int, quick: bool) -> list:
    reports = []
    s = np.linspace(0.0, 1.5, 400)
    mod = modulus_from_phi(s, s, +1)
    grid = np.linspace(1e-6, 1.0, 200)
    err = float(np.max(np.abs(mod.omega(grid) - grid)))
    reports.append(InequalityReport("phi_to_omega_linear", err, 0.0, 1e-8,
                                    context={"phi": "s", "sign": +1}))
    # time-dependent refinements are W2-Cauchy with ratio >= 1.2
    def schedule(k, tau):
        t = k * tau
        scale = 1.0 + 0.5 * math.sin(t)
        pot = Potential("sin_quadratic",
                        lambda x, s=scale: 0.5 * s * np.asarray(x) ** 2,
                        lambda x, s=scale: s * np.asarray(x))
        return Energy(potential=pot)

    t_final = 1.0
    n_ref = 512 if quick else 4096
    ref = flow_time_dependent(schedule, dirac_state(1.0, 4),
                              JkoConfig(tau=t_final / n_ref, steps=n_ref,
                                        inner_tol=1e-9)).states[-1]
    errs = {}
    for n in (16, 32, 64, 128):
        tr = flow_time_dependent(schedule, dirac_state(1.0, 4),
                                 JkoConfig(tau=t_final / n, steps=n,
                                           inner_tol=1e-9))
        errs[n] = w2(tr.states[-1], ref)
    for n in (16, 32, 64):
        ratio = errs[n] / errs[2 * n] if errs[2 * n] > 0 else math.inf
        reports.append(InequalityReport(
            "time_dependent_cauchy_ratio", 1.2, ratio, 1e-9,
            context={"n": n, "err_n": errs[n], "err_2n": errs[2 * n]}))
    # large vs small step on the quadratic fixture
    for h_frac in (0.0, 0.5, 1.0):
        rep = check_large_small_step(quadratic_energy(), dirac_state(1.0, 8),
                                     0.2, h_frac * 0.2, JkoConfig(inner_tol=1e-10),
                                     tol=1e-5)
        rep.context["h_frac"] = h_frac
        reports.append(rep)
    # asymmetric recursion deep audit on a small quadratic run
    reports.extend(check_asymmetric_recursion(
        quadratic_energy(), dirac_state(1.0, 4), 0.4, 8, 16, lipschitz(1.0),
        JkoConfig(inner_tol=1e-10), tol=1e-8))
    return reports


SUITES = {
    "ode": _suite_ode,
    "transport": _suite_transport,
    "evi": _suite_evi,
    "contraction": _suite_contraction,
    "rates": _suite_rates,
    "convexity": _suite_convexity,
    "appendix": _suite_appendix,
}


def run_suite(name: str, tol: float = DEFAULT_TOL, seed: int = 0,
              quick: bool = False) -> list:
    """Run one named suite; returns the list of InequalityReports."""
    if name == "all":
        names = list(SUITES)
    else:
        names = [name]
    for n in names:
        if n not in SUITES:
            raise KeyError(f"unknown suite {n!r} (have {sorted(SUITES)})")
    return [r for n in names for r in SUITES[n](tol, seed, quick)]
