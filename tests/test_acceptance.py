"""Acceptance suite: one test per criterion, pinned tolerances, one
pass/fail line printed per criterion (run with -s to see them)."""

import itertools
import math
import time

import numpy as np
import pytest

from omegaflow.energies import Energy, Kernel
from omegaflow.jko import JkoConfig, flow, flow_time_dependent, flows, proximal_step
from omegaflow.measures import QuantileMeasure, lp_norm, make_atomic
from omegaflow.moduli import lipschitz, log_lipschitz, modulus_from_phi, polynomial, sqrt_psi
from omegaflow.transport import glue, w2, w2_1d, w2_exact
from omegaflow.verify import (
    capped_aggregation_energy,
    dirac_state,
    load_frozen,
    quadratic_energy,
    run_suite,
    uniform_state,
)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1. ODE error bound ------------------------------------------------------

def test_criterion_1_ode_error_bound():
    mods = [lipschitz(-1.0), polynomial(1.0, 0.5), log_lipschitz(-1.0)]
    xs = [0.02, 0.1, 0.3, 0.5, 0.6]
    t0 = time.monotonic()
    violations = 0
    checks = 0
    for mod in mods:
        for x in xs:
            for t in (0.5, 1.0):
                assert mod.flow_window(x) > t
                exact = mod.flow(t, x)
                for m in (10, 100, 1000):
                    err = abs(exact - mod.euler_iterate(t / m, x, m))
                    bound = mod.euler_error_bound(t, x, m)
                    checks += 1
                    if err > bound:
                        violations += 1
    elapsed = time.monotonic() - t0
    report(1, violations == 0 and elapsed < 1.0 and checks == 90,
           f"{checks} grid points, {violations} violations, {elapsed:.2f}s")


# -- 2. exact OT -------------------------------------------------------------

def _perm_bruteforce(xs, ys):
    n = len(xs)
    best = math.inf
    perms = np.array(list(itertools.permutations(range(n))))
    costs = np.sum((np.asarray(xs)[None, :] - np.asarray(ys)[perms]) ** 2, axis=1)
    return float(costs.min()) / n


def test_criterion_2_exact_ot():
    t0 = time.monotonic()
    rng = np.random.default_rng(2025)
    worst_cross = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 33))
        n = int(rng.integers(2, 33))
        mu = make_atomic(rng.normal(size=m), rng.uniform(0.05, 1, m))
        nu = make_atomic(rng.normal(size=n), rng.uniform(0.05, 1, n))
        d1 = w2_1d(mu, nu, return_plan=False)
        d2 = w2_exact(mu, nu, return_plan=False)
        worst_cross = max(worst_cross, abs(d1 - d2))
    worst_bf = 0.0
    for k in range(200):
        if k % 2 == 0:
            n = int(rng.integers(2, 7))
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            mu = make_atomic(xs, np.ones(n))
            nu = make_atomic(ys, np.ones(n))
            ref = _perm_bruteforce(np.sort(xs), ys)
        else:
            # dyadic weights expanded to unit atoms for the enumeration
            parts = rng.integers(1, 4, size=2)
            rest = 6 - parts.sum()
            counts = np.array([parts[0], parts[1], rest] if rest > 0
                              else [parts[0], parts[1]], dtype=int)
            xs = rng.normal(size=len(counts))
            ys = rng.normal(size=len(counts))
            mu = make_atomic(xs, counts.astype(float))
            nu = make_atomic(ys, counts.astype(float))
            ox, oy = np.argsort(xs), np.argsort(ys)
            xs_split = np.repeat(xs[ox], counts[ox])
            ys_split = np.repeat(ys[oy], counts[oy])
            ref = _perm_bruteforce(xs_split, ys_split)
        d = w2_exact(mu, nu, return_plan=False)
        worst_bf = max(worst_bf, abs(d * d - ref))
    elapsed = time.monotonic() - t0
    report(2, worst_cross <= 1e-9 and worst_bf <= 1e-12 and elapsed < 30.0,
           f"cross |d1-d2| max {worst_cross:.2e}, brute-force gap max "
           f"{worst_bf:.2e}, {elapsed:.1f}s")


# -- 3. generalized-geodesic identity ---------------------------------------

def test_criterion_3_generalized_geodesic_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for k in range(100):
        dim = 1 if k % 2 == 0 else 2
        n = int(rng.integers(2, 7))
        shape = (n,) if dim == 1 else (n, 2)
        mu0 = make_atomic(rng.normal(size=shape), rng.uniform(0.2, 1, n))
        mu1 = make_atomic(rng.normal(size=shape), rng.uniform(0.2, 1, n))
        base = make_atomic(rng.normal(size=shape), rng.uniform(0.2, 1, n))
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        for a in rng.uniform(0, 1, 3):
            lhs = g.squared_pseudo_distance_to_base(a)
            rhs = ((1 - a) * g.squared_pseudo_distance_to_base(0.0)
                   + a * g.squared_pseudo_distance_to_base(1.0)
                   - a * (1 - a) * g.squared_pseudo_distance())
            worst = max(worst, abs(lhs - rhs))
    report(3, worst <= 1e-10, f"identity residual max {worst:.2e} over 100 fixtures")


# -- 4. JKO closed form ------------------------------------------------------

def test_criterion_4_jko_closed_form():
    E = quadratic_energy()
    worst = 0.0
    for a, tau in ((1.7, 0.25), (-0.8, 0.1), (2.2, 0.6)):
        out, _ = proximal_step(E, dirac_state(a, 8), tau,
                               JkoConfig(tau=tau, inner_tol=1e-12))
        worst = max(worst, float(np.max(np.abs(out.positions - a / (1 + tau)))))
    a, t = 1.0, 1.0
    ns = [8, 16, 32, 64, 128, 256, 512, 1024]
    errs = []
    for n in ns:
        tr = flow(E, dirac_state(a, 2), JkoConfig(tau=t / n, steps=n,
                                                  inner_tol=1e-11))
        errs.append(abs(tr.states[-1].positions[0] - a * math.exp(-t)))
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])
    report(4, worst <= 1e-10 and abs(slope + 1.0) <= 0.05,
           f"prox error {worst:.2e}, n-step slope {slope:.3f}")


# -- 5. discrete EVI ---------------------------------------------------------

def test_criterion_5_discrete_evi():
    reps = run_suite("evi", tol=1e-6, seed=0, quick=False)
    active = [r for r in reps if not r.skipped]
    worst = min(r.slack for r in active)
    ok = len(active) >= 500 and all(r.passed for r in active)
    report(5, ok, f"{len(active)} step-checks, min slack {worst:.2e}")


# -- 6. contraction rates ----------------------------------------------------

def test_criterion_6_contraction_rates():
    rng = np.random.default_rng(6)
    E = quadratic_energy()
    worst_ratio_excess = -math.inf
    pairs = []
    for _ in range(20):
        a, b = rng.uniform(-2, 2, size=2)
        if abs(a - b) < 0.1:
            b = a + 0.5
        pairs.append((a, b))
    for t in (0.5, 1.0):
        # the 40 flows of one t share a grid, so flows steps them as one
        # stack; each is bitwise the flow it would be alone
        n = 1024
        cfg = JkoConfig(tau=t / n, steps=n, inner_tol=1e-9)
        finals = [tr.states[-1] for tr in flows(
            E, [dirac_state(c, 2) for pair in pairs for c in pair], cfg)]
        for (a, b), fa, fb in zip(pairs, finals[::2], finals[1::2]):
            ratio = w2(fa, fb) / abs(a - b)
            worst_ratio_excess = max(worst_ratio_excess,
                                     ratio / (math.exp(-t) * (1 + 1e-3)) - 1.0)
    ok_i = worst_ratio_excess <= 0.0
    # (iii) log-Lipschitz pinch fixture inside the stated window
    frozen = load_frozen()
    lam_abs = frozen["log_pinch_s1"]["lambda_abs"]
    from omegaflow.verify import log_pinch_energy
    Ep = log_pinch_energy(1.0)
    ok_iii = True
    detail_iii = []
    for k in range(5):
        w0 = math.exp(-8.0 - 0.4 * k)
        window = math.log(math.log(w0 ** 2) / (-1 - math.sqrt(2))) / (2 * lam_abs)
        t = min(0.5, 0.9 * window)
        n = 512
        cfg = JkoConfig(tau=t / n, steps=n, inner_tol=1e-9)
        fa, fb = (tr.states[-1] for tr in flows(
            Ep, [dirac_state(w0 / 2, 2), dirac_state(-w0 / 2, 2)], cfg))
        wt = w2(fa, fb)
        bound = w0 ** math.exp(-2 * lam_abs * t) * (1 + 1e-2)
        detail_iii.append(wt / bound)
        ok_iii = ok_iii and wt <= bound
    report(6, ok_i and ok_iii,
           f"(i) max ratio excess {worst_ratio_excess:.2e}; "
           f"(iii) W(t)/bound max {max(detail_iii):.3f}")


# -- 7. convergence rates ----------------------------------------------------

def test_criterion_7_convergence_rates():
    t0 = time.monotonic()
    reps = run_suite("rates", tol=1e-6, seed=0, quick=False)
    elapsed = time.monotonic() - t0
    fails = [r for r in reps if not r.passed]
    frozen_ok = all(r.context.get("frozen_match", True) for r in reps
                    if "frozen_match" in r.context)
    report(7, not fails and frozen_ok and elapsed < 600.0,
           f"{len(reps)} rate checks, frozen C* consistent: {frozen_ok}, "
           f"{elapsed:.0f}s")


# -- 8. constrained aggregation ---------------------------------------------

def test_criterion_8_constrained_aggregation():
    cap = 2.0
    E = capped_aggregation_energy(cap)
    mu0 = uniform_state(-1.0, 1.0, 64)
    cfg = JkoConfig(tau=0.05, steps=70, inner_tol=1e-9)
    tr = flow(E, mu0, cfg)
    viol = max(E.cap_excess(s) for s in tr.states)
    drops = np.diff(tr.energies)
    # never increases; strict descent while the state still moves (the
    # trailing zeros are the converged free-boundary block)
    strictly_dec = bool(np.all(drops <= 0.0) and np.all(drops[:10] < 0.0))
    final = tr.states[-1]
    center = float(np.sum(final.cell_mass * final.positions))
    block = final.with_positions(center + (final.q_nodes - 0.5) / cap)
    dist = w2(final, block)
    report(8, viol <= 1e-8 and bool(strictly_dec) and dist <= 0.05,
           f"cap violation {viol:.2e}, strictly decreasing: {bool(strictly_dec)}, "
           f"W2 to block {dist:.3f}")


# -- 9. omega-convexity certificates ----------------------------------------

def test_criterion_9_omega_convexity():
    reps = run_suite("convexity", tol=1e-6, seed=0, quick=False)
    cert = [r for r in reps if r.name.startswith("omega_convexity[")]
    trials = sum(r.context["trials"] for r in cert
                 if r.name in ("omega_convexity[W_inf]", "omega_convexity[V_m]"))
    min_slack = min(r.context["min_slack"] for r in cert)
    adv = next(r for r in reps if r.name == "adversarial_wrong_modulus_witness")
    witness = adv.context["min_slack"] < -1e-6
    ok = all(r.passed for r in cert) and trials >= 200 and witness
    report(9, ok, f"{trials} constrained pairs, min slack {min_slack:.2e}, "
           f"adversarial witness slack {adv.context['min_slack']:.2e}")


# -- 10. appendix: phi conversion and time-dependent flows -------------------

def test_criterion_10_appendix():
    s = np.linspace(0.0, 1.5, 400)
    mod = modulus_from_phi(s, s, +1)
    grid = np.linspace(1e-6, 1.0, 400)
    phi_err = float(np.max(np.abs(mod.omega(grid) - grid)))

    def schedule(k, tau):
        t = k * tau
        scale = 1.0 + 0.5 * math.sin(t)
        from omegaflow.energies import Potential
        pot = Potential("sq", lambda x, s=scale: 0.5 * s * np.asarray(x) ** 2,
                        lambda x, s=scale: s * np.asarray(x))
        return Energy(potential=pot)

    t_final = 1.0
    ref = flow_time_dependent(schedule, dirac_state(1.0, 2),
                              JkoConfig(tau=t_final / 4096, steps=4096,
                                        inner_tol=1e-10)).states[-1]
    errs = {}
    for n in (16, 32, 64, 128):
        tr = flow_time_dependent(schedule, dirac_state(1.0, 2),
                                 JkoConfig(tau=t_final / n, steps=n,
                                           inner_tol=1e-10))
        errs[n] = w2(tr.states[-1], ref)
    ratios = [errs[n] / errs[2 * n] for n in (16, 32, 64)]
    ok = phi_err <= 1e-8 and all(r >= 1.2 for r in ratios)
    report(10, ok, f"phi->omega error {phi_err:.2e}, Cauchy ratios "
           + ", ".join(f"{r:.2f}" for r in ratios))
