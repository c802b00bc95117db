import json
import math

import numpy as np
import pytest

from omegaflow import jko, transport, verify
from omegaflow.energies import POTENTIALS, Energy, Kernel
from omegaflow.jko import JkoConfig, JkoError, proximal_step
from omegaflow.measures import QuantileMeasure, make_atomic
from omegaflow.moduli import lipschitz, polynomial, sqrt_psi
from omegaflow.transport import glue, pseudo_distance, w2, w2_exact
from omegaflow.verify import (
    InequalityReport,
    check_contraction,
    check_discrete_evi,
    check_hwi,
    check_large_small_step,
    check_nstep_contraction,
    check_omega_convexity,
    check_semigroup_contraction,
    diagonal_plan,
    dirac_state,
    feasible_random_state,
    load_frozen,
    quadratic_energy,
    rate_study,
    run_suite,
    uniform_state,
)


class TestReport:
    def test_pass_semantics(self):
        r = InequalityReport("x", lhs=1.0, rhs=1.0 - 1e-7, tolerance=1e-6)
        assert r.slack == pytest.approx(-1e-7)
        assert r.passed
        r2 = InequalityReport("x", lhs=1.0, rhs=0.0, tolerance=1e-6)
        assert not r2.passed

    def test_skip_counts_as_pass_with_reason(self):
        r = InequalityReport("x", 0.0, 0.0, 0.0, skipped=True,
                             skip_reason="precondition")
        assert r.passed
        d = r.to_dict()
        assert d["skipped"] and d["skip_reason"] == "precondition"

    def test_serializable(self):
        r = InequalityReport("x", 1.0, 2.0, 1e-6, context={"tau": 0.1})
        json.dumps(r.to_dict())


class TestDiscreteEvi:
    def test_probe_at_prox_point_collapses_to_onestep(self):
        # nu = mu_tau: lhs = -W2^2(mu, mu_tau), rhs from the one-step bound
        E = quadratic_energy()
        mu = dirac_state(1.0, 4)
        tau = 0.2
        cfg = JkoConfig(tau=tau, inner_tol=1e-11)
        mu_tau = proximal_step(E, mu, tau, cfg)
        rep = check_discrete_evi(E, mu, mu_tau, tau, lipschitz(1.0), cfg)
        assert rep.passed

    def test_quadratic_dirac_closed_form(self):
        # one-variable algebra oracle: mu = delta_a, nu = delta_b,
        # mu_tau = delta_{a/(1+tau)}
        E = quadratic_energy()
        a, b, tau = 1.4, -0.3, 0.25
        cfg = JkoConfig(tau=tau, inner_tol=1e-12)
        rep = check_discrete_evi(E, dirac_state(a, 4), dirac_state(b, 4),
                                 tau, lipschitz(1.0), cfg)
        at = a / (1.0 + tau)
        w_cross_sq = (at - b) ** 2
        lhs = w_cross_sq + 1.0 * tau * w_cross_sq - (a - b) ** 2
        rhs = 2 * tau * (b * b / 2 - at * at / 2) - (a - at) ** 2
        assert abs(rep.lhs - lhs) <= 1e-8
        assert abs(rep.rhs - rhs) <= 1e-8
        assert rep.passed

    def test_infinite_probe_skipped(self):
        E = Energy(internal=("entropy",))
        mu = uniform_state(-1, 1, 16)
        nu = make_atomic([0.0], [1.0])  # entropy undefined on atoms
        rep = check_discrete_evi(E, mu, nu, 0.1, lipschitz(0.0))
        assert rep.skipped
        assert "domain" in rep.skip_reason

    def test_failing_check_reruns_once_tighter(self, monkeypatch):
        # no slack passes a tolerance of -inf: one rerun at inner_tol / 10,
        # whose report is the check of that step, marked reran_tighter
        E = quadratic_energy()
        mu, nu = dirac_state(1.4, 4), dirac_state(-0.3, 4)
        cfg = JkoConfig(tau=0.25, inner_tol=1e-9)
        steps = []

        def counting(energy, state, tau, step_cfg, return_info=False):
            steps.append(step_cfg.inner_tol)
            return proximal_step(energy, state, tau, step_cfg, return_info=return_info)

        monkeypatch.setattr(verify, "proximal_step", counting)
        rep = check_discrete_evi(E, mu, nu, 0.25, lipschitz(1.0), cfg, tol=-math.inf)
        assert steps == [cfg.inner_tol, cfg.inner_tol / 10.0]
        assert not rep.passed and rep.context["reran_tighter"] is True
        tighter = JkoConfig(tau=0.25, inner_tol=cfg.inner_tol / 10.0)
        mu_tau, info = proximal_step(E, mu, 0.25, tighter, return_info=True)
        ref = check_discrete_evi(E, mu, nu, 0.25, lipschitz(1.0), tighter,
                                 mu_tau=mu_tau, info=info, tol=math.inf)
        assert (rep.lhs, rep.rhs) == (ref.lhs, ref.rhs)
        assert rep.context == {**ref.context, "reran_tighter": True}


class TestContraction:
    def test_equal_states(self):
        E = quadratic_energy()
        mu = dirac_state(0.5, 4)
        rep = check_contraction(E, mu, mu, 0.05, lipschitz(1.0),
                                JkoConfig(tau=0.05, inner_tol=1e-11))
        assert rep.passed
        assert rep.lhs <= 1e-12

    def test_tau_cap_skip(self, monkeypatch):
        # lam > 0 and tau >= 1 is skipped before any proximal step
        steps = []
        monkeypatch.setattr(verify, "proximal_step",
                            lambda *args, **kwargs: steps.append(1))
        E = quadratic_energy()
        rep = check_contraction(E, dirac_state(0.0, 4), dirac_state(1.0, 4),
                                2.0, lipschitz(1.0), JkoConfig(tau=2.0))
        assert rep.skipped and "cap" in rep.skip_reason
        assert steps == []
        assert rep.to_dict() == verify._skip(
            "contraction", "tau cap violated (tau >= 1)", tau=2.0).to_dict()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_2d_step_distance_from_plan_bitwise(self, monkeypatch, seed):
        # W2(nu, nu_tau) comes from nu's step plan; a fresh cold solve,
        # the call it replaces, must give the same report bit for bit
        rng = np.random.default_rng(seed)
        mu = make_atomic(rng.normal(size=(8, 2)), rng.uniform(0.5, 1.5, 8))
        nu = make_atomic(rng.normal(size=(8, 2)), rng.uniform(0.5, 1.5, 8))
        E, tau, modulus = quadratic_energy(), 0.05, lipschitz(-1.0)
        rep = check_contraction(E, mu, nu, tau, modulus, JkoConfig(tau=tau))
        assert not rep.skipped and "R" in rep.context
        _, info = proximal_step(E, nu, tau, JkoConfig(tau=tau), return_info=True)
        assert "plan" in info   # the step hands out the plan reused above
        monkeypatch.setattr(verify, "_step_plan",
                            lambda a, b, info: w2_exact(a, b)[1])
        ref = check_contraction(E, mu, nu, tau, modulus, JkoConfig(tau=tau))
        assert rep.to_dict() == ref.to_dict()
        assert (rep.lhs, rep.rhs) == (ref.lhs, ref.rhs)


class TestDiagonalPlan:
    @pytest.mark.parametrize("x, y", [
        ([0.3, 0.3], [-0.2, -0.2]),                 # 2-atom Diracs
        ([-1.0, 2.0], [0.5, 0.5]),                  # n = 2
        ([0.0, 0.0, 0.4, 0.4, 0.4], [-1.0, 0.1, 0.1, 0.2, 3.0]),   # ties
        ([0.7], [0.2]),
    ])
    def test_matches_node_loop(self, x, y):
        n = len(x)
        c = np.arange(1.0, n + 1.0) / (n * (n + 1) / 2)
        q = np.cumsum(c) - 0.5 * c
        qa, qb = QuantileMeasure(q, x, c), QuantileMeasure(q, y, c)
        a = qa.to_atomic()
        loop = np.zeros((n, n))
        for k in range(n):
            loop[k, k] = a.weights[k]
        plan = diagonal_plan(qa, qb)
        assert np.array_equal(plan.matrix, loop)
        assert np.array_equal(plan.target.points, np.asarray(y))


class TestSemigroupContraction:
    def test_t_zero(self):
        E = quadratic_energy()
        rep = check_semigroup_contraction(E, dirac_state(0.0, 2),
                                          dirac_state(1.0, 2), 0.0, 1,
                                          lipschitz(1.0))
        assert rep.passed
        assert rep.lhs == rep.rhs

    def test_t_zero_with_no_steps(self):
        # t = 0 reports W2(mu, nu) on both sides before any step count
        # reaches a JkoConfig, so n = 0 is accepted
        E = quadratic_energy()
        mu, nu = dirac_state(-0.5, 2), dirac_state(1.0, 2)
        rep = check_semigroup_contraction(E, mu, nu, 0.0, 0, lipschitz(1.0))
        assert rep.passed
        assert rep.lhs == rep.rhs == w2(mu, nu)

    def test_no_steps_rejected_before_any_skip(self):
        # n < 1 with t > 0 fails in JkoConfig even when the pair would skip
        with pytest.raises(JkoError, match="steps must be >= 1"):
            check_semigroup_contraction(quadratic_energy(), dirac_state(2.0, 2),
                                        dirac_state(0.0, 2), 0.5, 0,
                                        polynomial(1.0, -1.0))

    def test_quadratic_rate(self):
        E = quadratic_energy()
        rep = check_semigroup_contraction(
            E, dirac_state(-0.5, 2), dirac_state(1.0, 2), 0.5, 256,
            lipschitz(1.0), JkoConfig(tau=0.5 / 256, inner_tol=1e-10),
            rate_slack=1e-3)
        assert rep.passed
        # measured ratio within discretization slack of e^{-t}
        assert rep.lhs / rep.context["W0"] == pytest.approx(
            math.exp(-0.5), rel=2e-3)

    def test_same_nodes_other_masses(self):
        # W0 is the distance between the two cell-mass vectors, not 0
        mu = QuantileMeasure([0.25, 0.75], [0.0, 1.0], [0.5, 0.5])
        nu = QuantileMeasure([0.25, 0.75], [0.0, 1.0], [0.1, 0.9])
        rep = check_semigroup_contraction(
            quadratic_energy(), mu, nu, 0.5, 256, lipschitz(1.0),
            JkoConfig(inner_tol=1e-10))
        assert rep.context["W0"] == pytest.approx(math.sqrt(0.4), rel=1e-12)
        assert rep.passed and rep.lhs > 0.0

    def test_polynomial_and_log_lipschitz_rates(self):
        # the contraction suite's first granular and log-pinch pairs
        a = 0.15
        rep = check_semigroup_contraction(
            verify.granular_energy(2.0, 1.0), dirac_state(a, 2),
            dirac_state(-a, 2), 0.5, 512, polynomial(1.0, 1.0 / 6.0),
            JkoConfig(tau=0.5 / 512, inner_tol=1e-9), rate_slack=1e-3)
        assert rep.passed and not rep.skipped
        assert rep.context["rate_kind"] == "polynomial"
        a = math.exp(-8.0)
        lam = -load_frozen()["log_pinch_s1"]["lambda_abs"]
        rep = check_semigroup_contraction(
            verify.log_pinch_energy(1.0), dirac_state(a / 2.0, 2),
            dirac_state(-a / 2.0, 2), 0.5, 512, sqrt_psi(lam),
            JkoConfig(tau=0.5 / 512, inner_tol=1e-9), rate_slack=1e-2)
        assert rep.passed and not rep.skipped
        assert rep.context["rate_kind"] == "sqrt_psi"


def _pair_families():
    """name -> (energy, modulus, t, Dirac pairs (a, b)) for
    ``_semigroup_contraction``: in-window pairs mixed with each skip."""
    lam_pinch = -load_frozen()["log_pinch_s1"]["lambda_abs"]
    return {
        # t = 0: W2(0) on both sides, no step
        "t_zero": (quadratic_energy(), lipschitz(1.0), 0.0,
                   [(0.6, -0.2), (1.5, 0.3)]),
        "lipschitz": (quadratic_energy(), lipschitz(1.0), 0.5,
                      [(0.6, -0.2), (1.5, 0.3), (-0.4, -0.4)]),
        # W2(0) = 0.2 and 0.05 in the window, 0.8 past it at t = 2 (the
        # base 1 - 4 W2(0)^2 is negative), 1.5 above 1
        "polynomial": (verify.granular_energy(2.0, 1.0), polynomial(1.0, -1.0), 2.0,
                       [(0.1, -0.1), (0.5, -0.3), (1.0, -0.5), (0.05, 0.0)]),
        # W2(0) = 1e-4 and 5e-5 in the window, 1e-3 past it at t = 0.5,
        # 0.2 above the junction
        "log_lipschitz": (verify.log_pinch_energy(1.0), sqrt_psi(lam_pinch), 0.5,
                          [(5e-5, -5e-5), (5e-4, -5e-4), (0.1, -0.1),
                           (3e-5, -2e-5)]),
    }


class TestSemigroupContractionPairs:
    """``_semigroup_contraction`` gives every pair the report of its own
    ``check_semigroup_contraction`` and steps the pairs it does not skip
    as one stack."""

    @pytest.mark.parametrize("family", sorted(_pair_families()))
    def test_matches_single_checks(self, monkeypatch, family):
        energy, modulus, t, ab = _pair_families()[family]
        pairs = [(dirac_state(a, 2), dirac_state(b, 2)) for a, b in ab]
        n, cfg = 16, JkoConfig(inner_tol=1e-9)
        steps = []
        step = jko.proximal_step
        monkeypatch.setattr(jko, "proximal_step", lambda e, mu, *a, **kw: (
            steps.append(type(mu).__name__) or step(e, mu, *a, **kw)))
        reps = verify._semigroup_contraction(energy, pairs, t, n, modulus, cfg,
                                             1e-3, "rate")
        monkeypatch.setattr(jko, "proximal_step", step)
        singles = [check_semigroup_contraction(energy, mu, nu, t, n, modulus, cfg,
                                               1e-3, "rate") for mu, nu in pairs]
        assert [r.to_dict() for r in reps] == [r.to_dict() for r in singles]
        stepped = [r for r in reps if "Wt" in r.context]
        assert steps == (["QuantileStack"] * n if stepped else [])
        skips = {r.skip_reason for r in reps if r.skipped}
        assert (len(stepped), len(skips)) == {
            "t_zero": (0, 0), "lipschitz": (3, 0)}.get(family, (2, 2))


class TestNstepContraction:
    @pytest.mark.parametrize("t", [0.0, 0.5])
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_steps_rejected(self, t, n):
        with pytest.raises(JkoError, match="steps must be >= 1"):
            check_nstep_contraction(quadratic_energy(), dirac_state(0.0, 2),
                                    dirac_state(1.0, 2), t, n, lipschitz(-1.0))

    def test_ks_surrogate(self):
        # the contraction suite's quick KS input: 16 steps to t = 0.2
        lam = -4.0 * load_frozen()["ks_surrogate_cap2"]["C"]
        nu = feasible_random_state(np.random.default_rng(0), 48, cap=2.0)
        rep = check_nstep_contraction(
            verify.ks_surrogate_energy(2.0), uniform_state(-0.8, 0.8, 48), nu,
            0.2, 16, sqrt_psi(lam), JkoConfig(tau=0.2 / 16, inner_tol=1e-9))
        assert rep.passed and not rep.skipped
        assert rep.context["n"] == 16 and rep.context["R"] >= 3.0


class TestHwi:
    def test_identical_endpoints(self):
        E = quadratic_energy()
        mu = dirac_state(1.0, 4)
        rep = check_hwi(E, mu, mu, lipschitz(1.0), [dirac_state(0.5, 4)])
        assert rep.passed

    def test_quadratic_diracs_algebraic(self):
        # |dE|(delta_a) = |a|; (a^2-b^2)/2 <= |a||a-b| for lam = 0 part
        E = quadratic_energy()
        a, b = 1.3, 0.4
        samples = [dirac_state(a - 1e-5, 2), dirac_state(b, 2)]
        rep = check_hwi(E, dirac_state(a, 2), dirac_state(b, 2),
                        lipschitz(1.0), samples, tol=1e-6)
        assert rep.passed
        assert rep.context["slope_estimate"] <= a + 1e-6


    def test_zero_first_estimate_refines(self):
        # the only sample is mu0 itself, so the first slope estimate is 0
        # and the report comes from the geodesic refinement toward mu1; a
        # geodesic toward mu0 itself would land one ulp off mu0 and read a
        # slope of 1.5, above the true |dE|(mu0) = 1.3
        mu0 = dirac_state(1.3, 4)
        rep = check_hwi(quadratic_energy(), mu0, dirac_state(0.4, 4),
                        lipschitz(1.0), [mu0])
        assert rep.context["refined"] is True
        assert rep.passed and 0 < rep.context["slope_estimate"] <= 1.3 + 1e-12


class TestRateStudy:
    def test_zero_energy_zero_errors(self):
        st = rate_study(Energy(), uniform_state(-1, 1, 8), 0.5,
                        [4, 8, 16], lipschitz(0.0),
                        JkoConfig(tau=0.1, inner_tol=1e-10), n_ref=64,
                        family="zero")
        assert all(e <= 1e-10 for e in st.errors)

    def test_quadratic_dirac_rate(self):
        st = rate_study(quadratic_energy(), dirac_state(1.0, 2), 0.5,
                        [8, 16, 32, 64], lipschitz(1.0),
                        JkoConfig(tau=0.1, inner_tol=1e-10), n_ref=512,
                        family="quad")
        assert st.monotone()
        assert st.below_envelope()
        assert st.loglog_slope == pytest.approx(-1.0, abs=0.1)
        assert st.richardson_ratio >= 1.5


class TestOmegaConvexity:
    def test_convex_energy_passes(self, rng):
        E = quadratic_energy()

        def sampler(k):
            mu = feasible_random_state(rng, 12, cap=None)
            nu = feasible_random_state(rng, 12, cap=None)
            return mu, nu, diagonal_plan(mu, nu)

        rep = check_omega_convexity(E, sampler, lipschitz(0.0), 25, tol=1e-8)
        assert rep.passed
        assert rep.context["min_slack"] >= -1e-8

    def test_witness_serialized_on_failure(self, rng):
        # concave potential: certain negative slack, witness recorded
        from omegaflow.energies import Potential
        pot = Potential("concave", lambda x: -np.asarray(x, float) ** 2,
                        lambda x: -2.0 * np.asarray(x, float))
        E = Energy(potential=pot)

        def sampler(k):
            mu = dirac_state(0.1 * k, 2)
            nu = dirac_state(0.1 * k + 0.5, 2)
            return mu, nu, diagonal_plan(mu, nu)

        rep = check_omega_convexity(E, sampler, lipschitz(0.0), 5, tol=1e-8)
        assert not rep.passed
        assert "witness_mu0" in rep.context


    @pytest.mark.parametrize("seed", [0, 3])
    def test_pinch_certificate_sees_the_control_pairs(self, monkeypatch, seed):
        # the wrong-modulus control and the log-pinch certificate must be
        # evaluated on the same list of pairs
        seen = {}
        check = verify.check_omega_convexity

        def spy(energy, sampler, modulus, trials, tol=1e-6,
                name="omega_convexity"):
            pairs = seen.setdefault(name, [])

            def recording(k):
                pair = sampler(k)
                pairs.append(pair)
                return pair
            return check(energy, recording, modulus, trials, tol=tol, name=name)

        monkeypatch.setattr(verify, "check_omega_convexity", spy)
        reports = verify._suite_convexity(1e-6, seed, True)
        control = seen["adversarial_wrong_modulus"]
        certificate = seen["omega_convexity[log_pinch]"]
        assert len(control) == len(certificate) == 50
        for (a0, a1, _), (b0, b1, _) in zip(control, certificate):
            assert np.array_equal(a0.positions, b0.positions)
            assert np.array_equal(a1.positions, b1.positions)
        by_name = {r.name: r for r in reports}
        assert by_name["adversarial_wrong_modulus_witness"].passed
        assert by_name["omega_convexity[log_pinch]"].passed


class TestLargeSmallStep:
    def test_h_equals_tau(self):
        rep = check_large_small_step(quadratic_energy(), dirac_state(1.0, 4),
                                     0.2, 0.2, JkoConfig(tau=0.2, inner_tol=1e-11))
        assert rep.passed and rep.lhs <= 1e-8

    def test_h_zero(self):
        rep = check_large_small_step(quadratic_energy(), dirac_state(1.0, 4),
                                     0.2, 0.0, JkoConfig(tau=0.2, inner_tol=1e-11))
        assert rep.passed and rep.lhs <= 1e-8

    def test_h_half(self):
        rep = check_large_small_step(quadratic_energy(), dirac_state(1.0, 4),
                                     0.2, 0.1, JkoConfig(tau=0.2, inner_tol=1e-11))
        assert rep.passed


class TestSuites:
    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nonsense")

    def test_transport_suite_quick(self):
        reps = run_suite("transport", quick=True)
        assert len(reps) >= 50
        assert all(r.passed for r in reps)

    @pytest.mark.parametrize("name", ["ode", "contraction", "appendix"])
    def test_suite_quick_passes(self, name):
        reps = run_suite(name, quick=True)
        assert reps and all(r.passed for r in reps)

    def test_frozen_fixture_file_loads(self):
        frozen = load_frozen()
        assert "aggregation_cap2" in frozen
        assert frozen["aggregation_cap2"]["C"] > 0


class TestDiscreteEvi2D:
    def test_glued_pseudo_distance_path(self, rng):
        # quadratic potential on 2D atoms: the Lagrangian step has the
        # closed form x/(1+tau), and the EVI runs through the glued plans
        E = quadratic_energy()
        mu = make_atomic(rng.normal(size=(5, 2)), np.ones(5))
        nu = make_atomic(rng.normal(size=(5, 2)), np.ones(5))
        rep = check_discrete_evi(E, mu, nu, 0.2, lipschitz(1.0),
                                 JkoConfig(tau=0.2, inner_tol=1e-9), tol=1e-6)
        assert not rep.skipped
        assert rep.passed

    def test_2d_cross_term_dominates_w2(self, rng):
        # the glued pseudo-distance upper-bounds W2 between prox and probe
        a = make_atomic(rng.normal(size=(4, 2)), np.ones(4))
        b = make_atomic(rng.normal(size=(4, 2)), np.ones(4))
        base = make_atomic(rng.normal(size=(4, 2)), np.ones(4))
        cross = pseudo_distance(glue(w2_exact(a, base)[1], w2_exact(b, base)[1]))
        assert cross >= w2_exact(a, b, return_plan=False) - 1e-9


# ---------------------------------------------------------------------------
# 2D checks reuse the proximal step's plan
# ---------------------------------------------------------------------------

def _convex_2d_energy():
    # quadratic potential plus the convex kernel w(r) = r^2 / 4
    return Energy(potential=POTENTIALS["quadratic"]({}),
                  kernel=Kernel("smooth", d=2, profile=lambda r: np.asarray(r) ** 2 / 4.0,
                                dprofile=lambda r: np.asarray(r) / 2.0))


def _pair_2d(seed, n, kind):
    """Seeded 2D pair: ``random``; ``tied`` (repeated atoms, equal
    weights); ``rounded`` (atoms on a 0.1 lattice); ``same`` (nu = mu)."""
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
    wx, wy = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
    if kind == "tied":
        x, wx, wy = x[rng.integers(0, max(1, n // 2), n)], np.ones(n), np.ones(n)
    elif kind == "rounded":
        x, y = np.round(x, 1), np.round(y, 1)
    mu = make_atomic(x, wx)
    return mu, (mu if kind == "same" else make_atomic(y, wy))


def _reference_evi_2d(energy, mu, nu, tau, modulus, mu_tau):
    """The 2D lhs and rhs as computed before the check reused plans: four
    cold LP solves, with W_{2,mu} glued from fresh (mu_tau, mu) and
    (nu, mu) plans."""
    w_mu_nu = w2(mu, nu)
    _, plan_a = w2_exact(mu_tau, mu)
    _, plan_b = w2_exact(nu, mu)
    w_cross = pseudo_distance(glue(plan_a, plan_b))
    w_step = w2(mu, mu_tau)
    lhs = modulus.euler_step(tau, w_cross**2) - w_mu_nu**2
    rhs = 2.0 * tau * (energy.eval(nu) - energy.eval(mu_tau)) - w_step**2
    return lhs, rhs


class TestDiscreteEvi2DPlanReuse:
    TAU = 0.05

    def _check_and_reference(self, mu, nu):
        energy, modulus, cfg = _convex_2d_energy(), lipschitz(1.0), JkoConfig(tau=self.TAU)
        rep = check_discrete_evi(energy, mu, nu, self.TAU, modulus, cfg)
        assert "reran_tighter" not in rep.context
        mu_tau = proximal_step(energy, mu, self.TAU, cfg)
        lhs, rhs = _reference_evi_2d(energy, mu, nu, self.TAU, modulus, mu_tau)
        return rep, lhs, rhs

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_generic_pairs_bitwise(self, seed, n):
        rep, lhs, rhs = self._check_and_reference(*_pair_2d(seed, n, "random"))
        assert (rep.lhs, rep.rhs) == (lhs, rhs)

    @pytest.mark.parametrize("kind", ["tied", "rounded", "same"])
    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_degenerate_pairs_close_with_same_verdict(self, seed, n, kind):
        # a degenerate LP can end at another optimal vertex, so the glue
        # may differ in rounding: lhs moved by at most 5e-12 in seeded runs
        rep, lhs, rhs = self._check_and_reference(*_pair_2d(seed, n, kind))
        assert abs(rep.lhs - lhs) <= 1e-10 and abs(rep.rhs - rhs) <= 1e-10
        assert rep.passed == InequalityReport("ref", lhs, rhs, rep.tolerance).passed

    def test_one_cold_solve_of_its_own(self, monkeypatch):
        # W2(mu, nu) is the only LP: the certified step hands out its plan
        # and solves none
        calls = []
        original = transport._network_simplex
        monkeypatch.setattr(transport, "_network_simplex",
                            lambda *args: calls.append(1) or original(*args))
        mu, nu = _pair_2d(3, 16, "random")
        rep = check_discrete_evi(_convex_2d_energy(), mu, nu, self.TAU, lipschitz(1.0),
                                 JkoConfig(tau=self.TAU))
        assert len(calls) == 1
        assert rep.context["certificate_slack"] > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_given_step_without_plan_solves_it(self, monkeypatch, seed):
        # mu_tau given with an empty info: the plan mu -> mu_tau is a fresh
        # exact solve, the second LP beside W2(mu, nu)
        energy, cfg = _convex_2d_energy(), JkoConfig(tau=self.TAU)
        mu, nu = _pair_2d(seed, 16, "random")
        mu_tau = proximal_step(energy, mu, self.TAU, cfg)
        calls = []
        original = transport._network_simplex
        monkeypatch.setattr(transport, "_network_simplex",
                            lambda *args: calls.append(1) or original(*args))
        rep = check_discrete_evi(energy, mu, nu, self.TAU, lipschitz(1.0), cfg,
                                 mu_tau=mu_tau, info={})
        assert len(calls) == 2 and rep.passed
        assert (rep.lhs, rep.rhs) == _reference_evi_2d(
            energy, mu, nu, self.TAU, lipschitz(1.0), mu_tau)

    def test_capped_step_flag_in_context(self):
        # one L-BFGS iteration is not enough for this step: its flag, and
        # the certificate slack of the state it ends at, reach the context
        mu = make_atomic(np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]]),
                         np.array([1.0, 1e-3, 0.3]))
        rep = check_discrete_evi(_convex_2d_energy(), mu, mu, 0.3, lipschitz(1.0),
                                 JkoConfig(tau=0.3, inner_tol=1e-9, inner_max_iter=1))
        assert rep.context["inner_iters"] == 1
        assert rep.context["residual_flag"] is True
        assert rep.context["certificate_slack"] > 0
