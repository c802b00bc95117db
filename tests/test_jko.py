import dataclasses
import hashlib
import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import omegaflow
from omegaflow import jko, transport
from omegaflow.energies import (
    Energy,
    EnergyError,
    Kernel,
    POTENTIALS,
    Potential,
    _pair_geometry,
)
from omegaflow.jko import (
    FlowTrajectory,
    JkoConfig,
    JkoError,
    _QuantileObjective,
    flow,
    flow_time_dependent,
    isotonic_project,
    proximal_step,
)
from omegaflow.measures import (
    AtomicMeasure,
    QuantileMeasure,
    QuantileStack,
    gaps,
    interval_masses,
    lp_norm,
    make_atomic,
    pair_differences,
    same_grid,
)
from omegaflow.moduli import lipschitz
from omegaflow.transport import geodesic, w2, w2_1d, w2_exact
from omegaflow.verify import (
    capped_aggregation_energy,
    check_large_small_step,
    check_semigroup_contraction,
    dirac_state,
    entropy_energy,
    feasible_random_state,
    granular_energy,
    ks_surrogate_energy,
    log_pinch_energy,
    quadratic_energy,
    uniform_state,
)


# the energy terms of the quantile objective, one at a time (the kernel
# case adds a potential), and the weighted power term of a finite-p cap
_OBJECTIVES = {
    "potential": lambda: (Energy(potential=POTENTIALS["granular"]({})), {}),
    "kernel": lambda: (Energy(potential=POTENTIALS["quadratic"]({}),
                              kernel=Kernel("log", d=1)), {}),
    "entropy": lambda: (entropy_energy(), {}),
    "power": lambda: (Energy(internal=("power", 3.0)), {}),
    "penalty": lambda: (_CAPPED_NEWTONIAN, {"power": 4.0, "weight": 3.0}),
}


def _hessless_log_pinch():
    """``log_pinch`` without its ``hess``: FISTA takes every 1D step, as it
    did for ``log_pinch`` itself before the potential had a Hessian."""
    pot = POTENTIALS["log_pinch"]({"strength": 1.0})
    return Energy(potential=dataclasses.replace(pot, hess=None))


def _positions_digest(traj) -> str:
    return hashlib.sha256(b"".join(s.positions.tobytes()
                                   for s in traj.states)).hexdigest()


def _dense_hess(hess):
    """diag(e) + D^T diag(w) D from the pair (e, w) of
    :meth:`Energy.quantile_hess`, D the first differences."""
    e, w = hess
    d = np.diff(np.eye(len(e)), axis=0)
    return np.diag(e) + d.T @ np.diag(w) @ d


def isotonic_oracle(values, weights, min_gaps):
    """Exact projection by enumerating active constraint sets (small n)."""
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(v)
    g = np.zeros(n - 1) if min_gaps is None else np.asarray(min_gaps, float)
    offsets = np.concatenate([[0.0], np.cumsum(g)])
    z = v - offsets
    best, best_val = None, math.inf
    for active in itertools.product([0, 1], repeat=n - 1):
        # blocks of indices forced equal in z-coordinates
        blocks = [[0]]
        for i, a in enumerate(active):
            if a:
                blocks[-1].append(i + 1)
            else:
                blocks.append([i + 1])
        y = np.empty(n)
        for blk in blocks:
            y[blk] = np.sum(w[blk] * z[blk]) / np.sum(w[blk])
        if np.any(np.diff(y) < -1e-12):
            continue
        val = float(np.sum(w * (y - z) ** 2))
        if val < best_val - 1e-15:
            best_val = val
            best = y
    return best + offsets


def pav_reference(values, weights=None, min_gaps=None):
    """The pool-adjacent-violators loop as it ran before the vectorized
    pooling test: every atom enters the block stack; the fast path must
    match it bit for bit."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    offsets = np.zeros(n)
    if min_gaps is not None:
        np.cumsum(np.asarray(min_gaps, dtype=float), out=offsets[1:])
    bw, bs, bc = [], [], []
    for wi, zi in zip(w.tolist(), (v - offsets).tolist()):
        sw, ss, cnt = wi, wi * zi, 1
        while bw and bs[-1] * sw > ss * bw[-1]:
            sw += bw.pop()
            ss += bs.pop()
            cnt += bc.pop()
        bw.append(sw)
        bs.append(ss)
        bc.append(cnt)
    return np.repeat(np.divide(bs, bw), bc) + offsets


_PAV_KINDS = ("random", "feasible", "violator", "diracs", "saturated")


@st.composite
def _pav_inputs(draw):
    """(values, weights, min_gaps) for one of ``_PAV_KINDS``.  Gaps, weights
    and the z-coordinates of the structured kinds sit on dyadic grids, so
    values - offsets is exact and saturated caps give exactly equal z."""
    kind = draw(st.sampled_from(_PAV_KINDS))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = None
    if draw(st.booleans()):
        g = rng.integers(0, 4, size=n - 1) / 64.0
    offsets = np.zeros(n) if g is None else np.concatenate([[0.0], np.cumsum(g)])
    weights = draw(st.sampled_from(["none", "uniform", "nonuniform"]))
    w = {"none": None, "uniform": np.ones(n),
         "nonuniform": rng.integers(1, 64, size=n) / 16.0}[weights]
    if kind == "random":
        v = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=n)
        return v, w, g
    if kind == "diracs":
        z = np.full(n, rng.integers(-64, 64) / 8.0)
    elif kind == "saturated":
        z = np.sort(rng.integers(-2, 3, size=n) / 4.0)   # many ties
    else:
        z = np.sort(rng.integers(-512, 512, size=n) / 64.0)
    if kind == "violator" and n > 1:
        # one pair out of order, anywhere up to the last pair
        i = draw(st.integers(0, n - 2))
        z[i + 1] = z[i] - draw(st.sampled_from([1.0 / 64.0, 1.0, 100.0]))
    return z + offsets, w, g


class TestIsotonicProject:
    def test_feasible_unchanged(self):
        x = isotonic_project([0.0, 1.0, 3.0], None, [0.5, 0.5])
        assert np.allclose(x, [0.0, 1.0, 3.0])

    def test_two_point_pool(self):
        assert np.allclose(isotonic_project([1.0, 0.0]), [0.5, 0.5])

    def test_two_point_gap(self):
        assert np.allclose(isotonic_project([1.0, 0.0], None, [1.0]), [0.0, 1.0])

    def test_weighted_two_point(self):
        # KKT by hand: minimize w1(x1-1)^2 + w2(x2-0)^2 with x1 <= x2
        x = isotonic_project([1.0, 0.0], [3.0, 1.0])
        pooled = (3.0 * 1.0 + 1.0 * 0.0) / 4.0
        assert np.allclose(x, [pooled, pooled])

    def test_matches_active_set_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 7))
            v = rng.normal(size=n)
            w = rng.uniform(0.2, 2.0, size=n)
            g = rng.uniform(0.0, 0.5, size=n - 1)
            got = isotonic_project(v, w, g)
            ref = isotonic_oracle(v, w, g)
            assert np.max(np.abs(got - ref)) <= 1e-10

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_kkt_conditions(self, n, seed):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n)
        w = rng.uniform(0.2, 2.0, size=n)
        g = rng.uniform(0.0, 0.3, size=n - 1)
        x = isotonic_project(v, w, g)
        # feasibility
        assert np.all(np.diff(x) - g >= -1e-12)
        # stationarity: lambda_i = lambda_{i-1} - 2 w_i (x_i - v_i)
        # with lambda_0 = lambda_n = 0, lambda_i >= 0, compl. slackness
        lam = 0.0
        for i in range(n):
            lam = lam - 2.0 * w[i] * (x[i] - v[i])
            if i < n - 1:
                assert lam >= -1e-10
                slack = (x[i + 1] - x[i]) - g[i]
                assert abs(lam * slack) <= 1e-8
        assert abs(lam) <= 1e-10

    @given(_pav_inputs())
    @settings(max_examples=400, deadline=None)
    @example(([3.0], None, None))
    @example(([3.0], [2.0], []))
    @example(([1.0, 0.0], None, None))
    @example(([0.0, 1.0], [1.0, 3.0], [1.0]))
    @example(([0.0, 1.0, 2.0, 2.5], [1.0, 2.0, 1.0, 0.5], [1.0, 1.0, 1.0]))
    @example(([0.5, 0.5, 0.5], None, None))
    @example(([0.5, 0.5, 0.5], None, [0.25, 0.25]))
    def test_matches_pav_reference_bitwise(self, case):
        v, w, g = case
        got = isotonic_project(v, w, g)
        assert got.tobytes() == pav_reference(v, w, g).tobytes()


class TestProximalStep:
    def test_tau_zero_identity(self):
        mu = dirac_state(1.0, 4)
        assert proximal_step(quadratic_energy(), mu, 0.0)[0] is mu

    def test_quadratic_dirac_closed_form(self):
        for a, tau in ((1.7, 0.25), (-0.9, 0.04), (2.4, 1.5)):
            out, _ = proximal_step(quadratic_energy(), dirac_state(a, 8), tau,
                                   JkoConfig(tau=tau, inner_tol=1e-12))
            assert np.max(np.abs(out.positions - a / (1.0 + tau))) <= 1e-10

    def test_atomic_input_round_trip(self):
        mu = make_atomic([1.0, 1.0], [0.5, 0.5])
        out, _ = proximal_step(quadratic_energy(), mu, 0.5,
                               JkoConfig(tau=0.5, inner_tol=1e-11))
        assert isinstance(out, type(mu))
        assert np.max(np.abs(out.points - 1.0 / 1.5)) <= 1e-9

    def test_capped_step_stays_feasible(self):
        E = capped_aggregation_energy(2.0)
        mu = uniform_state(-1.0, 1.0, 32)
        out, _ = proximal_step(E, mu, 0.2, JkoConfig(tau=0.2, inner_tol=1e-9))
        assert lp_norm(out, math.inf) <= 2.0 + 1e-8

    def test_quantile_step_does_not_import_scipy_optimize(self):
        # importing scipy.optimize raised the KS-surrogate flow benchmark's
        # peak RSS by about 40 MB (41 -> 83 MB) and its set-up by 0.3 s
        # (0.13 -> 0.43 s), and scipy.linalg alone adds 27 MB, so neither
        # the package with its command line nor the quantile path,
        # isotonic projection included, loads any SciPy module
        code = ("import sys\n"
                "import omegaflow.cli\n"
                "from omegaflow.jko import proximal_step\n"
                "from omegaflow.verify import ks_surrogate_energy, uniform_state\n"
                "proximal_step(ks_surrogate_energy(), uniform_state(-1.0, 1.0, 16),"
                " 1e-3)\n"
                "from omegaflow.energies import Energy, Kernel\n"
                "proximal_step(Energy(kernel=Kernel('newtonian', d=1, c=2.0),"
                " constraint=(4.0, 1.2)), uniform_state(-0.4, 0.4, 8), 0.1)\n"
                "print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(omegaflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        assert out.stdout.strip() == "[]"

    def test_inner_solver_builds_no_validated_states(self, monkeypatch):
        # each solver point takes its state from with_positions, which
        # checks only the positions; before that the 64 steps below ran
        # 832 full constructions (13 a step), now they run none
        built = []
        original = QuantileMeasure.__post_init__

        def counting(self):
            built.append(1)
            original(self)

        mu0 = dirac_state(1.0, 2)
        monkeypatch.setattr(QuantileMeasure, "__post_init__", counting)
        flow(quadratic_energy(), mu0, JkoConfig(tau=0.05, steps=64,
                                                inner_tol=1e-10))
        assert len(built) <= 4

    @pytest.mark.parametrize("name", sorted(_OBJECTIVES))
    def test_value_and_grad_matches_value_grad(self, name):
        energy, term = _OBJECTIVES[name]()
        rng = np.random.default_rng(11)
        q = feasible_random_state(rng, 24, cap=None, span=0.5)
        x = np.sort(q.positions + rng.normal(scale=0.05, size=24))
        stack, x = QuantileStack.of([q]), x[None]
        obj = _QuantileObjective(energy, stack, 0.05, **term)
        (val,), grad = obj.value_and_grad(x)
        assert val == obj.value(x)[0] and math.isfinite(val)
        assert grad.tobytes() == obj.grad(x).tobytes()
        if term:   # the weighted power term adds weight U_p
            (u_p,) = Energy(internal=("power", term["power"])).internal_value(
                obj.state(x))
            (plain,) = _QuantileObjective(energy, stack, 0.05).value(x)
            assert val == pytest.approx(plain + term["weight"] * u_p,
                                        rel=1e-14)

    def test_stack_value_reads_each_row_fault(self):
        # row 0's gradient overflows, so its value reads +inf; row 1 is out
        # of order, so its value reads NaN and its gradient stays finite
        grid = dirac_state(0.0, 3)
        obj = _QuantileObjective(quadratic_energy(), QuantileStack.of([grid, grid]),
                                 0.05)
        x = np.array([[0.0, 1e308, 1.5e308], [0.5, 0.1, 0.2]])
        with np.errstate(over="ignore"):
            val, grad = obj.value_and_grad(x)
        assert val[0] == math.inf and math.isnan(val[1])
        assert not np.isfinite(grad[0]).all() and np.isfinite(grad[1]).all()

    def test_ks_surrogate_flow_positions_pinned(self, monkeypatch):
        # re-recorded when the internal term moved to the intervals between
        # nodes (the states agree with Newton's to 1.2e-12); FISTA's iterates
        # must not move by a bit (Newton solves this energy by default: the
        # FISTA path is pinned here)
        monkeypatch.setattr(jko, "_newton", jko._fista)
        mu0 = feasible_random_state(np.random.default_rng(2024), 64, cap=2.0)
        traj = flow(ks_surrogate_energy(), mu0,
                    JkoConfig(tau=1e-3, steps=3, inner_tol=1e-9))
        assert _positions_digest(traj) == \
            "73d4f78ff1066822c2b25280879b48f103a4b7b6a9459b5fe64cc541ce8c8b78"

    def test_nonconvex_multi_start_flow_positions_pinned(self):
        # log-pinch potential: nonconvex in quantile coordinates, and here
        # without a Hessian, so FISTA takes every step, from the previous
        # state.  The digest was recorded when each step after the first
        # also tried a start extrapolated from the two previous states,
        # which never won here, and before the inner solver stopped
        # re-evaluating its points
        traj = flow(_hessless_log_pinch(), dirac_state(5e-3, 2),
                    JkoConfig(tau=0.125 / 32, steps=32, inner_tol=1e-9))
        assert _positions_digest(traj) == \
            "686b9161e5eca408cdaac530c2ff015c54337fd84a77790f8490ffea8d406d81"

    def test_one_solve_per_step(self, monkeypatch):
        # one start per step, also where the energy is nonconvex: three
        # log-pinch steps without a Hessian are three FISTA solves
        calls = []

        def spy(*args):
            calls.append(args[1])
            return fista(*args)

        fista = jko._fista
        monkeypatch.setattr(jko, "_fista", spy)
        traj = flow(_hessless_log_pinch(), dirac_state(5e-3, 2),
                    JkoConfig(tau=0.125 / 32, steps=3, inner_tol=1e-9))
        assert len(calls) == 3
        for x0, prev in zip(calls, traj.states):
            assert x0.tobytes() == prev.positions.tobytes()

    def test_step_evaluates_each_point_once(self, monkeypatch):
        # Each projection after the start's gives one new point, a
        # backtracking trial or a residual probe, evaluated once; each
        # iteration evaluates its extrapolated point once, and the first
        # iteration reuses the start's evaluation.
        # A residual probe and the returned state reuse the state that
        # value() just built at that point, so only value and value_and_grad
        # build states.
        counts = dict.fromkeys(["value", "grad", "value_and_grad", "proj",
                                "state"], 0)

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(jko, "_newton", jko._fista)   # FISTA's counts
        for name in ("value", "grad", "value_and_grad"):
            monkeypatch.setattr(_QuantileObjective, name, counting(
                name, getattr(_QuantileObjective, name)))
        monkeypatch.setattr(jko, "_pav", counting("proj", jko._pav))
        monkeypatch.setattr(QuantileStack, "__init__", counting(
            "state", QuantileStack.__init__))
        mu = QuantileMeasure(np.array([0.25, 0.75]), np.array([-0.5, 1.0]),
                             np.array([0.5, 0.5]))
        out, info = proximal_step(quadratic_energy(), mu, 0.1,
                                  JkoConfig(tau=0.1, inner_tol=1e-12))
        np.testing.assert_allclose(out.positions, mu.positions / 1.1,
                                   rtol=0, atol=1e-12)
        assert info["inner_iters"] == 2      # as before the change
        builds = counts["value"] + counts["value_and_grad"]
        assert builds + counts["grad"] <= info["inner_iters"] + counts["proj"] - 1
        assert counts["grad"] > 0            # the residual was probed
        assert counts["state"] <= builds

    def test_objective_not_worse_than_stay(self):
        E = ks_surrogate_energy(2.0)
        mu = uniform_state(-0.7, 0.7, 32)
        tau = 0.05
        out, _ = proximal_step(E, mu, tau, JkoConfig(tau=tau, inner_tol=1e-9))
        obj_out = 0.5 / tau * w2(mu, out) ** 2 + E.eval(out)
        assert obj_out <= E.eval(mu) + 1e-9

    def test_2d_quadratic_contraction(self, rng):
        pts = rng.normal(size=(6, 2))
        mu = make_atomic(pts, np.ones(6))
        tau = 0.3
        out, _ = proximal_step(quadratic_energy(), mu, tau,
                               JkoConfig(tau=tau, inner_tol=1e-9))
        # V = |x|^2/2 acts per atom: positions shrink by 1/(1+tau)
        got = out.points_2d()
        expect = mu.points_2d() / (1.0 + tau)
        # match up to reordering: compare sorted first coordinates
        assert np.max(np.abs(np.sort(got[:, 0]) - np.sort(expect[:, 0]))) <= 1e-6

    def test_2d_step_reports_residual(self, rng):
        mu = make_atomic(rng.normal(size=(6, 2)), np.ones(6))
        cfg = JkoConfig(tau=0.3, inner_tol=1e-9)
        _, info = proximal_step(quadratic_energy(), mu, 0.3, cfg)
        assert math.isfinite(info["residual"])
        assert 0.0 <= info["residual"] <= cfg.inner_tol
        assert info["residual_flag"] is False

    def test_2d_atom_cap(self, rng):
        pts = rng.normal(size=(80, 2))
        mu = make_atomic(pts, np.ones(80))
        with pytest.raises(JkoError):
            proximal_step(quadratic_energy(), mu, 0.1)


# ---------------------------------------------------------------------------
# 2D proximal step: one Lagrangian solve and a cycle certificate
# ---------------------------------------------------------------------------

def _two_pass_grad(energy, z, w):
    """grad_i E / w_i at 2D atoms ``z``, as the 2D step computed it before
    one pair pass served value and field: grad V(z_i) plus
    ``Kernel.field``, with its own pair geometry; EnergyError where the
    field overflows."""
    g = np.zeros_like(z)
    if energy.potential is not None:
        g += np.asarray(energy.potential.grad(z), dtype=float).reshape(z.shape)
    if energy.kernel is not None:
        with np.errstate(over="ignore", invalid="ignore"):
            field = energy.kernel.field(*_pair_geometry(z, z), w)
        if not np.isfinite(field).all():
            raise EnergyError("kernel field is undefined (overflow): distinct "
                              "points lie too close together")
        g += field
    return g


def _two_pass_value_and_grad(self, z):
    """``_LagrangianObjective.value_and_grad`` as two passes: the gradient
    by :func:`_two_pass_grad` (it rejects an overflowing field first), the
    value through a validated ``AtomicMeasure``."""
    h = z - self.x + self.tau * _two_pass_grad(self.energy, z, self.w)
    d = z - self.x
    return self.energy.terms_value(AtomicMeasure(z.copy(), self.w),
                                   0.5 / self.tau * self.inner(d, d)), h


def _reference_prox_atomic_2d(energy, mu, tau, cfg):
    """The block-coordinate 2D step that the Lagrangian solve replaced:
    an exact LP, solved cold by ``w2_exact``, then up to 500 fixed-plan
    gradient steps, repeated for at most 40 passes until the objective
    change falls below ``inner_tol``.  Its states lie 5e-9 to 7e-9 from
    the exact minimizer on the convex energy below."""
    w = mu.weights
    z = mu.points_2d().copy()
    prev_obj = math.inf
    for outer in range(40):
        nu = make_atomic(z, w)
        dist, plan = w2_exact(mu, nu)
        obj = 0.5 / tau * dist * dist + energy.eval(nu)
        if outer > 0 and prev_obj - obj <= cfg.inner_tol * (1.0 + abs(obj)):
            break
        prev_obj = obj
        bary = plan.matrix.T @ mu.points_2d()
        colw = plan.matrix.sum(axis=0)
        L = float(np.max(colw)) / tau + 1.0
        for _ in range(500):
            g = (colw[:, None] * z - bary) / tau \
                + w[:, None] * _two_pass_grad(energy, z, w)
            z_new = z - g / L
            step = float(np.max(np.abs(z_new - z)))
            z = z_new
            if step < 0.1 * cfg.inner_tol:
                break
    return make_atomic(z, w)


def _convex_2d_energy():
    # quadratic potential plus the convex kernel w(r) = r^2 / 4
    return Energy(potential=POTENTIALS["quadratic"]({}),
                  kernel=Kernel("smooth", d=2, profile=lambda r: np.asarray(r) ** 2 / 4.0,
                                dprofile=lambda r: np.asarray(r) / 2.0))


def _closed_form_2d(mu, tau):
    """The exact step under :func:`_convex_2d_energy`, for which it is
    linear.  With the interaction (1/2) sum_ij w_i w_j |z_i - z_j|^2 / 4,
    stationarity reads (z_i - x_i) / tau + z_i + (z_i - zbar) / 2 = 0, so
    the mean zbar = xbar / (1 + tau) and z_i = (x_i / tau + zbar / 2) /
    (1 / tau + 3 / 2).  Atoms of zero weight stay put."""
    x, w = mu.points_2d(), mu.weights
    zbar = (w @ x) / (1.0 + tau)
    z = (x / tau + zbar / 2.0) / (1.0 / tau + 1.5)
    return np.where((w > 0)[:, None], z, x)


def _atoms_2d(seed, n, kind="random"):
    """A seeded 2D atomic measure; ``tied`` repeats atoms at equal weights,
    ``rounded`` puts the atoms on a 0.1 lattice (tied costs, some repeats),
    ``zero`` gives every third atom zero weight."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    wts = rng.uniform(0.5, 1.5, n)
    if kind == "tied":
        pts, wts = pts[rng.integers(0, max(1, n // 2), n)], np.ones(n)
    elif kind == "rounded":
        pts = np.round(pts, 1)
    elif kind == "zero":
        wts[::3] = 0.0
    return make_atomic(pts, wts)


class TestProx2dWarmStart:
    """The 2D step against the block-coordinate step with warm-started LP
    passes that it replaced (:func:`_reference_prox_atomic_2d`), and the
    step's own bookkeeping: residual, certificate slack and plan."""

    @pytest.mark.parametrize("kind", ["random", "tied"])
    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_bitwise_equal_to_cold_reference(self, seed, n, kind):
        # a cold rerun of the step, on fresh copies of the input, is the
        # same state bit for bit; the state lies within 1e-8 of the
        # replaced step's, which is that step's own error
        energy, tau = _convex_2d_energy(), 0.05
        mu = _atoms_2d(seed, n, kind)
        cfg = JkoConfig(tau=tau)
        got, info = proximal_step(energy, mu, tau, cfg)
        again, _ = proximal_step(energy, AtomicMeasure(mu.points.copy(), mu.weights.copy()),
                                 tau, cfg)
        assert np.array_equal(got.points, again.points)
        assert np.array_equal(got.weights, mu.weights)
        assert not info["residual_flag"] and info["residual"] <= cfg.inner_tol
        ref = _reference_prox_atomic_2d(energy, mu, tau, cfg)
        assert np.max(np.abs(got.points - ref.points)) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_rounded_lattice_within_one_ulp(self, seed):
        # tied costs make the LP degenerate; the certified diagonal plan's
        # cost is the cold LP's within one ulp (the LP also ends diagonal
        # on these seeds, so the two are equal)
        energy, tau = _convex_2d_energy(), 0.05
        mu = _atoms_2d(seed, 64, "rounded")
        out, info = proximal_step(energy, mu, tau, JkoConfig(tau=tau))
        cost = info["plan"].cost()
        lp_cost = w2_exact(mu, out)[1].cost()
        assert abs(cost - lp_cost) <= np.spacing(lp_cost)

    def test_certified_step_solves_no_lp(self, monkeypatch):
        calls = []
        original = transport._network_simplex
        monkeypatch.setattr(transport, "_network_simplex",
                            lambda *args: calls.append(1) or original(*args))
        mu = _atoms_2d(3, 16)
        out, info = proximal_step(_convex_2d_energy(), mu, 0.05,
                                  JkoConfig(tau=0.05))
        assert calls == []
        plan = info["plan"]
        assert plan.source is mu and plan.target is out
        assert np.array_equal(plan.matrix, np.diag(mu.weights))
        d = w2_exact(mu, out)[0]
        assert len(calls) == 1
        assert abs(transport._plan_distance(plan) ** 2 - d ** 2) <= 1e-12 * d ** 2

    def test_weight_spread_pair_converges_unflagged(self):
        # weights 1e3 apart: the metric diag(w_i / tau) scales each atom's
        # step, so the light atom converges with the heavy one
        mu = make_atomic(np.array([[0.0, 0.0], [1.0, 0.5]]), np.array([1.0, 1e-3]))
        tau = 0.3
        cfg = JkoConfig(tau=tau, inner_tol=1e-9, steps=1)
        out, info = proximal_step(quadratic_energy(), mu, tau, cfg)
        assert np.max(np.abs(out.points - mu.points / (1.0 + tau))) <= 1e-10
        assert info["residual"] <= cfg.inner_tol
        assert info["residual_flag"] is False
        from omegaflow.cli import _trajectory_csv
        csv = _trajectory_csv(flow(quadratic_energy(), mu, cfg), quadratic_energy())
        assert csv.splitlines()[-1].endswith(",False")

    def test_flow_diagnostics_hold_no_plan(self):
        energy, cfg = _convex_2d_energy(), JkoConfig(tau=0.05, steps=3)
        mu = _atoms_2d(5, 8)
        tr = flow(energy, mu, cfg)
        assert all("plan" not in d for d in tr.diagnostics)
        for k in range(cfg.steps):
            assert tr.step_distances[k] == w2(tr.states[k], tr.states[k + 1])

    def test_close_points_raise_instead_of_nan(self):
        # w'(r) overflows at r ~ 1e-160 and inf * 0 in the unit vector
        # gives NaN, which the step used to pass on into make_atomic
        energy = Energy(kernel=Kernel("riesz", alpha=2.0, d=3))
        pts = np.array([[0.0, 0.0], [0.0, 3.8e-161]])
        w = np.array([0.5, 0.5])
        with pytest.raises(EnergyError, match="too close"):
            energy.atoms_value_and_grad(pts, w)
        with pytest.raises(EnergyError, match="too close"):
            proximal_step(energy, make_atomic(pts, w), 0.05)

    def test_density_cap_raises(self):
        # atoms have no density, so every 2D state has E = +inf under a cap
        energy = Energy(potential=POTENTIALS["quadratic"]({}),
                        constraint=(math.inf, 2.0))
        with pytest.raises(JkoError, match="density constraints"):
            proximal_step(energy, _atoms_2d(0, 8), 0.1)
        with pytest.raises(JkoError, match="internal terms"):
            proximal_step(entropy_energy(), _atoms_2d(0, 8), 0.1)

    def test_non_finite_residual_is_flagged(self):
        # a tied pair under the attractive log kernel has E = -inf: the
        # solve stops at the start with an infinite residual (the replaced
        # step read nan there, an objective change inf - inf)
        energy = Energy(potential=POTENTIALS["quadratic"]({}),
                        kernel=Kernel("log", c=1.0))
        mu = make_atomic(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5]]),
                         np.ones(3))
        out, info = proximal_step(energy, mu, 0.1)
        assert info["residual"] == math.inf
        assert info["residual_flag"] is True
        assert info["inner_iters"] == 0
        assert np.array_equal(out.points, mu.points)


# the 2D kernels: smooth, log of either sign, Riesz and 2D Newtonian
_KERNELS_2D = {
    "smooth": Kernel("smooth", d=2, profile=lambda r: np.asarray(r) ** 2 / 4.0,
                     dprofile=lambda r: np.asarray(r) / 2.0),
    "log_repulsive": Kernel("log", c=-0.3),
    "log_attractive": Kernel("log", c=0.5),
    "riesz": Kernel("riesz", alpha=2.0, d=3),
    "newtonian_2d": Kernel("newtonian", d=2, c=-1.0),
}
_POTENTIALS_2D = {"none": None, "quadratic": POTENTIALS["quadratic"]({}),
                  "log_pinch": POTENTIALS["log_pinch"]({"strength": 1.0})}


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestOnePass2d:
    """``Energy.atoms_value_and_grad``, one pair pass for the value and the
    field, is bitwise the two passes it replaced: the value of
    ``terms_value(AtomicMeasure(z, w), start)`` and :func:`_two_pass_grad`;
    so the 2D step is bitwise the step of the two-pass objective."""

    @pytest.mark.parametrize("potential", sorted(_POTENTIALS_2D))
    @pytest.mark.parametrize("kernel", sorted(_KERNELS_2D))
    @pytest.mark.parametrize("n", [2, 3, 9, 64])
    def test_value_and_grad_bitwise(self, kernel, potential, n):
        energy = Energy(potential=_POTENTIALS_2D[potential],
                        kernel=_KERNELS_2D[kernel])
        rng = np.random.default_rng(n)
        for trial in range(6):
            z = rng.normal(scale=10.0 ** rng.uniform(-3, 1), size=(n, 2))
            if trial % 2:   # tied atoms
                z[rng.integers(0, n, n // 2 + 1)] = z[0]
            w = rng.uniform(0.5, 1.5, n)
            w /= w.sum()
            start = float(rng.uniform(0.0, 2.0))
            value, g = energy.atoms_value_and_grad(z, w, start)
            assert _same_bits(value, energy.terms_value(AtomicMeasure(z.copy(), w), start))
            assert _same_bits(g, _two_pass_grad(energy, z, w))

    @pytest.mark.parametrize("potential", sorted(_POTENTIALS_2D))
    @pytest.mark.parametrize("kernel", sorted(_KERNELS_2D))
    def test_steps_bitwise(self, monkeypatch, kernel, potential):
        energy = Energy(potential=_POTENTIALS_2D[potential],
                        kernel=_KERNELS_2D[kernel])
        cases = [(seed, n, kind, tau) for seed, (n, kind) in enumerate(
            [(2, "random"), (5, "random"), (9, "tied"), (17, "zero"), (33, "random")])
            for tau in (0.05, 0.3)]
        steps = [proximal_step(energy, _atoms_2d(seed, n, kind), tau,
                               JkoConfig(tau=tau, inner_tol=1e-9))
                 for seed, n, kind, tau in cases]
        monkeypatch.setattr(jko._LagrangianObjective, "value_and_grad",
                            _two_pass_value_and_grad)
        for (seed, n, kind, tau), (nu, info) in zip(cases, steps):
            ref, ref_info = proximal_step(energy, _atoms_2d(seed, n, kind), tau,
                                          JkoConfig(tau=tau, inner_tol=1e-9))
            assert nu.points.tobytes() == ref.points.tobytes()
            assert info["inner_iters"] == ref_info["inner_iters"]
            for key in ("residual", "certificate_slack"):
                assert _same_bits(info[key], ref_info[key])
            assert info["residual_flag"] == ref_info["residual_flag"]

    def test_overflowing_trial_point_rejected_without_warning(self):
        # an attractive Riesz kernel w(r) = -r^-8: at the full trial step
        # (r ~ 1e-40) w'(r) and w(r) both overflow, so the point is rejected
        # by its field, before a value would warn, and the half step taken
        # (tau keeps h = z - x + tau grad E / w, and |h|^2, finite)
        energy = Energy(kernel=Kernel("riesz", alpha=2.0, d=10, sign=-1))
        x = np.array([[0.0, 0.0], [0.0, 1e-30]])
        d = np.array([[0.0, 0.0], [0.0, -1e-30 + 1e-40]])
        objective = jko._LagrangianObjective(energy, x, np.array([0.5, 0.5]), 1e-125)
        calls = []

        def value_and_grad(z):
            calls.append(z[1, 1])
            return jko._LagrangianObjective.value_and_grad(objective, z)

        objective.value_and_grad = value_and_grad
        fz, h = objective.value_and_grad(x)
        slope = objective.inner(h, d) / objective.tau
        assert slope < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                energy.terms_value(AtomicMeasure(x + d, objective.w))
            with pytest.raises(EnergyError, match="too close"):
                objective.value_and_grad(x + d)
            z, f, _ = jko._armijo_step(objective, x, fz, jko._max_length(h), slope, d)
        assert calls[-2:] == [(x + d)[1, 1], (x + 0.5 * d)[1, 1]]
        assert z.tobytes() == (x + 0.5 * d).tobytes() and f < fz


class TestProx2dClosedForm:
    """Quadratic potential plus r^2 / 4: the step is linear
    (:func:`_closed_form_2d`), and the solve reaches it within 1e-10."""

    def test_interaction_convention(self):
        # the closed form assumes (1/2) sum over ordered pairs
        mu = make_atomic(np.array([[0.0, 0.0], [1.0, 2.0]]), np.array([1.0, 3.0]))
        assert _convex_2d_energy().interaction_value(mu) == \
            pytest.approx(0.25 * 0.75 * 5.0 / 4.0, rel=1e-15)

    @pytest.mark.parametrize("tau", [0.05, 0.3, 1.0, 3.0])
    @pytest.mark.parametrize("kind, n", [("random", 64), ("random", 2), ("tied", 16),
                                         ("zero", 16), ("zero", 3), ("rounded", 32)])
    def test_matches_closed_form(self, kind, n, tau):
        energy = _convex_2d_energy()
        mu = _atoms_2d(n + int(10 * tau), n, kind)
        cfg = JkoConfig(tau=tau, inner_tol=1e-11)
        out, info = proximal_step(energy, mu, tau, cfg)
        assert not info["residual_flag"] and "plan" in info
        assert np.max(np.abs(out.points - _closed_form_2d(mu, tau))) <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_default_tolerance_error(self, seed):
        # at the default inner_tol = 1e-8: the energy is convex, so the
        # step's Hessian is at least the metric diag(w_i / tau), and the
        # error in that metric is at most the residual's (up to rounding)
        energy, tau = _convex_2d_energy(), 0.05
        mu = _atoms_2d(seed, 64)
        cfg = JkoConfig(tau=tau)
        out, info = proximal_step(energy, mu, tau, cfg)
        err = out.points - _closed_form_2d(mu, tau)
        assert info["residual"] <= cfg.inner_tol
        assert math.sqrt(float(mu.weights @ (err * err).sum(axis=1))) \
            <= info["residual"] + 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_rounding_floor_ends_the_solve(self, seed):
        # tau = 10 and atoms at scale 10: the last iterations lower Phi by
        # less than its rounding.  Taking such drops as progress let the
        # solve wander on rounding noise until inner_max_iter; they count
        # only where they also halve the residual
        energy, tau = _convex_2d_energy(), 10.0
        rng = np.random.default_rng(seed)
        mu = make_atomic(10.0 * rng.normal(size=(32, 2)), 1e3 ** rng.uniform(0.0, 1.0, 32))
        out, info = proximal_step(energy, mu, tau, JkoConfig(tau=tau))
        assert info["inner_iters"] <= 10 and not info["residual_flag"]
        err = out.points - _closed_form_2d(mu, tau)
        assert math.sqrt(float(mu.weights @ (err * err).sum(axis=1))) \
            <= info["residual"] + 1e-13


def _brute_force_permutation_cost(C):
    return min(sum(C[i, p] for i, p in enumerate(perm))
               for perm in itertools.permutations(range(len(C))))


def _rotated_triangle(theta):
    """Atoms on the unit circle at 0, 120 and 240 degrees, each target the
    source rotated by ``theta``.  For 60 < theta < 90 degrees the 3-cycle
    i -> i - 1 beats the identity while no 2-cycle does."""
    ang = np.deg2rad([0.0, 120.0, 240.0])
    x = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    z = np.stack([np.cos(ang + np.deg2rad(theta)), np.sin(ang + np.deg2rad(theta))],
                 axis=1)
    return x, z


def _certificate_pair(seed, n, kind):
    """Sources x and targets z: ``near`` (z a shrunk, perturbed x: the
    identity mostly optimal), ``far`` (z independent of x), ``tied`` (x
    and z repeated together) and ``swap`` (z = x reversed)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    if kind == "tied":
        x = x[rng.integers(0, max(1, n // 2), n)]
        return x, 0.9 * x
    if kind == "swap":
        return x, x[::-1].copy()
    if kind == "far":
        return x, rng.normal(size=(n, 2))
    return x, 0.9 * x + rng.normal(scale=0.3, size=(n, 2))


def _certified(x, z):
    slack, scale = jko._cycle_slack(x, z)
    return slack >= -jko._CERTIFICATE_EPS * scale


class TestCycleCertificate:
    """The cycle test certifies the diagonal plan x_i -> z_i exactly when it
    is optimal: against brute force over permutations (equal weights) and
    against the exact LP (any weights, zero weights dropped)."""

    @pytest.mark.parametrize("kind", ["near", "far", "tied", "swap"])
    @pytest.mark.parametrize("n", [2, 3, 5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_weights_against_permutations(self, seed, n, kind):
        x, z = _certificate_pair(seed, n, kind)
        C = pair_differences(x, z)[1]
        best, diag = _brute_force_permutation_cost(C), float(np.trace(C))
        if _certified(x, z):
            assert abs(diag - best) <= 1e-12 * best
        else:
            assert diag > best

    @pytest.mark.parametrize("theta, optimal", [(30.0, True), (75.0, False),
                                                (89.0, False), (100.0, False)])
    def test_three_cycle_beats_identity(self, theta, optimal):
        x, z = _rotated_triangle(theta)
        C = pair_differences(x, z)[1]
        two_cycles = [C[i, j] + C[j, i] - C[i, i] - C[j, j]
                      for i, j in itertools.combinations(range(3), 2)]
        assert (min(two_cycles) < 0) == (theta > 90.0)
        assert _certified(x, z) == optimal
        assert (float(np.trace(C)) > _brute_force_permutation_cost(C)) == (not optimal)

    def test_one_atom_is_certified(self):
        slack, _ = jko._cycle_slack(np.zeros((1, 2)), np.ones((1, 2)))
        assert slack == math.inf

    @pytest.mark.parametrize("kind", ["near", "far", "tied", "swap"])
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("seed", range(3))
    def test_any_weights_against_lp(self, seed, n, kind):
        x, z = _certificate_pair(seed, n, kind)
        w = np.random.default_rng(seed + 100).uniform(0.5, 1.5, n)
        w[1::4] = 0.0
        mu, nu = make_atomic(x, w), make_atomic(z, w)
        keep = w > 0
        lp_cost = w2_exact(mu, nu)[1].cost()
        diag = transport.TransportPlan(mu, nu, np.diag(mu.weights)).cost()
        if _certified(x[keep], z[keep]):
            assert abs(diag - lp_cost) <= 1e-12 * lp_cost
        else:
            assert diag > lp_cost

    @pytest.mark.parametrize("tau", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_uncertified_step_flagged_without_plan(self, seed, tau):
        # attractive log (c = 0.5): atoms collide, and the diagonal plan
        # stops being optimal; such steps hand out no plan and are flagged
        energy = Energy(potential=POTENTIALS["quadratic"]({}), kernel=Kernel("log", c=0.5))
        mu = _atoms_2d(seed, 32)
        out, info = proximal_step(energy, mu, tau, JkoConfig(tau=tau))
        assert info["certificate_slack"] < 0 and "plan" not in info
        assert info["residual_flag"] is True
        diag = float(np.sum(mu.weights * ((mu.points - out.points) ** 2).sum(axis=1)))
        assert diag > w2_exact(mu, out)[1].cost()


class TestFlow:
    def test_dirac_chain_closed_form(self):
        tau, n = 0.1, 10
        tr = flow(quadratic_energy(), dirac_state(1.0, 4),
                  JkoConfig(tau=tau, steps=n, inner_tol=1e-12))
        expect = (1.0 + tau) ** -n
        assert abs(tr.states[-1].positions[0] - expect) <= 1e-9

    def test_refinement_approaches_exponential(self):
        t = 1.0
        errs = []
        for n in (16, 64, 256):
            tr = flow(quadratic_energy(), dirac_state(1.0, 2),
                      JkoConfig(tau=t / n, steps=n, inner_tol=1e-11))
            errs.append(abs(tr.states[-1].positions[0] - math.exp(-t)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 2.0 / 256

    def test_zero_energy_constant(self):
        E = Energy()
        tr = flow(E, uniform_state(-1, 1, 16), JkoConfig(tau=0.1, steps=4))
        for s in tr.states[1:]:
            assert w2(tr.states[0], s) <= 1e-9

    def test_energy_descent_and_onestep_bound(self):
        E = ks_surrogate_energy(2.0)
        cfg = JkoConfig(tau=0.04, steps=15, inner_tol=1e-9)
        tr = flow(E, uniform_state(-0.8, 0.8, 32), cfg)
        assert np.all(np.diff(tr.energies) <= cfg.inner_tol * cfg.tau + 1e-12)
        for k in range(1, len(tr.states)):
            drop = tr.energies[k - 1] - tr.energies[k]
            assert tr.step_distances[k - 1] ** 2 <= 2 * cfg.tau * drop + 1e-9

    def test_nstep_drift_bound(self):
        E = ks_surrogate_energy(2.0)
        cfg = JkoConfig(tau=0.04, steps=15, inner_tol=1e-9)
        mu0 = uniform_state(-0.8, 0.8, 32)
        tr = flow(E, mu0, cfg)
        c_mu = tr.energies[0] - tr.energies.min()
        n = cfg.steps
        assert w2(mu0, tr.states[-1]) \
            <= math.sqrt(2 * n * cfg.tau * c_mu) + 1e-6

    def test_determinism(self):
        E = ks_surrogate_energy(2.0)
        cfg = JkoConfig(tau=0.05, steps=6, inner_tol=1e-9)
        tr1 = flow(E, uniform_state(-0.8, 0.8, 24), cfg)
        tr2 = flow(E, uniform_state(-0.8, 0.8, 24), cfg)
        for a, b in zip(tr1.states, tr2.states):
            assert np.array_equal(a.positions, b.positions)

    def test_constraint_preserved_along_flow(self):
        E = capped_aggregation_energy(2.0)
        tr = flow(E, uniform_state(-1, 1, 32),
                  JkoConfig(tau=0.05, steps=20, inner_tol=1e-9))
        assert max(E.cap_excess(s) for s in tr.states) <= 1e-8

    def test_infinite_norm_is_a_violation(self):
        # atoms have infinite L-inf norm: the CSV says inf, and so must this
        E = capped_aggregation_energy(2.0)
        tr = flow(E, make_atomic(np.linspace(-1, 1, 8), np.full(8, 0.125)),
                  JkoConfig(tau=0.05, steps=3, inner_tol=1e-9))
        assert all(lp_norm(s, math.inf) == math.inf for s in tr.states)
        assert max(E.cap_excess(s) for s in tr.states) == math.inf


class TestTimeDependent:
    @staticmethod
    def _sin_schedule(k, tau):
        t = k * tau
        scale = 1.0 + 0.5 * math.sin(t)
        from omegaflow.energies import Potential
        pot = Potential("sq", lambda x, s=scale: 0.5 * s * np.asarray(x) ** 2,
                        lambda x, s=scale: s * np.asarray(x))
        return Energy(potential=pot)

    def test_constant_schedule_matches_flow(self):
        E = quadratic_energy()
        cfg = JkoConfig(tau=0.1, steps=6, inner_tol=1e-11)
        tr_a = flow(E, dirac_state(1.0, 4), cfg)
        tr_b = flow_time_dependent(lambda k, tau: E, dirac_state(1.0, 4), cfg)
        for a, b in zip(tr_a.states, tr_b.states):
            assert np.array_equal(a.positions, b.positions)

    def test_frozen_schedule_matches_flow_at_t0(self):
        frozen = self._sin_schedule(0, 0.1)
        cfg = JkoConfig(tau=0.1, steps=5, inner_tol=1e-11)
        tr_a = flow(frozen, dirac_state(1.0, 4), cfg)
        tr_b = flow_time_dependent(lambda k, tau: frozen, dirac_state(1.0, 4), cfg)
        for a, b in zip(tr_a.states, tr_b.states):
            assert np.array_equal(a.positions, b.positions)

    def test_refinements_cauchy(self):
        t = 1.0
        ref = flow_time_dependent(self._sin_schedule, dirac_state(1.0, 2),
                                  JkoConfig(tau=t / 1024, steps=1024,
                                            inner_tol=1e-10)).states[-1]
        errs = {}
        for n in (32, 64, 128):
            tr = flow_time_dependent(self._sin_schedule, dirac_state(1.0, 2),
                                     JkoConfig(tau=t / n, steps=n,
                                               inner_tol=1e-10))
            errs[n] = w2(tr.states[-1], ref)
        assert errs[32] / errs[64] >= 1.2
        assert errs[64] / errs[128] >= 1.2


class TestRescaledIntermediate:
    """The rescaled intermediate nu = ((tau-h)/tau t_mu^{mu_tau} + h/tau id) # mu
    of the large-vs-small-step identity J_h(nu) = mu_tau, as
    :func:`verify.check_large_small_step` builds it: the point at
    (tau - h) / tau on the geodesic from mu to mu_tau."""

    @staticmethod
    def _through_geodesic(E, mu, tau, h, cfg, plan_of=None):
        """W2(J_h(nu), mu_tau) with nu built here, along the plan that
        ``plan_of(mu, mu_tau)`` returns when given."""
        mu_tau, _ = proximal_step(E, mu, tau, cfg)
        plan = None if plan_of is None else plan_of(mu, mu_tau)[1]
        back, _ = proximal_step(E, geodesic(mu, mu_tau, (tau - h) / tau, plan), h, cfg)
        return w2(back, mu_tau)

    def test_h_equals_tau_returns_mu(self):
        # nu = mu, so J_tau(nu) is the large step itself, bit for bit
        rep = check_large_small_step(quadratic_energy(), uniform_state(-1, 1, 8),
                                     0.3, 0.3)
        assert rep.passed and rep.lhs == 0.0

    def test_h_zero_returns_mu_tau(self):
        # nu = mu_tau and J_0 is the identity; at tau = 0 also nu = mu
        mu = uniform_state(-1, 1, 8)
        for tau in (0.3, 0.0):
            rep = check_large_small_step(quadratic_energy(), mu, tau, 0.0)
            assert rep.passed and rep.lhs == 0.0

    def test_lemma_verification_quadratic(self):
        # J_h applied to the partial displacement returns mu_tau
        E = quadratic_energy()
        mu = dirac_state(1.0, 4)
        cfg = JkoConfig(inner_tol=1e-11)
        rep = check_large_small_step(E, mu, 0.2, 0.1, cfg)
        assert rep.lhs == self._through_geodesic(E, mu, 0.2, 0.1, cfg)
        assert rep.lhs <= 1e-5

    def test_h_out_of_range(self):
        mu = uniform_state(-1, 1, 8)
        for h in (0.5, -0.1):
            rep = check_large_small_step(quadratic_energy(), mu, 0.3, h)
            assert rep.skipped and rep.skip_reason == "need 0 <= h <= tau"

    def test_atomic_with_plan(self):
        # 1D atoms: nu displaces along the monotone plan mu -> mu_tau
        E = quadratic_energy()
        mu = make_atomic([0.0, 1.0], [0.5, 0.5])
        cfg = JkoConfig(inner_tol=1e-11)
        rep = check_large_small_step(E, mu, 0.3, 0.15, cfg)
        assert rep.lhs == self._through_geodesic(E, mu, 0.3, 0.15, cfg, w2_1d)
        assert rep.passed

    @pytest.mark.parametrize("dim", [1, 2])
    def test_atomic_without_plan_uses_optimal_plan(self, rng, dim):
        E = quadratic_energy()
        shape = (6,) if dim == 1 else (6, 2)
        mu = make_atomic(rng.normal(size=shape), rng.uniform(0.2, 1.0, 6))
        cfg = JkoConfig(inner_tol=1e-11)
        for h in (0.0, 0.1, 0.25, 0.3):
            rep = check_large_small_step(E, mu, 0.3, h, cfg)
            assert rep.lhs == self._through_geodesic(
                E, mu, 0.3, h, cfg, w2_1d if dim == 1 else w2_exact)
            assert rep.passed


_UNSUPPORTED = [
    pytest.param([0.0, 1.0], id="list"),
    pytest.param(np.array([[0.0, 0.0], [1.0, 1.0]]), id="array"),
]


class TestUnsupportedInput:
    """Only quantile and atomic states are stepped or checked."""

    @pytest.mark.parametrize("mu", _UNSUPPORTED)
    def test_proximal_step_raises(self, mu):
        with pytest.raises(JkoError, match="unsupported measure type"):
            proximal_step(quadratic_energy(), mu, 0.1)

    @pytest.mark.parametrize("mu", _UNSUPPORTED)
    def test_check_large_small_step_raises(self, mu):
        with pytest.raises(JkoError, match="unsupported measure type"):
            check_large_small_step(quadratic_energy(), mu, 0.1, 0.05)


@st.composite
def _tied_atoms(draw):
    """1D atoms on a coarse lattice (so ties are common) with weights in
    [0.05, 1] or 0, at least one of them positive."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 12)))
    x = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    w = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
                      min_size=n, max_size=n).filter(lambda w: sum(w) > 0))
    return make_atomic(0.5 * np.array(x, dtype=float), w)


class TestAtomicInput:
    """A 1D atomic state is stepped as the quantile state on its own atoms,
    so the quadratic step x -> x / (1 + tau) is exact for any masses."""

    @staticmethod
    def _step(mu, tau):
        return proximal_step(quadratic_energy(), mu, tau,
                             JkoConfig(tau=tau, inner_tol=1e-12))[0]

    @settings(max_examples=60, deadline=None)
    @given(mu=_tied_atoms(), tau=st.sampled_from([0.1, 0.25, 1.0]))
    def test_quadratic_step_exact(self, mu, tau):
        out = self._step(mu, tau)
        keep = mu.weights > 0
        assert np.max(np.abs(out.points - mu.points[keep] / (1.0 + tau))) \
            <= 1e-10
        np.testing.assert_allclose(out.weights, mu.weights[keep], rtol=1e-12,
                                   atol=0)

    def test_light_atom_kept(self):
        # the light atom is a quantile cell of its own, not merged into the
        # heavy one
        out = self._step(make_atomic([1.0, 2.0], [1e-3, 0.999]), 0.25)
        assert len(out) == 2
        assert np.max(np.abs(out.points - np.array([0.8, 1.6]))) <= 1e-10
        np.testing.assert_allclose(out.weights, [1e-3, 0.999], rtol=1e-12)

    def test_tied_unequal_masses_keep_momentum_in_state_space(self, monkeypatch):
        # the momentum point pulls the tied pair out of order (about
        # [0.24010, 0.24009, 1.6]), where no state exists: FISTA restarts
        monkeypatch.setattr(jko, "_newton", jko._fista)
        mu = QuantileMeasure(np.array([1.0, 3.0, 5.0]) / 6.0,
                             np.array([0.3, 0.3, 2.0]), np.array([0.1, 0.2, 0.7]))
        out = self._step(mu, 0.25)
        assert np.max(np.abs(out.positions - mu.positions / 1.25)) <= 1e-10

    def test_equal_weights_match_quantile_step(self):
        energy = Energy(potential=POTENTIALS["granular"]({}))
        n = 7
        mu = make_atomic(np.linspace(-1.0, 1.5, n) ** 3, np.full(n, 1.0 / n))
        cfg = JkoConfig(tau=0.1, inner_tol=1e-10)
        ref, _ = proximal_step(energy, QuantileMeasure(
            (np.arange(n) + 0.5) / n, mu.points, mu.weights), 0.1, cfg)
        out, _ = proximal_step(energy, mu, 0.1, cfg)
        assert out.points.tobytes() == ref.to_atomic().points.tobytes()
        assert out.weights.tobytes() == ref.to_atomic().weights.tobytes()


@st.composite
def _hard_cap_starts(draw):
    """A start for a step under the density cap 2: a random feasible state,
    tied pairs of atoms, a Dirac, or the uniform state saturated at the cap;
    2 to 24 nodes."""
    n = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["random", "tied", "dirac", "saturated"]))
    center = draw(st.floats(-1.0, 1.0))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return feasible_random_state(rng, n, cap=2.0,
                                     span=draw(st.floats(0.3, 1.5)))
    if kind == "tied":
        x = np.sort(draw(st.lists(st.floats(-1.0, 1.0), min_size=(n + 1) // 2,
                                  max_size=(n + 1) // 2)))
        return QuantileMeasure((np.arange(n) + 0.5) / n, np.repeat(x, 2)[:n],
                               np.full(n, 1.0 / n))
    if kind == "dirac":
        return dirac_state(center, n)
    return uniform_state(center - 0.25, center + 0.25, n)


class TestHardCapStepProperty:
    """One step under a hard cap stays under it, and from a state of finite
    energy it satisfies the one-step bound E(out) + W2^2 / (2 tau) <= E(mu)
    up to the rounding of the separately summed terms."""

    @pytest.mark.parametrize("make", [capped_aggregation_energy,
                                      ks_surrogate_energy])
    @settings(max_examples=60, deadline=None)
    @given(mu=_hard_cap_starts(), tau=st.sampled_from([1e-3, 0.05, 0.5]))
    def test_feasible_and_descends(self, make, mu, tau):
        energy = make(2.0)
        out, _ = proximal_step(energy, mu, tau, JkoConfig(tau=tau, inner_tol=1e-9))
        assert lp_norm(out, math.inf) <= 2.0 * (1.0 + 1e-9)
        e_mu = energy.eval(mu)
        if math.isfinite(e_mu):
            assert energy.eval(out) + w2(mu, out) ** 2 / (2.0 * tau) \
                <= e_mu + 1e-12 * max(1.0, abs(e_mu))


@st.composite
def _uncapped_starts(draw):
    """A 1D start of 2 to 24 nodes with random cell masses: random positions,
    tied pairs of nodes, or a Dirac."""
    n = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["random", "tied", "dirac"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "dirac":
        return dirac_state(float(rng.uniform(-1.0, 1.0)), n)
    x = np.sort(rng.normal(size=n))
    if kind == "tied":
        x = np.repeat(x[:(n + 1) // 2], 2)[:n]
    c = rng.uniform(0.5, 1.5, n)
    c /= c.sum()
    return QuantileMeasure(np.cumsum(c) - 0.5 * c, x, c)


_UNCAPPED_ENERGIES = {
    "quadratic": quadratic_energy(),
    "granular": granular_energy(),
    "log_pinch": log_pinch_energy(),
    "entropy": entropy_energy(),
    "power3": Energy(internal=("power", 3.0)),
    "newtonian_repulsive": Energy(kernel=Kernel("newtonian", d=1, c=-1.0)),
}


class TestUncappedStepProperty:
    """One 1D step without a cap satisfies the one-step bound
    E(out) + W2^2 / (2 tau) <= E(mu) from every start of finite energy, up
    to the rounding of the separately summed terms."""

    @pytest.mark.parametrize("name", list(_UNCAPPED_ENERGIES))
    # Converging draws take at most about 800 iterations (entropy from a
    # Dirac); tied starts under the power term end flagged (item 6) after
    # the whole budget, so it is 2000 here, not 20000.  The bound is
    # checked on flagged states too: the solvers return their best iterate.
    @settings(max_examples=25, deadline=None)
    @given(mu=_uncapped_starts(), tau=st.sampled_from([1e-3, 0.05, 0.5]))
    def test_descends(self, name, mu, tau):
        energy = _UNCAPPED_ENERGIES[name]
        out, _ = proximal_step(energy, mu, tau, JkoConfig(
            tau=tau, inner_tol=1e-9, inner_max_iter=2000))
        e_mu = energy.eval(mu)
        if math.isfinite(e_mu):
            assert energy.eval(out) + w2(mu, out) ** 2 / (2.0 * tau) \
                <= e_mu + 1e-12 * max(1.0, abs(e_mu))

    # the minimal example test_descends[power3] found: U'' is 0 below
    # GAP_FLOOR, so Newton overshoots to positions near 1e17 and hands the
    # step to FISTA.  The step ended flagged while a one-ulp loss of order
    # at 1e17 raised MeasureError (the order check's tolerance was 1e-12
    # absolute); under the relative tolerance FISTA converges
    def test_dirac_start_under_power_term_converges(self):
        _, info = proximal_step(_UNCAPPED_ENERGIES["power3"], dirac_state(0.0, 5),
                                1e-3, JkoConfig(tau=1e-3, inner_tol=1e-9))
        assert not info["residual_flag"]

    def test_lost_order_ends_the_solve(self):
        # FISTA's projected point near 1e17 lost its order to rounding
        # here, beyond the absolute tolerance the order check had; the step
        # satisfies the one-step bound and raises no MeasureError.
        energy, mu = _UNCAPPED_ENERGIES["power3"], dirac_state(0.0, 5)
        out, _ = proximal_step(energy, mu, 1e-3, JkoConfig(tau=1e-3, inner_tol=1e-9))
        e_mu = energy.eval(mu)
        assert energy.eval(out) + w2(mu, out) ** 2 / 2e-3 \
            <= e_mu + 1e-12 * abs(e_mu)


@st.composite
def _degenerate_2d_starts(draw):
    """2 to 16 seeded 2D atoms: random, tied (repeated points), coincident
    (all at one point), or with weights up to 10 or up to 1e3 apart."""
    n = draw(st.integers(2, 16))
    kind = draw(st.sampled_from(["random", "tied", "coincident", "unequal",
                                 "spread"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, 2))
    wts = rng.uniform(0.5, 1.5, n)
    if kind == "tied":
        pts = pts[rng.integers(0, max(1, n // 2), n)]
    elif kind == "coincident":
        pts = np.repeat(pts[:1], n, axis=0)
    elif kind == "unequal":
        wts = 10.0 ** rng.uniform(0.0, 1.0, n)
    elif kind == "spread":
        wts = 1e3 ** rng.uniform(0.0, 1.0, n)
    return make_atomic(pts, wts)


class TestDegenerate2dStepProperty:
    """One 2D step under the convex energy (quadratic + r^2/4) satisfies the
    one-step bound E(out) + W2^2 / (2 tau) <= E(mu) up to the rounding of the
    separately summed terms, and converges unflagged, on every drawn start
    and at every tau (the metric diag(w_i / tau) makes the solve blind to
    how far apart the weights are)."""

    @settings(max_examples=60, deadline=None)
    @given(mu=_degenerate_2d_starts(), tau=st.sampled_from([0.05, 0.3, 1.0, 3.0]))
    def test_descends_and_converges(self, mu, tau):
        energy = _convex_2d_energy()
        out, info = proximal_step(energy, mu, tau, JkoConfig(tau=tau))
        e_mu = energy.eval(mu)
        assert energy.eval(out) + w2(mu, out) ** 2 / (2.0 * tau) \
            <= e_mu + 1e-12 * max(1.0, abs(e_mu))
        assert not info["residual_flag"]


class TestLogPinch2dStep:
    """``log_pinch`` is radial, so a 2D step under it is an (n, 2) solve
    like any other, and it satisfies the one-step bound."""

    @pytest.mark.parametrize("tau", [1e-3, 0.01, 0.1])
    @pytest.mark.parametrize("n", [2, 3, 16])
    def test_descends(self, n, tau):
        energy = log_pinch_energy(1.0)
        rng = np.random.default_rng(100 * n + int(1e3 * tau))
        mu = make_atomic(rng.normal(scale=0.05, size=(n, 2)), rng.uniform(0.5, 1.5, n))
        out, info = proximal_step(energy, mu, tau, JkoConfig(tau=tau))
        assert isinstance(out, AtomicMeasure) and out.points.shape == (n, 2)
        e_mu = energy.eval(mu)
        assert energy.eval(out) + w2(mu, out) ** 2 / (2.0 * tau) \
            <= e_mu + 1e-12 * max(1.0, abs(e_mu))
        assert not info["residual_flag"]
        # the potential pushes every atom away from the origin
        assert np.all(np.sum(out.points ** 2, axis=1) > np.sum(mu.points ** 2, axis=1))


_QUADRATIC = POTENTIALS["quadratic"]({})
_CAPPED_NEWTONIAN = Energy(kernel=Kernel("newtonian", d=1, c=2.0),
                           constraint=(4.0, 1.2))
# energies with a Hessian, each with the density cap its spacing
# constraints enforce (None: no cap)
_NEWTON_ENERGIES = {
    "granular": (lambda: Energy(potential=POTENTIALS["granular"]({})), None),
    "entropy": (entropy_energy, None),
    "power3": (lambda: Energy(potential=_QUADRATIC, internal=("power", 3.0)),
               None),
    "ks": (ks_surrogate_energy, 2.0),
    "capped": (capped_aggregation_energy, 2.0),
    "power_inf": (lambda: Energy(potential=_QUADRATIC,
                                 constraint=(math.inf, 1.0)), 1.0),
    "newtonian": (lambda: Energy(potential=_QUADRATIC,
                                 kernel=Kernel("newtonian", d=1, c=2.0)), None),
    # repulsive: concave as a pair interaction, but linear on the sorted cone
    "repulsive": (lambda: Energy(potential=_QUADRATIC,
                                 kernel=Kernel("newtonian", d=1, c=-2.0)), None),
}


def _solve_one(solver, objective, x, min_gaps, tol, max_iter):
    """(x, iterations, residual, value) of ``solver`` on the stack of one
    of ``objective`` from positions ``x`` ((n,))."""
    xs, its, res, f = solver(objective, x[None], min_gaps, tol, max_iter)
    assert xs.shape == (1, len(x)) and len(its) == len(res) == len(f) == 1
    return xs[0], its[0], res[0], float(f[0])


def _newton_and_fista(energy, q, tau, tol=1e-12):
    """(x, iterations, residual, value) of Newton and of FISTA on one step."""
    min_gaps = jko._spacing_min_gaps(energy, q.cell_mass)
    return [_solve_one(solver, _QuantileObjective(energy, QuantileStack.of([q]), tau),
                       q.positions, min_gaps, tol, 20000)
            for solver in (jko._newton, jko._fista)]


def _assert_newton_agrees(energy, q, tau):
    """Newton's step matches FISTA's; returns Newton's iteration count."""
    (xn, its, res_n, fn), (xf, _, res_f, ff) = _newton_and_fista(energy, q, tau)
    assert res_n <= 1e-12 and res_f <= 1e-12
    assert np.max(np.abs(xn - xf)) <= 1e-9
    assert fn <= ff + 1e-12 * (1.0 + abs(ff))
    return its


class TestNewton:
    """The projected Newton solver of quantile steps with a Hessian against
    FISTA, the reference it replaces."""

    def test_convex_steps_take_newton(self, monkeypatch):
        calls = []

        def spy(name, solver):
            def wrapped(*args):
                calls.append(name)
                return solver(*args)
            return wrapped

        monkeypatch.setattr(jko, "_newton", spy("newton", jko._newton))
        monkeypatch.setattr(jko, "_fista", spy("fista", jko._fista))
        proximal_step(ks_surrogate_energy(), uniform_state(-0.8, 0.8, 16), 1e-3)
        assert calls == ["newton"]
        proximal_step(_hessless_log_pinch(), dirac_state(5e-3, 2), 1e-3)
        assert calls == ["newton", "fista"]
        # a finite-p cap is convex: the solve without it and every solve of
        # the multiplier search take Newton
        del calls[:]
        _, info = proximal_step(_CAPPED_NEWTONIAN, uniform_state(-0.4, 0.4, 8),
                                0.1)
        assert len(calls) > 1 and set(calls) == {"newton"}
        assert not info["residual_flag"]

    @pytest.mark.parametrize("a, n", [(1.0, 2), (-2.5, 8)])
    def test_quadratic_dirac_step_exact_in_one_iteration(self, a, n):
        out, info = proximal_step(quadratic_energy(), dirac_state(a, n), 0.1,
                                  JkoConfig(tau=0.1, inner_tol=1e-12))
        np.testing.assert_allclose(out.positions, a / 1.1, rtol=0, atol=1e-12)
        assert info["inner_iters"] == 1 and not info["residual_flag"]

    @pytest.mark.parametrize("w", [1e-2, 1e-5, 1e-8])
    def test_mass_ratio_does_not_slow_the_step(self, w):
        # FISTA steps every node by one scalar 1/L: at w = 1e-8 it used up
        # all 20000 iterations and ended 7.5e-5 off
        mu = make_atomic([1.0, 2.0], [w, 1.0 - w])
        out, info = proximal_step(quadratic_energy(), mu, 0.25,
                                  JkoConfig(tau=0.25, inner_tol=1e-12))
        assert info["inner_iters"] <= 5 and not info["residual_flag"]
        np.testing.assert_allclose(out.points, [0.8, 1.6], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(_NEWTON_ENERGIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_fista_on_random_states(self, name, seed):
        make, cap = _NEWTON_ENERGIES[name]
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        tau = float(rng.choice([1e-3, 0.05, 0.5]))
        q = feasible_random_state(rng, n, cap=cap, span=rng.uniform(0.3, 1.5))
        _assert_newton_agrees(make(), q, tau)

    @pytest.mark.parametrize("name", sorted(_NEWTON_ENERGIES))
    @pytest.mark.parametrize("n", [2, 3, 9])
    @pytest.mark.parametrize("tau", [1e-3, 0.5])
    def test_agrees_with_fista_on_degenerate_states(self, name, n, tau):
        # without a cap: tied pairs of atoms, and one Dirac.  Ties give a
        # power-law energy its clamped gap derivative -(c / GAP_FLOOR)^3,
        # and FISTA itself ends at a residual near 1e35 there, so power3
        # gets the capless uniform state instead
        make, cap = _NEWTON_ENERGIES[name]
        grid = (np.arange(n) + 0.5) / n
        mass = np.full(n, 1.0 / n)
        if name == "power3":
            states = [uniform_state(-0.5, 0.5, n)]
        elif cap is None:
            states = [dirac_state(0.7, n), QuantileMeasure(
                grid, np.repeat([-0.4, 0.3, 1.1, 1.5, 2.0], 2)[:n], mass)]
        else:
            states = []
        for q in states:
            _assert_newton_agrees(make(), q, tau)
        if cap is None:
            return
        # with a cap: the uniform state at the cap, where every spacing is
        # saturated, and the same state with one gap 1e-7 above its bound,
        # which the step must close (gluing it alone would keep it open)
        q = uniform_state(0.3 - 0.5 / cap, 0.3 + 0.5 / cap, n)
        x = q.positions.copy()
        x[n // 2:] += 1e-7
        for q in (q, q.with_positions(x)):
            assert _assert_newton_agrees(make(), q, tau) <= 10

    def test_stalled_step_ends_at_the_best_rounded_newton_point(self):
        # entropy from a Dirac at 0.7, 9 nodes, tau 1e-3: one float spacing
        # of a gap moves the residual by about 1.3e-12, and the minimizer
        # rounded node by node reads 1.1e-12.  FISTA stops at the fixed
        # point of its float iteration, far inside its budget, and the
        # rounded Newton step ends below 1e-12
        n = 9
        q = dirac_state(0.7, n)
        objective = _QuantileObjective(entropy_energy(), QuantileStack.of([q]), 1e-3)
        x, its, res, _ = _solve_one(jko._fista, objective, q.positions, None,
                                    1e-12, 20000)
        assert its < 1000 and res <= 1e-12
        # the min-max pass against all 3^n candidates of its linear model,
        # from a point a few spacings off
        x0 = x + np.spacing(x) * np.array([2, -1, 0, 3, 1, -2, 0, 1, -1])
        g = objective.grad(x0[None])[0]
        e, w = (b[0] for b in objective.hess(x0[None]))
        p = x0 + np.asarray(jko._solve_tridiagonal(e, w, -g))
        k = np.array(list(itertools.product((-1, 0, 1), repeat=n)))
        d = (p + k * np.spacing(np.abs(p))) - x0
        wd = w * np.diff(d, axis=1)
        hd = e * d + np.pad(wd, ((0, 0), (1, 0))) - np.pad(wd, ((0, 0), (0, 1)))
        model = np.abs(g + hd) / objective.m
        d_best = jko._rounded_newton((e, w), objective.m, x0, g, None) - x0
        (row,) = np.flatnonzero((d == d_best).all(axis=1))
        assert model[row].max() == model.max(axis=1).min() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_banded_pieces_match_dense_algebra(self, n):
        # H = diag(e) + D^T diag(w) D from random e, w and from the Hessian
        # of a step objective
        rng = np.random.default_rng(n)
        q = feasible_random_state(rng, n, cap=2.0)
        step = tuple(b[0] for b in _QuantileObjective(
            ks_surrogate_energy(), QuantileStack.of([q]), 0.05).hess(q.positions[None]))
        for hess in ((rng.uniform(0.1, 1.0, n), rng.uniform(0.0, 10.0, n - 1)),
                     step):
            dense = _dense_hess(hess)
            atol = 1e-12 * float(np.abs(dense).max())
            v = rng.normal(size=n)
            np.testing.assert_allclose(jko._band_matvec(hess, v), dense @ v,
                                       rtol=1e-12, atol=atol)
            np.testing.assert_allclose(jko._solve_tridiagonal(*hess, v),
                                       np.linalg.solve(dense, v), rtol=1e-10,
                                       atol=1e-12)
            blk = np.concatenate(([0], np.cumsum(rng.random(n - 1) < 0.5)))
            p = (blk[:, None] == np.arange(blk[-1] + 1)).astype(float)
            got = jko._reduce_bands(hess, blk, int(blk[-1]) + 1)
            np.testing.assert_allclose(_dense_hess(got), p.T @ dense @ p,
                                       rtol=1e-12, atol=atol)
            indefinite = -(hess[0] + 2.0 * float(np.abs(dense).max()))
            assert jko._solve_tridiagonal(indefinite, hess[1], v) is None

    def test_failed_armijo_search_hands_off_to_fista(self, monkeypatch):
        # a Hessian 1e12 times too small makes every Newton step too long
        # for 30 halvings to repair, so the first search fails and FISTA
        # takes over from the start, its iterations counted after Newton's
        hess = _QuantileObjective.hess
        monkeypatch.setattr(_QuantileObjective, "hess", lambda self, x: tuple(
            1e-12 * b for b in hess(self, x)))
        E = ks_surrogate_energy()
        q = feasible_random_state(np.random.default_rng(3), 16, cap=2.0)
        (xn, its_n, res_n, fn), (xf, its_f, res_f, ff) = \
            _newton_and_fista(E, q, 0.05, tol=1e-9)
        assert its_n == its_f + 1 and res_n <= 1e-9
        assert xn.tobytes() == xf.tobytes() and fn == ff

    def test_arc_search_never_accepts_a_rise(self):
        # along a direction the gradient calls ascent, f(x) + 1e-4 g.(x(a) - x)
        # lies above f(x): a point that raises f by 1e-9 would pass it
        class Rising:
            def value(self, xt):
                return np.full(len(xt), 1.0 + 1e-9)
        x = np.array([[0.0, 1.0, 2.0]])
        x_new, f_new, found = jko._armijo_arc(
            Rising(), x, np.ones(1), np.ones((1, 3)), np.full((1, 3), 0.5),
            np.diff(x), [0])
        assert found == [] and x_new is x and f_new[0] == 1.0

    def test_ks_surrogate_iterations_independent_of_grid(self):
        # FISTA took 20-25, 64-90 and 1093-1339 iterations per step here
        for n in (64, 256, 1024):
            traj = flow(ks_surrogate_energy(), uniform_state(-0.8, 0.8, n),
                        JkoConfig(tau=5e-4, steps=4, inner_tol=1e-9))
            its = [d["inner_iters"] for d in traj.diagnostics]
            assert max(its) <= 10, (n, its)
            assert not any(d["residual_flag"] for d in traj.diagnostics)


def _heat_quantiles(q):
    """Quantiles of the uniform law on [-1/2, 1/2] after the heat flow
    d rho / dt = rho'' to t = 1/2: the CDF is G(y + 1/2) - G(y - 1/2) with
    G(z) = z Phi(z) + phi(z) (the uniform convolved with N(0, 1)),
    inverted by bisection."""
    phi_cdf = np.vectorize(lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))

    def cdf(y):
        g = lambda z: z * phi_cdf(z) + np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        return g(y + 0.5) - g(y - 0.5)

    lo, hi = np.full(len(q), -10.0), np.full(len(q), 10.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestIntervalDiscretization:
    """The internal term, Lp norms and hard-cap spacing share one density
    per interval between nodes."""

    def test_heat_flow_matches_closed_form(self):
        # the midpoint cells of the old internal term read 6.2e-2 and 4.1e-2
        errs = []
        for n in (48, 96):
            traj = flow(entropy_energy(), uniform_state(-0.5, 0.5, n),
                        JkoConfig(tau=0.5 / 256, steps=256, inner_tol=1e-9))
            end = traj.states[-1]
            d = end.positions - _heat_quantiles(end.q_nodes)
            errs.append(math.sqrt(float(np.sum(end.cell_mass * d * d))))
        assert errs[0] <= 1e-2 and errs[1] < errs[0], errs

    @pytest.mark.parametrize("make, lo", [(entropy_energy, 0.5),
                                          (ks_surrogate_energy, 0.8)],
                             ids=["entropy", "ks"])
    def test_no_odd_even_mode(self, make, lo):
        # midpoint cells could not see x_i + (-1)^i eps: the atoms paired
        # up, median |log2| of the gap ratios 2.29 (entropy) and 2.59 (ks)
        energy = make()
        traj = flow(energy, uniform_state(-lo, lo, 96),
                    JkoConfig(tau=0.5 / 64, steps=64, inner_tol=1e-9))
        end = traj.states[-1]
        gap = np.diff(end.positions)[24:72]
        assert np.median(np.abs(np.log2(gap[1:] / gap[:-1]))) <= 0.1
        if energy.constraint is None:
            return
        # one density: what is reported, what is capped and what the
        # spacing bound allows (it binds at the cap M itself)
        cap = energy.constraint[1]
        dens = end.densities().max()
        spacing = cap * float(np.max(jko._spacing_min_gaps(
            energy, end.cell_mass) / gaps(end.positions)))
        assert lp_norm(end, math.inf) == pytest.approx(dens, rel=1e-12)
        assert spacing == pytest.approx(dens, rel=1e-12)
        assert dens <= cap * (1.0 + 1e-9)

    @pytest.mark.parametrize("energy", [capped_aggregation_energy(),
                                        ks_surrogate_energy()],
                             ids=["capped", "ks"])
    def test_unequal_atom_masses_under_a_hard_cap(self, energy):
        rng = np.random.default_rng(5)
        mu = make_atomic(np.sort(rng.uniform(-0.3, 0.3, 12)),
                         rng.uniform(0.2, 1.0, 12))
        cap = energy.constraint[1]
        for _ in range(4):
            mu, info = proximal_step(energy, mu, 0.05)
            assert not info["residual_flag"]
        q = QuantileMeasure((np.arange(12) + 0.5) / 12, mu.points, mu.weights)
        assert lp_norm(q, math.inf) <= cap * (1.0 + 1e-9)
        if energy.internal is None:   # the aggregation reaches the cap
            assert lp_norm(q, math.inf) >= cap * (1.0 - 1e-6)


class TestUnboundedObjective:
    def test_fista_stops_at_minus_infinity(self):
        # attractive log kernel: the objective is -inf once two atoms meet;
        # FISTA used to run out its whole budget there (20000 iterations)
        energy = Energy(potential=_QUADRATIC, kernel=Kernel("log", d=1))
        mu = make_atomic(np.linspace(-1.0, 1.5, 7) ** 3, np.full(7, 1.0 / 7))
        _, info = proximal_step(energy, mu, 0.1,
                                JkoConfig(tau=0.1, inner_tol=1e-10))
        assert info["inner_iters"] <= 50 and info["residual_flag"]


class TestPenaltyMode:
    """Finite-p caps ||rho||_p <= C, stepped by the multiplier search."""

    def test_finite_p_cap_respected(self):
        # steps 3-8 end at the cap; the penalty continuation this search
        # replaced ended them 5e-8 above it, where E reads +inf
        mu = uniform_state(-0.6, 0.6, 32)  # ||rho||_4 < 1.2 initially
        tr = flow(_CAPPED_NEWTONIAN, mu,
                  JkoConfig(tau=0.1, steps=8, inner_tol=1e-8))
        assert all(_CAPPED_NEWTONIAN.constraint_ok(s) for s in tr.states)
        assert np.all(np.isfinite(tr.energies))
        assert not any(d["residual_flag"] for d in tr.diagnostics)

    def test_penalty_flow_positions_pinned(self):
        # the third step runs the multiplier search; re-recorded with the
        # interval densities once TestFinitePCapKkt and the SLSQP reference
        # below passed
        traj = flow(_CAPPED_NEWTONIAN, uniform_state(-0.6, 0.6, 16),
                    JkoConfig(tau=0.1, steps=3, inner_tol=1e-8))
        assert [d["inner_iters"] for d in traj.diagnostics] == [1, 1, 65]
        assert _positions_digest(traj) == \
            "3151f80451748cc4b18384602ef7801cd012eaf584a65044b3afb9f5e049cbe4"

    def test_matches_slsqp_reference(self):
        # the third step above against SciPy's SLSQP on the same objective;
        # SLSQP ends on the cap, the search up to inner_tol inside it, which
        # costs lam d||rho||_p^p, about 1e-10 of objective
        from scipy.optimize import minimize
        traj = flow(_CAPPED_NEWTONIAN, uniform_state(-0.6, 0.6, 16),
                    JkoConfig(tau=0.1, steps=3, inner_tol=1e-8))
        q, out = traj.states[2], traj.states[3]
        obj = _QuantileObjective(_CAPPED_NEWTONIAN, QuantileStack.of([q]), 0.1)
        value = lambda x: float(obj.value(x[None])[0])
        grad = lambda x: obj.grad(x[None])[0]
        p, cap = _CAPPED_NEWTONIAN.constraint
        ref = minimize(value, q.positions, jac=grad, method="SLSQP",
                       constraints=[
                           {"type": "ineq", "fun": lambda x: cap ** p - lp_norm(
                               q.with_positions(x), p) ** p},
                           {"type": "ineq", "fun": np.diff}],
                       options={"ftol": 1e-15, "maxiter": 1000})
        assert ref.success
        assert np.max(np.abs(out.positions - ref.x)) <= 1e-6
        assert abs(value(out.positions) - ref.fun) <= 1e-9


# finite-p caps on a convex energy with and without an internal term (an
# attraction strong enough to reach the cap against the entropy), and on a
# nonconvex one
_FINITE_P = {
    "newtonian": lambda: _CAPPED_NEWTONIAN,
    "ks": lambda: dataclasses.replace(ks_surrogate_energy(c=16.0),
                                      constraint=(3.0, 0.8)),
    "log_pinch": lambda: dataclasses.replace(
        log_pinch_energy(1.0), kernel=Kernel("newtonian", d=1, c=2.0),
        constraint=(3.0, 1.5)),
}


def _finite_p_state(kind, n, p, cap):
    grid = (np.arange(n) + 0.5) / n
    if kind == "random":
        rng = np.random.default_rng(n)
        return feasible_random_state(rng, n, cap=None,
                                     span=rng.uniform(0.3, 1.0))
    if kind == "tied":
        x = np.repeat(np.linspace(-0.5, 0.5, n), 2)[:n]
        return QuantileMeasure(grid, x, np.full(n, 1.0 / n))
    half = 0.5 * cap ** (-p / (p - 1.0))   # the uniform density of norm cap
    return uniform_state(-half, half, n)


class TestFinitePCapKkt:
    """A finite-p step ends at the KKT point of its problem: feasible, and
    either the step without the cap (inactive) or at the cap with a
    nonnegative multiplier lam of U_p = ||rho||_p^p / (p - 1) that makes
    the objective stationary."""

    @pytest.mark.parametrize("name", sorted(_FINITE_P))
    @pytest.mark.parametrize("n", [2, 3, 9, 24])
    @pytest.mark.parametrize("kind", ["random", "tied", "at_cap"])
    def test_step_is_a_kkt_point(self, name, n, kind):
        energy = _FINITE_P[name]()
        p, cap = energy.constraint
        q = _finite_p_state(kind, n, p, cap)
        tau, tol = 0.05, 1e-8
        cfg = JkoConfig(tau=tau, inner_tol=tol)
        out, info = proximal_step(energy, q, tau, cfg)
        assert energy.constraint_ok(out)
        assert info["residual"] <= tol and not info["residual_flag"]
        free, _ = proximal_step(dataclasses.replace(energy, constraint=None), q,
                                tau, cfg)
        if lp_norm(free, p) <= cap:
            assert out.positions.tobytes() == free.positions.tobytes()
            return
        assert lp_norm(out, p) >= cap * (1.0 - tol)
        # stationarity, measured as the solver's residual: the projected
        # gradient of objective + lam U_p on the sorted cone.  lam is fitted
        # by least squares to the gradient summed over each run
        # of tied nodes; fitted in the 2-norm and tested in the max norm,
        # it may miss the solver's lam by up to sqrt(n)
        x, m = out.positions, out.cell_mass
        g_obj = _QuantileObjective(energy, QuantileStack.of([q]), tau).grad(x[None])[0]
        g_cap = Energy(internal=("power", p)).quantile_grad(out)
        run = np.concatenate(([0], np.cumsum(np.diff(x) > 0)))
        mass = np.bincount(run, m)
        b_obj, b_cap = (np.bincount(run, g) / mass for g in (g_obj, g_cap))
        lam = -float(b_obj @ b_cap) / float(b_cap @ b_cap)
        assert lam >= 0.0
        s = min(tau, 1.0)
        probe = isotonic_project(x - s * (g_obj + lam * g_cap) / m, m)
        assert np.max(np.abs(x - probe)) / s <= math.sqrt(n) * tol

    @pytest.mark.parametrize("n", [2, 3, 4, 11])
    def test_power_term_bands_match_gradient_differences(self, n):
        q = feasible_random_state(np.random.default_rng(n), n, cap=1.0,
                                  span=2.0)
        obj = _QuantileObjective(_CAPPED_NEWTONIAN, QuantileStack.of([q]), 0.05,
                                 power=4.0, weight=3.0)
        x = q.positions
        h = 1e-7
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (obj.grad((x + e)[None])[0] - obj.grad((x - e)[None])[0]) / (2 * h)
        dense = _dense_hess(tuple(b[0] for b in obj.hess(x[None])))
        assert np.max(np.abs(dense - fd)) <= 1e-5 * float(np.abs(dense).max())

    def test_unbounded_step_flagged(self):
        # strongly attractive log kernel: a solve of the search reaches -inf
        # where two atoms meet; the step returns its start, flagged
        energy = Energy(kernel=Kernel("log", d=1, c=4.0), constraint=(3.0, 1.5))
        q = uniform_state(-0.5, 0.5, 8)
        out, info = proximal_step(energy, q, 0.1)
        assert info["residual_flag"] and info["residual"] == math.inf
        assert out.positions.tobytes() == q.positions.tobytes()
        # at c = 1 the search converges: a tie is a zero-width interval,
        # where lam U_p is huge, so the solves no longer tie two atoms
        weak = dataclasses.replace(energy, kernel=Kernel("log", d=1))
        out, info = proximal_step(weak, q, 0.1)
        assert not info["residual_flag"] and weak.constraint_ok(out)
        assert lp_norm(out, 3.0) >= 1.5 * (1.0 - 1e-8)

    @pytest.mark.parametrize("p", [48.0, 64.0])
    def test_large_p_does_not_crash(self, p):
        # step 31 used to raise MeasureError: Newton's pivots cancelled on
        # the lam = 1 problem (lam U_p'' about 1e15 against m / tau = 0.4),
        # FISTA took over, and inf - inf from an overflowing (c/g)^p reached
        # the positions as NaN
        energy = Energy(kernel=Kernel("newtonian", d=1, c=1.0),
                        constraint=(p, 2.0))
        cfg = JkoConfig(tau=0.05, steps=40)
        traj = flow(energy, uniform_state(-1.0, 1.0, 48), cfg)
        assert len(traj.states) == 41
        assert all(energy.constraint_ok(s) for s in traj.states)
        assert all(d["residual_flag"] for d in traj.diagnostics
                   if not d["residual"] <= cfg.inner_tol)
        # with pivots that no longer cancel, every search converges
        assert not any(d["residual_flag"] for d in traj.diagnostics)

    def test_overflowing_trial_points_read_as_inf(self, monkeypatch):
        # FISTA on the lam = 1 problem of that search at p = 48: (c/g)^p
        # overflows at its trial points, where the parent raised
        # MeasureError; it now ends flagged, and Newton solves the problem
        energy = Energy(kernel=Kernel("newtonian", d=1, c=1.0),
                        constraint=(48.0, 2.0))
        q = flow(energy, uniform_state(-1.0, 1.0, 48),
                 JkoConfig(tau=0.05, steps=30)).states[-1]
        obj = _QuantileObjective(energy, QuantileStack.of([q]), 0.05, power=48.0,
                                 weight=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, res, _ = _solve_one(jko._fista, obj, q.positions, None, 1e-8, 20000)
        assert res > 1e-8
        assert _solve_one(jko._newton, obj, q.positions, None, 1e-8, 20000)[2] <= 1e-8
        # a point that Newton's search accepts without a finite gradient
        # goes to FISTA with the rest of the budget, like a failed search
        budgets = []
        fista = jko._fista
        monkeypatch.setattr(jko, "_fista", lambda *args: (
            budgets.append(args[-1]) or fista(*args)))
        monkeypatch.setattr(_QuantileObjective, "grad",
                            lambda self, x: np.full(np.shape(x), np.nan))
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, res, _ = _solve_one(jko._newton, obj, q.positions, None, 1e-8, 40)
        assert budgets == [[39]] and res > 1e-8

    def test_budget_is_shared(self):
        # every solve draws on one inner_max_iter budget
        cfg = JkoConfig(tau=0.1, inner_tol=1e-8, inner_max_iter=20)
        q = uniform_state(-0.4, 0.4, 8)
        out, info = proximal_step(_CAPPED_NEWTONIAN, q, 0.1, cfg)
        assert info["inner_iters"] <= 20 and info["residual_flag"]
        assert _CAPPED_NEWTONIAN.constraint_ok(out)


class TestConfigValidation:
    def test_bad_tau(self):
        with pytest.raises(JkoError, match="tau must be nonnegative"):
            JkoConfig(tau=-1.0)

    def test_tau_zero_accepted(self):
        # tau = 0 is the identity map of proximal_step
        assert JkoConfig(tau=0.0).tau == 0.0

    @pytest.mark.parametrize("iters", [0, -5])
    def test_bad_inner_max_iter(self, iters):
        # a step with no iterations would return its start, flagged
        with pytest.raises(JkoError, match="inner_max_iter must be >= 1"):
            JkoConfig(tau=0.1, inner_max_iter=iters)

    def test_smallest_budget_and_grid_accepted(self):
        assert JkoConfig(tau=0.1, inner_max_iter=1).inner_max_iter == 1

    @pytest.mark.parametrize("name, value", [
        ("inner_max_iter", 1e4), ("inner_max_iter", False),
        ("steps", 2.5), ("steps", True), ("steps", "2"),
    ])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(JkoError, match=f"{name} must be an integer"):
            JkoConfig(tau=0.1, **{name: value})

    def test_numpy_integer_counts_accepted(self):
        # FISTA takes the budget (a log kernel has no Hessian)
        energy = _FISTA_ENERGIES["log_kernel"]
        mu = uniform_state(-0.5, 0.5, 6)
        ref = flow(energy, mu, JkoConfig(tau=0.05, steps=2, inner_max_iter=3))
        tr = flow(energy, mu, JkoConfig(tau=0.05, steps=np.int64(2),
                                        inner_max_iter=np.int32(3)))
        assert len(tr.states) == 3
        assert tr.states[-1].positions.tobytes() == ref.states[-1].positions.tobytes()
        assert tr.diagnostics == ref.diagnostics


# ---------------------------------------------------------------------------
# stacked steps: K states on one grid solved as one QuantileStack
# ---------------------------------------------------------------------------

# energies that FISTA alone steps: no Hessian in some term
_SMOOTH = Kernel("smooth", profile=lambda r: np.exp(-np.asarray(r) ** 2),
                 dprofile=lambda r: -2.0 * np.asarray(r) * np.exp(-np.asarray(r) ** 2))
_FISTA_ENERGIES = {
    "log_kernel": Energy(potential=_QUADRATIC, kernel=Kernel("log", d=1, c=0.2)),
    "smooth_kernel": Energy(potential=_QUADRATIC, kernel=_SMOOTH),
    "hessless_pinch": _hessless_log_pinch(),
    "hessless_quadratic": Energy(potential=dataclasses.replace(_QUADRATIC, hess=None),
                                 kernel=Kernel("newtonian", d=1, c=1.0)),
}
# energies of the stack contract: Newton in one iteration (quadratic), in
# several (granular, log_pinch, whose Dirac at 0 hands its row to FISTA),
# under a saturated hard cap (ks), with a finite-p cap search (finite_p),
# and without a Hessian, where FISTA takes every row (log kernel; the other
# FISTA energies step fixed stacks in test_fista_rows_match_single_steps)
_STACK_ENERGIES = {
    "quadratic": quadratic_energy(),
    "granular": granular_energy(),
    "log_pinch": log_pinch_energy(),
    "ks": ks_surrogate_energy(2.0),
    "finite_p": _CAPPED_NEWTONIAN,
    "log_kernel": _FISTA_ENERGIES["log_kernel"],
}
_STACK_ROWS = ("random", "tied", "dirac", "dirac0", "saturated", "wide")


def _stack_row(kind, n, rng):
    """Positions of one row on an n-node grid."""
    if kind == "random":
        return np.sort(rng.uniform(-0.6, 0.6, n))
    if kind == "tied":
        return np.repeat(np.sort(rng.uniform(-0.6, 0.6, (n + 1) // 2)), 2)[:n]
    if kind == "dirac":
        return np.full(n, rng.uniform(-0.6, 0.6))
    if kind == "dirac0":
        return np.zeros(n)
    if kind == "saturated":   # every interval at the density cap 2
        return rng.uniform(-0.2, 0.2) + (np.arange(n) - (n - 1) / 2.0) / (2.0 * n)
    return np.linspace(-1.5, 1.5, n)   # finite-p: ||rho||_4 below the cap


@st.composite
def _stacks(draw):
    """(energy name, K states on one grid, tau): n in {2, 3, 9, 64}, K from
    1 to 4, rows of mixed kinds, and random cell masses."""
    n = draw(st.sampled_from([2, 3, 9, 64]))
    name = draw(st.sampled_from(sorted(_STACK_ENERGIES)))
    kinds = draw(st.lists(st.sampled_from(_STACK_ROWS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = np.full(n, 1.0 / n)
    if draw(st.booleans()):
        c = rng.uniform(0.5, 1.5, n)
        c /= c.sum()
    grid = np.cumsum(c) - 0.5 * c
    states = []
    for kind in kinds:
        x = _stack_row(kind, n, rng)
        if name == "ks" and kind != "saturated":   # start under the cap
            x = isotonic_project(x, c, interval_masses(c) / 2.0)
        states.append(QuantileMeasure(grid, x, c))
    return name, states, draw(st.sampled_from([1e-3, 0.05]))


def _same_step(a, b, info_a, info_b):
    """Bitwise equal positions and equal bookkeeping."""
    assert a.positions.tobytes() == b.positions.tobytes()
    assert info_a["inner_iters"] == info_b["inner_iters"]
    assert np.float64(info_a["residual"]).tobytes() \
        == np.float64(info_b["residual"]).tobytes()
    assert info_a["residual_flag"] == info_b["residual_flag"]


class TestStackedSteps:
    """Each row of a stacked step is bitwise its own K = 1 step: positions,
    ``inner_iters``, ``residual`` and ``residual_flag``."""

    @settings(max_examples=150, deadline=None)
    @given(case=_stacks())
    @example(case=("quadratic", [dirac_state(0.7, 2)], 0.05))   # K = 1
    def test_rows_match_single_steps(self, case):
        name, states, tau = case
        energy = _STACK_ENERGIES[name]
        cfg = JkoConfig(tau=tau, inner_tol=1e-9, inner_max_iter=3000)
        with np.errstate(all="ignore"):
            out, infos = proximal_step(energy, QuantileStack.of(states), tau,
                                       cfg)
            assert isinstance(out, QuantileStack) and len(infos) == len(states)
            for k, mu in enumerate(states):
                single, info = proximal_step(energy, mu, tau, cfg)
                _same_step(out.row(k), single, infos[k], info)

    @staticmethod
    def _rows(energy, states, tau, inner_tol=1e-9, **cfg):
        """The stacked step's infos, each row checked against its K = 1
        step."""
        cfg = JkoConfig(tau=tau, inner_tol=inner_tol, **cfg)
        out, infos = proximal_step(energy, QuantileStack.of(states), tau, cfg)
        for k, mu in enumerate(states):
            single, info = proximal_step(energy, mu, tau, cfg)
            _same_step(out.row(k), single, infos[k], info)
        return infos

    def test_rows_stop_at_different_iterations(self):
        rng = np.random.default_rng(5)
        states = [dirac_state(0.3, 9), feasible_random_state(rng, 9, cap=2.0),
                  uniform_state(-0.25, 0.25, 9)]
        infos = self._rows(ks_surrogate_energy(2.0), states, 0.05)
        assert len({i["inner_iters"] for i in infos}) > 1

    @pytest.mark.parametrize("name", sorted(_FISTA_ENERGIES))
    @pytest.mark.parametrize("tau", [1e-3, 0.05])
    def test_fista_rows_match_single_steps(self, name, tau):
        # one stack of every row kind, n = 9: FISTA steps all of them at once
        rng = np.random.default_rng(9)
        grid = dirac_state(0.0, 9)
        states = [grid.with_positions(_stack_row(kind, 9, rng)) for kind in _STACK_ROWS]
        infos = self._rows(_FISTA_ENERGIES[name], states, tau)
        assert len(infos) == len(_STACK_ROWS)

    def test_rows_exhaust_budget_while_others_converge(self):
        # a repulsive log kernel: the wide row converges in 13 iterations,
        # the other two run out of a budget of 16
        rng = np.random.default_rng(1)
        grid = dirac_state(0.0, 9)
        states = [grid.with_positions(x) for x in (
            np.sort(rng.uniform(-0.6, 0.6, 9)), np.linspace(-0.3, 0.3, 9),
            np.linspace(-1.5, 1.5, 9))]
        energy = Energy(potential=_QUADRATIC, kernel=Kernel("log", d=1, c=-0.5))
        infos = self._rows(energy, states, 0.05, inner_max_iter=16)
        assert [(i["inner_iters"], i["residual_flag"]) for i in infos] == \
            [(16, True), (16, True), (13, False)]

    def test_fista_rows_keep_their_own_budgets(self):
        # one budget per row, a budget of 0 (a row handed over on Newton's
        # last iteration) included: each row is bitwise its own solve
        energy = Energy(potential=_QUADRATIC, kernel=Kernel("log", d=1, c=-0.5))
        states = [uniform_state(-0.5, 0.5, 6), uniform_state(-1.0, 0.2, 6),
                  uniform_state(-2.0, 2.0, 6)]
        stack, budgets = QuantileStack.of(states), [0, 7, 3]
        x, its, res, f = jko._fista(_QuantileObjective(energy, stack, 0.05),
                                    stack.positions, None, 1e-12, budgets)
        assert its == budgets
        for k, q in enumerate(states):
            one = _solve_one(jko._fista, _QuantileObjective(energy, QuantileStack.of([q]), 0.05),
                             q.positions, None, 1e-12, budgets[k])
            assert (x[k].tobytes(), its[k], res[k], f[k]) == \
                (one[0].tobytes(), one[1], one[2], one[3])

    def test_rows_handed_at_different_newton_iterations(self, monkeypatch):
        # at a tolerance below the rounding floor each row's Newton step
        # stalls on its own iteration and goes to FISTA with what it left
        # of the budget: one FISTA call on the stack of those rows
        budgets = []
        fista = jko._fista
        monkeypatch.setattr(jko, "_fista", lambda *args: (
            budgets.append(args[-1]) or fista(*args)))
        rng = np.random.default_rng(3)
        states = [dirac_state(0.7, 3)] + [feasible_random_state(rng, 3, cap=2.0, span=s)
                                          for s in (0.5, 1.0, 1.5)]
        cfg = JkoConfig(tau=1e-3, inner_tol=1e-15, inner_max_iter=500)
        proximal_step(ks_surrogate_energy(2.0), QuantileStack.of(states), 1e-3, cfg)
        assert len(budgets) == 1 and len(set(budgets[0])) > 1
        monkeypatch.setattr(jko, "_fista", fista)
        self._rows(ks_surrogate_energy(2.0), states, 1e-3, inner_tol=1e-15,
                   inner_max_iter=500)

    def test_unbounded_row_beside_converging_rows(self):
        # attractive log kernel: the cubed row's atoms meet, its value goes
        # to -inf and it stops there, flagged; the other rows converge
        grid = dirac_state(0.0, 7)
        states = [grid.with_positions(x) for x in (
            np.linspace(-1.0, 1.5, 7) ** 3, np.linspace(-0.5, 0.5, 7),
            np.linspace(-1.5, 1.5, 7))]
        energy = Energy(potential=_QUADRATIC, kernel=Kernel("log", d=1))
        infos = self._rows(energy, states, 0.01, inner_tol=1e-10)
        assert infos[0]["residual"] == math.inf and infos[0]["residual_flag"]
        assert not any(i["residual_flag"] for i in infos[1:])

    def test_row_handed_to_fista(self, monkeypatch):
        # V'' = -inf at 0: the row with a node at 0 has no Newton direction,
        # and only that row goes to FISTA
        handed = []
        fista = jko._fista
        monkeypatch.setattr(jko, "_fista", lambda *args: (
            handed.append(np.array(args[1])) or fista(*args)))
        grid = dirac_state(0.0, 2)
        states = [dirac_state(1e-3, 2), grid.with_positions([0.0, 1e-3])]
        infos = self._rows(log_pinch_energy(), states, 0.01)
        # one call on the handed row's (1, n) sub-stack, then its K = 1 step
        assert len(handed) == 1 + 1
        assert handed[0].tolist() == handed[1].tolist() == [[0.0, 1e-3]]
        assert not any(i["residual_flag"] for i in infos)

    def test_finite_p_row_searches_alone(self, monkeypatch):
        # the third state of the flow pinned in TestFinitePCapKkt ends above
        # ||rho||_4 <= 1.2 and searches its multiplier; the wide one stays
        # below the cap
        searches = []
        search = jko._cap_search
        monkeypatch.setattr(jko, "_cap_search", lambda solve, q, *args: (
            searches.append(q.positions.copy()) or search(solve, q, *args)))
        near = flow(_CAPPED_NEWTONIAN, uniform_state(-0.6, 0.6, 16),
                    JkoConfig(tau=0.1, steps=2, inner_tol=1e-8)).states[-1]
        states = [near, near.with_positions(np.linspace(-1.5, 1.5, 16))]
        proximal_step(_CAPPED_NEWTONIAN, QuantileStack.of(states), 0.1,
                      JkoConfig(tau=0.1, inner_tol=1e-8))
        assert len(searches) == 1
        assert searches[0].tobytes() == states[0].positions.tobytes()
        monkeypatch.setattr(jko, "_cap_search", search)
        self._rows(_CAPPED_NEWTONIAN, states, 0.1)

    def test_rows_accept_on_different_halvings(self, monkeypatch):
        # under a power term the spread row and the Dirac row accept their
        # arc points on different halvings: the partial acceptance keeps
        # each row's own point and value
        partial = []
        arc = jko._armijo_arc

        class Recorder:
            def __init__(self, objective):
                self.objective, self.points = objective, []

            def value(self, x):
                self.points.append(x.copy())
                return self.objective.value(x)

        def recording_arc(objective, x, *args):
            rec = Recorder(objective)
            x_new, f_new, found = arc(rec, x, *args)
            halving = [next(j for j, xt in enumerate(rec.points)
                            if xt[k].tobytes() == x_new[k].tobytes()) for k in found]
            partial.append(len(set(halving)) > 1 or 0 < len(found) < len(args[-1]))
            return x_new, f_new, found

        monkeypatch.setattr(jko, "_armijo_arc", recording_arc)
        energy = Energy(potential=POTENTIALS["quadratic"]({}), internal=("power", 3.0))
        grid = dirac_state(2.8850120326573805, 9)
        spread = grid.with_positions([
            -2.830081973127222, -2.254300341002616, -1.2017286567756913,
            -0.6979346744286996, -0.4638766728140493, 0.6923106688875231,
            0.8831370694455005, 1.0237464881617822, 2.9832596147352657])
        cfg = JkoConfig(tau=0.05, inner_tol=1e-9, inner_max_iter=500)
        out, infos = proximal_step(energy, QuantileStack.of([spread, grid]), 0.05,
                                   cfg)
        assert any(partial)
        monkeypatch.setattr(jko, "_armijo_arc", arc)
        for k, mu in enumerate([spread, grid]):
            single, info = proximal_step(energy, mu, 0.05, cfg)
            _same_step(out.row(k), single, infos[k], info)

    def test_tau_zero_returns_the_stack(self):
        stack = QuantileStack.of([dirac_state(0.5, 2), dirac_state(-0.5, 2)])
        out, infos = proximal_step(quadratic_energy(), stack, 0.0)
        assert out is stack and [i["inner_iters"] for i in infos] == [0, 0]


class TestFlows:
    """``flows`` steps the states that share a grid as one stack, every
    other state alone, and each trajectory is bitwise its own ``flow``."""

    def test_mixed_starts_match_flow(self, monkeypatch):
        starts = [dirac_state(0.4, 2), dirac_state(-0.3, 2),
                  uniform_state(-0.5, 0.5, 3), make_atomic([0.2, 0.9], [0.3, 0.7]),
                  dirac_state(1.1, 2)]
        energy, cfg = granular_energy(), JkoConfig(tau=0.05, steps=6,
                                                   inner_tol=1e-10)
        steps = []
        step = jko.proximal_step
        monkeypatch.setattr(jko, "proximal_step", lambda e, mu, *a, **kw: (
            steps.append(len(mu) if isinstance(mu, QuantileStack) else 0)
            or step(e, mu, *a, **kw)))
        trajs = jko.flows(energy, starts, cfg)
        # the three 2-node Diracs as one stack, the 3-node state as a stack
        # of one, the 1D atoms alone
        assert sorted(steps) == [0] * 6 + [1] * 6 + [3] * 6
        monkeypatch.setattr(jko, "proximal_step", step)
        for mu, traj in zip(starts, trajs):
            ref = flow(energy, mu, cfg)
            assert len(traj.states) == len(ref.states) == 7
            for a, b in zip(traj.states, ref.states):
                assert type(a) is type(b)
                pa = a.positions if isinstance(a, QuantileMeasure) else a.points
                pb = b.positions if isinstance(b, QuantileMeasure) else b.points
                assert pa.tobytes() == pb.tobytes()
            assert traj.energies.tobytes() == ref.energies.tobytes()
            assert traj.step_distances.tobytes() == ref.step_distances.tobytes()
            assert traj.diagnostics == ref.diagnostics

    def test_grids_one_ulp_apart_step_alone(self, monkeypatch):
        # equal grids built separately stack; a grid one ulp apart in a
        # node, or in a cell mass, steps alone, as a stack of one
        base = uniform_state(-0.5, 0.5, 4)
        q, c = base.q_nodes.copy(), base.cell_mass.copy()
        q_ulp, c_ulp = q.copy(), c.copy()
        q_ulp[2] = np.nextafter(q[2], 1.0)
        c_ulp[0] = np.nextafter(c[0], 1.0)
        x = np.array([-0.2, 0.0, 0.1, 0.4])
        starts = [base, QuantileMeasure(q, x, c), QuantileMeasure(q_ulp, x, c),
                  QuantileMeasure(q, x, c_ulp)]
        assert same_grid(starts[0], starts[1])
        assert not any(same_grid(starts[0], s) for s in starts[2:])
        steps = []
        step = jko.proximal_step
        monkeypatch.setattr(jko, "proximal_step", lambda e, mu, *a, **kw: (
            steps.append(len(mu) if isinstance(mu, QuantileStack) else 0)
            or step(e, mu, *a, **kw)))
        cfg = JkoConfig(tau=0.05, steps=3, inner_tol=1e-10)
        trajs = jko.flows(granular_energy(), starts, cfg)
        assert sorted(steps) == [1] * 6 + [2] * 3
        monkeypatch.setattr(jko, "proximal_step", step)
        for mu, traj in zip(starts, trajs):
            ref = flow(granular_energy(), mu, cfg)
            assert traj.states[-1].positions.tobytes() == ref.states[-1].positions.tobytes()
            assert traj.step_distances.tobytes() == ref.step_distances.tobytes()

    @pytest.mark.parametrize("name", sorted(_FISTA_ENERGIES))
    def test_fista_flows_match_flow(self, name):
        energy = _FISTA_ENERGIES[name]
        starts = [uniform_state(-0.5, 0.5, 6), dirac_state(0.3, 6),
                  uniform_state(-1.2, 0.4, 6)]
        cfg = JkoConfig(tau=0.05, steps=4, inner_tol=1e-9)
        for mu, traj in zip(starts, jko.flows(energy, starts, cfg)):
            ref = flow(energy, mu, cfg)
            for a, b in zip(traj.states, ref.states):
                assert a.positions.tobytes() == b.positions.tobytes()
            assert traj.energies.tobytes() == ref.energies.tobytes()
            assert traj.step_distances.tobytes() == ref.step_distances.tobytes()
            assert traj.diagnostics == ref.diagnostics

    def test_semigroup_check_steps_one_stack(self, monkeypatch):
        # two Diracs on one grid: n stacked steps, not 2n single ones
        steps = []
        step = jko.proximal_step
        monkeypatch.setattr(jko, "proximal_step", lambda e, mu, *a, **kw: (
            steps.append(type(mu).__name__) or step(e, mu, *a, **kw)))
        n = 32
        rep = check_semigroup_contraction(
            quadratic_energy(), dirac_state(0.6, 2), dirac_state(-0.2, 2),
            0.25, n, lipschitz(1.0), JkoConfig(inner_tol=1e-9))
        assert steps == ["QuantileStack"] * n
        assert rep.passed and not rep.skipped

    @pytest.mark.parametrize("starts, constraint", [
        ([dirac_state(0.7, 2)], None),
        ([dirac_state(0.7, 2), dirac_state(-1.3, 2)], None),
        # a finite-p cap that no step reaches: no row searches
        ([uniform_state(-1.0, 1.0, 3), uniform_state(-0.5, 1.5, 3)], (4.0, 10.0)),
    ], ids=["K=1", "K=2", "K=2-finite-p"])
    def test_states_keep_their_terms(self, monkeypatch, starts, constraint):
        # the energy column and the next step's start read the terms the
        # solver kept at each step's end: with nothing kept, every step
        # evaluates V twice more and grad V once more from step 2 on (the
        # start's value is kept by the column's first entry)
        calls = {"value": 0, "grad": 0}
        base = POTENTIALS["granular"]({})

        def counted(name, fn):
            def counting(x):
                calls[name] += 1
                return fn(x)
            return counting

        energy = Energy(potential=Potential(
            "counted", counted("value", base.value), counted("grad", base.grad),
            hess=base.hess), constraint=constraint)
        cfg = JkoConfig(tau=0.05, steps=6, inner_tol=1e-10)
        kept = jko.flows(energy, starts, cfg)
        kept_calls = dict(calls)
        calls.update(value=0, grad=0)
        monkeypatch.setattr(QuantileStack, "kept", lambda self, owner: {})
        fresh = jko.flows(energy, starts, cfg)
        assert calls["value"] - kept_calls["value"] == 2 * cfg.steps
        assert calls["grad"] - kept_calls["grad"] == cfg.steps - 1
        for a, b in zip(kept, fresh):
            assert [s.positions.tobytes() for s in a.states] == \
                [s.positions.tobytes() for s in b.states]
            assert a.energies.tobytes() == b.energies.tobytes()
            assert a.diagnostics == b.diagnostics

    def test_new_energy_each_step_reads_no_stale_terms(self):
        # a schedule that builds a new Energy every step: each state's
        # terms are kept for the energy that solved it, and the next step's
        # energy computes its own
        def energy(k):
            return Energy(potential=POTENTIALS["granular"]({"beta": 1.0 + k}))

        cfg = JkoConfig(tau=0.05, steps=5, inner_tol=1e-10)
        mu0 = dirac_state(0.6, 2)
        traj = flow_time_dependent(lambda k, tau: energy(k), mu0, cfg)
        prev = mu0
        for k, (mu, e) in enumerate(zip(traj.states, traj.energies)):
            assert e == energy(k).eval(mu) and type(mu) is QuantileMeasure
            if k:
                prev, _ = proximal_step(energy(k), prev, cfg.tau, cfg)
                assert mu.positions.tobytes() == prev.positions.tobytes()

    def test_semigroup_check_on_two_grids_steps_each_alone(self, monkeypatch):
        energy, n, t = quadratic_energy(), 16, 0.25
        mu, nu = dirac_state(0.6, 2), dirac_state(-0.2, 3)
        steps = []
        step = jko.proximal_step
        monkeypatch.setattr(jko, "proximal_step", lambda e, m, *a, **kw: (
            steps.append(type(m).__name__) or step(e, m, *a, **kw)))
        rep = check_semigroup_contraction(energy, mu, nu, t, n, lipschitz(1.0),
                                          JkoConfig(inner_tol=1e-9))
        assert steps == ["QuantileStack"] * (2 * n)   # each a stack of one
        monkeypatch.setattr(jko, "proximal_step", step)
        cfg = JkoConfig(tau=t / n, steps=n, inner_tol=1e-9)
        wt = w2(flow(energy, mu, cfg).states[-1], flow(energy, nu, cfg).states[-1])
        assert rep.lhs == rep.context["Wt"] == wt
