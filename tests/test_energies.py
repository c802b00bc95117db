import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from omegaflow.energies import (
    Energy,
    EnergyError,
    Kernel,
    POTENTIALS,
    Potential,
    _finite_field,
    above_tangent_slack,
    calibrate_interaction_constant,
    coupling_cost,
    directional_derivative,
    kernel_gradient,
    metric_slope_estimate,
    parse_energy,
)
from omegaflow.measures import (
    QuantileMeasure,
    QuantileStack,
    make_atomic,
    pair_differences,
    to_quantile,
)
from omegaflow.moduli import JUNCTION, _log_positive, lipschitz, psi, sqrt_psi
from omegaflow.transport import TransportPlan, w2_1d, w2_exact
from omegaflow.verify import (
    capped_aggregation_energy,
    diagonal_plan,
    dirac_state,
    feasible_random_state,
    load_frozen,
    quadratic_energy,
    uniform_state,
)


def fd_derivative(energy, plan, at=0.0, h=1e-4):
    """Centered finite differences of eval along the plan interpolant."""
    xs, ys, ms = plan.pairs()

    def measure_at(alpha):
        pts = (1.0 - alpha) * xs + alpha * ys
        if pts.shape[1] == 1:
            pts = pts[:, 0]
        return make_atomic(pts, ms)

    lo = max(at - h, 0.0)
    hi = min(at + h, 1.0)
    return (energy.eval(measure_at(hi)) - energy.eval(measure_at(lo))) / (hi - lo)


class TestKernel:
    def test_riesz_parameter_validation(self):
        Kernel("riesz", d=3, alpha=2.0)  # valid: 2 <= alpha < d
        with pytest.raises(EnergyError):
            Kernel("riesz", d=2, alpha=2.0)  # alpha >= d
        with pytest.raises(EnergyError):
            Kernel("riesz", d=5, alpha=1.5)  # alpha < 2

    def test_newtonian_1d_profile(self):
        k = Kernel("newtonian", d=1)
        assert k.value(2.0) == 1.0  # |x|/2
        assert k.dvalue(3.0) == 0.5

    def test_newtonian_2d_log_form(self):
        k = Kernel("newtonian", d=2)
        assert abs(k.value(math.e) - 1.0 / (2.0 * math.pi)) <= 1e-15
        assert k.value(0.0) == -math.inf

    def test_riesz_lsc_convention(self):
        attract = Kernel("riesz", d=4, alpha=2.0, sign=-1)
        repel = Kernel("riesz", d=4, alpha=2.0, sign=+1)
        assert attract.value(0.0) == -math.inf
        assert repel.value(0.0) == 0.0

    @pytest.mark.parametrize("c", [1.0, -2.5])
    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_newtonian_is_riesz_alpha_2(self, d, c):
        # W = c |x|^(2-d) / (d (2-d) |B_d|): value(1) is that coefficient
        newton = Kernel("newtonian", d=d, c=c)
        coef = newton.value(1.0)
        riesz = Kernel("riesz", d=d, alpha=2.0, sign=1 if coef > 0 else -1,
                       c=abs(coef))
        r = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 7.0])
        assert np.array_equal(newton.value(r), riesz.value(r))
        assert np.array_equal(newton.dvalue(r), riesz.dvalue(r))
        # lower semicontinuous at 0: -inf for the attractive c > 0
        assert newton.value(0.0) == riesz.value(0.0)
        assert newton.value(0.0) == (-math.inf if c > 0 else 0.0)
        assert newton.dvalue(0.0) == 0.0


class TestEval:
    def test_potential_on_dirac(self):
        E = quadratic_energy()
        mu = make_atomic([1.5], [1.0])
        assert abs(E.eval(mu) - 1.5 ** 2 / 2.0) <= 1e-15

    def test_entropy_uniform(self):
        # density 1/L on the intervals between nodes, which carry mass
        # 1 - 1/n: the entropy is -(1 - 1/n) log L
        L, n = 2.0, 1000
        E = Energy(internal=("entropy",))
        value = E.eval(uniform_state(0.0, L, n))
        assert abs(value - (-(1.0 - 1.0 / n) * math.log(L))) <= 1e-12
        assert abs(value - (-math.log(L))) <= 1e-3

    def test_interaction_two_atoms(self):
        # direct 2x2 double sum: (1/2) sum w_i w_j |x_i-x_j|/2 = 0.25
        E = Energy(kernel=Kernel("newtonian", d=1))
        mu = make_atomic([0.0, 2.0], [0.5, 0.5])
        assert abs(E.eval(mu) - 0.25) <= 1e-15

    def test_constraint_violation_is_inf(self):
        E = Energy(kernel=Kernel("newtonian", d=1), constraint=(math.inf, 2.0))
        dense = uniform_state(-0.1, 0.1, 32)  # density 5 > 2
        assert E.eval(dense) == math.inf
        ok = uniform_state(-0.5, 0.5, 32)     # density 1
        assert math.isfinite(E.eval(ok))

    def test_internal_on_atoms_is_inf(self):
        E = Energy(internal=("entropy",))
        assert E.eval(make_atomic([0.0, 1.0], [0.5, 0.5])) == math.inf

    def test_power_internal(self):
        g = uniform_state(0.0, 0.5, 4)  # density 2 on [1/16, 7/16]
        E = Energy(internal=("power", 2.0))
        # 1/(m-1) int rho^m = int 4 over width 3/8 = 3/2
        assert abs(E.eval(g) - 1.5) <= 1e-12

    def test_power_infinity_indicator(self):
        # the hard cap ||rho||_inf <= 1 is a constraint, not an m = inf power
        with pytest.raises(EnergyError, match="constraint"):
            Energy(internal=("power", math.inf))
        E = Energy(constraint=(math.inf, 1.0))
        tall = uniform_state(0.0, 0.5, 4)  # density 2
        flat = uniform_state(0.0, 1.0, 4)  # density 1
        assert E.eval(tall) == math.inf
        assert E.eval(flat) == 0.0

    @pytest.mark.parametrize("kernel, points", [
        pytest.param(Kernel("log", c=1.0), [[0, 0], [0, 0], [1, 0.5]],
                     id="log-2d"),
        pytest.param(Kernel("log", c=1.0), [0.0, 0.0, 1.0], id="log-1d"),
        pytest.param(Kernel("riesz", alpha=2.0, d=3, sign=-1), [0.0, 0.0, 1.0],
                     id="riesz-minus"),
        # +c/r is 0 at r = 0 (its lsc value), so this case was never nan
        pytest.param(Kernel("riesz", alpha=2.0, d=3), [[0, 0], [0, 0], [1, 0.5]],
                     id="riesz-plus"),
    ])
    def test_zero_weight_atom_on_another_is_ignored(self, kernel, points):
        # a massless atom adds nothing, even where the kernel is infinite
        E = Energy(kernel=kernel)
        mu = make_atomic(points, [0.0, 1.0, 1.0])
        without = make_atomic(points[1:], [1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = E.eval(mu)
        assert value == E.eval(without)
        assert math.isfinite(value)


def dense_newtonian_1d(x, w, c):
    """Pair-matrix reference for the 1D Newtonian term c|x|/2 on sorted
    atoms: value 1/2 sum_ij w_i w_j c|x_i - x_j|/2 and quantile gradient
    w_i sum_j w_j (c/2) sign(i - j), the gradient on the sorted cone, which
    counts tied atoms by their order (sign(x_i - x_j) away from ties)."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    diff = x[:, None] - x[None, :]
    value = 0.5 * float(np.sum(np.outer(w, w) * 0.5 * c * np.abs(diff)))
    order = np.arange(len(x))
    by_index = np.sign(order[:, None] - order[None, :])
    grad = w * np.sum(0.5 * c * by_index * w[None, :], axis=1)
    return value, grad


# positions drawn partly from a small set, so that ties (Diracs) are common
_positions = st.one_of(st.floats(-5.0, 5.0, allow_subnormal=False),
                       st.sampled_from([-1.0, 0.0, 0.5]))


class TestNewtonian1dPrefixSums:
    @given(st.lists(st.tuples(_positions, st.floats(0.05, 1.0)),
                    min_size=2, max_size=40),
           # a subnormal c makes the pair-matrix reference round each term
           # as a subnormal and land one subnormal ulp off the exact value
           st.floats(-4.0, 4.0, allow_subnormal=False))
    # a subnormal value: the two sums differ by one subnormal ulp
    @example(atoms=[(0.0, 1.0)] * 3 + [(2.2250738585072014e-308, 1.0)],
             c=1e-5)
    @settings(max_examples=150, deadline=None)
    def test_matches_pair_matrices(self, atoms, c):
        x = np.sort([a[0] for a in atoms])
        w = np.array([a[1] for a in atoms])
        w = w / w.sum()
        E = Energy(kernel=Kernel("newtonian", d=1, c=c))
        value, grad = dense_newtonian_1d(x, w, c)
        q = QuantileMeasure(np.cumsum(w) - 0.5 * w, x, w)
        # relative bounds do not hold below the smallest normal float
        tiny = np.finfo(float).tiny
        assert abs(E.interaction_value(q) - value) <= 1e-12 * abs(value) + tiny
        assert np.max(np.abs(E.quantile_grad(q) - grad)) <= 1e-14
        a = make_atomic(x, w)
        value_a, _ = dense_newtonian_1d(a.points, a.weights, c)
        assert abs(E.interaction_value(a) - value_a) \
            <= 1e-12 * abs(value_a) + tiny

    @pytest.mark.parametrize("a", [0.0, 0.3])
    def test_two_atom_diracs(self, a):
        E = Energy(kernel=Kernel("newtonian", d=1, c=2.0))
        q = QuantileMeasure([0.25, 0.75], [-a, a], [0.5, 0.5])
        value, grad = dense_newtonian_1d([-a, a], [0.5, 0.5], 2.0)
        assert E.interaction_value(q) == pytest.approx(value, rel=1e-12, abs=0.0)
        assert np.max(np.abs(E.quantile_grad(q) - grad)) <= 1e-14
        # tied atoms: no energy, and a gradient that counts them by order
        tied = dirac_state(a, n=2)
        assert E.interaction_value(tied) == 0.0
        np.testing.assert_allclose(E.quantile_grad(tied), [-0.25, 0.25],
                                   rtol=0, atol=1e-15)


# pair kernels evaluated through n x n matrices: log, a smooth profile,
# and power laws r^(2-d) (the 3D Newtonian kernel) and r^(alpha-d)
_PAIR_KERNELS = {
    "log": Kernel("log", d=1, c=0.7),
    "smooth": Kernel("smooth", profile=lambda r: np.exp(-np.asarray(r) ** 2),
                     dprofile=lambda r: -2.0 * np.asarray(r) * np.exp(-np.asarray(r) ** 2)),
    "newtonian3": Kernel("newtonian", d=3),
    "riesz": Kernel("riesz", alpha=2.5, d=3, sign=-1),
}


class TestStackedPairKernels:
    """A stack's pair-kernel terms are bitwise, row by row, the one-state
    pair-matrix sums: the value one sum of the n^2 terms, the gradient n
    row sums."""

    @pytest.mark.parametrize("name", sorted(_PAIR_KERNELS))
    @pytest.mark.parametrize("n", [64, 256])
    def test_rows_match_states(self, name, n):
        kernel = _PAIR_KERNELS[name]
        rng = np.random.default_rng(n)
        grid = uniform_state(-1.0, 1.0, n)   # cell masses 1/n sum to 1 exactly
        rows = [grid, grid.with_positions(np.sort(rng.normal(size=n))),
                grid.with_positions(np.repeat(np.sort(rng.uniform(-1, 1, n // 2)), 2))]
        stack = QuantileStack.of(rows)
        pair = Energy(kernel=kernel)
        energy = Energy(potential=POTENTIALS["quadratic"]({}), kernel=kernel)
        values, grads = pair.interaction_value(stack), pair.quantile_grad(stack)
        evals = energy.eval(stack)
        c = grid.cell_mass
        for k, q in enumerate(rows):
            diff = q.positions[:, None] - q.positions[None, :]
            terms = np.outer(c, c) * kernel.value(np.sqrt(diff * diff))
            if kernel.singular:
                np.fill_diagonal(terms, 0.0)
            assert np.float64(values[k]).tobytes() == \
                np.float64(0.5 * float(terms.sum())).tobytes()
            contrib = kernel.dvalue(np.abs(diff)) * np.sign(diff) * c[None, :]
            np.fill_diagonal(contrib, 0.0)
            assert grads[k].tobytes() == (np.zeros(n) + c * contrib.sum(axis=1)).tobytes()
            assert np.float64(evals[k]).tobytes() == np.float64(energy.eval(q)).tobytes()


def _dense(hess):
    """diag(e) + D^T diag(w) D from the pair (e, w), D the first
    differences."""
    e, w = hess
    d = np.diff(np.eye(len(e)), axis=0)
    return np.diag(e) + d.T @ np.diag(w) @ d


class TestQuantileHessian:
    @pytest.mark.parametrize("name, params", [
        ("quadratic", {}), ("granular", {}), ("granular", {"b": 1.5, "beta": 2.0}),
        ("zero", {}), ("log_pinch", {}), ("log_pinch", {"strength": 2.5})])
    def test_potential_hess_matches_gradient_differences(self, name, params):
        pot = POTENTIALS[name](params)
        x = np.array([-1.3, -0.2, 0.05, 0.7, 2.1])
        h = 1e-6
        fd = (pot.grad(x + h) - pot.grad(x - h)) / (2.0 * h)
        np.testing.assert_allclose(pot.hess(x), fd, rtol=1e-7, atol=1e-9)

    def test_no_hessian_keeps_none(self):
        # a potential without ``hess`` (log_pinch's terms with it removed)
        # or a log kernel leaves the energy without a quantile Hessian;
        # every shipped potential has one
        hessless = dataclasses.replace(POTENTIALS["log_pinch"]({}), hess=None)
        for energy in (Energy(potential=hessless),
                       Energy(kernel=Kernel("log", d=1))):
            assert not energy.has_quantile_hess()
        for name in POTENTIALS:
            assert Energy(potential=POTENTIALS[name]({})).has_quantile_hess()
        assert capped_aggregation_energy().has_quantile_hess()

    @pytest.mark.parametrize("energy", [
        Energy(internal=("entropy",)),
        Energy(internal=("power", 3.0)),
        Energy(potential=POTENTIALS["granular"]({}), internal=("entropy",)),
        Energy(kernel=Kernel("newtonian", d=1, c=4.0), internal=("entropy",),
               constraint=(math.inf, 2.0)),
        Energy(potential=POTENTIALS["quadratic"]({}), constraint=(math.inf, 1.0)),
    ], ids=["entropy", "power3", "granular+entropy", "ks", "power_inf"])
    @pytest.mark.parametrize("n", [2, 3, 4, 11])
    def test_bands_match_gradient_differences(self, energy, n):
        q = feasible_random_state(np.random.default_rng(n), n, cap=1.0, span=2.0)
        x = q.positions
        h = 1e-7
        fd = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[:, j] = (energy.quantile_grad(q.with_positions(x + e))
                        - energy.quantile_grad(q.with_positions(x - e))) / (2 * h)
        dense = _dense(energy.quantile_hess(q))
        scale = max(1.0, float(np.abs(dense).max()))
        assert np.max(np.abs(dense - fd)) <= 1e-5 * scale

    def test_internal_curvature_vanishes_below_gap_floor(self):
        # the gap derivative is clamped at GAP_FLOOR, so it is flat there
        q = dirac_state(0.3, 3)
        d0, d1 = Energy(internal=("entropy",)).quantile_hess(q)
        assert not d0.any() and not d1.any()

    def test_gradient_by_index_counts_tied_atoms_in_order(self):
        E = Energy(kernel=Kernel("newtonian", d=1, c=2.0))
        q = QuantileMeasure([0.125, 0.5, 0.875], [0.0, 0.0, 1.0],
                            [0.25, 0.5, 0.25])
        # the one-sided derivatives of (c/2) sum_k gap_k W_k (1 - W_k) on
        # the sorted cone: mass left minus mass right, by index
        np.testing.assert_allclose(E.quantile_grad(q),
                                   [0.25 * (0.0 - 0.75), 0.5 * (0.25 - 0.25),
                                    0.25 * (0.75 - 0.0)], rtol=0, atol=1e-15)
        # away from ties it is the pair-matrix gradient, sign(x_i - x_j)
        free = feasible_random_state(np.random.default_rng(1), 9, cap=None)
        x, w = free.positions, free.cell_mass
        pair = w * np.sum(np.sign(x[:, None] - x[None, :]) * w[None, :], axis=1)
        np.testing.assert_allclose(E.quantile_grad(free), pair, rtol=0, atol=1e-15)


def _reference_log_pinch_1d(s):
    """(value, gradient) of ``log_pinch`` on 1D points as first written,
    with abs and sign taken per coordinate."""
    j = math.sqrt(JUNCTION)

    def val(x):
        x = np.abs(np.asarray(x, dtype=float))
        xc = np.minimum(x, j)
        lg = _log_positive(xc)
        core = -(s / 4.0) * xc**2 * (1.0 - 2.0 * lg)
        slope_j = -(s / 2.0) * j * (-2.0 * math.log(j))
        out = np.where(x <= j, core, core + slope_j * (x - xc))
        return out if out.ndim else float(out)

    def grd(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        xc = np.minimum(ax, j)
        lg = _log_positive(xc)
        mag = np.where(ax <= j, -s * xc * (-lg), -s * j * (-math.log(j)))
        out = np.sign(x) * mag
        return out if out.ndim else float(out)

    return val, grd


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


class TestLogPinch:
    """``log_pinch`` is radial, V(x) = v(|x|): unchanged on 1D points, and
    one value per atom on (n, 2) arrays."""

    @pytest.mark.parametrize("strength", [1.0, 0.5, 3.0])
    def test_1d_bitwise_unchanged(self, strength):
        pot = POTENTIALS["log_pinch"]({"strength": strength})
        val, grd = _reference_log_pinch_1d(strength)
        rng = np.random.default_rng(24)
        j = math.sqrt(JUNCTION)
        inputs = [rng.normal(scale=0.2, size=50), rng.normal(scale=2.0, size=50),
                  np.array([0.1, 0.1, -0.1, -0.1, 0.0, 0.0]),   # ties, zeros
                  np.array([1e-8, -1e-8, 0.0, j, -j, 1e-300]),
                  np.zeros(3)]
        for x in inputs:
            assert np.array_equal(pot.value(x), val(x))
            assert np.array_equal(pot.grad(x), grd(x))
        for x in (0.0, 1e-8, -1e-8, 0.25, -0.25, j, 2.0):
            assert type(pot.value(x)) is float and pot.value(x) == val(x)
            assert type(pot.grad(x)) is float and pot.grad(x) == grd(x)

    @pytest.mark.parametrize("strength", [1.0, 0.5, 3.0])
    def test_1d_hess(self, strength):
        # V'' = s (1 + log|x|) below the junction sqrt(JUNCTION), 0 above
        # it (V continues linearly), -inf at 0
        pot = POTENTIALS["log_pinch"]({"strength": strength})
        j = math.sqrt(JUNCTION)
        x = np.array([-0.25, -1e-8, 1e-300, 0.01, 0.999 * j, 1.001 * j, -2.0])
        expect = np.where(np.abs(x) <= j, strength * (1.0 + np.log(np.abs(x))),
                          0.0)
        np.testing.assert_allclose(pot.hess(x), expect, rtol=1e-15, atol=0.0)
        assert pot.hess(np.zeros(2)).tolist() == [-math.inf, -math.inf]

    def test_2d_value_is_radial(self):
        pot = POTENTIALS["log_pinch"]({"strength": 2.0})
        rng = np.random.default_rng(7)
        pts = rng.normal(scale=0.3, size=(40, 2))
        v = pot.value(pts)
        assert v.shape == (40,)
        for theta in (0.3, 1.0, math.pi / 2, 2.5):
            np.testing.assert_allclose(pot.value(pts @ _rotation(theta).T), v,
                                       rtol=1e-13, atol=0.0)
        # on an axis, the 1D value at the radius
        r = np.abs(pts[:, 0])
        np.testing.assert_allclose(
            pot.value(np.column_stack([r, np.zeros(40)])), pot.value(r),
            rtol=1e-15, atol=0.0)
        assert pot.value(np.zeros((1, 2))).tolist() == [0.0]

    def test_2d_grad_matches_central_differences(self):
        pot = POTENTIALS["log_pinch"]({"strength": 1.5})
        rng = np.random.default_rng(11)
        # inside and outside the junction radius sqrt(JUNCTION) ~ 0.30
        pts = np.concatenate([rng.normal(scale=0.1, size=(30, 2)),
                              rng.normal(scale=1.0, size=(30, 2))])
        g = pot.grad(pts)
        assert g.shape == pts.shape
        h = 1e-7
        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd = (pot.value(pts + e) - pot.value(pts - e)) / (2.0 * h)
            np.testing.assert_allclose(g[:, c], fd, rtol=1e-6, atol=1e-9)
        assert pot.grad(np.zeros((2, 2))).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_2d_energy_is_weighted_sum_of_radial_values(self):
        # two atoms used to broadcast their weights across the coordinates
        energy = Energy(potential=POTENTIALS["log_pinch"]({}))
        pts = np.array([[0.1, 0.05], [-0.02, 0.2]])
        mu = make_atomic(pts, [0.25, 0.75])
        r = np.sqrt(np.sum(mu.points * mu.points, axis=1))
        expect = float(mu.weights @ POTENTIALS["log_pinch"]({}).value(r))
        assert energy.eval(mu) == pytest.approx(expect, rel=1e-14)


class TestKernelGradient:
    def test_symmetric_measure_zero_field_at_center(self):
        k = Kernel("newtonian", d=1)
        mu = make_atomic([-1.0, 1.0], [0.5, 0.5])
        assert abs(kernel_gradient(k, mu, 0.0)) <= 1e-15

    def test_sign_convolution_oracle(self, rng):
        # grad(|.|/2) * mu (x) = (mu(-inf,x) - mu(x,inf)) / 2
        k = Kernel("newtonian", d=1)
        mu = make_atomic(rng.normal(size=12), rng.uniform(0.1, 1, 12))
        for x in rng.normal(size=8):
            below = mu.weights[mu.points < x].sum()
            above = mu.weights[mu.points > x].sum()
            expect = 0.5 * (below - above)
            assert abs(kernel_gradient(k, mu, float(x)) - expect) <= 1e-12

    def test_2d_disc_shell_theorem(self):
        # uniform disc: exterior field equals the point-mass field
        k = Kernel("newtonian", d=2)
        h = 1.0 / 64
        axis = np.arange(-1.0 + h / 2, 1.0, h)
        gx, gy = np.meshgrid(axis, axis)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        inside = np.sum(pts * pts, axis=1) <= 1.0
        pts = pts[inside]
        mu = make_atomic(pts, np.ones(len(pts)))
        x = np.array([2.5, 1.0])
        field = kernel_gradient(k, mu, x)
        expect = x / (2.0 * math.pi * float(np.sum(x * x)))
        assert np.max(np.abs(field - expect)) <= 1e-3

    def test_singular_hit_is_excluded(self):
        # the atom at the query point is skipped: only the one at 1 pulls
        k = Kernel("log", c=1.0)
        mu = make_atomic([0.0, 1.0], [0.5, 0.5])
        assert kernel_gradient(k, mu, 0.0) == -0.5
        # a query at a two-atom Dirac sees no atom at all
        dirac = make_atomic([0.5, 0.5], [0.5, 0.5])
        for kernel in _FIELD_KERNELS:
            assert kernel_gradient(kernel, dirac, 0.5) == 0.0


def per_point_field(kernel, pts, w, xq):
    """Reference (grad W * mu)(x): one query point at a time, atoms at
    distance 0 skipped."""
    out = np.zeros((len(xq), pts.shape[1]))
    scale = np.zeros(len(xq))
    for k, xx in enumerate(xq):
        diff = xx[None, :] - pts
        r = np.sqrt(np.sum(diff * diff, axis=1))
        dv = np.atleast_1d(kernel.dvalue(r))
        unit = np.zeros_like(diff)
        unit[r > 0] = diff[r > 0] / r[r > 0, None]
        terms = w[:, None] * dv[:, None] * unit
        out[k] = terms.sum(axis=0)
        scale[k] = np.abs(terms).sum()
    return out, scale


_FIELD_KERNELS = [
    Kernel("newtonian", d=1, c=1.5),
    Kernel("newtonian", d=2),
    Kernel("log", c=-0.7),
    Kernel("riesz", alpha=2.0, d=3, sign=-1, c=2.0),
    Kernel("smooth", d=2, profile=lambda r: np.asarray(r) ** 2 / 4.0,
           dprofile=lambda r: np.asarray(r) / 2.0),
]

# coordinates on a 1/64 grid: ties are common and distances stay far from
# the overflow of the singular profiles
_field_coord = st.integers(-192, 192).map(lambda k: k / 64.0)


class TestKernelFieldMerge:
    @given(st.sampled_from(_FIELD_KERNELS), st.sampled_from([1, 2]),
           st.integers(1, 10).flatmap(lambda n: st.tuples(
               st.lists(st.tuples(_field_coord, _field_coord), min_size=n,
                        max_size=n),
               st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))),
           st.lists(st.tuples(_field_coord, _field_coord), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_point_loop(self, kernel, dim, atoms, extra):
        pts = np.array(atoms[0])[:, :dim]
        mu = make_atomic(pts, atoms[1])
        # query at every atom (ties and Diracs included) and a few more points
        xq = np.concatenate([mu.points_2d(), np.array(extra).reshape(-1, 2)[:, :dim]])
        ref, scale = per_point_field(kernel, mu.points_2d(), mu.weights, xq)
        out = np.asarray(kernel_gradient(kernel, mu, xq[:, 0] if dim == 1 else xq))
        out = out.reshape(ref.shape)
        assert np.all(np.abs(out - ref) <= 1e-12 * np.maximum(scale, 1e-300)[:, None])
        if dim == 1:
            q = QuantileMeasure(np.cumsum(mu.weights) - 0.5 * mu.weights,
                                mu.points, mu.weights)
            assert np.array_equal(kernel_gradient(kernel, q, xq[:, 0]),
                                  out[:, 0])

    def test_smooth_kernel_never_raises(self):
        mu = make_atomic([0.5, 0.5], [0.5, 0.5])
        k = _FIELD_KERNELS[4]
        assert kernel_gradient(k, mu, 0.5) == 0.0

    def test_output_shapes(self):
        k = Kernel("log")
        mu1 = make_atomic([0.0, 1.0], [0.5, 0.5])
        assert isinstance(kernel_gradient(k, mu1, 0.3), float)
        assert kernel_gradient(k, mu1, [0.3, 2.0]).shape == (2,)
        mu2 = make_atomic([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
        assert kernel_gradient(k, mu2, [0.3, 2.0]).shape == (2,)
        assert kernel_gradient(k, mu2, [[0.3, 2.0]]).shape == (1, 2)
        q = uniform_state(0.0, 1.0, 2)
        assert kernel_gradient(k, q, [0.1, 3.0]).shape == (2,)


# two distinct atoms 3.8e-161 apart: their squared distance is subnormal, so
# r > 0, and w'(r) overflows for these profiles (at c = 1 the log and 2D
# newtonian profiles c/r stay below 5e161 for every r > 0 a double gives)
_OVERFLOW_KERNELS = [
    Kernel("riesz", alpha=2.0, d=3),
    Kernel("log", c=1e160),
    Kernel("newtonian", d=2, c=1e160),
]


def _close_pair(dim):
    pts = [[0.0, 0.0], [0.0, 3.8e-161]] if dim == 2 else [0.0, 3.8e-161]
    mu = make_atomic(pts, [0.5, 0.5])
    return mu, TransportPlan(mu, mu, np.diag(mu.weights))


class TestFieldOverflow:
    @pytest.mark.parametrize("kernel", _OVERFLOW_KERNELS)
    def test_overflow_raises(self, kernel):
        mu, plan = _close_pair(2)
        with pytest.raises(EnergyError, match=r"undefined \(overflow\)"):
            kernel_gradient(kernel, mu, mu.points)
        with pytest.raises(EnergyError, match=r"undefined \(overflow\)"):
            directional_derivative(Energy(kernel=kernel), plan)

    @pytest.mark.parametrize("kernel", [Kernel("newtonian", d=1, c=1.0),
                                        _FIELD_KERNELS[4]])
    def test_bounded_profiles_unaffected(self, kernel):
        mu, plan = _close_pair(1)
        field = kernel_gradient(kernel, mu, mu.points)
        assert np.all(np.isfinite(field))
        if kernel.kind == "newtonian":
            # the subnormal r costs digits of the unit vector, not its sign
            assert np.allclose(field, [-0.25, 0.25], rtol=1e-3)
        assert directional_derivative(Energy(kernel=kernel), plan) == 0.0


def unit_tensor_field(kernel, at, pts, w):
    """Reference for :meth:`Kernel.field`: the (k, n, d) difference and unit
    tensors reduced with einsum, the formula the per-coordinate path
    replaced; also the row scales sum_j w_j |w'(r_ij)|."""
    diff = at[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    dv = kernel.dvalue(r)
    with np.errstate(invalid="ignore", divide="ignore"):
        unit = np.where(r[:, :, None] > 0,
                        diff / np.where(r[:, :, None] > 0, r[:, :, None], 1.0),
                        0.0)
    return np.einsum("j,ijk->ik", w, dv[:, :, None] * unit), np.abs(dv) @ w


# smooth, log, newtonian in d = 1, 2 and 3, and riesz of either sign
_FAST_PATH_KERNELS = _FIELD_KERNELS + [Kernel("newtonian", d=3),
                                       Kernel("riesz", alpha=2.5, d=4, c=2.0)]

# grid coordinates tie often; the tiny ones give differences whose square
# underflows to 0 (1e-170: r = 0) or to a subnormal (3.8e-161: r > 0, where
# the power-law profiles overflow)
_fast_coord = st.one_of(_field_coord,
                        st.sampled_from([0.0, 1e-170, -1e-170, 3.8e-161, -1e-160]))
_fast_size = st.one_of(st.sampled_from([1, 2]), st.integers(1, 24))


def _point_sets(dim, size, coord=_fast_coord):
    return st.lists(st.lists(coord, min_size=dim, max_size=dim),
                    min_size=size, max_size=size).map(np.array)


@st.composite
def _field_inputs(draw):
    """(at, pts, w) in d = 1, 2 or 3; ``at is pts`` half of the time."""
    dim = draw(st.integers(1, 3))
    n = draw(_fast_size)
    pts = draw(_point_sets(dim, n))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    at = pts if draw(st.booleans()) else draw(_point_sets(dim, draw(_fast_size)))
    return at, pts, w


class TestFieldFastPath:
    @given(st.sampled_from(_FAST_PATH_KERNELS), _field_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_unit_tensor_formula(self, kernel, inputs):
        at, pts, w = inputs
        with np.errstate(over="ignore", invalid="ignore"):
            ref, scale = unit_tensor_field(kernel, at, pts, w)
            out = kernel.field(at, pts, w)
        assert out.shape == ref.shape == at.shape
        # the same products, summed over j in another order
        finite = np.all(np.isfinite(ref), axis=1)
        assert np.array_equal(np.all(np.isfinite(out), axis=1), finite)
        assert np.all(np.abs(out[finite] - ref[finite]) <= 1e-14 * scale[finite, None])

    @pytest.mark.parametrize("kernel", _OVERFLOW_KERNELS)
    def test_overflow_still_raises(self, kernel):
        pts = np.array([[0.0, 0.0], [0.0, 3.8e-161]])
        w = np.array([0.5, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(unit_tensor_field(kernel, pts, pts, w)[0]))
        with pytest.raises(EnergyError, match=r"undefined \(overflow\)"):
            _finite_field(kernel, pts, pts, w)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_pair_differences_bitwise(self, data):
        dim = data.draw(st.integers(1, 3))
        coord = st.one_of(st.floats(-1e6, 1e6), _fast_coord)
        xs, ys = (data.draw(_point_sets(dim, data.draw(st.integers(1, 8)), coord))
                  for _ in range(2))
        diff = xs[:, None, :] - ys[None, :, :]
        diffs, sq = pair_differences(xs, ys)
        assert sq.tobytes() == np.sum(diff * diff, axis=2).tobytes()
        for c, dc in enumerate(diffs):
            assert dc.tobytes() == diff[:, :, c].tobytes()


class TestDirectionalDerivative:
    def test_diagonal_coupling_zero(self, rng):
        mu = make_atomic(rng.normal(size=5), np.ones(5))
        plan = TransportPlan(mu, mu, np.diag(mu.weights))
        E = quadratic_energy()
        assert abs(directional_derivative(E, plan)) <= 1e-15

    def test_quadratic_dirac_pair(self):
        E = quadratic_energy()
        mu = make_atomic([0.0], [1.0])
        nu = make_atomic([1.0], [1.0])
        plan = TransportPlan(mu, nu, np.array([[1.0]]))
        # d/da (a^2/2) at 0 is 0; FD cross-check at an interior alpha
        assert abs(directional_derivative(E, plan, at=0.0)) <= 1e-15
        assert abs(directional_derivative(E, plan, at=0.5)
                   - fd_derivative(E, plan, at=0.5)) <= 1e-8

    def test_interaction_matches_fd(self):
        E = Energy(kernel=Kernel("newtonian", d=1))
        mu = make_atomic([0.0, 2.0], [0.5, 0.5])
        nu = make_atomic([1.0, 3.0], [0.5, 0.5])
        _, plan = w2_1d(mu, nu)
        got = directional_derivative(E, plan, at=0.0)
        assert abs(got - fd_derivative(E, plan, at=0.0)) <= 1e-6

    def test_smooth_fixture_fd_relative_error(self, rng):
        prof = lambda r: np.exp(-np.asarray(r) ** 2)
        dprof = lambda r: -2.0 * np.asarray(r) * np.exp(-np.asarray(r) ** 2)
        E = Energy(potential=POTENTIALS["quadratic"]({}),
                   kernel=Kernel("smooth", profile=prof, dprofile=dprof))
        mu = make_atomic(rng.normal(size=6), rng.uniform(0.2, 1, 6))
        nu = make_atomic(rng.normal(size=6), rng.uniform(0.2, 1, 6))
        _, plan = w2_1d(mu, nu)
        for at in (0.0, 0.3, 0.7):
            got = directional_derivative(E, plan, at=at)
            ref = fd_derivative(E, plan, at=at)
            assert abs(got - ref) <= 1e-4 * max(1.0, abs(ref))

    def test_internal_gap_calculus_matches_fd(self):
        E = Energy(internal=("entropy",))
        q0 = uniform_state(-0.5, 0.5, 32)
        q1 = uniform_state(-0.8, 0.9, 32)
        plan = diagonal_plan(q0, q1)
        got = directional_derivative(E, plan, at=0.5)

        def eval_at(alpha):
            return E.eval(q0.with_positions(
                (1 - alpha) * q0.positions + alpha * q1.positions))

        ref = (eval_at(0.5 + 1e-5) - eval_at(0.5 - 1e-5)) / 2e-5
        assert abs(got - ref) <= 1e-5 * max(1.0, abs(ref))


class TestAboveTangent:
    def test_convex_energy_nonnegative(self, rng):
        E = quadratic_energy()
        mod = lipschitz(0.0)
        for _ in range(20):
            mu = feasible_random_state(rng, 16, cap=None)
            nu = feasible_random_state(rng, 16, cap=None)
            s = above_tangent_slack(E, mu, nu, diagonal_plan(mu, nu), mod)
            assert s >= -1e-10

    def test_linear_energy_zero_slack(self):
        # linear potential: E(mu_alpha) affine in alpha, slack vanishes
        pot = Potential("linear", lambda x: 3.0 * np.asarray(x, dtype=float),
                        lambda x: np.full_like(np.asarray(x, dtype=float), 3.0))
        E = Energy(potential=pot)
        mu = dirac_state(0.0, 4)
        nu = dirac_state(1.0, 4)
        s = above_tangent_slack(E, mu, nu, diagonal_plan(mu, nu), lipschitz(0.0))
        assert abs(s) <= 1e-12

    def test_infinite_endpoint_rejected(self):
        E = Energy(kernel=Kernel("newtonian", d=1), constraint=(math.inf, 2.0))
        ok = uniform_state(-0.5, 0.5, 16)
        bad = uniform_state(-0.01, 0.01, 16)
        with pytest.raises(EnergyError):
            above_tangent_slack(E, ok, bad, diagonal_plan(ok, bad), lipschitz(0.0))


class TestMetricSlope:
    def test_constant_energy(self, rng):
        E = Energy(potential=POTENTIALS["zero"]({}))
        mu = dirac_state(1.0, 4)
        samples = [dirac_state(float(a), 4) for a in rng.normal(size=6)]
        assert metric_slope_estimate(E, mu, samples, lipschitz(0.0)) == 0.0

    def test_quadratic_dirac_slope(self):
        E = quadratic_energy()
        a = 1.25
        mu = dirac_state(a, 4)
        mod = lipschitz(0.0)
        near = [dirac_state(a - eps, 4) for eps in (0.5, 0.1, 1e-3, 1e-6)]
        est = metric_slope_estimate(E, mu, near, mod)
        # ((a^2-b^2)/2)/(a-b) -> a as b -> a, from below
        assert est <= a + 1e-9
        assert est >= a - 1e-3

    def test_monotone_in_samples(self, rng):
        E = quadratic_energy()
        mu = dirac_state(0.7, 4)
        mod = lipschitz(0.0)
        samples = [dirac_state(float(a), 4) for a in rng.normal(size=8)]
        prev = 0.0
        for k in range(1, len(samples) + 1):
            est = metric_slope_estimate(E, mu, samples[:k], mod)
            assert est >= prev - 1e-15
            prev = est


class TestLscProbe:
    def test_mollified_sequences(self):
        # mollify a block density; eval is lsc along the sequence
        E = Energy(kernel=Kernel("newtonian", d=1), internal=("entropy",))
        h = 1.0 / 400

        def mollified(eps):
            xs = np.arange(-0.5 + h / 2, 0.5, h)
            tail = np.clip((np.abs(xs) - 0.25) / eps, 0.0, 50.0)
            # 400 atoms read at 100 quantile nodes: no two nodes tie
            return to_quantile(make_atomic(xs, np.exp(-tail)), 100)

        target = mollified(1e-9)
        # the tail scale drops below the atom spacing, so the sequence
        # reaches the limit measure and eval must not jump upward
        seq = [mollified(e) for e in (0.2, 0.1, 0.05, 0.02, 1e-4, 1e-6)]
        vals = [E.eval(m) for m in seq]
        assert E.eval(target) <= vals[-1] + 1e-6
        assert all(math.isfinite(v) for v in vals)


class TestLpInterpolation:
    def test_interpolants_bounded(self, rng):
        for p in (2.0, math.inf):
            for _ in range(10):
                q0 = feasible_random_state(rng, 24, cap=2.0)
                q1 = feasible_random_state(rng, 24, cap=2.0)
                from omegaflow.measures import lp_norm
                cap = max(lp_norm(q0, p), lp_norm(q1, p))
                for a in (0.25, 0.5, 0.75):
                    qa = q0.with_positions(
                        (1 - a) * q0.positions + a * q1.positions)
                    assert lp_norm(qa, p) <= cap * (1.0 + 1e-9)


class TestFieldRegularity:
    def test_log_lipschitz_bound_with_frozen_constant(self, rng):
        frozen = load_frozen()
        C = frozen["aggregation_cap2"]["C"]
        k = Kernel("newtonian", d=1, c=1.0)
        for _ in range(5):
            mu = feasible_random_state(rng, 48, cap=2.0)
            pts = rng.uniform(-2.5, 2.5, size=(60, 2))
            fx = np.asarray(kernel_gradient(k, mu, pts[:, 0]))
            fy = np.asarray(kernel_gradient(k, mu, pts[:, 1]))
            lhs = np.abs(fx - fy) ** 2
            rhs = C ** 2 * psi((pts[:, 0] - pts[:, 1]) ** 2)
            assert np.all(lhs <= rhs * 1.1 + 1e-12)

    def test_recalibration_matches_frozen(self):
        frozen = load_frozen()
        rng = np.random.default_rng(42)
        measures = [feasible_random_state(rng, 48, cap=2.0) for _ in range(25)]
        k = Kernel("newtonian", d=1, c=1.0)
        fresh = calibrate_interaction_constant(k, measures,
                                               np.random.default_rng(1),
                                               n_pairs=200)
        assert abs(fresh - frozen["aggregation_cap2"]["C"]) \
            <= 0.05 * frozen["aggregation_cap2"]["C"]


class TestConfig:
    def test_parse_spec_example(self):
        E = parse_energy({"potential": "quadratic",
                          "kernel": {"kind": "newtonian", "d": 1},
                          "constraint": {"p": "inf", "cap": 1.0},
                          "internal": {"power": 2}})
        assert E.potential.name == "quadratic"
        assert E.kernel.kind == "newtonian"
        assert E.constraint == (math.inf, 1.0)
        assert E.internal == ("power", 2.0)

    def test_entropy_internal(self):
        E = parse_energy({"internal": "entropy"})
        assert E.internal == ("entropy",)

    def test_unknown_potential(self):
        with pytest.raises(EnergyError):
            parse_energy({"potential": "mystery"})

    def test_unknown_key(self):
        # a misspelt term would otherwise leave a zero energy
        with pytest.raises(EnergyError, match="potentail"):
            parse_energy({"potentail": "quadratic"})

    def test_json_string_input(self):
        E = parse_energy(json.dumps({"potential": "quadratic"}))
        assert E.kernel is None
