import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from omegaflow.config import ConfigError
from omegaflow.moduli import (
    JUNCTION,
    LOG_JUNCTION,
    LOG_KINDS,
    PSI_SHIFT,
    FlowWindowError,
    Modulus,
    ModulusError,
    adaptive_simpson,
    lipschitz,
    log_lipschitz,
    modulus_from_json,
    modulus_from_phi,
    polynomial,
    psi,
    sqrt_psi,
)

ALL_KINDS = [lipschitz(-1.0), lipschitz(1.0), polynomial(1.0, -1.0),
             polynomial(2.0, 0.5), log_lipschitz(-1.0), log_lipschitz(0.5),
             sqrt_psi(-2.0)]


def rk_flow(mod, t, x, n=20_000):
    """Independent oracle: RK4 integration of dF/dt = lam * omega(F)."""
    h = t / n
    y = x
    f = lambda v: mod.lam * mod.omega(max(v, 0.0))
    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y += h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


class TestOmega:
    def test_lipschitz_value(self):
        assert lipschitz(-1.0).omega(0.3) == 0.3

    def test_log_lipschitz_upper_branch(self):
        # e^-2 > e^(-1-sqrt 2): upper branch formula
        x = math.exp(-2.0)
        expect = math.sqrt(x * x + 2.0 * (1.0 + math.sqrt(2.0))
                           * math.exp(-1.0 - math.sqrt(2.0)) * x)
        assert abs(log_lipschitz(-1.0).omega(x) - expect) <= 1e-15

    def test_vanishes_at_zero(self):
        for mod in ALL_KINDS:
            assert mod.omega(0.0) == 0.0

    def test_negative_x_rejected(self):
        with pytest.raises(ModulusError):
            lipschitz(-1.0).omega(-0.1)

    def test_branch_continuity(self):
        mod = log_lipschitz(-1.0)
        below = mod.omega(JUNCTION * (1 - 1e-13))
        above = mod.omega(JUNCTION * (1 + 1e-13))
        assert abs(below - above) <= 1e-12

    def test_polynomial_cap(self):
        mod = polynomial(1.5, -1.0)
        assert mod.omega(0.5) == 0.5 ** 2.5
        assert mod.omega(2.0) == 1.0

    def test_axioms_validate(self):
        for mod in ALL_KINDS:
            mod.validate()

    def test_sqrt_psi_equals_log_lipschitz(self):
        xs = np.geomspace(1e-12, 100.0, 300)
        a = sqrt_psi(-1.0).omega(xs)
        b = log_lipschitz(-1.0).omega(xs)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestPsi:
    def test_zero(self):
        assert psi(0.0) == 0.0

    def test_junction_symbolic(self):
        j = math.exp(-1.0 - math.sqrt(2.0))
        assert (JUNCTION, LOG_JUNCTION) == (j, -1.0 - math.sqrt(2.0))
        lower = j * (1.0 + math.sqrt(2.0)) ** 2
        upper = j + 2.0 * (1.0 + math.sqrt(2.0)) * j
        assert abs(lower - upper) <= 1e-16
        assert abs(psi(j) - lower) <= 1e-16

    def test_dominates_identity(self):
        xs = np.geomspace(1e-12, 1e3, 200)
        assert np.all(psi(xs) >= xs * (1 - 1e-12))

    def test_negative_rejected(self):
        with pytest.raises(ModulusError):
            psi(-1.0)


class TestFlowMap:
    def test_lipschitz_closed_form(self):
        # ODE-consistent sign: dF/dt = lam F, so F_t(x) = e^{lam t} x
        mod = lipschitz(1.0)
        assert abs(mod.flow(math.log(2.0), 4.0) - 8.0) <= 1e-12
        mod = lipschitz(-1.0)
        assert abs(mod.flow(math.log(2.0), 4.0) - 2.0) <= 1e-12

    def test_polynomial_closed_form(self):
        mod = polynomial(1.0, -1.0)
        assert abs(mod.flow(2.0, 0.5) - 0.25) <= 1e-14

    def test_log_lipschitz_closed_form(self):
        mod = log_lipschitz(-1.0)
        assert abs(mod.flow(math.log(2.0), 0.01) - 1e-4) <= 1e-16

    def test_window_error(self):
        mod = polynomial(1.0, 2.0)
        window = (1.0 / 0.5 - 1.0) / (2.0 * 1.0)
        assert abs(mod.flow_window(0.5) - window) <= 1e-15
        with pytest.raises(FlowWindowError):
            mod.flow(window * 1.01, 0.5)
        mod.flow(window * 0.9, 0.5)  # inside: fine

    def test_semigroup(self):
        for mod in (lipschitz(-0.7), polynomial(1.0, -1.0), log_lipschitz(-1.0),
                    log_lipschitz(0.5), sqrt_psi(-2.0)):
            for x in (0.03, 0.4, 2.0):
                if mod.flow_window(x) <= 0.75:
                    continue
                two_step = mod.flow(0.3, mod.flow(0.45, x))
                one_step = mod.flow(0.75, x)
                assert abs(two_step - one_step) <= 1e-8

    def test_against_rk4_oracle(self):
        # includes branch crossings and the numeric quadrature path
        cases = [
            (lipschitz(-1.0), 1.0, 0.7),
            (polynomial(1.0, -1.0), 1.5, 2.5),   # crosses the cap at 1
            (log_lipschitz(-1.0), 1.0, 0.5),     # upper -> lower branch
            (log_lipschitz(0.5), 1.0, 0.5),      # grows in upper branch
            (sqrt_psi(-2.0), 0.8, 0.2),
            (polynomial(0.0, -1.0), 1.0, 0.5),   # p = 0: omega(x) = x below 1
            (polynomial(0.0, -1.0), 1.0, 1.5),   # crosses the cap at t1 = 0.5
        ]
        for mod, t, x in cases:
            ref = rk_flow(mod, t, x)
            assert abs(mod.flow(t, x) - ref) <= 1e-7, (mod.kind, mod.lam, t, x)

    def test_monotone_in_x(self):
        for mod in ALL_KINDS:
            xs = np.linspace(0.01, 0.9, 12)
            vals = []
            for x in xs:
                if mod.flow_window(x) <= 0.5:
                    break
                vals.append(mod.flow(0.5, x))
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestEulerMaps:
    def test_tau_zero_identity(self):
        for mod in ALL_KINDS:
            assert mod.euler_step(0.0, 0.37) == 0.37

    def test_lipschitz_step(self):
        assert abs(lipschitz(-1.0).euler_step(0.1, 1.0) - 0.9) <= 1e-16

    def test_negative_input_clamps(self):
        for mod in ALL_KINDS:
            assert mod.euler_step(0.1, -0.5) == 0.0
            assert mod.tilde_euler_step(0.1, -0.5) == 0.0

    def test_iterate_zero_steps(self):
        assert lipschitz(-1.0).euler_iterate(0.1, 0.8, 0) == 0.8

    def test_lipschitz_iterate_closed_form(self):
        mod = lipschitz(-1.0)
        for m in (5, 10, 50):
            got = mod.euler_iterate(1.0 / m, 1.0, m)
            assert abs(got - (1.0 - 1.0 / m) ** m) <= 1e-14

    def test_iterate_converges_to_flow(self):
        for mod in (lipschitz(-1.0), polynomial(1.0, -1.0), log_lipschitz(-1.0)):
            exact = mod.flow(1.0, 0.5)
            approx = mod.euler_iterate(1e-4, 0.5, 10_000)
            bound = mod.euler_error_bound(1.0, 0.5, 10_000)
            assert abs(exact - approx) <= bound

    def test_monotone_nonincreasing_in_steps(self):
        mod = log_lipschitz(-1.0)
        vals = [mod.euler_iterate(0.05, 0.4, k) for k in range(12)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestEulerErrorBound:
    def test_zero_rate(self):
        assert lipschitz(0.0).euler_error_bound(1.0, 0.5, 100) == 0.0

    def test_lipschitz_formula(self):
        got = lipschitz(-1.0).euler_error_bound(1.0, 1.0, 100)
        assert abs(got - 0.01 * math.e) <= 1e-15

    def test_polynomial_envelope_uses_majorant_slope(self):
        # omega_tilde = (p+1) x, so the envelope grows like e^{(p+1)s}
        mod = polynomial(1.0, -1.0)
        got = mod.euler_error_bound(1.0, 1.0, 100)
        seed = 1.0 * mod.omega(1.0) / 100
        assert abs(got - seed * math.exp(2.0)) <= 1e-14

    def test_bound_decreasing_in_steps(self):
        mod = log_lipschitz(-1.0)
        b = [mod.euler_error_bound(1.0, 0.3, m) for m in (10, 100, 1000)]
        assert b[0] > b[1] > b[2] >= 0.0

    def test_bound_holds_on_grid(self):
        # 3 moduli x 5 (x, t) x 3 step counts
        mods = [lipschitz(-1.0), polynomial(1.0, 0.5), log_lipschitz(-1.0)]
        xs = [0.02, 0.1, 0.3, 0.55, 0.85]
        for mod in mods:
            for x in xs:
                for t in (0.5, 1.0):
                    if mod.flow_window(x) <= t:
                        continue
                    exact = mod.flow(t, x)
                    for m in (10, 100, 1000):
                        err = abs(exact - mod.euler_iterate(t / m, x, m))
                        assert err <= mod.euler_error_bound(t, x, m) + 1e-15


def _reference_c_r(mod, r):
    """The grid search that ``Modulus.c_r`` ran for the log family before
    its closed form: the largest omega_tilde(x)/sqrt(x) over a fixed
    geometric master grid up to r, and r itself, times 1.01."""
    grid = np.union1d(np.geomspace(1e-14, 1e8, 8192), [math.exp(-2.0), JUNCTION])
    pts = np.append(grid[grid <= r], r)
    return float(1.01 * (mod.omega_tilde(pts) / np.sqrt(pts)).max())


class TestCR:
    @pytest.mark.parametrize("mod", [log_lipschitz(-1.0), log_lipschitz(0.5),
                                     sqrt_psi(-1.0), sqrt_psi(0.5)],
                             ids=lambda m: f"{m.kind}{m.lam:+g}")
    def test_log_closed_form_matches_grid_search(self, mod):
        rng = np.random.default_rng(3)
        rs = np.concatenate([[1.0, 1e8, 1e9], 10.0 ** rng.uniform(0.0, 9.0, 300),
                             10.0 ** rng.uniform(8.0, 12.0, 50)])
        for r in rs.tolist():
            assert mod.c_r(r) == _reference_c_r(mod, r), r
        # one ulp above a grid point the grid point's rounded ratio can top
        # r's by an ulp; the closed form reports the ratio at r
        grid = np.geomspace(1e-14, 1e8, 8192)
        for r in np.nextafter(grid[grid >= 1.0][::40], np.inf).tolist():
            ref = _reference_c_r(mod, r)
            assert abs(mod.c_r(r) - ref) <= np.spacing(ref), r

    def test_lipschitz_closed_form(self):
        assert lipschitz(-1.0).c_r(1.0) == 1.0
        assert lipschitz(-1.0).c_r(4.0) == 2.0

    def test_polynomial_closed_form(self):
        assert polynomial(1.0, -1.0).c_r(4.0) == 4.0  # (p+1) sqrt(r)

    def test_nondecreasing(self):
        for mod in ALL_KINDS:
            vals = [mod.c_r(r) for r in (1.0, 2.0, 4.0, 8.0)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_grid_value_covers_true_max(self):
        # log-Lipschitz: omega_tilde(x)/sqrt(x) is increasing, max at r
        mod = log_lipschitz(-1.0)
        for r in (1.0, 3.0, 9.0):
            truth = mod.omega_tilde(r) / math.sqrt(r)
            assert mod.c_r(r) >= truth
            assert mod.c_r(r) <= 1.011 * truth


class TestMonotonicityLemma:
    @given(st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(0.0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_part_i_nonnegative_rate(self, x, y, tau):
        mod = polynomial(1.0, 0.7)
        lo, hi = sorted((x, y))
        assert mod.euler_step(tau, lo) <= mod.euler_step(tau, hi) + 1e-12

    @given(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.001, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_part_i_negative_rate(self, x, y, frac):
        mod = log_lipschitz(-1.0)
        r = 4.0
        lo, hi = sorted((x, y))
        c_r = mod.c_r(r)
        tau = frac / (c_r * abs(mod.lam))
        slack = mod.lam ** 2 * c_r ** 2 * tau ** 2
        assert mod.euler_step(tau, lo) <= mod.euler_step(tau, hi) + slack + 1e-12

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 0.5))
    @settings(max_examples=60, deadline=None)
    def test_part_ii(self, x, y, tau):
        pos = polynomial(1.0, 0.7)
        assert pos.euler_step(tau, x + y) <= pos.euler_step(tau, x) + y \
            + pos.lam * tau * pos.omega_tilde(y) + 1e-12
        neg = log_lipschitz(-1.0)
        assert neg.euler_step(tau, x + y) <= neg.euler_step(tau, x) + y + 1e-12


class TestTildeMap:
    def test_convex_and_nondecreasing(self):
        mod = log_lipschitz(-1.0)
        tau = 0.05
        xs = np.linspace(0.0, 3.0, 400)
        vals = mod.tilde_euler_step(tau, xs)
        ok = xs - mod.lam_minus * tau * mod.omega_tilde(xs) >= 0
        v = vals[ok]
        assert np.all(np.diff(v) >= -1e-12)
        mid = mod.tilde_euler_step(tau, 0.5 * (xs[ok][:-2] + xs[ok][2:]))
        assert np.all(0.5 * (v[:-2] + v[2:]) - mid >= -1e-12)


class TestOsgoodProxy:
    def test_divergence_proxy_increasing(self):
        # int_{10^-k}^1 dx / omega_tilde grows without plateau; computed
        # decade by decade so the quadrature never sees the 1/x blow-up
        for mod in (lipschitz(-1.0), polynomial(1.0, -1.0), log_lipschitz(-1.0),
                    sqrt_psi(-1.0)):
            decades = [adaptive_simpson(
                lambda z: 1.0 / mod.omega_tilde(z),
                10.0 ** (-k), 10.0 ** (-k + 1), tol=1e-9)
                for k in range(1, 13)]
            vals = np.cumsum(decades)
            assert np.all(np.diff(vals) > 1e-3), mod.kind


class TestModulusFromPhi:
    def test_linear_phi_reproduces_identity(self):
        s = np.linspace(0.0, 1.5, 400)
        mod = modulus_from_phi(s, s, +1)
        grid = np.linspace(1e-6, 1.0, 333)
        assert np.max(np.abs(mod.omega(grid) - grid)) <= 1e-8
        assert mod.lam == 1.0

    def test_zero_phi_rejected(self):
        s = np.linspace(0.0, 1.2, 50)
        with pytest.raises(ModulusError):
            modulus_from_phi(s, np.zeros_like(s), +1)

    def test_sign_indefinite_rejected(self):
        s = np.linspace(0.0, 1.2, 50)
        with pytest.raises(ModulusError):
            modulus_from_phi(s, np.sin(6 * s), +1)

    def test_granular_shape_b0(self):
        s = np.linspace(0.0, 1.5, 400)
        mod = modulus_from_phi(s, s ** 1.0, +1)  # b = 0: omega = x^((b+2)/2)
        grid = np.linspace(1e-6, 1.0, 100)
        assert np.max(np.abs(mod.omega(grid) - grid ** 1.0)) <= 1e-8

    def test_negative_sign(self):
        s = np.linspace(0.0, 1.0, 300)
        mod = modulus_from_phi(s, -s, -1)
        assert mod.lam == -1.0
        grid = np.linspace(1e-6, 0.9, 50)
        assert np.max(np.abs(mod.omega(grid) - grid)) <= 1e-8


class TestConfigJson:
    def test_round_trip(self):
        # each modulus, spelled as its config object, parses back to itself
        for mod in (lipschitz(-0.5), polynomial(2.0, 1.0), log_lipschitz(-1.0),
                    sqrt_psi(-4.0)):
            spec = {"kind": mod.kind, "lambda": mod.lam}
            if mod.kind == "polynomial":
                spec["p"] = mod.p
            back = modulus_from_json(spec)
            assert back.kind == mod.kind
            assert back.lam == mod.lam
            assert back.p == mod.p

    def test_parse_dict(self):
        mod = modulus_from_json({"kind": "polynomial", "p": 1, "lambda": -0.5})
        assert mod.kind == "polynomial" and mod.p == 1.0 and mod.lam == -0.5

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="'kind': unknown modulus kind \"mystery\""):
            modulus_from_json({"kind": "mystery"})


class TestPhiDerivedFlows:
    def test_linear_majorant_envelope_closed_form(self):
        s = np.linspace(0.0, 1.5, 300)
        mod = modulus_from_phi(s, s, +1)  # omega_tilde = 2x
        assert mod.slope == pytest.approx(2.0)
        assert mod.envelope(0.5, 0.1) == pytest.approx(0.1 * math.exp(1.0))

    def test_flow_numeric_path(self):
        s = np.linspace(0.0, 1.5, 300)
        mod = modulus_from_phi(s, -s, -1)  # lam = -1, omega ~ x below cap
        got = mod.flow(0.7, 0.4)
        assert got == pytest.approx(0.4 * math.exp(-0.7), rel=1e-6)


class TestConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ModulusError, match="unknown modulus kind"):
            Modulus("mystery", 1.0)

    # keyword arguments with the slope absent, zero, negative or nan
    @pytest.mark.parametrize("meta", [{}, {"slope": 0.0}, {"slope": -1.0},
                                      {"slope": math.nan}])
    def test_phi_derived_needs_positive_slope(self, meta):
        with pytest.raises(ModulusError, match="slope"):
            Modulus("phi_derived", 1.0, _omega_fn=lambda x: x, **meta)

    def test_tilde_slope_is_the_linear_majorant_test(self):
        assert lipschitz(-1.0).tilde_slope == 1.0
        assert polynomial(2.0, -1.0).tilde_slope == 3.0
        assert _phi_modulus(+1).tilde_slope == _phi_modulus(+1).slope
        for kind in LOG_KINDS:
            assert Modulus(kind, -1.0).tilde_slope is None


# -- reference: the per-method flow ladders the majorant flow replaced ------

def _ref_cosh_branch(s, y):
    c = PSI_SHIFT
    k = math.acosh(1.0 + 2.0 * y / c)
    return 0.5 * c * (math.cosh(k + s) - 1.0)


def _ref_cosh_time_to_junction(y):
    c = PSI_SHIFT
    return math.acosh(1.0 + 2.0 * y / c) \
        - math.acosh(1.0 + 2.0 * JUNCTION / c)


def _ref_old_slope(mod):
    return mod.p + 1.0 if mod.kind == "polynomial" else 1.0


def _ref_flow_numeric(mod, t, x):
    target = mod.lam * t

    def T(b):
        a, sign = x, 1.0
        if a == b:
            return 0.0
        if a > b:
            a, b, sign = b, a, -1.0
        return sign * adaptive_simpson(lambda z: 1.0 / mod.omega(z), a, b)

    if target > 0:
        hi = max(2.0 * x, 1.0)
        while T(hi) < target:
            hi *= 2.0
        lo = x
    else:
        lo = 0.5 * x
        while T(lo) > target:
            lo *= 0.5
        hi = x
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if T(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def ref_flow(mod, t, x):
    lam = mod.lam
    if t == 0 or x == 0 or lam == 0:
        return float(x)
    if mod.kind == "lipschitz":
        return x * math.exp(lam * t)
    if mod.kind == "polynomial":
        return mod._flow_polynomial(t, x)
    if mod.kind in ("log_lipschitz", "sqrt_psi"):
        if x <= JUNCTION:
            return x ** math.exp(-lam * t)
        if lam < 0:
            t_cross = _ref_cosh_time_to_junction(x) / (-lam)
            if t <= t_cross:
                return _ref_cosh_branch(lam * t, x)
            rest = t - t_cross
            return JUNCTION ** math.exp(-lam * rest)
        return _ref_cosh_branch(lam * t, x)
    return _ref_flow_numeric(mod, t, x)


def ref_envelope(mod, s, y):
    if y == 0.0 or s == 0.0:
        return float(y)
    if mod.kind in ("lipschitz", "polynomial"):
        return y * math.exp(_ref_old_slope(mod) * s)
    if mod.kind in ("log_lipschitz", "sqrt_psi"):
        if y <= JUNCTION:
            s_cross = math.log(math.log(y) / math.log(JUNCTION))
            if s <= s_cross:
                return y ** math.exp(-s)
            y = JUNCTION
            s = s - s_cross
            if s == 0.0:
                return y
        return _ref_cosh_branch(s, y)
    return y * math.exp(mod.slope * s)


def ref_euler_error_bound(mod, t, x, steps):
    if mod.lam == 0.0:
        return 0.0
    al = abs(mod.lam)
    if mod.lam > 0:
        seed = al * t * mod.omega(ref_flow(mod, t, x)) / steps
    else:
        seed = al * t * mod.omega(x) / steps
    return ref_envelope(mod, al * t, seed)


_PHI_S = np.linspace(0.0, 1.5, 300)


@functools.lru_cache(maxsize=None)
def _phi_modulus(sign):
    if sign > 0:
        return modulus_from_phi(_PHI_S, _PHI_S, +1)
    return modulus_from_phi(_PHI_S[:201], -_PHI_S[:201], -1)


def _make(kind, lam, p):
    if kind == "lipschitz":
        return lipschitz(lam)
    if kind == "polynomial":
        return polynomial(p, lam)
    if kind == "phi_derived":
        return _phi_modulus(+1 if lam > 0 else -1)
    return Modulus(kind, lam)


KINDS = ["lipschitz", "polynomial", "log_lipschitz", "sqrt_psi", "phi_derived"]
RATES = st.one_of(st.just(0.0), st.floats(-3.0, -0.01), st.floats(0.01, 3.0))
EXPONENTS = st.sampled_from([0.0, 0.5, 1.0, 2.0])
# both sides of the log-family junction, the junction itself included
X_BOTH_SIDES = st.one_of(st.floats(1e-12, JUNCTION), st.floats(JUNCTION, 10.0))


class TestMajorantFlowReference:
    @given(kind=st.sampled_from(KINDS), lam=RATES, p=EXPONENTS,
           x=X_BOTH_SIDES, frac=st.floats(0.0, 1.0),
           steps=st.integers(1, 1000))
    @settings(max_examples=300, deadline=None)
    def test_flows_bitwise_equal_to_reference(self, kind, lam, p, x, frac,
                                              steps):
        mod = _make(kind, lam, p)
        window = mod.flow_window(x)
        t = frac * min(window, 3.0)
        assume(t < window)
        assert mod.envelope(t, x) == ref_envelope(mod, t, x)
        if kind == "phi_derived":  # its flow is the slow numeric inversion
            if mod.lam < 0:
                assert mod.euler_error_bound(t, x, steps) \
                    == ref_euler_error_bound(mod, t, x, steps)
            return
        assert mod.flow(t, x) == ref_flow(mod, t, x)
        assert mod.euler_error_bound(t, x, steps) \
            == ref_euler_error_bound(mod, t, x, steps)

    @pytest.mark.parametrize("sign,x", [(+1, 0.4), (+1, 2.0), (-1, 0.01),
                                        (-1, 2.0)])
    def test_phi_derived_flow_bitwise_equal_to_reference(self, sign, x):
        mod = _phi_modulus(sign)
        assert mod.flow(0.7, x) == ref_flow(mod, 0.7, x)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("lam", [-2.0, 0.7])
    def test_one_scalar_euler_iterate_is_one_euler_step(self, kind, lam):
        # the scalar loop's omega and the array omega are one formula
        mod = _make(kind, lam, 1.5)
        # and the log family's points where libm's log differed from numpy's
        xs = np.concatenate([np.geomspace(1e-12, 10.0, 300),
                             np.linspace(0.0, 3.0, 301),
                             [0.08446433889360816, 0.03254906955422365,
                              0.04838641523639853, 1.894666495616572e-247]])
        for x in xs.tolist():
            assert mod.euler_iterate(0.3, x, 1) == mod.euler_step(0.3, x), x
