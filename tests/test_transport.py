import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from omegaflow import transport
from omegaflow.measures import (
    AtomicMeasure,
    QuantileMeasure,
    make_atomic,
    pair_differences,
    same_grid,
    to_quantile,
)
from omegaflow.transport import (
    GluedPlan,
    TransportError,
    TransportPlan,
    geodesic,
    glue,
    pseudo_distance,
    w2,
    w2_1d,
    w2_exact,
)


def brute_force_equal_weights(xs, ys):
    """Exact OT cost by enumerating Birkhoff vertices (permutations)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float).T).T
    ys = np.atleast_2d(np.asarray(ys, dtype=float).T).T
    if xs.ndim == 1:
        xs = xs[:, None]
    if ys.ndim == 1:
        ys = ys[:, None]
    n = len(xs)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(float(np.sum((xs[i] - ys[perm[i]]) ** 2)) for i in range(n))
        best = min(best, cost)
    return best / n


class TestW21d:
    def test_dirac_pair(self):
        d, _ = w2_1d(make_atomic([0.0], [1.0]), make_atomic([1.0], [1.0]))
        assert d == 1.0

    def test_translation_invariance(self, rng):
        for _ in range(10):
            pts = np.sort(rng.normal(size=8))
            w = rng.uniform(0.1, 1, 8)
            mu = make_atomic(pts, w)
            a = float(rng.normal())
            nu = make_atomic(pts + a, w)
            d = w2_1d(mu, nu, return_plan=False)
            assert abs(d - abs(a)) <= 1e-12

    def test_two_atom_case(self):
        # brute force over both permutation couplings: monotone wins with 1
        mu = make_atomic([0.0, 2.0], [0.5, 0.5])
        nu = make_atomic([1.0, 3.0], [0.5, 0.5])
        d, plan = w2_1d(mu, nu)
        c_mono = 0.5 * (0 - 1) ** 2 + 0.5 * (2 - 3) ** 2
        c_swap = 0.5 * (0 - 3) ** 2 + 0.5 * (2 - 1) ** 2
        assert d * d == min(c_mono, c_swap) == 1.0
        assert abs(plan.cost() - 1.0) <= 1e-15

    def test_marginals(self, rng):
        mu = make_atomic(rng.normal(size=5), rng.uniform(0.1, 1, 5))
        nu = make_atomic(rng.normal(size=9), rng.uniform(0.1, 1, 9))
        _, plan = w2_1d(mu, nu)
        assert np.allclose(plan.matrix.sum(axis=1), mu.weights, atol=1e-12)
        assert np.allclose(plan.matrix.sum(axis=0), nu.weights, atol=1e-12)


def _reference_w2_1d(a, b):
    """The monotone coupling of two 1D atomic measures as ``w2_1d`` computed
    it with its own loop: (distance, plan matrix)."""
    wa = a.weights.copy()
    wb = b.weights.copy()
    xs, ys = a.points, b.points
    i = j = 0
    entries = []
    cost = 0.0
    m, n = len(wa), len(wb)
    while i < m and j < n:
        t = min(wa[i], wb[j])
        if t > 0:
            d = xs[i] - ys[j]
            cost += t * d * d
            entries.append((i, j, t))
        wa[i] -= t
        wb[j] -= t
        if wa[i] <= 0.0:
            i += 1
        if j < n and wb[j] <= 0.0:
            j += 1
    mat = np.zeros((m, n))
    for i, j, t in entries:
        mat[i, j] += t
    return float(np.sqrt(max(cost, 0.0))), mat


# zero weights and weights of order 1e-8 next to order-one ones
_weight = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-8, 0.1, 1.0]))
_atoms = st.one_of(st.sampled_from([1, 2]), st.integers(1, 13)).flatmap(
    lambda n: st.tuples(st.lists(st.floats(-3.0, 3.0, allow_subnormal=False)
                                 | st.sampled_from([-1.0, 0.0, 0.5]),
                                 min_size=n, max_size=n),
                        st.lists(_weight, min_size=n, max_size=n)))


class TestW21dReference:
    """``w2_1d`` takes its cells from the simplex's north-west-corner walk;
    distance and plan must equal, bit for bit, those of its former loop."""

    @staticmethod
    def _assert_matches(mu, nu):
        d, plan = w2_1d(mu, nu)
        ref_d, ref_mat = _reference_w2_1d(mu, nu)
        assert d == ref_d
        assert np.array_equal(plan.matrix, ref_mat)
        assert w2_1d(mu, nu, return_plan=False) == ref_d

    @given(_atoms, _atoms)
    @settings(max_examples=400, deadline=None)
    def test_random_tied_and_zero_weights(self, x, y):
        (xs, wx), (ys, wy) = x, y
        assume(sum(wx) > 0 and sum(wy) > 0)
        self._assert_matches(make_atomic(xs, wx), make_atomic(ys, wy))

    def test_diracs_and_last_bit_sums(self):
        cases = [
            (make_atomic([0.3, 0.3], [1, 1]), make_atomic([-0.2, -0.2], [1, 1])),
            (make_atomic([0.5], [1.0]), make_atomic([0.5, 0.5], [0.3, 0.7])),
            (make_atomic([0.0, 1.0], [0.0, 1.0]), make_atomic([2.0, 3.0], [1.0, 0.0])),
            # normalized weights whose sums are not 1 in the last bit
            (make_atomic(np.linspace(0, 1, 10), np.full(10, 0.1)),
             make_atomic(np.linspace(0, 2, 3), [1.0, 1.0, 1.0])),
            (make_atomic(np.arange(7.0), np.full(7, 1 / 7)),
             make_atomic(np.arange(13.0) / 3, np.arange(1.0, 14.0))),
        ]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cases.append((make_atomic(rng.normal(size=12), rng.uniform(0, 1, 12)),
                          make_atomic(rng.normal(size=9), rng.uniform(0, 1, 9))))
        off = [abs(float(np.sum(m.weights)) - 1.0) for pair in cases for m in pair]
        assert max(off) > 0.0
        for mu, nu in cases:
            self._assert_matches(mu, nu)
            self._assert_matches(nu, mu)


class TestW2Exact:
    def test_identical_measures(self, rng):
        mu = make_atomic(rng.normal(size=6), rng.uniform(0.1, 1, 6))
        d, plan = w2_exact(mu, mu)
        assert d <= 1e-12
        assert abs(np.trace(plan.matrix) - 1.0) <= 1e-12

    def test_matches_1d_example(self):
        mu = make_atomic([0.0, 2.0], [0.5, 0.5])
        nu = make_atomic([1.0, 3.0], [0.5, 0.5])
        assert abs(w2_exact(mu, nu, return_plan=False) - 1.0) <= 1e-12

    def test_2d_example(self):
        mu = make_atomic(np.array([[0.0, 0.0], [1.0, 0.0]]), [0.5, 0.5])
        nu = make_atomic(np.array([[0.0, 1.0], [1.0, 1.0]]), [0.5, 0.5])
        assert abs(w2_exact(mu, nu, return_plan=False) - 1.0) <= 1e-12

    def test_brute_force_small(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 3))
            shape = (n,) if dim == 1 else (n, dim)
            xs = rng.normal(size=shape)
            ys = rng.normal(size=shape)
            mu = make_atomic(xs, np.ones(n))
            nu = make_atomic(ys, np.ones(n))
            d = w2_exact(mu, nu, return_plan=False)
            ref = brute_force_equal_weights(np.sort(xs, axis=0) if dim == 1 else xs, ys)
            assert abs(d * d - ref) <= 1e-12

    def test_against_scipy_linprog(self, rng):
        # independent LP oracle on general weights
        from scipy.optimize import linprog
        for _ in range(10):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            mu = make_atomic(rng.normal(size=m), rng.uniform(0.1, 1, m))
            nu = make_atomic(rng.normal(size=n), rng.uniform(0.1, 1, n))
            C = (mu.points[:, None] - nu.points[None, :]) ** 2
            a_eq = []
            for i in range(m):
                row = np.zeros((m, n))
                row[i, :] = 1
                a_eq.append(row.ravel())
            for j in range(n):
                row = np.zeros((m, n))
                row[:, j] = 1
                a_eq.append(row.ravel())
            res = linprog(C.ravel(), A_eq=np.array(a_eq),
                          b_eq=np.concatenate([mu.weights, nu.weights]),
                          bounds=(0, None), method="highs")
            d = w2_exact(mu, nu, return_plan=False)
            assert abs(d * d - res.fun) <= 1e-9

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            ms = [make_atomic(rng.normal(size=5), rng.uniform(0.1, 1, 5))
                  for _ in range(3)]
            d01 = w2_exact(ms[0], ms[1], return_plan=False)
            d10 = w2_exact(ms[1], ms[0], return_plan=False)
            d02 = w2_exact(ms[0], ms[2], return_plan=False)
            d12 = w2_exact(ms[1], ms[2], return_plan=False)
            assert abs(d01 - d10) <= 1e-9
            assert d02 <= d01 + d12 + 1e-9

    def test_support_cap(self, rng):
        # one atom over SUPPORT_CAP on either side raises before any solve
        n = transport.SUPPORT_CAP + 1
        big = make_atomic(rng.normal(size=n), np.ones(n))
        small = make_atomic(rng.normal(size=3), np.ones(3))
        for mu, nu in ((big, small), (small, big)):
            with pytest.raises(TransportError, match=f"exceeds cap {n - 1}"):
                w2_exact(mu, nu)


class TestGeodesic:
    def test_endpoints(self, rng):
        mu = make_atomic(rng.normal(size=4), rng.uniform(0.1, 1, 4))
        nu = make_atomic(rng.normal(size=4), rng.uniform(0.1, 1, 4))
        g0 = geodesic(mu, nu, 0.0)
        g1 = geodesic(mu, nu, 1.0)
        # 1-ulp weight splits in the plan leave ~1e-8 coupling residue
        assert w2_1d(g0, mu, return_plan=False) <= 1e-7
        assert w2_1d(g1, nu, return_plan=False) <= 1e-7

    def test_dirac_midpoint(self):
        g = geodesic(make_atomic([0.0], [1.0]), make_atomic([2.0], [1.0]), 0.5)
        assert g.points.tolist() == [1.0]

    def test_monotone_interpolation(self):
        mu = make_atomic([0.0, 2.0], [0.5, 0.5])
        nu = make_atomic([1.0, 3.0], [0.5, 0.5])
        g = geodesic(mu, nu, 0.5)
        assert g.points.tolist() == [0.5, 2.5]

    def test_constant_speed(self, rng):
        mu = make_atomic(rng.normal(size=5), rng.uniform(0.1, 1, 5))
        nu = make_atomic(rng.normal(size=5), rng.uniform(0.1, 1, 5))
        d = w2_1d(mu, nu, return_plan=False)
        for a, b in ((0.2, 0.7), (0.0, 0.4), (0.3, 1.0)):
            ga = geodesic(mu, nu, a)
            gb = geodesic(mu, nu, b)
            assert abs(w2_1d(ga, gb, return_plan=False) - (b - a) * d) <= 1e-8

    def test_alpha_out_of_range(self):
        mu = make_atomic([0.0], [1.0])
        with pytest.raises(TransportError):
            geodesic(mu, mu, 1.5)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_same_grid_quantiles_move_node_to_node(self, rng, n):
        q = (np.arange(n) + 0.5) / n
        c = np.full(n, 1.0 / n)
        x = np.sort(rng.normal(size=n))
        y = np.sort(rng.normal(size=n))
        if n == 2:
            y[:] = 0.7   # a Dirac endpoint: tied positions
        mu, nu = QuantileMeasure(q, x, c), QuantileMeasure(q, y, c)
        for a in (0.0, 0.3, 0.5, 1.0):
            g = geodesic(mu, nu, a)
            assert isinstance(g, QuantileMeasure)
            assert np.array_equal(g.q_nodes, mu.q_nodes)
            assert np.array_equal(g.positions, (1 - a) * x + a * y)
            ref = geodesic(mu.to_atomic(), nu.to_atomic(), a)
            got = g.to_atomic()
            assert np.max(np.abs(got.points - ref.points)) <= 1e-12
            assert np.max(np.abs(got.weights - ref.weights)) <= 1e-12

    def test_quantile_pair_with_plan_is_atomic(self):
        mu = QuantileMeasure([0.25, 0.75], [0.0, 2.0], [0.5, 0.5])
        nu = QuantileMeasure([0.25, 0.75], [1.0, 3.0], [0.5, 0.5])
        _, plan = w2(mu, nu, return_plan=True)
        g = geodesic(mu, nu, 0.5, plan)
        assert not isinstance(g, QuantileMeasure)
        assert g.points.tolist() == [0.5, 2.5]


class TestGluedPlan:
    def test_single_atom_base_is_product(self):
        mu0 = make_atomic([0.0, 1.0], [0.5, 0.5])
        mu1 = make_atomic([2.0, 4.0], [0.25, 0.75])
        base = make_atomic([0.0], [1.0])
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        # product coupling: masses w_i * v_j
        masses = sorted(g.mass.tolist())
        expect = sorted([0.5 * 0.25, 0.5 * 0.75, 0.5 * 0.25, 0.5 * 0.75])
        assert np.allclose(masses, expect)

    def test_identical_measures_diagonal(self, rng):
        mu = make_atomic(rng.normal(size=4), rng.uniform(0.2, 1, 4))
        base = make_atomic(rng.normal(size=4), rng.uniform(0.2, 1, 4))
        _, p = w2_exact(mu, base)
        g = glue(p, p)
        assert np.allclose(g.xs, g.ys)
        assert pseudo_distance(g) <= 1e-12

    def test_pair_marginals_reproduced(self, rng):
        mu0 = make_atomic(rng.normal(size=3), rng.uniform(0.2, 1, 3))
        mu1 = make_atomic(rng.normal(size=3), rng.uniform(0.2, 1, 3))
        base = make_atomic(rng.normal(size=3), rng.uniform(0.2, 1, 3))
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        # the (x, z) and (y, z) marginals, aggregated from the triples
        for plan, pts in ((p0, g.xs), (p1, g.ys)):
            marg: dict = {}
            for p, z, m in zip(pts[:, 0], g.zs[:, 0], g.mass):
                marg[p, z] = marg.get((p, z), 0.0) + m
            assert len(marg) == np.count_nonzero(plan.matrix)
            for (xp, zp), mass in marg.items():
                i = int(np.flatnonzero(plan.source.points == xp)[0])
                k = int(np.flatnonzero(base.points == zp)[0])
                assert abs(plan.matrix[i, k] - mass) <= 1e-12

    def test_base_mismatch_rejected(self, rng):
        mu = make_atomic(rng.normal(size=3), np.ones(3))
        base1 = make_atomic([0.0, 1.0], [0.5, 0.5])
        base2 = make_atomic([0.0, 1.5], [0.5, 0.5])
        _, p0 = w2_exact(mu, base1)
        _, p1 = w2_exact(mu, base2)
        with pytest.raises(TransportError):
            glue(p0, p1)


def _reference_glue(plan0, plan1):
    """``glue`` as a loop over base atoms and pairs of column entries: the
    triples in order k, then i, then j."""
    x_pts = plan0.source.points_2d()
    y_pts = plan1.source.points_2d()
    z_pts = plan0.target.points_2d()
    xs, ys, zs, mass = [], [], [], []
    if (plan0.matrix.shape == plan1.matrix.shape
            and np.array_equal(plan0.matrix, plan1.matrix)
            and np.array_equal(x_pts, y_pts)):
        for i, k in zip(*np.nonzero(plan0.matrix)):
            xs.append(x_pts[i])
            ys.append(x_pts[i])
            zs.append(z_pts[k])
            mass.append(plan0.matrix[i, k])
        return GluedPlan(np.array(xs), np.array(ys), np.array(zs), np.array(mass))
    for k in range(len(plan0.target)):
        nu_k = plan0.target.weights[k]
        if nu_k <= 0:
            continue
        col0 = plan0.matrix[:, k]
        col1 = plan1.matrix[:, k]
        for i in np.nonzero(col0)[0]:
            for j in np.nonzero(col1)[0]:
                m = col0[i] * col1[j] / nu_k
                if m <= 0:
                    continue
                xs.append(x_pts[i])
                ys.append(y_pts[j])
                zs.append(z_pts[k])
                mass.append(m)
    return GluedPlan(np.array(xs), np.array(ys), np.array(zs), np.array(mass))


class TestGlueReference:
    """``glue`` joins the two plans' columns in one vectorized pass; the
    glued plan must equal, bit for bit, the one the loop builds."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
           st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
           st.booleans(), st.sampled_from(["optimal", "product", "identical"]))
    # a one-atom base glues the product of the two sources
    @example(seed=0, dim=2, m0=3, m1=4, k=1, equal=True, kind="optimal")
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_loop(self, seed, dim, m0, m1, k, equal, kind):
        rng = np.random.default_rng(seed)

        def measure(size):
            pts = rng.normal(size=(size, dim))
            w = np.ones(size) if equal else rng.uniform(0.5, 1.5, size)
            return make_atomic(pts if dim == 2 else pts[:, 0], w)

        mu0, mu1, base = measure(m0), measure(m1), measure(k)
        if kind == "product":
            p0 = TransportPlan(mu0, base, np.outer(mu0.weights, base.weights))
            p1 = TransportPlan(mu1, base, np.outer(mu1.weights, base.weights))
        else:
            _, p0 = w2_exact(mu0, base)
            p1 = p0 if kind == "identical" else w2_exact(mu1, base)[1]
        self._assert_equal(glue(p0, p1), _reference_glue(p0, p1))

    def test_underflowing_mass_is_skipped(self):
        # 1e-170 * 1e-170 underflows to 0: that triple is left out
        mu0 = make_atomic([0.0, 1.0], [1.0, 1e-170])
        mu1 = make_atomic([2.0, 3.0], [1.0, 1e-170])
        base = make_atomic([0.5], [1.0])
        p0 = TransportPlan(mu0, base, mu0.weights[:, None])
        p1 = TransportPlan(mu1, base, mu1.weights[:, None])
        got = glue(p0, p1)
        assert len(got.mass) == 3
        self._assert_equal(got, _reference_glue(p0, p1))

    @staticmethod
    def _assert_equal(got, ref):
        for name in ("xs", "ys", "zs", "mass"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.shape == b.shape and np.array_equal(a, b), name


class TestGeneralizedGeodesic:
    def test_alpha_zero_returns_mu0(self, rng):
        mu0 = make_atomic(rng.normal(size=4), np.ones(4))
        mu1 = make_atomic(rng.normal(size=4), np.ones(4))
        base = make_atomic(rng.normal(size=4), np.ones(4))
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        out = transport._push_forward(g, 0.0)
        assert w2_1d(out, mu0, return_plan=False) <= 1e-12

    def test_base_mu0_reduces_to_geodesic(self, rng):
        mu0 = make_atomic(rng.normal(size=4), np.ones(4))
        mu1 = make_atomic(rng.normal(size=4), np.ones(4))
        _, p_self = w2_exact(mu0, mu0)
        _, p1 = w2_exact(mu1, mu0)
        g = glue(p_self, p1)
        for a in (0.25, 0.5, 0.8):
            out = transport._push_forward(g, a)
            ref = geodesic(mu0, mu1, a)
            assert w2_1d(out, ref, return_plan=False) <= 1e-10

    def test_1d_atomless_base_equals_geodesic(self, rng):
        # distinct equal-mass atoms: all plans are monotone maps, gluing
        # composes quantiles, so the generalized geodesic IS the geodesic
        n = 6
        mu0 = make_atomic(np.sort(rng.normal(size=n)), np.ones(n))
        mu1 = make_atomic(np.sort(rng.normal(size=n)), np.ones(n))
        base = make_atomic(np.sort(rng.normal(size=n)), np.ones(n))
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        for a in (0.0, 0.3, 0.7, 1.0):
            out = transport._push_forward(g, a)
            ref = geodesic(mu0, mu1, a)
            assert w2_1d(out, ref, return_plan=False) <= 1e-10


class TestPseudoDistance:
    def test_diagonal_zero(self, rng):
        mu = make_atomic(rng.normal(size=4), np.ones(4))
        base = make_atomic(rng.normal(size=4), np.ones(4))
        _, p = w2_exact(mu, base)
        assert pseudo_distance(glue(p, p)) <= 1e-12

    def test_1d_atomless_base_equals_w2(self, rng):
        n = 8
        mu0 = make_atomic(np.sort(rng.normal(size=n)), np.ones(n))
        mu1 = make_atomic(np.sort(rng.normal(size=n)), np.ones(n))
        base = make_atomic(np.sort(rng.normal(size=n)), np.ones(n))
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        w = w2_exact(mu0, mu1, return_plan=False)
        assert abs(pseudo_distance(g) - w) <= 1e-9

    def test_single_atom_base_strictly_larger(self):
        # distinct nearby measures through a one-atom base: the product
        # coupling mixes the pairs, so the pseudo-distance exceeds W2
        mu0 = make_atomic([0.0, 1.0], [0.5, 0.5])
        mu1 = make_atomic([0.1, 1.1], [0.5, 0.5])
        base = make_atomic([0.5], [1.0])
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        w = w2_exact(mu0, mu1, return_plan=False)
        assert abs(w - 0.1) <= 1e-12
        assert abs(pseudo_distance(g) - math.sqrt(0.51)) <= 1e-12
        assert pseudo_distance(g) > w + 0.5

    def test_2d_split_base_strictly_larger(self):
        # 2D fixture: base atoms force mass splitting in the gluing
        mu0 = make_atomic(np.array([[0.0, 0.0], [1.0, 0.0]]), [0.5, 0.5])
        mu1 = make_atomic(np.array([[0.0, 0.2], [1.0, 0.2]]), [0.5, 0.5])
        base = make_atomic(np.array([[0.5, 0.1]]), [1.0])
        _, p0 = w2_exact(mu0, base)
        _, p1 = w2_exact(mu1, base)
        g = glue(p0, p1)
        w = w2_exact(mu0, mu1, return_plan=False)
        assert pseudo_distance(g) > w + 0.3

    def test_dominates_w2(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            mu0 = make_atomic(rng.normal(size=n), rng.uniform(0.2, 1, n))
            mu1 = make_atomic(rng.normal(size=n), rng.uniform(0.2, 1, n))
            base = make_atomic(rng.normal(size=n), rng.uniform(0.2, 1, n))
            _, p0 = w2_exact(mu0, base)
            _, p1 = w2_exact(mu1, base)
            g = glue(p0, p1)
            w = w2_exact(mu0, mu1, return_plan=False)
            assert pseudo_distance(g) >= w - 1e-9


class TestConvexityIdentity:
    def test_exact_identity(self, rng):
        # W2_nu^2(mu_a, base) interpolation identity through one glued plan
        for _ in range(30):
            dim = int(rng.integers(1, 3))
            n = int(rng.integers(2, 6))
            shape = (n,) if dim == 1 else (n, dim)
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
                assert abs(lhs - rhs) <= 1e-10


class TestLargerSupports:
    def test_1d_agreement_at_64_atoms(self, rng):
        for _ in range(10):
            mu = make_atomic(rng.normal(size=64), rng.uniform(0.05, 1, 64))
            nu = make_atomic(rng.normal(size=64), rng.uniform(0.05, 1, 64))
            d1 = w2_1d(mu, nu, return_plan=False)
            d2 = w2_exact(mu, nu, return_plan=False)
            assert abs(d1 - d2) <= 1e-9


# positions drawn partly from a small set, so that ties (Diracs) are common
_coord = st.one_of(st.floats(-3.0, 3.0, allow_subnormal=False),
                   st.sampled_from([-1.0, 0.0, 0.5]))


def _close_sq(a: float, b: float) -> bool:
    """Squared distances agree within 1e-12 relative (1e-12 absolute below 1)."""
    return abs(a * a - b * b) <= 1e-12 * max(1.0, b * b)


class TestW2Dispatch:
    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.lists(_coord, min_size=n, max_size=n),
        st.lists(_coord, min_size=n, max_size=n),
        st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))))
    @settings(max_examples=150, deadline=None)
    def test_same_grid_quantiles(self, data):
        xs, ys, c = (np.array(v) for v in data)
        c = c / c.sum()
        q = np.cumsum(c) - 0.5 * c
        qa = QuantileMeasure(q, np.sort(xs), c)
        qb = QuantileMeasure(q, np.sort(ys), c)
        d = w2(qa, qb)
        assert same_grid(qa, qb)
        assert _close_sq(d, w2_1d(qa, qb, return_plan=False))
        assert _close_sq(d, w2_exact(qa, qb, return_plan=False))
        dp, plan = w2(qa, qb, return_plan=True)
        assert dp == w2_1d(qa, qb, return_plan=False)
        assert _close_sq(dp, math.sqrt(plan.cost()))

    @given(st.lists(_coord, min_size=1, max_size=9),
           st.lists(_coord, min_size=1, max_size=9),
           st.integers(2, 6))
    @settings(max_examples=150, deadline=None)
    def test_1d_atoms_grids_and_grid_mismatch(self, xs, ys, n_nodes):
        a = make_atomic(xs, np.ones(len(xs)))
        b = make_atomic(ys, np.arange(1.0, len(ys) + 1.0))
        ref = w2_1d(a, b, return_plan=False)
        assert w2(a, b) == ref
        assert _close_sq(ref, w2_exact(a, b, return_plan=False))
        # quantile states on different grids go through the monotone coupling
        qa, qb = to_quantile(a, n_nodes), to_quantile(b, n_nodes + 1)
        assert w2(qa, qb) == w2_1d(qa, qb, return_plan=False)
        assert not same_grid(qa, qb)
        # a quantile state against atoms: the monotone coupling too
        assert w2(qa, b) == w2_1d(qa, b, return_plan=False)

    @given(st.integers(1, 7).flatmap(lambda n: st.lists(
        st.tuples(_coord, _coord), min_size=n, max_size=n)),
        st.integers(1, 7).flatmap(lambda n: st.lists(
            st.tuples(_coord, _coord), min_size=n, max_size=n)))
    @settings(max_examples=100, deadline=None)
    def test_2d_atoms(self, xs, ys):
        a = make_atomic(np.array(xs), np.ones(len(xs)))
        b = make_atomic(np.array(ys), np.arange(1.0, len(ys) + 1.0))
        ref, ref_plan = w2_exact(a, b)
        assert w2(a, b) == ref
        d, plan = w2(a, b, return_plan=True)
        assert d == ref
        assert np.array_equal(plan.matrix, ref_plan.matrix)

    def test_two_atom_diracs(self):
        q = np.array([0.25, 0.75])
        c = np.array([0.5, 0.5])
        da = QuantileMeasure(q, [0.3, 0.3], c)
        db = QuantileMeasure(q, [-0.2, -0.2], c)
        assert same_grid(da, db) and w2(da, db) == 0.5
        assert _close_sq(w2(da.to_atomic(), db.to_atomic()), 0.5)

    def test_same_nodes_other_masses(self):
        # one quantile grid means equal nodes and equal cell masses: the
        # node-to-node coupling moves no mass between cells
        a = QuantileMeasure([0.25, 0.75], [0.0, 1.0], [0.5, 0.5])
        b = QuantileMeasure([0.25, 0.75], [0.0, 1.0], [0.1, 0.9])
        assert not same_grid(a, b)
        assert same_grid(a, a.with_positions([0.5, 2.0]))
        ref = w2_1d(a, b, return_plan=False)
        assert ref == pytest.approx(math.sqrt(0.4))
        assert w2(a, b) == ref
        g = geodesic(a, b, 0.5)
        assert g.points.tolist() == [0.0, 0.5, 1.0]
        assert g.weights.tolist() == pytest.approx([0.1, 0.4, 0.5])

    @pytest.mark.parametrize("array", ["q_nodes", "cell_mass"])
    def test_grid_identity_is_bitwise(self, array):
        # a grid built again from equal arrays is the same grid: node to
        # node; one ulp apart in one node or one cell mass it is another
        c = np.array([0.2, 0.3, 0.5])
        q = np.cumsum(c) - 0.5 * c
        a = QuantileMeasure(q, [-1.0, 0.25, 2.0], c)
        b = QuantileMeasure(q.copy(), [0.0, 0.5, 0.75], c.copy())
        assert same_grid(a, b) and a.q_nodes is not b.q_nodes
        assert w2(a, b) == math.sqrt(float(np.sum(c * (a.positions - b.positions) ** 2)))
        g = geodesic(a, b, 0.25)
        assert isinstance(g, QuantileMeasure) and g.q_nodes is a.q_nodes
        assert g.positions.tolist() == (0.75 * a.positions + 0.25 * b.positions).tolist()
        nudged = {"q_nodes": q.copy(), "cell_mass": c.copy()}
        nudged[array][1] = np.nextafter(nudged[array][1], 1.0)
        b_ulp = QuantileMeasure(nudged["q_nodes"], b.positions, nudged["cell_mass"])
        assert not same_grid(a, b_ulp) and not same_grid(b_ulp, a)
        assert w2(a, b_ulp) == w2_1d(a, b_ulp, return_plan=False)
        assert isinstance(geodesic(a, b_ulp, 0.25), AtomicMeasure)


class TestPinnedPlans:
    """The network simplex pivots deterministically: these plan digests
    must not move.  They were re-pinned when cold solves began at Vogel's
    basis and priced by candidate lists instead of starting at the greedy
    minimum-cost basis with a full pricing on every pivot.  Against the
    greedy-start plans, the 64x64 plan moved by at most 1.6e-16 per entry
    on the same support.  The tied 1D plan moves mass between rows 0 and 1,
    the two atoms at x = -1.5 (in columns 0 and 1); merged over equal
    points it is the same coupling, and its W2 moved in the last digit."""

    def test_seeded_64x64_2d_plan(self):
        rng = np.random.default_rng(12345)
        a = make_atomic(rng.normal(size=(64, 2)), rng.uniform(0.5, 1.5, 64))
        b = make_atomic(rng.normal(size=(64, 2)), rng.uniform(0.5, 1.5, 64))
        _, plan = w2_exact(a, b)
        assert hashlib.sha256(plan.matrix.tobytes()).hexdigest() == \
            "642e393855ad5f0e54cc1963af5dfc8d56855fc40a81ec5d43ff5a3d8286399d"
        # the 1D problem below continues the same generator
        x = np.round(rng.normal(size=12), 1)   # rounding makes ties
        y = np.round(rng.normal(size=9), 1)
        _, plan = w2_exact(make_atomic(x, np.ones(12)), make_atomic(y, np.ones(9)))
        assert len(np.unique(x)) < 12
        assert hashlib.sha256(plan.matrix.tobytes()).hexdigest() == \
            "dd3ff6eae73f846207ea0744b38ab4764f6b8fa8457dee331ee6d761d3ccd566"


# ---------------------------------------------------------------------------
# the network simplex against a full-walk reference
# ---------------------------------------------------------------------------

def _reference_network_simplex(a, b, C, start, bland_per_node=60, candidates=16):
    """The network simplex as it was before pivots updated the basis tree
    incrementally: it rebuilds the tree and all potentials on each pivot.
    It starts from the basis cells ``start`` ``(i, j, t)``, in their order,
    and prices by the candidate lists of ``transport._network_simplex``."""
    m, n = C.shape
    flow = np.zeros((m, n))
    basis = []
    for i, j, t in start:
        flow[i, j] = t
        basis.append((i, j))
    cost = C.tolist()
    bland_after = bland_per_node * (m + n)
    pivots = 0
    cand = []
    while True:
        adj = [[] for _ in range(m + n)]
        for i, j in basis:
            adj[i].append(m + j)
            adj[m + j].append(i)
        u, v = [0.0] * m, [0.0] * n
        parent, depth = [-1] * (m + n), [-1] * (m + n)
        depth[0] = 0
        stack = [0]
        while stack:
            node = stack.pop()
            for nbr in adj[node]:
                if depth[nbr] >= 0:
                    continue
                depth[nbr] = depth[node] + 1
                parent[nbr] = node
                if nbr >= m:
                    v[nbr - m] = cost[node][nbr - m] - u[node]
                else:
                    u[nbr] = cost[nbr][node - m] - v[node - m]
                stack.append(nbr)
        assert min(depth) >= 0
        # the most negative candidate, re-priced; ties to the earlier one
        priced = [(cost[i][j] - u[i] - v[j], k) for k, (i, j) in enumerate(cand)]
        best = min(priced, default=(0.0, -1))
        if pivots < bland_after and best[0] < -1e-11:
            ei, ej = cand[best[1]]
        else:
            R = C - np.array(u)[:, None] - np.array(v)[None, :]
            neg = [k for k in range(m * n) if R.flat[k] < -1e-11]
            if not neg:
                break
            if pivots < bland_after:
                # value order, ties row-major
                cand = [divmod(k, n) for k in sorted(neg, key=lambda k: R.flat[k])]
                cand = cand[:candidates]
                ei, ej = cand[0]
            else:
                ei, ej = divmod(neg[0], n)
        pivots += 1
        up, down = [ei], [m + ej]
        while depth[up[-1]] > depth[down[-1]]:
            up.append(parent[up[-1]])
        while depth[down[-1]] > depth[up[-1]]:
            down.append(parent[down[-1]])
        while up[-1] != down[-1]:
            up.append(parent[up[-1]])
            down.append(parent[down[-1]])
        path = up + down[-2::-1]
        arcs = [(s, t - m) if s < m else (t, s - m)
                for s, t in zip(path[:-1], path[1:])]
        signs = [-1 if k % 2 == 0 else +1 for k in range(len(arcs))]
        theta = np.inf
        leave_idx = -1
        for k, ((i, j), s) in enumerate(zip(arcs, signs)):
            if s < 0 and flow[i, j] < theta - 1e-18:
                theta = flow[i, j]
                leave_idx = k
        theta = max(theta, 0.0)
        flow[ei, ej] += theta
        for (i, j), s in zip(arcs, signs):
            flow[i, j] += s * theta
            flow[i, j] = max(flow[i, j], 0.0)
        basis.remove(arcs[leave_idx])
        basis.append((ei, ej))
    return flow


_LP_KINDS = ("random", "rounded", "duplicates", "near")


def _lp_problem(seed, dim, m, n, kind, equal):
    """Normalized weights and the squared-distance cost of one seeded problem.

    ``rounded`` ties the costs, ``duplicates`` repeats atoms, and ``near``
    moves every source atom by a small step, as the 2D proximal step does
    (m = n and equal weights there)."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(m, dim))
    ys = rng.normal(size=(n, dim))
    if kind == "rounded":
        xs, ys = np.round(xs, 1), np.round(ys, 1)
    elif kind == "duplicates":
        xs = xs[rng.integers(0, max(1, m // 2), m)]
        ys = ys[rng.integers(0, max(1, n // 2), n)]
    elif kind == "near":
        n = m
        ys = xs * (1.0 - 0.05 * rng.uniform()) + rng.normal(
            scale=10.0 ** -rng.integers(2, 13), size=(m, dim))
    wa = np.ones(m) if equal else rng.uniform(0.5, 1.5, m)
    wb = np.ones(n) if equal or kind == "near" else rng.uniform(0.5, 1.5, n)
    mu = make_atomic(xs if dim == 2 else xs[:, 0], wa)
    nu = make_atomic(ys if dim == 2 else ys[:, 0], wb)
    return (mu.weights.copy(), nu.weights.copy(),
            pair_differences(mu.points_2d(), nu.points_2d())[1])


class TestNetworkSimplexReference:
    """Pivots update the basis tree incrementally; the flows must equal,
    bit for bit, those of the reference that walks the whole tree on every
    pivot."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
           st.integers(1, 24), st.one_of(st.sampled_from([1, 2]), st.integers(1, 24)),
           st.sampled_from(_LP_KINDS), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_flows_bitwise_equal(self, seed, dim, m, n, kind, equal):
        a, b, C = _lp_problem(seed, dim, m, n, kind, equal)
        got = transport._network_simplex(a.copy(), b.copy(), C)
        start = transport._vogel_basis(a, b, C, C.tolist())
        assert np.array_equal(got, _reference_network_simplex(a, b, C, start))

    def test_bland_branch_bitwise_equal(self, monkeypatch):
        # at these sizes the budget before Bland's rule never runs out;
        # a zero budget pivots by Bland's rule from the first pivot on
        monkeypatch.setattr(transport, "_BLAND_AFTER_PER_NODE", 0)
        for k, (kind, dim, (m, n)) in enumerate(itertools.product(
                _LP_KINDS, (1, 2), ((1, 5), (5, 1), (2, 9), (12, 12), (20, 13)))):
            a, b, C = _lp_problem(k, dim, m, n, kind, equal=k % 3 == 0)
            got = transport._network_simplex(a.copy(), b.copy(), C)
            start = transport._vogel_basis(a, b, C, C.tolist())
            ref = _reference_network_simplex(a, b, C, start, bland_per_node=0)
            assert np.array_equal(got, ref), (kind, dim, m, n)

    def test_two_full_tree_walks_per_solve(self, monkeypatch):
        # one walk builds the tree, one checks it at optimality; the
        # pivots in between (hundreds at 64x64) re-walk only subtrees
        walks = []
        original = transport._tree_walk

        def counting(*args):
            walks.append(1)
            return original(*args)

        rng = np.random.default_rng(7)
        a = make_atomic(rng.normal(size=(64, 2)), rng.uniform(0.5, 1.5, 64))
        b = make_atomic(rng.normal(size=(64, 2)), rng.uniform(0.5, 1.5, 64))
        monkeypatch.setattr(transport, "_tree_walk", counting)
        w2_exact(a, b)
        assert len(walks) == 2

    def test_pivots_and_full_pricings_per_solve(self, monkeypatch):
        # the same seeded 64x64 pair.  From the greedy start with a full
        # pricing on every pivot it took 171 pivots and 172 full pricings;
        # from Vogel's start with candidate lists, 110 and 30.  The bounds
        # are 30 % fewer pivots than the greedy start's (a margin of 9
        # over 110) and a margin of 10 over 30 full pricings
        counts = {"pivots": 0, "pricings": 0}

        def counter(name, original):
            def counted(*args):
                counts[name] += 1
                return original(*args)
            return counted

        monkeypatch.setattr(transport, "_cycle_nodes",
                            counter("pivots", transport._cycle_nodes))
        monkeypatch.setattr(transport, "_full_pricing",
                            counter("pricings", transport._full_pricing))
        rng = np.random.default_rng(7)
        a = make_atomic(rng.normal(size=(64, 2)), rng.uniform(0.5, 1.5, 64))
        b = make_atomic(rng.normal(size=(64, 2)), rng.uniform(0.5, 1.5, 64))
        w2_exact(a, b)
        assert 0 < counts["pivots"] <= 119
        assert 0 < counts["pricings"] <= 40


def _reference_vogel(a, b, C):
    """Vogel's start with every open line's regret recomputed from scratch
    before each placement, by the rules of ``transport._vogel_basis``."""
    m, n = C.shape
    ra, rb = a.tolist(), b.tolist()
    row_open, col_open = [True] * m, [True] * n
    cells = []
    while True:
        best = None   # (-regret, rows first, index, cheapest cell)
        for side, lines, cross in ((0, C, col_open), (1, C.T, row_open)):
            for k in range(lines.shape[0]):
                if not (row_open, col_open)[side][k]:
                    continue
                open_cells = [c for c in range(lines.shape[1]) if cross[c]]
                # cheapest first, the lowest index among equal costs
                open_cells.sort(key=lambda c: lines[k, c])
                regret = (lines[k, open_cells[1]] - lines[k, open_cells[0]]
                          if len(open_cells) > 1 else math.inf)
                key = (-regret, side, k, open_cells[0])
                best = key if best is None or key < best else best
        _, side, k, c = best
        i, j = (k, c) if side == 0 else (c, k)
        t = min(ra[i], rb[j])
        cells.append((i, j, t))
        ra[i] -= t
        rb[j] -= t
        rows, cols = sum(row_open), sum(col_open)
        if rows == 1 and cols == 1:
            return cells
        if (ra[i] <= rb[j] and rows > 1) or cols == 1:
            row_open[i] = False
        else:
            col_open[j] = False


class TestVogelBasis:
    """A cold solve starts from Vogel's basis: it is a primal feasible
    spanning tree, and the simplex ends at the optimum that Dantzig's rule
    reaches from the north-west corner."""

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
           st.one_of(st.just(1), st.integers(1, 16)),
           st.one_of(st.just(1), st.integers(1, 16)),
           st.sampled_from(_LP_KINDS), st.booleans())
    # 10 rows of 0.1 against 6 columns of 1/6: rounding leaves the last open
    # column short of a row, which must then close the row
    @example(seed=0, dim=2, m=10, n=6, kind="random", equal=True)
    @settings(max_examples=200, deadline=None)
    def test_start_is_a_feasible_tree_and_reaches_the_optimum(
            self, seed, dim, m, n, kind, equal):
        a, b, C = _lp_problem(seed, dim, m, n, kind, equal)
        m, n = C.shape
        cells = transport._vogel_basis(a, b, C, C.tolist())
        # the incremental regrets place exactly what a full recount places
        assert cells == _reference_vogel(a, b, C)
        assert len(cells) == m + n - 1
        # m + n - 1 edges that join m + n nodes without a cycle: a tree
        root = list(range(m + n))

        def find(k):
            while root[k] != k:
                k = root[k]
            return k

        for i, j, _ in cells:
            ri, rj = find(i), find(m + j)
            assert ri != rj
            root[ri] = rj
        flow = np.zeros((m, n))
        for i, j, t in cells:
            assert t >= 0.0
            flow[i, j] = t
        assert np.max(np.abs(flow.sum(axis=1) - a)) <= transport.MARGINAL_TOL
        assert np.max(np.abs(flow.sum(axis=0) - b)) <= transport.MARGINAL_TOL
        got = transport._network_simplex(a.copy(), b.copy(), C)
        # one candidate: every pivot prices all arcs, Dantzig's rule
        nw = _reference_network_simplex(a, b, C, transport._northwest_corner(a, b),
                                        candidates=1)
        cost, cost_nw = float(np.sum(got * C)), float(np.sum(nw * C))
        assert abs(cost - cost_nw) <= 1e-14 * max(1.0, cost_nw)
        if kind == "random" and not equal:   # generic: one optimal plan
            assert np.array_equal(got != 0, nw != 0)


class TestPlanTranspose:
    """``TransportPlan.transpose`` swaps the roles of the marginals."""

    def test_transpose_shape_and_marginals(self, rng):
        a = make_atomic(rng.normal(size=(5, 2)), rng.uniform(0.5, 1.5, 5))
        b = make_atomic(rng.normal(size=(3, 2)), rng.uniform(0.5, 1.5, 3))
        d, plan = w2_exact(a, b)
        t = plan.transpose()
        assert t.source is b and t.target is a
        assert t.matrix.shape == (3, 5)
        assert np.array_equal(t.matrix, plan.matrix.T)
        assert np.max(np.abs(t.matrix.sum(axis=1) - b.weights)) <= 1e-12
        assert np.max(np.abs(t.matrix.sum(axis=0) - a.weights)) <= 1e-12
        assert np.array_equal(t.transpose().matrix, plan.matrix)
        assert _close_sq(transport._plan_distance(t), d)
