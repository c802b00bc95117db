import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from omegaflow import measures
from omegaflow.measures import (
    AtomicMeasure,
    MeasureError,
    QuantileMeasure,
    QuantileStack,
    gaps,
    gaps_adjoint,
    interval_masses,
    lp_norm,
    make_atomic,
    measure_from_json,
    measure_to_json,
    quantile_function,
    second_moment,
    to_quantile,
)
from omegaflow.jko import proximal_step
from omegaflow.transport import w2_1d
from omegaflow.verify import quadratic_energy, uniform_state


class TestMakeAtomic:
    def test_single_dirac(self):
        m = make_atomic([0.0], [1.0])
        assert m.points.tolist() == [0.0]
        assert m.weights.tolist() == [1.0]

    def test_normalization_and_sort(self):
        m = make_atomic([2.0, 0.0], [1.0, 1.0])
        assert m.points.tolist() == [0.0, 2.0]
        assert m.weights.tolist() == [0.5, 0.5]

    def test_zero_weight_atom_retained(self):
        m = make_atomic([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert len(m) == 3
        assert m.weights.tolist() == [0.0, 0.5, 0.5]

    def test_empty_rejected(self):
        with pytest.raises(MeasureError):
            make_atomic([], [])

    def test_nan_rejected(self):
        with pytest.raises(MeasureError):
            make_atomic([0.0, np.nan], [0.5, 0.5])
        with pytest.raises(MeasureError):
            make_atomic([0.0, np.inf], [0.5, 0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(MeasureError):
            make_atomic([0.0, 1.0], [-0.1, 1.1])

    def test_mass_conservation(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 40))
            m = make_atomic(rng.normal(size=n), rng.uniform(0, 1, n) + 1e-3)
            assert abs(m.weights.sum() - 1.0) <= 1e-10

    def test_2d_support(self, rng):
        pts = rng.normal(size=(5, 2))
        m = make_atomic(pts, np.ones(5))
        assert m.dim == 2
        assert m.points_2d().shape == (5, 2)


class TestQuantile:
    def test_dirac_all_positions_zero(self):
        q = to_quantile(make_atomic([0.0], [1.0]), 16)
        assert np.all(q.positions == 0.0)

    def test_staircase_inversion(self):
        m = make_atomic([0.0, 1.0], [0.5, 0.5])
        q = to_quantile(m, 4)
        assert q.positions.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_dimension_error(self, rng):
        m = make_atomic(rng.normal(size=(4, 2)), np.ones(4))
        with pytest.raises(MeasureError):
            to_quantile(m, 8)

    def test_small_n_rejected(self):
        with pytest.raises(MeasureError):
            to_quantile(make_atomic([0.0], [1.0]), 1)

    def test_round_trip_error_halves(self):
        # 2000 atoms of a smooth density bounded away from zero: the error
        # of n quantile nodes decays ~ 1/n
        xs = (np.arange(2000) + 0.5) / 2000
        src = make_atomic(xs, 1.0 + 0.5 * np.cos(2 * np.pi * xs))
        errs = []
        for n in (32, 64, 128):
            approx = to_quantile(src, n).to_atomic()
            errs.append(w2_1d(src, approx, return_plan=False))
        assert errs[0] / errs[1] >= 1.8
        assert errs[1] / errs[2] >= 1.8

    def test_discretization_error_bound(self):
        u = make_atomic((np.arange(1000) + 0.5) / 1000, np.ones(1000))
        for n in (4, 16, 64):
            q = to_quantile(u, n)
            err = w2_1d(u, q.to_atomic(), return_plan=False)
            assert err <= 1.0 / n  # diameter / n_nodes

    def test_gaps_and_densities(self):
        # 1000 equal atoms at the cell midpoints of [0, 1], read at 8 nodes
        fine = make_atomic((np.arange(1000) + 0.5) / 1000, np.ones(1000))
        q = to_quantile(fine, 8)
        assert np.allclose(q.gaps(), 1.0 / 8)
        assert np.allclose(q.densities(), 1.0)

    def test_zero_width_cell_infinite_density(self):
        q = to_quantile(make_atomic([0.0, 1.0], [0.5, 0.5]), 4)
        assert math.isinf(lp_norm(q, 2))
        assert math.isinf(lp_norm(q, math.inf))


class TestSecondMoment:
    def test_dirac(self):
        assert second_moment(make_atomic([0.0], [1.0])) == 0.0

    def test_symmetric_pair(self):
        assert second_moment(make_atomic([-1.0, 1.0], [0.5, 0.5])) == 1.0

    def test_uniform_grid(self):
        u = uniform_state(0.0, 1.0, 1000)
        assert abs(second_moment(u) - 1.0 / 3.0) <= 1e-4

    def test_2d_grid(self):
        # equal atoms at the cell midpoints of the unit square: about 2/3
        axis = (np.arange(50) + 0.5) / 50
        gx, gy = np.meshgrid(axis, axis)
        g = make_atomic(np.column_stack([gx.ravel(), gy.ravel()]), np.ones(2500))
        assert abs(second_moment(g) - 2.0 / 3.0) <= 1e-3


class TestLpNorm:
    def test_uniform_density_one(self):
        # density 1 on an interval of length 1 - 1/n; p = 1 is the mass
        u = uniform_state(0.0, 1.0, 100)
        for p in (1, 2, 7.5, math.inf):
            expect = 1.0 if p in (1, math.inf) else 0.99 ** (1.0 / p)
            assert abs(lp_norm(u, p) - expect) <= 1e-12

    def test_tall_block(self):
        g = uniform_state(0.0, 0.5, 4)  # density 2 on [1/16, 7/16]
        assert lp_norm(g, math.inf) == 2.0
        assert abs(lp_norm(g, 2) - math.sqrt(1.5)) <= 1e-12

    def test_monotone_in_p_small_support(self):
        g = uniform_state(0.0, 0.5, 4)  # support measure 3/8
        vals = [lp_norm(g, p) for p in (2, 8, 32, 128)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - lp_norm(g, math.inf)) <= 0.02

    def test_atomic_signals_infinity(self):
        m = make_atomic([0.0, 0.0, 1.0], [0.3, 0.3, 0.4])
        assert lp_norm(m, 2) == math.inf
        assert lp_norm(m, 1) == 1.0

    def test_subnormal_gap_is_silent_inf(self):
        # mass / 5e-324 overflows: the density is +inf, without a warning
        q = QuantileMeasure([0.25, 0.75], [0.0, 5e-324], [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert q.densities()[0] == math.inf
            assert lp_norm(q, math.inf) == math.inf


class TestSerialization:
    def test_atomic_round_trip(self, rng):
        m = make_atomic(rng.normal(size=6), rng.uniform(0.1, 1, 6))
        back = measure_from_json(measure_to_json(m))
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)

    def test_quantile_round_trip(self):
        q = uniform_state(0.0, 1.0, 16)
        back = measure_from_json(measure_to_json(q))
        assert np.array_equal(back.positions, q.positions)

    def test_atomic_round_trip_2d(self, rng):
        m = make_atomic(rng.normal(size=(4, 2)), rng.uniform(0.1, 1, 4))
        back = measure_from_json(measure_to_json(m))
        assert back.dim == 2
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)

    def test_unknown_kind_rejected(self):
        with pytest.raises(MeasureError, match="unknown measure kind 'grid'"):
            measure_from_json({"kind": "grid", "origin": 0.0, "spacing": 0.5,
                               "values": [1.0, 1.0]})

    def test_plain_decimal_payload(self):
        payload = json.loads(measure_to_json(make_atomic([0.5], [1.0])))
        assert payload["kind"] == "atomic"
        assert payload["points"] == [0.5]


class TestInvariants:
    def test_immutability(self):
        m = make_atomic([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            m.points[0] = 5.0

    def test_quantile_function_inverse_property(self, rng):
        m = make_atomic(rng.normal(size=10), rng.uniform(0.1, 1, 10))
        q = rng.uniform(0.01, 0.99, 50)
        x = quantile_function(m, q)
        cum = np.cumsum(m.weights)
        for qi, xi in zip(q, x):
            k = np.searchsorted(m.points, xi, side="left")
            # CDF at xi (inclusive) must reach the level qi
            idx = np.searchsorted(m.points, xi, side="right") - 1
            assert cum[idx] >= qi - 1e-12


class Test2DSerialization:
    def test_atomic_2d_round_trip(self, rng):
        m = make_atomic(rng.normal(size=(5, 2)), rng.uniform(0.1, 1, 5))
        back = measure_from_json(measure_to_json(m))
        assert back.dim == 2
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)


def _vectors(n):
    return st.lists(st.floats(-10.0, 10.0, allow_subnormal=False),
                    min_size=n, max_size=n)


class TestGapStencil:
    @given(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 40))
           .flatmap(lambda n: st.tuples(_vectors(n), _vectors(n - 1))))
    @settings(max_examples=200, deadline=None)
    def test_adjoint_identity(self, pair):
        v, du = np.array(pair[0]), np.array(pair[1])
        lhs = float(np.dot(gaps(v), du))
        rhs = float(np.dot(v, gaps_adjoint(du)))
        scale = float(np.dot(np.abs(v), np.abs(gaps_adjoint(np.abs(du))))) \
            + float(np.dot(np.abs(gaps(v)), np.abs(du)))
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_n_stencils(self, n):
        eye = np.eye(n)
        G = np.array([gaps(e) for e in eye]).T
        GT = np.array([gaps_adjoint(e) for e in np.eye(n - 1)]) \
            .reshape(n - 1, n).T
        assert G.shape == (n - 1, n) and np.array_equal(GT, G.T)

    def test_quantile_gaps_use_the_stencil(self):
        q = QuantileMeasure([0.1, 0.3, 0.6, 0.9], [0.0, 0.0, 1.0, 3.0],
                            [0.25, 0.25, 0.25, 0.25])
        assert np.array_equal(q.gaps(), gaps(q.positions))
        assert q.gaps().tolist() == [0.0, 1.0, 2.0]


class TestIntervalDensity:
    """One density per interval [x_i, x_{i+1}], of mass (c_i + c_{i+1}) / 2;
    the end half-masses carry none."""

    def test_one_node_has_no_interval(self):
        q = QuantileMeasure([0.5], [0.3], [1.0])
        assert q.gaps().size == 0 and q.densities().size == 0
        for p in (1.5, 2, 8, math.inf):
            assert lp_norm(q, p) == math.inf
        assert lp_norm(q, 1) == 1.0

    def test_two_nodes(self):
        q = QuantileMeasure([0.25, 0.75], [-0.25, 0.25], [0.5, 0.5])
        assert interval_masses(q.cell_mass).tolist() == [0.5]
        assert q.densities().tolist() == [1.0]
        assert lp_norm(q, math.inf) == 1.0
        # ||rho||_p^p = 0.5 * 1^p over an interval of width 0.5
        assert lp_norm(q, 2) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_tied_pair_is_a_zero_width_interval(self):
        q = QuantileMeasure([0.2, 0.5, 0.8], [0.0, 0.0, 1.0],
                            [0.3, 0.4, 0.3])
        dens = q.densities()
        assert dens[0] == math.inf and dens[1] == pytest.approx(0.35)
        assert lp_norm(q, 3) == math.inf and lp_norm(q, math.inf) == math.inf

    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_interval_masses_leave_out_the_end_halves(self, n, seed):
        c = np.random.default_rng(seed).uniform(0.1, 1.0, n)
        c /= c.sum()
        q = QuantileMeasure((np.arange(n) + 0.5) / n, np.arange(n, dtype=float), c)
        mass = interval_masses(q.cell_mass)
        assert len(mass) == n - 1
        assert mass.sum() == pytest.approx(1.0 - 0.5 * (c[0] + c[-1]),
                                           rel=1e-13)
        # unit spacing: the densities are the interval masses
        np.testing.assert_allclose(q.densities(), mass, rtol=1e-15)


_BAD_POSITIONS = ("decrease", "nan", "inf", "short", "long", "column", "row")


class TestWithPositions:
    """``with_positions`` checks only the new positions and shares the
    grid; it must agree with the validating constructor on every input."""

    @staticmethod
    def _outcome(build):
        try:
            return build()
        except MeasureError as err:
            return str(err)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_constructor(self, data):
        n = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)))
        mass = np.array(data.draw(st.lists(st.floats(0.1, 1.0), min_size=n,
                                           max_size=n)))
        q = QuantileMeasure((np.arange(n) + 0.5) / n, np.zeros(n),
                            mass / mass.sum())
        x = np.sort(np.array(data.draw(_vectors(n))))
        kind = data.draw(st.sampled_from(
            ("random", "tied", "noise") + _BAD_POSITIONS))
        j = data.draw(st.integers(0, n - 1))
        if kind == "tied":                 # a Dirac
            x = np.full(n, x[0])
        elif kind == "noise":              # a Dirac with -1e-13 noise
            x = np.full(n, x[0])
            x[1::2] -= 1e-13
        elif kind == "decrease":           # 10x the order check's tolerance
            x = np.append(x, x[-1] - 1e-11 * max(1.0, abs(x[-1])))[1:]
        elif kind in ("nan", "inf"):
            x[j] = math.nan if kind == "nan" else -math.inf
        elif kind == "short":
            x = x[:-1]
        elif kind == "long":
            x = np.append(x, x[-1])
        elif kind == "column":
            x = x[:, None]
        elif kind == "row":
            x = x[None, :]
        fast = self._outcome(lambda: q.with_positions(x))
        ref = self._outcome(lambda: QuantileMeasure(q.q_nodes, x, q.cell_mass))
        if kind in _BAD_POSITIONS and (kind != "decrease" or n > 1):
            assert isinstance(ref, str)
        if isinstance(fast, str) or isinstance(ref, str):
            assert fast == ref
            return
        assert kind not in _BAD_POSITIONS or kind == "decrease"
        for name in ("q_nodes", "positions", "cell_mass"):
            a, b = getattr(fast, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable
        assert np.all(np.diff(fast.positions) >= 0)

    def test_shares_grid_and_copies_positions(self):
        q = QuantileMeasure([0.25, 0.75], [0.0, 1.0], [0.5, 0.5])
        x = np.array([2.0, 3.0])
        new = q.with_positions(x)
        assert new.q_nodes is q.q_nodes and new.cell_mass is q.cell_mass
        x[0] = 5.0
        assert new.positions.tolist() == [2.0, 3.0]
        with pytest.raises(ValueError):
            new.positions[0] = 0.0


class TestCallerArrays:
    """A measure freezes a copy of a writeable array the caller hands in,
    and takes a read-only or fresh array as it is."""

    def test_caller_arrays_stay_writeable(self):
        z, w = np.array([[0.0, 1.0], [2.0, 0.5]]), np.array([0.25, 0.75])
        mu = AtomicMeasure(z, w)
        z[0, 0] = w[0] = 9.0   # the caller's arrays, still writeable
        assert mu.points.tolist() == [[0.0, 1.0], [2.0, 0.5]]
        assert mu.weights.tolist() == [0.25, 0.75]
        column = np.array([[0.5], [1.5]])
        mu = AtomicMeasure(column, [0.5, 0.5])   # 1D points as a view of it
        column[0, 0] = 0.75
        assert mu.points.tolist() == [0.5, 1.5]
        q, x, c = np.array([0.25, 0.75]), np.array([0.0, 1.0]), np.array([0.5, 0.5])
        nu = QuantileMeasure(q, x, c)
        q[0], x[0], c[0] = 0.1, -1.0, 0.9
        assert nu.q_nodes.tolist() == [0.25, 0.75]
        assert nu.positions.tolist() == [0.0, 1.0]
        assert nu.cell_mass.tolist() == [0.5, 0.5]
        for m in (mu, nu):
            for a in vars(m).values():
                with pytest.raises(ValueError):
                    a[0] = 0.0

    def test_read_only_arrays_are_taken_as_they_are(self):
        z = np.array([[0.0, 1.0], [2.0, 0.5]])
        z.flags.writeable = False
        assert AtomicMeasure(z, [0.5, 0.5]).points is z
        q, c = np.array([0.25, 0.75]), np.array([0.5, 0.5])
        q.flags.writeable = c.flags.writeable = False
        nu = QuantileMeasure(q, [0.0, 1.0], c)
        assert nu.q_nodes is q and nu.cell_mass is c

    def test_fresh_points_are_handed_over(self, monkeypatch):
        # make_atomic's sorted 1D points and the 2D step's solved positions
        # become the measure's points with no copy
        freeze, frozen = measures._freeze, []
        monkeypatch.setattr(measures, "_freeze", lambda a, given=None: (
            frozen.append(a) or freeze(a, given)))
        assert make_atomic([2.0, -1.0, 0.5], [1.0, 1.0, 2.0]).points is frozen[0]
        mu = make_atomic(np.array([[0.1, 0.0], [-0.2, 0.3]]), [0.5, 0.5])
        assert mu.points is not frozen[-2]   # the caller's: a copy
        frozen.clear()
        nu, _ = proximal_step(quadratic_energy(), mu, 0.1)
        assert nu.points is frozen[0]


class TestOrderTolerance:
    """Positions may decrease by 1e-12 max(1, |x_i|, |x_{i+1}|): rounding at
    any magnitude (one ulp at 1e16 is 2), and nothing more.  QuantileMeasure,
    ``with_positions`` and each row of a QuantileStack share the check."""

    GRID = QuantileMeasure([0.25, 0.5, 0.75], [0.0, 0.0, 0.0], [0.25, 0.5, 0.25])

    @pytest.mark.parametrize("scale", [1e4, 1e16])
    def test_one_ulp_decrease_accepted_and_cleaned(self, scale):
        x = np.array([-scale, scale, np.nextafter(scale, 0.0)])
        for q in (QuantileMeasure(self.GRID.q_nodes, x, self.GRID.cell_mass),
                  self.GRID.with_positions(x),
                  QuantileStack(self.GRID, np.stack([x, -x[::-1]])).row(0)):
            assert q.positions.tolist() == [-scale, scale, scale]
            assert np.all(np.diff(q.positions) >= 0)

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e16])
    def test_relative_decrease_of_1e_9_rejected(self, scale):
        x = np.array([0.0, scale, scale * (1.0 - 1e-9)])
        with pytest.raises(MeasureError, match="nondecreasing"):
            QuantileMeasure(self.GRID.q_nodes, x, self.GRID.cell_mass)
        with pytest.raises(MeasureError, match="nondecreasing"):
            self.GRID.with_positions(x)
        stack = QuantileStack(self.GRID, np.stack([np.sort(x), x]))
        assert stack.faults.tolist() == [False, True]
        with pytest.raises(MeasureError):
            stack.row(1)

    def test_unit_scale_keeps_the_absolute_tolerance(self):
        self.GRID.with_positions([0.0, 0.5, 0.5 - 0.9e-12])
        with pytest.raises(MeasureError, match="nondecreasing"):
            self.GRID.with_positions([0.0, 0.5, 0.5 - 1.5e-12])

    def test_stack_marks_faulty_rows_without_raising(self):
        rows = np.array([[0.0, 1.0, 2.0], [0.0, math.nan, 1.0],
                         [0.0, -math.inf, 1.0], [2.0, 1.0, 0.0]])
        stack = QuantileStack(self.GRID, rows)
        assert stack.faults.tolist() == [False, True, True, True]
        assert stack.row(0).positions.tolist() == [0.0, 1.0, 2.0]
        assert QuantileStack(self.GRID, rows[:1]).faults is None
