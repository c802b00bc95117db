"""Discrete probability measures on R^d, d in {1, 2}.

Two Lagrangian parametrizations are supported: :class:`AtomicMeasure`
(weighted atoms) and :class:`QuantileMeasure` (1D inverse-CDF samples on a
uniform quantile grid, the state representation used by the JKO solver).

A QuantileMeasure has a dual reading that the rest of the package relies on:

* for transport purposes it is the atomic measure with mass ``cell_mass[i]``
  at ``positions[i]`` (so the 1D W2 between two states on the same quantile
  grid is exactly ``sum(m_i (x_i - y_i)^2)``),
* for density purposes (Lp norms, internal energies, hard caps) it is the
  histogram on the n - 1 intervals ``[x_i, x_{i+1}]`` between nodes, the
  interval of :func:`gaps` carrying the mass ``(c_i + c_{i+1}) / 2`` of
  :func:`interval_masses` (the Lagrangian discretization of Blanchet,
  Calvez & Carrillo 2008).  The end half-masses ``c_0 / 2`` and
  ``c_{n-1} / 2`` carry no density.  The spacing constraints
  ``x_{i+1} - x_i >= (c_i + c_{i+1}) / (2M)`` used by the JKO inner solver
  are then ``||mu||_inf <= M`` itself, up to the rounding of the
  projection.

All measure objects are immutable after construction (arrays are marked
read-only), so they are safe to share across threads.  A measure freezes a
copy of a writeable array that the caller hands in, so the caller's array
stays writeable; a read-only array is taken as it is.
:meth:`QuantileMeasure.with_positions` relies on this: the new state shares
the already validated, read-only ``q_nodes`` and ``cell_mass`` arrays of
the old one and checks only the new positions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, fields, integer, numbers, one_of, read

__all__ = [
    "MeasureError",
    "AtomicMeasure",
    "QuantileMeasure",
    "QuantileStack",
    "same_grid",
    "midpoint_grid",
    "dirac_state",
    "uniform_state",
    "gaps",
    "gaps_adjoint",
    "interval_masses",
    "make_atomic",
    "to_quantile",
    "quantile_function",
    "second_moment",
    "lp_norm",
    "measure_to_json",
    "measure_from_json",
]

MASS_TOL = 1e-10
GAP_FLOOR = 1e-12   # smallest interval width a density or its gradient divides by


class MeasureError(ValueError):
    """Invalid measure construction or an operation outside its domain."""


def _freeze(a: np.ndarray, given=None) -> np.ndarray:
    """``a`` as a read-only contiguous float array: a copy when it is, or
    views, the caller's writeable array ``given``."""
    a = np.ascontiguousarray(a, dtype=float)
    if given is not None and a.flags.writeable and np.may_share_memory(a, given):
        a = a.copy()
    a.flags.writeable = False
    return a


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise MeasureError(f"{what} contains NaN or infinite entries")


_EQUAL_LENGTH = "q_nodes, positions, cell_mass must be equal-length 1D"


def _disordered(x: np.ndarray):
    """None when no node of ``x`` lies below its left neighbour by more
    than 1e-12 max(1, |x_i|, |x_{i+1}|), which is more than rounding (one
    ulp at |x| = 1e16 is 2); otherwise the rows (nodes on the last axis)
    where one does.  Finite ``x`` only."""
    d = gaps(x)
    if not (d < -1e-12).any():   # the tolerance is at least 1e-12
        return None
    scale = np.maximum(np.maximum(np.abs(x[..., 1:]), np.abs(x[..., :-1])), 1.0)
    bad = (d < -1e-12 * scale).any(axis=-1)
    return bad if bad.any() else None


def _checked_positions(x, n: int) -> np.ndarray:
    """Quantile positions for a grid of ``n`` nodes: 1D of length n, finite
    and nondecreasing up to rounding (:func:`_disordered`); returned cleaned
    and read-only."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) != n:
        raise MeasureError(_EQUAL_LENGTH)
    _check_finite(x, "positions")
    if _disordered(x) is not None:
        raise MeasureError("positions must be nondecreasing")
    return _freeze(np.maximum.accumulate(x))  # clean up rounding noise


def gaps(x: np.ndarray) -> np.ndarray:
    """Widths x_{i+1} - x_i of the n - 1 intervals between nodes ``x``
    (per row of a stack: the nodes are the last axis)."""
    return x[..., 1:] - x[..., :-1]


def gaps_adjoint(du: np.ndarray) -> np.ndarray:
    """Transpose of the linear map :func:`gaps`: the gradient in the n
    nodes of sum_i du_i gaps(x)_i."""
    out = np.zeros(du.shape[:-1] + (du.shape[-1] + 1,))
    out[..., 1:] = du
    out[..., :-1] -= du
    return out


def pair_differences(xs: np.ndarray, ys: np.ndarray):
    """Pairwise geometry of point sets ``xs`` ((k, d)) and ``ys`` ((n, d)),
    one coordinate at a time: the list of the d differences
    ``xs[:, None, c] - ys[None, :, c]``, each (k, n), and the (k, n) squared
    distances summed in coordinate order (bitwise equal to summing a (k, n, d)
    difference tensor over its last axis)."""
    diffs = [xs[:, None, c] - ys[None, :, c] for c in range(xs.shape[1])]
    sq = diffs[0] * diffs[0]
    for dc in diffs[1:]:
        sq += dc * dc
    return diffs, sq


def interval_masses(cell_mass: np.ndarray) -> np.ndarray:
    """Masses (c_i + c_{i+1}) / 2 of the intervals between nodes; they sum
    to 1 - (c_0 + c_{n-1}) / 2."""
    return 0.5 * (cell_mass[:-1] + cell_mass[1:])


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure sum_i w_i delta_{x_i}.

    ``points`` has shape (n,) in 1D and (n, 2) in 2D; 1D points are stored
    sorted ascending with weights co-sorted.  Zero weights are allowed.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim == 1:
            dim = 1
        elif pts.ndim == 2 and pts.shape[1] in (1, 2):
            dim = pts.shape[1]
            if dim == 1:
                pts = pts[:, 0]
        else:
            raise MeasureError(f"unsupported point array shape {pts.shape}")
        if len(pts) == 0:
            raise MeasureError("empty support")
        if len(pts) != len(w):
            raise MeasureError("points and weights must have equal length")
        _check_finite(pts, "points")
        _check_finite(w, "weights")
        if np.any(w < -1e-15):
            raise MeasureError("negative weights")
        w = np.maximum(w, 0.0)
        if abs(w.sum() - 1.0) > 1e-12:
            raise MeasureError(f"weights sum to {w.sum()}, expected 1 within 1e-12")
        if dim == 1 and np.any(np.diff(pts) < 0):
            raise MeasureError("1D atoms must be sorted ascending (use make_atomic)")
        object.__setattr__(self, "points", _freeze(pts, self.points))
        object.__setattr__(self, "weights", _freeze(w))   # a fresh array

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else self.points.shape[1]

    def __len__(self) -> int:
        return len(self.weights)

    def points_2d(self) -> np.ndarray:
        """Points as an (n, d) array regardless of dimension."""
        return self.points[:, None] if self.dim == 1 else self.points


@dataclass(frozen=True)
class QuantileMeasure:
    """1D measure parametrized by inverse-CDF samples.

    ``q_nodes`` are strictly increasing in (0, 1) (midpoints of a uniform
    grid in the default construction), ``positions`` is the nondecreasing
    vector of quantile positions, and ``cell_mass`` the mass of the quantile
    cell around each node (differences of the underlying q grid).
    """

    q_nodes: np.ndarray
    positions: np.ndarray
    cell_mass: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q_nodes, dtype=float)
        c = np.asarray(self.cell_mass, dtype=float)
        if q.ndim != 1 or len(q) < 1 or len(q) != len(c):
            raise MeasureError(_EQUAL_LENGTH)
        _check_finite(q, "q_nodes")
        x = _checked_positions(self.positions, len(q))
        _check_finite(c, "cell_mass")
        if np.any(q <= 0.0) or np.any(q >= 1.0) or np.any(np.diff(q) <= 0):
            raise MeasureError("q_nodes must be strictly increasing inside (0,1)")
        if np.any(c <= 0.0):
            raise MeasureError("cell_mass must be positive")
        if abs(c.sum() - 1.0) > MASS_TOL:
            raise MeasureError(f"cell_mass sums to {c.sum()}, expected 1")
        object.__setattr__(self, "q_nodes", _freeze(q, self.q_nodes))
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "cell_mass", _freeze(c, self.cell_mass))

    @property
    def dim(self) -> int:
        return 1

    def __len__(self) -> int:
        return len(self.q_nodes)

    def densities(self) -> np.ndarray:
        """Interval densities interval_mass / gap; +inf on zero-width
        intervals."""
        g = gaps(self.positions)
        with np.errstate(divide="ignore", over="ignore"):  # subnormal gaps
            return np.where(g > 0, interval_masses(self.cell_mass)
                            / np.where(g > 0, g, 1.0), np.inf)

    def to_atomic(self) -> AtomicMeasure:
        return make_atomic(self.positions, self.cell_mass)

    def with_positions(self, x: np.ndarray) -> "QuantileMeasure":
        """The same quantile grid at new positions.  The grid arrays are
        already validated and read-only, so they are shared, and only the
        positions are checked (the constructor's rule, not a copy of it)."""
        return self._at(_checked_positions(x, len(self.q_nodes)))

    def _at(self, x: np.ndarray) -> "QuantileMeasure":
        """The same grid at read-only positions ``x`` that passed
        :func:`_checked_positions` (or the same check in a
        :class:`QuantileStack`)."""
        new = object.__new__(type(self))
        object.__setattr__(new, "q_nodes", self.q_nodes)
        object.__setattr__(new, "positions", x)
        object.__setattr__(new, "cell_mass", self.cell_mass)
        return new


def same_grid(a, b) -> bool:
    """True for two QuantileMeasures on one quantile grid: nodes and cell
    masses bitwise equal (:meth:`QuantileMeasure.with_positions` shares
    both arrays), so that either one's grid gives the other's steps, node
    distances and interpolants bit for bit."""
    return (isinstance(a, QuantileMeasure) and isinstance(b, QuantileMeasure)
            and len(a) == len(b)
            and (a.q_nodes is b.q_nodes or np.array_equal(a.q_nodes, b.q_nodes))
            and (a.cell_mass is b.cell_mass
                 or np.array_equal(a.cell_mass, b.cell_mass)))


class QuantileStack:
    """K states on the grid of one :class:`QuantileMeasure`: the rows of
    positions ``x`` ((K, n)), stepped together by the JKO solver.

    Each row is checked and cleaned by the rule of
    :meth:`QuantileMeasure.with_positions`, but a row that breaks it does
    not raise: ``faults`` marks it (its positions then mean nothing), so
    one row out of order does not stop the others.  ``faults`` is None
    when every row is a state.

    The positions are read-only, so what is computed at them stays true: a
    stack keeps, for one owner (the first :class:`energies.Energy` to ask,
    :meth:`kept`), its term values and gradient once computed."""

    __slots__ = ("grid", "positions", "faults", "_kept")

    def __init__(self, grid: QuantileMeasure, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(grid):
            raise MeasureError("a stack's positions are (K, n) for n grid nodes")
        self.grid = grid
        if np.isfinite(x).all():
            self.faults = _disordered(x)
        else:
            finite = np.isfinite(x).all(axis=1)
            x = np.where(finite[:, None], x, 0.0)
            disordered = _disordered(x)
            self.faults = ~finite if disordered is None else ~finite | disordered
        self.positions = _freeze(np.maximum.accumulate(x, axis=1))
        self._kept = None

    @classmethod
    def of(cls, states) -> "QuantileStack":
        """The QuantileMeasures ``states``, on the grid of the first, as the
        rows of a stack; their positions were checked when they were built,
        so they are not checked again."""
        new = object.__new__(cls)
        new.grid, new.faults, new._kept = states[0], None, None
        new.positions = _freeze(states[0].positions[None] if len(states) == 1
                                else np.stack([s.positions for s in states]))
        return new

    @property
    def cell_mass(self) -> np.ndarray:
        return self.grid.cell_mass

    def __len__(self) -> int:
        return len(self.positions)

    def kept(self, owner) -> dict:
        """What ``owner`` keeps on this stack, a dict it fills; the first
        owner to ask keeps it, and any other gets a fresh dict that is not
        kept."""
        if self._kept is None:
            self._kept = owner, {}
        return self._kept[1] if self._kept[0] is owner else {}

    def row(self, k: int) -> QuantileMeasure:
        """Row k as a state; it was checked when the stack was built."""
        if self.faults is not None and self.faults[k]:
            raise MeasureError(f"row {k} of the stack is not a state")
        return self.grid._at(self.positions[k])


def midpoint_grid(n: int):
    """The midpoint nodes (i + 1/2) / n and equal cell masses 1 / n of an
    n-node quantile grid, fresh and read-only: a measure takes them as they are."""
    q, c = (np.arange(n) + 0.5) / n, np.full(n, 1.0 / n)
    q.flags.writeable = c.flags.writeable = False
    return q, c


def dirac_state(a: float, n: int = 8) -> QuantileMeasure:
    """The Dirac mass at ``a`` on the n-node midpoint grid."""
    q, c = midpoint_grid(n)
    return QuantileMeasure(q, np.full(n, float(a)), c)


def uniform_state(lo: float, hi: float, n: int = 64) -> QuantileMeasure:
    """The uniform law on [lo, hi] on the n-node midpoint grid."""
    q, c = midpoint_grid(n)
    return QuantileMeasure(q, lo + (hi - lo) * q, c)


def make_atomic(points, weights) -> AtomicMeasure:
    """Build an atomic measure: renormalize weights, co-sort 1D supports."""
    pts = np.asarray(points, dtype=float)
    w = np.asarray(weights, dtype=float)
    if pts.size == 0:
        raise MeasureError("empty support")
    _check_finite(pts, "points")
    _check_finite(w, "weights")
    if pts.ndim == 2 and pts.shape[1] == 1:
        pts = pts[:, 0]
    if w.ndim != 1 or len(w) != (len(pts) if pts.ndim >= 1 else 1):
        raise MeasureError("points and weights must have equal length")
    if np.any(w < 0):
        raise MeasureError("negative weights")
    s = w.sum()
    if s <= 0:
        raise MeasureError("weights must have positive sum")
    w = w / s
    if pts.ndim == 1:
        order = np.argsort(pts, kind="stable")
        pts, w = pts[order], w[order]
        pts.flags.writeable = False   # fresh: the measure takes it without a copy
    return AtomicMeasure(pts, w)


def quantile_function(measure, q: np.ndarray) -> np.ndarray:
    """Generalized inverse CDF of a 1D measure at quantile levels ``q``."""
    q = np.asarray(q, dtype=float)
    if isinstance(measure, AtomicMeasure):
        if measure.dim != 1:
            raise MeasureError("quantile function requires a 1D measure")
        cum = np.cumsum(measure.weights)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, q, side="left")
        idx = np.clip(idx, 0, len(cum) - 1)
        return measure.points[idx]
    if isinstance(measure, QuantileMeasure):
        return quantile_function(measure.to_atomic(), q)
    raise MeasureError(f"unsupported measure type {type(measure)!r}")


def to_quantile(measure, n_nodes: int = 256) -> QuantileMeasure:
    """Quantile (inverse-CDF) representation on midpoint nodes (i+1/2)/n."""
    if getattr(measure, "dim", None) != 1:
        raise MeasureError("to_quantile requires a 1D measure")
    if n_nodes < 2:
        raise MeasureError("n_nodes must be >= 2")
    q, c = midpoint_grid(n_nodes)
    return QuantileMeasure(q, quantile_function(measure, q), c)


def second_moment(measure) -> float:
    """integral |x|^2 dmu, summed over atoms or quantile nodes."""
    if isinstance(measure, AtomicMeasure):
        p = measure.points_2d()
        return float(np.sum(measure.weights * np.sum(p * p, axis=1)))
    if isinstance(measure, QuantileMeasure):
        return float(np.sum(measure.cell_mass * measure.positions**2))
    raise MeasureError(f"unsupported measure type {type(measure)!r}")


def lp_norm(measure, p) -> float:
    """Discrete L^p norm of the density; math.inf where undefined.

    Atomic measures have no density: the norm is +inf for p > 1 (and 1 for
    p = 1).  Quantile measures have the interval densities of
    :meth:`QuantileMeasure.densities`; with a zero-width interval, or with
    no interval at all (one node), they likewise report +inf for p > 1.
    """
    if p == 1:
        return 1.0
    if isinstance(measure, AtomicMeasure):
        return math.inf if p > 1 else 1.0
    if isinstance(measure, QuantileMeasure):
        dens = measure.densities()
        if not dens.size or dens.max() == math.inf:
            return math.inf
        if p == math.inf:
            return float(dens.max())
        return float(np.sum(gaps(measure.positions) * dens ** float(p)) ** (1.0 / float(p)))
    raise MeasureError(f"unsupported measure type {type(measure)!r}")


# ---------------------------------------------------------------------------
# JSON serialization (plain decimal arrays, no binary format)
# ---------------------------------------------------------------------------

def measure_to_json(measure) -> str:
    if isinstance(measure, AtomicMeasure):
        payload = {
            "kind": "atomic",
            "dim": measure.dim,
            "points": measure.points.tolist(),
            "weights": measure.weights.tolist(),
        }
    elif isinstance(measure, QuantileMeasure):
        payload = {
            "kind": "quantile",
            "q_nodes": measure.q_nodes.tolist(),
            "positions": measure.positions.tolist(),
            "cell_mass": measure.cell_mass.tolist(),
        }
    else:
        raise MeasureError(f"unsupported measure type {type(measure)!r}")
    return json.dumps(payload)


# the keys of each kind's object
_MEASURE_KEYS = {"atomic": ("kind", "dim", "points", "weights"),
                 "quantile": ("kind", "q_nodes", "positions", "cell_mass")}


def _points(value) -> np.ndarray:
    """Atom positions: numbers in 1D, or one array of numbers per atom."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        return np.array([numbers(row) for row in value])
    return numbers(value)


def measure_from_json(text):
    """The measure of a :func:`measure_to_json` text, or of its object; an
    atomic one's ``dim`` must match its points."""
    data = json.loads(text) if isinstance(text, str) else text
    kind = read(data, "kind", one_of(_MEASURE_KEYS, "measure kind"))
    fields(data, _MEASURE_KEYS[kind])
    if kind == "quantile":
        return QuantileMeasure(*[read(data, k, numbers) for k in _MEASURE_KEYS[kind][1:]])
    mu = AtomicMeasure(read(data, "points", _points), read(data, "weights", numbers))
    if read(data, "dim", integer, mu.dim) != mu.dim:
        raise ConfigError("dim", f"the points are {mu.dim}D")
    return mu
