"""Exact optimal transport for squared Euclidean cost on finite supports.

Provides the 1D monotone (CDF-matching) coupling, an exact LP solver
(transportation network simplex with deterministic pivoting; a solve
starts from Vogel's approximation basis, whose ties go to rows before
columns and then to the lowest index; it prices by candidate lists, one
full pricing keeping the most negative arcs for the pivots that follow;
and each pivot updates the basis tree incrementally, re-walking only the
subtree it re-hangs), Wasserstein geodesics, plan gluing over a common
base measure (one vectorized join of the plans' columns),
generalized geodesics, and the plan-level pseudo-metric measured through the
glued structure.

Cost convention throughout: squared Euclidean distance  c(x, y) = |x - y|^2.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    AtomicMeasure,
    QuantileMeasure,
    make_atomic,
    pair_differences,
    same_grid,
)

__all__ = [
    "TransportError",
    "TransportPlan",
    "GluedPlan",
    "diagonal_plan",
    "w2",
    "w2_1d",
    "w2_exact",
    "geodesic",
    "glue",
    "pseudo_distance",
]

MARGINAL_TOL = 1e-10
SUPPORT_CAP = 512  # largest support w2_exact accepts on either side
_RC_TOL = 1e-11  # reduced-cost optimality threshold
_BLAND_AFTER_PER_NODE = 60  # pivots per node before Bland's rule takes over
_CANDIDATES = 16  # arcs a full pricing keeps for the pivots that follow


class TransportError(ValueError):
    """Invalid transport inputs (dimension mismatch, cap exceeded, ...)."""


def _as_atomic(mu) -> AtomicMeasure:
    """Atomic form of a measure: quantile states at their nodes."""
    if isinstance(mu, AtomicMeasure):
        return mu
    if isinstance(mu, QuantileMeasure):
        return mu.to_atomic()
    raise TransportError(f"unsupported measure type {type(mu)!r}")


@dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between two atomic measures.

    Row sums reproduce the source weights and column sums the target
    weights, each within 1e-10.
    """

    source: AtomicMeasure
    target: AtomicMeasure
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (len(self.source), len(self.target)):
            raise TransportError("plan matrix shape does not match supports")
        if np.any(m < -1e-14):
            raise TransportError("negative coupling mass")
        m = np.maximum(m, 0.0)
        if np.max(np.abs(m.sum(axis=1) - self.source.weights)) > MARGINAL_TOL:
            raise TransportError("row sums do not match source weights")
        if np.max(np.abs(m.sum(axis=0) - self.target.weights)) > MARGINAL_TOL:
            raise TransportError("column sums do not match target weights")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def cost(self) -> float:
        """Total squared-distance cost of the coupling."""
        c = pair_differences(self.source.points_2d(), self.target.points_2d())[1]
        return float(np.sum(self.matrix * c))

    def transpose(self) -> TransportPlan:
        """The same coupling from the target's side: target -> source."""
        return TransportPlan(self.target, self.source, self.matrix.T)

    def pairs(self):
        """Nonzero entries as (x, y, mass) arrays of shape (k,d),(k,d),(k,)."""
        i, j = np.nonzero(self.matrix)
        return (self.source.points_2d()[i], self.target.points_2d()[j],
                self.matrix[i, j])


def diagonal_plan(mu, nu) -> TransportPlan:
    """The node-to-node plan x_i -> y_i of two measures with equal weights."""
    a = _as_atomic(mu)
    return TransportPlan(a, _as_atomic(nu), np.diag(a.weights))


# ---------------------------------------------------------------------------
# 1D monotone coupling
# ---------------------------------------------------------------------------

def w2_1d(mu, nu, return_plan: bool = True):
    """W2 between 1D measures via the monotone CDF-matching coupling.

    On sorted 1D supports the monotone coupling is the north-west-corner
    walk; its zero-mass cells are skipped.
    Returns ``(distance, plan)``, or just the distance when
    ``return_plan=False``, which skips building the dense m x n plan
    matrix (the distance is the same).  Optimality of the monotone coupling
    in 1D is cross-checked against :func:`w2_exact` in the test suite.
    """
    a, b = _as_atomic(mu), _as_atomic(nu)
    if a.dim != 1 or b.dim != 1:
        raise TransportError("w2_1d requires 1D measures")
    cells = [c for c in _northwest_corner(a.weights, b.weights) if c[2] > 0]
    xs, ys = a.points, b.points
    cost = 0.0
    for i, j, t in cells:
        d = xs[i] - ys[j]
        cost += t * d * d
    dist = float(np.sqrt(max(cost, 0.0)))
    if not return_plan:
        return dist
    mat = np.zeros((len(a), len(b)))
    for i, j, t in cells:
        mat[i, j] = t
    return dist, TransportPlan(a, b, mat)


# ---------------------------------------------------------------------------
# Exact LP: transportation network simplex
# ---------------------------------------------------------------------------

def _northwest_corner(a, b):
    """The north-west-corner walk over weights ``a`` and ``b``: its cells
    ``(i, j, t)`` in walk order, ``t`` the mass moved at (i, j) as a Python
    float.  On sorted 1D supports it is the monotone coupling of
    :func:`w2_1d`."""
    m, n = len(a), len(b)
    ra, rb = a.tolist(), b.tolist()
    cells = []
    i = j = 0
    while True:
        t = min(ra[i], rb[j])
        cells.append((i, j, t))
        ra[i] -= t
        rb[j] -= t
        if i == m - 1 and j == n - 1:
            return cells
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1


def _vogel_basis(a, b, C, cost):
    """Vogel's approximation start of the network simplex.

    Each placement goes to the open line (row or column) of largest regret:
    the cost of its second-cheapest open cell minus that of its cheapest; a
    line with one open cell has regret +inf.  Ties go to rows before
    columns, then to the lowest index.  The placement is at the line's
    cheapest open cell (the lowest index among equal costs) and moves
    t = min(remaining row, remaining column).  It closes its row when the
    row runs out first (ties included) and another row is open, or when
    rounding leaves the last open column short of the row; otherwise its
    column.  The last row and column close together.  Returns the
    m + n - 1 cells ``(i, j, t)`` in placement order, zero-mass ones
    included; they span a basis tree.  ``cost`` is ``C`` as nested lists.

    Lines are numbered as the simplex's nodes (row i is node i, column j
    node m + j), so the heap key (-regret, node) orders ties.  Each line is
    sorted once; its regret is recomputed only when its cheapest or
    second-cheapest cell closes, and superseded heap entries are skipped.
    """
    m, n = C.shape
    rest = a.tolist() + b.tolist()   # supply left at each node
    # each line's cross nodes, cheapest first
    order = ((np.argsort(C, axis=1, kind="stable") + m).tolist()
             + np.argsort(C.T, axis=1, kind="stable").tolist())
    is_open = [True] * (m + n)
    pos = [[0, 0] for _ in range(m + n)]   # cheapest, second-cheapest open
    watchers = [[] for _ in range(m + n)]  # lines whose pos points here
    version = [0] * (m + n)
    heap = []

    def refresh(k):
        line, (p, q) = order[k], pos[k]
        while not is_open[line[p]]:
            p += 1
        q0, q = q, max(q, p + 1)
        while q < len(line) and not is_open[line[q]]:
            q += 1
        pos[k] = [p, q]
        version[k] += 1
        if q < len(line):
            if q != q0:
                watchers[line[q]].append(k)
            cp, cq = line[p], line[q]
            regret = (cost[k][cq - m] - cost[k][cp - m] if k < m
                      else cost[cq][k - m] - cost[cp][k - m])
        else:
            regret = math.inf
        heapq.heappush(heap, (-regret, k, version[k]))

    for k in range(m + n):
        watchers[order[k][0]].append(k)
        refresh(k)
    rows, cols = m, n
    cells = []
    while True:
        _, k, ver = heap[0]
        if ver != version[k] or not is_open[k]:
            heapq.heappop(heap)
            continue
        c = order[k][pos[k][0]]
        i, j = (k, c) if k < m else (c, k)
        t = min(rest[i], rest[j])
        cells.append((i, j - m, t))
        rest[i] -= t
        rest[j] -= t
        if rows == 1 and cols == 1:
            return cells
        if (rest[i] <= rest[j] and rows > 1) or cols == 1:
            closed = i
            rows -= 1
        else:
            closed = j
            cols -= 1
        is_open[closed] = False
        for w in watchers[closed]:
            if is_open[w]:
                refresh(w)


def _tree_walk(adj, cost, m):
    """One full walk of the basis spanning tree from row node 0.

    Returns the node potentials u, v (root u_0 = 0) and the parent and
    depth of every node, as lists; raises unless the walk reaches every
    node.
    """
    n = len(adj) - m
    u = [0.0] * m
    v = [0.0] * n
    parent = [-1] * (m + n)
    depth = [-1] * (m + n)
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
    if min(depth) < 0:
        raise RuntimeError("basis is not a spanning tree")
    return u, v, parent, depth


def _rehang(node, top, adj, cost, m, u, v, parent, depth):
    """Hang the subtree rooted at ``node`` below ``top`` and walk only that
    subtree, setting parent, depth and potentials by the formulas of
    :func:`_tree_walk`.  A potential depends only on the node's path to the
    root, so the result is the one a full walk would give."""
    parent[node] = top
    stack = [node]
    while stack:
        node = stack.pop()
        up = parent[node]
        depth[node] = depth[up] + 1
        if node >= m:
            v[node - m] = cost[up][node - m] - u[up]
        else:
            u[node] = cost[node][up - m] - v[up - m]
        for nbr in adj[node]:
            if nbr != up:
                parent[nbr] = node
                stack.append(nbr)


def _cycle_nodes(parent, depth, start, goal):
    """Node path from ``start`` to ``goal``: both climb to their common
    ancestor (tree paths are unique)."""
    up, down = [start], [goal]
    while depth[up[-1]] > depth[down[-1]]:
        up.append(parent[up[-1]])
    while depth[down[-1]] > depth[up[-1]]:
        down.append(parent[down[-1]])
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    return up + down[-2::-1]


def _full_pricing(C, u, v, R):
    """Reduced costs ``(C - u) - v`` of every arc, written into ``R``;
    returns the flat (row-major) indices of those below -_RC_TOL."""
    np.subtract(C, u[:, None], out=R)
    np.subtract(R, v, out=R)
    return np.flatnonzero(R < -_RC_TOL)


def _network_simplex(a, b, C):
    """Optimal flow for the dense transportation problem.

    The search starts from Vogel's basis (:func:`_vogel_basis`).

    Entering arc, by candidate-list pricing: a full pricing of all arcs
    keeps the ``_CANDIDATES`` most negative reduced costs, ordered by
    value with ties broken row-major, and enters the first.  The pivots
    that follow re-price only those arcs and enter the most negative
    (ties to the earlier in the list); a new full pricing runs when none
    is still negative, and only a full pricing declares optimality.
    After a pivot budget, Bland's rule (first negative arc in row-major
    order, from a full pricing on every pivot) guarantees termination
    under degeneracy.  The leaving arc is the first minimum-flow backward
    arc along the cycle.

    The basis tree is walked in full once; each pivot then re-hangs only
    the subtree cut off by the leaving arc.  At optimality a second full
    walk must reproduce the incremental tree and potentials exactly.
    """
    m, n = C.shape
    flow = [[0.0] * n for _ in range(m)]   # rows of Python floats
    adj = [[] for _ in range(m + n)]       # row i is node i, column j node m + j
    cost = C.tolist()   # the tree walks index Python floats far faster
    for i, j, t in _vogel_basis(a, b, C, cost):
        flow[i][j] = t
        adj[i].append(m + j)
        adj[m + j].append(i)
    u, v, parent, depth = _tree_walk(adj, cost, m)
    R = np.empty_like(C)
    bland_after = _BLAND_AFTER_PER_NODE * (m + n)
    max_pivots = 400 * (m + n) + 10000
    pivots = 0
    candidates = []
    while True:
        ei = -1
        if pivots < bland_after:
            # re-price the candidates in Python floats: the same bits as
            # the full pricing's (C - u) - v
            best = -_RC_TOL
            for i, j in candidates:
                r = cost[i][j] - u[i] - v[j]
                if r < best:
                    best, ei, ej = r, i, j
        if ei < 0:
            neg = _full_pricing(C, np.array(u), np.array(v), R)
            if len(neg) == 0:
                break
            if pivots < bland_after:
                neg = neg[np.argsort(R.flat[neg], kind="stable")[:_CANDIDATES]]
                candidates = [divmod(k, n) for k in neg.tolist()]
            ei, ej = divmod(int(neg[0]), n)
        pivots += 1
        if pivots > max_pivots:
            raise RuntimeError("network simplex pivot budget exceeded")
        path = _cycle_nodes(parent, depth, ei, m + ej)
        # cycle = entering arc (+) then alternating -,+,... along the path
        arcs = [(s, t - m) if s < m else (t, s - m)
                for s, t in zip(path[:-1], path[1:])]
        theta = np.inf
        leave_idx = -1
        for k in range(0, len(arcs), 2):
            i, j = arcs[k]
            if flow[i][j] < theta - 1e-18:
                theta = flow[i][j]
                leave_idx = k
        theta = max(theta, 0.0)
        flow[ei][ej] += theta
        for k, (i, j) in enumerate(arcs):
            flow[i][j] = max(flow[i][j] + (theta if k % 2 else -theta), 0.0)
        # the leaving arc cuts off the subtree below its child endpoint,
        # which holds exactly one end of the entering arc
        p, q = path[leave_idx], path[leave_idx + 1]
        adj[p].remove(q)
        adj[q].remove(p)
        adj[ei].append(m + ej)
        adj[m + ej].append(ei)
        if parent[p] == q:
            _rehang(ei, m + ej, adj, cost, m, u, v, parent, depth)
        else:
            _rehang(m + ej, ei, adj, cost, m, u, v, parent, depth)
    if _tree_walk(adj, cost, m) != (u, v, parent, depth):
        raise RuntimeError("incremental basis tree differs from a full walk")
    return np.array(flow)


def w2_exact(mu: AtomicMeasure, nu: AtomicMeasure):
    """Exact W2 between atomic measures by linear programming.

    Returns ``(distance, plan)``, the plan optimal.  Quantile states are
    atomized at their nodes first.  A support of more than ``SUPPORT_CAP``
    atoms on either side raises before any solve.
    """
    mu, nu = _as_atomic(mu), _as_atomic(nu)
    if mu.dim != nu.dim:
        raise TransportError("dimension mismatch between measures")
    if len(mu) > SUPPORT_CAP or len(nu) > SUPPORT_CAP:
        raise TransportError(
            f"support size exceeds cap {SUPPORT_CAP} (got {len(mu)}x{len(nu)})")
    C = pair_differences(mu.points_2d(), nu.points_2d())[1]
    plan = TransportPlan(mu, nu, _network_simplex(mu.weights, nu.weights, C))
    # the plan's cost from the C just solved (plan.cost() would rebuild it)
    dist = math.sqrt(max(float(np.sum(plan.matrix * C)), 0.0))
    return dist, plan


def _plan_distance(plan: TransportPlan) -> float:
    """sqrt of the plan's cost: W2 when the plan is optimal."""
    return math.sqrt(max(plan.cost(), 0.0))


def _node_distance(mass, x, y):
    """sqrt(sum mass (x - y)^2) over the last axis: the node-to-node
    distance of two states on one quantile grid, per row of a stack."""
    return np.sqrt((mass * (x - y) ** 2).sum(axis=-1))


def _monotone_pair(mu, nu) -> bool:
    """Two 1D measures couple by :func:`w2_1d`, any other pair by the LP
    :func:`w2_exact`."""
    return mu.dim == 1 and nu.dim == 1


def w2(mu, nu) -> float:
    """W2 between any two measures of this package.

    Two states on one quantile grid (:func:`measures.same_grid`) are
    coupled node to node, at distance sqrt(sum c (x - y)^2); other pairs
    by the optimal coupling :func:`_monotone_pair` picks.
    """
    if same_grid(mu, nu):
        return float(_node_distance(mu.cell_mass, mu.positions, nu.positions))
    if _monotone_pair(mu, nu):
        return w2_1d(mu, nu, return_plan=False)
    return w2_exact(mu, nu)[0]


def _displace(xs, ys, alpha: float):
    """Points (1-a) x + a y at a = ``alpha`` in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise TransportError(f"alpha = {alpha} outside [0, 1]")
    return (1.0 - alpha) * xs + alpha * ys


def _push_forward(coupling, alpha: float) -> AtomicMeasure:
    """((1-a) x + a y) # gamma at a = ``alpha`` for a coupling ``gamma``
    (a :class:`TransportPlan` or a :class:`GluedPlan`)."""
    xs, ys, mass = coupling.pairs()
    return make_atomic(_displace(xs, ys, alpha), mass)


def geodesic(mu0, mu1, alpha: float, plan: TransportPlan | None = None):
    """Displacement interpolant ((1-a) pi_1 + a pi_2) # gamma at a=alpha.

    ``gamma`` is ``plan`` when given; a glued plan's generalized geodesic
    is reached only this way.  Without a plan, two states on one quantile
    grid (:func:`measures.same_grid`) move node to node and the result is
    the ``QuantileMeasure`` with positions (1-a) x + a y; other pairs move
    along the optimal plan :func:`_monotone_pair` picks, as in :func:`w2`,
    and give an ``AtomicMeasure``.
    """
    if plan is None:
        if same_grid(mu0, mu1):
            return mu0.with_positions(_displace(mu0.positions, mu1.positions, alpha))
        _, plan = (w2_1d if _monotone_pair(mu0, mu1) else w2_exact)(mu0, mu1)
    return _push_forward(plan, alpha)


# ---------------------------------------------------------------------------
# Gluing and generalized geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GluedPlan:
    """Three-point plan coupling mu0 and mu1 through a common base.

    Built by disintegrating two optimal plans over the base marginal and
    taking the product coupling of the conditionals (the canonical gluing).
    ``xs``/``ys``/``zs`` are (k, d) arrays; ``mass`` sums to 1.
    """

    xs: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        for name in ("xs", "ys", "zs"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.ndim == 1:
                arr = arr[:, None]
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        m = np.ascontiguousarray(self.mass, dtype=float)
        if np.any(m < 0):
            raise TransportError("negative glued mass")
        if abs(m.sum() - 1.0) > MARGINAL_TOL:
            raise TransportError("glued plan mass does not sum to 1")
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)

    def pairs(self):
        """The (x, y, mass) triples as arrays of shape (k,d),(k,d),(k,), as
        :meth:`TransportPlan.pairs`."""
        return self.xs, self.ys, self.mass

    def squared_pseudo_distance(self) -> float:
        """W^2_{2,nu}(mu0, mu1) = int |pi_1 - pi_2|^2 d nu."""
        d = self.xs - self.ys
        return float(np.sum(self.mass * np.sum(d * d, axis=1)))

    def squared_pseudo_distance_to_base(self, alpha: float) -> float:
        """W^2_{2,nu}(mu_alpha, base), through this same glued structure."""
        d = (1.0 - alpha) * self.xs + alpha * self.ys - self.zs
        return float(np.sum(self.mass * np.sum(d * d, axis=1)))


def glue(plan0: TransportPlan, plan1: TransportPlan) -> GluedPlan:
    """Glue two optimal plans sharing the same base (target) marginal.

    ``plan0``: coupling mu0 <-> base, ``plan1``: coupling mu1 <-> base.
    Disintegration over the base atoms with product coupling of the
    conditionals; the two pair-marginals of the result reproduce the
    inputs exactly in finite arithmetic.
    """
    base0, base1 = plan0.target, plan1.target
    if len(base0) != len(base1) or base0.dim != base1.dim:
        raise TransportError("plans do not share a common base marginal")
    if np.max(np.abs(base0.points_2d() - base1.points_2d())) > 1e-12 or \
            np.max(np.abs(base0.weights - base1.weights)) > MARGINAL_TOL:
        raise TransportError("base marginals differ by more than 1e-10")
    x_pts = plan0.source.points_2d()
    y_pts = plan1.source.points_2d()
    z_pts = base0.points_2d()
    identical = (plan0.matrix.shape == plan1.matrix.shape
                 and np.array_equal(plan0.matrix, plan1.matrix)
                 and np.array_equal(x_pts, y_pts))
    if identical:
        # identical plans glue diagonally: (x, x, z) triples
        i, k = np.nonzero(plan0.matrix)
        return GluedPlan(x_pts[i], x_pts[i], z_pts[k], plan0.matrix[i, k])
    # each base atom k joins the nonzero entries (k, i) of plan0's column k
    # with the entries (k, j) of plan1's: triples in order k, then i, then j
    k0, i0 = np.nonzero(plan0.matrix.T)
    k1, j1 = np.nonzero(plan1.matrix.T)
    nu = base0.weights
    per_k = np.bincount(k1, minlength=len(nu))
    reps = np.where(nu[k0] > 0, per_k[k0], 0)  # a massless base atom glues nothing
    e0 = np.repeat(np.arange(len(k0)), reps)   # each triple's entry of plan0
    k, i = k0[e0], i0[e0]
    # its entry of plan1: the start of base atom k's run in k1, plus the
    # triple's offset within the run of triples of its plan0 entry
    run = np.arange(len(e0)) - np.repeat(np.cumsum(reps) - reps, reps)
    j = j1[np.cumsum(per_k)[k] - per_k[k] + run]
    mass = plan0.matrix[i, k] * plan1.matrix[j, k] / nu[k]
    keep = mass > 0
    return GluedPlan(x_pts[i[keep]], y_pts[j[keep]], z_pts[k[keep]], mass[keep])


def pseudo_distance(glued: GluedPlan) -> float:
    """(2, nu)-transport pseudo-metric between the glued endpoints."""
    return float(np.sqrt(glued.squared_pseudo_distance()))
