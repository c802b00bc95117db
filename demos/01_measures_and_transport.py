"""Measures and exact optimal transport, end to end.

Walks through the two measure parametrizations, quantile conversion,
exact W2 (monotone 1D coupling and the network-simplex LP), displacement
geodesics, plan gluing over a base measure, and the (2, nu)-transport
pseudo-metric with its exact interpolation identity.
"""

import numpy as np

from omegaflow.measures import (
    QuantileMeasure, lp_norm, make_atomic, second_moment, to_quantile,
)
from omegaflow.transport import geodesic, glue, pseudo_distance, w2_1d, w2_exact

rng = np.random.default_rng(0)

# -- two parametrizations ----------------------------------------------------

atoms = make_atomic([2.0, 0.0, -1.0], [1.0, 1.0, 2.0])
print("atomic:", atoms.points, atoms.weights)
print("inverse-CDF nodes at q = 1/8, 3/8, 5/8, 7/8:", to_quantile(atoms, 4).positions)

# U[0,1] by its quantile function x(q) = q at the midpoint nodes (i + 1/2)/n
n = 100
q = (np.arange(n) + 0.5) / n
uniform = QuantileMeasure(q, q, np.full(n, 1.0 / n))
print("second moment of U[0,1]:", second_moment(uniform),
      "(1/3 - 1/(12 n^2) at the nodes)")
print("L2 norm:", lp_norm(uniform, 2), " Linf:", lp_norm(uniform, np.inf),
      "(density 1 between the first and last node)")

# -- exact transport ----------------------------------------------------------

mu = make_atomic([0.0, 2.0], [0.5, 0.5])
nu = make_atomic([1.0, 3.0], [0.5, 0.5])
d_mono, plan = w2_1d(mu, nu)
d_lp = w2_exact(mu, nu)[0]
print("\nW2 monotone:", d_mono, " network simplex:", d_lp)

mid = geodesic(mu, nu, 0.5)
print("midpoint of the geodesic:", mid.points)

# -- generalized geodesics through a base -------------------------------------

base = make_atomic(np.sort(rng.normal(size=4)), np.ones(4))
mu0 = make_atomic(np.sort(rng.normal(size=4)), np.ones(4))
mu1 = make_atomic(np.sort(rng.normal(size=4)), np.ones(4))
_, p0 = w2_exact(mu0, base)
_, p1 = w2_exact(mu1, base)
glued = glue(p0, p1)
print("\npseudo-distance W_{2,nu}:", pseudo_distance(glued),
      " >= W2:", w2_exact(mu0, mu1)[0])

# the squared pseudo-distance to the base interpolates exactly
for a in (0.25, 0.5, 0.75):
    lhs = glued.squared_pseudo_distance_to_base(a)
    rhs = ((1 - a) * glued.squared_pseudo_distance_to_base(0.0)
           + a * glued.squared_pseudo_distance_to_base(1.0)
           - a * (1 - a) * glued.squared_pseudo_distance())
    print(f"interpolation identity at a={a}: residual {abs(lhs - rhs):.2e}")
