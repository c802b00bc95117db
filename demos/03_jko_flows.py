"""Discrete gradient flows (JKO) in the quantile parametrization.

Three classic evolutions at desk scale:

* quadratic confinement of a Dirac (closed form a (1+tau)^-n),
* pure entropy = heat flow (support spreads),
* congested aggregation: attraction under the hard cap ||mu||_inf <= M
  compresses everything into the saturated block of width 1/M.
"""

import math

import numpy as np

from omegaflow.jko import JkoConfig, flow
from omegaflow.measures import lp_norm
from omegaflow.transport import w2
from omegaflow.verify import (
    capped_aggregation_energy, dirac_state, entropy_energy,
    quadratic_energy, uniform_state,
)

# -- Dirac under V = x^2/2 ----------------------------------------------------

tau, n = 0.1, 20
tr = flow(quadratic_energy(), dirac_state(1.0, 4),
          JkoConfig(tau=tau, steps=n, inner_tol=1e-11))
print("Dirac flow: final", tr.states[-1].positions[0],
      " closed form", (1 + tau) ** -n)

# -- heat flow ---------------------------------------------------------------

tr = flow(entropy_energy(), uniform_state(-0.5, 0.5, 64),
          JkoConfig(tau=0.02, steps=25, inner_tol=1e-9))
widths = [s.positions[-1] - s.positions[0] for s in tr.states[::5]]
print("entropy flow support widths:", [round(w, 3) for w in widths])
print("energy decreasing:", bool(np.all(np.diff(tr.energies) <= 1e-10)))

# -- congested aggregation ----------------------------------------------------

cap = 2.0
energy = capped_aggregation_energy(cap)
tr = flow(energy, uniform_state(-1.0, 1.0, 64),
          JkoConfig(tau=0.05, steps=70, inner_tol=1e-9))
final = tr.states[-1]
print("\ncongested aggregation:")
print("  max density:", lp_norm(final, math.inf), " cap:", cap)
print("  support width:", final.positions[-1] - final.positions[0],
      " block width:", 1.0 / cap)
center = float(np.sum(final.cell_mass * final.positions))
block = final.with_positions(center + (final.q_nodes - 0.5) / cap)
print("  W2 to the saturated block:", w2(final, block))
print("  every state feasible:",
      max(energy.cap_excess(s) for s in tr.states) <= 1e-8)
