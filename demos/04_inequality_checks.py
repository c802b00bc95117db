"""The verification harness on one screen.

Runs a discrete EVI check, a one-step contraction check, an HWI check,
and the above-tangent convexity certificate -- first with a deliberately
wrong (too strong) modulus, which produces a negative witness, then with
the calibrated sqrt(x psi(x)) modulus, which passes on the same pairs.
"""

import math

import numpy as np

from omegaflow.jko import JkoConfig
from omegaflow.moduli import lipschitz
from omegaflow.verify import (
    calibrated_modulus, check_contraction, check_discrete_evi, check_hwi,
    check_omega_convexity, diagonal_plan, dirac_state, feasible_random_state,
    log_pinch_energy, capped_aggregation_energy,
)

rng = np.random.default_rng(1)

E = capped_aggregation_energy(2.0)
mod = calibrated_modulus("aggregation_cap2")
mu = feasible_random_state(rng, 32, cap=2.0)
nu = feasible_random_state(rng, 32, cap=2.0)

rep = check_discrete_evi(E, mu, nu, 0.05, mod,
                         JkoConfig(tau=0.05, inner_tol=1e-9))
print(f"discrete EVI:    slack {rep.slack:+.3e}  pass={rep.passed}")

rep = check_contraction(E, mu, nu, 0.02, mod,
                        JkoConfig(tau=0.02, inner_tol=1e-9))
print(f"contraction:     slack {rep.slack:+.3e}  pass={rep.passed}")

samples = [feasible_random_state(rng, 32, cap=2.0) for _ in range(6)]
rep = check_hwi(E, mu, nu, mod, samples, tol=1e-5)
print(f"HWI:             slack {rep.slack:+.3e}  pass={rep.passed}")

# -- certificates: wrong modulus finds a witness, right one passes -----------

pinch = log_pinch_energy(1.0)


def pairs(seed):
    r = np.random.default_rng(seed)

    def sample(_k):
        a = math.exp(-r.uniform(1.5, 4.0))
        b = a * math.exp(r.uniform(-1.0, 1.0))
        return dirac_state(a, 2), dirac_state(b, 2), \
            diagonal_plan(dirac_state(a, 2), dirac_state(b, 2))

    return sample


wrong = check_omega_convexity(pinch, pairs(7), lipschitz(0.0), 50)
print(f"\nwrong modulus (omega=x, lam=0): min slack "
      f"{wrong.context['min_slack']:+.3e}  (negative witness found)")

right = check_omega_convexity(pinch, pairs(7), calibrated_modulus("log_pinch_s1"), 50)
print(f"calibrated sqrt(x psi) modulus: min slack "
      f"{right.context['min_slack']:+.3e}  pass={right.passed}")
