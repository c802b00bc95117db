"""Recompute and freeze the empirical fixture constants.

The gradient-flow certificates need two kinds of measured constants that
the theory only asserts to exist:

* field-regularity constants C with |grad W * mu(x) - grad W * mu(y)|^2
  <= C^2 psi(|x - y|^2) on the constrained densities (and the potential
  analogue with 4 C^2 psi), estimated as 1.05x the worst sampled ratio;
* the envelope constants C* of the convergence-rate studies, fitted at
  the coarsest discretization n = 8.

Run this script only to refresh src/omegaflow/fixtures/calibration.json;
the verification suites compare freshly computed values against these
frozen ones within +-5%.  It prints ``old -> new`` for every frozen value
that it changes.
"""

import json
import math
import os

import numpy as np

from omegaflow.energies import Kernel, calibrate_interaction_constant, psi
from omegaflow.jko import JkoConfig
from omegaflow.moduli import JUNCTION, lipschitz, polynomial, sqrt_psi
from omegaflow.verify import (
    dirac_state,
    drift_diffusion_energy,
    feasible_random_state,
    granular_energy,
    ks_surrogate_energy,
    log_pinch_energy,
    quadratic_energy,
    rate_study,
    uniform_state,
)

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "omegaflow",
                   "fixtures", "calibration.json")


def potential_constant(energy, pts) -> float:
    """1.05 x max |V'(x) - V'(y)| / (2 sqrt(psi(|x-y|^2)))."""
    dv = np.abs(np.asarray(energy.potential.grad(pts[:, 0]))
                - np.asarray(energy.potential.grad(pts[:, 1])))
    den = np.sqrt(psi((pts[:, 0] - pts[:, 1]) ** 2))
    ok = den > 0
    return 1.05 * float(np.max(dv[ok] / (2.0 * den[ok])))


def loeper_constant(kernel, measures, probes) -> float:
    """Observed constant of ||grad W*mu - grad W*nu||_L2(rho) <= C W2(mu,nu)."""
    from omegaflow.energies import kernel_gradient
    from omegaflow.transport import w2_1d
    worst = 0.0
    for k in range(len(measures) - 2):
        mu, nu, rho = measures[k], measures[k + 1], measures[k + 2]
        pts = rho.positions
        f = np.asarray(kernel_gradient(kernel, mu, pts)) \
            - np.asarray(kernel_gradient(kernel, nu, pts))
        l2 = math.sqrt(float(np.sum(rho.cell_mass * f**2)))
        w = w2_1d(mu, nu, return_plan=False)
        if w > 1e-12:
            worst = max(worst, l2 / w)
    return worst


def changed_values(old, new, path=""):
    """(path, old value, new value) for each leaf where ``new`` differs."""
    if isinstance(new, dict):
        old = old if isinstance(old, dict) else {}
        return [d for k in new
                for d in changed_values(old.get(k), new[k], f"{path}.{k}".lstrip("."))]
    return [] if old == new else [(path, old, new)]


def main() -> None:
    rng = np.random.default_rng(42)
    measures = [feasible_random_state(rng, 48, cap=2.0) for _ in range(25)]

    k_agg = Kernel("newtonian", d=1, c=1.0)
    k_ks = Kernel("newtonian", d=1, c=4.0)
    c_agg = calibrate_interaction_constant(k_agg, measures,
                                           np.random.default_rng(1), n_pairs=200)
    c_ks = calibrate_interaction_constant(k_ks, measures,
                                          np.random.default_rng(1), n_pairs=200)

    pts = np.random.default_rng(2).uniform(-3.0, 3.0, size=(2000, 2))
    c_vm = potential_constant(drift_diffusion_energy(), pts)

    j = math.sqrt(JUNCTION)
    r3 = np.random.default_rng(3)
    mag = np.exp(r3.uniform(math.log(1e-8), math.log(j), size=(8000, 2)))
    sgn = np.random.default_rng(4).choice([-1.0, 1.0], size=(8000, 2))
    c_pinch = potential_constant(log_pinch_energy(1.0), mag * sgn)

    c_loeper = loeper_constant(k_agg, measures, None)

    print("calibrated: C_agg", c_agg, "C_ks", c_ks, "C_vm", c_vm,
          "C_pinch", c_pinch, "loeper", c_loeper)

    rate_cfg = [
        ("quadratic_dirac", quadratic_energy(), dirac_state(1.0, 2),
         lipschitz(1.0), JkoConfig(tau=1.0, inner_tol=1e-9)),
        ("granular_dirac", granular_energy(2.0, 1.0), dirac_state(1.0, 2),
         polynomial(1.0, 4.0), JkoConfig(tau=1.0, inner_tol=1e-9)),
        ("ks_surrogate", ks_surrogate_energy(2.0), uniform_state(-0.8, 0.8, 48),
         sqrt_psi(-4.0 * c_ks), JkoConfig(tau=1.0, inner_tol=1e-8)),
    ]
    families = {}
    for fam, energy, mu0, mod, cfg in rate_cfg:
        st = rate_study(energy, mu0, 0.5, [8, 16, 32, 64, 128, 256, 512],
                        mod, cfg, n_ref=4096, family=fam)
        families[fam] = {"C_star": st.c_star, "t": 0.5,
                         "loglog_slope": st.loglog_slope}
        print(fam, "C* =", st.c_star, "slope", st.loglog_slope,
              "errors", st.errors)

    payload = {
        "aggregation_cap2": {"kernel": {"kind": "newtonian", "d": 1, "c": 1.0},
                             "cap": 2.0, "C": c_agg},
        "ks_surrogate_cap2": {"kernel": {"kind": "newtonian", "d": 1, "c": 4.0},
                              "cap": 2.0, "C": c_ks},
        "vm_drift_cap2": {"C": c_vm},
        "log_pinch_s1": {"C": c_pinch, "lambda_abs": 4.0 * c_pinch},
        "loeper_observed": {"aggregation_cap2": c_loeper},
        "rate_families": families,
    }
    old = {}
    if os.path.exists(OUT):
        with open(OUT) as fh:
            old = json.load(fh)
    for path, before, after in changed_values(old, payload):
        print(f"{path}: {before} -> {after}")
    with open(OUT, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print("wrote", os.path.normpath(OUT))


if __name__ == "__main__":
    main()
