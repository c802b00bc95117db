"""The benchmark's workloads: seeded inputs, one job each, output checks.

A workload turns ``(seed, rep)`` into the inputs of one job, runs the job
through omegaflow's public entry points and checks every output.  The
program receives only the generated inputs.  Every check is one attempted
operation; a check that does not hold is one failed operation.

* ``ks_flow_cli``: an in-process CLI ``flow`` job (``omegaflow.cli.run`` on
  a generated config) for the Keller-Segel surrogate.  Dense O(n^2)
  interaction terms and the isotonic projection inside the inner solver do
  most of the work; the CSV and manifest path rides along.
* ``dirac_semigroup``: ``verify.check_semigroup_contraction`` on 2-atom
  Dirac pairs under the quadratic, granular quartic and log-pinch
  potentials, plus one quadratic flow against its closed form.  Thousands
  of proximal steps at n = 2 are dominated by per-call overhead.
* ``evi_2d``: ``verify.check_discrete_evi`` on random 2D atomic pairs with
  a generalized-geodesic identity check through ``transport.glue``.  The
  exact LP in ``transport.w2_exact`` does most of the work; the quantile
  path is never called.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from omegaflow import cli, jko, measures, moduli, transport, verify
from omegaflow.energies import POTENTIALS, Energy, Kernel

# E(mu_tau) + W2^2 / (2 tau) <= E(mu) is checked up to rounding of the
# separately summed terms, relative to max(1, |E(mu)|)
DESCENT_ROUNDING = 1e-12
CAP_SLACK = 1e-9           # ||mu_tau||_inf <= cap * (1 + CAP_SLACK)
CLOSED_FORM_TOL = 1e-10
GLUE_TOL = 1e-10


@dataclass
class JobResult:
    """What one job did: proximal steps, checks and a rerun fingerprint."""

    steps: int = 0
    checks: list = field(default_factory=list)   # (label, passed)
    fingerprint: str = ""
    reran_tighter: int = 0

    def check(self, label: str, passed: bool) -> None:
        self.checks.append((label, bool(passed)))

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.checks if not ok)


def _rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng([seed, rep])


def _descends(e_prev: float, e_next: float, w2_step: float, tau: float) -> bool:
    slack = DESCENT_ROUNDING * max(1.0, abs(e_prev))
    return e_next + w2_step * w2_step / (2.0 * tau) <= e_prev + slack


def _digest(*values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


# ---------------------------------------------------------------------------
# ks_flow_cli
# ---------------------------------------------------------------------------

class KsFlowCli:
    """CLI ``flow`` job: newtonian kernel c = 4 + entropy + L-inf cap 2."""

    name = "ks_flow_cli"
    dominant_layer = "energies"
    tau = 5e-4
    inner_tol = 1e-9
    cap = 2.0
    c = 4.0

    def __init__(self, n: int = 256, steps: int = 2):
        self.n, self.steps = n, steps
        self.workdir = None

    def setup(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.inputs(seed, 0)

    def initial_state(self, seed: int, rep: int) -> measures.QuantileMeasure:
        """Smooth density: a seeded, small three-mode cosine perturbation of
        the uniform density on a seeded interval, at quantile midpoints.
        (Random jitter of the quantiles would make the first steps stiff.)"""
        rng = _rng(seed, rep)
        amp = rng.uniform(-0.05, 0.05, size=3)
        half = rng.uniform(0.90, 0.92)
        grid = np.linspace(-half, half, 4097)
        s = grid / half
        dens = 1.0 + sum(a * np.cos((k + 1) * np.pi * s) for k, a in enumerate(amp))
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])
                                               * np.diff(grid))])
        cdf /= cdf[-1]
        q = (np.arange(self.n) + 0.5) / self.n
        return measures.QuantileMeasure(q, np.interp(q, cdf, grid),
                                        np.full(self.n, 1.0 / self.n))

    def inputs(self, seed: int, rep: int) -> str:
        """Write the job's config; returns its path."""
        stem = os.path.join(self.workdir, f"job-{rep}")
        config = {
            "job": "flow",
            "energy": {"kernel": {"kind": "newtonian", "d": 1, "c": self.c},
                       "internal": "entropy",
                       "constraint": {"p": "inf", "cap": self.cap}},
            "initial": json.loads(measures.measure_to_json(
                self.initial_state(seed, rep))),
            "jko": {"tau": self.tau, "steps": self.steps,
                    "inner_tol": self.inner_tol},
            "output": {"trajectory": stem + ".csv",
                       "manifest": stem + ".manifest.json"},
        }
        with open(stem + ".json", "w") as fh:
            json.dump(config, fh)
        return stem + ".json"

    def run_job(self, config_path: str) -> JobResult:
        res = JobResult()
        code = cli.run(config_path)
        res.check("cli exit code 0", code == 0)
        stem = config_path[:-len(".json")]
        if code != 0 or not os.path.exists(stem + ".manifest.json"):
            res.check("cli wrote a manifest", False)
            return res
        with open(stem + ".csv", "rb") as fh:
            body = fh.read()
        rows = list(csv.DictReader(body.decode().splitlines()))
        res.check("csv has one row per step", len(rows) == self.steps + 1)
        for prev, row in zip(rows, rows[1:]):
            k = row["step"]
            res.check(f"step {k} descent", _descends(
                float(prev["energy"]), float(row["energy"]),
                float(row["W2_step"]), self.tau))
            res.check(f"step {k} cap", float(row["constraint_violation"])
                      <= self.cap * CAP_SLACK)
        res.steps = len(rows) - 1
        res.fingerprint = hashlib.sha256(body).hexdigest()
        return res


# ---------------------------------------------------------------------------
# dirac_semigroup
# ---------------------------------------------------------------------------

class DiracSemigroup:
    """Semigroup-contraction checks on 2-atom Diracs plus a closed form."""

    name = "dirac_semigroup"
    dominant_layer = "measures"
    inner_tol = 1e-9

    def __init__(self, t: float = 0.125, quad_steps: int = 256,
                 gran_steps: int = 128, pinch_steps: int = 128,
                 closed_steps: int = 128):
        self.t = t
        self.quad_steps, self.gran_steps = quad_steps, gran_steps
        self.pinch_steps, self.closed_steps = pinch_steps, closed_steps
        self.lam_pinch = None

    def setup(self, seed: int, workdir: str) -> None:
        self.lam_pinch = -verify.load_frozen()["log_pinch_s1"]["lambda_abs"]
        self.inputs(seed, 0)

    def inputs(self, seed: int, rep: int) -> dict:
        rng = _rng(seed, rep)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        return {
            "quadratic": (float(a), float(b)),
            # symmetric pairs in the suite's range; the rate is nearly sharp
            "granular": float(rng.uniform(0.15, 0.40)),
            # deep inside the log branch so t lies in the stated window
            "log_pinch": math.exp(-rng.uniform(8.0, 9.6)),
            "closed_form": float(rng.uniform(0.5, 2.0)),
        }

    def _cfg(self, steps: int) -> jko.JkoConfig:
        return jko.JkoConfig(tau=self.t / steps, inner_tol=self.inner_tol)

    def run_job(self, inp: dict) -> JobResult:
        res = JobResult()
        a, b = inp["quadratic"]
        g = inp["granular"]
        p = inp["log_pinch"]
        cases = [
            ("quadratic", verify.quadratic_energy(), verify.dirac_state(a, 2),
             verify.dirac_state(b, 2), self.quad_steps, moduli.lipschitz(1.0), 1e-3),
            ("granular", verify.granular_energy(2.0, 1.0), verify.dirac_state(g, 2),
             verify.dirac_state(-g, 2), self.gran_steps,
             moduli.polynomial(1.0, 1.0 / 6.0), 1e-3),
            ("log_pinch", verify.log_pinch_energy(1.0), verify.dirac_state(p / 2, 2),
             verify.dirac_state(-p / 2, 2), self.pinch_steps,
             moduli.sqrt_psi(self.lam_pinch), 1e-2),
        ]
        prints = []
        for label, energy, mu, nu, n, modulus, slack in cases:
            rep = verify.check_semigroup_contraction(
                energy, mu, nu, self.t, n, modulus, self._cfg(n), rate_slack=slack)
            res.check(f"{label} contraction", rep.passed and not rep.skipped)
            res.steps += 2 * n
            prints.append((rep.lhs, rep.rhs))
        # quadratic V = x^2/2 moves a Dirac at c to c (1 + tau)^-k
        c = inp["closed_form"]
        n = self.closed_steps
        cfg = jko.JkoConfig(tau=self.t / n, steps=n, inner_tol=self.inner_tol)
        energy = verify.quadratic_energy()
        traj = jko.flow(energy, verify.dirac_state(c, 2), cfg)
        exact = c * (1.0 + cfg.tau) ** -np.arange(n + 1)
        err = max(float(np.max(np.abs(s.positions - e)))
                  for s, e in zip(traj.states, exact))
        res.check("closed form", err <= CLOSED_FORM_TOL)
        for k in range(n):
            res.check(f"closed-form step {k + 1} descent", _descends(
                traj.energies[k], traj.energies[k + 1],
                traj.step_distances[k], cfg.tau))
        res.steps += n
        prints.append(tuple(traj.states[-1].positions))
        res.fingerprint = _digest(*prints)
        return res


# ---------------------------------------------------------------------------
# evi_2d
# ---------------------------------------------------------------------------

def _quarter_square(r):
    return np.asarray(r, dtype=float) ** 2 / 4.0


def _half_radius(r):
    return np.asarray(r, dtype=float) / 2.0


class Evi2d:
    """Discrete EVI on 2D atomic pairs plus a glued-plan identity."""

    name = "evi_2d"
    dominant_layer = "transport"
    tau = 0.05

    def __init__(self, pairs: int = 1, n: int = 64):
        self.pairs, self.n = pairs, n
        # 1-convex: quadratic potential plus the convex kernel w(r) = r^2/4,
        # so the lambda = 1 EVI is a valid gate (the 2D newtonian log
        # attraction is not convex and fails it by design)
        self.energy = Energy(potential=POTENTIALS["quadratic"]({}),
                             kernel=Kernel("smooth", d=2, profile=_quarter_square,
                                           dprofile=_half_radius))
        self.modulus = moduli.lipschitz(1.0)

    def setup(self, seed: int, workdir: str) -> None:
        self.inputs(seed, 0)

    def _measure(self, rng) -> measures.AtomicMeasure:
        return measures.make_atomic(rng.normal(size=(self.n, 2)),
                                    rng.uniform(0.5, 1.5, self.n))

    def inputs(self, seed: int, rep: int) -> list:
        rng = _rng(seed, rep)
        return [(self._measure(rng), self._measure(rng), self._measure(rng),
                 float(rng.uniform(0.1, 0.9))) for _ in range(self.pairs)]

    def run_job(self, triples: list) -> JobResult:
        res = JobResult()
        prints = []
        for k, (mu, nu, base, alpha) in enumerate(triples):
            rep = verify.check_discrete_evi(self.energy, mu, nu, self.tau,
                                            self.modulus, jko.JkoConfig(tau=self.tau))
            res.check(f"pair {k} evi", rep.passed and not rep.skipped)
            reran = bool(rep.context.get("reran_tighter"))
            res.reran_tighter += reran
            res.steps += 1 + reran
            _, plan0 = transport.w2_exact(mu, base)
            _, plan1 = transport.w2_exact(nu, base)
            glued = transport.glue(plan0, plan1)
            lhs = glued.squared_pseudo_distance_to_base(alpha)
            rhs = (1 - alpha) * glued.squared_pseudo_distance_to_base(0.0) \
                + alpha * glued.squared_pseudo_distance_to_base(1.0) \
                - alpha * (1 - alpha) * glued.squared_pseudo_distance()
            res.check(f"pair {k} glue identity", abs(lhs - rhs) <= GLUE_TOL)
            prints.append((rep.lhs, rep.rhs, lhs))
        res.fingerprint = _digest(*prints)
        return res


WORKLOADS = {w.name: w for w in (KsFlowCli, DiracSemigroup, Evi2d)}
