"""Batch driver: experiment configs in, CSV/JSON artifacts out.

Subcommands: ``run CONFIG`` runs an experiment config, whose ``job``
(``flow``, ``rates`` or ``verify``) picks the work; ``verify`` runs a
suite (``--suite``, ``--seed``, ``--tol``, ``--quick``, ``--report``) as a
``verify`` config job, so it too writes a manifest, beside its report.

Exit codes: 0 all checks passed / artifacts written; 1 computation failure;
2 config schema violation, at the full pointer such as ``energy.kernel.c``.
Artifacts are written atomically (temp file + rename); reruns with the
same config and seed produce byte-identical CSV bodies.  The environment
variable ``OMEGAFLOW_FIXTURES`` overrides the frozen-fixture directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .config import (ConfigError, boolean, fields, integer, number, one_of,
                     options, read, string)
from .energies import parse_energy
from .jko import FlowTrajectory, JkoConfig, flow
from .measures import dirac_state, measure_from_json, measure_to_json, uniform_state
from .moduli import modulus_from_json
from .verify import RateStudy, SUITES, rate_study, run_suite

__all__ = ["main", "run", "emit_plot_table", "ConfigError"]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_omegaflow_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_plot_table(obj) -> str:
    """Long-format CSV (series, x, y) for rate studies and trajectories."""
    lines = ["series,x,y"]
    if isinstance(obj, RateStudy):
        for n, e in zip(obj.n_list, obj.errors):
            lines.append(f"measured,{_fmt(n)},{_fmt(e)}")
        for n, b in zip(obj.n_list, obj.bounds):
            lines.append(f"bound,{_fmt(n)},{_fmt(obj.c_star * b)}")
    elif isinstance(obj, FlowTrajectory):
        tau = obj.config.tau
        for k, e in enumerate(obj.energies):
            lines.append(f"energy,{_fmt(k * tau)},{_fmt(float(e))}")
        for k, d in enumerate(obj.step_distances):
            lines.append(f"W2_step,{_fmt((k + 1) * tau)},{_fmt(float(d))}")
    else:
        raise TypeError(f"cannot tabulate {type(obj)!r}")
    return "\n".join(lines) + "\n"


def _trajectory_csv(traj: FlowTrajectory, energy) -> str:
    header = ("step,time,energy,W2_step,constraint_violation,inner_iters,"
              "residual,residual_flag")
    lines = [header]
    tau = traj.config.tau
    for k, state in enumerate(traj.states):
        if k == 0:
            w2s, iters, res, flag = 0.0, 0, 0, False
        else:
            w2s = float(traj.step_distances[k - 1])
            info = traj.diagnostics[k - 1]
            iters, res, flag = info["inner_iters"], info["residual"], info["residual_flag"]
        lines.append(",".join([str(k), _fmt(k * tau), _fmt(float(traj.energies[k])),
                               _fmt(w2s), _fmt(energy.cap_excess(state)), str(iters),
                               _fmt(res), _fmt(bool(flag))]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _initial(spec):
    """The ``initial`` state: a ``dirac`` or ``uniform`` shorthand, or
    measure JSON."""
    kind = read(spec, "kind", string)
    if kind == "dirac":
        fields(spec, ("kind", "a", "n"))
        return dirac_state(read(spec, "a", number, 0.0), read(spec, "n", integer, 8))
    if kind == "uniform":
        fields(spec, ("kind", "lo", "hi", "n"))
        return uniform_state(read(spec, "lo", number), read(spec, "hi", number),
                             read(spec, "n", integer, 64))
    return measure_from_json(spec)


# the ``jko`` keys of a flow, the fields of JkoConfig; a rates job sets
# each flow's tau and steps itself, so it reads the inner solver's keys only
_JKO_KEYS = {"tau": number, "steps": integer, "inner_tol": number,
             "inner_max_iter": integer}
_SOLVER_KEYS = {k: _JKO_KEYS[k] for k in ("inner_tol", "inner_max_iter")}


def _jko(keys):
    return lambda spec: JkoConfig(**options(spec, keys))


# ---------------------------------------------------------------------------
# job runners
# ---------------------------------------------------------------------------

def run(config_path: str) -> int:
    """Run one experiment config file; returns the process exit code."""
    try:
        with open(config_path) as fh:
            raw = fh.read()
        config = json.loads(raw)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config error at <root>: invalid JSON ({exc})", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("config error at <root>: expected an object", file=sys.stderr)
        return 2
    return _run_config(config, raw, os.path.dirname(os.path.abspath(config_path)))


# the top-level keys each job reads, besides ``job``
_JOB_KEYS = {
    "flow": {"energy", "initial", "jko", "output"},
    "rates": {"energy", "initial", "modulus", "jko", "t", "n_list", "n_ref",
              "family", "output"},
    "verify": {"suite", "tol", "seed", "quick", "output"},
}
# the ``output`` keys each job writes, each a path
_OUTPUT_KEYS = {
    "flow": dict.fromkeys(("trajectory", "plot_table", "states_dir", "manifest"), string),
    "rates": dict.fromkeys(("plot_table", "report", "manifest"), string),
    "verify": dict.fromkeys(("report", "manifest"), string),
}


def _run_config(config, raw: str, base: str) -> int:
    """Run a parsed config's ``job`` and write its manifest (default
    ``manifest.json`` in ``base``; a ``flow`` job's also counts its
    ``flagged_steps``, the steps whose ``residual_flag`` is set); returns
    the exit code."""
    t0 = time.monotonic()
    failed = False
    counts = {}
    try:
        job = read(config, "job", one_of(_JOB_KEYS, "job kind"))
        fields(config, _JOB_KEYS[job] | {"job"})
        outputs = read(config, "output", lambda o: options(o, _OUTPUT_KEYS[job]), {})
        if job == "flow":
            artifacts, counts["flagged_steps"] = _job_flow(config, outputs)
        elif job == "rates":
            artifacts = _job_rates(config, outputs)
        else:
            artifacts, failed = _job_verify(config, outputs)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "tool": f"omegaflow {__version__}",
        "config_sha256": hashlib.sha256(raw.encode()).hexdigest(),
        "wall_clock_s": time.monotonic() - t0,
        "artifacts": sorted(artifacts),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        **counts,
    }
    manifest_path = outputs.get("manifest", os.path.join(base, "manifest.json"))
    _atomic_write(manifest_path, json.dumps(manifest, indent=1) + "\n")
    return 1 if failed else 0


def _job_flow(config, outputs):
    energy = read(config, "energy", parse_energy)
    mu0 = read(config, "initial", _initial)
    traj = flow(energy, mu0, read(config, "jko", _jko(_JKO_KEYS), JkoConfig()))
    csv_path = outputs.get("trajectory", "trajectory.csv")
    _atomic_write(csv_path, _trajectory_csv(traj, energy))
    artifacts = [csv_path]
    table = outputs.get("plot_table")
    if table:
        _atomic_write(table, emit_plot_table(traj))
        artifacts.append(table)
    states_dir = outputs.get("states_dir")
    if states_dir:
        os.makedirs(states_dir, exist_ok=True)
        for k, s in enumerate(traj.states):
            p = os.path.join(states_dir, f"state_{k:05d}.json")
            _atomic_write(p, measure_to_json(s) + "\n")
            artifacts.append(p)
    return artifacts, sum(bool(d["residual_flag"]) for d in traj.diagnostics)


def _job_rates(config, outputs) -> list:
    energy = read(config, "energy", parse_energy)
    mu0 = read(config, "initial", _initial)
    modulus = read(config, "modulus", modulus_from_json)
    cfg = read(config, "jko", _jko(_SOLVER_KEYS), JkoConfig())
    st = rate_study(energy, mu0, read(config, "t", number, 0.5),
                    read(config, "n_list", lambda v: [integer(n) for n in v],
                         [8, 16, 32, 64, 128]),
                    modulus, cfg, n_ref=read(config, "n_ref", integer, 1024),
                    family=read(config, "family", string, "config"))
    table = outputs.get("plot_table", "rates.csv")
    _atomic_write(table, emit_plot_table(st))
    report = outputs.get("report", "rates.json")
    _atomic_write(report, json.dumps(st.to_dict(), indent=1) + "\n")
    return [table, report]


def _job_verify(config, outputs):
    reports = run_suite(read(config, "suite", one_of([*SUITES, "all"], "suite"), "all"),
                        tol=read(config, "tol", number, 1e-6),
                        seed=read(config, "seed", integer, 0),
                        quick=read(config, "quick", boolean, False))
    path = outputs.get("report", "verify_report.json")
    ordered = sorted(reports, key=lambda r: (
        r.name, json.dumps(r.context, sort_keys=True, default=str)))
    _atomic_write(path, json.dumps([r.to_dict() for r in ordered], indent=1) + "\n")
    n_fail = sum(1 for r in reports if not r.passed)
    n_skip = sum(1 for r in reports if r.skipped)
    print(f"{len(reports)} checks: {len(reports) - n_fail} passed, "
          f"{n_fail} failed, {n_skip} skipped -> {path}")
    return [path], n_fail > 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="omegaflow",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", help="run an experiment config; its job picks "
                   "the work").add_argument("config")

    p_verify = sub.add_parser("verify", help="run inequality suites")
    p_verify.add_argument("--suite", default="all",
                          choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-6)
    p_verify.add_argument("--quick", action="store_true")
    p_verify.add_argument("--report", default="verify_report.json")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    config = {"job": "verify", "suite": args.suite, "seed": args.seed,
              "tol": args.tol, "quick": args.quick,
              "output": {"report": args.report}}
    return _run_config(config, json.dumps(config, sort_keys=True),
                       os.path.dirname(os.path.abspath(args.report)))


if __name__ == "__main__":
    sys.exit(main())
