"""Batch driver: experiment configs in, CSV/JSON artifacts out.

Subcommands: ``flow`` (run a JKO experiment config), ``verify`` (run an
inequality suite), ``rates`` (convergence-rate study), ``ode`` and
``transport`` (focused suites).  The suite commands (``verify``, ``ode``,
``transport``) take ``--seed``, ``--tol`` and ``--quick``.

Exit codes: 0 all checks passed / artifacts written; 1 computation failure;
2 config schema violation (with a pointer to the offending key).
Artifacts are written atomically (temp file + rename); reruns with the
same config and seed produce byte-identical CSV bodies.  The environment
variable ``OMEGAFLOW_FIXTURES`` overrides the frozen-fixture directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import time

from . import __version__
from .energies import EnergyError, parse_energy
from .jko import FlowTrajectory, JkoConfig, JkoError, flow
from .measures import MeasureError, measure_from_json
from .moduli import ModulusError, modulus_from_json
from .verify import RateStudy, SUITES, rate_study, run_suite
from .verify import dirac_state, uniform_state

__all__ = ["main", "run", "emit_plot_table", "ConfigError"]


class ConfigError(ValueError):
    """Schema violation; ``key`` points at the offending entry."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config error at {key!r}: {message}")


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
    cap = energy.constraint if energy.constraint else None
    from .measures import lp_norm
    for k, state in enumerate(traj.states):
        viol = 0.0
        if cap is not None:
            v = lp_norm(state, cap[0])
            viol = max(0.0, v - cap[1]) if math.isfinite(v) else math.inf
        if k == 0:
            w2s, iters, res, flag = 0.0, 0, 0, False
        else:
            w2s = float(traj.step_distances[k - 1])
            info = traj.diagnostics[k - 1]
            iters = info.get("inner_iters", 0)
            res, flag = info["residual"], info["residual_flag"]
        lines.append(",".join([str(k), _fmt(k * tau), _fmt(float(traj.energies[k])),
                               _fmt(w2s), _fmt(viol), str(iters), _fmt(res),
                               _fmt(bool(flag))]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return data[key]


def _parse_measure(spec, path: str):
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    kind = spec.get("kind")
    if kind == "grid":
        raise ConfigError(f"{path}.kind", "grid states are not stepped")
    try:
        if kind == "dirac":
            return dirac_state(float(spec.get("a", 0.0)), int(spec.get("n", 8)))
        if kind == "uniform":
            return uniform_state(float(_require(spec, "lo", path)),
                                 float(_require(spec, "hi", path)),
                                 int(spec.get("n", 64)))
        return measure_from_json(spec)
    except (MeasureError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, str(exc)) from exc


def _parse_jko(spec, path: str) -> JkoConfig:
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise ConfigError(path, "expected an object")
    unknown = set(spec) - {f.name for f in dataclasses.fields(JkoConfig)}
    if unknown:
        raise ConfigError(f"{path}.{sorted(unknown)[0]}", "unknown key")
    try:
        return JkoConfig(**spec)
    except (JkoError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_energy_cfg(spec, path: str):
    try:
        return parse_energy(spec)
    except (EnergyError, KeyError, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# job runners
# ---------------------------------------------------------------------------

def run(config_path: str) -> int:
    """Dispatch one experiment config; returns the process exit code."""
    t0 = time.monotonic()
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
    try:
        job = _require(config, "job", "")
        outputs = config.get("output", {})
        if job == "flow":
            artifacts = _job_flow(config)
        elif job == "rates":
            artifacts = _job_rates(config)
        elif job == "verify":
            artifacts, failed = _job_verify(config)
        else:
            raise ConfigError("job", f"unknown job kind {job!r}")
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
    }
    manifest_path = outputs.get("manifest", _default_out(config_path, "manifest.json"))
    _atomic_write(manifest_path, json.dumps(manifest, indent=1) + "\n")
    if job == "verify" and failed:
        return 1
    return 0


def _default_out(config_path: str, name: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(config_path)), name)


def _job_flow(config) -> list:
    energy = _parse_energy_cfg(_require(config, "energy", ""), "energy")
    mu0 = _parse_measure(_require(config, "initial", ""), "initial")
    cfg = _parse_jko(config.get("jko"), "jko")
    traj = flow(energy, mu0, cfg)
    outputs = config.get("output", {})
    csv_path = outputs.get("trajectory", "trajectory.csv")
    _atomic_write(csv_path, _trajectory_csv(traj, energy))
    artifacts = [csv_path]
    table = outputs.get("plot_table")
    if table:
        _atomic_write(table, emit_plot_table(traj))
        artifacts.append(table)
    states_dir = outputs.get("states_dir")
    if states_dir:
        from .measures import measure_to_json
        os.makedirs(states_dir, exist_ok=True)
        for k, s in enumerate(traj.states):
            p = os.path.join(states_dir, f"state_{k:05d}.json")
            _atomic_write(p, measure_to_json(s) + "\n")
            artifacts.append(p)
    return artifacts


def _job_rates(config) -> list:
    energy = _parse_energy_cfg(_require(config, "energy", ""), "energy")
    mu0 = _parse_measure(_require(config, "initial", ""), "initial")
    try:
        modulus = modulus_from_json(_require(config, "modulus", ""))
    except ModulusError as exc:
        raise ConfigError("modulus", str(exc)) from exc
    cfg = _parse_jko(config.get("jko"), "jko")
    t = float(config.get("t", 0.5))
    n_list = config.get("n_list", [8, 16, 32, 64, 128])
    n_ref = int(config.get("n_ref", 1024))
    st = rate_study(energy, mu0, t, n_list, modulus, cfg, n_ref=n_ref,
                    family=config.get("family", "config"))
    outputs = config.get("output", {})
    table = outputs.get("plot_table", "rates.csv")
    _atomic_write(table, emit_plot_table(st))
    report = outputs.get("report", "rates.json")
    _atomic_write(report, json.dumps(st.to_dict(), indent=1) + "\n")
    return [table, report]


def _job_verify(config):
    suite = config.get("suite", "all")
    tol = float(config.get("tol", 1e-6))
    seed = int(config.get("seed", 0))
    quick = bool(config.get("quick", False))
    if suite != "all" and suite not in SUITES:
        raise ConfigError("suite", f"unknown suite {suite!r}")
    reports = run_suite(suite, tol=tol, seed=seed, quick=quick)
    outputs = config.get("output", {})
    report_path = outputs.get("report", "verify_report.json")
    _write_reports(report_path, reports)
    failed = [r for r in reports if not r.passed]
    return [report_path], bool(failed)


def _sort_key(r):
    return (r.name, json.dumps(r.context, sort_keys=True, default=str))


def _write_reports(path: str, reports) -> None:
    ordered = sorted(reports, key=_sort_key)
    _atomic_write(path, json.dumps([r.to_dict() for r in ordered], indent=1) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="omegaflow",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    suite_flags = argparse.ArgumentParser(add_help=False)
    suite_flags.add_argument("--seed", type=int, default=0)
    suite_flags.add_argument("--tol", type=float, default=1e-6)
    suite_flags.add_argument("--quick", action="store_true")

    p_flow = sub.add_parser("flow", help="run a JKO experiment config")
    p_flow.add_argument("config")

    p_verify = sub.add_parser("verify", help="run inequality suites",
                              parents=[suite_flags])
    p_verify.add_argument("--suite", default="all",
                          choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--report", default="verify_report.json")

    p_rates = sub.add_parser("rates", help="run a rate-study config")
    p_rates.add_argument("config")

    p_ode = sub.add_parser("ode", help="run the ODE/moduli suite",
                           parents=[suite_flags])
    p_ode.add_argument("--report", default="ode_report.json")

    p_tr = sub.add_parser("transport", help="run the transport suite",
                          parents=[suite_flags])
    p_tr.add_argument("--report", default="transport_report.json")

    args = parser.parse_args(argv)

    if args.command in ("flow", "rates"):
        return run(args.config)
    if args.command == "verify":
        suite = args.suite
    else:
        suite = args.command  # "ode" | "transport"
    try:
        reports = run_suite(suite, tol=args.tol, seed=args.seed, quick=args.quick)
    except Exception as exc:
        print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _write_reports(args.report, reports)
    n_fail = sum(1 for r in reports if not r.passed)
    n_skip = sum(1 for r in reports if r.skipped)
    print(f"{len(reports)} checks: {len(reports) - n_fail} passed, "
          f"{n_fail} failed, {n_skip} skipped -> {args.report}")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
