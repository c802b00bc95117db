"""omegaflow benchmark: one seeded workload, timed, checked, optionally traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ks_flow_cli --seed 0 --seconds 30 --trace 0

The benchmark pins the BLAS thread variables to 1, so every workload runs
single-threaded.  It runs one untimed warm-up job on the rep-0 inputs, then
timed jobs on fresh seeded inputs (rep 1, 2, ...) until ``--seconds`` have
passed and at least ``MIN_JOBS`` jobs have finished, then one last job that
reruns the rep-0 inputs and must reproduce the warm-up exactly.

``norm_wall_s`` is the median job wall time of the run and
``norm_steps_per_s`` the median per-job rate of proximal steps, each job's
time scaled by the host speed measured around it (see calibrate.py).  Other
tenants of a shared host slow every computation down by up to 40 %, in
phases that outlast a run; the scaling takes them out, and the median over
the dozens of short jobs in a run averages over the seeded input mix.
``setup_s`` is the median of ``SETUP_REPEATS`` set-ups, each in a fresh
interpreter, spread over the run and scaled in the same way.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs of the rep-0 job and prints the per-layer metrics
(see tracer.py), with the raw, unscaled ``wall_s`` and ``steps_per_s`` of
the untraced jobs among them.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the program's sources were not found next to the benchmark.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"   # before numpy is imported, here and in children

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_JOBS = 5          # timed jobs per run, whatever --seconds says
MIN_TRACED = 2        # traced jobs per trace run, so counts can be compared
SETUP_REPEATS = 7     # fresh-interpreter set-ups per run; the median is reported

WORKLOAD_NAMES = ("ks_flow_cli", "dirac_semigroup", "evi_2d")

# set-up in a fresh interpreter: imports, fixture load, rep-0 input generation
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
src, here, name, seed, workdir = sys.argv[1:]
sys.path[:0] = [src, here]
import workloads
workloads.WORKLOADS[name]().setup(int(seed), workdir)
print(time.perf_counter() - t0)
"""

# per-layer metric prefix -> span recorded by the tracer
NAMED_SPANS = {
    "measures.QuantileMeasure": "measures.QuantileMeasure",
    "measures.AtomicMeasure": "measures.AtomicMeasure",
    "transport.w2_exact": "transport.w2_exact",
    "transport.w2_1d": "transport.w2_1d",
    "transport.glue": "transport.glue",
    "energies.interaction_value": "energies.Energy.interaction_value",
    "energies.quantile_grad": "energies.Energy.quantile_grad",
    "energies.potential_value": "energies.Energy.potential_value",
    "energies.internal_value": "energies.Energy.internal_value",
    "energies.eval": "energies.Energy.eval",
    "jko.proximal_step": "jko.proximal_step",
    "jko.isotonic_project": "jko.isotonic_project",
    "verify.check_discrete_evi": "verify.check_discrete_evi",
    "verify.check_semigroup_contraction": "verify.check_semigroup_contraction",
    "cli.run": "cli.run",
}


class Tally:
    """Attempted and failed operations over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, res) -> None:
        self.attempted += len(res.checks)
        self.failed += res.failed
        for label, passed in res.checks:
            if not passed:
                print(f"check failed: {label}", file=sys.stderr)

    def check(self, passed: bool) -> None:
        self.attempted += 1
        self.failed += not passed


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _guarded_job(wl, inputs, tally):
    """Run one job; an exception is one failed operation, not a crash."""
    try:
        return wl.run_job(inputs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.check(False)
        return None


def _setup_seconds(name: str, seed: int, workdir: str) -> float:
    """One set-up in a fresh interpreter, as the probe times it, scaled by
    the host speed measured around it like a job's time."""
    out, _, cal_s = calibrate.around(lambda: subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC, HERE, name, str(seed), workdir],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT))
    return calibrate.normalize(float(out.stdout.strip().splitlines()[-1]), cal_s)


def _end_to_end(wl, seed: int, seconds: int, workdir: str, tally: Tally) -> dict:
    setup_dir = os.path.join(workdir, "setup")
    os.mkdir(setup_dir)
    wl.setup(seed, workdir)
    # warm-up on the rep-0 inputs: lazy imports and caches fill outside timing
    first = _guarded_job(wl, wl.inputs(seed, 0), tally)
    if first is not None:
        tally.add(first)
    walls, rates, cals, setups = [], [], [], []
    start = perf_counter()
    rep = 1
    while len(walls) < MIN_JOBS or perf_counter() - start < seconds:
        # set-ups spread over the run, so their median spans its host phases
        if perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(_setup_seconds(wl.name, seed, setup_dir))
        inputs = wl.inputs(seed, rep)
        rep += 1
        gc.collect()
        res, dt, cal_s = calibrate.around(lambda: _guarded_job(wl, inputs, tally))
        if res is None:
            if perf_counter() - start >= seconds:
                break
            continue
        tally.add(res)
        walls.append(dt)
        cals.append(cal_s)
        rates.append(res.steps / dt)
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_seconds(wl.name, seed, setup_dir))
    # the rerun of the rep-0 inputs must reproduce the warm-up
    res = _guarded_job(wl, wl.inputs(seed, 0), tally)
    if res is not None:
        res.check("rerun reproduces rep 0",
                  first is not None and res.fingerprint == first.fingerprint)
        tally.add(res)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not walls:
        return {}
    norm_walls = [calibrate.normalize(dt, c) for dt, c in zip(walls, cals)]
    norm_rates = [r * c / calibrate.REFERENCE_S for r, c in zip(rates, cals)]
    print(f"{len(walls)} timed jobs in {perf_counter() - start:.1f} s; raw median "
          f"wall {statistics.median(walls):.4f} s, {statistics.median(rates):.4f} "
          f"steps/s; calibration kernel median {statistics.median(cals):.5f} s")
    return {
        "norm_wall_s": _metric(statistics.median(norm_walls), "s"),
        "norm_steps_per_s": _metric(statistics.median(norm_rates), "1/s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def _per_layer(wl, seed: int, seconds: int, workdir: str, tally: Tally) -> dict:
    from tracer import LAYERS, Tracer

    wl.setup(seed, workdir)
    inputs = wl.inputs(seed, 0)
    reference = None
    untraced, traced, runs = [], [], []
    start = perf_counter()
    while len(runs) < MIN_TRACED or perf_counter() - start < seconds:
        for tracer in (None, Tracer()):
            gc.collect()
            t0 = perf_counter()
            if tracer is None:
                res = _guarded_job(wl, inputs, tally)
            else:
                with tracer:
                    res = _guarded_job(wl, inputs, tally)
            dt = perf_counter() - t0
            if res is None:
                continue
            if reference is None:
                reference = res
            res.check("rerun reproduces the first run",
                      res.fingerprint == reference.fingerprint)
            tally.add(res)
            if tracer is None:
                untraced.append(dt)
            else:
                traced.append(dt)
                runs.append((tracer, res))
        if not runs and perf_counter() - start > seconds:
            break
    if not runs:
        return {}
    first, res0 = runs[0]
    # exact-count self-test: the same inputs give the same counts
    for tracer, _ in runs[1:]:
        tally.check(tracer.counts() == first.counts())
    # coverage: a rebinding the tracer missed would zero the dominant layer
    tally.check(first.layer_calls(wl.dominant_layer) > 0)
    dominant = first.dominant_layer()
    print(f"dominant layer by self time: {dominant} "
          f"({first.layer_self(dominant):.3f} s of {traced[0]:.3f} s traced; "
          f"expected {wl.dominant_layer})")

    def med(fn) -> float:
        return statistics.median(fn(tracer) for tracer, _ in runs)

    metrics = {}
    for prefix, span in NAMED_SPANS.items():
        metrics[f"{prefix}.calls"] = _metric(first.span(span).calls, "count")
        metrics[f"{prefix}.self_s"] = _metric(
            med(lambda t, s=span: t.span(s).self_time), "s")
    w2 = "transport.w2_exact"
    metrics[f"{w2}.ms_per_call"] = _metric(1e3 * _ratio(
        med(lambda t: t.span(w2).total), first.span(w2).calls), "ms")
    iso = "jko.isotonic_project"
    metrics[f"{iso}.us_per_call"] = _metric(1e6 * _ratio(
        med(lambda t: t.span(iso).total), first.span(iso).calls), "us")
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = _metric(first.layer_calls(layer), "count")
        metrics[f"{layer}.self_s"] = _metric(med(lambda t, l=layer: t.layer_self(l)), "s")
        metrics[f"{layer}.total_s"] = _metric(
            med(lambda t, l=layer: t.layer_total[l]), "s")
    steps = first.span("jko.proximal_step").calls
    metrics["jko.inner_iters"] = _metric(first.inner_iters, "count")
    metrics["jko.inner_iters_per_step"] = _metric(_ratio(first.inner_iters, steps), "count")
    metrics["jko.evals_per_iter"] = _metric(
        _ratio(first.objective_evals(), first.inner_iters), "ratio")
    metrics["jko.residual_flag_frac"] = _metric(_ratio(first.residual_flags, steps), "ratio")
    metrics["verify.reran_tighter"] = _metric(res0.reran_tighter, "count")
    # raw median job on each side; the untraced side is the run's raw wall time
    traced_wall = statistics.median(traced)
    untraced_wall = statistics.median(untraced) if untraced else 0.0
    metrics["wall_s"] = _metric(untraced_wall, "s")
    metrics["steps_per_s"] = _metric(_ratio(res0.steps, untraced_wall), "1/s")
    metrics["traced_wall_s"] = _metric(traced_wall, "s")
    metrics["trace_overhead_frac"] = _metric(_ratio(traced_wall, untraced_wall) - 1.0,
                                             "ratio")
    metrics["fail_frac"] = _metric(_ratio(tally.failed, tally.attempted), "ratio")
    return metrics


def _machine() -> dict:
    import numpy
    import scipy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "omegaflow", "__init__.py")):
        print(f"omegaflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    tally = Tally()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = _per_layer if args.trace else _end_to_end
        metrics = run(wl, args.seed, args.seconds, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine: " + json.dumps(_machine(), sort_keys=True))
    tally.check(bool(metrics))   # no successful job means no metrics
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
