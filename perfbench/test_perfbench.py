"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench

Checks that every workload runs and passes its own output checks, that
reruns reproduce, that the tracer sees calls through every namespace and
restores them, that its counts repeat exactly, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import omegaflow.jko  # noqa: E402
import omegaflow.transport  # noqa: E402
import omegaflow.verify  # noqa: E402

TINY = {
    "ks_flow_cli": lambda: workloads.KsFlowCli(n=16, steps=2),
    "dirac_semigroup": lambda: workloads.DiracSemigroup(
        t=0.05, quad_steps=16, gran_steps=8, pinch_steps=8, closed_steps=8),
    "evi_2d": lambda: workloads.Evi2d(pairs=1, n=8),
}


def test_every_workload_has_a_tiny_size():
    assert set(TINY) == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_job_passes_and_reruns_identically(name, tmp_path):
    wl = TINY[name]()
    wl.setup(7, str(tmp_path))
    first = wl.run_job(wl.inputs(7, 0))
    again = wl.run_job(wl.inputs(7, 0))
    other = wl.run_job(wl.inputs(7, 1))
    assert first.checks and first.failed == 0, first.checks
    assert first.steps > 0
    assert first.fingerprint == again.fingerprint
    assert first.fingerprint != other.fingerprint


@pytest.mark.parametrize("name", sorted(TINY))
def test_trace_counts_repeat_exactly(name, tmp_path):
    wl = TINY[name]()
    wl.setup(3, str(tmp_path))
    inputs = wl.inputs(3, 0)
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            res = wl.run_job(inputs)
        assert res.failed == 0
        assert tracer.layer_calls(wl.dominant_layer) > 0
        counts.append(tracer.counts())
    assert counts[0] == counts[1]
    assert counts[0]["jko.proximal_step.calls"] > 0


def test_tracer_rebinds_names_imported_by_name_and_restores_them():
    original = omegaflow.transport.w2_exact
    tracer = Tracer()
    with tracer:
        for mod in (omegaflow.transport, omegaflow.jko, omegaflow.verify):
            assert mod.w2_exact.__wrapped__ is original
        mu = omegaflow.verify.dirac_state(0.5, 2).to_atomic()
        omegaflow.jko.w2_exact(mu, mu)
        omegaflow.verify.w2_exact(mu, mu)
    assert tracer.span("transport.w2_exact").calls == 2
    assert tracer.span("measures.AtomicMeasure").calls >= 1
    for mod in (omegaflow.transport, omegaflow.jko, omegaflow.verify):
        assert mod.w2_exact is original


def test_self_time_excludes_wrapped_children(tmp_path):
    wl = TINY["evi_2d"]()
    wl.setup(1, str(tmp_path))
    with Tracer() as tracer:
        wl.run_job(wl.inputs(1, 0))
    evi = tracer.span("verify.check_discrete_evi")
    assert 0.0 <= evi.self_time < evi.total
    assert tracer.layer_total["transport"] > 0.0


@pytest.mark.parametrize("traced", [False, True])
def test_harness_reports_every_declared_metric(traced, tmp_path):
    import json
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if traced else "end_to_end"
    tally = run.Tally()
    wl = TINY["dirac_semigroup"]()
    measure = run._per_layer if traced else run._end_to_end
    metrics = measure(wl, 0, 1, str(tmp_path), tally)
    assert tally.failed == 0 and tally.attempted > 0
    assert {m["name"] for m in spec[key]} == set(metrics)
    for m in spec[key]:
        assert metrics[m["name"]]["unit"] == m["unit"]


def test_calibration_scales_job_time_by_host_speed():
    result, dt, cal_s = calibrate.around(lambda: "done")
    assert result == "done" and dt >= 0.0 and cal_s > 0.0
    assert calibrate.normalize(2.0, calibrate.REFERENCE_S) == 2.0
    assert calibrate.normalize(2.0, 2 * calibrate.REFERENCE_S) == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracer.py", "calibrate.py"):
        shutil.copy(os.path.join(HERE, name), bench / name)
    out = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                          "evi_2d", "--seed", "0", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
