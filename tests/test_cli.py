import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import omegaflow
from omegaflow import cli
from omegaflow.cli import ConfigError, emit_plot_table, main, run
from omegaflow.jko import FlowTrajectory, JkoConfig, flow
from omegaflow.measures import make_atomic, measure_to_json
from omegaflow.verify import RateStudy, dirac_state, quadratic_energy


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


FLOW_CONFIG = {
    "job": "flow",
    "energy": {"potential": "quadratic"},
    "initial": {"kind": "dirac", "a": 1.0, "n": 4},
    "jko": {"tau": 0.1, "steps": 5, "inner_tol": 1e-10},
}


# flow energies of the shipped configs: convex, log-Lipschitz, hard-capped
# with entropy (the KS surrogate) and under a finite-p cap
_RERUN_ENERGIES = {
    "quadratic": {"potential": "quadratic"},
    "log_pinch": {"potential": {"name": "log_pinch", "strength": 1.0}},
    "ks_surrogate": {"kernel": {"kind": "newtonian", "d": 1, "c": 4.0},
                     "internal": "entropy",
                     "constraint": {"p": "inf", "cap": 2.0}},
    "finite_p_cap": {"kernel": {"kind": "newtonian", "d": 1, "c": 1.0},
                     "constraint": {"p": 4, "cap": 1.2}},
}


@st.composite
def _initial_shorthands(draw):
    """A ``dirac`` or ``uniform`` initial state of 2 to 16 nodes."""
    n = draw(st.integers(2, 16))
    center = draw(st.floats(-1.0, 1.0))
    if draw(st.booleans()):
        return {"kind": "dirac", "a": center, "n": n}
    half = draw(st.floats(0.05, 1.0))
    return {"kind": "uniform", "lo": center - half, "hi": center + half, "n": n}


class TestRun:
    def test_flow_job(self, tmp_path):
        cfg = dict(FLOW_CONFIG)
        cfg["output"] = {"trajectory": str(tmp_path / "t.csv"),
                         "manifest": str(tmp_path / "m.json")}
        code = run(write_config(tmp_path, "c.json", cfg))
        assert code == 0
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert rows[0].split(",") == ["step", "time", "energy", "W2_step",
                                      "constraint_violation", "inner_iters",
                                      "residual", "residual_flag"]
        assert len(rows) == 1 + 6  # header + steps+1 states
        assert rows[1].split(",")[-2:] == ["0", "False"]
        for row in rows[2:]:
            residual, flag = row.split(",")[-2:]
            assert float(residual) <= 1e-10 and flag == "False"
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert manifest["tool"].startswith("omegaflow")
        assert "config_sha256" in manifest
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["flagged_steps"] == 0

    def test_flagged_steps_in_manifest(self, tmp_path):
        # one inner iteration is not enough for this 2D step: it ends
        # flagged, with its residual above inner_tol
        mu = make_atomic(np.array([[0.0, 0.0], [1.0, 0.5]]), np.array([1.0, 1e-3]))
        cfg = {"job": "flow", "energy": {"potential": "quadratic"},
               "initial": json.loads(measure_to_json(mu)),
               "jko": {"tau": 0.3, "steps": 1, "inner_tol": 1e-9,
                       "inner_max_iter": 1},
               "output": {"trajectory": str(tmp_path / "t.csv"),
                          "manifest": str(tmp_path / "m.json")}}
        assert run(write_config(tmp_path, "c.json", cfg)) == 0
        assert (tmp_path / "t.csv").read_text().splitlines()[-1].endswith(",True")
        assert json.loads((tmp_path / "m.json").read_text())["flagged_steps"] == 1

    def test_2d_log_pinch_flow_job(self, tmp_path):
        # a radial potential: three 2D atoms step and spread outward
        mu = make_atomic(np.array([[0.01, 0.0], [-0.005, 0.008], [0.0, -0.012]]),
                         np.array([0.3, 0.3, 0.4]))
        cfg = {"job": "flow",
               "energy": {"potential": {"name": "log_pinch", "strength": 1.0}},
               "initial": json.loads(measure_to_json(mu)),
               "jko": {"tau": 0.01, "steps": 5},
               "output": {"trajectory": str(tmp_path / "t.csv"),
                          "manifest": str(tmp_path / "m.json")}}
        assert run(write_config(tmp_path, "c.json", cfg)) == 0
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert len(rows) == 1 + 6
        assert all(row.endswith(",False") for row in rows[1:])
        energies = [float(row.split(",")[2]) for row in rows[1:]]
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_flow_job_loads_no_scipy(self, tmp_path):
        # the manifest's library versions come without importing SciPy
        # (about 27 MB for scipy.linalg alone)
        cfg = dict(FLOW_CONFIG, output={"trajectory": str(tmp_path / "t.csv"),
                                        "manifest": str(tmp_path / "m.json")})
        path = write_config(tmp_path, "c.json", cfg)
        code = ("import sys\n"
                "from omegaflow.cli import run\n"
                f"assert run({path!r}) == 0\n"
                "print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy'))\n")
        src = os.path.dirname(os.path.dirname(omegaflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
        assert "numpy" in json.loads((tmp_path / "m.json").read_text())

    def test_missing_key_exit_2(self, tmp_path, capsys):
        code = run(write_config(tmp_path, "c.json", {"job": "flow"}))
        assert code == 2
        err = capsys.readouterr().err
        assert "energy" in err

    def test_bad_json_exit_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert run(str(p)) == 2

    def test_unknown_job_exit_2(self, tmp_path, capsys):
        for job in ("everything", "ode-audit"):
            code = run(write_config(tmp_path, "c.json", {"job": job}))
            assert code == 2, job
            assert "job" in capsys.readouterr().err

    def test_unknown_jko_key_pointer(self, tmp_path, capsys):
        cfg = dict(FLOW_CONFIG)
        cfg["jko"] = {"tau": 0.1, "stepz": 3}
        code = run(write_config(tmp_path, "c.json", cfg))
        assert code == 2
        assert "stepz" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param("parametrization", "grid", id="parametrization"),
        pytest.param("constraint_mode", "penalty", id="constraint_mode"),
        pytest.param("multi_start", False, id="multi_start"),
        pytest.param("penalty_weights", [1.0, 10.0], id="penalty_weights"),
        pytest.param("n_nodes", 256, id="n_nodes"),
    ])
    def test_removed_jko_key_rejected(self, tmp_path, capsys, key, value):
        cfg = dict(FLOW_CONFIG)
        cfg["jko"] = {"tau": 0.1, "steps": 2, key: value}
        code = run(write_config(tmp_path, "c.json", cfg))
        assert code == 2
        assert f"jko.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        pytest.param("inner_max_iter", 0, "inner_max_iter must be >= 1",
                     id="inner_max_iter"),
    ])
    def test_invalid_jko_value_exit_2(self, tmp_path, capsys, key, value,
                                      message):
        cfg = dict(FLOW_CONFIG)
        cfg["jko"] = {"tau": 0.1, "steps": 2, key: value}
        assert run(write_config(tmp_path, "c.json", cfg)) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        pytest.param("inner_max_iter", 1e4, id="float_budget"),
        pytest.param("steps", 2.5, id="float_steps"),
        pytest.param("steps", True, id="bool_steps"),
    ])
    def test_non_integer_count_exit_2(self, tmp_path, capsys, key, value):
        # a FISTA energy: a float budget used to fail inside the solver
        # (exit 1), and steps = true ran one step (exit 0)
        cfg = dict(FLOW_CONFIG, energy={"potential": "quadratic",
                                        "kernel": {"kind": "log", "c": -0.5}})
        cfg["jko"] = {"tau": 0.1, "steps": 2, key: value}
        assert run(write_config(tmp_path, "c.json", cfg)) == 2
        assert (f"config error at 'jko': {key} must be an integer, got {value!r}"
                in capsys.readouterr().err)

    def test_grid_initial_exit_2(self, tmp_path, capsys):
        # the initial state is a shorthand, an atomic or a quantile measure
        cfg = dict(FLOW_CONFIG)
        cfg["initial"] = {"kind": "grid", "origin": -0.5, "spacing": 0.5,
                          "values": [1.0, 1.0]}
        assert run(write_config(tmp_path, "c.json", cfg)) == 2
        assert "config error at 'initial': unknown measure kind 'grid'" \
            in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        cfg = dict(FLOW_CONFIG)
        cfg["output"] = {"trajectory": str(tmp_path / "a.csv")}
        path = write_config(tmp_path, "c.json", cfg)
        assert run(path) == 0
        body1 = (tmp_path / "a.csv").read_bytes()
        assert run(path) == 0
        body2 = (tmp_path / "a.csv").read_bytes()
        assert body1 == body2

    @settings(max_examples=40, deadline=None)
    @given(energy=st.sampled_from(sorted(_RERUN_ENERGIES)),
           initial=_initial_shorthands(), tau=st.sampled_from([0.01, 0.05, 0.2]),
           steps=st.integers(1, 3))
    def test_byte_identical_reruns_property(self, energy, initial, tau, steps):
        # a second run writes the same trajectory CSV and state files
        with tempfile.TemporaryDirectory() as tmp:
            cfg = {"job": "flow", "energy": _RERUN_ENERGIES[energy],
                   "initial": initial, "jko": {"tau": tau, "steps": steps},
                   "output": {"trajectory": os.path.join(tmp, "t.csv"),
                              "states_dir": os.path.join(tmp, "states")}}
            path = write_config(Path(tmp), "c.json", cfg)
            outputs = []
            for _ in range(2):
                assert run(path) == 0
                files = sorted(Path(tmp, "states").iterdir())
                assert len(files) == steps + 1
                outputs.append([Path(tmp, "t.csv").read_bytes()]
                               + [f.read_bytes() for f in files])
            assert outputs[0] == outputs[1]

    def test_unconverged_steps_flagged_in_csv(self, tmp_path):
        cfg = dict(FLOW_CONFIG)
        # a quartic potential: one Newton iteration is not exact (on the
        # quadratic one it is)
        cfg["energy"] = {"potential": "granular"}
        cfg["jko"] = {"tau": 0.1, "steps": 3, "inner_tol": 1e-14,
                      "inner_max_iter": 1}
        cfg["output"] = {"trajectory": str(tmp_path / "t.csv")}
        assert run(write_config(tmp_path, "c.json", cfg)) == 0
        rows = [r.split(",") for r in
                (tmp_path / "t.csv").read_text().splitlines()[2:]]
        assert rows and all(r[-1] == "True" and float(r[-2]) > 1e-14
                            for r in rows)

    def _finite_p_rows(self, tmp_path, kernel, initial, steps):
        cfg = dict(FLOW_CONFIG)
        cfg["energy"] = {"kernel": kernel, "constraint": {"p": 4, "cap": 1.2}}
        cfg["initial"] = initial
        cfg["jko"] = {"tau": 0.1, "steps": steps, "inner_tol": 1e-8}
        cfg["output"] = {"trajectory": str(tmp_path / "t.csv")}
        assert run(write_config(tmp_path, "c.json", cfg)) == 0
        lines = (tmp_path / "t.csv").read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, r.split(","))) for r in lines[1:]]

    def test_finite_p_cap_held_in_csv(self, tmp_path):
        # the cap is active from step 3 on: every state ends on it
        rows = self._finite_p_rows(
            tmp_path, {"kind": "newtonian", "d": 1, "c": 2.0},
            {"kind": "uniform", "lo": -0.6, "hi": 0.6, "n": 32}, 8)
        assert len(rows) == 9
        for row in rows:
            assert np.isfinite(float(row["energy"]))
            assert float(row["constraint_violation"]) == 0.0
            assert row["residual_flag"] == "False"

    def test_failed_finite_p_steps_flagged_in_csv(self, tmp_path):
        # strongly attractive log kernel: the search reaches -inf where
        # atoms meet, and each step returns its start, feasible, with the
        # flag set
        initial = {"kind": "uniform", "lo": -0.5, "hi": 0.5, "n": 8}
        rows = self._finite_p_rows(
            tmp_path, {"kind": "log", "c": 4.0}, initial, 3)
        assert len(rows) == 4
        assert all(row["residual_flag"] == "True" for row in rows[1:])
        assert all(float(row["constraint_violation"]) == 0.0
                   and row["energy"] == rows[0]["energy"] for row in rows)
        # at c = 1 every step converges, feasible
        rows = self._finite_p_rows(tmp_path, {"kind": "log"}, initial, 3)
        assert all(row["residual_flag"] == "False"
                   and float(row["constraint_violation"]) == 0.0
                   for row in rows)

    def test_rates_job(self, tmp_path):
        cfg = {
            "job": "rates",
            "energy": {"potential": "quadratic"},
            "initial": {"kind": "dirac", "a": 1.0, "n": 2},
            "modulus": {"kind": "lipschitz", "lambda": 1.0},
            "jko": {"inner_tol": 1e-9},
            "t": 0.5,
            "n_list": [8, 16, 32],
            "n_ref": 128,
            "output": {"plot_table": str(tmp_path / "r.csv"),
                       "report": str(tmp_path / "r.json"),
                       "manifest": str(tmp_path / "m.json")},
        }
        assert run(write_config(tmp_path, "c.json", cfg)) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["monotone"] and report["below_envelope"]
        table = (tmp_path / "r.csv").read_text().splitlines()
        assert table[0] == "series,x,y"
        assert any(line.startswith("measured,") for line in table[1:])

    @pytest.mark.parametrize("job, key, value", [
        pytest.param("verify", "quick", "false", id="quick-string"),
        pytest.param("verify", "seed", "x", id="seed"),
        pytest.param("verify", "tol", [1], id="tol"),
        pytest.param("rates", "n_list", [8, "x"], id="n_list"),
        pytest.param("rates", "n_ref", "x", id="n_ref"),
        pytest.param("flow", "energy", {"potentail": "quadratic"},
                     id="energy-typo"),
        pytest.param("rates", "modulus", [1], id="modulus-not-object"),
        pytest.param("flow", "jk0", {"tau": 0.1}, id="top-level-typo"),
        pytest.param("verify", "energy", {"potential": "quadratic"},
                     id="key-of-another-job"),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, job, key, value):
        # each job's config holds only the keys that job reads
        dynamics = {"energy": {"potential": "quadratic"},
                    "initial": {"kind": "dirac", "a": 1.0, "n": 2}}
        cfg = {"verify": {"suite": "transport", "quick": True},
               "rates": dict(dynamics,
                             modulus={"kind": "lipschitz", "lambda": 1.0}),
               "flow": dynamics}[job]
        written = {"verify": {"report": "r.json"},
                   "rates": {"report": "r.json", "plot_table": "r.csv"},
                   "flow": {"trajectory": "t.csv"}}[job]
        written = dict(written, manifest="m.json")
        cfg = dict(cfg, job=job,
                   output={k: str(tmp_path / v) for k, v in written.items()})
        cfg[key] = value
        assert run(write_config(tmp_path, "c.json", cfg)) == 2
        assert f"config error at {key!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    @pytest.mark.parametrize("job, output, pointer", [
        pytest.param("flow", "out.csv", "output", id="flow-string"),
        pytest.param("flow", {"trajectory": 5}, "output.trajectory",
                     id="flow-path-not-string"),
        pytest.param("flow", {"report": "r.json"}, "output.report",
                     id="flow-key-of-rates"),
        pytest.param("rates", {"trajectory": "t.csv"}, "output.trajectory",
                     id="rates-key-of-flow"),
        pytest.param("verify", ["rep.json"], "output", id="verify-list"),
        pytest.param("verify", {"states_dir": "s"}, "output.states_dir",
                     id="verify-key-of-flow"),
        pytest.param("verify", None, "output", id="verify-null"),
    ])
    def test_malformed_output_exit_2(self, tmp_path, capsys, monkeypatch,
                                     job, output, pointer):
        # rejected before the job computes: a verify job runs no suite
        monkeypatch.setattr(cli, "run_suite", None)
        cfg = {"flow": FLOW_CONFIG,
               "rates": dict(FLOW_CONFIG, job="rates",
                             modulus={"kind": "lipschitz", "lambda": 1.0}),
               "verify": {"job": "verify", "suite": "all"}}[job]
        monkeypatch.chdir(tmp_path)
        code = run(write_config(tmp_path, "c.json", dict(cfg, output=output)))
        assert code == 2
        assert f"config error at {pointer!r}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_nested_key_pointer(self, tmp_path, capsys):
        cfg = dict(FLOW_CONFIG)
        cfg["initial"] = {"kind": "uniform", "lo": "x", "hi": 1.0}
        assert run(write_config(tmp_path, "c.json", cfg)) == 2
        assert "config error at 'initial.lo'" in capsys.readouterr().err

    @pytest.mark.parametrize("job, key, value, pointer, word", [
        pytest.param("flow", "initial", {"kind": "dirac", "a": 0.5, "m": 4},
                     "initial.m", "unknown key", id="dirac-typo"),
        pytest.param("flow", "initial",
                     {"kind": "uniform", "lo": 0.0, "hi": 1.0, "nn": 4},
                     "initial.nn", "unknown key", id="uniform-typo"),
        pytest.param("flow", "energy",
                     {"constraint": {"p": "inf", "cap": 2, "cpa": 1}},
                     "energy", "'cpa'", id="constraint-typo"),
        pytest.param("flow", "energy",
                     {"potential": {"name": "granular", "bb": 3}},
                     "energy", "'bb'", id="potential-param-typo"),
        pytest.param("flow", "energy",
                     {"potential": {"name": "quadratic", "b": 3}},
                     "energy", "'b'", id="potential-param-unread"),
        pytest.param("flow", "energy", {"internal": {"power": "inf"}},
                     "energy", "constraint", id="power-inf"),
        pytest.param("flow", "energy", {"internal": {"power": None}},
                     "energy", "constraint", id="power-null"),
        pytest.param("flow", "energy", {"constraint": {"p": None, "cap": 2}},
                     "energy", "constraint", id="constraint-p-null"),
        pytest.param("flow", "energy", {"internal": {"kind": "entropy"}},
                     "energy", "internal", id="entropy-object"),
        pytest.param("flow", "energy", {"kernel": {"kind": "log", "alpha": 3.0}},
                     "energy", "'alpha'", id="kernel-key-unread"),
        pytest.param("rates", "modulus", {"kind": "lipschitz", "lamda": 1},
                     "modulus", "'lamda'", id="modulus-typo"),
        pytest.param("rates", "modulus", {"kind": "lipschitz", "lam": 1},
                     "modulus", "'lam'", id="modulus-lam"),
        pytest.param("rates", "modulus",
                     {"kind": "sqrt_psi", "lambda": -1, "p": 2},
                     "modulus", "'p'", id="modulus-p-unread"),
    ])
    def test_unread_nested_key_exit_2(self, tmp_path, capsys, job, key,
                                      value, pointer, word):
        # a key the parser does not read is a typo, not a default
        cfg = dict(FLOW_CONFIG, output={"trajectory": str(tmp_path / "t.csv"),
                                        "manifest": str(tmp_path / "m.json")})
        if job == "rates":
            cfg = dict(cfg, job="rates",
                       modulus={"kind": "lipschitz", "lambda": 1.0},
                       output={"report": str(tmp_path / "r.json"),
                               "plot_table": str(tmp_path / "r.csv"),
                               "manifest": str(tmp_path / "m.json")})
        cfg[key] = value
        assert run(write_config(tmp_path, "c.json", cfg)) == 2
        err = capsys.readouterr().err
        assert f"config error at {pointer!r}" in err and word in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]

    def test_verify_job(self, tmp_path):
        cfg = {"job": "verify", "suite": "transport", "quick": True,
               "output": {"report": str(tmp_path / "rep.json"),
                          "manifest": str(tmp_path / "m.json")}}
        assert run(write_config(tmp_path, "c.json", cfg)) == 0
        reports = json.loads((tmp_path / "rep.json").read_text())
        assert isinstance(reports, list) and reports
        assert all(r["pass"] for r in reports)


class TestEmitPlotTable:
    def test_empty_rate_study_header_only(self):
        st = RateStudy("empty", 0.5, [], [], "n^-1/4", [], 0.0, 0.0, 1.0)
        assert emit_plot_table(st) == "series,x,y\n"

    def test_rate_study_series(self):
        st = RateStudy("f", 0.5, [8, 16], [0.1, 0.05], "n^-1/4",
                       [0.59, 0.5], 0.169, -1.0, 2.0)
        lines = emit_plot_table(st).splitlines()
        assert lines[0] == "series,x,y"
        assert sum(1 for l in lines if l.startswith("measured,")) == 2
        assert sum(1 for l in lines if l.startswith("bound,")) == 2

    def test_trajectory_series(self):
        tr = flow(quadratic_energy(), dirac_state(1.0, 2),
                  JkoConfig(tau=0.1, steps=3, inner_tol=1e-10))
        lines = emit_plot_table(tr).splitlines()
        assert sum(1 for l in lines if l.startswith("energy,")) == 4
        assert sum(1 for l in lines if l.startswith("W2_step,")) == 3


class TestMainEntry:
    def test_verify_subcommand(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["verify", "--suite", "transport", "--quick",
                     "--report", "out/rep.json"])
        assert code == 0
        assert (tmp_path / "out" / "rep.json").exists()
        # the run is the equivalent config job, hashed in canonical form
        config = {"job": "verify", "suite": "transport", "seed": 0,
                  "tol": 1e-6, "quick": True,
                  "output": {"report": "out/rep.json"}}
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_sha256"] == hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest()
        assert manifest["artifacts"] == ["out/rep.json"]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].endswith(" failed, 0 skipped -> out/rep.json")

    def test_verify_appendix_writes_its_report(self, tmp_path, monkeypatch):
        # the asymmetric recursion's rhs is a numpy scalar, and its pass
        # flag must still be a bool the JSON report can hold
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "appendix", "--quick",
                     "--report", "rep.json"]) == 0
        names = {r["name"] for r in json.loads((tmp_path / "rep.json").read_text())}
        assert "asymmetric_recursion" in names

    def test_verify_job_matches_subcommand(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "transport", "--quick", "--seed", "2",
                     "--tol", "1e-7", "--report", "rep.json"]) == 0
        body, out = (tmp_path / "rep.json").read_bytes(), capsys.readouterr().out
        cfg = {"job": "verify", "suite": "transport", "quick": True, "seed": 2,
               "tol": 1e-7, "output": {"report": "rep.json",
                                       "manifest": "m.json"}}
        (tmp_path / "rep.json").unlink()
        assert run(write_config(tmp_path, "c.json", cfg)) == 0
        assert (tmp_path / "rep.json").read_bytes() == body
        assert capsys.readouterr().out == out

    def test_suite_flags_after_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "transport", "--quick", "--seed", "1",
                     "--tol", "1e-6", "--report", "rep.json"]) == 0

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--tol", "1e-3"]])
    @pytest.mark.parametrize("command", ["flow", "rates"])
    def test_config_jobs_reject_suite_flags(self, tmp_path, command, flag):
        path = write_config(tmp_path, "c.json", FLOW_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main([command, path, *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["ode", "transport"])
    def test_suite_aliases_removed(self, tmp_path, monkeypatch, command):
        # a focused suite runs as ``verify --suite <name>``
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--quick"])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_flow_subcommand(self, tmp_path):
        cfg = dict(FLOW_CONFIG)
        cfg["output"] = {"trajectory": str(tmp_path / "t.csv"),
                         "manifest": str(tmp_path / "m.json")}
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["flow", path]) == 0

    def test_console_script_help(self):
        out = subprocess.run([sys.executable, "-m", "omegaflow.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "verify" in out.stdout


class TestFixtureOverride:
    def test_env_var_override(self, tmp_path, monkeypatch):
        from omegaflow.verify import fixtures_dir, load_frozen
        src = load_frozen()
        alt = tmp_path / "fixtures"
        alt.mkdir()
        src["aggregation_cap2"]["C"] = 123.0
        (alt / "calibration.json").write_text(json.dumps(src))
        monkeypatch.setenv("OMEGAFLOW_FIXTURES", str(alt))
        assert fixtures_dir() == str(alt)
        assert load_frozen()["aggregation_cap2"]["C"] == 123.0
