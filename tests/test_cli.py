"""CLI surface: flags, formats, schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ptheta.serialize import SCHEMAS

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, env=None):
    # the subprocess imports ptheta from this checkout, with or without an
    # installed package or PYTHONPATH in the calling environment
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), full_env.get("PYTHONPATH")) if p)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ptheta.cli", *args],
        capture_output=True, text=True, env=full_env,
    )


class TestEval:
    def test_json_schema_and_value(self):
        r = run_cli("eval", "--q", "0.5", "--x", "-6", "--tol", "1e-12",
                    "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        jsonschema.validate(payload, SCHEMAS["eval"])
        assert payload["value"]["re"] > 0.007
        assert payload["err"] < 1e-12

    def test_q_range_sweep(self):
        r = run_cli("eval", "--q-range", "0.1:0.5:5", "--x", "1",
                    "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "q,re_x,im_x,re_value,im_value,err"
        assert len(lines) == 6

    def test_byte_identical_reruns(self):
        a = run_cli("eval", "--q", "0.7", "--x", "2+1j", "--format", "json")
        b = run_cli("eval", "--q", "0.7", "--x", "2+1j", "--format", "json")
        assert a.stdout == b.stdout

    def test_usage_errors(self):
        assert run_cli("eval", "--x", "1").returncode == 2
        assert run_cli("eval", "--q", "0.5", "--q-range", "0:1:3",
                       "--x", "1").returncode == 2
        assert run_cli("eval", "--q", "0.5", "--x", "nope").returncode == 2
        assert run_cli("eval", "--q", "0.5", "--x", "1",
                       "--tol", "1e-20").returncode == 2

    def test_truncation_cap_env(self):
        # at x = -1 both the direct series and the tail G at 1/x = -1 need
        # an order above 40 (Theta* vanishes there and needs none)
        r = run_cli("eval", "--q", "0.99", "--x=-1.0",
                    env={"THETA_MAX_N": "40"})
        assert r.returncode == 3
        assert "numerical failure" in r.stderr

    def test_value_past_binary64_is_numerical_failure(self):
        r = run_cli("eval", "--q", "0.5", "--x=-1e30")
        assert r.returncode == 3
        assert "numerical failure" in r.stderr
        assert "Traceback" not in r.stderr


class TestZeros:
    def test_csv_header_and_rows(self):
        r = run_cli("zeros", "--q", "-0.78", "--x-min", "0", "--x-max", "3.2",
                    "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "q,re_x,im_x,kind,index,multiplicity,residual"
        assert len(lines) == 4

    def test_json_schema(self):
        r = run_cli("zeros", "--q", "0.4", "--complex", "--radius", "10",
                    "--format", "json")
        payload = json.loads(r.stdout)
        jsonschema.validate(payload, SCHEMAS["zeros"])
        assert any(row["kind"] == "complex_pair" for row in payload)

    def test_missing_interval(self):
        assert run_cli("zeros", "--q", "0.4").returncode == 2


class TestSpectrumSeparateTrace:
    def test_spectrum_json(self):
        r = run_cli("spectrum", "--case", "A", "--k", "1", "--format", "json")
        payload = json.loads(r.stdout)
        jsonschema.validate([payload], SCHEMAS["spectral"])
        assert abs(payload["q_star"] - 0.3092493386) < 1e-8

    def test_separate_json(self):
        r = run_cli("separate", "--q", "0.5", "--format", "json")
        payload = json.loads(r.stdout)
        jsonschema.validate(payload, SCHEMAS["separation"])
        assert payload["a"] >= 5.0 and payload["margin"] > 0

    def test_trace_csv_collision(self):
        r = run_cli("trace", "--q-from", "0.25", "--q-to", "0.32",
                    "--steps", "30", "--auto-pair", "1", "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "step,q,zero_id,re_x,im_x,alive,collision_q"
        last = lines[-1].split(",")
        assert abs(float(last[-1]) - 0.3092493386) < 5e-3

    def test_trace_without_collision(self):
        r = run_cli("trace", "--q-from", "0.05", "--q-to", "0.2",
                    "--steps", "20", "--auto-pair", "1", "--format", "csv")
        assert r.returncode == 0
        assert all(line.endswith(",") for line in
                   r.stdout.strip().splitlines()[1:])  # empty collision_q

    def test_trace_seed_flags(self):
        assert run_cli("trace", "--q-from", "0.1", "--q-to", "0.2").returncode == 2


class TestVerify:
    def test_single_claim_json(self):
        r = run_cli("verify", "--suite", "phi1-initial-slope,b-anchor-signs",
                    "--identity-samples", "40", "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        jsonschema.validate(payload, SCHEMAS["claims"])
        ids = [row["id"] for row in payload]
        assert "phi1-initial-slope" in ids and "b-anchor-signs" in ids

    def test_case_filter(self, capsys, monkeypatch):
        # in-process, with the registry narrowed so the filter path is fast
        import ptheta.claims as claims_mod
        from ptheta.cli import main

        full = claims_mod._registry()
        narrow = [e for e in full
                  if e[0] in ("b-anchor-signs", "phi1-initial-slope")]
        monkeypatch.setattr(claims_mod, "_registry", lambda: narrow)
        code = main(["verify", "--suite", "case-a", "--identity-samples", "40",
                     "--format", "json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        by_id = {row["id"]: row["status"] for row in payload}
        assert by_id["b-anchor-signs"] == "skipped"
        assert by_id["phi1-initial-slope"] == "verified"
        assert code == 0

    def test_violation_exit_code(self, capsys, monkeypatch):
        import ptheta.claims as claims_mod
        from ptheta.claims import ClaimReport
        from ptheta.cli import main

        bad = [("z-synthetic", lambda: ClaimReport("z-synthetic", "violated"))]
        monkeypatch.setattr(claims_mod, "_registry", lambda: bad)
        code = main(["verify", "--suite", "z-synthetic", "--format", "json"])
        capsys.readouterr()
        assert code == 1

    def test_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        r = run_cli("verify", "--suite", "phi1-initial-slope",
                    "--identity-samples", "40", "--format", "json",
                    "--output", str(out))
        assert r.returncode == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, SCHEMAS["claims"])
