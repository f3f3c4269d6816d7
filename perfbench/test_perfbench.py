"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import workloads
from cantorsalem import ap_verifier, cli

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, trace=0):
    return run.run_workload(workload, 3, 0.01, trace, workloads.TINY)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    res = tiny(workload)
    assert (res["correct"], res["failed"]) == (True, 0)
    assert res["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_layer_metric_and_restores_the_program():
    original = cli.run
    res = tiny("factorial", trace=1)
    assert (res["correct"], res["failed"]) == (True, 0)
    assert cli.run is original and ap_verifier.cross_cell_scan.__module__ == "cantorsalem.ap_verifier"
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["fourier.freqs_above_int64"] == m["fourier.freqs"] == workloads.TINY.b_k_count
    assert m["ap_verifier.triples_found"] > 0
    spans = [json.loads(line) for line in (run.OUT / "spans-factorial-3.jsonl").read_text().splitlines()]
    by_id = {sp["id"]: sp for sp in spans}
    for sp in spans:
        parent = by_id.get(sp["parent"])
        if parent is not None:
            assert parent["start"] <= sp["start"] <= sp["end"] <= parent["end"]
            assert parent["op"] == sp["op"]
    assert {sp["name"] for sp in spans if sp["parent"] is None} == {"cli.run"}


def _planted(monkeypatch, module, name, corrupt):
    original = getattr(module, name)

    def wrong(*args, **kwargs):
        return corrupt(original(*args, **kwargs), *args, **kwargs)

    monkeypatch.setattr(module, name, wrong)


def test_perturbed_coefficient_fails_the_op(monkeypatch):
    def perturb(_, coeffs, path):
        rows = open(path).read().splitlines()
        for i in range(2, len(rows)):  # every row past k = 0
            k, re, im, ab = rows[i].split(",")
            rows[i] = ",".join((k, repr(float(re) + 1e-9), im, ab))
        open(path, "w").write("\n".join(rows) + "\n")

    _planted(monkeypatch, cli, "write_coeffs_csv", perturb)
    assert tiny("spectral")["failed"] > 0


def test_dropped_control_triple_fails_the_op(monkeypatch):
    _planted(monkeypatch, ap_verifier, "cross_cell_scan", lambda found, *a, **k: found[1:])
    assert tiny("factorial")["failed"] > 0


def test_altered_exact_mass_fails_the_op(monkeypatch):
    _planted(monkeypatch, cli, "ball_mass", lambda mass, *a, **k: mass + Fraction(1, 10 ** 9))
    assert tiny("regularity")["failed"] > 0


def test_output_drift_between_equal_seeds_fails_the_op(monkeypatch):
    calls = iter(range(10 ** 6))
    _planted(monkeypatch, cli, "emit_svg", lambda svg, *a, **k: svg.replace("</svg>", f"<!-- {next(calls)} --></svg>"))
    res = tiny("regularity")
    assert res["failed"] >= 1 and res["attempted"] >= 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_calibration_scales_each_time_by_its_neighbouring_kernel_times():
    import calibrate

    # a time between kernels of 1 and 3 (mean 2) at reference 4 doubles
    assert calibrate.scaled([2.0, 5.0], [1.0, 3.0, 7.0], 4.0) == [4.0, 4.0]
