"""Tests of the benchmark itself, at smoke sizes so they run in seconds.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

EXPECTED_CHECKS = {
    "mc-verify": {"A2.qq_direct_sum", "A2.variance_ratio", "A2.abs_ex_kurtosis", "A2.ks_distance",
                  "A2.abs_skewness", "A2.predicted_variance", "A4.sd_ratio", "A4.abs_rho12",
                  "A4.predicted_sd", "A5.deviation_ratio", "A5.predicted_deviation",
                  "A5.deviation_tail_bound", "A3.bartlett_slope", "A3.bias_detected",
                  "A3.sign_agreement", "outputs_equal_first_pass"},
    "cli-pipeline": {"sample_roundtrip", "sample_equals_first_pass", "truth_eigenvalues",
                     "estimate_direct_sum", "fpca.eigenvalues", "fpca.eigenfunctions",
                     "h_plugin_equals_estimate_h", "oracle.naive_prefix"},
    "long-window": {"long.estimate_bartlett_direct_sum", "long.estimate_parzen_unbiased_direct_sum",
                    "long.spectral_direct_sum", "oracle.naive_prefix"},
}


def run_bench(tmp_path, workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--smoke", "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    units = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert names.match(metric["name"]) and units.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(workloads.LAYER_METRICS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_and_check(tmp_path, workload, trace):
    res = run_bench(tmp_path, workload, trace)
    assert res.returncode == 0, res.stderr[-2000:]
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    with open(tmp_path / f"{workload}-seed3-trace{trace}.json", encoding="utf-8") as fh:
        record = json.load(fh)
    expected = EXPECTED_CHECKS[workload]
    if not trace:  # a single pass: nothing to compare with the first pass
        expected = expected - {"sample_equals_first_pass", "outputs_equal_first_pass"}
    assert {c["name"] for c in record["checks"]} == expected
    assert all(c["ok"] for c in record["checks"] if c["counted"])
    assert record["environment"]["nproc"] >= 1 and record["input_bytes"] > 0
    if trace:
        assert (tmp_path / f"{workload}-seed3-spans.json").exists()
        assert record["missing_instrumentation"] == []
    else:
        assert set(record["end_to_end"]) >= {"setup_s", "wall_s", "peak_rss_mb", "failed_ops_ratio"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = run_bench(tmp_path / "out", "long-window", 0, cwd=tmp_path,
                    script=str(tmp_path / "perfbench" / "run.py"))
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_direct_sum_matches_naive_oracle():
    from lrcov import CurveSample, Grid, estimate_lrcov_naive, estimate_spectral_density, make_kernel

    rng = np.random.default_rng(5)
    for kernel in ("bartlett", "parzen"):
        for unbiased in (False, True):
            y = rng.normal(size=(30, 3))
            h = 7.5
            lags = oracle.window_lags(30, h)
            products = oracle.lag_products(y - y.mean(axis=0), lags)
            got = oracle.direct_lrcov(products, oracle.lag_weights(kernel, h, 30, lags, unbiased))
            want = estimate_lrcov_naive(CurveSample(Grid(3), y), make_kernel(kernel), h, unbiased=unbiased)
            assert oracle.agreement("x", got, want.surface.values).ok
    weights = oracle.lag_weights("bartlett", h, 30, lags, False)
    real, imag = oracle.direct_spectral(products, weights, 0.7)
    sd = estimate_spectral_density(CurveSample(Grid(3), y), make_kernel("bartlett"), h, 0.7)
    assert oracle.rel_err(real, sd.real_part.values) < 1e-12
    assert oracle.rel_err(imag, sd.imag_part.values) < 1e-12


def test_checks_flag_wrong_outputs():
    want = np.arange(1.0, 10.0).reshape(3, 3)
    assert oracle.agreement("x", want * (1 + 1e-13), want).ok
    assert not oracle.agreement("x", want * (1 + 1e-8), want).ok
    assert not oracle.agreement("x", want[:2], want).ok
    good = {"report": {"projections": [{"predicted_variance": 4.0 / 3.0, "variance": 4.0 / 3.0,
                                        "ex_kurtosis": 0.05, "ks_distance": 0.02, "skewness": 0.2}]}}
    checks = {c.name: c for c in oracle.gate_a2(good, counted=True)}
    assert all(c.ok for c in checks.values() if c.counted)
    assert not checks["A2.abs_skewness"].ok and not checks["A2.abs_skewness"].counted
    bad = json.loads(json.dumps(good))
    bad["report"]["projections"][0]["variance"] = 2.0
    assert not all(c.ok for c in oracle.gate_a2(bad, counted=True) if c.counted)
