"""Acceptance gate: seven end-to-end criteria, one printed verdict line each.

Each test prints an `A<k> PASS/FAIL` line with the measured numbers before
asserting, so a full run leaves a readable scorecard in the terminal even
under pytest's output capture.

Monte Carlo criteria run at fixed master seeds (chosen once, recorded in the
repository notes) so the gate is deterministic; the statistical margins at
those seeds are printed for inspection.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from lrcov import (
    BandwidthRule,
    CurveSample,
    DgpSpec,
    ExperimentSpec,
    Grid,
    Surface,
    amse,
    bias_rate_check,
    eigendecompose,
    estimate_lrcov,
    estimate_lrcov_naive,
    estimate_spectral_density,
    l2_norm_surface,
    make_kernel,
    mse_curve,
    optimal_bandwidth,
    project_psd,
    run_experiment,
    truth,
)
from lrcov.cli import main as cli_main

BARTLETT = make_kernel("bartlett")
MA1_SCALAR = DgpSpec(kind="fma", sigmas=(1.0,), theta=(0.5,))
CUBE_ROOT_RULE = "power:1,0.3333333333333333"


def scalar_spec(kernel, n_obs, master_seed):
    """The scalar MA(1) experiment the bias-rate and MSE-curve checks draw from."""
    return ExperimentSpec(
        dgp=MA1_SCALAR,
        kernel=kernel,
        n_obs=n_obs,
        grid=Grid(1),
        h_rule=BandwidthRule("fixed", value=1.0),
        replications=2,
        master_seed=master_seed,
    )


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\n{name} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def eigen_mc_report():
    # shared by A4 and A5: sigma^2 spectrum (3, 2, 1) through a first-order
    # moving average, so the long-run eigenvalues are (6.75, 4.5, 2.25)
    spec = ExperimentSpec(
        dgp=DgpSpec(
            kind="fma",
            sigmas=(math.sqrt(3.0), math.sqrt(2.0), 1.0),
            theta=(0.5,),
        ),
        kernel=BARTLETT,
        n_obs=2000,
        grid=Grid(16),
        h_rule=BandwidthRule.parse(CUBE_ROOT_RULE),
        replications=1000,
        eigen_levels=(1, 2),
        master_seed=17,
        workers=8,
    )
    return run_experiment(spec)


def test_a1_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(314)
    kernels = [make_kernel(n) for n in ("bartlett", "parzen", "tukey-hanning", "flat-top")]
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny-N draws trip the h-rate warning
        for _ in range(50):
            n = int(rng.integers(4, 41))
            g = int(rng.integers(1, 9))
            h = float(rng.uniform(0.5, 10.0))
            unbiased = bool(rng.integers(0, 2))
            s = CurveSample(Grid(g), rng.normal(size=(n, g)))
            kernel = kernels[int(rng.integers(0, len(kernels)))]
            fast = estimate_lrcov(s, kernel, h, unbiased=unbiased)
            slow = estimate_lrcov_naive(s, kernel, h, unbiased=unbiased)
            worst = max(worst, float(np.max(np.abs(fast.surface.values - slow.surface.values))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report(capsys, "A1", ok, f"max |fast - naive| = {worst:.2e} over 50 instances in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_a2_projection_clt_via_cli(tmp_path, capsys):
    t0 = time.perf_counter()
    cfg = {
        "experiment": {
            "dgp": {"kind": "iid", "sigmas": [1.0]},
            "kernel": "bartlett",
            "n_obs": 2000,
            "grid_points": 1,
            "h": CUBE_ROOT_RULE,
            "replications": 1000,
            "projections": ["ones"],
            "master_seed": 5,
            "workers": 8,
        }
    }
    cfg_path = tmp_path / "a2.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    rc = cli_main(["mc-verify", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    stats = doc["report"]["projections"][0]
    target = 4.0 / 3.0
    elapsed = time.perf_counter() - t0
    checks = {
        "variance": abs(stats["variance"] / target - 1.0) <= 0.20,
        "skewness": abs(stats["skewness"]) <= 0.15,
        "kurtosis": abs(stats["ex_kurtosis"]) <= 0.35,
        "ks": stats["ks_distance"] <= 0.04,
        "runtime": elapsed < 180.0,
    }
    ok = all(checks.values())
    report(
        capsys,
        "A2",
        ok,
        f"var={stats['variance']:.4f} (target {target:.4f} within 20%), "
        f"skew={stats['skewness']:+.4f} (<=0.15), exkurt={stats['ex_kurtosis']:+.4f} (<=0.35), "
        f"KS={stats['ks_distance']:.4f} (<=0.04), {elapsed:.0f}s",
    )
    assert ok, checks
    assert stats["predicted_variance"] == pytest.approx(target, rel=1e-12)


def test_a3_bias_rate_slopes(capsys):
    t0 = time.perf_counter()
    results = {}
    for kname, lo, hi in (("bartlett", -1.25, -0.75), ("parzen", -2.5, -1.5)):
        rep = bias_rate_check(scalar_spec(make_kernel(kname), 4000, 1), [4.0, 8.0, 16.0, 32.0], 400)
        results[kname] = (rep.slope, lo, hi, rep)
    elapsed = time.perf_counter() - t0
    ok = all(lo <= slope <= hi for slope, lo, hi, _ in results.values()) and elapsed < 600.0
    detail = ", ".join(
        f"{k}: slope={s:+.3f} in [{lo}, {hi}]" for k, (s, lo, hi, _) in results.items()
    )
    report(capsys, "A3", ok, f"{detail}, {elapsed:.0f}s")
    for kname, (slope, lo, hi, rep) in results.items():
        assert lo <= slope <= hi, f"{kname} slope {slope}"
        assert not rep.no_bias_detected
        assert rep.sign_agreement
    assert elapsed < 600.0


def test_a4_eigenvalue_clt(eigen_mc_report, capsys):
    r = eigen_mc_report
    e1 = r.eigen_stats[0]
    lam1 = 2.25 * 3.0
    predicted = lam1 * math.sqrt(2.0 * BARTLETT.square_integral)
    rho = abs(float(r.eigen_error_correlation[0, 1]))
    sd_ratio = e1.error_sd / predicted
    checks = {
        "sd": abs(sd_ratio - 1.0) <= 0.20,
        "correlation": rho <= 0.12,
        "runtime": r.runtime_seconds < 300.0,
    }
    ok = all(checks.values())
    report(
        capsys,
        "A4",
        ok,
        f"sd={e1.error_sd:.3f} vs {predicted:.3f} (ratio {sd_ratio:.3f}, within 20%), "
        f"|rho12|={rho:.3f} (<=0.12), {r.runtime_seconds:.0f}s",
    )
    assert e1.predicted_sd == pytest.approx(predicted, rel=1e-9)
    assert ok, checks


def test_a5_eigenfunction_deviation(eigen_mc_report, capsys):
    r = eigen_mc_report
    e1 = r.eigen_stats[0]
    ratio = e1.deviation_mean / e1.predicted_deviation
    ok = abs(ratio - 1.0) <= 0.25
    report(
        capsys,
        "A5",
        ok,
        f"mean scaled deviation={e1.deviation_mean:.3f} vs predicted "
        f"{e1.predicted_deviation:.3f} (ratio {ratio:.3f}, within 25%)",
    )
    assert e1.predicted_deviation == pytest.approx(4.5, rel=1e-9)
    assert e1.deviation_tail_bound == 0.0  # three-component truth: no remainder
    assert ok


def test_a6_bandwidth_optimality(capsys):
    t0 = time.perf_counter()
    t = truth(MA1_SCALAR, Grid(1), BARTLETT)
    sel = optimal_bandwidth(t.c, t.bias, BARTLETT, 1000)
    h_opt = sel.bandwidth.h
    hs = [float(h) for h in range(1, 41)]
    amse_vals = [amse(t.c, t.bias, BARTLETT, h, 1000) for h in hs]
    argmin_h = hs[int(np.argmin(amse_vals))]
    step_ok = abs(argmin_h - h_opt) <= 1.0

    curve = mse_curve(scalar_spec(BARTLETT, 1000, 1), hs + [h_opt], 300)
    grid_min = min(v for _, v in curve[:-1])
    at_opt = curve[-1][1]
    mc_ratio = at_opt / grid_min
    mc_ok = abs(mc_ratio - 1.0) <= 0.25
    elapsed = time.perf_counter() - t0
    ok = step_ok and mc_ok
    report(
        capsys,
        "A6",
        ok,
        f"h_opt={h_opt:.4f}, AMSE grid argmin={argmin_h:.0f} (within one step), "
        f"MC mse(h_opt)/min={mc_ratio:.4f} (within 25%), {elapsed:.0f}s",
    )
    assert h_opt == pytest.approx(2.0 / 3.0 * 10.0, rel=1e-9)
    assert not sel.fallback
    assert step_ok
    assert mc_ok


def test_a7_invariant_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)

    # estimates are exactly transpose-symmetric
    for _ in range(20):
        n = int(rng.integers(5, 41))
        g = int(rng.integers(1, 9))
        s = CurveSample(Grid(g), rng.normal(size=(n, g)))
        est = estimate_lrcov(s, BARTLETT, float(rng.uniform(1.0, 8.0)))
        assert np.array_equal(est.surface.values, est.surface.values.T)

    # PSD projection: distance equals the clipped-eigenvalue norm and the
    # output operator has no eigenvalue below round-off
    for _ in range(10):
        g = int(rng.integers(2, 13))
        m = rng.normal(size=(g, g))
        sym = m + m.T
        base = estimate_lrcov(CurveSample(Grid(g), rng.normal(size=(8, g))), BARTLETT, 2.0)
        est = type(base)(
            surface=Surface(Grid(g), sym), kernel=base.kernel, bandwidth=base.bandwidth, n_obs=8
        )
        out = project_psd(est)
        clipped = np.linalg.eigvalsh(sym / g)
        clipped = clipped[clipped < 0]
        dist = l2_norm_surface(Surface(Grid(g), out.surface.values - sym))
        assert dist == pytest.approx(math.sqrt(float(np.sum(clipped**2))), abs=1e-8)
        assert np.min(np.linalg.eigvalsh(out.surface.values / g)) >= -1e-12

    # zero-frequency spectral density is the long-run surface over 2*pi
    for _ in range(10):
        n = int(rng.integers(10, 60))
        g = int(rng.integers(1, 7))
        s = CurveSample(Grid(g), rng.normal(size=(n, g)))
        h = float(rng.uniform(1.0, 6.0))
        est = estimate_lrcov(s, BARTLETT, h)
        f0 = estimate_spectral_density(s, BARTLETT, h, 0.0)
        assert np.max(np.abs(2.0 * math.pi * f0.real_part.values - est.surface.values)) <= 1e-10
        assert np.max(np.abs(f0.imag_part.values)) <= 1e-10

    # eigenfunctions come back orthonormal
    for _ in range(10):
        g = int(rng.integers(2, 17))
        m = rng.normal(size=(g, g))
        funcs = eigendecompose(Surface(Grid(g), m + m.T)).eigenfunctions
        assert funcs.shape == (g, g)
        assert np.max(np.abs(funcs @ funcs.T / g - np.eye(g))) <= 1e-8

    # reports are bit-identical no matter how many workers share the work
    def canonical(rep):
        d = rep.to_dict()
        del d["runtime_seconds"]
        del d["workers"]
        return json.dumps(d, sort_keys=True)

    digests = set()
    for workers in (1, 2, 4):
        spec = ExperimentSpec(
            dgp=MA1_SCALAR,
            kernel=BARTLETT,
            n_obs=150,
            grid=Grid(2),
            h_rule=BandwidthRule.parse("plugin:3"),
            replications=11,
            projections=(Surface(Grid(2), np.ones((2, 2))),),
            eigen_levels=(1,),
            master_seed=99,
            workers=workers,
        )
        digests.add(canonical(run_experiment(spec)))
    assert len(digests) == 1

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    report(
        capsys,
        "A7",
        ok,
        "symmetry, PSD clipping identity, zero-frequency consistency, "
        f"orthonormality, worker determinism all hold, {elapsed:.0f}s",
    )
    assert ok
