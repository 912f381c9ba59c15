import functools
import json
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from statistics import NormalDist

import numpy as np
import pytest

from lrcov import (
    BandwidthRule,
    ConfigError,
    ContractViolationError,
    DgpSpec,
    ExperimentSpec,
    Grid,
    KernelSpecError,
    SeparationError,
    Surface,
    bias_rate_check,
    eigendecompose,
    estimate_lrcov,
    generate,
    ks_distance,
    make_kernel,
    mse_curve,
    plugin_bandwidth,
    predicted_projection_variance,
    replication_rng,
    run_experiment,
    sample_moments,
    truth,
)
from lrcov import io

BARTLETT = make_kernel("bartlett")
SCALAR_IID = DgpSpec(kind="iid", sigmas=(1.0,))
SCALAR_MA1 = DgpSpec(kind="fma", sigmas=(1.0,), theta=(0.5,))


def scalar_experiment(**overrides):
    base = dict(
        dgp=SCALAR_IID,
        kernel=BARTLETT,
        n_obs=200,
        grid=Grid(1),
        h_rule=BandwidthRule("fixed", value=5.0),
        replications=16,
        projections=(Surface(Grid(1), np.ones((1, 1))),),
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_bandwidth_rule_parse_forms():
    assert BandwidthRule.parse(4) == BandwidthRule("fixed", value=4.0)
    assert BandwidthRule.parse("5.5") == BandwidthRule("fixed", value=5.5)
    assert BandwidthRule.parse("fixed:3") == BandwidthRule("fixed", value=3.0)
    rule = BandwidthRule.parse("power:1,0.3333")
    assert rule.kind == "power" and rule.coef == 1.0 and rule.power == 0.3333
    assert BandwidthRule.parse("plugin").pilot_h is None
    assert BandwidthRule.parse("plugin:4").pilot_h == 4.0


def test_bandwidth_rule_parse_errors():
    bad_pilots = ("plugin:", "plugin:0", "plugin:-1", "plugin:nan", "plugin:inf")
    for bad in ("power:1", "banana:2", "fixed:-1", "fixed:zzz", True, None, "power:1,1.5", *bad_pilots):
        with pytest.raises(ConfigError):
            BandwidthRule.parse(bad)


def test_bandwidth_rule_resolve():
    s = generate(SCALAR_IID, 64, Grid(1), replication_rng(0, 0))
    bw, sel = BandwidthRule("fixed", value=7.0).resolve(s, BARTLETT)
    assert bw.h == 7.0 and sel is None
    bw, sel = BandwidthRule("power", coef=2.0, power=0.5).resolve(s, BARTLETT)
    assert bw.h == pytest.approx(16.0) and sel is None
    # resolve has no flat-top check of its own: plugin_bandwidth's |k|^q weights refuse it
    for rule in (BandwidthRule("plugin"), BandwidthRule("plugin", pilot_h=4.0)):
        with pytest.raises(KernelSpecError, match="flat-top admits no power-law bias expansion"):
            rule.resolve(s, make_kernel("flat-top"))


def test_bandwidth_rule_resolve_plugin_diagnostics():
    s = generate(SCALAR_MA1, 2000, Grid(1), replication_rng(7, 0))
    bw, sel = BandwidthRule("plugin", pilot_h=4.0).resolve(s, BARTLETT)
    assert sel is not None
    assert bw.h == sel.bandwidth.h
    assert sel.pilot_h == 4.0
    assert sel.m_trunc == 4


def test_experiment_spec_from_dict_minimal():
    spec = ExperimentSpec.from_dict(
        {
            "dgp": {"kind": "iid", "sigmas": [1.0]},
            "kernel": "bartlett",
            "n_obs": 100,
            "grid_points": 2,
            "h": 4,
            "replications": 10,
        }
    )
    assert spec.kernel.name == "bartlett"
    assert spec.h_rule == BandwidthRule("fixed", value=4.0)
    # the default projection is the unit surface
    assert len(spec.projections) == 1
    assert np.all(spec.projections[0].values == 1.0)


def test_experiment_spec_from_dict_errors():
    good = {
        "dgp": {"kind": "iid", "sigmas": [1.0]},
        "kernel": "bartlett",
        "n_obs": 100,
        "grid_points": 2,
        "h": 4,
        "replications": 10,
    }
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({**good, "mystery": 1})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({k: v for k, v in good.items() if k != "h"})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({**good, "kernel": "gauss"})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({**good, "replications": 1})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict({**good, "eigen_levels": [0]})
    with pytest.raises(ConfigError):
        ExperimentSpec.from_dict(["not", "a", "dict"])


def test_experiment_spec_constructor_validation():
    with pytest.raises(ConfigError):
        scalar_experiment(n_obs=1)
    with pytest.raises(ConfigError):
        scalar_experiment(replications=1)
    with pytest.raises(ConfigError):
        scalar_experiment(workers=0)
    with pytest.raises(ConfigError):
        scalar_experiment(projections=(Surface(Grid(3), np.zeros((3, 3))),))


def test_predicted_projection_variance_zero_surface():
    g = Grid(4)
    zero = Surface(g, np.zeros((4, 4)))
    f = Surface(g, np.ones((4, 4)))
    assert predicted_projection_variance(zero, BARTLETT, f) == 0.0


def test_predicted_projection_variance_scalar():
    g = Grid(1)
    c = Surface(g, np.array([[1.0]]))
    f = Surface(g, np.array([[1.0]]))
    assert predicted_projection_variance(c, BARTLETT, f) == pytest.approx(4.0 / 3.0)


def test_predicted_projection_variance_tensor_oracle():
    # contracting the dense limiting covariance tensor against f must agree
    rng = np.random.default_rng(30)
    g = Grid(8)
    m = rng.normal(size=(8, 8))
    c = Surface(g, m @ m.T)
    f_vals = rng.normal(size=(8, 8))
    f = Surface(g, f_vals + f_vals.T)
    v = c.values
    tensor = BARTLETT.square_integral * (
        np.einsum("ts,uv->tsuv", v, v) + np.einsum("tu,sv->tsuv", v, v)
    )
    direct = float(np.einsum("ts,tsuv,uv->", f.values, tensor, f.values)) / 8**4
    fast = predicted_projection_variance(c, BARTLETT, f)
    assert fast == pytest.approx(direct, rel=1e-10)


def test_predicted_projection_variance_grid_mismatch():
    c = Surface(Grid(2), np.eye(2))
    f = Surface(Grid(3), np.zeros((3, 3)))
    with pytest.raises(ContractViolationError):
        predicted_projection_variance(c, BARTLETT, f)


def test_sample_moments_small_example():
    mean, var, skew, kurt = sample_moments(np.array([1.0, 2.0, 3.0, 4.0]))
    assert mean == pytest.approx(2.5)
    assert var == pytest.approx(5.0 / 3.0)
    assert skew == pytest.approx(0.0, abs=1e-14)
    assert kurt == pytest.approx(2.5625 / 1.5625 - 3.0)


def test_sample_moments_refusals():
    with pytest.raises(ContractViolationError):
        sample_moments(np.array([1.0]))
    with pytest.raises(ContractViolationError):
        sample_moments(np.full(10, 3.0))


def test_ks_distance_quantile_grid():
    # points placed exactly at the 1%..99% quantiles: distance is 1/100
    q = np.array([NormalDist().inv_cdf(p) for p in np.arange(1, 100) / 100.0])
    d = ks_distance(q, loc=0.0, scale=1.0)
    assert d == pytest.approx(0.01, abs=1e-7)
    assert d <= 0.02


def test_ks_distance_detects_uniform():
    # a perfectly uniform sample is far from any fitted normal law
    x = (np.arange(1, 1001) - 0.5) / 1000.0
    assert ks_distance(x) >= 0.05


def test_ks_distance_refusals():
    with pytest.raises(ContractViolationError):
        ks_distance(np.arange(5.0))
    with pytest.raises(ContractViolationError):
        ks_distance(np.full(20, 1.0))


def test_run_experiment_smoke():
    report = run_experiment(scalar_experiment())
    assert report.replications == 16
    assert report.h_mean == report.h_min == report.h_max == 5.0
    assert len(report.projection_stats) == 1
    p = report.projection_stats[0]
    for v in (p.mean, p.variance, p.skewness, p.ex_kurtosis, p.ks_distance):
        assert math.isfinite(v)
    assert p.predicted_variance == pytest.approx(4.0 / 3.0)
    assert report.projection_samples.shape == (16, 1)
    json.dumps(report.to_dict())  # report must serialize as-is


def test_run_experiment_eigen_stats():
    spec = scalar_experiment(
        dgp=DgpSpec(kind="iid", sigmas=(2.0, 1.0)),
        grid=Grid(8),
        projections=(),
        eigen_levels=(1, 2),
        replications=12,
        drift=0.0,
    )
    report = run_experiment(spec)
    assert len(report.eigen_stats) == 2
    first = report.eigen_stats[0]
    assert first.level == 1
    assert first.predicted_sd == pytest.approx(4.0 * math.sqrt(4.0 / 3.0))
    assert first.predicted_mean_shift == 0.0  # drift pinned to zero
    assert report.eigen_error_correlation.shape == (2, 2)
    assert report.eigen_error_correlation[0, 0] == pytest.approx(1.0)
    assert report.eigen_error_samples.shape == (12, 2)


def test_run_experiment_single_level_has_no_correlation():
    spec = scalar_experiment(projections=(), eigen_levels=(1,), replications=8)
    report = run_experiment(spec)
    assert report.eigen_error_correlation is None
    assert len(report.eigen_stats) == 1


def canonical(report):
    """The report's JSON less its timing and worker count, then the raw samples' bytes."""
    d = report.to_dict()
    del d["runtime_seconds"]
    del d["workers"]
    samples = (report.projection_samples, report.eigen_error_samples)
    return json.dumps(d, sort_keys=True), *(a.tobytes() for a in samples)


def test_run_experiment_worker_determinism():
    spec1 = scalar_experiment(replications=9, eigen_levels=(1,))
    base = canonical(run_experiment(spec1))
    for workers in (2, 5):
        spec = scalar_experiment(replications=9, eigen_levels=(1,), workers=workers)
        assert canonical(run_experiment(spec)) == base


def test_run_experiment_uneven_chunks_go_back_by_stride(monkeypatch):
    # R = 9 over 4 workers: chunks of 3, 2, 2 and 2 replications.  With a
    # plug-in h each row's scale depends on its own sample, so a misplaced
    # eigenvalue or eigenfunction row changes the report.
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    spec = functools.partial(
        scalar_experiment,
        dgp=DgpSpec(kind="fma", sigmas=(2.0, 1.0), theta=(0.5,)),
        grid=Grid(4),
        h_rule=BandwidthRule("plugin", pilot_h=3.0),
        projections=(Surface(Grid(4), np.ones((4, 4))),),
        eigen_levels=(1, 2),
        replications=9,
    )
    pooled = run_experiment(spec(workers=4))
    assert pooled.workers == 4
    assert canonical(pooled) == canonical(run_experiment(spec()))
    s = spec()
    t = truth(s.dgp, s.grid, s.kernel)
    for r in range(s.replications):
        sample = generate(s.dgp, s.n_obs, s.grid, replication_rng(s.master_seed, r))
        h = plugin_bandwidth(sample, s.kernel, 3.0).bandwidth.h
        lams = eigendecompose(estimate_lrcov(sample, s.kernel, h).surface).eigenvalues
        want = math.sqrt(s.n_obs / h) * (lams[:2] - t.eigen.eigenvalues[:2])
        assert pooled.eigen_error_samples[r].tobytes() == want.tobytes()


def test_run_experiment_identical_under_fork_and_spawn(monkeypatch):
    # Python 3.14 moves the default start method on Linux from fork to forkserver
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    spec = ExperimentSpec(
        dgp=DgpSpec(kind="fma", sigmas=(1.0, 0.5), theta=(0.5,)),
        kernel=BARTLETT,
        n_obs=120,
        grid=Grid(4),
        h_rule=BandwidthRule.parse("plugin"),
        replications=10,
        projections=(Surface(Grid(4), np.ones((4, 4))),),
        eigen_levels=(1, 2),
        master_seed=5,
        workers=2,
    )
    runs = {}
    for method in ("fork", "spawn"):
        pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
        monkeypatch.setattr("lrcov.mc.ProcessPoolExecutor", pool)
        report = run_experiment(spec)
        assert report.workers == 2
        d = report.to_dict()
        del d["runtime_seconds"]
        runs[method] = (
            json.dumps(d, sort_keys=True),
            report.projection_samples.tobytes(),
            report.eigen_error_samples.tobytes(),
        )
    assert runs["fork"] == runs["spawn"]


def test_run_experiment_refuses_tied_levels_before_replicating(monkeypatch):
    def refuse(*args):
        raise AssertionError("a replication ran before the eigen levels were checked")

    monkeypatch.setattr("lrcov.mc._replicate_range", refuse)
    tied = DgpSpec(kind="iid", sigmas=(1.0, 1.0))
    spec = scalar_experiment(dgp=tied, grid=Grid(4), projections=(), eigen_levels=(1,))
    with pytest.raises(SeparationError):
        run_experiment(spec)


def test_run_experiment_worker_env_cap(monkeypatch):
    monkeypatch.setenv("LRCOV_THREADS", "1")
    report = run_experiment(scalar_experiment(replications=8, workers=8))
    assert report.workers == 1
    monkeypatch.setenv("LRCOV_THREADS", "soup")
    with pytest.raises(ConfigError):
        run_experiment(scalar_experiment(replications=8, workers=8))


def test_run_experiment_variance_matches_truth_centering_fixed_h():
    # with a fixed bandwidth the scaling is a constant, so centering at the
    # Monte Carlo mean instead of the truth cannot change the variance
    spec = scalar_experiment(replications=64, n_obs=400, master_seed=9)
    report = run_experiment(spec)
    t = truth(spec.dgp, spec.grid, spec.kernel)
    draws = []
    for r in range(spec.replications):
        s = generate(spec.dgp, spec.n_obs, spec.grid, replication_rng(9, r))
        est = estimate_lrcov(s, spec.kernel, 5.0)
        proj = float(np.sum(est.surface.values * spec.projections[0].values))
        truth_proj = float(np.sum(t.c.values * spec.projections[0].values))
        draws.append(math.sqrt(spec.n_obs / 5.0) * (proj - truth_proj))
    manual_var = float(np.var(draws, ddof=1))
    assert report.projection_stats[0].variance == pytest.approx(manual_var, rel=1e-10)


def test_run_experiment_centering_with_data_driven_bandwidth():
    # when h varies per replication the scaling varies too, so the choice of
    # center matters: the report must match an independent reimplementation of
    # mean-centering exactly, and truth-centering must come out LARGER here,
    # because the estimator's real bias rides the random scale and inflates it
    spec = scalar_experiment(
        dgp=SCALAR_MA1,
        n_obs=500,
        h_rule=BandwidthRule("plugin", pilot_h=4.0),
        replications=300,
        master_seed=13,
    )
    report = run_experiment(spec)
    t = truth(spec.dgp, spec.grid, spec.kernel)
    truth_proj = float(np.sum(t.c.values * spec.projections[0].values))
    projs, scales = [], []
    for r in range(spec.replications):
        s = generate(spec.dgp, spec.n_obs, spec.grid, replication_rng(13, r))
        sel = plugin_bandwidth(s, spec.kernel, 4.0)
        est = estimate_lrcov(s, spec.kernel, sel.bandwidth)
        projs.append(float(np.sum(est.surface.values * spec.projections[0].values)))
        scales.append(math.sqrt(spec.n_obs / sel.bandwidth.h))
    projs = np.array(projs)
    scales = np.array(scales)
    mean_centered_var = float(np.var((projs - projs.mean()) * scales, ddof=1))
    truth_centered_var = float(np.var((projs - truth_proj) * scales, ddof=1))
    assert report.projection_stats[0].variance == pytest.approx(mean_centered_var, rel=1e-10)
    assert truth_centered_var > 1.1 * mean_centered_var


def test_bias_rate_check_refusals():
    with pytest.raises(ContractViolationError):
        bias_rate_check(SCALAR_MA1, BARTLETT, 500, [4.0, 8.0], 10, Grid(1))
    with pytest.raises(ContractViolationError):
        bias_rate_check(SCALAR_MA1, BARTLETT, 500, [0.0, 4.0, 8.0], 10, Grid(1))
    with pytest.raises(ContractViolationError):
        bias_rate_check(SCALAR_MA1, BARTLETT, 500, [2.0, 4.0, 8.0], 1, Grid(1))
    with pytest.raises(KernelSpecError):
        bias_rate_check(SCALAR_MA1, make_kernel("flat-top"), 500, [2.0, 4.0, 8.0], 10, Grid(1))


def test_bias_rate_check_iid_reports_no_bias():
    report = bias_rate_check(SCALAR_IID, BARTLETT, 500, [4.0, 8.0, 16.0], 200, Grid(1), 3)
    assert report.no_bias_detected
    assert not any(p.signal for p in report.points)


def test_bias_rate_check_ma1_slope():
    report = bias_rate_check(SCALAR_MA1, BARTLETT, 2000, [4.0, 8.0, 16.0], 200, Grid(1), 5)
    assert not report.no_bias_detected
    assert report.points[0].signal  # strongest bias at the smallest bandwidth
    assert report.sign_agreement
    assert report.slope == pytest.approx(-1.0, abs=0.4)
    assert 0.3 <= report.constant_ratio <= 3.0
    assert [p.h for p in report.points] == [4.0, 8.0, 16.0]
    json.dumps(report.to_dict())


def test_mse_curve_iid_increases_with_h():
    curve = mse_curve(SCALAR_IID, BARTLETT, 300, [2.0, 8.0, 32.0], 100, Grid(1), 11)
    assert [h for h, _ in curve] == [2.0, 8.0, 32.0]
    values = [v for _, v in curve]
    assert all(v > 0 for v in values)
    assert values[0] < values[1] < values[2]


def test_mse_curve_ma1_is_u_shaped():
    hs = [1.0, 6.0, 60.0]
    curve = mse_curve(SCALAR_MA1, BARTLETT, 1000, hs, 100, Grid(1), 12)
    values = [v for _, v in curve]
    assert values[1] < values[0]  # too-small h pays bias
    assert values[1] < values[2]  # too-large h pays variance


def hand_written_report_dicts(report, bias):
    """The serialization both reports carried as explicit field lists."""
    mc = {
        "replications": int(report.replications),
        "workers": int(report.workers),
        "runtime_seconds": float(report.runtime_seconds),
        "h": {"mean": float(report.h_mean), "min": float(report.h_min), "max": float(report.h_max)},
        "projections": [
            {
                "index": int(p.index),
                "mean": float(p.mean),
                "variance": float(p.variance),
                "skewness": float(p.skewness),
                "ex_kurtosis": float(p.ex_kurtosis),
                "ks_distance": float(p.ks_distance),
                "predicted_variance": float(p.predicted_variance),
            }
            for p in report.projection_stats
        ],
        "eigen_levels": [
            {
                "level": int(e.level),
                "error_mean": float(e.error_mean),
                "error_sd": float(e.error_sd),
                "predicted_sd": float(e.predicted_sd),
                "predicted_mean_shift": float(e.predicted_mean_shift),
                "deviation_mean": float(e.deviation_mean),
                "predicted_deviation": float(e.predicted_deviation),
                "deviation_tail_bound": float(e.deviation_tail_bound),
            }
            for e in report.eigen_stats
        ],
        "eigen_error_correlation": [[float(v) for v in row] for row in report.eigen_error_correlation],
    }
    bias_dict = {
        "points": [
            {
                "h": float(p.h),
                "err_raw": float(p.err_raw),
                "err_debiased": float(p.err_debiased),
                "noise_sd": float(p.noise_sd),
                "signal": bool(p.signal),
            }
            for p in bias.points
        ],
        "slope": float(bias.slope),
        "slope_unweighted": float(bias.slope_unweighted),
        "constant_ratio": float(bias.constant_ratio),
        "sign_agreement": bool(bias.sign_agreement),
        "no_bias_detected": bool(bias.no_bias_detected),
    }
    return mc, bias_dict


def test_report_json_is_byte_identical_to_hand_written_fields(tmp_path):
    ma1 = DgpSpec(kind="fma", sigmas=(2.0, 1.0), theta=(0.5,))
    g8 = Grid(8)
    spec = scalar_experiment(
        dgp=ma1, grid=g8, projections=(Surface(g8, np.ones((8, 8))),), eigen_levels=(1, 2),
        replications=12,
    )
    report = run_experiment(spec)
    bias = bias_rate_check(ma1, BARTLETT, 400, [2.0, 4.0, 8.0], 12, Grid(8), 7)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    io.write_json(str(got), {"report": report.to_dict(), "bias_check": bias.to_dict()})
    mc, bias_dict = hand_written_report_dicts(report, bias)
    io.write_json(str(want), {"report": mc, "bias_check": bias_dict})
    assert got.read_bytes() == want.read_bytes()
    # plain json can write both as they are: no numpy scalars, no raw samples
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(mc, sort_keys=True)
    assert json.dumps(bias.to_dict(), sort_keys=True) == json.dumps(bias_dict, sort_keys=True)
