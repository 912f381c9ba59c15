import functools
import json
import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import kstest

from lrcov import (
    BandwidthRule,
    ConfigError,
    ContractViolationError,
    DgpSpec,
    DimensionError,
    ExperimentSpec,
    Grid,
    SeparationError,
    Surface,
    bias_rate_check,
    eigendecompose,
    estimate_lrcov,
    generate,
    kernel_value,
    ks_distance,
    lag_products,
    make_kernel,
    mse_curve,
    optimal_bandwidth,
    plugin_bandwidth,
    predicted_projection_variance,
    replication_rng,
    run_experiment,
    sample_moments,
    truth,
)
from lrcov import io, mc
from lrcov.estimator import (
    _lag_weights, _plugin_choices, _takes_fft, _window_sums, _window_surfaces,
)
from lrcov.fpca import _eigen_stack
from lrcov.grid import fourier_basis
from lrcov.mc import _pooled
from lrcov.simulate import _scores

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
        with pytest.raises(ContractViolationError, match="flat-top admits no power-law bias expansion"):
            rule.resolve(s, make_kernel("flat-top"))


def test_m_trunc_at_n_obs_is_refused_before_the_truth(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the truth was built before m_trunc was checked against N")

    monkeypatch.setattr("lrcov.mc.truth", refuse)
    with pytest.raises(ConfigError, match="m_trunc = 200 must be below N = 200"):
        scalar_experiment(h_rule=BandwidthRule("plugin", m_trunc=200))


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
    # contracting the dense limiting covariance tensor against f must agree: the
    # errors at (t, s) and (u, v) covary as int K^2 (C(t,u)C(s,v) + C(t,v)C(s,u))
    rng = np.random.default_rng(30)
    g = Grid(8)
    m = rng.normal(size=(8, 8))
    c = Surface(g, m @ m.T)
    v = c.values
    tensor = BARTLETT.square_integral * (
        np.einsum("tu,sv->tsuv", v, v) + np.einsum("tv,su->tsuv", v, v)
    )
    f_vals = rng.normal(size=(8, 8))
    for f in (Surface(g, f_vals + f_vals.T), Surface(g, f_vals)):  # symmetric, then not
        direct = float(np.einsum("ts,tsuv,uv->", f.values, tensor, f.values)) / 8**4
        fast = predicted_projection_variance(c, BARTLETT, f)
        assert fast == pytest.approx(direct, rel=1e-10)


def test_predicted_projection_variance_past_a_double_sum_or_refused():
    # C f C has entries 16 * 1e308 against f = 1; the limit int K^2 * 2 * 1e308 is a double
    g, ones = Grid(4), np.ones((4, 4))
    limit = predicted_projection_variance(Surface(g, 1e154 * ones), BARTLETT, Surface(g, ones))
    assert limit == pytest.approx(4.0 / 3.0 * 1e308, rel=1e-12)
    with pytest.raises(DimensionError, match="predicted projection variance overflows a double"):
        predicted_projection_variance(Surface(g, 1e200 * ones), BARTLETT, Surface(g, ones))


def test_predicted_projection_variance_matches_monte_carlo_off_rank_one(monkeypatch):
    # f = I and f = cos 2pi(s - t) are not a (x) a, so the pairing matters here:
    # C(t,s)C(t',s') + C(t,t')C(s,s') would predict 0.0577 and 0.257
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    g = Grid(8)
    t = g.points
    cos = Surface(g, np.cos(2.0 * np.pi * (t[None, :] - t[:, None])))
    spec = ExperimentSpec(
        dgp=DgpSpec(kind="iid", sigmas=(1.0, 0.8, 0.6)),
        kernel=BARTLETT,
        n_obs=2000,
        grid=g,
        h_rule=BandwidthRule.parse("power:1,0.3333333333333333"),
        replications=2000,
        projections=(Surface(g, np.eye(8)), cos),
        master_seed=3,
        workers=2,
    )
    for p in run_experiment(spec).projection_stats:
        assert p.variance / p.predicted_variance == pytest.approx(1.0, abs=0.10)


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


def test_sample_moments_standardize_before_powering():
    x = np.array([1e100, -1e100, 3e100, 0.0, 2e100])
    mean, var, skew, kurt = sample_moments(x)
    want = sample_moments(x / 1e100)
    assert (mean / 1e100, var / 1e200) == pytest.approx(want[:2], rel=1e-15)
    assert (skew, kurt) == pytest.approx(want[2:], rel=1e-14)
    with pytest.raises(ContractViolationError, match="overflows"):
        sample_moments(np.array([1e200, -1e200, 0.0]))


def test_sample_moments_refusals():
    with pytest.raises(ContractViolationError):
        sample_moments(np.array([1.0]))
    for constant in (np.full(10, 3.0), np.full(3, 0.1)):  # 0.1's mean does not round to 0.1
        with pytest.raises(ContractViolationError, match="zero variance"):
            sample_moments(constant)
    with pytest.raises(ContractViolationError, match="variance underflows a double"):
        sample_moments(np.array([1e-170, 2e-170, 3e-170]))


def test_ks_distance_quantile_grid():
    # points placed exactly at the 1%..99% quantiles sit close to their fitted law
    q = np.array([NormalDist().inv_cdf(p) for p in np.arange(1, 100) / 100.0])
    d = ks_distance(q)
    want = kstest(q, "norm", args=(float(np.mean(q)), float(np.std(q, ddof=1)))).statistic
    assert abs(d - want) <= 1e-12
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
    assert report.h_clamped == report.h_fallback == 0  # fixed h: no plug-in ran
    assert report.projection_samples.shape == (16, 1)
    json.dumps(report.to_dict())  # report must serialize as-is


def test_run_experiment_eigen_stats():
    spec = scalar_experiment(
        dgp=DgpSpec(kind="iid", sigmas=(2.0, 1.0)),
        grid=Grid(8),
        projections=(),
        eigen_levels=(1, 2),
        replications=12,
    )
    report = run_experiment(spec)
    assert len(report.eigen_stats) == 2
    first = report.eigen_stats[0]
    assert first.level == 1
    assert first.predicted_sd == pytest.approx(4.0 * math.sqrt(4.0 / 3.0))
    assert first.predicted_mean_shift == 0.0  # iid: the bias surface is zero
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


def test_run_experiment_uneven_blocks_go_back_in_order(monkeypatch):
    # R = 13 over 3 workers: six blocks of 2 replications and one of 1.  With a
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
        replications=13,
    )
    pooled = run_experiment(spec(workers=3))
    assert pooled.workers == 3
    assert canonical(pooled) == canonical(run_experiment(spec()))
    s = spec()
    t = truth(s.dgp, s.grid, s.kernel)
    phi = fourier_basis(s.grid, 2)
    for r in range(s.replications):
        # the oracle: one replication at a time, a stack of one in score coordinates
        scores = oracle_scores(s, r)
        h = next(_plugin_choices(scores, s.kernel, 3.0, None, phi)).bandwidth.h
        weights = _lag_weights(s.kernel, [h], s.n_obs, False)
        surface = _window_surfaces(scores, weights, phi)[0, 0]
        lams = eigendecompose(Surface(s.grid, surface)).eigenvalues
        want = math.sqrt(s.n_obs / h) * (lams[:2] - t.eigen.eigenvalues[:2])
        assert pooled.eigen_error_samples[r].tobytes() == want.tobytes()
        # and the library's grid-space path, to rounding
        sample = generate(s.dgp, s.n_obs, s.grid, replication_rng(s.master_seed, r))
        h = plugin_bandwidth(sample, s.kernel, 3.0).bandwidth.h
        lams = eigendecompose(estimate_lrcov(sample, s.kernel, h).surface).eigenvalues
        want = math.sqrt(s.n_obs / h) * (lams[:2] - t.eigen.eigenvalues[:2])
        tol = 1e-10 * math.sqrt(s.n_obs / h) * lams[0]
        np.testing.assert_allclose(pooled.eigen_error_samples[r], want, rtol=0, atol=tol)


def test_plugin_clamp_and_fallback_counts_survive_aggregation(monkeypatch):
    # pilot 8 on N = 20 clamps some replications' h to N/2; m_trunc = 0 leaves
    # no bias lag, so every replication falls back to the rate-only rule
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    for m_trunc, want in ((3, (4, 0)), (0, (0, 20))):
        spec = scalar_experiment(
            dgp=DgpSpec(kind="iid", sigmas=(1.0, 0.5)), n_obs=20, grid=Grid(3), projections=(),
            h_rule=BandwidthRule("plugin", pilot_h=8.0, m_trunc=m_trunc), replications=20,
            master_seed=4,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the fallback warns that it used the rate alone
            samples = [generate(spec.dgp, 20, spec.grid, replication_rng(4, r)) for r in range(20)]
            sels = [spec.h_rule.resolve(sample, BARTLETT)[1] for sample in samples]
            reports = [run_experiment(replace(spec, workers=w)).to_dict()["h"] for w in (1, 2, 3)]
        assert (sum(s.clamped for s in sels), sum(s.fallback for s in sels)) == want
        assert [(h["clamped"], h["fallback"]) for h in reports] == [want] * 3
        assert reports[0] == reports[1] == reports[2]


def block_of(job, reps):
    return job, reps


def test_pooled_blocks_come_back_in_replication_order():
    # a block is ceil(R / (4 workers)) replications long, at most the larger of 64
    # replications and 2**20 doubles of results
    assert list(_pooled(block_of, "job", 10, 2, 1)) == [
        ("job", range(0, 2)), ("job", range(2, 4)), ("job", range(4, 6)), ("job", range(6, 8)),
        ("job", range(8, 10)),
    ]
    for workers, row_doubles, size in ((1, 1, 75), (2, 1, 38), (1, 2**16, 64), (3, 2**14, 25)):
        blocks = [reps for _, reps in _pooled(block_of, None, 300, workers, row_doubles)]
        assert blocks == [range(a, min(a + size, 300)) for a in range(0, 300, size)]
    assert mc._block_size(6000, 2, 1) == 750  # the scalar A2 config: eight blocks
    assert mc._block_size(6000, 2, 256) == 750  # 750 G = 16 surfaces: 1.5 MB
    assert mc._block_size(6000, 2, 64**2) == 256  # 8 MB of G = 64 surfaces
    assert mc._block_size(6000, 2, 128**2) == 64  # 64 replications, as many as before


def serial_window_estimates(spec, weights, replications, centered):
    """Each replication's h-grid estimates from one serial loop in this process (the oracle).

    It works on stacks of one in score coordinates, as the pool does, and checks
    each estimate against the same window sums of the sample on the grid.
    """
    phi = fourier_basis(spec.grid, len(spec.dgp.sigmas))
    for r in range(replications):
        a = phi.T @ _window_sums(oracle_scores(spec, r, centered), weights)[0] @ phi
        est = a + a.transpose(0, 2, 1)
        y = generate(spec.dgp, spec.n_obs, spec.grid, replication_rng(spec.master_seed, r)).values
        a = _window_sums(y - y.mean(axis=0) if centered else y, weights)
        want = a + a.transpose(0, 2, 1)
        np.testing.assert_allclose(est, want, rtol=0, atol=1e-10 * np.max(np.abs(want)))
        yield est


def test_h_grid_checks_match_a_serial_loop_at_any_worker_count(monkeypatch):
    # 150 replications: blocks of 38 at one worker, 19 at two and 10 at four
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    spec = scalar_experiment(
        dgp=DgpSpec(kind="fma", sigmas=(1.0, 0.5), theta=(0.5,)),
        n_obs=40,
        grid=Grid(3),
        projections=(),
        master_seed=19,
    )
    hs, reps, g = [2.0, 4.0, 8.0], 150, 3
    c_true = truth(spec.dgp, spec.grid, spec.kernel).c.values
    sums = np.zeros((len(hs), g, g))
    sq_sums = np.zeros_like(sums)
    for est in serial_window_estimates(spec, _lag_weights(BARTLETT, hs, 40, True), reps, False):
        sums += est
        sq_sums += est**2
    means = sums / reps
    err_raw = [math.sqrt(float(np.sum((m - c_true) ** 2)) / g**2) for m in means]
    var_fields = (sq_sums - reps * means**2) / (reps - 1)
    noise_sd = [math.sqrt(max(float(np.sum(v)) / g**2 / reps, 0.0)) for v in var_fields]
    acc = np.zeros(len(hs))
    for est in serial_window_estimates(spec, _lag_weights(BARTLETT, hs, 40, False), reps, True):
        acc += np.sum((est - c_true) ** 2, axis=(1, 2)) / g**2
    mse = [(h, float(acc[k] / reps)) for k, h in enumerate(hs)]

    reports = []
    for workers in (1, 2, 4):
        pooled = replace(spec, workers=workers)
        reports.append(bias_rate_check(pooled, hs, reps).to_dict())
        assert [p["err_raw"] for p in reports[-1]["points"]] == err_raw
        assert [p["noise_sd"] for p in reports[-1]["points"]] == noise_sd
        assert mse_curve(pooled, hs, reps) == mse
    assert reports[0] == reports[1] == reports[2]


def test_run_experiment_identical_under_fork_and_spawn(monkeypatch):
    # and under forkserver, which Python 3.14 makes the default start method on Linux
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
    for method in ("fork", "spawn", "forkserver"):
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
    assert runs["fork"] == runs["spawn"] == runs["forkserver"]


def test_run_experiment_refuses_tied_levels_before_replicating(monkeypatch):
    def refuse(*args):
        raise AssertionError("a replication ran before the eigen levels were checked")

    monkeypatch.setattr("lrcov.mc._pooled", refuse)
    tied = DgpSpec(kind="iid", sigmas=(1.0, 1.0))
    with pytest.raises(SeparationError):  # the spec itself is refused
        scalar_experiment(dgp=tied, grid=Grid(4), projections=(), eigen_levels=(1,))


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


def test_bias_rate_check_refusals(monkeypatch):
    def refuse(*args):
        raise AssertionError("the truth or a replication ran before the arguments were checked")

    ma1 = scalar_experiment(dgp=SCALAR_MA1, n_obs=500)
    with pytest.raises(ContractViolationError):
        bias_rate_check(ma1, [4.0, 8.0], 10)
    with pytest.raises(ContractViolationError, match="flat-top has no power-law bias"):
        bias_rate_check(scalar_experiment(dgp=SCALAR_MA1, kernel=make_kernel("flat-top")), [2.0, 4.0, 8.0], 10)
    monkeypatch.setattr("lrcov.mc.truth", refuse)
    monkeypatch.setattr("lrcov.mc._pooled", refuse)
    for bad in ([0.0, 4.0, 8.0], [2.0, math.nan, 8.0], [2.0, 4.0, math.inf], [-math.inf, 4.0, 8.0]):
        for check in (bias_rate_check, mse_curve):
            with pytest.raises(ContractViolationError, match="positive and finite"):
                check(ma1, bad, 10)
    with pytest.raises(ContractViolationError, match="at least 2 replications, got 1"):
        bias_rate_check(ma1, [2.0, 4.0, 8.0], 1)
    for reps in (0, -3):
        with pytest.raises(ContractViolationError, match=f"at least 1 replications, got {reps}"):
            mse_curve(ma1, [2.0, 4.0], reps)


@pytest.mark.parametrize(
    "sigma, err",
    [
        (1e154, "surface contains non-finite values"),
        (2e153, "surface contains non-finite values"),
        (1e100, "squared estimates overflow a double"),  # finite estimates whose squares are not
    ],
    ids=["1e+154", "2e+153", "1e+100"],
)
def test_h_grid_estimates_that_overflow_are_refused_without_a_warning(sigma, err):
    # iid noise whose truth is finite but whose window sums overflow; warnings are errors here
    spec = scalar_experiment(dgp=DgpSpec(kind="iid", sigmas=(sigma,)), n_obs=100, grid=Grid(4),
                             projections=(Surface(Grid(4), np.ones((4, 4))),))
    for check in (bias_rate_check, mse_curve):
        with pytest.raises(DimensionError, match=err):
            check(spec, [2.0, 4.0, 8.0], 8)


def test_bias_rate_check_fits_estimates_whose_noise_floor_squared_passes_a_double():
    # at seed 6 two points are usable, so the weighted fit runs; noise of 2^200 times the
    # unit noise scales every estimate by 2^400 exactly, and the noise floor's square past 1e308
    def report(sigma):
        spec = scalar_experiment(dgp=DgpSpec(kind="iid", sigmas=(sigma,)), n_obs=100,
                                 grid=Grid(4), projections=(), master_seed=6)
        return bias_rate_check(spec, [2.0, 4.0, 8.0], 4)

    unit, huge = report(1.0), report(2.0**200)
    assert unit.slope is not None
    assert huge.slope == pytest.approx(unit.slope, rel=1e-9)
    assert huge.slope_unweighted == pytest.approx(unit.slope_unweighted, rel=1e-9)
    for p, q in zip(unit.points, huge.points):
        assert (q.err_raw, q.noise_sd) == (2.0**400 * p.err_raw, 2.0**400 * p.noise_sd)
        assert q.signal == p.signal


def test_bias_rate_check_iid_reports_no_bias():
    report = bias_rate_check(scalar_experiment(n_obs=500, master_seed=3), [4.0, 8.0, 16.0], 200)
    assert report.no_bias_detected
    assert not any(p.signal for p in report.points)


def test_bias_rate_check_ma1_slope():
    spec = scalar_experiment(dgp=SCALAR_MA1, n_obs=2000, master_seed=5)
    report = bias_rate_check(spec, [4.0, 8.0, 16.0], 200)
    assert not report.no_bias_detected
    assert report.points[0].signal  # strongest bias at the smallest bandwidth
    assert report.sign_agreement
    assert report.slope == pytest.approx(-1.0, abs=0.4)
    assert 0.3 <= report.constant_ratio <= 3.0
    assert [p.h for p in report.points] == [4.0, 8.0, 16.0]
    json.dumps(report.to_dict())


def test_mse_curve_iid_increases_with_h():
    curve = mse_curve(scalar_experiment(n_obs=300, master_seed=11), [2.0, 8.0, 32.0], 100)
    assert [h for h, _ in curve] == [2.0, 8.0, 32.0]
    values = [v for _, v in curve]
    assert all(v > 0 for v in values)
    assert values[0] < values[1] < values[2]


def test_mse_curve_ma1_is_u_shaped():
    hs = [1.0, 6.0, 60.0]
    curve = mse_curve(scalar_experiment(dgp=SCALAR_MA1, n_obs=1000, master_seed=12), hs, 100)
    values = [v for _, v in curve]
    assert values[1] < values[0]  # too-small h pays bias
    assert values[1] < values[2]  # too-large h pays variance


def hand_written_report_dicts(report, bias):
    """The serialization both reports carried as explicit field lists."""
    mc = {
        "replications": int(report.replications),
        "workers": int(report.workers),
        "runtime_seconds": float(report.runtime_seconds),
        "h": {
            "mean": float(report.h_mean),
            "min": float(report.h_min),
            "max": float(report.h_max),
            "clamped": int(report.h_clamped),
            "fallback": int(report.h_fallback),
        },
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
    bias = bias_rate_check(replace(spec, n_obs=400, master_seed=7), [2.0, 4.0, 8.0], 12)
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    io.write_json(str(got), {"report": report.to_dict(), "bias_check": bias.to_dict()})
    mc, bias_dict = hand_written_report_dicts(report, bias)
    io.write_json(str(want), {"report": mc, "bias_check": bias_dict})
    assert got.read_bytes() == want.read_bytes()
    # plain json can write both as they are: no numpy scalars, no raw samples
    assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(mc, sort_keys=True)
    assert json.dumps(bias.to_dict(), sort_keys=True) == json.dumps(bias_dict, sort_keys=True)


def oracle_surfaces(s, weights, phi):
    """phi^T (A + A^T) phi for a stack of one replication's scores, from its lag products alone."""
    lags = weights.shape[1] - 1
    if lags < 64:
        a = np.tensordot(weights, lag_products(s, lags)[0], axes=1)
    else:
        a = _window_sums(s[0], weights)
    a = phi.T @ a @ phi
    return a + a.transpose(0, 2, 1)


def oracle_scores(spec, r, centered=True):
    """Replication r's scores drawn alone: a (1, N, J) view of its (1, J, N) stack, as a block's."""
    s = _scores(spec.dgp, spec.n_obs, [replication_rng(spec.master_seed, r)])
    assert np.all(np.isfinite(s))
    if centered:
        s = s - s.mean(axis=2, keepdims=True)
    return s.swapaxes(1, 2)


def oracle_plugin_weights(kernel, pilot_h, m_trunc, n):
    """The plug-in's two weight rows, written out: the pilot's K(k/h)/N halved at lag 0, |k|^q/N."""
    q = kernel.char_exponent
    h = n ** (1.0 / (1.0 + 2.0 * q)) if pilot_h is None else pilot_h
    m = min(math.floor(h), math.floor(math.sqrt(n))) if m_trunc is None else m_trunc
    lags = np.arange(max(min(n - 1, math.floor(h)), m) + 1)
    pilot = kernel_value(kernel, lags / h) / n
    pilot[0] *= 0.5
    return np.stack([pilot, np.where(lags <= m, lags**q, 0.0) / n])


def oracle_replicate_range(spec, reps):
    """``mc._replicate_range`` one replication at a time: draw, choose h, estimate."""
    kernel, n, rule, g = spec.kernel, spec.n_obs, spec.h_rule, spec.grid.n_points
    phi = fourier_basis(spec.grid, len(spec.dgp.sigmas))
    hs, clamped, fallback, surfaces = [], [], [], []
    for r in reps:
        s, sel = oracle_scores(spec, r), None
        if rule.kind != "plugin":
            h = rule._rule_h(n)
        else:
            weights = oracle_plugin_weights(kernel, rule.pilot_h, rule.m_trunc, n)
            pilot, bias = oracle_surfaces(s, weights, phi)
            sel = optimal_bandwidth(
                Surface(spec.grid, pilot), Surface(spec.grid, kernel.char_coefficient * bias), kernel, n
            )
            h = min(max(sel.bandwidth.h, 1.0), n / 2.0)
        hs.append(h)
        clamped.append(sel is not None and h != sel.bandwidth.h)
        fallback.append(sel is not None and sel.fallback)
        surfaces.append(oracle_surfaces(s, _lag_weights(kernel, [h], n, False), phi)[0])
    surfaces = np.array(surfaces)
    projs = np.array([[np.sum(v * f.values) for f in spec.projections] for v in surfaces]) / g**2
    levels = max(spec.eigen_levels, default=0)
    lams, funcs = _eigen_stack(surfaces) if levels else (np.empty((len(reps), 0)),) * 2
    return np.array(hs), projs, lams[:, :levels], funcs[:, :levels], np.array(clamped), np.array(fallback)


def oracle_window_estimates(job, reps):
    spec, weights, centered = job
    phi = fourier_basis(spec.grid, len(spec.dgp.sigmas))
    return [oracle_surfaces(oracle_scores(spec, r, centered), weights, phi) for r in reps]


KINDS = {
    "iid": DgpSpec(kind="iid", sigmas=(1.0, 0.6, 0.3)),
    "fma": DgpSpec(kind="fma", sigmas=(1.0, 0.6, 0.3), theta=(0.5, -0.3)),
    "far1": DgpSpec(kind="far1", sigmas=(1.0, 0.6, 0.3), rho=0.6),
}
RULES = {"fixed": "6", "power": "power:1,0.3333333333333333", "plugin": "plugin"}


def stacked_and_oracle(monkeypatch, run, spec):
    """``run`` of spec at workers 1 and 2, and of the per-replication oracle in this process."""
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short windows and plug-in clamps trip the rate warnings
        got = [run(replace(spec, workers=w)) for w in (1, 2)]
        with monkeypatch.context() as m:
            m.setattr(mc, "_replicate_range", oracle_replicate_range)
            m.setattr(mc, "_window_estimates", oracle_window_estimates)
            want = run(replace(spec, workers=1))
    return got, want


@pytest.mark.parametrize(
    "kind, rule, n_obs, kernel",
    [(k, rule, 150, "bartlett") for k in KINDS for rule in RULES.values()]
    + [
        ("iid", "fixed:70", 150, "parzen"),  # a long window: the FFT path, once per replication
        ("fma", "power:1,0.3333333333333333", 2000, "bartlett"),  # blocks split into sub-stacks
        ("far1", "plugin:8", 40, "parzen"),  # a plug-in h clamped to N/2
        ("far1-rho-0.9", "plugin", 2400, "bartlett"),  # plug-in h on both sides of 64 lags
    ],
)
def test_stacked_replications_match_a_per_replication_loop_bit_for_bit(
    monkeypatch, kind, rule, n_obs, kernel
):
    # batched matmul agreeing bit for bit with one product per replication is a
    # property of the BLAS build, so the block path is held to it here
    dgp = KINDS[kind] if kind in KINDS else replace(KINDS["far1"], rho=0.9)
    spec = ExperimentSpec(
        dgp=dgp, kernel=make_kernel(kernel), n_obs=n_obs, grid=Grid(5),
        h_rule=BandwidthRule.parse(rule), replications=40,
        projections=(Surface(Grid(5), np.ones((5, 5))),), eigen_levels=(1, 2), master_seed=23,
    )
    got, want = stacked_and_oracle(monkeypatch, run_experiment, spec)
    assert canonical(got[0]) == canonical(got[1]) == canonical(want)
    if rule == "plugin:8":
        assert want.h_clamped > 0
    if kind == "far1-rho-0.9":  # one stack routes its windows down both paths
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the rate warnings
            h = mc._replicate_range(spec, range(40))[0]
        stacks = [rows for rows, _ in mc._score_stacks(spec, range(40))]
        assert {True, False} in [{_takes_fft(int(v), 3) for v in h[rows]} for rows in stacks]


@pytest.mark.parametrize("kind", KINDS)
def test_stacked_h_grids_match_a_per_replication_loop_bit_for_bit(monkeypatch, kind):
    spec = ExperimentSpec(
        dgp=KINDS[kind], kernel=make_kernel("parzen"), n_obs=150, grid=Grid(5),
        h_rule=BandwidthRule("fixed", value=4.0), replications=70, master_seed=31,
    )
    bias = functools.partial(bias_rate_check, h_values=[2.0, 4.0, 8.0], replications=70)
    got, want = stacked_and_oracle(monkeypatch, lambda s: bias(s).to_dict(), spec)
    assert json.dumps(got[0]) == json.dumps(got[1]) == json.dumps(want)
    mse = functools.partial(mse_curve, h_values=[2.0, 5.0, 70.0], replications=70)  # 70: FFT
    got, want = stacked_and_oracle(monkeypatch, lambda s: np.array(mse(s)).tobytes(), spec)
    assert got[0] == got[1] == want


@pytest.mark.parametrize("rule", ["power:1,0.5", "plugin"])
def test_reports_do_not_depend_on_the_sub_stack_size(monkeypatch, rule):
    # one replication per sub-stack against the default, which holds a whole block here
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    spec = ExperimentSpec(
        dgp=KINDS["fma"], kernel=make_kernel("parzen"), n_obs=100, grid=Grid(4),
        h_rule=BandwidthRule.parse(rule), replications=24,
        projections=(Surface(Grid(4), np.ones((4, 4))),), eigen_levels=(1, 2), master_seed=3,
    )
    reports = []
    for budget in (mc.STACK_BYTES, 1):
        monkeypatch.setattr(mc, "STACK_BYTES", budget)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # short samples trip the rate warnings
            reports.append((
                canonical(run_experiment(spec)),
                json.dumps(bias_rate_check(spec, [2.0, 3.0, 5.0], 24).to_dict()),
            ))
    assert reports[0] == reports[1]


def test_reports_do_not_depend_on_the_block_size_or_worker_count(monkeypatch):
    # one replication per block against the default blocks, at one, two and three workers
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    spec = ExperimentSpec(
        dgp=KINDS["far1"], kernel=make_kernel("parzen"), n_obs=120, grid=Grid(5),
        h_rule=BandwidthRule.parse("plugin"), replications=30,
        projections=(Surface(Grid(5), np.ones((5, 5))),), eigen_levels=(1, 2), master_seed=7,
    )
    reports = []
    for one_per_block in (False, True):
        if one_per_block:
            monkeypatch.setattr(mc, "_block_size", lambda *args: 1)
        for workers in (1, 2, 3):
            s = replace(spec, workers=workers)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # short samples trip the rate warnings
                reports.append((
                    canonical(run_experiment(s)),
                    json.dumps(bias_rate_check(s, [2.0, 4.0, 8.0], 30).to_dict()),
                    np.array(mse_curve(s, [2.0, 5.0, 70.0], 30)).tobytes(),  # 70: the FFT path
                ))
    assert all(r == reports[0] for r in reports[1:])
