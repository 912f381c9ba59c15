import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import lrcov
from lrcov import (
    Bandwidth,
    ContractViolationError,
    CurveSample,
    DgpSpec,
    DimensionError,
    Grid,
    Surface,
    amse,
    estimate_lrcov,
    estimate_lrcov_naive,
    estimate_spectral_density,
    generate,
    l2_norm_surface,
    lag_products,
    make_kernel,
    optimal_bandwidth,
    plugin_bandwidth,
    predicted_projection_variance,
    project_psd,
    replication_rng,
    surface_integral,
    truth,
)

BARTLETT = make_kernel("bartlett")


def scalar_sample(*values):
    return CurveSample(Grid(1), np.asarray(values, dtype=float).reshape(-1, 1))


def test_curve_sample_validation():
    with pytest.raises(ContractViolationError):
        CurveSample(Grid(2), np.ones((1, 2)))  # need at least two curves
    with pytest.raises(DimensionError):
        CurveSample(Grid(2), np.ones((3, 4)))  # grid width mismatch
    with pytest.raises(DimensionError):
        CurveSample(Grid(2), np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_bandwidth_validation():
    with pytest.raises(ContractViolationError):
        Bandwidth(0.0)
    with pytest.raises(ContractViolationError):
        Bandwidth(math.inf)


def autocov_oracle(y, lag):
    """Direct sum over time of outer products; a negative lag pairs later with earlier."""
    n, g = y.shape
    out = np.zeros((g, g))
    for j in range(max(0, -lag), min(n, n - lag)):
        out += np.outer(y[j], y[j + lag])
    return out


def test_autocov_two_point_example():
    y = np.array([[-1.0], [1.0]])  # the sample (1, 3), centered
    p = lag_products(y, 1) / 2.0
    assert p[0, 0, 0] == pytest.approx(1.0)
    assert p[1, 0, 0] == pytest.approx(-0.5)
    with pytest.raises(ContractViolationError):
        lag_products(y, 2)  # no lag at or beyond N


def test_autocov_negative_lag_is_transpose():
    rng = np.random.default_rng(0)
    y = rng.normal(size=(20, 5))
    p = lag_products(y, 7)
    for i in (1, 3, 7):
        assert_allclose(autocov_oracle(y, -i), p[i].T, rtol=1e-13, atol=1e-13)


def test_autocov_unbiased_divisor():
    y = np.array([[-1.0], [1.0]])
    assert lag_products(y, 1)[1, 0, 0] / (2 - 1) == pytest.approx(-1.0)


def test_autocov_uncentered():
    y = np.array([[1.0], [3.0]])
    # no demeaning: (1*1 + 3*3)/2 and (1*3)/2
    p = lag_products(y, 1) / 2.0
    assert p[0, 0, 0] == pytest.approx(5.0)
    assert p[1, 0, 0] == pytest.approx(1.5)


def test_autocov_set_lookup():
    rng = np.random.default_rng(1)
    y = rng.normal(size=(12, 3))
    p = lag_products(y, 4)
    assert p.shape == (5, 3, 3)
    for lag in range(5):
        assert_allclose(p[lag], autocov_oracle(y, lag), rtol=1e-13, atol=1e-13)
    for bad in (-1, 12):
        with pytest.raises(ContractViolationError):
            lag_products(y, bad)
    with pytest.raises(DimensionError):
        lag_products(y[:, 0], 1)


def test_estimate_two_point_example():
    s = scalar_sample(1.0, 3.0)
    est = estimate_lrcov(s, BARTLETT, 1.0)
    assert est.surface.values[0, 0] == pytest.approx(1.0)
    assert est.n_obs == 2


def test_bartlett_small_h_gives_lag_zero_only():
    rng = np.random.default_rng(2)
    s = CurveSample(Grid(4), rng.normal(size=(25, 4)))
    est = estimate_lrcov(s, BARTLETT, 1.0)
    g0 = lag_products(s.values - s.values.mean(axis=0), 0)[0] / 25
    assert_allclose(est.surface.values, (g0 + g0.T) / 2.0, atol=1e-15)


def test_estimate_transpose_symmetric_exactly():
    rng = np.random.default_rng(3)
    s = CurveSample(Grid(6), rng.normal(size=(40, 6)))
    est = estimate_lrcov(s, BARTLETT, 6.0)
    assert np.array_equal(est.surface.values, est.surface.values.T)


def test_estimate_iid_scalar_consistent():
    # truth C = gamma_0 = 1 for iid standard normal scalars
    spec = DgpSpec(kind="iid", sigmas=(1.0,))
    s = generate(spec, 4000, Grid(1), replication_rng(12, 0))
    est = estimate_lrcov(s, BARTLETT, 4000.0 ** (1.0 / 3.0))
    assert abs(est.surface.values[0, 0] - 1.0) <= 0.15


def test_estimate_warns_when_h_exceeds_rate_condition():
    s = scalar_sample(*np.random.default_rng(4).normal(size=50))
    with pytest.warns(UserWarning):
        estimate_lrcov(s, make_kernel("parzen"), 30.0)  # h^2 > N


def test_bandwidth_below_one_flagged():
    s = scalar_sample(1.0, 2.0, 3.0)
    with pytest.warns(UserWarning):
        estimate_lrcov(s, BARTLETT, 0.5)


def test_naive_oracle_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(5, 41))
        g = int(rng.integers(1, 9))
        h = float(rng.uniform(0.5, 10.0))
        unbiased = bool(rng.integers(0, 2))
        s = CurveSample(Grid(g), rng.normal(size=(n, g)))
        kernel = make_kernel(("bartlett", "parzen", "tukey-hanning")[int(rng.integers(0, 3))])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny N with big h trips rate warnings
            fast = estimate_lrcov(s, kernel, h, unbiased=unbiased)
            slow = estimate_lrcov_naive(s, kernel, h, unbiased=unbiased)
        assert np.max(np.abs(fast.surface.values - slow.surface.values)) <= 1e-10


def test_naive_zero_sample():
    s = CurveSample(Grid(3), np.zeros((10, 3)))
    est = estimate_lrcov_naive(s, BARTLETT, 4.0)
    assert np.all(est.surface.values == 0.0)


def test_spectral_density_omega_zero_identity():
    rng = np.random.default_rng(6)
    s = CurveSample(Grid(4), rng.normal(size=(30, 4)))
    est = estimate_lrcov(s, BARTLETT, 5.0)
    f0 = estimate_spectral_density(s, BARTLETT, 5.0, 0.0)
    assert np.max(np.abs(2.0 * math.pi * f0.real_part.values - est.surface.values)) <= 1e-10
    assert np.max(np.abs(f0.imag_part.values)) <= 1e-10


def test_spectral_density_omega_pi_imag_vanishes():
    rng = np.random.default_rng(7)
    s = CurveSample(Grid(3), rng.normal(size=(25, 3)))
    f = estimate_spectral_density(s, BARTLETT, 4.0, math.pi)
    assert np.max(np.abs(f.imag_part.values)) <= 1e-10


def test_spectral_density_white_noise_flat():
    # iid noise has constant spectral density 1/(2*pi); average over
    # replications so the check is several sigma wide
    spec = DgpSpec(kind="iid", sigmas=(1.0,))
    n = 5000
    h = n ** (1.0 / 3.0)
    sums = {0.0: 0.0, math.pi / 2.0: 0.0, math.pi: 0.0}
    reps = 8
    for r in range(reps):
        s = generate(spec, n, Grid(1), replication_rng(3, r))
        for omega in sums:
            f = estimate_spectral_density(s, BARTLETT, h, omega)
            sums[omega] += f.real_part.values[0, 0]
    for omega, total in sums.items():
        assert total / reps == pytest.approx(1.0 / (2 * math.pi), rel=0.12)


def test_spectral_density_domain():
    s = scalar_sample(1.0, 2.0, 3.0)
    with pytest.raises(ContractViolationError):
        estimate_spectral_density(s, BARTLETT, 2.0, -0.5)
    with pytest.raises(ContractViolationError):
        estimate_spectral_density(s, BARTLETT, 2.0, 2.0 * math.pi)


def test_bias_kernel_iid_zero():
    f = truth(DgpSpec(kind="iid", sigmas=(1.0, 0.5)), Grid(3), BARTLETT).bias
    assert np.all(f.values == 0.0)


def test_bias_kernel_scalar_ma1():
    # MA(1), theta = 0.5, sigma = 1: gamma_1 = 0.5 so F = -1 * 2 * 0.5
    f = truth(DgpSpec(kind="fma", sigmas=(1.0,), theta=(0.5,)), Grid(1), BARTLETT).bias
    assert f.values[0, 0] == pytest.approx(-1.0)


def dense_limit_tensor(c, kernel):
    """The limiting covariance of the scaled error as a dense G^4 tensor (test oracle).

    Entry (t, s, u, v) is the covariance of the errors at (t, s) and (u, v):
    int K^2 (C(t,u)C(s,v) + C(t,v)C(s,u)).
    """
    v = c.values
    return kernel.square_integral * (
        np.einsum("tu,sv->tsuv", v, v) + np.einsum("tv,su->tsuv", v, v)
    )


def contract(tensor, f):
    g = f.grid.n_points
    return float(np.einsum("ts,tsuv,uv->", f.values, tensor, f.values)) / g**4


def test_asymptotic_covariance_L():
    g = Grid(4)
    zero = Surface(g, np.zeros((4, 4)))
    assert np.all(dense_limit_tensor(zero, BARTLETT) == 0.0)
    assert predicted_projection_variance(zero, BARTLETT, Surface(g, np.ones((4, 4)))) == 0.0

    rng = np.random.default_rng(8)
    m = rng.normal(size=(4, 4))
    c = Surface(g, m + m.T)
    L = dense_limit_tensor(c, BARTLETT)
    cv = c.values
    ksq = BARTLETT.square_integral
    # diagonal slice reduces to C(t,s)^2 + C(t,t)C(s,s)
    for t in range(4):
        for s in range(4):
            expected = (cv[t, s] * cv[t, s] + cv[t, t] * cv[s, s]) * ksq
            assert L[t, s, t, s] == pytest.approx(expected, rel=1e-12)
    for _ in range(3):
        f = Surface(g, rng.normal(size=(4, 4)))
        want = contract(L, f)
        assert predicted_projection_variance(c, BARTLETT, f) == pytest.approx(want, rel=1e-12)


def test_asymptotic_covariance_L_scalar():
    c = Surface(Grid(1), np.array([[2.0]]))  # sigma^2 = 2
    expected = 2.0 * 4.0 * (2.0 / 3.0)
    assert dense_limit_tensor(c, BARTLETT)[0, 0, 0, 0] == pytest.approx(expected)
    one = Surface(Grid(1), np.ones((1, 1)))
    assert predicted_projection_variance(c, BARTLETT, one) == pytest.approx(expected, rel=1e-15)


def test_projection_variance_beyond_dense_tensor_limit():
    # G = 65 is past where a G^4 tensor is reasonable; the contraction needs none.
    # C = f = phi phi^T with unit-norm phi: both terms of the variance equal 1
    g = Grid(65)
    phi = np.sqrt(2.0) * np.cos(2.0 * np.pi * g.points)
    c = Surface(g, np.outer(phi, phi))
    got = predicted_projection_variance(c, BARTLETT, c)
    assert got == pytest.approx(BARTLETT.square_integral * 2.0, rel=1e-12)


def _mean_zero_rank_one(g: Grid) -> np.ndarray:
    phi = np.sqrt(2.0) * np.cos(2.0 * np.pi * g.points)
    return np.outer(phi, phi)


@pytest.mark.parametrize(
    "values",
    [np.zeros((8, 8)), np.ones((8, 8)), _mean_zero_rank_one(Grid(64))],
    ids=["zero", "ones", "zero-integral"],
)
def test_projection_variance_against_ones_is_twice_the_squared_integral(values):
    # against the unit surface the limiting variance is the AMSE constant 2 (∫∫C)² ∫K²
    c = Surface(Grid(len(values)), values)
    one = Surface(c.grid, np.ones_like(values))
    want = 2.0 * surface_integral(c) ** 2 * BARTLETT.square_integral
    got = predicted_projection_variance(c, BARTLETT, one)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-25)


def test_amse_monotonicity():
    g = Grid(1)
    c = Surface(g, np.array([[1.0]]))
    zero_bias = Surface(g, np.array([[0.0]]))
    hs = [2.0, 4.0, 8.0, 16.0]
    vals = [amse(c, zero_bias, BARTLETT, h, 500) for h in hs]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # pure variance: increasing

    zero_c = Surface(g, np.array([[0.0]]))
    f = Surface(g, np.array([[-1.0]]))
    vals = [amse(zero_c, f, BARTLETT, h, 500) for h in hs]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # pure bias: decreasing


def ma1_scalar_truth():
    spec = DgpSpec(kind="fma", sigmas=(1.0,), theta=(0.5,))
    return truth(spec, Grid(1), BARTLETT)


def test_optimal_bandwidth_rate_law():
    t = ma1_scalar_truth()
    h1 = optimal_bandwidth(t.c, t.bias, BARTLETT, 1000).bandwidth.h
    h2 = optimal_bandwidth(t.c, t.bias, BARTLETT, 2000).bandwidth.h
    assert h2 / h1 == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


def test_optimal_bandwidth_matches_grid_search():
    t = ma1_scalar_truth()
    sel = optimal_bandwidth(t.c, t.bias, BARTLETT, 1000)
    assert not sel.fallback
    grid = np.linspace(1.0, 40.0, 391)  # 0.1 steps
    vals = [amse(t.c, t.bias, BARTLETT, h, 1000) for h in grid]
    best = grid[int(np.argmin(vals))]
    assert sel.bandwidth.h == pytest.approx(best, rel=0.05)
    # closed form for this process: c0 = 2/3, N^(1/3) = 10
    assert sel.bandwidth.h == pytest.approx(20.0 / 3.0, rel=1e-9)


def test_optimal_bandwidth_fallback_on_zero_bias():
    g = Grid(1)
    c = Surface(g, np.array([[1.0]]))
    zero_f = Surface(g, np.array([[0.0]]))
    with pytest.warns(UserWarning):
        sel = optimal_bandwidth(c, zero_f, BARTLETT, 1000)
    assert sel.fallback
    assert sel.bandwidth.h == pytest.approx(10.0)  # N^(1/3)


def test_amse_grid_minimizer_near_h_opt():
    t = ma1_scalar_truth()
    sel = optimal_bandwidth(t.c, t.bias, BARTLETT, 1000)
    hs = np.arange(1, 41, dtype=float)
    vals = [amse(t.c, t.bias, BARTLETT, h, 1000) for h in hs]
    argmin_h = hs[int(np.argmin(vals))]
    assert abs(argmin_h - sel.bandwidth.h) <= 1.0


def test_plugin_bandwidth_ma1_median_accuracy():
    # closed-form h_opt = (2/3) * 2000^(1/3); pilot kept short so the bias
    # surface estimate is not noise-dominated
    spec = DgpSpec(kind="fma", sigmas=(1.0,), theta=(0.5,))
    t = truth(spec, Grid(1), BARTLETT)
    h_opt = optimal_bandwidth(t.c, t.bias, BARTLETT, 2000).bandwidth.h
    hs = []
    for r in range(200):
        s = generate(spec, 2000, Grid(1), replication_rng(77, r))
        hs.append(plugin_bandwidth(s, BARTLETT, pilot_h=4.0).bandwidth.h)
    med = float(np.median(hs))
    assert abs(med - h_opt) / h_opt <= 0.35


def test_plugin_bandwidth_iid_band():
    spec = DgpSpec(kind="iid", sigmas=(1.0,))
    n = 2000
    fallbacks = 0
    in_band = 0
    reps = 40
    for r in range(reps):
        s = generate(spec, n, Grid(1), replication_rng(99, r))
        sel = plugin_bandwidth(s, BARTLETT, pilot_h=4.0)
        fallbacks += sel.fallback
        in_band += 1.0 <= sel.bandwidth.h <= 2.0 * n ** (1.0 / 3.0)
    assert fallbacks >= reps / 2 or in_band == reps


def test_plugin_bandwidth_degenerate_input():
    # constant curves, zero variance: 1.0 averages exactly, while the column mean of 0.1
    # or 0.7 leaves a rounding of about 1e-17 in the centred curves
    for value, n in ((1.0, 10), (0.1, 20), (0.1, 40), (0.7, 20), (0.7, 40)):
        s = CurveSample(Grid(2), np.full((n, 2), value))
        with pytest.raises(ContractViolationError, match="zero-variance sample"):
            plugin_bandwidth(s, BARTLETT, pilot_h=3.0)


def test_plugin_bandwidth_clamp_and_m_trunc():
    spec = DgpSpec(kind="fma", sigmas=(1.0,), theta=(0.5,))
    s = generate(spec, 100, Grid(1), replication_rng(1, 0))
    sel = plugin_bandwidth(s, BARTLETT, pilot_h=30.0)
    # default truncation: floor(pilot) bounded by sqrt(N)
    assert sel.m_trunc == 10
    assert 1.0 <= sel.bandwidth.h <= 50.0


@pytest.mark.parametrize("name", ["bartlett", "parzen", "tukey-hanning"])
def test_plugin_bandwidth_default_pilot_is_the_rate(name):
    kernel, spec = make_kernel(name), DgpSpec(kind="fma", sigmas=(1.0, 0.5), theta=(0.5,))
    s = generate(spec, 500, Grid(4), replication_rng(3, 0))
    rate = 500 ** (1 / (1 + 2 * kernel.char_exponent))
    sel = plugin_bandwidth(s, kernel)
    assert sel == plugin_bandwidth(s, kernel, rate)  # every field, h to the bit
    assert sel.pilot_h == rate


def test_project_psd_identity_on_psd():
    rng = np.random.default_rng(10)
    g = Grid(5)
    a = rng.normal(size=(5, 5))
    psd = Surface(g, a @ a.T)
    est = estimate_lrcov(scalar_sample(1.0, 2.0, 3.0), BARTLETT, 1.0)
    est = type(est)(surface=psd, kernel=est.kernel, bandwidth=est.bandwidth, n_obs=3)
    out = project_psd(est)
    assert np.max(np.abs(out.surface.values - psd.values)) <= 1e-10
    # only the surface changes
    assert out.kernel is est.kernel and out.bandwidth is est.bandwidth and out.n_obs == 3


def test_project_psd_rank_one_negative():
    g = Grid(16)
    phi = np.sqrt(2.0) * np.sin(2.0 * np.pi * g.points)
    est = estimate_lrcov(
        CurveSample(g, np.random.default_rng(0).normal(size=(5, 16))), BARTLETT, 1.0
    )
    est = type(est)(
        surface=Surface(g, -np.outer(phi, phi)),
        kernel=est.kernel,
        bandwidth=est.bandwidth,
        n_obs=5,
    )
    out = project_psd(est)
    assert np.max(np.abs(out.surface.values)) <= 1e-12


def test_project_psd_distance_identity():
    rng = np.random.default_rng(11)
    g = Grid(8)
    m = rng.normal(size=(8, 8))
    sym = Surface(g, m + m.T)
    eigvals = np.linalg.eigvalsh(sym.values / 8.0)
    clipped = eigvals[eigvals < 0]
    est = estimate_lrcov(scalar_sample(1.0, 2.0), BARTLETT, 1.0)
    est = type(est)(surface=sym, kernel=est.kernel, bandwidth=est.bandwidth, n_obs=2)
    out = project_psd(est)
    dist = l2_norm_surface(Surface(g, out.surface.values - sym.values))
    assert dist == pytest.approx(math.sqrt(float(np.sum(clipped**2))), abs=1e-8)
    out_eigs = np.linalg.eigvalsh(out.surface.values / 8.0)
    assert np.min(out_eigs) >= -1e-12


def test_project_psd_requires_symmetry():
    g = Grid(3)
    est = estimate_lrcov(scalar_sample(1.0, 2.0), BARTLETT, 1.0)
    bad = type(est)(
        surface=Surface(g, np.arange(9.0).reshape(3, 3)),
        kernel=est.kernel,
        bandwidth=est.bandwidth,
        n_obs=2,
    )
    with pytest.raises(ContractViolationError):
        project_psd(bad)


def test_consistency_ma1_statistical():
    # relative error below 0.2 in at least 90% of replications
    spec = DgpSpec(kind="fma", sigmas=(1.0,), theta=(0.5,))
    t = truth(spec, Grid(1))
    c_true = t.c.values[0, 0]
    n = 4000
    h = n ** (1.0 / 3.0)
    hits = 0
    reps = 200
    for r in range(reps):
        s = generate(spec, n, Grid(1), replication_rng(2024, r))
        est = estimate_lrcov(s, BARTLETT, h)
        hits += abs(est.surface.values[0, 0] - c_true) / abs(c_true) <= 0.2
    assert hits >= 0.9 * reps


def test_long_window_estimate_imports_no_scipy():
    """numpy is the only runtime dependency, FFT path included."""
    code = (
        "import sys, numpy as np, lrcov\n"
        "y = np.random.default_rng(0).normal(size=(600, 3))\n"
        "sample = lrcov.CurveSample(lrcov.Grid(3), y)\n"
        "lrcov.estimate_lrcov(sample, lrcov.make_kernel('bartlett'), 300)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    path = [str(Path(lrcov.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-c", code]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("n, g, h", [(50_000, 64, 78), (2_000, 256, 100)])
def test_long_window_memory_stays_near_the_sample_size(n, g, h):
    """No centred copy beside the spectra, and GEMM chunks bounded in bytes whatever G is."""
    sample = CurveSample(Grid(g), np.random.default_rng(5).normal(size=(n, g)))
    bound = 1.25 * sample.values.nbytes + 4 * 2**20
    for run in (
        lambda: estimate_lrcov(sample, BARTLETT, h),
        lambda: estimate_spectral_density(sample, BARTLETT, h, math.pi / 8),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak / 2**20, bound / 2**20)
