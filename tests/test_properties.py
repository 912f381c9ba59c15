"""Property tests of the lag-window estimators over random N, G, h, kernel and divisor."""

import math
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrcov import (
    KERNEL_NAMES,
    BandwidthRule,
    CurveSample,
    DgpSpec,
    ExperimentSpec,
    Grid,
    LrcovError,
    Surface,
    bias_rate_check,
    eigendecompose,
    estimate_lrcov,
    estimate_lrcov_naive,
    estimate_spectral_density,
    generate,
    kernel_value,
    l2_norm_surface,
    make_kernel,
    mse_curve,
    plugin_bandwidth,
    predicted_projection_variance,
    replication_rng,
    truth,
)
from lrcov import estimator, mc
from lrcov.grid import fourier_basis
from lrcov.simulate import _scores

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def cases(draw, kernels=KERNEL_NAMES):
    n = draw(st.integers(4, 40))
    g = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.integers(-3, 3))
    y = np.random.default_rng(seed).normal(size=(n, g)) * scale
    return {
        "sample": CurveSample(Grid(g), y),
        "kernel": make_kernel(draw(st.sampled_from(kernels))),
        "h": draw(st.floats(0.5, 15.0)),
        "unbiased": draw(st.booleans()),
        "rng": np.random.default_rng(seed + 1),
    }


def estimate(case, values=None, **kw):
    sample = case["sample"] if values is None else CurveSample(case["sample"].grid, values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small N with large h trips the rate warnings
        return estimate_lrcov(sample, case["kernel"], case["h"], unbiased=case["unbiased"], **kw)


def assert_close(got, want, case, rel, a=1.0):
    """Agreement relative to the size of the terms summed, not of their sum.

    A long window can cancel the estimate down to round-off (flat weights
    over every lag of a centered sample sum to zero), so its own size is no
    scale; each of the at most h + 1 lag terms is bounded by max|y|^2.
    """
    y = a * case["sample"].values
    terms = min(len(y) - 1, case["h"]) + 1
    scale = float(np.max(np.abs(y - y.mean(axis=0)))) ** 2 * terms
    assert float(np.max(np.abs(got - want))) <= rel * scale


@PROPERTY
@given(cases())
def test_estimate_matches_naive_oracle(case):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = estimate_lrcov_naive(
            case["sample"], case["kernel"], case["h"], unbiased=case["unbiased"]
        ).surface.values
    got = estimate(case).surface.values
    assert np.array_equal(got, got.T)
    assert_close(got, want, case, 1e-10)


@PROPERTY
@given(cases(), st.floats(-10.0, 10.0).filter(lambda a: abs(a) > 1e-3))
def test_scaling_the_curves_scales_the_estimate_quadratically(case, a):
    c = estimate(case).surface.values
    assert_close(estimate(case, a * case["sample"].values).surface.values, a * a * c, case, 1e-12, a)


@PROPERTY
@given(cases())
def test_time_reversal_leaves_the_estimate_unchanged(case):
    c = estimate(case).surface.values
    assert_close(estimate(case, case["sample"].values[::-1]).surface.values, c, case, 1e-12)


@PROPERTY
@given(cases(), st.floats(-10.0, 10.0))
def test_adding_a_constant_curve_leaves_the_centered_estimate_unchanged(case, a):
    y = case["sample"].values
    shift = a * float(np.max(np.abs(y))) * case["rng"].normal(size=y.shape[1])
    c = estimate(case).surface.values
    assert_close(estimate(case, y + shift).surface.values, c, case, 1e-12)


@PROPERTY
@given(cases())
def test_grid_permutation_permutes_the_estimate(case):
    perm = case["rng"].permutation(case["sample"].grid.n_points)
    c = estimate(case).surface.values
    got = estimate(case, case["sample"].values[:, perm]).surface.values
    assert_close(got, c[np.ix_(perm, perm)], case, 1e-12)


@PROPERTY
@given(cases())
def test_spectral_density_at_zero_frequency_is_estimate_over_two_pi(case):
    c = estimate(case).surface.values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = estimate_spectral_density(
            case["sample"], case["kernel"], case["h"], 0.0, unbiased=case["unbiased"]
        )
    assert_close(f.real_part.values, c / (2.0 * math.pi), case, 1e-12)
    assert np.all(f.imag_part.values == 0.0)


def three_pass_plugin(sample, kernel, pilot_h, m_trunc):
    """The plug-in rule as three separate passes: pilot estimate, autocovariances, bias sum."""
    n, g = sample.values.shape
    y = sample.values - sample.values.mean(axis=0)
    if m_trunc is None:
        m_trunc = min(int(math.floor(pilot_h)), int(math.floor(math.sqrt(n))))
    lag0 = y.T @ y
    pilot = (lag0 + lag0.T) / (2.0 * n)
    for i in range(1, min(n - 1, int(math.floor(pilot_h))) + 1):
        cross = y[: n - i].T @ y[i:]
        pilot += kernel_value(kernel, i / pilot_h) / n * (cross + cross.T)
    gammas = [y[: n - i].T @ y[i:] / n for i in range(m_trunc + 1)]
    q = kernel.char_exponent
    acc = np.zeros((g, g))
    for lag in range(1, m_trunc + 1):
        acc += float(lag) ** q * (gammas[lag] + gammas[lag].T)
    f_norm = float(np.linalg.norm(kernel.char_coefficient * acc)) / g
    denom = (float(np.sum(pilot)) / g**2) ** 2 * kernel.square_integral
    power = 1.0 / (1.0 + 2.0 * q)
    if f_norm == 0.0 or denom <= 0.0:
        h = float(n) ** power
    else:
        h = (q * f_norm**2) ** power * denom ** (-power) * float(n) ** power
    return min(max(h, 1.0), n / 2.0)


@PROPERTY
@given(
    cases(kernels=("bartlett", "parzen", "tukey-hanning")),
    st.floats(1.0, 12.0),
    st.one_of(st.none(), st.integers(0, 3)),
)
def test_one_pass_plugin_matches_three_pass_reference(case, pilot_h, m_trunc):
    sample, kernel = case["sample"], case["kernel"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degenerate draws fall back to the rate-only rule
        got = plugin_bandwidth(sample, kernel, pilot_h, m_trunc).bandwidth.h
    want = three_pass_plugin(sample, kernel, pilot_h, m_trunc)
    assert got == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------ the FFT window path

# _FFT_MIN_WORK values that send every window down one path: the FFT path, the lag products
BOTH_PATHS = st.sampled_from((0, 10**9))


def lag_window_reference(y, kernel, h_values, unbiased):
    """Each h's estimate from y as an explicit sum of its weighted lag cross products."""
    n, g = y.shape
    out = np.zeros((len(h_values), g, g))
    for r, h in enumerate(h_values):
        for k in range(min(n - 1, math.floor(h)) + 1):
            cross = y[: n - k].T @ y[k:]
            w = kernel_value(kernel, k / h) / (n - k if unbiased else n) * (0.5 if k == 0 else 1.0)
            out[r] += w * (cross + cross.T)
    return out


@PROPERTY
@given(cases(), st.lists(st.floats(0.5, 15.0), min_size=0, max_size=2), BOTH_PATHS)
def test_window_sums_match_the_lag_products_and_the_naive_oracle(case, more_h, threshold):
    sample, kernel, unbiased = case["sample"], case["kernel"], case["unbiased"]
    h_values = [case["h"], *more_h]
    n = sample.n_obs
    y = sample.values - sample.values.mean(axis=0)
    weights = estimator._lag_weights(kernel, h_values, n, unbiased)
    with mock.patch.object(estimator, "_FFT_MIN_WORK", threshold):
        a = estimator._window_sums(y, weights)
    lagged = np.tensordot(weights, estimator.lag_products(y, weights.shape[1] - 1), axes=1)
    scaled = dict(case, h=max(h_values))  # the widest window bounds the terms summed
    for r, h in enumerate(h_values):
        got = a[r] + a[r].T
        assert np.array_equal(got, got.T)
        assert_close(got, lagged[r] + lagged[r].T, scaled, 1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = estimate_lrcov_naive(sample, kernel, h, unbiased=unbiased).surface.values
        assert_close(got, want, scaled, 1e-10)


@PROPERTY
@given(cases(), BOTH_PATHS)
def test_estimate_on_either_path_matches_naive_oracle(case, threshold):
    with mock.patch.object(estimator, "_FFT_MIN_WORK", threshold):
        got = estimate(case).surface.values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = estimate_lrcov_naive(
            case["sample"], case["kernel"], case["h"], unbiased=case["unbiased"]
        ).surface.values
    assert np.array_equal(got, got.T)
    assert_close(got, want, case, 1e-10)


@PROPERTY
@given(cases(), st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_spectral_density_agrees_across_the_crossover(case, omega):
    def density(threshold):
        with mock.patch.object(estimator, "_FFT_MIN_WORK", threshold), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            f = estimate_spectral_density(
                case["sample"], case["kernel"], case["h"], omega, unbiased=case["unbiased"]
            )
        return f.real_part.values, f.imag_part.values

    (re_fft, im_fft), (re_lag, im_lag) = density(0), density(10**9)
    assert np.array_equal(re_fft, re_fft.T) and np.array_equal(im_fft, -im_fft.T)
    assert_close(re_fft, re_lag, case, 1e-10)
    assert_close(im_fft, im_lag, case, 1e-10)
    if omega == 0.0:
        assert np.all(im_fft == 0.0)


MC_DGPS = (
    DgpSpec(kind="iid", sigmas=(1.0, 0.5)),
    DgpSpec(kind="fma", sigmas=(1.0, 0.6), theta=(0.5,)),
)


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(MC_DGPS),
    st.sampled_from(("bartlett", "parzen", "tukey-hanning")),
    st.integers(8, 40),
    st.integers(3, 5),  # two basis components need three grid points
    st.lists(st.floats(0.5, 12.0), min_size=3, max_size=4, unique=True),
    st.integers(0, 2**16),
    BOTH_PATHS,
)
def test_mc_h_grids_match_a_lag_product_reference(dgp, name, n, g, h_values, seed, threshold):
    kernel, grid, reps = make_kernel(name), Grid(g), 4
    samples = [generate(dgp, n, grid, replication_rng(seed, r)).values for r in range(reps)]
    c_true = truth(dgp, grid, kernel).c.values
    with mock.patch.object(estimator, "_FFT_MIN_WORK", threshold), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spec = ExperimentSpec(
            dgp=dgp, kernel=kernel, n_obs=n, grid=grid, h_rule=BandwidthRule("fixed", value=1.0),
            replications=reps, master_seed=seed,
        )
        report = bias_rate_check(spec, h_values, reps)
        curve = mse_curve(spec, h_values, reps)

    h_sorted = sorted(h_values)
    ests = np.array([lag_window_reference(y, kernel, h_sorted, True) for y in samples])
    mean = ests.mean(axis=0)
    err_raw = np.sqrt(np.sum((mean - c_true) ** 2, axis=(1, 2))) / g
    noise = np.sqrt(np.sum(ests.var(axis=0, ddof=1), axis=(1, 2)) / reps) / g
    assert [p.h for p in report.points] == h_sorted
    assert [p.err_raw for p in report.points] == pytest.approx(list(err_raw), rel=1e-12)
    assert [p.noise_sd for p in report.points] == pytest.approx(list(noise), rel=1e-12)

    centered = [lag_window_reference(y - y.mean(axis=0), kernel, h_values, False) for y in samples]
    mse = np.mean([np.sum((e - c_true) ** 2, axis=(1, 2)) / g**2 for e in centered], axis=0)
    assert [h for h, _ in curve] == h_values
    assert [v for _, v in curve] == pytest.approx(list(mse), rel=1e-12)


@pytest.mark.parametrize("threshold, fft", [(0, True), (10**9, False)])
@pytest.mark.parametrize("lags, g", [(0, 1), (15, 6), (32, 3)])
def test_the_patch_point_sends_every_window_down_one_path(threshold, fft, lags, g):
    # the shortest window, the longest and widest the properties above draw, and the
    # longest of mc-verify's score stacks
    rng = np.random.default_rng(lags + g)
    y = rng.standard_normal((40, g))
    weights = rng.standard_normal((2, lags + 1))
    with mock.patch.object(estimator, "_FFT_MIN_WORK", threshold):
        for args in ((y, weights), (y[None], weights)):
            with mock.patch("numpy.fft.rfft", wraps=np.fft.rfft) as rfft:
                estimator._window_sums(*args)
            assert rfft.called == fft


@pytest.mark.parametrize("j, lags", [(3, 4), (3, 8), (3, 12), (3, 32), (1, 12)])
def test_monte_carlo_windows_keep_the_bits_of_lag_products(j, lags):
    # component-major score stacks as mc-verify holds them: J = 3 with the A4 config's
    # windows and its bias_check h up to 32, and the scalar A2 config
    rng = np.random.default_rng(10 * j + lags)
    y = rng.standard_normal((4, j, 2000)).swapaxes(1, 2)
    weights = rng.standard_normal((2, lags + 1))
    for s, a in zip(y, estimator._window_sums(y, weights)):
        want = np.tensordot(weights, estimator.lag_products(s[None], lags)[0], axes=1)
        assert a.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, unbiased", [("bartlett", False), ("parzen", True)])
def test_a_wide_short_window_matches_the_naive_oracle(name, unbiased):
    # G = 64 at L = 8, a short window of a wide sample, on whichever path the crossover picks
    n, g, h = 50, 64, 8.5
    rng = np.random.default_rng(64)
    y = rng.normal(size=(n, g)).cumsum(axis=0) * 0.1 + rng.normal(size=g) * 10.0
    sample, kernel = CurveSample(Grid(g), y), make_kernel(name)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # h^2 > N for Parzen
        got = estimate_lrcov(sample, kernel, h, unbiased=unbiased).surface.values
        want = estimate_lrcov_naive(sample, kernel, h, unbiased=unbiased).surface.values
    assert np.array_equal(got, got.T)
    assert_close(got, want, {"sample": sample, "h": h}, 1e-10)


def test_long_window_takes_the_fft_path_and_matches_direct_lag_sums():
    n, g, h = 3000, 4, 200.0
    assert estimator._takes_fft(int(h), g)  # past the default crossover, no patching
    y = np.random.default_rng(2024).normal(size=(n, g)).cumsum(axis=0) * 0.05
    sample = CurveSample(Grid(g), y)
    yc = y - y.mean(axis=0)
    case = {"sample": sample, "h": h}
    for name, unbiased in (("bartlett", False), ("parzen", True), ("tukey-hanning", False)):
        kernel = make_kernel(name)
        want = lag_window_reference(yc, kernel, [h], unbiased)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # h^2 > N for the smooth kernels
            got = estimate_lrcov(sample, kernel, h, unbiased=unbiased).surface.values
        assert np.array_equal(got, got.T)
        assert_close(got, want, case, 1e-10)
    kernel, omega = make_kernel("bartlett"), math.pi / 8
    lags = np.arange(int(h) + 1)
    w = kernel_value(kernel, lags / h) / n
    w[0] *= 0.5
    re = np.zeros((g, g))
    im = np.zeros((g, g))
    for k in lags:
        cross = yc[: n - k].T @ yc[k:]
        re += w[k] * math.cos(omega * k) * (cross + cross.T)
        im += w[k] * math.sin(omega * k) * (cross.T - cross)
    f = estimate_spectral_density(sample, kernel, h, omega)
    assert_close(f.real_part.values * 2.0 * math.pi, re, case, 1e-10)
    assert_close(f.imag_part.values * 2.0 * math.pi, im, case, 1e-10)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(64, 100),  # L, at least the default crossover
    st.integers(1, 60),  # N - L
    st.integers(1, 19),  # G: one column, whole blocks of columns, or a partial last block
    st.sampled_from(KERNEL_NAMES),
    st.booleans(),
    st.integers(1, 3),  # weight rows: kernel, then sine, then cosine
    st.floats(0.1, 3.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from((16, 4096, 1 << 30)),  # GEMM chunks of one bin, a few bins, every bin
)
@example(64, 7, 1, "bartlett", False, 1, 1.0, 0, 4096)  # m = 135: odd, no Nyquist bin
@example(64, 16, 9, "parzen", True, 3, 0.5, 1, 16)  # m = 144: even, a Nyquist bin
def test_fft_window_sums_match_lag_products_and_the_naive_oracle(
    max_lag, extra, g, name, unbiased, rows, omega, seed, chunk_bytes
):
    n = max_lag + extra
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n, g)) + rng.normal(size=g) * 10.0  # far from centred
    mean = y.mean(axis=0)
    sample, kernel, h = CurveSample(Grid(g), y), make_kernel(name), max_lag + 0.5
    w = estimator._lag_weights(kernel, [h], n, unbiased)[0]
    phase = omega * np.arange(len(w))
    weights = np.stack([w, w * np.sin(phase), w * np.cos(phase)])[:rows]
    with mock.patch.object(estimator, "_FFT_CHUNK_BYTES", chunk_bytes), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # h^q > N for the smooth kernels
        a = estimator._window_sums(y, weights, mean)
        assert np.array_equal(a, estimator._window_sums(y - mean, weights))
        surface = estimate_lrcov(sample, kernel, h, unbiased=unbiased).surface.values
        assert np.array_equal(surface, estimator._window_surfaces(y - mean, weights[:1])[0])
        naive = estimate_lrcov_naive(sample, kernel, h, unbiased=unbiased).surface.values
    lagged = np.tensordot(weights, estimator.lag_products(y - mean, max_lag), axes=1)
    case = {"sample": sample, "h": h}
    for got, want in zip(a, lagged):
        assert_close(got, want, case, 1e-10)
    assert_close(a[0] + a[0].T, naive, case, 1e-10)


# ------------------------------------------------ extreme bandwidths and scales


def powers_of_ten(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


@PROPERTY
@given(
    st.sampled_from(KERNEL_NAMES),
    powers_of_ten(-3.0, 300.0),  # h
    powers_of_ten(-100.0, 300.0),  # the scale of the curves; at N <= 30 column means stay finite
    st.integers(2, 30),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@example("parzen", 1e300, 1.0, 20, 2, 0)  # h^2 overflows
@example("bartlett", 4.0, 1e100, 20, 2, 0)  # curves whose constants' squares pass a double
@example("bartlett", 4.0, 1e154, 20, 2, 0)  # window sums that overflow, refused without a warning
@example("parzen", 1.0, 10**153.5, 2, 3, 2)  # a pilot surface whose entries pass 2^1023
@example("parzen", 10.0, 10**153.5, 4, 2, 2)  # a finite bias sum times Parzen's constant 6
def test_any_bandwidth_and_scale_return_or_raise_a_package_error(name, h, scale, n, g, seed):
    sample = CurveSample(Grid(g), np.random.default_rng(seed).normal(size=(n, g)) * scale)
    kernel = make_kernel(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a raw numpy RuntimeWarning fails the test
        warnings.simplefilter("ignore", UserWarning)  # lrcov's own: h < 1, h^q > N, fallback
        for call in (estimate_lrcov, plugin_bandwidth, partial(estimate_spectral_density, omega=1.0)):
            try:
                call(sample, kernel, h)
            except LrcovError:
                pass


@PROPERTY
@given(
    st.sampled_from(("bartlett", "parzen", "tukey-hanning")),
    st.integers(-330, 330),  # 2^k, about 1e-100 to 1e100
    powers_of_ten(-100.0, 100.0),
    st.integers(0, 2**32 - 1),
)
@example("bartlett", 332, 1e100, 0)  # constants whose squares would overflow a double
@example("bartlett", -332, 1e-100, 0)  # a pilot integral whose square would underflow to 0
def test_plugin_h_is_scale_free(name, k, scale, seed):
    y = np.random.default_rng(seed).normal(size=(200, 3))
    kernel = make_kernel(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no fallback warning at any scale
        want = plugin_bandwidth(CurveSample(Grid(3), y), kernel)
        by_two = plugin_bandwidth(CurveSample(Grid(3), y * 2.0**k), kernel)
        by_ten = plugin_bandwidth(CurveSample(Grid(3), y * scale), kernel)
    assert not want.fallback and not by_two.fallback and not by_ten.fallback
    assert by_two.bandwidth.h == want.bandwidth.h  # a power of two changes no rounding
    assert by_ten.bandwidth.h == pytest.approx(want.bandwidth.h, rel=1e-12)


# ------------------------------------------------ Monte Carlo in score coordinates


@st.composite
def score_cases(draw):
    """An experiment over any process kind, with J <= G basis components, and its settings."""
    kind = draw(st.sampled_from(("iid", "fma", "far1")))
    # distinct on a 0.01 lattice: the spec refuses eigen levels whose eigenvalues tie
    hundredths = draw(st.lists(st.integers(10, 200), min_size=1, max_size=4, unique=True))
    sigmas = [k / 100 for k in hundredths]
    extra = {
        # 1 + sum(theta) = 0 zeroes every eigenvalue, a tie the spec refuses
        "fma": {"theta": draw(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=2)
                              .filter(lambda theta: abs(1 + sum(theta)) > 0.01))},
        "far1": {"rho": draw(st.floats(-0.9, 0.9))},
    }.get(kind, {})
    g = 2 * (len(sigmas) // 2) + 1 + draw(st.integers(0, 4))  # the basis must resolve on G
    h = draw(st.one_of(st.floats(0.5, 12.0), st.floats(64.0, 120.0)))  # the latter: FFT path
    kernel = make_kernel(draw(st.sampled_from(("bartlett", "parzen", "tukey-hanning"))))
    plugin = draw(st.booleans())
    spec = ExperimentSpec(
        dgp=DgpSpec(kind=kind, sigmas=tuple(sigmas), **extra),
        kernel=kernel,
        n_obs=draw(st.integers(8, 160)),
        grid=Grid(g),
        h_rule=BandwidthRule("plugin") if plugin else BandwidthRule("fixed", value=h),
        replications=8,
        projections=(
            Surface(Grid(g), np.ones((g, g))),
            Surface(Grid(g), np.random.default_rng(g).normal(size=(g, g))),
        ),
        eigen_levels=tuple(range(1, len(sigmas) + 1)),
        master_seed=draw(st.integers(0, 2**16)),
    )
    return spec, h, draw(st.booleans()), draw(st.booleans())


@PROPERTY
@given(score_cases())
@example(
    (
        ExperimentSpec(
            dgp=DgpSpec(kind="fma", sigmas=(1.0, 0.5, 0.3), theta=(0.5,)),
            kernel=make_kernel("parzen"),
            n_obs=150,
            grid=Grid(5),
            h_rule=BandwidthRule("fixed", value=90.0),
            replications=8,
            eigen_levels=(1, 2, 3),
        ),
        90.0,
        True,
        False,
    )
)
def test_score_path_matches_the_library_on_the_generated_sample(case):
    spec, h, unbiased, centered = case
    n, g, kernel = spec.n_obs, spec.grid.n_points, spec.kernel
    weights = estimator._lag_weights(kernel, [h], n, unbiased)
    reps = range(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short samples trip the rate and fallback warnings
        got_h, got_proj, got_lam = mc._replicate_range(spec, reps)[:3]
        got_est = mc._window_estimates((spec, weights, centered), reps)
        for r in reps:
            sample = generate(spec.dgp, n, spec.grid, replication_rng(spec.master_seed, r))
            y = sample.values - sample.values.mean(axis=0)
            # an h-grid row, centered or not, against the window sums of the sample
            if centered:
                want = estimate_lrcov(sample, kernel, h, unbiased=unbiased).surface.values
            else:
                a = estimator._window_sums(sample.values, weights)[0]
                want = a + a.T
            raw = y if centered else sample.values
            scale = float(np.max(np.abs(raw))) ** 2 * (min(n - 1, h) + 1)
            assert float(np.max(np.abs(got_est[r][0] - want))) <= 1e-10 * scale
            # a replication: its bandwidth, projections and eigenvalues
            bw, _ = spec.h_rule.resolve(sample, kernel)
            assert got_h[r] == pytest.approx(bw.h, rel=1e-10, abs=0)
            est = estimate_lrcov(sample, kernel, bw).surface.values
            scale = float(np.max(np.abs(y))) ** 2 * (min(n - 1, bw.h) + 1)
            for j, f in enumerate(spec.projections):
                want = np.sum(est * f.values) / g**2
                assert abs(got_proj[r, j] - want) <= 1e-10 * scale * np.max(np.abs(f.values))
            lam = eigendecompose(Surface(spec.grid, est)).eigenvalues[: len(spec.eigen_levels)]
            assert float(np.max(np.abs(got_lam[r] - lam))) <= 1e-10 * scale


@PROPERTY
@given(
    st.sampled_from(["iid", "fma", "far1"]),
    st.integers(2, 60),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_a_score_stack_holds_each_streams_single_draw(kind, n, j, b, seed):
    rng = np.random.default_rng(seed)
    extra = {
        "iid": {},
        "fma": {"theta": tuple(rng.uniform(-1.0, 1.0, int(rng.integers(1, 4))))},
        "far1": {"rho": float(rng.uniform(-0.9, 0.9))},
    }[kind]
    spec = DgpSpec(kind, tuple(rng.uniform(0.1, 2.0, j)), **extra)
    stack = _scores(spec, n, [replication_rng(seed, r) for r in range(b)])
    assert stack.shape == (b, j, n) and stack.flags.c_contiguous  # each series contiguous
    for r in range(b):
        assert stack[r].tobytes() == _scores(spec, n, [replication_rng(seed, r)])[0].tobytes()


@PROPERTY
@given(
    st.sampled_from([("iid", {}), ("fma", {"theta": (0.5,)}), ("fma", {"theta": (0.5, -0.3)}),
                     ("far1", {"rho": 0.6})]),
    st.integers(2, 40),
    st.integers(1, 4),
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
@example(("fma", {"theta": (0.5, -0.3)}), 30, 3, [6, 2], 0)  # long, then short: a stale tail shows
def test_stacks_drawn_into_one_work_dict_match_fresh_draws(kind_extra, n, j, sizes, seed):
    kind, extra = kind_extra
    spec = DgpSpec(kind, tuple(np.random.default_rng(seed).uniform(0.1, 2.0, j)), **extra)
    grid = Grid(2 * j + 1)
    phi = fourier_basis(grid, j)
    work, start = {}, 0
    for b in [*sizes, max(sizes) + 2, 1]:  # grows, shrinks, then a long stack and a stack of one
        reps = range(start, start + b)
        start += b
        got = _scores(spec, n, [replication_rng(seed, r) for r in reps], work)
        assert np.shares_memory(got, work["out"])  # drawn into the work arrays
        want = _scores(spec, n, [replication_rng(seed, r) for r in reps])
        assert got.shape == (b, j, n) and got.tobytes() == want.tobytes()
        for r, s in zip(reps, got):
            sample = generate(spec, n, grid, replication_rng(seed, r))
            assert sample.values.tobytes() == (s.T @ phi).tobytes()


@PROPERTY
@given(st.integers(1, 32), st.integers(1, 3), st.integers(1, 70), st.integers(0, 2**16))
def test_block_projections_round_each_row_as_a_sum_of_its_own(g, n_proj, count, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(g)
    spec = ExperimentSpec(
        dgp=DgpSpec("iid", (1.0,)), kernel=make_kernel("bartlett"), n_obs=12, grid=grid,
        h_rule=BandwidthRule("fixed", value=2.0), replications=count + 8, master_seed=seed,
        projections=tuple(Surface(grid, rng.standard_normal((g, g))) for _ in range(n_proj)),
    )
    surfaces = []

    def recording(*args):  # the block's surfaces, as _replicate_range stores them
        out = estimator._window_surfaces(*args)
        surfaces.extend(out[:, 0])
        return out
    with mock.patch.object(mc, "_window_surfaces", recording):
        projs = mc._replicate_range(spec, range(count))[1]
    assert len(surfaces) == count
    want = np.array([[np.sum(v * f.values) for f in spec.projections] for v in surfaces]) / g**2
    assert projs.tobytes() == want.tobytes()


@PROPERTY
@given(
    st.sampled_from(["iid", "fma", "far1"]),
    st.integers(8, 160),
    st.integers(1, 4),
    st.one_of(st.floats(0.5, 30.0), st.floats(64.0, 120.0)),  # the latter: FFT path
    st.sampled_from(("bartlett", "parzen", "tukey-hanning")),
    st.integers(1, 5),
    st.integers(0, 2**16),
)
def test_component_major_stacks_match_2d_lag_products_and_the_naive_oracle(
    kind, n, j, h, name, b, seed
):
    rng = np.random.default_rng(seed)
    extra = {"iid": {}, "fma": {"theta": (0.5, -0.3)}, "far1": {"rho": float(rng.uniform(-0.9, 0.9))}}
    kernel, g = make_kernel(name), 2 * (j // 2) + 1 + int(rng.integers(0, 3))
    spec = ExperimentSpec(
        dgp=DgpSpec(kind, tuple(rng.uniform(0.1, 2.0, j)), **extra[kind]), kernel=kernel, n_obs=n,
        grid=Grid(g), h_rule=BandwidthRule("fixed", value=h), replications=2, master_seed=seed,
    )
    weights = estimator._lag_weights(kernel, [h], n, False)
    lags = weights.shape[1] - 1
    stack = _scores(spec.dgp, n, [replication_rng(seed, r) for r in range(b)])
    y = (stack - stack.mean(axis=2, keepdims=True)).swapaxes(1, 2)  # as a block centres it
    if not estimator._takes_fft(lags, y.shape[-1]):
        # the stack's window sums against the 2-D products of the same (N, J) scores
        got = estimator._window_sums(y, weights)[:, 0]
        for r in range(b):
            s = np.ascontiguousarray(y[r])
            want = np.tensordot(weights, estimator.lag_products(s, lags), axes=1)[0]
            bound = np.tensordot(np.abs(weights), estimator.lag_products(np.abs(s), lags), axes=1)[0]
            assert np.all(np.abs(got[r] - want) <= 1e-13 * bound)
    # the surfaces on the grid against the naive oracle on the generated sample
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short samples trip the rate warnings
        got = mc._window_estimates((spec, weights, True), range(b))
        for r in (0, b - 1):
            sample = generate(spec.dgp, n, spec.grid, replication_rng(seed, r))
            want = estimate_lrcov_naive(sample, kernel, h).surface.values
            case = {"sample": sample, "h": h}
            assert_close(got[r][0], want, case, 1e-10)


# ------------------------------------------- power-of-two rescaling keeps the bits


def former_l2_norm(s: Surface) -> float:
    """The norm as it was computed before every norm was rescaled: plain from 1e-150 to inf."""
    g = s.grid.n_points
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(s.values))
    if not 1e-150 <= norm < math.inf and np.any(s.values):
        e = math.frexp(float(np.max(np.abs(s.values))))[1]
        return math.ldexp(float(np.linalg.norm(np.ldexp(s.values, -e))) / g, e)
    return norm / g


def former_projection_variance(c: Surface, kernel, f: Surface) -> float:
    """The projection-variance limit from the plain, unscaled sums."""
    fv = f.values
    cfc = c.values @ fv @ c.values
    pairs = float(np.sum(cfc * fv)) + float(np.sum(cfc * fv.T))
    return kernel.square_integral * pairs / fv.shape[0] ** 4


@st.composite
def scaled_values(draw, max_g: int, low: float, high: float):
    """A (G, G) normal draw times one power of ten in [low, high], per entry or for all; or zeros."""
    g = draw(st.integers(1, max_g))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["one", "mixed", "zero"]))
    if kind == "zero":
        return np.zeros((g, g))
    powers = rng.uniform(low, high, size=(g, g) if kind == "mixed" else ())
    return rng.standard_normal((g, g)) * 10.0**powers


@settings(max_examples=200, deadline=None)
@given(scaled_values(39, -300.0, 300.0))
def test_surface_norm_keeps_the_bits_of_the_former_formula(values):
    s = Surface(Grid(values.shape[0]), values)
    assert l2_norm_surface(s) == former_l2_norm(s)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(0, 2**32 - 1),
    st.floats(-30.0, 30.0),
    st.floats(-30.0, 30.0),
    st.sampled_from(KERNEL_NAMES),
    st.booleans(),
)
def test_projection_variance_keeps_the_bits_of_the_plain_sums(g, seed, c_power, f_power, name, sym):
    rng = np.random.default_rng(seed)
    m, fv = rng.standard_normal((g, g)), rng.standard_normal((g, g)) * 10.0**f_power
    grid, kernel = Grid(g), make_kernel(name)
    c = Surface(grid, (m @ m.T) * 10.0**c_power)
    f = Surface(grid, fv + fv.T if sym else fv)
    assert predicted_projection_variance(c, kernel, f) == former_projection_variance(c, kernel, f)
