"""Property tests of the lag-window estimators over random N, G, h, kernel and divisor."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcov import (
    KERNEL_NAMES,
    CurveSample,
    DgpSpec,
    GaussianNoiseSpec,
    Grid,
    bias_rate_check,
    estimate_lrcov,
    estimate_lrcov_naive,
    estimate_spectral_density,
    generate,
    kernel_value,
    make_kernel,
    mse_curve,
    plugin_bandwidth,
    replication_rng,
    truth,
)
from lrcov import estimator

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
    for i in range(1, min(n - 1, int(math.floor(kernel.support_radius * pilot_h))) + 1):
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

# _FFT_MIN_LAG values that send every window down one path: the FFT path, the lag products
BOTH_PATHS = st.sampled_from((0, 10**9))


def lag_window_reference(y, kernel, h_values, unbiased):
    """Each h's estimate from y as an explicit sum of its weighted lag cross products."""
    n, g = y.shape
    out = np.zeros((len(h_values), g, g))
    for r, h in enumerate(h_values):
        for k in range(min(n - 1, math.floor(kernel.support_radius * h)) + 1):
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
    with mock.patch.object(estimator, "_FFT_MIN_LAG", threshold):
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
    with mock.patch.object(estimator, "_FFT_MIN_LAG", threshold):
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
        with mock.patch.object(estimator, "_FFT_MIN_LAG", threshold), warnings.catch_warnings():
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
    DgpSpec(kind="iid", noise=GaussianNoiseSpec((1.0, 0.5))),
    DgpSpec(kind="fma", noise=GaussianNoiseSpec((1.0, 0.6)), theta=(0.5,)),
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
    with mock.patch.object(estimator, "_FFT_MIN_LAG", threshold), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = bias_rate_check(dgp, kernel, n, h_values, reps, grid, seed)
        curve = mse_curve(dgp, kernel, n, h_values, reps, grid, seed)

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


def test_long_window_takes_the_fft_path_and_matches_direct_lag_sums():
    n, g, h = 3000, 4, 200.0
    assert estimator._FFT_MIN_LAG <= h  # past the default crossover, no patching
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
