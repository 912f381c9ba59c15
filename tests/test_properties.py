"""Property tests of the lag-product estimators over random N, G, h, kernel and divisor."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcov import (
    KERNEL_NAMES,
    CurveSample,
    Grid,
    estimate_lrcov,
    estimate_lrcov_naive,
    estimate_spectral_density,
    kernel_value,
    make_kernel,
    plugin_bandwidth,
)

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
