import math

import numpy as np
import pytest
from scipy.integrate import quad

from lrcov import KERNEL_NAMES, KernelSpecError, kernel_value, make_kernel


def all_kernels():
    return [make_kernel(name) for name in KERNEL_NAMES]


def test_kernel_names():
    assert set(KERNEL_NAMES) == {"bartlett", "parzen", "tukey-hanning", "flat-top"}


def test_unknown_kernel_refused():
    with pytest.raises(KernelSpecError):
        make_kernel("quadratic-spectral")


def test_flat_top_width_validated():
    with pytest.raises(KernelSpecError):
        make_kernel("flat-top", flat_width=1.0)
    with pytest.raises(KernelSpecError):
        make_kernel("flat-top", flat_width=0.0)


def test_bartlett_values():
    k = make_kernel("bartlett")
    assert kernel_value(k, 0.0) == 1.0
    assert kernel_value(k, 0.5) == 0.5
    assert kernel_value(k, -0.5) == 0.5
    assert kernel_value(k, 1.0) == 0.0
    assert k.char_exponent == 1
    assert k.char_coefficient == -1.0
    assert k.square_integral == pytest.approx(2.0 / 3.0)


def test_parzen_values():
    k = make_kernel("parzen")
    assert kernel_value(k, 0.0) == 1.0
    # closed-form branches meet at |u| = 1/2
    assert kernel_value(k, 0.5) == pytest.approx(2.0 * 0.5**3)
    assert kernel_value(k, 0.25) == pytest.approx(1 - 6 * 0.25**2 + 6 * 0.25**3)
    assert kernel_value(k, 0.75) == pytest.approx(2.0 * (1 - 0.75) ** 3)
    assert k.char_exponent == 2
    assert k.char_coefficient == -6.0
    assert k.square_integral == pytest.approx(151.0 / 280.0)


def test_tukey_hanning_values():
    k = make_kernel("tukey-hanning")
    assert kernel_value(k, 0.0) == 1.0
    assert kernel_value(k, 0.5) == pytest.approx(0.5)
    assert kernel_value(k, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert k.char_exponent == 2
    assert k.char_coefficient == pytest.approx(-math.pi**2 / 4.0)
    assert k.square_integral == pytest.approx(0.75)


def test_flat_top_values():
    k = make_kernel("flat-top", flat_width=0.5)
    assert kernel_value(k, 0.3) == 1.0
    assert kernel_value(k, 0.5) == 1.0
    assert kernel_value(k, 0.75) == pytest.approx(0.5)
    assert kernel_value(k, 1.0) == 0.0
    assert math.isinf(k.char_exponent)
    assert k.square_integral == pytest.approx(2 * 0.5 + 2 * (1 - 0.5) / 3.0)


def test_symmetry_and_support_random_points():
    rng = np.random.default_rng(1)
    for k in all_kernels():
        u = rng.uniform(-2 * k.support_radius, 2 * k.support_radius, size=1000)
        vals_pos = kernel_value(k, u)
        vals_neg = kernel_value(k, -u)
        assert np.array_equal(vals_pos, vals_neg)
        outside = np.abs(u) > k.support_radius
        assert np.all(vals_pos[outside] == 0.0)


def test_value_at_origin_is_one():
    for k in all_kernels():
        assert kernel_value(k, 0.0) == 1.0


def test_lipschitz_bound_on_sampled_pairs():
    # steepest slope of each profile: Parzen's 12u - 18u^2 peaks at u = 1/3,
    # Tukey-Hanning's (pi/2) sin(pi u) at u = 1/2, flat-top's ramp is 1/(1 - rho)
    bounds = {"bartlett": 1.0, "parzen": 2.0, "tukey-hanning": math.pi / 2.0}
    rng = np.random.default_rng(8)
    for k in all_kernels():
        bound = bounds.get(k.name, 1.0 / (1.0 - k.flat_width))
        u = rng.uniform(-k.support_radius, k.support_radius, size=500)
        v = rng.uniform(-k.support_radius, k.support_radius, size=500)
        lhs = np.abs(kernel_value(k, u) - kernel_value(k, v))
        assert np.all(lhs <= bound * np.abs(u - v) + 1e-12)


def test_square_integral_matches_quadrature():
    for k in all_kernels():
        # integrate the smooth pieces separately; kinks sit at +-1/2 and +-rho
        breaks = sorted({-1.0, -0.5, 0.0, 0.5, 1.0, -k.flat_width, k.flat_width}
                        if not math.isnan(k.flat_width)
                        else {-1.0, -0.5, 0.0, 0.5, 1.0})
        total = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            part, _ = quad(lambda x: float(kernel_value(k, x)) ** 2, a, b, epsabs=1e-12)
            total += part
        assert abs(total - k.square_integral) <= 1e-8


def flatness_coefficient(spec, probes=(1e-2, 1e-3, 1e-4)):
    """lim (K(x) - 1) / x^q at x -> 0, with the geometric error extrapolated away (Aitken)."""
    x = np.asarray(probes, dtype=float)
    r1, r2, r3 = (kernel_value(spec, x) - 1.0) / x**spec.char_exponent
    d1, d2 = r2 - r1, r3 - r2
    if abs(d2 - d1) <= 1e-12 * max(abs(r3), 1.0):
        return float(r3)
    return float(r3 - d2 * d2 / (d2 - d1))


def test_char_exponent_check_agrees():
    expected = {"bartlett": -1.0, "parzen": -6.0, "tukey-hanning": -math.pi**2 / 4.0}
    for name, coefficient in expected.items():
        spec = make_kernel(name)
        assert spec.char_coefficient == coefficient
        assert flatness_coefficient(spec) == pytest.approx(coefficient, rel=0.01)


def test_char_exponent_check_refuses_flat_top():
    spec = make_kernel("flat-top")
    assert math.isinf(spec.char_exponent) and math.isnan(spec.char_coefficient)
    # flat of every order: K is exactly 1 on the plateau, so no finite q fits
    x = np.array([1e-2, 1e-3, 1e-4, spec.flat_width])
    assert np.all(kernel_value(spec, x) == 1.0)
