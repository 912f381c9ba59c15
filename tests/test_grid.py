import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrcov import (
    ConfigError,
    DimensionError,
    EigenSystem,
    Grid,
    Surface,
    fourier_basis,
    l2_norm_surface,
    make_kernel,
    optimal_bandwidth,
    surface_integral,
)


def test_grid_midpoints():
    g = Grid(4)
    assert_allclose(g.points, [0.125, 0.375, 0.625, 0.875])
    assert np.all(np.diff(g.points) > 0)
    assert np.all((g.points > 0) & (g.points < 1))


def test_grid_requires_positive_count():
    with pytest.raises(DimensionError):
        Grid(0)


def test_surface_norm_examples():
    g = Grid(3)
    assert l2_norm_surface(Surface(g, np.zeros((3, 3)))) == 0.0
    assert l2_norm_surface(Surface(g, np.full((3, 3), 3.0))) == pytest.approx(3.0)
    g2 = Grid(2)
    assert l2_norm_surface(Surface(g2, np.eye(2))) == pytest.approx(np.sqrt(0.5))


def test_surface_norm_survives_squares_that_underflow_or_overflow():
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    for size in (1e-170, 1e-300, 5e-324, 1e200, 1e300, 1.7e308):
        assert l2_norm_surface(Surface(Grid(2), size * signs)) == size
    # ±1e-170 bias of a Bartlett rule: the norm is not 0, and the rule, which reads the
    # ratio of that norm to the integral of C = 1e-170, gives the h of the unit surfaces
    bias, c = Surface(Grid(2), 1e-170 * signs), Surface(Grid(2), np.full((2, 2), 1e-170))
    kernel = make_kernel("bartlett")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no rate-only fallback
        sel = optimal_bandwidth(c, bias, kernel, 1000)
        ones = Surface(Grid(2), np.ones((2, 2)))
        unit = optimal_bandwidth(ones, Surface(Grid(2), signs), kernel, 1000)
    assert sel.f_norm == 1e-170 and not sel.fallback
    assert sel.bandwidth.h == pytest.approx(unit.bandwidth.h, rel=1e-14)


def test_surface_norm_scales_exactly_by_powers_of_two():
    s = np.random.default_rng(3).uniform(-2.0, 2.0, size=(4, 4))
    base = l2_norm_surface(Surface(Grid(4), s))
    for k in range(-600, 1024):  # up to entries past 2^1023, whose scale 2^1024 is no double
        values = np.ldexp(s, k)
        got = l2_norm_surface(Surface(Grid(4), values))
        assert got == math.ldexp(base, k)
        with np.errstate(over="ignore"):
            unscaled = float(np.linalg.norm(values))
        if 1e-150 <= unscaled < math.inf:  # no rescaling: the bits of the plain norm
            assert got == unscaled / 4


def test_curve_norm_and_integrals():
    # a curve is a row of G values; under the midpoint rule its norm is sqrt(c @ c / G),
    # its integral c.sum() / G, and the surface c(t)c(s) has norm ||c||^2 and integral (int c)^2
    g = Grid(5)
    c = np.full(5, 2.0)
    assert np.sqrt(c @ c / g.n_points) == pytest.approx(2.0)
    assert c.sum() / g.n_points == pytest.approx(2.0)
    outer = Surface(g, np.outer(c, c))
    assert l2_norm_surface(outer) == pytest.approx(4.0)
    assert surface_integral(outer) == pytest.approx(4.0)
    s = Surface(g, np.full((5, 5), 1.5))
    assert surface_integral(s) == pytest.approx(1.5)


def test_fourier_basis_first_is_constant():
    g = Grid(32)
    basis = fourier_basis(g, 1)
    assert basis.shape == (1, 32)
    assert_allclose(basis[0], np.ones(32))


def test_fourier_basis_orthonormal():
    basis = fourier_basis(Grid(64), 3)
    assert basis[1] @ basis[2] / 64 == pytest.approx(0.0, abs=1e-6)
    assert basis[1] @ basis[1] / 64 == pytest.approx(1.0, abs=1e-6)


def test_fourier_basis_gram_identity():
    count = 16  # J <= G/4
    basis = fourier_basis(Grid(64), count)
    assert basis.shape == (count, 64)
    assert np.max(np.abs(basis @ basis.T / 64 - np.eye(count))) <= 1e-6


def test_fourier_basis_largest_count_is_orthonormal():
    # the largest basis below the Nyquist frequency G/2: G - 1 elements on an even grid
    for g in range(1, 65):
        count = g if g % 2 else g - 1
        basis = fourier_basis(Grid(g), count)
        assert np.max(np.abs(basis @ basis.T / g - np.eye(count))) <= 1e-13, g


def test_fourier_basis_refuses_underresolved():
    with pytest.raises(ConfigError, match="basis of size 5 is under-resolved on a 4-point grid"):
        fourier_basis(Grid(4), 5)
    # on an even grid the G-th element is the Nyquist cosine, zero at every midpoint
    for g in (2, 4, 16):
        with pytest.raises(ConfigError):
            fourier_basis(Grid(g), g)
    assert fourier_basis(Grid(5), 5).shape == (5, 5)


def test_surface_symmetry_flag():
    g = Grid(6)
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6))
    sym = Surface(g, m + m.T)
    assert sym.is_symmetric()
    assert not Surface(g, m + m.T + 1e-6 * np.triu(np.ones((6, 6)), 1)).is_symmetric()


def test_values_must_be_finite():
    g = Grid(3)
    bad = np.ones(3)
    bad[1] = np.nan
    with pytest.raises(DimensionError):
        EigenSystem(g, [1.0], bad[None, :])
    with pytest.raises(DimensionError):
        Surface(g, np.full((3, 3), np.inf))

