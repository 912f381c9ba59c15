import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrcov import (
    Curve,
    DimensionError,
    Grid,
    Surface,
    apply_operator,
    curve_integral,
    fourier_basis,
    inner_product,
    l2_norm_curve,
    l2_norm_surface,
    surface_integral,
)


def test_grid_midpoints():
    g = Grid(4)
    assert_allclose(g.points, [0.125, 0.375, 0.625, 0.875])
    assert g.weight == 0.25
    assert np.all(np.diff(g.points) > 0)
    assert np.all((g.points > 0) & (g.points < 1))


def test_grid_requires_positive_count():
    with pytest.raises(DimensionError):
        Grid(0)


def test_inner_product_constants():
    g = Grid(10)
    one = Curve(g, np.ones(10))
    assert inner_product(one, one) == pytest.approx(1.0)
    g4 = Grid(4)
    two = Curve(g4, np.full(4, 2.0))
    three = Curve(g4, np.full(4, 3.0))
    assert inner_product(two, three) == pytest.approx(6.0)


def test_inner_product_sparse_vectors():
    g = Grid(4)
    f = Curve(g, np.array([1.0, 0, 0, 0]))
    h = Curve(g, np.array([4.0, 0, 0, 0]))
    assert inner_product(f, h) == pytest.approx(1.0)


def test_inner_product_grid_mismatch():
    with pytest.raises(DimensionError):
        inner_product(Curve(Grid(4), np.ones(4)), Curve(Grid(5), np.ones(5)))


def test_inner_product_symmetric_bilinear():
    rng = np.random.default_rng(2)
    g = Grid(16)
    f = Curve(g, rng.normal(size=16))
    h = Curve(g, rng.normal(size=16))
    k = Curve(g, rng.normal(size=16))
    assert inner_product(f, h) == pytest.approx(inner_product(h, f), rel=1e-14)
    combo = Curve(g, 2.0 * h.values - 3.0 * k.values)
    assert inner_product(f, combo) == pytest.approx(
        2.0 * inner_product(f, h) - 3.0 * inner_product(f, k), rel=1e-12
    )


def test_surface_norm_examples():
    g = Grid(3)
    assert l2_norm_surface(Surface(g, np.zeros((3, 3)))) == 0.0
    assert l2_norm_surface(Surface(g, np.full((3, 3), 3.0))) == pytest.approx(3.0)
    g2 = Grid(2)
    assert l2_norm_surface(Surface(g2, np.eye(2))) == pytest.approx(np.sqrt(0.5))


def test_curve_norm_and_integrals():
    g = Grid(5)
    c = Curve(g, np.full(5, 2.0))
    assert l2_norm_curve(c) == pytest.approx(2.0)
    assert curve_integral(c) == pytest.approx(2.0)
    s = Surface(g, np.full((5, 5), 1.5))
    assert surface_integral(s) == pytest.approx(1.5)


def test_apply_operator_examples():
    g = Grid(8)
    ones = Surface(g, np.ones((8, 8)))
    f = Curve(g, np.ones(8))
    assert_allclose(apply_operator(ones, f).values, np.ones(8))
    zero = Surface(g, np.zeros((8, 8)))
    assert_allclose(apply_operator(zero, f).values, np.zeros(8))


def test_apply_operator_rank_one_projector():
    # S(t,s) = phi(t)phi(s) with ||phi|| = 1 maps phi to itself
    g = Grid(64)
    phi = np.sqrt(2.0) * np.sin(2.0 * np.pi * g.points)
    s = Surface(g, np.outer(phi, phi))
    out = apply_operator(s, Curve(g, phi))
    assert_allclose(out.values, phi, atol=1e-10)


def test_apply_operator_linear():
    rng = np.random.default_rng(5)
    g = Grid(12)
    s = Surface(g, rng.normal(size=(12, 12)))
    f = Curve(g, rng.normal(size=12))
    h = Curve(g, rng.normal(size=12))
    a, b = 2.5, -1.25
    combo = Curve(g, a * f.values + b * h.values)
    lhs = apply_operator(s, combo).values
    rhs = a * apply_operator(s, f).values + b * apply_operator(s, h).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (
        (abs(a) * l2_norm_curve(f) + abs(b) * l2_norm_curve(h))
        * np.max(np.abs(s.values))
        * g.n_points
    )


def test_symmetric_operator_self_adjoint():
    rng = np.random.default_rng(11)
    g = Grid(10)
    m = rng.normal(size=(10, 10))
    s = Surface(g, m + m.T)
    f = Curve(g, rng.normal(size=10))
    h = Curve(g, rng.normal(size=10))
    lhs = inner_product(apply_operator(s, f), h)
    rhs = inner_product(f, apply_operator(s, h))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_fourier_basis_first_is_constant():
    g = Grid(32)
    basis = fourier_basis(g, 1)
    assert len(basis) == 1
    assert_allclose(basis[0].values, np.ones(32))


def test_fourier_basis_orthonormal():
    g = Grid(64)
    basis = fourier_basis(g, 3)
    assert inner_product(basis[1], basis[2]) == pytest.approx(0.0, abs=1e-6)
    assert inner_product(basis[1], basis[1]) == pytest.approx(1.0, abs=1e-6)


def test_fourier_basis_gram_identity():
    g = Grid(64)
    count = 16  # J <= G/4
    basis = fourier_basis(g, count)
    gram = np.array([[inner_product(a, b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(count))) <= 1e-6


def test_fourier_basis_refuses_underresolved():
    with pytest.raises(DimensionError):
        fourier_basis(Grid(4), 5)


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
        Curve(g, bad)
    with pytest.raises(DimensionError):
        Surface(g, np.full((3, 3), np.inf))

