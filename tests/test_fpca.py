import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrcov import (
    Bandwidth,
    ContractViolationError,
    DimensionError,
    EigenSystem,
    Grid,
    SeparationError,
    Surface,
    align_sign,
    eigendecompose,
    eigenfunction_deviation_msd,
    eigenvalue_ci,
    eigenvalue_clt_params,
    fourier_basis,
    make_kernel,
)
from lrcov.fpca import _eigen_stack

BARTLETT = make_kernel("bartlett")


def spectrum_surface(grid, eigenvalues):
    """Sum of lambda_r phi_r phi_r^T over the first fourier modes."""
    basis = fourier_basis(grid, len(eigenvalues))
    vals = np.zeros((grid.n_points, grid.n_points))
    for lam, phi in zip(eigenvalues, basis):
        vals += lam * np.outer(phi, phi)
    return Surface(grid, vals)


def system(eigenvalues, grid=None):
    """EigenSystem with an exact spectrum over fourier eigenfunctions."""
    g = grid or Grid(32)
    basis = fourier_basis(g, len(eigenvalues))
    return EigenSystem(g, np.asarray(eigenvalues, dtype=float), basis)


def test_eigensystem_requires_count_by_grid_array():
    g = Grid(4)
    funcs = fourier_basis(g, 2)
    assert EigenSystem(g, [2.0, 1.0], funcs).eigenfunctions.shape == (2, 4)
    for bad in (funcs.T, funcs[:1], funcs[0], np.stack([funcs, funcs])):
        with pytest.raises(DimensionError):
            EigenSystem(g, [2.0, 1.0], bad)


def test_eigendecompose_is_a_row_of_the_stacked_eigensolve():
    # random symmetric surfaces, rank-3 ones as the Monte Carlo blocks build, and a zero one
    rng = np.random.default_rng(11)
    for g in (1, 5, 16):
        full = rng.normal(size=(9, g, g))
        basis = fourier_basis(Grid(g), min(3, g))
        scores = rng.normal(size=(9, len(basis), len(basis)))
        low = basis.T @ scores @ basis
        stack = np.concatenate([full, low, np.zeros((1, g, g))])
        stack = stack + stack.transpose(0, 2, 1)
        lam, funcs = _eigen_stack(stack)
        for i, values in enumerate(stack):
            es = eigendecompose(Surface(Grid(g), values))
            assert es.eigenvalues.tobytes() == lam[i].tobytes()
            assert es.eigenfunctions.tobytes() == funcs[i].tobytes()


def test_eigendecompose_rank_one():
    g = Grid(64)
    phi = np.sqrt(2.0) * np.sin(2.0 * np.pi * g.points)
    es = eigendecompose(Surface(g, 2.0 * np.outer(phi, phi)))
    assert es.eigenvalues[0] == pytest.approx(2.0, rel=1e-10)
    assert np.max(np.abs(es.eigenvalues[1:])) <= 1e-10
    v = es.eigenfunctions[0]
    sign = 1.0 if v @ phi > 0 else -1.0
    assert np.max(np.abs(sign * v - phi)) <= 1e-8


def test_eigendecompose_constant_surface():
    g = Grid(8)
    es = eigendecompose(Surface(g, np.ones((8, 8))))
    assert es.eigenvalues[0] == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(es.eigenvalues[1:])) <= 1e-12
    assert_allclose(np.abs(es.eigenfunctions[0]), np.ones(8), rtol=1e-10)


def test_eigendecompose_three_mode_spectrum():
    g = Grid(64)
    es = eigendecompose(spectrum_surface(g, (3.0, 2.0, 1.0)))
    assert_allclose(es.eigenvalues[:3], [3.0, 2.0, 1.0], atol=1e-6)
    assert np.max(np.abs(es.eigenvalues[3:])) <= 1e-6


def test_eigendecompose_rejects_asymmetric():
    g = Grid(3)
    with pytest.raises(ContractViolationError):
        eigendecompose(Surface(g, np.arange(9.0).reshape(3, 3)))


def test_eigendecompose_reconstruction():
    rng = np.random.default_rng(20)
    g = Grid(12)
    m = rng.normal(size=(12, 12))
    s = Surface(g, m + m.T)
    es = eigendecompose(s)
    rebuilt = np.zeros((12, 12))
    for lam, f in zip(es.eigenvalues, es.eigenfunctions):
        rebuilt += lam * np.outer(f, f)
    scale = np.max(np.abs(s.values))
    assert np.max(np.abs(rebuilt - s.values)) <= 1e-6 * scale


def test_eigendecompose_scale_equivariance():
    rng = np.random.default_rng(21)
    g = Grid(10)
    m = rng.normal(size=(10, 10))
    s = Surface(g, m + m.T)
    base = eigendecompose(s)
    scaled = eigendecompose(Surface(g, 7.5 * s.values))
    assert_allclose(scaled.eigenvalues, 7.5 * base.eigenvalues, rtol=1e-10, atol=1e-12)


def test_eigendecompose_orthonormal():
    rng = np.random.default_rng(22)
    g = Grid(16)
    m = rng.normal(size=(16, 16))
    es = eigendecompose(Surface(g, m + m.T))
    funcs = es.eigenfunctions
    assert funcs.shape == (16, 16)
    assert np.max(np.abs(funcs @ funcs.T / 16 - np.eye(16))) <= 1e-8


def test_eigendecompose_operator_identity():
    rng = np.random.default_rng(23)
    g = Grid(16)
    m = rng.normal(size=(16, 16))
    s = Surface(g, m + m.T)
    es = eigendecompose(s)
    tol = 1e-6 * max(abs(es.eigenvalues[0]), 1.0)
    image = s.values @ es.eigenfunctions.T / 16  # column k: the operator applied to row k
    assert np.max(np.abs(image - es.eigenfunctions.T * es.eigenvalues)) <= tol


def test_eigendecompose_deterministic_sign():
    rng = np.random.default_rng(24)
    g = Grid(9)
    m = rng.normal(size=(9, 9))
    es = eigendecompose(Surface(g, m + m.T))
    for f in es.eigenfunctions:
        assert f[np.argmax(np.abs(f))] > 0


def test_align_sign():
    ref = np.ones(4)
    assert_allclose(align_sign(-ref, ref), ref)
    kept = align_sign(np.array([2.0, 0.0, 0.0, 0.0]), ref)
    assert kept[0] == 2.0
    # orthogonal estimate: tie broken toward no flip
    orth = align_sign(np.array([1.0, -1.0, 1.0, -1.0]), ref)
    assert orth[0] == 1.0
    # a stack of curves is aligned row by row
    stack = np.array([[-1.0, -1.0, -1.0, -1.0], [2.0, 0.0, 0.0, 0.0], [1.0, -1.0, 1.0, -1.0]])
    assert_allclose(align_sign(stack, ref), [ref, kept, orth])
    assert_allclose(align_sign(stack[None], ref), [[ref, kept, orth]])


def test_align_sign_nonnegative_correlation():
    rng = np.random.default_rng(25)
    a = rng.normal(size=(50, 6))
    b = rng.normal(size=6)
    aligned = align_sign(a, b)
    assert np.all(aligned @ b >= 0.0)
    assert_allclose(np.abs(aligned), np.abs(a))


def test_clt_params_no_drift_no_shift():
    es = system((3.0, 2.0, 1.0))
    out = eigenvalue_clt_params(es, BARTLETT, None, 0.7, level=1)
    assert out.mean_shift == 0.0
    f = spectrum_surface(es.grid, (1.0,))
    out = eigenvalue_clt_params(es, BARTLETT, f, 0.0, level=1)
    assert out.mean_shift == 0.0


def test_clt_params_unit_eigenvalue_sd():
    es = system((1.0, 0.5))
    out = eigenvalue_clt_params(es, BARTLETT, None, 0.0, level=1)
    assert out.sd == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)


def test_clt_params_sd_scales_with_eigenvalue():
    a = eigenvalue_clt_params(system((2.0, 1.0)), BARTLETT, None, 0.0, 1)
    b = eigenvalue_clt_params(system((6.0, 3.0)), BARTLETT, None, 0.0, 1)
    assert b.sd == pytest.approx(3.0 * a.sd, rel=1e-12)


def test_clt_params_shift_contracts_bias_surface():
    # when the bias surface shares the eigenfunctions, the quadratic form
    # picks out that level's coefficient exactly
    es = system((3.0, 2.0, 1.0))
    f = spectrum_surface(es.grid, (3.0, 2.0, 1.0))
    for level, lam in ((1, 3.0), (2, 2.0), (3, 1.0)):
        out = eigenvalue_clt_params(es, BARTLETT, f, 0.5, level)
        assert out.mean_shift == pytest.approx(0.5 * lam, rel=1e-10)


def test_clt_params_refuses_tied_levels():
    es = system((2.0, 2.0, 1.0))
    message = r"eigenvalues 1 and 2 separated by 0 \(< 2e-08\); level-1 inference refused"
    with pytest.raises(SeparationError, match=message):
        eigenvalue_clt_params(es, BARTLETT, None, 0.0, level=1)
    with pytest.raises(SeparationError, match="eigenvalues 1 and 2 .* level-3 inference refused"):
        eigenvalue_clt_params(es, BARTLETT, None, 0.0, level=3)


def test_deviation_msd_reference_spectrum():
    # (3, 2, 1), first level: 3 * (2/3) * (2/1 + 1/4) = 4.5
    out = eigenfunction_deviation_msd(system((3.0, 2.0, 1.0)), BARTLETT, level=1)
    assert out == pytest.approx(4.5, rel=1e-12)


def test_deviation_msd_rank_one_is_zero():
    out = eigenfunction_deviation_msd(system((2.0, 0.0)), BARTLETT, level=1)
    assert out == 0.0


def test_deviation_msd_scale_invariant():
    a = eigenfunction_deviation_msd(system((3.0, 2.0, 1.0)), BARTLETT, level=1)
    b = eigenfunction_deviation_msd(system((6.0, 4.0, 2.0)), BARTLETT, level=1)
    c = eigenfunction_deviation_msd(system((6.75, 4.5, 2.25)), BARTLETT, level=1)
    assert b == pytest.approx(a, rel=1e-12)
    assert c == pytest.approx(a, rel=1e-12)


def test_deviation_msd_survives_gaps_whose_square_overflows():
    # gaps near 2^520 square past the largest double; a power-of-two scale is exact
    es, scaled = system((3.0, 2.0, 1.0)), system(tuple(2.0**520 * v for v in (3.0, 2.0, 1.0)))
    for level in (1, 2, 3):
        want = eigenfunction_deviation_msd(es, BARTLETT, level=level)
        assert eigenfunction_deviation_msd(scaled, BARTLETT, level=level) == want


def test_deviation_msd_sums_every_other_level():
    # (3, 2, 1) with Bartlett's 2/3: level 2 is 2 (2/3) (3/1 + 1/1), level 3 is (2/3) (3/4 + 2/1)
    es = system((3.0, 2.0, 1.0))
    out = [eigenfunction_deviation_msd(es, BARTLETT, level=level) for level in (1, 2, 3)]
    assert out == pytest.approx([4.5, 16.0 / 3.0, 11.0 / 6.0], rel=1e-12)
    for level in (0, 4):
        with pytest.raises(ContractViolationError):
            eigenfunction_deviation_msd(es, BARTLETT, level=level)


def test_deviation_msd_refuses_repeated_eigenvalues():
    with pytest.raises(SeparationError):
        eigenfunction_deviation_msd(system((3.0, 2.0, 2.0)), BARTLETT, level=2)
    with pytest.raises(SeparationError):
        eigenfunction_deviation_msd(system((3.0, 3.0, 1.0)), BARTLETT, level=1)


def test_eigenvalue_ci_reference_case():
    es = system((1.0, 0.25), grid=Grid(16))
    ci = eigenvalue_ci(es, BARTLETT, n_obs=900, bandwidth=9.0, level=1)
    half = (ci.upper - ci.lower) / 2.0
    assert half == pytest.approx(0.22634, abs=2e-4)
    assert (ci.upper + ci.lower) / 2.0 == pytest.approx(1.0, abs=1e-12)
    # frozen quantile: Phi^{-1}(0.975)
    z = half / (0.1 * math.sqrt(4.0 / 3.0))
    assert z == pytest.approx(1.959963984540054, abs=1e-6)


def test_eigenvalue_ci_width_shrinks():
    es = system((1.0, 0.25))
    widths = []
    for n in (100, 1000, 10000, 100000):
        ci = eigenvalue_ci(es, BARTLETT, n_obs=n, bandwidth=5.0, level=1)
        widths.append(ci.upper - ci.lower)
    assert all(b < a for a, b in zip(widths, widths[1:]))
    assert widths[-1] < 0.05 * widths[0]


def test_eigenvalue_ci_accepts_bandwidth_object():
    es = system((1.0, 0.25))
    a = eigenvalue_ci(es, BARTLETT, 900, Bandwidth(9.0), 1)
    b = eigenvalue_ci(es, BARTLETT, 900, 9.0, 1)
    assert a == b


def test_eigenvalue_ci_refusals():
    es = system((1.0, 0.25))
    with pytest.raises(ContractViolationError):
        eigenvalue_ci(es, BARTLETT, 900, 9.0, 1, conf=1.0)
    with pytest.raises(ContractViolationError):
        eigenvalue_ci(es, BARTLETT, 1, 9.0, 1)
    with pytest.raises(ContractViolationError):
        eigenvalue_ci(es, BARTLETT, 900, 0.0, 1)
    with pytest.raises(SeparationError):
        eigenvalue_ci(system((1.0, 1.0)), BARTLETT, 900, 9.0, 1)
    negative = system((-0.5, -1.0))
    with pytest.raises(ContractViolationError):
        eigenvalue_ci(negative, BARTLETT, 900, 9.0, 1)


def test_eigenvalue_ci_level_two():
    es = system((2.0, 1.0, 0.5))
    ci = eigenvalue_ci(es, BARTLETT, 400, 4.0, level=2)
    half = 1.959963984540054 * math.sqrt(4.0 / 400.0) * 1.0 * math.sqrt(4.0 / 3.0)
    assert (ci.upper - ci.lower) / 2.0 == pytest.approx(half, rel=1e-9)
