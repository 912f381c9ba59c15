import numpy as np
import pytest
from numpy.testing import assert_allclose

from lrcov import (
    ConfigError,
    DgpSpec,
    DimensionError,
    Grid,
    generate,
    lag_products,
    make_kernel,
    replication_rng,
    truth,
)

G8 = Grid(8)
NOISE2 = (1.0, 0.5)


def test_zero_scale_noise_gives_zero_curves():
    spec = DgpSpec(kind="iid", sigmas=(0.0,))
    s = generate(spec, 10, G8, replication_rng(0, 0))
    assert np.all(s.values == 0.0)


def test_degenerate_kinds_reproduce_iid_bitwise():
    base = generate(DgpSpec(kind="iid", sigmas=NOISE2), 50, G8, replication_rng(5, 0))
    for spec in (
        DgpSpec(kind="fma", sigmas=NOISE2, theta=()),
        DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.0,)),
        DgpSpec(kind="far1", sigmas=NOISE2, rho=0.0),
    ):
        other = generate(spec, 50, G8, replication_rng(5, 0))
        assert np.array_equal(other.values, base.values)


def test_reproducible_given_equal_streams():
    spec = DgpSpec(kind="far1", sigmas=NOISE2, rho=0.6)
    a = generate(spec, 30, G8, replication_rng(9, 3))
    b = generate(spec, 30, G8, replication_rng(9, 3))
    assert np.array_equal(a.values, b.values)
    c = generate(spec, 30, G8, replication_rng(9, 4))
    assert not np.array_equal(c.values, a.values)


def test_fma_lag_one_autocovariance():
    spec = DgpSpec(kind="fma", sigmas=(1.0,), theta=(0.5,))
    s = generate(spec, 100000, Grid(1), replication_rng(11, 0))
    assert lag_products(s.values - s.values.mean(axis=0), 1)[1, 0, 0] / 100000 == pytest.approx(
        0.5, abs=0.02
    )


def test_truth_iid():
    t = truth(DgpSpec(kind="iid", sigmas=NOISE2), G8)
    assert t.gammas.shape == (1, 8, 8)
    assert np.array_equal(t.c.values, t.gammas[0])


def test_truth_fma_long_run_factor():
    t = truth(DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5,)), G8)
    base = truth(DgpSpec(kind="iid", sigmas=NOISE2), G8)
    # (1 + 0.5)^2 = 2.25 times the noise surface
    assert_allclose(t.c.values, 2.25 * base.c.values, rtol=1e-13)
    assert t.gammas.shape == (2, 8, 8)
    assert_allclose(t.gammas[0], 1.25 * base.c.values, rtol=1e-13)
    assert_allclose(t.gammas[1], 0.5 * base.c.values, rtol=1e-13)


def test_truth_far1_long_run_factor():
    t = truth(DgpSpec(kind="far1", sigmas=NOISE2, rho=0.5), G8)
    base = truth(DgpSpec(kind="iid", sigmas=NOISE2), G8)
    assert_allclose(t.c.values, 4.0 * base.c.values, rtol=1e-13)
    assert_allclose(t.gammas[0], base.c.values / 0.75, rtol=1e-13)
    assert_allclose(t.gammas[3], 0.5**3 / 0.75 * base.c.values, rtol=1e-13)


def test_truth_fma_c_is_literal_gamma_sum():
    t = truth(DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5, -0.25)), G8)
    total = t.gammas[0].copy()
    for ell in range(1, len(t.gammas)):
        total += t.gammas[ell] + t.gammas[ell].T
    assert np.array_equal(t.c.values, total)


def test_truth_far1_gamma_sum_matches_closed_form():
    t = truth(DgpSpec(kind="far1", sigmas=NOISE2, rho=0.7), G8)
    total = t.gammas[0].copy()
    for ell in range(1, len(t.gammas)):
        total += t.gammas[ell] + t.gammas[ell].T
    # stored lags stop once the remaining tail mass is negligible
    assert np.max(np.abs(total - t.c.values)) <= 1e-9 * np.max(np.abs(t.c.values))


def test_truth_eigensystem_sorted_by_scale():
    t = truth(DgpSpec(kind="fma", sigmas=(1.0, 2.0), theta=(0.5,)), G8)
    assert_allclose(t.eigen.eigenvalues, [9.0, 2.25], rtol=1e-13)
    # the larger-scale component rides the second basis function
    assert_allclose(t.eigen.eigenfunctions[1], np.ones(8), rtol=1e-12)


def test_truth_eigenvalues_are_those_of_the_long_run_surface():
    # the largest noise basis each grid resolves: up to G - 1 components on an even grid
    sigmas = (1.0, 0.8, 0.6, 0.7, 0.3, 0.9, 0.2)
    for g in (2, 3, 4, 5, 6, 7, 8, 16):
        spec = DgpSpec(kind="fma", sigmas=sigmas[: g if g % 2 else g - 1], theta=(0.5,))
        t = truth(spec, Grid(g))
        want = np.linalg.eigvalsh(t.c.values / g)[::-1][: len(spec.sigmas)]
        assert_allclose(t.eigen.eigenvalues, want, rtol=1e-12, atol=1e-14)
    with pytest.raises(DimensionError):  # the 4th component would sit on the Nyquist cosine
        truth(DgpSpec(kind="iid", sigmas=sigmas[:4]), Grid(4))


def test_truth_bias_surface_presence():
    spec = DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5,))
    assert truth(spec, G8).bias is None  # no kernel given
    assert truth(spec, G8, make_kernel("flat-top")).bias is None
    withk = truth(spec, G8, make_kernel("bartlett"))
    assert withk.bias is not None


def test_empirical_autocov_matches_truth():
    spec = DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5, 0.25))
    t = truth(spec, G8)
    s = generate(spec, 100000, G8, replication_rng(21, 0))
    p = lag_products(s.values - s.values.mean(axis=0), 2) / s.n_obs
    for ell in range(3):
        diff = p[ell] - t.gammas[ell]
        rel = np.linalg.norm(diff) / np.linalg.norm(t.gammas[0])
        assert rel <= 0.03


def test_autocov_error_shrinks_at_root_n_rate():
    # iid data: every lag >= 1 is pure estimation error, which should scale
    # like 1/sqrt(N); quadrupling N should roughly halve it
    spec = DgpSpec(kind="iid", sigmas=NOISE2)
    sizes = (1000, 4000)
    avg = {}
    for n in sizes:
        norms = []
        for r in range(20):
            s = generate(spec, n, G8, replication_rng(1000 + n, r))
            p = lag_products(s.values - s.values.mean(axis=0), 6) / n
            norms.extend(np.linalg.norm(p[ell]) / 8 for ell in range(2, 7))
        avg[n] = float(np.mean(norms))
    ratio = avg[4000] / avg[1000]
    assert 0.35 <= ratio <= 0.72


def test_dgp_spec_round_trips():
    specs = (
        DgpSpec(kind="iid", sigmas=NOISE2),
        DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5, -0.1)),
        DgpSpec(kind="far1", sigmas=NOISE2, rho=-0.3, burn_in=150),
    )
    for spec in specs:
        assert DgpSpec.from_dict(spec.to_dict()) == spec


def test_dgp_spec_validation():
    with pytest.raises(ConfigError):
        DgpSpec(kind="arma", sigmas=NOISE2)
    with pytest.raises(ConfigError):
        DgpSpec(kind="far1", sigmas=NOISE2, rho=0.95)
    with pytest.raises(ConfigError):
        DgpSpec(kind="iid", sigmas=NOISE2, theta=(0.5,))
    with pytest.raises(ConfigError):
        DgpSpec(kind="fma", sigmas=NOISE2, rho=0.2)
    with pytest.raises(ConfigError):
        DgpSpec(kind="far1", sigmas=NOISE2, rho=0.5, burn_in=-1)
    with pytest.raises(ConfigError):
        DgpSpec(kind="iid", sigmas=())
    with pytest.raises(ConfigError):
        DgpSpec(kind="iid", sigmas=(1.0, -0.5))


def test_dgp_from_dict_validation():
    with pytest.raises(ConfigError):
        DgpSpec.from_dict({"kind": "iid", "sigmas": [1.0], "bogus": 1})
    with pytest.raises(ConfigError, match="seed"):  # seeds belong to the command, not the process
        DgpSpec.from_dict({"kind": "iid", "sigmas": [1.0], "seed": 3})
    with pytest.raises(ConfigError):
        DgpSpec.from_dict({"kind": "iid"})
    with pytest.raises(ConfigError, match="at least one basis component"):  # sigmas before kind
        DgpSpec.from_dict({"kind": "arma", "sigmas": []})
    with pytest.raises(ConfigError):
        DgpSpec.from_dict([1, 2, 3])


def test_generate_requires_two_observations():
    with pytest.raises(ConfigError):
        generate(DgpSpec(kind="iid", sigmas=NOISE2), 1, G8, replication_rng(0, 0))
