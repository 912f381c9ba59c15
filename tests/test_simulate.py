import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from lrcov import (
    ConfigError,
    DgpSpec,
    Grid,
    generate,
    lag_products,
    make_kernel,
    replication_rng,
    truth,
)
from lrcov.cli import main
from lrcov.estimator import _bias_weights
from lrcov.grid import fourier_basis
from lrcov.simulate import _scores

G8 = Grid(8)
NOISE2 = (1.0, 0.5)


def noise_surface(spec, grid):
    phi = fourier_basis(grid, len(spec.sigmas))
    return (phi.T * np.square(spec.sigmas)) @ phi


def lag_stack(spec, grid):
    """The (L+1, G, G) autocovariances of the process at lags 0..L, one G x G surface per lag."""
    return truth(spec, grid).coeffs[:, None, None] * noise_surface(spec, grid)


def literal_lag_sum(lags):
    total = lags[0].copy()
    for lag in lags[1:]:
        total += lag + lag.T
    return total


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


def test_iid_truth_is_the_moving_average_without_coefficients():
    iid, fma = DgpSpec(kind="iid", sigmas=NOISE2), DgpSpec(kind="fma", sigmas=NOISE2, theta=())
    for name in ("bartlett", "parzen"):
        want, got = (truth(spec, G8, make_kernel(name)) for spec in (iid, fma))
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.array_equal(got.c.values, want.c.values)
        assert np.array_equal(got.eigen.eigenvalues, want.eigen.eigenvalues)
        assert np.array_equal(got.eigen.eigenfunctions, want.eigen.eigenfunctions)
        assert np.array_equal(got.bias.values, want.bias.values)


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
    spec = DgpSpec(kind="iid", sigmas=NOISE2)
    t = truth(spec, G8)
    assert t.coeffs.tolist() == [1.0]
    assert np.array_equal(t.c.values, lag_stack(spec, G8)[0])


def test_truth_fma_long_run_factor():
    t = truth(DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5,)), G8)
    base = truth(DgpSpec(kind="iid", sigmas=NOISE2), G8)
    # (1 + 0.5)^2 = 2.25 times the noise surface
    assert_allclose(t.c.values, 2.25 * base.c.values, rtol=1e-13)
    lags = lag_stack(DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5,)), G8)
    assert lags.shape == (2, 8, 8)
    assert_allclose(lags[0], 1.25 * base.c.values, rtol=1e-13)
    assert_allclose(lags[1], 0.5 * base.c.values, rtol=1e-13)


def test_truth_far1_long_run_factor():
    t = truth(DgpSpec(kind="far1", sigmas=NOISE2, rho=0.5), G8)
    base = truth(DgpSpec(kind="iid", sigmas=NOISE2), G8)
    assert_allclose(t.c.values, 4.0 * base.c.values, rtol=1e-13)
    lags = lag_stack(DgpSpec(kind="far1", sigmas=NOISE2, rho=0.5), G8)
    assert_allclose(lags[0], base.c.values / 0.75, rtol=1e-13)
    assert_allclose(lags[3], 0.5**3 / 0.75 * base.c.values, rtol=1e-13)


def test_truth_fma_c_is_the_long_run_factor_times_the_noise_surface():
    spec = DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5, -0.25))
    c = truth(spec, G8).c.values
    assert np.array_equal(c, (1.0 + 0.5 - 0.25) ** 2 * noise_surface(spec, G8))
    # the literal sum of the lag surfaces agrees up to its own rounding
    ulp = np.spacing(np.max(np.abs(c)))
    assert np.max(np.abs(literal_lag_sum(lag_stack(spec, G8)) - c)) <= 8 * ulp


def test_truth_far1_gamma_sum_matches_closed_form():
    spec = DgpSpec(kind="far1", sigmas=NOISE2, rho=0.7)
    t = truth(spec, G8)
    total = literal_lag_sum(lag_stack(spec, G8))
    # the lag factors stop once the remaining tail mass is negligible
    assert np.max(np.abs(total - t.c.values)) <= 1e-9 * np.max(np.abs(t.c.values))


@st.composite
def truth_cases(draw):
    # values on a 1e-6 lattice, so that no squared entry of the oracle's lag stack underflows
    def lattice(low, high):
        return st.floats(low, high).map(lambda v: round(v, 6))

    kind = draw(st.sampled_from(["iid", "fma", "far1"]))
    extra = {}
    if kind == "fma":
        extra["theta"] = tuple(draw(st.lists(lattice(-2.0, 2.0), min_size=1, max_size=3)))
    if kind == "far1":
        extra["rho"] = draw(lattice(-0.9, 0.9))
    sigmas = draw(st.lists(lattice(0.0, 3.0), min_size=1, max_size=4))
    g = draw(st.integers(2 * (len(sigmas) // 2) + 1, 32))  # the grid resolves every component
    kernel = make_kernel(draw(st.sampled_from(["bartlett", "parzen", "tukey-hanning"])))
    return DgpSpec(kind=kind, sigmas=tuple(sigmas), **extra), Grid(g), kernel


@settings(max_examples=60, deadline=None)
@given(truth_cases())
def test_truth_matches_its_lag_stack(case):
    spec, grid, kernel = case
    t = truth(spec, grid, kernel)
    lags, noise = lag_stack(spec, grid), np.max(np.abs(noise_surface(spec, grid)))
    # each tolerance scales with the terms summed, not with a result they may cancel to
    w_c = _bias_weights(kernel, len(t.coeffs) - 1) * t.coeffs
    bias_scale = 2.0 * abs(kernel.char_coefficient) * np.sum(np.abs(w_c)) * noise
    # the oracle: every lag's surface weighted by |k|^q, with its transpose
    a = np.tensordot(_bias_weights(kernel, len(lags) - 1), lags, axes=1)
    want = kernel.char_coefficient * (a + a.T)
    assert np.max(np.abs(t.bias.values - want)) <= 1e-12 * bias_scale
    # far1's lag factors stop where the two-sided tail falls below FAR1_TAIL_RTOL of their mass
    c_scale = (2.0 * np.sum(np.abs(t.coeffs)) - abs(t.coeffs[0])) * noise
    c_rtol = 2e-12 if spec.kind == "far1" else 1e-13
    assert np.max(np.abs(t.c.values - literal_lag_sum(lags))) <= c_rtol * c_scale
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "sim.json")
        cfg.write_text(json.dumps({"dgp": spec.to_dict(), "n_obs": 2, "grid_points": grid.n_points}))
        assert main(["simulate", "--config", str(cfg), "--out", tmp]) == 0
        norms = json.loads(Path(tmp, "truth.json").read_text())["gamma_norms"]
    want = [np.linalg.norm(lag) / grid.n_points for lag in lags]
    assert len(norms) == len(lags)
    assert_allclose([norms[str(lag)] for lag in range(len(lags))], want, rtol=1e-13, atol=0)


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
    with pytest.raises(ConfigError):  # the 4th component would sit on the Nyquist cosine
        truth(DgpSpec(kind="iid", sigmas=sigmas[:4]), Grid(4))


def test_truth_bias_surface_presence():
    spec = DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5,))
    assert truth(spec, G8).bias is None  # no kernel given
    assert truth(spec, G8, make_kernel("flat-top")).bias is None
    withk = truth(spec, G8, make_kernel("bartlett"))
    assert withk.bias is not None


def test_empirical_autocov_matches_truth():
    spec = DgpSpec(kind="fma", sigmas=NOISE2, theta=(0.5, 0.25))
    lags = lag_stack(spec, G8)
    s = generate(spec, 100000, G8, replication_rng(21, 0))
    p = lag_products(s.values - s.values.mean(axis=0), 2) / s.n_obs
    for ell in range(3):
        diff = p[ell] - lags[ell]
        rel = np.linalg.norm(diff) / np.linalg.norm(lags[0])
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
        DgpSpec(kind="far1", sigmas=NOISE2, rho=-0.3),
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


# sha256 of the draws before blocks shared one score stack: samples on Grid(1),
# whose basis map multiplies by 1.0 on any BLAS, and three-component scores
DRAW_DIGESTS = {
    "iid": (
        "5575b44bc73ef7ed4a13f57c28869ffe3b9e811e0b0f0d7139c8c84cd4d8e124",
        "524417ab80ecec82fa05ab5fe0467b01f52274ef07539da7e2e5fc3c7a05fa35",
    ),
    "fma": (
        "6b4cb69d7b9c9bff778d7fe774a93ed83ccb68c955247a168ff93fc8bfb3e21c",
        "41c0e0fde0a2973705f3cf87636bb0653497ccc8b4da2cab6fae7c00c51c25f5",
    ),
    "far1": (
        "8ed007062cf2d0d14acb38f63177b419ad9b0a83562f4a1b847eabacb6562c94",
        "25007504290111ccc15ba3ea829f31861c03b05aab609e449b6410a4a6727da0",
    ),
}


@pytest.mark.parametrize("kind", DRAW_DIGESTS)
def test_generate_keeps_its_bytes(kind):
    extra = {"iid": {}, "fma": {"theta": (0.5, -0.3)}, "far1": {"rho": 0.7}}[kind]
    samples, scores = hashlib.sha256(), hashlib.sha256()
    for n in (2, 57, 400):
        drawn = generate(DgpSpec(kind, (1.5,), **extra), n, Grid(1), replication_rng(13, n))
        samples.update(drawn.values.tobytes())
        spec = DgpSpec(kind, (1.0, 0.6, 0.3), **extra)
        # the stack is component-major; its bytes in (N, J) order are the draws'
        scores.update(_scores(spec, n, [replication_rng(13, n)]).swapaxes(1, 2).tobytes())
    assert (samples.hexdigest(), scores.hexdigest()) == DRAW_DIGESTS[kind]
    # and generate is the basis map of those scores on any grid, with the bits of
    # the product of C-ordered (N, J) scores
    spec = DgpSpec(kind, (1.0, 0.6, 0.3), **extra)
    drawn = generate(spec, 57, G8, replication_rng(13, 57)).values
    s = np.ascontiguousarray(_scores(spec, 57, [replication_rng(13, 57)])[0].T)
    mapped = s @ fourier_basis(G8, 3)
    assert drawn.tobytes() == mapped.tobytes()
