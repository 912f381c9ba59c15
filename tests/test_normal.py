"""The normal law comes from the standard library's ``statistics.NormalDist``.

These tests pin the three places lrcov uses it against scipy: the cdf inside
``ks_distance``, the quantile behind ``eigenvalue_ci``'s z, and the
``normal`` column of the QQ tables that ``mc-verify`` writes.
"""

import json
import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from lrcov import ContractViolationError, Grid, Surface, eigendecompose, eigenvalue_ci, io
from lrcov import ks_distance, make_kernel
from lrcov.cli import main

BARTLETT = make_kernel("bartlett")

# reference quantiles, 17 significant digits
QUANTILES = {
    0.75: 0.6744897501960817,
    0.95: 1.6448536269514722,
    0.975: 1.959963984540054,
    0.99: 2.3263478740408408,
    0.995: 2.5758293035489004,
    0.999: 3.090232306167813,
    0.9999: 3.719016485455709,
}


def ci_z(conf):
    """The z behind eigenvalue_ci, read back from the half-width of a level-1 interval."""
    eigen = eigendecompose(Surface(Grid(2), np.diag([2.0, 1.0])))  # eigenvalues 1, 1/2
    lam, n, h = 1.0, 8, 1.0
    ci = eigenvalue_ci(eigen, BARTLETT, n, h, 1, conf)
    scale = math.sqrt(h / n) * lam * math.sqrt(2.0 * BARTLETT.square_integral)
    return (ci.upper - lam) / scale


def qq_table(tmp_path, replications):
    cfg = {
        "experiment": {
            "dgp": {"kind": "iid", "sigmas": [1.0]},
            "kernel": "bartlett",
            "n_obs": 60,
            "grid_points": 1,
            "h": 3,
            "replications": replications,
            "master_seed": 4,
        }
    }
    path = tmp_path / "mc.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = str(tmp_path / "out")
    assert main(["mc-verify", "--config", str(path), "--out", out]) == 0
    table, header = io.read_matrix_csv(f"{out}/qq_projection_0.csv")
    assert header == ["normal", "empirical"]
    return table


def fitted_kstest(x):
    """scipy's KS statistic against the normal law with the sample's mean and sd (ddof=1)."""
    return kstest(x, "norm", args=(float(np.mean(x)), float(np.std(x, ddof=1)))).statistic


def test_cdf_reference_points():
    # the 2.5/5/25/50/75/95/97.5% points of N(0, 1), against their fitted law
    z75, z95, z975 = QUANTILES[0.75], QUANTILES[0.95], QUANTILES[0.975]
    x = np.array([-z975, -z95, -z75, 0.0, 0.0, z75, z95, z975])
    assert abs(ks_distance(x) - fitted_kstest(x)) <= 1e-12


def test_cdf_absolute_error_bound():
    rng = np.random.default_rng(3)
    for n in (8, 50, 1000):
        x = rng.standard_t(5, size=n) * 2.0 + 1.0
        assert abs(ks_distance(x) - fitted_kstest(x)) <= 1e-12


def test_cdf_symmetry_and_monotone():
    x = np.random.default_rng(4).exponential(size=200)
    d = ks_distance(x)
    # the fitted law reflects with the sample, and location/scale drop out
    assert ks_distance(-x) == pytest.approx(d, abs=1e-12)
    assert ks_distance(3.0 * x - 7.0) == pytest.approx(d, abs=1e-12)
    assert abs(d - fitted_kstest(x)) <= 1e-12
    # heavier tails move the normal quantiles away from their fitted law
    z = np.array([NormalDist().inv_cdf(p) for p in (np.arange(1, 201) - 0.5) / 200])
    ds = [ks_distance(np.sign(z) * np.abs(z) ** k) for k in (1.0, 1.5, 2.0, 3.0)]
    assert all(b > a for a, b in zip(ds, ds[1:]))


def test_quantile_reference_points():
    for p, z in QUANTILES.items():
        assert ci_z(2.0 * p - 1.0) == pytest.approx(z, abs=1e-12)


def test_quantile_against_scipy_dense(tmp_path):
    table = qq_table(tmp_path, 400)
    z = table[:, 1]
    n = len(z)
    assert np.all(np.diff(z) >= 0)  # the empirical column is sorted
    loc, scale = float(np.mean(z)), float(np.std(z, ddof=1))
    want = loc + scale * ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert np.max(np.abs(table[:, 0] - want)) <= 1e-12 * scale


def test_quantile_tails():
    for conf in (0.96, 0.999, 1.0 - 2e-5, 1.0 - 2e-9):
        assert ci_z(conf) == pytest.approx(ndtri(0.5 * (1.0 + conf)), rel=1e-12)


def test_quantile_domain():
    eigen = eigendecompose(Surface(Grid(2), np.diag([2.0, 1.0])))
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan):
        with pytest.raises(ContractViolationError):
            eigenvalue_ci(eigen, BARTLETT, 8, 1.0, 1, bad)


def test_round_trip(tmp_path):
    # the QQ column sits at the (i - 1/2)/n quantiles of the empirical column's
    # fitted law, so its distance to that law is exactly 1/(2n)
    table = qq_table(tmp_path, 100)
    z = table[:, 1]
    loc, scale = float(np.mean(z)), float(np.std(z, ddof=1))
    d = kstest(table[:, 0], "norm", args=(loc, scale)).statistic
    assert d == pytest.approx(0.5 / len(z), abs=1e-12)
    assert abs(ks_distance(table[:, 0]) - fitted_kstest(table[:, 0])) <= 1e-12
