import json
import math
from statistics import NormalDist

import numpy as np
import pytest

from lrcov import (
    DataFormatError,
    estimate_lrcov,
    make_kernel,
    plugin_bandwidth,
)
from lrcov import io
from lrcov.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- io layer


def test_format_float_round_trips_bit_exactly():
    cases = [0.1, 1.0 / 3.0, -0.0, 1e-300, 5e-324, 1e300, math.pi, 2.0**53 + 2.0]
    for x in cases:
        back = float(io.format_float(x))
        assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(40)
    a = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-12, 12, size=(7, 3))
    p = str(tmp_path / "m.csv")
    io.write_matrix_csv(p, a)
    back, header = io.read_matrix_csv(p)
    assert header is None
    assert np.array_equal(back, a)


def test_matrix_header_round_trip(tmp_path):
    a = np.array([[1.5, 2.5], [3.5, 4.5]])
    p = str(tmp_path / "h.csv")
    io.write_matrix_csv(p, a, header=["alpha", "beta"])
    back, header = io.read_matrix_csv(p)
    assert header == ["alpha", "beta"]
    assert np.array_equal(back, a)


def test_ragged_row_is_named(tmp_path):
    p = write(tmp_path / "ragged.csv", "1,2\n3\n")
    with pytest.raises(DataFormatError, match="row 2"):
        io.read_matrix_csv(p)


def test_bad_cell_is_named(tmp_path):
    p = write(tmp_path / "bad.csv", "1,2\n3,x\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        io.read_matrix_csv(p)


def test_non_finite_cells_are_data_errors_not_headers(tmp_path):
    # 'inf' and 'nan' parse as floats, so a leading row of them is not a
    # header; it must be rejected as data with a position
    p = write(tmp_path / "inf.csv", "inf,nan\n1,2\n")
    with pytest.raises(DataFormatError, match="row 1, column 1"):
        io.read_matrix_csv(p)
    p = write(tmp_path / "nan.csv", "1,2\n3,nan\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        io.read_matrix_csv(p)


def test_blank_line_is_an_error(tmp_path):
    p = write(tmp_path / "blank.csv", "1\n\n3\n")
    with pytest.raises(DataFormatError, match="row 2"):
        io.read_matrix_csv(p)


def test_byte_order_mark_keeps_first_row(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes("1,2\n3,4\n5,6\n".encode("utf-8-sig"))
    values, header = io.read_matrix_csv(str(p))
    assert header is None
    assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    p.write_bytes("a,b\n1,2\n".encode("utf-8-sig"))
    assert io.read_matrix_csv(str(p))[1] == ["a", "b"]


def test_trailing_blank_lines_are_ignored(tmp_path):
    values, _ = io.read_matrix_csv(write(tmp_path / "tail.csv", "1,2\n3,4\n\n \n"))
    assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DataFormatError, match="row 2"):
        io.read_matrix_csv(write(tmp_path / "mid.csv", "1,2\n\n3,4\n\n"))


def test_header_width_mismatch(tmp_path):
    p = write(tmp_path / "hm.csv", "a,b,c\n1,2\n")
    with pytest.raises(DataFormatError, match="header"):
        io.read_matrix_csv(p)


def test_empty_and_header_only_files(tmp_path):
    with pytest.raises(DataFormatError, match="no data rows"):
        io.read_matrix_csv(write(tmp_path / "empty.csv", ""))
    with pytest.raises(DataFormatError, match="no data rows"):
        io.read_matrix_csv(write(tmp_path / "only.csv", "a,b\n"))


def test_read_curves_needs_two_rows(tmp_path):
    with pytest.raises(DataFormatError, match="at least 2"):
        io.read_curves(write(tmp_path / "one.csv", "1,2\n"))


def test_read_surface_must_be_square(tmp_path):
    p = write(tmp_path / "rect.csv", "1,2,3\n4,5,6\n")
    with pytest.raises(DataFormatError, match="square"):
        io.read_surface_csv(p)


def test_write_matrix_validation(tmp_path):
    with pytest.raises(DataFormatError):
        io.write_matrix_csv(str(tmp_path / "x.csv"), np.zeros(3))
    with pytest.raises(DataFormatError):
        io.write_matrix_csv(str(tmp_path / "y.csv"), np.zeros((2, 2)), header=["one"])


def test_write_json_preserves_types(tmp_path):
    p = str(tmp_path / "t.json")
    io.write_json(
        p,
        {
            "f": np.float64(1.5),
            "flag": np.bool_(True),
            "off": False,
            "arr": np.arange(3),
            "nested": {"n": np.int64(7)},
        },
    )
    text = open(p).read()
    assert text.endswith("\n")
    back = json.loads(text)
    assert back["f"] == 1.5
    assert back["flag"] is True and back["off"] is False
    assert back["arr"] == [0, 1, 2]
    assert back["nested"]["n"] == 7


# ---------------------------------------------------------------- cli: estimate


def test_estimate_two_point_example(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "1\n3\n")
    out = str(tmp_path / "out")
    rc = main(["estimate", "--data", data, "--kernel", "bartlett", "--h", "1", "--out", out])
    assert rc == 0
    assert capsys.readouterr().err == ""
    surface, _ = io.read_matrix_csv(f"{out}/estimate.csv")
    assert surface.shape == (1, 1) and surface[0, 0] == 1.0
    meta = json.load(open(f"{out}/metadata.json"))
    assert meta["command"] == "estimate"
    assert meta["n_obs"] == 2 and meta["grid_points"] == 1
    assert meta["config"]["kernel"] == "bartlett"
    assert meta["config"]["unbiased"] is False and meta["config"]["psd"] is False
    assert meta["h_selection"] == {"rule": "fixed", "h": 1.0, "plugin": None}


def test_estimate_defaults_and_config_file(tmp_path):
    rng = np.random.default_rng(41)
    rows = "\n".join(",".join(io.format_float(v) for v in row) for row in rng.normal(size=(40, 2)))
    data = write(tmp_path / "d.csv", rows + "\n")
    cfg = write(tmp_path / "cfg.json", json.dumps({"kernel": "parzen", "h": 3, "unbiased": True}))
    out = str(tmp_path / "out")
    rc = main(["estimate", "--data", data, "--config", cfg, "--out", out])
    assert rc == 0
    meta = json.load(open(f"{out}/metadata.json"))
    assert meta["kernel"] == "parzen"
    assert meta["config"]["unbiased"] is True
    # flags beat the config file
    out2 = str(tmp_path / "out2")
    rc = main(["estimate", "--data", data, "--config", cfg, "--kernel", "bartlett", "--out", out2])
    assert rc == 0
    assert json.load(open(f"{out2}/metadata.json"))["kernel"] == "bartlett"


def test_estimate_matches_library(tmp_path):
    rng = np.random.default_rng(42)
    values = rng.normal(size=(60, 4))
    data = str(tmp_path / "d.csv")
    io.write_matrix_csv(data, values)
    out = str(tmp_path / "out")
    assert main(["estimate", "--data", data, "--kernel", "parzen", "--h", "6", "--out", out]) == 0
    got, _ = io.read_matrix_csv(f"{out}/estimate.csv")
    sample = io.read_curves(data)
    want = estimate_lrcov(sample, make_kernel("parzen"), 6.0).surface.values
    assert np.array_equal(got, want)  # decimal17 serialization is lossless


def test_estimate_psd_flag(tmp_path):
    rng = np.random.default_rng(43)
    values = rng.normal(size=(12, 3))
    data = str(tmp_path / "d.csv")
    io.write_matrix_csv(data, values)
    out = str(tmp_path / "out")
    assert main(["estimate", "--data", data, "--h", "8", "--psd", "--out", out]) == 0
    meta = json.load(open(f"{out}/metadata.json"))
    assert meta["psd_applied"] is True
    surface, _ = io.read_matrix_csv(f"{out}/estimate.csv")
    assert np.min(np.linalg.eigvalsh(surface / 3.0)) >= -1e-12


def test_estimate_plugin_trace_in_metadata(tmp_path):
    rng = np.random.default_rng(44)
    x = np.convolve(rng.normal(size=600), [1.0, 0.5])[:600]
    data = str(tmp_path / "d.csv")
    io.write_matrix_csv(data, x.reshape(-1, 1))
    out = str(tmp_path / "out")
    assert main(["estimate", "--data", data, "--h", "plugin:4", "--out", out]) == 0
    trace = json.load(open(f"{out}/metadata.json"))["h_selection"]
    assert trace["rule"] == "plugin"
    plug = trace["plugin"]
    assert plug["pilot_h"] == 4.0 and plug["m_trunc"] == 4
    assert set(plug) == {
        "c0_hat", "F_norm_hat", "C_integral_hat", "fallback_used", "clamped",
        "pilot_h", "m_trunc",
    }


# ---------------------------------------------------------------- cli: exit codes


def test_exit_code_data_error(tmp_path, capsys):
    data = write(tmp_path / "ragged.csv", "1,2\n3\n")
    rc = main(["estimate", "--data", data, "--h", "2"])
    assert rc == 2
    assert "row 2" in capsys.readouterr().err


def test_exit_code_config_errors(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "1\n3\n")
    # unknown config key
    cfg = write(tmp_path / "bad.json", json.dumps({"kernle": "bartlett"}))
    assert main(["estimate", "--data", data, "--config", cfg]) == 3
    # missing --data
    assert main(["estimate", "--h", "2"]) == 3
    # unknown kernel through the config file (flag choices are caught by argparse)
    cfg2 = write(tmp_path / "bad2.json", json.dumps({"kernel": "gauss"}))
    assert main(["estimate", "--data", data, "--config", cfg2]) == 3
    # argparse-level failure must also land on 3, not argparse's native 2
    assert main(["estimate", "--data", data, "--kernel", "gauss"]) == 3
    assert main(["no-such-command"]) == 3
    # malformed JSON
    cfg3 = write(tmp_path / "bad3.json", "{not json")
    assert main(["estimate", "--data", data, "--config", cfg3]) == 3
    capsys.readouterr()


def test_exit_code_numeric_contract(tmp_path, capsys):
    data = write(tmp_path / "const.csv", "1,1\n1,1\n1,1\n1,1\n")
    rc = main(["bandwidth", "--data", data, "--h", "2"])
    assert rc == 4
    assert "error:" in capsys.readouterr().err


def test_exit_code_separation(tmp_path, capsys):
    # two orthogonal unit-variance directions: the lag-0 surface is exactly
    # the identity, so the top eigenvalues tie and level-1 inference refuses
    data = write(tmp_path / "tied.csv", "1,1\n-1,-1\n1,-1\n-1,1\n")
    rc = main(["fpca", "--data", data, "--h", "1", "--p", "1"])
    assert rc == 5
    assert "separat" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------- cli: fpca


def test_fpca_outputs_and_ci_arithmetic(tmp_path):
    rng = np.random.default_rng(45)
    values = rng.normal(size=(200, 3)) * np.array([3.0, 2.0, 1.0])
    data = str(tmp_path / "d.csv")
    io.write_matrix_csv(data, values)
    out = str(tmp_path / "out")
    rc = main(["fpca", "--data", data, "--kernel", "bartlett", "--h", "4", "--p", "2", "--out", out])
    assert rc == 0
    table, header = io.read_matrix_csv(f"{out}/eigenvalues.csv")
    assert header == ["level", "eigenvalue", "ci_low", "ci_high"]
    assert table.shape == (2, 4)
    assert list(table[:, 0]) == [1.0, 2.0]
    assert table[0, 1] > table[1, 1] > 0
    # interval arithmetic must reproduce the library formula exactly
    z = NormalDist().inv_cdf(0.975)
    for row in table:
        lam = row[1]
        half = z * math.sqrt(4.0 / 200.0) * lam * math.sqrt(2.0 * (2.0 / 3.0))
        assert row[2] == pytest.approx(lam - half, rel=1e-12)
        assert row[3] == pytest.approx(lam + half, rel=1e-12)
    funcs, fh = io.read_matrix_csv(f"{out}/eigenfunctions.csv")
    assert fh is None and funcs.shape == (3, 2)
    # unit norm under the integral inner product
    assert float(np.mean(funcs[:, 0] ** 2)) == pytest.approx(1.0, rel=1e-10)
    meta = json.load(open(f"{out}/metadata.json"))
    assert len(meta["separation_gaps"]) == 2
    assert all(g > 0 for g in meta["separation_gaps"])


def test_fpca_nonpositive_eigenvalue_gets_nan_interval(tmp_path):
    # G=2 with one degenerate direction: second eigenvalue is exactly zero
    data = write(tmp_path / "d.csv", "1,1\n1,-1\n")
    out = str(tmp_path / "out")
    rc = main(["fpca", "--data", data, "--h", "1", "--p", "2", "--out", out])
    assert rc == 0
    lines = open(f"{out}/eigenvalues.csv").read().splitlines()
    assert lines[0] == "level,eigenvalue,ci_low,ci_high"
    first = lines[1].split(",")
    assert float(first[2]) < float(first[1]) < float(first[3])
    second = lines[2].split(",")
    assert float(second[1]) == 0.0
    assert second[2] == "nan" and second[3] == "nan"


def test_fpca_p_exceeding_grid_is_config_error(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "1,2\n3,4\n5,6\n")
    assert main(["fpca", "--data", data, "--h", "1", "--p", "3"]) == 3
    assert "exceeds" in capsys.readouterr().err


def test_fpca_bad_level_is_config_error(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "1,2\n3,4\n")
    assert main(["fpca", "--data", data, "--h", "1", "--level", "1.5"]) == 3
    assert main(["fpca", "--data", data, "--h", "1", "--p", "0"]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------- cli: bandwidth


def test_bandwidth_json_contract(tmp_path):
    rng = np.random.default_rng(46)
    x = np.convolve(rng.normal(size=2000), [1.0, 0.5])[:2000]
    data = str(tmp_path / "d.csv")
    io.write_matrix_csv(data, x.reshape(-1, 1))
    out = str(tmp_path / "out")
    cfg = write(tmp_path / "cfg.json", json.dumps({"pilot_h": 4}))
    rc = main(["bandwidth", "--data", data, "--config", cfg, "--out", out])
    assert rc == 0
    payload = json.load(open(f"{out}/bandwidth.json"))
    assert set(payload) == {"h_plugin", "c0_hat", "F_norm_hat", "C_integral_hat", "fallback_used"}
    sel = plugin_bandwidth(io.read_curves(data), make_kernel("bartlett"), 4.0)
    assert payload["h_plugin"] == sel.bandwidth.h
    assert payload["c0_hat"] == sel.c0
    assert payload["F_norm_hat"] == sel.f_norm
    assert payload["C_integral_hat"] == sel.c_integral
    assert payload["fallback_used"] is sel.fallback
    meta = json.load(open(f"{out}/metadata.json"))
    assert meta["config"]["pilot_h"] == 4.0
    assert meta["config"]["m_trunc"] == sel.m_trunc


def test_bandwidth_flat_top_refused(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "1\n2\n3\n4\n")
    assert main(["bandwidth", "--data", data, "--kernel", "flat-top"]) == 3
    assert "plug-in" in capsys.readouterr().err


def test_flat_top_plugin_is_a_config_error_in_every_command(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "1\n2\n4\n3\n5\n")
    flat = ["--data", data, "--kernel", "flat-top", "--out", str(tmp_path / "out")]
    for argv in (
        ["estimate", *flat, "--h", "plugin"],
        ["fpca", *flat, "--h", "plugin:2"],
        ["bandwidth", *flat, "--h", "2"],
    ):
        assert main(argv) == 3, argv
        assert "plug-in" in capsys.readouterr().err


# ---------------------------------------------------------------- cli: simulate


SIM_CFG = {
    "dgp": {"kind": "fma", "sigmas": [1.0, 0.5], "theta": [0.5]},
    "n_obs": 50,
    "grid_points": 8,
    "seed": 3,
}


def test_simulate_outputs_and_determinism(tmp_path):
    cfg = write(tmp_path / "sim.json", json.dumps(SIM_CFG))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    bytes1 = open(f"{out1}/sample.csv", "rb").read()
    assert bytes1 == open(f"{out2}/sample.csv", "rb").read()
    sample, _ = io.read_matrix_csv(f"{out1}/sample.csv")
    assert sample.shape == (50, 8)
    truth_doc = json.load(open(f"{out1}/truth.json"))
    # long-run integral: (1 + theta)^2 times the noise integral, which is
    # sigma_1^2 because only the constant basis function has nonzero mean
    assert truth_doc["c_integral"] == pytest.approx(2.25, rel=1e-12)
    assert truth_doc["eigenvalues"] == sorted(truth_doc["eigenvalues"], reverse=True)
    assert np.array(truth_doc["c"]).shape == (8, 8)
    assert set(truth_doc["gamma_norms"]) == {"0", "1"}
    meta = json.load(open(f"{out1}/metadata.json"))
    assert meta["config"]["seed"] == 3
    assert meta["config"]["dgp"]["theta"] == [0.5]


def test_simulate_seed_flag_wins(tmp_path):
    cfg = write(tmp_path / "sim.json", json.dumps(SIM_CFG))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", "--config", cfg, "--seed", "7", "--out", out1]) == 0
    assert main(["simulate", "--config", cfg, "--seed", "8", "--out", out2]) == 0
    a, _ = io.read_matrix_csv(f"{out1}/sample.csv")
    b, _ = io.read_matrix_csv(f"{out2}/sample.csv")
    assert not np.array_equal(a, b)
    assert json.load(open(f"{out1}/metadata.json"))["config"]["seed"] == 7


def test_simulate_config_errors(tmp_path, capsys):
    assert main(["simulate"]) == 3
    cfg = write(tmp_path / "x.json", json.dumps({"n_obs": 50, "grid_points": 8}))
    assert main(["simulate", "--config", cfg]) == 3
    bad_n = dict(SIM_CFG, n_obs=0)
    cfg2 = write(tmp_path / "y.json", json.dumps(bad_n))
    assert main(["simulate", "--config", cfg2]) == 3
    capsys.readouterr()


# ---------------------------------------------------------------- cli: mc-verify


MC_CFG = {
    "experiment": {
        "dgp": {"kind": "iid", "sigmas": [1.0]},
        "kernel": "bartlett",
        "n_obs": 150,
        "grid_points": 1,
        "h": 5,
        "replications": 12,
        "eigen_levels": [1],
        "master_seed": 2,
    },
    "bias_check": {"h": [2.0, 4.0, 8.0], "replications": 20},
}


def test_mc_verify_smoke(tmp_path):
    cfg = write(tmp_path / "mc.json", json.dumps(MC_CFG))
    out = str(tmp_path / "out")
    rc = main(["mc-verify", "--config", cfg, "--out", out])
    assert rc == 0
    report = json.load(open(f"{out}/report.json"))
    assert report["experiment"]["master_seed"] == 2
    assert report["report"]["replications"] == 12
    assert len(report["report"]["projections"]) == 1
    assert len(report["report"]["eigen_levels"]) == 1
    assert report["bias_check"] is not None
    assert len(report["bias_check"]["points"]) == 3
    qq, qh = io.read_matrix_csv(f"{out}/qq_projection_0.csv")
    assert qh == ["normal", "empirical"] and qq.shape == (12, 2)
    assert np.all(np.diff(qq[:, 1]) >= 0)  # empirical side is sorted
    qe, _ = io.read_matrix_csv(f"{out}/qq_eigen_1.csv")
    assert qe.shape == (12, 2)
    # bias.csv may carry nan in the log-error column by design (noise-floor
    # dominated points), so inspect it as text rather than as input data
    bias_lines = open(f"{out}/bias.csv").read().splitlines()
    assert bias_lines[0].split(",")[:2] == ["h", "err_raw"]
    assert len(bias_lines) == 4
    assert all(len(line.split(",")) == 7 for line in bias_lines)
    meta = json.load(open(f"{out}/metadata.json"))
    assert meta["config"]["bias_check"]["replications"] == 20


def test_mc_verify_seed_override(tmp_path):
    base = {"experiment": dict(MC_CFG["experiment"])}
    cfg = write(tmp_path / "mc.json", json.dumps(base))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["mc-verify", "--config", cfg, "--seed", "77", "--out", out1]) == 0
    assert main(["mc-verify", "--config", cfg, "--out", out2]) == 0
    r1 = json.load(open(f"{out1}/report.json"))
    r2 = json.load(open(f"{out2}/report.json"))
    assert r1["experiment"]["master_seed"] == 77
    assert r2["experiment"]["master_seed"] == 2
    assert r1["report"]["projections"][0]["mean"] != r2["report"]["projections"][0]["mean"]


def test_mc_verify_config_errors(tmp_path, capsys, monkeypatch):
    # run from a scratch directory so any premature output would be visible
    workdir = tmp_path / "work"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(["mc-verify"]) == 3
    cfg = write(tmp_path / "a.json", json.dumps({"bias_check": {"h": [1, 2, 3]}}))
    assert main(["mc-verify", "--config", cfg]) == 3
    bad_bias = {"experiment": MC_CFG["experiment"], "bias_check": {"h": [1, 2, 3]}}
    cfg2 = write(tmp_path / "b.json", json.dumps(bad_bias))
    assert main(["mc-verify", "--config", cfg2]) == 3
    odd_bias = {"experiment": MC_CFG["experiment"], "bias_check": {"h": [1, 2, 3], "replications": 5, "x": 1}}
    cfg3 = write(tmp_path / "c.json", json.dumps(odd_bias))
    assert main(["mc-verify", "--config", cfg3]) == 3
    # a bad bias_check must fail before the experiment runs or writes anything
    assert list(workdir.iterdir()) == []
    capsys.readouterr()
