import contextlib
import functools
import json
import math
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor
from io import StringIO
from pathlib import Path
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrcov import (
    ContractViolationError,
    DataFormatError,
    DgpSpec,
    DimensionError,
    Grid,
    Surface,
    estimate_lrcov,
    generate,
    make_kernel,
    plugin_bandwidth,
    replication_rng,
)
from lrcov import cli, io
from lrcov.cli import _COMMANDS, _SETTINGS, main

import installed_checks


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@contextlib.contextmanager
def per_line_parser_only():
    """Read every file through the per-line parser, as if ``np.loadtxt`` refused it."""
    with mock.patch.object(io, "_parse_bulk", lambda fh: None):
        yield


def read_outcome(path, strict=False):
    """(values, header) from read_matrix_csv, or the DataFormatError it raised."""
    with per_line_parser_only() if strict else contextlib.nullcontext():
        try:
            return io.read_matrix_csv(path)
        except DataFormatError as exc:
            return exc


def assert_same_outcome(got, want):
    if isinstance(got, Exception) or isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got[1] == want[1]
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()


def read_both(path):
    """read_matrix_csv, after checking that the per-line parser alone agrees bit for bit."""
    outcome = read_outcome(path)
    assert_same_outcome(outcome, read_outcome(path, strict=True))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def reference_csv(a, header=None):
    """The writer's bytes, one joined line per row, as a test-local oracle."""
    lines = [] if header is None else [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) for row in a]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- io layer


def test_format_float_round_trips_bit_exactly(tmp_path):
    cases = [0.1, 1.0 / 3.0, -0.0, 1e-300, 5e-324, 1e300, math.pi, 2.0**53 + 2.0]
    cases += [0.0, -5e-324, 2.2250738585072009e-308, -1e-310, 1.7976931348623157e308]
    cases += [-1.7976931348623157e308]
    p = str(tmp_path / "f.csv")
    io.write_matrix_csv(p, np.array([cases]))
    assert Path(p).read_text(encoding="utf-8") == ",".join(map(repr, cases)) + "\n"
    back, _ = read_both(p)
    assert back.shape == (1, len(cases))
    for x, y in zip(cases, back[0].tolist()):
        assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)


def test_matrix_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(40)
    a = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-12, 12, size=(7, 3))
    p = str(tmp_path / "m.csv")
    io.write_matrix_csv(p, a)
    back, header = read_both(p)
    assert header is None
    assert np.array_equal(back, a)


def test_matrix_header_round_trip(tmp_path):
    a = np.array([[1.5, 2.5], [3.5, 4.5]])
    p = str(tmp_path / "h.csv")
    io.write_matrix_csv(p, a, header=["alpha", "beta"])
    back, header = read_both(p)
    assert header == ["alpha", "beta"]
    assert np.array_equal(back, a)
    # no field of "1_0,x" is a plain number, so that line is a header too
    back, header = read_both(write(tmp_path / "sep.csv", "1_0,x\n1.5,2.5\n3.5,4.5\n"))
    assert header == ["1_0", "x"] and np.array_equal(back, a)


def test_ragged_row_is_named(tmp_path):
    p = write(tmp_path / "ragged.csv", "1,2\n3\n")
    with pytest.raises(DataFormatError, match="row 2"):
        read_both(p)


def test_bad_cell_is_named(tmp_path):
    # float() alone reads a digit separator and non-ASCII digits; np.loadtxt refuses them
    for cell in ("x", "1_0", "\u0661", "\uff11"):
        p = write(tmp_path / "bad.csv", f"1,2\n3,{cell}\n")
        with pytest.raises(DataFormatError, match="row 2, column 2"):
            read_both(p)


def test_non_finite_cells_are_data_errors_not_headers(tmp_path):
    # 'inf' and 'nan' parse as floats, so a leading row of them is not a
    # header; it must be rejected as data with a position
    p = write(tmp_path / "inf.csv", "inf,nan\n1,2\n")
    with pytest.raises(DataFormatError, match="row 1, column 1"):
        read_both(p)
    p = write(tmp_path / "nan.csv", "1,2\n3,nan\n")
    with pytest.raises(DataFormatError, match="row 2, column 2"):
        read_both(p)


@pytest.mark.parametrize("first", [",", " , "], ids=["bare", "spaces"])
def test_a_first_line_with_no_text_is_data_not_a_header(tmp_path, capsys, first):
    p = write(tmp_path / "empty.csv", f"{first}\n1,2\n3,4\n")
    with pytest.raises(DataFormatError, match="^row 1, column 1: cannot parse ''$"):
        read_both(p)
    out = tmp_path / "out"
    assert main(["estimate", "--data", p, "--h", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: row 1, column 1: cannot parse ''\n"
    assert not out.exists()


def test_blank_line_is_an_error(tmp_path):
    p = write(tmp_path / "blank.csv", "1\n\n3\n")
    with pytest.raises(DataFormatError, match="row 2"):
        read_both(p)


def test_byte_order_mark_keeps_first_row(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes("1,2\n3,4\n5,6\n".encode("utf-8-sig"))
    values, header = read_both(str(p))
    assert header is None
    assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    p.write_bytes("a,b\n1,2\n".encode("utf-8-sig"))
    assert read_both(str(p))[1] == ["a", "b"]


def test_trailing_blank_lines_are_ignored(tmp_path):
    values, _ = read_both(write(tmp_path / "tail.csv", "1,2\n3,4\n\n \n"))
    assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DataFormatError, match="row 2"):
        read_both(write(tmp_path / "mid.csv", "1,2\n\n3,4\n\n"))


# str.splitlines ends a line at each of these; np.loadtxt and lrcov end a row only at a newline
ROW_BREAKS_OF_STR = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "text",
    ["1.5,1#\n2,3\n", "0.3,x\n2,3\n4,5\n", *(f"1,2{sep}3,4\n5,6\n" for sep in ROW_BREAKS_OF_STR)],
)
def test_first_line_with_a_number_is_data_not_a_header(tmp_path, capsys, text):
    # a header is a first line none of whose fields parses as a number, so a
    # first row with one bad cell is a data error instead of being dropped;
    # a line separator inside a row is part of its cell, not a new row
    p = write(tmp_path / "mixed.csv", text)
    with pytest.raises(DataFormatError, match="row 1, column 2"):
        read_both(p)
    out = tmp_path / "o"
    assert main(["estimate", "--data", p, "--h", "2", "--out", str(out)]) == 2
    assert "row 1, column 2" in capsys.readouterr().err
    assert not out.exists()


def test_header_width_mismatch(tmp_path):
    p = write(tmp_path / "hm.csv", "a,b,c\n1,2\n")
    with pytest.raises(DataFormatError, match="header"):
        read_both(p)


def test_empty_and_header_only_files(tmp_path):
    with pytest.raises(DataFormatError, match="no data rows"):
        read_both(write(tmp_path / "empty.csv", ""))
    with pytest.raises(DataFormatError, match="no data rows"):
        read_both(write(tmp_path / "only.csv", "a,b\n"))


def test_non_utf8_data_file_is_a_data_error(tmp_path, capsys):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"1,2\n3,\xff4\n")
    with pytest.raises(DataFormatError, match="not UTF-8"):
        read_both(str(p))
    out = tmp_path / "o"
    assert main(["estimate", "--data", str(p), "--h", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(p) in err and "UTF-8" in err
    assert not out.exists()


def test_non_utf8_byte_past_the_first_block_names_its_file_offset(tmp_path):
    p = tmp_path / "late.csv"
    p.write_bytes(b"1.25,2.5\n" * 2000 + b"3,\xff4\n")
    with pytest.raises(DataFormatError, match="position 18002"):
        read_both(str(p))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("text", ["a,b\n1,2\n3,4\n", "a,b\n1,2\n3,x\n"])
def test_a_named_pipe_reads_like_a_file(tmp_path, text):
    f = write(tmp_path / "f.csv", text)
    fifo = str(tmp_path / "pipe.csv")
    os.mkfifo(fifo)
    writer = threading.Thread(target=Path(fifo).write_text, args=(text,), daemon=True)
    writer.start()
    assert_same_outcome(read_outcome(fifo), read_outcome(f))
    writer.join(timeout=10)


def test_clean_file_is_read_in_one_bulk_parse(tmp_path, monkeypatch):
    def refuse(line, row_no, n_cols):
        raise AssertionError("a clean file went through the per-line parser")

    monkeypatch.setattr(io, "_parse_row", refuse)
    p = tmp_path / "clean.csv"
    p.write_bytes("\ufeffa,b\r\n 1.5,\t-2e-3\r\n3,4\xa0\r\n\r\n".encode("utf-8"))
    values, header = io.read_matrix_csv(str(p))
    assert header == ["a", "b"]
    assert np.array_equal(values, [[1.5, -2e-3], [3.0, 4.0]])
    for sep in ROW_BREAKS_OF_STR:  # padding before the newline, as np.loadtxt reads it
        padded = write(tmp_path / "padded.csv", f"1,2{sep}\n3,4{sep}\n")
        values, header = io.read_matrix_csv(padded)
        assert header is None and values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert np.array_equal(values, np.loadtxt(padded, delimiter=",", encoding="utf-8"))
    # the cli-pipeline benchmark's sample, simulate's far1 draw at seed 312, keeps its bits
    dgp = DgpSpec.from_dict({"kind": "far1", "sigmas": [1.0, 0.7, 0.5, 0.35, 0.25, 0.15], "rho": 0.5})
    sample = generate(dgp, 50_000, Grid(64), replication_rng(312, 0))
    p = str(tmp_path / "sample.csv")
    io.write_curves_csv(p, sample)
    back = io.read_curves(p)
    assert back.grid == sample.grid
    assert back.values.shape == (50_000, 64) and back.values.tobytes() == sample.values.tobytes()


def test_read_curves_needs_two_rows(tmp_path):
    for parser in (contextlib.nullcontext(), per_line_parser_only()):
        with parser, pytest.raises(DataFormatError, match="at least 2"):
            io.read_curves(write(tmp_path / "one.csv", "1,2\n"))


def test_read_surface_must_be_square(tmp_path):
    p = write(tmp_path / "rect.csv", "1,2,3\n4,5,6\n")
    values, header = read_both(p)
    assert header is None and values.shape == (2, 3)
    with pytest.raises(DimensionError):
        Surface(Grid(values.shape[0]), values)


_CELL_PADDING = st.sampled_from(["", " ", "\t", "\xa0", " \t"])
_BAD_CELLS = st.sampled_from(["1_0", "nan", "inf", "-inf", "1e999", "#", "#1", "", "x", "1 2"])
_BAD_SUFFIXES = st.sampled_from(["#", " # note", "_0", "x", " 2"])
_BLANK_LINES = st.sampled_from(["", " ", "\t"])


@st.composite
def csv_texts(draw):
    """CSV text near the clean case: repr'd floats, padding, then a few defects."""
    n_rows, n_cols = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = [
        [draw(_CELL_PADDING) + draw(finite) + draw(_CELL_PADDING) for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    blank_at = []
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n_rows - 1))
        defect = draw(
            st.sampled_from(["cell", "suffix", "trailing-comma", "ragged", "empty", "blank"])
        )
        if defect == "cell":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_CELL_PADDING) + draw(_BAD_CELLS)
        elif defect == "suffix":  # text after a number at the end of a line
            rows[i][-1] += draw(_BAD_SUFFIXES)
        elif defect == "trailing-comma":
            rows[i].append("")
        elif defect == "ragged":
            rows[i] = rows[i][:-1] or ["1", "2"]
        else:  # loadtxt skips an empty line but refuses a blank one
            blank_at.append((i, "" if defect == "empty" else draw(_BLANK_LINES)))
    lines = [",".join(row) for row in rows]
    for i, blank in sorted(blank_at, reverse=True):
        lines.insert(i, blank)
    if draw(st.booleans()):
        width = max(1, n_cols + draw(st.sampled_from([0, 0, 0, -1, 1])))
        lines.insert(0, ",".join(draw(st.sampled_from(["a", " t ", "x y"])) for _ in range(width)))
    lines += draw(st.lists(_BLANK_LINES, max_size=2))  # trailing blank lines are dropped
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return draw(st.sampled_from(["", "\ufeff"])) + eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_bulk_and_per_line_parsers_agree(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("csv") / "t.csv"
    p.write_bytes(text.encode("utf-8"))
    assert_same_outcome(read_outcome(str(p)), read_outcome(str(p), strict=True))


_LINE_PIECES = st.sampled_from(
    ["1", ",2.5", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\u2028"]
)


@settings(max_examples=300, deadline=None)
@given(text=st.lists(_LINE_PIECES, max_size=30).map("".join))
def test_rows_are_the_rows_np_loadtxt_reads(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("csv") / "t.csv"
    p.write_bytes(text.encode("utf-8"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file with no rows
            want = np.loadtxt(p, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except ValueError:
        return  # numpy refuses the file; lrcov names the bad cell instead
    if not want.size:
        return
    got = read_outcome(str(p))
    lines = p.read_text(encoding="utf-8").split("\n")  # universal newlines made every break \n
    while not lines[-1].strip():
        lines.pop()
    if "" in lines:  # loadtxt skips an empty line; lrcov refuses one before its last row
        assert isinstance(got, DataFormatError)
    else:
        assert_same_outcome(got, (want, None))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (1, 1), (5, 4), (2500, 3)])
@pytest.mark.parametrize("with_header", [False, True])
def test_write_matrix_bytes_match_a_joined_reference(tmp_path, shape, with_header):
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    if a.size:
        a.flat[rng.integers(0, a.size, size=3)] = [np.nan, np.inf, -0.0]
    header = [f"c{j}" for j in range(shape[1])] if with_header else None
    p = tmp_path / "w.csv"
    io.write_matrix_csv(str(p), a, header=header)
    assert p.read_bytes() == reference_csv(a, header).encode("utf-8")


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
            "f32": np.float32(0.1),
            "flag": np.bool_(True),
            "off": False,
            "arr": np.arange(3),
            "nested": {"n": np.int64(7), "row": (np.float32(0.5), np.float64(2.0))},
        },
    )
    text = Path(p).read_text()
    assert text.endswith("\n")
    assert f'"f32": {float(np.float32(0.1))!r}' in text
    back = json.loads(text)
    assert back["f"] == 1.5
    assert back["f32"] == float(np.float32(0.1))
    assert back["nested"]["row"] == [0.5, 2.0]
    assert back["flag"] is True and back["off"] is False
    assert back["arr"] == [0, 1, 2]
    assert back["nested"]["n"] == 7


@pytest.mark.parametrize("value", [math.nan, np.float64(math.inf), np.array([1.0, -np.inf])])
def test_write_json_refuses_a_non_finite_number_and_writes_nothing(tmp_path, value):
    p = tmp_path / "t.json"
    with pytest.raises(ContractViolationError, match=r"t\.json holds a non-finite number$"):
        io.write_json(str(p), {"ok": 1.0, "nested": {"row": [2.0, value]}})
    assert not p.exists()


# ---------------------------------------------------------------- cli: estimate


def test_estimate_two_point_example(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "1\n3\n")
    out = str(tmp_path / "out")
    rc = main(["estimate", "--data", data, "--kernel", "bartlett", "--h", "1", "--out", out])
    assert rc == 0
    assert capsys.readouterr().err == ""
    surface, _ = io.read_matrix_csv(f"{out}/estimate.csv")
    assert surface.shape == (1, 1) and surface[0, 0] == 1.0
    meta = json.loads(Path(f"{out}/metadata.json").read_text())
    assert meta["command"] == "estimate"
    assert meta["n_obs"] == 2 and meta["grid_points"] == 1
    assert meta["config"]["kernel"] == "bartlett"
    assert meta["config"]["unbiased"] is False and meta["config"]["psd"] is False
    assert meta["h_selection"] == {"rule": "fixed", "h": 1.0, "plugin": None}


def test_estimate_defaults_and_config_file(tmp_path):
    rng = np.random.default_rng(41)
    rows = "\n".join(",".join(repr(v) for v in row.tolist()) for row in rng.normal(size=(40, 2)))
    data = write(tmp_path / "d.csv", rows + "\n")
    settings = {"kernel": "parzen", "h": 3, "unbiased": True, "psd": True}
    cfg = write(tmp_path / "cfg.json", json.dumps(settings))
    out = str(tmp_path / "out")
    rc = main(["estimate", "--data", data, "--config", cfg, "--out", out])
    assert rc == 0
    meta = json.loads(Path(f"{out}/metadata.json").read_text())
    assert meta["kernel"] == "parzen"
    assert meta["config"]["unbiased"] is True
    assert meta["config"]["psd"] is True and meta["psd_applied"] is True
    # flags beat the config file
    out2 = str(tmp_path / "out2")
    rc = main(["estimate", "--data", data, "--config", cfg, "--kernel", "bartlett", "--out", out2])
    assert rc == 0
    assert json.loads(Path(f"{out2}/metadata.json").read_text())["kernel"] == "bartlett"


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
    meta = json.loads(Path(f"{out}/metadata.json").read_text())
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
    trace = json.loads(Path(f"{out}/metadata.json").read_text())["h_selection"]
    assert trace["rule"] == "plugin"
    plug = trace["plugin"]
    assert plug["pilot_h"] == 4.0 and plug["m_trunc"] == 4
    assert set(plug) == {
        "c0_hat", "F_norm_hat", "C_integral_hat", "fallback_used", "clamped",
        "pilot_h", "m_trunc",
    }
    # a config m_trunc reaches the plug-in rule
    cfg = write(tmp_path / "cfg.json", json.dumps({"m_trunc": 2}))
    assert main(["estimate", "--data", data, "--h", "plugin:4", "--config", cfg, "--out", out]) == 0
    meta = json.loads(Path(f"{out}/metadata.json").read_text())
    assert meta["config"]["m_trunc"] == meta["h_selection"]["plugin"]["m_trunc"] == 2


def test_warnings_print_as_one_line_each(tmp_path, capsys):
    # on this white noise the plug-in picks h = 7.9, past Parzen's h^2 <= N
    data = str(tmp_path / "d.csv")
    io.write_matrix_csv(data, np.random.default_rng(41).standard_normal((40, 2)))
    out = str(tmp_path / "out")
    assert main(["estimate", "--data", data, "--kernel", "parzen", "--h", "plugin", "--out", out]) == 0
    err = capsys.readouterr().err
    assert "warning: h^2 = 62.6 exceeds N = 40" in err
    assert all(line.startswith("warning: ") for line in err.splitlines())
    assert "UserWarning" not in err and "cli.py" not in err


@pytest.mark.parametrize("method", [None, "fork", "spawn", "forkserver"])
def test_worker_warnings_print_as_one_line_each(tmp_path, capfd, monkeypatch, method):
    # Parzen at h = 8 on N = 50 warns in every replication; None runs them in-process
    if method is not None:
        pool = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context(method))
        monkeypatch.setattr("lrcov.mc.ProcessPoolExecutor", pool)
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    exp = {"dgp": {"kind": "iid", "sigmas": [1.0]}, "kernel": "parzen", "n_obs": 50,
           "grid_points": 1, "h": 8, "replications": 12, "workers": 1 if method is None else 2}
    cfg = write(tmp_path / "mc.json", json.dumps({"experiment": exp}))
    assert main(["mc-verify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    err = capfd.readouterr().err
    assert err == "warning: h^2 = 64 exceeds N = 50; the leading bias approximation degrades\n"


# ---------------------------------------------------------------- cli: exit codes


def test_exit_code_data_error(tmp_path, capsys):
    data = write(tmp_path / "ragged.csv", "1,2\n3\n")
    out = tmp_path / "out"
    for parser in (contextlib.nullcontext(), per_line_parser_only()):
        with parser:
            rc = main(["estimate", "--data", data, "--h", "2", "--out", str(out)])
        assert rc == 2
        assert "row 2" in capsys.readouterr().err
        assert not out.exists()


def test_every_command_releases_the_heap_once_as_it_ends(tmp_path, capsys, monkeypatch):
    # an in-process caller's footprint must not keep what an earlier command freed
    calls = []
    monkeypatch.setattr(cli, "_malloc_trim", calls.append)
    data = write(tmp_path / "d.csv", "1,2\n3,4\n5,7\n")
    for argv, rc in [
        (["estimate", "--data", data, "--h", "1", "--out", str(tmp_path / "ok")], 0),
        (["estimate", "--data", write(tmp_path / "bad.csv", "1,2\n3\n"), "--h", "1"], 2),
        (["estimate", "--bogus"], 3),
    ]:
        assert main(argv) == rc
    assert calls == [0, 0, 0]
    capsys.readouterr()


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


def test_non_utf8_config_file_is_a_config_error(tmp_path, capsys):
    data = write(tmp_path / "d.csv", "1\n3\n")
    cfg = tmp_path / "latin1.json"
    cfg.write_bytes(b'{"kernel": "\xff"}')
    assert main(["estimate", "--data", data, "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err and "UTF-8" in err


def test_exit_code_numeric_contract(tmp_path, capsys):
    data = write(tmp_path / "const.csv", "1,1\n1,1\n1,1\n1,1\n")
    out = tmp_path / "out"
    rc = main(["bandwidth", "--data", data, "--h", "2", "--out", str(out)])
    assert rc == 4
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_separation(tmp_path, capsys):
    # two orthogonal unit-variance directions: the lag-0 surface is exactly
    # the identity, so the top eigenvalues tie and level-1 inference refuses
    data = write(tmp_path / "tied.csv", "1,1\n-1,-1\n1,-1\n-1,1\n")
    out = tmp_path / "out"
    rc = main(["fpca", "--data", data, "--h", "1", "--p", "1", "--out", str(out)])
    assert rc == 5
    assert "separat" in capsys.readouterr().err.lower()
    assert not out.exists()


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
    meta = json.loads(Path(f"{out}/metadata.json").read_text())
    assert len(meta["separation_gaps"]) == 2
    assert all(g > 0 for g in meta["separation_gaps"])


def test_fpca_nonpositive_eigenvalue_gets_nan_interval(tmp_path):
    # G=2 with one degenerate direction: second eigenvalue is exactly zero
    data = write(tmp_path / "d.csv", "1,1\n1,-1\n")
    out = str(tmp_path / "out")
    rc = main(["fpca", "--data", data, "--h", "1", "--p", "2", "--out", out])
    assert rc == 0
    lines = Path(f"{out}/eigenvalues.csv").read_text().splitlines()
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


def test_fpca_p_exceeding_grid_exits_3_before_the_estimate(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the estimate ran before p was checked against the grid")

    monkeypatch.setattr("lrcov.cli.estimate_lrcov", refuse)
    monkeypatch.setattr("lrcov.mc.plugin_bandwidth", refuse)
    data = write(tmp_path / "d.csv", "1,2\n3,5\n4,6\n2,7\n")
    for h in ("1", "plugin"):
        assert main(["fpca", "--data", data, "--h", h, "--p", "3"]) == 3
        assert "exceeds the grid size 2" in capsys.readouterr().err


def test_m_trunc_at_n_exits_3_before_the_plugin(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the plug-in rule ran before m_trunc was checked against N")

    monkeypatch.setattr("lrcov.mc.plugin_bandwidth", refuse)
    data = write(tmp_path / "d.csv", "1,2\n3,5\n4,6\n2,7\n")
    cfg = write(tmp_path / "cfg.json", json.dumps({"m_trunc": 4}))
    out = tmp_path / "out"
    for argv in (["estimate", "--h", "plugin"], ["fpca", "--h", "plugin"], ["bandwidth"]):
        assert main([*argv, "--data", data, "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: m_trunc = 4 must be below N = 4\n"
        assert not out.exists()


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
    payload = json.loads(Path(f"{out}/bandwidth.json").read_text())
    assert set(payload) == {"h_plugin", "c0_hat", "F_norm_hat", "C_integral_hat", "fallback_used"}
    sel = plugin_bandwidth(io.read_curves(data), make_kernel("bartlett"), 4.0)
    assert payload["h_plugin"] == sel.bandwidth.h
    assert payload["c0_hat"] == sel.c0
    assert payload["F_norm_hat"] == sel.f_norm
    assert payload["C_integral_hat"] == sel.c_integral
    assert payload["fallback_used"] is sel.fallback
    meta = json.loads(Path(f"{out}/metadata.json").read_text())
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


def test_every_json_output_is_strict_json(tmp_path, capsys):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    # m_trunc = 0 zeroes the pilot bias surface, so the plug-in falls back to the rate alone
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", write(tmp_path / "s.json", json.dumps(SIM_CFG)),
                 "--out", str(sim)]) == 0
    data = str(sim / "sample.csv")
    fallback = write(tmp_path / "m0.json", json.dumps({"m_trunc": 0}))
    runs = {
        "estimate": ["estimate", "--data", data, "--h", "plugin"],
        "estimate-fallback": ["estimate", "--data", data, "--h", "plugin", "--config", fallback],
        "fpca": ["fpca", "--data", data, "--h", "plugin", "--p", "2"],
        "bandwidth": ["bandwidth", "--data", data, "--kernel", "parzen"],
        "bandwidth-fallback": ["bandwidth", "--data", data, "--config", fallback],
        "mc-verify": ["mc-verify", "--config", write(tmp_path / "mc.json", json.dumps(MC_CFG))],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    capsys.readouterr()
    docs = {
        str(path.relative_to(tmp_path)): json.loads(path.read_text(), parse_constant=refuse)
        for path in sorted(tmp_path.glob("*/*.json"))
    }
    assert len(docs) == 11  # simulate, bandwidth and mc-verify write two each, the others one
    for name, argv in {"sim": ["simulate"], **runs}.items():
        meta = docs[f"{name}/metadata.json"]
        assert meta["command"] == argv[0] and isinstance(meta["config"], dict), name
    assert docs["bandwidth/metadata.json"]["config"]["flat_width"] == 0.5
    assert docs["bandwidth-fallback/bandwidth.json"]["fallback_used"] is True
    assert docs["bandwidth-fallback/bandwidth.json"]["c0_hat"] is None
    assert docs["estimate-fallback/metadata.json"]["h_selection"]["plugin"]["c0_hat"] is None


def test_a_non_finite_number_in_a_json_output_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("lrcov.cli.surface_integral", lambda surface: math.inf)
    out = tmp_path / "run"
    assert main(["simulate", "--config", write(tmp_path / "s.json", json.dumps(SIM_CFG)),
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: truth.json holds a non-finite number\n"
    assert not out.exists()


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
    bytes1 = Path(f"{out1}/sample.csv").read_bytes()
    assert bytes1 == Path(f"{out2}/sample.csv").read_bytes()
    sample, _ = io.read_matrix_csv(f"{out1}/sample.csv")
    assert sample.shape == (50, 8)
    truth_doc = json.loads(Path(f"{out1}/truth.json").read_text())
    # long-run integral: (1 + theta)^2 times the noise integral, which is
    # sigma_1^2 because only the constant basis function has nonzero mean
    assert truth_doc["c_integral"] == pytest.approx(2.25, rel=1e-12)
    assert truth_doc["eigenvalues"] == sorted(truth_doc["eigenvalues"], reverse=True)
    assert np.array(truth_doc["c"]).shape == (8, 8)
    assert set(truth_doc["gamma_norms"]) == {"0", "1"}
    meta = json.loads(Path(f"{out1}/metadata.json").read_text())
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
    assert json.loads(Path(f"{out1}/metadata.json").read_text())["config"]["seed"] == 7


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
    report = json.loads(Path(f"{out}/report.json").read_text())
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
    bias_lines = Path(f"{out}/bias.csv").read_text().splitlines()
    assert bias_lines[0].split(",")[:2] == ["h", "err_raw"]
    assert len(bias_lines) == 4
    assert all(len(line.split(",")) == 7 for line in bias_lines)
    meta = json.loads(Path(f"{out}/metadata.json").read_text())
    assert meta["config"]["bias_check"]["replications"] == 20


def test_mc_verify_huge_scores_give_finite_moments(tmp_path, capsys):
    # fourth powers of these scaled errors overflow a double; their standardized ones do not
    exp = {"dgp": {"kind": "iid", "sigmas": [1e40, 1.0]}, "kernel": "parzen", "n_obs": 100,
           "grid_points": 4, "h": "plugin", "replications": 12, "eigen_levels": [1]}
    cfg = write(tmp_path / "mc.json", json.dumps({"experiment": exp}))
    out = tmp_path / "out"
    assert main(["mc-verify", "--config", cfg, "--out", str(out)]) == 0
    assert "overflow" not in capsys.readouterr().err
    proj = json.loads((out / "report.json").read_text())["report"]["projections"][0]
    assert math.isfinite(proj["skewness"]) and math.isfinite(proj["ex_kurtosis"])


def test_mc_verify_seed_override(tmp_path):
    base = {"experiment": dict(MC_CFG["experiment"])}
    cfg = write(tmp_path / "mc.json", json.dumps(base))
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["mc-verify", "--config", cfg, "--seed", "77", "--out", out1]) == 0
    assert main(["mc-verify", "--config", cfg, "--out", out2]) == 0
    r1 = json.loads(Path(f"{out1}/report.json").read_text())
    r2 = json.loads(Path(f"{out2}/report.json").read_text())
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


def mc_verify_under_cap(tmp_path, capsys, monkeypatch, cap):
    """mc-verify's exit code and stderr with LRCOV_THREADS=cap; the bias check must not run."""
    def refuse(*args, **kwargs):
        raise AssertionError("the bias check ran before LRCOV_THREADS was checked")

    monkeypatch.setattr("lrcov.cli.bias_rate_check", refuse)
    monkeypatch.setenv("LRCOV_THREADS", cap)
    cfg = write(tmp_path / "mc.json", json.dumps(MC_CFG))
    out = tmp_path / "out"
    rc = main(["mc-verify", "--config", cfg, "--out", str(out)])
    assert not out.exists()
    return rc, capsys.readouterr().err


def test_bad_worker_cap_exits_3_before_the_bias_check(tmp_path, capsys, monkeypatch):
    rc, err = mc_verify_under_cap(tmp_path, capsys, monkeypatch, "soup")
    assert rc == 3
    assert "LRCOV_THREADS" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_worker_cap_below_one_exits_3_before_the_bias_check(tmp_path, capsys, monkeypatch, cap):
    rc, err = mc_verify_under_cap(tmp_path, capsys, monkeypatch, cap)
    assert rc == 3
    assert err == f"error: LRCOV_THREADS must be an integer >= 1, got '{cap}'\n"


@pytest.mark.parametrize(
    "experiment, cap, code, err",
    [
        ({"dgp": {"kind": "iid", "sigmas": [1.0, 1.0]}, "eigen_levels": [1]}, None, 5,
         "error: eigenvalues 1 and 2 separated by 0 (< 1e-08); level-1 inference refused\n"),
        ({"h": "power:1e308,0.9"}, None, 4, "error: bandwidth must be positive and finite, got inf\n"),
        ({}, "soup", 3, "error: LRCOV_THREADS must be an integer >= 1, got 'soup'\n"),
    ],
    ids=["tied-levels", "power-1e308", "threads-soup"],
)
def test_experiment_refusals_come_before_a_long_bias_check(
    tmp_path, capsys, monkeypatch, experiment, cap, code, err
):
    def refuse(*args):
        raise AssertionError("a replication ran before the experiment was refused")

    monkeypatch.setattr("lrcov.mc._pooled", refuse)
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    if cap is not None:
        monkeypatch.setenv("LRCOV_THREADS", cap)
    cfg = mc_config({"h": [2, 4, 8], "replications": 4000}, n_obs=200, grid_points=8, workers=1)
    cfg["experiment"].update(experiment)
    path = write(tmp_path / "mc.json", json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["mc-verify", "--config", path, "--out", str(out)]) == code
    assert capsys.readouterr().err == err
    assert not out.exists()

class Replicated(Exception):
    """Raised by a patched ``mc._pooled``: the configuration passed every check."""


# the exits 4 that only the drawn samples decide; the last is the underflow that mirrors the
# first: at h near 1e308 the scaled errors are distinct values near 1e-167 whose squares are 0
DATA_EXITS = (
    "error: sample variance overflows a double\n",
    installed_checks.NON_FINITE,
    "error: squared estimates overflow a double\n",
    "error: sample variance underflows a double\n",
)


@st.composite
def bias_checked_configs(draw):
    """A small one-worker mc-verify config with a bias check, and an LRCOV_THREADS value."""
    sigmas = draw(st.lists(st.sampled_from([1.0, 0.5, 0.25]), min_size=1, max_size=3))  # ties too
    levels = draw(st.lists(st.integers(1, len(sigmas)), unique=True, max_size=len(sigmas)))
    coef = draw(st.one_of(st.just(1e308), st.floats(1e-2, 1e308)))
    power = draw(st.floats(0.1, 0.9))
    experiment = {
        "dgp": {"kind": "iid", "sigmas": sigmas},
        "kernel": draw(st.sampled_from(["bartlett", "parzen"])),
        "n_obs": draw(st.integers(20, 100)),
        "grid_points": draw(st.integers(2 * (len(sigmas) // 2) + 1, 8)),
        "h": draw(st.sampled_from([3, f"power:{coef!r},{power!r}"])),
        "replications": draw(st.integers(8, 16)),
        "eigen_levels": levels,
        "master_seed": draw(st.integers(0, 99)),
        "workers": 1,
    }
    bias_check = {"h": [2, 4, 8], "replications": draw(st.integers(2, 16))}
    cap = draw(st.sampled_from([None, "1", "2", "3", "soup", "0", "-2", "2.5"]))
    return {"experiment": experiment, "bias_check": bias_check}, cap


def mc_verify_outcome(cfg, cap, out, pooled=None) -> tuple:
    """mc-verify's exit code and stderr on ``cfg`` under LRCOV_THREADS=cap; ``pooled`` patches mc."""
    err = StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ))  # undoes the changes below
        os.environ.pop("LRCOV_THREADS", None)
        if cap is not None:
            os.environ["LRCOV_THREADS"] = cap
        if pooled is not None:
            stack.enter_context(mock.patch("lrcov.mc._pooled", pooled))
        stack.enter_context(contextlib.redirect_stderr(err))
        path = write(out.parent / f"{out.name}.json", json.dumps(cfg))
        code = main(["mc-verify", "--config", path, "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(case=bias_checked_configs())
def test_mc_verify_refuses_a_config_before_any_replication(tmp_path_factory, case):
    def refuse(*args):
        raise Replicated

    cfg, cap = case
    out = tmp_path_factory.mktemp("mc") / "out"
    try:
        code, err = mc_verify_outcome(cfg, cap, out, refuse)
    except Replicated:  # every setting passed: only the samples may still refuse the run
        code, err = mc_verify_outcome(cfg, cap, out)
        assert code == 0 or (code == 4 and err.endswith(DATA_EXITS)), (code, err)
        return
    assert code in (3, 4, 5), (code, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err  # no warning line either
    assert not out.exists()


# ---------------------------------------------------------------- cli: bad settings


def mc_config(bias_check=None, **experiment):
    base = {
        "dgp": {"kind": "fma", "sigmas": [1.0, 0.5], "theta": [0.5]},
        "kernel": "bartlett",
        "n_obs": 100,
        "grid_points": 4,
        "h": 3,
        "replications": 12,
        "eigen_levels": [1, 2],
    }
    return {"experiment": {**base, **experiment}, "bias_check": bias_check}


NYQUIST_SIGMAS = {"kind": "iid", "sigmas": [1.0, 0.8, 0.6, 0.7]}  # the 4th is zero on 4 points
FAR1_BURN_IN = {"kind": "far1", "sigmas": [1.0, 0.5], "rho": 0.5, "burn_in": 200}
# each truth overflows a double: the moving average's coefficients, the noise, the AR(1) gain
THETA_1E200 = {"kind": "fma", "sigmas": [1.0, 0.5], "theta": [1e200]}
SIGMA_1E155 = {"kind": "iid", "sigmas": [1e155]}

BAD_SETTINGS = {
    "workers-string": ("mc-verify", mc_config(workers="x")),
    "sigmas-string": ("mc-verify", mc_config(dgp={"kind": "iid", "sigmas": "ab"})),
    "theta-string": ("mc-verify", mc_config(dgp={"kind": "fma", "sigmas": [1.0], "theta": ["x"]})),
    "level-beyond-components": ("mc-verify", mc_config(eigen_levels=[3])),
    "eigen-levels-repeated": ("mc-verify", mc_config(eigen_levels=[1, 1])),
    "too-few-replications": ("mc-verify", mc_config(replications=5)),
    "fractional-n-obs": ("mc-verify", mc_config(n_obs=50.7)),
    "zero-grid-points": ("mc-verify", mc_config(grid_points=0)),
    "sigmas-beyond-grid": ("mc-verify", mc_config(grid_points=1)),
    "nyquist-sigmas": ("mc-verify", mc_config(dgp=NYQUIST_SIGMAS, eigen_levels=[1])),
    "drift": ("mc-verify", mc_config(drift=0.0)),
    "burn-in": ("mc-verify", mc_config(dgp=FAR1_BURN_IN)),
    "theta-overflow": ("mc-verify", mc_config(dgp=THETA_1E200)),
    "theta-overflow-sum": (
        "mc-verify",
        mc_config(dgp={"kind": "fma", "sigmas": [1.0, 0.5], "theta": [1e308, 1e308]}),
    ),
    "sigma-overflow": ("mc-verify", mc_config(dgp=SIGMA_1E155, eigen_levels=[1])),
    "negative-seed": ("mc-verify", mc_config(master_seed=-1)),
    "dgp-seed": (
        "mc-verify",
        mc_config(dgp={"kind": "fma", "sigmas": [1.0, 0.5], "theta": [0.5], "seed": 12345}),
    ),
    "projection-string": ("mc-verify", mc_config(projections=["x"])),
    "projection-shape": ("mc-verify", mc_config(projections=[[[1.0]]])),
    "bias-h-string": ("mc-verify", mc_config(bias_check={"h": ["x"], "replications": 4})),
    "bias-h-zero": ("mc-verify", mc_config(bias_check={"h": [0, 2, 4], "replications": 4})),
    "bias-h-repeated": ("mc-verify", mc_config(bias_check={"h": [4, 4, 4], "replications": 4})),
    "bias-flat-top": (
        "mc-verify",
        mc_config(kernel="flat-top", bias_check={"h": [2, 4, 8], "replications": 4}),
    ),
    "flat-width-string": ("mc-verify", mc_config(flat_width="x")),
    "flat-width-null": ("mc-verify", mc_config(flat_width=None)),
    "flat-width-bartlett": ("mc-verify", mc_config(flat_width=7.5)),
    "plugin-flat-top": ("mc-verify", mc_config(kernel="flat-top", h="plugin")),
    "plugin-pilot-zero": ("mc-verify", mc_config(h="plugin:0")),
    "out-number": ("mc-verify", {**mc_config(), "out": 5}),
    "sim-out-list": ("simulate", dict(SIM_CFG, out=["run"])),
    "sim-fractional-n-obs": ("simulate", dict(SIM_CFG, n_obs=50.7)),
    "sim-zero-grid-points": ("simulate", dict(SIM_CFG, grid_points=0)),
    "sim-seed-string": ("simulate", dict(SIM_CFG, seed="x")),
    "sim-dgp-seed": ("simulate", dict(SIM_CFG, dgp={**SIM_CFG["dgp"], "seed": 12345})),
    "sim-burn-in": ("simulate", dict(SIM_CFG, dgp=FAR1_BURN_IN)),
    "sim-theta-overflow": ("simulate", dict(SIM_CFG, dgp=THETA_1E200)),
    "sim-sigma-overflow": ("simulate", dict(SIM_CFG, dgp=SIGMA_1E155)),
    "sim-nyquist-sigmas": ("simulate", dict(SIM_CFG, dgp=NYQUIST_SIGMAS, grid_points=4)),
    "sim-sigmas-beyond-grid": ("simulate", dict(SIM_CFG, grid_points=1)),
}


@pytest.mark.parametrize("command, cfg", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_bad_settings_exit_3_before_any_replication(tmp_path, capsys, monkeypatch, command, cfg):
    def refuse(*args):
        raise AssertionError("a sample was drawn before the configuration was checked")

    monkeypatch.setattr("lrcov.mc._pooled", refuse)
    monkeypatch.setattr("lrcov.cli.generate", refuse)
    path = write(tmp_path / "cfg.json", json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1  # no warning line either
    assert not out.exists()



# the data file is read only after every setting has passed its check
BAD_ESTIMATION_SETTINGS = {
    "unbiased-string": ("estimate", {"unbiased": "no"}),
    "unbiased-number": ("fpca", {"unbiased": 1}),
    "psd-string": ("fpca", {"psd": "false"}),
    "m-trunc-fraction": ("estimate", {"h": "plugin", "m_trunc": 2.5}),
    "m-trunc-string": ("fpca", {"h": "plugin", "m_trunc": "x"}),
    "m-trunc-negative": ("bandwidth", {"m_trunc": -1}),
    "m-trunc-fixed-h": ("estimate", {"h": 8, "m_trunc": 3}),
    "m-trunc-power-rule": ("fpca", {"m_trunc": 3}),
    "p-string": ("fpca", {"p": "x"}),
    "p-fraction": ("fpca", {"p": 2.7}),
    "level-string": ("fpca", {"level": "abc"}),
    "flat-width-string": ("estimate", {"flat_width": "x"}),
    "fpca-flat-width-string": ("fpca", {"kernel": "flat-top", "flat_width": "x"}),
    "bandwidth-flat-width-string": ("bandwidth", {"flat_width": "x"}),
    "flat-width-bartlett": ("estimate", {"kernel": "bartlett", "flat_width": 5}),
    "out-number": ("estimate", {"out": 5}),
    "out-bool": ("fpca", {"out": True}),
    "out-list": ("bandwidth", {"out": ["run"]}),
    "unknown-kernel": ("estimate", {"kernel": "gauss"}),
    "bad-h": ("fpca", {"h": "power:1"}),
    "plugin-flat-top": ("estimate", {"kernel": "flat-top", "h": "plugin"}),
    "bandwidth-flat-top": ("bandwidth", {"kernel": "flat-top"}),
    "pilot-string": ("bandwidth", {"pilot_h": "4"}),
    "pilot-zero": ("bandwidth", {"pilot_h": 0}),
    "plugin-pilot-negative": ("estimate", {"h": "plugin:-1"}),
    "plugin-pilot-infinite": ("fpca", {"h": "plugin:inf"}),
}


@pytest.mark.parametrize(
    "command, cfg", BAD_ESTIMATION_SETTINGS.values(), ids=BAD_ESTIMATION_SETTINGS.keys()
)
def test_bad_settings_exit_3_before_the_data_is_read(
    tmp_path, capsys, monkeypatch, command, cfg
):
    def refuse(path):
        raise AssertionError("the data file was read before the configuration was checked")

    monkeypatch.setattr("lrcov.io.read_curves", refuse)
    path = write(tmp_path / "cfg.json", json.dumps(cfg))
    out = tmp_path / "out"
    argv = [command, "--data", str(tmp_path / "d.csv"), "--config", path, "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# ---------------------------------------------------------------- cli: flag, config, default

# every key each command's config accepts
CONFIG_KEYS = {
    "estimate": {"kernel", "flat_width", "h", "unbiased", "psd", "m_trunc", "out"},
    "fpca": {"kernel", "flat_width", "h", "unbiased", "psd", "m_trunc", "p", "level", "out"},
    "bandwidth": {"kernel", "flat_width", "pilot_h", "m_trunc", "out"},
    "simulate": {"dgp", "n_obs", "grid_points", "seed", "out"},
    "mc-verify": {"experiment", "bias_check", "out"},
}
PRECEDENCE_EXPERIMENT = {"dgp": {"kind": "iid", "sigmas": [1.0]}, "kernel": "bartlett", "n_obs": 60,
                         "grid_points": 1, "h": 3, "replications": 8}
# each command's smallest config; the data commands read a 60 x 4 sample
BASE_CONFIGS = {
    "estimate": {}, "fpca": {}, "bandwidth": {},
    "simulate": {key: value for key, value in SIM_CFG.items() if key != "seed"},
    "mc-verify": {"experiment": PRECEDENCE_EXPERIMENT},
}
# setting: (its default as metadata.json records it, a config value, a flag value and what it
# records (None: a flag without a value), a config value its check refuses).  A flag replaces
# kernel, h and mc-verify's experiment.master_seed before anything checks the config value.
PRECEDENCE = {
    "kernel": ("bartlett", "parzen", ("tukey-hanning", "tukey-hanning"), "gauss"),
    "flat_width": (0.5, 0.3, ("0.7", 0.7), "x"),
    "h": ("power:1,0.3333", 3, ("5", "5"), "power:1"),
    "unbiased": (False, True, (None, True), "no"),
    "psd": (False, True, (None, True), 1),
    "p": (1, 2, ("3", 3), 2.5),
    "level": (0.95, 0.9, ("0.8", 0.8), "abc"),
    "pilot_h": ("rate", 4.0, ("6", 6.0), "4"),  # bandwidth records its resolved pilot
    "seed": (0, 3, ("7", 7), -1),
    "master_seed": (None, 2, ("77", 77), -1),
}
UNCHECKED_UNDER_A_FLAG = {"kernel", "h", "master_seed"}


# each (command, setting) pair with a flag, as the tables declare them
FLAGGED = [(command, key) for command, row in _COMMANDS.items() for key in row[4] if _SETTINGS[key][2]]


def test_the_tables_declare_every_flag_the_precedence_test_covers():
    assert {key for _, key in FLAGGED} == set(PRECEDENCE) and len(FLAGGED) == 17


def run_with(tmp_path, command, key, config_value=None, flag=(), name="run"):
    """``command`` with ``key`` set in its config (None: not set) and ``flag`` added."""
    cfg = json.loads(json.dumps(BASE_CONFIGS[command]))
    if config_value is not None and key == "master_seed":  # the config key is experiment's
        cfg["experiment"]["master_seed"] = config_value
    elif config_value is not None:
        cfg[key] = config_value
    argv = [command, "--config", write(tmp_path / f"{name}.json", json.dumps(cfg)), *flag]
    if command in ("estimate", "fpca", "bandwidth"):
        data = tmp_path / "d.csv"
        if not data.exists():
            io.write_matrix_csv(str(data), np.random.default_rng(47).standard_normal((60, 4)))
        argv += ["--data", str(data)]
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, json.loads((out / "metadata.json").read_text())["config"] if code == 0 else None, out


@pytest.mark.parametrize("command, key", FLAGGED)
def test_the_flag_beats_the_config_and_the_config_beats_the_default(tmp_path, capsys, command, key):
    default, config_value, (flag_value, flag_records), bad = PRECEDENCE[key]
    flag_name = "--h" if key == "pilot_h" else "--seed" if key == "master_seed" else (
        "--" + key.replace("_", "-"))
    flag = [flag_name] if flag_value is None else [flag_name, flag_value]

    def recorded(config):
        return config["experiment"].get(key) if key == "master_seed" else config[key]

    code, config, _ = run_with(tmp_path, command, key, name="default")
    assert code == 0, capsys.readouterr().err
    if default == "rate":
        default = plugin_bandwidth(io.read_curves(str(tmp_path / "d.csv")), make_kernel("bartlett")).pilot_h
    assert recorded(config) == default
    code, config, _ = run_with(tmp_path, command, key, config_value, name="config")
    assert (code, recorded(config)) == (0, config_value)
    under_flag = False if flag_value is None else config_value  # a bare flag can only say true
    code, config, _ = run_with(tmp_path, command, key, under_flag, flag, name="flag")
    assert (code, recorded(config)) == (0, flag_records)
    code, _, out = run_with(tmp_path, command, key, bad, flag, name="bad")
    err = capsys.readouterr().err
    if key in UNCHECKED_UNDER_A_FLAG:
        assert code == 0, err
    else:
        assert code == 3 and err.startswith(f"error: {key} must be ") and err.count("\n") == 1, err
        assert not out.exists()


@pytest.mark.parametrize("command", CONFIG_KEYS)
def test_each_command_accepts_exactly_its_own_config_keys(tmp_path, capsys, command):
    every = set().union(*CONFIG_KEYS.values()) | set(PRECEDENCE)
    for key in sorted(every - CONFIG_KEYS[command]):  # bandwidth refuses h: its --h is pilot_h
        cfg = write(tmp_path / "cfg.json", json.dumps({**BASE_CONFIGS[command], key: 1}))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3, key
        assert capsys.readouterr().err == f"error: unknown {command} config keys: ['{key}']\n"
    assert not (tmp_path / "out").exists()


def test_the_level_range_is_checked_on_the_level_in_use(tmp_path, capsys):
    code, config, _ = run_with(tmp_path, "fpca", "level", 1.5, ["--level", "0.9"])
    assert (code, config["level"]) == (0, 0.9)
    code, _, out = run_with(tmp_path, "fpca", "level", 1.5, name="config")
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err == "error: confidence level must lie in (0, 1), got 1.5\n"


# each command's argv without --out, and one file it writes
WRITING_RUNS = {
    "estimate": (["estimate", "--h", "2"], "estimate.csv"),
    "fpca": (["fpca", "--h", "2", "--p", "2"], "eigenvalues.csv"),
    "bandwidth": (["bandwidth"], "bandwidth.json"),
    "simulate": (["simulate"], "sample.csv"),
    "mc-verify": (["mc-verify"], "report.json"),
}


@pytest.mark.parametrize("case", ["out-is-a-file", "out-under-a-file", "output-is-a-directory"])
@pytest.mark.parametrize("command", WRITING_RUNS)
def test_unwritable_out_exits_3_without_a_traceback(tmp_path, capsys, command, case):
    argv, name = WRITING_RUNS[command]
    if command in ("simulate", "mc-verify"):
        cfg = SIM_CFG if command == "simulate" else MC_CFG
        argv = [*argv, "--config", write(tmp_path / "cfg.json", json.dumps(cfg))]
    else:
        data = str(tmp_path / "d.csv")
        io.write_matrix_csv(data, np.random.default_rng(12).standard_normal((60, 3)))
        argv = [*argv, "--data", data]
    afile = tmp_path / "afile"
    afile.write_text("taken\n")
    out = {"out-is-a-file": afile, "out-under-a-file": afile / "sub"}.get(case, tmp_path / "out")
    if case == "output-is-a-directory":
        (out / name).mkdir(parents=True)
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write to {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert afile.read_text() == "taken\n"


def test_a_second_command_into_one_out_exits_3_and_leaves_it(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--config", write(tmp_path / "s.json", json.dumps(SIM_CFG)),
                 "--out", str(run)]) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert main(["estimate", "--data", str(run / "sample.csv"), "--h", "2", "--out", str(run)]) == 3
    assert capsys.readouterr().err == (
        f"error: {run}/metadata.json was not written by estimate; give it its own --out\n")
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_a_rerun_into_its_own_out_overwrites_it(tmp_path):
    data, out = str(tmp_path / "d.csv"), str(tmp_path / "est")
    io.write_matrix_csv(data, np.random.default_rng(48).standard_normal((60, 3)))
    surfaces = []
    for h in ("2", "5"):
        assert main(["estimate", "--data", data, "--h", h, "--out", out]) == 0
        surfaces.append(Path(out, "estimate.csv").read_bytes())
        assert json.loads(Path(out, "metadata.json").read_text())["config"]["h"] == h
    assert surfaces[0] != surfaces[1]


@pytest.mark.parametrize("record", [b"{not json", b"\xff", b"[]", b'{"command": "simulate"}', None])
def test_an_unreadable_or_foreign_record_counts_as_another_run(tmp_path, capsys, record):
    out = tmp_path / "run"
    meta = out / "metadata.json"
    if record is None:  # a directory in its place
        meta.mkdir(parents=True)
    else:
        out.mkdir()
        meta.write_bytes(record)
    data = str(tmp_path / "d.csv")
    io.write_matrix_csv(data, np.random.default_rng(48).standard_normal((60, 3)))
    assert main(["estimate", "--data", data, "--h", "2", "--out", str(out)]) == 3
    assert capsys.readouterr().err.endswith("was not written by estimate; give it its own --out\n")
    assert sorted(os.listdir(out)) == ["metadata.json"]


@pytest.mark.parametrize("out", [None, "link"])  # the default --out ., and the cwd by a symlink
@pytest.mark.parametrize(
    "command, name",
    [("estimate", "estimate.csv"), ("fpca", "eigenvalues.csv"), ("bandwidth", "metadata.json")],
)
def test_an_output_that_is_the_data_file_exits_3_and_leaves_it(
    tmp_path, capsys, monkeypatch, command, name, out
):
    monkeypatch.chdir(tmp_path)
    os.symlink(tmp_path, "link")
    io.write_matrix_csv(name, np.random.default_rng(12).standard_normal((50, 3)))
    before = Path(name).read_bytes()
    argv = [*WRITING_RUNS[command][0], "--data", name, *(["--out", out] if out else [])]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"error: output {out or '.'}/{name} would overwrite the --data file {name}\n"
    assert Path(name).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == sorted([name, "link"])


# ---------------------------------------------------------------- cli: overflow

@pytest.fixture
def cli_run(capsys, monkeypatch):
    """An installed_checks runner: ``main`` in-process, with ``env`` set for the one call."""

    def run(argv, env):
        capsys.readouterr()
        with monkeypatch.context() as m:
            for key, value in env.items():
                m.setenv(key, value)
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
        return code, capsys.readouterr().err

    return run


def test_every_probe_pins_its_whole_stderr():
    assert all(isinstance(err, str) for _, _, err in installed_checks.PROBES.values())


@pytest.mark.parametrize("name", installed_checks.PROBES)
def test_overflowing_powers_warn_or_exit_4(tmp_path, monkeypatch, cli_run, name):
    monkeypatch.chdir(tmp_path)
    installed_checks.probe(cli_run, name, installed_checks.write_inputs())


@pytest.mark.parametrize("check", installed_checks.CHECKS, ids=lambda check: check.__name__)
def test_installed_check_in_process(tmp_path, monkeypatch, cli_run, check):
    monkeypatch.chdir(tmp_path)
    check(cli_run)


def test_ci_runs_every_installed_check_as_tier_1_does(tmp_path, monkeypatch):
    workflow = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"
    assert "run: python tests/installed_checks.py" in workflow.read_text().partition("runtime-deps:")[2]
    defined = [f for name, f in vars(installed_checks).items() if name.startswith("check_")]
    assert list(installed_checks.CHECKS) == defined
    ran = []
    fakes = tuple(lambda run, check=check: ran.append((check, run)) for check in defined)
    monkeypatch.setattr(installed_checks, "CHECKS", fakes)
    monkeypatch.chdir(tmp_path)  # restored after main() leaves the cwd in its deleted temp dir
    installed_checks.main()
    assert ran == [(check, installed_checks.console_run) for check in defined]


# every truth surface is finite although the noise surface's squared entries sum past a double
HUGE_NOISE = {"kind": "fma", "sigmas": [1e77, 1.0], "theta": [0.5]}


def test_simulate_huge_noise_gives_closed_form_gamma_norms(tmp_path, capsys):
    cfg = write(tmp_path / "sim.json", json.dumps(dict(SIM_CFG, dgp=HUGE_NOISE, grid_points=4)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "truth.json").read_text())
    assert doc["gamma_norms"] == {"0": 1.25e154, "1": 5e153}
    assert doc["eigenvalues"] == [2.25e154, 2.25]


# every entry of C is about 1e308, so the long-run integral, their mean, is finite too
FAR1_1E153 = {"kind": "far1", "sigmas": [1e153], "rho": 0.9}
SIGMA_1E154 = {"kind": "iid", "sigmas": [1e154]}


@pytest.mark.parametrize("dgp", [FAR1_1E153, SIGMA_1E154], ids=["far1", "iid"])
def test_simulate_truth_whose_entries_sum_past_a_double(tmp_path, capsys, dgp):
    cfg = write(tmp_path / "sim.json", json.dumps(dict(SIM_CFG, dgp=dgp)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "truth.json").read_text())
    assert doc["c_integral"] == doc["c"][0][0] == doc["eigenvalues"][0]
    assert doc["c_integral"] == pytest.approx(1e308, rel=1e-12)


@pytest.mark.parametrize(
    "dgp, h, bias_check, err",
    [
        # the plug-in's ratio of finite constants gives a finite h, as the fixed rule does
        *((HUGE_NOISE, h, None, "error: sample variance overflows a double\n") for h in (3, "plugin")),
        # a finite truth whose estimates overflow, refused before the eigensolve
        *((SIGMA_1E154, h, None, installed_checks.NON_FINITE) for h in (3, "plugin")),
        # and before the bias check's means, without numpy's overflow warnings
        (SIGMA_1E154, 3, installed_checks.BIAS_CHECK, installed_checks.NON_FINITE),
        # finite estimates whose squares overflow, refused before any bias point is formed
        ({"kind": "iid", "sigmas": [1e100]}, 3, installed_checks.BIAS_CHECK,
         "error: squared estimates overflow a double\n"),
    ],
    ids=["fixed", "plugin", "fixed-1e154", "plugin-1e154", "bias-check-1e154", "bias-check-1e100"],
)
def test_mc_verify_huge_noise_exits_4_after_its_truth(
    tmp_path, capsys, monkeypatch, dgp, h, bias_check, err
):
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    cfg = write(tmp_path / "mc.json", json.dumps(mc_config(bias_check, dgp=dgp, h=h, eigen_levels=[1])))
    out = tmp_path / "out"
    assert main(["mc-verify", "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_mc_verify_projection_limit_past_a_double_sum_is_strict_json(tmp_path, capsys, monkeypatch):
    # C f C has entries near sigma^4 = 1e306 whose G^2-term sums pass a double; the limit
    # int K^2 * 2 sigma_1^4 of the constant projection is finite
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    sigma = 3.16e76
    experiment = dict(mc_config()["experiment"], dgp={"kind": "iid", "sigmas": [sigma, 1.05e76]},
                      n_obs=60, replications=8)
    cfg = write(tmp_path / "mc.json", json.dumps({"experiment": experiment}))
    out = tmp_path / "out"
    assert main(["mc-verify", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""  # no numpy warning either

    def refuse(constant):
        raise AssertionError(f"report.json holds {constant}")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)["report"]
    limit = report["projections"][0]["predicted_variance"]
    assert limit == pytest.approx(4.0 / 3.0 * sigma**4, rel=1e-12)


def test_mc_verify_overflowing_drift_exits_0(tmp_path, capsys, monkeypatch):
    # the eigenvalue drift N / h^(1+2q) is 0 once h^3 overflows, even for Bartlett
    monkeypatch.delenv("LRCOV_THREADS", raising=False)
    cfg = write(tmp_path / "mc.json", json.dumps(mc_config(h=1e200)))
    out = tmp_path / "out"
    assert main(["mc-verify", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == installed_checks.RATE.format(1, "1e+200", 100)
    levels = json.loads((out / "report.json").read_text())["report"]["eigen_levels"]
    assert [level["predicted_mean_shift"] for level in levels] == [0.0, 0.0]


def test_zero_variance_is_refused_before_the_pilot_rate_warning(tmp_path, capsys):
    # pilot h = 100 on N = 50 would warn; the refusal comes first, alone
    data = str(tmp_path / "c.csv")
    io.write_matrix_csv(data, np.full((50, 3), 2.5))
    out = tmp_path / "out"
    assert main(["bandwidth", "--data", data, "--h", "100", "--out", str(out)]) == 4
    assert capsys.readouterr().err == "error: zero-variance sample: every curve is constant over time\n"
    assert not out.exists()
