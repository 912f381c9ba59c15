"""CSV and JSON plumbing for the command-line tool.

Numbers are written with shortest round-trip decimal formatting (``repr``),
so parse(write(x)) returns x bit-exactly and output files are stable across
platforms.  Parsing is strict: ragged rows and unparsable or non-finite cells
are reported with 1-based row/column positions instead of being coerced.
Rows end only at a newline (``\n``, ``\r\n`` or ``\r``), as in ``np.loadtxt``.
A clean file is parsed in one ``np.loadtxt`` call; anything that call refuses
or might read differently goes through the per-line parser, which names the
bad cell.
"""

from __future__ import annotations

import itertools
import json
import math
from io import StringIO

import numpy as np

from .errors import DataFormatError
from .estimator import CurveSample
from .grid import Grid, Surface

__all__ = [
    "write_matrix_csv",
    "read_matrix_csv",
    "read_curves",
    "write_curves_csv",
    "write_surface_csv",
    "write_json",
]

_WRITE_BLOCK_ROWS = 1024


def write_matrix_csv(path: str, values: np.ndarray, header: list | None = None) -> None:
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise DataFormatError(f"can only write 2-d tables, got shape {a.shape}")
    if header is not None and len(header) != a.shape[1]:
        raise DataFormatError(f"header has {len(header)} names for {a.shape[1]} columns")
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(str(name) for name in header) + "\n")
        elif a.shape[0] == 0:
            fh.write("\n")  # a file of no lines still ends in one newline
        for i in range(0, a.shape[0], _WRITE_BLOCK_ROWS):
            block = a[i : i + _WRITE_BLOCK_ROWS].tolist()
            fh.write("\n".join([",".join(map(repr, row)) for row in block]) + "\n")


def _number(text: str) -> float:
    """A stripped cell's value, read as ``np.loadtxt`` reads it: ASCII, no ``_`` separator."""
    if not text.isascii() or "_" in text:  # float() alone reads 1_0 and non-ASCII digits
        raise ValueError(text)
    return float(text)


def _header(line: str) -> list | None:
    """The first line's stripped fields if it is a header: some field has text, none is a number."""
    fields = [s.strip() for s in line.split(",")]
    if not any(fields):
        return None
    for field in fields:
        try:
            _number(field)
        except ValueError:
            continue
        return None
    return fields


def _parse_row(line: str, row_no: int, n_cols: int | None) -> list:
    fields = line.split(",")
    if n_cols is not None and len(fields) != n_cols:
        raise DataFormatError(
            f"row {row_no}: expected {n_cols} fields, got {len(fields)}"
        )
    out = []
    for col_no, field in enumerate(fields, start=1):
        text = field.strip()
        try:
            value = _number(text)
        except ValueError:
            raise DataFormatError(
                f"row {row_no}, column {col_no}: cannot parse {text!r}"
            ) from None
        if not math.isfinite(value):
            raise DataFormatError(
                f"row {row_no}, column {col_no}: non-finite value {text!r}"
            )
        out.append(value)
    return out


def _parse_bulk(fh) -> tuple[np.ndarray, list | None] | None:
    """(values, header) from one ``np.loadtxt`` call, or None unless the result is sure.

    ``loadtxt`` parses a field with the correctly rounded C conversion and
    accepts a subset of what ``float`` accepts, so an array it returns holds
    the values the per-line parser would give.  It reads the handle's own
    lines, which end only at a newline, and skips empty ones, so the shape
    must reach the last line with text; non-finite cells, a header of another
    width and text that is not UTF-8 are left to the per-line parser, which
    names them.
    """
    try:
        first = fh.readline()
        header = _header(first)
        if header is not None:
            first = fh.readline()
        if not first.strip():  # no data, or a blank line the per-line parser reports
            return None
        n_cols = first.count(",") + 1
        if header is not None and len(header) != n_cols:
            return None
        n_rows = 0

        def lines():
            nonlocal n_rows
            for i, line in enumerate(itertools.chain([first], fh), start=1):
                if line != "\n":
                    n_rows = i
                yield line

        values = np.loadtxt(lines(), delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None
    if values.shape != (n_rows, n_cols) or not np.isfinite(values).all():
        return None
    return values, header


def read_matrix_csv(path: str) -> tuple[np.ndarray, list | None]:
    """Strict rectangular CSV parse; returns (values, header or None).

    A first line is a header when some field has text and none parses as a number;
    everywhere else a bad or non-finite cell is an error naming its row and
    column.  A leading byte-order mark and trailing blank lines are ignored;
    a blank line between data rows is an error, and so is a file that is not
    UTF-8 text.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            # a pipe cannot be read twice, and the per-line parser may need it again
            src = fh if fh.seekable() else StringIO(fh.read())
            bulk = _parse_bulk(src)
            if bulk is not None:
                return bulk
            src.seek(0)
            lines = src.read().split("\n")
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
    while lines and not lines[-1].strip():
        lines.pop()
    header = None
    rows = []
    n_cols = None
    for row_no, line in enumerate(lines, start=1):
        if row_no == 1 and (header := _header(line)) is not None:
            continue
        rows.append(_parse_row(line, row_no, n_cols))
        if n_cols is None:
            n_cols = len(rows[0])
            if header is not None and len(header) != n_cols:
                raise DataFormatError(
                    f"header has {len(header)} fields but row {row_no} has {n_cols}"
                )
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=float), header


def read_curves(path: str) -> CurveSample:
    """Parse an N x G file of curves (one observation time per row)."""
    values, _ = read_matrix_csv(path)
    if values.shape[0] < 2:
        raise DataFormatError(
            f"{path}: need at least 2 observation rows, got {values.shape[0]}"
        )
    return CurveSample(Grid(values.shape[1]), values)


def write_curves_csv(path: str, sample: CurveSample) -> None:
    write_matrix_csv(path, sample.values)


def write_surface_csv(path: str, surface: Surface) -> None:
    write_matrix_csv(path, surface.values)


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # default: numpy arrays and the numpy scalars json cannot write become Python values
        json.dump(payload, fh, indent=2, sort_keys=True, default=lambda o: o.tolist())
        fh.write("\n")
