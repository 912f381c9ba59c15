"""CSV and JSON plumbing for the command-line tool.

Numbers are written with shortest round-trip decimal formatting, so
parse(write(x)) returns x bit-exactly and output files are stable across
platforms.  Parsing is strict: ragged rows and unparsable or non-finite cells
are reported with 1-based row/column positions instead of being coerced.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import DataFormatError
from .estimator import CurveSample
from .grid import Grid, Surface

__all__ = [
    "format_float",
    "write_matrix_csv",
    "read_matrix_csv",
    "read_curves",
    "write_curves_csv",
    "write_surface_csv",
    "read_surface_csv",
    "write_json",
    "ensure_dir",
]


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips to the same binary float."""
    return repr(float(x))


def write_matrix_csv(path: str, values: np.ndarray, header: list | None = None) -> None:
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise DataFormatError(f"can only write 2-d tables, got shape {a.shape}")
    lines = []
    if header is not None:
        if len(header) != a.shape[1]:
            raise DataFormatError(
                f"header has {len(header)} names for {a.shape[1]} columns"
            )
        lines.append(",".join(str(name) for name in header))
    for row in a:
        lines.append(",".join(format_float(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _try_floats(line: str) -> list | None:
    """All fields as floats, or None if any field is not numeric at all."""
    out = []
    for field in line.split(","):
        try:
            out.append(float(field.strip()))
        except ValueError:
            return None
    return out


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
            value = float(text)
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


def read_matrix_csv(path: str) -> tuple[np.ndarray, list | None]:
    """Strict rectangular CSV parse; returns (values, header or None).

    A single leading header row is recognized by containing non-numeric text;
    everywhere else a bad or non-finite cell is an error naming its row and
    column.  A leading byte-order mark and trailing blank lines are ignored;
    a blank line between data rows is an error.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from None
    while lines and not lines[-1].strip():
        lines.pop()
    header = None
    rows = []
    n_cols = None
    for row_no, line in enumerate(lines, start=1):
        if row_no == 1 and _try_floats(line) is None:
            header = [s.strip() for s in line.split(",")]
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


def read_surface_csv(path: str) -> Surface:
    values, _ = read_matrix_csv(path)
    if values.shape[0] != values.shape[1]:
        raise DataFormatError(
            f"{path}: surface must be square, got {values.shape[0]}x{values.shape[1]}"
        )
    return Surface(Grid(values.shape[0]), values)


def _jsonable(obj):
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
