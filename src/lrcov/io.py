"""CSV and JSON plumbing for the command-line tool.

Numbers are written with shortest round-trip decimal formatting (``repr``),
so parse(write(x)) returns x bit-exactly and output files are stable across
platforms.  Parsing is strict: ragged rows and unparsable or non-finite cells
are reported with 1-based row/column positions instead of being coerced.  A
clean file is parsed in one ``np.loadtxt`` call; anything that call refuses
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
_READ_BLOCK_CHARS = 1 << 20  # characters of text split into lines at once


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


def _file_lines(fh):
    """``fh.read().splitlines()`` less its trailing blank lines, read a block at a time.

    ``readlines`` stops right after a line feed, which always ends a line, so
    the blocks' lines are the file's lines.  Blank lines are held back until a
    line with text follows them.  Only one block is alive at once: a read costs
    the array, not the file's text and a string for each of its lines.
    """
    blank = []
    while block := fh.readlines(_READ_BLOCK_CHARS):
        lines = "".join(block).splitlines()
        k = len(lines)
        while k and not lines[k - 1].strip():
            k -= 1
        if k:
            yield from blank
            yield from itertools.islice(lines, k)
            blank = []
        blank += lines[k:]


def _parse_bulk(fh) -> tuple[np.ndarray, list | None] | None:
    """(values, header) from one ``np.loadtxt`` call, or None unless the result is sure.

    ``loadtxt`` parses a field with the correctly rounded C conversion and
    accepts a subset of what ``float`` accepts, so an array it returns holds
    the values the per-line parser would give.  It skips blank lines, so the
    shape must count every line; non-finite cells, a header of another width
    and text that is not UTF-8 are left to the per-line parser, which names them.
    """
    lines = _file_lines(fh)
    try:
        first = next(lines, None)
        header = None
        if first is not None and _try_floats(first) is None:
            header = [s.strip() for s in first.split(",")]
            first = next(lines, None)
        if first is None:  # loadtxt warns on no input; the per-line parser reports it
            return None
        n_cols = first.count(",") + 1
        if header is not None and len(header) != n_cols:
            return None
        n_lines = 0

        def counted():
            nonlocal n_lines
            for line in itertools.chain([first], lines):
                n_lines += 1
                yield line

        values = np.loadtxt(counted(), delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:  # UnicodeDecodeError included
        return None
    if values.shape != (n_lines, n_cols) or not np.isfinite(values).all():
        return None
    return values, header


def read_matrix_csv(path: str) -> tuple[np.ndarray, list | None]:
    """Strict rectangular CSV parse; returns (values, header or None).

    A single leading header row is recognized by containing non-numeric text;
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
            lines = src.read().splitlines()
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
