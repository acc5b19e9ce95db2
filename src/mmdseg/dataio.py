"""CSV ingestion and deterministic serialization.

CSV values are written with 17 significant digits, which round-trips IEEE
doubles exactly.  JSON comes from the standard library: floats print as
their shortest round-trip repr and keys keep insertion order, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from itertools import chain

import numpy as np

from .errors import ConfigurationError, DataError


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path) -> np.ndarray:
    """Rectangular numeric CSV, one observation per row; a non-numeric first
    line is treated as a header and skipped.  Blank lines and a UTF-8 byte
    order mark are ignored.  The non-blank lines stream into np.loadtxt; only
    an error re-reads the file, to name the bad row."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = (line for line in fh if line.strip())
            first = next(lines, None)
            if first is None:
                raise DataError(f"{path}: file is empty")
            header = not all(_is_number(c) for c in next(csv.reader([first])))
            if header:
                first = next(lines, None)
                if first is None:  # np.loadtxt would warn on no rows
                    raise DataError(f"{path}: no data rows after header")
            try:
                data = np.loadtxt(
                    chain([first], lines), delimiter=",", comments=None, quotechar='"', ndmin=2
                )
            except ValueError as exc:  # UnicodeDecodeError too: the re-read names it
                raise _locate_bad_cell(path, header, exc) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not np.isfinite(data).all():
        raise DataError(f"{path}: contains non-finite values")
    return data


def _locate_bad_cell(path, header, exc) -> DataError:
    """The error naming the first ragged row or non-numeric cell (1-based file
    lines), from a second read of the file; an unreadable file is named as
    such, as a first read that failed would be."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = [(i, line) for i, line in enumerate(fh, start=1) if line.strip()][header:]
    except (OSError, UnicodeDecodeError) as read_exc:
        return DataError(f"cannot read {path}: {read_exc}")
    width = None
    for (i, _), row in zip(lines, csv.reader(line for _, line in lines)):
        width = len(row) if width is None else width
        if len(row) != width:
            return DataError(f"{path}: row {i} has {len(row)} columns, expected {width}")
        for j, cell in enumerate(row, start=1):
            if not _is_number(cell):
                return DataError(f"{path}: non-numeric value {cell!r} at row {i}, column {j}")
    return DataError(f"{path}: {exc}")


def check_writable(path):
    """Raise ConfigurationError when `path` cannot be written, without creating
    it; a long run calls this before the work whose result goes there."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ConfigurationError(f"cannot write {path}: {reason}")


def write_text(text: str, path=None):
    """Write text to path, or to stdout (flushed) when path is None; a failed
    open, write or close is a configuration error."""
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:  # bytes left in the buffer would fail again in the flush at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ConfigurationError(f"cannot write {path or 'stdout'}: {exc}") from exc


def csv_text(rows) -> str:
    """CSV lines of rows: floats as .17g, None as an empty cell, the rest as str."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        ["" if v is None else format(float(v), ".17g") if isinstance(v, float) else v for v in row]
        for row in rows
    )
    return out.getvalue()


def save_csv(data, path):
    write_text(csv_text(np.asarray(data, dtype=np.float64)), path)


def dumps_json(obj) -> str:
    """Deterministic JSON: two-space indent, insertion-ordered keys, repr floats."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise DataError(f"cannot serialize result: {exc}") from None


def write_json(obj, path):
    write_text(dumps_json(obj), path)


def truth_sidecar_path(data_path: str) -> str:
    root, ext = os.path.splitext(str(data_path))
    return f"{root}.truth.json" if ext == ".csv" else f"{data_path}.truth.json"
