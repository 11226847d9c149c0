"""JSON lines, the format of every ptzkit data file, read and written in one place.

A file holds one UTF-8 JSON object per line; blank lines are skipped.  Each
format supplies a row parser (dict -> value) that may raise ``KeyError``,
``IndexError``, ``TypeError``, ``ValueError`` or ``OverflowError``; ``read``
turns any of them into a ``ValueError`` naming ``path:line``, and
``row_error`` gives the same error for a check made on all rows at once.
Where a row has an ``id``, the id must be unique in the file.  Row parsers
check numbers with ``finite`` and ``integer``; each format's row builder
feeds ``write``.
"""

from __future__ import annotations

import itertools
import json
import math

_ROW_ERRORS = (KeyError, IndexError, TypeError, ValueError, OverflowError)


def _object(text: bytes) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


def _reason(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg} at column {exc.colno})"
    return str(exc)


def read(path, parse_row, what: str) -> list:
    """``parse_row`` of every row of the file at ``path``, in file order."""
    out = []
    first_line: dict[str, int] = {}
    # bytes, so that a line that is not UTF-8 is rejected with its line number
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = _object(line)
                out.append(parse_row(rec))
                if "id" in rec:
                    key = str(rec["id"])
                    if key in first_line:
                        raise ValueError(f"duplicate id {key!r} (first on line {first_line[key]})")
                    first_line[key] = lineno
            except _ROW_ERRORS as exc:
                raise ValueError(f"{path}:{lineno}: {_reason(exc)} (bad {what})") from None
    return out


def row_error(path, row: int, reason: str, what: str) -> ValueError:
    """The error ``read`` raises for a bad row, for row ``row`` (counted from 0)
    of what ``read`` returned; the file is read again to find its line."""
    with open(path, "rb") as fh:
        lines = (lineno for lineno, line in enumerate(fh, 1) if line.strip())
        lineno = next(itertools.islice(lines, row, None))
    return ValueError(f"{path}:{lineno}: {reason} (bad {what})")


def load(path, parse_doc, what: str):
    """``parse_doc`` of a file holding one JSON object (a model or a checkpoint),
    under the same rules, naming ``path`` when it is rejected."""
    with open(path, "rb") as fh:
        text = fh.read()
    try:
        return parse_doc(_object(text))
    except _ROW_ERRORS as exc:
        raise ValueError(f"{path}: {_reason(exc)} (bad {what})") from None


def write(path, records) -> None:
    """One ``json.dumps`` line per record dict."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def finite(values, what: str) -> list[float]:
    """``values`` as floats; a NaN or an infinity raises ``ValueError`` naming the first."""
    out = [float(v) for v in values]
    for i, v in enumerate(out):
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v} at position {i}")
    return out


def integer(value, what: str) -> int:
    """An integral number as ``int``; bools, fractions and non-numbers raise ``ValueError``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")
