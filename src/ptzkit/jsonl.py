"""JSON lines, the format of every ptzkit data file, read and written in one place.

A file holds one UTF-8 JSON object per line; blank lines are skipped.  Each
format supplies a row parser (dict -> value) that may raise ``KeyError``,
``IndexError``, ``TypeError``, ``ValueError`` or ``OverflowError``; ``read``
turns any of them into a ``ValueError`` naming ``path:line``.  Where a row
has an ``id``, the id must be unique in the file.  Row parsers check numbers
with ``finite`` and ``integer``, or only pick fields out of a row and leave
the checks to ``number_rows``, ``integer_rows`` and ``string_rows`` over a
block of rows, which ``read_sets`` turns into the same error.  Numbers are
JSON numbers: a string or a bool is not one.  Integers are JSON integers:
``640.0`` is not one.  Each format's row builder feeds ``write``, except the
label files, whose lines ``pseudolabel.write_pseudo_labels`` formats from
columns.

A line is parsed as ``json.loads`` parses it, and a rejected line gets the
error text ``json.loads`` gives.  The common line, ASCII and holding one
object from its first byte to its newline, goes straight to the C scanner
that ``json.loads`` runs (``json.scanner.make_scanner``), skipping the
encoding detection and the whitespace passes around it.  Every other line (a
BOM, non-ASCII text, leading or trailing whitespace, ``\r\n``, a value that
is not an object, two values), and any line the scanner rejects, goes
through ``json.loads`` itself.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import json.scanner
import math
from typing import Callable, Iterator

import numpy as np

_ROW_ERRORS = (KeyError, IndexError, TypeError, ValueError, OverflowError)
BLOCK_ROWS = 1024  # rows ``read_sets`` parses and checks at a time: their memory grows with it
_scan_once = json.scanner.make_scanner(json.JSONDecoder())


def _object(text: bytes) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


def _scanned(line: bytes) -> dict | None:
    """The object on ``line`` when it is ASCII, starts with ``{`` and that object
    ends at its newline; None for any other line, which ``_object`` then reads."""
    if line[:1] != b"{" or not line.isascii():
        return None
    text = line.decode("ascii")
    try:
        doc, end = _scan_once(text, 0)
    except (StopIteration, ValueError):  # a bad line: ``_object`` gives its error
        return None
    return doc if text[end:] in ("\n", "") else None


def _reason(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    if isinstance(exc, json.JSONDecodeError):
        return f"invalid JSON ({exc.msg} at column {exc.colno})"
    return str(exc)


def blocks(path, parse_row, what: str, size: int | None = None) -> Iterator[list]:
    """``parse_row`` of every row of the file at ``path``, in file order, in
    lists of ``size`` rows (one list when ``size`` is None).

    A bad row ends the list of the rows before it early, and its error is
    raised when the next list is asked for: a check that the caller makes
    over a list names a bad row before it first, as ``read`` would.
    """
    block: list = []
    first_line: dict[str, int] = {}
    error = None
    # bytes, so that a line that is not UTF-8 is rejected with its line number
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            scanned = _scanned(line)
            if scanned is None and not line.strip():
                continue
            try:
                rec = _object(line) if scanned is None else scanned
                row = parse_row(rec)
                if "id" in rec:
                    key = str(rec["id"])
                    if key in first_line:
                        raise ValueError(f"duplicate id {key!r} (first on line {first_line[key]})")
                    first_line[key] = lineno
            except _ROW_ERRORS as exc:
                error = ValueError(f"{path}:{lineno}: {_reason(exc)} (bad {what})")
                break
            block.append(row)
            if len(block) == size:
                yield block
                block = []
    if block:
        yield block
    if error is not None:
        raise error


def read(path, parse_row, what: str) -> list:
    """``parse_row`` of every row of the file at ``path``, in file order."""
    return [row for block in blocks(path, parse_row, what) for row in block]


class RowSet:
    """Base of the dataclasses of row-aligned arrays with an ``ids`` field: row i of every
    field belongs to item i.  An ``XSet`` whose fields disagree on the rows names its x items."""

    def __post_init__(self):
        if len({len(getattr(self, f.name)) for f in dataclasses.fields(self)}) != 1:
            raise ValueError(f"{type(self).__name__.removesuffix('Set').lower()} fields disagree on the number of rows")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows):
        """The items at ``rows`` (a slice, a bool mask or row indices), in that order."""
        return type(self)(*(getattr(self, f.name)[rows] for f in dataclasses.fields(self)))


def string_ids(ids: list) -> np.ndarray:
    """Each id of a list of rows as ``str`` of its JSON value, as object[n]."""
    return np.array(list(map(str, ids)), dtype=object)


# A check over a list of rows: the rows it rejects, and why row ``i`` is
# rejected.  None stands for a check that rejects no row.
Check = tuple[np.ndarray, Callable[[int], str]]


def read_sets(path, parse_row, what: str, to_set) -> RowSet:
    """The ``RowSet`` of the file at ``path``: ``to_set(rows) -> (set, checks)`` of each
    block of ``BLOCK_ROWS`` rows, joined.  ``read``'s error is raised for the earliest row
    a check rejects, with the first such check's reason (checks come in the order a row is checked)."""
    parts, first_row = [], 0
    for rows in blocks(path, parse_row, what, BLOCK_ROWS):
        part, checks = to_set(rows)
        found = [(int(np.argmax(c[0])), k) for k, c in enumerate(checks) if c is not None and c[0].any()]
        if found:
            row, k = min(found)
            with open(path, "rb") as fh:  # read again for the line of the row
                lines = (lineno for lineno, line in enumerate(fh, 1) if line.strip())
                lineno = next(itertools.islice(lines, first_row + row, None))
            raise ValueError(f"{path}:{lineno}: {checks[k][1](row)} (bad {what})")
        parts.append(part)
        first_row += len(rows)
    columns = zip(*([getattr(p, f.name) for f in dataclasses.fields(p)] for p in parts))
    return type(parts[0])(*map(np.concatenate, columns)) if parts else to_set([])[0]


def check_each(values: list, problem, out: np.ndarray) -> tuple[np.ndarray, Check]:
    """The check that ``problem`` (a value -> reason or None) makes of each of
    ``values``, with each accepted value written to its row of ``out``."""
    problems = [problem(v) for v in values]
    bad = np.array([p is not None for p in problems], dtype=bool).reshape(len(values))
    for i in np.flatnonzero(~bad).tolist():
        out[i] = values[i]
    return out, (bad, problems.__getitem__)


def number_rows(values: list, width: int, what: str) -> tuple[np.ndarray, Check | None]:
    """Rows of ``width`` finite JSON numbers, one list per row, as float64[n, width],
    and the check that rejects any other row; a rejected row reads 0."""
    n = len(values)
    if set(map(type, values)) <= {list} and set(map(len, values)) <= {width}:
        flat = list(itertools.chain.from_iterable(values))
        if set(map(type, flat)) <= {int, float}:
            try:
                out = np.array(flat, dtype=np.float64).reshape(n, width)
            except OverflowError:  # an int too large for a float
                pass
            else:
                if np.isfinite(out).all():
                    return out, None

    def problem(row) -> str | None:
        if type(row) is not list or len(row) != width:
            return f"expected {width} {what}, got {row!r}"
        for i, v in enumerate(row):
            if not is_number(v):
                return f"{what} must be finite JSON numbers, got {v!r} at position {i}"
        return None

    return check_each(values, problem, np.zeros((n, width)))


def integer_rows(values: list, what: str) -> tuple[np.ndarray, Check | None]:
    """One JSON integer a row (as ``integer`` takes it) within int64, as
    int64[n], and the check that rejects any other row; a rejected row reads 0."""
    if set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64).reshape(len(values)), None
        except OverflowError:
            pass

    def problem(v) -> str | None:
        try:
            v = integer(v, what)
        except ValueError as exc:
            return str(exc)
        return None if -(2**63) <= v < 2**63 else f"{what} {v} does not fit in 64 bits"

    return check_each(values, problem, np.zeros(len(values), dtype=np.int64))


def string_rows(values: list, what: str) -> tuple[np.ndarray, Check | None]:
    """One JSON string a row, as object[n], and the check that rejects any other
    row; a rejected row reads ``""``."""
    out = np.full(len(values), "", dtype=object)
    if set(map(type, values)) <= {str}:
        out[:] = values
        return out, None
    return check_each(values, lambda v: None if type(v) is str else f"{what} must be a string, got {v!r}", out)


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


def is_number(value) -> bool:
    """True for a finite JSON number: an int or a float, but not a bool, a
    string, a NaN, an infinity or an int too large for a float."""
    if isinstance(value, float):
        return math.isfinite(value)
    if not isinstance(value, int) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def finite(values, what: str) -> list[float]:
    """``values`` as floats; anything but a finite JSON number raises ``ValueError`` naming the first."""
    values = list(values)
    for i, v in enumerate(values):
        if not is_number(v):
            raise ValueError(f"{what} must be finite JSON numbers, got {v!r} at position {i}")
    return [float(v) for v in values]


def integer(value, what: str) -> int:
    """A JSON integer (an ``int``, not a bool) as it is; anything else, an
    integral float such as ``640.0`` included, raises ``ValueError``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")
