"""The JSON-lines contract, checked through every reader of a data file.

Each format gets the same bad second line: not JSON, not UTF-8, a JSON
list, a non-finite number and, where rows carry ids, a repeated id.  The rejection
names ``path:2``, through the library reader and, where a command reads the
file, through the command line with exit code 3.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ptzkit import camera as cam
from ptzkit import codec, jsonl
from ptzkit import pseudolabel as pl
from ptzkit.cli import main
from ptzkit.codec import ActionDelta

VOCAB = codec.TokenVocab.default()


@dataclass(frozen=True)
class Format:
    row: dict  # a good first row; id "a" where the format has ids
    non_finite: dict  # fields that give a second row a non-finite number
    read: Callable | None  # the library reader, if any
    argv: Callable | None  # command reading the file: (file, out dir) -> argv


FORMATS = {
    "scene": Format(
        {"id": "a", "azimuth": 5.0, "elevation": 2.0, "distance": 2.0, "width": 0.4, "height": 0.4, "phrase": "mug"},
        {"id": "b", "azimuth": math.nan},
        cam.read_scene,
        lambda f, out: ["eval", "--scene", f, "--policy", "oracle", "--out", out],
    ),
    "grounding": Format(
        {"id": "a", "image_w": 640, "image_h": 480, "bbox": [100, 100, 200, 180], "phrase": "red mug"},
        {"id": "b", "bbox": [100, 100, math.nan, 180]},
        pl.read_grounding_records,
        lambda f, out: ["synth", "--records", f, "--model", out / "model.json", "--out", out],
    ),
    "pseudo-labels": Format(
        {
            "id": "a", "instruction": "What is the mug?", "action": {"pan": 4, "tilt": -2, "zoom": 120},
            "tokens": codec.seq_to_str(codec.encode_action(ActionDelta(4, -2, 120), VOCAB), VOCAB),
            "bbox_post": [0.0, 0.0, 50.0, 40.0], "w1": 0.01, "w2": 0.2,
        },
        {"id": "b", "w2": math.inf},
        lambda f: pl.read_pseudo_labels(f, VOCAB),
        None,
    ),
    "training-pairs": Format(
        {"features": {"x_norm": 0.1, "y_norm": -0.2, "w1": 0.05}, "action": {"pan": 2, "tilt": 1, "zoom": 10}},
        {"features": {"x_norm": math.nan, "y_norm": -0.2, "w1": 0.05}},
        lambda f: pl.read_feature_action_pairs(f)[0],  # the feature rows
        lambda f, out: ["fit", "--pairs", f, "--kind", "ols", "--out", out],
    ),
    "report": Format(
        {"round": 0, "threshold": None, "mean_iou": 0.5},
        {"round": 1, "mean_iou": math.nan},
        None,
        lambda f, out: ["report", f],
    ),
}

SECOND_LINES = {
    "not-json": (lambda fmt: b'{"id": "b",', "invalid JSON"),
    "not-utf8": (lambda fmt: b'{"id": "b\xff"}', "can't decode byte 0xff"),
    "json-list": (lambda fmt: b"[1, 2]", "expected a JSON object"),
    "non-finite": (lambda fmt: json.dumps({**fmt.row, **fmt.non_finite}).encode(), "must be finite"),
    "repeated-id": (lambda fmt: json.dumps(fmt.row).encode(), "duplicate id 'a' (first on line 1)"),
}

CASES = [
    (name, case)
    for name, fmt in FORMATS.items()
    for case in SECOND_LINES
    if case != "repeated-id" or "id" in fmt.row
]


@pytest.fixture
def out(tmp_path):
    rng = np.random.default_rng(0)
    x = np.array([rng.uniform(0.01, 0.5, 3) for _ in range(8)])
    actions = np.array([ActionDelta(i, -i, 10 * i).as_tuple() for i in range(8)])
    pl.save_model(tmp_path / "model.json", pl.fit(x, actions, pl.RegressorConfig(kind="ols_linear")))
    return tmp_path


@pytest.mark.parametrize("name, case", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_bad_second_line_names_path_and_line(out, capsys, name, case):
    fmt = FORMATS[name]
    second, reason = SECOND_LINES[case]
    path = out / f"{name}.jsonl"
    path.write_bytes(json.dumps(fmt.row).encode() + b"\n" + second(fmt) + b"\n")
    if fmt.read is not None:
        with pytest.raises(ValueError) as exc:
            fmt.read(path)
        assert str(exc.value).startswith(f"{path}:2: ") and reason in str(exc.value)
    if fmt.argv is not None:
        assert main([str(a) for a in fmt.argv(path, out)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {path}:2: " in err and reason in err


@pytest.mark.parametrize("name", FORMATS)
def test_blank_lines_are_skipped(tmp_path, capsys, name):
    fmt = FORMATS[name]
    second = {**fmt.row, "id": "b"} if "id" in fmt.row else fmt.row
    path = tmp_path / f"{name}.jsonl"
    path.write_text("\n" + json.dumps(fmt.row) + "\n \n\t\n" + json.dumps(second) + "\n\n")
    if fmt.read is not None:
        assert len(fmt.read(path)) == 2
    else:
        assert main(["report", str(path)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3


def test_write_is_one_dumps_line_per_record(tmp_path):
    rows = [{"b": 1, "a": [0.1, None]}, {"id": "x", "v": 1e-17}]
    path = tmp_path / "rows.jsonl"
    jsonl.write(path, iter(rows))
    assert path.read_text() == "".join(json.dumps(r) + "\n" for r in rows)
    assert jsonl.read(path, dict, "row") == rows


@pytest.mark.parametrize("value, expected", [(640, 640), (-3, -3)])
def test_integer_accepts_integral_numbers(value, expected):
    assert jsonl.integer(value, "n") == expected and type(jsonl.integer(value, "n")) is int


@pytest.mark.parametrize("value", [640.0, 640.9, True, False, "640", None, math.inf, math.nan])
def test_integer_rejects(value):
    with pytest.raises(ValueError, match="n must be an integer"):
        jsonl.integer(value, "n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e999, "nan", "1.5", True, None,
                                   pytest.param(10**400, id="huge-int")])
def test_finite_rejects(value):
    with pytest.raises(ValueError, match="xs must be finite"):
        jsonl.finite([1.0, value], "xs")


def reference_blocks(path, parse_row, what: str) -> tuple[list, str | None]:
    """The rows before the first bad line, and that line's error text (None if
    there is none), as read with one ``json.loads`` per line."""
    rows, first_line = [], {}
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError("expected a JSON object")
                row = parse_row(rec)
                if "id" in rec:
                    if str(rec["id"]) in first_line:
                        raise ValueError(f"duplicate id {str(rec['id'])!r} (first on line {first_line[str(rec['id'])]})")
                    first_line[str(rec["id"])] = lineno
            except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else (
                    f"invalid JSON ({exc.msg} at column {exc.colno})" if isinstance(exc, json.JSONDecodeError)
                    else str(exc))
                return rows, f"{path}:{lineno}: {reason} (bad {what})"
            rows.append(row)
    return rows, None


VALUES = hst.recursive(
    hst.one_of(hst.none(), hst.booleans(), hst.integers(), hst.floats(), hst.text(max_size=6)),
    lambda inner: hst.one_of(hst.lists(inner, max_size=3), hst.dictionaries(hst.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
OBJECTS = hst.fixed_dictionaries({"id": hst.sampled_from(["a", "b", "c", 1, "ü"])}, optional={"v": VALUES})


@hst.composite
def lines(draw) -> bytes:
    """One line of a JSON-lines file, good or bad, newline included."""
    text = json.dumps(draw(OBJECTS), ensure_ascii=draw(hst.booleans()))
    line = text.encode("utf-8")
    change = draw(hst.sampled_from([
        "none", "none", "none", "leading", "trailing", "crlf", "nul", "bom", "two", "value", "truncated", "blank",
        "no-id", "nul-in-value", "non-ascii-space", "huge-int", "bad-utf8",
    ]))
    if change == "leading":
        line = draw(hst.sampled_from([b" ", b"\t", b"\r", b"\x0c"])) + line
    elif change == "trailing":
        line += draw(hst.sampled_from([b" ", b"\t", b"\r", b"  \t", b"\x0b"]))
    elif change == "crlf":
        line += b"\r"
    elif change == "nul":
        line = line[:1] + b"\x00" + line[1:]
    elif change == "bom":
        line = b"\xef\xbb\xbf" + line
    elif change == "two":
        line += draw(hst.sampled_from([b"", b" "])) + json.dumps(draw(OBJECTS)).encode()
    elif change == "value":
        line = json.dumps(draw(VALUES)).encode()
    elif change == "truncated":
        line = line[: draw(hst.integers(0, len(line) - 1))]
    elif change == "blank":
        line = draw(hst.sampled_from([b"", b" ", b"\t", b"\r"]))
    elif change == "no-id":
        line = b"{}"
    elif change == "nul-in-value":
        line = b'{"id": "n", "v": "\x00"}'
    elif change == "non-ascii-space":
        line = line + "\u00a0".encode()
    elif change == "huge-int":
        line = b'{"id": "h", "v": ' + b"7" * 4400 + b"}"
    elif change == "bad-utf8":
        line = line[:-1] + b"\xff}"
    return line


@settings(derandomize=True, max_examples=400, deadline=None)
@given(body=hst.lists(lines(), max_size=6), last_newline=hst.booleans(), size=hst.sampled_from([None, 1, 2]))
def test_blocks_read_as_json_loads_per_line(tmp_path_factory, body, last_newline, size):
    path = tmp_path_factory.mktemp("lines") / "rows.jsonl"
    path.write_bytes(b"\n".join(body) + (b"\n" if last_newline else b""))
    want_rows, want_error = reference_blocks(path, dict, "row")
    got_rows, got_error = [], None
    try:
        for block in jsonl.blocks(path, dict, "row", size):
            got_rows += block
    except ValueError as exc:
        got_error = str(exc)
    assert (got_rows, got_error) == (want_rows, want_error)
