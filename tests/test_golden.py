"""The files ``synth`` and ``iterate`` write, held byte for byte to golden copies.

``tests/golden`` holds small inputs and what the commands wrote from them when
every label line was a ``json.dumps`` of a row dict:

- ``records.jsonl``: 50 grounding records, two of them skipped, with ids and
  phrases that need JSON escapes (non-ASCII text, quotes, backslashes, control
  characters, a lone surrogate), lines written with and without
  ``ensure_ascii``, a blank line, and lines with surrounding whitespace;
- ``model.json``: ``fit --kind ols --seed 4`` on ``scene.jsonl``, which is
  ``scene-gen --count 80 --seed 4``;
- ``labels.jsonl``: ``synth --seed 3`` on those records with that model;
- ``round1_refined.jsonl`` and ``round_report.jsonl``: ``iterate`` with
  ``iterate.ini`` and the flags in ``ITERATE``.

A change to a command's output bytes shows here first; the goldens are
rewritten only for a change that means to alter the file format.
"""

from pathlib import Path

from ptzkit import codec
from ptzkit import pseudolabel as pl
from ptzkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
ITERATE = ["--rounds", "1", "--label-noise-angle", "2.0", "--label-noise-zoom", "15.0", "--split", "0.2", "--seed", "5"]


def test_synth_writes_the_golden_labels(tmp_path):
    argv = ["synth", "--records", GOLDEN / "records.jsonl", "--model", GOLDEN / "model.json", "--seed", "3"]
    assert main([*map(str, argv), "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "labels.jsonl").read_bytes() == (GOLDEN / "labels.jsonl").read_bytes()


def test_golden_labels_read_back_and_write_the_same_bytes(tmp_path):
    vocab = codec.TokenVocab.default()
    pl.write_pseudo_labels(tmp_path / "labels.jsonl", pl.read_pseudo_labels(GOLDEN / "labels.jsonl", vocab), vocab)
    assert (tmp_path / "labels.jsonl").read_bytes() == (GOLDEN / "labels.jsonl").read_bytes()


def test_iterate_writes_the_golden_round_and_report(tmp_path):
    argv = ["iterate", "--config", GOLDEN / "iterate.ini", "--scene", GOLDEN / "scene.jsonl", *ITERATE]
    assert main([*map(str, argv), "--out", str(tmp_path), "--quiet"]) == 0
    for name in ("round1_refined.jsonl", "round_report.jsonl"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
