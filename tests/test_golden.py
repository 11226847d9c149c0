"""The files every command writes, held byte for byte to golden copies.

``tests/golden`` holds small inputs and what the commands wrote from them:

- ``records.jsonl``: 50 grounding records, two of them skipped, with ids and
  phrases that need JSON escapes (non-ASCII text, quotes, backslashes, control
  characters, a lone surrogate), lines written with and without
  ``ensure_ascii``, a blank line, and lines with surrounding whitespace;
- ``scene.jsonl``: ``scene-gen --count 80 --seed 4``;
- ``model.json``: ``fit --kind ols --seed 4`` on that scene, written when a
  model's config still held ``"use_zoom_feature": false``, which is read as
  its absence;
- ``labels.jsonl``: ``synth --seed 3`` on those records with that model, as
  written when every label line was a ``json.dumps`` of a row dict;
- ``round1_refined.jsonl`` and ``round_report.jsonl``: ``iterate`` with
  ``iterate.ini`` and the flags in ``ITERATE``;
- ``policy.json`` and ``train_log.jsonl``: ``grpo-train`` with ``GRPO_TRAIN``
  on the scene;
- ``forest.json``: ``fit`` with ``iterate.ini`` and ``FIT_FOREST`` on the scene;
- ``eval_<name>.json``: ``eval`` on the scene of ``policy.json``,
  ``model.json`` and ``forest.json``, run in ``tests/golden``, since the file
  echoes ``--policy`` as given.

A change to a command's output bytes shows here first; the goldens are
rewritten only for a change that means to alter the file format.
"""

from pathlib import Path

import numpy as np
import pytest

from ptzkit import codec
from ptzkit import pseudolabel as pl
from ptzkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
ITERATE = ["--rounds", "1", "--label-noise-angle", "2.0", "--label-noise-zoom", "15.0", "--split", "0.2", "--seed", "5"]
GRPO_TRAIN = ["--steps", "20", "--seed", "4"]
FIT_FOREST = ["--kind", "rf", "--seed", "4", "--model-file", "forest.json"]
# The goldens of scene-gen, grpo-train, fit and eval were written with this
# numpy.  GRPO's weights are ``einsum`` and ``@`` products, whose last bits
# could differ under another numpy or BLAS.
GOLDEN_NUMPY = "2.4.6"


def assert_golden(written: Path, name: str) -> None:
    assert written.read_bytes() == (GOLDEN / name).read_bytes(), (
        f"{written.name} differs from tests/golden/{name}, written with numpy {GOLDEN_NUMPY} "
        f"(this run has numpy {np.__version__})"
    )


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


def test_scene_gen_writes_the_golden_scene(tmp_path):
    assert main(["scene-gen", "--count", "80", "--seed", "4", "--out", str(tmp_path), "--quiet"]) == 0
    assert_golden(tmp_path / "scene.jsonl", "scene.jsonl")


def test_grpo_train_writes_the_golden_policy_and_log(tmp_path):
    argv = ["grpo-train", "--scene", str(GOLDEN / "scene.jsonl"), *GRPO_TRAIN]
    assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
    for name in ("policy.json", "train_log.jsonl"):
        assert_golden(tmp_path / name, name)


def test_fit_writes_the_golden_forest(tmp_path):
    argv = ["fit", "--config", str(GOLDEN / "iterate.ini"), "--scene", str(GOLDEN / "scene.jsonl"), *FIT_FOREST]
    assert main([*argv, "--out", str(tmp_path), "--quiet"]) == 0
    assert_golden(tmp_path / "forest.json", "forest.json")


@pytest.mark.parametrize("policy", ["policy.json", "model.json", "forest.json"])
def test_eval_writes_the_golden_scores(tmp_path, monkeypatch, policy):
    monkeypatch.chdir(GOLDEN)
    assert main(["eval", "--scene", "scene.jsonl", "--policy", policy, "--out", str(tmp_path), "--quiet"]) == 0
    assert_golden(tmp_path / "eval.json", f"eval_{Path(policy).stem}.json")
