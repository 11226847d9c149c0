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
  ``model.json`` and ``forest.json``; the file echoes ``--policy`` as given.

A change to a command's output bytes shows here first.  The goldens are
rewritten only for a change that means to alter a file's format or what a
command computes, and the change says which files moved and why.

Every command runs in ``tests/golden`` from one table, ``RUNS``, which both
the tests and the rewrite use, so a golden is never written with other flags
than the test runs.  ``PYTHONPATH=src python tests/test_golden.py`` rewrites
every golden file from it, in order (the scene first; the inputs
``records.jsonl``, ``model.json`` and ``iterate.ini`` are kept as they are).
"""

import shutil
import sys
import tempfile
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
# Each golden command, run in tests/golden with ``--out DIR --quiet``, and
# the golden copy of each file it writes to DIR; a command comes after the
# one that writes its input.
RUNS = {
    "scene-gen": (["scene-gen", "--count", "80", "--seed", "4"], {"scene.jsonl": "scene.jsonl"}),
    "synth": (
        ["synth", "--records", "records.jsonl", "--model", "model.json", "--seed", "3"],
        {"labels.jsonl": "labels.jsonl"},
    ),
    "iterate": (
        ["iterate", "--config", "iterate.ini", "--scene", "scene.jsonl", *ITERATE],
        {"round1_refined.jsonl": "round1_refined.jsonl", "round_report.jsonl": "round_report.jsonl"},
    ),
    "grpo-train": (
        ["grpo-train", "--scene", "scene.jsonl", *GRPO_TRAIN],
        {"policy.json": "policy.json", "train_log.jsonl": "train_log.jsonl"},
    ),
    "fit": (["fit", "--config", "iterate.ini", "--scene", "scene.jsonl", *FIT_FOREST], {"forest.json": "forest.json"}),
    **{
        f"eval-{stem}": (
            ["eval", "--scene", "scene.jsonl", "--policy", f"{stem}.json"],
            {"eval.json": f"eval_{stem}.json"},
        )
        for stem in ("policy", "model", "forest")
    },
}
# The goldens of scene-gen, grpo-train, fit and eval were written with this
# numpy.  GRPO's weights are ``einsum`` and ``@`` products, whose last bits
# could differ under another numpy or BLAS.
GOLDEN_NUMPY = "2.4.6"


def run_in_golden(name: str, out: Path) -> None:
    """Run ``RUNS[name]`` in tests/golden, writing to ``out``."""
    argv, _ = RUNS[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(GOLDEN)
        assert main([*argv, "--out", str(out), "--quiet"]) == 0


def assert_writes_the_goldens(name: str, out: Path) -> None:
    run_in_golden(name, out)
    for written, golden in RUNS[name][1].items():
        assert (out / written).read_bytes() == (GOLDEN / golden).read_bytes(), (
            f"{written} differs from tests/golden/{golden}, written with numpy {GOLDEN_NUMPY} "
            f"(this run has numpy {np.__version__})"
        )


def test_synth_writes_the_golden_labels(tmp_path):
    assert_writes_the_goldens("synth", tmp_path)


def test_golden_labels_read_back_and_write_the_same_bytes(tmp_path):
    vocab = codec.TokenVocab.default()
    pl.write_pseudo_labels(tmp_path / "labels.jsonl", pl.read_pseudo_labels(GOLDEN / "labels.jsonl", vocab), vocab)
    assert (tmp_path / "labels.jsonl").read_bytes() == (GOLDEN / "labels.jsonl").read_bytes()


def test_iterate_writes_the_golden_round_and_report(tmp_path):
    assert_writes_the_goldens("iterate", tmp_path)


def test_scene_gen_writes_the_golden_scene(tmp_path):
    assert_writes_the_goldens("scene-gen", tmp_path)


def test_grpo_train_writes_the_golden_policy_and_log(tmp_path):
    assert_writes_the_goldens("grpo-train", tmp_path)


def test_fit_writes_the_golden_forest(tmp_path):
    assert_writes_the_goldens("fit", tmp_path)


@pytest.mark.parametrize("policy", ["policy.json", "model.json", "forest.json"])
def test_eval_writes_the_golden_scores(tmp_path, policy):
    # eval.json echoes --policy as given, so it runs on the file's bare name
    assert_writes_the_goldens(f"eval-{Path(policy).stem}", tmp_path)


def rewrite_goldens() -> None:
    """Run every command of ``RUNS`` in order and copy what it wrote over its goldens."""
    for name, (_, files) in RUNS.items():
        with tempfile.TemporaryDirectory() as out:
            run_in_golden(name, Path(out))
            for written, golden in files.items():
                shutil.copyfile(Path(out) / written, GOLDEN / golden)
                print(f"{name}: tests/golden/{golden}")


if __name__ == "__main__":
    if np.__version__ != GOLDEN_NUMPY:
        sys.exit(f"the goldens are written with numpy {GOLDEN_NUMPY}; this is numpy {np.__version__}")
    rewrite_goldens()
