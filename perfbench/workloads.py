"""The benchmark's three workloads: seeded inputs, one timed operation, checks.

Every operation calls the public command line, ``ptzkit.cli.main``, in this
process; ``synth`` then reads its output back with
``pseudolabel.read_pseudo_labels``.  ``ptzkit`` is imported inside the
functions, never at the top, so set-up can time the import and the
tracer can wrap what the operation looks up.  The checks compare the outputs with properties of the
method and with ``reference``, which does not import ``ptzkit``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

ADJECTIVES = ("red", "blue", "green", "small", "striped", "shiny", "dusty", "white")
NOUNS = ("mug", "notebook", "pen", "box", "label", "bottle", "switch", "keyboard")
# Image sizes of the generated grounding records (width, height).
IMAGE_SIZES = ((1280, 720), (1920, 1080), (640, 480), (1024, 768))
MAX_PROBLEMS = 5
# Filter rounds of one ``selftrain`` operation (thresholds 0.7, then 0.95).
SELFTRAIN_ROUNDS = 2


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _phrase(rng: np.random.Generator) -> str:
    return f"{ADJECTIVES[rng.integers(len(ADJECTIVES))]} {NOUNS[rng.integers(len(NOUNS))]}"


def write_scene(path: Path, count: int, rng: np.random.Generator, distance=(1.5, 2.6), size=(0.3, 0.5)) -> list[str]:
    """Targets within +/-20 deg azimuth and +/-8 deg elevation, so every one
    is fully in view of the start pose; returns their ids."""
    rows = []
    for i in range(count):
        width = float(rng.uniform(*size))
        rows.append({
            "id": f"t{i:05d}",
            "azimuth": float(rng.uniform(-20.0, 20.0)),
            "elevation": float(rng.uniform(-8.0, 8.0)),
            "distance": float(rng.uniform(*distance)),
            "width": width,
            "height": width * float(rng.uniform(0.7, 1.15)),
            "phrase": _phrase(rng),
        })
    write_jsonl(path, rows)
    return [r["id"] for r in rows]


def write_records(path: Path, count: int, rng: np.random.Generator) -> list[dict]:
    """Grounding records with boxes inside their images, on a 0.01 px grid."""
    rows = []
    for i in range(count):
        w, h = IMAGE_SIZES[rng.integers(len(IMAGE_SIZES))]
        bw = round(float(w * rng.uniform(0.03, 0.5)), 2)
        bh = round(min(bw * float(rng.uniform(0.5, 1.5)), h * 0.95), 2)
        x0 = round(float(rng.uniform(0.0, w - bw)), 2)
        y0 = round(float(rng.uniform(0.0, h - bh)), 2)
        bbox = [x0, y0, min(round(x0 + bw, 2), w), min(round(y0 + bh, 2), h)]
        rows.append({"id": f"r{i:06d}", "image_w": w, "image_h": h, "bbox": bbox, "phrase": _phrase(rng)})
    write_jsonl(path, rows)
    return rows


def cli_main(argv: list[str]) -> int:
    from ptzkit import cli

    return cli.main([str(a) for a in argv])


def _run_cli(argv: list[str]) -> None:
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"ptzkit {' '.join(map(str, argv))} exited {rc}")


def reward_gain(rewards: list[float]) -> float:
    """Mean reward over the last 20 logged steps minus the first 20."""
    return float(np.mean(rewards[-20:]) - np.mean(rewards[:20]))


def _limit(problems: list[str]) -> list[str]:
    if len(problems) > MAX_PROBLEMS:
        return problems[:MAX_PROBLEMS] + [f"... and {len(problems) - MAX_PROBLEMS} more"]
    return problems


# --- checks ----------------------------------------------------------------


def check_labels(labels: list[dict], where: str) -> list[str]:
    """Each token string decodes, under the README grammar, to its action."""
    problems = []
    for lab in labels:
        action = (lab["action"]["pan"], lab["action"]["tilt"], lab["action"]["zoom"])
        try:
            decoded = reference.decode(lab["tokens"])
        except reference.GrammarError as exc:
            problems.append(f"{where} {lab['id']}: {exc}")
            continue
        if decoded != action:
            problems.append(f"{where} {lab['id']}: tokens give {decoded}, action is {action}")
    return problems


def check_selftrain(report: list[dict], rounds: list[list[dict]], scene_ids: list[str]) -> list[str]:
    problems = []
    ious = [row["mean_iou"] for row in report]
    if len(report) != SELFTRAIN_ROUNDS + 1 or len(rounds) != SELFTRAIN_ROUNDS:
        problems.append(f"{len(report)} report rows and {len(rounds)} refined rounds for {SELFTRAIN_ROUNDS} rounds")
    if any(b < a for a, b in zip(ious, ious[1:])):
        problems.append(f"held-out mean IoU fell between rounds: {ious}")
    if ious and ious[-1] < ious[0] + 0.1:
        problems.append(f"final mean IoU {ious[-1]:.4f} is below round 0's {ious[0]:.4f} + 0.1")
    previous = set(scene_ids)
    for r, labels in enumerate(rounds, 1):
        ids = {lab["id"] for lab in labels}
        if len(ids) != len(labels):
            problems.append(f"round {r}: duplicate ids")
        if not ids <= previous:
            problems.append(f"round {r}: ids not kept in the previous round: {sorted(ids - previous)[:3]}")
        problems += check_labels(labels, f"round {r}")
        previous = ids
    return _limit(problems)


def check_grpo(logs: list[list[dict]], trained: list[dict], zero: list[dict]) -> list[str]:
    """Per training: rewards finite in [-1, 1] and a positive gain.  Over the
    trainings: the checkpoints beat the zero policy on their own scenes in
    mean IoU and pan MAE.  One 25-target scene can miss on pan MAE by a few
    hundredths of a degree (8.12 against 8.08), so that comparison is made
    on the mean over the scenes."""
    problems = []
    for i, log in enumerate(logs):
        rewards = [row["mean_reward"] for row in log]
        bad = [(j, r) for j, r in enumerate(rewards) if not (math.isfinite(r) and -1.0 <= r <= 1.0)]
        if bad:
            problems.append(f"scene {i}: rewards not finite in [-1, 1] at steps {bad[:3]}")
        elif not reward_gain(rewards) > 0.0:
            problems.append(f"scene {i}: reward gain {reward_gain(rewards):.4f} is not positive")
    for key, name, better in (("mean_iou", "mean IoU", 1.0), ("mae_theta1", "pan MAE", -1.0)):
        ours = float(np.mean([e[key] for e in trained]))
        base = float(np.mean([e[key] for e in zero]))
        if not better * (ours - base) > 0.0:
            problems.append(f"trained {name} {ours:.4f} is no better than the zero policy's {base:.4f}")
    return problems


def check_synth(records: list[dict], heads: dict, labels: list[dict], n_read: int) -> list[str]:
    problems = []
    if len(labels) != len(records) or n_read != len(records):
        problems.append(f"{len(records)} records gave {len(labels)} labels, {n_read} read back")
    by_id = {lab["id"]: lab for lab in labels}
    if len(by_id) != len(labels):
        problems.append("duplicate label ids")
    for rec in records:
        lab = by_id.get(rec["id"])
        if lab is None:
            problems.append(f"record {rec['id']} has no label")
            continue
        features = reference.record_features(rec["image_w"], rec["image_h"], rec["bbox"])
        pan, tilt = reference.ols_action(heads, features)
        zoom = reference.crop_zoom(rec["image_w"], rec["image_h"], rec["bbox"])
        got = (lab["action"]["pan"], lab["action"]["tilt"], lab["action"]["zoom"])
        if got != (pan, tilt, zoom):
            problems.append(f"label {rec['id']}: action {got}, expected {(pan, tilt, zoom)}")
        if lab["tokens"] != reference.encode(*got):
            problems.append(f"label {rec['id']}: tokens {lab['tokens']!r} are not the greedy encoding")
    return _limit(problems)


# --- workloads ---------------------------------------------------------------


class Selftrain:
    """``ptzkit iterate``: noisy-oracle labels, filter at 0.7 then 0.95, RF refits.

    Sizes are in perfbench/README.md: 2000 targets, 3 trees per head, label
    noise of 2 deg and 15 zoom units, a tenth of the scene held out.
    """

    def setup(self, workdir: Path, seed: int) -> dict:
        scene = workdir / "scene.jsonl"
        ids = write_scene(scene, 2000, np.random.default_rng([seed, 1]), distance=(1.8, 2.6), size=(0.35, 0.5))
        config = workdir / "selftrain.ini"
        config.write_text("[pseudolabel]\nn_trees = 3\nmax_depth = 10\nmin_samples_leaf = 4\n", encoding="utf-8")
        return {"scene": scene, "scene_ids": ids, "config": config, "out": workdir / "out", "seed": seed}

    def run(self, inp: dict) -> int:
        return cli_main([
            "iterate", "--config", inp["config"], "--scene", inp["scene"], "--rounds", SELFTRAIN_ROUNDS,
            "--thresholds", "0.7,0.95", "--label-noise-angle", 2.0, "--label-noise-zoom", 15.0,
            "--split", 0.1, "--seed", inp["seed"], "--out", inp["out"], "--quiet",
        ])

    def evaluate(self, inp: dict) -> tuple[float, dict, list[str]]:
        report = read_jsonl(inp["out"] / "round_report.jsonl")
        paths = [inp["out"] / f"round{r}_refined.jsonl" for r in range(1, SELFTRAIN_ROUNDS + 1)]
        rounds = [read_jsonl(path) for path in paths if path.exists()]
        details = {
            "mean_iou_per_round": [row["mean_iou"] for row in report],
            "kept_per_round": [len(labels) for labels in rounds],
        }
        return report[-1]["mean_iou"], details, check_selftrain(report, rounds, inp["scene_ids"])


@dataclass
class Grpo:
    """``ptzkit grpo-train`` on one scene per operation, scored by ``ptzkit eval``.

    One training's reward gain differs from seed to seed by about a tenth of
    itself, so ``quality`` is the mean gain over ``scenes`` trainings, each
    with a scene and a training seed of its own: with one training seed for
    all, the gains rose and fell together.  The timed operations cycle
    through the scenes; ``evaluate`` trains, untimed, any scene they did not
    reach, so ``quality`` does not depend on how many operations fitted in
    the run.
    """

    targets: int = 25
    steps: int = 120
    scenes: int = 4

    def setup(self, workdir: Path, seed: int) -> dict:
        scenes = []
        for i in range(self.scenes):
            scenes.append(workdir / f"scene{i}.jsonl")
            write_scene(scenes[-1], self.targets, np.random.default_rng([seed, 2, i]))
        train_seeds = np.random.default_rng([seed, 5]).integers(2**31, size=self.scenes)
        return {"scenes": scenes, "train_seeds": [int(x) for x in train_seeds],
                "out": workdir / "out", "seed": seed, "ops": 0}

    def _train(self, inp: dict, i: int) -> int:
        return cli_main([
            "grpo-train", "--scene", inp["scenes"][i], "--steps", self.steps,
            "--seed", inp["train_seeds"][i], "--out", inp["out"] / f"scene{i}", "--quiet",
        ])

    def run(self, inp: dict) -> int:
        i = inp["ops"] % len(inp["scenes"])
        inp["ops"] += 1
        return self._train(inp, i)

    def evaluate(self, inp: dict) -> tuple[float, dict, list[str]]:
        logs, trained, zero, per_scene = [], [], [], []
        for i, scene in enumerate(inp["scenes"]):
            out = inp["out"] / f"scene{i}"
            if not (out / "train_log.jsonl").exists() and self._train(inp, i) != 0:
                raise RuntimeError(f"ptzkit grpo-train on scene {i} failed")
            for policy, name in ((out / "policy.json", "eval_trained.json"), ("zero", "eval_zero.json")):
                _run_cli(["eval", "--scene", scene, "--policy", policy, "--eval-file", name,
                          "--seed", inp["seed"], "--out", out, "--quiet"])
            logs.append(read_jsonl(out / "train_log.jsonl"))
            trained.append(json.loads((out / "eval_trained.json").read_text(encoding="utf-8")))
            zero.append(json.loads((out / "eval_zero.json").read_text(encoding="utf-8")))
            gain = reward_gain([row["mean_reward"] for row in logs[-1]])
            per_scene.append({"reward_gain": gain, "eval_trained": trained[-1], "eval_zero": zero[-1]})
        quality = float(np.mean([scene["reward_gain"] for scene in per_scene]))
        return quality, {"scenes": per_scene}, check_grpo(logs, trained, zero)


@dataclass
class Synth:
    """``ptzkit synth`` over generated grounding records, then a strict read-back."""

    records: int = 8000
    fit_targets: int = 400

    def setup(self, workdir: Path, seed: int) -> dict:
        records = workdir / "records.jsonl"
        rows = write_records(records, self.records, np.random.default_rng([seed, 3]))
        fit_scene = workdir / "fit_scene.jsonl"
        write_scene(fit_scene, self.fit_targets, np.random.default_rng([seed, 4]))
        _run_cli(["fit", "--scene", fit_scene, "--kind", "ols", "--model-file", "model.json",
                  "--seed", seed, "--out", workdir, "--quiet"])
        return {"records": records, "rows": rows, "fit_scene": fit_scene, "model": workdir / "model.json",
                "out": workdir / "out", "seed": seed, "read": []}

    def run(self, inp: dict) -> int:
        from ptzkit import codec, pseudolabel

        rc = cli_main(["synth", "--records", inp["records"], "--model", inp["model"],
                       "--seed", inp["seed"], "--out", inp["out"], "--quiet"])
        if rc == 0:
            labels = pseudolabel.read_pseudo_labels(inp["out"] / "labels.jsonl", codec.TokenVocab.default())
            inp["read"].append(len(labels))
        return rc

    def evaluate(self, inp: dict) -> tuple[float, dict, list[str]]:
        out = inp["out"]
        _run_cli(["eval", "--scene", inp["fit_scene"], "--policy", inp["model"], "--eval-file", "eval_ols.json",
                  "--seed", inp["seed"], "--out", out, "--quiet"])
        ols = json.loads((out / "eval_ols.json").read_text(encoding="utf-8"))
        heads = json.loads(inp["model"].read_text(encoding="utf-8"))["heads"]
        labels = read_jsonl(out / "labels.jsonl")
        problems = check_synth(inp["rows"], heads, labels, min(inp["read"], default=0))
        return ols["mean_iou"], {"labels": len(labels), "eval_ols": ols}, problems


WORKLOADS = {"selftrain": Selftrain, "grpo": Grpo, "synth": Synth}
