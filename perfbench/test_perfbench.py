"""Tests of the benchmark itself: a smoke run of each workload, and each check
given a corrupted output.  Run from the repository root with ``src`` on the
path: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import copy
import json
import math
from pathlib import Path

import pytest

import reference
import workloads
from tracer import Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Small enough to run in seconds; selftrain keeps its benchmark size because
# the IoU trend it checks needs that many targets.
SMALL = {
    "selftrain": workloads.Selftrain(),
    "grpo": workloads.Grpo(targets=10, steps=120, scenes=2),
    "synth": workloads.Synth(records=300, fit_targets=60),
}


def run_once(name, tmp_path, seed=3):
    workload = SMALL[name]
    inputs = workload.setup(tmp_path, seed)
    inputs["out"].mkdir()
    tracer = Tracer()
    tracer.install()
    try:
        rc = workload.run(inputs)
    finally:
        tracer.uninstall()
    return workload, inputs, tracer, rc


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    workload, inputs, _, rc = run_once("synth", tmp_path_factory.mktemp("synth"))
    assert rc == 0
    heads = json.loads(inputs["model"].read_text())["heads"]
    labels = workloads.read_jsonl(inputs["out"] / "labels.jsonl")
    return inputs["rows"], heads, labels


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_run_passes_its_checks(name, tmp_path):
    from ptzkit import camera, cli, selftrain

    workload, inputs, tracer, rc = run_once(name, tmp_path)
    assert rc == 0
    quality, _, problems = workload.evaluate(inputs)
    assert problems == []
    assert quality > 0
    assert tracer.absent == []
    assert tracer.stats["cli.main"].calls == 1
    # every wrapper is gone again, at the definition and where callers look
    assert not hasattr(camera.project, "__wrapped__")
    assert selftrain.project is camera.project
    assert not hasattr(cli.main, "__wrapped__")


def test_trace_metrics_match_benchmark_json():
    traced = set(Tracer().metrics(1)) | {"trace.overhead_s", "run.wall_s"}
    assert traced == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_absent_name_is_reported_not_raised(monkeypatch):
    from ptzkit import codec

    monkeypatch.delattr(codec, "decode")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["codec.decode"]
    assert tracer.metrics(1)["trace.absent"] == (1, "count")


def test_reference_codec_round_trip():
    for action in [(0, 0, 0), (23, -8, 0), (-999, 999, 999), (5, -10, 100)]:
        assert reference.decode(reference.encode(*action)) == action
    assert reference.encode(23, -8, 0) == "<PAN> <+> <20> <2> <1> <TILT> <-> <5> <2> <1> <ZOOM> <END>"


def test_flipped_magnitude_token_fails(synth_run):
    records, heads, labels = synth_run
    labels = copy.deepcopy(labels)
    lab = next(x for x in labels if "<2>" in x["tokens"].split())
    lab["tokens"] = lab["tokens"].replace("<2>", "<5>", 1)
    assert workloads.check_synth(records, heads, labels, len(records))
    assert workloads.check_labels([lab], "round 1")


def test_out_of_order_magnitudes_fail_the_grammar():
    lab = {"id": "t0", "action": {"pan": 7, "tilt": 0, "zoom": 0},
           "tokens": "<PAN> <+> <2> <5> <TILT> <ZOOM> <END>"}
    assert workloads.check_labels([lab], "round 1")


def test_dropped_label_line_fails(synth_run):
    records, heads, labels = synth_run
    assert workloads.check_synth(records, heads, labels, len(records)) == []
    assert workloads.check_synth(records, heads, labels[:-1], len(records))


def test_wrong_pan_or_zoom_fails(synth_run):
    records, heads, labels = synth_run
    for key in ("pan", "zoom"):
        bad = copy.deepcopy(labels)
        bad[0]["action"][key] += 1
        bad[0]["tokens"] = reference.encode(*bad[0]["action"].values())
        assert workloads.check_synth(records, heads, bad, len(records))


def _report(ious):
    return [{"mean_iou": v} for v in ious]


def _round(ids):
    return [{"id": i, "action": {"pan": 1, "tilt": 0, "zoom": 0},
             "tokens": reference.encode(1, 0, 0)} for i in ids]


def test_selftrain_checks_pass_on_a_good_trend():
    rounds = [_round(["a", "b", "c"]), _round(["a", "c"])]
    assert workloads.check_selftrain(_report([0.6, 0.8, 0.85]), rounds, ["a", "b", "c", "d"]) == []


def test_iou_falling_between_rounds_fails():
    rounds = [_round(["a", "b"]), _round(["a"])]
    assert workloads.check_selftrain(_report([0.6, 0.8, 0.75]), rounds, ["a", "b"])


def test_iou_gain_below_a_tenth_fails():
    rounds = [_round(["a", "b"]), _round(["a"])]
    assert workloads.check_selftrain(_report([0.6, 0.65, 0.69]), rounds, ["a", "b"])


def test_dropped_round_fails():
    assert workloads.check_selftrain(_report([0.6, 0.8]), [_round(["a", "b"])], ["a", "b"])
    assert workloads.check_selftrain(_report([0.6, 0.8, 0.85]), [_round(["a", "b"])], ["a", "b"])


def test_round_ids_outside_previous_round_fail():
    rounds = [_round(["a", "b"]), _round(["a", "c"])]
    assert workloads.check_selftrain(_report([0.6, 0.8, 0.85]), rounds, ["a", "b", "c"])


GOOD_EVAL = [{"mean_iou": 0.3, "mae_theta1": 4.0}]
ZERO_EVAL = [{"mean_iou": 0.1, "mae_theta1": 9.0}]


def _log(rewards):
    return [[{"mean_reward": r} for r in rewards]]


def test_grpo_checks_pass_on_a_rising_reward():
    assert workloads.check_grpo(_log([-0.2] * 20 + [0.3] * 20), GOOD_EVAL, ZERO_EVAL) == []


def test_non_finite_reward_fails():
    rewards = [-0.2] * 20 + [0.3] * 20
    rewards[25] = math.nan
    assert workloads.check_grpo(_log(rewards), GOOD_EVAL, ZERO_EVAL)


def test_reward_outside_unit_range_fails():
    assert workloads.check_grpo(_log([-0.2] * 20 + [1.5] * 20), GOOD_EVAL, ZERO_EVAL)


def test_trained_policy_no_better_than_zero_fails():
    rising = _log([-0.2] * 20 + [0.3] * 20)
    assert workloads.check_grpo(rising, [{"mean_iou": 0.05, "mae_theta1": 4.0}], ZERO_EVAL)
    assert workloads.check_grpo(rising, [{"mean_iou": 0.3, "mae_theta1": 9.5}], ZERO_EVAL)
