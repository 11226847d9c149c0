import ast
import configparser
import inspect
import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import ptzkit
from ptzkit import cli
from ptzkit.cli import main
from ptzkit.config import RunConfig, load_config

GOLDEN = Path(__file__).parent / "golden"


def run(args):
    return main(args)


class TestEncodeDecode:
    def test_encode_example(self, capsys):
        assert run(["encode", "--pan", "23", "--tilt", "-8", "--zoom", "0"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "<PAN> <+> <20> <2> <1> <TILT> <-> <5> <2> <1> <ZOOM> <END>"

    def test_decode_round_trip(self, capsys):
        run(["encode", "--pan", "23", "--tilt", "-8", "--zoom", "0"])
        tokens = capsys.readouterr().out.strip()
        assert run(["decode", tokens]) == 0
        assert capsys.readouterr().out.strip() == "23 -8 0"

    def test_negative_zoom_is_usage_error(self, capsys):
        assert run(["encode", "--pan", "0", "--tilt", "0", "--zoom", "-5"]) == 2
        assert "zoom must be non-negative" in capsys.readouterr().err

    def test_decode_bad_token_names_it(self, capsys):
        assert run(["decode", "<PAN> <WAT> <END>"]) == 2
        assert "<WAT>" in capsys.readouterr().err

    def test_decode_lenient(self, capsys):
        text = "<PAN> <+> <1> <20> <2> <TILT> <ZOOM> <END>"
        assert run(["decode", text]) == 2
        capsys.readouterr()
        assert run(["decode", text, "--lenient"]) == 0
        assert capsys.readouterr().out.strip() == "23 0 0"

    def test_decode_decodes_once(self, monkeypatch, capsys):
        from ptzkit import codec

        calls = []
        real_decode = codec.decode
        monkeypatch.setattr(codec, "decode", lambda *a, **kw: calls.append(1) or real_decode(*a, **kw))
        assert run(["decode", "<PAN> <+> <20> <2> <1> <TILT> <-> <5> <2> <1> <ZOOM> <END>"]) == 0
        assert capsys.readouterr().out.strip() == "23 -8 0"
        assert len(calls) == 1

    def test_custom_vocab(self, tmp_path, capsys):
        from ptzkit.codec import TokenVocab

        path = tmp_path / "vocab.tsv"
        TokenVocab.default(base_id=1000).save(path)
        assert run(["encode", "--pan", "7", "--tilt", "0", "--zoom", "0", "--vocab", str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "<PAN> <+> <5> <2> <TILT> <ZOOM> <END>"

    def test_missing_vocab_file_is_data_error(self, tmp_path, capsys):
        # as a missing --scene is; a missing [codec] vocab_path is a config error at load
        assert run(["encode", "--pan", "7", "--tilt", "0", "--zoom", "0", "--vocab", str(tmp_path / "nope.tsv")]) == 3
        assert "data error: " in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["x\t<PAN>\tdim\t0", "0\t<PAN>\tdim\t1.5"], ids=["id", "value"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_non_integer_vocab_field_names_file_and_line(self, tmp_path, capsys, line, via_config):
        path = tmp_path / "vocab.tsv"
        path.write_text(line + "\n")
        if via_config:
            cfg = tmp_path / "run.ini"
            cfg.write_text(f"[codec]\nvocab_path = {path}\n")
            argv = ["--config", str(cfg), "encode", "--pan", "7", "--tilt", "0", "--zoom", "0"]
        else:
            argv = ["encode", "--pan", "7", "--tilt", "0", "--zoom", "0", "--vocab", str(path)]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert f"{path}:1: id and value must be integers" in err
        assert "invalid literal" not in err

    def test_bad_vocab_table_names_the_file(self, tmp_path, capsys):
        from ptzkit.codec import TokenVocab

        path = tmp_path / "vocab.tsv"
        TokenVocab.default().save(path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace(lines[-1].split("\t")[0], "99", 1)  # the end token's id leaves a gap
        path.write_text("\n".join(lines) + "\n")
        assert run(["encode", "--pan", "7", "--tilt", "0", "--zoom", "0", "--vocab", str(path)]) == 3
        assert f"{path}: token ids must be contiguous" in capsys.readouterr().err

    @pytest.mark.parametrize("symbol", ["<2 x>", "", "<2>\x1f", "\xa0<2>"], ids=["space", "empty", "unit-sep", "nbsp"])
    def test_vocab_symbol_a_token_string_cannot_carry_names_the_file(self, tmp_path, capsys, symbol):
        from ptzkit.codec import TokenVocab

        path = tmp_path / "vocab.tsv"
        TokenVocab.default().save(path)
        path.write_text(path.read_text().replace("\t<2>\t", f"\t{symbol}\t"))
        assert run(["encode", "--pan", "7", "--tilt", "5", "--zoom", "0", "--vocab", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: token symbol {symbol!r} is empty or holds whitespace" in captured.err


class TestSceneGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run(["scene-gen", "--count", "30", "--seed", "5", "--out", str(out)]) == 0
        assert (a / "scene.jsonl").read_bytes() == (b / "scene.jsonl").read_bytes()

    def test_count_zero(self, tmp_path):
        assert run(["scene-gen", "--count", "0", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "scene.jsonl").read_text() == ""

    def test_bad_range_is_usage_error(self, tmp_path, capsys):
        assert run(["scene-gen", "--count", "5", "--azimuth", "20,-20", "--out", str(tmp_path)]) == 2
        assert "invalid azimuth range (20.0, -20.0)" in capsys.readouterr().err
        assert run(["scene-gen", "--count", "5", "--distance=-1,2", "--out", str(tmp_path)]) == 2
        assert run(["scene-gen", "--count", "5", "--size", "1,2,3", "--out", str(tmp_path)]) == 2
        # a range too wide to draw from, and a draw that overflows
        assert run(["scene-gen", "--count", "3", "--azimuth=nan,1", "--out", str(tmp_path)]) == 2
        assert "invalid azimuth range (nan, 1.0)" in capsys.readouterr().err
        assert run(["scene-gen", "--count", "3", "--azimuth=-1e308,1e308", "--out", str(tmp_path)]) == 2
        assert "invalid azimuth range (-1e+308, 1e+308)" in capsys.readouterr().err
        assert run(["scene-gen", "--count", "3", "--size=1e308,1.7e308", "--out", str(tmp_path)]) == 2
        assert "target height must be finite, got inf" in capsys.readouterr().err

    def test_no_partial_left_behind(self, tmp_path):
        run(["scene-gen", "--count", "5", "--out", str(tmp_path)])
        assert not list(tmp_path.glob("*.partial"))

    def test_negative_count_makes_no_out_dir(self, tmp_path, capsys):
        assert run(["scene-gen", "--count", "-1", "--out", str(tmp_path / "d")]) == 2
        assert "--count must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert run(["scene-gen", "--count", "80", "--seed", "7", "--out", str(out), "--quiet"]) == 0
    return out / "scene.jsonl"


@pytest.fixture(scope="module")
def scene_with_one_out_of_view(tmp_path_factory):
    """40 targets in full view of the camera's start pose, and one behind it."""
    out = tmp_path_factory.mktemp("scene")
    argv = ["scene-gen", "--count", "40", "--azimuth=-15,15", "--elevation=-6,6", "--seed", "7", "--quiet"]
    assert run([*argv, "--out", str(out)]) == 0
    path = out / "scene.jsonl"
    behind = {"id": "behind", "azimuth": 150.0, "elevation": 0.0, "distance": 2.0, "width": 0.4, "height": 0.4,
              "phrase": "red mug"}
    path.write_text(path.read_text() + json.dumps(behind) + "\n")
    return path


@pytest.mark.parametrize("argv", [
    ["fit", "--kind", "ols"],
    ["iterate", "--rounds", "1", "--thresholds", "0.5"],
    ["grpo-train", "--steps", "2"],
    ["eval", "--policy", "oracle"],
], ids=["fit", "iterate", "grpo-train", "eval"])
def test_scene_commands_say_which_targets_they_skip(tmp_path, capsys, scene_with_one_out_of_view, argv):
    argv = [*argv, "--scene", str(scene_with_one_out_of_view), "--out", str(tmp_path)]
    assert run(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("skipped ")] == ["skipped behind: initial view is out_of_view"]
    assert run([*argv, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


class TestFitEval:
    def test_fit_rf_and_eval(self, tmp_path, scene_file, capsys):
        assert run([
            "fit", "--scene", str(scene_file), "--kind", "rf",
            "--out", str(tmp_path), "--seed", "3",
        ]) == 0
        summary = capsys.readouterr().out
        assert "R2" in summary
        model = tmp_path / "model.json"
        assert model.exists()
        assert run([
            "eval", "--scene", str(scene_file), "--policy", str(model),
            "--out", str(tmp_path), "--seed", "3",
        ]) == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["mean_iou"] > 0.5

    def test_fit_ols_exact_pairs(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        rows = []
        for i in range(-5, 6):
            for j in (-3, 0, 3):
                rows.append(
                    {
                        "features": {"x_norm": i / 10, "y_norm": j / 10, "w1": (i * i + 1) / 100},
                        "action": {"pan": 2 * i, "tilt": -j, "zoom": 10},
                    }
                )
        pairs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(["fit", "--pairs", str(pairs), "--kind", "ols", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "pan=1.0000" in out

    def test_pairs_with_zoom_feat_fit_the_model_of_pairs_without_it(self, tmp_path):
        rows = [
            {"features": {"x_norm": i / 10, "y_norm": (i % 3) / 10, "w1": (i * i + 1) / 100},
             "action": {"pan": 2 * i + i % 3, "tilt": i % 3, "zoom": 10 + i}}
            for i in range(-6, 7)
        ]
        models = []
        for name, extra in (("bare", {}), ("zoom_feat", {"zoom_feat": 0.5}), ("some", None)):
            pairs = tmp_path / f"{name}.jsonl"
            lines = [{**r, "features": {**r["features"], **(extra or ({"zoom_feat": i} if i % 2 else {}))}}
                     for i, r in enumerate(rows)]
            pairs.write_text("".join(json.dumps(r) + "\n" for r in lines))
            out = tmp_path / name
            assert run(["fit", "--pairs", str(pairs), "--kind", "rf", "--out", str(out), "--quiet"]) == 0
            models.append((out / "model.json").read_bytes())
        assert models[1] == models[0] and models[2] == models[0]

    def test_fit_requires_exactly_one_source(self, tmp_path, scene_file):
        assert run(["fit", "--out", str(tmp_path)]) == 2

    def test_eval_oracle_cr_100(self, tmp_path, scene_file, capsys):
        assert run([
            "eval", "--scene", str(scene_file), "--policy", "oracle", "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["cr"] == 1.0
        assert doc["mean_iou"] == pytest.approx(1.0)

    def test_eval_zero_policy(self, tmp_path, scene_file):
        assert run([
            "eval", "--scene", str(scene_file), "--policy", "zero", "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["cr"] == 0.0

    def test_eval_noisy_oracle_uses_configured_noise(self, tmp_path, scene_file):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[selftrain]\nlabel_noise_angle = 0\nlabel_noise_zoom = 20\n")
        assert run([
            "--config", str(cfg), "eval", "--scene", str(scene_file), "--policy", "noisy-oracle",
            "--out", str(tmp_path), "--quiet",
        ]) == 0
        doc = json.loads((tmp_path / "eval.json").read_text())
        assert doc["mae_theta1"] == 0.0 and doc["mae_theta2"] == 0.0
        assert doc["mae_zoom"] > 0.0

    def test_eval_noisy_oracle_without_noise_rejected(self, tmp_path, scene_file, capsys):
        assert run([
            "eval", "--scene", str(scene_file), "--policy", "noisy-oracle", "--out", str(tmp_path),
        ]) == 3
        err = capsys.readouterr().err
        assert "label_noise_angle" in err and "label_noise_zoom" in err

    def test_huge_label_noise_saturates_at_the_clamp(self, tmp_path, scene_file, capsys):
        # sigma * z overflows to +/-inf: each noisy label sits at the codec's
        # clamp, +/-999 in pan and tilt, 0 or 999 in zoom, with no warning
        cfg = tmp_path / "run.ini"
        cfg.write_text("[selftrain]\nlabel_noise_angle = 1e308\nlabel_noise_zoom = 1e308\n")
        assert run([
            "--config", str(cfg), "eval", "--scene", str(scene_file), "--policy", "noisy-oracle",
            "--out", str(tmp_path), "--quiet",
        ]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "eval.json").read_text())
        # the scene's oracle pans lie within +/-25 deg and its tilts within +/-12
        assert 999 - 25 <= doc["mae_theta1"] <= 999 + 25
        assert 999 - 12 <= doc["mae_theta2"] <= 999 + 12
        assert doc["cr"] == 0.0

    @pytest.mark.parametrize("change, reason", [
        (lambda d: d["config"].update(n_treez=3), "config 'n_treez' is not a model setting"),
        (lambda d: d.update(train_r2={"pan": "x"}), "train_r2 must map pan, tilt, zoom each to a finite number"),
    ], ids=["unknown-config-key", "string-r2"])
    def test_model_file_config_and_r2_are_checked(self, tmp_path, scene_file, capsys, change, reason):
        doc = json.loads((GOLDEN / "model.json").read_text())
        change(doc)
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc) + "\n")
        assert run(["eval", "--scene", str(scene_file), "--policy", str(bad), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(f"data error: {bad}: {reason}")

    @pytest.mark.parametrize("doc", ["{}", "[1, 2]", '{"kind": "ols_linear", "config": 7}', "not json"])
    def test_malformed_model_file_is_data_error(self, tmp_path, scene_file, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(doc + "\n")
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps(GOOD_RECORD) + "\n")
        assert run(["synth", "--records", str(records), "--model", str(bad), "--out", str(tmp_path)]) == 3
        assert f"data error: {bad}: " in capsys.readouterr().err
        assert run(["eval", "--scene", str(scene_file), "--policy", str(bad), "--out", str(tmp_path)]) == 3
        assert f"data error: {bad}: " in capsys.readouterr().err

    def test_eval_reads_the_model_file_once(self, tmp_path, scene_file, monkeypatch):
        assert run(["fit", "--scene", str(scene_file), "--kind", "ols", "--out", str(tmp_path), "--quiet"]) == 0
        model = str(tmp_path / "model.json")
        opened = []
        real_open = open
        monkeypatch.setattr("builtins.open", lambda f, *a, **kw: opened.append(str(f)) or real_open(f, *a, **kw))
        assert run(["eval", "--scene", str(scene_file), "--policy", model, "--out", str(tmp_path), "--quiet"]) == 0
        assert opened.count(model) == 1

    @pytest.mark.parametrize("key", ["label_noise_angle", "label_noise_zoom"])
    def test_negative_label_noise_key_is_config_error(self, tmp_path, scene_file, capsys, key):
        cfg = tmp_path / "run.ini"
        noise = {"label_noise_angle": 2, "label_noise_zoom": 20, key: -2}
        cfg.write_text("[selftrain]\n" + "".join(f"{k} = {v}\n" for k, v in noise.items()))
        assert run([
            "--config", str(cfg), "eval", "--scene", str(scene_file), "--policy", "noisy-oracle",
            "--out", str(tmp_path),
        ]) == 3
        assert f"[selftrain] {key}: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("completion_center_frac", -0.1, "must be >= 0"),
            ("completion_min_area", 5, "must be in [0, 1]"),
            ("completion_min_area", -0.5, "must be in [0, 1]"),
        ],
    )
    def test_impossible_completion_key_is_config_error(self, tmp_path, capsys, key, value, rule):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[selftrain]\n{key} = {value}\n")
        # the scene is never read: the config is rejected first
        assert run([
            "--config", str(cfg), "eval", "--scene", str(tmp_path / "nope.jsonl"), "--policy", "oracle",
            "--out", str(tmp_path),
        ]) == 3
        assert f"config error: [selftrain] {key}: {rule}" in capsys.readouterr().err

    def test_missing_scene_is_data_error(self, tmp_path):
        assert run(["eval", "--scene", str(tmp_path / "nope.jsonl"), "--policy", "oracle"]) == 3

    @pytest.mark.parametrize(
        "second, reason, line",
        [
            ({"distance": -2.0}, "target distance must be positive", 2),
            ({"azimuth": float("nan")}, "target azimuth must be finite", 2),
            ({"id": "a"}, "duplicate id 'a' (first on line 1)", 2),
            ({"width": "0.4"}, "non-numeric field (width must be a JSON number, got '0.4')", 2),
            ({"distance": True}, "non-numeric field (distance must be a JSON number, got True)", 2),
            ({"phrase": ["mug"]}, "phrase must be a string, got ['mug']", 2),
            ({"width": 10**400}, "int too large to convert to float", 2),
            ({"width": 0}, "target size must be positive", 2),
            ({"height": None}, "missing fields ['height']", 2),
            ({"phrase": 3, "width": 0}, "phrase must be a string, got 3", 2),
            ({"width": 0}, "target size must be positive", 1500),
        ],
        ids=[
            "negative-distance", "nan-azimuth", "duplicate-id", "string-number", "bool-number", "list-phrase",
            "huge-int", "zero-width", "missing-height", "phrase-before-size", "past-first-block",
        ],
    )
    def test_bad_scene_row_names_file_and_line(self, tmp_path, capsys, second, reason, line):
        first = {
            "id": "a", "azimuth": 5.0, "elevation": 2.0, "distance": 2.0,
            "width": 0.4, "height": 0.4, "phrase": "red mug",
        }
        scene = tmp_path / "scene.jsonl"
        bad = {k: v for k, v in {**first, "id": "b", "azimuth": -5.0, **second}.items() if v is not None}
        rows = [first, *({**first, "id": f"g{i}"} for i in range(2, line)), bad]
        scene.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(["eval", "--scene", str(scene), "--policy", "oracle", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{scene}:{line}: {reason}" in err


GOOD_RECORD = {"id": "a", "image_w": 640, "image_h": 480, "bbox": [100, 100, 200, 180], "phrase": "red mug"}


class TestBadInputRows:
    """Records and training pairs are checked as they are read, naming ``path:line``."""

    @pytest.mark.parametrize(
        "second, reason",
        [
            ({"id": "b", "bbox": [100, 100, float("nan"), 180]}, "bbox numbers must be finite"),
            ({"id": "b", "image_w": float("inf")}, "bad grounding record"),
            ({}, "duplicate id 'a' (first on line 1)"),
            ({"id": "b", "image_w": 640.9, "image_h": 480}, "image_w must be an integer, got 640.9"),
            ({"id": "b", "image_w": 1280.0}, "image_w must be an integer, got 1280.0"),
            ({"id": "b", "image_h": True}, "image_h must be an integer, got True"),
            ({"id": "b", "bbox": ["100", "100", "200", "180"]}, "bbox numbers must be finite JSON numbers, got '100'"),
            ({"id": "b", "bbox": [100, 100, True, 180]}, "bbox numbers must be finite JSON numbers, got True"),
            ({"id": "b", "bbox": [100, 100, 200, 180, 300]}, "expected 4 bbox numbers"),
            ({"id": "b", "bbox": [200, 100, 100, 180]}, "inverted bbox coordinates"),
            ({"id": "b", "phrase": ["x"]}, "phrase must be a string, got ['x']"),
        ],
        ids=["nan-bbox", "inf-image-size", "duplicate-id", "fractional-image-size", "integral-float-image-size",
             "bool-image-size", "string-number", "bool-number", "five-entry-bbox", "inverted-bbox", "list-phrase"],
    )
    def test_synth_rejects_bad_record(self, tmp_path, scene_file, capsys, second, reason):
        assert run(["fit", "--scene", str(scene_file), "--kind", "ols", "--out", str(tmp_path), "--quiet"]) == 0
        records = tmp_path / "records.jsonl"
        rows = [GOOD_RECORD, {**GOOD_RECORD, **second}]
        records.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run([
            "synth", "--records", str(records), "--model", str(tmp_path / "model.json"),
            "--out", str(tmp_path), "--quiet",
        ]) == 3
        err = capsys.readouterr().err
        assert f"{records}:2: " in err and reason in err
        assert not (tmp_path / "labels.jsonl").exists()

    @pytest.mark.parametrize("name", ["x_norm", "w1"])
    def test_fit_rejects_non_finite_feature(self, tmp_path, capsys, name):
        rows = [
            {
                "features": {"x_norm": i / 10, "y_norm": (i % 3) / 10, "w1": (i * i + 1) / 100},
                "action": {"pan": 2 * i, "tilt": i % 3, "zoom": 10},
            }
            for i in range(8)
        ]
        rows[4]["features"][name] = float("nan")
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(["fit", "--pairs", str(pairs), "--kind", "ols", "--out", str(tmp_path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"{pairs}:5: " in err and "features must be finite" in err

    @pytest.mark.parametrize("action, reason", [
        ({"pan": 5.0, "tilt": 0, "zoom": 10}, "pan must be an integer, got 5.0"),
        ({"pan": 4, "tilt": True, "zoom": 10}, "tilt must be an integer, got True"),
        ({"pan": 1000, "tilt": 0, "zoom": 10}, "pan 1000 outside [-999, 999]"),
        ({"pan": 4, "tilt": 0, "zoom": -1}, "zoom -1 outside [0, 999]"),
    ], ids=["fractional", "bool", "out-of-range", "negative-zoom"])
    def test_fit_rejects_a_pair_action_as_a_label_file_does(self, tmp_path, capsys, action, reason):
        rows = [
            {"features": {"x_norm": i / 10, "y_norm": (i % 3) / 10, "w1": (i * i + 1) / 100},
             "action": {"pan": 2 * i, "tilt": i % 3, "zoom": 10}}
            for i in range(8)
        ]
        rows[2]["action"] = action
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(["fit", "--pairs", str(pairs), "--kind", "ols", "--out", str(tmp_path), "--quiet"]) == 3
        assert f"data error: {pairs}:3: {reason} (bad training pair)" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("value", ["0.1", True], ids=["string-number", "bool-number"])
    def test_fit_rejects_a_feature_that_is_no_json_number(self, tmp_path, capsys, value):
        rows = [
            {"features": {"x_norm": i / 10, "y_norm": (i % 3) / 10, "w1": (i * i + 1) / 100},
             "action": {"pan": 2 * i, "tilt": i % 3, "zoom": 10}}
            for i in range(8)
        ]
        rows[2]["features"]["y_norm"] = value
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(["fit", "--pairs", str(pairs), "--kind", "ols", "--out", str(tmp_path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"{pairs}:3: features must be finite JSON numbers, got {value!r} at position 1" in err


CORNER_TARGET = {
    "id": "a", "azimuth": 20.0, "elevation": -10.0, "distance": 2.0, "width": 0.4, "height": 0.4, "phrase": "red mug",
}
CORNER_RECORD = {"id": "a", "image_w": 640, "image_h": 480, "bbox": [600, 460, 640, 480], "phrase": "red mug"}


def set_at(doc, path, value):
    """Set the entry of nested dicts and lists that ``path`` names."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


class TestNonFiniteModel:
    """Non-finite model numbers and out-of-range policy bins are rejected when
    the file is read, and an overflowing prediction when it is rounded to an
    action."""

    def write_inputs(self, tmp_path):
        scene = tmp_path / "corner_scene.jsonl"
        scene.write_text(json.dumps(CORNER_TARGET) + "\n")
        records = tmp_path / "corner_records.jsonl"
        records.write_text(json.dumps(CORNER_RECORD) + "\n")
        return scene, records

    def fitted(self, tmp_path, scene_file, kind):
        cfg = tmp_path / "small.ini"
        cfg.write_text("[pseudolabel]\nn_trees = 2\n")
        assert run([
            "--config", str(cfg), "fit", "--scene", str(scene_file), "--kind", kind,
            "--out", str(tmp_path), "--quiet",
        ]) == 0
        return json.loads((tmp_path / "model.json").read_text())

    @pytest.mark.parametrize("kind, path, value, reason", [
        ("ols", ["pan", "coef", 1], float("nan"), "pan coef must be finite"),
        ("ols", ["zoom", "intercept"], float("inf"), "intercepts must be finite"),
        ("rf", ["tilt", "trees", 1, "threshold", 0], float("nan"), "tilt tree 1 thresholds and values must be finite"),
        ("rf", ["pan", "trees", 0, "value", -1], float("-inf"), "pan tree 0 thresholds and values must be finite"),
        ("ols", ["pan", "coef", 1], "0.5", "pan coef must be finite JSON numbers, got '0.5'"),
        ("rf", ["pan", "trees", 0, "value", -1], True, "pan tree 0 thresholds and values must be finite JSON numbers"),
    ], ids=["ols-nan-coef", "ols-inf-intercept", "rf-nan-threshold", "rf-inf-value", "ols-string-number",
            "rf-bool-number"])
    def test_non_finite_model_number_names_the_file(self, tmp_path, scene_file, capsys, kind, path, value, reason):
        doc = self.fitted(tmp_path, scene_file, kind)
        set_at(doc["heads"], path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc) + "\n")
        scene, records = self.write_inputs(tmp_path)
        assert run(["eval", "--scene", str(scene), "--policy", str(bad), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {bad}: " in err and reason in err
        assert run(["synth", "--records", str(records), "--model", str(bad), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {bad}: " in err and reason in err

    @pytest.mark.parametrize("path, value, reason", [
        (["weights", "zoom", 2, 1], float("nan"), "zoom weights must be finite"),
        (["bins", "pan", -1], 1000, "pan bins must lie in [-999, 999]"),
        (["bins", "pan", 0], -29.7, "pan bins must be an integer, got -29.7"),
        (["bins", "pan", 0], -30.0, "pan bins must be an integer, got -30.0"),
        (["weights", "tilt", 0, 2], "0.5", "tilt weights must be finite JSON numbers, got '0.5'"),
        (["weights", "pan", 1, 0], False, "pan weights must be finite JSON numbers, got False"),
        (["weights", "zoom", 3], [0.0, 0.0, 0.0], "zoom weight row 3 holds 3 numbers, not 4 (3 features and a bias)"),
    ], ids=["nan-weight", "out-of-range-bin", "fractional-bin", "integral-float-bin", "string-weight", "bool-weight",
            "ragged-row"])
    def test_bad_policy_checkpoint_names_the_file(self, tmp_path, scene_file, capsys, path, value, reason):
        assert run(["grpo-train", "--scene", str(scene_file), "--steps", "1", "--out", str(tmp_path), "--quiet"]) == 0
        doc = json.loads((tmp_path / "policy.json").read_text())
        set_at(doc, path, value)
        bad = tmp_path / "bad_policy.json"
        bad.write_text(json.dumps(doc) + "\n")
        assert run(["eval", "--scene", str(scene_file), "--policy", str(bad), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {bad}: " in err and reason in err

    @pytest.mark.parametrize("change, reason", [
        (lambda d: d["weights"].__setitem__("tilt", [row + [0.0] for row in d["weights"]["tilt"]]),
         "tilt weight row 0 holds 5 numbers, not 4 (3 features and a bias)"),
        (lambda d: d.__setitem__("weights", {h: [row + [0.0] for row in w] for h, w in d["weights"].items()}),
         "pan weight row 0 holds 5 numbers, not 4"),
        (lambda d: d.update(bins={**d["bins"], "pan": []}, weights={**d["weights"], "pan": []}),
         "pan needs at least one bin"),
        (lambda d: d["weights"]["pan"].pop(), "pan weight rows must match bin count"),
    ], ids=["tilt-5-wide", "every-head-5-wide", "no-pan-bins", "a-row-short"])
    def test_policy_checkpoint_of_the_wrong_shape_names_the_file(self, tmp_path, scene_file, capsys, change, reason):
        assert run(["grpo-train", "--scene", str(scene_file), "--steps", "1", "--out", str(tmp_path), "--quiet"]) == 0
        doc = json.loads((tmp_path / "policy.json").read_text())
        change(doc)
        bad = tmp_path / "bad_policy.json"
        bad.write_text(json.dumps(doc) + "\n")
        assert run(["eval", "--scene", str(scene_file), "--policy", str(bad), "--out", str(tmp_path)]) == 3
        assert f"data error: {bad}: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["ols", "rf"])
    def test_bad_model_config_names_the_file(self, tmp_path, scene_file, capsys, kind):
        doc = self.fitted(tmp_path, scene_file, kind)
        doc["config"].update({"n_trees": -5, "max_depth": "x", "min_samples_leaf": 2.5, "seed": [1]})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc) + "\n")
        assert run(["eval", "--scene", str(scene_file), "--policy", str(bad), "--out", str(tmp_path)]) == 3
        assert f"data error: {bad}: config n_trees must be >= 1, got -5" in capsys.readouterr().err

    def test_model_over_the_zoom_feature_names_the_file(self, tmp_path, scene_file, capsys):
        doc = self.fitted(tmp_path, scene_file, "ols")
        doc["config"]["use_zoom_feature"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc) + "\n")
        scene, records = self.write_inputs(tmp_path)
        for command in (["eval", "--scene", str(scene), "--policy"], ["synth", "--records", str(records), "--model"]):
            assert run([*command, str(bad), "--out", str(tmp_path)]) == 3
            assert f"data error: {bad}: use_zoom_feature must be absent or false" in capsys.readouterr().err

    def test_overflowing_prediction_is_data_error(self, tmp_path, scene_file, capsys):
        doc = self.fitted(tmp_path, scene_file, "ols")
        doc["heads"]["pan"] = {"coef": [1e308, 1e308, 1e308], "intercept": 1e308}
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc) + "\n")
        scene, records = self.write_inputs(tmp_path)
        assert run(["eval", "--scene", str(scene), "--policy", str(big), "--out", str(tmp_path)]) == 3
        assert "is not finite" in capsys.readouterr().err
        assert run(["synth", "--records", str(records), "--model", str(big), "--out", str(tmp_path)]) == 3
        assert "is not finite" in capsys.readouterr().err
        assert not (tmp_path / "eval.json").exists() and not (tmp_path / "labels.jsonl").exists()

    def test_overflowing_forest_sum_is_one_data_error(self, tmp_path, scene_file, capsys):
        # finite leaves whose sum over the trees overflows: rejected once, where
        # the prediction is rounded, with no numpy warning on the way
        doc = self.fitted(tmp_path, scene_file, "rf")
        for tree in doc["heads"]["pan"]["trees"]:
            tree["value"] = [1.5e308] * len(tree["value"])
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc) + "\n")
        scene, _ = self.write_inputs(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["eval", "--scene", str(scene), "--policy", str(big), "--out", str(tmp_path)]) == 3
        assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert "is not finite" in err and "RuntimeWarning" not in err


class TestIterate:
    def test_report_and_refined_files(self, tmp_path, scene_file, capsys):
        assert run([
            "iterate", "--scene", str(scene_file), "--rounds", "1",
            "--thresholds", "0.5", "--label-noise-angle", "4",
            "--label-noise-zoom", "20", "--seed", "11", "--out", str(tmp_path),
        ]) == 0
        rows = [json.loads(l) for l in (tmp_path / "round_report.jsonl").read_text().splitlines()]
        assert len(rows) == 2
        assert rows[1]["threshold"] == 0.5
        refined = tmp_path / "round1_refined.jsonl"
        assert refined.exists()
        first = json.loads(refined.read_text().splitlines()[0])
        assert set(first) == {"id", "instruction", "action", "tokens", "bbox_post", "w1", "w2"}

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_bad_thresholds_is_usage_error(self, tmp_path, scene_file, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(["iterate", "--scene", str(scene_file), "--thresholds", value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--thresholds" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--label-noise-angle", "--label-noise-zoom"])
    @pytest.mark.parametrize("value", ["-3", "nan", "inf"])
    def test_bad_label_noise_flag_is_usage_error(self, tmp_path, scene_file, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(["iterate", "--scene", str(scene_file), flag, value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "round_report.jsonl").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--rounds", "-1"), ("--rounds", "0"), ("--rounds", "two"),
        ("--split", "1.5"), ("--split", "0"), ("--split", "1"), ("--split", "nan"),
    ])
    def test_bad_rounds_or_split_flag_is_usage_error(self, tmp_path, scene_file, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(["iterate", "--scene", str(scene_file), flag, value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "round_report.jsonl").exists()

    @pytest.mark.parametrize("key,value", [("rounds", "0"), ("rounds", "-1"), ("split", "1.5"), ("split", "0")])
    def test_bad_rounds_or_split_key_is_config_error(self, tmp_path, scene_file, capsys, key, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[selftrain]\n{key} = {value}\n")
        assert run(["--config", str(cfg), "iterate", "--scene", str(scene_file), "--out", str(tmp_path)]) == 3
        assert f"config error: [selftrain] {key}: must be" in capsys.readouterr().err
        assert not (tmp_path / "round_report.jsonl").exists()

    @pytest.mark.parametrize("argv, named", [
        (["--rounds", "3", "--thresholds", "0.7"], "--rounds 3 with --thresholds"),
        (["--rounds", "4"], "--rounds 4 with [selftrain] thresholds"),
    ])
    def test_too_few_thresholds_flag_is_usage_error_before_the_scene(self, tmp_path, capsys, argv, named):
        scene = tmp_path / "nope.jsonl"  # not read: the flags are rejected first
        assert run(["iterate", "--scene", str(scene), *argv, "--out", str(tmp_path / "out")]) == 2
        assert f"iterate error: {named}: need at least rounds - 1 IoU thresholds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_too_few_thresholds_key_is_config_error_at_load(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[selftrain]\nrounds = 3\nthresholds = 0.7\n")
        scene = str(tmp_path / "nope.jsonl")
        for command in (["iterate"], ["eval", "--policy", "oracle"]):
            assert run(["--config", str(cfg), *command, "--scene", scene, "--out", str(tmp_path)]) == 3
            err = capsys.readouterr().err
            assert "config error: [selftrain] rounds 3 with [selftrain] thresholds: need at least rounds - 1" in err

    def test_missing_scene_makes_no_out_dir(self, tmp_path, capsys):
        assert run(["iterate", "--scene", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "d")]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_empty_filter_exit_code(self, tmp_path, scene_file):
        code = run([
            "iterate", "--scene", str(scene_file), "--rounds", "1",
            "--thresholds", "1.0", "--label-noise-angle", "30",
            "--label-noise-zoom", "300", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 4


class TestGrpoTrain:
    def test_short_run_writes_artifacts(self, tmp_path, scene_file):
        assert run([
            "grpo-train", "--scene", str(scene_file), "--steps", "3",
            "--seed", "5", "--out", str(tmp_path),
        ]) == 0
        assert (tmp_path / "policy.json").exists()
        log = [json.loads(l) for l in (tmp_path / "train_log.jsonl").read_text().splitlines()]
        assert [r["step"] for r in log] == [0, 1, 2]

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_non_positive_steps_flag_is_usage_error(self, tmp_path, scene_file, capsys, value):
        with pytest.raises(SystemExit) as exc:
            run(["grpo-train", "--scene", str(scene_file), "--steps", value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--steps" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_steps_key_is_config_error(self, tmp_path, scene_file, capsys, value):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[grpo]\nsteps = {value}\n")
        assert run(["--config", str(cfg), "grpo-train", "--scene", str(scene_file), "--out", str(tmp_path)]) == 3
        assert "[grpo] steps: must be positive" in capsys.readouterr().err
        assert not (tmp_path / "policy.json").exists()

    def test_missing_scene_makes_no_out_dir(self, tmp_path, capsys):
        assert run(["grpo-train", "--scene", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "d")]) == 3
        assert "data error:" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_policy_checkpoint_usable_by_eval(self, tmp_path, scene_file):
        run([
            "grpo-train", "--scene", str(scene_file), "--steps", "2",
            "--seed", "5", "--out", str(tmp_path),
        ])
        assert run([
            "eval", "--scene", str(scene_file),
            "--policy", str(tmp_path / "policy.json"), "--out", str(tmp_path),
        ]) == 0


class TestConfig:
    def test_config_drives_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nseed = 9\n\n[intrinsics]\nimage_w = 640\nimage_h = 480\n")
        out = tmp_path / "out"
        assert run([
            "--config", str(cfg), "scene-gen", "--count", "4", "--out", str(out),
        ]) == 0
        again = tmp_path / "out2"
        assert run(["scene-gen", "--count", "4", "--seed", "9", "--out", str(again)]) == 0
        assert (out / "scene.jsonl").read_bytes() == (again / "scene.jsonl").read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        # [camera] zoom_max, the [io] input paths and [grpo] clip_eps were once
        # read and then took no effect; [grpo] std_guard only passed its default on;
        # [codec] levels sized the vocabulary as a --vocab table does; every
        # model reads the same three features, so [pseudolabel] use_zoom_feature went
        for section, key, value in [
            ("run", "sneed", "9"),
            ("camera", "zoom_max", "100"),
            ("io", "scene", str(cfg)),
            ("io", "records", str(cfg)),
            ("io", "model", str(cfg)),
            ("io", "policy", str(cfg)),
            ("grpo", "clip_eps", "0.2"),
            ("grpo", "std_guard", "1e-8"),
            ("codec", "levels", "3"),
            ("pseudolabel", "use_zoom_feature", "false"),
        ]:
            cfg.write_text(f"[{section}]\n{key} = {value}\n")
            assert run(["--config", str(cfg), "scene-gen", "--count", "1", "--out", str(tmp_path)]) == 3
            assert f"unknown key {key!r} in section [{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.ini"
        for section, key in (("reward", "angle_tol"), ("grpo", "learning_rate")):
            cfg.write_text(f"[{section}]\n{key} = {value}\n")
            assert run(["--config", str(cfg), "scene-gen", "--count", "1", "--out", str(tmp_path)]) == 3
            assert f"[{section}] {key}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[selftrain]\nlabel_noise_zoom = 1\nlabel_noise_zoom = 2\n",  # repeated key
        "seed = 3\n[run]\nseed = 4\n",  # key before any section header
        "[run]\nseed = 3\n[run]\nseed = 4\n",  # repeated section
    ], ids=["repeated-key", "key-before-section", "repeated-section"])
    def test_unparsable_file_is_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert run(["--config", str(cfg), "scene-gen", "--count", "1", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(cfg) in err
        assert not (tmp_path / "scene.jsonl").exists()

    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("tilt", "95", "must be in [-90, 90]"),
            ("tilt", "-90.5", "must be in [-90, 90]"),
            ("zoom", "1200", "must be in [0, 999]"),
            ("zoom", "-1", "must be in [0, 999]"),
        ],
    )
    def test_impossible_start_pose_is_config_error(self, tmp_path, scene_file, capsys, key, value, rule):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[camera]\n{key} = {value}\n")
        for command in (["eval", "--policy", "oracle"], ["grpo-train", "--steps", "1"]):
            assert run(["--config", str(cfg), *command, "--scene", str(scene_file), "--out", str(tmp_path)]) == 3
            assert f"config error: [camera] {key}: {rule}" in capsys.readouterr().err

    def test_start_pose_limits_load(self, tmp_path):
        cfg = tmp_path / "run.ini"
        for tilt, zoom in (("-90", "0"), ("90", "999")):
            cfg.write_text(f"[camera]\ntilt = {tilt}\nzoom = {zoom}\n")
            loaded = load_config(cfg).camera
            assert (loaded.tilt, loaded.zoom) == (float(tilt), float(zoom))

    @pytest.mark.parametrize(
        "section, key, value, reason",
        [
            ("pseudolabel", "kind", "foo", "unknown regressor kind 'foo'"),
            ("pseudolabel", "n_trees", "0", "forest hyperparameters must be positive"),
            ("pseudolabel", "max_depth", "0", "forest hyperparameters must be positive"),
            ("pseudolabel", "min_samples_leaf", "0", "forest hyperparameters must be positive"),
            ("grpo", "group_size", "1", "group_size must be at least 2"),
            ("grpo", "kl_weight", "-0.5", "kl_weight must be non-negative"),
            ("reward", "angle_tol", "0", "all reward spans must be positive"),
            ("reward", "zoom_band", "-5", "all reward spans must be positive"),
            ("intrinsics", "image_w", "0", "image dimensions must be positive"),
            ("intrinsics", "hfov_base", "180", "hfov_base must be in (0, 180) degrees"),
        ],
    )
    def test_library_checked_key_is_config_error_at_load(self, tmp_path, capsys, section, key, value, reason):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        # rejected before any input is read: the scene does not exist
        scene = str(tmp_path / "nope.jsonl")
        for command in (["eval", "--policy", "oracle"], ["grpo-train"], ["iterate"], ["fit", "--kind", "ols"]):
            assert run(["--config", str(cfg), *command, "--scene", scene, "--out", str(tmp_path)]) == 3
            assert f"config error: [{section}] {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, rule", [
        ("fill_ratio", "2", "must be in (0, 1), got 2.0"),
        ("fill_ratio", "0", "must be in (0, 1), got 0.0"),
        ("fill_ratio", "1", "must be in (0, 1), got 1.0"),
        ("zoom_source", "foo", "must be geometry or model, got 'foo'"),
    ])
    def test_pseudolabel_key_is_config_error_before_any_data(self, tmp_path, capsys, key, value, rule):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[pseudolabel]\n{key} = {value}\n")
        missing = str(tmp_path / "nope.jsonl")  # no command gets to read it
        commands = (
            ["eval", "--policy", "oracle", "--scene", missing], ["grpo-train", "--scene", missing],
            ["iterate", "--scene", missing], ["fit", "--kind", "ols", "--scene", missing],
            ["synth", "--records", missing, "--model", missing],
        )
        for command in commands:
            assert run(["--config", str(cfg), *command, "--out", str(tmp_path)]) == 3
            assert f"config error: [pseudolabel] {key}: {rule}" in capsys.readouterr().err

    def test_readme_config_block_loads_and_lists_every_key(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        load_config(path)
        parser = configparser.ConfigParser()
        parser.read_string(block)
        listed = {(name, key) for name in parser.sections() for key in parser[name]}
        defaults = RunConfig()
        every = {
            (section.name, key.name)
            for section in fields(defaults)
            for key in fields(getattr(defaults, section.name))
        }
        assert listed == every

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[nope]\nx = 1\n")
        assert run(["--config", str(cfg), "scene-gen", "--count", "1", "--out", str(tmp_path)]) == 3

    def test_missing_config_path(self, tmp_path):
        assert run(["--config", str(tmp_path / "none.ini"), "scene-gen", "--count", "1"]) == 3

    def test_selftrain_section_drives_iterate(self, tmp_path, scene_file):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nseed = 11\n\n"
            "[selftrain]\nrounds = 1\nthresholds = 0.5\n"
            "label_noise_angle = 4\nlabel_noise_zoom = 20\n"
        )
        out = tmp_path / "out"
        assert run([
            "--config", str(cfg), "iterate", "--scene", str(scene_file),
            "--out", str(out), "--quiet",
        ]) == 0
        rows = [json.loads(l) for l in (out / "round_report.jsonl").read_text().splitlines()]
        assert len(rows) == 2 and rows[1]["threshold"] == 0.5

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nseed = 9\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(["--config", str(cfg), "scene-gen", "--count", "4", "--seed", "1", "--out", str(a)])
        run(["scene-gen", "--count", "4", "--seed", "1", "--out", str(b)])
        assert (a / "scene.jsonl").read_bytes() == (b / "scene.jsonl").read_bytes()


class TestReport:
    def test_pretty_print(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        path.write_text(
            json.dumps({"round": 0, "threshold": None, "mean_iou": 0.53}) + "\n"
            + json.dumps({"round": 1, "threshold": 0.7, "mean_iou": 0.81}) + "\n"
        )
        assert run(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "round" in out and "mean_iou" in out and "0.8100" in out

    def test_empty_report(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("")
        assert run(["report", str(path)]) == 3


FREE = None  # a free-form key: any text is a value of it

# One row per config key: a value that its coercion, its rule or the library
# object it configures rejects, or FREE.
BAD_VALUES = {
    "run.seed": "-1",
    "intrinsics.image_w": "wide",
    "intrinsics.image_h": "1.5",
    "intrinsics.hfov_base": "nan",
    "camera.pan": "inf",
    "camera.tilt": "95",
    "camera.zoom": "1200",
    "codec.vocab_path": FREE,
    "codec.strict": "maybe",
    "pseudolabel.k": "-2",
    "pseudolabel.kind": "foo",
    "pseudolabel.n_trees": "many",
    "pseudolabel.max_depth": "2.5",
    "pseudolabel.min_samples_leaf": "",
    "pseudolabel.fill_ratio": "2",
    "pseudolabel.zoom_source": "foo",
    "reward.angle_tol": "nan",
    "reward.angle_penalty_span": "-inf",
    "reward.zoom_band": "inf",
    "reward.zoom_penalty_span": "x",
    "grpo.kl_weight": "nan",
    "grpo.group_size": "eight",
    "grpo.learning_rate": "inf",
    "grpo.steps": "0",
    "selftrain.rounds": "0",
    "selftrain.thresholds": "0.7,1.5",
    "selftrain.replace_bbox": "perhaps",
    "selftrain.split": "1",
    "selftrain.completion_center_frac": "-0.1",
    "selftrain.completion_min_area": "1.5",
    "selftrain.label_noise_angle": "-1",
    "selftrain.label_noise_zoom": "nan",
    "io.out_dir": FREE,
}


def scene_commands(missing: str) -> list[list[str]]:
    """Every command that reads a scene, and synth, each on a data file that does not exist."""
    return [
        ["eval", "--policy", "oracle", "--scene", missing], ["grpo-train", "--scene", missing],
        ["iterate", "--scene", missing], ["fit", "--kind", "ols", "--scene", missing],
        ["synth", "--records", missing, "--model", missing],
    ]


def flag_command(flag: str, missing: str) -> list[str]:
    """A command that takes ``flag``."""
    by_command = {
        "encode": ("--vocab",), "decode": ("--lenient",), "synth": ("--zoom-source",), "fit": ("--kind",),
        "grpo-train": ("--steps",),
    }
    command = next((c for c, flags in by_command.items() if flag in flags), "iterate")
    return {
        "encode": ["encode", "--pan", "1", "--tilt", "0", "--zoom", "0"],
        "decode": ["decode", "<PAN> <TILT> <ZOOM> <END>"],
        "synth": ["synth", "--records", missing, "--model", missing],
        "fit": ["fit", "--scene", missing],
        "grpo-train": ["grpo-train", "--scene", missing],
        "iterate": ["iterate", "--scene", missing],
    }[command]


def config_reads() -> set[str]:
    """Every "section.key" that a module of ``ptzkit`` reads, found in its syntax
    tree: ``<x>.section.key``; ``name.key`` where a function binds ``name =
    <x>.section``; each key of a section passed to ``asdict``; and each key that
    a section's method reads as ``self.key``, where the method is called."""
    keys = {s.name: {k.name for k in fields(s.default_factory)} for s in fields(RunConfig)}
    methods = {  # (section, method name): the keys it reads
        (s.name, name): {k for k in keys[s.name] if f"self.{k}" in inspect.getsource(method)}
        for s in fields(RunConfig) for name, method in inspect.getmembers(s.default_factory, inspect.isfunction)
        if not name.startswith("__")
    }
    reads = set()
    for path in Path(ptzkit.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, ast.FunctionDef):
                continue
            aliases = {
                node.targets[0].id: node.value.attr for node in ast.walk(function)
                if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute) and node.value.attr in keys
            }

            def section(node):
                if isinstance(node, ast.Attribute) and node.attr in keys:
                    return node.attr
                return aliases.get(node.id) if isinstance(node, ast.Name) else None

            for node in ast.walk(function):
                if isinstance(node, ast.Attribute) and node.attr in keys.get(section(node.value), ()):
                    reads.add(f"{section(node.value)}.{node.attr}")
                elif isinstance(node, ast.Attribute) and (section(node.value), node.attr) in methods:
                    reads |= {f"{section(node.value)}.{k}" for k in methods[section(node.value), node.attr]}
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict" and node.args:
                    reads |= {f"{section(node.args[0])}.{k}" for k in keys.get(section(node.args[0]), ())}
    return reads


class TestKeyTable:
    """Every key of ``RunConfig`` takes effect or is rejected, and a flag is a spelling of its key."""

    def test_every_key_is_read(self):
        # a key that no module reads would be accepted at load and change nothing
        assert set(BAD_VALUES) - config_reads() == set()

    def test_every_key_has_a_row(self):
        defaults = RunConfig()
        every = {f"{s.name}.{k.name}" for s in fields(defaults) for k in fields(getattr(defaults, s.name))}
        assert set(BAD_VALUES) == every

    @pytest.mark.parametrize("key", [k for k, v in BAD_VALUES.items() if v is not FREE])
    def test_bad_key_is_config_error_before_any_data(self, tmp_path, capsys, key):
        section, name = key.split(".")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{name} = {BAD_VALUES[key]}\n")
        for command in scene_commands(str(tmp_path / "nope.jsonl")):
            assert run(["--config", str(cfg), *command, "--out", str(tmp_path / "out")]) == 3
            err = capsys.readouterr().err
            assert re.match(rf"config error: \[{section}\] .*\b{name}\b", err), (command, err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [f for f, k in cli.FLAG_KEYS.items()
                                      if BAD_VALUES[k] is not FREE and f not in cli.CONSTANT_FLAGS])
    def test_bad_flag_is_usage_error_naming_it(self, tmp_path, capsys, flag):
        command = flag_command(flag, str(tmp_path / "nope.jsonl"))
        with pytest.raises(SystemExit) as exc:
            run([*command, f"{flag}={BAD_VALUES[cli.FLAG_KEYS[flag]]}", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_good_flag_reaches_the_resolved_config(self, tmp_path, monkeypatch):
        from ptzkit.codec import TokenVocab

        vocab = tmp_path / "vocab.tsv"
        TokenVocab.default().save(vocab)
        good = {
            "--seed": ("5", 5), "--out": (str(tmp_path), str(tmp_path)), "--vocab": (str(vocab), str(vocab)),
            "--lenient": (None, False), "--zoom-source": ("model", "model"), "--kind": ("ols", "ols_linear"),
            "--steps": ("3", 3), "--rounds": ("3", 3), "--thresholds": ("0.5,0.6", "0.5,0.6"),
            "--replace-bbox": (None, True), "--no-replace-bbox": (None, False), "--label-noise-angle": ("2.5", 2.5),
            "--label-noise-zoom": ("3", 3.0), "--split": ("0.2", 0.2),
        }
        assert set(good) == set(cli.FLAG_KEYS)
        seen = []
        for name in ("encode", "decode", "synth", "fit", "grpo_train", "iterate"):
            monkeypatch.setattr(cli, f"cmd_{name}", lambda args, cfg: seen.append(cfg) or 0)
        ini = tmp_path / "run.ini"
        for flag, (text, want) in good.items():
            # every wanted value differs from the default, or from replace_bbox as set here
            ini.write_text(f"[selftrain]\nreplace_bbox = {want is False}\n")
            argv = flag_command(flag, "scene.jsonl") + ([flag] if text is None else [flag, text])
            assert run(["--config", str(ini), *argv]) == 0
            section, name = cli.FLAG_KEYS[flag].split(".")
            assert getattr(getattr(seen.pop(), section), name) == want, flag
