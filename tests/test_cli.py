import json

import pytest

from ptzkit.cli import main


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
        assert run(["scene-gen", "--count", "5", "--distance=-1,2", "--out", str(tmp_path)]) == 2
        assert run(["scene-gen", "--count", "5", "--size", "1,2,3", "--out", str(tmp_path)]) == 2

    def test_no_partial_left_behind(self, tmp_path):
        run(["scene-gen", "--count", "5", "--out", str(tmp_path)])
        assert not list(tmp_path.glob("*.partial"))


@pytest.fixture(scope="module")
def scene_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert run(["scene-gen", "--count", "80", "--seed", "7", "--out", str(out), "--quiet"]) == 0
    return out / "scene.jsonl"


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

    def test_missing_scene_is_data_error(self, tmp_path):
        assert run(["eval", "--scene", str(tmp_path / "nope.jsonl"), "--policy", "oracle"]) == 3

    @pytest.mark.parametrize(
        "second, reason",
        [
            ({"distance": -2.0}, "target distance must be positive"),
            ({"azimuth": float("nan")}, "target azimuth must be finite"),
            ({"id": "a"}, "duplicate id 'a' (first on line 1)"),
        ],
        ids=["negative-distance", "nan-azimuth", "duplicate-id"],
    )
    def test_bad_scene_row_names_file_and_line(self, tmp_path, capsys, second, reason):
        first = {
            "id": "a", "azimuth": 5.0, "elevation": 2.0, "distance": 2.0,
            "width": 0.4, "height": 0.4, "phrase": "red mug",
        }
        scene = tmp_path / "scene.jsonl"
        rows = [first, {**first, "id": "b", "azimuth": -5.0, **second}]
        scene.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(["eval", "--scene", str(scene), "--policy", "oracle", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"{scene}:2: {reason}" in err


GOOD_RECORD = {"id": "a", "image_w": 640, "image_h": 480, "bbox": [100, 100, 200, 180], "phrase": "red mug"}


class TestBadInputRows:
    """Records and training pairs are checked row by row, naming ``path:line``."""

    @pytest.mark.parametrize(
        "second, reason",
        [
            ({"id": "b", "bbox": [100, 100, float("nan"), 180]}, "bbox numbers must be finite"),
            ({"id": "b", "image_w": float("inf")}, "bad grounding record"),
            ({}, "duplicate id 'a' (first on line 1)"),
            ({"id": "b", "image_w": 640.9, "image_h": 480}, "image_w must be an integer, got 640.9"),
            ({"id": "b", "image_h": True}, "image_h must be an integer, got True"),
        ],
        ids=["nan-bbox", "inf-image-size", "duplicate-id", "fractional-image-size", "bool-image-size"],
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

    @pytest.mark.parametrize("name", ["x_norm", "w1", "zoom_feat"])
    def test_fit_rejects_non_finite_feature(self, tmp_path, capsys, name):
        rows = [
            {
                "features": {"x_norm": i / 10, "y_norm": (i % 3) / 10, "w1": (i * i + 1) / 100, "zoom_feat": 0.5},
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
    ], ids=["ols-nan-coef", "ols-inf-intercept", "rf-nan-threshold", "rf-inf-value"])
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
    ], ids=["nan-weight", "out-of-range-bin"])
    def test_bad_policy_checkpoint_names_the_file(self, tmp_path, scene_file, capsys, path, value, reason):
        assert run(["grpo-train", "--scene", str(scene_file), "--steps", "1", "--out", str(tmp_path), "--quiet"]) == 0
        doc = json.loads((tmp_path / "policy.json").read_text())
        set_at(doc, path, value)
        bad = tmp_path / "bad_policy.json"
        bad.write_text(json.dumps(doc) + "\n")
        assert run(["eval", "--scene", str(scene_file), "--policy", str(bad), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {bad}: " in err and reason in err

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
        # read and then took no effect
        for section, key, value in [
            ("run", "sneed", "9"),
            ("camera", "zoom_max", "100"),
            ("io", "scene", str(cfg)),
            ("io", "records", str(cfg)),
            ("io", "model", str(cfg)),
            ("io", "policy", str(cfg)),
            ("grpo", "clip_eps", "0.2"),
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
