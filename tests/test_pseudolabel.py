import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as hst

from ptzkit import camera as cam
from ptzkit import codec
from ptzkit import pseudolabel as pl
from ptzkit import selftrain as st
from ptzkit.camera import BBoxPx, CameraIntrinsics, CameraState, round_half_away
from ptzkit.codec import ActionDelta

K = CameraIntrinsics(1280, 720, 60.0)


class TestNormalizeCenter:
    def test_centered(self):
        b = BBoxPx(400, 400, 600, 600)
        assert pl.normalize_center(b, 1000, 1000) == (0.0, 0.0)

    def test_right_edge(self):
        b = BBoxPx(990, 490, 1010, 510)
        x, y = pl.normalize_center(b, 1000, 1000)
        assert (x, y) == (1.0, 0.0)

    def test_arithmetic(self):
        b = BBoxPx(100, 200, 300, 400)
        assert pl.normalize_center(b, 1000, 1000) == (-0.6, -0.4)

    def test_inverse_map(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x0, y0 = rng.uniform(0, 900, 2)
            b = BBoxPx(x0, y0, x0 + 50, y0 + 50)
            xn, yn = pl.normalize_center(b, 1000, 800)
            assert xn * 500 + 500 == pytest.approx(b.center()[0], abs=1e-9)
            assert yn * 400 + 400 == pytest.approx(b.center()[1], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pl.normalize_center(BBoxPx.empty(), 100, 100)


class TestIsotropicCrop:
    def test_full_frame(self):
        window, w2 = pl.isotropic_crop(BBoxPx(0, 0, 1000, 500), 1000, 500)
        assert window.as_list() == [0, 0, 1000, 500]
        assert w2 == 1.0

    def test_square_bbox_square_frame(self):
        window, w2 = pl.isotropic_crop(BBoxPx(450, 450, 550, 550), 1000, 1000)
        assert window.as_list() == [450, 450, 550, 550]
        assert w2 == 1.0

    def test_aspect_constrained(self):
        window, w2 = pl.isotropic_crop(BBoxPx(475, 225, 525, 275), 1000, 500)
        assert window.width == pytest.approx(100)
        assert window.height == pytest.approx(50)
        assert w2 == pytest.approx(0.5)

    def test_window_properties(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            w_img, h_img = 1280.0, 720.0
            x0 = rng.uniform(0, w_img - 10)
            y0 = rng.uniform(0, h_img - 10)
            b = BBoxPx(
                x0,
                y0,
                x0 + rng.uniform(5, w_img - x0),
                y0 + rng.uniform(5, h_img - y0),
            )
            window, w2 = pl.isotropic_crop(b, w_img, h_img)
            # frame aspect within a pixel of exact
            assert window.width / window.height == pytest.approx(w_img / h_img, abs=1 / window.height)
            # contains the bbox
            assert window.x_min <= b.x_min + 1e-9 and window.x_max >= b.x_max - 1e-9
            assert window.y_min <= b.y_min + 1e-9 and window.y_max >= b.y_max - 1e-9
            # inside the frame
            assert window.x_min >= -1e-9 and window.x_max <= w_img + 1e-9
            assert window.y_min >= -1e-9 and window.y_max <= h_img + 1e-9
            # w2 is never below w1
            assert w2 >= b.area() / (w_img * h_img) - 1e-12


    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        hst.integers(1, 4000), hst.integers(1, 4000),
        *[hst.one_of(hst.sampled_from([0.0, 1.0]), hst.floats(0.0, 1.0)) for _ in range(4)],
    )
    @example(399, 386, 0.0, 1.0, 0.0, 1.0)  # the full frame: its window once left it by an ulp
    def test_window_stays_in_frame_and_w2_at_least_w1(self, w_img, h_img, a, b, c, d):
        x0, x1 = sorted((a * w_img, b * w_img))
        y0, y1 = sorted((c * h_img, d * h_img))
        box = BBoxPx(x0, y0, x1, y1)
        assume(box.area() > 0.0)
        window, w2 = pl.isotropic_crop(box, w_img, h_img)
        assert 0.0 <= window.x_min <= window.x_max <= w_img
        assert 0.0 <= window.y_min <= window.y_max <= h_img
        w1 = box.area() / (w_img * h_img)
        assert w2 >= w1  # else zoom_label rejects the record


class TestZoomLabel:
    def test_no_change(self):
        assert pl.zoom_label(0.05, 0.05) == 0

    def test_area_quadruples_per_doubling(self):
        assert pl.zoom_label(0.01, 0.04) == 100

    def test_two_doublings(self):
        assert pl.zoom_label(0.01, 0.16) == 200

    def test_power_identity(self):
        for k_exp in range(0, 5):
            assert pl.zoom_label(0.002, 0.002 * 4.0**k_exp) == 100 * k_exp

    def test_rejects_shrink(self):
        with pytest.raises(ValueError):
            pl.zoom_label(0.5, 0.25)
        with pytest.raises(ValueError):
            pl.zoom_label(0.0, 0.5)


class TestSelectSmallest:
    def make(self, rid, w1):
        side = math.sqrt(w1 * 1000 * 1000)
        return pl.GroundingRecord(rid, 1000, 1000, BBoxPx(0, 0, side, side), "x")

    def test_all_and_none(self):
        records = [self.make("a", 0.5), self.make("b", 0.01)]
        assert pl.select_smallest(records, 2) == sorted(records, key=pl.record_w1)
        assert pl.select_smallest(records, 0) == []

    def test_smallest_two(self):
        records = [self.make("a", 0.5), self.make("b", 0.01), self.make("c", 0.2)]
        picked = pl.select_smallest(records, 2)
        assert [r.id for r in picked] == ["b", "c"]

    def test_tie_breaks_by_id(self):
        records = [self.make("z", 0.1), self.make("a", 0.1)]
        assert [r.id for r in pl.select_smallest(records, 1)] == ["a"]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            pl.select_smallest([self.make("a", 0.1)], 2)


def exact_linear_pairs(n=80, seed=3):
    # coefficients are multiples of the feature grid, so every target is an
    # exact integer and the linear map is recoverable to machine precision
    rng = np.random.default_rng(seed)
    weights = np.array([[20.0, -10.0, 0.0], [10.0, 20.0, 0.0], [0.0, 0.0, 900.0]])
    bias = np.array([2.0, -1.0, 30.0])
    pairs = []
    for _ in range(n):
        x = np.array(
            [rng.integers(-10, 11) / 10, rng.integers(-10, 11) / 10, rng.integers(1, 50) / 100]
        )
        y = weights @ x + bias
        action = ActionDelta(int(round(y[0])), int(round(y[1])), int(round(y[2])))
        assert np.allclose(y, action.as_tuple())
        pairs.append((pl.FeatureVec(x[0], x[1], x[2]), action))
    return pairs


class TestOLS:
    def test_exact_recovery(self):
        pairs = exact_linear_pairs()
        model = pl.fit(pairs, pl.RegressorConfig(kind="ols_linear"))
        for head in pl.HEAD_NAMES:
            assert model.train_r2[head] >= 1.0 - 1e-9

    def test_normal_equations_residual(self):
        pairs = exact_linear_pairs()
        model = pl.fit(pairs, pl.RegressorConfig(kind="ols_linear"))
        x = np.stack([f.as_array(False) for f, _ in pairs])
        y = np.array([a.as_tuple() for _, a in pairs], dtype=float)
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        resid = y - design @ np.vstack([model.ols_coef.T, model.ols_intercept])
        grad = design.T @ resid
        assert np.max(np.abs(grad)) / max(1.0, np.max(np.abs(design.T @ y))) < 1e-8

    def test_interpolates_training_point(self):
        pairs = exact_linear_pairs()
        model = pl.fit(pairs, pl.RegressorConfig(kind="ols_linear"))
        f, a = pairs[0]
        pred = model.predict_batch(f.as_array(False)[None, :])[0]
        assert np.allclose(pred, a.as_tuple(), atol=1e-6)

    def test_degenerate_design_rejected(self):
        f = pl.FeatureVec(0.5, 0.5, 0.1)
        with pytest.raises(pl.FitError, match="degenerate"):
            pl.fit([(f, ActionDelta(1, 0, 0))] * 10, pl.RegressorConfig(kind="ols_linear"))

    def test_too_few_samples(self):
        with pytest.raises(pl.FitError):
            pl.fit([], pl.RegressorConfig(kind="ols_linear"))


class TestRandomForest:
    def test_constant_target(self):
        rng = np.random.default_rng(0)
        pairs = [
            (pl.FeatureVec(*rng.uniform(-1, 1, 2), rng.uniform(0.01, 0.5)), ActionDelta(4, 4, 40))
            for _ in range(40)
        ]
        model = pl.fit(pairs, pl.RegressorConfig(kind="random_forest", n_trees=10))
        pred = model.predict_batch(pairs[0][0].as_array(False)[None, :])[0]
        assert np.allclose(pred, [4, 4, 40])

    def test_bit_deterministic_under_seed(self):
        pairs = exact_linear_pairs(n=100, seed=6)
        cfg = pl.RegressorConfig(kind="random_forest", seed=123, n_trees=20)
        m1 = pl.fit(pairs, cfg)
        m2 = pl.fit(pairs, cfg)
        x = np.stack([f.as_array(False) for f, _ in pairs])
        assert np.array_equal(m1.predict_batch(x), m2.predict_batch(x))

    def test_seed_changes_model(self):
        pairs = exact_linear_pairs(n=100, seed=6)
        m1 = pl.fit(pairs, pl.RegressorConfig(kind="random_forest", seed=1, n_trees=20))
        m2 = pl.fit(pairs, pl.RegressorConfig(kind="random_forest", seed=2, n_trees=20))
        x = np.stack([f.as_array(False) for f, _ in pairs])
        assert not np.array_equal(m1.predict_batch(x), m2.predict_batch(x))

    def test_oracle_samples_fit_well(self):
        rng = np.random.default_rng(30)
        scene = cam.sample_targets(400, rng)
        samples, _ = st.make_samples(scene, K, seed=2)
        assert len(samples) >= 300
        pairs = [(s.features, s.gt_action) for s in samples]
        model = pl.fit(pairs, pl.RegressorConfig(kind="random_forest", seed=5))
        for head in pl.HEAD_NAMES:
            assert model.train_r2[head] >= 0.95

    def test_too_few_samples(self):
        pairs = exact_linear_pairs()[:4]
        with pytest.raises(ValueError):
            pl.fit(pairs, pl.RegressorConfig(kind="random_forest", min_samples_leaf=5))

    def test_optional_zoom_feature(self):
        rng = np.random.default_rng(33)
        scene = cam.sample_targets(300, rng)
        samples, _ = st.make_samples(scene, K, seed=2)
        pairs = [(s.features, s.gt_action) for s in samples]
        cfg = pl.RegressorConfig(kind="random_forest", seed=5, use_zoom_feature=True)
        model = pl.fit(pairs, cfg)
        assert model.train_r2["zoom"] >= 0.95
        # a model expecting the extra feature rejects bare feature vectors
        bare = replace(samples[0], features=pl.FeatureVec(0.1, 0.1, 0.05))
        with pytest.raises(pl.FitError, match="zoom feature"):
            st.RegressorPolicy(model).actions([samples[1], bare])


class TestGenerate:
    def grounding_records(self, n=40, seed=14):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(n):
            w = rng.uniform(40, 300)
            h = w * rng.uniform(0.7, 1.4)
            x0 = rng.uniform(0, 1280 - w)
            y0 = rng.uniform(0, 720 - h)
            records.append(
                pl.GroundingRecord(
                    f"r{i:04d}", 1280, 720, BBoxPx(x0, y0, x0 + w, y0 + h), f"object {i}"
                )
            )
        return records

    def oracle_model(self):
        rng = np.random.default_rng(31)
        scene = cam.sample_targets(500, rng)
        samples, _ = st.make_samples(scene, K, seed=2)
        return pl.fit(
            [(s.features, s.gt_action) for s in samples],
            pl.RegressorConfig(kind="random_forest", seed=5),
        )

    def test_centered_bbox_identity_model(self):
        # a regressor fitted on exactly-zero angle labels predicts zero angles
        rng = np.random.default_rng(44)
        pairs = [
            (
                pl.FeatureVec(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), w1),
                ActionDelta(0, 0, 50),
            )
            for w1 in np.linspace(0.01, 0.2, 30)
        ]
        model = pl.fit(pairs, pl.RegressorConfig(kind="ols_linear"))
        b = BBoxPx(600, 330, 680, 390)
        record = pl.GroundingRecord("c", 1280, 720, b, "thing")
        labels, skipped = pl.generate([record], model)
        assert not skipped
        assert labels[0].action.pan_deg == 0
        assert labels[0].action.tilt_deg == 0

    def test_cardinality_and_skips(self):
        records = self.grounding_records()
        bad = pl.GroundingRecord("zz_bad", 1280, 720, BBoxPx(-5, 0, 100, 100), "broken")
        model = self.oracle_model()
        labels, skipped = pl.generate(records + [bad], model, seed=4)
        assert len(labels) == len(records)
        assert skipped == [("zz_bad", "bbox outside image bounds")]

    def test_deterministic_under_seed(self):
        records = self.grounding_records()
        model = self.oracle_model()
        a, _ = pl.generate(records, model, seed=11)
        b, _ = pl.generate(records, model, seed=11)
        assert a == b

    def test_w2_never_below_w1(self):
        records = self.grounding_records(n=60, seed=9)
        model = self.oracle_model()
        labels, _ = pl.generate(records, model, seed=1)
        for lab in labels:
            assert lab.w2 >= lab.w1 - 1e-12

    def test_zoom_sources_differ_only_in_zoom(self):
        records = self.grounding_records(n=20, seed=10)
        model = self.oracle_model()
        geo, _ = pl.generate(records, model, seed=1, zoom_source="geometry")
        mod, _ = pl.generate(records, model, seed=1, zoom_source="model")
        for g, m in zip(geo, mod):
            assert (g.action.pan_deg, g.action.tilt_deg) == (m.action.pan_deg, m.action.tilt_deg)
        assert any(
            g.action.zoom_units != m.action.zoom_units for g, m in zip(geo, mod)
        )

    def test_one_batch_prediction_matches_rows(self, monkeypatch):
        records = self.grounding_records(n=30, seed=13)
        bad = pl.GroundingRecord("r0005x", 1280, 720, BBoxPx(0, 0, 0, 0), "empty")
        model = self.oracle_model()
        calls = []
        real_predict = pl.RegressorModel.predict_batch
        monkeypatch.setattr(
            pl.RegressorModel, "predict_batch", lambda self, x: calls.append(len(x)) or real_predict(self, x)
        )
        labels, skipped = pl.generate(records + [bad], model, seed=3, zoom_source="model")
        assert calls == [len(records)]
        assert skipped == [("r0005x", "empty bbox")]
        for lab, rec in zip(labels, sorted(records, key=lambda r: r.id)):
            x = pl.features_for_record(rec, False)[0].as_array(False)
            pan, tilt, zoom = real_predict(model, x[None, :])[0]
            expected = (round_half_away(pan), round_half_away(tilt), max(0, round_half_away(zoom)))
            assert lab.action.as_tuple() == expected
        assert pl.generate([bad], model) == ([], [("r0005x", "empty bbox")])

    def test_actions_round_trip_through_codec(self):
        records = self.grounding_records(n=30, seed=12)
        model = self.oracle_model()
        labels, _ = pl.generate(records, model, seed=2)
        vocab = codec.TokenVocab.default()
        for lab in labels:
            assert codec.decode(codec.encode_action(lab.action, vocab), vocab) == lab.action


class TestFiles:
    def test_grounding_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text(
            json.dumps(
                {
                    "id": "a",
                    "image_w": 640,
                    "image_h": 480,
                    "bbox": [10, 20, 110, 120],
                    "phrase": "red mug",
                }
            )
            + "\n"
        )
        records = pl.read_grounding_records(path)
        assert records[0].bbox == BBoxPx(10, 20, 110, 120)
        assert records[0].phrase == "red mug"

    def test_bad_grounding_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "bbox": [1, 2]}\n')
        with pytest.raises(ValueError, match="bad grounding record"):
            pl.read_grounding_records(path)

    def test_pseudo_label_file_round_trip(self, tmp_path):
        vocab = codec.TokenVocab.default()
        labels = [
            pl.PseudoLabel("a", "What is the mug?", ActionDelta(4, -2, 120), BBoxPx(0, 0, 50, 40), 0.01, 0.2),
        ]
        path = tmp_path / "labels.jsonl"
        pl.write_pseudo_labels(path, labels, vocab)
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec["action"] == {"pan": 4, "tilt": -2, "zoom": 120}
        assert rec["tokens"].startswith("<PAN> <+> <2> <2> <TILT>")
        loaded = pl.read_pseudo_labels(path, vocab)
        assert loaded == labels

    def test_read_decodes_each_label_once(self, tmp_path, monkeypatch):
        vocab = codec.TokenVocab.default()
        labels = [
            pl.PseudoLabel(str(i), "What is the mug?", ActionDelta(i, -i, 10 * i), BBoxPx(0, 0, 50, 40), 0.01, 0.2)
            for i in range(5)
        ]
        path = tmp_path / "labels.jsonl"
        pl.write_pseudo_labels(path, labels, vocab)
        calls = []
        real_decode = codec.decode
        monkeypatch.setattr(codec, "decode", lambda *a, **kw: calls.append(1) or real_decode(*a, **kw))
        assert pl.read_pseudo_labels(path, vocab) == labels
        assert len(calls) == len(labels)

    def test_model_file_round_trip(self, tmp_path):
        pairs = exact_linear_pairs()
        for kind in ("ols_linear", "random_forest"):
            model = pl.fit(pairs, pl.RegressorConfig(kind=kind, n_trees=5, seed=2))
            path = tmp_path / f"{kind}.json"
            pl.save_model(path, model)
            loaded = pl.load_model(path)
            x = np.stack([f.as_array(False) for f, _ in pairs])
            assert np.allclose(model.predict_batch(x), loaded.predict_batch(x))
            doc = json.loads(path.read_text())
            assert doc["kind"] == kind
            assert doc["config"]["seed"] == 2
