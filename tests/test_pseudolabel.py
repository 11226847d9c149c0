import json
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as hst

from ptzkit import camera as cam
from ptzkit import codec
from ptzkit import jsonl
from ptzkit import pseudolabel as pl
from ptzkit import selftrain as st
from ptzkit.camera import BBoxPx, CameraIntrinsics, CameraState, round_half_away
from ptzkit.cli import main
from ptzkit.codec import ActionDelta

K = CameraIntrinsics(1280, 720, 60.0)


# --- the per-row rule, as the library applied it one record at a time ------


def ref_normalize_center(b: BBoxPx, image_w: float, image_h: float) -> tuple[float, float]:
    cx, cy = b.center()
    return (cx - image_w / 2.0) / (image_w / 2.0), (cy - image_h / 2.0) / (image_h / 2.0)


def ref_isotropic_crop(b: BBoxPx, image_w: float, image_h: float) -> tuple[BBoxPx, float]:
    aspect = image_w / image_h
    win_w = max(b.width, b.height * aspect)
    win_h = win_w / aspect
    cx, cy = b.center()
    x0 = max(min(cx - win_w / 2.0, image_w - win_w), 0.0)
    y0 = max(min(cy - win_h / 2.0, image_h - win_h), 0.0)
    window = BBoxPx(x0, y0, min(x0 + win_w, image_w), min(y0 + win_h, image_h))
    return window, b.area() / window.area()


def ref_features_for_record(b: BBoxPx, image_w: int, image_h: int) -> tuple[tuple[float, ...], BBoxPx, float]:
    x_norm, y_norm = ref_normalize_center(b, image_w, image_h)
    w1 = b.area() / (image_w * image_h)
    window, w2 = ref_isotropic_crop(b, image_w, image_h)
    return (x_norm, y_norm, w1), window, w2


def reference_generate(rows, model: pl.RegressorModel, seed: int, zoom_source: str) -> tuple[pl.LabelSet, list]:
    """``generate`` one record at a time: rows are (id, image_w, image_h, bbox, phrase)."""
    rng = np.random.default_rng(seed)
    labels, skipped = [], []
    lim = codec.MAX_ACTION_VALUE
    for rid, w, h, box, phrase in sorted(rows, key=lambda r: r[0]):
        template = pl.TEMPLATES[int(rng.integers(0, len(pl.TEMPLATES)))]
        b = BBoxPx(*box)
        if w <= 0 or h <= 0:
            skipped.append((rid, "non-positive image size"))
            continue
        if b.is_empty():
            skipped.append((rid, "empty bbox"))
            continue
        if b.x_min < 0 or b.y_min < 0 or b.x_max > w or b.y_max > h:
            skipped.append((rid, "bbox outside image bounds"))
            continue
        features, window, w2 = ref_features_for_record(b, w, h)
        pan, tilt, zoom = model.predict_batch(np.array([features]))[0].tolist()
        if zoom_source == "geometry":
            zoom = round_half_away(50.0 * math.log2(w2 / features[2]))
        action = [min(max(round_half_away(v), lo), lim) for v, lo in zip((pan, tilt, zoom), (-lim, -lim, 0))]
        scale = w / window.width
        post = [(b.x_min - window.x_min) * scale, (b.y_min - window.y_min) * scale,
                (b.x_max - window.x_min) * scale, (b.y_max - window.y_min) * scale]
        labels.append((rid, template.format(phrase=phrase), action, post, features[2], w2))
    ids, instructions, actions, boxes, w1, w2 = zip(*labels)
    labels = pl.LabelSet(np.array(ids, dtype=object), np.array(instructions, dtype=object),
                         np.array(actions, dtype=np.int64), np.array(boxes), np.array(w1), np.array(w2))
    return labels, skipped


def record_set(rows) -> pl.RecordSet:
    """Rows of (id, image_w, image_h, bbox, phrase) as a ``RecordSet``."""
    ids, image_w, image_h, boxes, phrases = zip(*rows)
    return pl.RecordSet(np.array(ids, dtype=object), np.array(image_w, dtype=np.int64),
                        np.array(image_h, dtype=np.int64), np.array(boxes, dtype=np.float64).reshape(-1, 4),
                        np.array(phrases, dtype=object))


def one_row(b: BBoxPx, image_w, image_h) -> tuple[tuple[float, ...], BBoxPx, float]:
    """``record_features`` of one box: (features, crop window, w2)."""
    x, windows, w2 = pl.record_features([b.as_list()], image_w, image_h)
    return tuple(x[0].tolist()), BBoxPx(*windows[0].tolist()), float(w2[0])


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


class TestNormalizeCenter:
    def test_centered(self):
        b = BBoxPx(400, 400, 600, 600)
        assert one_row(b, 1000, 1000)[0][:2] == (0.0, 0.0)

    def test_right_edge(self):
        b = BBoxPx(990, 490, 1010, 510)
        x, y = one_row(b, 1000, 1000)[0][:2]
        assert (x, y) == (1.0, 0.0)

    def test_arithmetic(self):
        b = BBoxPx(100, 200, 300, 400)
        assert one_row(b, 1000, 1000)[0][:2] == (-0.6, -0.4)

    def test_inverse_map(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            x0, y0 = rng.uniform(0, 900, 2)
            b = BBoxPx(x0, y0, x0 + 50, y0 + 50)
            xn, yn = one_row(b, 1000, 800)[0][:2]
            assert xn * 500 + 500 == pytest.approx(b.center()[0], abs=1e-9)
            assert yn * 400 + 400 == pytest.approx(b.center()[1], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty box"):
            pl.record_features([BBoxPx.empty().as_list()], 100, 100)
        with pytest.raises(ValueError, match=r"empty box \(row 1\)"):
            pl.record_features([[0, 0, 10, 10], [5, 5, 5, 9]], 100, 100)


class TestIsotropicCrop:
    def test_full_frame(self):
        _, window, w2 = one_row(BBoxPx(0, 0, 1000, 500), 1000, 500)
        assert window.as_list() == [0, 0, 1000, 500]
        assert w2 == 1.0

    def test_square_bbox_square_frame(self):
        _, window, w2 = one_row(BBoxPx(450, 450, 550, 550), 1000, 1000)
        assert window.as_list() == [450, 450, 550, 550]
        assert w2 == 1.0

    def test_aspect_constrained(self):
        _, window, w2 = one_row(BBoxPx(475, 225, 525, 275), 1000, 500)
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
            _, window, w2 = one_row(b, w_img, h_img)
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
        w1 = box.area() / (w_img * h_img)
        if w1 == 0.0:  # no area, or too little for a share of the frame
            with pytest.raises(ValueError, match="empty box"):
                one_row(box, w_img, h_img)
            return
        _, window, w2 = one_row(box, w_img, h_img)
        assert 0.0 <= window.x_min <= window.x_max <= w_img
        assert 0.0 <= window.y_min <= window.y_max <= h_img
        assert w2 >= w1  # else zoom_labels rejects the record


FRACTION = hst.one_of(hst.sampled_from([0.0, 1.0]), hst.floats(0.0, 1.0))


class TestRecordFeatures:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(hst.lists(hst.tuples(hst.integers(1, 4000), hst.integers(1, 4000), *[FRACTION] * 4),
                     min_size=1, max_size=40))
    @example([(399, 386, 0.0, 1.0, 0.0, 1.0), (1280, 720, 0.25, 0.5, 0.0, 1.0), (640, 480, 0.0, 0.1, 0.0, 1.0)])
    def test_rows_equal_the_per_row_rule(self, rows):
        # the examples hold full-height boxes, whose crop window is clamped into the frame
        boxes, sizes = [], []
        for w_img, h_img, a, b, c, d in rows:
            x0, x1 = sorted((a * w_img, b * w_img))
            y0, y1 = sorted((c * h_img, d * h_img))
            if BBoxPx(x0, y0, x1, y1).area() / (w_img * h_img) > 0.0:
                boxes.append([x0, y0, x1, y1])
                sizes.append((w_img, h_img))
        assume(boxes)
        image_w, image_h = np.array(sizes, dtype=np.int64).T
        x, windows, w2 = pl.record_features(np.array(boxes), image_w, image_h)
        for i, (box, (w_img, h_img)) in enumerate(zip(boxes, sizes)):
            features, window, want_w2 = ref_features_for_record(BBoxPx(*box), w_img, h_img)
            assert bits(x[i]) == bits(features)
            assert bits(windows[i]) == bits(window.as_list())
            assert bits(w2[i]) == bits(want_w2)
            assert pl.zoom_labels(x[i, 2], w2[i]).tolist() == [round_half_away(50.0 * math.log2(want_w2 / features[2]))]

    def test_zoom_labels_are_math_log2_of_each_ratio(self):
        # np.log2 rounds a few in 10^5 of these ratios to the other neighbouring double
        rng = np.random.default_rng(3)
        n = 200_000
        x0, y0 = rng.uniform(0, 600, n), rng.uniform(0, 300, n)
        boxes = np.column_stack([x0, y0, x0 + rng.uniform(1, 680, n), y0 + rng.uniform(1, 420, n)])
        x, _, w2 = pl.record_features(boxes, 1280, 720)
        labels = pl.zoom_labels(x[:, 2], w2)
        assert labels.tolist() == [round_half_away(50.0 * math.log2(r)) for r in (w2 / x[:, 2]).tolist()]

    def test_one_size_for_all_rows(self):
        boxes = np.array([[10.0, 20.0, 110.0, 90.0], [0.0, 0.0, 1280.0, 720.0]])
        one = pl.record_features(boxes, 1280, 720)
        each = pl.record_features(boxes, np.array([1280, 1280]), np.array([720, 720]))
        assert all(bits(a) == bits(b) for a, b in zip(one, each))


def zoom_label(w1: float, w2: float) -> int:
    return int(pl.zoom_labels(w1, w2)[0])


class TestZoomLabel:
    def test_no_change(self):
        assert zoom_label(0.05, 0.05) == 0

    def test_area_quadruples_per_doubling(self):
        assert zoom_label(0.01, 0.04) == 100

    def test_two_doublings(self):
        assert zoom_label(0.01, 0.16) == 200

    def test_power_identity(self):
        for k_exp in range(0, 5):
            assert zoom_label(0.002, 0.002 * 4.0**k_exp) == 100 * k_exp

    def test_rejects_shrink(self):
        with pytest.raises(ValueError):
            zoom_label(0.5, 0.25)
        with pytest.raises(ValueError):
            zoom_label(0.0, 0.5)


class TestSelectSmallest:
    def make(self, rid, w1):
        side = math.sqrt(w1 * 1000 * 1000)
        return (rid, 1000, 1000, [0, 0, side, side], "x")

    def test_all_and_none(self):
        records = record_set([self.make("a", 0.5), self.make("b", 0.01)])
        assert pl.select_smallest(records, 2).ids.tolist() == ["b", "a"]
        assert len(pl.select_smallest(records, 0)) == 0

    def test_smallest_two(self):
        records = record_set([self.make("a", 0.5), self.make("b", 0.01), self.make("c", 0.2)])
        picked = pl.select_smallest(records, 2)
        assert picked.ids.tolist() == ["b", "c"]
        assert picked.boxes.tolist() == records.boxes[[1, 2]].tolist()

    def test_tie_breaks_by_id(self):
        records = record_set([self.make("z", 0.1), self.make("a", 0.1)])
        assert pl.select_smallest(records, 1).ids.tolist() == ["a"]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            pl.select_smallest(record_set([self.make("a", 0.1)]), 2)


def exact_linear_pairs(n=80, seed=3):
    # coefficients are multiples of the feature grid, so every target is an
    # exact integer and the linear map is recoverable to machine precision
    rng = np.random.default_rng(seed)
    weights = np.array([[20.0, -10.0, 0.0], [10.0, 20.0, 0.0], [0.0, 0.0, 900.0]])
    bias = np.array([2.0, -1.0, 30.0])
    rows, actions = [], []
    for _ in range(n):
        x = np.array(
            [rng.integers(-10, 11) / 10, rng.integers(-10, 11) / 10, rng.integers(1, 50) / 100]
        )
        y = weights @ x + bias
        action = ActionDelta(int(round(y[0])), int(round(y[1])), int(round(y[2])))
        assert np.allclose(y, action.as_tuple())
        rows.append(x)
        actions.append(action.as_tuple())
    return np.array(rows), np.array(actions, dtype=np.int64)


class TestOLS:
    def test_exact_recovery(self):
        model = pl.fit(*exact_linear_pairs(), pl.RegressorConfig(kind="ols_linear"))
        for head in pl.HEAD_NAMES:
            assert model.train_r2[head] >= 1.0 - 1e-9

    def test_normal_equations_residual(self):
        x, actions = exact_linear_pairs()
        model = pl.fit(x, actions, pl.RegressorConfig(kind="ols_linear"))
        y = actions.astype(float)
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        resid = y - design @ np.vstack([model.ols_coef.T, model.ols_intercept])
        grad = design.T @ resid
        assert np.max(np.abs(grad)) / max(1.0, np.max(np.abs(design.T @ y))) < 1e-8

    def test_interpolates_training_point(self):
        x, actions = exact_linear_pairs()
        model = pl.fit(x, actions, pl.RegressorConfig(kind="ols_linear"))
        pred = model.predict_batch(x[:1])[0]
        assert np.allclose(pred, actions[0], atol=1e-6)

    def test_degenerate_design_rejected(self):
        x = np.tile([0.5, 0.5, 0.1], (10, 1))
        with pytest.raises(pl.FitError, match="degenerate"):
            pl.fit(x, np.tile([1, 0, 0], (10, 1)), pl.RegressorConfig(kind="ols_linear"))

    def test_too_few_samples(self):
        with pytest.raises(pl.FitError):
            pl.fit(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), pl.RegressorConfig(kind="ols_linear"))


@pytest.mark.parametrize("kind", ["ols_linear", "random_forest"])
@pytest.mark.parametrize("width", [2, 4])
def test_fit_rejects_rows_that_are_not_three_wide(kind, width):
    x, actions = exact_linear_pairs()
    x = np.hstack([x, x])[:, :width]  # the first two features, or the three and one more
    reason = f"feature rows must be 3 wide (x_norm, y_norm, w1), got shape (80, {width})"
    with pytest.raises(pl.FitError, match=re.escape(reason)):
        pl.fit(x, actions, pl.RegressorConfig(kind=kind, n_trees=2))


@pytest.mark.parametrize("kind", ["ols_linear", "random_forest"])
@pytest.mark.parametrize("bad, reason", [
    ("float", "action row 0: pan must be an integer, got "),
    ("half", "action row 0: pan must be an integer, got "),
    ("tilt", "action row 5: tilt 1000 outside [-999, 999]"),
    ("zoom", "action row 7: zoom -1 outside [0, 999]"),
    ("rows", "actions must be 80 rows of (pan, tilt, zoom), got shape (79, 3)"),
])
def test_fit_rejects_actions_outside_the_codec_rule(kind, bad, reason):
    # the forest's node sums are exact only on codec-range integers
    x, actions = exact_linear_pairs()
    if bad == "float":  # integral values, but not integers, as in a label file
        actions = actions.astype(np.float64)
    elif bad == "half":
        actions = actions + 0.5
    elif bad == "tilt":
        actions[[5, 9], 1] = 1000
    elif bad == "zoom":
        actions[[7, 9], 2] = -1
    else:
        actions = actions[:-1]
    with pytest.raises(pl.FitError, match=f"^{re.escape(reason)}"):
        pl.fit(x, actions, pl.RegressorConfig(kind=kind, n_trees=2))


class TestRandomForest:
    def test_constant_target(self):
        rng = np.random.default_rng(0)
        x = np.array([[*rng.uniform(-1, 1, 2), rng.uniform(0.01, 0.5)] for _ in range(40)])
        model = pl.fit(x, np.tile([4, 4, 40], (40, 1)), pl.RegressorConfig(kind="random_forest", n_trees=10))
        pred = model.predict_batch(x[:1])[0]
        assert np.allclose(pred, [4, 4, 40])

    def test_bit_deterministic_under_seed(self):
        x, actions = exact_linear_pairs(n=100, seed=6)
        cfg = pl.RegressorConfig(kind="random_forest", seed=123, n_trees=20)
        m1 = pl.fit(x, actions, cfg)
        m2 = pl.fit(x, actions, cfg)
        assert np.array_equal(m1.predict_batch(x), m2.predict_batch(x))

    def test_seed_changes_model(self):
        x, actions = exact_linear_pairs(n=100, seed=6)
        m1 = pl.fit(x, actions, pl.RegressorConfig(kind="random_forest", seed=1, n_trees=20))
        m2 = pl.fit(x, actions, pl.RegressorConfig(kind="random_forest", seed=2, n_trees=20))
        assert not np.array_equal(m1.predict_batch(x), m2.predict_batch(x))

    def test_oracle_samples_fit_well(self):
        rng = np.random.default_rng(30)
        scene = cam.sample_targets(400, rng)
        samples, _ = st.make_samples(scene, K, seed=2)
        assert len(samples) >= 300
        model = pl.fit(samples.features, samples.actions, pl.RegressorConfig(kind="random_forest", seed=5))
        for head in pl.HEAD_NAMES:
            assert model.train_r2[head] >= 0.95

    def test_too_few_samples(self):
        x, actions = exact_linear_pairs()
        with pytest.raises(ValueError):
            pl.fit(x[:4], actions[:4], pl.RegressorConfig(kind="random_forest", min_samples_leaf=5))


class TestGenerate:
    def grounding_records(self, n=40, seed=14):
        rng = np.random.default_rng(seed)
        records = []
        for i in range(n):
            w = rng.uniform(40, 300)
            h = w * rng.uniform(0.7, 1.4)
            x0 = rng.uniform(0, 1280 - w)
            y0 = rng.uniform(0, 720 - h)
            records.append((f"r{i:04d}", 1280, 720, [x0, y0, x0 + w, y0 + h], f"object {i}"))
        return records

    def oracle_model(self):
        rng = np.random.default_rng(31)
        scene = cam.sample_targets(500, rng)
        samples, _ = st.make_samples(scene, K, seed=2)
        return pl.fit(samples.features, samples.actions, pl.RegressorConfig(kind="random_forest", seed=5))

    def test_centered_bbox_identity_model(self):
        # a regressor fitted on exactly-zero angle labels predicts zero angles
        rng = np.random.default_rng(44)
        x = np.array([[float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), w1] for w1 in np.linspace(0.01, 0.2, 30)])
        model = pl.fit(x, np.tile([0, 0, 50], (30, 1)), pl.RegressorConfig(kind="ols_linear"))
        record = ("c", 1280, 720, [600, 330, 680, 390], "thing")
        labels, skipped = pl.generate(record_set([record]), model)
        assert not skipped
        assert labels.actions[:, :2].tolist() == [[0, 0]]

    def test_cardinality_and_skips(self):
        records = self.grounding_records()
        bad = ("zz_bad", 1280, 720, [-5, 0, 100, 100], "broken")
        model = self.oracle_model()
        labels, skipped = pl.generate(record_set(records + [bad]), model, seed=4)
        assert len(labels) == len(records)
        assert skipped == [("zz_bad", "bbox outside image bounds")]

    def test_box_with_no_share_of_its_frame_is_empty(self):
        # an area so small that its ratio to the frame's underflows to 0
        tiny = ("tiny", 4000, 4000, [0.0, 0.0, 5e-324, 1.0], "speck")
        labels, skipped = pl.generate(record_set(self.grounding_records(n=3) + [tiny]), self.oracle_model())
        assert len(labels) == 3 and skipped == [("tiny", "empty bbox")]

    def test_deterministic_under_seed(self):
        records = record_set(self.grounding_records())
        model = self.oracle_model()
        a, _ = pl.generate(records, model, seed=11)
        b, _ = pl.generate(records, model, seed=11)
        for f in fields(pl.LabelSet):
            assert getattr(a, f.name).tolist() == getattr(b, f.name).tolist()

    def test_w2_never_below_w1(self):
        records = record_set(self.grounding_records(n=60, seed=9))
        model = self.oracle_model()
        labels, _ = pl.generate(records, model, seed=1)
        assert np.all(labels.w2 >= labels.w1 - 1e-12)

    def test_zoom_sources_differ_only_in_zoom(self):
        records = record_set(self.grounding_records(n=20, seed=10))
        model = self.oracle_model()
        geo, _ = pl.generate(records, model, seed=1, zoom_source="geometry")
        mod, _ = pl.generate(records, model, seed=1, zoom_source="model")
        assert np.array_equal(geo.actions[:, :2], mod.actions[:, :2])
        assert np.any(geo.actions[:, 2] != mod.actions[:, 2])

    def test_one_batch_prediction_matches_rows(self, monkeypatch):
        records = self.grounding_records(n=30, seed=13)
        bad = ("r0005x", 1280, 720, [0, 0, 0, 0], "empty")
        model = self.oracle_model()
        calls = []
        real_predict = pl.RegressorModel.predict_batch
        monkeypatch.setattr(
            pl.RegressorModel, "predict_batch", lambda self, x: calls.append(len(x)) or real_predict(self, x)
        )
        labels, skipped = pl.generate(record_set(records + [bad]), model, seed=3, zoom_source="model")
        assert calls == [len(records)]
        assert skipped == [("r0005x", "empty bbox")]
        for action, (_, w, h, box, _) in zip(labels.actions.tolist(), sorted(records)):
            x = np.array(ref_features_for_record(BBoxPx(*box), w, h)[0][:3])
            pan, tilt, zoom = real_predict(model, x[None, :])[0]
            expected = [round_half_away(pan), round_half_away(tilt), max(0, round_half_away(zoom))]
            assert action == expected
        none, skipped = pl.generate(record_set([bad]), model)
        assert len(none) == 0 and none.actions.shape == (0, 3) and skipped == [("r0005x", "empty bbox")]

    def test_actions_round_trip_through_codec(self):
        records = record_set(self.grounding_records(n=30, seed=12))
        model = self.oracle_model()
        labels, _ = pl.generate(records, model, seed=2)
        vocab = codec.TokenVocab.default()
        for action in labels.actions.tolist():
            action = ActionDelta(*action)
            assert codec.decode(codec.encode_action(action, vocab), vocab) == action

    @pytest.mark.parametrize("zoom_source", pl.ZOOM_SOURCES)
    def test_synth_file_equals_the_per_record_rule(self, tmp_path, zoom_source):
        # usable records, with empty, out-of-bounds and non-positive-size ones
        # mixed in: a template is still drawn for each of those
        rng = np.random.default_rng(21)
        rows = []
        for i, (rid, w, h, box, phrase) in enumerate(self.grounding_records(n=300, seed=21)):
            kind = rng.integers(8)
            if kind == 0:
                box = [box[0], box[1], box[0], box[3]]
            elif kind == 1:
                box = [box[0] - 2000.0, box[1], box[2], box[3]]
            elif kind == 2:
                w = 0
            rows.append((f"r{rng.integers(10**6):06d}-{i}", w, h, box, phrase))
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(dict(zip(("id", "image_w", "image_h", "bbox", "phrase"), r))) + "\n"
                                for r in rows))
        model = self.oracle_model()
        pl.save_model(tmp_path / "model.json", model)
        argv = ["synth", "--records", str(path), "--model", str(tmp_path / "model.json"), "--seed", "7",
                "--zoom-source", zoom_source, "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        want, skipped = reference_generate(rows, pl.load_model(tmp_path / "model.json"), 7, zoom_source)
        assert {reason for _, reason in skipped} == set(pl.SKIP_REASONS)
        assert (tmp_path / "labels.jsonl").read_text() == scalar_label_lines(want, codec.TokenVocab.default())
        got, got_skipped = pl.generate(pl.read_grounding_records(path), model, 7, zoom_source)
        assert got_skipped == skipped


ACTIONS = hst.tuples(hst.integers(-999, 999), hst.integers(-999, 999), hst.integers(0, 999))
FINITE = hst.floats(allow_nan=False, allow_infinity=False)
# any float, and the ones whose text is special: a signed zero, subnormals, the
# first exponent form (1e16), the largest, and the non-finite ones json.dumps spells out
FLOATS = hst.one_of(hst.sampled_from([-0.0, 5e-324, 2.2e-308, 1e16, 1e308, math.nan, math.inf, -math.inf]),
                    hst.floats())
# any text, lone surrogates included, and the characters JSON escapes
TEXT = hst.one_of(hst.text(hst.characters(exclude_categories=()), max_size=12),
                  hst.sampled_from(['say "hi"', "a\\b", "\x00\x1f\x7f", "\ud800", "\udfff\ud800", "é☃\U0001f600", "\u2028"]))
# the default symbols, each with a character before its ">" that JSON escapes or that is not ASCII
ODD_VOCAB = codec.TokenVocab([
    codec.Token(t.token_id, t.symbol[:-1] + '"\\é\ud800\x01☃'[i % 6] + ">", t.kind, t.value)
    for i, t in enumerate(codec.TokenVocab.default().tokens)
])


READ_VOCABS = {"default": codec.TokenVocab.default(), "odd": ODD_VOCAB, "levels-2": codec.TokenVocab.default(levels=2)}
# whitespace as str.split reads it, between the symbols of a token string and around them
SEPARATORS = hst.one_of(hst.just(" "), hst.sampled_from(["  ", "\t", " \n ", "\x1f", "\xa0", "\u2028"]))
EDGES = hst.sampled_from(["", "", " ", "\t ", "\xa0"])


def reference_label_problem(action: tuple, text: str, vocab: codec.TokenVocab) -> str | None:
    """Why the label reader rejected a row holding ``action`` and the token string
    ``text`` (its other fields good) when it decoded token strings: it split the
    string, mapped each symbol to its id, decoded the ids with ``decode_batch``
    and compared the result with the action."""
    lim = codec.MAX_ACTION_VALUE
    for head, v, low in zip(pl.HEAD_NAMES, action, (-lim, -lim, 0)):
        if not low <= v <= lim:
            return f"{head} {v} outside [{low}, {lim}]"
    id_of = {t.symbol: t.token_id for t in vocab.tokens}
    symbols, width = text.split(), vocab.max_sequence_length
    for symbol in symbols:
        if symbol not in id_of:
            return f"unknown token {symbol!r}"
    if len(symbols) > width:
        return f"{len(symbols)} tokens, more than the {width} of the longest encoding"
    tokens = np.full((1, width), -1, dtype=np.int64)
    tokens[0, : len(symbols)] = [id_of[s] for s in symbols]
    decoded, ok = codec.decode_batch(tokens, np.array([len(symbols)]), vocab)
    if not ok[0] or tuple(decoded[0].tolist()) != tuple(action):
        return "token string does not decode strictly to the structured action"
    return None


@hst.composite
def label_tokens(draw, vocab: codec.TokenVocab) -> tuple[tuple, str]:
    """An action and a token string: the action's own canonical symbols, or a
    different action's, with an unknown symbol, two symbols glued into one, more
    symbols than the longest encoding, two symbols swapped, or symbols at
    random, joined by drawn whitespace.  One action in ten is out of range."""
    lim = vocab.max_value
    in_range = hst.tuples(hst.integers(-lim, lim), hst.integers(-lim, lim), hst.integers(0, lim))
    if draw(hst.integers(0, 9)):
        action = draw(in_range)
    else:
        action = draw(hst.sampled_from([(lim + 1, 0, 0), (0, -1000, 5), (0, 0, -1), (0, 0, 999)]))
    try:
        own = codec.encode_action(ActionDelta(*action), vocab)
    except codec.CodecError:  # out of range: no encoding of its own
        own = codec.encode_action(ActionDelta(*draw(in_range)), vocab)
    symbols = [vocab.token(i).symbol for i in own]
    width = vocab.max_sequence_length
    kind = draw(hst.sampled_from(["canonical"] * 4 + ["other", "unknown", "glue", "long", "swap", "random"]))
    if kind == "other":
        symbols = [vocab.token(i).symbol for i in codec.encode_action(ActionDelta(*draw(in_range)), vocab)]
    elif kind == "unknown":
        at = draw(hst.integers(0, len(symbols)))
        symbols.insert(at, draw(hst.sampled_from(["<BOGUS>", "<3>", "<2", "PAN", "<PAN>", "<+>", "<END>", "<1000>"])))
    elif kind == "long":
        # as many symbols as the longest encoding, or one more
        symbols[-1:-1] = [symbols[-2]] * draw(hst.integers(width - len(symbols), width - len(symbols) + 1))
    elif kind == "swap":  # two neighbouring magnitudes out of order where there are two, else any two symbols
        magnitudes = {t.symbol for t in vocab.tokens if t.kind == codec.KIND_MAG}
        pairs = [i for i in range(len(symbols) - 1) if symbols[i] != symbols[i + 1]]
        at = draw(hst.sampled_from([i for i in pairs if {symbols[i], symbols[i + 1]} <= magnitudes] or pairs))
        symbols[at], symbols[at + 1] = symbols[at + 1], symbols[at]
    elif kind == "random":
        symbols = draw(hst.lists(hst.sampled_from([t.symbol for t in vocab.tokens]), max_size=width + 2))
    gaps = draw(hst.lists(SEPARATORS, min_size=max(len(symbols) - 1, 0), max_size=max(len(symbols) - 1, 0)))
    if kind == "glue":
        gaps[draw(hst.integers(0, len(gaps) - 1))] = draw(hst.sampled_from(["", "\x01"]))
    text = symbols[0] + "".join(g + s for g, s in zip(gaps, symbols[1:])) if symbols else ""
    return action, draw(EDGES) + text + draw(EDGES)


def label_set(actions, boxes, w1, w2, instructions=None, ids=None) -> pl.LabelSet:
    n = len(actions)
    return pl.LabelSet(
        np.array(ids or [f"r{i:05d}" for i in range(n)], dtype=object),
        np.array(instructions or ["What is the mug?"] * n, dtype=object),
        np.array(actions, dtype=np.int64).reshape(n, 3),
        np.array(boxes, dtype=np.float64).reshape(n, 4),
        np.array(w1, dtype=np.float64),
        np.array(w2, dtype=np.float64),
    )


def assert_same_labels(got: pl.LabelSet, want: pl.LabelSet):
    for f in fields(pl.LabelSet):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()


def scalar_label_lines(labels: pl.LabelSet, vocab: codec.TokenVocab) -> str:
    """The label file as it was written one label at a time, through ``encode_action``."""
    lines = []
    for i in range(len(labels)):
        action = ActionDelta(*labels.actions[i].tolist())
        row = {
            "id": labels.ids[i],
            "instruction": labels.instructions[i],
            "action": {"pan": action.pan_deg, "tilt": action.tilt_deg, "zoom": action.zoom_units},
            "tokens": codec.seq_to_str(codec.encode_action(action, vocab), vocab),
            "bbox_post": BBoxPx(*labels.boxes[i].tolist()).as_list(),
            "w1": float(labels.w1[i]),
            "w2": float(labels.w2[i]),
        }
        lines.append(json.dumps(row) + "\n")
    return "".join(lines)


def write_synth_labels(path, n: int, seed: int) -> None:
    """The label file ``synth`` writes for ``n`` generated records with boxes inside their images."""
    rng = np.random.default_rng(seed)
    sizes = np.array([(1280, 720), (1920, 1080), (640, 480), (1024, 768)])[rng.integers(4, size=n)]
    bw = sizes[:, 0] * rng.uniform(0.03, 0.5, n)
    bh = np.minimum(bw * rng.uniform(0.5, 1.5, n), sizes[:, 1] * 0.95)
    x0, y0 = rng.uniform(0, 1, n) * (sizes[:, 0] - bw), rng.uniform(0, 1, n) * (sizes[:, 1] - bh)
    phrases = [f"{a} {b}" for a, b in zip(rng.choice(["red", "blue", "small"], n), rng.choice(["mug", "pen"], n))]
    records = pl.RecordSet(np.array([f"r{i:06d}" for i in range(n)], dtype=object), sizes[:, 0], sizes[:, 1],
                           np.column_stack([x0, y0, x0 + bw, y0 + bh]), np.array(phrases, dtype=object))
    samples, _ = st.make_samples(cam.sample_targets(200, np.random.default_rng(seed)), K, seed=seed)
    model = pl.fit(samples.features, samples.actions, pl.RegressorConfig(kind="ols_linear"))
    labels, skipped = pl.generate(records, model, seed)
    assert not skipped
    pl.write_pseudo_labels(path, labels, codec.TokenVocab.default())


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
        assert records.ids.tolist() == ["a"] and records.phrases.tolist() == ["red mug"]
        assert records.image_w.tolist() == [640] and records.image_h.tolist() == [480]
        assert records.boxes.dtype == np.float64 and records.boxes.tolist() == [[10, 20, 110, 120]]

    def test_bad_grounding_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "bbox": [1, 2]}\n')
        with pytest.raises(ValueError, match="bad grounding record"):
            pl.read_grounding_records(path)

    def test_pseudo_label_file_round_trip(self, tmp_path):
        vocab = codec.TokenVocab.default()
        labels = label_set([(4, -2, 120)], [[0.0, 0.0, 50.0, 40.0]], [0.01], [0.2])
        path = tmp_path / "labels.jsonl"
        pl.write_pseudo_labels(path, labels, vocab)
        rec = json.loads(path.read_text().splitlines()[0])
        assert rec["action"] == {"pan": 4, "tilt": -2, "zoom": 120}
        assert rec["tokens"].startswith("<PAN> <+> <2> <2> <TILT>")
        assert_same_labels(pl.read_pseudo_labels(path, vocab), labels)

    def test_read_decodes_each_label_once(self, tmp_path, monkeypatch):
        # the read checks each token string once, against one encode_batch row per
        # label, BLOCK_ROWS rows a call, and decodes nothing; the write encodes likewise
        vocab = codec.TokenVocab.default()
        n = 2 * jsonl.BLOCK_ROWS + 1
        labels = label_set([(i % 1999 - 999, 999 - i % 1999, i % 1000) for i in range(n)],
                           [[0.0, 0.0, 50.0, 40.0]] * n, [0.01] * n, [0.2] * n)
        rows = []
        real = codec.encode_batch
        monkeypatch.setattr(codec, "encode_batch", lambda *a: rows.append(len(a[0])) or real(*a))
        for name in ("encode_action", "decode", "decode_batch"):
            monkeypatch.setattr(codec, name, None)  # none is called
        path = tmp_path / "labels.jsonl"
        pl.write_pseudo_labels(path, labels, vocab)
        blocks = [jsonl.BLOCK_ROWS, jsonl.BLOCK_ROWS, 1]
        assert rows == blocks
        rows.clear()
        assert_same_labels(pl.read_pseudo_labels(path, vocab), labels)
        assert rows == blocks

    # no shrink phase: shrinking a failure over files of up to 2,051 labels took minutes
    @settings(derandomize=True, max_examples=60, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
    @given(
        rows=hst.lists(
            hst.tuples(
                hst.one_of(hst.sampled_from([(999, -999, 999), (-999, 999, 0), (0, 0, 0)]), ACTIONS),
                hst.lists(FLOATS, min_size=4, max_size=4),
                FLOATS,
                FLOATS,
                TEXT,
                TEXT,
            ),
            min_size=1,
            max_size=12,
        ),
        n=hst.sampled_from([0, 1, 7, jsonl.BLOCK_ROWS, jsonl.BLOCK_ROWS + 1, 2 * jsonl.BLOCK_ROWS + 3]),
        vocab=hst.sampled_from([codec.TokenVocab.default(), ODD_VOCAB]),
    )
    def test_written_bytes_equal_the_scalar_codec_rows(self, tmp_path_factory, rows, n, vocab):
        cycled = [rows[i % len(rows)] for i in range(n)]
        boxes = [sorted(b[:2]) + sorted(b[2:]) for _, b, *_ in cycled]
        boxes = [[b[0], b[2], b[1], b[3]] for b in boxes]  # x0 <= x1 and y0 <= y1 when finite
        labels = label_set([r[0] for r in cycled], boxes, [r[2] for r in cycled], [r[3] for r in cycled],
                           [r[4] for r in cycled], [f"{i}:{r[5]}" for i, r in enumerate(cycled)])
        path = tmp_path_factory.mktemp("labels") / "labels.jsonl"
        pl.write_pseudo_labels(path, labels, vocab)
        assert path.read_text(encoding="ascii") == scalar_label_lines(labels, vocab)
        numbers = np.column_stack([labels.boxes, labels.w1, labels.w2])
        if np.isfinite(numbers).all():  # the reader rejects the others
            assert_same_labels(pl.read_pseudo_labels(path, vocab), labels)

    def test_round_file_of_an_out_of_view_box_equals_the_scalar_rows(self, tmp_path):
        scene = cam.sample_targets(6, np.random.default_rng(3))
        samples, _ = st.make_samples(scene, K, seed=1)
        codes = samples.codes.copy()
        boxes = samples.boxes.copy()
        codes[1], boxes[1] = cam.CODE_OUT, 0.0
        samples = replace(samples, boxes=boxes, codes=codes)
        labels = st.pseudolabels(samples, K)
        scalar = [cam.bbox_row(b, c) for b, c in zip(samples.boxes, samples.codes.tolist())]
        assert labels.w2.tolist() == [cam.area_ratio(b, K) for b in scalar]
        assert labels.w2[1] == 0.0 and np.all(labels.w2[[0, 2, 3]] > 0.0)
        assert labels.w1.tolist() == samples.features[:, 2].tolist()
        vocab = codec.TokenVocab.default()
        path = tmp_path / "round1_refined.jsonl"
        pl.write_pseudo_labels(path, labels, vocab)
        assert path.read_text() == scalar_label_lines(labels, vocab)

    def test_vocab_listed_out_of_id_order(self, tmp_path):
        default = codec.TokenVocab.default()
        vocab = codec.TokenVocab(list(reversed(default.tokens)))
        labels = label_set([(23, -8, 0), (-999, 999, 999)], [[0.0, 0.0, 5.0, 4.0]] * 2, [0.01] * 2, [0.2] * 2)
        path = tmp_path / "labels.jsonl"
        pl.write_pseudo_labels(path, labels, vocab)
        assert path.read_text() == scalar_label_lines(labels, default)
        assert_same_labels(pl.read_pseudo_labels(path, vocab), labels)

    GOOD_LABEL = {
        "id": "a", "instruction": "What is the mug?", "action": {"pan": 4, "tilt": -2, "zoom": 120},
        "tokens": "<PAN> <+> <2> <2> <TILT> <-> <2> <ZOOM> <100> <20> <END>",
        "bbox_post": [0.0, 0.0, 50.0, 40.0], "w1": 0.01, "w2": 0.2,
    }
    TOO_LONG = "<PAN> <+> " + "<1> " * 29 + "<2> <TILT> <ZOOM> <END>"  # 35 tokens, 2 above the widest encoding

    @pytest.mark.parametrize("change", [
        {"tokens": "<PAN> <+> <2> <2> <TILT> <-> <2> <ZOOM> <100> <30> <END>"},  # unknown symbol
        {"action": {"pan": 4, "tilt": -2, "zoom": 121}},  # tokens give zoom 120
        {"tokens": "<PAN> <+> <2> <2> <TILT> <-> <2> <ZOOM> <20> <100> <END>"},  # only lenient decoding accepts it
        {"tokens": "<PAN> <+> <2> <1> <1> <TILT> <-> <2> <ZOOM> <100> <20> <END>"},  # <1> <1> for <2>: lenient only
        {"tokens": TOO_LONG, "action": {"pan": 31, "tilt": 0, "zoom": 0}},
        {"action": {"pan": 4.5, "tilt": -2, "zoom": 120}},
        {"action": {"pan": 4.0, "tilt": -2, "zoom": 120}},
        {"action": {"pan": True, "tilt": -2, "zoom": 120}},
        {"action": {"pan": 1000, "tilt": -2, "zoom": 120}},
        {"action": {"pan": 4, "tilt": -2, "zoom": -120}},
        {"bbox_post": [50.0, 0.0, 0.0, 40.0]},
        {"w1": "0.01"},
        {"w2": True},
        {"bbox_post": [0.0, 0.0, 50.0, 40.0, 1.0]},
        {"bbox_post": [0.0, 0.0, "50", 40.0]},
        {"instruction": ["What is the mug?"]},
        {"tokens": ["<PAN>", "<END>"]},
        {"tokens": None},
        {"action": {"pan": 10**30, "tilt": -2, "zoom": 120}},
    ], ids=["unknown-symbol", "disagreeing", "lenient-only", "non-greedy", "too-long", "fractional", "float", "bool",
            "out-of-range", "negative-zoom", "inverted-box", "string-number", "bool-number", "five-entry-box",
            "string-in-box", "list-instruction", "list-tokens", "null-tokens", "huge-integer"])
    def test_bad_label_row_names_path_and_line(self, tmp_path, change):
        vocab = codec.TokenVocab.default()
        good = self.GOOD_LABEL
        assert codec.decode(codec.ids_from_str(good["tokens"], vocab), vocab) == ActionDelta(4, -2, 120)
        assert codec.decode(codec.ids_from_str(good["tokens"].replace("<100> <20>", "<20> <100>"), vocab),
                            vocab, strict=False) == ActionDelta(4, -2, 120)
        path = tmp_path / "labels.jsonl"
        # the blank line puts the bad row, row 1, on line 3
        path.write_text(json.dumps(good) + "\n\n" + json.dumps({**good, "id": "b", **change}) + "\n")
        with pytest.raises(ValueError) as exc:
            pl.read_pseudo_labels(path, vocab)
        assert str(exc.value).startswith(f"{path}:3: ") and str(exc.value).endswith("(bad pseudo-label record)")

    def test_read_peak_memory_stays_below_the_row_tuples(self, tmp_path):
        # Read one tuple per row for the whole file, this file peaked at 8.87 MB
        # under tracemalloc; rows become arrays a block at a time now.
        path = tmp_path / "labels.jsonl"
        write_synth_labels(path, 8000, seed=5)
        tracemalloc.start()
        try:
            labels = pl.read_pseudo_labels(path, codec.TokenVocab.default())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(labels) == 8000
        assert peak <= 8_800_000

    def write_labels(self, path, changes: dict[int, dict], n: int = 8):
        """``n`` good label rows, row i changed by ``changes[i]``, with a blank line first."""
        rows = [{**self.GOOD_LABEL, "id": f"r{i}", **changes.get(i, {})} for i in range(n)]
        path.write_text("\n" + "".join(json.dumps(r) + "\n" for r in rows))

    BAD_TOKENS = {"tokens": "<PAN> <BOGUS> <END>"}
    INVERTED = {"bbox_post": [50.0, 0.0, 0.0, 40.0]}
    LENIENT_ONLY = {"tokens": "<PAN> <+> <2> <2> <TILT> <-> <2> <ZOOM> <20> <100> <END>"}

    @pytest.mark.parametrize("early, late, reason", [
        (BAD_TOKENS, INVERTED, "unknown token '<BOGUS>'"),
        (LENIENT_ONLY, INVERTED, "does not decode strictly"),
        (INVERTED, {"w1": None}, "inverted bbox_post"),
        (LENIENT_ONLY, {"id": "r0"}, "does not decode strictly"),
        ({"w1": "0.01"}, {"tokens": None}, "w1 and w2 must be finite JSON numbers, got '0.01'"),
        ({**INVERTED, "action": {"pan": 4.5, "tilt": -2, "zoom": 120}}, BAD_TOKENS, "pan must be an integer, got 4.5"),
    ], ids=["tokens-then-box", "decode-then-box", "box-then-missing-field", "decode-then-duplicate-id",
            "string-number-then-null-tokens", "two-in-one-row"])
    def test_label_error_names_the_earliest_bad_line(self, tmp_path, early, late, reason):
        # row 1 is on line 3, row 3 on line 5
        vocab = codec.TokenVocab.default()
        path = tmp_path / "labels.jsonl"
        self.write_labels(path, {1: early, 3: late})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*{re.escape(reason)}"):
            pl.read_pseudo_labels(path, vocab)
        self.write_labels(path, {3: late})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: "):
            pl.read_pseudo_labels(path, vocab)

    @pytest.mark.parametrize("late", [{"w1": None}, {"id": "r0"}, INVERTED],
                             ids=["missing-field", "duplicate-id", "box"])
    def test_label_error_in_a_later_block_names_its_line(self, tmp_path, late):
        # a bad row ends its block of rows early, and the rows before it are checked first
        vocab = codec.TokenVocab.default()
        n, block = 2 * jsonl.BLOCK_ROWS + 5, jsonl.BLOCK_ROWS
        path = tmp_path / "labels.jsonl"
        self.write_labels(path, {block - 1: self.LENIENT_ONLY, block + 2: late}, n)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{block + 1}: .*does not decode strictly"):
            pl.read_pseudo_labels(path, vocab)
        self.write_labels(path, {block + 2: self.LENIENT_ONLY, 2 * block + 3: late}, n)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{block + 4}: .*does not decode strictly"):
            pl.read_pseudo_labels(path, vocab)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(name=hst.sampled_from(sorted(READ_VOCABS)), data=hst.data())
    def test_read_accepts_what_the_decoding_token_check_accepted(self, tmp_path_factory, name, data):
        vocab = READ_VOCABS[name]
        rows = data.draw(hst.lists(label_tokens(vocab), min_size=1, max_size=3))
        path = tmp_path_factory.mktemp("labels") / "labels.jsonl"
        # a blank line first puts row i on line i + 2
        path.write_text("\n" + "".join(
            json.dumps({**self.GOOD_LABEL, "id": f"r{i}", "action": dict(zip(pl.HEAD_NAMES, action)), "tokens": text})
            + "\n" for i, (action, text) in enumerate(rows)))
        problems = [(i, reference_label_problem(action, text, vocab)) for i, (action, text) in enumerate(rows)]
        want = next((f"{path}:{i + 2}: {p} (bad pseudo-label record)" for i, p in problems if p is not None), None)
        try:
            labels, got = pl.read_pseudo_labels(path, vocab), None
        except ValueError as exc:
            got = str(exc)
        assert got == want
        if want is None:
            assert labels.actions.tolist() == [list(action) for action, _ in rows]

    GOOD_RECORD = {"id": "a", "image_w": 640, "image_h": 480, "bbox": [100, 100, 200, 180], "phrase": "red mug"}

    @pytest.mark.parametrize("change, reason", [
        ({"bbox": ["100", "100", "200", "180"]}, "bbox numbers must be finite JSON numbers, got '100' at position 0"),
        ({"bbox": [100, True, 200, 180]}, "bbox numbers must be finite JSON numbers, got True at position 1"),
        ({"bbox": [100, 100, 200, 180, 7]}, "expected 4 bbox numbers, got [100, 100, 200, 180, 7]"),
        ({"bbox": [100, 100, 200]}, "expected 4 bbox numbers"),
        ({"bbox": [200, 100, 100, 180]}, "inverted bbox coordinates"),
        ({"phrase": ["red mug"]}, "phrase must be a string, got ['red mug']"),
        ({"image_w": 640.5}, "image_w must be an integer, got 640.5"),
        ({"image_w": 1280.0}, "image_w must be an integer, got 1280.0"),
        ({"image_h": 2**64}, "image_h 18446744073709551616 does not fit in 64 bits"),
        ({"bbox": [100, 100, 10**400, 180]}, "bbox numbers must be finite JSON numbers"),
    ], ids=["string-number", "bool-number", "five-entry-box", "three-entry-box", "inverted-box", "list-phrase",
            "fractional-size", "integral-float-size", "huge-size", "huge-integer"])
    def test_bad_grounding_row_names_path_and_line(self, tmp_path, change, reason):
        path = tmp_path / "records.jsonl"
        rows = [self.GOOD_RECORD, {**self.GOOD_RECORD, "id": "b", **change}]
        path.write_text("\n" + "".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ValueError) as exc:
            pl.read_grounding_records(path)
        assert str(exc.value).startswith(f"{path}:3: {reason}") and str(exc.value).endswith("(bad grounding record)")

    @pytest.mark.parametrize("early, late, reason", [
        ({"bbox": [200, 100, 100, 180]}, {"bbox": [1, 2, 3, math.nan]}, "inverted bbox coordinates"),
        ({"phrase": None}, {"image_w": None}, "phrase must be a string"),
        ({"bbox": ["1", 2, 3, 4]}, {"id": "r0"}, "got '1'"),
        ({"image_h": True}, {"phrase": 7}, "image_h must be an integer, got True"),
        ({"image_w": 6.5, "bbox": [1, 2, 3]}, {}, "expected 4 bbox numbers"),
    ], ids=["box-then-nan", "phrase-then-size", "string-then-duplicate-id", "bool-then-phrase", "two-in-one-row"])
    def test_grounding_error_names_the_earliest_bad_line(self, tmp_path, early, late, reason):
        rows = [{**self.GOOD_RECORD, "id": f"r{i}"} for i in range(6)]
        rows[1].update(early)
        rows[3].update(late)
        path = tmp_path / "records.jsonl"
        path.write_text("\n" + "".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*{re.escape(reason)}"):
            pl.read_grounding_records(path)

    def test_model_file_round_trip(self, tmp_path):
        x, actions = exact_linear_pairs()
        for kind in ("ols_linear", "random_forest"):
            model = pl.fit(x, actions, pl.RegressorConfig(kind=kind, n_trees=5, seed=2))
            path = tmp_path / f"{kind}.json"
            pl.save_model(path, model)
            loaded = pl.load_model(path)
            assert np.allclose(model.predict_batch(x), loaded.predict_batch(x))
            doc = json.loads(path.read_text())
            assert doc["kind"] == kind
            assert doc["config"]["seed"] == 2


class TestModelFileShape:
    """``RandomForest.from_dict`` accepts a forest only when every walk from a
    root ends at a leaf, in bounds; ``load_model`` names the file, the head and
    the tree of one it rejects."""

    @pytest.fixture(scope="class")
    def fitted(self, tmp_path_factory):
        x, actions = exact_linear_pairs()
        path = tmp_path_factory.mktemp("model") / "model.json"
        pl.save_model(path, pl.fit(x, actions, pl.RegressorConfig(kind="random_forest", n_trees=2, seed=2)))
        return json.loads(path.read_text())

    @staticmethod
    def first_inner_and_leaf(tree: dict) -> tuple[int, int]:
        feature = tree["feature"]
        return next(i for i, f in enumerate(feature) if f >= 0), feature.index(-1)

    def load_changed(self, tmp_path, doc: dict, change):
        doc = json.loads(json.dumps(doc))
        change(doc["heads"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc) + "\n")
        return path

    @pytest.mark.parametrize("head, tree, change, reason", [
        ("pan", 0, lambda t, inner, leaf: t["left"].__setitem__(0, 0), "children must be later nodes of the tree"),
        ("pan", 1, lambda t, inner, leaf: t["right"].__setitem__(inner, inner), "children must be later nodes"),
        ("tilt", 0, lambda t, inner, leaf: t["left"].__setitem__(inner, len(t["left"])), "children must be later"),
        ("tilt", 1, lambda t, inner, leaf: t["left"].__setitem__(inner, 10**6), "children must be later nodes"),
        ("zoom", 0, lambda t, inner, leaf: t["right"].__setitem__(leaf, 1), "leaf children must be -1"),
        ("zoom", 1, lambda t, inner, leaf: t["feature"].__setitem__(inner, 3), "features must lie in [-1, 3)"),
        ("zoom", 1, lambda t, inner, leaf: t["feature"].__setitem__(leaf, -2), "features must lie in [-1, 3)"),
        ("pan", 1, lambda t, inner, leaf: t["feature"].__setitem__(inner, 7), "features must lie in [-1, 3)"),
        ("pan", 0, lambda t, inner, leaf: t.__setitem__("value", t["value"][:1]), "arrays must be non-empty lists"),
        ("pan", 0, lambda t, inner, leaf: t.update({k: [] for k in t}), "arrays must be non-empty lists"),
        ("tilt", 0, lambda t, inner, leaf: t.__setitem__("left", 3), "arrays must be non-empty lists"),
        ("pan", 0, lambda t, inner, leaf: t["feature"].__setitem__(inner, "1"), "feature must be an integer, got '1'"),
        ("pan", 0, lambda t, inner, leaf: t["left"].__setitem__(inner, 1.9), "left must be an integer, got 1.9"),
        ("tilt", 0, lambda t, inner, leaf: t["feature"].__setitem__(inner, 1.0), "feature must be an integer, got 1.0"),
        ("pan", 0, lambda t, inner, leaf: t["right"].__setitem__(inner, True), "right must be an integer, got True"),
        ("tilt", 1, lambda t, inner, leaf: t["threshold"].__setitem__(inner, float("nan")),
         "thresholds and values must be finite"),
    ], ids=["self-cycle", "right-onto-itself", "left-past-the-end", "left-far-out", "leaf-with-child",
            "zoom-feature-without-it", "feature-below-minus-one", "feature-seven", "short-values", "empty-tree",
            "left-not-a-list", "string-feature", "fractional-left", "integral-float-feature", "bool-right",
            "nan-threshold"])
    def test_bad_tree_names_file_head_and_tree(self, tmp_path, fitted, head, tree, change, reason):
        def apply(heads):
            t = heads[head]["trees"][tree]
            change(t, *self.first_inner_and_leaf(t))

        path = self.load_changed(tmp_path, fitted, apply)
        # a cycle would make predict walk forever: it must be rejected on load
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {head} tree {tree} .*{re.escape(reason)}"):
            pl.load_model(path)

    @pytest.mark.parametrize("n_trees, trees", [(3, 2), (0, 0), (1.5, 2)], ids=["count-off", "no-trees", "fraction"])
    def test_tree_count_must_match(self, tmp_path, fitted, n_trees, trees):
        def apply(heads):
            heads["tilt"]["n_trees"] = n_trees
            heads["tilt"]["trees"] = heads["tilt"]["trees"][:trees]

        path = self.load_changed(tmp_path, fitted, apply)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: tilt n_trees"):
            pl.load_model(path)

    @pytest.mark.parametrize("key, value, reason", [
        ("max_depth", 2.5, "must be an integer, got 2.5"),
        ("max_depth", "x", "must be an integer, got 'x'"),
        ("max_depth", 0, "must be >= 1, got 0"),
        ("min_samples_leaf", True, "must be an integer, got True"),
        ("min_samples_leaf", -2, "must be >= 1, got -2"),
    ], ids=["fractional-depth", "string-depth", "zero-depth", "bool-leaf", "negative-leaf"])
    def test_bad_forest_header_names_file_head_and_key(self, tmp_path, fitted, key, value, reason):
        path = self.load_changed(tmp_path, fitted, lambda heads: heads["zoom"].__setitem__(key, value))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: zoom {key} {re.escape(reason)}"):
            pl.load_model(path)

    @pytest.mark.parametrize("value", [False, None, True, 0, "false"],
                             ids=["false", "absent", "true", "zero", "string"])
    def test_use_zoom_feature_must_be_absent_or_false(self, tmp_path, fitted, value):
        doc = json.loads(json.dumps(fitted))
        assert "use_zoom_feature" not in doc["config"]
        if value is not None:
            doc["config"]["use_zoom_feature"] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc) + "\n")
        if value is False or value is None:  # what every model file written so far holds, or nothing
            assert pl.load_model(path).forests.keys() == set(pl.HEAD_NAMES)
            return
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: use_zoom_feature must be absent or false"):
            pl.load_model(path)

    @pytest.mark.parametrize("key, value, reason", [
        ("n_trees", -5, "must be >= 1, got -5"),
        ("n_trees", 0, "must be >= 1, got 0"),
        ("max_depth", "x", "must be an integer, got 'x'"),
        ("max_depth", 8.0, "must be an integer, got 8.0"),
        ("min_samples_leaf", 2.5, "must be an integer, got 2.5"),
        ("min_samples_leaf", True, "must be an integer, got True"),
        ("seed", [1], "must be an integer, got [1]"),
        ("seed", -1, "must be >= 0, got -1"),
    ], ids=["negative-trees", "no-trees", "string-depth", "integral-float-depth", "fractional-leaf", "bool-leaf",
            "list-seed", "negative-seed"])
    @pytest.mark.parametrize("kind", ["random_forest", "ols_linear"])
    def test_bad_config_names_file_and_key(self, tmp_path, kind, key, value, reason):
        x, actions = exact_linear_pairs()
        path = tmp_path / "model.json"
        pl.save_model(path, pl.fit(x, actions, pl.RegressorConfig(kind=kind, n_trees=2, seed=2)))
        doc = json.loads(path.read_text())
        doc["config"][key] = value
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: config {key} {re.escape(reason)}"):
            pl.load_model(path)

    @pytest.mark.parametrize("key", ["n_treez", "kind", "use_zoom"])
    @pytest.mark.parametrize("kind", ["random_forest", "ols_linear"])
    def test_unknown_config_key_names_file_and_key(self, tmp_path, kind, key):
        x, actions = exact_linear_pairs()
        path = tmp_path / "model.json"
        pl.save_model(path, pl.fit(x, actions, pl.RegressorConfig(kind=kind, n_trees=2, seed=2)))
        doc = json.loads(path.read_text())
        doc["config"][key] = 3
        path.write_text(json.dumps(doc) + "\n")
        reason = f"config '{key}' is not a model setting; the settings are n_trees, max_depth, min_samples_leaf, seed"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(reason)}"):
            pl.load_model(path)

    @pytest.mark.parametrize("train_r2", [
        {"pan": "x"},
        {"pan": 0.5, "tilt": 0.5, "zoom": "0.5"},
        {"pan": 0.5, "tilt": math.nan, "zoom": 0.5},
        {"pan": 0.5, "tilt": 0.5, "zoom": -math.inf},
        {"pan": 0.5, "tilt": True, "zoom": 0.5},
        {"pan": 0.5, "tilt": 0.5},
        {"pan": 0.5, "tilt": 0.5, "zoom": 0.5, "roll": 0.5},
        [0.5, 0.5, 0.5],
        None,
    ], ids=["one-string-head", "string-zoom", "nan", "minus-inf", "bool", "missing-head", "extra-head", "list", "null"])
    def test_train_r2_must_map_each_head_to_a_finite_number(self, tmp_path, fitted, train_r2):
        doc = json.loads(json.dumps(fitted))
        doc["train_r2"] = train_r2
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc) + "\n")
        reason = "train_r2 must map pan, tilt, zoom each to a finite number"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {reason}"):
            pl.load_model(path)

    @pytest.mark.parametrize("train_r2", [{"pan": 1, "tilt": -3.5, "zoom": 0.25}, "absent"])
    def test_train_r2_of_numbers_or_absent_loads(self, tmp_path, fitted, train_r2):
        doc = json.loads(json.dumps(fitted))
        if train_r2 == "absent":
            del doc["train_r2"]
        else:
            doc["train_r2"] = train_r2
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc) + "\n")
        assert pl.load_model(path).train_r2 == ({} if train_r2 == "absent" else train_r2)

    @pytest.mark.parametrize("config, says", [
        ({"n_trees": 7, "max_depth": 1}, "n_trees=7, max_depth=1, min_samples_leaf=5"),
        ({"min_samples_leaf": 1}, "n_trees=2, max_depth=8, min_samples_leaf=1"),
    ], ids=["trees-and-depth", "leaf"])
    def test_forest_heads_must_be_of_the_config_shape(self, tmp_path, fitted, config, says):
        doc = json.loads(json.dumps(fitted))
        doc["config"].update(config)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc) + "\n")
        reason = ("pan head is a ForestConfig(n_trees=2, max_depth=8, min_samples_leaf=5), "
                  f"where the config says ForestConfig({says})")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(reason)}"):
            pl.load_model(path)

    def test_ols_head_needs_a_coefficient_per_feature(self, tmp_path):
        x, actions = exact_linear_pairs()
        path = tmp_path / "ols.json"
        pl.save_model(path, pl.fit(x, actions, pl.RegressorConfig(kind="ols_linear")))
        doc = json.loads(path.read_text())
        for head in pl.HEAD_NAMES:
            doc["heads"][head]["coef"] = doc["heads"][head]["coef"][:2]
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: each head needs 3 coef numbers"):
            pl.load_model(path)
