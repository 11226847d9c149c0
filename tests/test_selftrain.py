import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ptzkit import camera as cam
from ptzkit import pseudolabel as pl
from ptzkit import selftrain as st
from ptzkit.camera import BBoxPx, CameraIntrinsics, CameraState
from ptzkit.codec import ActionDelta, round_actions
from ptzkit.forest import RandomForest
from ptzkit.pseudolabel import RegressorConfig
from ptzkit.rewards import HEADS, ToyPolicy

K = CameraIntrinsics(1280, 720, 60.0)


def make_dataset(n, scene_seed=1, sample_seed=2):
    rng = np.random.default_rng(scene_seed)
    scene = cam.sample_targets(n, rng)
    samples, _ = st.make_samples(scene, K, seed=sample_seed)
    return samples


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(260)


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for f in dataclasses.fields(st.SampleSet):
        assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


def rows_with_ids(dataset, ids):
    """A mask of the dataset rows whose id is in ``ids``."""
    ids = set(ids)
    return np.array([i in ids for i in dataset.ids], dtype=bool)


def reference_completion(b: BBoxPx, k: CameraIntrinsics, cfg: st.CompletionConfig) -> bool:
    """The completion rule on one box, as it was written before its array form."""
    if b.visibility != cam.VISIBILITY_FULL or b.is_empty():
        return False
    cx, cy = b.center()
    dx = cx - k.image_w / 2.0
    dy = cy - k.image_h / 2.0
    if (dx * dx + dy * dy) ** 0.5 > cfg.center_frac * min(k.image_w, k.image_h):
        return False
    return cam.area_ratio(b, k) >= cfg.min_area_ratio


_MASK_64 = (1 << 64) - 1


def _reference_mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK_64
    return z ^ (z >> 31)


def reference_normals(seed: int, sample_id: str) -> list[float]:
    """One sample's three keyed standard normals, one value at a time, in
    masked Python ints and ``math``: SplitMix64 from (blake2b key xor the
    seed's mix), four uniforms (top 52 bits + 1/2) / 2**52, Box-Muller."""
    key = int.from_bytes(hashlib.blake2b(sample_id.encode("utf-8"), digest_size=8).digest(), "big")
    state = key ^ _reference_mix64(seed & _MASK_64)
    bits = [_reference_mix64((state + j * 0x9E3779B97F4A7C15) & _MASK_64) for j in (1, 2, 3, 4)]
    u = [((b >> 12) + 0.5) * 2.0**-52 for b in bits]
    r1, r3 = math.sqrt(-2.0 * math.log(u[0])), math.sqrt(-2.0 * math.log(u[2]))
    t2, t4 = 2.0 * math.pi * u[1], 2.0 * math.pi * u[3]
    return [r1 * math.cos(t2), r1 * math.sin(t2), r3 * math.cos(t4)]


@hst.composite
def _free_box(draw):
    x0, x1 = sorted(draw(hst.floats(-200.0, 1500.0)) for _ in range(2))
    y0, y1 = sorted(draw(hst.floats(-200.0, 1000.0)) for _ in range(2))
    return x0, y0, x1, y1, draw(hst.sampled_from(range(3)))


@hst.composite
def _limit_box(draw):
    # boxes on the limits of K at the default config: a centre 72 px from the
    # image centre along an axis, or an area of exactly a quarter of the frame
    w, h = draw(hst.sampled_from([(640.0, 360.0), (480.0, 480.0), (100.0, 60.0), (640.0, 359.0)]))
    off = draw(hst.sampled_from([0.0, 72.0, -72.0, 71.5, 72.5]))
    cx, cy = (640.0 + off, 360.0) if draw(hst.booleans()) else (640.0, 360.0 + off)
    return cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, draw(hst.sampled_from([0, 0, 1]))


FREE_BOX = _free_box()
LIMIT_BOX = _limit_box()


class TestCompletion:
    def test_centered_large_box(self):
        assert st.completion(BBoxPx(340, 110, 940, 610), K)

    def test_out_of_view(self):
        assert not st.completion(BBoxPx.empty(), K)

    def test_too_small(self):
        # centered but only 10% of the frame
        assert not st.completion(BBoxPx(487, 274, 792, 446), K)

    def test_off_center(self):
        assert not st.completion(BBoxPx(0, 0, 640, 520), K)

    def test_clipped_rejected_by_default(self):
        box = BBoxPx(0, 0, 1280, 700, cam.VISIBILITY_CLIPPED)
        assert not st.completion(box, K)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        boxes=hst.lists(hst.one_of(FREE_BOX, LIMIT_BOX), min_size=1, max_size=12),
        center_frac=hst.sampled_from([0.1, 0.0, 0.05, 0.37]),
        min_area=hst.sampled_from([0.25, 0.0, 0.1, 1.0]),
    )
    def test_rows_equal_the_scalar_rule(self, boxes, center_frac, min_area):
        cfg = st.CompletionConfig(center_frac, min_area)
        coords = np.array([b[:4] for b in boxes], dtype=np.float64)
        codes = np.array([b[4] for b in boxes], dtype=np.int8)
        got = st.completion_batch(coords, codes, K, cfg)
        want = [reference_completion(cam.bbox_row(c, code), K, cfg) for c, code in zip(coords, codes.tolist())]
        assert got.tolist() == want

    def test_limits_are_inside(self):
        # centre exactly 72 px (0.1 of the short side) off, area exactly a quarter of the frame
        coords = np.array([[392.0, 180.0, 1032.0, 540.0], [400.0, 192.0, 880.0, 672.0], [640.0, 180.0, 1280.0, 540.0]])
        got = st.completion_batch(coords, np.zeros(3, dtype=np.int8), K)
        assert got.tolist() == [True, True, False]

    def test_centre_distance_rounds_as_the_scalar_rule(self):
        # a distance whose np.sqrt and ``** 0.5`` differ in the last bit, with
        # the limit on the lower of the two: only the scalar rounding agrees
        k = CameraIntrinsics(2, 2, 60.0)
        rng = np.random.default_rng(0)
        for _ in range(100_000):
            x0, y0 = rng.uniform(1.0, 1000.0, size=2).tolist()
            box = BBoxPx(x0, y0, x0 + 0.5, y0 + 0.5)
            dx, dy = (v - 1.0 for v in box.center())
            d2 = dx * dx + dy * dy
            if np.sqrt(d2) != d2**0.5:
                break
        cfg = st.CompletionConfig(min(float(np.sqrt(d2)), d2**0.5) / 2.0, 0.0)
        assert st.completion_batch(*cam.bbox_arrays([box]), k, cfg).tolist() == [reference_completion(box, k, cfg)]


class TestPolicies:
    def test_oracle_metrics(self, dataset):
        metrics = st.evaluate(st.OraclePolicy(K), dataset, K)
        assert metrics.mae_theta1 == 0.0
        assert metrics.mae_theta2 == 0.0
        assert metrics.mae_zoom == 0.0
        assert metrics.mean_iou == pytest.approx(1.0)
        assert metrics.completion_rate == 1.0

    def test_constant_zero_policy_fails_completion(self, dataset):
        off_center = dataset[np.abs(dataset.geometry[:, 0]) > 5]
        metrics = st.evaluate(st.ConstantPolicy(ActionDelta(0, 0, 0)), off_center, K)
        assert metrics.completion_rate == 0.0

    def test_noisy_oracle_deterministic_and_order_independent(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=3)
        assert np.array_equal(noisy.actions(dataset[:1]), noisy.actions(dataset[:1]))
        labels_fwd = st.relabel(dataset, noisy)
        labels_rev = st.relabel(dataset[::-1], noisy)[::-1]
        assert_same_samples(labels_fwd, labels_rev)

    def test_noisy_oracle_seed_matters(self, dataset):
        a = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=3).actions(dataset[:1])[0]
        b = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=4).actions(dataset[:1])[0]
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("sigma_angle, sigma_zoom", [(5.0, 30.0), (0.0, 30.0), (3.0, 0.0), (0.0, 0.0)])
    def test_noisy_oracle_equals_a_normal_draw_per_sample(self, dataset, sigma_angle, sigma_zoom):
        # the reference: each sample's three normals from its own scalar stream, times sigma
        sigma = [sigma_angle, sigma_angle, sigma_zoom]
        noise = np.array([[z * s for z, s in zip(reference_normals(8, i), sigma)] for i in dataset.ids])
        # bit for bit, the sign of a zero (z * 0.0) included
        got = st._keyed_normals(8, dataset.ids) * np.array(sigma)
        assert np.array_equal(got.view(np.int64), noise.view(np.int64))
        want = round_actions(st._oracle_batch(dataset, K, st.DEFAULT_FILL_RATIO) + noise)
        assert np.array_equal(st.NoisyOraclePolicy(K, sigma_angle, sigma_zoom, seed=8).actions(dataset), want)

    def test_noisy_oracle_of_a_subset_is_the_same_rows(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=3)
        rows = np.random.default_rng(4).permutation(len(dataset))[: len(dataset) // 3]
        assert np.array_equal(noisy.actions(dataset[rows]), noisy.actions(dataset)[rows])
        full = st._keyed_normals(3, dataset.ids)
        assert np.array_equal(st._keyed_normals(3, dataset.ids[rows]).view(np.int64), full[rows].view(np.int64))

    def test_keyed_normals_moments(self):
        # 10^5 ids named as scenes name targets; each bound is about 4.5
        # standard errors of its statistic
        n = 100_000
        z = st._keyed_normals(11, [f"t{i:05d}" for i in range(n)])
        se = 1.0 / math.sqrt(n)
        assert np.all(np.abs(z.mean(axis=0)) < 4.5 * se)
        assert np.all(np.abs(z.var(axis=0) - 1.0) < 4.5 * math.sqrt(2.0) * se)
        across = np.corrcoef(z.T)[np.triu_indices(3, 1)]
        assert np.all(np.abs(across) < 4.5 * se)
        # neighbouring ids (t00001 and t00002, ...) in each column
        neighbours = [np.corrcoef(z[:-1, c], z[1:, c])[0, 1] for c in range(3)]
        assert np.all(np.abs(neighbours) < 4.5 * se)
        assert np.all(np.isfinite(z)) and np.abs(z).max() < 8.6  # sqrt(-2 ln 2**-53)

    def test_huge_noise_saturates_at_the_clamp(self, dataset):
        # sigma * z overflows to +/-inf; the sum saturates at the codec range, unwarned
        actions = st.NoisyOraclePolicy(K, 1e308, 1e308, seed=2).actions(dataset)
        z = st._keyed_normals(2, dataset.ids)
        want = np.where(z > 0, 999, np.where(z < 0, -999, st._oracle_batch(dataset, K, st.DEFAULT_FILL_RATIO)))
        want[:, 2] = np.maximum(want[:, 2], 0)
        assert np.array_equal(actions, want)
        assert set(actions[:, :2].ravel().tolist()) == {-999, 999} and set(actions[:, 2].tolist()) == {0, 999}

    def test_noise_magnitude(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=3)
        metrics = st.evaluate(noisy, dataset, K)
        # mean absolute error of N(0, sigma) is sigma * sqrt(2/pi) ~ 0.8 sigma
        assert 2.5 < metrics.mae_theta1 < 5.5
        assert 2.5 < metrics.mae_theta2 < 5.5
        assert 18.0 < metrics.mae_zoom < 32.0

    def test_regressor_policy(self, dataset):
        model = pl.fit(dataset.features, dataset.actions, RegressorConfig(kind="random_forest", seed=1))
        metrics = st.evaluate(st.RegressorPolicy(model), dataset, K)
        assert metrics.mean_iou > 0.8

    def test_mae_against_own_labels_is_zero(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=21)
        relabeled = st.relabel(dataset, noisy)
        metrics = st.evaluate(noisy, relabeled, K)
        assert metrics.mae_theta1 == 0.0
        assert metrics.mae_theta2 == 0.0
        assert metrics.mae_zoom == 0.0

    def test_evaluate_empty(self, dataset):
        with pytest.raises(ValueError):
            st.evaluate(st.OraclePolicy(K), dataset[:0], K)


@pytest.fixture(scope="module")
def batch_policies(dataset):
    model = pl.fit(dataset.features, dataset.actions, RegressorConfig(kind="random_forest", seed=4, n_trees=5))
    return {
        "regressor": st.RegressorPolicy(model),
        "noisy-oracle": st.NoisyOraclePolicy(K, 5.0, 30.0, seed=12),
    }


class TestBatchActions:
    @pytest.mark.parametrize("name", ["regressor", "noisy-oracle"])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=hst.data())
    def test_batch_equals_rows_and_ignores_order(self, batch_policies, dataset, name, data):
        policy = batch_policies[name]
        idx = data.draw(hst.lists(hst.integers(0, len(dataset) - 1), min_size=1, max_size=30))
        order = data.draw(hst.permutations(range(len(idx))))
        samples = dataset[idx]
        batch = policy.actions(samples)
        assert batch.dtype == np.int64
        assert np.array_equal(batch, np.concatenate([policy.actions(samples[j : j + 1]) for j in range(len(idx))]))
        assert np.array_equal(policy.actions(samples[list(order)]), batch[list(order)])

    @pytest.mark.parametrize("scale", [0.0, 2.0])  # 0: every head ties, argmax takes the first bin
    def test_toy_policy_batch_is_per_row_argmax(self, dataset, scale):
        policy = ToyPolicy.init(3)
        rng = np.random.default_rng(5)
        for h in HEADS:
            policy.weights[h] += rng.normal(0, scale, policy.weights[h].shape)
        want = []
        for f in dataset.features[:, :3]:
            lp = policy.log_probs(f)
            want.append([int(policy.bins[h][int(np.argmax(lp[h]))]) for h in HEADS])
        got = st.ToyPolicyAdapter(policy).actions(dataset)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert len({tuple(row) for row in want}) > (1 if scale else 0)

    def test_empty_batch(self, batch_policies, dataset):
        for policy in batch_policies.values():
            assert policy.actions(dataset[:0]).shape == (0, 3)

    def test_one_forest_call_per_head(self, batch_policies, dataset, monkeypatch):
        calls = []
        real_predict = RandomForest.predict
        monkeypatch.setattr(
            RandomForest, "predict", lambda self, x: calls.append(len(x)) or real_predict(self, x)
        )
        policy = batch_policies["regressor"]
        st.run_round(dataset, policy, K, 0.5, True)
        assert calls == [len(dataset)] * 3
        calls.clear()
        st.evaluate(policy, dataset, K)
        assert calls == [len(dataset)] * 3

    def test_relabel_projects_nothing(self, dataset, monkeypatch):
        rows = []
        monkeypatch.setattr(
            st, "project_batch", lambda *a: rows.append(len(a[0])) or cam.project_batch(*a)
        )
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=3)
        st.relabel(dataset, noisy)
        assert rows == []
        # the counter is live: a filter round projects every sample once
        st.run_round(dataset, noisy, K, 0.5, True)
        assert sum(rows) == len(dataset)


class TestRunRound:
    def test_oracle_keeps_all(self, dataset):
        refined, diag = st.run_round(dataset, st.OraclePolicy(K), K, 0.9, True)
        assert diag.kept_fraction == 1.0
        assert diag.mean_iou_all == pytest.approx(1.0)
        assert len(refined) == len(dataset)

    def test_threshold_zero_keeps_overlapping(self, dataset):
        # small noise: threshold 0 keeps exactly the samples whose box still
        # overlaps the target's, which is nearly all of them
        noisy = st.NoisyOraclePolicy(K, 2.0, 10.0, seed=5)
        refined, diag = st.run_round(dataset, noisy, K, 0.0, True)
        overlaps, _, _ = st._simulate_bboxes(dataset, noisy.actions(dataset), K)
        assert refined.ids.tolist() == dataset.ids[overlaps > 0.0].tolist()
        assert diag.n_kept == np.count_nonzero(overlaps > 0.0)
        assert diag.kept_fraction > 0.99

    def test_monotone_in_threshold(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=6)
        kept_ids = {}
        for threshold in (0.3, 0.7, 0.95):
            refined, _ = st.run_round(dataset, noisy, K, threshold, True)
            kept_ids[threshold] = set(refined.ids)
        assert kept_ids[0.95] <= kept_ids[0.7] <= kept_ids[0.3]

    def test_selection_effect_on_mae(self):
        # unbiased noise: the IoU-filtered subset has lower action MAE
        data = make_dataset(1800)
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=7)
        errs = np.abs(noisy.actions(data) - data.actions)
        refined, diag = st.run_round(data, noisy, K, 0.7, True)
        assert 0.01 < diag.kept_fraction < 0.95
        mae_all = np.mean(errs, axis=0)
        mae_kept = np.mean(errs[rows_with_ids(data, refined.ids)], axis=0)
        assert np.all(mae_kept < mae_all)

    def test_replace_bbox_flag(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=8)
        kept_on, _ = st.run_round(dataset, noisy, K, 0.5, True)
        kept_off, _ = st.run_round(dataset, noisy, K, 0.5, False)
        on, off = rows_with_ids(dataset, kept_on.ids), rows_with_ids(dataset, kept_off.ids)
        assert np.array_equal(kept_on.boxes, dataset.boxes[on]) and np.array_equal(kept_on.codes, dataset.codes[on])
        assert not np.array_equal(kept_off.boxes, dataset.boxes[off])

    def test_labels_become_predictions(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=9)
        refined, _ = st.run_round(dataset, noisy, K, 0.0, True)
        for j in range(len(refined)):
            assert refined.actions[j].tolist() == noisy.actions(refined[j : j + 1])[0].tolist()

    def test_idempotent(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 3.0, 15.0, seed=10)
        once, _ = st.run_round(dataset, noisy, K, 0.0, False)
        twice, diag = st.run_round(once, noisy, K, 0.0, False)
        assert_same_samples(twice, once)
        assert diag.kept_fraction == 1.0

    def test_empty_dataset(self, dataset):
        with pytest.raises(ValueError):
            st.run_round(dataset[:0], st.OraclePolicy(K), K, 0.5, True)


class TestSplitDataset:
    def test_partitions_in_order(self, dataset):
        train, test = st.split_dataset(dataset, 0.2, seed=1)
        assert len(test) == round(0.2 * len(dataset))
        test_ids = set(test.ids)
        assert not test_ids & set(train.ids)
        assert_same_samples(test, dataset[rows_with_ids(dataset, test_ids)])
        assert_same_samples(train, dataset[~rows_with_ids(dataset, test_ids)])

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_fraction_outside_open_unit_interval(self, dataset, fraction):
        with pytest.raises(ValueError, match=r"test_fraction must be in \(0, 1\)"):
            st.split_dataset(dataset, fraction, seed=1)


class TestIterate:
    def factory(self):
        return st.regressor_policy_factory(
            RegressorConfig(kind="random_forest", seed=3, n_trees=30, max_depth=10, min_samples_leaf=4)
        )

    def test_single_round_threshold_zero_equals_fit_eval(self, dataset):
        train, test = st.split_dataset(dataset, 0.2, seed=1)
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.0,))
        reports = st.iterate(train, test, cfg, self.factory(), K)
        direct = st.evaluate(self.factory()(train, 0), test, K)
        assert reports[0].metrics == direct
        assert len(reports) == 2

    def test_round_zero_is_baseline(self, dataset):
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.5,))
        reports = st.iterate(*st.split_dataset(dataset, 0.1, seed=2), cfg, self.factory(), K)
        assert reports[0].threshold is None
        assert reports[0].kept_fraction == 1.0
        assert reports[1].threshold == 0.5

    def test_empty_filter_aborts_with_context(self, dataset):
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(1.0,))

        def bad_factory(samples, round_idx):
            return st.ConstantPolicy(ActionDelta(0, 0, 0))

        with pytest.raises(st.EmptyFilterError) as err:
            st.iterate(*st.split_dataset(dataset, 0.1, seed=3), cfg, bad_factory, K)
        assert err.value.round_idx == 1
        assert err.value.threshold == 1.0
        assert "round 1" in str(err.value)

    def test_deterministic(self, dataset):
        cfg = st.IterationConfig(rounds=2, iou_thresholds=(0.5, 0.7))
        r1 = st.iterate(*st.split_dataset(dataset, 0.1, seed=5), cfg, self.factory(), K)
        r2 = st.iterate(*st.split_dataset(dataset, 0.1, seed=5), cfg, self.factory(), K)
        assert r1 == r2

    def test_refit_failure_names_the_round(self, dataset):
        # survivors too few for the forest's leaf size: error carries context
        starving = st.regressor_policy_factory(
            RegressorConfig(kind="random_forest", seed=3, min_samples_leaf=1000)
        )
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.5,))
        noisy_factory = lambda samples, r: (
            st.NoisyOraclePolicy(K, 3.0, 15.0, seed=6)
            if r == 0
            else starving(samples, r)
        )
        with pytest.raises(ValueError, match="kept only .* refit failed"):
            st.iterate(*st.split_dataset(dataset, 0.1, seed=5), cfg, noisy_factory, K)

    def test_threshold_reuse_beyond_list(self):
        cfg = st.IterationConfig(rounds=3, iou_thresholds=(0.3, 0.5))
        assert cfg.threshold_for_round(1) == 0.3
        assert cfg.threshold_for_round(2) == 0.5
        assert cfg.threshold_for_round(3) == 0.5

    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            st.IterationConfig(rounds=0)
        with pytest.raises(ValueError):
            st.IterationConfig(rounds=3, iou_thresholds=(0.5,))
        with pytest.raises(ValueError):
            st.IterationConfig(iou_thresholds=(1.5, 0.5))

    def test_on_round_callback(self, dataset):
        seen = {}
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.2,))
        noisy_factory = lambda samples, r: st.NoisyOraclePolicy(K, 2.0, 10.0, seed=6)
        st.iterate(
            *st.split_dataset(dataset, 0.1, seed=4), cfg, noisy_factory, K,
            on_round=lambda r, samples: seen.setdefault(r, len(samples)),
        )
        assert 1 in seen and seen[1] > 0


class TestSelfTrainingTrend:
    def test_noisy_labels_recover(self):
        # the acceptance criterion runs the full-size version of this
        data = make_dataset(700)
        train, test = st.split_dataset(data, 0.15, seed=2)
        noisy = st.NoisyOraclePolicy(K, 5.0, 30.0, seed=3)
        train_noisy = st.relabel(train, noisy)
        factory = st.regressor_policy_factory(
            RegressorConfig(kind="random_forest", seed=7, max_depth=10, min_samples_leaf=4)
        )
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.7,))
        reports = st.iterate(train_noisy, test, cfg, factory, K)
        assert reports[1].metrics.mean_iou > reports[0].metrics.mean_iou


class TestSampleFiles:
    def test_round_report_file(self, tmp_path, dataset):
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.5,))
        factory = st.regressor_policy_factory(
            RegressorConfig(kind="random_forest", seed=3, n_trees=10)
        )
        reports = st.iterate(*st.split_dataset(dataset, 0.1, seed=2), cfg, factory, K)
        path = tmp_path / "report.jsonl"
        st.write_round_reports(path, reports)
        import json

        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["round"] == 0
        assert rows[0]["threshold"] is None
        assert set(rows[0]) == {
            "round", "threshold", "kept_fraction", "n_total", "n_kept",
            "mean_iou_all", "mean_iou_kept", "mean_iou",
            "mae_theta1", "mae_theta2", "mae_zoom", "cr",
        }
        assert all(rows[0][key] is None for key in ("n_total", "n_kept", "mean_iou_all", "mean_iou_kept"))
        diag = reports[1].diagnostics
        assert rows[1]["n_total"] == diag.n_total > 0
        assert rows[1]["n_kept"] == diag.n_kept
        assert rows[1]["kept_fraction"] == diag.n_kept / diag.n_total
        assert rows[1]["mean_iou_kept"] == diag.mean_iou_kept > 0.5

    def test_pseudolabel_conversion(self, dataset):
        labels = st.pseudolabels(dataset[:1], K)
        assert len(labels) == 1 and labels.ids[0] == dataset.ids[0]
        assert labels.actions.tolist() == dataset.actions[:1].tolist()
        assert labels.w2[0] >= labels.w1[0]


class TestSampleSet:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=hst.data())
    def test_rows_are_the_parent_rows_in_order(self, dataset, data):
        n = len(dataset)
        if data.draw(hst.booleans(), label="by mask"):
            rows = np.array(data.draw(hst.lists(hst.booleans(), min_size=n, max_size=n)), dtype=bool)
            order = np.flatnonzero(rows).tolist()
        else:  # indices, repeats allowed
            order = data.draw(hst.lists(hst.integers(0, n - 1), max_size=40))
            rows = np.array(order, dtype=np.int64)
        got = dataset[rows]
        assert len(got) == len(order)
        for f in dataclasses.fields(st.SampleSet):
            parent, child = getattr(dataset, f.name), getattr(got, f.name)
            assert child.dtype == parent.dtype and child.shape == (len(order),) + parent.shape[1:]
            for j, i in enumerate(order):
                if parent.dtype == object:
                    assert child[j] is parent[i]
                else:
                    assert child[j].tobytes() == parent[i].tobytes()

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(st.SampleSet)])
    def test_fields_of_unequal_length_rejected(self, dataset, name):
        with pytest.raises(ValueError, match="disagree on the number of rows"):
            dataclasses.replace(dataset, **{name: getattr(dataset, name)[:-1]})
