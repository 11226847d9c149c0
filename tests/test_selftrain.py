import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from ptzkit import camera as cam
from ptzkit import pseudolabel as pl
from ptzkit import selftrain as st
from ptzkit.camera import BBoxPx, CameraIntrinsics, CameraState
from ptzkit.codec import ActionDelta
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
        relaxed = st.CompletionConfig(require_full_visibility=False)
        assert st.completion(box, K, relaxed)


class TestPolicies:
    def test_oracle_metrics(self, dataset):
        metrics = st.evaluate(st.OraclePolicy(K), dataset, K)
        assert metrics.mae_theta1 == 0.0
        assert metrics.mae_theta2 == 0.0
        assert metrics.mae_zoom == 0.0
        assert metrics.mean_iou == pytest.approx(1.0)
        assert metrics.completion_rate == 1.0

    def test_constant_zero_policy_fails_completion(self, dataset):
        off_center = [s for s in dataset if abs(s.target.azimuth) > 5]
        metrics = st.evaluate(st.ConstantPolicy(ActionDelta(0, 0, 0)), off_center, K)
        assert metrics.completion_rate == 0.0

    def test_noisy_oracle_deterministic_and_order_independent(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=3)
        assert np.array_equal(noisy.actions([dataset[0]]), noisy.actions([dataset[0]]))
        labels_fwd = st.relabel(dataset, noisy)
        labels_rev = list(reversed(st.relabel(list(reversed(dataset)), noisy)))
        assert labels_fwd == labels_rev

    def test_noisy_oracle_seed_matters(self, dataset):
        a = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=3).actions([dataset[0]])[0]
        b = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=4).actions([dataset[0]])[0]
        assert not np.array_equal(a, b)

    def test_noise_magnitude(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=3)
        metrics = st.evaluate(noisy, dataset, K)
        # mean absolute error of N(0, sigma) is sigma * sqrt(2/pi) ~ 0.8 sigma
        assert 2.5 < metrics.mae_theta1 < 5.5
        assert 2.5 < metrics.mae_theta2 < 5.5
        assert 18.0 < metrics.mae_zoom < 32.0

    def test_regressor_policy(self, dataset):
        model = pl.fit(
            [(s.features, s.gt_action) for s in dataset],
            RegressorConfig(kind="random_forest", seed=1),
        )
        metrics = st.evaluate(st.RegressorPolicy(model), dataset, K)
        assert metrics.mean_iou > 0.8

    def test_mae_against_own_labels_is_zero(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=21)
        relabeled = st.relabel(dataset, noisy)
        metrics = st.evaluate(noisy, relabeled, K)
        assert metrics.mae_theta1 == 0.0
        assert metrics.mae_theta2 == 0.0
        assert metrics.mae_zoom == 0.0

    def test_evaluate_empty(self):
        with pytest.raises(ValueError):
            st.evaluate(st.OraclePolicy(K), [], K)


@pytest.fixture(scope="module")
def batch_policies(dataset):
    model = pl.fit(
        [(s.features, s.gt_action) for s in dataset],
        RegressorConfig(kind="random_forest", seed=4, n_trees=5),
    )
    return {
        "regressor": st.RegressorPolicy(model),
        "noisy-oracle": st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=12),
    }


class TestBatchActions:
    @pytest.mark.parametrize("name", ["regressor", "noisy-oracle"])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=hst.data())
    def test_batch_equals_rows_and_ignores_order(self, batch_policies, dataset, name, data):
        policy = batch_policies[name]
        idx = data.draw(hst.lists(hst.integers(0, len(dataset) - 1), min_size=1, max_size=30))
        order = data.draw(hst.permutations(range(len(idx))))
        samples = [dataset[i] for i in idx]
        batch = policy.actions(samples)
        assert batch.dtype == np.int64
        assert np.array_equal(batch, np.concatenate([policy.actions([s]) for s in samples]))
        assert np.array_equal(policy.actions([samples[j] for j in order]), batch[list(order)])

    @pytest.mark.parametrize("scale", [0.0, 2.0])  # 0: every head ties, argmax takes the first bin
    def test_toy_policy_batch_is_per_row_argmax(self, dataset, scale):
        policy = ToyPolicy.init(3)
        rng = np.random.default_rng(5)
        for h in HEADS:
            policy.weights[h] += rng.normal(0, scale, policy.weights[h].shape)
        want = []
        for s in dataset:
            lp = policy.log_probs(s.features.as_array(False))
            want.append([int(policy.bins[h][int(np.argmax(lp[h]))]) for h in HEADS])
        got = st.ToyPolicyAdapter(policy).actions(dataset)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert len({tuple(row) for row in want}) > (1 if scale else 0)

    def test_empty_batch(self, batch_policies):
        for policy in batch_policies.values():
            assert policy.actions([]).shape == (0, 3)

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
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=3)
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
        noisy = st.NoisyOraclePolicy(K, 2.0, 2.0, 10.0, seed=5)
        refined, diag = st.run_round(dataset, noisy, K, 0.0, True)
        assert diag.kept_fraction == 1.0

    def test_monotone_in_threshold(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=6)
        kept_ids = {}
        for threshold in (0.3, 0.7, 0.95):
            refined, _ = st.run_round(dataset, noisy, K, threshold, True)
            kept_ids[threshold] = {s.id for s in refined}
        assert kept_ids[0.95] <= kept_ids[0.7] <= kept_ids[0.3]

    def test_selection_effect_on_mae(self):
        # unbiased noise: the IoU-filtered subset has lower action MAE
        data = make_dataset(1800)
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=7)
        predictions = dict(zip([s.id for s in data], noisy.actions(data)))
        refined, diag = st.run_round(data, noisy, K, 0.7, True)
        assert 0.01 < diag.kept_fraction < 0.95

        def mae(samples):
            errs = [
                np.abs(predictions[s.id] - np.array(s.gt_action.as_tuple()))
                for s in samples
            ]
            return np.mean(errs, axis=0)

        kept_ids = {s.id for s in refined}
        mae_all = mae(data)
        mae_kept = mae([s for s in data if s.id in kept_ids])
        assert np.all(mae_kept < mae_all)

    def test_replace_bbox_flag(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=8)
        kept_on, _ = st.run_round(dataset, noisy, K, 0.5, True)
        kept_off, _ = st.run_round(dataset, noisy, K, 0.5, False)
        originals = {s.id: s for s in dataset}
        assert all(s.gt_bbox_post == originals[s.id].gt_bbox_post for s in kept_on)
        assert any(s.gt_bbox_post != originals[s.id].gt_bbox_post for s in kept_off)

    def test_labels_become_predictions(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=9)
        refined, _ = st.run_round(dataset, noisy, K, 0.0, True)
        for s in refined:
            assert s.gt_action.as_tuple() == tuple(noisy.actions([s])[0].tolist())

    def test_idempotent(self, dataset):
        noisy = st.NoisyOraclePolicy(K, 3.0, 3.0, 15.0, seed=10)
        once, _ = st.run_round(dataset, noisy, K, 0.0, False)
        twice, diag = st.run_round(once, noisy, K, 0.0, False)
        assert twice == once
        assert diag.kept_fraction == 1.0

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            st.run_round([], st.OraclePolicy(K), K, 0.5, True)


class TestIterate:
    def factory(self):
        return st.regressor_policy_factory(
            RegressorConfig(kind="random_forest", seed=3, n_trees=30, max_depth=10, min_samples_leaf=4)
        )

    def test_single_round_threshold_zero_equals_fit_eval(self, dataset):
        train, test = st.split_dataset(dataset, 0.2, seed=1)
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.0,), seed=1)
        reports = st.iterate(train, cfg, self.factory(), K, testset=test)
        direct = st.evaluate(self.factory()(train, 0), test, K)
        assert reports[0].metrics == direct
        assert len(reports) == 2

    def test_round_zero_is_baseline(self, dataset):
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.5,), seed=2)
        reports = st.iterate(dataset, cfg, self.factory(), K)
        assert reports[0].threshold is None
        assert reports[0].kept_fraction == 1.0
        assert reports[1].threshold == 0.5

    def test_empty_filter_aborts_with_context(self, dataset):
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(1.0,), seed=3)

        def bad_factory(samples, round_idx):
            return st.ConstantPolicy(ActionDelta(0, 0, 0))

        with pytest.raises(st.EmptyFilterError) as err:
            st.iterate(dataset, cfg, bad_factory, K)
        assert err.value.round_idx == 1
        assert err.value.threshold == 1.0
        assert "round 1" in str(err.value)

    def test_deterministic(self, dataset):
        cfg = st.IterationConfig(rounds=2, iou_thresholds=(0.5, 0.7), seed=5)
        r1 = st.iterate(dataset, cfg, self.factory(), K)
        r2 = st.iterate(dataset, cfg, self.factory(), K)
        assert r1 == r2

    def test_refit_failure_names_the_round(self, dataset):
        # survivors too few for the forest's leaf size: error carries context
        starving = st.regressor_policy_factory(
            RegressorConfig(kind="random_forest", seed=3, min_samples_leaf=1000)
        )
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.5,), seed=5, refit_each_round=True)
        noisy_factory = lambda samples, r: (
            st.NoisyOraclePolicy(K, 3.0, 3.0, 15.0, seed=6)
            if r == 0
            else starving(samples, r)
        )
        with pytest.raises(ValueError, match="kept only .* refit failed"):
            st.iterate(dataset, cfg, noisy_factory, K)

    def test_threshold_reuse_beyond_list(self):
        cfg = st.IterationConfig(rounds=3, iou_thresholds=(0.3, 0.5), seed=1)
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
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.2,), seed=4)
        noisy_factory = lambda samples, r: st.NoisyOraclePolicy(K, 2.0, 2.0, 10.0, seed=6)
        st.iterate(
            dataset, cfg, noisy_factory, K,
            on_round=lambda r, samples: seen.setdefault(r, len(samples)),
        )
        assert 1 in seen and seen[1] > 0


class TestSelfTrainingTrend:
    def test_noisy_labels_recover(self):
        # the acceptance criterion runs the full-size version of this
        data = make_dataset(700)
        train, test = st.split_dataset(data, 0.15, seed=2)
        noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=3)
        train_noisy = st.relabel(train, noisy)
        factory = st.regressor_policy_factory(
            RegressorConfig(kind="random_forest", seed=7, max_depth=10, min_samples_leaf=4)
        )
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.7,), seed=4)
        reports = st.iterate(train_noisy, cfg, factory, K, testset=test)
        assert reports[1].metrics.mean_iou > reports[0].metrics.mean_iou


class TestSampleFiles:
    def test_round_report_file(self, tmp_path, dataset):
        cfg = st.IterationConfig(rounds=1, iou_thresholds=(0.5,), seed=2)
        factory = st.regressor_policy_factory(
            RegressorConfig(kind="random_forest", seed=3, n_trees=10)
        )
        reports = st.iterate(dataset, cfg, factory, K)
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
        s = dataset[0]
        lab = st.sample_to_pseudolabel(s, K)
        assert lab.record_id == s.id
        assert lab.action == s.gt_action
        assert lab.w2 >= lab.w1
