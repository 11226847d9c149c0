import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ptzkit import camera as cam
from ptzkit import rewards as rw
from ptzkit import selftrain as st
from ptzkit.camera import BBoxPx, CameraIntrinsics
from ptzkit.codec import ActionDelta

K = CameraIntrinsics(1280, 720, 60.0)
CFG = rw.RewardConfig()


def with_seam_task(tasks):
    """The tasks plus a copy of the first that starts near the pan seam with
    zoom already in, so pans wrap and zoom clamps."""
    seam = dataclasses.replace(tasks[:1], pose=np.array([[179.37, 3.5, 980.25]]))
    return st.SampleSet(
        *(np.concatenate([getattr(tasks, f.name), getattr(seam, f.name)]) for f in dataclasses.fields(st.SampleSet))
    )


def one_by_one(tasks):
    """Each task as a one-row ``SampleSet``, in order."""
    return [tasks[i : i + 1] for i in range(len(tasks))]


class TestAngleReward:
    def test_zero_error(self):
        assert rw.angle_reward(10.0, 10.0, CFG) == 1.0

    def test_tolerance_boundary(self):
        assert rw.angle_reward(1.0, 0.0, CFG) == 0.0

    def test_penalty_saturates(self):
        assert rw.angle_reward(11.0, 0.0, CFG) == -1.0
        assert rw.angle_reward(50.0, 0.0, CFG) == -1.0

    def test_continuity_at_tolerance(self):
        eps = 1e-9
        inside = rw.angle_reward(CFG.angle_tol - eps, 0.0, CFG)
        outside = rw.angle_reward(CFG.angle_tol + eps, 0.0, CFG)
        assert abs(inside) < 1e-8
        assert abs(outside) < 1e-8
        assert abs(inside - outside) < 1e-8

    def test_symmetric(self):
        assert rw.angle_reward(3.0, 5.0, CFG) == rw.angle_reward(5.0, 3.0, CFG)

    def test_bounded(self):
        for e in np.linspace(-40, 40, 201):
            assert -1.0 <= rw.angle_reward(e, 0.0, CFG) <= 1.0


class TestZoomReward:
    def test_exact(self):
        assert rw.zoom_reward(100.0, 100.0, CFG) == 1.0

    def test_band_bottom(self):
        assert rw.zoom_reward(50.0, 100.0, CFG) == 0.0

    def test_overshoot_saturates(self):
        assert rw.zoom_reward(150.0, 100.0, CFG) == -1.0

    def test_undershoot_below_band(self):
        assert rw.zoom_reward(25.0, 100.0, CFG) == pytest.approx(-0.5)

    def test_continuity_at_band_bottom(self):
        eps = 1e-9
        gt = 200.0
        inside = rw.zoom_reward(gt - CFG.zoom_band + eps, gt, CFG)
        outside = rw.zoom_reward(gt - CFG.zoom_band - eps, gt, CFG)
        assert abs(inside) < 1e-8
        assert abs(outside) < 1e-8

    def test_bounded(self):
        for p in np.linspace(0, 400, 401):
            assert -1.0 <= rw.zoom_reward(p, 180.0, CFG) <= 1.0


class TestCompositeReward:
    def test_perfect_prediction(self):
        a = ActionDelta(5, -3, 120)
        box = BBoxPx(100, 100, 400, 300)
        breakdown = rw.composite_reward(a, a, box, box, CFG)
        assert breakdown.total == 1.0

    def test_disjoint_boxes_only(self):
        a = ActionDelta(5, -3, 120)
        breakdown = rw.composite_reward(
            a, a, BBoxPx(0, 0, 10, 10), BBoxPx(50, 50, 60, 60), CFG
        )
        assert breakdown.r_iou == 0.0
        assert breakdown.total == pytest.approx(3 / 4)

    def test_total_is_mean_identity(self):
        breakdown = rw.RewardBreakdown(-1.0, -1.0, -1.0, -1.0)
        assert breakdown.total == -1.0
        breakdown = rw.RewardBreakdown(0.25, 0.5, -0.5, 1.0)
        assert breakdown.total == (0.25 + 0.5 - 0.5 + 1.0) / 4

    def test_bounds(self):
        rng = np.random.default_rng(6)
        gt_box = BBoxPx(300, 200, 700, 500)
        for _ in range(100):
            pred = ActionDelta(int(rng.integers(-30, 31)), int(rng.integers(-30, 31)), int(rng.integers(0, 300)))
            gt = ActionDelta(int(rng.integers(-30, 31)), int(rng.integers(-30, 31)), int(rng.integers(0, 300)))
            x0, y0 = rng.uniform(0, 600, 2)
            pred_box = BBoxPx(x0, y0, x0 + rng.uniform(10, 400), y0 + rng.uniform(10, 200))
            breakdown = rw.composite_reward(pred, gt, pred_box, gt_box, CFG)
            for term in (breakdown.r_iou, breakdown.r_theta1, breakdown.r_theta2, breakdown.r_zoom):
                assert -1.0 <= term <= 1.0
            assert -1.0 <= breakdown.total <= 1.0


class TestGroupAdvantages:
    def test_all_equal(self):
        assert rw.group_advantages([0.5, 0.5, 0.5]) == [0.0, 0.0, 0.0]

    def test_two_point(self):
        adv = rw.group_advantages([0.0, 1.0])
        assert adv[0] == pytest.approx(-1.0, abs=1e-6)
        assert adv[1] == pytest.approx(1.0, abs=1e-6)

    def test_three_point_frozen(self):
        adv = rw.group_advantages([1.0, 2.0, 3.0])
        # population std sqrt(2/3); frozen from direct computation
        assert adv == pytest.approx([-1.224744871391589, 0.0, 1.224744871391589], abs=1e-6)

    def test_mean_zero_unit_std(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rewards = list(rng.normal(size=8))
            adv = rw.group_advantages(rewards, std_guard=1e-12)
            assert float(np.mean(adv)) == pytest.approx(0.0, abs=1e-12)
            assert float(np.std(adv)) == pytest.approx(1.0, abs=1e-9)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            rw.group_advantages([1.0])


def small_policy(seed=0, scale=0.3):
    bins = {
        "pan": np.arange(-2, 3),
        "tilt": np.arange(-2, 3),
        "zoom": np.arange(0, 50, 10),
    }
    policy = rw.ToyPolicy.init(3, bins)
    rng = np.random.default_rng(seed)
    for h in rw.HEADS:
        policy.weights[h] += rng.normal(0, scale, policy.weights[h].shape)
    return policy


@dataclasses.dataclass
class Rollout:
    """One hand-built rollout of a test group."""

    action: ActionDelta
    bins: tuple[int, int, int]
    logp_old: float
    reward: float
    advantage: float


@dataclasses.dataclass
class Group:
    """One prompt's hand-built rollouts plus its log-probabilities, as tests write them."""

    prompt_id: str
    features: np.ndarray
    rollouts: list[Rollout]
    cur_log_probs: dict[str, np.ndarray]
    ref_log_probs: dict[str, np.ndarray]
    gt_action: ActionDelta | None = None


def batch_of(groups):
    """The ``RolloutBatch`` of hand-built groups, their rows stacked in order."""
    rows = [g.rollouts for g in groups]
    gt = [g.gt_action for g in groups]
    return rw.RolloutBatch(
        features=np.stack([np.asarray(g.features, dtype=np.float64) for g in groups]),
        bins=np.array([[r.bins for r in rs] for rs in rows], dtype=np.int64),
        actions=np.array([[r.action.as_tuple() for r in rs] for rs in rows], dtype=np.int64),
        logp_old=np.array([[r.logp_old for r in rs] for rs in rows], dtype=np.float64),
        rewards=np.array([[r.reward for r in rs] for rs in rows], dtype=np.float64),
        advantages=np.array([[r.advantage for r in rs] for rs in rows], dtype=np.float64),
        cur_log_probs={h: np.stack([g.cur_log_probs[h] for g in groups]) for h in rw.HEADS},
        ref_log_probs={h: np.stack([g.ref_log_probs[h] for g in groups]) for h in rw.HEADS},
        gt_actions=None if None in gt else np.array([a.as_tuple() for a in gt], dtype=np.int64),
    )


def group_of(batch):
    """The one group of a one-prompt ``RolloutBatch``, in hand-built form."""
    rollouts = [
        Rollout(ActionDelta(*a), tuple(b), lp, r, adv)
        for a, b, lp, r, adv in zip(
            batch.actions[0].tolist(), batch.bins[0].tolist(), batch.logp_old[0].tolist(),
            batch.rewards[0].tolist(), batch.advantages[0].tolist(),
        )
    ]
    gt = None if batch.gt_actions is None else ActionDelta(*batch.gt_actions[0].tolist())
    return Group(
        "q", batch.features[0], rollouts,
        {h: batch.cur_log_probs[h][0] for h in rw.HEADS}, {h: batch.ref_log_probs[h][0] for h in rw.HEADS}, gt,
    )


def synthetic_group(policy, rng, cfg, ref=None, ratio_noise=0.3):
    """A rollout group with stored behavior log-probs offset to vary s_i."""
    feats = rng.normal(0, 1, 3)
    cur_lp = policy.log_probs(feats)
    ref_policy = ref if ref is not None else rw.ToyPolicy.init(3, policy.bins)
    ref_lp = ref_policy.log_probs(feats)
    rewards = list(rng.normal(0, 1, cfg.group_size))
    advantages = rw.group_advantages(rewards)
    rollouts = []
    for i in range(cfg.group_size):
        bins_idx = tuple(int(rng.integers(0, policy.bins[h].shape[0])) for h in rw.HEADS)
        lp = float(sum(cur_lp[h][bins_idx[j]] for j, h in enumerate(rw.HEADS)))
        rollouts.append(
            Rollout(
                action=ActionDelta(0, 0, 0),
                bins=bins_idx,
                logp_old=lp - float(rng.normal(0, ratio_noise)),
                reward=rewards[i],
                advantage=advantages[i],
            )
        )
    return Group("q", feats, rollouts, cur_lp, ref_lp)


class TestObjective:
    def test_trivial_zero(self):
        # theta = theta_old = ref with mean-zero advantages gives J = 0
        policy = rw.ToyPolicy.init(3)
        feats = np.array([0.2, -0.1, 0.05])
        lp = policy.log_probs(feats)
        advantages = rw.group_advantages([0.3, -0.3])
        rollouts = []
        for i, b in enumerate([(0, 0, 0), (1, 1, 1)]):
            s = float(sum(lp[h][b[j]] for j, h in enumerate(rw.HEADS)))
            rollouts.append(Rollout(ActionDelta(0, 0, 0), b, s, [0.3, -0.3][i], advantages[i]))
        group = Group("q", feats, rollouts, lp, lp)
        objective = rw.objective_under_policy(policy, batch_of([group]), rw.GRPOConfig())
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_clip_arithmetic(self):
        assert rw._clipped_term(1.5, 1.0, 0.2) == pytest.approx(1.2)
        assert rw._clipped_term(1.5, -1.0, 0.2) == pytest.approx(-1.5)
        assert rw._clipped_term(0.5, 1.0, 0.2) == pytest.approx(0.5)
        assert rw._clipped_term(0.5, -1.0, 0.2) == pytest.approx(-0.8)

    def test_non_finite_rejected(self):
        policy = rw.ToyPolicy.init(3)
        feats = np.zeros(3)
        lp = policy.log_probs(feats)
        advantages = rw.group_advantages([1.0, -1.0])
        rollouts = [
            Rollout(ActionDelta(0, 0, 0), (0, 0, 0), float("nan"), 1.0, advantages[0]),
            Rollout(ActionDelta(0, 0, 0), (1, 1, 1), 0.0, -1.0, advantages[1]),
        ]
        group = Group("q", feats, rollouts, lp, lp)
        with pytest.raises(ValueError, match="non-finite"):
            rw.grpo_step(policy, batch_of([group]), rw.GRPOConfig())


class TestGradient:
    def test_analytic_matches_finite_differences(self):
        policy = small_policy(seed=3)
        cfg = rw.GRPOConfig(group_size=4, kl_weight=0.05)
        rng = np.random.default_rng(7)
        ref = small_policy(seed=9, scale=0.2)
        groups = [synthetic_group(policy, rng, cfg, ref=ref) for _ in range(3)]
        stepped, _ = rw.grpo_step(
            policy, batch_of(groups), rw.GRPOConfig(group_size=4, kl_weight=0.05, learning_rate=1.0)
        )
        h = 1e-5
        max_rel = 0.0
        for head in rw.HEADS:
            analytic = stepped.weights[head] - policy.weights[head]
            for r in range(policy.weights[head].shape[0]):
                for c in range(policy.weights[head].shape[1]):
                    plus = policy.clone()
                    plus.weights[head][r, c] += h
                    minus = policy.clone()
                    minus.weights[head][r, c] -= h
                    fd = (
                        rw.objective_under_policy(plus, batch_of(groups), cfg)
                        - rw.objective_under_policy(minus, batch_of(groups), cfg)
                    ) / (2 * h)
                    an = analytic[r, c]
                    if abs(fd) > 1e-9 or abs(an) > 1e-9:
                        rel = abs(fd - an) / max(abs(fd), abs(an))
                        max_rel = max(max_rel, rel)
        assert max_rel < 1e-4

    def test_clip_region_gradient_exactly_zero(self):
        # both rollouts land in the clipped regime with beta = 0: flat objective
        policy = small_policy(seed=5)
        cfg = rw.GRPOConfig(group_size=2, kl_weight=0.0)
        feats = np.array([0.4, -0.2, 0.6])
        lp = policy.log_probs(feats)
        advantages = rw.group_advantages([1.0, -1.0])
        shift = math.log(2.0)  # s = 2 for positive-advantage, s = 0.5 for negative
        rollouts = [
            Rollout(
                ActionDelta(0, 0, 0), (0, 1, 2),
                float(sum(lp[h][b] for h, b in zip(rw.HEADS, (0, 1, 2)))) - shift,
                1.0, advantages[0],
            ),
            Rollout(
                ActionDelta(0, 0, 0), (3, 2, 1),
                float(sum(lp[h][b] for h, b in zip(rw.HEADS, (3, 2, 1)))) + shift,
                -1.0, advantages[1],
            ),
        ]
        group = Group("q", feats, rollouts, lp, lp)
        stepped, stats = rw.grpo_step(policy, batch_of([group]), cfg)
        for head in rw.HEADS:
            assert np.array_equal(stepped.weights[head], policy.weights[head])
        assert stats.clip_fraction == 1.0
        # the objective is locally flat: finite differences agree
        h = 1e-6
        plus = policy.clone()
        plus.weights["pan"][0, 0] += h
        minus = policy.clone()
        minus.weights["pan"][0, 0] -= h
        assert rw.objective_under_policy(plus, batch_of([group]), cfg) == pytest.approx(
            rw.objective_under_policy(minus, batch_of([group]), cfg), abs=1e-12
        )


def assert_weights_close(got, want):
    """The matrix step adds its gradient terms in another order than the
    reference loops, so weights may differ in their last bits: by at most
    1e-12 of the largest weight (or of 1)."""
    for h in rw.HEADS:
        bound = 1e-12 * max(1.0, float(np.max(np.abs(want[h]))))
        assert float(np.max(np.abs(got[h] - want[h]))) <= bound, h


def assert_mean_close(got, want):
    """A mean over the step: 1e-12 of its size (or of 1), as for the weights."""
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _reference_step(policy, groups, cfg):
    """``grpo_step`` one rollout at a time: each outer product added in turn."""
    grads = {h: np.zeros_like(policy.weights[h]) for h in rw.HEADS}
    n_groups = len(groups)
    n_rollouts = n_clipped = 0
    reward_sum = 0.0
    for group in groups:
        phi = np.append(group.features, 1.0)
        cur_lp = policy.log_probs(group.features)
        probs = {h: np.exp(cur_lp[h]) for h in rw.HEADS}
        n = len(group.rollouts)
        for r in group.rollouts:
            n_rollouts += 1
            reward_sum += r.reward
            lp = float(sum(cur_lp[h][r.bins[j]] for j, h in enumerate(rw.HEADS)))
            s = math.exp(lp - r.logp_old)
            if (r.advantage > 0 and s > 1.0 + rw.CLIP_EPS) or (r.advantage < 0 and s < 1.0 - rw.CLIP_EPS):
                n_clipped += 1
                continue
            coef = s * r.advantage / (n * n_groups)
            if coef == 0.0:
                continue
            for j, h in enumerate(rw.HEADS):
                dz = -probs[h] * coef
                dz[r.bins[j]] += coef
                grads[h] += np.outer(dz, phi)
        for h in rw.HEADS:
            diff = cur_lp[h] - group.ref_log_probs[h]
            kl_h = float(np.sum(probs[h] * diff))
            if cfg.kl_weight > 0.0:
                grads[h] -= (cfg.kl_weight / n_groups) * np.outer(probs[h] * (diff - kl_h), phi)
    weights = {h: policy.weights[h] + cfg.learning_rate * grads[h] for h in rw.HEADS}
    return weights, reward_sum / n_rollouts, n_clipped / n_rollouts


class TestStepMatchesLoop:
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_synthetic_groups(self, seed):
        policy = small_policy(seed=seed)
        cfg = rw.GRPOConfig(group_size=6, kl_weight=0.05, learning_rate=0.7)
        rng = np.random.default_rng(seed + 100)
        groups = [synthetic_group(policy, rng, cfg, ref=small_policy(seed=seed + 1)) for _ in range(5)]
        stepped, stats = rw.grpo_step(policy, batch_of(groups), cfg)
        weights, mean_reward, clip_fraction = _reference_step(policy, groups, cfg)
        assert 0.0 < clip_fraction < 1.0
        assert_weights_close(stepped.weights, weights)
        assert_mean_close(stats.mean_reward, mean_reward)
        assert stats.clip_fraction == clip_fraction

    def test_sampled_groups(self):
        tasks = TestTraining().make_tasks(n=8)
        policy = rw.ToyPolicy.init(3)
        wrng = np.random.default_rng(4)
        for h in rw.HEADS:
            policy.weights[h] += wrng.normal(0, 0.5, policy.weights[h].shape)
        cfg = rw.GRPOConfig()
        rng = np.random.default_rng(6)
        groups = [
            group_of(rw.build_rollout_group(policy, rw.ToyPolicy.init(3), t, K, cfg, CFG, rng))
            for t in one_by_one(tasks)
        ]
        stepped, stats = rw.grpo_step(policy, batch_of(groups), cfg)
        weights, mean_reward, _ = _reference_step(policy, groups, cfg)
        assert_weights_close(stepped.weights, weights)
        assert_mean_close(stats.mean_reward, mean_reward)


class TestLogProbRows:
    @pytest.mark.parametrize("t", [1, 2, 7, 64, 1000, 3000])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 5.0])
    def test_each_row_equals_a_one_row_call(self, t, scale):
        # a T-row matmul rounds most rows differently from a one-row product;
        # the one log-probability rule must not
        policy = rw.ToyPolicy.init(3)
        rng = np.random.default_rng(t)
        for h in rw.HEADS:
            policy.weights[h] += rng.normal(0, scale, policy.weights[h].shape)
        features = rng.normal(0, 1, (t, 3))
        rows = policy.log_prob_rows(features)
        one_row = [policy.log_probs(f) for f in features]
        for h in rw.HEADS:
            assert rows[h].shape == (t, policy.bins[h].shape[0])
            assert rows[h].tobytes() == np.stack([lp[h] for lp in one_row]).tobytes()


class TestKL:
    def test_self_kl_zero(self):
        policy = small_policy(seed=2)
        feats = np.array([0.1, 0.3, -0.4])
        lp = policy.log_probs(feats)
        assert rw._group_kl(lp, lp) == pytest.approx(0.0, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            a = small_policy(seed=int(rng.integers(0, 1000)))
            b = small_policy(seed=int(rng.integers(0, 1000)))
            feats = rng.normal(0, 1, 3)
            assert rw._group_kl(a.log_probs(feats), b.log_probs(feats)) >= -1e-12


class TestGrpoStep:
    def make_groups(self, policy, cfg, seed=0):
        rng = np.random.default_rng(seed)
        ref = policy.clone()
        return [synthetic_group(policy, rng, cfg, ref=ref, ratio_noise=0.0) for _ in range(4)]

    def test_zero_learning_rate(self):
        policy = small_policy(seed=1)
        cfg = rw.GRPOConfig(group_size=4, learning_rate=0.0)
        groups = self.make_groups(policy, cfg)
        stepped, _ = rw.grpo_step(policy, batch_of(groups), cfg)
        for head in rw.HEADS:
            assert np.array_equal(stepped.weights[head], policy.weights[head])

    def test_step_improves_objective(self):
        policy = small_policy(seed=4)
        cfg = rw.GRPOConfig(group_size=6, learning_rate=0.5, kl_weight=0.01)
        groups = self.make_groups(policy, cfg, seed=8)
        before = rw.objective_under_policy(policy, batch_of(groups), cfg)
        stepped, _ = rw.grpo_step(policy, batch_of(groups), cfg)
        after = rw.objective_under_policy(stepped, batch_of(groups), cfg)
        assert after > before


class TestTraining:
    def make_tasks(self, n=12, seed=3):
        rng = np.random.default_rng(seed)
        scene = cam.sample_targets(n + 8, rng)
        samples, _ = st.make_samples(scene, K, seed=5)
        return samples[:n]

    def test_reward_improves(self):
        tasks = self.make_tasks()
        policy = rw.ToyPolicy.init(3)
        cfg = rw.GRPOConfig()
        _, history = rw.grpo_train(policy, tasks, K, cfg, CFG, steps=60, seed=2)
        first = np.mean([h.mean_reward for h in history[:10]])
        last = np.mean([h.mean_reward for h in history[-10:]])
        assert last > first

    def test_deterministic(self):
        tasks = self.make_tasks()
        cfg = rw.GRPOConfig()
        p1, h1 = rw.grpo_train(rw.ToyPolicy.init(3), tasks, K, cfg, CFG, steps=8, seed=11)
        p2, h2 = rw.grpo_train(rw.ToyPolicy.init(3), tasks, K, cfg, CFG, steps=8, seed=11)
        assert [h.mean_reward for h in h1] == [h.mean_reward for h in h2]
        for head in rw.HEADS:
            assert np.array_equal(p1.weights[head], p2.weights[head])

    def test_policy_checkpoint_round_trip(self, tmp_path):
        policy = small_policy(seed=7)
        path = tmp_path / "policy.json"
        rw.save_policy(path, policy, seed=42)
        loaded = rw.ToyPolicy.from_dict(json.loads(path.read_text()))
        feats = np.array([0.3, -0.2, 0.1])
        for head in rw.HEADS:
            assert np.allclose(loaded.log_probs(feats)[head], policy.log_probs(feats)[head])

    def test_training_log_format(self, tmp_path):
        tasks = self.make_tasks(n=4)
        policy, history = rw.grpo_train(
            rw.ToyPolicy.init(3), tasks, K, rw.GRPOConfig(), CFG, steps=3, seed=1
        )
        path = tmp_path / "log.jsonl"
        rw.write_training_log(path, history)

        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["step"] for r in rows] == [0, 1, 2]
        assert set(rows[0]) == {
            "step", "mean_reward", "mean_kl", "clip_fraction", "mae_pan", "mae_tilt", "mae_zoom",
            "reward_std", "zero_signal_fraction",
        }
        for row, st_ in zip(rows, history):
            assert row["reward_std"] == st_.reward_std >= 0.0
            assert 0.0 <= row["zero_signal_fraction"] == st_.zero_signal_fraction <= 1.0

    def test_constant_reward_has_no_signal(self, tmp_path):
        # one bin per head: every rollout takes the same action, so every
        # group's rewards are equal and no group carries a gradient
        tasks = self.make_tasks(n=5)
        bins = {"pan": np.array([3]), "tilt": np.array([-2]), "zoom": np.array([40])}
        policy, history = rw.grpo_train(
            rw.ToyPolicy.init(3, bins), tasks, K, rw.GRPOConfig(), CFG, steps=2, seed=4
        )
        assert [h.zero_signal_fraction for h in history] == [1.0, 1.0]
        assert all(h.reward_std > 0.0 for h in history)  # the tasks differ from each other
        path = tmp_path / "log.jsonl"
        rw.write_training_log(path, history)

        assert [json.loads(line)["zero_signal_fraction"] for line in path.read_text().splitlines()] == [1.0, 1.0]

    def test_zero_signal_fraction_counts_equal_reward_groups(self):
        policy = small_policy(seed=2)
        cfg = rw.GRPOConfig(group_size=4)
        rng = np.random.default_rng(5)
        groups = [synthetic_group(policy, rng, cfg) for _ in range(4)]
        flat = groups[1]
        flat.rollouts = [
            Rollout(r.action, r.bins, r.logp_old, 0.25, 0.0)
            for r in flat.rollouts
        ]
        _, stats = rw.grpo_step(policy, batch_of(groups), cfg)
        assert stats.zero_signal_fraction == 0.25
        rewards = [r.reward for g in groups for r in g.rollouts]
        assert stats.reward_std == float(np.std(rewards))


def _reference_rollouts(policy, task, k, cfg, reward_cfg, rng):
    """The rollout loop one rollout at a time: ``rng.choice`` per head, then
    ``apply_action``, ``project`` and ``composite_reward``."""
    cur_lp = policy.log_probs(task.features[0, :3])
    gt_action = ActionDelta(*task.actions[0].tolist())
    gt_bbox = cam.bbox_row(task.boxes[0], task.codes[0])
    sampled, rewards = [], []
    for _ in range(cfg.group_size):
        idx = []
        for h in rw.HEADS:
            p = np.exp(cur_lp[h])
            p = p / p.sum()
            idx.append(int(rng.choice(p.shape[0], p=p)))
        action = ActionDelta(*(int(policy.bins[h][i]) for h, i in zip(rw.HEADS, idx)))
        box = cam.project(cam.apply_action(cam.CameraState(*task.pose[0]), action), k, cam.TargetSpec(*task.geometry[0].tolist()))
        rewards.append(rw.composite_reward(action, gt_action, box, gt_bbox, reward_cfg).total)
        sampled.append((tuple(idx), action))
    advantages = rw.group_advantages(rewards)
    return [
        (bins, action, float(sum(cur_lp[h][bins[j]] for j, h in enumerate(rw.HEADS))), reward, float(adv))
        for (bins, action), reward, adv in zip(sampled, rewards, advantages)
    ]


class TestBatchedRollouts:
    """``build_rollout_group`` draws, scores and normalises exactly as the
    one-at-a-time loop does."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_matches_one_at_a_time_loop(self, seed):
        tasks = with_seam_task(TestTraining().make_tasks(n=6, seed=seed + 40))
        policy = rw.ToyPolicy.init(3)
        wrng = np.random.default_rng(seed)
        for h in rw.HEADS:
            policy.weights[h] += wrng.normal(0, 0.8, policy.weights[h].shape)
        ref = rw.ToyPolicy.init(3)
        cfg = rw.GRPOConfig(group_size=6)
        batched_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        for task in one_by_one(tasks):
            group = group_of(rw.build_rollout_group(policy, ref, task, K, cfg, CFG, batched_rng))
            expected = _reference_rollouts(policy, task, K, cfg, CFG, loop_rng)
            got = [(r.bins, r.action, r.logp_old, r.reward, float(r.advantage)) for r in group.rollouts]
            assert got == expected
        # both consumed the same number of draws
        assert batched_rng.random() == loop_rng.random()

    def test_sample_matches_choice(self):
        policy = small_policy(seed=11, scale=1.0)
        feats = np.array([0.3, -0.4, 0.2])
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        lp = policy.log_probs(feats)
        for _ in range(200):
            bins, action = policy.sample(feats, a)
            expected = []
            for h in rw.HEADS:
                p = np.exp(lp[h])
                expected.append(int(b.choice(p.shape[0], p=p / p.sum())))
            assert bins == tuple(expected)
            assert action.as_tuple() == tuple(int(policy.bins[h][i]) for h, i in zip(rw.HEADS, expected))


# one prompt: start pose, target offset from it and size, and action label
_PROMPT = hst.tuples(
    hst.floats(-180.0, 180.0),  # start pan
    hst.floats(-89.0, 89.0),  # start tilt
    hst.floats(0.0, 998.0),  # start zoom
    hst.floats(-200.0, 200.0),  # target azimuth minus start pan: in view, clipped, out, behind
    hst.floats(-60.0, 60.0),  # target elevation minus start tilt
    hst.floats(0.5, 6.0),  # distance
    hst.floats(0.05, 2.0),  # width
    hst.floats(0.05, 2.0),  # height
    hst.integers(-60, 60),  # pan label
    hst.integers(-60, 60),  # tilt label
    hst.integers(0, 400),  # zoom label
)
_ANGLE_BINS = hst.lists(hst.integers(-999, 999), min_size=1, max_size=5, unique=True)
_ZOOM_BINS = hst.lists(hst.integers(0, 999), min_size=1, max_size=5, unique=True)
_BINS = hst.fixed_dictionaries({"pan": _ANGLE_BINS, "tilt": _ANGLE_BINS, "zoom": _ZOOM_BINS})
_REWARD_CONFIGS = hst.sampled_from([CFG, rw.RewardConfig(0.5, 3.0, 20.0, 80.0)])
# prompts across the pan seam, at the tilt and zoom clamps, facing away from
# their target, and with a box edge inside the frame at ZOOM_MAX (where the
# clamp moves the reward), under bins that push past every clamp
_EDGE_PROMPTS = [
    (179.5, 0.0, 0.0, 0.2, 0.0, 2.0, 0.4, 0.4, 1, 0, 0),
    (-179.25, 85.5, 990.5, -0.4, 2.0, 2.0, 0.4, 0.3, -1, 3, 5),
    (0.25, -80.0, 10.0, 170.0, 0.0, 2.0, 0.4, 0.4, 0, 0, 50),
    (0.0, 0.0, 990.0, 5.705, 0.0, 2.0, 0.4, 0.4, 0, 0, 5),
]
_EDGE_BINS = {"pan": [-3, 0, 1, 30], "tilt": [-30, 0, 10, 999], "zoom": [0, 5, 300]}


def prompt_samples(prompts):
    """A ``SampleSet`` of hypothesis prompts; each supervision box is its label's view."""
    rows = np.array(prompts, dtype=np.float64).reshape(-1, 11)
    pose = rows[:, :3].copy()
    geometry = np.stack(
        [pose[:, 0] + rows[:, 3], np.clip(pose[:, 1] + rows[:, 4], -89.9, 89.9), *rows[:, 5:8].T], axis=1
    )
    corners = cam.target_corners(geometry)
    actions = rows[:, 8:].astype(np.int64)
    boxes, codes = cam.project_batch(*cam.apply_action_batch(*pose.T, actions), K, corners)
    ids = np.array([f"q{i}" for i in range(len(rows))], dtype=object)
    return st.SampleSet(ids, ids.copy(), geometry, np.zeros((len(rows), 3)), pose, corners, actions, boxes, codes)


def every_triple(policy, t):
    """int64[t, n, 3]: every (pan, tilt, zoom) bin triple of ``policy`` as each of t prompts' group."""
    grids = np.meshgrid(*(np.arange(policy.bins[h].shape[0]) for h in rw.HEADS), indexing="ij")
    triples = np.stack([g.ravel() for g in grids], axis=1)
    return np.broadcast_to(triples, (t, *triples.shape))


def rollout_terms(policy, samples, idx, reward_cfg):
    """Each rollout's post-action pose, box code and reward the per-rollout way: one
    ``apply_action_batch`` and one ``project_batch`` over every rollout row and
    ``reward_totals(reward_terms(...))``; and the rollout rows."""
    t, n = idx.shape[:2]
    rows = samples[np.repeat(np.arange(t), n)]
    actions = policy.actions_of(idx).reshape(t * n, 3)
    pose = cam.apply_action_batch(*rows.pose.T, actions)
    boxes, codes = cam.project_batch(*pose, K, rows.corners)
    terms = rw.reward_terms(actions, rows.actions, boxes, codes, rows.boxes, rows.codes, reward_cfg)
    return pose, codes, rw.reward_totals(terms), rows


class TestRolloutTables:
    """The rewards ``grpo_train`` looks up in its per-run tables equal moving,
    projecting and scoring each rollout, bit for bit."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(hst.lists(_PROMPT, min_size=1, max_size=4), _BINS, _REWARD_CONFIGS)
    @example(_EDGE_PROMPTS, _EDGE_BINS, CFG)
    def test_table_rewards_equal_per_rollout_scoring(self, prompts, bins, reward_cfg):
        policy = rw.ToyPolicy.init(3, {h: np.array(b) for h, b in bins.items()})
        samples = prompt_samples(prompts)
        idx = every_triple(policy, len(samples))
        _, _, want, rows = rollout_terms(policy, samples, idx, reward_cfg)
        tables = rw._rollout_tables(samples, policy.bins, K, reward_cfg)
        got = rw._rollout_rewards(tables, idx, rows, K)
        assert got.shape == idx.shape[:2]
        assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.tolist()]

    def test_edge_example_reaches_every_regime(self):
        policy = rw.ToyPolicy.init(3, {h: np.array(b) for h, b in _EDGE_BINS.items()})
        samples = prompt_samples(_EDGE_PROMPTS)
        (pan, tilt, zoom), codes, _, rows = rollout_terms(policy, samples, every_triple(policy, len(samples)), CFG)
        assert np.any(np.sign(pan) != np.sign(rows.pose[:, 0]))  # wrapped across the seam
        assert {-90.0, 90.0} <= set(tilt.tolist()) and cam.ZOOM_MAX in zoom
        assert cam.CODE_OUT in codes and cam.CODE_FULL in codes
        # the last prompt's view at ZOOM_MAX has its left edge inside the frame
        at_clamp = cam.project_batch(np.zeros(1), np.zeros(1), np.full(1, cam.ZOOM_MAX), K, samples.corners[3:])[0]
        assert 0.0 < at_clamp[0, 0] < K.image_w / 2

    def test_tables_are_built_once_per_run(self, monkeypatch):
        calls = {"focal_px": 0, "project_batch": 0, "project_trig": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(cam.CameraIntrinsics, "focal_px", counted("focal_px", cam.CameraIntrinsics.focal_px))
        for module in (cam, rw):
            monkeypatch.setattr(module, "project_batch", counted("project_batch", cam.project_batch), raising=False)
        monkeypatch.setattr(rw, "project_trig", counted("project_trig", rw.project_trig))
        tasks = with_seam_task(TestTraining().make_tasks(n=6))
        counts = {}
        for steps in (1, 20):
            calls.update(dict.fromkeys(calls, 0))
            rw.grpo_train(rw.ToyPolicy.init(3), tasks, K, rw.GRPOConfig(), CFG, steps=steps, seed=3)
            counts[steps] = dict(calls)
        assert counts[1]["focal_px"] > 0
        assert counts[1]["focal_px"] == counts[20]["focal_px"]
        assert counts[1]["project_batch"] == counts[20]["project_batch"]
        assert (counts[1]["project_trig"], counts[20]["project_trig"]) == (1, 20)


# --- the per-group training loop, kept as the reference the step-wide batch
# is checked against ---------------------------------------------------------


def _reference_group(policy, ref_policy, task, k, cfg, reward_cfg, rng):
    """One prompt's group: one ``rng.random`` draw of n*3, one projection and one reward pass."""
    features = task.features[0, :3]
    cur_lp = policy.log_probs(features)
    ref_lp = ref_policy.log_probs(features)
    n = cfg.group_size
    uniforms = rng.random(n * len(rw.HEADS)).reshape(n, len(rw.HEADS))
    idx = np.empty(uniforms.shape, dtype=np.int64)
    for j, h in enumerate(rw.HEADS):
        p = np.exp(cur_lp[h])
        p = p / p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        idx[:, j] = cdf.searchsorted(uniforms[:, j], side="right")
    actions = np.stack([policy.bins[h][idx[:, j]] for j, h in enumerate(rw.HEADS)], axis=1)
    pan, tilt, zoom = task.pose[0].tolist()
    pose = cam.apply_action_batch(np.full(n, pan), np.full(n, tilt), np.full(n, zoom), actions)
    boxes, codes = cam.project_batch(*pose, k, cam.target_corners(task.geometry))
    terms = rw.reward_terms(actions, task.actions[0], boxes, codes, task.boxes, task.codes, reward_cfg)
    rewards = rw.reward_totals(terms).tolist()
    r = np.asarray(rewards, dtype=np.float64)
    advantages = list((r - r.mean()) / (float(r.std()) + rw.STD_GUARD))
    logp = cur_lp["pan"][idx[:, 0]] + cur_lp["tilt"][idx[:, 1]] + cur_lp["zoom"][idx[:, 2]]
    rollouts = [
        Rollout(action=ActionDelta(*a), bins=tuple(b), logp_old=lp, reward=r, advantage=adv)
        for a, b, lp, r, adv in zip(actions.tolist(), idx.tolist(), logp.tolist(), rewards, advantages)
    ]
    return Group(task.ids[0], features, rollouts, cur_lp, ref_lp, ActionDelta(*task.actions[0].tolist()))


def _reference_group_step(policy, groups, cfg):
    """A step over a list of groups: each group's live terms reduced onto a running gradient."""
    grads = {h: np.zeros_like(policy.weights[h]) for h in rw.HEADS}
    n_groups = len(groups)
    n_rollouts = n_clipped = n_zero_signal = n_err = 0
    reward_sum = kl_sum = 0.0
    all_rewards = []
    abs_err = np.zeros(3)
    for group in groups:
        phi = np.append(group.features, 1.0)
        cur_lp = policy.log_probs(group.features)
        probs = {h: np.exp(cur_lp[h]) for h in rw.HEADS}
        n = len(group.rollouts)
        n_rollouts += n
        rewards = [r.reward for r in group.rollouts]
        for reward in rewards:
            reward_sum += reward
        all_rewards.extend(rewards)
        n_zero_signal += min(rewards) == max(rewards)
        bins = np.array([r.bins for r in group.rollouts], dtype=np.int64)
        logp_old = np.array([r.logp_old for r in group.rollouts])
        advantage = np.array([r.advantage for r in group.rollouts], dtype=np.float64)
        lp = cur_lp["pan"][bins[:, 0]] + cur_lp["tilt"][bins[:, 1]] + cur_lp["zoom"][bins[:, 2]]
        s = np.array([math.exp(x) for x in (lp - logp_old).tolist()])
        clipped = ((advantage > 0) & (s > 1.0 + rw.CLIP_EPS)) | ((advantage < 0) & (s < 1.0 - rw.CLIP_EPS))
        n_clipped += int(clipped.sum())
        coef = s * advantage / (n * n_groups)
        live = ~clipped & (coef != 0.0)
        if live.any():
            coef = coef[live]
            rows = np.arange(coef.shape[0])
            for j, h in enumerate(rw.HEADS):
                dz = -probs[h][None, :] * coef[:, None]
                dz[rows, bins[live, j]] += coef
                terms = dz[:, :, None] * phi[None, None, :]
                grads[h] = np.add.reduce(np.concatenate([grads[h][None], terms]), axis=0)
        taken = np.array([r.action.as_tuple() for r in group.rollouts], dtype=np.float64)
        abs_err += np.abs(taken - np.array(group.gt_action.as_tuple(), dtype=np.float64)).sum(axis=0)
        n_err += n
        kl = 0.0
        for h in rw.HEADS:
            diff = cur_lp[h] - group.ref_log_probs[h]
            kl_h = float(np.sum(probs[h] * diff))
            kl += kl_h
            if cfg.kl_weight > 0.0:
                grads[h] -= (cfg.kl_weight / n_groups) * np.outer(probs[h] * (diff - kl_h), phi)
        kl_sum += kl
    weights = {h: policy.weights[h] + cfg.learning_rate * grads[h] for h in rw.HEADS}
    mae = abs_err / n_err
    stats = rw.StepStats(
        mean_reward=reward_sum / n_rollouts,
        mean_kl=kl_sum / n_groups,
        clip_fraction=n_clipped / n_rollouts,
        mae_pan=float(mae[0]),
        mae_tilt=float(mae[1]),
        mae_zoom=float(mae[2]),
        reward_std=float(np.std(all_rewards)),
        zero_signal_fraction=n_zero_signal / n_groups,
    )
    return rw.ToyPolicy(policy.bins, weights), stats


def _reference_train(policy, tasks, k, cfg, reward_cfg, steps, seed):
    ref = policy.clone()
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(steps):
        groups = [_reference_group(policy, ref, task, k, cfg, reward_cfg, rng) for task in one_by_one(tasks)]
        policy, stats = _reference_group_step(policy, groups, cfg)
        history.append(stats)
    return policy, history


class TestStepWideTraining:
    """``grpo_train`` samples and steps over the whole step's batch; its
    weights and mean reward and KL equal the per-group loop's to 1e-12
    relative, and its counts, reward spread and MAEs equal them exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("group_size", [2, 8])
    @pytest.mark.parametrize("kl_weight", [0.0, 0.04])
    def test_matches_per_group_loop(self, seed, group_size, kl_weight):
        tasks = with_seam_task(TestTraining().make_tasks(n=9, seed=seed + 60))
        cfg = rw.GRPOConfig(group_size=group_size, kl_weight=kl_weight)
        got_policy, got = rw.grpo_train(rw.ToyPolicy.init(3), tasks, K, cfg, CFG, steps=25, seed=seed)
        want_policy, want = _reference_train(rw.ToyPolicy.init(3), tasks, K, cfg, CFG, steps=25, seed=seed)
        assert_weights_close(got_policy.weights, want_policy.weights)
        assert len(got) == len(want)
        exact = ("clip_fraction", "zero_signal_fraction", "reward_std", "mae_pan", "mae_tilt", "mae_zoom")
        for x, y in zip(got, want):
            assert_mean_close(x.mean_reward, y.mean_reward)
            assert_mean_close(x.mean_kl, y.mean_kl)
            assert [getattr(x, f) for f in exact] == [getattr(y, f) for f in exact]
        assert any(x.mean_kl > 0.0 for x in got)
