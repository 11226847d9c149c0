import dataclasses
import json
import math

import numpy as np
import pytest

from ptzkit import camera as cam
from ptzkit import rewards as rw
from ptzkit import selftrain as st
from ptzkit.camera import BBoxPx, CameraIntrinsics
from ptzkit.codec import ActionDelta

K = CameraIntrinsics(1280, 720, 60.0)
CFG = rw.RewardConfig()


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


def synthetic_group(policy, rng, cfg, ref=None, ratio_noise=0.3):
    """A rollout group with stored behavior log-probs offset to vary s_i."""
    feats = rng.normal(0, 1, 3)
    cur_lp = policy.log_probs(feats)
    ref_policy = ref if ref is not None else rw.ToyPolicy.init(3, policy.bins)
    ref_lp = ref_policy.log_probs(feats)
    rewards = list(rng.normal(0, 1, cfg.group_size))
    advantages = rw.group_advantages(rewards, cfg.std_guard)
    rollouts = []
    for i in range(cfg.group_size):
        bins_idx = tuple(int(rng.integers(0, policy.bins[h].shape[0])) for h in rw.HEADS)
        lp = float(sum(cur_lp[h][bins_idx[j]] for j, h in enumerate(rw.HEADS)))
        rollouts.append(
            rw.Rollout(
                action=ActionDelta(0, 0, 0),
                bins=bins_idx,
                logp_old=lp - float(rng.normal(0, ratio_noise)),
                reward=rewards[i],
                advantage=advantages[i],
            )
        )
    return rw.RolloutGroup("q", feats, rollouts, cur_lp, ref_lp)


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
            rollouts.append(rw.Rollout(ActionDelta(0, 0, 0), b, s, [0.3, -0.3][i], advantages[i]))
        group = rw.RolloutGroup("q", feats, rollouts, lp, lp)
        assert rw.objective_under_policy(policy, [group], rw.GRPOConfig()) == pytest.approx(0.0, abs=1e-12)

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
            rw.Rollout(ActionDelta(0, 0, 0), (0, 0, 0), float("nan"), 1.0, advantages[0]),
            rw.Rollout(ActionDelta(0, 0, 0), (1, 1, 1), 0.0, -1.0, advantages[1]),
        ]
        group = rw.RolloutGroup("q", feats, rollouts, lp, lp)
        with pytest.raises(ValueError, match="non-finite"):
            rw.grpo_step(policy, [group], rw.GRPOConfig())


class TestGradient:
    def test_analytic_matches_finite_differences(self):
        policy = small_policy(seed=3)
        cfg = rw.GRPOConfig(group_size=4, kl_weight=0.05)
        rng = np.random.default_rng(7)
        ref = small_policy(seed=9, scale=0.2)
        groups = [synthetic_group(policy, rng, cfg, ref=ref) for _ in range(3)]
        stepped, _ = rw.grpo_step(
            policy, groups, rw.GRPOConfig(group_size=4, kl_weight=0.05, learning_rate=1.0)
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
                        rw.objective_under_policy(plus, groups, cfg)
                        - rw.objective_under_policy(minus, groups, cfg)
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
            rw.Rollout(
                ActionDelta(0, 0, 0), (0, 1, 2),
                float(sum(lp[h][b] for h, b in zip(rw.HEADS, (0, 1, 2)))) - shift,
                1.0, advantages[0],
            ),
            rw.Rollout(
                ActionDelta(0, 0, 0), (3, 2, 1),
                float(sum(lp[h][b] for h, b in zip(rw.HEADS, (3, 2, 1)))) + shift,
                -1.0, advantages[1],
            ),
        ]
        group = rw.RolloutGroup("q", feats, rollouts, lp, lp)
        stepped, stats = rw.grpo_step(policy, [group], cfg)
        for head in rw.HEADS:
            assert np.array_equal(stepped.weights[head], policy.weights[head])
        assert stats.clip_fraction == 1.0
        # the objective is locally flat: finite differences agree
        h = 1e-6
        plus = policy.clone()
        plus.weights["pan"][0, 0] += h
        minus = policy.clone()
        minus.weights["pan"][0, 0] -= h
        assert rw.objective_under_policy(plus, [group], cfg) == pytest.approx(
            rw.objective_under_policy(minus, [group], cfg), abs=1e-12
        )


def _reference_step(policy, groups, cfg):
    """``grpo_step`` one rollout at a time: each outer product added in turn."""
    grads = {h: np.zeros_like(policy.weights[h]) for h in rw.HEADS}
    n_groups = len(groups)
    n_rollouts = n_clipped = 0
    reward_sum = 0.0
    for group in groups:
        phi = policy._phi(group.features)
        cur_lp = policy.log_probs(group.features)
        probs = {h: np.exp(cur_lp[h]) for h in rw.HEADS}
        n = len(group.rollouts)
        for r in group.rollouts:
            n_rollouts += 1
            reward_sum += r.reward
            lp = float(sum(cur_lp[h][r.bins[j]] for j, h in enumerate(rw.HEADS)))
            s = math.exp(lp - r.logp_old)
            if (r.advantage > 0 and s > 1.0 + cfg.clip_eps) or (r.advantage < 0 and s < 1.0 - cfg.clip_eps):
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
        stepped, stats = rw.grpo_step(policy, groups, cfg)
        weights, mean_reward, clip_fraction = _reference_step(policy, groups, cfg)
        assert 0.0 < clip_fraction < 1.0
        for h in rw.HEADS:
            assert np.array_equal(stepped.weights[h], weights[h])
        assert (stats.mean_reward, stats.clip_fraction) == (mean_reward, clip_fraction)

    def test_sampled_groups(self):
        tasks = TestTraining().make_tasks(n=8)
        policy = rw.ToyPolicy.init(3)
        wrng = np.random.default_rng(4)
        for h in rw.HEADS:
            policy.weights[h] += wrng.normal(0, 0.5, policy.weights[h].shape)
        cfg = rw.GRPOConfig()
        rng = np.random.default_rng(6)
        groups = [rw.build_rollout_group(policy, rw.ToyPolicy.init(3), t, K, cfg, CFG, rng) for t in tasks]
        stepped, stats = rw.grpo_step(policy, groups, cfg)
        weights, mean_reward, _ = _reference_step(policy, groups, cfg)
        for h in rw.HEADS:
            assert np.array_equal(stepped.weights[h], weights[h])
        assert stats.mean_reward == mean_reward


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
        stepped, _ = rw.grpo_step(policy, groups, cfg)
        for head in rw.HEADS:
            assert np.array_equal(stepped.weights[head], policy.weights[head])

    def test_step_improves_objective(self):
        policy = small_policy(seed=4)
        cfg = rw.GRPOConfig(group_size=6, learning_rate=0.5, kl_weight=0.01)
        groups = self.make_groups(policy, cfg, seed=8)
        before = rw.objective_under_policy(policy, groups, cfg)
        stepped, _ = rw.grpo_step(policy, groups, cfg)
        after = rw.objective_under_policy(stepped, groups, cfg)
        assert after > before


class TestTraining:
    def make_tasks(self, n=12, seed=3):
        rng = np.random.default_rng(seed)
        scene = cam.sample_targets(n + 8, rng)
        samples, _ = st.make_samples(scene, K, seed=5)
        return st.grpo_tasks_from_samples(samples[:n])

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
            rw.Rollout(r.action, r.bins, r.logp_old, 0.25, 0.0)
            for r in flat.rollouts
        ]
        _, stats = rw.grpo_step(policy, groups, cfg)
        assert stats.zero_signal_fraction == 0.25
        rewards = [r.reward for g in groups for r in g.rollouts]
        assert stats.reward_std == float(np.std(rewards))


def _reference_rollouts(policy, task, k, cfg, reward_cfg, rng):
    """The rollout loop one rollout at a time: ``rng.choice`` per head, then
    ``apply_action``, ``project`` and ``composite_reward``."""
    cur_lp = policy.log_probs(task.features)
    sampled, rewards = [], []
    for _ in range(cfg.group_size):
        idx = []
        for h in rw.HEADS:
            p = np.exp(cur_lp[h])
            p = p / p.sum()
            idx.append(int(rng.choice(p.shape[0], p=p)))
        action = ActionDelta(*(int(policy.bins[h][i]) for h, i in zip(rw.HEADS, idx)))
        box = cam.project(cam.apply_action(task.camera, action), k, task.target)
        rewards.append(rw.composite_reward(action, task.gt_action, box, task.gt_bbox, reward_cfg).total)
        sampled.append((tuple(idx), action))
    advantages = rw.group_advantages(rewards, cfg.std_guard)
    return [
        (bins, action, float(sum(cur_lp[h][bins[j]] for j, h in enumerate(rw.HEADS))), reward, float(adv))
        for (bins, action), reward, adv in zip(sampled, rewards, advantages)
    ]


class TestBatchedRollouts:
    """``build_rollout_group`` draws, scores and normalises exactly as the
    one-at-a-time loop does."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_matches_one_at_a_time_loop(self, seed):
        tasks = TestTraining().make_tasks(n=6, seed=seed + 40)
        # one task starts near the pan seam with zoom already in, so pans wrap and zoom clamps
        tasks.append(dataclasses.replace(tasks[0], camera=cam.CameraState(179.37, 3.5, 980.25)))
        policy = rw.ToyPolicy.init(3)
        wrng = np.random.default_rng(seed)
        for h in rw.HEADS:
            policy.weights[h] += wrng.normal(0, 0.8, policy.weights[h].shape)
        ref = rw.ToyPolicy.init(3)
        cfg = rw.GRPOConfig(group_size=6)
        batched_rng = np.random.default_rng(seed)
        loop_rng = np.random.default_rng(seed)
        for task in tasks:
            group = rw.build_rollout_group(policy, ref, task, K, cfg, CFG, batched_rng)
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
