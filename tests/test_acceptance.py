"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The codec criterion
round-trips a seeded 10^6-action sample of the 199x199x1000 grid: the whole
grid takes minutes through the numpy batch codec, beyond the criterion's
60 s bound.  The self-training criterion refits random forests repeatedly
and dominates the module's run time.
"""

import json
import math
import time

import numpy as np
import pytest

from ptzkit import camera as cam
from ptzkit import codec
from ptzkit import pseudolabel as pl
from ptzkit import rewards as rw
from ptzkit import selftrain as st
from ptzkit.camera import BBoxPx, CameraIntrinsics, CameraState
from ptzkit.cli import main as cli_main
from ptzkit.codec import ActionDelta

K = CameraIntrinsics(1280, 720, 60.0)


def report(n: int, message: str) -> None:
    print(f"\n[criterion {n:2d}] PASS - {message}")


def test_01_codec_round_trip_exhaustive_or_sampled():
    started = time.perf_counter()
    vocab = codec.TokenVocab.default()
    # anchor the batch codec to the per-action codec on a random slice
    rng = np.random.default_rng(101)
    pan = rng.integers(-99, 100, 20000)
    tilt = rng.integers(-99, 100, 20000)
    zoom = rng.integers(0, 1000, 20000)
    tokens, lengths = codec.encode_batch(pan, tilt, zoom, vocab)
    for i in range(0, 20000, 97):
        a = ActionDelta(int(pan[i]), int(tilt[i]), int(zoom[i]))
        seq = codec.encode_action(a, vocab)
        assert tuple(tokens[i, : lengths[i]]) == seq
        assert codec.decode(seq, vocab) == a

    n = 10**6
    sample = np.stack(
        [rng.integers(-99, 100, n), rng.integers(-99, 100, n), rng.integers(0, 1000, n)], axis=1
    )
    failures = 0
    # chunks of 10^5 rows keep the token arrays small
    for chunk in np.array_split(sample, 10):
        tokens, lengths = codec.encode_batch(chunk[:, 0], chunk[:, 1], chunk[:, 2], vocab)
        back, ok = codec.decode_batch(tokens, lengths, vocab)
        failures += int(np.sum(~ok | np.any(back != chunk, axis=1)))
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 60.0
    report(1, f"codec round trip, seeded 10^6-sample subset, 0 failures in {elapsed:.1f}s")


def test_02_greedy_optimality_vs_dp():
    started = time.perf_counter()
    mismatches = 0
    for x in range(1000):
        greedy = sum(codec.encode_digit(int(c)).token_count for c in str(x))
        if greedy != codec.minimal_token_count(x):
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 1.0
    report(2, f"greedy == DP for all x in [0,999] in {elapsed:.3f}s")


def test_03_token_budget_trend():
    rng = np.random.default_rng(303)
    n = 5000
    pan = np.clip(np.round(rng.normal(0, 10, n)), -99, 99).astype(int)
    tilt = np.clip(np.round(rng.normal(0, 8, n)), -99, 99).astype(int)
    angles = np.concatenate([pan, tilt])
    share = np.mean(np.abs(angles) <= 29)
    assert share >= 0.98
    actions = [ActionDelta(int(p), int(t), 0) for p, t in zip(pan, tilt)]
    stats = codec.mean_token_length(actions)
    assert stats.mean_hierarchical < 4.0
    assert stats.mean_uniform > 8.0
    report(
        3,
        f"hierarchical {stats.mean_hierarchical:.2f} < 4 vs uniform "
        f"{stats.mean_uniform:.2f} > 8 ({share:.1%} of angles within +/-29)",
    )


def test_04_geometry_oracle_centering_and_zoom_doubling():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    targets = cam.sample_targets(1000, rng)
    state = CameraState()
    worst = 0.0
    for _, t in targets:
        action = cam.oracle_action(state, K, t, 0.30)
        after = cam.apply_action(state, action)
        box = cam.project(after, K, t)
        assert not box.is_empty()
        f_post = K.focal_px(after.zoom_units)
        tol = 2.0 + f_post * math.tan(math.radians(0.5))
        cx, cy = box.center()
        assert abs(cx - K.image_w / 2) <= tol
        assert abs(cy - K.image_h / 2) <= tol
        worst = max(worst, abs(cx - K.image_w / 2) / tol, abs(cy - K.image_h / 2) / tol)
    # zoom semantics: +100 units doubles the bbox of a small centered target
    for _, t in cam.sample_targets(100, rng, size_range=(0.05, 0.15), distance_range=(3.0, 6.0)):
        base = cam.project(CameraState(t.azimuth, t.elevation, 0.0), K, t)
        doubled = cam.project(CameraState(t.azimuth, t.elevation, 100.0), K, t)
        assert doubled.width / base.width == pytest.approx(2.0, rel=0.01)
        assert doubled.height / base.height == pytest.approx(2.0, rel=0.01)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(
        4,
        f"1000 oracle centerings within tolerance (worst {worst:.2f}x) and "
        f"zoom doubling within 1% in {elapsed:.1f}s",
    )


def test_05_reward_shape():
    cfg = rw.RewardConfig()
    assert rw.angle_reward(0.0, 0.0, cfg) == 1.0
    assert rw.angle_reward(1.0, 0.0, cfg) == 0.0
    delta = 1e-13
    assert abs(rw.angle_reward(cfg.angle_tol - delta, 0.0, cfg)) <= 1e-12
    assert abs(rw.angle_reward(cfg.angle_tol + delta, 0.0, cfg)) <= 1e-12
    gt = 200.0
    assert rw.zoom_reward(gt, gt, cfg) == 1.0
    assert rw.zoom_reward(gt - cfg.zoom_band, gt, cfg) == 0.0
    assert abs(rw.zoom_reward(gt - cfg.zoom_band + delta, gt, cfg)) <= 1e-12
    assert abs(rw.zoom_reward(gt - cfg.zoom_band - delta, gt, cfg)) <= 1e-12
    action = ActionDelta(7, -4, 150)
    box = BBoxPx(200, 150, 900, 600)
    assert rw.composite_reward(action, action, box, box, cfg).total == 1.0
    report(5, "angle/zoom shapes exact at band edges (1e-12), perfect composite == 1")


def _fd_policy_and_groups():
    bins = {"pan": np.arange(-2, 3), "tilt": np.arange(-2, 3), "zoom": np.arange(0, 50, 10)}
    policy = rw.ToyPolicy.init(3, bins)
    rng = np.random.default_rng(606)
    for head in rw.HEADS:
        policy.weights[head] += rng.normal(0, 0.3, policy.weights[head].shape)
    cfg = rw.GRPOConfig(group_size=4, kl_weight=0.05)
    ref = rw.ToyPolicy.init(3, bins)
    groups = []
    for g in range(3):
        feats = rng.normal(0, 1, 3)
        cur_lp = policy.log_probs(feats)
        ref_lp = ref.log_probs(feats)
        rewards = list(rng.normal(0, 1, cfg.group_size))
        advantages = rw.group_advantages(rewards, cfg.std_guard)
        rollouts = []
        for i in range(cfg.group_size):
            b = tuple(int(rng.integers(0, 5)) for _ in range(3))
            lp = float(sum(cur_lp[h][b[j]] for j, h in enumerate(rw.HEADS)))
            rollouts.append(
                rw.Rollout(ActionDelta(0, 0, 0), b, lp - float(rng.normal(0, 0.3)), rewards[i], advantages[i])
            )
        groups.append(rw.RolloutGroup(f"g{g}", feats, rollouts, cur_lp, ref_lp))
    return policy, groups, cfg


def test_06_grpo_gradient_and_clipping():
    policy, groups, cfg = _fd_policy_and_groups()
    stepped, _ = rw.grpo_step(
        policy, groups,
        rw.GRPOConfig(group_size=4, kl_weight=cfg.kl_weight, learning_rate=1.0),
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
                    max_rel = max(max_rel, abs(fd - an) / max(abs(fd), abs(an)))
    assert max_rel < 1e-4

    # clipped regime: gradient exactly zero (beta = 0)
    feats = np.array([0.4, -0.2, 0.6])
    lp = policy.log_probs(feats)
    advantages = rw.group_advantages([1.0, -1.0])
    shift = math.log(2.0)
    lp_a = float(sum(lp[h][b] for h, b in zip(rw.HEADS, (0, 1, 2))))
    lp_b = float(sum(lp[h][b] for h, b in zip(rw.HEADS, (3, 2, 1))))
    group = rw.RolloutGroup(
        "clip",
        feats,
        [
            rw.Rollout(ActionDelta(0, 0, 0), (0, 1, 2), lp_a - shift, 1.0, advantages[0]),
            rw.Rollout(ActionDelta(0, 0, 0), (3, 2, 1), lp_b + shift, -1.0, advantages[1]),
        ],
        lp,
        lp,
    )
    beta0 = rw.GRPOConfig(group_size=2, kl_weight=0.0, learning_rate=1.0)
    stepped, stats = rw.grpo_step(policy, [group], beta0)
    for head in rw.HEADS:
        assert np.array_equal(stepped.weights[head], policy.weights[head])
    assert stats.clip_fraction == 1.0

    assert rw.group_advantages([0.7, 0.7, 0.7, 0.7]) == [0.0, 0.0, 0.0, 0.0]
    report(6, f"analytic vs FD gradient max rel err {max_rel:.2e} < 1e-4, clipped grad exactly 0")


def test_07_grpo_optimization_smoke():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    scene = cam.sample_targets(65, rng)
    samples, _ = st.make_samples(scene, K, seed=4)
    tasks = st.grpo_tasks_from_samples(samples[:50])
    assert len(tasks) == 50
    cfg = rw.GRPOConfig(learning_rate=4.0)
    policy, history = rw.grpo_train(rw.ToyPolicy.init(3), tasks, K, cfg, rw.RewardConfig(), steps=200, seed=9)
    rewards = [h.mean_reward for h in history]
    first = float(np.mean(rewards[:20]))
    last = float(np.mean(rewards[-20:]))
    gain = last - first
    assert gain >= 0.3
    # deterministic under seed: short rerun reproduces the trajectory bitwise
    _, h1 = rw.grpo_train(rw.ToyPolicy.init(3), tasks, K, cfg, rw.RewardConfig(), steps=12, seed=9)
    _, h2 = rw.grpo_train(rw.ToyPolicy.init(3), tasks, K, cfg, rw.RewardConfig(), steps=12, seed=9)
    assert [h.mean_reward for h in h1] == [h.mean_reward for h in h2]
    assert rewards[:12] == [h.mean_reward for h in h1]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(7, f"mean reward {first:.3f} -> {last:.3f} (gain {gain:.3f} >= 0.3) in {elapsed:.1f}s")


def test_08_self_training_trend():
    rng = np.random.default_rng(42)
    scene = cam.sample_targets(
        2000,
        rng,
        azimuth_range=(-20, 20),
        elevation_range=(-8, 8),
        distance_range=(1.8, 2.6),
        size_range=(0.35, 0.5),
        aspect_range=(0.7, 1.15),
    )
    samples, _ = st.make_samples(scene, K, fill_ratio=0.30, seed=7)
    train, test = st.split_dataset(samples, 0.1, seed=5)
    noisy = st.NoisyOraclePolicy(K, 5.0, 5.0, 30.0, seed=11, fill_ratio=0.30)
    train_noisy = st.relabel(train, noisy)
    factory = st.regressor_policy_factory(
        pl.RegressorConfig(kind="random_forest", seed=9, max_depth=10, min_samples_leaf=4),
    )
    cfg_on = st.IterationConfig(rounds=2, iou_thresholds=(0.7, 0.95), replace_bbox=True, seed=3)
    cfg_off = st.IterationConfig(rounds=2, iou_thresholds=(0.7, 0.95), replace_bbox=False, seed=3)
    reports_on = st.iterate(train_noisy, cfg_on, factory, K, testset=test)
    reports_off = st.iterate(train_noisy, cfg_off, factory, K, testset=test)
    ious = [r.metrics.mean_iou for r in reports_on]
    assert all(b >= a for a, b in zip(ious, ious[1:])), f"IoU trajectory decreased: {ious}"
    assert ious[-1] >= ious[0] + 0.1
    assert ious[-1] >= reports_off[-1].metrics.mean_iou
    report(
        8,
        "mean IoU " + " -> ".join(f"{v:.3f}" for v in ious)
        + f" (gain {ious[-1] - ious[0]:+.3f} >= 0.1), replace-off final "
        + f"{reports_off[-1].metrics.mean_iou:.3f} <= replace-on",
    )


def test_09_regressor_fidelity():
    # OLS recovers an exactly linear map
    rng = np.random.default_rng(909)
    weights = np.array([[20.0, -10.0, 0.0], [10.0, 20.0, 0.0], [0.0, 0.0, 900.0]])
    bias = np.array([2.0, -1.0, 30.0])
    pairs = []
    for _ in range(100):
        x = np.array([rng.integers(-10, 11) / 10, rng.integers(-10, 11) / 10, rng.integers(1, 50) / 100])
        y = weights @ x + bias
        pairs.append((pl.FeatureVec(x[0], x[1], x[2]), ActionDelta(int(round(y[0])), int(round(y[1])), int(round(y[2])))))
    ols = pl.fit(pairs, pl.RegressorConfig(kind="ols_linear"))
    for head in pl.HEAD_NAMES:
        assert ols.train_r2[head] >= 1.0 - 1e-9

    # random forest on simulator-oracle samples
    scene = cam.sample_targets(400, np.random.default_rng(910))
    samples, _ = st.make_samples(scene, K, seed=2)
    assert len(samples) >= 300
    oracle_pairs = [(s.features, s.gt_action) for s in samples]
    cfg = pl.RegressorConfig(kind="random_forest", seed=5)
    rf = pl.fit(oracle_pairs, cfg)
    for head in pl.HEAD_NAMES:
        assert rf.train_r2[head] >= 0.95
    rf2 = pl.fit(oracle_pairs, cfg)
    x = np.stack([f.as_array(False) for f, _ in oracle_pairs])
    assert np.array_equal(rf.predict_batch(x), rf2.predict_batch(x))
    r2 = ", ".join(f"{h}={rf.train_r2[h]:.3f}" for h in pl.HEAD_NAMES)
    report(9, f"OLS R2 deficit < 1e-9; RF on {len(samples)} oracle samples R2 [{r2}] >= 0.95, bit-deterministic")


def test_10_pipeline_determinism(tmp_path):
    scene_dir = tmp_path / "scene"
    assert cli_main(["scene-gen", "--count", "60", "--seed", "5", "--out", str(scene_dir), "--quiet"]) == 0
    scene = str(scene_dir / "scene.jsonl")

    def run_iterate(out):
        code = cli_main([
            "iterate", "--scene", scene, "--rounds", "1", "--thresholds", "0.5",
            "--label-noise-angle", "4", "--label-noise-zoom", "20",
            "--seed", "11", "--out", str(out), "--quiet",
        ])
        assert code == 0

    a, b = tmp_path / "ia", tmp_path / "ib"
    run_iterate(a)
    run_iterate(b)
    assert (a / "round_report.jsonl").read_bytes() == (b / "round_report.jsonl").read_bytes()
    assert (a / "round1_refined.jsonl").read_bytes() == (b / "round1_refined.jsonl").read_bytes()

    def run_grpo(out):
        code = cli_main([
            "grpo-train", "--scene", scene, "--steps", "6",
            "--seed", "13", "--out", str(out), "--quiet",
        ])
        assert code == 0

    c, d = tmp_path / "ga", tmp_path / "gb"
    run_grpo(c)
    run_grpo(d)
    assert (c / "train_log.jsonl").read_bytes() == (d / "train_log.jsonl").read_bytes()
    assert (c / "policy.json").read_bytes() == (d / "policy.json").read_bytes()
    report(10, "iterate and grpo-train reruns byte-identical (reports, refined sets, checkpoints)")
