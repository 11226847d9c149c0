"""Composite reward shaping and a GRPO-style optimizer with a toy policy.

The reward averages four terms in [-1, 1]: bbox IoU plus piecewise-linear
shapings of the pan, tilt and zoom errors.  Angle terms pay 1 at zero error,
fall linearly to 0 at the tolerance, then go linearly negative until the
penalty saturates at -1.  The zoom term pays inside an undershoot band below
the target value and penalizes outside it on both sides.

Policy optimization follows the clipped group-relative surrogate: rewards are
normalized within each sampled group into advantages, importance ratios are
clipped to a trust region, and a KL term pulls the policy toward a frozen
reference.  The policy here is a stack of three independent linear-softmax
heads over discrete action bins, small enough that log-probabilities, KL
divergences and objective gradients are all available in closed form, which
is what the finite-difference tests verify.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ptzkit import jsonl
from ptzkit.camera import (
    BBoxPx,
    CameraIntrinsics,
    CameraState,
    TargetSpec,
    apply_action_batch,
    bbox_arrays,
    bbox_row,
    iou_batch,
    project_batch,
    target_corners,
)
from ptzkit.codec import ActionDelta

HEADS = ("pan", "tilt", "zoom")


@dataclass(frozen=True)
class RewardConfig:
    angle_tol: float = 1.0
    angle_penalty_span: float = 10.0
    zoom_band: float = 50.0
    zoom_penalty_span: float = 50.0

    def __post_init__(self):
        if min(self.angle_tol, self.angle_penalty_span, self.zoom_band, self.zoom_penalty_span) <= 0:
            raise ValueError("all reward spans must be positive")


@dataclass(frozen=True)
class RewardBreakdown:
    r_iou: float
    r_theta1: float
    r_theta2: float
    r_zoom: float

    @property
    def total(self) -> float:
        terms = np.array([[self.r_iou, self.r_theta1, self.r_theta2, self.r_zoom]])
        return float(reward_totals(terms)[0])


def angle_rewards(pred: np.ndarray, gt: np.ndarray, cfg: RewardConfig = RewardConfig()) -> np.ndarray:
    """Elementwise: 1 at zero error, 0 at the tolerance, saturating to -1 beyond it."""
    e = np.abs(np.asarray(pred, dtype=np.float64) - gt)
    return np.where(
        e <= cfg.angle_tol,
        1.0 - e / cfg.angle_tol,
        -np.minimum((e - cfg.angle_tol) / cfg.angle_penalty_span, 1.0),
    )


def zoom_rewards(pred: np.ndarray, gt: np.ndarray, cfg: RewardConfig = RewardConfig()) -> np.ndarray:
    """Elementwise: 1 at the target, 0 at the bottom of the undershoot band, negative outside.

    The paying band is [gt - zoom_band, gt]; undershoot below it and any
    overshoot above the target are penalized linearly, saturating at -1.
    """
    pred = np.asarray(pred, dtype=np.float64)
    floor = gt - cfg.zoom_band
    outside = np.where(pred < floor, floor - pred, pred - gt)
    return np.where(
        (floor <= pred) & (pred <= gt),
        1.0 - (gt - pred) / cfg.zoom_band,
        -np.minimum(outside / cfg.zoom_penalty_span, 1.0),
    )


def reward_terms(
    pred: np.ndarray,
    gt: np.ndarray,
    pred_boxes: np.ndarray,
    pred_codes: np.ndarray,
    gt_boxes: np.ndarray,
    gt_codes: np.ndarray,
    cfg: RewardConfig = RewardConfig(),
) -> np.ndarray:
    """float64[n, 4] columns (IoU, pan, tilt, zoom) of the composite reward.

    ``pred`` and ``gt`` are [n, 3] action rows and the boxes and codes are
    as ``camera.project_batch`` returns them; ``gt`` and its box may be one
    row for all.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    return np.stack(
        [
            iou_batch(pred_boxes, pred_codes, gt_boxes, gt_codes),
            angle_rewards(pred[:, 0], gt[:, 0], cfg),
            angle_rewards(pred[:, 1], gt[:, 1], cfg),
            zoom_rewards(pred[:, 2], gt[:, 2], cfg),
        ],
        axis=1,
    )


def reward_totals(terms: np.ndarray) -> np.ndarray:
    """The composite reward of each row of ``reward_terms``: the mean of its four terms."""
    return (terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]) / 4.0


def angle_reward(pred: float, gt: float, cfg: RewardConfig = RewardConfig()) -> float:
    """1 at zero error, 0 at the tolerance, saturating to -1 beyond it."""
    return float(angle_rewards(np.array([pred], dtype=np.float64), gt, cfg)[0])


def zoom_reward(pred: float, gt: float, cfg: RewardConfig = RewardConfig()) -> float:
    """1 at the target, 0 at the bottom of the undershoot band, negative outside."""
    return float(zoom_rewards(np.array([pred], dtype=np.float64), gt, cfg)[0])


def composite_reward(
    pred: ActionDelta,
    gt: ActionDelta,
    pred_bbox: BBoxPx,
    gt_bbox: BBoxPx,
    cfg: RewardConfig = RewardConfig(),
) -> RewardBreakdown:
    terms = reward_terms(
        np.array([pred.as_tuple()]), gt.as_tuple(), *bbox_arrays([pred_bbox]), *bbox_arrays([gt_bbox]), cfg
    )
    return RewardBreakdown(*terms[0].tolist())


def group_advantages(rewards: Sequence[float], std_guard: float = 1e-8) -> list[float]:
    """Group-normalized advantages: (r - mean) / (population std + guard)."""
    if len(rewards) < 2:
        raise ValueError("advantage normalization needs at least 2 rewards")
    r = np.asarray(rewards, dtype=np.float64)
    std = float(r.std())
    return list((r - r.mean()) / (std + std_guard))


@dataclass(frozen=True)
class GRPOConfig:
    clip_eps: float = 0.2
    kl_weight: float = 0.04
    group_size: int = 8
    learning_rate: float = 4.0  # suits the toy policy's unit reward scale
    std_guard: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must be in (0, 1)")
        if self.kl_weight < 0.0:
            raise ValueError("kl_weight must be non-negative")
        if self.group_size < 2:
            raise ValueError("group_size must be at least 2")


def default_bins() -> dict[str, np.ndarray]:
    return {
        "pan": np.arange(-30, 31, 1, dtype=np.int64),
        "tilt": np.arange(-30, 31, 1, dtype=np.int64),
        "zoom": np.arange(0, 301, 10, dtype=np.int64),
    }


def draw_bins(log_probs: dict[str, np.ndarray], uniforms: np.ndarray) -> np.ndarray:
    """int64[n, 3] bin indices drawn by inverse CDF from one prompt's per-head ``log_probs``.

    ``uniforms`` is float64[n, 3] from ``rng.random``, one per rollout and
    head in that order.  ``Generator.choice(len(p), p=p)`` reads one
    ``random()`` and returns ``searchsorted(cumsum(p) / cdf[-1], u,
    side="right")``, so the draws equal one ``choice`` call per head and rollout.
    """
    idx = np.empty(uniforms.shape, dtype=np.int64)
    for j, h in enumerate(HEADS):
        p = np.exp(log_probs[h])
        p = p / p.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        idx[:, j] = cdf.searchsorted(uniforms[:, j], side="right")
    return idx


class ToyPolicy:
    """Three independent linear-softmax heads over discrete action bins.

    Each head owns a weight matrix of shape (n_bins, n_features + 1); the
    trailing column multiplies a constant 1 appended to the feature vector.
    Zero weights give the uniform distribution over bins.
    """

    def __init__(self, bins: dict[str, np.ndarray], weights: dict[str, np.ndarray]):
        self.bins = {h: np.asarray(bins[h], dtype=np.int64) for h in HEADS}
        self.weights = {h: np.asarray(weights[h], dtype=np.float64) for h in HEADS}
        for h in HEADS:
            if self.weights[h].shape[0] != self.bins[h].shape[0]:
                raise ValueError(f"{h} weight rows must match bin count")
        self.n_features = self.weights[HEADS[0]].shape[1] - 1

    @classmethod
    def init(cls, n_features: int, bins: dict[str, np.ndarray] | None = None) -> "ToyPolicy":
        bins = bins if bins is not None else default_bins()
        weights = {h: np.zeros((bins[h].shape[0], n_features + 1)) for h in HEADS}
        return cls(bins, weights)

    def clone(self) -> "ToyPolicy":
        return ToyPolicy(
            {h: self.bins[h].copy() for h in HEADS},
            {h: self.weights[h].copy() for h in HEADS},
        )

    def _phi(self, features: np.ndarray) -> np.ndarray:
        phi = np.append(np.asarray(features, dtype=np.float64), 1.0)
        if phi.shape[0] != self.n_features + 1:
            raise ValueError(f"expected {self.n_features} features, got {phi.shape[0] - 1}")
        return phi

    def log_probs(self, features: np.ndarray) -> dict[str, np.ndarray]:
        phi = self._phi(features)
        out = {}
        for h in HEADS:
            z = self.weights[h] @ phi
            z = z - z.max()
            out[h] = z - math.log(np.exp(z).sum())
        return out

    def actions_of(self, idx: np.ndarray) -> np.ndarray:
        """int64[n, 3] (pan, tilt, zoom) actions of bin-index rows."""
        return np.stack([self.bins[h][idx[:, j]] for j, h in enumerate(HEADS)], axis=1)

    def sample(self, features: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, int, int], ActionDelta]:
        idx = draw_bins(self.log_probs(features), rng.random((1, len(HEADS))))
        return tuple(idx[0].tolist()), ActionDelta(*self.actions_of(idx)[0].tolist())

    def greedy(self, features: np.ndarray) -> ActionDelta:
        lp = self.log_probs(features)
        return ActionDelta(
            int(self.bins["pan"][int(np.argmax(lp["pan"]))]),
            int(self.bins["tilt"][int(np.argmax(lp["tilt"]))]),
            int(self.bins["zoom"][int(np.argmax(lp["zoom"]))]),
        )

    def kl_to(self, ref: "ToyPolicy", features: np.ndarray) -> float:
        """Analytic KL(self || ref) at this prompt, summed over heads."""
        lp = self.log_probs(features)
        lp_ref = ref.log_probs(features)
        total = 0.0
        for h in HEADS:
            p = np.exp(lp[h])
            total += float(np.sum(p * (lp[h] - lp_ref[h])))
        return total

    def to_dict(self) -> dict:
        return {
            "bins": {h: self.bins[h].tolist() for h in HEADS},
            "weights": {h: self.weights[h].tolist() for h in HEADS},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToyPolicy":
        return cls(
            {h: np.asarray(d["bins"][h]) for h in HEADS},
            {h: np.asarray(d["weights"][h]) for h in HEADS},
        )


def save_policy(path, policy: ToyPolicy, seed: int | None = None) -> None:
    doc = policy.to_dict()
    if seed is not None:
        doc["seed"] = seed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_policy(path) -> ToyPolicy:
    return jsonl.load(path, ToyPolicy.from_dict, "policy checkpoint")


@dataclass(frozen=True)
class Rollout:
    action: ActionDelta
    bins: tuple[int, int, int]
    pred_bbox: BBoxPx
    logp_cur: float
    logp_old: float
    logp_ref: float
    reward: float
    advantage: float


@dataclass
class RolloutGroup:
    """One prompt's sampled outcomes plus the categorical context for the KL term."""

    prompt_id: str
    features: np.ndarray
    rollouts: list[Rollout]
    cur_log_probs: dict[str, np.ndarray]
    ref_log_probs: dict[str, np.ndarray]
    gt_action: ActionDelta | None = None

    def __post_init__(self):
        if len(self.rollouts) < 2:
            raise ValueError("a rollout group needs at least 2 outcomes")


@dataclass(frozen=True)
class GrpoTask:
    """A prompt for the toy loop: features plus the scene needed to score rollouts."""

    prompt_id: str
    features: np.ndarray
    camera: CameraState
    target: TargetSpec
    gt_action: ActionDelta
    gt_bbox: BBoxPx
    corners: np.ndarray = field(init=False, repr=False, compare=False)  # of ``target``

    def __post_init__(self):
        object.__setattr__(self, "corners", target_corners([self.target])[0])


def build_rollout_group(
    policy: ToyPolicy,
    ref_policy: ToyPolicy,
    task: GrpoTask,
    k: CameraIntrinsics,
    cfg: GRPOConfig,
    reward_cfg: RewardConfig,
    rng: np.random.Generator,
) -> RolloutGroup:
    """Sample a group on-policy and score every rollout through the simulator at once.

    One ``rng.random`` call draws all bins, one ``project_batch`` projects
    every post-action view and the reward is scored over arrays.  The draws,
    rewards and log-probabilities are those of sampling, applying, projecting
    and scoring one rollout at a time.
    """
    cur_lp = policy.log_probs(task.features)
    ref_lp = ref_policy.log_probs(task.features)
    n = cfg.group_size
    idx = draw_bins(cur_lp, rng.random(n * len(HEADS)).reshape(n, len(HEADS)))
    actions = policy.actions_of(idx)
    cam = task.camera
    pose = apply_action_batch(np.full(n, cam.pan), np.full(n, cam.tilt), np.full(n, cam.zoom_units), actions)
    boxes, codes = project_batch(*pose, k, task.corners[None])
    terms = reward_terms(
        actions, task.gt_action.as_tuple(), boxes, codes, *bbox_arrays([task.gt_bbox]), reward_cfg
    )
    rewards = reward_totals(terms).tolist()
    advantages = group_advantages(rewards, cfg.std_guard)
    logp_cur = cur_lp["pan"][idx[:, 0]] + cur_lp["tilt"][idx[:, 1]] + cur_lp["zoom"][idx[:, 2]]
    logp_ref = ref_lp["pan"][idx[:, 0]] + ref_lp["tilt"][idx[:, 1]] + ref_lp["zoom"][idx[:, 2]]
    rollouts = [
        Rollout(
            action=ActionDelta(*a),
            bins=tuple(b),
            pred_bbox=bbox_row(box, code),
            logp_cur=lc,
            logp_old=lc,  # sampling is on-policy
            logp_ref=lr,
            reward=r,
            advantage=adv,
        )
        for a, b, box, code, lc, lr, r, adv in zip(
            actions.tolist(), idx.tolist(), boxes, codes, logp_cur.tolist(), logp_ref.tolist(),
            rewards, advantages,
        )
    ]
    return RolloutGroup(
        prompt_id=task.prompt_id,
        features=np.asarray(task.features, dtype=np.float64),
        rollouts=rollouts,
        cur_log_probs=cur_lp,
        ref_log_probs=ref_lp,
        gt_action=task.gt_action,
    )


def _group_kl(cur_lp: dict[str, np.ndarray], ref_lp: dict[str, np.ndarray]) -> float:
    total = 0.0
    for h in HEADS:
        p = np.exp(cur_lp[h])
        total += float(np.sum(p * (cur_lp[h] - ref_lp[h])))
    return total


def _clipped_term(s: float, advantage: float, clip_eps: float) -> float:
    clipped = min(max(s, 1.0 - clip_eps), 1.0 + clip_eps)
    return min(s * advantage, clipped * advantage)


def grpo_objective(group: RolloutGroup, cfg: GRPOConfig) -> float:
    """Clipped surrogate minus the KL penalty, averaged over the group."""
    total = 0.0
    for r in group.rollouts:
        if not (math.isfinite(r.logp_cur) and math.isfinite(r.logp_old)):
            raise ValueError("non-finite log-probabilities in rollout group")
        s = math.exp(r.logp_cur - r.logp_old)
        total += _clipped_term(s, r.advantage, cfg.clip_eps)
    kl = _group_kl(group.cur_log_probs, group.ref_log_probs)
    return total / len(group.rollouts) - cfg.kl_weight * kl


def objective_under_policy(policy: ToyPolicy, groups: Sequence[RolloutGroup], cfg: GRPOConfig) -> float:
    """The batch objective with current log-probabilities recomputed from ``policy``.

    Behavior (old) and reference log-probabilities stay as stored, so this is
    the function of the policy parameters whose gradient ``grpo_step`` takes.
    """
    total = 0.0
    for group in groups:
        cur_lp = policy.log_probs(group.features)
        g = 0.0
        for r in group.rollouts:
            lp = float(sum(cur_lp[h][r.bins[j]] for j, h in enumerate(HEADS)))
            s = math.exp(lp - r.logp_old)
            g += _clipped_term(s, r.advantage, cfg.clip_eps)
        kl = _group_kl(cur_lp, group.ref_log_probs)
        total += g / len(group.rollouts) - cfg.kl_weight * kl
    return total / len(groups)


@dataclass(frozen=True)
class StepStats:
    mean_reward: float
    mean_kl: float
    clip_fraction: float
    mae_pan: float
    mae_tilt: float
    mae_zoom: float
    reward_std: float  # population std of every rollout reward in the step
    zero_signal_fraction: float  # share of groups whose rewards are all equal


def grpo_step(
    policy: ToyPolicy, groups: Sequence[RolloutGroup], cfg: GRPOConfig
) -> tuple[ToyPolicy, StepStats]:
    """One ascent step on the batch objective via the analytic gradient.

    Each group's surrogate terms enter the gradient as one stack of outer
    products, reduced along its first axis onto the running gradient: row by
    row, in rollout order, as adding them one at a time would.  A group whose
    rewards are all equal has zero advantages and adds no surrogate gradient;
    ``zero_signal_fraction`` counts such groups.
    """
    grads = {h: np.zeros_like(policy.weights[h]) for h in HEADS}
    n_groups = len(groups)
    n_rollouts = 0
    n_clipped = 0
    n_zero_signal = 0
    reward_sum = 0.0
    all_rewards: list[float] = []
    kl_sum = 0.0
    abs_err = np.zeros(3)
    n_err = 0
    for group in groups:
        phi = policy._phi(group.features)
        cur_lp = policy.log_probs(group.features)
        probs = {h: np.exp(cur_lp[h]) for h in HEADS}
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
        if not (np.all(np.isfinite(lp)) and np.all(np.isfinite(logp_old))):
            raise ValueError("non-finite log-probabilities in rollout group")
        s = np.array([math.exp(x) for x in (lp - logp_old).tolist()])
        clipped = ((advantage > 0) & (s > 1.0 + cfg.clip_eps)) | (
            (advantage < 0) & (s < 1.0 - cfg.clip_eps)
        )
        n_clipped += int(clipped.sum())
        coef = s * advantage / (n * n_groups)
        live = ~clipped & (coef != 0.0)
        if live.any():
            coef = coef[live]
            rows = np.arange(coef.shape[0])
            for j, h in enumerate(HEADS):
                dz = -probs[h][None, :] * coef[:, None]
                dz[rows, bins[live, j]] += coef
                terms = dz[:, :, None] * phi[None, None, :]
                grads[h] = np.add.reduce(np.concatenate([grads[h][None], terms]), axis=0)
        if group.gt_action is not None:
            taken = np.array([r.action.as_tuple() for r in group.rollouts], dtype=np.float64)
            # integer-valued, so the sum is exact in any order
            abs_err += np.abs(taken - np.array(group.gt_action.as_tuple(), dtype=np.float64)).sum(axis=0)
            n_err += n
        kl = 0.0
        for h in HEADS:
            diff = cur_lp[h] - group.ref_log_probs[h]
            kl_h = float(np.sum(probs[h] * diff))
            kl += kl_h
            if cfg.kl_weight > 0.0:
                dz = probs[h] * (diff - kl_h)
                grads[h] -= (cfg.kl_weight / n_groups) * np.outer(dz, phi)
        kl_sum += kl
    new_weights = {h: policy.weights[h] + cfg.learning_rate * grads[h] for h in HEADS}
    if any(not np.all(np.isfinite(w)) for w in new_weights.values()):
        raise ValueError("non-finite gradient step")
    new_policy = ToyPolicy({h: policy.bins[h] for h in HEADS}, new_weights)
    mae = abs_err / n_err if n_err else np.full(3, float("nan"))
    stats = StepStats(
        mean_reward=reward_sum / n_rollouts,
        mean_kl=kl_sum / n_groups,
        clip_fraction=n_clipped / n_rollouts,
        mae_pan=float(mae[0]),
        mae_tilt=float(mae[1]),
        mae_zoom=float(mae[2]),
        reward_std=float(np.std(all_rewards)),
        zero_signal_fraction=n_zero_signal / n_groups,
    )
    return new_policy, stats


def grpo_train(
    policy: ToyPolicy,
    tasks: Sequence[GrpoTask],
    k: CameraIntrinsics,
    cfg: GRPOConfig,
    reward_cfg: RewardConfig,
    steps: int,
    seed: int = 0,
) -> tuple[ToyPolicy, list[StepStats]]:
    """On-policy training loop: sample groups for every task, take one step."""
    if not tasks:
        raise ValueError("no tasks to train on")
    ref = policy.clone()
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(steps):
        groups = [
            build_rollout_group(policy, ref, task, k, cfg, reward_cfg, rng) for task in tasks
        ]
        policy, stats = grpo_step(policy, groups, cfg)
        history.append(stats)
    return policy, history


def write_training_log(path, history: Sequence[StepStats]) -> None:
    """Line-delimited per-step records of the training trajectory."""
    jsonl.write(path, (
        {
            "step": step,
            "mean_reward": st.mean_reward,
            "mean_kl": st.mean_kl,
            "clip_fraction": st.clip_fraction,
            "mae_pan": st.mae_pan,
            "mae_tilt": st.mae_tilt,
            "mae_zoom": st.mae_zoom,
            "reward_std": st.reward_std,
            "zero_signal_fraction": st.zero_signal_fraction,
        }
        for step, st in enumerate(history)
    ))
