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

import copy
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ptzkit import jsonl
from ptzkit.camera import (
    BBoxPx,
    CameraIntrinsics,
    apply_action_batch,
    bbox_arrays,
    corner_view,
    focal_lengths,
    iou_batch,
    project_dots,
)
from ptzkit.codec import MAX_ACTION_VALUE, ActionDelta
from ptzkit.pseudolabel import FEATURE_NAMES

if TYPE_CHECKING:  # selftrain imports this module
    from ptzkit.selftrain import SampleSet

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


CLIP_EPS = 0.2  # trust region of the importance ratio
STD_GUARD = 1e-8  # keeps a group of equal rewards at zero advantage


def row_advantages(rewards: np.ndarray, std_guard: float = STD_GUARD) -> np.ndarray:
    """Group-normalized advantages of each row (the last axis is one group):
    (r - mean) / (population std + guard)."""
    d = rewards - rewards.mean(axis=-1, keepdims=True)
    return d / (np.sqrt((d * d).sum(axis=-1, keepdims=True) / rewards.shape[-1]) + std_guard)  # np.std's steps


def group_advantages(rewards: Sequence[float], std_guard: float = STD_GUARD) -> list[float]:
    """``row_advantages`` of one group."""
    if len(rewards) < 2:
        raise ValueError("advantage normalization needs at least 2 rewards")
    return list(row_advantages(np.asarray(rewards, dtype=np.float64), std_guard))


@dataclass(frozen=True)
class GRPOConfig:
    kl_weight: float = 0.04
    group_size: int = 8
    learning_rate: float = 4.0  # suits the toy policy's unit reward scale

    def __post_init__(self):
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


def draw_bins(probs: dict[str, np.ndarray], uniforms: np.ndarray) -> np.ndarray:
    """int64[T, n, 3] bin indices drawn by inverse CDF from per-head probabilities ``probs``.

    ``probs[h]`` is float64[T, n_bins], the ``exp`` of ``ToyPolicy.log_prob_rows``, and
    ``uniforms`` is float64[T, n, 3] from ``rng.random``, one per rollout and head in that
    order.  ``Generator.choice(len(p), p=p / p.sum())`` reads one ``random()`` and returns
    ``searchsorted(cumsum(p) / cdf[-1], u, side="right")``, the count of CDF entries ``<= u``;
    so the draws equal one ``choice`` call per head and rollout.  The CDFs are laid out bins
    first and padded with zero probabilities to one width, where they stay at 1.0, above every
    ``u``, so one compare and one count serve every head.
    """
    width = max(p.shape[-1] for p in probs.values())
    cdf = np.zeros((width, len(uniforms), len(HEADS)))
    for j, p in enumerate(probs[h] for h in HEADS):
        cdf[: p.shape[1], :, j] = (p / p.sum(axis=1, keepdims=True)).T
    cdf = cdf.cumsum(axis=0)
    cdf /= cdf[-1]
    u = np.ascontiguousarray(uniforms.transpose(1, 0, 2))  # [n, T, 3]
    counts = (cdf[:, None] <= u).sum(axis=0, dtype=np.int8 if width < 128 else np.int64)
    return counts.transpose(1, 0, 2).astype(np.int64, order="C")


class ToyPolicy:
    """Three independent linear-softmax heads over discrete action bins.

    The weights are one float64[n_pan + n_tilt + n_zoom, n_features + 1] matrix, ``stacked``:
    pan's bins' rows, then tilt's, then zoom's; ``weights[h]`` views head h's rows.  The last
    column multiplies a constant 1 appended to the features.  Zero weights are uniform.
    """

    def __init__(self, bins: dict[str, np.ndarray], weights: dict[str, np.ndarray]):
        self.bins = {h: np.asarray(bins[h], dtype=np.int64) for h in HEADS}
        for h, low in zip(HEADS, (-MAX_ACTION_VALUE, -MAX_ACTION_VALUE, 0)):
            if self.bins[h].size == 0:  # a head's columns must be a non-empty ``reduceat`` segment
                raise ValueError(f"{h} needs at least one bin")
            if len(weights[h]) != self.bins[h].shape[0]:
                raise ValueError(f"{h} weight rows must match bin count")
            if np.any(self.bins[h] < low) or np.any(self.bins[h] > MAX_ACTION_VALUE):
                raise ValueError(f"{h} bins must lie in [{low}, {MAX_ACTION_VALUE}]")
        self.sizes = [len(self.bins[h]) for h in HEADS]
        self.starts = np.cumsum([0, *self.sizes[:-1]])  # each head's first row of ``stacked``
        self.slices = [slice(a, a + n) for a, n in zip(self.starts.tolist(), self.sizes)]
        self.bin_values = np.concatenate([self.bins[h] for h in HEADS])  # each column's bin
        self.stacked = np.concatenate([np.asarray(weights[h], dtype=np.float64) for h in HEADS])
        self.n_features = self.stacked.shape[1] - 1

    @property
    def weights(self) -> dict[str, np.ndarray]:
        return {h: self.stacked[s] for h, s in zip(HEADS, self.slices)}  # views: writing one writes ``stacked``

    @classmethod
    def init(cls, n_features: int, bins: dict[str, np.ndarray] | None = None) -> "ToyPolicy":
        bins = bins if bins is not None else default_bins()
        weights = {h: np.zeros((bins[h].shape[0], n_features + 1)) for h in HEADS}
        return cls(bins, weights)

    def clone(self) -> "ToyPolicy":
        return ToyPolicy({h: self.bins[h].copy() for h in HEADS}, self.weights)

    def split_heads(self, matrix: np.ndarray) -> dict[str, np.ndarray]:
        """Per-head views of the columns of a float64[..., n_pan + n_tilt + n_zoom] array."""
        return {h: matrix[..., s] for h, s in zip(HEADS, self.slices)}

    def log_prob_matrix(self, features: np.ndarray) -> np.ndarray:
        """float64[T, n_pan + n_tilt + n_zoom] log-probabilities of each row of ``features``,
        a column per row of ``stacked``.  The ``einsum`` rounds each logit the same way whatever
        T is (a matmul would not, and would round by the BLAS kernel); each head's maximum and
        sum of exponentials are one ``reduceat`` each."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {features.shape[-1]}")
        phi = np.hstack([features, np.ones((features.shape[0], 1))])
        z = np.einsum("tk,bk->tb", phi, self.stacked)
        z -= np.maximum.reduceat(z, self.starts, axis=1).repeat(self.sizes, axis=1)
        return z - np.log(np.add.reduceat(np.exp(z), self.starts, axis=1)).repeat(self.sizes, axis=1)

    def log_prob_rows(self, features: np.ndarray) -> dict[str, np.ndarray]:
        """Per-head float64[T, n_bins] views of ``log_prob_matrix``."""
        return self.split_heads(self.log_prob_matrix(features))

    def log_probs(self, features: np.ndarray) -> dict[str, np.ndarray]:
        """Per-head float64[n_bins] log-probabilities of one feature vector."""
        return self.split_heads(self.log_prob_matrix(np.asarray(features, dtype=np.float64)[None, :])[0])

    def actions_of(self, idx: np.ndarray) -> np.ndarray:
        """int64[..., 3] (pan, tilt, zoom) actions of bin-index rows."""
        return self.bin_values[idx + self.starts]

    def sample(self, features: np.ndarray, rng: np.random.Generator) -> tuple[tuple[int, int, int], ActionDelta]:
        probs = np.exp(self.log_prob_matrix(np.asarray(features, dtype=np.float64)[None, :]))
        idx = draw_bins(self.split_heads(probs), rng.random((1, 1, len(HEADS))))[0]
        return tuple(idx[0].tolist()), ActionDelta(*self.actions_of(idx)[0].tolist())

    def to_dict(self) -> dict:
        return {
            "bins": {h: self.bins[h].tolist() for h in HEADS},
            "weights": {h: self.weights[h].tolist() for h in HEADS},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToyPolicy":
        """A policy as ``to_dict`` writes it, over the 3 sample features: per
        head, at least one integer bin and one weight row per bin, each a
        weight per feature and a bias, all finite JSON numbers.  Anything else
        raises ``ValueError`` naming the head."""
        width = len(FEATURE_NAMES) + 1
        bins, weights = {}, {}
        for h in HEADS:
            bins[h] = np.array([jsonl.integer(b, f"{h} bins") for b in d["bins"][h]], dtype=np.int64)
            rows = [jsonl.finite(row, f"{h} weights") for row in d["weights"][h]]
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise ValueError(
                        f"{h} weight row {i} holds {len(row)} numbers, not {width} ({width - 1} features and a bias)"
                    )
            weights[h] = np.array(rows, dtype=np.float64).reshape(len(rows), width)
        return cls(bins, weights)


def save_policy(path, policy: ToyPolicy, seed: int | None = None) -> None:
    doc = policy.to_dict()
    if seed is not None:
        doc["seed"] = seed
    jsonl.write(path, [doc])


@dataclass
class RolloutBatch:
    """T prompts' groups of n sampled rollouts each, as [T, n] arrays.

    ``cur_log_probs`` and ``ref_log_probs`` hold each prompt's per-head
    log-probabilities, float64[T, n_bins], as ``ToyPolicy.log_prob_rows``
    gives them: under the policy that sampled the batch, which is the one
    ``grpo_step`` steps, and under the frozen reference of the KL term.
    ``probs``, the sampler's, is their ``exp`` side by side (taken if not given).
    """

    features: np.ndarray  # float64[T, n_features]
    bins: np.ndarray  # int64[T, n, 3] bin indices per head
    actions: np.ndarray  # int64[T, n, 3] (pan, tilt, zoom) of ``bins``
    logp_old: np.ndarray  # float64[T, n], of ``bins`` under the policy that sampled them
    rewards: np.ndarray  # float64[T, n]
    advantages: np.ndarray  # float64[T, n]
    cur_log_probs: dict[str, np.ndarray]
    ref_log_probs: dict[str, np.ndarray]
    gt_actions: np.ndarray | None = None  # int64[T, 3]
    probs: np.ndarray | None = None  # float64[T, n_pan + n_tilt + n_zoom]

    def __post_init__(self):
        t, n = self.rewards.shape
        if n < 2:
            raise ValueError("a rollout group needs at least 2 outcomes")
        shapes = (self.bins.shape, self.logp_old.shape, self.features.shape[0])
        if shapes != ((t, n, len(HEADS)), (t, n), t):
            raise ValueError("rollout batch arrays disagree on their [T, n] shape")
        if self.probs is None:
            self.probs = np.exp(np.concatenate([self.cur_log_probs[h] for h in HEADS], axis=1))


def _taken_log_probs(log_probs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """float64[T, n] log-probability of the int64[T, n, 3] columns ``cols`` of ``log_probs``, in head order."""
    taken = log_probs[np.arange(cols.shape[0])[:, None, None], cols]
    return taken[..., 0] + taken[..., 1] + taken[..., 2]


def _rollout_tables(samples: SampleSet, policy: ToyPolicy, k: CameraIntrinsics, cfg: RewardConfig) -> np.ndarray:
    """float64[12, (n_pan + n_tilt + n_zoom) * T] table of what each bin (a ``log_prob_matrix``
    column c) fixes for each prompt p, at column c * T + p: its reward term, the target corners'
    dots a and r (``camera.corner_view``) at the post-action pan, the post-action tilt's sine and
    cosine and the post-action zoom's focal length, of which a bin's own head reads its entries.
    Each is an elementwise rule on the (prompt, bin) grid, so it has a rollout row's bits."""
    t, values = len(samples), policy.bin_values
    moves = np.repeat(values, t)[:, None].repeat(len(HEADS), axis=1)  # every bin's value on every axis
    pose = apply_action_batch(*np.tile(samples.pose.T, len(values)), moves)
    pan, tilt, zoom = (p.reshape(len(values), t) for p in pose)
    a, r, _, sin_tilt, cos_tilt = corner_view(pan, tilt, samples.corners[:, None])  # a, r: [4, columns, T]
    gt, rules = samples.actions.T.astype(np.float64), (angle_rewards, angle_rewards, zoom_rewards)
    terms = np.concatenate([f(policy.bins[h][:, None], g, cfg) for h, f, g in zip(HEADS, rules, gt)])
    return np.stack([terms, *a, *r, sin_tilt, cos_tilt, focal_lengths(zoom, k)]).reshape(12, -1)


def _rollout_rewards(table: np.ndarray, cols: np.ndarray, rows: SampleSet, k: CameraIntrinsics) -> np.ndarray:
    """float64[T, n] composite rewards of the rollouts that took ``log_prob_matrix`` columns
    ``cols`` (int64[T, n, 3]): their ``_rollout_tables`` entries, gathered by one ``take``, and
    one ``project_dots`` and IoU of the T*n ``rows`` (each prompt repeated n times)."""
    t, n = cols.shape[:2]
    cells = (cols * t + np.arange(t)[:, None, None]).ravel()
    pan, tilt, zoom = table.take(cells, axis=1).reshape(len(table), t * n, 3).transpose(2, 0, 1)
    view = (pan[1:5], pan[5:9], np.ascontiguousarray(rows.corners[:, :, 1].T), tilt[9], tilt[10])
    boxes, codes = project_dots(view, zoom[11], k)
    terms = np.array([iou_batch(boxes, codes, rows.boxes, rows.codes), pan[0], tilt[0], zoom[0]])
    return reward_totals(terms.T).reshape(t, n)


def _sample_batch(
    policy: ToyPolicy,
    ref_log_probs: dict[str, np.ndarray],
    samples: SampleSet,
    rows: SampleSet,
    table: np.ndarray,
    k: CameraIntrinsics,
    cfg: GRPOConfig,
    rng: np.random.Generator,
) -> RolloutBatch:
    """Sample every prompt's group on-policy and score all T*n rollouts in one pass.

    ``rows`` holds each of the T ``samples`` repeated for its n rollouts, and
    ``table`` is their ``_rollout_tables``.  One ``rng.random`` call draws every
    bin (the stream of one call of n*3 per prompt, in prompt order), from
    probabilities taken once and carried to ``grpo_step``.  Each array row is
    computed on its own, so a prompt's draws, rewards, advantages and
    log-probabilities are those of sampling and scoring it alone.
    """
    log_probs = policy.log_prob_matrix(samples.features)
    probs = np.exp(log_probs)
    t, n = len(samples), cfg.group_size
    idx = draw_bins(policy.split_heads(probs), rng.random(t * n * len(HEADS)).reshape(t, n, len(HEADS)))
    cols = idx + policy.starts
    rewards = _rollout_rewards(table, cols, rows, k)
    return RolloutBatch(
        features=samples.features,
        bins=idx,
        actions=policy.actions_of(idx),
        logp_old=_taken_log_probs(log_probs, cols),
        rewards=rewards,
        advantages=row_advantages(rewards),
        cur_log_probs=policy.split_heads(log_probs),
        ref_log_probs=ref_log_probs,
        gt_actions=samples.actions,
        probs=probs,
    )


def build_rollout_group(
    policy: ToyPolicy,
    ref_policy: ToyPolicy,
    sample: SampleSet,
    k: CameraIntrinsics,
    cfg: GRPOConfig,
    reward_cfg: RewardConfig,
    rng: np.random.Generator,
) -> RolloutBatch:
    """One prompt's group, sampled on-policy and scored: a one-sample batch of
    ``grpo_train``'s sampler.  ``sample`` is a one-row ``SampleSet``."""
    ref_lp = ref_policy.log_prob_rows(sample.features)
    rows = sample[np.zeros(cfg.group_size, dtype=np.int64)]
    table = _rollout_tables(sample, policy, k, reward_cfg)
    return _sample_batch(policy, ref_lp, sample, rows, table, k, cfg, rng)


def _group_kl(cur_lp: dict[str, np.ndarray], ref_lp: dict[str, np.ndarray]) -> float:
    total = 0.0
    for h in HEADS:
        p = np.exp(cur_lp[h])
        total += float(np.sum(p * (cur_lp[h] - ref_lp[h])))
    return total


def _clipped_term(s: float, advantage: float, clip_eps: float) -> float:
    clipped = min(max(s, 1.0 - clip_eps), 1.0 + clip_eps)
    return min(s * advantage, clipped * advantage)


def objective_under_policy(policy: ToyPolicy, batch: RolloutBatch, cfg: GRPOConfig) -> float:
    """The batch objective with current log-probabilities recomputed from ``policy``.

    Behavior (old) and reference log-probabilities stay as stored, so this is
    the function of the policy parameters whose gradient ``grpo_step`` takes.
    """
    t, n = batch.rewards.shape
    total = 0.0
    for i in range(t):
        cur_lp = policy.log_probs(batch.features[i])
        g = 0.0
        for b, logp_old, advantage in zip(
            batch.bins[i].tolist(), batch.logp_old[i].tolist(), batch.advantages[i].tolist()
        ):
            lp = float(sum(cur_lp[h][b[j]] for j, h in enumerate(HEADS)))
            g += _clipped_term(math.exp(lp - logp_old), advantage, CLIP_EPS)
        kl = _group_kl(cur_lp, {h: batch.ref_log_probs[h][i] for h in HEADS})
        total += g / n - cfg.kl_weight * kl
    return total / t


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


def grpo_step(policy: ToyPolicy, batch: RolloutBatch, cfg: GRPOConfig) -> tuple[ToyPolicy, StepStats]:
    """One ascent step on the batch objective via the analytic gradient.

    The current log-probabilities are ``batch.cur_log_probs``, which must be
    ``policy``'s.  The logit gradient ``dz`` has a column per row of
    ``policy.stacked``: each rollout's unclipped surrogate coefficient added
    into its taken bins (one ``np.bincount``), minus the prompt's
    probabilities times the sum of its coefficients, minus the KL weight's
    share of the KL gradient.  The weight gradient is one ``einsum``, which
    sums over the prompts in order with no BLAS kernel.  A group of equal
    rewards adds nothing to the surrogate; ``zero_signal_fraction`` counts them.
    """
    t, n = batch.rewards.shape
    if batch.features.shape[1] != policy.n_features:
        raise ValueError(f"expected {policy.n_features} features, got {batch.features.shape[1]}")
    cur, ref = (np.concatenate([lp[h] for h in HEADS], axis=1) for lp in (batch.cur_log_probs, batch.ref_log_probs))
    cols = batch.bins + policy.starts  # each rollout's three columns of ``cur``
    lp = _taken_log_probs(cur, cols)
    if not (np.isfinite(lp).all() and np.isfinite(batch.logp_old).all()):
        raise ValueError("non-finite log-probabilities in rollout batch")
    phi = np.hstack([batch.features, np.ones((t, 1))])
    s = np.exp(lp - batch.logp_old)
    advantage = batch.advantages
    clipped = ((advantage > 0) & (s > 1.0 + CLIP_EPS)) | ((advantage < 0) & (s < 1.0 - CLIP_EPS))
    coef = np.where(clipped, 0.0, s * advantage / (n * t))
    cells = (cols + cur.shape[1] * np.arange(t)[:, None, None]).ravel()  # each taken bin's place in ``cur``
    dz = np.bincount(cells, coef.repeat(len(HEADS)), cur.size).reshape(cur.shape)
    probs, diff = batch.probs, cur - ref
    kl_heads = np.add.reduceat(probs * diff, policy.starts, axis=1)
    dz -= probs * coef.sum(axis=1, keepdims=True)
    dz -= (cfg.kl_weight / t) * probs * (diff - kl_heads.repeat(policy.sizes, axis=1))
    stacked = policy.stacked + cfg.learning_rate * np.einsum("tk,tb->kb", phi, dz).T
    if not np.isfinite(stacked).all():
        raise ValueError("non-finite gradient step")
    new_policy = copy.copy(policy)  # the same bins, already checked when the policy was built
    new_policy.stacked = stacked
    gt = np.nan if batch.gt_actions is None else batch.gt_actions[:, None, :]  # integers: the sum is exact
    mae = np.abs(batch.actions - gt).sum(axis=(0, 1)) / (t * n)
    stats = StepStats(
        mean_reward=float(batch.rewards.mean()),
        mean_kl=float((kl_heads[:, 0] + kl_heads[:, 1] + kl_heads[:, 2]).mean()),
        clip_fraction=int(clipped.sum()) / (t * n),
        mae_pan=float(mae[0]),
        mae_tilt=float(mae[1]),
        mae_zoom=float(mae[2]),
        reward_std=float(np.std(batch.rewards.ravel())),
        zero_signal_fraction=int((batch.rewards.min(axis=1) == batch.rewards.max(axis=1)).sum()) / t,
    )
    return new_policy, stats


def grpo_train(
    policy: ToyPolicy,
    samples: SampleSet,
    k: CameraIntrinsics,
    cfg: GRPOConfig,
    reward_cfg: RewardConfig,
    steps: int,
    seed: int = 0,
) -> tuple[ToyPolicy, list[StepStats]]:
    """On-policy training loop: each step samples every prompt's group in one batch, then takes one step.

    Each sample of ``make_samples`` is a prompt, scored from its start pose
    against its action label and box.  Once per run: the rollout rows (each
    sample repeated for its group), the reference log-probabilities (the
    reference policy is the starting one) and the ``_rollout_tables``.  Once
    per step: the draws, and each rollout's projection, IoU and reward.
    """
    if not samples:
        raise ValueError("no samples to train on")
    rows = samples[np.repeat(np.arange(len(samples)), cfg.group_size)]
    ref_lp = policy.log_prob_rows(samples.features)
    table = _rollout_tables(samples, policy, k, reward_cfg)
    rng = np.random.default_rng(seed)
    history = []
    for _ in range(steps):
        batch = _sample_batch(policy, ref_lp, samples, rows, table, k, cfg, rng)
        policy, stats = grpo_step(policy, batch, cfg)
        history.append(stats)
    return policy, history


def write_training_log(path, history: Sequence[StepStats]) -> None:
    """Line-delimited per-step records of the training trajectory: the step,
    then the ``StepStats`` fields in their declared order."""
    jsonl.write(path, ({"step": step, **vars(stats)} for step, stats in enumerate(history)))
