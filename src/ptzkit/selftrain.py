"""Multi-round IoU-filtered self-training over pluggable policies.

Each round the current policy chooses an action for every training sample
in one batch call; the simulator projects each action to its post-action
bbox, and samples whose bbox overlaps the ground-truth box above the round's
IoU threshold survive, carrying the chosen action as their new label and
(optionally) the ground-truth box as supervision.  The policy is refit on
the survivors and scored on a held-out split.  Policies are adapters around
the oracle, a noise-corrupted oracle, a fitted regressor, or a trained toy
policy, so the loop runs end to end on synthetic scenes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

import numpy as np

from ptzkit import jsonl
from ptzkit import pseudolabel as pl
from ptzkit.camera import (
    CODE_FULL,
    VISIBILITY_CODES,
    BBoxPx,
    CameraIntrinsics,
    CameraState,
    TargetSpec,
    VISIBILITY_FULL,
    apply_action_batch,
    area_ratio,
    bbox_arrays,
    bbox_row,
    iou_batch,
    oracle_actions,
    project,  # noqa: F401  (perfbench checks its tracer restores selftrain.project)
    project_batch,
    target_corners,
)
from ptzkit.codec import ActionDelta, round_actions
from ptzkit.pseudolabel import FeatureVec, RegressorConfig, RegressorModel
from ptzkit.rewards import HEADS, GrpoTask, ToyPolicy

DEFAULT_FILL_RATIO = 0.30


class EmptyFilterError(RuntimeError):
    """An IoU filter round kept nothing; continuing would fabricate trends."""

    def __init__(self, round_idx: int, threshold: float):
        self.round_idx = round_idx
        self.threshold = threshold
        super().__init__(
            f"round {round_idx} filtered every sample at IoU threshold {threshold}"
        )


@dataclass(frozen=True)
class CompletionConfig:
    center_frac: float = 0.1
    min_area_ratio: float = 0.25
    require_full_visibility: bool = True


@dataclass(frozen=True)
class SampleTuple:
    id: str
    instruction: str
    features: FeatureVec
    camera_init: CameraState
    target: TargetSpec
    gt_action: ActionDelta
    gt_bbox_post: BBoxPx


@dataclass(frozen=True)
class MetricsReport:
    mae_theta1: float
    mae_theta2: float
    mae_zoom: float
    mean_iou: float
    completion_rate: float
    n_samples: int


@dataclass(frozen=True)
class RoundDiagnostics:
    n_total: int
    n_kept: int
    kept_fraction: float
    mean_iou_all: float
    mean_iou_kept: float


@dataclass(frozen=True)
class RoundReport:
    round_idx: int
    threshold: float | None
    metrics: MetricsReport
    diagnostics: RoundDiagnostics | None = None  # None for the round-0 baseline

    @property
    def kept_fraction(self) -> float:
        return 1.0 if self.diagnostics is None else self.diagnostics.kept_fraction


@dataclass(frozen=True)
class IterationConfig:
    rounds: int = 2
    iou_thresholds: tuple[float, ...] = (0.7, 0.95)
    replace_bbox: bool = True
    refit_each_round: bool = True
    test_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if any(not 0.0 <= t <= 1.0 for t in self.iou_thresholds):
            raise ValueError("IoU thresholds must lie in [0, 1]")
        if len(self.iou_thresholds) < self.rounds - 1:
            raise ValueError("need at least rounds - 1 IoU thresholds")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")

    def threshold_for_round(self, round_idx: int) -> float:
        # rounds beyond the list reuse its last threshold
        return self.iou_thresholds[min(round_idx - 1, len(self.iou_thresholds) - 1)]


class PolicyAdapter(Protocol):
    def actions(self, samples: Sequence[SampleTuple]) -> np.ndarray:
        """int64[n, 3] (pan, tilt, zoom) rows, one per sample in order; each
        depends only on its own sample."""
        ...


def _start_poses(samples: Sequence[SampleTuple]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.array([s.camera_init.pan for s in samples], dtype=np.float64),
        np.array([s.camera_init.tilt for s in samples], dtype=np.float64),
        np.array([s.camera_init.zoom_units for s in samples], dtype=np.float64),
    )


def _oracle_batch(samples: Sequence[SampleTuple], k: CameraIntrinsics, fill_ratio: float) -> np.ndarray:
    actions, ok = oracle_actions(*_start_poses(samples), k, [s.target for s in samples], fill_ratio)
    if not ok.all():
        raise ValueError("target out of front hemisphere")
    return actions


def _simulate_bboxes(
    samples: Sequence[SampleTuple], actions: np.ndarray, k: CameraIntrinsics
) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Each sample's post-action box and visibility code, from one projection of
    the batch, with its IoU against the sample's ground-truth box."""
    pose = apply_action_batch(*_start_poses(samples), actions)
    boxes, codes = project_batch(*pose, k, target_corners([s.target for s in samples]))
    overlaps = iou_batch(boxes, codes, *bbox_arrays([s.gt_bbox_post for s in samples]))
    return overlaps.tolist(), boxes, codes


@dataclass(frozen=True)
class OraclePolicy:
    k: CameraIntrinsics
    fill_ratio: float = DEFAULT_FILL_RATIO

    def actions(self, samples: Sequence[SampleTuple]) -> np.ndarray:
        return _oracle_batch(samples, self.k, self.fill_ratio)


def _sample_rng(seed: int, sample_id: str) -> np.random.Generator:
    # keyed by (seed, id) so per-sample noise is order-independent
    digest = hashlib.blake2b(sample_id.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(np.random.SeedSequence([seed, int.from_bytes(digest, "big")]))


@dataclass(frozen=True)
class NoisyOraclePolicy:
    """Oracle action plus Gaussian noise, rounded back to integers."""

    k: CameraIntrinsics
    sigma_pan: float = 5.0
    sigma_tilt: float = 5.0
    sigma_zoom: float = 30.0
    seed: int = 0
    fill_ratio: float = DEFAULT_FILL_RATIO

    def actions(self, samples: Sequence[SampleTuple]) -> np.ndarray:
        sigma = [self.sigma_pan, self.sigma_tilt, self.sigma_zoom]
        noise = np.array([_sample_rng(self.seed, s.id).normal(0.0, sigma) for s in samples]).reshape(-1, 3)
        return round_actions(_oracle_batch(samples, self.k, self.fill_ratio) + noise)


@dataclass(frozen=True)
class RegressorPolicy:
    model: RegressorModel

    def actions(self, samples: Sequence[SampleTuple]) -> np.ndarray:
        if not samples:
            return np.zeros((0, 3), dtype=np.int64)
        include_zoom = self.model.config.use_zoom_feature
        x = np.stack([s.features.as_array(include_zoom) for s in samples])
        return round_actions(self.model.predict_batch(x))


@dataclass(frozen=True)
class ToyPolicyAdapter:
    """Greedy (argmax) decoding of a trained toy policy."""

    policy: ToyPolicy

    def actions(self, samples: Sequence[SampleTuple]) -> np.ndarray:
        if not samples:
            return np.zeros((0, 3), dtype=np.int64)
        log_probs = [self.policy.log_probs(s.features.as_array(False)) for s in samples]
        idx = np.stack([np.argmax(np.stack([lp[h] for lp in log_probs]), axis=1) for h in HEADS], axis=1)
        return self.policy.actions_of(idx)


@dataclass(frozen=True)
class ConstantPolicy:
    action: ActionDelta

    def actions(self, samples: Sequence[SampleTuple]) -> np.ndarray:
        return np.tile(np.array(self.action.as_tuple(), dtype=np.int64), (len(samples), 1))


def make_samples(
    scene: Sequence[tuple[str, TargetSpec]],
    k: CameraIntrinsics,
    camera_init: CameraState = CameraState(),
    fill_ratio: float = DEFAULT_FILL_RATIO,
    templates: Sequence[str] = pl.DEFAULT_TEMPLATES,
    seed: int = 0,
) -> tuple[list[SampleTuple], list[tuple[str, str]]]:
    """Oracle-labeled samples for every target fully visible from the start pose.

    The start views, the oracle actions and the post-action views of the
    whole scene are each computed in one batch call.
    """
    rng = np.random.default_rng(seed)
    samples: list[SampleTuple] = []
    skipped: list[tuple[str, str]] = []
    targets = [t for _, t in scene]
    n = len(targets)
    pose = (np.full(n, camera_init.pan), np.full(n, camera_init.tilt), np.full(n, camera_init.zoom_units))
    corners = target_corners(targets)
    start_boxes, start_codes = project_batch(*pose, k, corners)
    gt_actions, has_oracle = oracle_actions(*pose, k, targets, fill_ratio)
    post_boxes, post_codes = project_batch(*apply_action_batch(*pose, gt_actions), k, corners)
    for i, (target_id, target) in enumerate(scene):
        template = templates[int(rng.integers(0, len(templates)))]
        if start_codes[i] != CODE_FULL:
            skipped.append((target_id, f"initial view is {VISIBILITY_CODES[start_codes[i]]}"))
            continue
        bbox0 = bbox_row(start_boxes[i], start_codes[i])
        x_norm, y_norm = pl.normalize_center(bbox0, k.image_w, k.image_h)
        w1 = area_ratio(bbox0, k)
        _, w2_crop = pl.isotropic_crop(bbox0, k.image_w, k.image_h)
        zoom_feat = 0.5 * math.log2(w2_crop / w1)
        if not has_oracle[i]:
            skipped.append((target_id, "target out of front hemisphere"))
            continue
        samples.append(
            SampleTuple(
                id=target_id,
                instruction=template.format(phrase=target.phrase),
                features=FeatureVec(x_norm, y_norm, w1, zoom_feat),
                camera_init=camera_init,
                target=target,
                gt_action=ActionDelta(*gt_actions[i].tolist()),
                gt_bbox_post=bbox_row(post_boxes[i], post_codes[i]),
            )
        )
    return samples, skipped


def relabel(dataset: Sequence[SampleTuple], policy: PolicyAdapter) -> list[SampleTuple]:
    """Replace every working action label with the policy's action."""
    return [replace(s, gt_action=ActionDelta(*a)) for s, a in zip(dataset, policy.actions(dataset).tolist())]


def completion(post_bbox: BBoxPx, k: CameraIntrinsics, cfg: CompletionConfig = CompletionConfig()) -> bool:
    """Centered-and-magnified predicate on the post-action view."""
    if post_bbox.is_empty():
        return False
    if cfg.require_full_visibility and post_bbox.visibility != VISIBILITY_FULL:
        return False
    cx, cy = post_bbox.center()
    dx = cx - k.image_w / 2.0
    dy = cy - k.image_h / 2.0
    if (dx * dx + dy * dy) ** 0.5 > cfg.center_frac * min(k.image_w, k.image_h):
        return False
    return area_ratio(post_bbox, k) >= cfg.min_area_ratio


def evaluate(
    policy: PolicyAdapter,
    testset: Sequence[SampleTuple],
    k: CameraIntrinsics,
    completion_cfg: CompletionConfig = CompletionConfig(),
) -> MetricsReport:
    """Per-dimension MAE, mean post-action IoU, and completion rate."""
    if not testset:
        raise ValueError("empty test set")
    actions = policy.actions(testset)
    overlaps, boxes, codes = _simulate_bboxes(testset, actions, k)
    taken = actions.astype(np.float64)
    wanted = np.array([s.gt_action.as_tuple() for s in testset], dtype=np.float64)
    abs_err = np.abs(taken - wanted).sum(axis=0)  # integer-valued: exact in any order
    iou_sum = 0.0
    for overlap in overlaps:  # in order, one addition at a time, as the mean has always been taken
        iou_sum += overlap
    completed = sum(completion(bbox_row(b, c), k, completion_cfg) for b, c in zip(boxes, codes))
    n = len(testset)
    return MetricsReport(
        mae_theta1=float(abs_err[0] / n),
        mae_theta2=float(abs_err[1] / n),
        mae_zoom=float(abs_err[2] / n),
        mean_iou=iou_sum / n,
        completion_rate=completed / n,
        n_samples=n,
    )


def run_round(
    dataset: Sequence[SampleTuple],
    policy: PolicyAdapter,
    k: CameraIntrinsics,
    threshold: float,
    replace_bbox: bool = True,
) -> tuple[list[SampleTuple], RoundDiagnostics]:
    """One filter round: keep samples whose simulated bbox beats the threshold.

    The policy chooses every action in one batch call and each action is
    projected from the sample's start pose.  Kept samples carry the chosen
    action as their label; their supervision box is the ground-truth box when
    ``replace_bbox`` is on, otherwise the simulated box.
    """
    if not dataset:
        raise ValueError("empty dataset")
    actions = policy.actions(dataset)
    overlaps, boxes, codes = _simulate_bboxes(dataset, actions, k)
    refined: list[SampleTuple] = []
    iou_all = 0.0
    iou_kept = 0.0
    for i, (s, overlap) in enumerate(zip(dataset, overlaps)):
        iou_all += overlap
        if overlap > threshold:
            iou_kept += overlap
            refined.append(
                replace(
                    s,
                    gt_action=ActionDelta(*actions[i].tolist()),
                    gt_bbox_post=s.gt_bbox_post if replace_bbox else bbox_row(boxes[i], codes[i]),
                )
            )
    n, n_kept = len(dataset), len(refined)
    return refined, RoundDiagnostics(
        n_total=n,
        n_kept=n_kept,
        kept_fraction=n_kept / n,
        mean_iou_all=iou_all / n,
        mean_iou_kept=(iou_kept / n_kept) if n_kept else 0.0,
    )


PolicyFactory = Callable[[Sequence[SampleTuple], int], PolicyAdapter]


def regressor_policy_factory(cfg: RegressorConfig) -> PolicyFactory:
    """Refit operation: a fresh regressor on the round's dataset, seeded per round."""

    def factory(samples: Sequence[SampleTuple], round_idx: int) -> RegressorPolicy:
        round_cfg = replace(cfg, seed=cfg.seed + round_idx)
        model = pl.fit([(s.features, s.gt_action) for s in samples], round_cfg)
        return RegressorPolicy(model)

    return factory


def split_dataset(
    dataset: Sequence[SampleTuple], test_fraction: float, seed: int
) -> tuple[list[SampleTuple], list[SampleTuple]]:
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * test_fraction)))
    test_idx = set(order[:n_test].tolist())
    train = [s for i, s in enumerate(dataset) if i not in test_idx]
    test = [s for i, s in enumerate(dataset) if i in test_idx]
    return train, test


def iterate(
    dataset: Sequence[SampleTuple],
    cfg: IterationConfig,
    policy_factory: PolicyFactory,
    k: CameraIntrinsics,
    testset: Sequence[SampleTuple] | None = None,
    completion_cfg: CompletionConfig = CompletionConfig(),
    on_round: Callable[[int, Sequence[SampleTuple]], None] | None = None,
) -> list[RoundReport]:
    """Fit, then repeat (predict, filter, relabel, refit), scoring every round.

    Round 0 is the baseline fit on the raw dataset.  Round r >= 1 filters at
    the configured threshold (reusing the last one when the list is short),
    refits on the survivors when ``refit_each_round`` is on, and evaluates on
    the held-out split.  An empty post-filter set aborts the run.  ``on_round``
    receives each round's refined dataset, e.g. to write it out.
    """
    if testset is None:
        train, testset = split_dataset(dataset, cfg.test_fraction, cfg.seed)
    else:
        train = list(dataset)
    if not train or not testset:
        raise ValueError("empty train or test split")
    policy = policy_factory(train, 0)
    reports = [RoundReport(0, None, evaluate(policy, testset, k, completion_cfg))]
    current = train
    for round_idx in range(1, cfg.rounds + 1):
        threshold = cfg.threshold_for_round(round_idx)
        current, diag = run_round(current, policy, k, threshold, cfg.replace_bbox)
        if not current:
            raise EmptyFilterError(round_idx, threshold)
        if on_round is not None:
            on_round(round_idx, current)
        if cfg.refit_each_round:
            try:
                policy = policy_factory(current, round_idx)
            except ValueError as exc:
                raise ValueError(
                    f"round {round_idx} kept only {len(current)} samples at IoU "
                    f"threshold {threshold}; refit failed: {exc}"
                ) from exc
        reports.append(
            RoundReport(
                round_idx,
                threshold,
                evaluate(policy, testset, k, completion_cfg),
                diag,
            )
        )
    return reports


def grpo_tasks_from_samples(samples: Sequence[SampleTuple]) -> list[GrpoTask]:
    return [
        GrpoTask(
            prompt_id=s.id,
            features=s.features.as_array(False),
            camera=s.camera_init,
            target=s.target,
            gt_action=s.gt_action,
            gt_bbox=s.gt_bbox_post,
        )
        for s in samples
    ]


# --- file formats ----------------------------------------------------------


def _report_row(r: RoundReport) -> dict:
    d = r.diagnostics
    return {
        "round": r.round_idx,
        "threshold": r.threshold,
        "kept_fraction": r.kept_fraction,
        "n_total": None if d is None else d.n_total,
        "n_kept": None if d is None else d.n_kept,
        "mean_iou_all": None if d is None else d.mean_iou_all,
        "mean_iou_kept": None if d is None else d.mean_iou_kept,
        "mean_iou": r.metrics.mean_iou,
        "mae_theta1": r.metrics.mae_theta1,
        "mae_theta2": r.metrics.mae_theta2,
        "mae_zoom": r.metrics.mae_zoom,
        "cr": r.metrics.completion_rate,
    }


def write_round_reports(path, reports: Sequence[RoundReport]) -> None:
    """One JSON object per round with the filter and test metrics.

    The filter counts and IoU means are null for round 0, which filters nothing.
    """
    jsonl.write(path, (_report_row(r) for r in reports))


def sample_to_pseudolabel(s: SampleTuple, k: CameraIntrinsics) -> pl.PseudoLabel:
    return pl.PseudoLabel(
        record_id=s.id,
        instruction=s.instruction,
        action=s.gt_action,
        gt_bbox_post=s.gt_bbox_post,
        w1=s.features.w1,
        w2=area_ratio(s.gt_bbox_post, k),
    )
