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
    CODE_OUT,
    VISIBILITY_CODES,
    BBoxPx,
    CameraIntrinsics,
    CameraState,
    SceneSet,
    apply_action_batch,
    bbox_arrays,
    box_areas,
    iou_batch,
    oracle_actions,
    project,  # noqa: F401  (perfbench checks its tracer restores selftrain.project)
    project_batch,
    target_corners,
)
from ptzkit.codec import MAX_ACTION_VALUE, ActionDelta, round_actions
from ptzkit.pseudolabel import RegressorConfig, RegressorModel
from ptzkit.rewards import HEADS, ToyPolicy

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


@dataclass(frozen=True, eq=False)
class SampleSet(jsonl.RowSet):
    """Samples as row-aligned arrays: row i of every field belongs to sample i.

    ``actions`` are the working labels and ``boxes``/``codes`` the
    supervision boxes, as ``camera.project_batch`` returns them.
    """

    ids: np.ndarray  # object[n] str
    instructions: np.ndarray  # object[n] str
    geometry: np.ndarray  # float64[n, 5] the target's row of ``SceneSet.geometry``
    features: np.ndarray  # float64[n, 3] (x_norm, y_norm, w1) of the start box
    pose: np.ndarray  # float64[n, 3] start (pan, tilt, zoom)
    corners: np.ndarray  # float64[n, 4, 3] ``target_corners`` of ``geometry``
    actions: np.ndarray  # int64[n, 3] (pan, tilt, zoom)
    boxes: np.ndarray  # float64[n, 4]
    codes: np.ndarray  # int8[n] visibility codes of ``boxes``


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

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if any(not 0.0 <= t <= 1.0 for t in self.iou_thresholds):
            raise ValueError("IoU thresholds must lie in [0, 1]")
        if len(self.iou_thresholds) < self.rounds - 1:
            raise ValueError("need at least rounds - 1 IoU thresholds")

    def threshold_for_round(self, round_idx: int) -> float:
        # rounds beyond the list reuse its last threshold
        return self.iou_thresholds[min(round_idx - 1, len(self.iou_thresholds) - 1)]


class PolicyAdapter(Protocol):
    def actions(self, samples: SampleSet) -> np.ndarray:
        """int64[n, 3] (pan, tilt, zoom) rows, one per sample in order; each
        depends only on its own sample."""
        ...


def _oracle_batch(samples: SampleSet, k: CameraIntrinsics, fill_ratio: float) -> np.ndarray:
    actions, ok = oracle_actions(*samples.pose.T, k, samples.geometry, samples.corners, fill_ratio)
    if not ok.all():
        raise ValueError("target out of front hemisphere")
    return actions


def _simulate_bboxes(
    samples: SampleSet, actions: np.ndarray, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each sample's IoU against its supervision box, with its post-action box
    and visibility code, from one projection of the batch."""
    boxes, codes = project_batch(*apply_action_batch(*samples.pose.T, actions), k, samples.corners)
    return iou_batch(boxes, codes, samples.boxes, samples.codes), boxes, codes


@dataclass(frozen=True)
class OraclePolicy:
    k: CameraIntrinsics
    fill_ratio: float = DEFAULT_FILL_RATIO

    def actions(self, samples: SampleSet) -> np.ndarray:
        return _oracle_batch(samples, self.k, self.fill_ratio)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a counter that steps by the
# golden gamma, and the finalizer that mixes each count into 64 random bits.
_GAMMA = 0x9E3779B97F4A7C15
_MASK_64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer over a uint64 array; the multiplies wrap, which
    numpy does silently for arrays only (its scalar form warns)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _keyed_normals(seed: int, ids) -> np.ndarray:
    """float64[n, 3] standard normals, row ``i`` a function of (seed, ids[i]) alone.

    Sample ``i``'s key, the 8-byte blake2b of its id read big-endian, xor the
    mix of ``seed`` mod 2**64, is a SplitMix64 state.  Its first four outputs
    give uniforms u1..u4 = (top 52 bits + 1/2) / 2**52, exact and inside
    (0, 1), and Box-Muller gives ``r1 cos(t2)``, ``r1 sin(t2)`` and
    ``r3 cos(t4)``, with ``r = sqrt(-2 ln u)`` and ``t = 2 pi u``.  ``ln`` is
    ``math.log`` per value: ``np.log`` rounds some values differently.
    """
    digests = b"".join(hashlib.blake2b(i.encode("utf-8"), digest_size=8).digest() for i in ids)
    keys = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    state = keys ^ _mix64(np.array([int(seed) & _MASK_64], dtype=np.uint64))
    bits = _mix64(state[:, None] + np.arange(1, 5, dtype=np.uint64) * _GAMMA)
    u = ((bits >> 12).astype(np.float64) + 0.5) * 2.0**-52
    r = np.sqrt(-2.0 * np.array([math.log(v) for v in u[:, 0::2].ravel().tolist()])).reshape(-1, 2)
    t = u[:, 1::2] * (2.0 * math.pi)
    return np.stack([r[:, 0] * np.cos(t[:, 0]), r[:, 0] * np.sin(t[:, 0]), r[:, 1] * np.cos(t[:, 1])], axis=1)


@dataclass(frozen=True)
class NoisyOraclePolicy:
    """Oracle action plus Gaussian noise, rounded back to integers."""

    k: CameraIntrinsics
    sigma_angle: float = 5.0  # pan and tilt
    sigma_zoom: float = 30.0
    seed: int = 0
    fill_ratio: float = DEFAULT_FILL_RATIO

    def actions(self, samples: SampleSet) -> np.ndarray:
        # each sample's three keyed standard normals, scaled once; a sum past
        # the codec range, an overflow to +/-inf included, saturates there
        oracle = _oracle_batch(samples, self.k, self.fill_ratio)
        z = _keyed_normals(self.seed, samples.ids)
        sigma = np.array([self.sigma_angle, self.sigma_angle, self.sigma_zoom])
        with np.errstate(over="ignore"):
            noisy = oracle + z * sigma
        return round_actions(np.clip(noisy, -MAX_ACTION_VALUE, MAX_ACTION_VALUE))


@dataclass(frozen=True)
class RegressorPolicy:
    model: RegressorModel

    def actions(self, samples: SampleSet) -> np.ndarray:
        if not samples:
            return np.zeros((0, 3), dtype=np.int64)
        return round_actions(self.model.predict_batch(samples.features))


@dataclass(frozen=True)
class ToyPolicyAdapter:
    """Greedy (argmax) decoding of a trained toy policy."""

    policy: ToyPolicy

    def actions(self, samples: SampleSet) -> np.ndarray:
        if not samples:
            return np.zeros((0, 3), dtype=np.int64)
        log_probs = self.policy.log_prob_rows(samples.features)
        idx = np.stack([np.argmax(log_probs[h], axis=1) for h in HEADS], axis=1)
        return self.policy.actions_of(idx)


@dataclass(frozen=True)
class ConstantPolicy:
    action: ActionDelta

    def actions(self, samples: SampleSet) -> np.ndarray:
        return np.tile(np.array(self.action.as_tuple(), dtype=np.int64), (len(samples), 1))


def make_samples(
    scene: SceneSet,
    k: CameraIntrinsics,
    camera_init: CameraState = CameraState(),
    fill_ratio: float = DEFAULT_FILL_RATIO,
    seed: int = 0,
) -> tuple[SampleSet, list[tuple[str, str]]]:
    """Oracle-labeled samples for every target fully visible from the start pose.

    The corners, the start views, the oracle actions and the post-action views
    of the whole scene are each computed in one batch call; a sample's
    features are those ``pseudolabel.generate`` takes from a record with its
    start box, from one ``pseudolabel.record_features`` call on the usable
    start boxes.  One instruction template is drawn per scene target, skipped
    targets included.
    """
    rng = np.random.default_rng(seed)
    n = len(scene)
    pose = np.tile(np.array([camera_init.pan, camera_init.tilt, camera_init.zoom_units]), (n, 1))
    corners = target_corners(scene.geometry)
    start_boxes, start_codes = project_batch(*pose.T, k, corners)
    actions, has_oracle = oracle_actions(*pose.T, k, scene.geometry, corners, fill_ratio)
    boxes, codes = project_batch(*apply_action_batch(*pose.T, actions), k, corners)
    full = start_codes == CODE_FULL
    usable = full & has_oracle
    templates = rng.integers(0, len(pl.TEMPLATES), size=n).tolist()
    instructions = np.empty(n, dtype=object)
    for i in np.flatnonzero(usable).tolist():
        instructions[i] = pl.TEMPLATES[templates[i]].format(phrase=scene.phrases[i])
    features = np.zeros((n, len(pl.FEATURE_NAMES)))
    features[usable] = pl.record_features(start_boxes[usable], k.image_w, k.image_h)[0]
    skipped = []
    for i in np.flatnonzero(~usable).tolist():
        view = VISIBILITY_CODES[start_codes[i]]
        skipped.append((scene.ids[i], "target out of front hemisphere" if full[i] else f"initial view is {view}"))
    samples = SampleSet(scene.ids, instructions, scene.geometry, features, pose, corners, actions, boxes, codes)
    return samples[usable], skipped


def relabel(dataset: SampleSet, policy: PolicyAdapter) -> SampleSet:
    """Replace every working action label with the policy's action."""
    return replace(dataset, actions=policy.actions(dataset))


def completion_batch(
    boxes: np.ndarray, codes: np.ndarray, k: CameraIntrinsics, cfg: CompletionConfig = CompletionConfig()
) -> np.ndarray:
    """Centered-and-magnified predicate on each post-action box, as
    ``project_batch`` returns them: fully in view, of positive area, its
    centre within ``center_frac`` of the shorter image side from the image
    centre, and at least ``min_area_ratio`` of the frame.  The centre distance
    is Python's ``** 0.5`` per row, which rounds differently from ``np.sqrt``."""
    x0, y0, x1, y1 = boxes.T
    area = box_areas(boxes)
    dx = (x0 + x1) / 2.0 - k.image_w / 2.0
    dy = (y0 + y1) / 2.0 - k.image_h / 2.0
    dist = np.array([d2**0.5 for d2 in (dx * dx + dy * dy).tolist()]).reshape(len(boxes))
    centred = ~(dist > cfg.center_frac * min(k.image_w, k.image_h))
    return (codes == CODE_FULL) & (area > 0.0) & centred & (area / (k.image_w * k.image_h) >= cfg.min_area_ratio)


def completion(post_bbox: BBoxPx, k: CameraIntrinsics, cfg: CompletionConfig = CompletionConfig()) -> bool:
    """``completion_batch`` of one box."""
    return bool(completion_batch(*bbox_arrays([post_bbox]), k, cfg)[0])


def _sum_in_order(values: np.ndarray) -> float:
    """The sum of ``values`` from 0.0, one addition at a time in order
    (``np.cumsum`` adds in order), so each mean IoU keeps its reported bits."""
    return float(np.cumsum(np.append(0.0, values))[-1])


def evaluate(
    policy: PolicyAdapter,
    testset: SampleSet,
    k: CameraIntrinsics,
    completion_cfg: CompletionConfig = CompletionConfig(),
) -> MetricsReport:
    """Per-dimension MAE, mean post-action IoU, and completion rate."""
    if not testset:
        raise ValueError("empty test set")
    actions = policy.actions(testset)
    overlaps, boxes, codes = _simulate_bboxes(testset, actions, k)
    taken = actions.astype(np.float64)
    wanted = testset.actions.astype(np.float64)
    abs_err = np.abs(taken - wanted).sum(axis=0)  # integer-valued: exact in any order
    completed = int(np.count_nonzero(completion_batch(boxes, codes, k, completion_cfg)))
    n = len(testset)
    return MetricsReport(
        mae_theta1=float(abs_err[0] / n),
        mae_theta2=float(abs_err[1] / n),
        mae_zoom=float(abs_err[2] / n),
        mean_iou=_sum_in_order(overlaps) / n,
        completion_rate=completed / n,
        n_samples=n,
    )


def run_round(
    dataset: SampleSet,
    policy: PolicyAdapter,
    k: CameraIntrinsics,
    threshold: float,
    replace_bbox: bool = True,
) -> tuple[SampleSet, RoundDiagnostics]:
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
    keep = overlaps > threshold
    if not replace_bbox:
        dataset = replace(dataset, boxes=boxes, codes=codes)
    refined = replace(dataset, actions=actions)[keep]
    n, n_kept = len(dataset), len(refined)
    return refined, RoundDiagnostics(
        n_total=n,
        n_kept=n_kept,
        kept_fraction=n_kept / n,
        mean_iou_all=_sum_in_order(overlaps) / n,
        mean_iou_kept=(_sum_in_order(overlaps[keep]) / n_kept) if n_kept else 0.0,
    )


PolicyFactory = Callable[[SampleSet, int], PolicyAdapter]


def regressor_policy_factory(cfg: RegressorConfig) -> PolicyFactory:
    """Refit operation: a fresh regressor on the round's dataset, seeded per round."""

    def factory(samples: SampleSet, round_idx: int) -> RegressorPolicy:
        round_cfg = replace(cfg, seed=cfg.seed + round_idx)
        return RegressorPolicy(pl.fit(samples.features, samples.actions, round_cfg))

    return factory


def split_dataset(dataset: SampleSet, test_fraction: float, seed: int) -> tuple[SampleSet, SampleSet]:
    """(train, test), each in the dataset's order: a seeded ``test_fraction`` (at least one) is held out."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * test_fraction)))
    is_test = np.zeros(len(dataset), dtype=bool)
    is_test[order[:n_test]] = True
    return dataset[~is_test], dataset[is_test]


def iterate(
    train: SampleSet,
    test: SampleSet,
    cfg: IterationConfig,
    policy_factory: PolicyFactory,
    k: CameraIntrinsics,
    completion_cfg: CompletionConfig = CompletionConfig(),
    on_round: Callable[[int, SampleSet], None] | None = None,
) -> list[RoundReport]:
    """Fit, then repeat (predict, filter, relabel, refit), scoring every round.

    Round 0 is the baseline fit on the training split.  Round r >= 1 filters
    at the configured threshold (reusing the last one when the list is short),
    refits on the survivors, and evaluates on the held-out split.  An empty
    post-filter set aborts the run.  ``on_round`` receives each round's
    refined dataset, e.g. to write it out.
    """
    if not train or not test:
        raise ValueError("empty train or test split")
    policy = policy_factory(train, 0)
    reports = [RoundReport(0, None, evaluate(policy, test, k, completion_cfg))]
    current = train
    for round_idx in range(1, cfg.rounds + 1):
        threshold = cfg.threshold_for_round(round_idx)
        current, diag = run_round(current, policy, k, threshold, cfg.replace_bbox)
        if not current:
            raise EmptyFilterError(round_idx, threshold)
        if on_round is not None:
            on_round(round_idx, current)
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
                evaluate(policy, test, k, completion_cfg),
                diag,
            )
        )
    return reports


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


def pseudolabels(samples: SampleSet, k: CameraIntrinsics) -> pl.LabelSet:
    """The samples as pseudo-labels: each one's working action and supervision
    box, with its start-view area ratio w1 and the box's area ratio w2, which
    is 0 for a box out of view or of no area, as ``camera.area_ratio`` has it."""
    area = box_areas(samples.boxes)
    empty = (samples.codes == CODE_OUT) | (area <= 0.0)
    w2 = np.where(empty, 0.0, area / (k.image_w * k.image_h))
    return pl.LabelSet(samples.ids, samples.instructions, samples.actions, samples.boxes, samples.features[:, 2], w2)
