"""Pseudo-label synthesis from grounding-style records.

A grounding record is (image size, bbox, phrase).  The bbox center normalized
to (-1, 1) models the pan/tilt relationship; the bbox-to-frame area ratio
before (w1) and after (w2) an isotropic crop models zoom.  A regressor (OLS
or random forest) fitted on oracle samples maps those features to actions,
and ``generate`` turns whole record files into (instruction, action) training
tuples, token strings included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ptzkit import codec, jsonl
from ptzkit.camera import BBoxPx, round_half_away
from ptzkit.codec import ActionDelta
from ptzkit.forest import ForestConfig, RandomForest

HEAD_NAMES = ("pan", "tilt", "zoom")

DEFAULT_TEMPLATES = (
    "What is the {phrase}?",
    "Look at the {phrase}.",
    "Zoom in on the {phrase}.",
    "Find the {phrase} and magnify it.",
    "Center the {phrase} in view.",
)


class FitError(ValueError):
    """Regressor fitting failed (degenerate design or too few samples)."""


@dataclass(frozen=True)
class GroundingRecord:
    id: str
    image_w: int
    image_h: int
    bbox: BBoxPx
    phrase: str

    def geometry_problem(self) -> str | None:
        """Reason this record cannot be labeled, or None when it is usable."""
        if self.image_w <= 0 or self.image_h <= 0:
            return "non-positive image size"
        b = self.bbox
        if b.is_empty():
            return "empty bbox"
        if b.x_min < 0 or b.y_min < 0 or b.x_max > self.image_w or b.y_max > self.image_h:
            return "bbox outside image bounds"
        return None


@dataclass(frozen=True)
class FeatureVec:
    """Regression features: normalized bbox center, pre-crop area ratio, and
    optionally the log2 area gain of the isotropic crop."""

    x_norm: float
    y_norm: float
    w1: float
    zoom_feat: float | None = None

    def as_array(self, include_zoom: bool) -> np.ndarray:
        if include_zoom:
            if self.zoom_feat is None:
                raise FitError("feature vector lacks the zoom feature")
            return np.array([self.x_norm, self.y_norm, self.w1, self.zoom_feat])
        return np.array([self.x_norm, self.y_norm, self.w1])


@dataclass(frozen=True)
class PseudoLabel:
    record_id: str
    instruction: str
    action: ActionDelta
    gt_bbox_post: BBoxPx
    w1: float
    w2: float


@dataclass
class RegressorConfig:
    kind: str = "random_forest"  # or "ols_linear"
    n_trees: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 5
    seed: int = 0
    use_zoom_feature: bool = False

    def __post_init__(self):
        if self.kind not in ("random_forest", "ols_linear"):
            raise ValueError(f"unknown regressor kind {self.kind!r}")


@dataclass
class RegressorModel:
    """Per-head action regressor; immutable once fitted, deterministic to predict."""

    config: RegressorConfig
    ols_coef: np.ndarray | None = None  # (3, n_features)
    ols_intercept: np.ndarray | None = None  # (3,)
    forests: dict[str, RandomForest] = field(default_factory=dict)
    train_r2: dict[str, float] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.config.kind

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.kind == "ols_linear":
            # finite coefficients can still overflow; the inf or NaN that
            # results is rejected where the prediction is rounded
            with np.errstate(over="ignore", invalid="ignore"):
                return x @ self.ols_coef.T + self.ols_intercept
        out = np.empty((x.shape[0], 3))
        for j, name in enumerate(HEAD_NAMES):
            out[:, j] = self.forests[name].predict(x)
        return out


def normalize_center(b: BBoxPx, image_w: float, image_h: float) -> tuple[float, float]:
    """Bbox center mapped to (-1, 1) per axis; frame center maps to (0, 0)."""
    if b.is_empty():
        raise ValueError("cannot normalize an empty bbox")
    cx, cy = b.center()
    return (cx - image_w / 2.0) / (image_w / 2.0), (cy - image_h / 2.0) / (image_h / 2.0)


def isotropic_crop(b: BBoxPx, image_w: float, image_h: float) -> tuple[BBoxPx, float]:
    """Smallest frame-aspect window containing the bbox, and the resulting w2.

    The window is centered on the bbox center, then translated just enough to
    stay inside the frame, which it never leaves.  w2 is the bbox area over
    the window area: the area ratio the target would have after zooming onto
    the window.
    """
    if b.is_empty():
        raise ValueError("cannot crop around an empty bbox")
    aspect = image_w / image_h
    win_w = max(b.width, b.height * aspect)
    win_h = win_w / aspect
    cx, cy = b.center()
    # a bbox of the frame's full height can round the window an ulp past the
    # frame; clamping its edges into the frame keeps w2 >= w1
    x0 = max(min(cx - win_w / 2.0, image_w - win_w), 0.0)
    y0 = max(min(cy - win_h / 2.0, image_h - win_h), 0.0)
    window = BBoxPx(x0, y0, min(x0 + win_w, image_w), min(y0 + win_h, image_h))
    return window, b.area() / window.area()


def zoom_label(w1: float, w2: float) -> int:
    """Integer zoom units lifting the area ratio from w1 to w2.

    Area scales with the square of linear magnification, so the linear gain
    is sqrt(w2 / w1) and the label is round(50 * log2(w2 / w1)).
    """
    if w1 <= 0.0:
        raise ValueError("w1 must be positive")
    if w2 < w1:
        raise ValueError(f"w2 ({w2}) must be >= w1 ({w1})")
    return round_half_away(50.0 * math.log2(w2 / w1))


def record_w1(record: GroundingRecord) -> float:
    return record.bbox.area() / (record.image_w * record.image_h)


def select_smallest(records: Sequence[GroundingRecord], k: int) -> list[GroundingRecord]:
    """The k records with the smallest area ratios; ties break by id."""
    if k < 0 or k > len(records):
        raise ValueError(f"k={k} outside [0, {len(records)}]")
    return sorted(records, key=lambda r: (record_w1(r), r.id))[:k]


def fit(
    samples: Sequence[tuple[FeatureVec, ActionDelta]], cfg: RegressorConfig
) -> RegressorModel:
    """Fit the per-head regressor and report training R^2 per head."""
    if not samples:
        raise FitError("no training samples")
    x = np.stack([f.as_array(cfg.use_zoom_feature) for f, _ in samples])
    y = np.array([a.as_tuple() for _, a in samples], dtype=np.float64)
    model = RegressorModel(config=cfg)
    if cfg.kind == "ols_linear":
        if x.shape[0] < 2:
            raise FitError("OLS needs at least 2 samples")
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        if np.linalg.matrix_rank(design) < design.shape[1]:
            raise FitError("degenerate design matrix")
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        model.ols_coef = coef[:-1].T.copy()
        model.ols_intercept = coef[-1].copy()
    else:
        forest_cfg = ForestConfig(
            n_trees=cfg.n_trees,
            max_depth=cfg.max_depth,
            min_samples_leaf=cfg.min_samples_leaf,
        )
        root = np.random.SeedSequence(cfg.seed)
        for name, head_seq in zip(HEAD_NAMES, root.spawn(3)):
            model.forests[name] = RandomForest.fit(x, y[:, HEAD_NAMES.index(name)], forest_cfg, head_seq)
    pred = model.predict_batch(x)
    for j, name in enumerate(HEAD_NAMES):
        ss_res = float(np.sum((y[:, j] - pred[:, j]) ** 2))
        ss_tot = float(np.sum((y[:, j] - y[:, j].mean()) ** 2))
        if ss_tot <= 1e-300:
            model.train_r2[name] = 1.0 if ss_res <= 1e-12 else 0.0
        else:
            model.train_r2[name] = 1.0 - ss_res / ss_tot
    return model


def features_for_record(record: GroundingRecord, include_zoom: bool) -> tuple[FeatureVec, BBoxPx, float, float]:
    """(features, crop window, w1, w2) for one usable record."""
    x_norm, y_norm = normalize_center(record.bbox, record.image_w, record.image_h)
    w1 = record_w1(record)
    window, w2 = isotropic_crop(record.bbox, record.image_w, record.image_h)
    zoom_feat = 0.5 * math.log2(w2 / w1) if include_zoom else None
    return FeatureVec(x_norm, y_norm, w1, zoom_feat), window, w1, w2


def _bbox_in_crop_frame(b: BBoxPx, window: BBoxPx, image_w: float, image_h: float) -> BBoxPx:
    scale = image_w / window.width
    return BBoxPx(
        (b.x_min - window.x_min) * scale,
        (b.y_min - window.y_min) * scale,
        (b.x_max - window.x_min) * scale,
        (b.y_max - window.y_min) * scale,
    )


def generate(
    records: Sequence[GroundingRecord],
    model: RegressorModel,
    templates: Sequence[str] = DEFAULT_TEMPLATES,
    seed: int = 0,
    zoom_source: str = "geometry",
) -> tuple[list[PseudoLabel], list[tuple[str, str]]]:
    """Pseudo-labels for every usable record plus (id, reason) skip diagnostics.

    Pan/tilt always come from the regressor.  Zoom comes from the crop
    geometry (``zoom_source="geometry"``) or from the regressor's zoom head
    (``"model"``).  Output order and instruction choice are deterministic
    given the seed; records are processed sorted by id, and the regressor
    predicts every usable record in one batch.
    """
    if zoom_source not in ("geometry", "model"):
        raise ValueError(f"unknown zoom_source {zoom_source!r}")
    if not templates:
        raise ValueError("need at least one instruction template")
    rng = np.random.default_rng(seed)
    include_zoom = model.config.use_zoom_feature
    x = np.empty((len(records), 4 if include_zoom else 3), dtype=np.float64)
    # per usable record, in x's row order: (id, instruction, bbox_post, w1, w2)
    pending: list[tuple[str, str, BBoxPx, float, float]] = []
    skipped: list[tuple[str, str]] = []
    for record in sorted(records, key=lambda r: r.id):
        template = templates[int(rng.integers(0, len(templates)))]
        problem = record.geometry_problem()
        if problem is not None:
            skipped.append((record.id, problem))
            continue
        feats, window, w1, w2 = features_for_record(record, include_zoom)
        x[len(pending)] = feats.as_array(include_zoom)
        bbox_post = _bbox_in_crop_frame(record.bbox, window, record.image_w, record.image_h)
        pending.append((record.id, template.format(phrase=record.phrase), bbox_post, w1, w2))
    pred = model.predict_batch(x[: len(pending)])
    if zoom_source == "geometry":
        # already an integer, which the rounding keeps
        pred[:, 2] = [zoom_label(w1, w2) for *_, w1, w2 in pending]
    labels = [
        PseudoLabel(
            record_id=record_id,
            instruction=instruction,
            action=ActionDelta(*action),
            gt_bbox_post=bbox_post,
            w1=w1,
            w2=w2,
        )
        for (record_id, instruction, bbox_post, w1, w2), action in zip(
            pending, codec.round_actions(pred).tolist()
        )
    ]
    return labels, skipped


# --- file formats ----------------------------------------------------------


def _grounding_row(rec: dict) -> GroundingRecord:
    bbox = jsonl.finite([rec["bbox"][i] for i in range(4)], "bbox numbers")
    return GroundingRecord(
        id=str(rec["id"]),
        image_w=jsonl.integer(rec["image_w"], "image_w"),
        image_h=jsonl.integer(rec["image_h"], "image_h"),
        bbox=BBoxPx(*bbox),
        phrase=str(rec["phrase"]),
    )


def read_grounding_records(path) -> list[GroundingRecord]:
    """One JSON object per line: {id, image_w, image_h, bbox:[...], phrase},
    under the ``ptzkit.jsonl`` rules; image sizes are integers."""
    return jsonl.read(path, _grounding_row, "grounding record")


def _label_row(lab: PseudoLabel, vocab: codec.TokenVocab) -> dict:
    return {
        "id": lab.record_id,
        "instruction": lab.instruction,
        "action": {
            "pan": lab.action.pan_deg,
            "tilt": lab.action.tilt_deg,
            "zoom": lab.action.zoom_units,
        },
        "tokens": codec.seq_to_str(codec.encode_action(lab.action, vocab), vocab),
        "bbox_post": lab.gt_bbox_post.as_list(),
        "w1": lab.w1,
        "w2": lab.w2,
    }


def write_pseudo_labels(path, labels: Iterable[PseudoLabel], vocab: codec.TokenVocab) -> None:
    """One JSON object per line with the action both structured and tokenized."""
    jsonl.write(path, (_label_row(lab, vocab) for lab in labels))


def _pseudo_label(rec: dict, vocab: codec.TokenVocab) -> PseudoLabel:
    a = rec["action"]
    action = ActionDelta(a["pan"], a["tilt"], a["zoom"])
    if codec.decode(codec.ids_from_str(rec["tokens"], vocab), vocab) != action:
        raise ValueError("token string disagrees with structured action")
    bbox = jsonl.finite([rec["bbox_post"][i] for i in range(4)], "bbox_post numbers")
    w1, w2 = jsonl.finite([rec["w1"], rec["w2"]], "w1 and w2")
    return PseudoLabel(
        record_id=str(rec["id"]),
        instruction=str(rec["instruction"]),
        action=action,
        gt_bbox_post=BBoxPx(*bbox),
        w1=w1,
        w2=w2,
    )


def read_pseudo_labels(path, vocab: codec.TokenVocab) -> list[PseudoLabel]:
    """Labels as ``write_pseudo_labels`` writes them, under the ``ptzkit.jsonl``
    rules; a token string must decode to the structured action."""
    return jsonl.read(path, lambda rec: _pseudo_label(rec, vocab), "pseudo-label record")


def _training_pair(rec: dict) -> tuple[FeatureVec, ActionDelta]:
    f, a = rec["features"], rec["action"]
    names = ["x_norm", "y_norm", "w1"]
    if "zoom_feat" in f and f["zoom_feat"] is not None:
        names.append("zoom_feat")
    features = jsonl.finite([f[name] for name in names], "features")
    return FeatureVec(*features), ActionDelta(a["pan"], a["tilt"], a["zoom"])


def read_feature_action_pairs(path) -> list[tuple[FeatureVec, ActionDelta]]:
    """Training pairs, one JSON object per line: {features: {...}, action: {...}},
    under the ``ptzkit.jsonl`` rules."""
    return jsonl.read(path, _training_pair, "training pair")


def save_model(path, model: RegressorModel) -> None:
    """Self-describing JSON serialization with the seed and config embedded."""
    cfg = model.config
    doc: dict = {
        "kind": cfg.kind,
        "config": {
            "n_trees": cfg.n_trees,
            "max_depth": cfg.max_depth,
            "min_samples_leaf": cfg.min_samples_leaf,
            "seed": cfg.seed,
            "use_zoom_feature": cfg.use_zoom_feature,
        },
        "train_r2": model.train_r2,
    }
    if cfg.kind == "ols_linear":
        doc["heads"] = {
            name: {
                "coef": model.ols_coef[j].tolist(),
                "intercept": float(model.ols_intercept[j]),
            }
            for j, name in enumerate(HEAD_NAMES)
        }
    else:
        doc["heads"] = {name: model.forests[name].to_dict() for name in HEAD_NAMES}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def model_from_dict(doc: dict) -> RegressorModel:
    """A model as ``save_model`` writes it; a NaN or an infinite coefficient,
    intercept, tree threshold or leaf value raises ``ValueError``."""
    cfg = RegressorConfig(kind=doc["kind"], **doc["config"])
    model = RegressorModel(config=cfg, train_r2=dict(doc.get("train_r2", {})))
    heads = doc["heads"]
    if cfg.kind == "ols_linear":
        model.ols_coef = np.array([jsonl.finite(heads[n]["coef"], f"{n} coef") for n in HEAD_NAMES])
        model.ols_intercept = np.array(jsonl.finite([heads[n]["intercept"] for n in HEAD_NAMES], "intercepts"))
    else:
        for n in HEAD_NAMES:
            for i, tree in enumerate(heads[n]["trees"]):
                jsonl.finite(tree["threshold"] + tree["value"], f"{n} tree {i} thresholds and values")
        model.forests = {n: RandomForest.from_dict(heads[n]) for n in HEAD_NAMES}
    return model


def load_model(path) -> RegressorModel:
    """A model as ``save_model`` writes it; a malformed file raises ``ValueError`` naming it."""
    return jsonl.load(path, model_from_dict, "regressor model")
