"""Pseudo-label synthesis from grounding-style records.

A grounding record is (image size, bbox, phrase).  The bbox center normalized
to (-1, 1) models the pan/tilt relationship; the bbox-to-frame area ratio
before (w1) and after (w2) an isotropic crop models zoom.  A regressor (OLS
or random forest) fitted on oracle samples maps those features to actions,
and ``generate`` turns whole record files into one ``LabelSet`` of
(instruction, action) training rows, which the label files hold with the
action's token string.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from ptzkit import codec, jsonl
from ptzkit.camera import BBoxPx, round_half_away
from ptzkit.codec import ActionDelta
from ptzkit.forest import ForestConfig, RandomForest

HEAD_NAMES = ("pan", "tilt", "zoom")
ZOOM_SOURCES = ("geometry", "model")
# Rows per ``encode_batch``/``decode_batch`` call when a label file is written
# or read: the decoder's temporaries grow with the rows of one call.
CODEC_BLOCK = 1024

TEMPLATES = (  # one per sample, drawn from the seeded stream
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


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Pseudo-labels as row-aligned arrays: row i of every field belongs to label i."""

    ids: np.ndarray  # object[n] str
    instructions: np.ndarray  # object[n] str
    actions: np.ndarray  # int64[n, 3] (pan, tilt, zoom)
    boxes: np.ndarray  # float64[n, 4] the target's box after the action (``bbox_post``)
    w1: np.ndarray  # float64[n] the target's area ratio before the action
    w2: np.ndarray  # float64[n] and after it

    def __post_init__(self):
        if len({len(getattr(self, f.name)) for f in fields(self)}) != 1:
            raise ValueError("label fields disagree on the number of rows")

    def __len__(self) -> int:
        return len(self.ids)


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

    @property
    def forest(self) -> ForestConfig:
        return ForestConfig(n_trees=self.n_trees, max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf)


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


def feature_columns(x: np.ndarray, use_zoom_feature: bool) -> np.ndarray:
    """The columns of feature rows (x_norm, y_norm, w1[, zoom_feat]) that a
    regressor reads: the first three, and zoom_feat when ``use_zoom_feature``
    is on."""
    width = 4 if use_zoom_feature else 3
    if x.shape[1] < width:
        raise FitError("feature rows lack the zoom feature")
    # a contiguous copy: a strided view could take another matmul path in OLS, and other bits
    return np.ascontiguousarray(x[:, :width])


def fit(x: np.ndarray, actions: np.ndarray, cfg: RegressorConfig) -> RegressorModel:
    """Fit the per-head regressor on feature rows and their int64[n, 3] actions,
    and report training R^2 per head."""
    if len(x) == 0:
        raise FitError("no training samples")
    x = feature_columns(x, cfg.use_zoom_feature)
    y = np.asarray(actions, dtype=np.float64)
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
        root = np.random.SeedSequence(cfg.seed)
        for name, head_seq in zip(HEAD_NAMES, root.spawn(3)):
            model.forests[name] = RandomForest.fit(x, y[:, HEAD_NAMES.index(name)], cfg.forest, head_seq)
    pred = model.predict_batch(x)
    for j, name in enumerate(HEAD_NAMES):
        ss_res = float(np.sum((y[:, j] - pred[:, j]) ** 2))
        ss_tot = float(np.sum((y[:, j] - y[:, j].mean()) ** 2))
        if ss_tot <= 1e-300:
            model.train_r2[name] = 1.0 if ss_res <= 1e-12 else 0.0
        else:
            model.train_r2[name] = 1.0 - ss_res / ss_tot
    return model


def features_for_record(b: BBoxPx, image_w: int, image_h: int) -> tuple[tuple[float, ...], BBoxPx, float]:
    """(features, crop window, w2) of a non-empty box in a frame of the given size; the features
    are (x_norm, y_norm, w1, zoom_feat), zoom_feat the log2 area gain of the isotropic crop."""
    x_norm, y_norm = normalize_center(b, image_w, image_h)
    w1 = b.area() / (image_w * image_h)
    window, w2 = isotropic_crop(b, image_w, image_h)
    return (x_norm, y_norm, w1, 0.5 * math.log2(w2 / w1)), window, w2


def _bbox_in_crop_frame(b: BBoxPx, window: BBoxPx, image_w: float) -> list[float]:
    scale = image_w / window.width
    return [
        (b.x_min - window.x_min) * scale,
        (b.y_min - window.y_min) * scale,
        (b.x_max - window.x_min) * scale,
        (b.y_max - window.y_min) * scale,
    ]


def generate(
    records: Sequence[GroundingRecord],
    model: RegressorModel,
    seed: int = 0,
    zoom_source: str = "geometry",
) -> tuple[LabelSet, list[tuple[str, str]]]:
    """Pseudo-labels for every usable record plus (id, reason) skip diagnostics.

    Pan/tilt always come from the regressor.  Zoom comes from the crop
    geometry (``zoom_source="geometry"``) or from the regressor's zoom head
    (``"model"``).  Output order and instruction choice are deterministic
    given the seed; records are processed sorted by id, and the regressor
    predicts every usable record in one batch.
    """
    if zoom_source not in ZOOM_SOURCES:
        raise ValueError(f"unknown zoom_source {zoom_source!r}")
    rng = np.random.default_rng(seed)
    # row i of x, boxes and w2 belongs to ids[i]
    x = np.empty((len(records), 4), dtype=np.float64)
    boxes = np.empty((len(records), 4), dtype=np.float64)
    w2 = np.empty(len(records), dtype=np.float64)
    ids: list[str] = []
    instructions: list[str] = []
    skipped: list[tuple[str, str]] = []
    for record in sorted(records, key=lambda r: r.id):
        template = TEMPLATES[int(rng.integers(0, len(TEMPLATES)))]
        problem = record.geometry_problem()
        if problem is not None:
            skipped.append((record.id, problem))
            continue
        row = len(ids)
        x[row], window, w2[row] = features_for_record(record.bbox, record.image_w, record.image_h)
        boxes[row] = _bbox_in_crop_frame(record.bbox, window, record.image_w)
        ids.append(record.id)
        instructions.append(template.format(phrase=record.phrase))
    n = len(ids)
    x, boxes, w2 = x[:n], boxes[:n], w2[:n]
    pred = model.predict_batch(feature_columns(x, model.config.use_zoom_feature))
    if zoom_source == "geometry":
        # already an integer, which the rounding keeps
        pred[:, 2] = [zoom_label(a, b) for a, b in zip(x[:, 2].tolist(), w2.tolist())]
    labels = LabelSet(
        np.array(ids, dtype=object),
        np.array(instructions, dtype=object),
        codec.round_actions(pred),
        boxes,
        x[:, 2].copy(),
        w2,
    )
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


def _label_rows(labels: LabelSet, vocab: codec.TokenVocab) -> Iterator[dict]:
    symbols = [t.symbol for t in vocab.tokens]
    for start in range(0, len(labels), CODEC_BLOCK):
        block = slice(start, start + CODEC_BLOCK)
        tokens, lengths = codec.encode_batch(*labels.actions[block].T, vocab)
        for record_id, instruction, (pan, tilt, zoom), ids, length, box, w1, w2 in zip(
            labels.ids[block],
            labels.instructions[block],
            labels.actions[block].tolist(),
            (tokens - vocab.base_id).tolist(),
            lengths.tolist(),
            labels.boxes[block].tolist(),
            labels.w1[block].tolist(),
            labels.w2[block].tolist(),
        ):
            yield {
                "id": record_id,
                "instruction": instruction,
                "action": {"pan": pan, "tilt": tilt, "zoom": zoom},
                "tokens": " ".join([symbols[i] for i in ids[:length]]),
                "bbox_post": box,
                "w1": w1,
                "w2": w2,
            }


def write_pseudo_labels(path, labels: LabelSet, vocab: codec.TokenVocab) -> None:
    """One JSON object per line with the action both structured and tokenized."""
    jsonl.write(path, _label_rows(labels, vocab))


def _label_fields(rec: dict, vocab: codec.TokenVocab) -> tuple:
    """The checks one row can make alone; its tokens are decoded with the whole file."""
    a = rec["action"]
    action = ActionDelta(a["pan"], a["tilt"], a["zoom"]).as_tuple()
    token_ids = codec.ids_from_str(rec["tokens"], vocab)
    if len(token_ids) > vocab.max_sequence_length:
        raise ValueError(
            f"{len(token_ids)} tokens, more than the {vocab.max_sequence_length} of the longest encoding"
        )
    box = jsonl.finite([rec["bbox_post"][i] for i in range(4)], "bbox_post numbers")
    if box[0] > box[2] or box[1] > box[3]:
        raise ValueError("inverted bbox_post coordinates")
    w1, w2 = jsonl.finite([rec["w1"], rec["w2"]], "w1 and w2")
    return str(rec["id"]), str(rec["instruction"]), action, box, w1, w2, token_ids


def read_pseudo_labels(path, vocab: codec.TokenVocab) -> LabelSet:
    """Labels as ``write_pseudo_labels`` writes them, under the ``ptzkit.jsonl``
    rules; a token string must decode strictly to the structured action and be
    no longer than the longest encoding."""
    what = "pseudo-label record"
    rows = jsonl.read(path, lambda rec: _label_fields(rec, vocab), what)
    n = len(rows)
    labels = LabelSet(
        np.array([r[0] for r in rows], dtype=object),
        np.array([r[1] for r in rows], dtype=object),
        np.array([r[2] for r in rows], dtype=np.int64).reshape(n, 3),
        np.array([r[3] for r in rows], dtype=np.float64).reshape(n, 4),
        np.array([r[4] for r in rows], dtype=np.float64),
        np.array([r[5] for r in rows], dtype=np.float64),
    )
    width = vocab.max_sequence_length
    for start in range(0, n, CODEC_BLOCK):
        token_rows = [r[6] for r in rows[start : start + CODEC_BLOCK]]
        lengths = np.array([len(ids) for ids in token_rows], dtype=np.int64)
        tokens = np.full((len(token_rows), width), -1, dtype=np.int64)
        tokens[np.arange(width) < lengths[:, None]] = np.fromiter(
            itertools.chain.from_iterable(token_rows), np.int64, int(lengths.sum())
        )
        decoded, ok = codec.decode_batch(tokens, lengths, vocab)
        bad = ~ok | np.any(decoded != labels.actions[start : start + len(token_rows)], axis=1)
        if bad.any():
            reason = "token string does not decode strictly to the structured action"
            raise jsonl.row_error(path, start + int(np.argmax(bad)), reason, what)
    return labels


def _training_pair(rec: dict) -> tuple[list[float], tuple[int, int, int]]:
    f, a = rec["features"], rec["action"]
    names = ["x_norm", "y_norm", "w1"]
    if "zoom_feat" in f and f["zoom_feat"] is not None:
        names.append("zoom_feat")
    features = jsonl.finite([f[name] for name in names], "features")
    return features, ActionDelta(a["pan"], a["tilt"], a["zoom"]).as_tuple()


def read_feature_action_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Training pairs, one JSON object per line: {features: {...}, action: {...}},
    under the ``ptzkit.jsonl`` rules, as feature rows and int64[n, 3] actions.

    The rows hold (x_norm, y_norm, w1), and zoom_feat too when every pair has it.
    """
    pairs = jsonl.read(path, _training_pair, "training pair")
    width = 4 if pairs and all(len(f) == 4 for f, _ in pairs) else 3
    x = np.array([f[:width] for f, _ in pairs], dtype=np.float64).reshape(len(pairs), width)
    return x, np.array([a for _, a in pairs], dtype=np.int64).reshape(len(pairs), 3)


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
