"""Pseudo-label synthesis from grounding-style records.

A grounding record is (image size, bbox, phrase), and a record file is read
into one ``RecordSet`` of row-aligned arrays.  The bbox center normalized to
(-1, 1) models the pan/tilt relationship; the bbox-to-frame area ratio
before (w1) and after (w2) an isotropic crop models zoom; ``record_features``
computes them for a whole batch of boxes.  A feature row is (x_norm, y_norm,
w1), ``FEATURE_NAMES``, and every model reads exactly those three columns.
A regressor (OLS or random forest) fitted on oracle samples maps them to
actions, and ``generate`` turns a ``RecordSet`` into one ``LabelSet`` of
(instruction, action) training rows, which the label files hold with the
action's token string.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterator

import numpy as np

from ptzkit import codec, jsonl
from ptzkit.camera import box_areas
from ptzkit.forest import ForestConfig, RandomForest, fit_heads

HEAD_NAMES = ("pan", "tilt", "zoom")
# The columns of a feature row, which every regressor and the toy policy read.
FEATURE_NAMES = ("x_norm", "y_norm", "w1")
ZOOM_SOURCES = ("geometry", "model")

TEMPLATES = (  # one per sample, drawn from the seeded stream
    "What is the {phrase}?",
    "Look at the {phrase}.",
    "Zoom in on the {phrase}.",
    "Find the {phrase} and magnify it.",
    "Center the {phrase} in view.",
)


class FitError(ValueError):
    """Regressor fitting failed (degenerate design or too few samples)."""


@dataclass(frozen=True, eq=False)
class RecordSet(jsonl.RowSet):
    """Grounding records as row-aligned arrays: row i of every field belongs to record i."""

    ids: np.ndarray  # object[n] str
    image_w: np.ndarray  # int64[n]
    image_h: np.ndarray  # int64[n]
    boxes: np.ndarray  # float64[n, 4] (x0, y0, x1, y1) in pixels
    phrases: np.ndarray  # object[n] str


# Why a record cannot be labeled, in the order the conditions are tested.
SKIP_REASONS = ("non-positive image size", "empty bbox", "bbox outside image bounds")


def geometry_problems(records: RecordSet) -> np.ndarray:
    """int64[n]: per record, the index in ``SKIP_REASONS`` of the first reason it
    cannot be labeled, or -1 when it is usable.  A bbox is empty when its share
    of the frame's area is zero."""
    w, h = records.image_w, records.image_h
    x0, y0, x1, y1 = records.boxes.T
    conditions = [(w <= 0) | (h <= 0), _frame_share(records) <= 0.0, (x0 < 0) | (y0 < 0) | (x1 > w) | (y1 > h)]
    return np.select(conditions, range(len(SKIP_REASONS)), -1)


def _frame_share(records: RecordSet) -> np.ndarray:
    """Each record's box-to-frame area ratio (w1); NaN or inf for a zero-size image."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return box_areas(records.boxes) / (records.image_w.astype(np.float64) * records.image_h)


@dataclass(frozen=True, eq=False)
class LabelSet(jsonl.RowSet):
    """Pseudo-labels as row-aligned arrays: row i of every field belongs to label i."""

    ids: np.ndarray  # object[n] str
    instructions: np.ndarray  # object[n] str
    actions: np.ndarray  # int64[n, 3] (pan, tilt, zoom)
    boxes: np.ndarray  # float64[n, 4] the target's box after the action (``bbox_post``)
    w1: np.ndarray  # float64[n] the target's area ratio before the action
    w2: np.ndarray  # float64[n] and after it


@dataclass
class RegressorConfig:
    kind: str = "random_forest"  # or "ols_linear"
    n_trees: int = 100
    max_depth: int = 8
    min_samples_leaf: int = 5
    seed: int = 0

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
    ols_coef: np.ndarray | None = None  # (3, 3): per head, one coefficient per feature
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


def record_features(boxes, image_w, image_h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(features, crop windows, w2) of boxes, each in a frame of the given size
    (arrays with a row per box, or one size for all); a box whose share of the
    frame's area is zero raises ``ValueError``.

    Row i of the float64[n, 3] features is (x_norm, y_norm, w1): the box center
    mapped to (-1, 1) per axis (the frame center maps to (0, 0)) and the
    box-to-frame area ratio.  The crop
    window (float64[n, 4]) is the smallest frame-aspect window containing the
    box, centered on the box, then translated just enough to stay inside the
    frame, which it never leaves.  w2 (float64[n]) is the box area over the
    window area: the area ratio the target would have after zooming onto the
    window.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    image_w = np.asarray(image_w, dtype=np.float64)
    image_h = np.asarray(image_h, dtype=np.float64)
    area = box_areas(boxes)
    w1 = area / (image_w * image_h)
    if np.any(w1 <= 0.0):
        raise ValueError(f"cannot take the features of an empty box (row {int(np.argmax(w1 <= 0.0))})")
    x0, y0, x1, y1 = boxes.T
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    x_norm = (cx - image_w / 2.0) / (image_w / 2.0)
    y_norm = (cy - image_h / 2.0) / (image_h / 2.0)
    aspect = image_w / image_h
    win_w = np.maximum(np.maximum(x1 - x0, 0.0), np.maximum(y1 - y0, 0.0) * aspect)
    win_h = win_w / aspect
    # a box of the frame's full height can round the window an ulp past the
    # frame; clamping its edges into the frame keeps w2 >= w1
    wx0 = np.maximum(np.minimum(cx - win_w / 2.0, image_w - win_w), 0.0)
    wy0 = np.maximum(np.minimum(cy - win_h / 2.0, image_h - win_h), 0.0)
    windows = np.stack([wx0, wy0, np.minimum(wx0 + win_w, image_w), np.minimum(wy0 + win_h, image_h)], axis=1)
    w2 = area / box_areas(windows)
    features = np.stack([x_norm, y_norm, w1], axis=1)
    return features, windows, w2


def zoom_labels(w1, w2) -> np.ndarray:
    """int64 zoom units lifting each area ratio from w1 to w2: ``codec.zoom_units``
    of the gain w2 / w1."""
    w1 = np.asarray(w1, dtype=np.float64).reshape(-1)
    w2 = np.asarray(w2, dtype=np.float64).reshape(-1)
    if np.any(w1 <= 0.0):
        raise ValueError("w1 must be positive")
    shrink = w2 < w1
    if shrink.any():
        i = int(np.argmax(shrink))
        raise ValueError(f"w2 ({w2[i]}) must be >= w1 ({w1[i]})")
    return codec.zoom_units(w2 / w1).astype(np.int64)


def select_smallest(records: RecordSet, k: int) -> RecordSet:
    """The k records with the smallest area ratios; ties break by id."""
    if k < 0 or k > len(records):
        raise ValueError(f"k={k} outside [0, {len(records)}]")
    by_id = np.argsort(records.ids, kind="stable")
    # a record of a zero-size image sorts last, and is skipped if selected
    return records[by_id[np.argsort(_frame_share(records)[by_id], kind="stable")[:k]]]


def fit(x: np.ndarray, actions: np.ndarray, cfg: RegressorConfig) -> RegressorModel:
    """Fit the per-head regressor on float64[n, 3] feature rows and their
    int64[n, 3] actions, and report training R^2 per head.  ``FitError``
    names the first action row that is not integers in the codec range, the
    label files' rule, on which every node sum of a forest is exact."""
    if len(x) == 0:
        raise FitError("no training samples")
    # contiguous: a strided view could take another matmul path in OLS, and other bits
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape[1:] != (len(FEATURE_NAMES),):
        raise FitError(f"feature rows must be 3 wide (x_norm, y_norm, w1), got shape {x.shape}")
    actions = np.asarray(actions)
    if actions.shape != (x.shape[0], len(HEAD_NAMES)):
        raise FitError(f"actions must be {x.shape[0]} rows of (pan, tilt, zoom), got shape {actions.shape}")
    lim = codec.MAX_ACTION_VALUE
    if actions.dtype.kind not in "iu" or not np.all((actions >= [-lim, -lim, 0]) & (actions <= lim)):
        for i, row in enumerate(actions.tolist()):
            problem = _action_problem(tuple(row))
            if problem is not None:
                raise FitError(f"action row {i}: {problem}")
    y = actions.astype(np.float64)
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
        heads = fit_heads(x, y, cfg.forest, np.random.SeedSequence(cfg.seed).spawn(len(HEAD_NAMES)))
        model.forests = dict(zip(HEAD_NAMES, heads))
    pred = model.predict_batch(x)
    for j, name in enumerate(HEAD_NAMES):
        ss_res = float(np.sum((y[:, j] - pred[:, j]) ** 2))
        ss_tot = float(np.sum((y[:, j] - y[:, j].mean()) ** 2))
        if ss_tot <= 1e-300:
            model.train_r2[name] = 1.0 if ss_res <= 1e-12 else 0.0
        else:
            model.train_r2[name] = 1.0 - ss_res / ss_tot
    return model


def generate(
    records: RecordSet,
    model: RegressorModel,
    seed: int = 0,
    zoom_source: str = "geometry",
) -> tuple[LabelSet, list[tuple[str, str]]]:
    """Pseudo-labels for every usable record plus (id, reason) skip diagnostics.

    Pan/tilt always come from the regressor.  Zoom comes from the crop
    geometry (``zoom_source="geometry"``) or from the regressor's zoom head
    (``"model"``).  Output order and instruction choice are deterministic
    given the seed: records are taken sorted by id, one template is drawn
    for each, skipped records included, and the regressor predicts every
    usable record in one batch.
    """
    if zoom_source not in ZOOM_SOURCES:
        raise ValueError(f"unknown zoom_source {zoom_source!r}")
    rng = np.random.default_rng(seed)
    records = records[np.argsort(records.ids, kind="stable")]
    templates = rng.integers(0, len(TEMPLATES), size=len(records))
    problems = geometry_problems(records)
    skipped = [(records.ids[i], SKIP_REASONS[problems[i]]) for i in np.flatnonzero(problems >= 0).tolist()]
    usable = problems < 0
    records, templates = records[usable], templates[usable]
    x, windows, w2 = record_features(records.boxes, records.image_w, records.image_h)
    pred = model.predict_batch(x)
    if zoom_source == "geometry":
        pred[:, 2] = zoom_labels(x[:, 2], w2)  # integers, which the rounding keeps
    # the box in the frame of its crop window, scaled to the image width
    scale = records.image_w / np.maximum(windows[:, 2] - windows[:, 0], 0.0)
    instructions = [TEMPLATES[t].format(phrase=p) for t, p in zip(templates.tolist(), records.phrases)]
    labels = LabelSet(
        records.ids,
        np.array(instructions, dtype=object).reshape(len(records)),
        codec.round_actions(pred),
        (records.boxes - windows[:, [0, 1, 0, 1]]) * scale[:, None],
        x[:, 2].copy(),
        w2,
    )
    return labels, skipped


# --- file formats ----------------------------------------------------------


_grounding_row = operator.itemgetter("id", "image_w", "image_h", "bbox", "phrase")


def _record_set(rows: list) -> tuple[RecordSet, list[jsonl.Check | None]]:
    """The records of a list of rows, and the checks they must pass."""
    ids, image_w, image_h, boxes, phrases = map(list, zip(*rows)) if rows else ([],) * 5
    boxes, box_check = jsonl.number_rows(boxes, 4, "bbox numbers")
    image_w, w_check = jsonl.integer_rows(image_w, "image_w")
    image_h, h_check = jsonl.integer_rows(image_h, "image_h")
    inverted = (boxes[:, 0] > boxes[:, 2]) | (boxes[:, 1] > boxes[:, 3])
    phrases, phrase_check = jsonl.string_rows(phrases, "phrase")
    checks = [box_check, w_check, h_check, (inverted, lambda row: "inverted bbox coordinates"), phrase_check]
    return RecordSet(jsonl.string_ids(ids), image_w, image_h, boxes, phrases), checks


def read_grounding_records(path) -> RecordSet:
    """One JSON object per line: {id, image_w, image_h, bbox:[x0,y0,x1,y1], phrase},
    under the ``ptzkit.jsonl`` rules; image sizes are integers, the bbox is four
    numbers and not inverted, and the phrase is a string."""
    return jsonl.read_sets(path, _grounding_row, "grounding record", _record_set)


# One label line as ``json.dumps`` writes the row: its keys in this order, ", "
# and ": " between items, strings escaped to ASCII, numbers as ``repr``.
LABEL_LINE = (
    '{"id": %s, "instruction": %s, "action": {"pan": %d, "tilt": %d, "zoom": %d}, "tokens": "%s", '
    '"bbox_post": [%s, %s, %s, %s], "w1": %s, "w2": %s}\n'
)
# The texts ``json.dumps`` writes for the floats that ``repr`` writes otherwise.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number_columns(values: np.ndarray) -> list[list]:
    """The columns of float64[n, k] as lists, each float formatting by ``%s`` as ``json.dumps`` writes it."""
    columns = values.T.tolist()
    for j, i in zip(*np.nonzero(~np.isfinite(values.T))):
        columns[j][i] = _NON_FINITE[repr(columns[j][i])]
    return columns


def _token_texts(tokens: np.ndarray, lengths: np.ndarray, vocab: codec.TokenVocab, symbols: list[str]) -> list[str]:
    """The space-joined symbols of ``encode_batch``'s padded token rows, with
    ``symbols[i]`` written for the vocabulary's token ``i`` in id order."""
    tokens = tokens[:, : lengths.max(initial=1)]
    first = np.array(symbols + [""], dtype=object)  # the padding, -1, reads ""
    later = np.array([" " + s for s in symbols] + [""], dtype=object)
    ids = np.where(tokens >= 0, tokens - vocab.base_id, -1)
    parts = later[ids]
    parts[:, 0] = first[ids[:, 0]]
    return list(map("".join, parts.tolist()))


def _label_lines(labels: LabelSet, rows: slice, vocab: codec.TokenVocab) -> Iterator[str]:
    """The lines of the labels at ``rows``, formatted from their columns."""
    actions = labels.actions[rows]
    tokens, lengths = codec.encode_batch(*actions.T, vocab)
    columns = [
        list(map(encode_basestring_ascii, labels.ids[rows])),
        list(map(encode_basestring_ascii, labels.instructions[rows])),
        *actions.T.tolist(),
        # escaping works symbol by symbol, so the joined escapes are the escaped join
        _token_texts(tokens, lengths, vocab, [encode_basestring_ascii(t.symbol)[1:-1] for t in vocab.tokens]),
        *_number_columns(np.column_stack([labels.boxes[rows], labels.w1[rows], labels.w2[rows]])),
    ]
    return map(LABEL_LINE.__mod__, zip(*columns))


def write_pseudo_labels(path, labels: LabelSet, vocab: codec.TokenVocab) -> None:
    """One JSON object per line with the action both structured and tokenized,
    the line ``json.dumps`` writes for it (``LABEL_LINE``), formatted
    ``jsonl.BLOCK_ROWS`` labels at a time, as they are read."""
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(labels), jsonl.BLOCK_ROWS):
            fh.writelines(_label_lines(labels, slice(start, start + jsonl.BLOCK_ROWS), vocab))


def _label_row(rec: dict) -> tuple:
    a = rec["action"]
    action = (a["pan"], a["tilt"], a["zoom"])
    return action, rec["tokens"], rec["bbox_post"], [rec["w1"], rec["w2"]], rec["id"], rec["instruction"]


def _action_problem(action: tuple) -> str | None:
    for name, v in zip(HEAD_NAMES, action):
        if type(v) is not int:
            return f"{name} must be an integer, got {v!r}"
    lim = codec.MAX_ACTION_VALUE
    for name, v, lo in zip(HEAD_NAMES, action, (-lim, -lim, 0)):
        if not lo <= v <= lim:
            return f"{name} {v} outside [{lo}, {lim}]"
    return None


def _action_rows(actions: list) -> tuple[np.ndarray, jsonl.Check | None]:
    """(pan, tilt, zoom) integers in the codec's range, as int64[n, 3], and the
    check that rejects any other row; a rejected row reads 0."""
    n, lim = len(actions), codec.MAX_ACTION_VALUE
    if set(map(type, itertools.chain.from_iterable(actions))) <= {int}:
        try:
            out = np.array(actions, dtype=np.int64).reshape(n, 3)
        except OverflowError:
            pass
        else:
            if np.all((out >= [-lim, -lim, 0]) & (out <= lim)):
                return out, None
    return jsonl.check_each(actions, _action_problem, np.zeros((n, 3), dtype=np.int64))


def _token_checks(texts: np.ndarray, actions: np.ndarray, vocab: codec.TokenVocab) -> list[jsonl.Check]:
    """The checks that reject a token string with a symbol the vocabulary lacks,
    one with more symbols than the longest encoding, and one that is not the
    canonical encoding of its action, in that order.

    A string is the canonical encoding when its symbols, joined by single
    spaces, are the text ``write_pseudo_labels`` writes for the action: no
    symbol is empty or holds whitespace (``TokenVocab``), so the texts agree
    exactly when the symbols do.  A string that agrees has neither of the
    other two faults, so they are looked for only in the strings that do not.
    An action beyond the vocabulary's range has no encoding.
    """
    outside = np.any(np.abs(actions) > vocab.max_value, axis=1)
    tokens, lengths = codec.encode_batch(*np.where(outside[:, None], 0, actions).T, vocab)
    canonical = _token_texts(tokens, lengths, vocab, [t.symbol for t in vocab.tokens])
    differ = np.fromiter(map(str.__ne__, map(" ".join, map(str.split, texts)), canonical), bool, len(texts))
    differ |= outside
    symbols = {row: texts[row].split() for row in np.flatnonzero(differ).tolist()}
    known, width = {t.symbol for t in vocab.tokens}, vocab.max_sequence_length
    unknown = np.zeros(len(texts), dtype=bool)
    too_long = np.zeros(len(texts), dtype=bool)
    for row, row_symbols in symbols.items():
        unknown[row] = not known.issuperset(row_symbols)
        too_long[row] = len(row_symbols) > width
    return [
        (unknown, lambda row: f"unknown token {next(s for s in symbols[row] if s not in known)!r}"),
        (too_long, lambda row: f"{len(symbols[row])} tokens, more than the {width} of the longest encoding"),
        (differ, lambda row: "token string does not decode strictly to the structured action"),
    ]


def _label_set(vocab: codec.TokenVocab, rows: list) -> tuple[LabelSet, list[jsonl.Check | None]]:
    """The labels of a list of rows, and the checks they must pass."""
    actions, texts, boxes, ratios, ids, instructions = map(list, zip(*rows)) if rows else ([],) * 6
    actions, action_check = _action_rows(actions)
    texts, text_check = jsonl.string_rows(texts, "tokens")
    unknown_check, too_long_check, token_check = _token_checks(texts, actions, vocab)
    boxes, box_check = jsonl.number_rows(boxes, 4, "bbox_post numbers")
    inverted = (boxes[:, 0] > boxes[:, 2]) | (boxes[:, 1] > boxes[:, 3])
    ratios, ratio_check = jsonl.number_rows(ratios, 2, "w1 and w2")
    instructions, instruction_check = jsonl.string_rows(instructions, "instruction")
    labels = LabelSet(jsonl.string_ids(ids), instructions, actions, boxes, ratios[:, 0].copy(), ratios[:, 1].copy())
    return labels, [
        action_check,
        text_check,
        unknown_check,
        too_long_check,
        box_check,
        (inverted, lambda row: "inverted bbox_post coordinates"),
        ratio_check,
        instruction_check,
        token_check,
    ]


def read_pseudo_labels(path, vocab: codec.TokenVocab) -> LabelSet:
    """Labels as ``write_pseudo_labels`` writes them, under the ``ptzkit.jsonl``
    rules; a token string must be the canonical encoding of the structured
    action, with any whitespace between its symbols."""
    return jsonl.read_sets(path, _label_row, "pseudo-label record", functools.partial(_label_set, vocab))


def _training_pair(rec: dict) -> tuple[list[float], tuple[int, int, int]]:
    f, a = rec["features"], rec["action"]
    features = jsonl.finite([f[name] for name in FEATURE_NAMES], "features")
    action = (a["pan"], a["tilt"], a["zoom"])
    problem = _action_problem(action)
    if problem is not None:
        raise ValueError(problem)
    return features, action


def read_feature_action_pairs(path) -> tuple[np.ndarray, np.ndarray]:
    """Training pairs, one JSON object per line: {features: {x_norm, y_norm, w1},
    action: {pan, tilt, zoom}}, under the ``ptzkit.jsonl`` rules, as
    float64[n, 3] feature rows and int64[n, 3] actions.  An action is held to
    the label files' rule; an extra field is ignored."""
    pairs = jsonl.read(path, _training_pair, "training pair")
    x = np.array([f for f, _ in pairs], dtype=np.float64).reshape(len(pairs), len(FEATURE_NAMES))
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
    jsonl.write(path, [doc])


def model_from_dict(doc: dict) -> RegressorModel:
    """A model as ``save_model`` writes it, over the 3 features; a config
    with a key other than ``n_trees``, ``max_depth``, ``min_samples_leaf`` and
    ``seed``, or whose first three are not integers >= 1 or whose ``seed`` is
    not one >= 0, a ``train_r2`` that does not map each head to a finite
    number, a NaN or an infinite coefficient or intercept, a head without one
    coefficient per feature, a forest that ``RandomForest.from_dict`` rejects
    or one that is not of the config's shape raises ``ValueError``.  Older
    files hold ``"use_zoom_feature": false`` in the config, which is read as
    its absence; any other value of it is rejected."""
    config = dict(doc["config"])
    if config.pop("use_zoom_feature", False) is not False:
        raise ValueError("use_zoom_feature must be absent or false: models read (x_norm, y_norm, w1) only")
    limits = {"n_trees": 1, "max_depth": 1, "min_samples_leaf": 1, "seed": 0}
    for key in config:
        if key not in limits:
            raise ValueError(f"config {key!r} is not a model setting; the settings are {', '.join(limits)}")
    cfg = RegressorConfig(kind=doc["kind"], **config)
    for key, low in limits.items():
        if jsonl.integer(getattr(cfg, key), f"config {key}") < low:
            raise ValueError(f"config {key} must be >= {low}, got {getattr(cfg, key)}")
    train_r2 = doc.get("train_r2", {})
    if "train_r2" in doc and not (
        type(train_r2) is dict and set(train_r2) == set(HEAD_NAMES) and all(map(jsonl.is_number, train_r2.values()))
    ):
        raise ValueError(f"train_r2 must map {', '.join(HEAD_NAMES)} each to a finite number, got {train_r2!r}")
    model = RegressorModel(config=cfg, train_r2=dict(train_r2))
    heads = doc["heads"]
    n_features = len(FEATURE_NAMES)
    if cfg.kind == "ols_linear":
        model.ols_coef = np.array([jsonl.finite(heads[n]["coef"], f"{n} coef") for n in HEAD_NAMES])
        if model.ols_coef.shape != (3, n_features):
            raise ValueError(f"each head needs {n_features} coef numbers")
        model.ols_intercept = np.array(jsonl.finite([heads[n]["intercept"] for n in HEAD_NAMES], "intercepts"))
    else:
        model.forests = {n: RandomForest.from_dict(heads[n], n_features, n) for n in HEAD_NAMES}
        for n, forest in model.forests.items():
            if forest.config != cfg.forest:
                raise ValueError(f"{n} head is a {forest.config}, where the config says {cfg.forest}")
    return model


def load_model(path) -> RegressorModel:
    """A model as ``save_model`` writes it; a malformed file raises ``ValueError`` naming it."""
    return jsonl.load(path, model_from_dict, "regressor model")
