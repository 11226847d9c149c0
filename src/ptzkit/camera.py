"""Geometric pan/tilt/zoom camera model.

The world is a set of camera-facing rectangles described by spherical
direction (azimuth right-positive, elevation up-positive), range and metric
size.  The camera sits at the origin on a two-axis gimbal: pan rotates about
the world vertical, tilt about the camera's horizontal axis.  Projection is
an ideal pinhole whose focal length scales with zoom; 100 zoom units double
the linear magnification.  Nothing is rendered: a target's observation is the
axis-aligned hull of its four projected corners, clipped to the frame.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ptzkit import jsonl
from ptzkit.codec import ActionDelta, round_half_away_batch, zoom_units

VISIBILITY_FULL = "full"
VISIBILITY_CLIPPED = "clipped"
VISIBILITY_OUT = "out_of_view"

ZOOM_MAX = 999.0  # the zoom limit of every pose


def wrap_angles(deg: np.ndarray) -> np.ndarray:
    """Wrap angles in degrees to (-180, 180], elementwise."""
    w = np.fmod(deg + 180.0, 360.0)
    return np.where(w <= 0.0, w + 360.0, w) - 180.0


def wrap_angle(deg: float) -> float:
    """Wrap an angle in degrees to (-180, 180]."""
    return float(wrap_angles(np.float64(deg)))


def clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class CameraIntrinsics:
    image_w: int
    image_h: int
    hfov_base: float  # horizontal field of view in degrees at zoom 0

    def __post_init__(self):
        if self.image_w <= 0 or self.image_h <= 0:
            raise ValueError("image dimensions must be positive")
        if not 0.0 < self.hfov_base < 180.0:
            raise ValueError("hfov_base must be in (0, 180) degrees")

    def focal_px(self, zoom_units: float) -> float:
        """Pinhole focal length in pixels at the given zoom."""
        base = (self.image_w / 2.0) / math.tan(math.radians(self.hfov_base) / 2.0)
        return magnification(zoom_units) * base


@dataclass(frozen=True)
class CameraState:
    pan: float = 0.0
    tilt: float = 0.0
    zoom_units: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pan", wrap_angle(float(self.pan)))
        object.__setattr__(self, "tilt", clamp(float(self.tilt), -90.0, 90.0))
        object.__setattr__(self, "zoom_units", max(float(self.zoom_units), 0.0))


GEOMETRY_FIELDS = ("azimuth", "elevation", "distance", "width", "height")  # ``SceneSet.geometry``'s columns


def geometry_check(geometry: np.ndarray) -> jsonl.Check:
    """The check of the rule every ``SceneSet.geometry`` row keeps: each number finite,
    then the distance positive, then the size positive (the first broken gives the reason)."""
    bad = ~np.isfinite(geometry).all(axis=1) | (geometry[:, 2:] <= 0).any(axis=1)

    def reason(row: int) -> str:
        for name, value in zip(GEOMETRY_FIELDS, geometry[row].tolist()):
            if not math.isfinite(value):
                return f"target {name} must be finite, got {value}"
        return "target distance must be positive" if geometry[row, 2] <= 0 else "target size must be positive"

    return bad, reason


@dataclass(frozen=True)
class TargetSpec:
    azimuth: float
    elevation: float
    distance: float
    width: float
    height: float
    phrase: str = ""

    def __post_init__(self):
        bad, reason = geometry_check(self.geometry)
        if bad[0]:
            raise ValueError(reason(0))

    @property
    def geometry(self) -> np.ndarray:
        """float64[1, 5]: the target as one row of ``SceneSet.geometry``."""
        return np.array([[self.azimuth, self.elevation, self.distance, self.width, self.height]], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class SceneSet(jsonl.RowSet):
    """A scene's targets as row-aligned arrays, iterating as (id, ``TargetSpec``) rows."""

    ids: np.ndarray  # object[n] str
    phrases: np.ndarray  # object[n] str
    geometry: np.ndarray  # float64[n, 5] (azimuth, elevation, distance, width, height)

    def __iter__(self) -> Iterator[tuple[str, TargetSpec]]:
        for target_id, row, phrase in zip(self.ids.tolist(), self.geometry.tolist(), self.phrases.tolist()):
            yield target_id, TargetSpec(*row, phrase)


@dataclass(frozen=True)
class BBoxPx:
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    visibility: str = VISIBILITY_FULL

    def __post_init__(self):
        if self.visibility not in (VISIBILITY_FULL, VISIBILITY_CLIPPED, VISIBILITY_OUT):
            raise ValueError(f"unknown visibility {self.visibility!r}")
        if self.visibility != VISIBILITY_OUT and (
            self.x_min > self.x_max or self.y_min > self.y_max
        ):
            raise ValueError("inverted bbox coordinates")

    @classmethod
    def empty(cls) -> "BBoxPx":
        return cls(0.0, 0.0, 0.0, 0.0, VISIBILITY_OUT)

    @property
    def width(self) -> float:
        return max(self.x_max - self.x_min, 0.0)

    @property
    def height(self) -> float:
        return max(self.y_max - self.y_min, 0.0)

    def area(self) -> float:
        return self.width * self.height

    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def is_empty(self) -> bool:
        return self.visibility == VISIBILITY_OUT or self.area() <= 0.0

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def magnification(zoom_units: float) -> float:
    """Linear magnification: doubles every 100 zoom units."""
    if zoom_units < 0:
        raise ValueError("zoom_units must be non-negative")
    return 2.0 ** (zoom_units / 100.0)


# --- array forms -------------------------------------------------------------
#
# Poses are float64[n] arrays of pan, tilt and zoom; actions are int64[n, 3]
# rows of (pan, tilt, zoom) deltas; targets enter as float64[n, 4, 3] corner
# arrays from ``target_corners``; boxes are float64[n, 4] rows of (x_min,
# y_min, x_max, y_max) with int8[n] visibility codes indexing
# ``VISIBILITY_CODES``.  Each row is computed on its own, by elementwise
# operations only (no matmul), so a row's bits depend neither on the other rows
# nor on the BLAS kernel.  A projection reads a pose only through the dots of
# its corners with the pan's level directions, the sine and cosine of its tilt
# and its ``focal_lengths``: ``project_dots`` takes the hull and clip, for both
# ``project_batch`` and the GRPO scorer, which looks them up in per-run tables.
# The scalar forms further down are one-row calls of these.
# Elementwise numpy ``sin``, ``cos``, ``radians`` and ``fmod`` round like their
# ``math`` counterparts; ``hypot``, ``log``, ``log2`` and ``2.0 ** x`` do not,
# so those stay scalar per row.

VISIBILITY_CODES = (VISIBILITY_FULL, VISIBILITY_CLIPPED, VISIBILITY_OUT)
CODE_FULL, CODE_CLIPPED, CODE_OUT = range(3)


def apply_action_batch(
    pan: np.ndarray,
    tilt: np.ndarray,
    zoom: np.ndarray,
    actions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New (pan, tilt, zoom) arrays: pan wraps, tilt clamps to +/-90, zoom to [0, ZOOM_MAX]."""
    actions = np.asarray(actions)
    return (
        wrap_angles(pan + actions[:, 0]),
        np.clip(tilt + actions[:, 1], -90.0, 90.0),
        np.clip(zoom + actions[:, 2], 0.0, ZOOM_MAX),
    )


def pose_trig(pan: np.ndarray, tilt: np.ndarray) -> tuple[np.ndarray, ...]:
    """(sin, cos) of pan, then of tilt, each taken of its radians, elementwise."""
    p, t = np.radians(pan), np.radians(tilt)
    return np.sin(p), np.cos(p), np.sin(t), np.cos(t)


def focal_lengths(zoom: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """``k.focal_px`` of each zoom of an array, one call per distinct zoom."""
    zooms, row_zoom = np.unique(zoom, return_inverse=True)
    return np.array([k.focal_px(zu) for zu in zooms.tolist()])[row_zoom].reshape(np.shape(zoom))


def _forward(sin_pan: np.ndarray, cos_pan: np.ndarray, sin_tilt: np.ndarray, cos_tilt: np.ndarray) -> np.ndarray:
    """float64[n, 3] unit vectors looking at each (pan, tilt) of a ``pose_trig``."""
    return np.stack([sin_pan * cos_tilt, sin_tilt, cos_pan * cos_tilt], axis=-1)


def target_corners(geometry: np.ndarray) -> np.ndarray:
    """float64[n, 4, 3] world positions of the corners of the targets of
    ``SceneSet.geometry`` rows (each rectangle faces the origin)."""
    azimuth, elevation, distance, width, height = geometry.T
    n = len(geometry)
    d = _forward(*pose_trig(azimuth, elevation))
    center = distance[:, None] * d
    horiz = np.array([math.hypot(x, z) for x, z in zip(d[:, 0].tolist(), d[:, 2].tolist())])
    flat = horiz < 1e-9
    horiz[flat] = 1.0
    span_r = np.stack([d[:, 2] / horiz, np.zeros(n), -d[:, 0] / horiz], axis=-1)
    span_r[flat] = (1.0, 0.0, 0.0)
    (d0, d1, d2), (r0, r1, r2) = d.T, span_r.T
    span_u = np.stack([d1 * r2 - d2 * r1, d2 * r0 - d0 * r2, d0 * r1 - d1 * r0], axis=-1)  # d x span_r: in-plane up
    hw = (width / 2.0)[:, None]
    hh = (height / 2.0)[:, None]
    return np.stack(
        [
            center + sx * hw * span_r + sy * hh * span_u
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
        ],
        axis=1,
    )


def corner_view(pan: np.ndarray, tilt: np.ndarray, corners: np.ndarray) -> tuple:
    """The view ``_hull`` takes: each corner's dots a = c0 sin pan + c2 cos pan and r = c0 cos
    pan - c2 sin pan with the pan's level forward and right, its height c1, then the tilt's sine
    and cosine; elementwise, [4, n] for float64[n, 4, 3] ``corners``."""
    sin_pan, cos_pan, sin_tilt, cos_tilt = pose_trig(pan, tilt)
    c0, c1, c2 = np.ascontiguousarray(corners.T)
    return c0 * sin_pan + c2 * cos_pan, c0 * cos_pan - c2 * sin_pan, c1, sin_tilt, cos_tilt


def _hull(view: tuple, focal: np.ndarray, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped float64[4, n] pixel hulls (rows x_min, y_min, x_max, y_max), and a bool[n] mask
    of targets behind the camera, of a ``corner_view`` and the poses' ``focal_lengths``.

    With forward = (sin pan cos tilt, sin tilt, cos pan cos tilt), right = (cos pan, 0, -sin pan)
    and up = forward x right written out, a corner lies at depth z = cos tilt a + sin tilt c1,
    right r and up cos tilt c1 - sin tilt a; the four are folded pairwise by ``np.minimum`` and
    ``np.maximum``.  Rows behind the camera hold no meaningful hull.
    """
    a, r, c1, sin_tilt, cos_tilt = view
    z = cos_tilt * a + sin_tilt * c1
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.image_w / 2.0 + focal * r / z
        v = k.image_h / 2.0 - focal * (cos_tilt * c1 - sin_tilt * a) / z
    uvz = np.concatenate([u, v, z]).reshape(3, 4, -1)
    lo, hi = np.minimum(uvz[:, :2], uvz[:, 2:]), np.maximum(uvz[:, :2], uvz[:, 2:])
    lo, hi = np.minimum(lo[:, 0], lo[:, 1]), np.maximum(hi[:, 0], hi[:, 1])
    return np.concatenate([lo[:2], hi[:2]]), lo[2] <= 1e-9


def project_dots(view: tuple, focal: np.ndarray, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """``project_batch`` of a ``corner_view`` and the poses' ``focal_lengths``:
    hull and clip, the one projection every caller runs."""
    hull, behind = _hull(view, focal, k)
    lo, hi = np.maximum(hull[:2], 0.0), np.minimum(hull[2:], [[float(k.image_w)], [float(k.image_h)]])
    box = np.concatenate([lo, hi])
    out = behind | (lo[0] >= hi[0]) | (lo[1] >= hi[1])
    edge = (box != hull).any(axis=0)  # an edge moved by the clip
    codes = np.where(out, CODE_OUT, np.where(edge, CODE_CLIPPED, CODE_FULL)).astype(np.int8)
    return np.where(out, 0.0, box).T, codes


def project_batch(
    pan: np.ndarray, tilt: np.ndarray, zoom: np.ndarray, k: CameraIntrinsics, corners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Boxes of the targets on the image plane, clipped to the frame, with visibility codes.

    Row i projects the target with corners ``corners[i]`` from pose ``(pan[i],
    tilt[i], zoom[i])``; corners of shape [1, 4, 3] serve every row.
    Out-of-view rows are all zero with ``CODE_OUT``.
    """
    return project_dots(corner_view(pan, tilt, corners), focal_lengths(zoom, k), k)


def box_areas(boxes: np.ndarray) -> np.ndarray:
    """float64[n] areas of float64[n, 4] (x0, y0, x1, y1) boxes; an inverted side counts as 0."""
    return np.maximum(boxes[:, 2] - boxes[:, 0], 0.0) * np.maximum(boxes[:, 3] - boxes[:, 1], 0.0)


def iou_batch(
    boxes1: np.ndarray, codes1: np.ndarray, boxes2: np.ndarray, codes2: np.ndarray
) -> np.ndarray:
    """Row-wise intersection over union; zero where either box is empty.

    Either side may be a single row, which then pairs with every row of the other.
    """
    area1, area2 = box_areas(boxes1), box_areas(boxes2)
    ix = np.minimum(boxes1[:, 2], boxes2[:, 2]) - np.maximum(boxes1[:, 0], boxes2[:, 0])
    iy = np.minimum(boxes1[:, 3], boxes2[:, 3]) - np.maximum(boxes1[:, 1], boxes2[:, 1])
    overlap = (
        (codes1 != CODE_OUT) & (area1 > 0.0) & (codes2 != CODE_OUT) & (area2 > 0.0)
        & (ix > 0.0) & (iy > 0.0)
    )
    inter = ix * iy
    return np.divide(inter, area1 + area2 - inter, out=np.zeros(inter.shape), where=overlap)


def oracle_actions(
    pan: np.ndarray,
    tilt: np.ndarray,
    zoom: np.ndarray,
    k: CameraIntrinsics,
    geometry: np.ndarray,
    corners: np.ndarray,
    fill_ratio: float,
) -> tuple[np.ndarray, np.ndarray]:
    """int64[n, 3] ground-truth actions from each pose to its target, a row of
    ``SceneSet.geometry`` with its ``target_corners`` row, and a bool[n] mask
    of the rows that have one.

    A row has none when its target is out of the pose's front hemisphere;
    its action row is zero.  See ``oracle_action`` for the rule.
    """
    if not 0.0 < fill_ratio < 1.0:
        raise ValueError("fill_ratio must be in (0, 1)")
    azimuth, elevation = geometry[:, 0], geometry[:, 1]
    a, _, d1, sin_tilt, cos_tilt = corner_view(pan, tilt, _forward(*pose_trig(azimuth, elevation))[:, None])
    ok = cos_tilt * a[0] + sin_tilt * d1[0] > 0.0  # the target direction's depth, as ``_hull`` takes it
    actions = np.zeros((len(geometry), 3), dtype=np.int64)
    actions[:, 0] = round_half_away_batch(wrap_angles(azimuth - pan))
    actions[:, 1] = round_half_away_batch(np.clip(elevation, -90.0, 90.0) - tilt)
    centered_pan, centered_tilt, centered_zoom = apply_action_batch(pan, tilt, zoom, actions)
    hull, behind = _hull(corner_view(centered_pan, centered_tilt, corners), focal_lengths(centered_zoom, k), k)
    ok &= ~behind
    with np.errstate(invalid="ignore"):
        ratio = box_areas(hull.T) / (k.image_w * k.image_h)
        zooming = ok & (ratio > 0.0)  # a row of no area keeps a zero zoom delta
    budget = np.floor(ZOOM_MAX - zoom[zooming])
    actions[zooming, 2] = np.maximum(np.minimum(zoom_units(fill_ratio / ratio[zooming]), budget), 0.0)
    actions[~ok] = 0
    return actions, ok


def bbox_arrays(boxes: Sequence[BBoxPx]) -> tuple[np.ndarray, np.ndarray]:
    """float64[n, 4] coordinates and int8[n] visibility codes of ``BBoxPx`` objects."""
    coords = np.array([b.as_list() for b in boxes], dtype=np.float64).reshape(len(boxes), 4)
    codes = np.array([VISIBILITY_CODES.index(b.visibility) for b in boxes], dtype=np.int8)
    return coords, codes


def bbox_row(coords: np.ndarray, code: int) -> BBoxPx:
    """The ``BBoxPx`` of one row of ``project_batch``'s output."""
    x0, y0, x1, y1 = coords.tolist()
    return BBoxPx(x0, y0, x1, y1, VISIBILITY_CODES[code])


# --- scalar forms: one-row calls of the array forms ---------------------------


def _pose(state: CameraState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return np.array([state.pan]), np.array([state.tilt]), np.array([state.zoom_units])


def apply_action(state: CameraState, action: ActionDelta) -> CameraState:
    """New camera state: pan wraps, tilt clamps to +/-90, zoom clamps to [0, ZOOM_MAX]."""
    pan, tilt, zoom = apply_action_batch(*_pose(state), np.array([action.as_tuple()]))
    return CameraState(pan[0], tilt[0], zoom[0])


def project(state: CameraState, k: CameraIntrinsics, target: TargetSpec) -> BBoxPx:
    """Bounding box of the target on the image plane, clipped to the frame."""
    boxes, codes = project_batch(*_pose(state), k, target_corners(target.geometry))
    return bbox_row(boxes[0], codes[0])


def iou(b1: BBoxPx, b2: BBoxPx) -> float:
    """Intersection over union; zero when either box is empty."""
    return float(iou_batch(*bbox_arrays([b1]), *bbox_arrays([b2]))[0])


def area_ratio(b: BBoxPx, k: CameraIntrinsics) -> float:
    """Bounding-box area as a fraction of the frame area."""
    if b.is_empty():
        return 0.0
    return b.area() / (k.image_w * k.image_h)


def oracle_action(
    state: CameraState,
    k: CameraIntrinsics,
    target: TargetSpec,
    fill_ratio: float,
) -> ActionDelta:
    """Ground-truth integer action that centers the target and zooms to ``fill_ratio``.

    Pan/tilt deltas point the optical axis at the target (rounded to integers,
    ties away from zero).  The zoom delta solves the pinhole area scaling for
    the requested post-action area ratio and is clamped to [0, remaining
    zoom]: the model zooms in only, so a target already larger than the fill
    ratio gets a zero zoom delta.
    """
    actions, ok = oracle_actions(*_pose(state), k, target.geometry, target_corners(target.geometry), fill_ratio)
    if not ok[0]:
        raise ValueError("target out of front hemisphere")
    return ActionDelta(*actions[0].tolist())


# --- scene files -----------------------------------------------------------


def sample_targets(
    count: int,
    rng: np.random.Generator,
    azimuth_range: tuple[float, float] = (-25.0, 25.0),
    elevation_range: tuple[float, float] = (-12.0, 12.0),
    distance_range: tuple[float, float] = (1.5, 2.6),
    size_range: tuple[float, float] = (0.3, 0.5),
    aspect_range: tuple[float, float] = (0.7, 1.4),
) -> SceneSet:
    """Uniformly sampled targets with deterministic ids and phrases.

    Width comes from ``size_range``; height is width times a factor from
    ``aspect_range``.  Bounding the aspect keeps every target able to reach a
    frame-filling zoom while staying fully visible.  A range's width must be finite.
    """
    for name, (lo, hi) in (
        ("azimuth", azimuth_range),
        ("elevation", elevation_range),
        ("distance", distance_range),
        ("size", size_range),
        ("aspect", aspect_range),
    ):
        if lo > hi or not math.isfinite(hi - lo):
            raise ValueError(f"invalid {name} range ({lo}, {hi})")
    if distance_range[0] <= 0 or size_range[0] <= 0 or aspect_range[0] <= 0:
        raise ValueError("distance, size and aspect ranges must be positive")
    adjectives = ("red", "blue", "green", "small", "striped", "shiny", "dusty", "white")
    nouns = ("mug", "notebook", "pen", "box", "label", "bottle", "switch", "keyboard")
    geometry, phrases = [], []
    for _ in range(count):  # each target's draws in turn
        width = float(rng.uniform(*size_range))
        position = [float(rng.uniform(*r)) for r in (azimuth_range, elevation_range, distance_range)]
        geometry.append((*position, width, width * float(rng.uniform(*aspect_range))))
        phrases.append(f"{rng.choice(adjectives)} {rng.choice(nouns)}")
    geometry = np.array(geometry, dtype=np.float64).reshape(count, len(GEOMETRY_FIELDS))
    bad, reason = geometry_check(geometry)
    if bad.any():
        raise ValueError(reason(int(np.argmax(bad))))
    ids = np.array([f"t{i:05d}" for i in range(count)], dtype=object)
    return SceneSet(ids, np.array(phrases, dtype=object), geometry)


def write_scene(path, scene: SceneSet) -> None:
    """One JSON object per line with the scene record fields."""
    rows = zip(scene.ids.tolist(), scene.geometry.tolist(), scene.phrases.tolist())
    jsonl.write(path, ({"id": i, **dict(zip(GEOMETRY_FIELDS, g)), "phrase": p} for i, g, p in rows))


_SCENE_FIELDS = ("id", *GEOMETRY_FIELDS, "phrase")
_pick_scene_fields = operator.itemgetter(*_SCENE_FIELDS)


def _scene_fields(rec: dict) -> tuple:
    try:
        return _pick_scene_fields(rec)
    except KeyError:
        raise ValueError(f"missing fields {[f for f in _SCENE_FIELDS if f not in rec]}") from None


def _geometry_columns(numbers: list[list]) -> tuple[np.ndarray, list[jsonl.Check | None]]:
    """float64[n, 5] of scene rows' number columns, and the checks rejecting a non-number and a too large int."""
    if {type(v) for column in numbers for v in column} <= {int, float}:
        try:
            return np.array(numbers, dtype=np.float64).T.reshape(-1, len(GEOMETRY_FIELDS)), [None, None]
        except OverflowError:  # an int too large for a float
            pass
    rows = list(zip(*numbers))
    geometry, reasons = np.zeros((len(rows), len(GEOMETRY_FIELDS))), {}
    for i, row in enumerate(rows):
        try:
            for f, v in zip(GEOMETRY_FIELDS, row):
                if type(v) not in (int, float):
                    raise TypeError(f"non-numeric field ({f} must be a JSON number, got {v!r})")
            geometry[i] = row
        except (TypeError, OverflowError) as exc:
            reasons[i] = exc
    return geometry, [
        (np.array([type(reasons.get(i)) is kind for i in range(len(rows))], dtype=bool), lambda row: str(reasons[row]))
        for kind in (TypeError, OverflowError)
    ]


def _scene_set(rows: list) -> tuple[SceneSet, list[jsonl.Check | None]]:
    """The targets of a list of rows, and the checks they must pass."""
    ids, *numbers, phrases = map(list, zip(*rows)) if rows else ([],) * len(_SCENE_FIELDS)
    geometry, (number_check, overflow_check) = _geometry_columns(numbers)
    phrases, phrase_check = jsonl.string_rows(phrases, "phrase")
    checks = [number_check, phrase_check, overflow_check, geometry_check(geometry)]
    return SceneSet(jsonl.string_ids(ids), phrases, geometry), checks


def read_scene(path) -> SceneSet:
    """Scene rows in file order, under the ``ptzkit.jsonl`` rules and ``geometry_check``."""
    return jsonl.read_sets(path, _scene_fields, "scene row", _scene_set)
