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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ptzkit import jsonl
from ptzkit.codec import ActionDelta, round_half_away_batch

VISIBILITY_FULL = "full"
VISIBILITY_CLIPPED = "clipped"
VISIBILITY_OUT = "out_of_view"

DEFAULT_ZOOM_MAX = 999.0


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


_TARGET_NUMBERS = ("azimuth", "elevation", "distance", "width", "height")


@dataclass(frozen=True)
class TargetSpec:
    azimuth: float
    elevation: float
    distance: float
    width: float
    height: float
    phrase: str = ""

    def __post_init__(self):
        for name in _TARGET_NUMBERS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"target {name} must be finite, got {value}")
        if self.distance <= 0:
            raise ValueError("target distance must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("target size must be positive")


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
# operations and one stacked 4x3 matmul per row, so a row's bits do not depend
# on the other rows (a 2-D matmul or einsum over the batch rounds differently).
# The scalar forms further down are one-row calls of these.
# Elementwise numpy ``sin``, ``cos``, ``radians`` and ``fmod`` round like their
# ``math`` counterparts; ``hypot``, ``log2`` and ``2.0 ** x`` do not, so those
# stay scalar per row.

VISIBILITY_CODES = (VISIBILITY_FULL, VISIBILITY_CLIPPED, VISIBILITY_OUT)
CODE_FULL, CODE_CLIPPED, CODE_OUT = range(3)


def apply_action_batch(
    pan: np.ndarray,
    tilt: np.ndarray,
    zoom: np.ndarray,
    actions: np.ndarray,
    zoom_max: float = DEFAULT_ZOOM_MAX,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New (pan, tilt, zoom) arrays: pan wraps, tilt clamps to +/-90, zoom to [0, zoom_max].

    Pan wraps twice, as the one-state update always has (once in the update,
    once in ``CameraState``).  No input tried makes the second wrap change a
    bit, but keeping it ties the result to the old one without a proof.
    """
    actions = np.asarray(actions)
    return (
        wrap_angles(wrap_angles(pan + actions[:, 0])),
        np.clip(tilt + actions[:, 1], -90.0, 90.0),
        np.clip(zoom + actions[:, 2], 0.0, zoom_max),
    )


def _directions(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    az = np.radians(azimuth)
    el = np.radians(elevation)
    return np.stack([np.sin(az) * np.cos(el), np.sin(el), np.cos(az) * np.cos(el)], axis=-1)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of float64[n, 3] arrays, with ``np.cross``'s products and order."""
    a0, a1, a2 = a.T
    b0, b1, b2 = b.T
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _camera_basis(pan: np.ndarray, tilt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(right, up, forward) float64[n, 3] unit vectors of the gimbal poses in world frame."""
    p = np.radians(pan)
    t = np.radians(tilt)
    forward = np.stack([np.sin(p) * np.cos(t), np.sin(t), np.cos(p) * np.cos(t)], axis=-1)
    right = np.stack([np.cos(p), np.zeros_like(p), -np.sin(p)], axis=-1)
    up = _cross(right, forward) * -1.0  # = forward x right
    return right, up, forward


def target_corners(targets: Sequence[TargetSpec]) -> np.ndarray:
    """float64[n, 4, 3] world positions of each rectangle's corners (it faces the origin)."""
    n = len(targets)
    d = _directions(
        np.array([t.azimuth for t in targets], dtype=np.float64),
        np.array([t.elevation for t in targets], dtype=np.float64),
    )
    center = np.array([t.distance for t in targets], dtype=np.float64)[:, None] * d
    horiz = np.array([math.hypot(x, z) for x, z in zip(d[:, 0].tolist(), d[:, 2].tolist())])
    flat = horiz < 1e-9
    horiz[flat] = 1.0
    span_r = np.stack([d[:, 2] / horiz, np.zeros(n), -d[:, 0] / horiz], axis=-1)
    span_r[flat] = (1.0, 0.0, 0.0)
    span_u = _cross(d, span_r)  # in-plane up, unit length
    hw = np.array([t.width / 2.0 for t in targets])[:, None]
    hh = np.array([t.height / 2.0 for t in targets])[:, None]
    return np.stack(
        [
            center + sx * hw * span_r + sy * hh * span_u
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
        ],
        axis=1,
    )


def _hull_batch(
    pan: np.ndarray, tilt: np.ndarray, zoom: np.ndarray, k: CameraIntrinsics, corners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped float64[n, 4] pixel hulls, and a bool[n] mask of targets behind the camera.

    Rows behind the camera hold no meaningful hull.
    """
    right, up, forward = _camera_basis(pan, tilt)
    z = np.matmul(corners, forward[:, :, None])[:, :, 0]
    behind = np.any(z <= 1e-9, axis=1)
    f = np.array([k.focal_px(zu) for zu in zoom.tolist()])[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = k.image_w / 2.0 + f * np.matmul(corners, right[:, :, None])[:, :, 0] / z
        v = k.image_h / 2.0 - f * np.matmul(corners, up[:, :, None])[:, :, 0] / z
    return np.stack([u.min(axis=1), v.min(axis=1), u.max(axis=1), v.max(axis=1)], axis=1), behind


def project_batch(
    pan: np.ndarray, tilt: np.ndarray, zoom: np.ndarray, k: CameraIntrinsics, corners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Boxes of the targets on the image plane, clipped to the frame, with visibility codes.

    Row i projects the target with corners ``corners[i]`` from pose ``(pan[i],
    tilt[i], zoom[i])``; corners of shape [1, 4, 3] serve every row.
    Out-of-view rows are all zero with ``CODE_OUT``.
    """
    hull, behind = _hull_batch(pan, tilt, zoom, k, corners)
    x0, y0, x1, y1 = hull.T
    clipped = np.stack(
        [
            np.maximum(x0, 0.0),
            np.maximum(y0, 0.0),
            np.minimum(x1, float(k.image_w)),
            np.minimum(y1, float(k.image_h)),
        ],
        axis=1,
    )
    out = behind | (clipped[:, 0] >= clipped[:, 2]) | (clipped[:, 1] >= clipped[:, 3])
    inside = (x0 >= 0.0) & (y0 >= 0.0) & (x1 <= k.image_w) & (y1 <= k.image_h)
    codes = np.where(out, CODE_OUT, np.where(inside, CODE_FULL, CODE_CLIPPED)).astype(np.int8)
    return np.where(out[:, None], 0.0, clipped), codes


def iou_batch(
    boxes1: np.ndarray, codes1: np.ndarray, boxes2: np.ndarray, codes2: np.ndarray
) -> np.ndarray:
    """Row-wise intersection over union; zero where either box is empty.

    Either side may be a single row, which then pairs with every row of the other.
    """
    area1 = np.maximum(boxes1[:, 2] - boxes1[:, 0], 0.0) * np.maximum(boxes1[:, 3] - boxes1[:, 1], 0.0)
    area2 = np.maximum(boxes2[:, 2] - boxes2[:, 0], 0.0) * np.maximum(boxes2[:, 3] - boxes2[:, 1], 0.0)
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
    targets: Sequence[TargetSpec],
    fill_ratio: float,
    zoom_max: float = DEFAULT_ZOOM_MAX,
) -> tuple[np.ndarray, np.ndarray]:
    """int64[n, 3] ground-truth actions from each pose to its target, and a bool[n] mask
    of the rows that have one.

    A row has none when its target is out of the pose's front hemisphere;
    its action row is zero.  See ``oracle_action`` for the rule.
    """
    if not 0.0 < fill_ratio < 1.0:
        raise ValueError("fill_ratio must be in (0, 1)")
    azimuth = np.array([t.azimuth for t in targets], dtype=np.float64)
    elevation = np.array([t.elevation for t in targets], dtype=np.float64)
    d = _directions(azimuth, elevation)
    _, _, forward = _camera_basis(pan, tilt)
    # one 3-vector dot per row, as the scalar code rounds it
    ok = np.array([float(di @ fi) > 0.0 for di, fi in zip(d, forward)], dtype=bool)
    actions = np.zeros((len(targets), 3), dtype=np.int64)
    actions[:, 0] = round_half_away_batch(wrap_angles(azimuth - pan))
    actions[:, 1] = round_half_away_batch(np.clip(elevation, -90.0, 90.0) - tilt)
    centered = apply_action_batch(pan, tilt, zoom, actions, zoom_max)
    hull, behind = _hull_batch(*centered, k, target_corners(targets))
    ok &= ~behind
    x0, y0, x1, y1 = hull.T
    with np.errstate(invalid="ignore"):
        ratio = np.maximum((x1 - x0) * (y1 - y0), 0.0) / (k.image_w * k.image_h)
    for i in np.flatnonzero(ok).tolist():
        r = float(ratio[i])
        d_zoom = 0 if r <= 0.0 else round_half_away(50.0 * math.log2(fill_ratio / r))
        budget = int(math.floor(zoom_max - float(zoom[i])))
        actions[i, 2] = max(0, min(d_zoom, budget))
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


def apply_action(state: CameraState, action: ActionDelta, zoom_max: float = DEFAULT_ZOOM_MAX) -> CameraState:
    """New camera state: pan wraps, tilt clamps to +/-90, zoom clamps to [0, zoom_max]."""
    pan, tilt, zoom = apply_action_batch(*_pose(state), np.array([action.as_tuple()]), zoom_max)
    return CameraState(pan[0], tilt[0], zoom[0])


def project(state: CameraState, k: CameraIntrinsics, target: TargetSpec) -> BBoxPx:
    """Bounding box of the target on the image plane, clipped to the frame."""
    boxes, codes = project_batch(*_pose(state), k, target_corners([target]))
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
    zoom_max: float = DEFAULT_ZOOM_MAX,
) -> ActionDelta:
    """Ground-truth integer action that centers the target and zooms to ``fill_ratio``.

    Pan/tilt deltas point the optical axis at the target (rounded to integers,
    ties away from zero).  The zoom delta solves the pinhole area scaling for
    the requested post-action area ratio and is clamped to [0, remaining
    zoom]: the model zooms in only, so a target already larger than the fill
    ratio gets a zero zoom delta.
    """
    actions, ok = oracle_actions(*_pose(state), k, [target], fill_ratio, zoom_max)
    if not ok[0]:
        raise ValueError("target out of front hemisphere")
    return ActionDelta(*actions[0].tolist())


# --- scene files -----------------------------------------------------------

_SCENE_FIELDS = ("id", *_TARGET_NUMBERS, "phrase")


def sample_targets(
    count: int,
    rng: np.random.Generator,
    azimuth_range: tuple[float, float] = (-25.0, 25.0),
    elevation_range: tuple[float, float] = (-12.0, 12.0),
    distance_range: tuple[float, float] = (1.5, 2.6),
    size_range: tuple[float, float] = (0.3, 0.5),
    aspect_range: tuple[float, float] = (0.7, 1.4),
) -> list[tuple[str, TargetSpec]]:
    """Uniformly sampled targets with deterministic ids and phrases.

    Width comes from ``size_range``; height is width times a factor from
    ``aspect_range``.  Bounding the aspect keeps every target able to reach a
    frame-filling zoom while staying fully visible.
    """
    for name, (lo, hi) in (
        ("azimuth", azimuth_range),
        ("elevation", elevation_range),
        ("distance", distance_range),
        ("size", size_range),
        ("aspect", aspect_range),
    ):
        if lo > hi:
            raise ValueError(f"invalid {name} range ({lo}, {hi})")
    if distance_range[0] <= 0 or size_range[0] <= 0 or aspect_range[0] <= 0:
        raise ValueError("distance, size and aspect ranges must be positive")
    adjectives = ("red", "blue", "green", "small", "striped", "shiny", "dusty", "white")
    nouns = ("mug", "notebook", "pen", "box", "label", "bottle", "switch", "keyboard")
    out = []
    for i in range(count):
        width = float(rng.uniform(*size_range))
        spec = TargetSpec(
            azimuth=float(rng.uniform(*azimuth_range)),
            elevation=float(rng.uniform(*elevation_range)),
            distance=float(rng.uniform(*distance_range)),
            width=width,
            height=width * float(rng.uniform(*aspect_range)),
            phrase=f"{rng.choice(adjectives)} {rng.choice(nouns)}",
        )
        out.append((f"t{i:05d}", spec))
    return out


def write_scene(path, targets: Iterable[tuple[str, TargetSpec]]) -> None:
    """One JSON object per line with the scene record fields."""
    jsonl.write(path, (
        {
            "id": target_id,
            "azimuth": t.azimuth,
            "elevation": t.elevation,
            "distance": t.distance,
            "width": t.width,
            "height": t.height,
            "phrase": t.phrase,
        }
        for target_id, t in targets
    ))


def _scene_row(rec: dict) -> tuple[str, TargetSpec]:
    missing = [f for f in _SCENE_FIELDS if f not in rec]
    if missing:
        raise ValueError(f"missing fields {missing}")
    try:
        values = {f: float(rec[f]) for f in _TARGET_NUMBERS}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"non-numeric field ({exc})") from None
    return str(rec["id"]), TargetSpec(**values, phrase=str(rec["phrase"]))


def read_scene(path) -> list[tuple[str, TargetSpec]]:
    """Scene rows in file order, under the ``ptzkit.jsonl`` rules."""
    return jsonl.read(path, _scene_row, "scene row")
