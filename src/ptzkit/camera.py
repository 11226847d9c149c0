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

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ptzkit.codec import ActionDelta

VISIBILITY_FULL = "full"
VISIBILITY_CLIPPED = "clipped"
VISIBILITY_OUT = "out_of_view"

DEFAULT_ZOOM_MAX = 999.0


def wrap_angle(deg: float) -> float:
    """Wrap an angle in degrees to (-180, 180]."""
    w = math.fmod(deg + 180.0, 360.0)
    if w <= 0.0:
        w += 360.0
    return w - 180.0


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


def apply_action(state: CameraState, action: ActionDelta, zoom_max: float = DEFAULT_ZOOM_MAX) -> CameraState:
    """New camera state: pan wraps, tilt clamps to +/-90, zoom clamps to [0, zoom_max]."""
    return CameraState(
        pan=wrap_angle(state.pan + action.pan_deg),
        tilt=clamp(state.tilt + action.tilt_deg, -90.0, 90.0),
        zoom_units=clamp(state.zoom_units + action.zoom_units, 0.0, zoom_max),
    )


def _direction(azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    return np.array(
        [math.sin(az) * math.cos(el), math.sin(el), math.cos(az) * math.cos(el)]
    )


def _camera_basis(state: CameraState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(right, up, forward) unit vectors of the gimbal pose in world frame."""
    p = math.radians(state.pan)
    t = math.radians(state.tilt)
    forward = np.array([math.sin(p) * math.cos(t), math.sin(t), math.cos(p) * math.cos(t)])
    right = np.array([math.cos(p), 0.0, -math.sin(p)])
    up = np.cross(right, forward) * -1.0  # = forward x right
    return right, up, forward


def _target_corners(target: TargetSpec) -> np.ndarray:
    """World positions of the rectangle's corners (faces the camera origin)."""
    d = _direction(target.azimuth, target.elevation)
    center = target.distance * d
    horiz = math.hypot(d[0], d[2])
    if horiz < 1e-9:
        span_r = np.array([1.0, 0.0, 0.0])
    else:
        span_r = np.array([d[2] / horiz, 0.0, -d[0] / horiz])
    span_u = np.cross(d, span_r)  # in-plane up, unit length
    hw, hh = target.width / 2.0, target.height / 2.0
    return np.array(
        [
            center + sx * hw * span_r + sy * hh * span_u
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
        ]
    )


def _project_hull(
    state: CameraState, k: CameraIntrinsics, target: TargetSpec
) -> tuple[float, float, float, float] | None:
    """Unclipped pixel hull of the projected corners, or None when behind the camera."""
    right, up, forward = _camera_basis(state)
    corners = _target_corners(target)
    z = corners @ forward
    if np.any(z <= 1e-9):
        return None
    f = k.focal_px(state.zoom_units)
    u = k.image_w / 2.0 + f * (corners @ right) / z
    v = k.image_h / 2.0 - f * (corners @ up) / z
    return float(u.min()), float(v.min()), float(u.max()), float(v.max())


def project(state: CameraState, k: CameraIntrinsics, target: TargetSpec) -> BBoxPx:
    """Bounding box of the target on the image plane, clipped to the frame."""
    hull = _project_hull(state, k, target)
    if hull is None:
        return BBoxPx.empty()
    x0, y0, x1, y1 = hull
    cx0, cy0 = max(x0, 0.0), max(y0, 0.0)
    cx1, cy1 = min(x1, float(k.image_w)), min(y1, float(k.image_h))
    if cx0 >= cx1 or cy0 >= cy1:
        return BBoxPx.empty()
    inside = x0 >= 0.0 and y0 >= 0.0 and x1 <= k.image_w and y1 <= k.image_h
    vis = VISIBILITY_FULL if inside else VISIBILITY_CLIPPED
    return BBoxPx(cx0, cy0, cx1, cy1, vis)


def iou(b1: BBoxPx, b2: BBoxPx) -> float:
    """Intersection over union; zero when either box is empty."""
    if b1.is_empty() or b2.is_empty():
        return 0.0
    ix = min(b1.x_max, b2.x_max) - max(b1.x_min, b2.x_min)
    iy = min(b1.y_max, b2.y_max) - max(b1.y_min, b2.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = b1.area() + b2.area() - inter
    return inter / union


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
    if not 0.0 < fill_ratio < 1.0:
        raise ValueError("fill_ratio must be in (0, 1)")
    d = _direction(target.azimuth, target.elevation)
    _, _, forward = _camera_basis(state)
    if float(d @ forward) <= 0.0:
        raise ValueError("target out of front hemisphere")
    d_pan = round_half_away(wrap_angle(target.azimuth - state.pan))
    d_tilt = round_half_away(clamp(target.elevation, -90.0, 90.0) - state.tilt)

    centered = apply_action(state, ActionDelta(d_pan, d_tilt, 0), zoom_max)
    hull = _project_hull(centered, k, target)
    if hull is None:
        raise ValueError("target out of front hemisphere")
    x0, y0, x1, y1 = hull
    ratio = max((x1 - x0) * (y1 - y0), 0.0) / (k.image_w * k.image_h)
    if ratio <= 0.0:
        d_zoom = 0
    else:
        d_zoom = round_half_away(50.0 * math.log2(fill_ratio / ratio))
    budget = int(math.floor(zoom_max - state.zoom_units))
    d_zoom = max(0, min(d_zoom, budget))
    return ActionDelta(d_pan, d_tilt, d_zoom)


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
    with open(path, "w", encoding="utf-8") as fh:
        for target_id, t in targets:
            rec = {
                "id": target_id,
                "azimuth": t.azimuth,
                "elevation": t.elevation,
                "distance": t.distance,
                "width": t.width,
                "height": t.height,
                "phrase": t.phrase,
            }
            fh.write(json.dumps(rec) + "\n")


def _scene_row(line: str) -> tuple[str, TargetSpec]:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON ({exc})") from None
    if not isinstance(rec, dict):
        raise ValueError("expected a JSON object")
    missing = [f for f in _SCENE_FIELDS if f not in rec]
    if missing:
        raise ValueError(f"missing fields {missing}")
    try:
        values = {f: float(rec[f]) for f in _TARGET_NUMBERS}
    except (TypeError, ValueError) as exc:
        raise ValueError(f"non-numeric field ({exc})") from None
    return str(rec["id"]), TargetSpec(**values, phrase=str(rec["phrase"]))


def read_scene(path) -> list[tuple[str, TargetSpec]]:
    """Scene rows in file order; a bad row or a repeated id raises ``ValueError``
    naming ``path:line``."""
    out = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                target_id, target = _scene_row(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if target_id in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate id {target_id!r} (first on line {first_line[target_id]})"
                )
            first_line[target_id] = lineno
            out.append((target_id, target))
    return out
