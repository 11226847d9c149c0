import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from ptzkit import camera as cam
from ptzkit.camera import (
    BBoxPx,
    CameraIntrinsics,
    CameraState,
    TargetSpec,
    apply_action,
    area_ratio,
    iou,
    magnification,
    oracle_action,
    project,
    round_half_away,
    wrap_angle,
)
from ptzkit.codec import ActionDelta

K = CameraIntrinsics(1280, 720, 60.0)


class TestMagnification:
    def test_identity(self):
        assert magnification(0) == 1.0

    def test_one_doubling(self):
        assert magnification(100) == 2.0

    def test_two_doublings(self):
        assert magnification(200) == 4.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            magnification(-1)


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, 1), (-0.5, -1), (1.4, 1), (-1.4, -1), (2.5, 3), (-2.5, -3), (0.0, 0)],
    )
    def test_ties_away_from_zero(self, value, expected):
        assert round_half_away(value) == expected


def _ulps_from(x: float, k: int) -> float:
    """The double k steps of ``np.nextafter`` from x (toward +inf for k > 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


class TestApplyAction:
    def test_zero_delta_identity(self):
        state = CameraState(12.0, -3.0, 40.0)
        assert apply_action(state, ActionDelta(0, 0, 0)) == state

    def test_pan_wraps(self):
        assert apply_action(CameraState(170, 0, 0), ActionDelta(20, 0, 0)).pan == -170.0

    def test_wrap_boundary(self):
        assert wrap_angle(180.0) == 180.0
        assert wrap_angle(-180.0) == 180.0
        assert wrap_angle(540.0) == 180.0

    def test_tilt_clamps(self):
        assert apply_action(CameraState(0, 85, 0), ActionDelta(0, 10, 0)).tilt == 90.0
        assert apply_action(CameraState(0, -85, 0), ActionDelta(0, -10, 0)).tilt == -90.0

    def test_zoom_clamps(self):
        assert apply_action(CameraState(0, 0, 990), ActionDelta(0, 0, 50)).zoom_units == 999.0

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(hst.floats(allow_nan=False, allow_infinity=False))
    @example(-180.0)
    @example(-180.00000000000003)
    @example(1.7976931348623157e308)
    def test_wrap_angle_range(self, deg):
        assert -180.0 < wrap_angle(deg) <= 180.0

    # A second wrap changes no bit, so the pose update wraps pan once.  Let v in
    # (0, 360] be the first wrap's value before it subtracts 180: for v >= 90,
    # v - 180 is exact (Sterbenz), so the second wrap gets v back; for v < 90, v
    # is a whole number of ulps of a value >= 128, so fl(v - 180) > -180 and
    # adding 180 back is exact.
    @settings(derandomize=True, max_examples=3000, deadline=None)
    @given(hst.one_of(
        hst.floats(allow_nan=False, allow_infinity=False),
        hst.builds(_ulps_from, hst.integers(-(2**40), 2**40).map(lambda m: 180.0 * m), hst.integers(-60, 60)),
    ))
    def test_wrap_angles_is_idempotent(self, deg):
        once = cam.wrap_angles(np.float64(deg))
        assert float(cam.wrap_angles(once)).hex() == float(once).hex()

    def test_wrap_angles_is_idempotent_near_multiples_of_180_and_at_extreme_magnitudes(self):
        rows = [_ulps_from(180.0 * m, k) for m in range(-8, 9) for k in range(-60, 61)]
        rows += [_ulps_from(c, k) for c in (2.0**-45, 2.0**-44, 90.0, 1e15, 2.0**53) for k in range(-60, 61)]
        rows += [5e-324, 2.2250738585072014e-308, 1e-300, 1e-20, 1e300, 1.7976931348623157e308]
        x = np.array(rows + [-r for r in rows])
        once = cam.wrap_angles(x)
        assert _bits(cam.wrap_angles(once)) == _bits(once)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        hst.floats(-180.0, 180.0), hst.floats(-90.0, 90.0), hst.floats(0.0, 2000.0),
        hst.integers(-999, 999), hst.integers(-999, 999), hst.integers(0, 999),
    )
    def test_clamps_for_any_in_range_action(self, pan, tilt, zoom, dpan, dtilt, dzoom):
        state = apply_action(CameraState(pan, tilt, zoom), ActionDelta(dpan, dtilt, dzoom))
        start = CameraState(pan, tilt, zoom)
        assert -180.0 < state.pan <= 180.0
        assert state.tilt == min(90.0, max(-90.0, start.tilt + dtilt))
        assert state.zoom_units == min(cam.ZOOM_MAX, max(0.0, start.zoom_units + dzoom))
        assert -90.0 <= state.tilt <= 90.0 and 0.0 <= state.zoom_units <= cam.ZOOM_MAX

    def test_input_untouched(self):
        state = CameraState(1, 2, 3)
        apply_action(state, ActionDelta(5, 5, 5))
        assert state == CameraState(1, 2, 3)


class TestProject:
    def test_on_axis_target_is_centered(self):
        t = TargetSpec(10.0, -5.0, 4.0, 0.3, 0.2)
        b = project(CameraState(10.0, -5.0, 0.0), K, t)
        cx, cy = b.center()
        assert cx == pytest.approx(640.0, abs=1e-9)
        assert cy == pytest.approx(360.0, abs=1e-6)
        assert b.visibility == cam.VISIBILITY_FULL

    def test_centered_size_matches_pinhole(self):
        # fronto-parallel centered rectangle: width_px = f * w / distance
        t = TargetSpec(0.0, 0.0, 5.0, 0.4, 0.25)
        b = project(CameraState(), K, t)
        f = K.focal_px(0.0)
        assert b.width == pytest.approx(f * 0.4 / 5.0, rel=1e-12)
        assert b.height == pytest.approx(f * 0.25 / 5.0, rel=1e-12)

    def test_zoom_100_doubles_dimensions(self):
        t = TargetSpec(8.0, 4.0, 6.0, 0.3, 0.3)
        b0 = project(CameraState(8.0, 4.0, 0.0), K, t)
        b1 = project(CameraState(8.0, 4.0, 100.0), K, t)
        assert b1.width / b0.width == pytest.approx(2.0, rel=0.01)
        assert b1.height / b0.height == pytest.approx(2.0, rel=0.01)

    def test_behind_camera_out_of_view(self):
        t = TargetSpec(120.0, 0.0, 4.0, 0.3, 0.2)
        b = project(CameraState(), K, t)
        assert b.visibility == cam.VISIBILITY_OUT
        assert b.is_empty()

    def test_outside_frustum_out_of_view(self):
        t = TargetSpec(45.0, 0.0, 4.0, 0.2, 0.2)
        assert project(CameraState(), K, t).visibility == cam.VISIBILITY_OUT

    def test_edge_target_clipped(self):
        t = TargetSpec(30.0, 0.0, 4.0, 0.5, 0.5)
        b = project(CameraState(), K, t)
        assert b.visibility == cam.VISIBILITY_CLIPPED
        assert b.x_max <= K.image_w

    def test_deterministic(self):
        t = TargetSpec(3.0, 2.0, 4.0, 0.3, 0.2)
        assert project(CameraState(), K, t) == project(CameraState(), K, t)

    def test_small_angle_center_offset(self):
        # bbox center offset ~= f * tan(angle off axis), within 0.5%
        f = K.focal_px(0.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            az, el = rng.uniform(-10, 10, 2)
            t = TargetSpec(az, el, 8.0, 0.05, 0.05)
            b = project(CameraState(), K, t)
            cx, cy = b.center()
            offset = math.hypot(cx - 640.0, cy - 360.0)
            angle = math.degrees(
                math.acos(math.cos(math.radians(az)) * math.cos(math.radians(el)))
            )
            if angle > 0.1:
                assert offset == pytest.approx(f * math.tan(math.radians(angle)), rel=0.005)


class TestIoU:
    def test_identical(self):
        b = BBoxPx(10, 10, 50, 40)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(BBoxPx(0, 0, 10, 10), BBoxPx(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        assert iou(BBoxPx(0, 0, 10, 10), BBoxPx(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x0, y0, x1, y1 = rng.uniform(0, 100, 4)
            a = BBoxPx(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
            u0, v0, u1, v1 = rng.uniform(0, 100, 4)
            b = BBoxPx(min(u0, u1), min(v0, v1), max(u0, u1), max(v0, v1))
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_empty_is_zero(self):
        assert iou(BBoxPx.empty(), BBoxPx(0, 0, 10, 10)) == 0.0

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(hst.data())
    def test_symmetric_and_in_unit_interval(self, data):
        coord = hst.floats(-1e4, 1e4, allow_nan=False)
        visibility = hst.sampled_from([cam.VISIBILITY_FULL, cam.VISIBILITY_CLIPPED, cam.VISIBILITY_OUT])
        boxes = []
        for _ in range(2):
            x0, x1 = sorted(data.draw(hst.tuples(coord, coord)))
            y0, y1 = sorted(data.draw(hst.tuples(coord, coord)))
            boxes.append(BBoxPx(x0, y0, x1, y1, data.draw(visibility)))
        a, b = boxes
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0
        assert iou(a, a) == (0.0 if a.is_empty() or a.area() == 0.0 else 1.0)


class TestAreaRatio:
    def test_full_frame(self):
        assert area_ratio(BBoxPx(0, 0, 1280, 720), K) == 1.0

    def test_empty(self):
        assert area_ratio(BBoxPx.empty(), K) == 0.0

    def test_arithmetic(self):
        k = CameraIntrinsics(1000, 1000, 60.0)
        assert area_ratio(BBoxPx(0, 0, 100, 100), k) == pytest.approx(0.01)

    def test_zoom_monotonic_until_clipping(self):
        t = TargetSpec(0.0, 0.0, 4.0, 0.3, 0.3)
        prev = 0.0
        for zoom in range(0, 400, 25):
            b = project(CameraState(0, 0, float(zoom)), K, t)
            if b.visibility != cam.VISIBILITY_FULL:
                break
            ratio = area_ratio(b, K)
            assert ratio > prev
            prev = ratio


class TestOracleAction:
    def test_fixed_point(self):
        t = TargetSpec(5.0, -3.0, 3.0, 0.4, 0.4)
        state = CameraState(5.0, -3.0, 0.0)
        b = project(state, K, t)
        action = oracle_action(state, K, t, area_ratio(b, K))
        assert action == ActionDelta(0, 0, 0)

    def test_integer_angle_inversion(self):
        t = TargetSpec(10.0, -5.0, 3.0, 0.4, 0.4)
        action = oracle_action(CameraState(), K, t, 0.30)
        assert action.pan_deg == 10
        assert action.tilt_deg == -5

    def test_zoom_never_negative(self):
        # target already larger than the fill ratio: zooming out is unsupported
        t = TargetSpec(0.0, 0.0, 1.0, 1.0, 0.8)
        action = oracle_action(CameraState(), K, t, 0.05)
        assert action.zoom_units == 0

    def test_zoom_budget_respected(self):
        t = TargetSpec(0.0, 0.0, 2.0, 0.4, 0.4)
        state = CameraState(0, 0, 990.0)
        action = oracle_action(state, K, t, 0.30)
        assert action.zoom_units <= 9

    def test_rejects_rear_target(self):
        with pytest.raises(ValueError, match="front hemisphere"):
            oracle_action(CameraState(), K, TargetSpec(150.0, 0.0, 3.0, 0.3, 0.3), 0.3)

    def test_rejects_bad_fill(self):
        t = TargetSpec(0.0, 0.0, 3.0, 0.3, 0.3)
        for fill in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                oracle_action(CameraState(), K, t, fill)

    def test_centering_property(self):
        # applying the oracle action centers the target within 2 px plus the
        # pixel cost of the <=0.5 degree integer rounding at the final zoom
        rng = np.random.default_rng(17)
        targets = cam.sample_targets(300, rng)
        for _, t in targets:
            state = CameraState()
            action = oracle_action(state, K, t, 0.30)
            after = apply_action(state, action)
            b = project(after, K, t)
            if b.is_empty():
                pytest.fail(f"target vanished after oracle action: {t}")
            f = K.focal_px(after.zoom_units)
            tol = 2.0 + f * math.tan(math.radians(0.5))
            cx, cy = b.center()
            assert abs(cx - 640.0) <= tol
            assert abs(cy - 360.0) <= tol

    def test_fill_ratio_reached(self):
        rng = np.random.default_rng(23)
        for _, t in cam.sample_targets(100, rng):
            action = oracle_action(CameraState(), K, t, 0.30)
            after = apply_action(CameraState(), action)
            b = project(after, K, t)
            if b.visibility == cam.VISIBILITY_FULL:
                assert area_ratio(b, K) == pytest.approx(0.30, rel=0.02)


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        targets = cam.sample_targets(25, rng)
        path = tmp_path / "scene.jsonl"
        cam.write_scene(path, targets)
        loaded = cam.read_scene(path)
        assert list(loaded) == list(targets)

    def test_deterministic_sampling(self):
        a = cam.sample_targets(50, np.random.default_rng(3))
        b = cam.sample_targets(50, np.random.default_rng(3))
        assert list(a) == list(b)

    def test_all_front_hemisphere(self):
        targets = cam.sample_targets(500, np.random.default_rng(1))
        for _, t in targets:
            assert abs(t.azimuth) < 90

    def test_bad_record_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "azimuth": 0}\n')
        with pytest.raises(ValueError, match="missing fields"):
            cam.read_scene(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        row = {"id": "x", "azimuth": "left", "elevation": 0, "distance": 2, "width": 0.3, "height": 0.3, "phrase": "p"}
        path.write_text("\n" + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=f"{path}:2: non-numeric field"):
            cam.read_scene(path)

    @pytest.mark.parametrize("field", ["azimuth", "elevation", "distance", "width", "height"])
    def test_target_rejects_non_finite(self, field):
        base = {"azimuth": 0.0, "elevation": 0.0, "distance": 2.0, "width": 0.3, "height": 0.3}
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"target {field} must be finite"):
                TargetSpec(**{**base, field: bad})

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            cam.sample_targets(5, np.random.default_rng(0), azimuth_range=(10, -10))
        with pytest.raises(ValueError):
            cam.sample_targets(5, np.random.default_rng(0), distance_range=(-1, 2))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


# one row: start pose, action, and the target's offset from the start pose
_ROW = hst.tuples(
    hst.floats(-400.0, 400.0),  # start pan: wraps, and is rarely an integer
    hst.floats(-89.0, 89.0),  # start tilt
    hst.floats(0.0, 998.0),  # start zoom
    hst.integers(-200, 200),  # pan delta: crosses +/-180
    hst.integers(-120, 120),  # tilt delta: reaches the +/-90 clamp
    hst.integers(0, 999),  # zoom delta: reaches the ZOOM_MAX clamp
    hst.floats(-200.0, 200.0),  # target azimuth minus start pan: in view, clipped, out, behind
    hst.floats(-60.0, 60.0),  # target elevation minus start tilt
    hst.floats(0.2, 8.0),  # distance
    hst.floats(0.01, 3.0),  # width
    hst.floats(0.01, 3.0),  # height
)


def _geometry(targets) -> np.ndarray:
    """The ``SceneSet.geometry`` rows of a list of targets."""
    return np.concatenate([t.geometry for t in targets] + [np.zeros((0, 5))])


def _row_objects(row):
    pan, tilt, zoom, dp, dt, dz, daz, del_, dist, w, h = row
    target = TargetSpec(pan + daz, float(np.clip(tilt + del_, -89.9, 89.9)), dist, w, h)
    return CameraState(pan, tilt, zoom), ActionDelta(dp, dt, dz), target


def _reference_wrap(deg):
    w = math.fmod(deg + 180.0, 360.0)
    if w <= 0.0:
        w += 360.0
    return w - 180.0


def _reference_apply(state, action):
    """The scalar pose update, wrapping pan in the update and again in the state."""
    pan = _reference_wrap(_reference_wrap(state.pan + action.pan_deg))
    tilt = min(max(state.tilt + action.tilt_deg, -90.0), 90.0)
    zoom = min(max(state.zoom_units + action.zoom_units, 0.0), cam.ZOOM_MAX)
    return pan, tilt, zoom


def _reference_direction(azimuth, elevation):
    az, el = math.radians(azimuth), math.radians(elevation)
    return math.sin(az) * math.cos(el), math.sin(el), math.cos(az) * math.cos(el)


def _reference_camera(point, pan, tilt):
    """A point's (right, up, depth) offsets from the camera at (pan, tilt), in ``math`` and float
    arithmetic: its dots with the basis right = (cos pan, 0, -sin pan), forward = (sin pan cos tilt,
    sin tilt, cos pan cos tilt) and up = forward x right, factored through the pan's level dots."""
    x, y, z = point
    p, t = math.radians(pan), math.radians(tilt)
    a = x * math.sin(p) + z * math.cos(p)
    r = x * math.cos(p) - z * math.sin(p)
    return r, math.cos(t) * y - math.sin(t) * a, math.cos(t) * a + math.sin(t) * y


def _reference_hull(pan, tilt, zoom, k, target):
    """The unclipped hull one target at a time, in ``math`` and float arithmetic."""
    d = _reference_direction(target.azimuth, target.elevation)
    horiz = math.hypot(d[0], d[2])
    span_r = (1.0, 0.0, 0.0) if horiz < 1e-9 else (d[2] / horiz, 0.0, -d[0] / horiz)
    span_u = tuple(d[i] * span_r[j] - d[j] * span_r[i] for i, j in ((1, 2), (2, 0), (0, 1)))  # d x span_r
    hw, hh = target.width / 2.0, target.height / 2.0
    corners = [
        [target.distance * d[i] + sx * hw * span_r[i] + sy * hh * span_u[i] for i in range(3)]
        for sx in (-1.0, 1.0)
        for sy in (-1.0, 1.0)
    ]
    views = [_reference_camera(c, pan, tilt) for c in corners]
    if any(z <= 1e-9 for _, _, z in views):
        return None
    f = k.focal_px(zoom)
    u = [k.image_w / 2.0 + f * x / z for x, _, z in views]
    v = [k.image_h / 2.0 - f * y / z for _, y, z in views]
    return min(u), min(v), max(u), max(v)


def _reference_project(pan, tilt, zoom, k, target):
    hull = _reference_hull(pan, tilt, zoom, k, target)
    if hull is None:
        return [0.0, 0.0, 0.0, 0.0], cam.VISIBILITY_OUT
    x0, y0, x1, y1 = hull
    cx0, cy0, cx1, cy1 = max(x0, 0.0), max(y0, 0.0), min(x1, float(k.image_w)), min(y1, float(k.image_h))
    if cx0 >= cx1 or cy0 >= cy1:
        return [0.0, 0.0, 0.0, 0.0], cam.VISIBILITY_OUT
    inside = x0 >= 0.0 and y0 >= 0.0 and x1 <= k.image_w and y1 <= k.image_h
    return [cx0, cy0, cx1, cy1], cam.VISIBILITY_FULL if inside else cam.VISIBILITY_CLIPPED


def _reference_oracle(pan, tilt, zoom, k, target, fill_ratio):
    """The oracle action one target at a time, or None out of the front hemisphere."""
    if _reference_camera(_reference_direction(target.azimuth, target.elevation), pan, tilt)[2] <= 0.0:
        return None
    d_pan = round_half_away(_reference_wrap(target.azimuth - pan))
    d_tilt = round_half_away(min(max(target.elevation, -90.0), 90.0) - tilt)
    centered = _reference_apply(CameraState(pan, tilt, zoom), ActionDelta(d_pan, d_tilt, 0))
    hull = _reference_hull(*centered, k, target)
    if hull is None:
        return None
    x0, y0, x1, y1 = hull
    ratio = max((x1 - x0) * (y1 - y0), 0.0) / (k.image_w * k.image_h)
    d_zoom = 0 if ratio <= 0.0 else round_half_away(50.0 * math.log2(fill_ratio / ratio))
    return d_pan, d_tilt, max(0, min(d_zoom, int(math.floor(cam.ZOOM_MAX - zoom))))


class TestBatchForms:
    """Every row of an array form equals the scalar form of that row, bit for bit,
    and the scalar projection equals a one-target-at-a-time reference."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(hst.lists(_ROW, min_size=1, max_size=12))
    @example([(179.37, 0.0, 0.0, 1, 0, 0, 0.5, 0.0, 2.0, 0.4, 0.4)])  # pan wraps across 180
    @example([(-179.61, 85.5, 990.5, -1, 10, 50, -0.3, 0.0, 2.0, 0.4, 0.4)])  # wrap, tilt and zoom clamps
    @example([(0.25, 0.0, 0.0, 0, 0, 0, 150.0, 0.0, 2.0, 0.4, 0.4)])  # target behind the camera
    def test_project_batch_rows_equal_project(self, rows):
        objects = [_row_objects(row) for row in rows]
        pan = np.array([s.pan for s, _, _ in objects])
        tilt = np.array([s.tilt for s, _, _ in objects])
        zoom = np.array([s.zoom_units for s, _, _ in objects])
        actions = np.array([a.as_tuple() for _, a, _ in objects])
        geometry = _geometry([t for _, _, t in objects])
        corners = cam.target_corners(geometry)
        post = cam.apply_action_batch(pan, tilt, zoom, actions)
        boxes, codes = cam.project_batch(*post, K, corners)
        start_boxes, start_codes = cam.project_batch(pan, tilt, zoom, K, corners)
        ious = cam.iou_batch(boxes, codes, start_boxes, start_codes)
        oracle, ok = cam.oracle_actions(pan, tilt, zoom, K, geometry, corners, 0.3)
        for i, (state, action, target) in enumerate(objects):
            after = apply_action(state, action)
            assert _bits([post[0][i], post[1][i], post[2][i]]) == _bits([after.pan, after.tilt, after.zoom_units])
            assert _bits([after.pan, after.tilt, after.zoom_units]) == _bits(_reference_apply(state, action))
            box = project(after, K, target)
            assert _bits(boxes[i]) == _bits(box.as_list())
            assert cam.VISIBILITY_CODES[codes[i]] == box.visibility
            ref_box, ref_vis = _reference_project(after.pan, after.tilt, after.zoom_units, K, target)
            assert (_bits(box.as_list()), box.visibility) == (_bits(ref_box), ref_vis)
            start = project(state, K, target)
            assert _bits(start_boxes[i]) == _bits(start.as_list())
            assert ious[i].hex() == iou(box, start).hex()
            try:
                expected = oracle_action(state, K, target, 0.3)
            except ValueError:
                expected = None
            assert (ActionDelta(*oracle[i].tolist()) if ok[i] else None) == expected

    def test_random_rows_match_reference(self):
        # plain random floats: hypothesis favours round values, on which
        # np.hypot and math.hypot, say, agree
        rng = np.random.default_rng(31)
        n = 3000
        pan = rng.uniform(-180.0, 180.0, n)
        tilt = rng.uniform(-60.0, 60.0, n)
        zoom = rng.uniform(0.0, 400.0, n)
        targets = [
            TargetSpec(float(p + rng.uniform(-100.0, 100.0)), float(t + rng.uniform(-25.0, 25.0)),
                       float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.05, 2.0)))
            for p, t in zip(pan, tilt)
        ]
        corners = cam.target_corners(_geometry(targets))
        boxes, codes = cam.project_batch(pan, tilt, zoom, K, corners)
        assert set(codes.tolist()) == {cam.CODE_FULL, cam.CODE_CLIPPED, cam.CODE_OUT}
        oracle, ok = cam.oracle_actions(pan, tilt, zoom, K, _geometry(targets), corners, 0.3)
        assert 0 < ok.sum() < n
        for i, target in enumerate(targets):
            pose = (float(pan[i]), float(tilt[i]), float(zoom[i]))
            ref_box, ref_vis = _reference_project(*pose, K, target)
            assert (_bits(boxes[i]), cam.VISIBILITY_CODES[codes[i]]) == (_bits(ref_box), ref_vis)
            assert (tuple(oracle[i].tolist()) if ok[i] else None) == _reference_oracle(*pose, K, target, 0.3)

    def test_rows_cover_every_visibility(self):
        # the strategy's ranges reach full, clipped and out-of-view boxes, and
        # targets behind the camera
        state = CameraState(0.5, 0.0, 0.0)
        targets = [
            TargetSpec(0.5, 0.0, 3.0, 0.3, 0.3),
            TargetSpec(30.0, 0.0, 2.0, 0.6, 0.6),
            TargetSpec(80.0, 0.0, 2.0, 0.3, 0.3),
            TargetSpec(170.0, 0.0, 2.0, 0.3, 0.3),
        ]
        boxes, codes = cam.project_batch(
            np.full(4, state.pan), np.zeros(4), np.zeros(4), K, cam.target_corners(_geometry(targets))
        )
        assert [cam.VISIBILITY_CODES[c] for c in codes] == [
            cam.VISIBILITY_FULL, cam.VISIBILITY_CLIPPED, cam.VISIBILITY_OUT, cam.VISIBILITY_OUT,
        ]
        assert [project(state, K, t).visibility for t in targets] == [cam.VISIBILITY_CODES[c] for c in codes]
        assert not boxes[2:].any()

    def test_empty_batch(self):
        empty = np.zeros(0)
        corners = cam.target_corners(_geometry([]))
        boxes, codes = cam.project_batch(empty, empty, empty, K, corners)
        assert boxes.shape == (0, 4) and codes.shape == (0,)
        actions, ok = cam.oracle_actions(empty, empty, empty, K, _geometry([]), corners, 0.3)
        assert actions.shape == (0, 3) and ok.shape == (0,)

    def test_shared_corners_broadcast(self):
        t = TargetSpec(3.0, -2.0, 2.5, 0.4, 0.3)
        pan = np.array([0.0, 2.5, -4.0])
        zoom = np.array([0.0, 50.0, 120.0])
        one = cam.project_batch(pan, np.zeros(3), zoom, K, cam.target_corners(t.geometry))
        each = cam.project_batch(pan, np.zeros(3), zoom, K, cam.target_corners(_geometry([t, t, t])))
        assert np.array_equal(one[0], each[0]) and np.array_equal(one[1], each[1])
