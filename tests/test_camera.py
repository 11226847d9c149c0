import json
import math

import numpy as np
import pytest

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
        state = apply_action(CameraState(0, 0, 990), ActionDelta(0, 0, 50), zoom_max=2000.0)
        assert state.zoom_units == 1040.0

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
        action = oracle_action(state, K, t, 0.30, zoom_max=999.0)
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
        assert loaded == targets

    def test_deterministic_sampling(self):
        a = cam.sample_targets(50, np.random.default_rng(3))
        b = cam.sample_targets(50, np.random.default_rng(3))
        assert a == b

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
