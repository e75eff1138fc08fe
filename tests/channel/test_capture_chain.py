"""The float32 capture chain: dtypes, 8-bit output and reference agreement.

Everything from the emitted frames through the camera pipeline runs in
float32 and the pipeline quantizes to 8-bit levels, so every capture the
decoder sees is float64 at exactly ``k / 255`` — the invariant the uint8
capture-trace format relies on.  The rewritten stages are checked against
float64 reference formulations within float32 rounding.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import optics
from repro.channel.environment import EnvironmentProfile, MIN_PHOTONS_AT_WHITE
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.mobility import handheld
from repro.channel.optics import LensModel
from repro.channel.screen import FrameSchedule
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.faults import FaultPlan, scenario_names, scenario_plan
from repro.imaging.filters import gaussian_blur
from repro.imaging.geometry import PinholeSetup, warp_perspective
from repro.imaging.interpolation import sample_bilinear
from repro.imaging.sensor import _bilinear_upsample, chroma_subsample, rgb_to_ycbcr, ycbcr_to_rgb

SENSOR = (300, 480)
LAYOUT = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)


def _schedule(faults: FaultPlan | None = None, num_frames: int = 2) -> FrameSchedule:
    codec = FrameCodecConfig(layout=LAYOUT)
    payload = bytes(i % 256 for i in range(codec.payload_bytes_per_frame * num_frames))
    frames = FrameEncoder(codec).encode_stream(payload)
    return FrameSchedule([f.render() for f in frames], display_rate=10, faults=faults)


def _assert_8bit(image: np.ndarray) -> None:
    assert image.dtype == np.float64
    levels = np.round(image * 255).astype(np.uint8)
    assert np.array_equal(levels / 255.0, image)


class TestEightBitCaptures:
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_every_capture_is_8bit_and_every_hook_float32(self, scenario, monkeypatch):
        seen: list[tuple[str, np.dtype, np.dtype]] = []
        apply_image = FaultPlan.apply_image

        def spy(plan, stage, image, index):
            out = apply_image(plan, stage, image, index)
            seen.append((stage, image.dtype, out.dtype))
            return out

        monkeypatch.setattr(FaultPlan, "apply_image", spy)
        faults = scenario_plan(scenario, seed=3)
        link = ScreenCameraLink(
            LinkConfig(sensor_size=SENSOR, mobility=handheld()),
            rng=np.random.default_rng(3),
            faults=faults,
        )
        captures = link.capture_stream(_schedule(faults), start_offset=0.01)
        assert captures
        for capture in captures:
            _assert_8bit(capture.image)
        stages = {stage for stage, __, __ in seen}
        assert {"emission", "pre_optics", "post_optics", "sensor"} <= stages
        for stage, dtype_in, dtype_out in seen:
            assert dtype_in == np.float32, stage
            assert dtype_out == np.float32, stage

    def test_clean_link_without_fault_plan(self):
        link = ScreenCameraLink(LinkConfig(sensor_size=SENSOR), rng=np.random.default_rng(1))
        _assert_8bit(link.capture_at(_schedule(), 0.01).image)

    def test_emitted_frames_are_float32(self):
        assert _schedule().emitted_image(0).dtype == np.float32


class TestEnvironment:
    @pytest.mark.parametrize("photons", [0.0, 50.0, MIN_PHOTONS_AT_WHITE - 1])
    def test_rejects_photon_counts_below_the_gaussian_limit(self, photons):
        with pytest.raises(ValueError):
            EnvironmentProfile(photons_at_white=photons)

    def test_degrade_keeps_float32(self):
        img = np.full((20, 30, 3), 0.5, dtype=np.float32)
        out = EnvironmentProfile().degrade(img, np.random.default_rng(0))
        assert out.dtype == np.float32
        assert 0.0 <= out.min() and out.max() <= 1.0


class TestLensSkipsZeroDistortion:
    def test_no_distortion_call_when_k_is_zero(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("apply_radial_distortion called with k1 == k2 == 0")

        monkeypatch.setattr(optics, "apply_radial_distortion", fail)
        img = np.random.default_rng(0).random((16, 16, 3)).astype(np.float32)
        out = LensModel().apply(img, distance_cm=12.0)
        assert out.dtype == np.float32

    def test_distortion_keeps_float32(self):
        img = np.random.default_rng(0).random((16, 16, 3)).astype(np.float32)
        out = LensModel(k1=0.1).apply(img, distance_cm=12.0)
        assert out.dtype == np.float32


class TestWarpAgreesWithFloat64Reference:
    def test_perspective_warp_within_float32_rounding(self):
        rng = np.random.default_rng(5)
        src = rng.random((120, 200, 3))
        setup = PinholeSetup(
            screen_size_px=(120, 200), sensor_size_px=(150, 240),
            view_angle_deg=20.0, offset_px=(1.3, -0.7),
        )
        h = setup.homography()
        out = warp_perspective(src.astype(np.float32), h, (150, 240), fill=0.1)
        assert out.dtype == np.float32

        # Reference: float64 inverse map through the decoder's sampler.
        ys, xs = np.mgrid[0:150, 0:240].astype(np.float64)
        h_inv = np.linalg.inv(h)
        w = h_inv[2, 0] * xs + h_inv[2, 1] * ys + h_inv[2, 2]
        mx = (h_inv[0, 0] * xs + h_inv[0, 1] * ys + h_inv[0, 2]) / w
        my = (h_inv[1, 0] * xs + h_inv[1, 1] * ys + h_inv[1, 2]) / w
        expected = sample_bilinear(src, mx, my, fill=0.1)
        inside = (mx >= 0) & (mx <= 199) & (my >= 0) & (my <= 119)
        assert inside.any() and not inside.all()
        assert np.abs(out - expected)[inside].max() < 1e-5
        assert np.all(out[~inside] == np.float32(0.1))

    def test_rejects_tiny_source(self):
        with pytest.raises(ValueError):
            warp_perspective(np.ones((1, 5)), np.eye(3), (4, 4))


class TestChromaOnDecimatedPlane:
    def _full_resolution_reference(self, image, factor, chroma_blur):
        """The pre-rewrite formulation: full-resolution YCbCr, then decimate."""
        ycc = rgb_to_ycbcr(image)
        chroma = ycc[..., 1:]
        h2 = image.shape[0] // factor * factor
        w2 = image.shape[1] // factor * factor
        sub = chroma[:h2, :w2].reshape(h2 // factor, factor, w2 // factor, factor, 2)
        sub = sub.mean(axis=(1, 3))
        sub = gaussian_blur(sub, chroma_blur / factor)
        chroma = _bilinear_upsample(sub, image.shape[:2], factor)
        return ycbcr_to_rgb(np.concatenate([ycc[..., :1], chroma], axis=-1))

    @pytest.mark.parametrize("shape", [(32, 48, 3), (31, 45, 3)])
    def test_matches_full_resolution_chroma(self, shape):
        img = np.random.default_rng(9).random(shape)
        expected = self._full_resolution_reference(img, 2, 0.7)
        assert np.allclose(chroma_subsample(img, 2, 0.7), expected, rtol=0, atol=1e-12)
        out32 = chroma_subsample(img.astype(np.float32), 2, 0.7)
        assert out32.dtype == np.float32
        assert np.abs(out32 - expected).max() < 1e-5
