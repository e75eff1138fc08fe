"""The float32 capture chain: dtypes, 8-bit output and reference agreement.

Everything from the emitted frames through the camera pipeline runs in
float32 and the pipeline quantizes to 8-bit levels, so every capture the
decoder sees is float64 at exactly ``k / 255`` — the invariant the uint8
capture-trace format relies on.  The rewritten stages are checked against
float64 reference formulations within float32 rounding.

The layout work (flat rows and contiguous planes instead of per-channel
broadcasts over a trailing axis of three, sliced-stencil upsampling,
blurs windowed to the non-constant box) changes no arithmetic, so those
stages are pinned to their earlier formulations, kept below as
references, byte for byte.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.bench import paper_link_config
from repro.channel import optics
from repro.channel.environment import EnvironmentProfile, MIN_PHOTONS_AT_WHITE
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.mobility import handheld
from repro.channel.optics import LensModel
from repro.channel.screen import FrameSchedule
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.faults import FaultPlan, scenario_names, scenario_plan
from repro.imaging import geometry
from repro.imaging.color import float_image
from repro.imaging.filters import convolve_separable, gaussian_blur, gaussian_kernel, motion_blur
from repro.imaging.geometry import PinholeSetup, warp_perspective
from repro.imaging.interpolation import sample_bilinear
from repro.imaging.noise import add_sensor_noise, falloff_mask
from repro.imaging.sensor import CameraPipeline, chroma_subsample, rgb_to_ycbcr, ycbcr_to_rgb

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
            assert image.ndim == 3 and image.shape[-1] == 3, stage
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
        chroma = _ref_bilinear_upsample(sub, image.shape[:2], factor)
        return ycbcr_to_rgb(np.concatenate([ycc[..., :1], chroma], axis=-1))

    @pytest.mark.parametrize("shape", [(32, 48, 3), (31, 45, 3)])
    def test_matches_full_resolution_chroma(self, shape):
        img = np.random.default_rng(9).random(shape)
        expected = self._full_resolution_reference(img, 2, 0.7)
        assert np.allclose(chroma_subsample(img, 2, 0.7), expected, rtol=0, atol=1e-12)
        out32 = chroma_subsample(img.astype(np.float32), 2, 0.7)
        assert out32.dtype == np.float32
        assert np.abs(out32 - expected).max() < 1e-5


# -- the earlier capture-chain formulations, kept as references ----------------


def _ref_warp_perspective(image, h, output_shape, fill=0.0):
    """Bilinear warp blending ``(n, 3)`` rows by ``(n, 1)`` fractions."""
    height, width = output_shape
    src = np.ascontiguousarray(float_image(image))
    src_h, src_w = src.shape[:2]
    (rows, cols), index, fx, fy, outside = geometry._warp_coords(
        np.asarray(h, dtype=np.float64), height, width, src_h, src_w
    )
    out = np.full((height, width) + src.shape[2:], fill, dtype=src.dtype)
    if index.size == 0:
        return out
    flat = src.reshape(src_h * src_w, -1)
    top = flat.take(index, axis=0)
    step = flat[1:].take(index, axis=0)
    step -= top
    step *= fx
    top += step
    bottom = flat[src_w:].take(index, axis=0)
    step = flat[src_w + 1 :].take(index, axis=0)
    step -= bottom
    step *= fx
    bottom += step
    bottom -= top
    bottom *= fy
    top += bottom
    mask = np.zeros((index.size, 1), dtype=bool)
    mask[outside] = True
    np.copyto(top, fill, where=mask)
    out[rows, cols] = top.reshape(out[rows, cols].shape)
    return out


def _ref_convolve_axis(image, kernel, axis):
    """Whole-image 1-D convolution along *axis* with reflect padding."""
    kernel = np.asarray(kernel, dtype=image.dtype)
    pad = kernel.size // 2
    pad_spec = [(0, 0)] * image.ndim
    pad_spec[axis] = (pad, pad)
    padded = np.pad(image, pad_spec, mode="reflect")

    def tap(offset):
        sl = [slice(None)] * image.ndim
        sl[axis] = slice(offset, offset + image.shape[axis])
        return padded[tuple(sl)]

    out = np.multiply(tap(0), kernel[0])
    scratch = np.empty_like(out)
    for offset in range(1, kernel.size):
        np.multiply(tap(offset), kernel[offset], out=scratch)
        out += scratch
    return out


def _ref_convolve_separable(image, ky, kx):
    """Two whole-image passes: every column, then every row."""
    image = float_image(image)
    return _ref_convolve_axis(_ref_convolve_axis(image, ky, 0), kx, 1)


def _ref_gaussian_blur(image, sigma):
    """Full-frame Gaussian blur."""
    if sigma <= 0:
        return float_image(image).copy()
    k = gaussian_kernel(sigma)
    return _ref_convolve_separable(image, k, k)


def _ref_clamped_shift(size, shift):
    s = min(abs(shift), size)
    if shift >= 0:
        return (slice(s, size), slice(0, size - s)), (slice(0, s), slice(0, 1))
    return (slice(0, size - s), slice(s, size)), (slice(size - s, size), slice(size - 1, size))


def _ref_motion_blur(image, length, angle_deg=0.0):
    """Full-frame motion blur with edge-clamped shifts."""
    image = float_image(image)
    if length <= 0:
        return image.copy()
    steps = max(2, int(np.ceil(length)) + 1)
    theta = np.deg2rad(angle_deg)
    offsets = np.linspace(-length / 2.0, length / 2.0, steps)
    height, width = image.shape[:2]
    acc = np.zeros_like(image)
    for off in offsets:
        dx, dy = off * np.cos(theta), off * np.sin(theta)
        rows = _ref_clamped_shift(height, int(np.round(dy)))
        cols = _ref_clamped_shift(width, int(np.round(dx)))
        for dst_r, src_r in rows:
            for dst_c, src_c in cols:
                acc[dst_r, dst_c] += image[src_r, src_c]
    acc /= steps
    return acc


def _ref_degrade(profile, image, rng):
    """Vignette/ambient affine broadcast over the trailing channel axis."""
    image = float_image(image)
    ambient = float(np.clip(profile.ambient, 0.0, 1.0))
    falloff = falloff_mask(*image.shape[:2], profile.vignette_strength, image.dtype)
    gain = falloff * (1.0 - ambient)
    offset = falloff * ambient
    if image.ndim == 3:
        gain, offset = gain[..., np.newaxis], offset[..., np.newaxis]
    signal = image * gain
    signal += offset
    return add_sensor_noise(signal, profile.photons_at_white, profile.read_noise_sigma, rng)


_KR, _KG, _KB = 0.299, 0.587, 0.114


def _ref_luma(rgb):
    return _KR * rgb[..., 0] + _KG * rgb[..., 1] + _KB * rgb[..., 2]


def _ref_chroma(rgb):
    y = _ref_luma(rgb)
    out = np.empty(rgb.shape[:-1] + (2,), dtype=rgb.dtype)
    out[..., 0] = (rgb[..., 2] - y) / (2.0 * (1.0 - _KB))
    out[..., 1] = (rgb[..., 0] - y) / (2.0 * (1.0 - _KR))
    return out


def _ref_to_rgb(y, cb, cr):
    out = np.empty(y.shape + (3,), dtype=y.dtype)
    r, g, b = out[..., 0], out[..., 1], out[..., 2]
    np.multiply(cr, 2.0 * (1.0 - _KR), out=r)
    r += y
    np.multiply(cb, 2.0 * (1.0 - _KB), out=b)
    b += y
    np.multiply(r, -_KR / _KG, out=g)
    g += y * (1.0 / _KG)
    g -= b * (_KB / _KG)
    return np.clip(out, 0.0, 1.0, out=out)


def _ref_box_decimate(image, factor):
    height, width = image.shape[:2]
    h2, w2 = height // factor * factor, width // factor * factor
    out = image[0:h2:factor, 0:w2:factor].copy()
    for dy in range(factor):
        for dx in range(factor):
            if dy or dx:
                out += image[dy:h2:factor, dx:w2:factor]
    out *= 1.0 / (factor * factor)
    return out


def _ref_upsample_axis_coords(full, small, factor):
    offset = (factor - 1) / 2.0
    coords = np.clip((np.arange(full, dtype=np.float64) - offset) / factor, 0.0, small - 1.0)
    i0 = np.clip(np.floor(coords), 0, small - 1).astype(np.int64)
    i1 = np.clip(i0 + 1, 0, small - 1)
    frac = np.clip(coords - i0, 0.0, 1.0)
    return i0, i1, frac


def _ref_bilinear_upsample(small, shape, factor):
    """Bilinear restore of an ``(h, w, C)`` plane through four ``take`` gathers."""
    height, width = shape
    y0, y1, fy = _ref_upsample_axis_coords(height, small.shape[0], factor)
    x0, x1, fx = _ref_upsample_axis_coords(width, small.shape[1], factor)
    trailing = (1,) * (small.ndim - 2)
    rows = small.take(y0, axis=0)
    step = small.take(y1, axis=0)
    step -= rows
    step *= fy.astype(small.dtype).reshape((-1, 1) + trailing)
    rows += step
    out = rows.take(x0, axis=1)
    step = rows.take(x1, axis=1)
    step -= out
    step *= fx.astype(small.dtype).reshape((1, -1) + trailing)
    out += step
    return out


def _ref_chroma_subsample(image, factor=2, chroma_blur=0.7):
    """Chroma subsampling on ``(H, W, 3)`` images with trailing-axis channels."""
    image = float_image(image)
    y = _ref_luma(image)
    if factor > 1:
        chroma = _ref_chroma(_ref_box_decimate(image, factor))
        if chroma_blur > 0:
            chroma = _ref_gaussian_blur(chroma, chroma_blur / factor)
        chroma = _ref_bilinear_upsample(chroma, image.shape[:2], factor)
    else:
        chroma = _ref_chroma(image)
        if chroma_blur > 0:
            chroma = _ref_gaussian_blur(chroma, chroma_blur)
    return _ref_to_rgb(y, chroma[..., 0], chroma[..., 1])


def _ref_quantize_8bit(image):
    scaled = float_image(image) * 255.0
    np.clip(scaled, 0.0, 255.0, out=scaled)
    levels = np.empty(scaled.shape, dtype=np.uint8)
    np.rint(scaled, out=levels, casting="unsafe")
    return levels.astype(np.float64) / 255.0


def _ref_pipeline_apply(pipeline, image, gains, faults=None, capture_index=0):
    """White balance by ``(3,)`` gains, chroma, sensor faults, quantization."""
    image = float_image(image)
    out = np.clip(image * np.asarray(gains, dtype=image.dtype), 0.0, 1.0)
    out = _ref_chroma_subsample(out, pipeline.chroma_factor, pipeline.chroma_blur)
    if faults is not None:
        out = faults.apply_image("sensor", out, capture_index)
    return _ref_quantize_8bit(out)


def _use_reference_chain(monkeypatch) -> None:
    from repro.channel import link as link_module

    monkeypatch.setattr(link_module, "warp_perspective", _ref_warp_perspective)
    monkeypatch.setattr(optics, "gaussian_blur", _ref_gaussian_blur)
    monkeypatch.setattr(link_module, "motion_blur", _ref_motion_blur)
    monkeypatch.setattr(EnvironmentProfile, "degrade", _ref_degrade)
    monkeypatch.setattr(CameraPipeline, "apply", _ref_pipeline_apply)


def _dispersed_link(seed: int) -> LinkConfig:
    """The handheld 15 degree link with the benchmarks' per-seed dispersion."""
    rng = np.random.default_rng(0xD15B + seed)
    distance = float(12.0 * (1.0 + rng.normal(0, 0.04)))
    angle = float(15.0 + rng.normal(0, 1.5))
    return paper_link_config(distance_cm=distance, view_angle_deg=angle)


@lru_cache(maxsize=1)
def _paper_frame() -> np.ndarray:
    """One rendered frame of the paper's 12 px layout (built once)."""
    codec = FrameCodecConfig(layout=FrameLayout(grid_rows=36, grid_cols=60, block_px=12))
    payload = bytes((7 * i + 3) % 256 for i in range(codec.payload_bytes_per_frame))
    return FrameEncoder(codec).encode_frame(payload, 0).render()


def _stream(config, seed, faults=None):
    """Captures of a one-frame stream (0.2 s), plus the link RNG's final state."""
    link = ScreenCameraLink(config, rng=np.random.default_rng(seed), faults=faults)
    schedule = FrameSchedule([_paper_frame()], display_rate=5, faults=faults)
    captures = link.capture_stream(schedule)
    return [c.image for c in captures], link.rng.bit_generator.state


def _assert_chain_matches_reference(monkeypatch, config, seed, scenario=None):
    def plan():
        return None if scenario is None else scenario_plan(scenario, seed=seed)

    live, live_state = _stream(config, seed, plan())
    with monkeypatch.context() as patch:
        _use_reference_chain(patch)
        reference, reference_state = _stream(config, seed, plan())
    assert live_state == reference_state
    assert len(live) == len(reference) > 0
    for got, want in zip(live, reference):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestChainIsBitIdenticalToReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_handheld_dispersed_links(self, monkeypatch, seed):
        _assert_chain_matches_reference(monkeypatch, _dispersed_link(seed), seed)

    @pytest.mark.parametrize(
        "seed", [1, pytest.param(2, marks=pytest.mark.slow)]
    )
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_every_fault_scenario(self, monkeypatch, scenario, seed):
        _assert_chain_matches_reference(
            monkeypatch, paper_link_config(view_angle_deg=15.0), seed, scenario
        )

    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("sensor", [(151, 243), (150, 241)])
    def test_odd_sensor_sizes_and_chroma_factors(self, monkeypatch, factor, sensor):
        config = LinkConfig(
            sensor_size=sensor, mobility=handheld(), pipeline=CameraPipeline(chroma_factor=factor)
        )
        _assert_chain_matches_reference(monkeypatch, config, 4)


def _footprint(shape, dtype, box=(slice(9, 40), slice(14, 70)), fill=0.1):
    """A constant *fill* frame with a random block standing in for the screen."""
    image = np.full(shape, fill, dtype=dtype)
    rng = np.random.default_rng(11)
    image[box] = rng.random(image[box].shape)
    return image


def _window_cases():
    three = (53, 87, 3)
    cases = {
        "inside": _footprint(three, np.float32),
        "touching_edges": _footprint(three, np.float32, (slice(0, 30), slice(40, 87))),
        "constant": np.full(three, 0.1, dtype=np.float32),
        "nonfill_origin": _footprint(three, np.float32),
        "gray_float64": _footprint((53, 87), np.float64),
        "thin_box": _footprint(three, np.float32, (slice(20, 21), slice(30, 31))),
    }
    cases["nonfill_origin"][0, 0] = (0.3, 0.2, 0.9)
    # A finger-colored disc in the far corner, outside the footprint.
    occluded = _footprint(three, np.float32)
    ys, xs = np.mgrid[0:53, 0:87]
    occluded[(ys - 47) ** 2 + (xs - 80) ** 2 < 16] = (0.55, 0.35, 0.25)
    cases["occlusion_outside"] = occluded
    return cases


class TestConstantBorderBlurWindow:
    @pytest.mark.parametrize("case", sorted(_window_cases()))
    @pytest.mark.parametrize("sigma", [0.6, 1.4])
    def test_gaussian_blur_matches_full_frame(self, case, sigma):
        image = _window_cases()[case]
        got = gaussian_blur(image, sigma)
        want = _ref_gaussian_blur(image, sigma)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(_window_cases()))
    @pytest.mark.parametrize("length,angle", [(0.4, 10.0), (2.7, 33.0), (6.5, -120.0)])
    def test_motion_blur_matches_full_frame(self, case, length, angle):
        image = _window_cases()[case]
        got = motion_blur(image, length, angle)
        want = _ref_motion_blur(image, length, angle)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_finger_occlusion_outside_the_screen_is_blurred(self):
        # A real pre-optics finger painted on a warped capture: whatever
        # lands outside the screen footprint is inside the blur window.
        image = _window_cases()["inside"]
        plan = scenario_plan("occlusion_finger", seed=5)
        occluded = plan.apply_image("pre_optics", image, 0)
        assert not np.array_equal(occluded, image)
        got = gaussian_blur(occluded, 0.7)
        assert got.tobytes() == _ref_gaussian_blur(occluded, 0.7).tobytes()


class TestBandedConvolutionMatchesWholeImagePasses:
    @pytest.mark.parametrize(
        "shape", [(97, 61, 3), (64, 40, 3), (33, 50), (5, 3, 3), (2, 1), (1, 7, 3)]
    )
    @pytest.mark.parametrize("taps", [1, 3, 5, 9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes(self, shape, taps, dtype):
        rng = np.random.default_rng(taps)
        image = rng.random(shape).astype(dtype)
        ky = rng.random(taps)
        kx = rng.random(taps)
        got = convolve_separable(image, ky, kx)
        want = _ref_convolve_separable(image, ky, kx)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestChromaPlanesMatchReference:
    @pytest.mark.parametrize("factor", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(32, 48, 3), (31, 45, 3), (7, 5, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chroma_subsample(self, factor, shape, dtype):
        img = np.random.default_rng(9).random(shape).astype(dtype)
        got = chroma_subsample(img, factor, 0.7)
        want = _ref_chroma_subsample(img, factor, 0.7)
        assert got.dtype == dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_pipeline_quantizes_like_reference(self, factor):
        img = np.random.default_rng(4).random((33, 47, 3)).astype(np.float32)
        pipeline = CameraPipeline(chroma_factor=factor)
        gains = (1.03, 0.97, 1.01)
        got = pipeline.apply(img, gains)
        want = _ref_pipeline_apply(pipeline, img, gains)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
