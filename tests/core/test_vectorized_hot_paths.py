"""Golden tests pinning the vectorized hot paths to their loop originals.

The rolling-shutter composite and the tracking-bar row assignment were
rewritten from per-row Python loops to whole-array NumPy operations.
These tests keep the original loop implementations as executable
references and assert the vectorized versions are **bit-identical** —
not merely close — so every downstream trial statistic stays exactly
reproducible across the rewrite.
"""

from __future__ import annotations

import numpy as np

from repro.channel.camera import CameraTiming, compose_rolling_shutter
from repro.channel.screen import FrameSchedule
from repro.core.decoder import _assign_rows
from repro.core.palette import tracking_bar_difference


def _reference_compose_rolling_shutter(schedule, timing, start_time):
    """The pre-vectorization per-row loop, kept verbatim as the oracle."""
    height = schedule.image_shape[0]
    times = timing.line_times(height, start_time)

    idx_start = np.clip(
        np.floor(times * schedule.display_rate).astype(np.int64),
        0,
        len(schedule.images) - 1,
    )
    end_times = times + timing.exposure_s
    idx_end = np.clip(
        np.floor(end_times * schedule.display_rate).astype(np.int64),
        0,
        len(schedule.images) - 1,
    )

    alpha = np.zeros(height)
    crosses = idx_end > idx_start
    if timing.exposure_s > 0 and np.any(crosses):
        switch_time = idx_end[crosses] / schedule.display_rate
        alpha[crosses] = np.clip(
            (end_times[crosses] - switch_time) / timing.exposure_s, 0.0, 1.0
        )

    rows = np.arange(height)
    needed = np.unique(np.concatenate([idx_start, idx_end]))
    emitted = {int(i): schedule.emitted_image(int(i)) for i in needed}
    # The composite takes the emitted frames' dtype (float32 since the
    # capture chain went float32); mixed rows still blend in float64.
    composite = np.empty(schedule.image_shape, dtype=emitted[int(needed[0])].dtype)
    for i in needed:
        img = emitted[int(i)]
        pure = rows[(idx_start == i) & ~crosses]
        composite[pure] = img[pure]
    mixed = rows[crosses]
    for r in mixed:
        a = alpha[r]
        composite[r] = (
            (1.0 - a) * emitted[int(idx_start[r])][r] + a * emitted[int(idx_end[r])][r]
        )
    return composite


def _reference_assign_rows(left_sym, right_sym, frame_indicator):
    """The pre-vectorization tracking-bar assignment loop, kept verbatim."""
    left_sym = np.asarray(left_sym, dtype=np.int64)
    right_sym = np.asarray(right_sym, dtype=np.int64)
    assignment = np.full(left_sym.shape, -1, dtype=np.int64)
    for r in range(len(left_sym)):
        ls, rs = int(left_sym[r]), int(right_sym[r])
        if ls >= 0 and rs >= 0 and ls != rs:
            continue  # bars disagree: leave erased
        indicator = ls if ls >= 0 else rs
        if indicator < 0:
            continue
        d_t = tracking_bar_difference(indicator, frame_indicator)
        if d_t <= 1:
            assignment[r] = d_t
    return assignment


def _schedule(rng, num_frames=4, shape=(48, 36, 3), display_rate=10):
    images = [rng.random(shape) for __ in range(num_frames)]
    return FrameSchedule(images, display_rate)


class TestComposeRollingShutter:
    def test_bit_identical_across_start_times(self):
        rng = np.random.default_rng(7)
        schedule = _schedule(rng)
        timing = CameraTiming(capture_rate=30.0, readout_fraction=0.9, exposure_s=0.004)
        for start_time in (0.0, 0.033, 0.095, 0.21, 0.31):
            expected = _reference_compose_rolling_shutter(schedule, timing, start_time)
            actual = compose_rolling_shutter(schedule, timing, start_time)
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)

    def test_bit_identical_with_long_exposure(self):
        # Wide mixed band: exposure comparable to the frame period.
        rng = np.random.default_rng(11)
        schedule = _schedule(rng, display_rate=20)
        timing = CameraTiming(capture_rate=30.0, readout_fraction=0.95, exposure_s=0.03)
        for start_time in (0.0, 0.04, 0.12):
            expected = _reference_compose_rolling_shutter(schedule, timing, start_time)
            actual = compose_rolling_shutter(schedule, timing, start_time)
            assert np.array_equal(actual, expected)

    def test_bit_identical_without_exposure(self):
        # exposure_s = 0: no mixed rows at all.
        rng = np.random.default_rng(13)
        schedule = _schedule(rng)
        timing = CameraTiming(capture_rate=30.0, readout_fraction=0.9, exposure_s=0.0)
        expected = _reference_compose_rolling_shutter(schedule, timing, 0.05)
        actual = compose_rolling_shutter(schedule, timing, 0.05)
        assert np.array_equal(actual, expected)

    def test_brightness_scaling_matches(self):
        rng = np.random.default_rng(17)
        images = [rng.random((32, 24, 3)) for __ in range(3)]
        schedule = FrameSchedule(images, 10, brightness=0.6)
        timing = CameraTiming(capture_rate=30.0, exposure_s=0.006)
        expected = _reference_compose_rolling_shutter(schedule, timing, 0.08)
        actual = compose_rolling_shutter(schedule, timing, 0.08)
        assert np.array_equal(actual, expected)


class TestAssignRows:
    def test_bit_identical_exhaustive(self):
        # Every (left, right) symbol pair, for every frame indicator.
        symbols = np.arange(-1, 4, dtype=np.int64)
        left, right = np.meshgrid(symbols, symbols)
        left, right = left.ravel(), right.ravel()
        for frame_indicator in range(4):
            expected = _reference_assign_rows(left, right, frame_indicator)
            actual = _assign_rows(left, right, frame_indicator)
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)

    def test_bit_identical_random_rows(self):
        rng = np.random.default_rng(23)
        for __ in range(20):
            left = rng.integers(-1, 4, size=40)
            right = rng.integers(-1, 4, size=40)
            indicator = int(rng.integers(0, 4))
            assert np.array_equal(
                _assign_rows(left, right, indicator),
                _reference_assign_rows(left, right, indicator),
            )
