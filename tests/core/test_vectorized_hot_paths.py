"""Golden tests pinning the vectorized hot paths to their loop originals.

The rolling-shutter composite and the tracking-bar row assignment were
rewritten from per-row Python loops to whole-array NumPy operations.
Corner detection classifies every candidate's ring in one batch instead
of one call per blob, location correction slices the capture's black
mask instead of classifying each window's pixels, and component
statistics are computed only for the components that pass the area
filter.  These tests keep the original implementations as executable
references and assert the rewritten versions are **bit-identical** —
not merely close — so every downstream trial statistic stays exactly
reproducible across the rewrite.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from repro import telemetry
from repro.channel.camera import CameraTiming, compose_rolling_shutter
from repro.channel.link import LinkConfig, ScreenCameraLink
from repro.channel.screen import FrameSchedule
from repro.core.brightness import estimate_black_threshold
from repro.core.corners import (
    CornerDetection,
    CornerDetectionError,
    CornerTracker,
    detect_corner_trackers,
)
from repro.core.decoder import FrameDecoder, _assign_rows
from repro.core.encoder import FrameCodecConfig, FrameEncoder
from repro.core.layout import FrameLayout
from repro.core.locators import (
    LocatorColumn,
    LocatorError,
    find_first_middle_locator,
    walk_locator_column,
)
from repro.core.palette import Color, tracking_bar_difference
from repro.core.recognition import ColorClassifier
from repro.faults import scenario_names, scenario_plan
from repro.imaging.segmentation import ComponentStats, component_stats, connected_components
from repro.io import read_png
from repro.telemetry.metrics import MetricsRegistry


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


# --- corner detection, location correction, component statistics -------


def _reference_component_stats(labels, count, min_area=1, max_area=None):
    """Whole-image bincounts plus ``find_objects``, kept verbatim."""
    if count == 0:
        return []
    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count + 1)
    boxes = ndimage.find_objects(labels, max_label=count)
    height, width = labels.shape
    xs_flat = np.tile(np.arange(width, dtype=np.float64), height)
    ys_flat = np.repeat(np.arange(height, dtype=np.float64), width)
    sum_x = np.bincount(flat, weights=xs_flat, minlength=count + 1)
    sum_y = np.bincount(flat, weights=ys_flat, minlength=count + 1)
    out = []
    for label in range(1, count + 1):
        area = int(areas[label])
        if area < min_area or (max_area is not None and area > max_area):
            continue
        box = boxes[label - 1]
        if box is None:
            continue
        row_slice, col_slice = box
        out.append(
            ComponentStats(
                label=label,
                area=area,
                centroid=(float(sum_x[label] / area), float(sum_y[label] / area)),
                bbox=(
                    int(col_slice.start),
                    int(row_slice.start),
                    int(col_slice.stop - 1),
                    int(row_slice.stop - 1),
                ),
            )
        )
    return out


def _reference_detect_corner_trackers(image, classifier, min_block_px=3.0, max_block_px=40.0):
    """The per-candidate ring loop — one classification per blob — kept verbatim."""
    image = np.asarray(image, dtype=np.float64)
    black_mask = classifier.black_mask(image)
    labels, count = connected_components(black_mask)
    min_area = max(1, int((0.5 * min_block_px) ** 2))
    max_area = int((2.0 * max_block_px) ** 2)
    candidates = _reference_component_stats(labels, count, min_area=min_area, max_area=max_area)

    best = {}
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    for comp in candidates:
        side = 0.5 * (comp.width + comp.height)
        if not min_block_px <= side <= max_block_px:
            continue
        if comp.aspect > 2.0 or comp.fill_ratio < 0.5:
            continue
        cx, cy = comp.centroid
        radius_x = 1.1 * comp.width
        radius_y = 1.1 * comp.height
        ring = np.column_stack(
            [cx + radius_x * np.cos(angles), cy + radius_y * np.sin(angles)]
        )
        ring_colors = classifier.classify_centers(image, ring)
        for color in (Color.GREEN, Color.RED):
            purity = float(np.mean(ring_colors == int(color)))
            if purity < 0.8:
                continue
            tracker = CornerTracker(
                center=(cx, cy), block_size=side, ring_color=color, purity=purity
            )
            incumbent = best.get(color)
            if incumbent is None or purity > incumbent.purity:
                best[color] = tracker

    if Color.GREEN not in best or Color.RED not in best:
        missing = [c.name for c in (Color.GREEN, Color.RED) if c not in best]
        raise CornerDetectionError(f"corner tracker(s) not found: {', '.join(missing)}")
    left, right = best[Color.GREEN], best[Color.RED]
    if left.center[0] >= right.center[0]:
        raise CornerDetectionError(
            "green tracker found right of red tracker; capture likely inverted"
        )
    return CornerDetection(left=left, right=right)


def _reference_correct_location(image, classifier, point, block_size):
    """Per-window ``classify_pixels`` correction, kept verbatim."""
    image = np.asarray(image, dtype=np.float64)
    height, width = image.shape[:2]
    half = max(block_size * 0.75, 1.5)
    point = np.asarray(point, dtype=np.float64).copy()
    if not np.all(np.isfinite(point)) or not np.isfinite(half):
        return None
    for __ in range(12):
        x0 = int(np.floor(point[0] - half))
        x1 = int(np.ceil(point[0] + half)) + 1
        y0 = int(np.floor(point[1] - half))
        y1 = int(np.ceil(point[1] + half)) + 1
        x0, x1 = max(x0, 0), min(x1, width)
        y0, y1 = max(y0, 0), min(y1, height)
        if x1 - x0 < 2 or y1 - y0 < 2:
            return None
        window = image[y0:y1, x0:x1]
        black = classifier.classify_pixels(window) == int(Color.BLACK)
        if int(black.sum()) < 3:
            return None
        ys, xs = np.nonzero(black)
        new_point = np.array([x0 + xs.mean(), y0 + ys.mean()])
        if np.linalg.norm(new_point - point) < 0.05:
            return new_point
        point = new_point
    return point


def _reference_walk_locator_column(
    image, classifier, start, initial_step, count, block_size, column, start_row
):
    positions = np.zeros((count, 2))
    refined = np.zeros(count, dtype=bool)
    first = _reference_correct_location(
        image, classifier, np.asarray(start, dtype=np.float64), block_size
    )
    if first is None:
        first = np.asarray(start, dtype=np.float64)
    else:
        refined[0] = True
    positions[0] = first
    step = np.asarray(initial_step, dtype=np.float64).copy()
    for i in range(1, count):
        predicted = positions[i - 1] + step
        corrected = _reference_correct_location(image, classifier, predicted, block_size)
        if corrected is None:
            positions[i] = predicted
        else:
            positions[i] = corrected
            refined[i] = True
            step = positions[i] - positions[i - 1]
    rows = np.arange(start_row, start_row + 2 * count, 2, dtype=np.int64)
    return LocatorColumn(positions=positions, refined=refined, column=column, rows=rows)


def _reference_find_first_middle_locator(
    image, classifier, midpoint, block_size, min_block_px, max_block_px
):
    image = np.asarray(image, dtype=np.float64)
    height, width = image.shape[:2]
    midpoint = np.asarray(midpoint, dtype=np.float64)
    if not np.all(np.isfinite(midpoint)) or not np.isfinite(block_size):
        raise LocatorError("middle-locator seed is not finite")
    half = 1.5 * block_size
    x0 = max(int(midpoint[0] - half), 0)
    x1 = min(int(midpoint[0] + half) + 1, width)
    y0 = max(int(midpoint[1] - half), 0)
    y1 = min(int(midpoint[1] + half) + 1, height)
    if x1 - x0 < 2 or y1 - y0 < 2:
        raise LocatorError("middle-locator search window off image")
    window = image[y0:y1, x0:x1]
    black = classifier.classify_pixels(window) == int(Color.BLACK)
    labels, count = connected_components(black)
    best = None
    best_dist = np.inf
    for comp in _reference_component_stats(labels, count, min_area=3):
        if not (0.5 * min_block_px <= comp.width <= max_block_px):
            continue
        if not (0.5 * min_block_px <= comp.height <= max_block_px):
            continue
        center = np.array([x0 + comp.centroid[0], y0 + comp.centroid[1]])
        dist = float(np.linalg.norm(center - midpoint))
        if dist < best_dist:
            best, best_dist = center, dist
    if best is None:
        raise LocatorError("no middle locator found near the CT midpoint")
    corrected = _reference_correct_location(image, classifier, best, block_size)
    return corrected if corrected is not None else best


#: The golden corpus and fault-campaign geometry.
_LAYOUT = FrameLayout(grid_rows=24, grid_cols=44, block_px=8)
_CORPUS_DIR = Path(__file__).parent.parent / "fixtures" / "corpus"


def _corpus_captures():
    for path in sorted(_CORPUS_DIR.glob("*.png")):
        yield path.stem, read_png(path).astype(np.float64) / 255.0


def _scenario_captures():
    """Two captures per fault scenario (drops may leave fewer)."""
    codec = FrameCodecConfig(layout=_LAYOUT)
    frames = FrameEncoder(codec).encode_stream(bytes(range(256)) * 2)
    for index, name in enumerate(scenario_names()):
        faults = scenario_plan(name, seed=index)
        schedule = FrameSchedule(
            [f.render() for f in frames], display_rate=codec.display_rate, faults=faults
        )
        link = ScreenCameraLink(
            LinkConfig(sensor_size=(300, 480)),
            rng=np.random.default_rng(100 + index),
            faults=faults,
        )
        for k, capture in enumerate(link.capture_stream(schedule, start_offset=0.01)[:2]):
            yield f"{name}-{k}", capture.image


@pytest.fixture(scope="module")
def golden_captures():
    return list(_corpus_captures()) + list(_scenario_captures())


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CornerDetectionError, LocatorError) as exc:
        return type(exc), str(exc)


def _assert_columns_equal(actual, expected):
    assert isinstance(actual, LocatorColumn)
    assert actual.positions.dtype == expected.positions.dtype
    assert np.array_equal(actual.positions, expected.positions)
    assert np.array_equal(actual.refined, expected.refined)
    assert np.array_equal(actual.rows, expected.rows)
    assert actual.column == expected.column


@pytest.mark.parametrize("mode", ["hsv", "rgb"])
def test_corners_and_locators_match_references(golden_captures, mode):
    decoder = FrameDecoder(FrameCodecConfig(layout=_LAYOUT), classifier_mode=mode)
    layout = decoder.config.layout
    count = len(list(layout.locator_rows))
    outcomes = {"corners": 0, "middle": 0, "walked": 0}
    for name, image in golden_captures:
        image = np.nan_to_num(image, nan=0.0, posinf=1.0, neginf=0.0)
        classifier = ColorClassifier(
            t_value=estimate_black_threshold(image).t_value, mode=mode
        )
        black = classifier.black_mask(image)

        corners = _outcome(detect_corner_trackers, image, classifier, black)
        assert corners == _outcome(_reference_detect_corner_trackers, image, classifier), name
        if not isinstance(corners, CornerDetection):
            outcomes["corners"] += 1
            continue

        step = corners.row_step() * 2.0
        block = corners.block_size
        columns = {}
        for side in ("left", "right"):
            column = getattr(layout, f"{side}_locator_col")
            start = np.array(getattr(corners, side).center)
            columns[side] = walk_locator_column(
                black, start, step, count, block, column=column, start_row=layout.ct_center_row
            )
            _assert_columns_equal(
                columns[side],
                _reference_walk_locator_column(
                    image, classifier, start, step, count, block, column, layout.ct_center_row
                ),
            )

        midpoint = decoder._middle_seed(corners, columns["left"], columns["right"])
        bounds = (decoder.min_block_px, decoder.max_block_px)
        first_mid = _outcome(find_first_middle_locator, black, midpoint, block, *bounds)
        expected = _outcome(
            _reference_find_first_middle_locator, image, classifier, midpoint, block, *bounds
        )
        if isinstance(first_mid, tuple):
            assert first_mid == expected, name
            outcomes["middle"] += 1
            continue
        assert np.array_equal(first_mid, expected), name
        _assert_columns_equal(
            walk_locator_column(
                black, first_mid, step, count, block,
                column=layout.middle_locator_col, start_row=layout.ct_center_row,
            ),
            _reference_walk_locator_column(
                image, classifier, first_mid, step, count, block,
                layout.middle_locator_col, layout.ct_center_row,
            ),
        )
        outcomes["walked"] += 1
    # The corpus must exercise both outcomes, or the comparison proves little.
    assert outcomes["walked"] > 0
    assert outcomes["corners"] > 0


def test_component_stats_match_reference_on_random_masks():
    rng = np.random.default_rng(29)
    for density in (0.05, 0.3, 0.6):
        for shape in ((1, 1), (7, 13), (40, 60)):
            mask = rng.random(shape) < density
            labels, count = connected_components(mask)
            for min_area, max_area in ((1, None), (0, None), (3, 20), (2, 2)):
                assert component_stats(labels, count, min_area, max_area) == (
                    _reference_component_stats(labels, count, min_area, max_area)
                )


def test_component_stats_match_reference_on_captures(golden_captures):
    for name, image in golden_captures:
        image = np.nan_to_num(image, nan=0.0, posinf=1.0, neginf=0.0)
        classifier = ColorClassifier(t_value=estimate_black_threshold(image).t_value)
        labels, count = connected_components(classifier.black_mask(image))
        assert component_stats(labels, count, 2, 6400) == (
            _reference_component_stats(labels, count, 2, 6400)
        ), name


def test_ring_purity_ties_keep_the_first_candidate():
    # Two identical green trackers tie at purity 1.0: the first component
    # in label order must win, as in the per-candidate loop.
    image = np.ones((64, 240, 3))
    for x, ring in ((40, (0.0, 1.0, 0.0)), (120, (0.0, 1.0, 0.0)), (200, (1.0, 0.0, 0.0))):
        image[20:44, x - 12 : x + 12] = ring
        image[28:36, x - 4 : x + 4] = 0.0
    classifier = ColorClassifier(t_value=0.3)
    found = detect_corner_trackers(image, classifier, classifier.black_mask(image))
    assert found == _reference_detect_corner_trackers(image, classifier)
    assert found.left.center == (39.5, 31.5)
    assert found.left.purity == 1.0


def test_ring_margin_histogram_matches_per_candidate_calls(golden_captures):
    # With a live registry every ring's margins are observed as its own
    # group, so even the histogram's float sum matches the loop.
    for name, image in golden_captures[:6]:
        image = np.nan_to_num(image, nan=0.0, posinf=1.0, neginf=0.0)
        classifier = ColorClassifier(t_value=estimate_black_threshold(image).t_value)
        snapshots = []
        for detect in (
            lambda: detect_corner_trackers(image, classifier, classifier.black_mask(image)),
            lambda: _reference_detect_corner_trackers(image, classifier),
        ):
            registry = MetricsRegistry()
            with telemetry.scoped(registry=registry):
                _outcome(detect)
            snapshots.append(registry.snapshot())
        assert snapshots[0] == snapshots[1], name
        assert snapshots[0]["histograms"], name
