"""RDCode image domain: square grids, palettes, calibration-free decode."""

import numpy as np
import pytest

from repro.baselines.rdcode import RDCodeLayout
from repro.baselines.rdcode_image import RDCodeImageCoder
from repro.core.palette import Color
from repro.imaging.noise import add_ambient_light, add_sensor_noise, scale_brightness
from repro.imaging.sensor import white_balance_shift


@pytest.fixture(scope="module")
def coder():
    # 36 x 60 grid of 12-block squares -> 3 x 5 squares.
    return RDCodeImageCoder(RDCodeLayout(grid_rows=36, grid_cols=60, square=12), block_px=8)


@pytest.fixture(scope="module")
def payload(coder):
    rng = np.random.default_rng(0)
    return bytes(rng.integers(0, 256, coder.capacity_bytes, dtype=np.uint8))


class TestGridStructure:
    def test_capacity_matches_layout(self, coder):
        per_square = coder.data_blocks_per_square
        assert per_square == 12 * 12 - 6
        squares = coder.layout.squares_x * coder.layout.squares_y
        assert coder.capacity_bytes == 2 * (squares - 1) * per_square // 8

    def test_palette_blocks_in_every_square(self, coder, payload):
        grid = coder.encode_grid(payload)
        h = coder.layout.square
        for sy in range(coder.layout.squares_y):
            for sx in range(coder.layout.squares_x):
                top, left = sy * h, sx * h
                assert grid[top, left] == int(Color.WHITE)
                assert grid[top, left + h - 1] == int(Color.RED)
                assert grid[top + h - 1, left] == int(Color.GREEN)
                assert grid[top + h - 1, left + h - 1] == int(Color.BLUE)
                assert grid[top, left + h // 2] == int(Color.BLACK)

    def test_payload_too_large(self, coder):
        with pytest.raises(ValueError):
            coder.encode_grid(bytes(coder.capacity_bytes + 1))

    def test_render_shape(self, coder, payload):
        img = coder.render(coder.encode_grid(payload))
        assert img.shape == (36 * 8, 60 * 8, 3)


class TestPaletteDecode:
    def test_clean_roundtrip(self, coder, payload):
        img = coder.render(coder.encode_grid(payload))
        assert coder.decode_image(img, len(payload)) == payload

    def test_roundtrip_under_white_balance_shift(self, coder, payload):
        # The defining property: a global color shift hits palette and
        # data alike, so per-square calibration cancels it.
        img = coder.render(coder.encode_grid(payload))
        shifted = white_balance_shift(img, (0.95, 0.85, 0.7))
        assert coder.decode_image(shifted, len(payload)) == payload

    def test_roundtrip_under_dimming_and_ambient(self, coder, payload):
        img = coder.render(coder.encode_grid(payload))
        degraded = add_ambient_light(scale_brightness(img, 0.5), 0.15)
        assert coder.decode_image(degraded, len(payload)) == payload

    def test_noise_tolerance(self, coder, payload):
        rng = np.random.default_rng(1)
        img = coder.render(coder.encode_grid(payload))
        noisy = add_sensor_noise(img, np.inf, 0.05, rng)
        decoded = coder.decode_image(noisy, len(payload))
        errors = sum(a != b for a, b in zip(decoded, payload))
        assert errors <= len(payload) * 0.02

    def test_decode_under_projection(self, coder, payload):
        from repro.imaging.geometry import PinholeSetup, warp_perspective

        img = coder.render(coder.encode_grid(payload))
        setup = PinholeSetup(
            screen_size_px=img.shape[:2], sensor_size_px=(400, 640), view_angle_deg=12.0
        )
        h = setup.homography()
        captured = warp_perspective(img, h, (400, 640), fill=0.1)
        decoded = coder.decode_image(captured, len(payload), homography=h)
        errors = sum(a != b for a, b in zip(decoded, payload))
        assert errors <= len(payload) * 0.02
