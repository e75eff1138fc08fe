"""Frame encoding: grid construction, rendering, capacity, streams."""

import numpy as np
import pytest

from repro.core.encoder import Frame, FrameCodecConfig, FrameEncoder
from repro.core.layout import CellRole, FrameLayout
from repro.core.palette import Color, rgb_table, tracking_color_for_sequence
from repro.core.renderer import render_grid, render_region


@pytest.fixture(scope="module")
def config():
    return FrameCodecConfig(layout=FrameLayout(34, 60, 12), rs_n=32, rs_k=24, display_rate=10)


@pytest.fixture(scope="module")
def encoder(config):
    return FrameEncoder(config)


class TestConfig:
    def test_capacity_chain(self, config):
        assert config.chunks_per_frame == config.layout.data_capacity_bytes // 32
        assert config.coded_bytes_per_frame == config.chunks_per_frame * 32
        assert config.message_bytes_per_frame == config.chunks_per_frame * 24
        assert config.payload_bytes_per_frame == config.message_bytes_per_frame - 2

    def test_rate_accounting(self, config):
        assert config.payload_bits_per_second == pytest.approx(
            8 * config.payload_bytes_per_frame * 10
        )

    def test_too_small_layout_rejected(self):
        with pytest.raises(ValueError):
            FrameCodecConfig(layout=FrameLayout(10, 44, 4), rs_n=255, rs_k=223)

    def test_with_layout(self, config):
        other = config.with_layout(FrameLayout(34, 60, 8))
        assert other.layout.block_px == 8
        assert other.rs_n == config.rs_n


class TestFrameGrid:
    def test_structure_cells(self, encoder, config):
        frame = encoder.encode_frame(b"hi", sequence=6)
        roles = config.layout.role_map
        grid = frame.grid
        # Tracking bars carry the low-2-bit color (6 & 3 = 2 -> green).
        bar = grid[roles == int(CellRole.TRACKING_BAR)]
        assert np.all(bar == int(tracking_color_for_sequence(6)))
        assert np.all(grid[roles == int(CellRole.LOCATOR)] == int(Color.BLACK))
        assert np.all(grid[roles == int(CellRole.CT_CENTER)] == int(Color.BLACK))
        assert np.all(grid[roles == int(CellRole.CT_RING_LEFT)] == int(Color.GREEN))
        assert np.all(grid[roles == int(CellRole.CT_RING_RIGHT)] == int(Color.RED))

    def test_data_cells_never_black(self, encoder, config):
        frame = encoder.encode_frame(bytes(100), sequence=0)
        cells = config.layout.data_cells
        assert int(Color.BLACK) not in frame.grid[cells[:, 0], cells[:, 1]]

    def test_payload_too_large(self, encoder, config):
        with pytest.raises(ValueError):
            encoder.encode_frame(bytes(config.payload_bytes_per_frame + 1), sequence=0)

    def test_payload_padded(self, encoder, config):
        frame = encoder.encode_frame(b"x", sequence=0)
        assert len(frame.payload) == config.payload_bytes_per_frame
        assert frame.payload[0:1] == b"x"

    def test_header_checksum_matches_payload(self, encoder):
        from repro.coding.crc import crc16

        frame = encoder.encode_frame(b"abc", sequence=3)
        assert frame.header.payload_checksum == crc16(frame.payload)

    def test_deterministic(self, encoder):
        a = encoder.encode_frame(b"same", sequence=1)
        b = encoder.encode_frame(b"same", sequence=1)
        assert np.array_equal(a.grid, b.grid)

    def test_different_sequences_differ_in_bars(self, encoder, config):
        roles = config.layout.role_map
        a = encoder.encode_frame(b"x", sequence=0).grid
        b = encoder.encode_frame(b"x", sequence=1).grid
        bars = roles == int(CellRole.TRACKING_BAR)
        assert not np.array_equal(a[bars], b[bars])


class TestStream:
    def test_segmentation(self, encoder, config):
        payload = bytes(range(256)) * 4  # > 3 frames worth
        frames = encoder.encode_stream(payload)
        expected = -(-len(payload) // config.payload_bytes_per_frame)
        assert len(frames) == expected
        assert [f.header.sequence for f in frames] == list(range(expected))
        assert frames[-1].header.is_last
        assert not frames[0].header.is_last

    def test_empty_payload_single_frame(self, encoder):
        frames = encoder.encode_stream(b"")
        assert len(frames) == 1
        assert frames[0].header.is_last

    def test_reassembled_payload(self, encoder, config):
        payload = bytes(range(256)) * 3
        frames = encoder.encode_stream(payload)
        joined = b"".join(f.payload for f in frames)
        assert joined[: len(payload)] == payload


class TestRenderer:
    def test_render_size_and_range(self, encoder, config):
        img = encoder.encode_frame(b"p", sequence=0).render()
        assert img.shape == (*config.layout.size_px, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_block_expansion(self, config):
        grid = np.zeros((34, 60), dtype=np.int64)
        grid[5, 7] = int(Color.RED)
        img = render_grid(grid, config.layout)
        block = img[5 * 12 : 6 * 12, 7 * 12 : 8 * 12]
        assert np.all(block == [1, 0, 0])

    def test_render_region_matches_full(self, encoder, config):
        frame = encoder.encode_frame(b"r", sequence=0)
        full = frame.render()
        part = render_region(frame.grid, config.layout, (4, 9))
        assert np.array_equal(part, full[4 * 12 : 9 * 12])

    @pytest.mark.parametrize("color", list(Color))
    def test_repeat_expansion_matches_kron_reference(self, encoder, config, color):
        # The earlier renderer: a kron expansion by a ones block.
        def kron_render(grid):
            block = np.ones((config.layout.block_px, config.layout.block_px, 1))
            return np.kron(rgb_table()[np.asarray(grid, dtype=np.int64)], block)

        grid = encoder.encode_frame(b"k", sequence=0).grid.copy()
        grid[::3, ::4] = int(color)
        full = render_grid(grid, config.layout)
        assert full.dtype == np.float64 and full.flags.c_contiguous
        assert full.tobytes() == kron_render(grid).tobytes()
        part = render_region(grid, config.layout, (2, 11))
        assert part.tobytes() == kron_render(grid[2:11]).tobytes()
        solid = np.full(grid.shape, int(color), dtype=np.int64)
        assert render_grid(solid, config.layout).tobytes() == kron_render(solid).tobytes()

    def test_render_wrong_shape(self, config):
        with pytest.raises(ValueError):
            render_grid(np.zeros((10, 10), dtype=np.int64), config.layout)

    def test_render_region_bad_range(self, encoder, config):
        frame = encoder.encode_frame(b"r", sequence=0)
        with pytest.raises(ValueError):
            render_region(frame.grid, config.layout, (5, 5))

    def test_frame_is_dataclass_with_layout(self, encoder, config):
        frame = encoder.encode_frame(b"z", sequence=2)
        assert isinstance(frame, Frame)
        assert frame.layout is config.layout
