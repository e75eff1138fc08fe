"""Rendering a frame grid into display pixels.

The sender's drawing step: each grid cell becomes a ``block_px`` square
of its color.  Rendering looks the color index grid up in the RGB table
and expands each cell with two ``np.repeat`` calls, which is what makes
the four-thread drawing pipeline of the paper unnecessary here
(Section IV measures the phone's drawing cost; our bench reproduces
that experiment by timing this function).
"""

from __future__ import annotations

import numpy as np

from .layout import FrameLayout
from .palette import rgb_table

__all__ = ["render_grid", "render_region"]


def render_grid(grid: np.ndarray, layout: FrameLayout) -> np.ndarray:
    """Render a ``(grid_rows, grid_cols)`` color-index grid to an RGB image.

    Returns a float image of shape ``layout.size_px + (3,)`` with values
    in ``[0, 1]``.
    """
    grid = np.asarray(grid, dtype=np.int64)
    if grid.shape != (layout.grid_rows, layout.grid_cols):
        raise ValueError(
            f"grid shape {grid.shape} does not match layout "
            f"({layout.grid_rows}, {layout.grid_cols})"
        )
    return _expand(rgb_table()[grid], layout.block_px)


def render_region(
    grid: np.ndarray,
    layout: FrameLayout,
    row_range: tuple[int, int],
) -> np.ndarray:
    """Render only grid rows ``[row_range[0], row_range[1])``.

    Used by the screen simulator when compositing rolling-shutter
    captures: partial renders avoid re-drawing whole frames.
    """
    r0, r1 = row_range
    if not 0 <= r0 < r1 <= layout.grid_rows:
        raise ValueError(f"invalid row range {row_range}")
    return _expand(rgb_table()[np.asarray(grid, dtype=np.int64)[r0:r1]], layout.block_px)


def _expand(rgb: np.ndarray, block_px: int) -> np.ndarray:
    """Each ``(rows, cols, 3)`` cell as a ``block_px`` square of its color.

    Columns expand first, on the small array, so the row expansion
    copies whole pixel rows.
    """
    return np.repeat(np.repeat(rgb, block_px, axis=1), block_px, axis=0)
