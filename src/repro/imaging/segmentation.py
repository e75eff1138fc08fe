"""Binary mask segmentation.

Corner-tracker detection labels the black-pixel mask of a capture and
inspects each component.  Labeling uses :func:`scipy.ndimage.label`
(8-connectivity); statistics are computed vectorized, with one
``np.bincount`` over the whole label image and grouped reductions over
the pixels of the components that pass the area filter, so a
full-capture mask costs a few milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = ["ComponentStats", "connected_components", "component_stats"]

_EIGHT_CONNECTED = np.ones((3, 3), dtype=np.int64)


@dataclass(frozen=True)
class ComponentStats:
    """Geometry of one connected component of a binary mask."""

    label: int
    area: int
    centroid: tuple[float, float]  # (x, y)
    bbox: tuple[int, int, int, int]  # (x0, y0, x1, y1), inclusive

    @property
    def width(self) -> int:
        return self.bbox[2] - self.bbox[0] + 1

    @property
    def height(self) -> int:
        return self.bbox[3] - self.bbox[1] + 1

    @property
    def fill_ratio(self) -> float:
        """Area over bbox area — near 1.0 for solid squares."""
        return self.area / float(self.width * self.height)

    @property
    def aspect(self) -> float:
        """Long side over short side — near 1.0 for squares."""
        long_side = max(self.width, self.height)
        short_side = max(min(self.width, self.height), 1)
        return long_side / short_side


def connected_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected labeling of a boolean mask: ``(labels, count)``.

    Labels are 1-based; 0 is background.
    """
    labels, count = ndimage.label(np.asarray(mask, dtype=bool), structure=_EIGHT_CONNECTED)
    return labels, int(count)


def component_stats(
    labels: np.ndarray,
    count: int,
    min_area: int = 1,
    max_area: int | None = None,
) -> list[ComponentStats]:
    """Per-component area, centroid and bounding box, area-filtered.

    Areas take one ``bincount`` over the whole label image.  Boxes and
    centroids are computed only for the components that pass the area
    filter, from their own pixels: grouped min/max for the boxes and
    integer coordinate sums over integer areas for the centroids, so
    both are exact.
    """
    if count == 0:
        return []
    flat = labels.ravel()
    areas = np.bincount(flat, minlength=count + 1)
    keep = areas >= max(min_area, 1)
    if max_area is not None:
        keep &= areas <= max_area
    keep[0] = False
    passing = np.flatnonzero(keep)
    if passing.size == 0:
        return []

    height, width = labels.shape
    pixels = np.flatnonzero(keep[flat])
    owner = flat[pixels]
    ys, xs = np.divmod(pixels, width)
    areas = areas[passing]
    sum_x = np.bincount(owner, weights=xs, minlength=count + 1)[passing]
    sum_y = np.bincount(owner, weights=ys, minlength=count + 1)[passing]
    x0 = np.full(count + 1, width, dtype=np.intp)
    y0 = np.full(count + 1, height, dtype=np.intp)
    x1 = np.full(count + 1, -1, dtype=np.intp)
    y1 = np.full(count + 1, -1, dtype=np.intp)
    np.minimum.at(x0, owner, xs)
    np.minimum.at(y0, owner, ys)
    np.maximum.at(x1, owner, xs)
    np.maximum.at(y1, owner, ys)
    return [
        ComponentStats(label=label, area=area, centroid=(cx, cy), bbox=(bx0, by0, bx1, by1))
        for label, area, cx, cy, bx0, by0, bx1, by1 in zip(
            passing.tolist(),
            areas.tolist(),
            (sum_x / areas).tolist(),
            (sum_y / areas).tolist(),
            x0[passing].tolist(),
            y0[passing].tolist(),
            x1[passing].tolist(),
            y1[passing].tolist(),
        )
    ]
