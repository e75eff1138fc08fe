"""Spatial filters.

The decoder uses a 3x3 mean filter for block denoising (Section III-F);
the channel simulator uses Gaussian and motion blur to model defocus and
hand shake.  All filters are separable convolutions implemented with
NumPy; edges use reflect padding, matching the behaviour a phone ISP
would approximate.  Every filter keeps a float input's dtype (float32
in the channel simulator, float64 in the decoder) and computes integer
inputs in float64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.typing import DTypeLike

from .color import float_image

__all__ = [
    "convolve_separable",
    "mean_filter",
    "gaussian_kernel",
    "gaussian_blur",
    "motion_blur",
    "box_blur",
]


#: Rows per band of :func:`convolve_separable`.  A band of a 480 x 800 x 3
#: float32 frame with its padded and scratch rows takes about 1 MB, so
#: both passes over it run out of one core's L2 cache instead of
#: streaming the whole frame through memory once per tap.
_BAND_ROWS = 32


def _kernel(kernel: np.ndarray, dtype: DTypeLike) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=dtype)
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError("kernel must be 1-D with odd length")
    return kernel


def _taps(
    source: np.ndarray, kernel: np.ndarray, axis: int, out: np.ndarray, scratch: np.ndarray
) -> None:
    """``out = sum_i kernel[i] * source[i : i + n]`` along *axis*, in order.

    Accumulates through one reused scratch buffer: ``slice * weight``
    then ``out += scratch`` is the same arithmetic as ``out += weight *
    slice`` without a fresh temporary per tap.  The first tap writes
    *out* directly, the same values as adding it to zeros.
    """
    size = out.shape[axis]
    lead = (slice(None),) * axis
    np.multiply(source[lead + (slice(0, size),)], kernel[0], out=out)
    for offset in range(1, kernel.size):
        np.multiply(source[lead + (slice(offset, offset + size),)], kernel[offset], out=scratch)
        out += scratch


def convolve_separable(image: np.ndarray, ky: np.ndarray, kx: np.ndarray) -> np.ndarray:
    """Convolve *image* with the separable kernel ``outer(ky, kx)``.

    Works on 2-D intensity images and ``(H, W, C)`` color images (each
    channel filtered independently); edges use reflect padding.  The
    image is filtered in bands of rows: each band runs the vertical pass
    over the vertically padded image, then the horizontal pass over that
    band reflect-padded along its columns, so both passes stay in cache.
    Every output value is the same sum, accumulated in the same order,
    as filtering the whole image along one axis and then the other.
    """
    image = float_image(image)
    ky, kx = _kernel(ky, image.dtype), _kernel(kx, image.dtype)
    ry, rx = ky.size // 2, kx.size // 2
    height = image.shape[0]
    trailing = [(0, 0)] * (image.ndim - 2)
    padded = np.pad(image, [(ry, ry), (0, 0)] + trailing, mode="reflect")
    out = np.empty(image.shape, dtype=image.dtype)
    band = min(_BAND_ROWS, height)
    vertical = np.empty((band,) + image.shape[1:], dtype=image.dtype)
    scratch = np.empty_like(vertical)
    for y in range(0, height, band):
        rows = min(band, height - y)
        _taps(padded[y : y + rows + 2 * ry], ky, 0, vertical[:rows], scratch[:rows])
        across = np.pad(vertical[:rows], [(0, 0), (rx, rx)] + trailing, mode="reflect")
        _taps(across, kx, 1, out[y : y + rows], scratch[:rows])
    return out


def mean_filter(image: np.ndarray, size: int = 3) -> np.ndarray:
    """The paper's block-denoising filter: an NxN mean (default 3x3).

    Replaces each pixel by the average of its neighbourhood, which cancels
    zero-mean sensor noise at block centers where neighbours share the
    true color.
    """
    if size < 1 or size % 2 == 0:
        raise ValueError("mean filter size must be odd and positive")
    k = np.full(size, 1.0 / size)
    return convolve_separable(image, k, k)


def box_blur(image: np.ndarray, size: int) -> np.ndarray:
    """Alias of :func:`mean_filter` with explicit naming for channel code."""
    return mean_filter(image, size)


def gaussian_kernel(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalized 1-D Gaussian kernel; radius defaults to ``ceil(3 sigma)``."""
    if sigma <= 0:
        return np.array([1.0])
    if radius is None:
        radius = max(1, int(np.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def _differing_window(image: np.ndarray) -> tuple[slice, slice] | None:
    """Bounding box of the pixels that differ from pixel ``(0, 0)``.

    ``None`` when the whole image equals that pixel.  One compare pass
    over flat ``(H, W * C)`` rows against the pixel tiled along a row;
    when the three other corners all differ, the box is the whole image
    and the pass is skipped (noisy images never have a constant border).
    """
    height, width = image.shape[:2]
    corner = image[0, 0]
    if height > 1 and width > 1 and all(
        np.any(image[y, x] != corner) for y, x in ((0, -1), (-1, 0), (-1, -1))
    ):
        return slice(0, height), slice(0, width)
    flat = np.ascontiguousarray(image).reshape(height, -1)
    differs = flat != np.tile(np.ravel(corner), width)
    rows = np.flatnonzero(differs.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(differs.any(axis=0).reshape(width, -1).any(axis=1))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def _on_constant_border(
    image: np.ndarray, radius: int, blur: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``blur(image)`` computed only where the image is not constant.

    *blur* is a shift-invariant filter reaching at most *radius* pixels
    along each axis, with reflect or edge-clamp padding.  It runs on the
    box of pixels differing from pixel ``(0, 0)`` grown by ``2 * radius``
    (clipped to the image); every other pixel gets the blur of that
    constant, computed on a ``(2r+1)``-square patch.  Both are exact:
    padding at a window side inside the image reads pixels at least
    ``radius`` away from the box, which hold the constant just as the
    pixels beyond that side do, and a pixel outside the grown box sees
    only the constant, accumulated tap by tap in the same order as in
    the patch.
    """
    box = _differing_window(image)
    height, width = image.shape[:2]
    if box is not None:
        rows, cols = box
        y0, y1 = max(rows.start - 2 * radius, 0), min(rows.stop + 2 * radius, height)
        x0, x1 = max(cols.start - 2 * radius, 0), min(cols.stop + 2 * radius, width)
        if (y0, y1, x0, x1) == (0, height, 0, width):
            return blur(image)
    side = 2 * radius + 1
    patch = np.broadcast_to(image[0, 0], (side, side) + image.shape[2:])
    constant = np.ravel(blur(patch)[radius, radius])
    out = np.empty(image.shape, dtype=constant.dtype)
    rows_2d = out.reshape(height, -1)
    band = np.tile(constant, width)
    if box is None:
        rows_2d[:] = band
        return out
    channels = constant.size
    rows_2d[:y0] = band
    rows_2d[y1:] = band
    rows_2d[y0:y1, : x0 * channels] = band[: x0 * channels]
    rows_2d[y0:y1, x1 * channels :] = band[x1 * channels :]
    out[y0:y1, x0:x1] = blur(image[y0:y1, x0:x1])
    return out


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Isotropic Gaussian blur; models defocus growing with distance.

    Only the box of pixels differing from pixel ``(0, 0)`` (plus a
    margin) is convolved; the constant rest — the background fill
    around a projected screen — gets the blur of that constant, the
    same values a full-frame convolution gives.
    """
    if sigma <= 0:
        return float_image(image).copy()
    k = gaussian_kernel(sigma)
    return _on_constant_border(
        float_image(image), k.size // 2, lambda part: convolve_separable(part, k, k)
    )


def _clamped_shift(size: int, shift: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """``(destination, source)`` slice pairs of an edge-clamped shift along one axis.

    Output index ``i`` reads input ``clip(i - shift, 0, size - 1)``: the
    first pair is the shifted body, the second the border band that
    repeats the edge sample (its one-element source slice broadcasts).
    """
    s = min(abs(shift), size)
    if shift >= 0:
        return (slice(s, size), slice(0, size - s)), (slice(0, s), slice(0, 1))
    return (slice(0, size - s), slice(s, size)), (slice(size - s, size), slice(size - 1, size))


def motion_blur(image: np.ndarray, length: float, angle_deg: float = 0.0) -> np.ndarray:
    """Linear motion blur of *length* pixels along *angle_deg*.

    Models hand shake during exposure.  Implemented as the average of
    copies shifted by the nearest integer offsets along the blur line,
    which is accurate enough for blur lengths of a few pixels, the regime
    the paper operates in.  Shifts clamp at the image border (the edge
    row or column repeats) rather than wrapping around, and every tap
    accumulates straight from slices of *image* into one buffer.  As in
    :func:`gaussian_blur`, only the non-constant box (plus a margin) is
    accumulated.
    """
    image = float_image(image)
    if length <= 0:
        return image.copy()
    steps = max(2, int(np.ceil(length)) + 1)
    theta = np.deg2rad(angle_deg)
    shifts = [
        (int(np.round(off * np.sin(theta))), int(np.round(off * np.cos(theta))))
        for off in np.linspace(-length / 2.0, length / 2.0, steps)
    ]

    def accumulate(part: np.ndarray) -> np.ndarray:
        height, width = part.shape[:2]
        acc = np.zeros(part.shape, dtype=part.dtype)
        for dy, dx in shifts:
            for dst_r, src_r in _clamped_shift(height, dy):
                for dst_c, src_c in _clamped_shift(width, dx):
                    acc[dst_r, dst_c] += part[src_r, src_c]
        acc /= steps
        return acc

    radius = max(max(abs(dy), abs(dx)) for dy, dx in shifts)
    return _on_constant_border(image, radius, accumulate)
