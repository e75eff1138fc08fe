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

import numpy as np

from .color import float_image

__all__ = [
    "convolve_separable",
    "mean_filter",
    "gaussian_kernel",
    "gaussian_blur",
    "motion_blur",
    "box_blur",
]


def _convolve_axis(image: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """1-D convolution along *axis* with reflect padding, in *image*'s dtype."""
    kernel = np.asarray(kernel, dtype=image.dtype)
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError("kernel must be 1-D with odd length")
    pad = kernel.size // 2
    pad_spec = [(0, 0)] * image.ndim
    pad_spec[axis] = (pad, pad)
    padded = np.pad(image, pad_spec, mode="reflect")

    # Accumulate through one reused scratch buffer: `slice * weight`
    # then `out += scratch` is the same arithmetic as
    # `out += weight * slice` without a fresh temporary per tap.  The
    # first tap writes `out` directly, the same values as adding it to
    # zeros.
    def tap(offset: int) -> np.ndarray:
        sl = [slice(None)] * image.ndim
        sl[axis] = slice(offset, offset + image.shape[axis])
        return padded[tuple(sl)]

    out = np.multiply(tap(0), kernel[0])
    scratch = np.empty_like(out)
    for offset in range(1, kernel.size):
        np.multiply(tap(offset), kernel[offset], out=scratch)
        out += scratch
    return out


def convolve_separable(image: np.ndarray, ky: np.ndarray, kx: np.ndarray) -> np.ndarray:
    """Convolve *image* with the separable kernel ``outer(ky, kx)``.

    Works on 2-D intensity images and ``(H, W, C)`` color images (each
    channel filtered independently).
    """
    image = float_image(image)
    out = _convolve_axis(image, np.asarray(ky), axis=0)
    return _convolve_axis(out, np.asarray(kx), axis=1)


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


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Isotropic Gaussian blur; models defocus growing with distance."""
    if sigma <= 0:
        return float_image(image).copy()
    k = gaussian_kernel(sigma)
    return convolve_separable(image, k, k)


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
    accumulates straight from slices of *image* into one buffer.
    """
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
        rows = _clamped_shift(height, int(np.round(dy)))
        cols = _clamped_shift(width, int(np.round(dx)))
        for dst_r, src_r in rows:
            for dst_c, src_c in cols:
                acc[dst_r, dst_c] += image[src_r, src_c]
    acc /= steps
    return acc
