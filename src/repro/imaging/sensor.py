"""Camera color-pipeline effects: the degradations between photons and
the frames a decoder actually reads.

The paper's receiver records the barcode stream as *video* and decodes
the recorded frames (the "buffered decoding mode", Section IV).  Between
the sensor and that video sit a Bayer demosaic and 4:2:0 chroma
subsampling — both smear **color** (not luma) across ~2 pixels, which is
precisely what limits small color blocks in practice.  A white-balance
error adds a global channel-gain tilt.

These operate in YCbCr space (BT.601), reusing the luma weights of
:func:`repro.imaging.color.luminance`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .color import float_image
from .filters import gaussian_blur

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = [
    "rgb_to_ycbcr",
    "ycbcr_to_rgb",
    "chroma_subsample",
    "white_balance_shift",
    "quantize_8bit",
    "CameraPipeline",
]

_KR, _KG, _KB = 0.299, 0.587, 0.114


def _luma(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _KR * r + _KG * g + _KB * b


def _planes(image: np.ndarray) -> np.ndarray:
    """Contiguous ``(C, H, W)`` channel planes of an ``(H, W, C)`` image."""
    out = np.empty(image.shape[-1:] + image.shape[:-1], dtype=image.dtype)
    for c, plane in enumerate(out):
        plane[...] = image[..., c]
    return out


def _interleave(planes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_planes`: a C-contiguous ``(H, W, C)`` image."""
    out = np.empty(planes.shape[1:] + planes.shape[:1], dtype=planes.dtype)
    for c, plane in enumerate(planes):
        out[..., c] = plane
    return out


def _chroma(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cb and Cr of RGB planes."""
    y = _luma(r, g, b)
    return (b - y) / (2.0 * (1.0 - _KB)), (r - y) / (2.0 * (1.0 - _KR))


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """BT.601 full-range RGB -> YCbCr (Y in [0,1], Cb/Cr in [-0.5, 0.5])."""
    rgb = float_image(rgb)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    out = np.empty(rgb.shape[:-1] + (3,), dtype=rgb.dtype)
    out[..., 0] = _luma(r, g, b)
    out[..., 1], out[..., 2] = _chroma(r, g, b)
    return out


def _to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Clipped ``(3, ...)`` RGB planes from luma and chroma planes of one shape."""
    out = np.empty((3,) + y.shape, dtype=y.dtype)
    r, g, b = out
    np.multiply(cr, 2.0 * (1.0 - _KR), out=r)
    r += y
    np.multiply(cb, 2.0 * (1.0 - _KB), out=b)
    b += y
    np.multiply(r, -_KR / _KG, out=g)
    g += y * (1.0 / _KG)
    g -= b * (_KB / _KG)
    return np.clip(out, 0.0, 1.0, out=out)


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr` (exact up to rounding)."""
    ycc = float_image(ycc)
    return _interleave(_to_rgb(ycc[..., 0], ycc[..., 1], ycc[..., 2]))


def _box_decimate(planes: np.ndarray, factor: int) -> np.ndarray:
    """Mean over each ``factor x factor`` tile of the last two axes.

    Trailing partial tiles are dropped.
    """
    height, width = planes.shape[-2:]
    h2, w2 = height // factor * factor, width // factor * factor
    out = planes[..., 0:h2:factor, 0:w2:factor].copy()
    for dy in range(factor):
        for dx in range(factor):
            if dy or dx:
                out += planes[..., dy:h2:factor, dx:w2:factor]
    out *= 1.0 / (factor * factor)
    return out


def _subsample_planes(planes: np.ndarray, factor: int, chroma_blur: float) -> np.ndarray:
    """:func:`chroma_subsample` on ``(3, H, W)`` RGB planes, returning planes.

    Every step reads and writes whole contiguous planes, so no NumPy
    inner loop runs over a trailing axis of three channels.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    y = _luma(*planes)
    if factor == 1:
        cb, cr = _chroma(*planes)
        if chroma_blur > 0:
            cb, cr = gaussian_blur(cb, chroma_blur), gaussian_blur(cr, chroma_blur)
        return _to_rgb(y, cb, cr)
    # Box-average decimation (the anti-alias filter), then any extra
    # blur on the *small* planes where it is `factor^2` times cheaper.
    cb, cr = _chroma(*_box_decimate(planes, factor))
    if chroma_blur > 0:
        cb, cr = gaussian_blur(cb, chroma_blur / factor), gaussian_blur(cr, chroma_blur / factor)
    cb, cr = _bilinear_upsample(np.stack([cb, cr]), y.shape, factor)
    return _to_rgb(y, cb, cr)


def chroma_subsample(image: np.ndarray, factor: int = 2, chroma_blur: float = 0.7) -> np.ndarray:
    """4:2:0-style chroma subsampling: blur + down/upsample Cb and Cr.

    Luma passes through untouched; chroma is low-passed, decimated by
    *factor* and bilinearly restored — the same information loss a
    recorded H.264 stream (or a Bayer demosaic) imposes on block colors.

    Cb and Cr are linear in RGB and the full-resolution chroma planes are
    only ever box-averaged, so chroma is computed from the box-decimated
    RGB image (exact up to rounding): luma is the only full-resolution
    conversion.  The result keeps *image*'s float dtype.
    """
    planes = _planes(float_image(image))
    return _interleave(_subsample_planes(planes, factor, chroma_blur))


@lru_cache(maxsize=16)
def _upsample_fractions(full: int, small: int, factor: int, dtype: str) -> np.ndarray:
    """Blend fraction of each of *full* output positions along one axis.

    Full pixel p maps to small coordinate ``(p - (factor-1)/2) / factor``
    (a decimated sample i covers pixels ``[i*factor, (i+1)*factor)`` and
    is centered at ``i*factor + (factor-1)/2``), clamped to the small
    grid so edges replicate; the fraction is that coordinate minus its
    floor, cast to *dtype*.  The array is shared: it is read-only.
    """
    offset = (factor - 1) / 2.0
    coords = np.clip((np.arange(full, dtype=np.float64) - offset) / factor, 0.0, small - 1.0)
    frac = np.clip(coords - np.floor(coords), 0.0, 1.0).astype(dtype)
    frac.setflags(write=False)
    return frac


def _upsample_axis(small: np.ndarray, axis: int, full: int, factor: int) -> np.ndarray:
    """Bilinearly restore *small* to *full* samples along *axis*.

    A sliced stencil: output positions ``r, r + factor, r + 2*factor,
    ...`` have consecutive lower neighbours starting at
    ``floor((r - (factor-1)/2) / factor)``, so each residue class
    blends ``lower + (upper - lower) * fraction`` over two slices instead
    of gathered copies.  Positions whose coordinate clamps read an
    edge-replicated pad (one sample before, two after), where
    ``upper == lower`` and the blend returns the edge sample, as the
    clamped coordinate does.
    """
    frac = _upsample_fractions(full, small.shape[axis], factor, small.dtype.str)
    pad = [(0, 0)] * small.ndim
    pad[axis] = (1, 2)
    padded = np.pad(small, pad, mode="edge")
    shape = list(small.shape)
    shape[axis] = full
    out = np.empty(shape, dtype=small.dtype)
    lead = (slice(None),) * axis
    trail = (1,) * (small.ndim - 1 - axis)
    offset = (factor - 1) / 2.0
    for r in range(min(factor, full)):
        count = len(range(r, full, factor))
        lo = math.floor((r - offset) / factor) + 1  # +1 skips the leading pad
        lower = padded[lead + (slice(lo, lo + count),)]
        step = np.subtract(padded[lead + (slice(lo + 1, lo + 1 + count),)], lower)
        step *= frac[r::factor].reshape((count,) + trail)
        np.add(lower, step, out=out[lead + (slice(r, full, factor),)])
    return out


def _bilinear_upsample(small: np.ndarray, shape: tuple[int, int], factor: int) -> np.ndarray:
    """Restore decimated planes ``(..., h, w)`` to ``(..., *shape)`` bilinearly.

    Separable: rows blend first at the small width, then columns, in
    *small*'s dtype (see :func:`_upsample_axis`).
    """
    rows = _upsample_axis(small, small.ndim - 2, shape[0], factor)
    return _upsample_axis(rows, small.ndim - 1, shape[1], factor)


def white_balance_shift(image: np.ndarray, gains: tuple[float, float, float]) -> np.ndarray:
    """Per-channel gain error (auto-white-balance mis-estimation).

    The gains are tiled along each flat ``W * 3`` row, so the multiply's
    inner loop runs over whole rows rather than over three channels.
    """
    image = np.ascontiguousarray(float_image(image))
    height, width = image.shape[:2]
    row = np.tile(np.asarray(gains, dtype=image.dtype), width)
    out = np.multiply(image.reshape(height, -1), row).reshape(image.shape)
    return np.clip(out, 0.0, 1.0, out=out)


def _levels(image: np.ndarray) -> np.ndarray:
    """uint8 levels ``rint(clip(image * 255, 0, 255))``, same shape."""
    scaled = float_image(image) * 255.0
    np.clip(scaled, 0.0, 255.0, out=scaled)
    levels = np.empty(scaled.shape, dtype=np.uint8)
    np.rint(scaled, out=levels, casting="unsafe")
    return levels


def quantize_8bit(image: np.ndarray) -> np.ndarray:
    """Round to 8-bit levels — the recorded video's sample depth.

    Rounds to uint8 levels and returns them as float64 ``level / 255.0``
    whatever the input dtype: the same values a uint8 frame normalizes
    to, so the frame round-trips losslessly through uint8 (capture
    traces).
    """
    return np.divide(_levels(image), 255.0, dtype=np.float64)


class CameraPipeline:
    """The color-processing chain applied to every capture.

    Parameters mirror a mid-2010s phone camera recording video:
    ``chroma_factor=2`` (4:2:0), ``chroma_blur`` around 0.7 px, and a
    white-balance gain error of a few percent re-sampled per session.
    The output is always quantized to 8-bit levels (float64 ``k / 255``).
    """

    def __init__(
        self,
        chroma_factor: int = 2,
        chroma_blur: float = 0.7,
        wb_error: float = 0.04,
    ):
        self.chroma_factor = chroma_factor
        self.chroma_blur = chroma_blur
        self.wb_error = wb_error

    def sample_gains(self, rng: np.random.Generator) -> tuple[float, float, float]:
        """Draw this session's white-balance gain error."""
        if self.wb_error <= 0:
            return (1.0, 1.0, 1.0)
        gains = 1.0 + rng.uniform(-self.wb_error, self.wb_error, size=3)
        return (float(gains[0]), float(gains[1]), float(gains[2]))

    def apply(
        self,
        image: np.ndarray,
        gains: tuple[float, float, float],
        faults: "FaultPlan | None" = None,
        capture_index: int = 0,
    ) -> np.ndarray:
        """Run the pipeline on one capture.

        *faults* is the sensor-stage fault hook: its impairments (exposure
        drift, scanline corruption) run on the processed image just
        before quantization, so a faulted capture is still a valid
        8-bit video frame.
        """
        planes = _planes(white_balance_shift(image, gains))
        planes = _subsample_planes(planes, self.chroma_factor, self.chroma_blur)
        if faults is not None:
            out = faults.apply_image("sensor", _interleave(planes), capture_index)
            return quantize_8bit(out)
        # Quantize the planes, then interleave one byte per sample before
        # the float64 cast: the cheapest place to transpose.
        return np.divide(_interleave(_levels(planes)), 255.0, dtype=np.float64)
