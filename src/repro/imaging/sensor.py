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


def _luma(rgb: np.ndarray) -> np.ndarray:
    return _KR * rgb[..., 0] + _KG * rgb[..., 1] + _KB * rgb[..., 2]


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """BT.601 full-range RGB -> YCbCr (Y in [0,1], Cb/Cr in [-0.5, 0.5])."""
    rgb = float_image(rgb)
    y = _luma(rgb)
    out = np.empty(rgb.shape[:-1] + (3,), dtype=rgb.dtype)
    out[..., 0] = y
    out[..., 1] = (rgb[..., 2] - y) / (2.0 * (1.0 - _KB))
    out[..., 2] = (rgb[..., 0] - y) / (2.0 * (1.0 - _KR))
    return out


def _to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Clipped RGB from luma and chroma planes of one shape."""
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


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr` (exact up to rounding)."""
    ycc = float_image(ycc)
    return _to_rgb(ycc[..., 0], ycc[..., 1], ycc[..., 2])


def _box_decimate(image: np.ndarray, factor: int) -> np.ndarray:
    """Mean over each ``factor x factor`` tile (trailing partial tiles dropped)."""
    height, width = image.shape[:2]
    h2, w2 = height // factor * factor, width // factor * factor
    out = image[0:h2:factor, 0:w2:factor].copy()
    for dy in range(factor):
        for dx in range(factor):
            if dy or dx:
                out += image[dy:h2:factor, dx:w2:factor]
    out *= 1.0 / (factor * factor)
    return out


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
    if factor < 1:
        raise ValueError("factor must be >= 1")
    image = float_image(image)
    y = _luma(image)
    if factor > 1:
        # Box-average decimation (the anti-alias filter), then any extra
        # blur on the *small* plane where it is `factor^2` times cheaper.
        chroma = rgb_to_ycbcr(_box_decimate(image, factor))[..., 1:]
        if chroma_blur > 0:
            chroma = gaussian_blur(chroma, chroma_blur / factor)
        chroma = _bilinear_upsample(chroma, image.shape[:2], factor)
    else:
        chroma = rgb_to_ycbcr(image)[..., 1:]
        if chroma_blur > 0:
            chroma = gaussian_blur(chroma, chroma_blur)
    return _to_rgb(y, chroma[..., 0], chroma[..., 1])


#: 1-D upsample coordinates keyed by (full shape, small shape, factor).
#: The mapping is fixed for a given geometry, so the floor/clip/fraction
#: work runs once per image size instead of once per capture.
_UPSAMPLE_COORD_CACHE: dict[tuple[int, int, int, int, int], tuple] = {}


def _upsample_axis_coords(full: int, small: int, factor: int) -> tuple:
    """Lower/upper source indices and blend fraction along one axis."""
    offset = (factor - 1) / 2.0
    coords = np.clip((np.arange(full, dtype=np.float64) - offset) / factor, 0.0, small - 1.0)
    i0 = np.clip(np.floor(coords), 0, small - 1).astype(np.int64)
    i1 = np.clip(i0 + 1, 0, small - 1)
    frac = np.clip(coords - i0, 0.0, 1.0)
    return i0, i1, frac


def _bilinear_upsample(small: np.ndarray, shape: tuple[int, int], factor: int) -> np.ndarray:
    """Restore a decimated plane to *shape* with bilinear interpolation.

    A decimated sample i covers full-resolution pixels
    ``[i*factor, (i+1)*factor)`` and is centered at
    ``i*factor + (factor-1)/2``, so full pixel p maps to small
    coordinate ``(p - (factor-1)/2) / factor``.  Coordinates clamp to
    the small grid so edges replicate instead of reading fill values.

    The map is separable (x depends only on the column, y only on the
    row), so the interpolation runs on broadcast 1-D coordinate vectors
    rather than full H x W grids: rows blend first at the small width,
    then columns, in *small*'s dtype.
    """
    height, width = shape
    sh, sw = small.shape[:2]
    key = (height, width, sh, sw, factor)
    cached = _UPSAMPLE_COORD_CACHE.get(key)
    if cached is None:
        cached = _upsample_axis_coords(height, sh, factor) + _upsample_axis_coords(
            width, sw, factor
        )
        if len(_UPSAMPLE_COORD_CACHE) > 16:
            _UPSAMPLE_COORD_CACHE.clear()
        _UPSAMPLE_COORD_CACHE[key] = cached
    y0, y1, fy, x0, x1, fx = cached
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


def white_balance_shift(image: np.ndarray, gains: tuple[float, float, float]) -> np.ndarray:
    """Per-channel gain error (auto-white-balance mis-estimation)."""
    image = float_image(image)
    out = image * np.asarray(gains, dtype=image.dtype)
    return np.clip(out, 0.0, 1.0, out=out)


def quantize_8bit(image: np.ndarray) -> np.ndarray:
    """Round to 8-bit levels — the recorded video's sample depth.

    Rounds to uint8 levels and returns them as float64 ``level / 255.0``
    whatever the input dtype: the same values a uint8 frame normalizes
    to, so the frame round-trips losslessly through uint8 (capture
    traces).
    """
    scaled = float_image(image) * 255.0
    np.clip(scaled, 0.0, 255.0, out=scaled)
    levels = np.empty(scaled.shape, dtype=np.uint8)
    np.rint(scaled, out=levels, casting="unsafe")
    out = levels.astype(np.float64)
    out /= 255.0
    return out


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
        out = white_balance_shift(image, gains)
        out = chroma_subsample(out, self.chroma_factor, self.chroma_blur)
        if faults is not None:
            out = faults.apply_image("sensor", out, capture_index)
        return quantize_8bit(out)
