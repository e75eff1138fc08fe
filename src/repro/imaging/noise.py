"""Sensor and environment noise models.

The channel simulator degrades rendered frames with the photometric
effects the paper's evaluation sweeps: sensor noise (photon shot noise
plus read noise), ambient light (indoor vs outdoor), and
illumination/brightness scaling.  All generators take an explicit
:class:`numpy.random.Generator` so experiments are reproducible, and
every function keeps a float input's dtype.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import DTypeLike

from .color import float_image

__all__ = [
    "add_sensor_noise",
    "add_ambient_light",
    "scale_brightness",
    "falloff_mask",
    "vignette",
]


def add_sensor_noise(
    image: np.ndarray,
    photons_at_white: float,
    read_sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Signal-dependent Gaussian sensor noise, clipped to ``[0, 1]``.

    Shot noise (Poisson with *photons_at_white* photons at full scale,
    in its Gaussian limit) and additive read noise of std *read_sigma*
    are independent, so their variances add: a pixel at level ``x``
    gets one normal draw of variance ``x / photons_at_white +
    read_sigma**2``.  Lower photon counts (dim screens, short exposures)
    give relatively noisier images — the mechanism behind the brightness
    sweep in Fig. 10(d).  ``photons_at_white=np.inf`` leaves only read
    noise; with ``read_sigma=0`` as well the image is returned unchanged
    (as a copy) and *rng* is not drawn from.
    """
    if not photons_at_white > 0:
        raise ValueError("photons_at_white must be positive (np.inf disables shot noise)")
    if read_sigma < 0:
        raise ValueError("read_sigma cannot be negative")
    image = float_image(image)
    if np.isinf(photons_at_white) and read_sigma == 0:
        return image.copy()
    std = np.clip(image, 0.0, 1.0)
    std *= 1.0 / float(photons_at_white)
    std += float(read_sigma) ** 2
    np.sqrt(std, out=std)
    out = rng.standard_normal(image.shape, dtype=image.dtype)
    out *= std
    out += image
    return np.clip(out, 0.0, 1.0, out=out)


def add_ambient_light(image: np.ndarray, ambient: float) -> np.ndarray:
    """Mix ambient light into the scene: ``out = image (1 - a) + a``.

    Outdoor captures wash toward white, compressing contrast — the paper
    notes outdoor error rates are much higher than indoor ones.
    """
    image = float_image(image)
    ambient = float(np.clip(ambient, 0.0, 1.0))
    out = image * (1.0 - ambient)
    out += ambient
    return out


def scale_brightness(image: np.ndarray, factor: float) -> np.ndarray:
    """Scale intensities by *factor* (the screen-brightness setting s_b)."""
    out = float_image(image) * factor
    return np.clip(out, 0.0, 1.0, out=out)


#: Radial falloff masks keyed by (height, width, strength, dtype); the
#: mask depends only on geometry, so each capture shape computes it once.
_FALLOFF_CACHE: dict[tuple[int, int, float, str], np.ndarray] = {}


def falloff_mask(
    height: int, width: int, strength: float, dtype: DTypeLike = np.float64
) -> np.ndarray:
    """The ``(height, width)`` radial illumination falloff of :func:`vignette`.

    ``1`` at the center, ``1 - strength`` at the corners.  Cached per
    geometry and dtype; the returned array is shared, do not mutate it.
    """
    key = (height, width, float(strength), np.dtype(dtype).str)
    mask = _FALLOFF_CACHE.get(key)
    if mask is None:
        ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
        cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
        r = np.sqrt(((xs - cx) / max(cx, 1)) ** 2 + ((ys - cy) / max(cy, 1)) ** 2)
        mask = (1.0 - strength * np.clip(r / np.sqrt(2.0), 0.0, 1.0) ** 2).astype(dtype)
        if len(_FALLOFF_CACHE) > 16:
            _FALLOFF_CACHE.clear()
        _FALLOFF_CACHE[key] = mask
    return mask


def vignette(image: np.ndarray, strength: float = 0.2) -> np.ndarray:
    """Radial illumination falloff toward image corners.

    Models the non-uniform brightness across a captured screen, which is
    why the paper estimates T_v from samples spread over four quadrants.
    """
    image = float_image(image)
    height, width = image.shape[:2]
    falloff = falloff_mask(height, width, strength, image.dtype)
    if image.ndim == 3:
        falloff = falloff[..., np.newaxis]
    out = image * falloff
    return np.clip(out, 0.0, 1.0, out=out)
