"""Environment profiles: illumination, ambient light and sensor noise.

The paper evaluates indoors and outdoors at several screen-brightness
settings.  An :class:`EnvironmentProfile` bundles the photometric
degradations a capture suffers beyond geometry:

* **ambient** — stray light mixed into the scene, washing out contrast
  (dominant outdoors);
* **read_noise_sigma** — additive Gaussian sensor noise;
* **photons_at_white** — shot-noise scale (lower = noisier, the
  dim-screen mechanism of Fig. 10(d)); at least 100, where the Gaussian
  limit of the Poisson count holds;
* **vignette_strength** — radial falloff, the reason T_v sampling spans
  all four quadrants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..imaging.color import float_image
from ..imaging.noise import add_sensor_noise, falloff_mask

__all__ = ["EnvironmentProfile", "MIN_PHOTONS_AT_WHITE", "indoor", "outdoor", "dark_room"]

#: Smallest accepted ``photons_at_white``: the shot-noise model is the
#: Gaussian limit of the Poisson photon count, which needs ~10+ photons
#: in the darkest pixels that matter.
MIN_PHOTONS_AT_WHITE = 100.0


@dataclass(frozen=True)
class EnvironmentProfile:
    """Photometric conditions of one capture session."""

    name: str = "indoor"
    ambient: float = 0.06
    read_noise_sigma: float = 0.015
    photons_at_white: float = 4000.0
    vignette_strength: float = 0.10

    def __post_init__(self) -> None:
        if not self.photons_at_white >= MIN_PHOTONS_AT_WHITE:
            raise ValueError(
                f"photons_at_white must be >= {MIN_PHOTONS_AT_WHITE:g}: below that the "
                "Gaussian shot-noise model no longer approximates Poisson counts"
            )

    def degrade(self, image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Apply the profile's photometric chain to a sensor image.

        Ambient mixing and the vignette falloff ``f`` form one affine map,
        ``signal = image (1 - a) f + a f``; shot and read noise are then
        one draw of variance ``signal / photons_at_white +
        read_noise_sigma**2`` and the result is clipped once
        (:func:`~repro.imaging.noise.add_sensor_noise`).  The image keeps
        its float dtype.
        """
        image = float_image(image)
        ambient = float(np.clip(self.ambient, 0.0, 1.0))
        falloff = falloff_mask(*image.shape[:2], self.vignette_strength, image.dtype)
        gain = falloff * (1.0 - ambient)
        offset = falloff * ambient
        if image.ndim == 3:
            gain, offset = gain[..., np.newaxis], offset[..., np.newaxis]
        signal = image * gain
        signal += offset
        return add_sensor_noise(signal, self.photons_at_white, self.read_noise_sigma, rng)

    def with_ambient(self, ambient: float) -> "EnvironmentProfile":
        """Copy with a different ambient level (brightness sweeps)."""
        return replace(self, ambient=ambient)


def indoor() -> EnvironmentProfile:
    """Office lighting — the paper's default working condition."""
    return EnvironmentProfile(name="indoor")


def outdoor() -> EnvironmentProfile:
    """Daylight: strong ambient wash and more shot noise on the screen.

    The paper observes "the error rate is much higher when the images
    are taken at outdoor environments".
    """
    return EnvironmentProfile(
        name="outdoor",
        ambient=0.35,
        read_noise_sigma=0.02,
        photons_at_white=2500.0,
        vignette_strength=0.12,
    )


def dark_room() -> EnvironmentProfile:
    """No ambient light; only sensor noise remains."""
    return EnvironmentProfile(
        name="dark_room",
        ambient=0.0,
        read_noise_sigma=0.012,
        photons_at_white=5000.0,
        vignette_strength=0.08,
    )
