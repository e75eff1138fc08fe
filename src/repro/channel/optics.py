"""Lens optics: defocus and radial distortion.

Complements the pinhole projection of
:class:`repro.imaging.geometry.PinholeSetup` with the two lens effects
the paper's challenge list calls out: blur that grows as the screen
leaves the focus plane (the distance sweep of Fig. 10(a)) and radial
distortion that bends straight block rows into arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .. import telemetry
from ..imaging.color import float_image
from ..imaging.filters import gaussian_blur
from ..imaging.interpolation import sample_bilinear

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

__all__ = ["LensModel", "apply_radial_distortion"]


def apply_radial_distortion(image: np.ndarray, k1: float, k2: float = 0.0) -> np.ndarray:
    """Warp *image* by the radial model ``r' = r (1 + k1 r^2 + k2 r^4)``.

    Positive ``k1`` gives barrel distortion.  Implemented by inverse
    mapping: each output pixel samples the input at its *distorted*
    radius, so the operation matches what a real lens does to the scene.
    Returns a new array in *image*'s float dtype (a copy when
    ``k1 == k2 == 0``).
    """
    image = float_image(image)
    if k1 == 0.0 and k2 == 0.0:
        return image.copy()
    height, width = image.shape[:2]
    cx, cy = (width - 1) / 2.0, (height - 1) / 2.0
    norm = np.hypot(cx, cy)

    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    rel_x, rel_y = xs - cx, ys - cy
    rn2 = (rel_x**2 + rel_y**2) / norm**2
    factor = 1.0 + k1 * rn2 + k2 * rn2**2
    out = sample_bilinear(image, cx + rel_x * factor, cy + rel_y * factor, fill=0.0)
    return out.astype(image.dtype, copy=False)


@dataclass(frozen=True)
class LensModel:
    """Defocus and distortion parameters of the receiver's camera lens."""

    focus_distance_cm: float = 12.0
    base_blur_px: float = 0.6
    defocus_per_cm: float = 0.05
    k1: float = 0.0  # radial distortion; ~0 on phone main lenses
    k2: float = 0.0

    def blur_sigma(self, distance_cm: float) -> float:
        """Gaussian blur sigma at *distance_cm* from the screen."""
        defocus = abs(distance_cm - self.focus_distance_cm) * self.defocus_per_cm
        return self.base_blur_px + defocus

    def apply(
        self,
        image: np.ndarray,
        distance_cm: float,
        faults: "FaultPlan | None" = None,
        capture_index: int = 0,
    ) -> np.ndarray:
        """Blur then distort *image* as this lens would.

        *faults* is the optics-stage fault hook: ``pre_optics``
        impairments (e.g. a finger in front of the lens) run before the
        defocus blur — so they are blurred like any out-of-focus
        occluder — and ``post_optics`` impairments (e.g. specular
        glare forming on the lens stack) run after it.
        """
        with telemetry.span("channel.optics"):
            if faults is not None:
                image = faults.apply_image("pre_optics", image, capture_index)
            out = gaussian_blur(image, self.blur_sigma(distance_cm))
            if self.k1 != 0.0 or self.k2 != 0.0:
                out = apply_radial_distortion(out, self.k1, self.k2)
            if faults is not None:
                out = faults.apply_image("post_optics", out, capture_index)
            return out
