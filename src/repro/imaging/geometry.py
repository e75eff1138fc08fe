"""Projective geometry for the screen-camera channel.

The captured images in the paper suffer perspective distortion (non-zero
view angle), scale change (distance) and radial lens distortion
(Section II).  This module provides:

* homography estimation from point correspondences (DLT),
* homography application and perspective warping of whole images,
* a pinhole model that derives the screen-to-sensor homography from the
  physical setup (distance ``d``, view angle ``v_a``, focal length), and
* radial lens distortion / undistortion.

All of it is plain NumPy linear algebra; no computer-vision library is
used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .color import float_image

__all__ = [
    "estimate_homography",
    "apply_homography",
    "warp_perspective",
    "radial_distort_points",
    "radial_undistort_points",
    "PinholeSetup",
]


def estimate_homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Estimate the 3x3 homography mapping *src* points to *dst* points.

    Uses the normalized direct linear transform.  At least four
    correspondences are required; with more, the least-squares solution is
    returned.  Points are ``(N, 2)`` arrays of ``(x, y)``.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 2:
        raise ValueError("src and dst must both be (N, 2) arrays")
    if src.shape[0] < 4:
        raise ValueError("homography estimation needs at least 4 point pairs")

    def normalise(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        centroid = points.mean(axis=0)
        scale = np.sqrt(2.0) / max(np.mean(np.linalg.norm(points - centroid, axis=1)), 1e-12)
        transform = np.array(
            [
                [scale, 0.0, -scale * centroid[0]],
                [0.0, scale, -scale * centroid[1]],
                [0.0, 0.0, 1.0],
            ]
        )
        homog = np.column_stack([points, np.ones(len(points))])
        return (transform @ homog.T).T[:, :2], transform

    src_n, t_src = normalise(src)
    dst_n, t_dst = normalise(dst)

    rows = []
    for (x, y), (u, v) in zip(src_n, dst_n):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    a = np.asarray(rows)
    __, __, vt = np.linalg.svd(a)
    h_n = vt[-1].reshape(3, 3)

    h = np.linalg.inv(t_dst) @ h_n @ t_src
    if abs(h[2, 2]) < 1e-12:
        raise np.linalg.LinAlgError("degenerate homography (h33 ~ 0)")
    return h / h[2, 2]


def apply_homography(h: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Map ``(N, 2)`` points (or a single ``(2,)`` point) through *h*."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    homog = np.column_stack([pts, np.ones(len(pts))])
    mapped = (np.asarray(h, dtype=np.float64) @ homog.T).T
    w = mapped[:, 2:3]
    if np.any(np.abs(w) < 1e-12):
        raise ValueError("point maps to infinity under homography")
    out = mapped[:, :2] / w
    if np.asarray(points).ndim == 1:
        return out[0]
    return out


def warp_perspective(
    image: np.ndarray,
    h: np.ndarray,
    output_shape: tuple[int, int],
    fill: float = 0.0,
) -> np.ndarray:
    """Warp *image* by homography *h* into an output of ``(height, width)``.

    *h* maps **source** coordinates to **destination** coordinates; the
    warp inverse-maps each destination pixel and samples bilinearly,
    which is the standard artifact-free direction.  Destination pixels
    whose source point lies outside the image get *fill*.  The output
    keeps *image*'s float dtype; the source must be at least 2 x 2.
    """
    height, width = output_shape
    src = np.ascontiguousarray(float_image(image))
    src_h, src_w = int(src.shape[0]), int(src.shape[1])
    if src_h < 2 or src_w < 2:
        raise ValueError("warp_perspective needs a source of at least 2 x 2 pixels")
    h_arr = np.ascontiguousarray(h, dtype=np.float64)
    key = (h_arr.tobytes(), height, width, src_h, src_w)
    coords = _WARP_COORD_CACHE.get(key)
    if coords is None:
        coords = _warp_coords(h_arr, height, width, src_h, src_w)
        if len(_WARP_COORD_CACHE) >= _WARP_COORD_ENTRIES:
            _WARP_COORD_CACHE.clear()
        _WARP_COORD_CACHE[key] = coords
    (rows, cols), index, fx, fy, outside = coords

    out = np.full((height, width) + src.shape[2:], fill, dtype=src.dtype)
    if index.size == 0:
        return out
    # The four neighbours of source pixel ``index`` are ``index``,
    # ``index + 1``, ``index + src_w`` and ``index + src_w + 1``: gather
    # them with one index array from shifted views of the flat image.
    # The gathered rows hold one pixel's channels, so the blend fractions
    # are repeated per channel first: the blends then run over whole
    # contiguous arrays rather than broadcasting over rows of three.
    flat = src.reshape(src_h * src_w, -1)
    if flat.shape[1] > 1:
        fx = np.repeat(fx, flat.shape[1], axis=1)
        fy = np.repeat(fy, flat.shape[1], axis=1)
    top = flat.take(index, axis=0)
    step = flat[1:].take(index, axis=0)
    step -= top
    step *= fx
    top += step
    bottom = flat[src_w:].take(index, axis=0)
    step = flat[src_w + 1 :].take(index, axis=0)
    step -= bottom
    step *= fx
    bottom += step
    bottom -= top
    bottom *= fy
    top += bottom
    top[outside] = fill
    out[rows, cols] = top.reshape(out[rows, cols].shape)
    return out


def _warp_window(
    h: np.ndarray, height: int, width: int, src_h: int, src_w: int
) -> tuple[slice, slice]:
    """Destination rows and columns that can sample inside the source.

    When the source rectangle lies wholly in front of the camera (the
    homogeneous ``w`` of all four corners is positive, hence of the whole
    rectangle), its image is the convex quadrilateral of the mapped
    corners, and every destination pixel outside that quadrilateral's
    bounding box is fill.  Otherwise the window is the whole output.
    """
    corners = np.array(
        [[0.0, 0.0, 1.0], [src_w - 1.0, 0.0, 1.0],
         [src_w - 1.0, src_h - 1.0, 1.0], [0.0, src_h - 1.0, 1.0]]
    ) @ h.T
    w = corners[:, 2]
    if not np.all(w > 0):
        return slice(0, height), slice(0, width)
    xs, ys = corners[:, 0] / w, corners[:, 1] / w
    x_lo = min(max(int(np.floor(xs.min())) - 1, 0), width)
    x_hi = max(min(int(np.ceil(xs.max())) + 2, width), x_lo)
    y_lo = min(max(int(np.floor(ys.min())) - 1, 0), height)
    y_hi = max(min(int(np.ceil(ys.max())) + 2, height), y_lo)
    return slice(y_lo, y_hi), slice(x_lo, x_hi)


#: ``((rows, cols), index, fx, fy, outside)`` — see :func:`_warp_coords`.
_WarpCoords = Tuple[Tuple[slice, slice], np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _warp_coords(h: np.ndarray, height: int, width: int, src_h: int, src_w: int) -> _WarpCoords:
    """Bilinear gather terms of the inverse-mapped destination grid.

    Returns ``((rows, cols), index, fx, fy, outside)``: the destination
    window (:func:`_warp_window`); for each window pixel, in row-major
    order, the flat index of its top-left source neighbour and the
    float32 column and row blend fractions, shaped ``(n, 1)``; and the
    window-pixel indices that sample outside the source.
    The projective map is evaluated in float64 by broadcasting a row of
    column terms against a column of row terms.  Neighbour indices clamp
    to ``src - 2`` so the right and bottom neighbours always exist; a
    point on the last column or row then blends with fraction 1, which
    reads that edge sample exactly.
    """
    rows, cols = _warp_window(h, height, width, src_h, src_w)
    (a, b, c), (d, e, f), (g, k, m) = np.linalg.inv(h)
    xs = np.arange(cols.start, cols.stop, dtype=np.float64)
    ys = np.arange(rows.start, rows.stop, dtype=np.float64)[:, np.newaxis]
    w = g * xs + (k * ys + m)
    with np.errstate(divide="ignore", invalid="ignore"):
        mx = a * xs + (b * ys + c)
        mx /= w
        my = d * xs + (e * ys + f)
        my /= w
    # Clamp into the source rectangle; a point is inside when clamping
    # left it unchanged.  fmax/fmin map NaN (degenerate homographies) to
    # a bound, and NaN never equals its clamp, so it lands outside.
    cx = np.fmin(np.fmax(mx, 0.0), src_w - 1.0)
    cy = np.fmin(np.fmax(my, 0.0), src_h - 1.0)
    inside = cx == mx
    inside &= cy == my
    x0 = cx.astype(np.intp)  # truncation is floor: cx >= 0
    np.minimum(x0, src_w - 2, out=x0)
    y0 = cy.astype(np.intp)
    np.minimum(y0, src_h - 2, out=y0)
    fx = np.empty(cx.shape, dtype=np.float32)
    np.subtract(cx, x0, out=fx, casting="unsafe")
    fy = np.empty(cy.shape, dtype=np.float32)
    np.subtract(cy, y0, out=fy, casting="unsafe")
    y0 *= src_w
    y0 += x0
    outside = np.flatnonzero(~inside)
    return (rows, cols), y0.reshape(-1), fx.reshape(-1, 1), fy.reshape(-1, 1), outside


#: Bilinear gather terms of the inverse-mapped warp grid, keyed by
#: (homography bytes, output shape, source shape).  A tripod session
#: reuses one homography for every capture, so the inverse map,
#: projective divide and neighbour-index arithmetic run once per session.
_WARP_COORD_CACHE: dict[tuple[bytes, int, int, int, int], _WarpCoords] = {}
#: Entries kept before the cache is cleared.  A tripod session needs one
#: and a hand-held session (a fresh jittered pose per capture) hits none,
#: while each 480 x 800 entry holds ~2.5 MB of gather terms.
_WARP_COORD_ENTRIES = 4


def radial_distort_points(
    points: np.ndarray,
    center: tuple[float, float],
    k1: float,
    k2: float = 0.0,
    norm_radius: float | None = None,
) -> np.ndarray:
    """Apply the radial lens model ``r' = r (1 + k1 r^2 + k2 r^4)``.

    Radii are normalized by *norm_radius* (defaults to the distance from
    *center* to the farthest input point) so the coefficients stay
    comparable across image sizes.  This models the "straight lines become
    arcs" effect the paper lists among decoding challenges.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cx, cy = center
    rel = pts - np.array([cx, cy])
    radius = np.linalg.norm(rel, axis=1)
    if norm_radius is None:
        norm_radius = max(float(radius.max()), 1e-9)
    rn = radius / norm_radius
    factor = 1.0 + k1 * rn**2 + k2 * rn**4
    out = np.array([cx, cy]) + rel * factor[:, np.newaxis]
    if np.asarray(points).ndim == 1:
        return out[0]
    return out


def radial_undistort_points(
    points: np.ndarray,
    center: tuple[float, float],
    k1: float,
    k2: float = 0.0,
    norm_radius: float = 1.0,
    iterations: int = 8,
) -> np.ndarray:
    """Invert :func:`radial_distort_points` by fixed-point iteration.

    *norm_radius* must match the value used when distorting.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    cx, cy = center
    rel = pts - np.array([cx, cy])
    guess = rel.copy()
    for __ in range(iterations):
        rn = np.linalg.norm(guess, axis=1) / norm_radius
        factor = 1.0 + k1 * rn**2 + k2 * rn**4
        guess = rel / factor[:, np.newaxis]
    out = np.array([cx, cy]) + guess
    if np.asarray(points).ndim == 1:
        return out[0]
    return out


@dataclass(frozen=True)
class PinholeSetup:
    """Physical screen/camera arrangement, reduced to a homography.

    The screen is a planar rectangle of ``screen_size_px`` pixels with
    physical width ``screen_width_cm``.  The camera sits on the screen's
    optical axis at ``distance_cm``, rotated ``view_angle_deg`` about the
    vertical axis (the paper's v_a), with an ideal pinhole of focal
    length ``focal_px`` expressed in sensor pixels.  ``sensor_size_px``
    is ``(height, width)`` of the captured image.

    This is the substitution for the paper's hand-held Galaxy S4 camera:
    it reproduces exactly the geometric degradations the evaluation
    sweeps (distance -> scale, view angle -> perspective foreshortening).
    """

    screen_size_px: tuple[int, int]  # (height, width) of displayed frame
    sensor_size_px: tuple[int, int]  # (height, width) of captured image
    screen_width_cm: float = 11.0  # Galaxy S4 display width
    distance_cm: float = 12.0
    view_angle_deg: float = 0.0
    tilt_angle_deg: float = 0.0  # rotation about the horizontal axis
    focal_px: float | None = None  # default chosen to frame the screen at 12 cm
    offset_px: tuple[float, float] = (0.0, 0.0)  # translation of the projection

    def _focal(self) -> float:
        if self.focal_px is not None:
            return self.focal_px
        # Default focal length: the screen spans ~82% of the sensor width
        # at 9 cm, so it still fits at the paper's 8 cm minimum distance
        # and at 45 deg view angles without leaving the sampling box.
        sensor_w = self.sensor_size_px[1]
        return 0.82 * sensor_w * 9.0 / self.screen_width_cm

    def screen_corners_px(self) -> np.ndarray:
        """Screen corner pixel coordinates (x, y), TL/TR/BR/BL order."""
        height, width = self.screen_size_px
        return np.array(
            [[0.0, 0.0], [width - 1.0, 0.0], [width - 1.0, height - 1.0], [0.0, height - 1.0]]
        )

    def project_screen_points(self, points_px: np.ndarray) -> np.ndarray:
        """Project screen pixel points into sensor pixel coordinates."""
        pts = np.atleast_2d(np.asarray(points_px, dtype=np.float64))
        height, width = self.screen_size_px
        cm_per_px = self.screen_width_cm / width

        # Screen plane in camera-centric coordinates: origin at screen
        # center, x right, y down, z away from camera.
        world = np.zeros((len(pts), 3))
        world[:, 0] = (pts[:, 0] - (width - 1) / 2.0) * cm_per_px
        world[:, 1] = (pts[:, 1] - (height - 1) / 2.0) * cm_per_px

        yaw = np.deg2rad(self.view_angle_deg)
        pitch = np.deg2rad(self.tilt_angle_deg)
        rot_yaw = np.array(
            [
                [np.cos(yaw), 0.0, np.sin(yaw)],
                [0.0, 1.0, 0.0],
                [-np.sin(yaw), 0.0, np.cos(yaw)],
            ]
        )
        rot_pitch = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, np.cos(pitch), -np.sin(pitch)],
                [0.0, np.sin(pitch), np.cos(pitch)],
            ]
        )
        world = world @ (rot_pitch @ rot_yaw).T
        world[:, 2] += self.distance_cm

        focal = self._focal()
        sensor_h, sensor_w = self.sensor_size_px
        cx = (sensor_w - 1) / 2.0 + self.offset_px[0]
        cy = (sensor_h - 1) / 2.0 + self.offset_px[1]
        if np.any(world[:, 2] <= 0):
            raise ValueError("screen point behind the camera; reduce view angle")
        u = focal * world[:, 0] / world[:, 2] + cx
        v = focal * world[:, 1] / world[:, 2] + cy
        out = np.column_stack([u, v])
        if np.asarray(points_px).ndim == 1:
            return out[0]
        return out

    def homography(self) -> np.ndarray:
        """Screen-pixel -> sensor-pixel homography for this setup."""
        corners = self.screen_corners_px()
        return estimate_homography(corners, self.project_screen_points(corners))
