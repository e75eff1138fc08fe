"""Convolution, mean/Gaussian/motion blur."""

import numpy as np
import pytest

from repro.imaging.filters import (
    convolve_separable,
    gaussian_blur,
    gaussian_kernel,
    mean_filter,
    motion_blur,
)
from repro.imaging.metrics import gradient_energy


class TestKernels:
    def test_gaussian_kernel_normalized(self):
        for sigma in [0.3, 1.0, 2.5]:
            k = gaussian_kernel(sigma)
            assert k.sum() == pytest.approx(1.0)
            assert len(k) % 2 == 1

    def test_gaussian_kernel_symmetric(self):
        k = gaussian_kernel(1.5)
        assert np.allclose(k, k[::-1])

    def test_zero_sigma_is_identity_kernel(self):
        assert np.array_equal(gaussian_kernel(0.0), [1.0])


class TestConvolution:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        img = rng.random((10, 12))
        out = convolve_separable(img, np.array([1.0]), np.array([1.0]))
        assert np.allclose(out, img)

    def test_constant_image_invariant(self):
        img = np.full((8, 8), 0.7)
        out = mean_filter(img, 3)
        assert np.allclose(out, 0.7)

    def test_mean_preservation(self):
        # Reflect padding + normalized kernel preserve the mean of a
        # symmetric image reasonably; exact for constant rows/cols.
        img = np.tile(np.linspace(0, 1, 16), (16, 1))
        out = mean_filter(img, 3)
        assert out.mean() == pytest.approx(img.mean(), abs=1e-3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            mean_filter(np.zeros((5, 5)), 4)

    def test_color_image_channels_independent(self):
        rng = np.random.default_rng(1)
        img = rng.random((6, 6, 3))
        out = mean_filter(img, 3)
        for c in range(3):
            assert np.allclose(out[..., c], mean_filter(img[..., c], 3))


class TestDenoising:
    def test_mean_filter_reduces_noise_variance(self):
        rng = np.random.default_rng(2)
        clean = np.full((64, 64), 0.5)
        noisy = clean + rng.normal(0, 0.1, clean.shape)
        filtered = mean_filter(noisy, 3)
        assert np.var(filtered - clean) < np.var(noisy - clean) / 4


class TestBlur:
    def test_gaussian_blur_reduces_sharpness(self):
        img = np.zeros((40, 40))
        img[::4, :] = 1.0
        assert gradient_energy(gaussian_blur(img, 2.0)) < gradient_energy(img)

    def test_blur_monotone_in_sigma(self):
        img = np.zeros((40, 40))
        img[::4, :] = 1.0
        e = [gradient_energy(gaussian_blur(img, s)) for s in (0.5, 1.0, 2.0)]
        assert e[0] > e[1] > e[2]

    def test_zero_sigma_copy(self):
        img = np.ones((5, 5))
        out = gaussian_blur(img, 0.0)
        assert np.array_equal(out, img)
        assert out is not img

    def test_motion_blur_directional(self):
        img = np.zeros((31, 31))
        img[:, 15] = 1.0  # vertical line
        horiz = motion_blur(img, 6.0, angle_deg=0.0)
        vert = motion_blur(img, 6.0, angle_deg=90.0)
        # Horizontal blur smears the vertical line; vertical blur does not.
        assert gradient_energy(horiz) < gradient_energy(img)
        assert np.allclose(vert[15], img[15], atol=1e-9)

    def test_motion_blur_zero_length(self):
        img = np.random.default_rng(3).random((8, 8))
        assert np.array_equal(motion_blur(img, 0.0), img)

    def test_motion_blur_clamps_instead_of_wrapping(self):
        # A bright last row must not wrap into row 0; it repeats at the edge.
        img = np.zeros((20, 16))
        img[-1] = 1.0
        for angle in (90.0, -90.0):
            out = motion_blur(img, 4.0, angle_deg=angle)
            assert np.all(out[0] == 0.0)
            assert out[-1].min() > 0.0

    def test_filters_keep_float32(self):
        img = np.random.default_rng(4).random((12, 10, 3)).astype(np.float32)
        assert gaussian_blur(img, 0.8).dtype == np.float32
        assert gaussian_blur(img, 0.0).dtype == np.float32
        assert motion_blur(img, 3.0, angle_deg=30.0).dtype == np.float32
        assert mean_filter(img, 3).dtype == np.float32
        assert mean_filter(img.astype(np.float64), 3).dtype == np.float64
