"""Noise models, vignette, and image-quality metrics."""

import numpy as np
import pytest

from repro.imaging.metrics import gradient_energy, laplacian_variance, mean_abs_error, psnr
from repro.imaging.noise import (
    add_ambient_light,
    add_sensor_noise,
    scale_brightness,
    vignette,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestGaussianNoise:
    """Read noise alone: ``photons_at_white=inf`` turns shot noise off."""

    def test_zero_sigma_identity(self, rng):
        img = np.full((10, 10), 0.5)
        state = rng.bit_generator.state
        out = add_sensor_noise(img, np.inf, 0.0, rng)
        assert np.array_equal(out, img)
        assert out is not img
        assert rng.bit_generator.state == state  # nothing drawn

    def test_noise_statistics(self, rng):
        img = np.full((200, 200), 0.5)
        out = add_sensor_noise(img, np.inf, 0.05, rng)
        assert np.std(out - img) == pytest.approx(0.05, rel=0.05)
        assert np.mean(out) == pytest.approx(0.5, abs=0.005)

    def test_clipping(self, rng):
        out = add_sensor_noise(np.ones((50, 50)), np.inf, 0.3, rng)
        assert out.max() <= 1.0 and out.min() >= 0.0


class TestShotNoise:
    def test_more_photons_less_noise(self, rng):
        img = np.full((100, 100), 0.5)
        noisy_low = add_sensor_noise(img, 500, 0.0, np.random.default_rng(1))
        noisy_high = add_sensor_noise(img, 50000, 0.0, np.random.default_rng(1))
        assert np.std(noisy_low - img) > np.std(noisy_high - img)

    def test_dark_pixels_relatively_noisier(self, rng):
        bright = np.full((200, 200), 0.9)
        dark = np.full((200, 200), 0.1)
        rel = lambda img: np.std(add_sensor_noise(img, 2000, 0.0, rng) - img) / img[0, 0]  # noqa: E731
        assert rel(dark) > rel(bright)

    def test_disabled(self, rng):
        img = np.full((5, 5), 0.3)
        assert np.array_equal(add_sensor_noise(img, np.inf, 0.0, rng), img)


class TestSensorNoise:
    @pytest.mark.parametrize("level", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_variance_is_shot_plus_read(self, level):
        # 40k samples per level: the sample variance's relative standard
        # error is sqrt(2 / n) ~ 0.7 %, so 5 % is a > 7-sigma tolerance.
        # Levels sit > 4 std from 0 and 1, where clipping is negligible.
        photons, read_sigma = 2000.0, 0.02
        img = np.full((200, 200), level, dtype=np.float32)
        out = add_sensor_noise(img, photons, read_sigma, np.random.default_rng(7))
        expected = level / photons + read_sigma**2
        assert np.var(out.astype(np.float64)) == pytest.approx(expected, rel=0.05)
        assert np.mean(out) == pytest.approx(level, abs=0.002)

    def test_keeps_float_dtype(self, rng):
        for dtype in (np.float32, np.float64):
            img = np.full((4, 4, 3), 0.5, dtype=dtype)
            assert add_sensor_noise(img, 4000.0, 0.015, rng).dtype == dtype

    def test_one_draw_per_sample(self):
        # Shot and read variance are summed into a single normal draw.
        img = np.full((8, 8), 0.4)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        add_sensor_noise(img, 4000.0, 0.015, a)
        b.standard_normal(img.shape)
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("photons", [0.0, -5.0, np.nan])
    def test_rejects_non_positive_photons(self, rng, photons):
        with pytest.raises(ValueError):
            add_sensor_noise(np.zeros((2, 2)), photons, 0.01, rng)


class TestAmbientAndBrightness:
    def test_ambient_lifts_black(self):
        assert add_ambient_light(np.zeros((2, 2)), 0.3).min() == pytest.approx(0.3)

    def test_ambient_compresses_contrast(self):
        img = np.array([[0.0, 1.0]])
        out = add_ambient_light(img, 0.4)
        assert np.ptp(out) == pytest.approx(0.6)

    def test_brightness_scaling(self):
        img = np.array([[0.5, 1.0]])
        assert np.allclose(scale_brightness(img, 0.4), [[0.2, 0.4]])

    def test_vignette_darkens_corners_not_center(self):
        img = np.ones((41, 41))
        out = vignette(img, strength=0.3)
        assert out[20, 20] == pytest.approx(1.0, abs=1e-6)
        assert out[0, 0] < 0.85

    def test_vignette_color_image(self):
        img = np.ones((21, 21, 3))
        out = vignette(img, strength=0.2)
        assert out.shape == img.shape


class TestMetrics:
    def test_gradient_energy_orders_blur(self):
        img = np.zeros((32, 32))
        img[::2] = 1.0
        from repro.imaging.filters import gaussian_blur

        assert gradient_energy(img) > gradient_energy(gaussian_blur(img, 1.0))

    def test_constant_image_zero_energy(self):
        assert gradient_energy(np.full((10, 10), 0.3)) == 0.0
        assert laplacian_variance(np.full((10, 10), 0.3)) == 0.0

    def test_psnr_identical_infinite(self):
        img = np.random.default_rng(0).random((8, 8))
        assert psnr(img, img) == float("inf")

    def test_psnr_known_value(self):
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert psnr(a, b) == pytest.approx(20.0)

    def test_psnr_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_mean_abs_error(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.25)
        assert mean_abs_error(a, b) == pytest.approx(0.25)
