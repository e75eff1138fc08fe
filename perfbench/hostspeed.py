"""Host-speed calibration: a fixed numpy kernel timed between batches.

The benchmark runs on shared hosts whose speed drifts with the
neighbours' load: the same trial, run back to back on a 2-CPU host,
took anywhere from 0.7 to 1.5 s within half an hour, and the drift is
slow (minutes), so no amount of repetition inside one run averages it
away.  What does cancel it is a second measurement of the host taken at
the same moments: :class:`HostSpeed` times a fixed kernel after every
batch, and a batch's time is scaled by the reference kernel time over
the kernel time around it.  The result is the batch's time on a
reference host, one that runs the kernel in ``REFERENCE_S_PER_PIXEL``
per pixel (0.1 s at 480x800).

The kernel is the benchmark's own code and never calls the program, so
a change to the program moves the scaled times in full.  It does what a
capture does to memory — bilinear gathers over an RGB float64 image of
the workload's sensor size, a box blur, 8-bit quantization — because
the drift is largest for that memory-bound work.  Over three minutes in
which the 30 s medians of one trial's time spread by 0.16 (IQR over
median), those of trial time over kernel time spread by 0.02.  The
kernel's arrays exist only while it runs, between batches, so they do
not raise the peak resident set the benchmark reports.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Kernel passes per sample; a sample is their median.
PASSES = 3
#: Kernel time of the reference host per pixel, in seconds; it defines
#: the reference (0.1 s for a 480x800 image).
REFERENCE_S_PER_PIXEL = 0.1 / (480 * 800)


def _inputs(height: int, width: int) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(0x5EED)  # fixed: the kernel never varies
    image = rng.random((height * width, 3))
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    my = np.clip(ys * 0.97 + 5.3 + 2.0 * np.sin(xs / 50.0), 0, height - 1.001)
    mx = np.clip(xs * 0.98 + 3.1 + 2.0 * np.cos(ys / 40.0), 0, width - 1.001)
    y0 = np.floor(my).astype(np.intp)
    x0 = np.floor(mx).astype(np.intp)
    top = (y0 * width + x0).ravel()
    return image, top, (my - y0)[..., None], (mx - x0)[..., None]


def time_kernel(height: int, width: int) -> float:
    """Time one kernel pass over fresh *height* x *width* inputs, in seconds."""
    inputs = _inputs(height, width)
    start = perf_counter()
    kernel(*inputs)
    return perf_counter() - start


def kernel(image: np.ndarray, top: np.ndarray, fy: np.ndarray, fx: np.ndarray) -> int:
    """Warp, blur and quantize *image*; returns a checksum of the levels."""
    height, width = fy.shape[:2]
    shape = (height, width, 3)
    a, b = image[top].reshape(shape), image[top + 1].reshape(shape)
    c, d = image[top + width].reshape(shape), image[top + width + 1].reshape(shape)
    upper = a + (b - a) * fx
    lower = c + (d - c) * fx
    warped = upper + (lower - upper) * fy
    sums = np.cumsum(warped, axis=1)
    blurred = (sums[:, 4:] - sums[:, :-4]) * 0.25
    levels = np.round(np.clip(blurred * 1.1 - 0.05, 0.0, 1.0) * 255.0).astype(np.uint8)
    return int(levels.sum(dtype=np.int64))


class HostSpeed:
    """Times the calibration kernel on demand and keeps every sample."""

    def __init__(self, height: int = 480, width: int = 800):
        self.shape = (height, width)
        self.reference_s = REFERENCE_S_PER_PIXEL * height * width
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time :data:`PASSES` kernel passes, record their median and return it."""
        self.samples.append(statistics.median(time_kernel(*self.shape) for _ in range(PASSES)))
        return self.samples[-1]

    def scales(self) -> list[float]:
        """Reference scale of each interval between consecutive samples.

        Batch *i* ran between samples *i* and *i + 1*; its time times
        ``scales()[i]`` is its time on the reference host.
        """
        return [2.0 * self.reference_s / (a + b)
                for a, b in zip(self.samples, self.samples[1:])]

    def median_s(self) -> float:
        return statistics.median(self.samples)
