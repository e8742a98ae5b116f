"""Deterministic synthetic fixtures: test images, noise, and frame pairs
with known ground truth.

Noise comes from a small portable generator rather than numpy's, so the
exact same fixture bytes can be reproduced from the seed in any language:
SplitMix64 over the seed gives a uint64 stream; each draw maps to a
uniform via (x >> 11) / 2^53; Gaussians come from the Box-Muller
transform on consecutive uniforms (first of the pair offset to (0,1] so
the log is finite). All arithmetic is exactly specified, so outputs are
bit-identical across platforms.

The generator's state has a closed form: the k-th draw (k = 1, 2, ...)
mixes ``seed + k * 0x9E3779B97F4A7C15 (mod 2^64)``, so `uniforms` and
`gaussian_field` compute whole chunks of draws as uint64 arrays, whose
arithmetic wraps modulo 2^64 like the recurrence in `splitmix64` (kept
as the scalar reference).  ``log``, ``cos`` and ``sin`` go through
Python's ``math`` module element by element, not numpy: numpy picks its
SIMD kernels per CPU, and its ``log`` differs from ``math.log`` by one
ulp on some draws, which would change the fixture bytes from machine to
machine.  ``sqrt`` and the products are correctly rounded either way.
"""

from __future__ import annotations

import math

import numpy as np

from .flow import FramePair
from .grid import VectorField

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# draws generated at once; an even number, so a chunk holds whole
# Box-Muller pairs, and small enough that the chunk's temporaries reuse
# freed heap rather than grow it
_CHUNK = 8192


def splitmix64(seed: int):
    """Infinite uint64 stream from the SplitMix64 recurrence."""
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _draws(seed: int, start: int, n: int) -> np.ndarray:
    """Draws ``start + 1`` to ``start + n`` of the seeded stream (1-based,
    as uint64), each shifted right by 11 to its top 53 bits."""
    z = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z


def _math(fn, a: np.ndarray) -> np.ndarray:
    """``fn`` from Python's ``math`` applied to each element of ``a``."""
    return np.fromiter(map(fn, a.tolist()), dtype=np.float64, count=a.size)


def uniforms(seed: int, count: int) -> np.ndarray:
    """First ``count`` uniforms in [0,1) from the seeded stream."""
    out = np.empty(count)
    for k in range(0, count, _CHUNK):
        d = _draws(seed, k, min(_CHUNK, count - k))
        np.multiply(d, 2.0**-53, out=out[k : k + d.size])
    return out


def gaussian_field(shape, seed: int) -> np.ndarray:
    """Standard-normal field via Box-Muller on the SplitMix64 stream."""
    count = int(np.prod(shape))
    out = np.empty(count + (count & 1), dtype=np.float64)
    for k in range(0, out.size, _CHUNK):
        d = _draws(seed, k, min(_CHUNK, out.size - k))
        u1 = (d[0::2] + np.uint64(1)) * 2.0**-53
        theta = (2.0 * math.pi) * (d[1::2] * 2.0**-53)
        r = np.sqrt(-2.0 * _math(math.log, u1))
        np.multiply(r, _math(math.cos, theta), out=out[k : k + d.size : 2])
        np.multiply(r, _math(math.sin, theta), out=out[k + 1 : k + d.size : 2])
    return out[:count].reshape(shape)


def _check_sigma(sigma: float) -> None:
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")


def _with_noise(clean: np.ndarray, seed: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """``(clean, noisy)``: ``clean`` plus seeded Gaussian noise of standard
    deviation ``sigma``, which must be finite and nonnegative."""
    _check_sigma(sigma)
    return clean, clean + sigma * gaussian_field(clean.shape, seed)


def make_step32(seed: int = 0, sigma: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """32x32 vertical step: left 16 columns 0.25, right 16 columns 0.75.

    Returns (clean, noisy) with additive Gaussian noise of the given sigma.
    """
    clean = np.full((32, 32), 0.25)
    clean[:, 16:] = 0.75
    return _with_noise(clean, seed, sigma)


def make_piecewise64(seed: int = 0, sigma: float = 0.05) -> tuple[np.ndarray, np.ndarray]:
    """64x64 piecewise-constant cartoon: background 0.2 with three
    axis-aligned rectangles at 0.7, 0.45 and 0.9."""
    clean = np.full((64, 64), 0.2)
    clean[8:36, 6:30] = 0.7
    clean[30:58, 34:58] = 0.45
    clean[12:26, 40:54] = 0.9
    return _with_noise(clean, seed, sigma)


def _ramp_texture(seed: int):
    """Smooth band-limited profile with seeded phases, defined on all of
    the plane so shifted evaluations stay exact."""
    phi1, phi2 = (2.0 * math.pi * u for u in uniforms(seed, 2))

    def profile(x, y):
        return (
            0.5
            + 0.15 * np.sin(2.0 * np.pi * x / 16.0 + phi1)
            + 0.1 * np.sin(2.0 * np.pi * (x + y) / 16.0 + phi2)
        )

    return profile


def make_ramp_shift(seed: int = 0, size: int = 32) -> tuple[FramePair, VectorField]:
    """Smoothly textured frame pair translated by exactly (1, 0).

    Frame 2 is the analytic profile evaluated at x-1, so the true flow is
    u=1, v=0 everywhere and ``f2[:, 1:] == f1[:, :-1]`` exactly.
    """
    profile = _ramp_texture(seed)
    jj, ii = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    f1 = profile(ii, jj)
    f2 = profile(ii - 1, jj)
    gt = VectorField(np.ones((size, size)), np.zeros((size, size)))
    return FramePair(f1, f2), gt


def make_split_motion(seed: int = 0, size: int = 32) -> tuple[FramePair, VectorField]:
    """Textured scene whose left half translates by (1, 0) while the right
    half stays still; the motion boundary sits mid-image at a place with
    no matching image edge, so image-driven smoothing blurs across it."""
    phases = [2.0 * math.pi * u for u in uniforms(seed, 3)]

    def texture(x, y):
        return (
            0.5
            + 0.15 * np.sin(2.0 * np.pi * x / 8.0 + phases[0])
            + 0.15 * np.sin(2.0 * np.pi * y / 8.0 + phases[1])
            + 0.1 * np.sin(2.0 * np.pi * (x + y) / 16.0 + phases[2])
        )

    half = size // 2
    jj, ii = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    f1 = texture(ii, jj)
    f2 = np.where(ii < half, texture(ii - 1, jj), f1)
    u = np.where(ii < half, 1.0, 0.0)
    gt = VectorField(u, np.zeros((size, size)))
    return FramePair(f1, f2), gt


FIXTURES = ("step32", "piecewise64", "ramp-shift", "split-motion")
