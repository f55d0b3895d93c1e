"""Exact per-frame transforms.

Routines in this module (forward / inverse):

    dft_real_part / idft_from_real   -- two-sided real part of the DFT
    dct2 / dct3                      -- orthonormal DCT-II / DCT-III
    rfft_packed / irfft_packed       -- real FFT packed into N reals

Every function accepts a single frame (1-D) or a batch of frames (2-D,
one frame per row) and transforms along the last axis.  ``workers`` is
forwarded to scipy's pocketfft backend and only matters for batches.

The packed layout stores the non-redundant half spectrum of a length-N
real frame (N even) as::

    [Y_0, Re Y_1, Im Y_1, Re Y_2, Im Y_2, ..., Re Y_{N/2}]

which is FFTPACK's half-complex order (Swarztrauber 1982), i.e. exactly
what ``scipy.fftpack.rfft`` returns, so the packed pair calls
``scipy.fftpack.rfft``/``irfft`` directly.
Y_0 and Y_{N/2} are real for real input, so exactly N reals carry the
whole spectrum and the transform is lossless.  dct2/dct3 are likewise
mutual inverses.  dft_real_part is deliberately not invertible: inverting
a real-part-only spectrum returns the circular even part of the frame,
which is the structural reason the real-FFT pipeline is lossy.
"""
from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.fftpack

from .errors import InvalidConfigError, InvalidInputError

__all__ = [
    "dft_real_part",
    "idft_from_real",
    "dct2",
    "dct3",
    "rfft_packed",
    "irfft_packed",
]


def _as_frames(values, op: str) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim not in (1, 2):
        raise InvalidInputError(f"{op} expects a frame or a batch of frames, got ndim={a.ndim}")
    if a.shape[-1] < 2:
        raise InvalidInputError(f"{op} needs frames of length >= 2, got {a.shape[-1]}")
    return a


def _require_even(n: int, op: str) -> None:
    if n % 2:
        raise InvalidConfigError(f"{op} requires an even frame length, got {n}")


def dft_real_part(frame, workers: int = 1) -> np.ndarray:
    """Real parts of the two-sided DFT, ``Re(X_k)`` for k = 0..N-1.

    For real input this is even-symmetric around the Nyquist bin; the
    imaginary half discarded here is what makes the pipeline built on it
    lossy.
    """
    a = _as_frames(frame, "dft_real_part")
    return scipy.fft.fft(a, axis=-1, workers=workers).real


def idft_from_real(coeffs, workers: int = 1) -> np.ndarray:
    """Real part of the inverse DFT of a purely real spectrum.

    Equals ``(x[n] + x[(-n) mod N]) / 2`` when fed ``dft_real_part(x)``.
    """
    a = _as_frames(coeffs, "idft_from_real")
    return scipy.fft.ifft(a, axis=-1, workers=workers).real


def dct2(frame, workers: int = 1) -> np.ndarray:
    """Orthonormal DCT-II: ``y_k = s_k * sum_n x[n] cos(pi (n + 1/2) k / N)``
    with ``s_0 = sqrt(1/N)`` and ``s_k = sqrt(2/N)`` otherwise.

    Orthonormal scaling makes dct2/dct3 mutual inverses and preserves
    the l2 norm.
    """
    a = _as_frames(frame, "dct2")
    return scipy.fft.dct(a, type=2, norm="ortho", axis=-1, workers=workers)


def dct3(coeffs, workers: int = 1) -> np.ndarray:
    """Orthonormal DCT-III, the exact inverse of :func:`dct2`."""
    a = _as_frames(coeffs, "dct3")
    return scipy.fft.dct(a, type=3, norm="ortho", axis=-1, workers=workers)


def rfft_packed(frame, workers: int = 1) -> np.ndarray:
    """Real FFT packed into exactly N reals (N even; see module docstring).

    Hermitian symmetry of the real-input DFT makes the dropped upper half
    redundant, so no information is lost.
    """
    a = _as_frames(frame, "rfft_packed")
    _require_even(a.shape[-1], "rfft_packed")
    with scipy.fft.set_workers(workers):
        return scipy.fftpack.rfft(a, axis=-1)


def irfft_packed(packed, workers: int = 1) -> np.ndarray:
    """Exact inverse of :func:`rfft_packed`."""
    a = _as_frames(packed, "irfft_packed")
    _require_even(a.shape[-1], "irfft_packed")
    with scipy.fft.set_workers(workers):
        return scipy.fftpack.irfft(a, axis=-1)
