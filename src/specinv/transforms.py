"""Exact per-frame transforms.

Routines in this module (forward / inverse):

    dft_real_part / idft_from_real   -- two-sided real part of the DFT
    dct2 / dct3                      -- orthonormal DCT-II / DCT-III
    rfft_packed / irfft_packed       -- real FFT packed into N reals

Every function accepts a single frame (1-D) or a batch of frames (2-D,
one frame per row) and transforms along the last axis.  ``workers``, a
whole number >= 1, is forwarded to scipy's pocketfft backend and only
matters for batches; scipy's ``-1`` for "all cores" is refused, as
``analyze`` and ``synthesize`` refuse it.

Each forward transform is a private kernel ``_name(a, out, workers)``
that writes the transform of ``a`` into ``out``, where ``out`` may be
``a`` itself; the public function is that kernel on a fresh output.
Analysis runs the kernels in place on blocks of its spectrogram rows:
dct2 and rfft_packed let pocketfft overwrite its input, and the real-part
pair is one half-spectrum real FFT whose real parts are written back and
mirrored, ``Re X_k = Re X_{N-k}``.  That is how pocketfft computes the
full DFT of real input (r2c, then a conjugate fill), so the bits are
those of ``fft(a).real``, and with ``norm="forward"`` those of
``ifft(a).real``.

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

from .errors import InvalidConfigError, InvalidInputError, _count, _reals

__all__ = [
    "dft_real_part",
    "idft_from_real",
    "dct2",
    "dct3",
    "rfft_packed",
    "irfft_packed",
]


def _as_frames(values, op: str, workers) -> tuple[np.ndarray, int]:
    """``values`` as a float64 frame or batch of frames, and ``workers`` as a count >= 1."""
    a = _reals(f"{op} input", values)
    if a.ndim not in (1, 2):
        raise InvalidInputError(f"{op} expects a frame or a batch of frames, got ndim={a.ndim}")
    if a.shape[-1] < 2:
        raise InvalidInputError(f"{op} needs frames of length >= 2, got {a.shape[-1]}")
    return a, _count("workers", workers, 1)


def _require_even(n: int, op: str) -> None:
    if n % 2:
        raise InvalidConfigError(f"{op} requires an even frame length, got {n}")


def _real_dft(a: np.ndarray, out: np.ndarray, workers: int, norm: str | None = None) -> np.ndarray:
    """Real parts of the two-sided DFT of ``a`` (scaled by ``norm``), written into ``out``."""
    n = a.shape[-1]
    half = scipy.fft.rfft(a, axis=-1, norm=norm, workers=workers).real
    out[..., : n // 2 + 1] = half
    out[..., n // 2 + 1 :] = half[..., (n - 1) // 2 : 0 : -1]
    return out


def _dct2(a: np.ndarray, out: np.ndarray, workers: int) -> np.ndarray:
    """:func:`dct2` of ``a``, written into ``out`` and transformed there in place."""
    if out is not a:
        out[...] = a
    scipy.fft.dct(out, type=2, norm="ortho", axis=-1, workers=workers, overwrite_x=True)
    return out


def _rfft_packed(a: np.ndarray, out: np.ndarray, workers: int) -> np.ndarray:
    """:func:`rfft_packed` of ``a``, written into ``out`` and transformed there in place."""
    if out is not a:
        out[...] = a
    with scipy.fft.set_workers(workers):
        scipy.fftpack.rfft(out, axis=-1, overwrite_x=True)
    return out


def dft_real_part(frame, workers: int = 1) -> np.ndarray:
    """Real parts of the two-sided DFT, ``Re(X_k)`` for k = 0..N-1.

    For real input this is even-symmetric around the Nyquist bin; the
    imaginary half discarded here is what makes the pipeline built on it
    lossy.
    """
    a, workers = _as_frames(frame, "dft_real_part", workers)
    return _real_dft(a, np.empty_like(a), workers)


def idft_from_real(coeffs, workers: int = 1) -> np.ndarray:
    """Real part of the inverse DFT of a purely real spectrum.

    Equals ``(x[n] + x[(-n) mod N]) / 2`` when fed ``dft_real_part(x)``.
    For a real spectrum that real part is the forward transform's, scaled
    by 1/N.
    """
    a, workers = _as_frames(coeffs, "idft_from_real", workers)
    return _real_dft(a, np.empty_like(a), workers, norm="forward")


def dct2(frame, workers: int = 1) -> np.ndarray:
    """Orthonormal DCT-II: ``y_k = s_k * sum_n x[n] cos(pi (n + 1/2) k / N)``
    with ``s_0 = sqrt(1/N)`` and ``s_k = sqrt(2/N)`` otherwise.

    Orthonormal scaling makes dct2/dct3 mutual inverses and preserves
    the l2 norm.
    """
    a, workers = _as_frames(frame, "dct2", workers)
    return _dct2(a, np.empty_like(a), workers)


def dct3(coeffs, workers: int = 1) -> np.ndarray:
    """Orthonormal DCT-III, the exact inverse of :func:`dct2`."""
    a, workers = _as_frames(coeffs, "dct3", workers)
    return scipy.fft.dct(a, type=3, norm="ortho", axis=-1, workers=workers)


def rfft_packed(frame, workers: int = 1) -> np.ndarray:
    """Real FFT packed into exactly N reals (N even; see module docstring).

    Hermitian symmetry of the real-input DFT makes the dropped upper half
    redundant, so no information is lost.
    """
    a, workers = _as_frames(frame, "rfft_packed", workers)
    _require_even(a.shape[-1], "rfft_packed")
    return _rfft_packed(a, np.empty_like(a), workers)


def irfft_packed(packed, workers: int = 1) -> np.ndarray:
    """Exact inverse of :func:`rfft_packed`."""
    a, workers = _as_frames(packed, "irfft_packed", workers)
    _require_even(a.shape[-1], "irfft_packed")
    with scipy.fft.set_workers(workers):
        return scipy.fftpack.irfft(a, axis=-1)
