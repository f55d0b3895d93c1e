"""Objective reconstruction-quality measures: SNR and mel-cepstral distance.

The MCD here is a plain reconstruction metric: reference and estimate are
sample-aligned by construction, so frames are compared index-by-index with
no time warping, and identical signals score exactly 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, _config, _count, _need
from .signal import FrameConfig, Waveform, WindowKind
from .transforms import dct2
from .vocoder import analyze

__all__ = ["McdConfig", "snr_db", "mcd", "mel_filterbank"]

# Floor applied before the log of mel band energies.
LOG_FLOOR = 1e-10
# The one analysis every mcd runs.
_MCD_FRAMES = FrameConfig(1024, 256, WindowKind.hann(), centered=True)


@dataclass(frozen=True)
class McdConfig:
    """The two counts a caller chooses for :func:`mcd`.

    Defaults follow the common Kubichek-style setup: 23 mel bands and 13
    cepstra (c1..c13, excluding the gain term c0).  The analysis itself is
    fixed: centered 1024/256 hann frames, mel bands from 0 Hz to
    sample_rate / 2.
    """

    n_mel_bands: int = 23
    n_cepstra: int = 13

    def __post_init__(self):
        for name in ("n_mel_bands", "n_cepstra"):
            object.__setattr__(self, name, _count(name, getattr(self, name), 1))
        if self.n_cepstra >= self.n_mel_bands:
            raise InvalidConfigError(
                f"n_cepstra must satisfy 0 < n_cepstra < n_mel_bands, got "
                f"{self.n_cepstra} vs {self.n_mel_bands} bands"
            )


def snr_db(reference: Waveform, estimate: Waveform) -> float:
    """Signal-to-noise ratio ``10*log10(sum ref^2 / sum (ref-est)^2)`` in dB.

    Returns ``math.inf`` when the error energy is exactly zero.
    """
    _check_pair("snr_db", reference, estimate)
    ref = reference.samples
    signal_energy = float(np.dot(ref, ref))
    if signal_energy == 0.0:
        raise InvalidInputError("SNR is undefined for an all-zero reference")
    err = ref - estimate.samples
    error_energy = float(np.dot(err, err))
    if error_energy == 0.0:
        return math.inf
    return 10.0 * math.log10(signal_energy / error_energy)


def _hz_to_mel(hz):
    """Slaney mel curve: linear below 1 kHz, logarithmic above."""
    hz = np.asarray(hz, dtype=np.float64)
    mel = hz * 3.0 / 200.0
    log_region = hz >= 1000.0
    mel = np.where(
        log_region,
        15.0 + np.log(np.maximum(hz, 1000.0) / 1000.0) * (27.0 / np.log(6.4)),
        mel,
    )
    return mel


def _mel_to_hz(mel):
    mel = np.asarray(mel, dtype=np.float64)
    hz = mel * 200.0 / 3.0
    log_region = mel >= 15.0
    hz = np.where(log_region, 1000.0 * np.exp(np.log(6.4) * (mel - 15.0) / 27.0), hz)
    return hz


def mel_filterbank(
    n_bands: int, n_fft: int, sample_rate: int, fmin: float, fmax: float
) -> np.ndarray:
    """Triangular mel filterbank, shape (n_bands, n_fft//2 + 1).

    Band edges are spaced uniformly on the mel scale between fmin and fmax
    and each triangle is scaled to unit area (2 / bandwidth in Hz).
    """
    edges = _mel_to_hz(np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_bands + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((n_bands, bin_freqs.shape[0]))
    for b in range(n_bands):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
        fb[b] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    return fb


def _cepstra(x: Waveform, cfg: McdConfig, fb: np.ndarray) -> np.ndarray:
    # Clip none is only analyze's one finite scan, for rfft overflow.
    # The product stays one whole matmul: blocking it changes the BLAS bits.
    mag = analyze(x, _MCD_FRAMES, "magnitude").data
    mel = np.log(np.maximum(mag @ fb.T, LOG_FLOOR))
    return dct2(mel)[:, 1 : cfg.n_cepstra + 1]


def mcd(reference: Waveform, estimate: Waveform, cfg: McdConfig = McdConfig()) -> float:
    """Mel-cepstral distance between two aligned waveforms (lower is better).

    Pipeline: magnitude spectrogram of centered 1024/256 hann frames (the
    ``magnitude`` kind's transform of the framed signal) -> unit-area mel
    filterbank from 0 Hz to sample_rate / 2 -> ``log(max(., 1e-10))`` ->
    orthonormal DCT-II over bands -> keep c1..c_{n_cepstra}.  Per-frame
    distance is ``(10/ln 10) * sqrt(2 * sum_i (c_i - chat_i)^2)`` and the
    result is the mean over frames.  Excluding c0 makes the measure
    invariant to overall gain.
    """
    _check_pair("mcd", reference, estimate)
    _config("cfg", cfg, McdConfig)
    if len(reference) == 0:
        raise InvalidInputError("mcd needs at least one analysis frame")
    fb = mel_filterbank(cfg.n_mel_bands, _MCD_FRAMES.win_length, reference.sample_rate, 0.0, reference.sample_rate / 2.0)
    c_ref = _cepstra(reference, cfg, fb)
    c_est = _cepstra(estimate, cfg, fb)
    per_frame = np.sqrt(2.0 * np.sum((c_ref - c_est) ** 2, axis=1))
    return float((10.0 / np.log(10.0)) * per_frame.mean())


def _check_pair(op: str, reference: Waveform, estimate: Waveform) -> None:
    for x in (reference, estimate):
        _need(op, x, Waveform)
    if len(reference) != len(estimate):
        raise InvalidInputError(
            f"length mismatch: reference has {len(reference)} samples, "
            f"estimate has {len(estimate)}"
        )
    if reference.sample_rate != estimate.sample_rate:
        raise InvalidInputError(
            f"sample rate mismatch: {reference.sample_rate} vs {estimate.sample_rate}"
        )
