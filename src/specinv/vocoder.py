"""End-to-end spectral-inversion pipelines.

``analyze`` turns a waveform into a kind-tagged real-valued spectrogram
(real-FFT, DCT, packed real-FFT, or export-only magnitude), optionally
clipped; ``synthesize`` inverts the invertible kinds straight back to a
waveform with no phase estimation of any sort.  Signed (unclipped) dct
and packed_rfft spectrograms reconstruct the input exactly; the real-FFT
kind is structurally lossy and kept as the baseline; magnitude has no
synthesis path at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
import scipy.fft

from . import transforms
from .errors import InvalidConfigError, InvalidInputError, UnsupportedKindError
from .signal import FrameConfig, FrameMatrix, Waveform, frame_signal, overlap_add, parse_name_value

__all__ = [
    "SPECTROGRAM_KINDS",
    "CLIP_MODES",
    "ClipMode",
    "Spectrogram",
    "expected_bins",
    "apply_clip",
    "analyze",
    "synthesize",
]


def _magnitude(frames, workers: int = 1) -> np.ndarray:
    return np.abs(scipy.fft.rfft(frames, axis=-1, workers=workers))


class Kind(NamedTuple):
    """Everything that differs between spectrogram kinds."""

    algo: str  # the CLI ``--algo`` name
    forward: Callable[..., np.ndarray]
    inverse: Callable[..., np.ndarray] | None  # None: no synthesis path
    half_spectrum: bool  # win_length // 2 + 1 bins instead of win_length


# A kind's position here, like a clip mode's in CLIP_MODES, is its MVS1
# header code (see io.py): append new entries, never reorder.
KINDS = {
    "real_fft": Kind("fft-real", transforms.dft_real_part, transforms.idft_from_real, False),
    "dct": Kind("dct", transforms.dct2, transforms.dct3, False),
    "packed_rfft": Kind("prft", transforms.rfft_packed, transforms.irfft_packed, False),
    "magnitude": Kind("magnitude", _magnitude, None, True),
}
SPECTROGRAM_KINDS = tuple(KINDS)
CLIP_MODES = ("none", "zero", "threshold")


def _kind(kind: str) -> Kind:
    if kind not in KINDS:
        raise UnsupportedKindError(
            f"unknown spectrogram kind {kind!r}; expected one of {SPECTROGRAM_KINDS}"
        )
    return KINDS[kind]


@dataclass(frozen=True)
class ClipMode:
    """Coefficient clipping: ``none``, ``zero`` (ReLU) or ``threshold``.

    ``zero`` keeps only nonnegative coefficients; ``threshold`` zeroes
    everything at or below ``tau`` (a hard threshold, used for denoising;
    tau is in raw coefficient units and presumes [-1, 1] audio).
    """

    mode: str = "none"
    tau: float = 0.0

    def __post_init__(self):
        if self.mode not in CLIP_MODES:
            raise InvalidConfigError(
                f"unknown clip mode {self.mode!r}; expected one of {CLIP_MODES}"
            )
        if self.mode == "threshold":
            if not (np.isfinite(self.tau) and 0.0 < self.tau < 1.0):
                raise InvalidConfigError(
                    f"threshold tau must lie in (0, 1), got {self.tau}"
                )
        elif self.tau != 0.0:
            raise InvalidConfigError("tau is only meaningful for threshold clipping")

    @classmethod
    def none(cls) -> "ClipMode":
        return cls("none")

    @classmethod
    def zero(cls) -> "ClipMode":
        return cls("zero")

    @classmethod
    def threshold(cls, tau: float) -> "ClipMode":
        return cls("threshold", float(tau))

    @classmethod
    def parse(cls, text: str) -> "ClipMode":
        """Parse ``"none"``, ``"zero"`` or ``"threshold:TAU"``."""
        return parse_name_value(
            cls, text, CLIP_MODES, "threshold", "clip",
            missing="threshold clipping needs a level, e.g. 'threshold:0.05'",
            bad="bad threshold level",
        )

    def label(self) -> str:
        if self.mode == "threshold":
            return f"threshold:{self.tau:g}"
        return self.mode


def expected_bins(kind: str, win_length: int) -> int:
    """Bin count per frame for a spectrogram kind at a given window length."""
    return win_length // 2 + 1 if _kind(kind).half_spectrum else win_length


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Kind-tagged frame x bin real matrix plus the metadata to invert it.

    Immutable after construction (the data array is locked read-only);
    the config/clip/sample-rate/original-length provenance is exactly
    what ``synthesize`` needs to reverse the analysis.
    """

    kind: str
    data: np.ndarray
    config: FrameConfig
    clip: ClipMode
    sample_rate: int
    original_length: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise InvalidInputError(f"spectrogram data must be 2-D, got shape {data.shape}")
        bins = expected_bins(self.kind, self.config.win_length)
        if data.shape[1] != bins:
            raise InvalidInputError(
                f"{self.kind} spectrogram at win={self.config.win_length} must have "
                f"{bins} bins per frame, got {data.shape[1]}"
            )
        if not np.isfinite(data).all():
            raise InvalidInputError("spectrogram data contains NaN or Inf")
        if self.kind == "magnitude" or self.clip.mode == "zero":
            if data.size and data.min() < 0.0:
                raise InvalidInputError(
                    f"{self.kind}/{self.clip.label()} spectrogram must be nonnegative"
                )
        elif self.clip.mode == "threshold":
            # Tolerance absorbs float32 container round-trips.
            lo = self.tau_floor()
            if data.size and not ((data == 0.0) | (data > lo)).all():
                raise InvalidInputError(
                    f"threshold-clipped spectrogram has entries in (0, {lo:g}]"
                )
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise InvalidInputError(f"sample_rate must be a positive integer, got {self.sample_rate}")
        if self.original_length < 0:
            raise InvalidInputError("original_length must be >= 0")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def tau_floor(self) -> float:
        return self.clip.tau * (1.0 - 1e-6)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


def apply_clip(data, mode: ClipMode) -> np.ndarray:
    """Clip spectrogram coefficients elementwise.

    ``none`` returns the input unchanged; ``zero`` is ``max(v, 0)``;
    ``threshold`` keeps ``v`` only where ``v > tau``.
    """
    if not isinstance(mode, ClipMode):
        mode = ClipMode.parse(mode)
    a = np.asarray(data, dtype=np.float64)
    if not np.isfinite(a).all():
        raise InvalidInputError("cannot clip non-finite data")
    if mode.mode == "none":
        return a
    if mode.mode == "zero":
        return np.maximum(a, 0.0)
    return np.where(a > mode.tau, a, 0.0)


def analyze(
    x: Waveform,
    config: FrameConfig,
    kind: str,
    clip: ClipMode = ClipMode(),
    workers: int = 1,
) -> Spectrogram:
    """Forward pipeline: frame + window, per-frame transform, optional clip.

    Parameters
    ----------
    x : Waveform
        Input signal; must be nonempty.
    config : FrameConfig
        Framing parameters; ``packed_rfft`` needs an even win_length.
    kind : str
        One of ``real_fft``, ``dct``, ``packed_rfft``, ``magnitude``.
    clip : ClipMode
        Applied after the transform.  Magnitude spectrograms are already
        nonnegative, so any clip other than ``none`` is rejected.
    workers : int
        Worker threads for the batch transform (1 = single-threaded).
    """
    forward = _kind(kind).forward
    if not isinstance(clip, ClipMode):
        clip = ClipMode.parse(clip)
    if workers < 1:
        raise InvalidConfigError("workers must be >= 1")
    if len(x) == 0:
        raise InvalidInputError("cannot analyze an empty waveform")
    if kind == "packed_rfft" and config.win_length % 2:
        raise InvalidConfigError(
            f"packed_rfft requires an even win_length, got {config.win_length}"
        )
    if kind == "magnitude" and clip.mode != "none":
        raise InvalidConfigError("magnitude spectrograms are already nonnegative; use clip none")

    fm = frame_signal(x, config)
    data = apply_clip(forward(fm.frames, workers=workers), clip)
    return Spectrogram(kind, data, config, clip, x.sample_rate, fm.original_length)


def synthesize(spec: Spectrogram, workers: int = 1) -> Waveform:
    """Inverse pipeline: per-frame inverse transform, then overlap-add.

    Output has ``spec.original_length`` samples at ``spec.sample_rate``.
    Magnitude spectrograms cannot be inverted here -- that would require
    the phase estimation this library exists to avoid.
    """
    inverse = KINDS[spec.kind].inverse
    if inverse is None:
        raise UnsupportedKindError(
            "magnitude spectrograms have no synthesis path (phase is gone); "
            "use real_fft, dct or packed_rfft"
        )
    if workers < 1:
        raise InvalidConfigError("workers must be >= 1")
    frames = inverse(spec.data, workers=workers)
    fm = FrameMatrix(frames, spec.config, spec.original_length, spec.sample_rate)
    return overlap_add(fm)
