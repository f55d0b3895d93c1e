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
from .errors import InvalidConfigError, InvalidInputError, UnsupportedKindError, _count, _finite, _whole
from .signal import (
    FrameConfig, Waveform, _check_frame_count, _frame_blocks, _geometry, _overlap_add, parse_name_value,
)

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


def _magnitude(frames: np.ndarray, out: np.ndarray, workers: int) -> np.ndarray:
    return np.abs(scipy.fft.rfft(frames, axis=-1, workers=workers), out=out)


class Kind(NamedTuple):
    """Everything that differs between spectrogram kinds."""

    algo: str  # the CLI ``--algo`` name
    # (frames, out, workers): writes the transform of the frames into out, which may be frames
    forward: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    inverse: Callable[..., np.ndarray] | None  # None: no synthesis path
    half_spectrum: bool = False  # win_length // 2 + 1 bins instead of win_length
    even_window: bool = False  # win_length must be even
    unsigned: bool = False  # data is nonnegative, so clip must be none


# A kind's position here, like a clip mode's in CLIP_MODES, is its MVS1
# header code (see io.py): append new entries, never reorder.
KINDS = {
    "real_fft": Kind("fft-real", transforms._real_dft, transforms.idft_from_real),
    "dct": Kind("dct", transforms._dct2, transforms.dct3),
    "packed_rfft": Kind("prft", transforms._rfft_packed, transforms.irfft_packed, even_window=True),
    "magnitude": Kind("magnitude", _magnitude, None, half_spectrum=True, unsigned=True),
}
SPECTROGRAM_KINDS = tuple(KINDS)
CLIP_MODES = ("none", "zero", "threshold")

# Frames ``analyze`` transforms and ``synthesize`` inverts per step, so the
# frames each works on at once stay cache-sized (2 MB at win 1024).
_BLOCK_FRAMES = 256


def _kind(kind: str) -> Kind:
    if kind not in KINDS:
        raise UnsupportedKindError(
            f"unknown spectrogram kind {kind!r}; expected one of {SPECTROGRAM_KINDS}"
        )
    return KINDS[kind]


def _check_kind_rules(kind: str, config: FrameConfig, clip: ClipMode) -> Kind:
    """``kind``'s table row, once ``config`` and ``clip`` obey its rules."""
    row = _kind(kind)
    if row.even_window and config.win_length % 2:
        raise InvalidConfigError(f"{kind} requires an even win_length, got {config.win_length}")
    if row.unsigned and clip.mode != "none":
        raise InvalidConfigError(f"{kind} spectrograms are already nonnegative; use clip none")
    return row


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
            if not (_finite(self.tau) and 0.0 < self.tau < 1.0):
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
        unsigned = _check_kind_rules(self.kind, self.config, self.clip).unsigned
        bins = expected_bins(self.kind, self.config.win_length)
        if data.shape[1] != bins:
            raise InvalidInputError(
                f"{self.kind} spectrogram at win={self.config.win_length} must have "
                f"{bins} bins per frame, got {data.shape[1]}"
            )
        _check_frame_count(data.shape[0], self.config, self.original_length)
        if not np.isfinite(data).all():
            raise InvalidInputError("spectrogram data contains NaN or Inf")
        if unsigned or self.clip.mode == "zero":
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
        if not _whole(self.sample_rate) or self.sample_rate <= 0:
            raise InvalidInputError(f"sample_rate must be a positive integer, got {self.sample_rate}")
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
    return _clip(a if mode.mode == "none" else a.copy(), mode)


def _clip(a: np.ndarray, mode: ClipMode) -> np.ndarray:
    """:func:`apply_clip` of ``a``, in place."""
    if not np.isfinite(a).all():
        raise InvalidInputError("cannot clip non-finite data")
    if mode.mode == "zero":
        np.maximum(a, 0.0, out=a)
    elif mode.mode == "threshold":
        np.copyto(a, 0.0, where=a <= mode.tau)
    return a


def _spectrum(x: Waveform, config: FrameConfig, kind: str, clip: ClipMode, workers: int) -> np.ndarray:
    """The clipped ``kind`` spectrogram data of ``x``, built ``_BLOCK_FRAMES`` frames at a time.

    Each block is windowed straight into its rows of the one output array
    (into a reused frame buffer when the kind has fewer bins than the
    window), transformed there and clipped while it is still in cache, so
    no whole-signal frame matrix or transform output is built.  Rows are
    transformed and clipped independently, so the bits are those of the
    whole-matrix transform and clip.
    """
    row = KINDS[kind]
    data = np.empty((_geometry(config, len(x))[0], expected_bins(kind, config.win_length)))
    for i, frames in _frame_blocks(x, config, _BLOCK_FRAMES, None if row.half_spectrum else data):
        _clip(row.forward(frames, data[i : i + len(frames)], workers), clip)
    return data


def analyze(
    x: Waveform,
    config: FrameConfig,
    kind: str,
    clip: ClipMode = ClipMode(),
    workers: int = 1,
) -> Spectrogram:
    """Forward pipeline: frame + window, per-frame transform, optional clip.

    Frames are windowed, transformed and clipped a block of
    ``_BLOCK_FRAMES`` at a time, in place in the spectrogram's rows, and
    the bits are those of the whole-matrix pipeline: ``frame_signal``, the
    kind's public transform of all frames, then ``apply_clip``.

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
    if not isinstance(clip, ClipMode):
        clip = ClipMode.parse(clip)
    workers = _count("workers", workers, 1)
    if len(x) == 0:
        raise InvalidInputError("cannot analyze an empty waveform")
    _check_kind_rules(kind, config, clip)
    return Spectrogram(kind, _spectrum(x, config, kind, clip, workers), config, clip, x.sample_rate, len(x))


def synthesize(spec: Spectrogram, workers: int = 1) -> Waveform:
    """Inverse pipeline: per-frame inverse transform, then overlap-add.

    Frames are inverted and added a block of ``_BLOCK_FRAMES`` at a time,
    in frame order, so no whole-signal frame matrix is built and the bits
    are those of ``overlap_add`` over all inverted frames.  Output has
    ``spec.original_length`` samples at ``spec.sample_rate``.  Magnitude
    spectrograms cannot be inverted here -- that would require the phase
    estimation this library exists to avoid.
    """
    inverse = KINDS[spec.kind].inverse
    if inverse is None:
        raise UnsupportedKindError(
            "magnitude spectrograms have no synthesis path (phase is gone); "
            "use real_fft, dct or packed_rfft"
        )
    workers = _count("workers", workers, 1)
    data = spec.data
    blocks = (inverse(data[i : i + _BLOCK_FRAMES], workers=workers) for i in range(0, len(data), _BLOCK_FRAMES))
    return Waveform(_overlap_add(blocks, spec.config, spec.original_length), spec.sample_rate)
