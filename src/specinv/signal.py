"""Windows, frame extraction and overlap-add reconstruction.

All three inversion pipelines share the same short-time machinery: a
signal is cut into hopped, windowed frames on the way in, and frames are
summed back with overlap-add (OLA) on the way out.  The window is applied
once, during analysis; OLA divides by the window overlap sum, which makes
the signed (unclipped) pipelines exactly invertible wherever that sum is
not vanishingly small.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError

__all__ = [
    "OLA_EPS",
    "WindowKind",
    "FrameConfig",
    "Waveform",
    "FrameMatrix",
    "make_window",
    "frame_signal",
    "overlap_add",
]

# Floor on the OLA window-sum denominator.  Samples no window covers come
# out as (0 / OLA_EPS) = 0 instead of dividing by zero.
OLA_EPS = 1e-8

# Positions are the MVS1 window codes (see io.py): append, never reorder.
WINDOW_NAMES = ("hann", "kaiser", "boxcar")


def parse_name_value(cls, text: str, names, keyed: str, what: str, missing: str, bad: str):
    """Parse a ``name`` or ``keyed:VALUE`` spec into ``cls(name[, value])``.

    ``names`` are the valid names; ``keyed`` is the one among them that
    takes a float value.  ``missing`` is the error for a bare ``keyed``;
    ``bad`` prefixes the error for a value that is not a float.
    """
    name, _, tail = text.partition(":")
    if text in names and text != keyed:
        return cls(text)
    if name != keyed:
        raise InvalidConfigError(f"unknown {what} spec {text!r}")
    if not tail:
        raise InvalidConfigError(missing)
    try:
        value = float(tail)
    except ValueError:
        raise InvalidConfigError(f"{bad} {tail!r}") from None
    return cls(name, value)


@dataclass(frozen=True)
class WindowKind:
    """Analysis window selector: ``hann`` (periodic), ``kaiser`` or ``boxcar``.

    ``beta`` is the Kaiser shape parameter and must stay 0.0 for the other
    window names.
    """

    name: str = "hann"
    beta: float = 0.0

    def __post_init__(self):
        if self.name not in WINDOW_NAMES:
            raise InvalidConfigError(
                f"unknown window {self.name!r}; expected one of {WINDOW_NAMES}"
            )
        if not np.isfinite(self.beta) or self.beta < 0:
            raise InvalidConfigError(f"kaiser beta must be >= 0, got {self.beta}")
        # np.kaiser divides by i0(beta), which overflows float64 above beta ~709.78.
        if self.beta > 709.0:
            raise InvalidConfigError(f"kaiser beta must be <= 709, got {self.beta}")
        if self.name != "kaiser" and self.beta != 0.0:
            raise InvalidConfigError("beta is only meaningful for kaiser windows")

    @classmethod
    def hann(cls) -> "WindowKind":
        return cls("hann")

    @classmethod
    def boxcar(cls) -> "WindowKind":
        return cls("boxcar")

    @classmethod
    def kaiser(cls, beta: float) -> "WindowKind":
        return cls("kaiser", float(beta))

    @classmethod
    def parse(cls, text: str) -> "WindowKind":
        """Parse ``"hann"``, ``"boxcar"`` or ``"kaiser:BETA"``."""
        return parse_name_value(
            cls, text, WINDOW_NAMES, "kaiser", "window",
            missing="kaiser window needs a beta, e.g. 'kaiser:8.0'",
            bad="bad kaiser beta",
        )

    def label(self) -> str:
        if self.name == "kaiser":
            return f"kaiser:{self.beta:g}"
        return self.name


@dataclass(frozen=True)
class FrameConfig:
    """Framing parameters: window length, hop, window kind and centering.

    ``centered`` pads ``win_length // 2`` zeros on each side before framing,
    which keeps the signal ends fully covered and removes edge spikes.
    """

    win_length: int
    hop_length: int
    window: WindowKind = field(default_factory=WindowKind)
    centered: bool = True

    def __post_init__(self):
        if int(self.win_length) != self.win_length or self.win_length < 2:
            raise InvalidConfigError(f"win_length must be an integer >= 2, got {self.win_length}")
        if int(self.hop_length) != self.hop_length or not 1 <= self.hop_length <= self.win_length:
            raise InvalidConfigError(
                f"hop_length must satisfy 1 <= hop <= win_length, got "
                f"hop={self.hop_length} win={self.win_length}"
            )
        if not isinstance(self.window, WindowKind):
            raise InvalidConfigError("window must be a WindowKind")


@dataclass(frozen=True, eq=False)
class Waveform:
    """A mono sample sequence with its sample rate.

    Samples are stored as float64 in nominal range [-1, 1] and must be
    finite; the constructor copies/validates whatever array-like it gets.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidInputError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise InvalidInputError("waveform contains NaN or Inf samples")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise InvalidInputError(f"sample_rate must be a positive integer, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return len(self) / self.sample_rate


@dataclass(frozen=True, eq=False)
class FrameMatrix:
    """Windowed frames plus everything needed to undo the framing.

    ``original_length`` is the pre-padding sample count of the source
    signal, so overlap-add can trim its output back to size.
    """

    frames: np.ndarray
    config: FrameConfig
    original_length: int
    sample_rate: int

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2:
            raise InvalidInputError(f"frames must be 2-D, got shape {frames.shape}")
        if frames.shape[1] != self.config.win_length:
            raise InvalidInputError(
                f"frame rows must have win_length={self.config.win_length} entries, "
                f"got {frames.shape[1]}"
            )
        _check_frame_count(frames.shape[0], self.config, self.original_length)
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def make_window(kind: WindowKind, length: int) -> np.ndarray:
    """Build a window of ``length`` samples, values in [0, 1].

    hann is the periodic (DFT-symmetric) form ``0.5 - 0.5*cos(2*pi*n/N)``,
    which keeps overlap sums constant at hop = N/2, N/4, ...; kaiser is the
    symmetric zeroth-order-Bessel window; boxcar is all ones.
    """
    if int(length) != length or length < 2:
        raise InvalidConfigError(f"window length must be an integer >= 2, got {length}")
    length = int(length)
    if kind.name == "hann":
        n = np.arange(length)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    if kind.name == "boxcar":
        return np.ones(length)
    return np.kaiser(length, kind.beta)


def _geometry(config: FrameConfig, length: int) -> tuple[int, int, int]:
    """``(n_frames, pad, span)`` of a ``length``-sample signal under ``config``.

    The one home of the framing rule :func:`frame_signal` documents: ``pad``
    zeros lead the signal and the frames cover ``span = (n_frames - 1) * hop
    + win`` padded samples, which is fewer than ``length`` when uncentered
    framing drops a partial last hop.
    """
    win, hop = config.win_length, config.hop_length
    pad = win // 2 if config.centered else 0
    n = length + 2 * pad
    if n < win:
        raise InvalidInputError(
            f"signal of {length} samples is shorter than one {win}-sample frame"
            + ("" if config.centered else " (uncentered)")
        )
    n_frames = 1 + (n - win) // hop
    if config.centered and (n - win) % hop:
        n_frames += 1
    return n_frames, pad, (n_frames - 1) * hop + win


def _check_frame_count(n_frames: int, config: FrameConfig, original_length: int) -> None:
    if original_length < 0:
        raise InvalidInputError("original_length must be >= 0")
    expected = _geometry(config, original_length)[0]
    if n_frames != expected:
        raise InvalidInputError(
            f"{n_frames} frames do not match {original_length} samples at "
            f"win={config.win_length} hop={config.hop_length} "
            f"{'centered' if config.centered else 'uncentered'}: expected {expected}"
        )


def frame_signal(x: Waveform, config: FrameConfig) -> FrameMatrix:
    """Slice ``x`` into hopped frames and apply the analysis window.

    Frame ``f`` covers padded samples ``[f*hop, f*hop + win)``.  When
    ``config.centered``, the signal is first padded with ``win//2`` zeros on
    each side and a trailing zero-padded frame is added if a partial hop
    remains, so every padded sample is covered by at least one frame.
    Uncentered framing keeps full frames only and requires the signal to be
    at least one window long.
    """
    win = config.win_length
    _, pad, span = _geometry(config, len(x))
    kept = x.samples[: span - pad]
    padded = np.zeros(span)
    padded[pad : pad + kept.shape[0]] = kept
    frames = np.lib.stride_tricks.sliding_window_view(padded, win)[:: config.hop_length]
    return FrameMatrix(frames * make_window(config.window, win), config, len(x), x.sample_rate)


def overlap_add(frames: FrameMatrix) -> Waveform:
    """Reconstruct a waveform from frames by normalized overlap-add.

    Output sample ``y[n] = sum_f frames[f][n - f*hop] / max(sum_f w[n - f*hop],
    OLA_EPS)``; frames are accumulated in ascending order so the result is
    bit-reproducible.  Centering pads are trimmed and the samples uncentered
    framing dropped past its last full frame come back as zeros, so the
    output has ``original_length`` samples.
    """
    config = frames.config
    win = config.win_length
    hop = config.hop_length
    data = frames.frames
    n_out = frames.original_length
    _, pad, span = _geometry(config, n_out)

    # Uncentered framing can leave a tail no frame covers; it comes out as 0 / OLA_EPS = +0.0.
    acc = np.zeros(max(span, pad + n_out))
    wsum = np.zeros(acc.shape[0])
    w = make_window(config.window, win)
    for f in range(frames.n_frames):
        start = f * hop
        acc[start : start + win] += data[f]
        wsum[start : start + win] += w
    y = acc[pad : pad + n_out] / np.maximum(wsum[pad : pad + n_out], OLA_EPS)
    return Waveform(y, frames.sample_rate)
