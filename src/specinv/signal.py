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

from .errors import InvalidConfigError, InvalidInputError, _finite, _whole

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
        if not _finite(self.beta) or self.beta < 0:
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
        if not _whole(self.win_length) or self.win_length < 2:
            raise InvalidConfigError(f"win_length must be an integer >= 2, got {self.win_length}")
        if not _whole(self.hop_length) or not 1 <= self.hop_length <= self.win_length:
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
    finite; the constructor validates whatever array-like it gets and
    converts it with ``np.asarray``, so a float64 array is kept as it is,
    not copied.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidInputError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.isfinite(samples).all():
            raise InvalidInputError("waveform contains NaN or Inf samples")
        if not _whole(self.sample_rate) or self.sample_rate <= 0:
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
    if not _whole(length) or length < 2:
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
    if not _whole(original_length) or original_length < 0:
        raise InvalidInputError(f"original_length must be a whole number >= 0, got {original_length!r}")
    expected = _geometry(config, original_length)[0]
    if n_frames != expected:
        raise InvalidInputError(
            f"{n_frames} frames do not match {original_length} samples at "
            f"win={config.win_length} hop={config.hop_length} "
            f"{'centered' if config.centered else 'uncentered'}: expected {expected}"
        )


def _frame_blocks(x: Waveform, config: FrameConfig, block: int, out: np.ndarray | None = None):
    """Yield ``(i, frames)``: frames ``i .. i + len(frames) - 1`` of ``x``, windowed, ``block`` at a time.

    The one framing engine, on the rule :func:`frame_signal` documents.  The
    signal is padded once; each block is windowed from a strided view of it
    straight into ``out[i : i + block]`` when ``out`` (one row per frame) is
    given, else into one ``(block, win)`` buffer that every block reuses.
    """
    win = config.win_length
    n, pad, span = _geometry(config, len(x))
    kept = x.samples[: span - pad]
    padded = np.zeros(span)
    padded[pad : pad + kept.shape[0]] = kept
    view = np.lib.stride_tricks.sliding_window_view(padded, win)[:: config.hop_length]
    window = make_window(config.window, win)
    buf = np.empty((min(block, n), win)) if out is None else None
    for i in range(0, n, block):
        rows = view[i : i + block]
        yield i, np.multiply(rows, window, out=buf[: len(rows)] if out is None else out[i : i + block])


def frame_signal(x: Waveform, config: FrameConfig) -> FrameMatrix:
    """Slice ``x`` into hopped frames and apply the analysis window.

    Frame ``f`` covers padded samples ``[f*hop, f*hop + win)``.  When
    ``config.centered``, the signal is first padded with ``win//2`` zeros on
    each side and a trailing zero-padded frame is added if a partial hop
    remains, so every padded sample is covered by at least one frame.
    Uncentered framing keeps full frames only and requires the signal to be
    at least one window long.  This is the single-block case of the engine
    analysis runs on.
    """
    ((_, frames),) = _frame_blocks(x, config, _geometry(config, len(x))[0])
    return FrameMatrix(frames, config, len(x), x.sample_rate)


def _ola(out: np.ndarray, rows: np.ndarray, hop: int) -> None:
    """Add the ``(n, win)`` rows, row ``f`` starting at sample ``f*hop``, into ``out`` in place.

    ``out`` must hold at least ``(n - 1)*hop + win + hop`` samples: the
    last block's hop-wide slots may run up to ``hop - 1`` past the frames.
    Column block ``k`` of every row (``rows[:, k*hop:(k+1)*hop]``) lands in
    a disjoint hop-wide slot at ``(f + k)*hop``, so one in-place add places
    a whole block.  Blocks go in descending ``k``, so the sample at
    ``q*hop + r`` receives frames ``q - k`` in ascending order, the order
    of a per-frame loop.
    """
    n, win = rows.shape
    for k in reversed(range(-(-win // hop))):
        out[k * hop : (k + n) * hop].reshape(n, hop)[:, : win - k * hop] += rows[:, k * hop : (k + 1) * hop]


def _overlap_add(blocks, config: FrameConfig, original_length: int) -> np.ndarray:
    """Normalized overlap-add of the frames ``blocks`` yields, in frame order, as samples.

    The one synthesis engine: each block of rows is added into one
    accumulator at its frame offset, so only a block of frames is ever
    held, and blocks arriving in ascending order keep every sample's frames
    in ascending order.  ``original_length`` fixes the frame count, which
    the blocks must cover exactly.

    The window sum is not built at full length.  Where all ``K =
    ceil(win/hop)`` frames that can reach a sample exist (samples ``q*hop
    + r`` with ``K - 1 <= q <= n - 1``), the sample sums the same window
    values in the same order, so the sum repeats with period ``hop``.  One overlap-add of
    ``min(n, 2K + 1)`` window rows gives the head before that region, one
    period of it and the last ``win - hop`` samples; the accumulator is
    divided by them in place, the period tiled over the middle.
    """
    win, hop = config.win_length, config.hop_length
    n, pad, span = _geometry(config, original_length)
    # Uncentered framing can leave a tail no frame covers; it stays +0.0, as 0 / OLA_EPS is.
    acc = np.zeros(max(span, pad + original_length) + hop)
    first = 0
    for rows in blocks:
        _ola(acc[first * hop :], rows, hop)
        first += rows.shape[0]
    k = -(-win // hop)
    m = min(n, 2 * k + 1)
    wsum = np.zeros((m - 1) * hop + win + hop)
    _ola(wsum, np.broadcast_to(make_window(config.window, win), (m, win)), hop)
    np.maximum(wsum, OLA_EPS, out=wsum)
    head = min(k - 1, n) * hop  # fewer than k frames: no periodic middle, head and tail meet
    acc[:head] /= wsum[:head]
    acc[head : n * hop].reshape(-1, hop)[:] /= wsum[head : head + hop]
    acc[n * hop : span] /= wsum[m * hop : (m - 1) * hop + win]
    return acc[pad : pad + original_length]


def overlap_add(frames: FrameMatrix) -> Waveform:
    """Reconstruct a waveform from frames by normalized overlap-add.

    Output sample ``y[n] = sum_f frames[f][n - f*hop] / max(sum_f w[n - f*hop],
    OLA_EPS)``.  Frames are added in ascending order, so the result is
    bit-reproducible, and the window sum is the overlap-add of the window.
    Centering pads are trimmed and the samples uncentered framing dropped
    past its last full frame come back as zeros, so the output has
    ``original_length`` samples.  This is the single-block case of the
    engine synthesis runs on.
    """
    y = _overlap_add((frames.frames,), frames.config, frames.original_length)
    return Waveform(y, frames.sample_rate)
