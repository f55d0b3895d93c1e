"""Windows, frame extraction and overlap-add reconstruction.

All three inversion pipelines share the same short-time machinery: a
signal is cut into hopped, windowed frames on the way in, and frames are
summed back with overlap-add (OLA) on the way out.  The window is applied
once, during analysis; OLA divides by the window overlap sum, which makes
the signed (unclipped) pipelines exactly invertible wherever that sum is
not vanishingly small.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, _choice, _config, _count, _finite, _need, _reals, _whole

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

# Samples the WAV reader and writer move per step, about what the rolling
# overlap-add finishes between two hand-offs, and about the values synthesis
# inverts per step (512 KB as float64).
_CHUNK_SAMPLES = 1 << 16


class _NameValue:
    """The ``name`` or ``keyed:VALUE`` spec format of a two-field dataclass ``(name, value)``.

    The one home of the format the ``--window`` and ``--clip`` flags take.
    A subclass names its valid ``_names``, the ``_keyed`` one among them
    that takes a float value, the ``_noun`` its errors call it, the
    ``_missing`` error for a bare ``_keyed`` and the ``_bad`` prefix of the
    error for a value that is not a float.
    """

    @classmethod
    def parse(cls, text: str):
        """Parse a spec such as ``"hann"``, ``"kaiser:8.5"``, ``"zero"`` or ``"threshold:0.05"``."""
        if not isinstance(text, str):
            raise InvalidConfigError(f"{cls._noun} spec must be a string, got {text!r}")
        name, _, tail = text.partition(":")
        if text in cls._names and text != cls._keyed:
            return cls(text)
        if name != cls._keyed:
            raise InvalidConfigError(f"unknown {cls._noun} spec {text!r}")
        if not tail:
            raise InvalidConfigError(cls._missing)
        try:
            value = float(tail)
        except ValueError:
            raise InvalidConfigError(f"{cls._bad} {tail!r}") from None
        return cls(name, value)

    def label(self) -> str:
        """The spec :meth:`parse` reads back as this value."""
        name, value = (getattr(self, f.name) for f in fields(self))
        return f"{name}:{value:g}" if name == self._keyed else name


@dataclass(frozen=True)
class WindowKind(_NameValue):
    """Analysis window selector: ``hann`` (periodic), ``kaiser`` or ``boxcar``.

    ``beta`` is the Kaiser shape parameter and must stay 0.0 for the other
    window names.
    """

    name: str = "hann"
    beta: float = 0.0
    _names, _keyed, _noun = WINDOW_NAMES, "kaiser", "window"
    _missing, _bad = "kaiser window needs a beta, e.g. 'kaiser:8.0'", "bad kaiser beta"

    def __post_init__(self):
        _choice("window", self.name, WINDOW_NAMES)
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
        for name, low in (("win_length", 2), ("hop_length", 1)):
            object.__setattr__(self, name, _count(name, getattr(self, name), low))
        if self.hop_length > self.win_length:
            raise InvalidConfigError(
                f"hop_length must satisfy 1 <= hop <= win_length, got "
                f"hop={self.hop_length} win={self.win_length}"
            )
        _config("window", self.window, WindowKind)
        if not isinstance(self.centered, (bool, np.bool_)):
            raise InvalidConfigError(f"centered must be True or False, got {self.centered!r}")
        object.__setattr__(self, "centered", bool(self.centered))


@dataclass(frozen=True, eq=False)
class Waveform:
    """A mono sample sequence with its sample rate.

    Samples are stored as float64 in nominal range [-1, 1] and must be
    finite; the constructor validates whatever array-like it gets and
    converts real-valued input to float64, so a float64 array is kept as
    it is, not copied.  Complex or non-numeric input is refused.  The
    samples are locked read-only once checked, as a Spectrogram's data
    is, so a float64 array passed in becomes read-only too.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = _reals("waveform", self.samples, 1)
        if not np.isfinite(samples).all():
            raise InvalidInputError("waveform contains NaN or Inf samples")
        object.__setattr__(self, "sample_rate", _rate(self.sample_rate))
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.shape[0]

    def _source(self) -> "_Samples":
        """This waveform as a sample stream whose one chunk is ``samples``."""
        return _Samples(self.sample_rate, len(self), (self.samples,))


class _Samples(NamedTuple):
    """A mono waveform's rate and length, and its samples as ``chunks``: the waveform side of ``vocoder._Stream``.

    ``chunks`` yields float64 arrays, in order, ``length`` samples in all,
    and is iterated once; a chunk may be a reused buffer, valid only until
    the next.  Its sources are a :class:`Waveform`, the WAV reader and
    synthesis; its sinks are analysis, the WAV writer and collection.
    """

    sample_rate: int
    length: int
    chunks: Iterable[np.ndarray]


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
        frames = _reals("frames", self.frames, 2)
        if frames.shape[1] != _config("config", self.config, FrameConfig).win_length:
            raise InvalidInputError(
                f"frame rows must have win_length={self.config.win_length} entries, "
                f"got {frames.shape[1]}"
            )
        object.__setattr__(self, "original_length", _check_frame_count(len(frames), self.config, self.original_length))
        object.__setattr__(self, "sample_rate", _rate(self.sample_rate))
        object.__setattr__(self, "frames", frames)


def make_window(kind: WindowKind, length: int) -> np.ndarray:
    """Build a window of ``length`` samples, values in [0, 1].

    hann is the periodic (DFT-symmetric) form ``0.5 - 0.5*cos(2*pi*n/N)``,
    which keeps overlap sums constant at hop = N/2, N/4, ...; kaiser is the
    symmetric zeroth-order-Bessel window; boxcar is all ones.
    """
    _config("window", kind, WindowKind)
    length = _count("window length", length, 2)
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


def _rate(sample_rate) -> int:
    """``sample_rate`` as an int once it is a whole number > 0, else an InvalidInputError.

    The one sample-rate rule of the containers: Waveform, FrameMatrix and Spectrogram.
    """
    if not _whole(sample_rate) or sample_rate <= 0:
        raise InvalidInputError(f"sample_rate must be a positive integer, got {sample_rate}")
    return int(sample_rate)


def _check_frame_count(n_frames: int, config: FrameConfig, original_length) -> int:
    """``original_length`` as an int once it is a whole number >= 0 that ``n_frames`` frames of ``config`` cover."""
    if not _whole(original_length) or original_length < 0:
        raise InvalidInputError(f"original_length must be a whole number >= 0, got {original_length!r}")
    original_length = int(original_length)
    expected = _geometry(config, original_length)[0]
    if n_frames != expected:
        raise InvalidInputError(
            f"{n_frames} frames do not match {original_length} samples at "
            f"win={config.win_length} hop={config.hop_length} "
            f"{'centered' if config.centered else 'uncentered'}: expected {expected}"
        )
    return original_length


def _frame_blocks(chunks, length: int, config: FrameConfig, block: int, out: np.ndarray | None = None):
    """Yield ``(i, frames)``: frames ``i .. i + len(frames) - 1`` of a signal, windowed, ``block`` at a time.

    The one framing engine, on the rule :func:`frame_signal` documents.  The
    signal is the ``length`` samples ``chunks`` yields in order: an
    in-memory :class:`Waveform`'s one array, or the WAV reader's chunks.  It
    is framed from a rolling window of the padded signal one block of frames
    wide: each block keeps the ``win - hop`` samples it shares with the one
    before and reads the rest from ``chunks``.  The block's frames are copied
    out of a strided view of that window into ``out[i : i + block]`` when
    ``out`` (one row per frame) is given, else into one ``(block, win)``
    buffer that every block reuses, and windowed there in place.  A window
    of ones (boxcar, kaiser:0) is not multiplied: that changes no bit, -0.0
    included.
    """
    win, hop = config.win_length, config.hop_length
    n, pad, span = _geometry(config, length)
    window = make_window(config.window, win)
    unit = (window == 1.0).all()  # boxcar, kaiser:0
    padded = np.zeros((min(block, n) - 1) * hop + win)
    view = np.lib.stride_tricks.sliding_window_view(padded, win)[::hop]
    buf = np.empty(view.shape) if out is None else None
    chunks, piece = iter(chunks), padded[:0]
    filled, left = pad, min(span - pad, length)  # padded[:filled] is read; left samples are still to read
    for i in range(0, n, block):
        if i:  # the last block was whole: keep what it shares with this one
            filled = win - hop
            padded[:filled] = padded[block * hop : block * hop + filled]
        need = (min(block, n - i) - 1) * hop + win
        while filled < need and left:
            if not len(piece):
                piece = next(chunks)
            take = min(len(piece), need - filled, left)
            padded[filled : filled + take] = piece[:take]
            piece, filled, left = piece[take:], filled + take, left - take
        padded[filled:need] = 0.0  # past the signal: the trailing pad
        frames = buf[: n - i] if out is None else out[i : i + block]
        np.copyto(frames, view[: len(frames)])
        if not unit:
            frames *= window
        yield i, frames
    for _ in chunks:  # uncentered framing can leave samples unread: read them, so the source checks them
        pass


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
    n = _geometry(_config("config", config, FrameConfig), len(_need("frame_signal", x, Waveform)))[0]
    ((_, frames),) = _frame_blocks((x.samples,), len(x), config, n)
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


def _overlap_add(blocks, config: FrameConfig, original_length: int, chunk: int | None = None):
    """Yield the normalized overlap-add of the frames ``blocks`` yields, in frame order, as finished samples.

    The one synthesis engine: each block of rows is added into an
    accumulator at its frame offset, so only a block of frames is ever
    held, and blocks arriving in ascending order keep every sample's frames
    in ascending order.  ``original_length`` fixes the frame count, which
    the blocks must cover exactly; no block may be longer than the first.

    A sample is final once every frame that reaches it is added.  With
    ``chunk`` given the accumulator rolls: whenever the next block would
    not fit, the samples before that block's first frame are divided, handed
    out as one array (at least about ``chunk`` samples, valid only until
    the next) and dropped, and the ``win - hop`` samples the later frames
    still reach move to the front.  With ``chunk`` None the accumulator
    holds the whole output, which is yielded as one array once at the end.

    The window sum is not built at full length.  Where all ``K =
    ceil(win/hop)`` frames that can reach a sample exist (samples ``q*hop
    + r`` with ``K - 1 <= q <= n - 1``), the sample sums the same window
    values in the same order, so the sum repeats with period ``hop``.  One
    overlap-add of ``min(n, 2K + 1)`` window rows gives the head before
    that region, one period of it and the last ``win - hop`` samples;
    finished samples are divided by them in place, the period tiled over
    the middle.
    """
    win, hop = config.win_length, config.hop_length
    n, pad, span = _geometry(config, original_length)
    end = max(span, pad + original_length)  # uncentered framing can leave a tail no frame covers; it stays +0.0
    k = -(-win // hop)
    m = min(n, 2 * k + 1)
    wsum = np.zeros((m - 1) * hop + win + hop)
    _ola(wsum, np.broadcast_to(make_window(config.window, win), (m, win)), hop)
    np.maximum(wsum, OLA_EPS, out=wsum)
    head = min(k - 1, n) * hop  # fewer than k frames: no periodic middle, head and tail meet

    def finished(stop):
        """The output samples among padded samples ``[base, stop)``, once they are divided by the window sum."""
        lo = max(base, min(stop, head))
        acc[: lo - base] /= wsum[base:lo]
        hi = max(lo, min(stop, n * hop))
        acc[lo - base : hi - base].reshape(-1, hop)[:] /= wsum[head : head + hop]
        lo, hi = hi, max(hi, min(stop, span))
        acc[lo - base : hi - base] /= wsum[lo - (n - m) * hop : hi - (n - m) * hop]
        lo = max(pad, base)
        return acc[lo - base : max(lo, min(stop, pad + original_length)) - base]

    acc = np.zeros(end + hop) if chunk is None else None  # acc[0] is padded sample base
    base = done = 0  # done frames are added
    for rows in blocks:
        room = rows.shape[0] * hop + win  # what _ola reaches from the block's first frame
        if acc is None:
            acc = np.zeros(min(end + hop, chunk + room))
        elif done * hop - base + room > len(acc):
            yield finished(done * hop)
            shift, base = done * hop - base, done * hop
            acc[: win - hop] = acc[shift : shift + win - hop]
            acc[win - hop : shift + win - hop] = 0.0
        _ola(acc[done * hop - base :], rows, hop)
        done += rows.shape[0]
    yield finished(end)


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
    (y,) = _overlap_add((_need("overlap_add", frames, FrameMatrix).frames,), frames.config, frames.original_length)
    return Waveform(y, frames.sample_rate)
