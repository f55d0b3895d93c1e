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
from typing import Callable, Iterator, NamedTuple

import numpy as np
import scipy.fft

from . import transforms
from .errors import (
    InvalidConfigError, InvalidInputError, SpecinvError, UnsupportedKindError, _choice, _config, _count, _finite, _need,
    _reals,
)
from .signal import (
    _CHUNK_SAMPLES, FrameConfig, Waveform, _check_frame_count, _frame_blocks, _geometry, _NameValue, _overlap_add,
    _rate, _Samples,
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
    spectrum = scipy.fft.rfft(frames, axis=-1, workers=workers)
    # out may be the frames themselves, wider than the half spectrum
    return np.abs(spectrum, out=out[:, : spectrum.shape[1]])


class Kind(NamedTuple):
    """Everything that differs between spectrogram kinds."""

    algo: str  # the CLI ``--algo`` name
    # (frames, out, workers): returns the transform of the frames, written into out, which may be frames
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
    if not (isinstance(kind, str) and kind in KINDS):
        raise UnsupportedKindError(
            f"unknown spectrogram kind {kind!r}; expected one of {SPECTROGRAM_KINDS}"
        )
    return KINDS[kind]


def _check_kind_rules(kind: str, config: FrameConfig, clip: ClipMode) -> Kind:
    """``kind``'s table row, once ``config`` is a FrameConfig and ``clip`` a ClipMode that obey its rules.

    Analysis, :class:`Spectrogram`, the MVS1 reader and ``bench.BenchSpec``
    all check a config and a clip here; only :func:`apply_clip`, which has
    no kind, checks its clip itself, in the same words.
    """
    row = _kind(kind)
    _config("config", config, FrameConfig)
    if not isinstance(clip, ClipMode):
        raise InvalidConfigError(f"clip must be a ClipMode, got {clip!r}")
    if row.even_window and config.win_length % 2:
        raise InvalidConfigError(f"{kind} requires an even win_length, got {config.win_length}")
    if row.unsigned and clip.mode != "none":
        raise InvalidConfigError(f"{kind} spectrograms are already nonnegative; use clip none")
    return row


@dataclass(frozen=True)
class ClipMode(_NameValue):
    """Coefficient clipping: ``none``, ``zero`` (ReLU) or ``threshold``.

    ``zero`` keeps only nonnegative coefficients; ``threshold`` zeroes
    everything at or below ``tau`` (a hard threshold, used for denoising;
    tau is in raw coefficient units and presumes [-1, 1] audio).
    """

    mode: str = "none"
    tau: float = 0.0
    _names, _keyed, _noun = CLIP_MODES, "threshold", "clip"
    _missing, _bad = "threshold clipping needs a level, e.g. 'threshold:0.05'", "bad threshold level"

    def __post_init__(self):
        if _choice("clip mode", self.mode, CLIP_MODES) == "threshold":
            if not (_finite(self.tau) and 0.0 < self.tau < 1.0):
                raise InvalidConfigError(
                    f"threshold tau must lie in (0, 1), got {self.tau}"
                )
        elif not _finite(self.tau) or self.tau != 0.0:
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


def expected_bins(kind: str, win_length: int) -> int:
    """Bin count per frame for a spectrogram kind at a given window length."""
    win_length = _count("win_length", win_length, 2)
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
        data = _reals("spectrogram data", self.data, 2)
        _check_metadata(self.kind, self.config, self.clip, self.sample_rate, self.original_length, *data.shape)
        for rows in _row_blocks(data):
            _check_rows(rows, self.kind, self.clip)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        object.__setattr__(self, "original_length", int(self.original_length))

    def _stream(self) -> "_Stream":
        """This spectrogram as a stream whose blocks are ``_BLOCK_FRAMES``-row views of ``data``."""
        return _Stream(self.kind, self.config, self.clip, self.sample_rate, self.original_length,
                       lambda: _row_blocks(self.data))

    def tau_floor(self) -> float:
        return _tau_floor(self.clip)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


def _row_blocks(data: np.ndarray):
    """``data``'s rows as views of ``_BLOCK_FRAMES`` rows each, in order."""
    return (data[i : i + _BLOCK_FRAMES] for i in range(0, len(data), _BLOCK_FRAMES))


def _tau_floor(clip: ClipMode) -> float:
    # Tolerance absorbs float32 container round-trips.
    return clip.tau * (1.0 - 1e-6)


def _check_metadata(kind, config, clip, sample_rate, original_length, n_frames, n_bins) -> None:
    """The :class:`Spectrogram` rules on everything but the data values: those of ``n_frames x n_bins`` data."""
    _check_kind_rules(kind, config, clip)
    bins = expected_bins(kind, config.win_length)
    if n_bins != bins:
        raise InvalidInputError(
            f"{kind} spectrogram at win={config.win_length} must have "
            f"{bins} bins per frame, got {n_bins}"
        )
    _check_frame_count(n_frames, config, original_length)
    _rate(sample_rate)


def _check_rows(rows: np.ndarray, kind: str, clip: ClipMode) -> None:
    """The :class:`Spectrogram` rules on data values, checked on a nonempty block of rows.

    Spectrogram checks its data a ``_row_blocks`` block at a time, as the
    MVS1 reader does, so both report the first fault of the same block.
    """
    if not np.isfinite(rows).all():
        raise InvalidInputError("spectrogram data contains NaN or Inf")
    if KINDS[kind].unsigned or clip.mode == "zero":
        if rows.min() < 0.0:
            raise InvalidInputError(
                f"{kind}/{clip.label()} spectrogram must be nonnegative"
            )
    elif clip.mode == "threshold":
        lo = _tau_floor(clip)
        if not ((rows == 0.0) | (rows > lo)).all():
            raise InvalidInputError(
                f"threshold-clipped spectrogram has entries in (0, {lo:g}]"
            )


def apply_clip(data, mode: ClipMode) -> np.ndarray:
    """Clip spectrogram coefficients elementwise.

    ``none`` returns the input unchanged; ``zero`` is ``max(v, 0)``;
    ``threshold`` keeps ``v`` only where ``v > tau``.  ``mode`` is a
    :class:`ClipMode`; ``ClipMode.parse`` reads one from a spec string
    such as ``"threshold:0.05"``.
    """
    if not isinstance(mode, ClipMode):
        raise InvalidConfigError(f"clip must be a ClipMode, got {mode!r}")
    a = _reals("clip input", data)
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


class _Stream(NamedTuple):
    """A checked spectrogram's metadata and its rows, streamed ``_BLOCK_FRAMES`` frames at a time.

    Every pipeline is a source of one (``_spectrum``, ``io._read_spec``,
    ``Spectrogram._stream``) piped into a sink (``_synthesis``,
    ``io._write_spec``, ``_collect``); ``signal._Samples`` is the same on
    the waveform side, where ``_spectrum`` is a sink and ``_synthesis`` a
    source.  The source has checked every
    metadata rule :class:`Spectrogram` applies before it returns; each row
    ``blocks()`` yields, in frame order, is checked (or clipped) as
    Spectrogram's value rules require.  A yielded block may be a reused
    buffer, valid only until the next; a ``Spectrogram``'s are views of its
    data.  Only analysis and the MVS1 reader, the sources ``_collect``
    takes, also accept ``blocks(out)``, which lands the blocks in ``out``'s
    rows (one row per frame) instead.
    """

    kind: str
    config: FrameConfig
    clip: ClipMode
    sample_rate: int
    original_length: int
    blocks: Callable[..., Iterator[np.ndarray]]


def _spectrum(x: _Samples, config: FrameConfig, kind: str, clip: ClipMode, workers) -> _Stream:
    """The clipped ``kind`` spectrogram of the samples ``x`` as a stream, once :func:`analyze`'s preconditions hold.

    The one analysis loop.  Each block is framed from ``x.chunks`` as they
    come, windowed straight into its rows, transformed there and clipped
    while it is still in cache, so no whole-signal frame matrix, padded
    copy or transform output is built.  A kind with
    fewer bins than the window is framed into a reused buffer instead and
    transformed into ``out``'s rows or that buffer's leading columns.
    Rows are transformed and clipped independently, so the bits are those
    of the whole-matrix transform and clip, and ``_clip`` finite-checks
    each block and leaves it as its clip mode requires.
    """
    workers = _count("workers", workers, 1)
    if x.length == 0:
        raise InvalidInputError("cannot analyze an empty waveform")
    row = _check_kind_rules(kind, config, clip)
    _geometry(config, x.length)

    def blocks(out=None):
        for i, frames in _frame_blocks(x.chunks, x.length, config, _BLOCK_FRAMES, None if row.half_spectrum else out):
            rows = frames if out is None or not row.half_spectrum else out[i : i + len(frames)]
            yield _clip(row.forward(frames, rows, workers), clip)

    return _Stream(kind, config, clip, x.sample_rate, x.length, blocks)


def _collect(stream: _Stream) -> Spectrogram:
    """The :class:`Spectrogram` of ``stream``: its blocks land in the rows of one array, wrapped with no rescan."""
    config = stream.config
    data = np.empty((_geometry(config, stream.original_length)[0], expected_bins(stream.kind, config.win_length)))
    for _ in stream.blocks(data):
        pass
    data.setflags(write=False)
    spec = object.__new__(Spectrogram)
    spec.__dict__.update(zip(stream._fields, stream[:-1]), data=data)  # every field but blocks
    return spec


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
    kind's public transform of all frames, then ``apply_clip``.  Each
    value is checked once, as it is clipped.

    Parameters
    ----------
    x : Waveform
        Input signal; must be nonempty.
    config : FrameConfig
        Framing parameters; ``packed_rfft`` needs an even win_length.
    kind : str
        One of ``real_fft``, ``dct``, ``packed_rfft``, ``magnitude``.
    clip : ClipMode
        Applied after the transform (``ClipMode.parse`` reads one from a
        spec string).  Magnitude spectrograms are already nonnegative, so
        any clip other than ``none`` is rejected.
    workers : int
        Worker threads for the batch transform (1 = single-threaded).
    """
    return _collect(_spectrum(_need("analyze", x, Waveform)._source(), config, kind, clip, workers))


def synthesize(spec: Spectrogram, workers: int = 1) -> Waveform:
    """Inverse pipeline: per-frame inverse transform, then overlap-add.

    Frames are inverted and added a block of ``_BLOCK_FRAMES`` at a time,
    in frame order, so no whole-signal frame matrix is built and the bits
    are those of ``overlap_add`` over all inverted frames.  Output has
    ``spec.original_length`` samples at ``spec.sample_rate``.  Magnitude
    spectrograms cannot be inverted here -- that would require the phase
    estimation this library exists to avoid.
    """
    return _waveform(_synthesis(_need("synthesize", spec, Spectrogram)._stream(), workers))


def _synthesis(stream: _Stream, workers, chunk: int | None = None) -> _Samples:
    """The samples of ``stream``: the one synthesis pipeline.

    Each block is inverted and handed straight to ``_overlap_add``, whose
    finished samples are the chunks: rolling ones of about ``chunk``
    samples, or with ``chunk`` None the whole output as one.  Each step
    inverts at most the frames that start within ``_CHUNK_SAMPLES`` output
    samples (at least one): at a hop near the window a whole block's
    transform output and temporaries would be several MB beside the
    output, while at a small hop the block stays whole, since every step
    costs ``ceil(win / hop)`` slice-adds.  A kind with no synthesis path,
    or bad ``workers``, is refused only once the blocks are drained, so a
    fault the stream's source finds (a bad MVS1 payload value, say) is
    reported first, as it is when the whole spectrogram is read or
    analyzed before synthesis.
    """
    inverse = KINDS[stream.kind].inverse
    blocks = stream.blocks()
    try:
        if inverse is None:
            raise UnsupportedKindError(
                "magnitude spectrograms have no synthesis path (phase is gone); "
                "use real_fft, dct or packed_rfft"
            )
        workers = _count("workers", workers, 1)
    except SpecinvError:
        for _ in blocks:
            pass
        raise
    step = max(1, _CHUNK_SAMPLES // stream.config.hop_length)
    frames = (inverse(rows[i : i + step], workers=workers) for rows in blocks for i in range(0, len(rows), step))
    chunks = _overlap_add(frames, stream.config, stream.original_length, chunk)
    return _Samples(stream.sample_rate, stream.original_length, chunks)


def _waveform(y: _Samples) -> Waveform:
    """The :class:`Waveform` of synthesis with no ``chunk``, whose one chunk is the whole output."""
    (samples,) = y.chunks
    return Waveform(samples, y.sample_rate)
