"""WAV audio input/output and the MVS1 binary spectrogram container.

WAV support covers RIFF/WAVE files holding PCM16, PCM24, PCM32 or IEEE
float32 samples.  Integer samples are normalized by full scale (PCM16 by
32768); multi-channel files are reduced to channel 0 with a warning.

There is one WAV reader and one WAV writer, and both move samples
_CHUNK_SAMPLES at a time.  The reader walks every chunk header against
the file size and checks the codec before it reads a sample, then reads
each chunk of sample frames into one reused buffer and decodes channel 0
into another: integer PCM in one division by full scale, float32 once
every channel of the chunk is checked finite.  The writer checks and
writes the header, which the rate and length alone fix, then encodes each
chunk in reused buffers and writes it.  read_wav and wav_info are the
reader's collect and drain cases.  _write_wav is the writer and the CLI's
sink, fed the samples synthesis finishes; write_wav is its whole-array
case, fed a Waveform's samples.

The MVS1 container is a little-endian, bit-exact interchange format:

    offset  size  field
    0       4     magic "MVS1"
    4       2     version (u16, = 1)
    6       1     kind (0 real_fft, 1 dct, 2 packed_rfft, 3 magnitude)
    7       1     window (0 hann, 1 kaiser, 2 boxcar)
    8       1     clip (0 none, 1 zero, 2 threshold)
    9       4     clip_tau (f32)
    13      4     kaiser_beta (f32)
    17      4     win_length (u32)
    21      4     hop_length (u32)
    25      1     centered (0/1)
    26      4     sample_rate (u32)
    30      8     original_length (u64)
    38      4     n_frames (u32)
    42      4     n_bins (u32)
    46      -     payload: n_frames * n_bins f32 values, frame-major

n_frames must equal the frame count of original_length samples at the
header's win_length, hop_length and centered flag (see frame_signal);
read_spec rejects any other value as a FormatError before anything is
sized by original_length.  The per-kind rules of vocoder.KINDS hold too:
packed_rfft needs an even win_length and magnitude needs clip none.

There is one MVS1 reader and one MVS1 writer, and both move the payload a
block of _BLOCK_FRAMES frames at a time.  The reader checks the header,
the payload size and the spectrogram metadata before it sizes anything,
then reads each block into one reused float32 buffer, widens it to
float64 and checks it with the value rules Spectrogram uses.  The writer
checks the whole header, which the metadata alone fixes, then casts each
block into one reused float32 buffer while it is still in cache and
writes it.  read_spec and write_spec are their whole-array case:
read_spec lands the blocks in one preallocated array, scanned once, and
write_spec writes row blocks of spec.data with no whole float32 copy.
The CLI streams through them without holding a whole spectrogram:
``analyze`` writes the analysis blocks, ``synthesize`` inverts the
blocks it reads, and ``info`` (spec_info) checks every block, so it
validates the whole file, payload included, the way ``synthesize`` does.  A file write_spec writes always
reads back: a tau or beta that is invalid once rounded to float32, a
payload value beyond float32 range or a header value too wide for its
field raises InvalidInputError, and no file is left behind.

The CLI streams the WAV side too.  ``analyze`` frames the WAV reader's
chunks as they come; ``synthesize`` hands the writer the samples the
rolling overlap-add finishes; ``roundtrip`` does both.  None of them holds
a waveform-sized array, except ``roundtrip --report``, whose snr_db and
mcd need the input and the output whole.

This module is the one layer that knows the two containers:
- ``_seekable`` holds the pipe rule.  A pipe, whose size is known only
  once it is read, is read whole first, by both readers and by ``info``.
- ``_info`` is ``info``'s sniffing: it picks the WAV or the MVS1 reader by
  the file's magic bytes.
- ``_payload`` is the one payload read loop of both readers: a fixed
  number of rows at a time into one reused buffer, where a short read is
  a FormatError naming the rows it cut.
- Both writers encode into reused buffers: the WAV writer a chunk of
  samples at a time, the MVS1 writer a block of float32 rows.

Writes go through a temp file in the destination directory followed by an
atomic rename, so a failed run, even one that fails partway through the
payload, never leaves a partial file.  Concurrent writes to one path are
undefined.
"""
from __future__ import annotations

import io
import itertools
import os
import struct
import tempfile
import warnings

import numpy as np

from .errors import FormatError, InvalidInputError, UnsupportedCodecError, _need
from .signal import _CHUNK_SAMPLES, WINDOW_NAMES, FrameConfig, Waveform, WindowKind, _geometry, _Samples
from .vocoder import (
    _BLOCK_FRAMES, CLIP_MODES, SPECTROGRAM_KINDS, ClipMode, Spectrogram, _check_metadata, _check_rows, _collect,
    _Stream, expected_bins,
)

__all__ = [
    "MultiChannelWarning",
    "read_wav",
    "write_wav",
    "wav_info",
    "read_spec",
    "write_spec",
    "spec_info",
]

SPEC_MAGIC = b"MVS1"
SPEC_VERSION = 1
# MVS1 header field -> struct code, in file order (see the module docstring)
_HEADER_FIELDS = {
    "magic": "4s", "version": "H", "kind": "B", "window": "B", "clip": "B", "clip_tau": "f",
    "kaiser_beta": "f", "win_length": "I", "hop_length": "I", "centered": "B",
    "sample_rate": "I", "original_length": "Q", "n_frames": "I", "n_bins": "I",
}
_HEADER = struct.Struct("<" + "".join(_HEADER_FIELDS.values()))
# Enum fields: a code is the name's position in its tuple.
_ENUMS = (("kind", SPECTROGRAM_KINDS), ("window", WINDOW_NAMES), ("clip", CLIP_MODES))

_WAVE_PCM = 0x0001
_WAVE_IEEE_FLOAT = 0x0003
# write_wav encoding -> (format code, bytes per sample)
_WAV_ENCODINGS = {"pcm16": (_WAVE_PCM, 2), "float32": (_WAVE_IEEE_FLOAT, 4)}
# RIFF header, fmt chunk and data chunk header of the WAVs write_wav writes
_WAV_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")
# (format code, bits) read_wav decodes -> the type its samples are read as (PCM24 widened to int32)
_WAV_DECODE = {(_WAVE_PCM, 16): "<i2", (_WAVE_PCM, 24): "<i4", (_WAVE_PCM, 32): "<i4", (_WAVE_IEEE_FLOAT, 32): "<f4"}


class MultiChannelWarning(UserWarning):
    """Raised when a multi-channel WAV is reduced to channel 0."""


def _f32(values: np.ndarray, what: str, out: np.ndarray) -> np.ndarray:
    """``values`` cast into the leading rows of the little-endian float32 buffer ``out``, refusing any that overflow."""
    try:
        with np.errstate(over="raise"):
            np.copyto(out[: len(values)], values, casting="same_kind")
            return out[: len(values)]
    except FloatingPointError:
        raise InvalidInputError(f"{what} exceed the float32 range (max {np.finfo(np.float32).max:g})") from None


def _seekable(fh):
    """``fh``, or, if it is a pipe, whose size is known only once it is read, a seekable copy of all of it."""
    return fh if fh.seekable() else io.BytesIO(fh.read())


def _payload(fh, at: int, n: int, per: int, row: int, dtype, what: str, unit: str):
    """``(i, rows)`` for the ``n`` rows of ``row`` ``dtype`` values at byte ``at`` of ``fh``: the one payload read loop.

    The rows are read ``per`` at a time, from row ``i``, into one reused
    buffer, so each is valid only until the next; a short read is a
    :class:`FormatError` naming ``what`` and the ``unit``s it cut.
    """
    stored = np.empty((min(n, per), row), dtype)
    fh.seek(at)
    for i in range(0, n, per):
        rows = stored[: n - i]
        if fh.readinto(rows) != rows.nbytes:
            raise FormatError(f"{what} ended early, in {unit} {i}..{i + len(rows) - 1}")
        yield i, rows


def _info(fh) -> dict:
    """What ``specinv info`` prints of the open binary file ``fh``: its :func:`wav_info` or :func:`spec_info`.

    Which one is chosen by the magic bytes; a pipe is read whole first, so
    the chosen reader reads them again with the rest.
    """
    name, fh = fh.name, _seekable(fh)
    magic = fh.read(4)
    fh.seek(0)
    info = {b"RIFF": _wav_info, SPEC_MAGIC: _spec_info}.get(magic)
    if info is None:
        raise FormatError(f"{name}: neither a WAV nor an MVS1 file (magic {magic!r})")
    return info(fh)


def _atomic_write(path, chunks) -> None:
    """Write the iterable ``chunks`` (bytes or C-ordered arrays, whose buffers are written as they are) to ``path``.

    ``chunks`` may be a generator: each chunk is written as it comes, and a
    failure while it runs leaves no file behind.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# WAV
# ---------------------------------------------------------------------------

def _read_wav(fh) -> tuple[dict, _Samples]:
    """The one WAV reader: the header metadata of the open binary file ``fh`` and its channel-0 samples.

    Every chunk header is walked and checked against the file's size, and
    the codec, before any sample is read.  The samples are a stream whose
    chunks are ``_CHUNK_SAMPLES`` sample frames read into one reused
    buffer and decoded into another: integer PCM in one division by full
    scale (PCM24 is first widened to the top three bytes of an int32),
    float32 once checked finite on every channel.  Any fault is a
    :class:`FormatError` or :class:`UnsupportedCodecError`.
    """
    fh = _seekable(fh)
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    raw = fh.read(12)
    if len(raw) < 12:
        raise FormatError(f"not a RIFF file: only {len(raw)} bytes")
    if raw[0:4] != b"RIFF":
        raise FormatError(f"bad RIFF magic {raw[0:4]!r}")
    if raw[8:12] != b"WAVE":
        raise FormatError(f"bad WAVE id {raw[8:12]!r}")
    fmt = data = None
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
        if pos + 8 + chunk_size > size:
            raise FormatError(f"chunk {chunk_id!r} declares {chunk_size} bytes but only {size - pos - 8} remain")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError(f"fmt chunk too short ({chunk_size} bytes)")
            fmt = struct.unpack("<HHIIHH", fh.read(16))
        elif chunk_id == b"data":
            data = (pos + 8, chunk_size)
        pos += 8 + chunk_size + chunk_size % 2  # chunks are word-aligned
    if fmt is None:
        raise FormatError("missing fmt chunk")
    if data is None:
        raise FormatError("missing data chunk")
    fmt_code, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise FormatError("fmt chunk declares zero channels")
    if sample_rate < 1:
        raise FormatError("fmt chunk declares a zero sample rate")
    if (fmt_code, bits) not in _WAV_DECODE:
        raise UnsupportedCodecError(f"unsupported WAV encoding: format code {fmt_code}, {bits} bits")
    data_at, data_size = data
    frame_bytes = bits // 8 * channels
    if data_size % frame_bytes:
        raise FormatError(f"data chunk of {data_size} bytes is not a whole number of {frame_bytes}-byte sample frames")
    n = data_size // frame_bytes
    meta = {
        "format": "pcm" if fmt_code == _WAVE_PCM else "float",
        "bits": bits,
        "channels": channels,
        "sample_rate": sample_rate,
        "n_samples": n,
        "duration_s": n / sample_rate,
    }

    def chunks():
        wide = np.zeros((min(n, _CHUNK_SAMPLES), 4), np.uint8)  # PCM24 channel 0, widened to int32
        out = np.empty(len(wide))
        for _, frames in _payload(fh, data_at, n, _CHUNK_SAMPLES, frame_bytes, np.uint8, "data chunk", "samples"):
            if bits == 24:
                wide[: len(frames), 1:] = frames[:, :3]
                frames = wide[: len(frames)]
            values = frames.view(_WAV_DECODE[fmt_code, bits])
            if fmt_code == _WAVE_IEEE_FLOAT:
                if not np.isfinite(values).all():
                    raise FormatError("data chunk contains non-finite float samples")
                np.copyto(out[: len(frames)], values[:, 0])
            else:
                np.divide(values[:, 0], 2.0 ** (8 * values.itemsize - 1), out=out[: len(frames)])
            yield out[: len(frames)]

    return meta, _Samples(sample_rate, n, chunks())


def _read_mono(fh) -> _Samples:
    """The channel-0 samples of the open WAV file ``fh``, with :func:`read_wav`'s warning when it has more."""
    meta, x = _read_wav(fh)
    if meta["channels"] > 1:
        message = f"{fh.name}: {meta['channels']} channels; using channel 0 only"
        warnings.warn(message, MultiChannelWarning, stacklevel=3)
    return x


def read_wav(path) -> Waveform:
    """Read a WAV file into a normalized mono :class:`Waveform`.

    Raises ``FileNotFoundError`` for a missing file, :class:`FormatError`
    for malformed RIFF data and :class:`UnsupportedCodecError` for
    encodings outside {PCM16, PCM24, PCM32, float32}.  This is the one WAV
    reader with its chunks landing in one array.
    """
    with open(path, "rb") as fh:
        x = _read_mono(fh)
        samples = np.empty(x.length)
        for i, chunk in zip(range(0, x.length, _CHUNK_SAMPLES), x.chunks):
            samples[i : i + len(chunk)] = chunk
    return Waveform(samples, x.sample_rate)


def wav_info(path) -> dict:
    """Header metadata of a WAV file without channel reduction."""
    with open(path, "rb") as fh:
        return _wav_info(fh)


def _wav_info(fh) -> dict:
    """:func:`wav_info` of the open binary file ``fh``: its header, once every sample is read and checked."""
    meta, x = _read_wav(fh)
    for _ in x.chunks:
        pass
    return meta


def write_wav(path, x: Waveform, encoding: str = "float32") -> None:
    """Write a mono waveform as PCM16 or float32 WAV.

    pcm16 clamps to [-1, 1] and scales by 32767 with round-half-away-from-
    zero; float32 stores samples verbatim.  This is the one WAV writer fed
    ``x.samples`` as one chunk.
    """
    _write_wav(path, _need("write_wav", x, Waveform)._source(), encoding)


def _write_wav(path, x: _Samples, encoding: str) -> None:
    """The one WAV writer: the header of the sample stream ``x``, then its samples encoded as ``encoding``.

    Every header check runs, and the header, which the rate and length
    fix, is built before any sample is encoded.  Samples are encoded
    ``_CHUNK_SAMPLES`` at a time in reused buffers and written through the
    atomic temp file, which a failure partway through removes.  They are
    finite: those of a :class:`Waveform`, or synthesis of float32-range
    MVS1 values or of WAV samples, neither of which can overflow float64.
    """
    if not (isinstance(encoding, str) and encoding in _WAV_ENCODINGS):
        raise InvalidInputError(f"unknown encoding {encoding!r}; use {' or '.join(map(repr, _WAV_ENCODINGS))}")
    fmt_code, block_align = _WAV_ENCODINGS[encoding]
    byte_rate = x.sample_rate * block_align
    data_size = x.length * block_align
    # The byte rate bounds the sample-rate field and the RIFF size bounds the data size.
    for field, value in (("byte rate", byte_rate), ("RIFF size", 36 + data_size)):
        if value > 0xFFFFFFFF:
            raise InvalidInputError(f"WAV {field} {value} does not fit in 32 bits")
    header = _WAV_HEADER.pack(
        b"RIFF", 36 + data_size, b"WAVE", b"fmt ", 16, fmt_code, 1, x.sample_rate, byte_rate, block_align,
        8 * block_align, b"data", data_size,
    )

    def encoded():
        out = np.empty(_CHUNK_SAMPLES, "<i2" if encoding == "pcm16" else "<f4")
        scaled, rounded = np.empty(_CHUNK_SAMPLES), np.empty(_CHUNK_SAMPLES)
        for chunk in x.chunks:
            for i in range(0, len(chunk), _CHUNK_SAMPLES):
                samples = chunk[i : i + _CHUNK_SAMPLES]
                c = len(samples)
                if encoding == "float32":
                    yield _f32(samples, "WAV samples", out)
                else:  # clamp, scale by 32767 and round half away from zero
                    t, r = scaled[:c], rounded[:c]
                    np.clip(samples, -1.0, 1.0, out=t)
                    t *= 32767.0
                    np.copysign(0.5, t, out=r)
                    r += t  # sign(t) * (|t| + 0.5), exactly: addition is symmetric in sign
                    np.copyto(out[:c], r, casting="unsafe")  # truncates toward zero
                    yield out[:c]

    _atomic_write(path, itertools.chain((header,), encoded()))


# ---------------------------------------------------------------------------
# MVS1 spectrogram container
# ---------------------------------------------------------------------------

def _invalid(exc: ValueError) -> FormatError:
    return FormatError(f"header describes an invalid spectrogram: {exc}")


def _header(stream: _Stream) -> dict:
    """The MVS1 header fields of ``stream`` after magic and version, enums by name: what :func:`spec_info` returns."""
    config, clip = stream.config, stream.clip
    return {
        "kind": stream.kind, "window": config.window.name, "clip": clip.mode, "clip_tau": clip.tau,
        "kaiser_beta": config.window.beta, "win_length": config.win_length, "hop_length": config.hop_length,
        "centered": config.centered, "sample_rate": stream.sample_rate,
        "original_length": stream.original_length, "n_frames": _geometry(config, stream.original_length)[0],
        "n_bins": expected_bins(stream.kind, config.win_length),
    }


def _write_spec(path, stream: _Stream) -> None:
    """The one MVS1 writer: the header of ``stream``, then the float32 rows its blocks yield.

    The header follows from the metadata alone, so every header check runs
    before any payload byte; each block is cast while it is still in cache
    and written through the atomic temp file, which a failure partway
    through removes.
    """
    fields = {"magic": SPEC_MAGIC, "version": SPEC_VERSION, **_header(stream)}
    for what, cls, name in (("clip", ClipMode, "clip_tau"), ("window", WindowKind, "kaiser_beta")):
        stored = float(np.float32(fields[name]))
        try:
            cls(fields[what], stored)
        except ValueError as exc:
            raise InvalidInputError(f"MVS1 {name} {fields[name]!r} is {stored!r} as float32: {exc}") from None
    for what, names in _ENUMS:
        fields[what] = names.index(fields[what])
    header = b""
    for name, code in _HEADER_FIELDS.items():
        try:
            header += struct.pack("<" + code, fields[name])
        except struct.error as exc:
            raise InvalidInputError(f"MVS1 {name} {fields[name]!r} does not fit its header field: {exc}") from None
    out = np.empty((min(fields["n_frames"], _BLOCK_FRAMES), fields["n_bins"]), "<f4")
    _atomic_write(path, itertools.chain([header], (_f32(rows, "MVS1 payload values", out) for rows in stream.blocks())))


def write_spec(path, spec: Spectrogram) -> None:
    """Write a spectrogram to the MVS1 container (see module docstring).

    A spectrogram :func:`read_spec` could not read back raises
    :class:`InvalidInputError` and leaves no file: a tau or beta that is
    invalid once rounded to float32, a payload value beyond float32 range,
    or a value too wide for its header field.  This is the one MVS1
    writer fed ``spec.data`` a block of rows at a time.
    """
    _write_spec(path, _need("write_spec", spec, Spectrogram)._stream())


def _read_spec(fh) -> _Stream:
    """The one MVS1 reader: the spectrogram stream of the open binary file ``fh``.

    The header, the payload size and every spectrogram rule on the metadata
    are checked before anything is sized.  The stream's blocks are the
    payload as float64 rows, read into one reused float32 buffer and
    widened, each checked by the rules :class:`Spectrogram` applies.  Any
    fault is a :class:`FormatError`.
    """
    fh = _seekable(fh)
    raw = fh.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise FormatError(
            f"truncated header: expected {_HEADER.size} bytes, got {len(raw)}"
        )
    head = dict(zip(_HEADER_FIELDS, _HEADER.unpack_from(raw)))
    if head["magic"] != SPEC_MAGIC:
        raise FormatError(f"bad magic {head['magic']!r}; expected {SPEC_MAGIC!r}")
    if head["version"] != SPEC_VERSION:
        raise FormatError(f"unsupported version {head['version']}; expected {SPEC_VERSION}")
    for what, names in _ENUMS:
        if head[what] >= len(names):
            raise FormatError(f"unknown {what} code {head[what]}")
        head[what] = names[head[what]]
    if head["centered"] not in (0, 1):
        raise FormatError(f"centered flag must be 0 or 1, got {head['centered']}")
    kind, n_frames, n_bins = head["kind"], head["n_frames"], head["n_bins"]
    expected = n_frames * n_bins * 4
    actual = fh.seek(0, os.SEEK_END) - _HEADER.size
    if actual != expected:
        raise FormatError(
            f"payload size mismatch: header implies {expected} bytes, file holds {actual}"
        )
    try:
        window = WindowKind(head["window"], head["kaiser_beta"])
        config = FrameConfig(head["win_length"], head["hop_length"], window, head["centered"] == 1)
        clip = ClipMode(head["clip"], head["clip_tau"])
        _check_metadata(kind, config, clip, head["sample_rate"], head["original_length"], n_frames, n_bins)
    except ValueError as exc:
        raise _invalid(exc) from exc

    def blocks(out=None):
        buf = np.empty((min(n_frames, _BLOCK_FRAMES), n_bins)) if out is None else None
        for i, chunk in _payload(fh, _HEADER.size, n_frames, _BLOCK_FRAMES, n_bins, "<f4", "payload", "frames"):
            rows = buf[: len(chunk)] if out is None else out[i : i + len(chunk)]
            np.copyto(rows, chunk)
            try:
                _check_rows(rows, kind, clip)
            except ValueError as exc:
                raise _invalid(exc) from exc
            yield rows

    return _Stream(kind, config, clip, head["sample_rate"], head["original_length"], blocks)


def read_spec(path) -> Spectrogram:
    """Read an MVS1 file back into a :class:`Spectrogram`.

    The result passes every spectrogram invariant; inconsistent headers
    surface as :class:`FormatError`.  This is the one MVS1 reader with its
    blocks landing in the rows of one array, so each value is checked once.
    """
    with open(path, "rb") as fh:
        return _collect(_read_spec(fh))


def spec_info(path) -> dict:
    """Header metadata of an MVS1 file that :func:`read_spec` accepts."""
    with open(path, "rb") as fh:
        return _spec_info(fh)


def _spec_info(fh) -> dict:
    """:func:`spec_info` of the open binary file ``fh``: its header, once every block is read and checked."""
    stream = _read_spec(fh)
    for _ in stream.blocks():
        pass
    return _header(stream)
