"""WAV audio input/output and the MVS1 binary spectrogram container.

WAV support covers RIFF/WAVE files holding PCM16, PCM24, PCM32 or IEEE
float32 samples.  Integer samples are normalized by full scale (PCM16 by
32768); multi-channel files are reduced to channel 0 with a warning.

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
spec_info reads through the same path as read_spec, so ``specinv info``
validates the whole file, payload included, the way ``synthesize`` does.
A file write_spec writes always reads back: a tau or beta that is invalid
once rounded to float32, a payload value beyond float32 range or a header
value too wide for its field raises InvalidInputError before any byte is
written.

Writes go through a temp file in the destination directory followed by an
atomic rename, so a failed run never leaves a partial file.  Concurrent
writes to one path are undefined.
"""
from __future__ import annotations

import os
import struct
import tempfile
import warnings

import numpy as np

from .errors import FormatError, InvalidInputError, UnsupportedCodecError
from .signal import WINDOW_NAMES, FrameConfig, Waveform, WindowKind
from .vocoder import CLIP_MODES, SPECTROGRAM_KINDS, ClipMode, Spectrogram

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


class MultiChannelWarning(UserWarning):
    """Raised when a multi-channel WAV is reduced to channel 0."""


def _f32_bytes(values: np.ndarray, what: str) -> bytes:
    """``values`` as little-endian float32 bytes, refusing any that would overflow to inf."""
    try:
        with np.errstate(over="raise"):
            return values.astype("<f4").tobytes()
    except FloatingPointError:
        raise InvalidInputError(f"{what} exceed the float32 range (max {np.finfo(np.float32).max:g})") from None


def _atomic_write(path, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
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

def _parse_wav(raw: bytes):
    """Parse RIFF/WAVE bytes into (meta dict, channel-major float64 samples)."""
    if len(raw) < 12:
        raise FormatError(f"not a RIFF file: only {len(raw)} bytes")
    if raw[0:4] != b"RIFF":
        raise FormatError(f"bad RIFF magic {raw[0:4]!r}")
    if raw[8:12] != b"WAVE":
        raise FormatError(f"bad WAVE id {raw[8:12]!r}")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if body_start + size > len(raw):
            raise FormatError(
                f"chunk {chunk_id!r} declares {size} bytes but only "
                f"{len(raw) - body_start} remain"
            )
        if chunk_id == b"fmt ":
            if size < 16:
                raise FormatError(f"fmt chunk too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", raw, body_start)
        elif chunk_id == b"data":
            data = raw[body_start : body_start + size]
        pos = body_start + size + (size % 2)  # chunks are word-aligned
    if fmt is None:
        raise FormatError("missing fmt chunk")
    if data is None:
        raise FormatError("missing data chunk")

    fmt_code, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise FormatError("fmt chunk declares zero channels")
    if sample_rate < 1:
        raise FormatError("fmt chunk declares a zero sample rate")

    if fmt_code == _WAVE_PCM and bits == 16:
        width, decode = 2, lambda b: np.frombuffer(b, "<i2").astype(np.float64) / 32768.0
    elif fmt_code == _WAVE_PCM and bits == 24:
        width, decode = 3, _decode_pcm24
    elif fmt_code == _WAVE_PCM and bits == 32:
        width, decode = 4, lambda b: np.frombuffer(b, "<i4").astype(np.float64) / 2147483648.0
    elif fmt_code == _WAVE_IEEE_FLOAT and bits == 32:
        width, decode = 4, lambda b: np.frombuffer(b, "<f4").astype(np.float64)
    else:
        raise UnsupportedCodecError(
            f"unsupported WAV encoding: format code {fmt_code}, {bits} bits"
        )

    frame_bytes = width * channels
    if len(data) % frame_bytes:
        raise FormatError(
            f"data chunk of {len(data)} bytes is not a whole number of "
            f"{frame_bytes}-byte sample frames"
        )
    flat = decode(data)
    if not np.isfinite(flat).all():
        raise FormatError("data chunk contains non-finite float samples")
    samples = flat.reshape(-1, channels).T
    meta = {
        "format": "pcm" if fmt_code == _WAVE_PCM else "float",
        "bits": bits,
        "channels": channels,
        "sample_rate": sample_rate,
        "n_samples": samples.shape[1],
        "duration_s": samples.shape[1] / sample_rate,
    }
    return meta, samples


def _decode_pcm24(b: bytes) -> np.ndarray:
    u = np.frombuffer(b, np.uint8).reshape(-1, 3).astype(np.int64)
    val = u[:, 0] | (u[:, 1] << 8) | (u[:, 2] << 16)
    val = (val ^ 0x800000) - 0x800000  # sign extension
    return val.astype(np.float64) / 8388608.0


def read_wav(path) -> Waveform:
    """Read a WAV file into a normalized mono :class:`Waveform`.

    Raises ``FileNotFoundError`` for a missing file, :class:`FormatError`
    for malformed RIFF data and :class:`UnsupportedCodecError` for
    encodings outside {PCM16, PCM24, PCM32, float32}.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    meta, samples = _parse_wav(raw)
    if meta["channels"] > 1:
        warnings.warn(
            f"{path}: {meta['channels']} channels; using channel 0 only",
            MultiChannelWarning,
            stacklevel=2,
        )
    return Waveform(samples[0], meta["sample_rate"])


def wav_info(path) -> dict:
    """Header metadata of a WAV file without channel reduction."""
    with open(path, "rb") as fh:
        raw = fh.read()
    meta, _ = _parse_wav(raw)
    return meta


def write_wav(path, x: Waveform, encoding: str = "float32") -> None:
    """Write a mono waveform as PCM16 or float32 WAV.

    pcm16 clamps to [-1, 1] and scales by 32767 with round-half-away-from-
    zero; float32 stores samples verbatim.
    """
    if encoding not in _WAV_ENCODINGS:
        raise InvalidInputError(f"unknown encoding {encoding!r}; use {' or '.join(map(repr, _WAV_ENCODINGS))}")
    fmt_code, block_align = _WAV_ENCODINGS[encoding]
    byte_rate = x.sample_rate * block_align
    data_size = len(x.samples) * block_align
    # The byte rate bounds the sample-rate field and the RIFF size bounds the data size.
    for field, value in (("byte rate", byte_rate), ("RIFF size", 36 + data_size)):
        if value > 0xFFFFFFFF:
            raise InvalidInputError(f"WAV {field} {value} does not fit in 32 bits")
    if encoding == "pcm16":
        clamped = np.clip(x.samples, -1.0, 1.0) * 32767.0
        payload = np.copysign(np.floor(np.abs(clamped) + 0.5), clamped).astype("<i2").tobytes()
    else:
        payload = _f32_bytes(x.samples, "WAV samples")

    header = b"RIFF" + struct.pack("<I", 36 + data_size) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt_code, 1, x.sample_rate, byte_rate, block_align, 8 * block_align
    )
    header += b"data" + struct.pack("<I", data_size)
    _atomic_write(path, header + payload)


# ---------------------------------------------------------------------------
# MVS1 spectrogram container
# ---------------------------------------------------------------------------

def _header(spec: Spectrogram) -> dict:
    """``spec``'s MVS1 header fields after magic and version, enums by name."""
    cfg = spec.config
    return {
        "kind": spec.kind, "window": cfg.window.name, "clip": spec.clip.mode,
        "clip_tau": spec.clip.tau, "kaiser_beta": cfg.window.beta, "win_length": cfg.win_length,
        "hop_length": cfg.hop_length, "centered": bool(cfg.centered), "sample_rate": spec.sample_rate,
        "original_length": spec.original_length, "n_frames": spec.n_frames, "n_bins": spec.n_bins,
    }


def write_spec(path, spec: Spectrogram) -> None:
    """Write a spectrogram to the MVS1 container (see module docstring).

    A spectrogram :func:`read_spec` could not read back raises
    :class:`InvalidInputError` before any byte is written: a tau or beta
    that is invalid once rounded to float32, a payload value beyond float32
    range, or a value too wide for its header field.
    """
    fields = {"magic": SPEC_MAGIC, "version": SPEC_VERSION, **_header(spec)}
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
    _atomic_write(path, header + _f32_bytes(spec.data, "MVS1 payload values"))


def read_spec(path) -> Spectrogram:
    """Read an MVS1 file back into a :class:`Spectrogram`.

    The result passes every spectrogram invariant; inconsistent headers
    surface as :class:`FormatError`.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise FormatError(
            f"truncated header: expected {_HEADER.size} bytes, got {len(raw)}"
        )
    head = dict(zip(_HEADER_FIELDS, _HEADER.unpack_from(raw)))
    magic = head.pop("magic")
    version = head.pop("version")
    if magic != SPEC_MAGIC:
        raise FormatError(f"bad magic {magic!r}; expected {SPEC_MAGIC!r}")
    if version != SPEC_VERSION:
        raise FormatError(f"unsupported version {version}; expected {SPEC_VERSION}")
    for what, names in _ENUMS:
        if head[what] >= len(names):
            raise FormatError(f"unknown {what} code {head[what]}")
        head[what] = names[head[what]]
    if head["centered"] not in (0, 1):
        raise FormatError(f"centered flag must be 0 or 1, got {head['centered']}")
    head["centered"] = bool(head["centered"])
    expected = head["n_frames"] * head["n_bins"] * 4
    actual = len(raw) - _HEADER.size
    if actual != expected:
        raise FormatError(
            f"payload size mismatch: header implies {expected} bytes, file holds {actual}"
        )
    data = (
        np.frombuffer(raw, "<f4", offset=_HEADER.size)
        .astype(np.float64)
        .reshape(head["n_frames"], head["n_bins"])
    )
    try:
        window = WindowKind(head["window"], head["kaiser_beta"])
        config = FrameConfig(head["win_length"], head["hop_length"], window, head["centered"])
        clip = ClipMode(head["clip"], head["clip_tau"])
        return Spectrogram(
            head["kind"], data, config, clip, head["sample_rate"], head["original_length"]
        )
    except ValueError as exc:
        raise FormatError(f"header describes an invalid spectrogram: {exc}") from exc


def spec_info(path) -> dict:
    """Header metadata of an MVS1 file that :func:`read_spec` accepts."""
    return _header(read_spec(path))
