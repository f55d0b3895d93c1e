import io
import os
import resource
import struct
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    MVS1_FIELDS,
    MVS1_HEADER_SIZE,
    WAV_FIELDS,
    field_slots,
    invalid_spec_files,
    lying_spec_bytes,
    make_wav_bytes,
    patch_payload,
    patch_spec,
    random_spectrogram,
    spec_bytes,
    wav_fuzz_corpus,
)

from specinv.cli import dispatch
from specinv.errors import FormatError, InvalidInputError, UnsupportedCodecError
from specinv.io import (
    MultiChannelWarning,
    _atomic_write,
    read_spec,
    read_wav,
    spec_info,
    wav_info,
    write_spec,
    write_wav,
)
from specinv.metrics import snr_db
from specinv.signal import FrameConfig, Waveform, WindowKind
from specinv.vocoder import ClipMode, Spectrogram, _tau_floor, analyze, apply_clip, synthesize


# ---------------------------------------------------------------------------
# WAV read
# ---------------------------------------------------------------------------


def test_pcm16_full_scale_division(tmp_path):
    payload = struct.pack("<3h", 0, 16384, -32768)
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(payload, 1, 16))
    x = read_wav(path)
    assert_allclose(x.samples, [0.0, 0.5, -1.0])
    assert x.sample_rate == 22050


def test_float32_passthrough(tmp_path):
    values = np.array([0.25, -1.5, 1e-7], dtype="<f4")
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(values.tobytes(), 3, 32))
    assert_allclose(read_wav(path).samples, values.astype(np.float64))


def test_pcm24_decoding(tmp_path):
    def pack24(v):
        return struct.pack("<i", v)[:3]

    payload = pack24(0) + pack24(0x400000) + pack24(-0x800000)
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(payload, 1, 24))
    assert_allclose(read_wav(path).samples, [0.0, 0.5, -1.0])


def test_pcm32_decoding(tmp_path):
    payload = struct.pack("<3i", 0, 2**30, -(2**31))
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(payload, 1, 32))
    assert_allclose(read_wav(path).samples, [0.0, 0.5, -1.0])


def test_multichannel_reduced_to_channel_zero_with_warning(tmp_path):
    payload = struct.pack("<4h", 100, -100, 200, -200)  # L R L R
    path = tmp_path / "stereo.wav"
    path.write_bytes(make_wav_bytes(payload, 1, 16, channels=2))
    with pytest.warns(MultiChannelWarning):
        x = read_wav(path)
    assert_allclose(x.samples, np.array([100, 200]) / 32768.0)
    meta = wav_info(path)
    assert meta["channels"] == 2 and meta["n_samples"] == 2


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "absent.wav")


def test_unsupported_codec_cases(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(make_wav_bytes(b"\x00\x00", 6, 16))  # a-law
    with pytest.raises(UnsupportedCodecError):
        read_wav(path)
    path.write_bytes(make_wav_bytes(b"\x00" * 8, 1, 64))  # pcm64 is not a thing here
    with pytest.raises(UnsupportedCodecError):
        read_wav(path)
    path.write_bytes(make_wav_bytes(b"\x00" * 8, 0xFFFE, 32))  # extensible
    with pytest.raises(UnsupportedCodecError):
        read_wav(path)


def test_malformed_riff_cases(tmp_path):
    path = tmp_path / "bad.wav"
    good = make_wav_bytes(struct.pack("<2h", 1, 2), 1, 16)

    path.write_bytes(b"JUNK" + good[4:])
    with pytest.raises(FormatError):
        read_wav(path)

    path.write_bytes(good[:8] + b"EVAW" + good[12:])
    with pytest.raises(FormatError):
        read_wav(path)

    # data chunk promising more bytes than the file holds
    path.write_bytes(make_wav_bytes(struct.pack("<2h", 1, 2), 1, 16, data_size=4000))
    with pytest.raises(FormatError):
        read_wav(path)

    # payload not a whole number of sample frames
    path.write_bytes(make_wav_bytes(b"\x00\x01\x02", 1, 16))
    with pytest.raises(FormatError):
        read_wav(path)


def test_wav_fuzz_corpus_rejected_without_crash(tmp_path):
    x = Waveform(np.sin(np.linspace(0, 20, 300)) * 0.4, 8000)
    path = tmp_path / "good.wav"
    write_wav(path, x, encoding="pcm16")
    corpus = wav_fuzz_corpus(path.read_bytes(), np.random.default_rng(0))

    bad = tmp_path / "fuzz.wav"
    rejected = 0
    for blob in corpus:
        bad.write_bytes(blob)
        try:
            read_wav(bad)
        except (FormatError, UnsupportedCodecError):
            rejected += 1
        # anything else (or silent success) falls through and fails below
    assert rejected == len(corpus)


# ---------------------------------------------------------------------------
# WAV write
# ---------------------------------------------------------------------------


def test_pcm16_write_rounds_half_away_from_zero(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(path, Waveform([0.0, 0.5, -1.0], 22050), encoding="pcm16")
    raw = path.read_bytes()
    assert struct.unpack("<3h", raw[44:50]) == (0, 16384, -32767)
    meta = wav_info(path)
    assert meta == {
        "format": "pcm",
        "bits": 16,
        "channels": 1,
        "sample_rate": 22050,
        "n_samples": 3,
        "duration_s": 3 / 22050,
    }


def test_pcm16_write_clamps(tmp_path):
    path = tmp_path / "a.wav"
    write_wav(path, Waveform([2.0, -3.0], 22050), encoding="pcm16")
    assert struct.unpack("<2h", path.read_bytes()[44:48]) == (32767, -32767)


def test_float32_roundtrip_bit_identity(tmp_path, rng):
    x = Waveform(rng.normal(size=777).astype(np.float32).astype(np.float64), 44100)
    path = tmp_path / "a.wav"
    write_wav(path, x, encoding="float32")
    y = read_wav(path)
    assert y.sample_rate == 44100
    assert y.samples.tobytes() == x.samples.tobytes()


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_write_wav_of_a_strided_view_writes_the_bytes_of_its_copy(tmp_path, rng, encoding):
    base = rng.normal(size=(2, 1001)) * 0.4
    view, copy = Waveform(base[1, ::-3], 22050), Waveform(base[1, ::-3].copy(), 22050)
    assert not view.samples.flags.c_contiguous
    write_wav(tmp_path / "view.wav", view, encoding=encoding)
    write_wav(tmp_path / "copy.wav", copy, encoding=encoding)
    assert (tmp_path / "view.wav").read_bytes() == (tmp_path / "copy.wav").read_bytes()


def test_write_spec_of_fortran_ordered_data_writes_the_bytes_of_its_c_copy(tmp_path, rng):
    spec = random_spectrogram(rng)
    fortran = Spectrogram(
        spec.kind, np.asfortranarray(spec.data), spec.config, spec.clip, spec.sample_rate, spec.original_length
    )
    assert not fortran.data.flags.c_contiguous
    write_spec(tmp_path / "f.mvs", fortran)
    write_spec(tmp_path / "c.mvs", spec)
    assert (tmp_path / "f.mvs").read_bytes() == (tmp_path / "c.mvs").read_bytes()


def test_a_failed_write_whose_cleanup_fails_too_raises_the_write_error(tmp_path, monkeypatch):
    def chunks():
        yield b"head"
        raise InvalidInputError("bad block")

    def unlink(path):
        raise PermissionError(f"cannot remove {path}")

    monkeypatch.setattr(os, "unlink", unlink)
    with pytest.raises(InvalidInputError, match="^bad block$"):
        _atomic_write(tmp_path / "out.bin", chunks())
    monkeypatch.undo()
    (tmp,) = tmp_path.iterdir()  # the temporary file the failed unlink left; out.bin was never made
    assert tmp.suffix == ".tmp" and tmp.read_bytes() == b"head"


def test_unknown_encoding_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        write_wav(tmp_path / "a.wav", Waveform([0.0], 22050), encoding="pcm8")


@pytest.mark.parametrize("encoding,byte_rate", [("pcm16", 2**32), ("float32", 2**33)])
def test_write_wav_rejects_byte_rate_beyond_u32(tmp_path, encoding, byte_rate):
    path = tmp_path / "a.wav"
    with pytest.raises(InvalidInputError, match=f"WAV byte rate {byte_rate} does not fit in 32 bits"):
        write_wav(path, Waveform([0.0], 2**31), encoding=encoding)
    assert not list(tmp_path.iterdir())
    write_wav(path, Waveform([0.0], 2**32 // 4 - 1), encoding=encoding)
    assert wav_info(path)["sample_rate"] == 2**32 // 4 - 1


@contextmanager
def _address_space_capped(extra=1 << 30):
    """Let this process map at most ``extra`` more bytes, so code that encodes
    a multi-GiB stub raises MemoryError instead of filling the host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    cap = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("encoding,width", [("pcm16", 2), ("float32", 4)])
def test_write_wav_rejects_data_beyond_u32(tmp_path, encoding, width):
    # A Waveform around a zero-stride view stands in for a signal whose payload
    # would not fit the RIFF size field; it skips the constructor, whose finite
    # scan would allocate a mask as long as the signal.
    n = (2**32 - 36) // width + 1
    huge = object.__new__(Waveform)
    object.__setattr__(huge, "samples", np.broadcast_to(np.float64(0.0), (n,)))
    object.__setattr__(huge, "sample_rate", 8000)
    with _address_space_capped():
        with pytest.raises(InvalidInputError, match=f"WAV RIFF size {36 + n * width} does not fit"):
            write_wav(tmp_path / "a.wav", huge, encoding=encoding)
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# MVS1 container
# ---------------------------------------------------------------------------


def test_spec_roundtrip_preserves_metadata_and_f32_data(tmp_path, rng):
    x = Waveform(rng.normal(size=5000) * 0.4, 22050)
    spec = analyze(x, FrameConfig(64, 16, WindowKind.kaiser(8.0)), "packed_rfft", ClipMode.none())
    path = tmp_path / "a.mvs"
    write_spec(path, spec)
    back = read_spec(path)
    assert back.kind == spec.kind
    assert back.config == spec.config
    assert back.clip == spec.clip
    assert back.sample_rate == spec.sample_rate
    assert back.original_length == spec.original_length
    assert back.data.tobytes() == spec.data.astype("<f4").astype(np.float64).tobytes()


def test_spec_write_read_write_byte_identity_over_50_random(tmp_path, rng):
    p1 = tmp_path / "one.mvs"
    p2 = tmp_path / "two.mvs"
    for _ in range(50):
        spec = random_spectrogram(rng)
        write_spec(p1, spec)
        write_spec(p2, read_spec(p1))
        assert p1.read_bytes() == p2.read_bytes()


def test_spec_header_metadata(tmp_path, rng):
    x = Waveform(rng.normal(size=3000), 22050)
    spec = analyze(x, FrameConfig(32, 8), "dct", ClipMode.zero())
    path = tmp_path / "a.mvs"
    write_spec(path, spec)
    meta = spec_info(path)
    assert meta["kind"] == "dct"
    assert meta["clip"] == "zero"
    assert meta["window"] == "hann"
    assert meta["win_length"] == 32 and meta["hop_length"] == 8
    assert meta["centered"] is True
    assert meta["original_length"] == 3000
    assert meta["n_frames"] == spec.data.shape[0] and meta["n_bins"] == 32


@pytest.mark.parametrize(
    "kind,window,clip,codes",
    [  # codes for header bytes 6/7/8 (kind/window/clip) as documented in io.py
        ("real_fft", "hann", "none", (0, 0, 0)),
        ("dct", "kaiser:8", "zero", (1, 1, 1)),
        ("packed_rfft", "boxcar", "threshold:0.05", (2, 2, 2)),
        ("magnitude", "hann", "none", (3, 0, 0)),
    ],
)
def test_spec_enum_bytes_are_documented_codes(tmp_path, rng, kind, window, clip, codes):
    x = Waveform(rng.normal(size=2000) * 0.4, 22050)
    spec = analyze(x, FrameConfig(32, 8, WindowKind.parse(window)), kind, ClipMode.parse(clip))
    path = tmp_path / "a.mvs"
    write_spec(path, spec)
    assert tuple(path.read_bytes()[6:9]) == codes
    back = read_spec(path)
    assert (back.kind, back.config.window.label(), back.clip.label()) == (kind, window, clip)


def test_spec_bad_magic(tmp_path, rng):
    path = tmp_path / "a.mvs"
    write_spec(path, random_spectrogram(rng))
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        read_spec(path)


def test_spec_version_mismatch(tmp_path, rng):
    path = tmp_path / "a.mvs"
    write_spec(path, random_spectrogram(rng))
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        read_spec(path)


def test_spec_truncated_payload_names_both_byte_counts(tmp_path, rng):
    path = tmp_path / "a.mvs"
    spec = random_spectrogram(rng)
    write_spec(path, spec)
    raw = path.read_bytes()
    path.write_bytes(raw[:-6])
    expected = spec.data.shape[0] * spec.data.shape[1] * 4
    with pytest.raises(FormatError) as err:
        read_spec(path)
    message = str(err.value)
    assert str(expected) in message and str(expected - 6) in message


def test_spec_trailing_garbage_rejected(tmp_path, rng):
    path = tmp_path / "a.mvs"
    write_spec(path, random_spectrogram(rng))
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError):
        read_spec(path)


def test_spec_inconsistent_header_rejected(tmp_path, rng):
    x = Waveform(rng.normal(size=500), 22050)
    spec = analyze(x, FrameConfig(16, 4), "magnitude")
    path = tmp_path / "a.mvs"
    write_spec(path, spec)
    raw = bytearray(path.read_bytes())
    raw[6] = 1  # relabel as dct: n_bins no longer matches win_length
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_spec(path)


@pytest.mark.parametrize("original_length", [2**40, 2**31, 100, 1])
def test_spec_frame_count_must_match_original_length(tmp_path, original_length):
    # At 4/2 centered only an empty signal gives one frame; the header check
    # runs before anything is sized by original_length.
    path = tmp_path / "lie.mvs"
    path.write_bytes(lying_spec_bytes(original_length))
    assert len(path.read_bytes()) == 62
    with pytest.raises(FormatError, match="1 frames do not match"):
        read_spec(path)
    path.write_bytes(lying_spec_bytes(0))
    assert read_spec(path).data.shape[0] == 1


def test_spec_centered_byte_must_be_0_or_1(tmp_path, rng):
    path = tmp_path / "a.mvs"
    path.write_bytes(patch_spec(spec_bytes(random_spectrogram(rng)), centered=2))
    for read in (read_spec, spec_info):
        with pytest.raises(FormatError) as exc:
            read(path)
        assert str(exc.value) == "centered flag must be 0 or 1, got 2"


def test_spec_truncated_header(tmp_path):
    path = tmp_path / "a.mvs"
    path.write_bytes(b"MVS1\x01\x00")
    with pytest.raises(FormatError, match="header"):
        read_spec(path)


def test_f32_quantization_bounded_for_signed_packed_pipeline(rng):
    x = Waveform(rng.normal(size=22050) * 0.4, 22050)
    spec = analyze(x, FrameConfig(1024, 256), "packed_rfft")
    exact = synthesize(spec)
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.mvs")
        write_spec(path, spec)
        quantized = synthesize(read_spec(path))
    assert snr_db(exact, quantized) >= 120.0


def test_threshold_clip_survives_f32_container(tmp_path, rng):
    x = Waveform(rng.normal(size=2000) * 0.4, 22050)
    spec = analyze(x, FrameConfig(32, 8), "dct", ClipMode.threshold(0.05))
    path = tmp_path / "a.mvs"
    write_spec(path, spec)
    back = read_spec(path)
    assert back.clip.mode == "threshold"
    data = back.data
    assert ((data == 0.0) | (data > _tau_floor(back.clip))).all()


@pytest.mark.parametrize("name", sorted(invalid_spec_files()))
def test_invalid_spec_rejected_alike_by_read_spec_and_spec_info(tmp_path, name):
    raw, message = invalid_spec_files()[name]
    path = tmp_path / "bad.mvs"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=message) as read_err:
        read_spec(path)
    with pytest.raises(FormatError) as info_err:
        spec_info(path)
    assert str(info_err.value) == str(read_err.value)


@settings(max_examples=200, deadline=None)
@given(
    clip=st.one_of(
        st.sampled_from((ClipMode.none(), ClipMode.zero())),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(ClipMode.threshold),
    ),
    beta=st.floats(0.0, 709.0),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=24, max_size=24),
    sample_rate=st.integers(1, 2**34),
)
@example(clip=ClipMode.threshold(1e-50), beta=8.0, values=[0.5] * 24, sample_rate=8000)
@example(clip=ClipMode.threshold(0.99999999), beta=8.0, values=[0.5] * 24, sample_rate=8000)
@example(clip=ClipMode.none(), beta=8.0, values=[1e39] * 24, sample_rate=8000)
@example(clip=ClipMode.none(), beta=8.0, values=[0.5] * 24, sample_rate=2**32)
def test_write_spec_writes_only_files_read_spec_reads_back(clip, beta, values, sample_rate):
    data = apply_clip(np.reshape(values, (3, 8)), clip)
    spec = Spectrogram("dct", data, FrameConfig(8, 4, WindowKind.kaiser(beta)), clip, sample_rate, 8)
    with np.errstate(over="ignore"):
        stored = data.astype(np.float32)
    # Each reason write_spec may give for refusing, and whether it holds.
    reasons = {
        "MVS1 clip_tau": clip.mode == "threshold" and not 0.0 < np.float32(clip.tau) < 1.0,
        "MVS1 payload": not np.isfinite(stored).all(),
        "MVS1 sample_rate": sample_rate >= 2**32,
    }
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "a.mvs")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                write_spec(path, spec)
            except InvalidInputError as exc:
                assert not os.listdir(d)
                assert any(str(exc).startswith(name) and holds for name, holds in reasons.items())
                return
        assert not any(reasons.values())
        back = read_spec(path)
        assert back.data.tobytes() == stored.astype(np.float64).tobytes()
        assert back.clip.tau == float(np.float32(clip.tau))
        assert back.config.window.beta == float(np.float32(beta))
        assert spec_info(path)["sample_rate"] == sample_rate


# ---------------------------------------------------------------------------
# Property tests: any edit of a valid file is read back or rejected as a
# FormatError, never anything else
# ---------------------------------------------------------------------------


def _valid_spec_files():
    x = Waveform(np.random.default_rng(3).normal(size=40) * 0.4, 8000)
    return [
        spec_bytes(analyze(x, FrameConfig(8, 4), "real_fft", ClipMode.zero())),
        spec_bytes(analyze(x, FrameConfig(8, 3, WindowKind.kaiser(8.0)), "dct", ClipMode.threshold(0.05))),
        spec_bytes(analyze(x, FrameConfig(8, 8, WindowKind.boxcar(), centered=False), "packed_rfft")),
        spec_bytes(analyze(x, FrameConfig(9, 4), "magnitude")),
    ]


def _valid_wav_files():
    pcm16 = struct.pack("<6h", 0, 1, -1, 32767, -32768, 5)
    return [
        make_wav_bytes(pcm16, 1, 16),
        make_wav_bytes(pcm16, 1, 16, channels=2),
        make_wav_bytes(pcm16, 1, 24),
        make_wav_bytes(pcm16[:8], 1, 32),
        make_wav_bytes(np.array([0.5, -0.25], "<f4").tobytes(), 3, 32),
    ]


@st.composite
def edited_files(draw, files, fields):
    """A valid file with one header field overwritten by any value of its
    width, or truncated, or extended."""
    raw = draw(st.sampled_from(files))
    edit = draw(st.sampled_from(("field", "truncate", "extend")))
    if edit == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if edit == "extend":
        return raw + draw(st.binary(min_size=1, max_size=64))
    offset, code = draw(st.sampled_from(sorted(field_slots(fields).values())))
    size = struct.calcsize("<" + code)
    if code == "f":
        value = struct.pack("<f", draw(st.floats(width=32)))
    elif code.endswith("s"):
        value = draw(st.binary(min_size=size, max_size=size))
    else:
        value = draw(st.integers(0, 2 ** (8 * size) - 1)).to_bytes(size, "little")
    return raw[:offset] + value + raw[offset + size :]


_SPEC_FILES = _valid_spec_files()
_NASTY_F32 = (np.nan, np.inf, -np.inf, 3e38, -3e38, 1e-45, -1e-45)


@st.composite
def payload_edits(draw, files):
    """A valid MVS1 file with a run of its payload values overwritten by one
    float32: NaN, the infinities, values near the float32 limit and
    subnormals come up often."""
    raw = draw(st.sampled_from(files))
    size = (len(raw) - MVS1_HEADER_SIZE) // 4
    start = draw(st.integers(0, size - 1))
    value = draw(st.one_of(st.sampled_from(_NASTY_F32), st.floats(width=32)))
    return patch_payload(raw, start, [value] * draw(st.integers(1, size - start)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(edited_files(_SPEC_FILES, MVS1_FIELDS), payload_edits(_SPEC_FILES)))
@example(patch_payload(_SPEC_FILES[1], 0, [3e38] * ((len(_SPEC_FILES[1]) - MVS1_HEADER_SIZE) // 4)))
def test_any_mvs1_edit_reads_back_or_is_one_format_error(raw):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.mvs")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            spec = read_spec(path)
        except FormatError:
            spec = None
            with pytest.raises(FormatError):
                spec_info(path)
        else:
            assert isinstance(spec, Spectrogram)
            assert spec_info(path)["n_frames"] == spec.data.shape[0]
        for encoding in ("pcm16", "float32"):
            out = os.path.join(d, f"{encoding}.wav")
            err = io.StringIO()
            # A warning would reach a CLI user's stderr as extra lines.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    code = dispatch(["synthesize", path, out, "--encoding", encoding])
            lines = err.getvalue().splitlines()
            assert code in (0, 1)
            assert len(lines) == code and all(line.startswith("error: ") for line in lines)
            assert os.path.exists(out) == (code == 0)
            if spec is None:
                assert lines[0].startswith("error: format: ")


@settings(max_examples=300, deadline=None)
@given(edited_files(_valid_wav_files(), WAV_FIELDS))
def test_any_wav_edit_reads_back_or_is_a_format_error(raw):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "in.wav")
        with open(path, "wb") as fh:
            fh.write(raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", MultiChannelWarning)
            try:
                x = read_wav(path)
            except FormatError:
                with pytest.raises(FormatError):
                    wav_info(path)
                return
        assert isinstance(x, Waveform)
        assert wav_info(path)["n_samples"] == len(x)
