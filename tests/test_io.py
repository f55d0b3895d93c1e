import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import make_wav_bytes, random_spectrogram, wav_fuzz_corpus

from specinv.errors import FormatError, InvalidInputError, UnsupportedCodecError
from specinv.io import (
    MultiChannelWarning,
    read_spec,
    read_wav,
    spec_info,
    wav_info,
    write_spec,
    write_wav,
)
from specinv.metrics import snr_db
from specinv.signal import FrameConfig, Waveform, WindowKind
from specinv.vocoder import ClipMode, analyze, synthesize


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


def test_unknown_encoding_rejected(tmp_path):
    with pytest.raises(InvalidInputError):
        write_wav(tmp_path / "a.wav", Waveform([0.0], 22050), encoding="pcm8")


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
    assert meta["n_frames"] == spec.n_frames and meta["n_bins"] == 32


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
    expected = spec.n_frames * spec.n_bins * 4
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
    assert ((data == 0.0) | (data > back.tau_floor())).all()
