"""The WAV side streams: the WAV reader and writer move a chunk of samples at
a time, framing reads its signal from chunks, and overlap-add hands finished
samples on from a rolling accumulator.  Every streamed result is the
whole-array result bit for bit, at every chunk edge, and the CLI's
streaming commands hold no waveform-sized array."""
import os
import struct
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import make_wav_bytes, oracle_frame_signal, oracle_overlap_add

from specinv.cli import dispatch
from specinv.errors import FormatError, InvalidInputError
from specinv.io import MultiChannelWarning, _read_wav, read_spec, read_wav, wav_info, write_wav
from specinv.signal import (
    _CHUNK_SAMPLES, FrameConfig, Waveform, WindowKind, _frame_blocks, _geometry, _overlap_add, make_window,
)
from specinv.vocoder import _BLOCK_FRAMES, ClipMode, analyze, synthesize

C = _CHUNK_SAMPLES
GRIDS = [
    FrameConfig(512, 64),
    FrameConfig(1024, 1022, WindowKind.boxcar()),
    FrameConfig(36, 8, WindowKind.kaiser(8.5), centered=False),
    FrameConfig(33, 5),
    FrameConfig(40, 40, WindowKind.boxcar()),
    FrameConfig(7, 3, WindowKind.boxcar(), centered=False),
]
GRID_IDS = ["512-64", "1024-1022-boxcar", "36-8-kaiser-uncentered", "33-5", "40-40-boxcar", "7-3-uncentered"]


def pieces(samples, size):
    """``samples`` as consecutive chunks of ``size`` (the last shorter)."""
    return [samples[i : i + size] for i in range(0, len(samples), size)]


# ---------------------------------------------------------------------------
# Rolling overlap-add and framing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("chunk", [1, 97, 1000, 5000])
@pytest.mark.parametrize("block", [1, 7, _BLOCK_FRAMES])
def test_rolling_overlap_add_is_the_whole_overlap_add(cfg, chunk, block):
    length = 9000 + cfg.hop_length // 2
    n = _geometry(cfg, length)[0]
    frames = np.random.default_rng(chunk + block).normal(size=(n, cfg.win_length))
    blocks = pieces(frames, block)
    (whole,) = _overlap_add(blocks, cfg, length)
    assert np.array_equal(whole, oracle_overlap_add(frames, cfg, length))
    rolled = [c.copy() for c in _overlap_add(iter(blocks), cfg, length, chunk)]
    assert len(rolled) > 1 or chunk + block * cfg.hop_length + cfg.win_length >= length
    assert np.array_equal(np.concatenate(rolled), whole)


def test_rolling_overlap_add_hands_out_each_chunk_before_it_reads_on():
    cfg = FrameConfig(64, 16)
    length = 20000
    frames = np.random.default_rng(1).normal(size=(_geometry(cfg, length)[0], 64))
    read = []

    def blocks():
        for i in range(0, len(frames), 8):
            read.append(i)
            yield frames[i : i + 8]

    seen = []
    for c in _overlap_add(blocks(), cfg, length, 1000):
        seen.append((len(read), len(c)))
    assert len(seen) > 10 and seen[0][0] < len(frames) // 8 // 2


@pytest.mark.parametrize("cfg", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("size", [1, 13, 4096, None])
def test_framing_from_chunks_is_framing_the_whole_signal(cfg, size):
    x = Waveform(np.random.default_rng(7).normal(size=5000 + cfg.hop_length // 3), 16000)
    chunks = (x.samples,) if size is None else pieces(x.samples, size)
    want = oracle_frame_signal(x, cfg)
    got = np.concatenate([f.copy() for _, f in _frame_blocks(iter(chunks), len(x), cfg, 37)])
    assert np.array_equal(got, want)
    out = np.empty_like(want)
    starts = [i for i, _ in _frame_blocks(iter(chunks), len(x), cfg, 37, out)]
    assert starts == list(range(0, len(want), 37)) and np.array_equal(out, want)


def test_framing_windows_each_block_as_one_multiply_does():
    cfg = FrameConfig(512, 64)
    x = np.random.default_rng(2).normal(size=30000)
    view = np.lib.stride_tricks.sliding_window_view(np.pad(x, (256, 512)), 512)[::64]
    want = np.multiply(view[: _geometry(cfg, len(x))[0]], make_window(cfg.window, 512))
    got = np.concatenate([f.copy() for _, f in _frame_blocks((x,), len(x), cfg, _BLOCK_FRAMES)])
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# The WAV reader: every codec, channel count and chunk edge
# ---------------------------------------------------------------------------


def oracle_decode(payload, fmt_code, bits, channels):
    """Channel-major float64 samples of a WAV payload, decoded sample by sample width as the format defines."""
    if bits == 24:
        b = np.frombuffer(payload, np.uint8).reshape(-1, 3).astype(np.int64)
        ints = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        flat = ((ints ^ 0x800000) - 0x800000).astype(np.float64) / 8388608.0
    elif fmt_code == 3:
        flat = np.frombuffer(payload, "<f4").astype(np.float64)
    else:
        flat = np.frombuffer(payload, f"<i{bits // 8}").astype(np.float64) / 2.0 ** (bits - 1)
    return flat.reshape(-1, channels).T


CODECS = [(1, 16), (1, 24), (1, 32), (3, 32)]


def payload_of(rng, fmt_code, bits, n):
    if fmt_code == 3:
        return (rng.normal(size=n) * 0.4).astype("<f4").tobytes()
    return rng.integers(0, 256, size=n * bits // 8, dtype=np.uint8).tobytes()  # every bit pattern, extremes too


@pytest.mark.parametrize("fmt_code,bits", CODECS, ids=["pcm16", "pcm24", "pcm32", "float32"])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("frames", [0, 1, C - 1, C, C + 1, 2 * C + 5])
def test_read_wav_decodes_every_chunk_as_the_format_defines(tmp_path, fmt_code, bits, channels, frames):
    payload = payload_of(np.random.default_rng(frames), fmt_code, bits, frames * channels)
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(payload, fmt_code, bits, channels=channels, rate=8000))
    want = oracle_decode(payload, fmt_code, bits, channels)
    if channels > 1:
        with pytest.warns(MultiChannelWarning, match="3 channels; using channel 0 only"):
            x = read_wav(path)
    else:
        x = read_wav(path)
    assert x.samples.tobytes() == want[0].tobytes() and x.sample_rate == 8000
    assert wav_info(path) == {
        "format": "float" if fmt_code == 3 else "pcm", "bits": bits, "channels": channels, "sample_rate": 8000,
        "n_samples": frames, "duration_s": frames / 8000,
    }


@pytest.mark.parametrize("channel", [0, 2])
def test_a_non_finite_float_in_the_last_chunk_is_a_format_error(tmp_path, channel):
    values = np.zeros((2 * C + 5, 3), "<f4")
    values[-1, channel] = np.nan
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(values.tobytes(), 3, 32, channels=3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MultiChannelWarning)
        for call in (read_wav, wav_info):
            with pytest.raises(FormatError, match="^data chunk contains non-finite float samples$"):
                call(path)
        code = dispatch(["analyze", str(path), str(tmp_path / "a.mvs"), "--algo", "dct"])
    assert code == 1 and sorted(p.name for p in tmp_path.iterdir()) == ["a.wav"]


@pytest.mark.parametrize("command", ["analyze", "roundtrip"])
def test_a_non_finite_float_past_the_last_uncentered_frame_is_a_format_error(tmp_path, capsys, command):
    # 1024/256 uncentered frames of C + 64 samples end at sample C, a chunk edge: the NaN is in a chunk no frame reads
    cfg = FrameConfig(1024, 256, centered=False)
    n = C + 64
    assert _geometry(cfg, n)[2] == C
    values = np.zeros(n, "<f4")
    values[-1] = np.nan
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(values.tobytes(), 3, 32))
    out = tmp_path / ("a.mvs" if command == "analyze" else "b.wav")
    assert dispatch([command, str(path), str(out), "--algo", "dct", "--win", "1024", "--hop", "256", "--no-center"]) == 1
    assert capsys.readouterr().err == "error: format: data chunk contains non-finite float samples\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav"]


def test_integer_pcm_is_never_scanned_for_non_finite_values(tmp_path, monkeypatch):
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(np.arange(-50, 50, dtype="<i2").tobytes(), 1, 16))

    def refuse(*args, **kwargs):
        raise AssertionError("integer PCM was scanned")

    with open(path, "rb") as fh:
        _, x = _read_wav(fh)
        monkeypatch.setattr(np, "isfinite", refuse)
        assert np.array_equal(np.concatenate([c.copy() for c in x.chunks]), np.arange(-50, 50) / 32768.0)


def test_chunks_after_the_data_chunk_are_walked_and_checked(tmp_path):
    good = make_wav_bytes(struct.pack("<3h", 1, 2, 3), 1, 16)
    path = tmp_path / "a.wav"
    path.write_bytes(good + b"LIST" + struct.pack("<I", 3) + b"abc" + b"\x00")  # padded to a word
    assert np.array_equal(read_wav(path).samples, np.array([1, 2, 3]) / 32768.0)
    path.write_bytes(good + b"LIST" + struct.pack("<I", 30) + b"abc")
    with pytest.raises(FormatError, match=r"^chunk b'LIST' declares 30 bytes but only 3 remain$"):
        read_wav(path)
    # a fmt chunk after the data chunk still describes it
    data = b"data" + struct.pack("<I", 4) + struct.pack("<2h", 5, 6)
    fmt = good[12:36]
    late = b"WAVE" + data + fmt
    path.write_bytes(b"RIFF" + struct.pack("<I", len(late)) + late)
    assert np.array_equal(read_wav(path).samples, np.array([5, 6]) / 32768.0)


def test_a_wav_cut_short_while_read_is_a_format_error(tmp_path):
    path = tmp_path / "a.wav"
    path.write_bytes(make_wav_bytes(np.zeros(2 * C, "<i2").tobytes(), 1, 16))
    with open(path, "rb") as fh:
        _, x = _read_wav(fh)
        os.truncate(path, 44 + 100)
        with pytest.raises(FormatError, match=rf"^data chunk ended early, in samples 0\.\.{C - 1}$"):
            next(iter(x.chunks))


# ---------------------------------------------------------------------------
# The WAV writer
# ---------------------------------------------------------------------------


def oracle_encode(samples, encoding):
    """WAV payload bytes of ``samples``, encoded whole: pcm16 rounds half away from zero."""
    if encoding == "float32":
        return samples.astype("<f4").tobytes()
    clamped = np.clip(samples, -1.0, 1.0) * 32767.0
    return np.copysign(np.floor(np.abs(clamped) + 0.5), clamped).astype("<i2").tobytes()


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
@pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 2 * C + 5])
def test_write_wav_encodes_every_chunk_as_the_whole_array(tmp_path, encoding, n):
    samples = np.random.default_rng(n).normal(size=n) * 0.7
    samples[::97] = 0.5 / 32767.0  # scales to about half a step: the rounding edge
    samples[1::97] = 1.5
    path = tmp_path / "a.wav"
    write_wav(path, Waveform(samples, 16000), encoding=encoding)
    code, width = (1, 2) if encoding == "pcm16" else (3, 4)
    size = n * width
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + size, b"WAVE", b"fmt ", 16, code, 1, 16000, 16000 * width, width,
        8 * width, b"data", size,
    )
    assert path.read_bytes() == header + oracle_encode(samples, encoding)


def test_a_float32_overflow_in_the_last_chunk_leaves_no_file(tmp_path):
    samples = np.zeros(2 * C + 5)
    samples[-1] = 1e39
    with pytest.raises(InvalidInputError, match="^WAV samples exceed the float32 range"):
        write_wav(tmp_path / "a.wav", Waveform(samples, 8000))
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("x", ["x", np.zeros(4), None, [0.0, 1.0]], ids=["str", "array", "none", "list"])
def test_write_wav_of_anything_but_a_waveform_is_an_input_error(tmp_path, x):
    with pytest.raises(InvalidInputError, match=r"^write_wav needs a Waveform, got "):
        write_wav(tmp_path / "a.wav", x)
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# The CLI: long signals through every rolling step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "grid",
    [("512", "64", "hann", ()), ("1024", "1022", "boxcar", ()), ("36", "8", "kaiser:8.5", ("--no-center",))],
    ids=["dense", "coarse", "uncentered"],
)
@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_cli_streams_long_signals_to_the_whole_array_files(tmp_path, grid, encoding):
    win, hop, window, extra = grid
    x = Waveform(np.random.default_rng(3).normal(size=3 * C + 77) * 0.3, 16000)
    write_wav(tmp_path / "in.wav", x, encoding="pcm16")
    x = read_wav(tmp_path / "in.wav")
    flags = ["--algo", "dct", "--win", win, "--hop", hop, "--window", window, *extra]
    d = str(tmp_path)
    assert dispatch(["analyze", f"{d}/in.wav", f"{d}/a.mvs", *flags]) == 0
    assert dispatch(["synthesize", f"{d}/a.mvs", f"{d}/s.wav", "--encoding", encoding]) == 0
    assert dispatch(["roundtrip", f"{d}/in.wav", f"{d}/r.wav", *flags, "--encoding", encoding]) == 0
    cfg = FrameConfig(int(win), int(hop), WindowKind.parse(window), not extra)
    for got, spec in (("r.wav", analyze(x, cfg, "dct", ClipMode.none())), ("s.wav", read_spec(tmp_path / "a.mvs"))):
        write_wav(tmp_path / "want.wav", synthesize(spec), encoding=encoding)
        assert (tmp_path / got).read_bytes() == (tmp_path / "want.wav").read_bytes()


# ---------------------------------------------------------------------------
# Memory: the streaming commands hold no waveform-sized array
# ---------------------------------------------------------------------------

# ru_maxrss survives exec, so an interpreter started from a large process reports
# that process's peak; a process it forks starts its count afresh.
_PEAK = textwrap.dedent(
    """
    import os, sys
    pid = os.fork()
    if pid:
        sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    import resource
    from specinv.cli import dispatch
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    code = dispatch(sys.argv[1:])
    print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, flush=True)
    os._exit(0)
    """
)


def _peak_rss_delta_kb(*argv):
    """Exit code and peak RSS growth (KB) of one CLI call in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _PEAK, *map(str, argv)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    code, delta = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(delta)


@pytest.fixture(scope="module")
def short_and_long(tmp_path_factory):
    """30 s and 300 s 8 kHz PCM16 WAVs and their 64/32 dct MVS1 files."""
    d = tmp_path_factory.mktemp("rss")
    rng = np.random.default_rng(9)
    for seconds in (30, 300):
        x = Waveform(rng.normal(size=seconds * 8000) * 0.2, 8000)
        write_wav(d / f"{seconds}.wav", x, encoding="pcm16")
        assert dispatch(["analyze", str(d / f"{seconds}.wav"), str(d / f"{seconds}.mvs"), "--algo", "dct",
                         "--win", "64", "--hop", "32"]) == 0
    return d


@pytest.mark.parametrize("command", ["analyze", "synthesize", "roundtrip"])
def test_peak_rss_does_not_grow_with_the_signal(short_and_long, command):
    d = short_and_long
    grid = ("--algo", "dct", "--win", "64", "--hop", "32")

    def argv(seconds):
        return {
            "analyze": ("analyze", d / f"{seconds}.wav", d / f"{seconds}.out.mvs", *grid),
            "synthesize": ("synthesize", d / f"{seconds}.mvs", d / f"{seconds}.s.wav", "--encoding", "pcm16"),
            "roundtrip": ("roundtrip", d / f"{seconds}.wav", d / f"{seconds}.r.wav", *grid),
        }[command]

    short, long = _peak_rss_delta_kb(*argv(30)), _peak_rss_delta_kb(*argv(300))
    # 300 s at 8 kHz is 19 MB as float64: one waveform-sized array would show several times over.
    assert long - short <= 5 * 1024, (short, long)
