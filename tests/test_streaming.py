"""The CLI streams spectrograms a frame block at a time: its files and
reports are those of the whole-array library calls at every block edge, a
fault in the last block leaves no file behind, and no command holds a
whole spectrogram."""
import os
import struct
import tempfile
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MVS1_FIELDS, MVS1_HEADER_SIZE, length_with_frames, make_wav_bytes, patch_payload, patch_spec, spec_bytes,
)

from specinv import bench
from specinv.cli import dispatch
from specinv.errors import FormatError
from specinv.io import _read_spec, read_spec, read_wav, spec_info, write_wav
from specinv.metrics import mcd, snr_db
from specinv.signal import WINDOW_NAMES, FrameConfig, Waveform, WindowKind
from specinv.vocoder import (
    _BLOCK_FRAMES, CLIP_MODES, KINDS, SPECTROGRAM_KINDS, ClipMode, Spectrogram, analyze, synthesize,
)

KIND_CLIPS = [
    (kind, clip) for kind in SPECTROGRAM_KINDS for clip in ("none", "zero", "threshold:0.05")
    if not KINDS[kind].unsigned or clip == "none"
]
WINDOWS = ("hann", "boxcar", "kaiser:8.5")


def mvs1_header(spec):
    """The packed MVS1 header of ``spec``, built field by field from the format table."""
    cfg = spec.config
    values = (
        b"MVS1", 1, SPECTROGRAM_KINDS.index(spec.kind), WINDOW_NAMES.index(cfg.window.name),
        CLIP_MODES.index(spec.clip.mode), spec.clip.tau, cfg.window.beta, cfg.win_length, cfg.hop_length,
        int(cfg.centered), spec.sample_rate, spec.original_length, *spec.data.shape,
    )
    return struct.pack("<" + "".join(code for _, code in MVS1_FIELDS), *values)


def run_cli(*argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI call."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def assert_cli_is_whole_array(d, kind, clip, window, cfg, length, threads, seed):
    """CLI analyze, synthesize and roundtrip --report in directory ``d`` match the library's whole-array calls."""
    src, mvs = os.path.join(d, "in.wav"), os.path.join(d, "a.mvs")
    samples = np.random.default_rng(seed).normal(size=length) * 0.3
    with open(src, "wb") as fh:
        fh.write(make_wav_bytes(samples.astype("<f4").tobytes(), 3, 32, rate=16000))
    x = read_wav(src)
    flags = ["--algo", KINDS[kind].algo, "--win", cfg.win_length, "--hop", cfg.hop_length, "--window", window,
             "--clip", clip, "--threads", threads] + ([] if cfg.centered else ["--no-center"])
    assert run_cli("analyze", src, mvs, *flags) == (0, "", "")
    spec = analyze(x, cfg, kind, ClipMode.parse(clip), workers=threads)
    with open(mvs, "rb") as fh:
        assert fh.read() == mvs1_header(spec) + spec.data.astype("<f4").tobytes()
    if KINDS[kind].inverse is None:
        return
    got, want = os.path.join(d, "cli.wav"), os.path.join(d, "lib.wav")
    assert run_cli("synthesize", mvs, got, "--threads", threads) == (0, "", "")
    write_wav(want, synthesize(read_spec(mvs)))
    with open(got, "rb") as a, open(want, "rb") as b:
        assert a.read() == b.read()
    code, report, err = run_cli("roundtrip", src, got, *flags, "--report")
    assert (code, err) == (0, "")
    y = synthesize(spec, workers=threads)
    assert report == f"snr_db\t{snr_db(x, y)!r}\nmcd\t{mcd(x, y)!r}\n"
    write_wav(want, y)
    with open(got, "rb") as a, open(want, "rb") as b:
        assert a.read() == b.read()


# ---------------------------------------------------------------------------
# Block edges: the streamed files are the whole-array files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,clip", KIND_CLIPS)
@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("centered", [True, False], ids=["centered", "uncentered"])
def test_cli_files_are_the_whole_array_files_at_block_edges(tmp_path, kind, clip, window, centered):
    cfg = FrameConfig(36, 8, WindowKind.parse(window), centered)
    # A centered even window frames at least 2 frames: its one-sample signal already spills a hop.
    for n_frames in (2 if centered else 1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1):
        for threads in (1, 2):
            length = length_with_frames(cfg, n_frames)
            assert_cli_is_whole_array(tmp_path, kind, clip, window, cfg, length, threads, n_frames)


@st.composite
def cli_cases(draw):
    kind, clip = draw(st.sampled_from(KIND_CLIPS))
    win = draw(st.integers(1, 24)) * 2 if KINDS[kind].even_window else draw(st.integers(2, 48))
    window = draw(st.sampled_from(WINDOWS))
    cfg = FrameConfig(win, draw(st.integers(1, win)), WindowKind.parse(window), draw(st.booleans()))
    n_frames = draw(st.sampled_from([1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1]))
    # about n_frames frames: the last hop is partial by a drawn amount
    hop = cfg.hop_length
    length = (n_frames - 1) * hop + (win % 2 if cfg.centered else win) + draw(st.integers(0, hop - 1))
    return kind, clip, window, cfg, max(1, length), draw(st.sampled_from([1, 2])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(cli_cases())
@example(("packed_rfft", "threshold:0.05", "boxcar", FrameConfig(64, 64, WindowKind.boxcar(), False), 64 * 513, 2, 0))
@example(("magnitude", "none", "kaiser:8.5", FrameConfig(33, 5, WindowKind.kaiser(8.5)), 5 * 256 + 1, 1, 1))
@example(("real_fft", "none", "hann", FrameConfig(3, 2), 1, 1, 0))  # one centered frame
def test_cli_files_are_the_whole_array_files_at_any_grid(case):
    kind, clip, window, cfg, length, threads, seed = case
    with tempfile.TemporaryDirectory() as d:
        assert_cli_is_whole_array(d, kind, clip, window, cfg, length, threads, seed)


# ---------------------------------------------------------------------------
# A fault in the last block leaves nothing behind
# ---------------------------------------------------------------------------


def _three_block_spec(kind, clip):
    cfg = FrameConfig(36, 8)
    x = Waveform(np.random.default_rng(4).normal(size=length_with_frames(cfg, 2 * _BLOCK_FRAMES + 1)) * 0.3, 16000)
    return spec_bytes(analyze(x, cfg, kind, ClipMode.parse(clip)))


LAST_BLOCK_FAULTS = {
    "nan": ("dct", "none", np.nan, "spectrogram data contains NaN or Inf"),
    "inf": ("packed_rfft", "zero", np.inf, "spectrogram data contains NaN or Inf"),
    "negative_zero_clip": ("dct", "zero", -0.5, "dct/zero spectrogram must be nonnegative"),
    "negative_magnitude": ("magnitude", "none", -0.5, "magnitude/none spectrogram must be nonnegative"),
    "below_tau_floor": ("real_fft", "threshold:0.05", 0.04, "threshold-clipped spectrogram has entries in (0, 0.05]"),
}


@pytest.mark.parametrize("fault", sorted(LAST_BLOCK_FAULTS))
def test_a_bad_value_in_the_last_block_is_one_format_error_and_no_file(tmp_path, fault):
    kind, clip, value, message = LAST_BLOCK_FAULTS[fault]
    raw = _three_block_spec(kind, clip)
    bad = tmp_path / "bad.mvs"
    bad.write_bytes(patch_payload(raw, (len(raw) - MVS1_HEADER_SIZE) // 4 - 1, [value]))
    with pytest.raises(FormatError) as exc:
        read_spec(bad)
    line = f"error: format: {exc.value}\n"
    assert line == f"error: format: header describes an invalid spectrogram: {message}\n"
    assert run_cli("info", bad) == (1, "", line)
    assert run_cli("synthesize", bad, tmp_path / "out.wav") == (1, "", line)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.mvs"]


def test_analyze_whose_last_block_overflows_float32_leaves_no_file(tmp_path):
    cfg = FrameConfig(64, 16, WindowKind.boxcar())
    samples = np.zeros(length_with_frames(cfg, 2 * _BLOCK_FRAMES + 100), "<f4")
    samples[-16:] = 3e38  # only the last few frames see it; their DC term passes the float32 range
    src = tmp_path / "in.wav"
    src.write_bytes(make_wav_bytes(samples.tobytes(), 3, 32, rate=16000))
    code, out, err = run_cli("analyze", src, tmp_path / "out.mvs", "--algo", "dct", "--win", 64, "--hop", 16,
                             "--window", "boxcar")
    assert (code, out) == (1, "")
    assert err.startswith("error: input: MVS1 payload values exceed the float32 range") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav"]


@pytest.mark.parametrize("kind,clip", KIND_CLIPS)
def test_a_spectrogram_streams_its_rows_as_it_holds_them(kind, clip):
    x = Waveform(np.random.default_rng(4).normal(size=9000) * 0.3, 16000)
    spec = analyze(x, FrameConfig(64, 16), kind, ClipMode.parse(clip))
    stream = spec._stream()
    assert stream[:-1] == (spec.kind, spec.config, spec.clip, spec.sample_rate, spec.original_length)
    views = list(stream.blocks())
    assert [len(rows) for rows in views] == [_BLOCK_FRAMES, _BLOCK_FRAMES, spec.data.shape[0] - 2 * _BLOCK_FRAMES]
    assert all(np.shares_memory(rows, spec.data) for rows in views)
    assert np.array_equal(np.concatenate(views), spec.data)


def test_a_file_cut_short_while_read_is_a_format_error(tmp_path):
    path = tmp_path / "a.mvs"
    path.write_bytes(_three_block_spec("dct", "none"))
    with open(path, "rb") as fh:
        blocks = _read_spec(fh).blocks
        os.truncate(path, MVS1_HEADER_SIZE + 100)
        with pytest.raises(FormatError, match=r"^payload ended early, in frames 0\.\.255$"):
            next(blocks())


@pytest.mark.parametrize(
    "sample_rate,edits,message",
    [
        (0, {0: np.nan}, "sample_rate must be a positive integer, got 0"),
        (16000, {0: -1.0, 2 * _BLOCK_FRAMES * 36: np.nan}, "dct/zero spectrogram must be nonnegative"),
        (16000, {0: np.nan, 2 * _BLOCK_FRAMES * 36: -1.0}, "spectrogram data contains NaN or Inf"),
    ],
    ids=["metadata_before_values", "first_block_first", "first_rule_of_a_block_first"],
)
def test_two_faults_give_the_same_message_from_file_and_library(tmp_path, sample_rate, edits, message):
    raw = _three_block_spec("dct", "zero")
    for start, value in edits.items():
        raw = patch_payload(raw, start, [value])
    raw = patch_spec(raw, sample_rate=sample_rate)
    path = tmp_path / "two.mvs"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"^header describes an invalid spectrogram: {message}$"):
        read_spec(path)
    data = np.frombuffer(raw, "<f4", offset=MVS1_HEADER_SIZE).astype(np.float64).reshape(-1, 36)
    cfg = FrameConfig(36, 8)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Spectrogram("dct", data, cfg, ClipMode.zero(), sample_rate, length_with_frames(cfg, len(data)))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_synthesize_reads_a_pipe(tmp_path):
    raw = _three_block_spec("dct", "none")
    read_fd, write_fd = os.pipe()

    def feed():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(raw)

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        code = run_cli("synthesize", f"/dev/fd/{read_fd}", tmp_path / "pipe.wav")
    finally:
        feeder.join(timeout=10)
        os.close(read_fd)
    assert not feeder.is_alive()
    assert code == (0, "", "")
    (tmp_path / "a.mvs").write_bytes(raw)
    assert run_cli("synthesize", tmp_path / "a.mvs", tmp_path / "file.wav") == (0, "", "")
    assert (tmp_path / "pipe.wav").read_bytes() == (tmp_path / "file.wav").read_bytes()


def run_cli_on_pipe(raw, command, *rest):
    """``run_cli(command, PIPE, *rest)`` with ``raw`` fed through an ``os.pipe()`` named by ``/dev/fd``."""
    read_fd, write_fd = os.pipe()

    def feed():
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(raw)
        except BrokenPipeError:  # the command stopped reading; its result says why
            pass

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        return run_cli(command, f"/dev/fd/{read_fd}", *rest)
    finally:
        os.close(read_fd)
        feeder.join(timeout=10)
        assert not feeder.is_alive()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("name", ["in.wav", "a.mvs"])
def test_info_reads_a_pipe_as_it_reads_the_file(tmp_path, name):
    x = Waveform(np.random.default_rng(3).normal(size=20000) * 0.3, 16000)
    write_wav(tmp_path / "in.wav", x)
    assert run_cli("analyze", tmp_path / "in.wav", tmp_path / "a.mvs", "--algo", "dct", "--win", 64, "--hop", 16)[0] == 0
    raw = (tmp_path / name).read_bytes()
    assert len(raw) > 1 << 16  # more than a pipe buffer holds
    code, out, err = run_cli("info", tmp_path / name)
    assert (code, err) == (0, "") and out.startswith(("format\t", "kind\t"))
    assert run_cli_on_pipe(raw, "info") == (code, out, err)


PIPED_WAV_COMMANDS = {
    "analyze": ("out.mvs", "--algo", "dct", "--win", 64, "--hop", 16),
    "roundtrip": ("out.wav", "--algo", "prft", "--win", 64, "--hop", 16, "--report"),
    "metrics": ("est.wav",),
}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("command", sorted(PIPED_WAV_COMMANDS))
def test_wav_commands_read_a_pipe_as_they_read_the_file(tmp_path, command):
    x = Waveform(np.random.default_rng(3).normal(size=70000) * 0.3, 16000)  # two WAV reader chunks
    write_wav(tmp_path / "in.wav", x)
    write_wav(tmp_path / "est.wav", Waveform(x.samples[::-1], 16000))
    rest = [tmp_path / a if str(a).endswith((".mvs", ".wav")) else a for a in PIPED_WAV_COMMANDS[command]]
    code, out, err = run_cli(command, tmp_path / "in.wav", *rest)
    assert (code, err) == (0, "") and (command == "analyze" or out.startswith("snr_db\t"))
    made = {p.name: p.read_bytes() for p in tmp_path.glob("out.*")}
    for name in made:
        (tmp_path / name).unlink()
    assert run_cli_on_pipe((tmp_path / "in.wav").read_bytes(), command, *rest) == (code, out, err)
    assert {p.name: p.read_bytes() for p in tmp_path.glob("out.*")} == made


# ---------------------------------------------------------------------------
# Memory: no command holds a whole spectrogram
# ---------------------------------------------------------------------------


def _traced_peak(call):
    call()  # warm up: first-call allocations are not the command's own
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def five_seconds(tmp_path_factory):
    """A 5 s float32 WAV, its 512/64 dct MVS1 file, and their sizes."""
    d = tmp_path_factory.mktemp("five")
    samples = np.random.default_rng(5).normal(size=5 * 22050) * 0.3
    (d / "in.wav").write_bytes(make_wav_bytes(samples.astype("<f4").tobytes(), 3, 32))
    assert run_cli("analyze", d / "in.wav", d / "a.mvs", "--algo", "dct", "--win", 512, "--hop", 64) == (0, "", "")
    return d, len(samples)


@pytest.mark.parametrize("command", ["analyze", "synthesize", "roundtrip"])
def test_cli_holds_waveforms_and_a_few_blocks_not_the_spectrogram(five_seconds, command):
    d, n = five_seconds
    grid = ("--algo", "dct", "--win", 512, "--hop", 64)
    argv = {
        "analyze": ("analyze", d / "in.wav", d / "b.mvs", *grid),
        "synthesize": ("synthesize", d / "a.mvs", d / "s.wav"),
        "roundtrip": ("roundtrip", d / "in.wav", d / "r.wav", *grid),
    }[command]
    peak = _traced_peak(lambda: run_cli(*argv))
    # The input, the overlap-add accumulator and the encoded WAV are waveform-sized;
    # the spectrogram alone is (d / "a.mvs").stat().st_size * 2 bytes as float64.
    assert peak <= 3 * 8 * n + 4 * _BLOCK_FRAMES * 512 * 8
    assert (d / "a.mvs").stat().st_size * 2 > 3 * 8 * n + 4 * _BLOCK_FRAMES * 512 * 8


def test_info_checks_the_payload_without_holding_it(five_seconds):
    d, _ = five_seconds
    peak = _traced_peak(lambda: spec_info(d / "a.mvs"))
    assert peak <= 4 * _BLOCK_FRAMES * 512 * 8


def test_roundtrip_builds_no_spectrogram(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("roundtrip built a Spectrogram")

    write_wav(tmp_path / "in.wav", Waveform(np.random.default_rng(6).normal(size=3000) * 0.3, 16000))
    x = read_wav(tmp_path / "in.wav")
    want = synthesize(analyze(x, FrameConfig(64, 16), "dct", ClipMode.zero()))
    monkeypatch.setattr(Spectrogram, "__post_init__", refuse)
    report = bench.run_bench(
        bench.BenchSpec("dct", FrameConfig(64, 16), ClipMode.zero(), clip_duration=len(x) / 16000,
                        sample_rate=16000, runs=1, warmup_runs=0, stage="roundtrip"),
    )
    assert report.samples_generated == len(x) == len(bench._tone(len(x) / 16000, 16000))
    code = run_cli("roundtrip", tmp_path / "in.wav", tmp_path / "out.wav", "--algo", "dct", "--win", 64,
                   "--hop", 16, "--clip", "zero")
    assert code == (0, "", "")
    assert read_wav(tmp_path / "out.wav").samples.tobytes() == want.samples.astype("<f4").astype(float).tobytes()
