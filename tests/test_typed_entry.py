"""A wrong-typed container or config at a public entry point is a typed error, not an AttributeError.

Containers (a Waveform, a Spectrogram, a BenchSpec, a FrameMatrix) are
checked by ``errors._need``, whose message is ``<op> needs a <Cls>, got
<type>``; a frame config or a window kind by ``errors._config``, whose message
is ``<name> must be a <Cls>, got <type>`` and which ``FrameMatrix``,
``frame_signal``, ``make_window`` and ``vocoder._check_kind_rules`` (shared by
analysis, Spectrogram, the MVS1 reader and BenchSpec) call; a clip mode by
``_check_kind_rules`` itself.  A name picked from a table (a window, a clip
mode, a bench stage) is checked by ``errors._choice``, and a count by
``errors._count``, whose int a config stores.
"""
import numpy as np
import pytest

from specinv.bench import BenchSpec, run_bench
from specinv.errors import InvalidConfigError, InvalidInputError
from specinv.io import write_spec, write_wav
from specinv.signal import FrameConfig, FrameMatrix, Waveform, WindowKind, frame_signal, make_window, overlap_add
from specinv.vocoder import ClipMode, Spectrogram, analyze, expected_bins, synthesize

X = Waveform(np.zeros(400), 8000)
CFG = FrameConfig(16, 4)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda p: analyze(X, "cfg", "dct"), InvalidConfigError, "config must be a FrameConfig, got str"),
        (lambda p: analyze(np.zeros(400), CFG, "dct"), InvalidInputError, "analyze needs a Waveform, got ndarray"),
        (lambda p: synthesize("s"), InvalidInputError, "synthesize needs a Spectrogram, got str"),
        (lambda p: write_spec(p, 3), InvalidInputError, "write_spec needs a Spectrogram, got int"),
        (lambda p: run_bench("spec"), InvalidInputError, "run_bench needs a BenchSpec, got str"),
        (lambda p: Spectrogram("dct", np.zeros((3, 8)), None, ClipMode(), 8000, 4), InvalidConfigError,
         "config must be a FrameConfig, got NoneType"),
        (lambda p: BenchSpec("dct", None), InvalidConfigError, "config must be a FrameConfig, got NoneType"),
        # the check _need took over, word for word (metrics' are pinned in test_metrics.py)
        (lambda p: write_wav(p, "x"), InvalidInputError, "write_wav needs a Waveform, got str"),
    ],
    ids=["analyze-config", "analyze-array", "synthesize-str", "write_spec-int", "run_bench-str",
         "spectrogram-none-config", "benchspec-none-config", "write_wav-str"],
)
def test_a_wrong_typed_argument_is_a_typed_error(tmp_path, call, error, message):
    path = tmp_path / "out"
    with pytest.raises(error) as exc:
        call(path)
    assert type(exc.value) is error and str(exc.value) == message
    assert not path.exists()


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: frame_signal(X, None), InvalidConfigError, "config must be a FrameConfig, got NoneType"),
        (lambda: frame_signal(None, CFG), InvalidInputError, "frame_signal needs a Waveform, got NoneType"),
        (lambda: FrameMatrix(np.zeros((97, 16)), None, 400, 8000), InvalidConfigError,
         "config must be a FrameConfig, got NoneType"),
        (lambda: overlap_add(None), InvalidInputError, "overlap_add needs a FrameMatrix, got NoneType"),
        (lambda: make_window("hann", 64), InvalidConfigError, "window must be a WindowKind, got str"),
        (lambda: expected_bins("dct", "x"), InvalidConfigError, "win_length must be a whole number, got 'x'"),
    ],
    ids=["frame_signal-config", "frame_signal-waveform", "frame_matrix-config", "overlap_add-none",
         "make_window-str", "expected_bins-str"],
)
def test_a_wrong_typed_framing_argument_is_a_typed_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


NOISE = np.random.default_rng(21).normal(size=4000) * 0.2


def _overlap_add_bytes(cfg, n, rate, path):
    frames = FrameMatrix(frame_signal(Waveform(NOISE, 8000), FrameConfig(64, 16)).frames, cfg, n, rate)
    assert (type(frames.original_length), type(frames.sample_rate)) == (int, int)
    return overlap_add(frames).samples.tobytes()


def _write_spec_bytes(cfg, n, rate, path):
    write_spec(path, analyze(Waveform(NOISE, rate), cfg, "dct"))
    return path.read_bytes()


# Each op takes a frame config, the signal's length n and rate, and a path, and returns the bytes it made.
@pytest.mark.parametrize(
    "op",
    [
        lambda cfg, n, rate, path: analyze(Waveform(NOISE, rate), cfg, "dct").data.tobytes(),
        lambda cfg, n, rate, path: synthesize(analyze(Waveform(NOISE, rate), cfg, "packed_rfft")).samples.tobytes(),
        lambda cfg, n, rate, path: frame_signal(Waveform(NOISE, rate), cfg).frames.tobytes(),
        _overlap_add_bytes,
        _write_spec_bytes,
    ],
    ids=["analyze", "synthesize", "frame_signal", "overlap_add", "write_spec"],
)
def test_a_whole_float_count_is_stored_as_an_int_and_gives_the_int_bytes(tmp_path, op):
    cfg = FrameConfig(64.0, 16.0)
    assert (type(cfg.win_length), type(cfg.hop_length)) == (int, int)
    assert op(cfg, 4000.0, 8000.0, tmp_path / "float") == op(FrameConfig(64, 16), 4000, 8000, tmp_path / "int")


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda p: WindowKind(np.array(["hann"])), InvalidConfigError,
         "unknown window array(['hann'], dtype='<U4'); expected one of ('hann', 'kaiser', 'boxcar')"),
        (lambda p: WindowKind(np.zeros(2)), InvalidConfigError,
         "unknown window array([0., 0.]); expected one of ('hann', 'kaiser', 'boxcar')"),
        (lambda p: ClipMode(np.array("none")), InvalidConfigError,
         "unknown clip mode array('none', dtype='<U4'); expected one of ('none', 'zero', 'threshold')"),
        (lambda p: ClipMode(np.zeros(2)), InvalidConfigError,
         "unknown clip mode array([0., 0.]); expected one of ('none', 'zero', 'threshold')"),
        (lambda p: BenchSpec("dct", CFG, stage=np.array(["roundtrip"])), InvalidConfigError,
         "unknown stage array(['roundtrip'], dtype='<U9'); "
         "expected one of ('synthesize_only', 'analyze_only', 'roundtrip')"),
        (lambda p: BenchSpec("dct", CFG, stage=np.zeros(2)), InvalidConfigError,
         "unknown stage array([0., 0.]); expected one of ('synthesize_only', 'analyze_only', 'roundtrip')"),
        (lambda p: ClipMode("none", np.zeros(2)), InvalidConfigError, "tau is only meaningful for threshold clipping"),
        (lambda p: ClipMode("zero", np.zeros(2)), InvalidConfigError, "tau is only meaningful for threshold clipping"),
        (lambda p: write_wav(p, X, np.array("pcm16")), InvalidInputError,
         "unknown encoding array('pcm16', dtype='<U5'); use 'pcm16' or 'float32'"),
        (lambda p: FrameMatrix(frame_signal(X, CFG).frames, CFG, 400, 0), InvalidInputError,
         "sample_rate must be a positive integer, got 0"),
        # bytes and None were typed before; these pin that their messages stay as they were
        (lambda p: WindowKind(b"hann"), InvalidConfigError,
         "unknown window b'hann'; expected one of ('hann', 'kaiser', 'boxcar')"),
        (lambda p: WindowKind(None), InvalidConfigError,
         "unknown window None; expected one of ('hann', 'kaiser', 'boxcar')"),
        (lambda p: ClipMode(b"none"), InvalidConfigError,
         "unknown clip mode b'none'; expected one of ('none', 'zero', 'threshold')"),
        (lambda p: ClipMode(None), InvalidConfigError,
         "unknown clip mode None; expected one of ('none', 'zero', 'threshold')"),
        (lambda p: BenchSpec("dct", CFG, stage=b"roundtrip"), InvalidConfigError,
         "unknown stage b'roundtrip'; expected one of ('synthesize_only', 'analyze_only', 'roundtrip')"),
        (lambda p: BenchSpec("dct", CFG, stage=None), InvalidConfigError,
         "unknown stage None; expected one of ('synthesize_only', 'analyze_only', 'roundtrip')"),
        (lambda p: ClipMode("none", b"0"), InvalidConfigError, "tau is only meaningful for threshold clipping"),
        (lambda p: ClipMode("zero", None), InvalidConfigError, "tau is only meaningful for threshold clipping"),
        (lambda p: write_wav(p, X, b"pcm16"), InvalidInputError,
         "unknown encoding b'pcm16'; use 'pcm16' or 'float32'"),
        (lambda p: write_wav(p, X, None), InvalidInputError, "unknown encoding None; use 'pcm16' or 'float32'"),
    ],
    ids=["window-array", "window-zeros", "clip-mode-0d-array", "clip-mode-zeros", "stage-array", "stage-zeros",
         "none-tau-zeros", "zero-tau-zeros", "wav-encoding-0d-array", "frame-matrix-rate-0",
         "window-bytes", "window-none", "clip-mode-bytes", "clip-mode-none", "stage-bytes", "stage-none",
         "none-tau-bytes", "zero-tau-none", "wav-encoding-bytes", "wav-encoding-none"],
)
def test_an_array_bytes_or_none_for_a_name_or_a_zero_rate_is_a_typed_error(tmp_path, call, error, message):
    path = tmp_path / "out.wav"
    with pytest.raises(error) as exc:
        call(path)
    assert type(exc.value) is error and str(exc.value) == message
    assert not path.exists()
