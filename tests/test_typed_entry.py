"""A wrong-typed container or config at a public entry point is a typed error, not an AttributeError.

Containers (a Waveform, a Spectrogram, a BenchSpec, a FrameMatrix) are
checked by ``errors._need``, whose message is ``<op> needs a <Cls>, got
<type>``; a frame config or a window kind by ``errors._config``, whose message
is ``<name> must be a <Cls>, got <type>`` and which ``FrameMatrix``,
``frame_signal``, ``make_window`` and ``vocoder._check_kind_rules`` (shared by
analysis, Spectrogram, the MVS1 reader and BenchSpec) call; a clip mode by
``_check_kind_rules`` itself.
"""
import numpy as np
import pytest

from specinv.bench import BenchSpec, run_bench
from specinv.errors import InvalidConfigError, InvalidInputError
from specinv.io import write_spec, write_wav
from specinv.signal import FrameConfig, FrameMatrix, Waveform, frame_signal, make_window, overlap_add
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
