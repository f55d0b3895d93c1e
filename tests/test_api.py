import types

import specinv
from specinv.bench import STAGES
from specinv.metrics import LOG_FLOOR
from specinv.signal import WINDOW_NAMES

PUBLIC_NAMES = frozenset(
    {
        "__version__",
        # signal
        "OLA_EPS", "Waveform", "WindowKind", "FrameConfig", "FrameMatrix",
        "make_window", "frame_signal", "overlap_add",
        # transforms
        "dft_real_part", "idft_from_real", "dct2", "dct3", "rfft_packed", "irfft_packed",
        # vocoder
        "SPECTROGRAM_KINDS", "CLIP_MODES", "ClipMode", "Spectrogram", "expected_bins",
        "apply_clip", "analyze", "synthesize",
        # metrics
        "McdConfig", "snr_db", "mcd",
        # bench
        "BenchSpec", "BenchReport", "run_bench", "to_jsonl",
        # io
        "read_wav", "write_wav", "wav_info", "read_spec", "write_spec", "spec_info",
        "MultiChannelWarning",
        # errors
        "SpecinvError", "InvalidConfigError", "InvalidInputError", "UnsupportedKindError",
        "FormatError", "UnsupportedCodecError", "MeasurementError",
    }
)
SUBMODULES = {"bench", "errors", "io", "metrics", "signal", "transforms", "vocoder"}


def test_public_names_are_frozen_and_unique():
    assert len(specinv.__all__) == len(set(specinv.__all__))
    assert set(specinv.__all__) == PUBLIC_NAMES
    public = {name for name in dir(specinv) if not name.startswith("_")}
    # Submodules imported later (e.g. specinv.cli) also become attributes.
    modules = {name for name in public if isinstance(getattr(specinv, name), types.ModuleType)}
    assert public - modules == PUBLIC_NAMES - {"__version__"}
    assert SUBMODULES <= modules


def test_module_constants_stay_importable_by_path():
    assert WINDOW_NAMES == ("hann", "kaiser", "boxcar")
    assert STAGES == ("synthesize_only", "analyze_only", "roundtrip")
    assert LOG_FLOOR == 1e-10
    assert not {"WINDOW_NAMES", "STAGES", "LOG_FLOOR"} & set(specinv.__all__)
