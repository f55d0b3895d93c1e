"""Every public entry point returns or raises a SpecinvError, whatever one argument holds.

``CALLS`` holds one small valid call for every function and class in
``specinv.__all__`` (constants, exceptions and ``MultiChannelWarning`` are
not callable entry points).  Each parameter of each entry is then replaced,
in turn, by each value in ``HOSTILE``, and the call must return or raise a
:class:`SpecinvError` with no warning recorded.  The runs are exhaustive:
every entry, every parameter, every hostile value.

Path parameters are out of scope: ``open()`` treats an int such as -3 or
True as a file descriptor, so a hostile path reads or writes whatever that
descriptor is, and a wrong-typed path is ``open()``'s ``TypeError`` or
``OSError`` (which the CLI reports as ``error: io:``).
"""
import inspect
import warnings

import numpy as np
import pytest

import specinv
from specinv import (
    BenchReport, BenchSpec, ClipMode, FrameConfig, FrameMatrix, McdConfig, SpecinvError, Spectrogram, Waveform,
    WindowKind, analyze, apply_clip, dct2, dct3, dft_real_part, expected_bins, frame_signal, idft_from_real,
    irfft_packed, make_window, mcd, overlap_add, read_spec, read_wav, rfft_packed, run_bench, snr_db, spec_info,
    synthesize, to_jsonl, wav_info, write_spec, write_wav,
)

X = Waveform(np.random.default_rng(23).normal(size=256) * 0.3, 8000)
CFG = FrameConfig(64, 16)
SPEC = analyze(X, CFG, "dct")
FRAMES = frame_signal(X, CFG)
BENCH = BenchSpec("dct", CFG, clip_duration=256 / 8000, sample_rate=8000, runs=1, warmup_runs=0)
REPORT = BenchReport(0.001, 0.0, 256, 256.0, 32.0, BENCH)

# A path parameter holds the name of a file in the test's directory, which
# the ``files`` fixture fills with a valid WAV and MVS1 file.
PATHS = {"path"}

CALLS = {
    "WindowKind": (WindowKind, {"name": "kaiser", "beta": 8.0}),
    "FrameConfig": (FrameConfig, {"win_length": 64, "hop_length": 16}),
    "Waveform": (Waveform, {"samples": X.samples, "sample_rate": 8000}),
    "FrameMatrix": (FrameMatrix, {"frames": FRAMES.frames, "config": CFG, "original_length": 256, "sample_rate": 8000}),
    "make_window": (make_window, {"kind": WindowKind(), "length": 64}),
    "frame_signal": (frame_signal, {"x": X, "config": CFG}),
    "overlap_add": (overlap_add, {"frames": FRAMES}),
    "dft_real_part": (dft_real_part, {"frame": FRAMES.frames}),
    "idft_from_real": (idft_from_real, {"coeffs": FRAMES.frames}),
    "dct2": (dct2, {"frame": FRAMES.frames}),
    "dct3": (dct3, {"coeffs": FRAMES.frames}),
    "rfft_packed": (rfft_packed, {"frame": FRAMES.frames}),
    "irfft_packed": (irfft_packed, {"packed": FRAMES.frames}),
    "ClipMode": (ClipMode, {"mode": "threshold", "tau": 0.05}),
    "Spectrogram": (Spectrogram, {"kind": "dct", "data": SPEC.data, "config": CFG, "clip": ClipMode(),
                                  "sample_rate": 8000, "original_length": 256}),
    "expected_bins": (expected_bins, {"kind": "magnitude", "win_length": 64}),
    "apply_clip": (apply_clip, {"data": SPEC.data, "mode": ClipMode.zero()}),
    "analyze": (analyze, {"x": X, "config": CFG, "kind": "packed_rfft"}),
    "synthesize": (synthesize, {"spec": SPEC}),
    "McdConfig": (McdConfig, {"n_mel_bands": 12, "n_cepstra": 6}),
    "snr_db": (snr_db, {"reference": X, "estimate": Waveform(X.samples * 0.5, 8000)}),
    "mcd": (mcd, {"reference": X, "estimate": Waveform(X.samples * 0.5, 8000)}),
    "BenchSpec": (BenchSpec, {"kind": "dct", "config": CFG, "clip_duration": 0.032, "sample_rate": 8000}),
    "BenchReport": (BenchReport, {"mean_seconds": 0.001, "stddev_seconds": 0.0, "samples_generated": 256,
                                  "khz": 256.0, "rtf": 32.0, "spec": BENCH}),
    "run_bench": (run_bench, {"spec": BENCH}),
    "to_jsonl": (to_jsonl, {"reports": [REPORT]}),
    "read_wav": (read_wav, {"path": "in.wav"}),
    "wav_info": (wav_info, {"path": "in.wav"}),
    "write_wav": (write_wav, {"path": "out.wav", "x": X}),
    "read_spec": (read_spec, {"path": "in.mvs"}),
    "spec_info": (spec_info, {"path": "in.mvs"}),
    "write_spec": (write_spec, {"path": "out.mvs", "spec": SPEC}),
}

HOSTILE = {
    "None": None,
    "str": "x",
    "bytes": b"x",
    "object": object(),
    "0d-array": np.array(1.0),
    "3d-array": np.zeros((2, 2, 2)),
    "object-array": np.array([1.0, 2.0], dtype=object),
    "nan": float("nan"),
    "2**64": 2**64,
    "64.0": 64.0,
    "-3": -3,
    "True": True,
}

CASES = [
    (name, param, label)
    for name, (entry, _) in CALLS.items()
    for param in inspect.signature(entry).parameters
    if param not in PATHS
    for label in HOSTILE
]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    write_wav(root / "in.wav", X)
    write_spec(root / "in.mvs", SPEC)
    return root


def _call(files, name, replaced=None):
    entry, args = CALLS[name]
    args = {**args, **(replaced or {})}
    args.update({p: files / args[p] for p in PATHS & args.keys()})
    return entry(**args)


def test_the_table_covers_every_public_entry_point():
    skipped = {"__version__", "MultiChannelWarning", *specinv.errors.__all__}
    entries = {name for name in specinv.__all__ if callable(getattr(specinv, name))} - skipped
    assert set(CALLS) == entries
    assert {name for name in specinv.__all__ if not callable(getattr(specinv, name))} == {
        "__version__", "OLA_EPS", "SPECTROGRAM_KINDS", "CLIP_MODES"
    }


@pytest.mark.parametrize("name", CALLS)
def test_the_valid_call_returns(files, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _call(files, name)
    assert not caught


@pytest.mark.parametrize("name,param,label", CASES, ids=["-".join(case) for case in CASES])
def test_a_hostile_argument_returns_or_raises_a_specinv_error(files, name, param, label):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _call(files, name, {param: HOSTILE[label]})
        except SpecinvError:
            pass
    assert not [str(w.message) for w in caught]
