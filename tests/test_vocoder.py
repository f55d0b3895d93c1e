import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    circular_even_part, oracle_analyze, oracle_frame_signal, oracle_overlap_add, oracle_rfft_packed,
)
from helpers import length_with_frames as _length_with

from specinv.errors import InvalidConfigError, InvalidInputError, UnsupportedKindError
from specinv.metrics import mcd, snr_db
from specinv.signal import FrameConfig, Waveform, WindowKind, frame_signal
from specinv.transforms import idft_from_real
from specinv.vocoder import (
    _BLOCK_FRAMES, KINDS, SPECTROGRAM_KINDS, ClipMode, Spectrogram, analyze, apply_clip, expected_bins,
    synthesize,
)


def _roundtrip(x, kind, win, hop, clip=ClipMode.none(), window=WindowKind.hann()):
    cfg = FrameConfig(win, hop, window, centered=True)
    return synthesize(analyze(x, cfg, kind, clip))


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------


def test_zero_clip_is_relu():
    assert_allclose(apply_clip([-1.0, 2.0, -0.5], ClipMode.zero()), [0.0, 2.0, 0.0])


def test_threshold_clip_hard_thresholds():
    got = apply_clip([0.04, 0.2, -0.3], ClipMode.threshold(0.05))
    assert_allclose(got, [0.0, 0.2, 0.0])


def test_none_clip_is_identity():
    assert_allclose(apply_clip([-3.0, 7.0], ClipMode.none()), [-3.0, 7.0])


@pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5, np.nan])
def test_threshold_tau_outside_unit_interval_rejected(tau):
    with pytest.raises(InvalidConfigError):
        ClipMode.threshold(tau)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: ClipMode("threshold", "0.1"), "threshold tau must lie in (0, 1), got 0.1"),
        (lambda: ClipMode("threshold", 0.1 + 0j), "threshold tau must lie in (0, 1), got (0.1+0j)"),
        (lambda: ClipMode("threshold", float("inf")), "threshold tau must lie in (0, 1), got inf"),
    ],
)
def test_non_real_tau_is_config_error(build, message):
    with pytest.raises(InvalidConfigError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.5, "22050"])
def test_spectrogram_sample_rate_must_be_a_positive_integer(rate):
    with pytest.raises(InvalidInputError) as exc:
        Spectrogram("dct", np.zeros((3, 8)), FrameConfig(8, 2), ClipMode.none(), rate, 4)
    assert str(exc.value) == f"sample_rate must be a positive integer, got {rate}"


def test_clip_mode_parse():
    assert ClipMode.parse("none") == ClipMode.none()
    assert ClipMode.parse("zero") == ClipMode.zero()
    assert ClipMode.parse("threshold:0.05") == ClipMode.threshold(0.05)
    assert ClipMode.threshold(0.05).label() == "threshold:0.05"
    with pytest.raises(InvalidConfigError):
        ClipMode.parse("threshold")
    with pytest.raises(InvalidConfigError):
        ClipMode.parse("relu")
    with pytest.raises(InvalidConfigError):
        ClipMode("none", tau=0.3)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_constant_dct_rows():
    x = Waveform(np.ones(8), 22050)
    cfg = FrameConfig(4, 4, WindowKind.boxcar(), centered=False)
    spec = analyze(x, cfg, "dct")
    assert spec.data.shape == (2, 4)
    assert_allclose(spec.data, np.tile([2.0, 0.0, 0.0, 0.0], (2, 1)), atol=1e-14)


def test_analyze_constant_real_fft_rows():
    x = Waveform(np.ones(8), 22050)
    cfg = FrameConfig(4, 4, WindowKind.boxcar(), centered=False)
    spec = analyze(x, cfg, "real_fft")
    assert_allclose(spec.data, np.tile([4.0, 0.0, 0.0, 0.0], (2, 1)), atol=1e-13)


def test_analyze_packed_matches_per_frame_oracle(rng):
    x = Waveform(rng.normal(size=22050) * 0.3, 22050)
    cfg = FrameConfig(1024, 256, WindowKind.hann(), centered=True)
    spec = analyze(x, cfg, "packed_rfft")
    frames = oracle_frame_signal(x, cfg)
    assert spec.data.shape[0] == frames.shape[0]
    want = np.array([oracle_rfft_packed(f) for f in frames])
    assert np.max(np.abs(spec.data - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_analyze_magnitude_bins_and_nonnegativity(rng):
    x = Waveform(rng.normal(size=4000), 22050)
    spec = analyze(x, FrameConfig(256, 64), "magnitude")
    assert spec.data.shape[1] == 256 // 2 + 1
    assert expected_bins("magnitude", 256) == 129
    assert spec.data.min() >= 0.0


def test_analyze_kind_bin_counts(rng):
    x = Waveform(rng.normal(size=4000), 22050)
    for kind in ("real_fft", "dct", "packed_rfft"):
        spec = analyze(x, FrameConfig(256, 64), kind)
        assert spec.data.shape[1] == 256


def test_analyze_zero_clip_output_nonnegative(rng):
    x = Waveform(rng.normal(size=4000), 22050)
    spec = analyze(x, FrameConfig(256, 64), "dct", ClipMode.zero())
    assert spec.data.min() >= 0.0


def test_analyze_magnitude_with_clip_rejected(rng):
    x = Waveform(rng.normal(size=4000), 22050)
    with pytest.raises(InvalidConfigError):
        analyze(x, FrameConfig(256, 64), "magnitude", ClipMode.zero())


def test_analyze_packed_odd_window_rejected(rng):
    x = Waveform(rng.normal(size=4000), 22050)
    with pytest.raises(InvalidConfigError):
        analyze(x, FrameConfig(255, 64), "packed_rfft")


UNSIGNED_RULE = "magnitude spectrograms are already nonnegative; use clip none"


@pytest.mark.parametrize(
    "kind,win,clip,message",
    [
        ("packed_rfft", 255, ClipMode.none(), "packed_rfft requires an even win_length, got 255"),
        ("magnitude", 256, ClipMode.zero(), UNSIGNED_RULE),
        ("magnitude", 256, ClipMode.threshold(0.05), UNSIGNED_RULE),
    ],
    ids=["packed_rfft-odd-window", "magnitude-zero", "magnitude-threshold"],
)
def test_kind_rules_hold_in_analyze_and_spectrogram(rng, monkeypatch, kind, win, clip, message):
    x = Waveform(rng.normal(size=4000), 22050)
    cfg = FrameConfig(win, 64)
    data = np.zeros((frame_signal(x, cfg).frames.shape[0], expected_bins(kind, win)))

    def no_framing(*args):
        raise AssertionError("a rejected config must not be framed")

    monkeypatch.setattr("specinv.vocoder._frame_blocks", no_framing)
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
        analyze(x, cfg, kind, clip)
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(message)}$"):
        Spectrogram(kind, data, cfg, clip, 22050, len(x))


def test_analyze_empty_waveform_rejected():
    with pytest.raises(InvalidInputError):
        analyze(Waveform(np.zeros(0), 22050), FrameConfig(16, 4), "dct")


def test_analyze_unknown_kind_rejected(rng):
    x = Waveform(rng.normal(size=400), 22050)
    with pytest.raises(UnsupportedKindError):
        analyze(x, FrameConfig(16, 4), "mel")


def _spectrogram(**fields):
    """``Spectrogram`` of 3 zero frames at 8/2 over 4 samples, with ``fields`` replaced."""
    args = dict(kind="dct", data=np.zeros((3, 8)), config=FrameConfig(8, 2), clip=ClipMode.none(),
                sample_rate=22050, original_length=4)
    return Spectrogram(**{**args, **fields})


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: analyze(Waveform(np.zeros(400), 22050), FrameConfig(16, 4), []), UnsupportedKindError,
         f"unknown spectrogram kind []; expected one of {SPECTROGRAM_KINDS}"),
        (lambda: _spectrogram(kind={}), UnsupportedKindError,
         f"unknown spectrogram kind {{}}; expected one of {SPECTROGRAM_KINDS}"),
        (lambda: _spectrogram(clip="none"), InvalidConfigError, "clip must be a ClipMode, got 'none'"),
        (lambda: _spectrogram(original_length="a"), InvalidInputError,
         "original_length must be a whole number >= 0, got 'a'"),
        (lambda: _spectrogram(original_length=4.5), InvalidInputError,
         "original_length must be a whole number >= 0, got 4.5"),
        (lambda: _spectrogram(original_length=-1), InvalidInputError,
         "original_length must be a whole number >= 0, got -1"),
    ],
    ids=["analyze-list-kind", "dict-kind", "str-clip", "str-length", "fractional-length", "negative-length"],
)
def test_wrong_typed_arguments_are_typed_errors(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: _spectrogram(data=np.zeros(8)), InvalidInputError, "spectrogram data must be 2-D, got shape (8,)"),
        (lambda: ClipMode("soft"), InvalidConfigError,
         "unknown clip mode 'soft'; expected one of ('none', 'zero', 'threshold')"),
        (lambda: ClipMode.parse(None), InvalidConfigError, "clip spec must be a string, got None"),
        (lambda: apply_clip([[1.0]], 5), InvalidConfigError, "clip must be a ClipMode, got 5"),
        (lambda: analyze(Waveform(np.zeros(400), 22050), FrameConfig(16, 4), "dct", 5), InvalidConfigError,
         "clip must be a ClipMode, got 5"),
        (lambda: analyze(Waveform(np.zeros(400), 22050), FrameConfig(16, 4), "dct", "soft"), InvalidConfigError,
         "clip must be a ClipMode, got 'soft'"),
        (lambda: apply_clip([[1.0]], "threshold"), InvalidConfigError, "clip must be a ClipMode, got 'threshold'"),
    ],
    ids=["1d-data", "unknown-mode", "none-clip-spec", "int-clip-spec-apply", "int-clip-spec-analyze",
         "bad-clip-spec-analyze", "bare-threshold-apply"],
)
def test_bad_data_and_clip_specs_are_typed_errors(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: apply_clip([1j], ClipMode.zero()), "clip input must hold real numbers, got dtype complex128"),
        (lambda: apply_clip(np.ones(3) * 1j, ClipMode.none()),
         "clip input must hold real numbers, got dtype complex128"),
        (lambda: apply_clip(["a"], ClipMode.zero()), "clip input must hold real numbers, got dtype <U1"),
        (lambda: _spectrogram(data=np.zeros((3, 8)) * 1j),
         "spectrogram data must hold real numbers, got dtype complex128"),
    ],
    ids=["complex-list-clip", "complex-array-clip-none", "str-clip", "complex-spectrogram"],
)
def test_non_real_data_is_an_input_error_not_a_cast(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would mean the imaginary part was dropped
        with pytest.raises(InvalidInputError) as exc:
            build()
    assert str(exc.value) == message


@pytest.mark.parametrize("clip", ["none", "zero", "threshold:0.05"])
def test_a_clip_spec_string_is_refused_not_parsed(clip):
    # ClipMode.parse is the one way in from a spec string.
    x = Waveform(np.zeros(400), 22050)
    for call in (lambda: apply_clip([[1.0]], clip), lambda: analyze(x, FrameConfig(16, 4), "dct", clip)):
        with pytest.raises(InvalidConfigError) as exc:
            call()
        assert str(exc.value) == f"clip must be a ClipMode, got {clip!r}"


def test_a_whole_float_original_length_is_stored_as_an_int():
    spec = _spectrogram(original_length=4.0)
    assert type(spec.original_length) is int and spec.original_length == 4


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_magnitude_rejected(rng):
    x = Waveform(rng.normal(size=4000), 22050)
    spec = analyze(x, FrameConfig(256, 64), "magnitude")
    with pytest.raises(UnsupportedKindError):
        synthesize(spec)


@pytest.mark.parametrize("kind", ["packed_rfft", "dct"])
def test_signed_roundtrip_is_exact(rng, kind):
    x = Waveform(rng.normal(size=22050) * 0.3, 22050)
    y = _roundtrip(x, kind, 1024, 256)
    assert len(y) == len(x) and y.sample_rate == x.sample_rate
    assert np.max(np.abs(y.samples - x.samples)) <= 1e-9
    assert snr_db(x, y) >= 180.0


def test_real_fft_roundtrip_is_lossy_with_even_part_structure(rng):
    x = Waveform(rng.normal(size=22050) * 0.3, 22050)
    cfg = FrameConfig(1024, 256, WindowKind.hann(), centered=True)
    spec = analyze(x, cfg, "real_fft")
    y = synthesize(spec)
    assert np.max(np.abs(y.samples - x.samples)) > 1e-3  # not a reconstruction
    inv = idft_from_real(spec.data)
    frames = frame_signal(x, cfg).frames
    want = np.array([circular_even_part(f) for f in frames])
    assert np.max(np.abs(inv - want)) <= 1e-12 * max(1.0, np.max(np.abs(frames)))


@pytest.mark.parametrize("win,hop", [(512, 64), (512, 128), (1024, 128), (1024, 256)])
def test_perfect_signed_reconstruction_hann(rng, win, hop):
    x = Waveform(rng.normal(size=11025) * 0.5, 22050)
    for kind in ("dct", "packed_rfft"):
        assert snr_db(x, _roundtrip(x, kind, win, hop)) >= 180.0


@pytest.mark.parametrize("win,hop", [(1024, 1022), (1024, 768), (512, 510), (512, 384)])
def test_packed_large_hop_boxcar_reconstruction(rng, win, hop):
    x = Waveform(rng.normal(size=11025) * 0.5, 22050)
    y = _roundtrip(x, "packed_rfft", win, hop, window=WindowKind.boxcar())
    assert snr_db(x, y) >= 180.0


def test_clip_ordering_on_speech(speech_clip):
    x = speech_clip
    y_none = _roundtrip(x, "dct", 1024, 64)
    y_zero = _roundtrip(x, "dct", 1024, 64, ClipMode.zero())
    assert mcd(x, y_none) <= mcd(x, y_zero)
    assert snr_db(x, y_none) >= snr_db(x, y_zero)


def test_pipeline_commutes_with_gain(rng):
    x = Waveform(rng.normal(size=8000) * 0.2, 22050)
    a = 0.37
    ax = Waveform(a * x.samples, 22050)
    y = _roundtrip(x, "dct", 256, 64)
    ay = _roundtrip(ax, "dct", 256, 64)
    assert np.max(np.abs(ay.samples - a * y.samples)) <= 1e-10


def test_analyze_is_deterministic(rng):
    x = Waveform(rng.normal(size=8000), 22050)
    cfg = FrameConfig(256, 64)
    a = analyze(x, cfg, "packed_rfft")
    b = analyze(x, cfg, "packed_rfft")
    assert a.data.tobytes() == b.data.tobytes()
    ya = synthesize(a)
    yb = synthesize(b)
    assert ya.samples.tobytes() == yb.samples.tobytes()


def test_spectrogram_is_immutable(rng):
    x = Waveform(rng.normal(size=4000), 22050)
    spec = analyze(x, FrameConfig(256, 64), "dct")
    with pytest.raises(ValueError):
        spec.data[0, 0] = 99.0


def test_spectrogram_invariant_enforcement(rng):
    # 4 samples at 8/2 centered pad to 12 and give exactly 3 frames
    cfg = FrameConfig(8, 2)
    with pytest.raises(InvalidInputError, match="bins per frame"):
        Spectrogram("dct", np.zeros((3, 7)), cfg, ClipMode.none(), 22050, 4)
    with pytest.raises(InvalidInputError, match="nonnegative"):
        Spectrogram("dct", -np.ones((3, 8)), cfg, ClipMode.zero(), 22050, 4)
    with pytest.raises(InvalidInputError, match="nonnegative"):
        Spectrogram("magnitude", -np.ones((3, 5)), cfg, ClipMode.none(), 22050, 4)
    with pytest.raises(InvalidInputError, match="entries in"):
        Spectrogram("dct", np.full((3, 8), 0.01), cfg, ClipMode.threshold(0.5), 22050, 4)
    with pytest.raises(InvalidInputError, match="NaN"):
        Spectrogram("dct", np.full((3, 8), np.nan), cfg, ClipMode.none(), 22050, 4)
    with pytest.raises(InvalidInputError, match="3 frames do not match 100 samples"):
        Spectrogram("dct", np.zeros((3, 8)), cfg, ClipMode.none(), 22050, 100)


@pytest.mark.parametrize("kind", ["dct", "magnitude"])
@pytest.mark.parametrize("centered", [True, False])
@pytest.mark.parametrize("delta", [-1, 1])
def test_spectrogram_rejects_wrong_frame_count(rng, kind, centered, delta):
    x = Waveform(rng.normal(size=301), 22050)
    spec = analyze(x, FrameConfig(32, 7, centered=centered), kind)
    data = np.zeros((spec.data.shape[0] + delta, spec.data.shape[1]))
    with pytest.raises(InvalidInputError, match="frames do not match"):
        Spectrogram(kind, data, spec.config, spec.clip, 22050, spec.original_length)


def test_workers_parameter_gives_identical_results(rng):
    x = Waveform(rng.normal(size=22050), 22050)
    cfg = FrameConfig(1024, 256)
    a = analyze(x, cfg, "dct", workers=1)
    b = analyze(x, cfg, "dct", workers=2)
    assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize(
    "workers,message",
    [
        (0, "workers must be >= 1"),
        (0.5, "workers must be >= 1"),
        (float("-inf"), "workers must be >= 1"),
        (float("nan"), "workers must be a whole number, got nan"),
        (float("inf"), "workers must be a whole number, got inf"),
        (1.5, "workers must be a whole number, got 1.5"),
        ("2", "workers must be a whole number, got '2'"),
    ],
)
def test_workers_must_be_a_whole_number_at_least_one(rng, workers, message):
    x = Waveform(rng.normal(size=300), 22050)
    spec = analyze(x, FrameConfig(32, 8), "dct")
    with pytest.raises(InvalidConfigError) as exc:
        analyze(x, spec.config, "dct", workers=workers)
    assert str(exc.value) == message
    with pytest.raises(InvalidConfigError) as exc:
        synthesize(spec, workers=workers)
    assert str(exc.value) == message


def test_whole_float_workers_act_as_the_integer(rng):
    x = Waveform(rng.normal(size=3000), 22050)
    spec = analyze(x, FrameConfig(64, 16), "packed_rfft", workers=2.0)
    assert spec.data.tobytes() == analyze(x, spec.config, "packed_rfft").data.tobytes()
    assert synthesize(spec, workers=2.0).samples.tobytes() == synthesize(spec).samples.tobytes()


# ---------------------------------------------------------------------------
# Blocked synthesis
# ---------------------------------------------------------------------------


def _assert_synthesis_matches_oracle(rng, kind, cfg, n_frames):
    length = _length_with(cfg, n_frames)
    data = rng.normal(size=(n_frames, expected_bins(kind, cfg.win_length)))
    spec = Spectrogram(kind, data, cfg, ClipMode.none(), 16000, length)
    expected = oracle_overlap_add(KINDS[kind].inverse(data), cfg, length)
    assert synthesize(spec).samples.tobytes() == expected.tobytes(), n_frames


WINDOWS = [WindowKind.hann(), WindowKind.boxcar(), WindowKind.kaiser(8.5)]


@pytest.mark.parametrize("kind", ["dct", "packed_rfft", "real_fft"])
@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: w.label())
@pytest.mark.parametrize("centered", [True, False])
def test_blocked_synthesis_is_bit_exact_across_block_edges(rng, kind, window, centered):
    # win % hop != 0, so the hop-periodic window sum has a partial last column block.
    cfg = FrameConfig(36, 8, window, centered=centered)
    for n_frames in (_BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1):
        _assert_synthesis_matches_oracle(rng, kind, cfg, n_frames)


@pytest.mark.parametrize("kind", ["dct", "packed_rfft", "real_fft"])
@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: w.label())
@pytest.mark.parametrize("centered", [True, False])
def test_short_synthesis_takes_the_window_sum_in_one_run(rng, kind, window, centered):
    # ceil(36/8) = 5: below 5 frames no sample has all its frames, up to 11 the
    # window-sum run overlap-adds every window row, and from 12 on it is cut short.
    cfg = FrameConfig(36, 8, window, centered=centered)
    for n_frames in range(2, 14):
        _assert_synthesis_matches_oracle(rng, kind, cfg, n_frames)


@pytest.mark.parametrize("kind", ["dct", "packed_rfft"])
def test_synthesize_holds_a_block_of_frames_not_the_frame_matrix(kind):
    x = Waveform(np.random.default_rng(5).normal(size=5 * 22050) * 0.3, 22050)
    spec = analyze(x, FrameConfig(512, 64), kind)
    synthesize(spec)
    tracemalloc.start()
    try:
        synthesize(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A whole inverted frame matrix alone would be spec.data.nbytes.
    assert peak < spec.data.nbytes / 2


# ---------------------------------------------------------------------------
# Blocked analysis
# ---------------------------------------------------------------------------

CLIPS = [ClipMode.none(), ClipMode.zero(), ClipMode.threshold(0.05)]
KIND_CLIPS = [(k, c) for k in SPECTROGRAM_KINDS for c in CLIPS if not KINDS[k].unsigned or c.mode == "none"]


def _assert_analysis_matches_oracle(x, cfg, kind, clip, workers):
    got = analyze(x, cfg, kind, clip, workers=workers).data
    want = oracle_analyze(x, cfg, kind, clip, workers)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # the sign of zero counts


@pytest.mark.parametrize("kind,clip", KIND_CLIPS, ids=lambda v: v if isinstance(v, str) else v.label())
@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: w.label())
@pytest.mark.parametrize("centered", [True, False])
def test_blocked_analysis_is_bit_exact_across_block_edges(rng, kind, clip, window, centered):
    cfg = FrameConfig(36, 8, window, centered=centered)
    # A centered even window frames at least 2 frames: its one-sample signal already spills a hop.
    for n_frames in (2 if centered else 1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1):
        x = Waveform(rng.normal(size=max(1, _length_with(cfg, n_frames))) * 0.3, 16000)
        for workers in (1, 2):
            _assert_analysis_matches_oracle(x, cfg, kind, clip, workers)


@st.composite
def analyses(draw):
    """A kind and clip, a frame config, a signal length, workers and a seed."""
    kind, clip = draw(st.sampled_from(KIND_CLIPS))
    win = draw(st.integers(1, 24)) * 2 if KINDS[kind].even_window else draw(st.integers(2, 48))
    cfg = FrameConfig(win, draw(st.integers(1, win)), draw(st.sampled_from(WINDOWS)), draw(st.booleans()))
    n_frames = draw(st.sampled_from([1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1]))
    length = (n_frames - 1) * cfg.hop_length + (win % 2 if cfg.centered else win) + draw(st.integers(0, cfg.hop_length - 1))
    return kind, clip, cfg, max(1, length), draw(st.sampled_from([1, 2])), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(analyses())
@example(("dct", ClipMode.zero(), FrameConfig(35, 5, WindowKind.hann()), 1, 1, 0))  # one centered frame
@example(("real_fft", ClipMode.none(), FrameConfig(512, 64, WindowKind.hann()), 3000, 2, 1))
@example(("packed_rfft", ClipMode.threshold(0.05), FrameConfig(1024, 1022, WindowKind.boxcar()), 4 * 1022 * 65, 1, 2))
@example(("magnitude", ClipMode.none(), FrameConfig(64, 16, WindowKind.kaiser(8.5), centered=False), 64 + 16 * 256, 2, 3))
def test_analysis_is_bit_exact_to_whole_matrix_oracle(analysis):
    kind, clip, cfg, length, workers, seed = analysis
    x = Waveform(np.random.default_rng(seed).normal(size=length) * 0.3, 16000)
    _assert_analysis_matches_oracle(x, cfg, kind, clip, workers)


@pytest.mark.parametrize("kind,clip", KIND_CLIPS, ids=lambda v: v if isinstance(v, str) else v.label())
def test_analyze_checks_each_value_once_as_it_clips(rng, monkeypatch, kind, clip):
    def rescan(*args):
        raise AssertionError("analyze scanned its clipped rows again")

    monkeypatch.setattr("specinv.vocoder._check_rows", rescan)
    cfg = FrameConfig(36, 8, WindowKind.kaiser(8.5))
    x = Waveform(rng.normal(size=_length_with(cfg, 2 * _BLOCK_FRAMES + 1)) * 0.3, 16000)
    _assert_analysis_matches_oracle(x, cfg, kind, clip, 1)
    spec = analyze(x, cfg, kind, clip)
    assert (spec.kind, spec.config, spec.clip, spec.sample_rate, spec.original_length) == (kind, cfg, clip, 16000, len(x))
    assert not spec.data.flags.writeable


@pytest.mark.parametrize("kind", ["packed_rfft", "real_fft"])
def test_analyze_holds_the_spectrogram_and_a_few_blocks(kind):
    x = Waveform(np.random.default_rng(5).normal(size=5 * 22050) * 0.3, 22050)
    cfg = FrameConfig(512, 64)
    analyze(x, cfg, kind)
    tracemalloc.start()
    try:
        spec = analyze(x, cfg, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A whole-signal frame matrix, or a complex spectrum of it, alone is spec.data.nbytes or more.
    block = _BLOCK_FRAMES * cfg.win_length * 8
    assert peak <= spec.data.nbytes + 4 * block


@pytest.mark.parametrize("kind", SPECTROGRAM_KINDS)
def test_analyze_of_a_spectrum_beyond_float64_is_an_input_error(kind):
    # 1e308 is a finite sample, but its frames' transform overflows to inf.
    x = Waveform(np.full(4096, 1e308), 22050)
    with pytest.raises(InvalidInputError, match="^cannot clip non-finite data$"):
        analyze(x, FrameConfig(256, 64), kind)
