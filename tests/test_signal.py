import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import oracle_frame_signal, oracle_frame_starts, oracle_overlap_add

from specinv.errors import InvalidConfigError, InvalidInputError
from specinv.signal import (
    OLA_EPS,
    FrameConfig,
    FrameMatrix,
    Waveform,
    WindowKind,
    frame_signal,
    make_window,
    overlap_add,
)


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


def test_hann_quarter_points():
    assert_allclose(make_window(WindowKind.hann(), 4), [0.0, 0.5, 1.0, 0.5], atol=1e-15)


def test_boxcar_is_all_ones():
    assert_allclose(make_window(WindowKind.boxcar(), 3), [1.0, 1.0, 1.0])


def test_kaiser_beta_zero_degenerates_to_rectangular():
    assert_allclose(make_window(WindowKind.kaiser(0.0), 5), np.ones(5))


@pytest.mark.parametrize(
    "kind", [WindowKind.hann(), WindowKind.boxcar(), WindowKind.kaiser(6.0), WindowKind.kaiser(12.5)]
)
@pytest.mark.parametrize("length", [2, 5, 64, 1024, 1023])
def test_window_values_lie_in_unit_interval(kind, length):
    w = make_window(kind, length)
    assert w.shape == (length,)
    assert w.min() >= 0.0 and w.max() <= 1.0


@pytest.mark.parametrize("length", [4, 64, 1024])
def test_hann_is_periodic_form(length):
    w = make_window(WindowKind.hann(), length)
    assert w[0] == 0.0
    assert w[length // 2] == pytest.approx(1.0, abs=1e-15)


def test_window_length_below_two_rejected():
    with pytest.raises(InvalidConfigError):
        make_window(WindowKind.hann(), 1)


def test_window_kind_validation():
    with pytest.raises(InvalidConfigError):
        WindowKind("hamming")
    with pytest.raises(InvalidConfigError):
        WindowKind.kaiser(-1.0)
    with pytest.raises(InvalidConfigError):
        WindowKind("hann", beta=2.0)


def test_kaiser_beta_bounded_where_the_window_is_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.kaiser warns when i0(beta) overflows
        assert np.isfinite(make_window(WindowKind.kaiser(709.0), 1025)).all()
    with pytest.raises(InvalidConfigError, match="^kaiser beta must be <= 709, got 710.0$"):
        WindowKind.kaiser(710.0)


def test_window_kind_parse():
    assert WindowKind.parse("hann") == WindowKind.hann()
    assert WindowKind.parse("boxcar") == WindowKind.boxcar()
    assert WindowKind.parse("kaiser:8.5") == WindowKind.kaiser(8.5)
    with pytest.raises(InvalidConfigError):
        WindowKind.parse("kaiser")
    with pytest.raises(InvalidConfigError):
        WindowKind.parse("kaiser:lots")
    with pytest.raises(InvalidConfigError):
        WindowKind.parse("rect")
    assert WindowKind.kaiser(8.5).label() == "kaiser:8.5"


# ---------------------------------------------------------------------------
# Config and type validation
# ---------------------------------------------------------------------------


def test_frame_config_invariants():
    FrameConfig(4, 4)  # hop == win is legal
    with pytest.raises(InvalidConfigError):
        FrameConfig(4, 5)
    with pytest.raises(InvalidConfigError):
        FrameConfig(4, 0)
    with pytest.raises(InvalidConfigError):
        FrameConfig(1, 1)


def test_waveform_validation():
    with pytest.raises(InvalidInputError):
        Waveform([0.0, np.nan], 22050)
    with pytest.raises(InvalidInputError):
        Waveform([0.0, np.inf], 22050)
    with pytest.raises(InvalidInputError):
        Waveform([0.0, 0.1], 0)
    with pytest.raises(InvalidInputError):
        Waveform(np.zeros((2, 2)), 22050)
    x = Waveform([0, 1], 8000)
    assert x.samples.dtype == np.float64
    assert len(x) == 2


def test_waveform_locks_the_array_it_was_built_from():
    # A float64 array is kept, not copied, so a later write into it would bypass the finite check.
    source = np.zeros(8)
    x = Waveform(source, 8000)
    assert x.samples is source and not source.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        source[3] = np.nan
    assert np.isfinite(x.samples).all()


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: FrameConfig(float("nan"), 2), InvalidConfigError, "win_length must be a whole number, got nan"),
        (lambda: FrameConfig(float("inf"), 2), InvalidConfigError, "win_length must be a whole number, got inf"),
        (lambda: FrameConfig("4", 2), InvalidConfigError, "win_length must be a whole number, got '4'"),
        (lambda: FrameConfig(4.5, 2), InvalidConfigError, "win_length must be a whole number, got 4.5"),
        (
            lambda: FrameConfig(4, float("nan")), InvalidConfigError,
            "hop_length must be a whole number, got nan",
        ),
        (
            lambda: FrameConfig(4, float("-inf")), InvalidConfigError,
            "hop_length must be >= 1",
        ),
        (
            lambda: make_window(WindowKind.hann(), float("inf")), InvalidConfigError,
            "window length must be a whole number, got inf",
        ),
        (
            lambda: make_window(WindowKind.hann(), 2.5), InvalidConfigError,
            "window length must be a whole number, got 2.5",
        ),
        (lambda: Waveform([0.0], float("nan")), InvalidInputError, "sample_rate must be a positive integer, got nan"),
        (lambda: Waveform([0.0], float("inf")), InvalidInputError, "sample_rate must be a positive integer, got inf"),
        (lambda: Waveform([0.0], 0.5), InvalidInputError, "sample_rate must be a positive integer, got 0.5"),
        (lambda: WindowKind("kaiser", "8"), InvalidConfigError, "kaiser beta must be >= 0, got 8"),
        (lambda: WindowKind("kaiser", 8 + 0j), InvalidConfigError, "kaiser beta must be >= 0, got (8+0j)"),
        (lambda: WindowKind("kaiser", float("inf")), InvalidConfigError, "kaiser beta must be >= 0, got inf"),
    ],
)
def test_non_finite_or_non_real_numbers_are_config_or_input_errors(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("centered", ["no", None, 1, 0.0, "True"])
def test_frame_config_centered_must_be_a_bool(centered):
    with pytest.raises(InvalidConfigError) as exc:
        FrameConfig(64, 16, centered=centered)
    assert str(exc.value) == f"centered must be True or False, got {centered!r}"


def test_frame_config_stores_a_numpy_bool_as_a_bool():
    cfg = FrameConfig(64, 16, centered=np.False_)
    assert cfg.centered is False and cfg == FrameConfig(64, 16, centered=False)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: FrameConfig(4, 2, window="hann"), InvalidConfigError, "window must be a WindowKind, got str"),
        (lambda: WindowKind.parse(5), InvalidConfigError, "window spec must be a string, got 5"),
        (lambda: WindowKind.parse(b"hann"), InvalidConfigError, "window spec must be a string, got b'hann'"),
        (lambda: FrameMatrix(np.zeros(4), FrameConfig(4, 2), 4, 22050), InvalidInputError,
         "frames must be 2-D, got shape (4,)"),
    ],
    ids=["str-window", "int-window-spec", "bytes-window-spec", "1d-frames"],
)
def test_wrong_typed_or_shaped_arguments_are_typed_errors(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Waveform(["a"], 8000), "waveform must hold real numbers, got dtype <U1"),
        (lambda: Waveform(np.array([1 + 2j]), 8000), "waveform must hold real numbers, got dtype complex128"),
        (lambda: Waveform(np.array([0.5, None]), 8000), "waveform must hold real numbers, got dtype object"),
        (lambda: FrameMatrix(np.zeros((3, 4)) * 1j, FrameConfig(4, 2), 4, 22050),
         "frames must hold real numbers, got dtype complex128"),
    ],
    ids=["str-samples", "complex-samples", "object-samples", "complex-frames"],
)
def test_non_real_array_input_is_an_input_error_not_a_cast(build, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would mean the imaginary part was dropped
        with pytest.raises(InvalidInputError) as exc:
            build()
    assert str(exc.value) == message


def test_real_array_input_of_any_real_dtype_is_kept_or_converted():
    x = np.zeros(5)
    assert Waveform(x, 8000).samples is x
    for values in ([True, False], np.arange(2, dtype=np.int16), np.ones(2, np.float32)):
        samples = Waveform(values, 8000).samples
        assert samples.dtype == np.float64 and samples.tolist() == np.asarray(values).tolist()


def test_frame_matrix_row_width_checked():
    cfg = FrameConfig(4, 2, WindowKind.boxcar(), centered=False)
    with pytest.raises(InvalidInputError):
        FrameMatrix(np.zeros((4, 5)), cfg, 10, 22050)
    with pytest.raises(InvalidInputError):
        FrameMatrix(np.zeros((4, 4)), cfg, -1, 22050)


@pytest.mark.parametrize(
    "length,win,hop,centered",
    [(22, 4, 2, True), (97, 16, 5, True), (4, 8, 2, True), (100, 16, 4, False)],
)
@pytest.mark.parametrize("delta", [-1, 1])
def test_frame_matrix_rejects_wrong_frame_count(rng, length, win, hop, centered, delta):
    cfg = FrameConfig(win, hop, WindowKind.boxcar(), centered=centered)
    n_frames = frame_signal(Waveform(rng.normal(size=length), 22050), cfg).frames.shape[0]
    FrameMatrix(np.zeros((n_frames, win)), cfg, length, 22050)
    with pytest.raises(InvalidInputError, match="frames do not match"):
        FrameMatrix(np.zeros((n_frames + delta, win)), cfg, length, 22050)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def test_frame_signal_direct_slicing():
    x = Waveform([1, 2, 3, 4, 5, 6], 22050)
    cfg = FrameConfig(4, 2, WindowKind.boxcar(), centered=False)
    fm = frame_signal(x, cfg)
    assert_allclose(fm.frames, [[1, 2, 3, 4], [3, 4, 5, 6]])
    assert fm.original_length == 6
    assert fm.sample_rate == 22050


def test_frame_signal_applies_window():
    x = Waveform([1, 1, 1, 1], 22050)
    cfg = FrameConfig(4, 2, WindowKind.hann(), centered=False)
    fm = frame_signal(x, cfg)
    assert np.array_equal(fm.frames, [make_window(WindowKind.hann(), 4)])


def test_frame_count_centered_matches_enumeration_oracle():
    # Frozen from the brute-force enumerator: len 22, win 4, hop 2,
    # centered pads to 26 samples and yields 12 frame starts.
    x = Waveform(np.arange(22, dtype=float), 22050)
    cfg = FrameConfig(4, 2, WindowKind.boxcar(), centered=True)
    starts, padded_len = oracle_frame_starts(len(x), cfg)
    assert (len(starts), padded_len) == (12, 26)
    fm = frame_signal(x, cfg)
    assert fm.frames.shape[0] == 12
    assert np.array_equal(fm.frames, oracle_frame_signal(x, cfg))


@pytest.mark.parametrize("n,win,hop", [(100, 16, 4), (97, 16, 5), (33, 32, 1), (64, 64, 64)])
def test_uncentered_frame_count_formula(rng, n, win, hop):
    x = Waveform(rng.normal(size=n), 22050)
    cfg = FrameConfig(win, hop, WindowKind.boxcar(), centered=False)
    assert frame_signal(x, cfg).frames.shape[0] == 1 + (n - win) // hop


@pytest.mark.parametrize("n,win,hop,centered", [(101, 16, 3, True), (50, 7, 3, True), (80, 9, 9, False)])
def test_frame_signal_matches_oracle(rng, n, win, hop, centered):
    x = Waveform(rng.normal(size=n), 16000)
    cfg = FrameConfig(win, hop, WindowKind.hann(), centered=centered)
    assert np.array_equal(frame_signal(x, cfg).frames, oracle_frame_signal(x, cfg))


def test_uncentered_signal_shorter_than_frame_rejected():
    x = Waveform([1.0, 2.0], 22050)
    with pytest.raises(InvalidInputError) as exc:
        frame_signal(x, FrameConfig(4, 2, centered=False))
    assert str(exc.value) == "signal of 2 samples is shorter than one 4-sample frame (uncentered)"


def test_centered_short_signal_message_is_not_marked_uncentered():
    # win 7 centered pads 3 zeros per side: 6 < 7 samples for an empty signal
    with pytest.raises(InvalidInputError) as exc:
        frame_signal(Waveform([], 22050), FrameConfig(7, 3))
    assert str(exc.value) == "signal of 0 samples is shorter than one 7-sample frame"


@st.composite
def framings(draw):
    """A frame config over hann/boxcar/kaiser, a signal length and a seed."""
    win = draw(st.integers(2, 48))
    window = draw(st.sampled_from([WindowKind.hann(), WindowKind.boxcar(), WindowKind.kaiser(8.5)]))
    cfg = FrameConfig(win, draw(st.integers(1, win)), window, centered=draw(st.booleans()))
    return cfg, draw(st.integers(0, 200)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=400, deadline=None)
@given(framings())
@example((FrameConfig(512, 64, WindowKind.hann()), 3000, 1))
@example((FrameConfig(1024, 256, WindowKind.hann()), 4000, 2))
@example((FrameConfig(1024, 1022, WindowKind.boxcar()), 5000, 3))
@example((FrameConfig(500, 64, WindowKind.kaiser(8.5), centered=False), 3001, 4))
def test_framing_and_ola_are_bit_exact_to_oracles(framing):
    cfg, length, seed = framing
    rng = np.random.default_rng(seed)
    x = Waveform(rng.normal(size=length), 16000)
    starts, _ = oracle_frame_starts(length, cfg)
    if not starts:
        with pytest.raises(InvalidInputError, match="shorter than one"):
            frame_signal(x, cfg)
        return
    fm = frame_signal(x, cfg)
    assert fm.frames.shape[0] == len(starts)
    assert np.array_equal(fm.frames, oracle_frame_signal(x, cfg))
    # OLA of arbitrary frames, as synthesis feeds it inverse-transform output
    data = rng.normal(size=fm.frames.shape)
    y = overlap_add(FrameMatrix(data, cfg, length, 16000))
    assert np.array_equal(y.samples, oracle_overlap_add(data, cfg, length))


# ---------------------------------------------------------------------------
# Overlap-add
# ---------------------------------------------------------------------------


def test_overlap_add_boxcar_normalizes_doubled_region():
    cfg = FrameConfig(4, 2, WindowKind.boxcar(), centered=False)
    fm = FrameMatrix(np.ones((2, 4)), cfg, 6, 22050)
    assert_allclose(overlap_add(fm).samples, np.ones(6))


def test_overlap_add_single_hann_frame_eps_clamp():
    # Hand-evaluated normalization: window sum equals the window itself, so
    # every covered sample divides to 1; index 0 hits the eps clamp and
    # stays 0 (0 / OLA_EPS).
    cfg = FrameConfig(4, 4, WindowKind.hann(), centered=False)
    fm = FrameMatrix(np.array([[0.0, 0.5, 1.0, 0.5]]), cfg, 4, 22050)
    assert_allclose(overlap_add(fm).samples, [0.0, 1.0, 1.0, 1.0], atol=1e-15)


def test_roundtrip_oracle_hann_64_16(rng):
    x = Waveform(rng.normal(size=1000), 22050)
    cfg = FrameConfig(64, 16, WindowKind.hann(), centered=True)
    y = overlap_add(frame_signal(x, cfg))
    assert y.sample_rate == x.sample_rate
    assert len(y) == len(x)
    assert np.max(np.abs(y.samples - x.samples)) <= 1e-10


@pytest.mark.parametrize(
    "win,hop,window",
    [
        (64, 16, WindowKind.hann()),
        (64, 32, WindowKind.hann()),
        (128, 128, WindowKind.boxcar()),
        (64, 63, WindowKind.boxcar()),
        (96, 24, WindowKind.kaiser(8.0)),
    ],
)
def test_roundtrip_identity_property(rng, win, hop, window):
    x = Waveform(rng.normal(size=5000), 22050)
    cfg = FrameConfig(win, hop, window, centered=True)
    y = overlap_add(frame_signal(x, cfg))
    assert np.max(np.abs(y.samples - x.samples)) <= 1e-9 * np.max(np.abs(x.samples))


def test_overlap_add_truncates_and_extends_to_original_length(rng):
    x = Waveform(rng.normal(size=100), 22050)
    cfg = FrameConfig(16, 4, WindowKind.hann(), centered=False)
    fm = frame_signal(x, cfg)
    # uncentered framing drops the tail; OLA zero-extends back to length
    y = overlap_add(fm)
    assert len(y) == 100


def test_framing_and_ola_are_deterministic(rng):
    x = Waveform(rng.normal(size=3000), 22050)
    cfg = FrameConfig(64, 8, WindowKind.hann(), centered=True)
    a = overlap_add(frame_signal(x, cfg))
    b = overlap_add(frame_signal(x, cfg))
    assert a.samples.tobytes() == b.samples.tobytes()


def test_ola_eps_constant():
    assert OLA_EPS == 1e-8
