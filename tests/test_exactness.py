"""Exactness as a checked error bound.

Signed dct and packed_rfft spectrograms invert to within float64 rounding.
That claim, stated as a bound: for every output sample ``y_i`` whose
window sum ``w_i`` (the overlap of the analysis windows of the frames
that reach sample ``i``) is at least 1e-3,

    |y_i - x_i| * w_i <= 4 * log2(win) * eps * max|x|

The transforms' own rounding is O(log2(win) * eps) (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., ch. 24), overlap-add sums it
over the frames that reach a sample and then divides by ``w_i``.  The
bound holds for ``win >= 16`` and ``hop >= win / 8``, the range a sweep of
576 configurations measured (worst 3 * log2(win) * eps); at a smaller hop
more frames add their rounding to each sample and the constant grows with
their number.  Samples that no frame reaches come out exactly 0.  Where
frames reach a sample but its window sum is below 1e-3 no bound is
asserted.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import oracle_frame_signal, oracle_frame_starts

from specinv.signal import FrameConfig, Waveform, WindowKind
from specinv.vocoder import analyze, synthesize

EPS = np.finfo(np.float64).eps
WINDOWS = (WindowKind.hann(), WindowKind.boxcar(), WindowKind.kaiser(8.0), WindowKind.kaiser(30.0))


def window_sum_and_reach(config: FrameConfig, length: int):
    """Per-sample window sum ``w_i`` and count of frames that reach each of ``length`` samples.

    Built from the framing oracles: each frame of an all-ones signal is the
    window where the frame meets the signal, so adding the frames at their
    starts gives the window sum of every signal sample.
    """
    win = config.win_length
    starts, n = oracle_frame_starts(length, config)
    frames = oracle_frame_signal(Waveform(np.ones(length), 1), config)
    wsum, reach = np.zeros(n + win), np.zeros(n + win)
    for start, frame in zip(starts, frames):
        wsum[start : start + win] += frame
        reach[start : start + win] += 1
    pad = win // 2 if config.centered else 0
    return wsum[pad : pad + length], reach[pad : pad + length]


@st.composite
def inversions(draw):
    """A kind, a frame config with at most 8x overlap, a signal length and a seed."""
    kind = draw(st.sampled_from(["dct", "packed_rfft"]))
    win = draw(st.integers(8, 512)) * 2 if kind == "packed_rfft" else draw(st.integers(16, 1024))
    cfg = FrameConfig(win, draw(st.integers(-(-win // 8), win)), draw(st.sampled_from(WINDOWS)), draw(st.booleans()))
    length = draw(st.integers(1 if cfg.centered else win, 4 * win))
    return kind, cfg, length, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(inversions())
@example(("dct", FrameConfig(2048, 256, WindowKind.boxcar()), 20 * 2048 + 7, 0))  # the sweep's worst case
@example(("packed_rfft", FrameConfig(2048, 2027, WindowKind.hann()), 20 * 2048 + 7, 1))  # w_i near 1e-3
@example(("dct", FrameConfig(100, 30, WindowKind.kaiser(30.0), centered=False), 397, 2))  # an unreached tail
def test_signed_inversion_error_is_within_the_stated_bound(inversion):
    kind, cfg, length, seed = inversion
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, length)
    y = synthesize(analyze(Waveform(x, 16000), cfg, kind)).samples
    wsum, reach = window_sum_and_reach(cfg, length)
    covered = wsum >= 1e-3
    bound = 4 * np.log2(cfg.win_length) * EPS * np.abs(x).max()
    worst = (np.abs(y - x) * wsum)[covered].max(initial=0.0)
    assert worst <= bound, f"{worst / (np.log2(cfg.win_length) * EPS * np.abs(x).max()):.2f} * log2(win) * eps"
    assert (y[reach == 0] == 0.0).all()
