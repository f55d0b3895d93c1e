import dataclasses
import math

import numpy as np
import pytest

from helpers import oracle_mcd

from specinv.errors import InvalidConfigError, InvalidInputError
from specinv.metrics import McdConfig, _mel_bank, mcd, snr_db
from specinv.signal import Waveform


# ---------------------------------------------------------------------------
# SNR
# ---------------------------------------------------------------------------


def test_snr_identical_signals_is_infinite(rng):
    x = Waveform(rng.normal(size=100), 22050)
    assert snr_db(x, x) == math.inf


def test_snr_zero_estimate_is_zero_db():
    assert snr_db(Waveform([1.0, 0.0], 22050), Waveform([0.0, 0.0], 22050)) == pytest.approx(0.0)


def test_snr_direct_formula_value():
    # 10*log10(4/1), frozen by hand.
    got = snr_db(Waveform([2.0], 22050), Waveform([1.0], 22050))
    assert got == pytest.approx(6.020599913279624, abs=1e-12)


def test_snr_length_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        snr_db(Waveform([1.0, 2.0], 22050), Waveform([1.0], 22050))


def test_snr_rate_mismatch_rejected():
    with pytest.raises(InvalidInputError):
        snr_db(Waveform([1.0], 22050), Waveform([1.0], 16000))


def test_snr_all_zero_reference_rejected():
    with pytest.raises(InvalidInputError):
        snr_db(Waveform([0.0, 0.0], 22050), Waveform([1.0, 0.0], 22050))


# ---------------------------------------------------------------------------
# MCD
# ---------------------------------------------------------------------------


def test_mcd_identity_is_zero(speech_clip):
    assert mcd(speech_clip, speech_clip) == 0.0


def test_mcd_uniform_gain_changes_nothing(rng):
    # A gain shifts every log mel band equally, which lands entirely in the
    # excluded c0 coefficient.
    x = Waveform(rng.normal(size=22050) * 0.2, 22050)
    y = Waveform(0.5 * x.samples, 22050)
    assert abs(mcd(x, y)) <= 1e-9


@pytest.mark.parametrize("alpha", [0.1, 0.5, 2.0])
def test_mcd_gain_invariance(rng, alpha):
    x = Waveform(rng.normal(size=22050) * 0.2, 22050)
    y = Waveform(alpha * x.samples, 22050)
    assert abs(mcd(x, y)) <= 1e-9


def test_mcd_is_symmetric(speech_clip, rng):
    x = speech_clip
    y = Waveform(x.samples + rng.normal(size=len(x)) * 0.01, x.sample_rate)
    assert abs(mcd(x, y) - mcd(y, x)) <= 1e-9


def test_mcd_matches_brute_force_pipeline_oracle(rng):
    x = Waveform(rng.normal(size=11025) * 0.2, 22050)  # 0.5 s clip
    y = Waveform(x.samples + rng.normal(size=len(x)) * 0.005, 22050)
    got = mcd(x, y)
    want = oracle_mcd(x, y)
    assert got == pytest.approx(want, abs=1e-9)
    assert got > 0.0


@pytest.mark.parametrize("bands,cepstra", [(23, 13), (40, 20)])
@pytest.mark.parametrize("rate", [8000, 16000, 44100, 48000])
def test_mcd_matches_the_oracle_at_every_rate(rng, rate, bands, cepstra):
    # pins the fixed 1024/256 grid and the 0 Hz to rate / 2 band edges away from 22.05 kHz
    x = Waveform(rng.normal(size=3000) * 0.2, rate)
    y = Waveform(x.samples + rng.normal(size=len(x)) * 0.005, rate)
    got = mcd(x, y, McdConfig(bands, cepstra))
    assert got == pytest.approx(oracle_mcd(x, y, bands, cepstra), abs=1e-9)
    assert got > 0.0


def test_mcd_length_mismatch_rejected(rng):
    x = Waveform(rng.normal(size=4000), 22050)
    y = Waveform(rng.normal(size=4001), 22050)
    with pytest.raises(InvalidInputError):
        mcd(x, y)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda x: mcd(x, x, "c"), InvalidConfigError, "cfg must be a McdConfig, got str"),
        (lambda x: mcd(x, None), InvalidInputError, "mcd needs a Waveform, got NoneType"),
        (lambda x: mcd("a", x), InvalidInputError, "mcd needs a Waveform, got str"),
        (lambda x: mcd(x.samples, x), InvalidInputError, "mcd needs a Waveform, got ndarray"),
        (lambda x: snr_db(None, x), InvalidInputError, "snr_db needs a Waveform, got NoneType"),
        (lambda x: snr_db(x, "y"), InvalidInputError, "snr_db needs a Waveform, got str"),
    ],
    ids=["mcd-config-str", "mcd-estimate-none", "mcd-reference-str", "mcd-reference-array",
         "snr-reference-none", "snr-estimate-str"],
)
def test_wrong_typed_arguments_get_typed_errors(call, error, message, rng):
    x = Waveform(rng.normal(size=4000), 22050)
    with pytest.raises(error, match=f"^{message}$"):
        call(x)


def test_mcd_empty_input_rejected():
    empty = Waveform(np.zeros(0), 22050)
    with pytest.raises(InvalidInputError):
        mcd(empty, empty)


def test_mcd_of_a_spectrum_beyond_float64_is_an_input_error():
    # 1e308 is a finite sample, but its frames' rfft overflows to inf.
    x = Waveform(np.full(4096, 1e308), 22050)
    with pytest.raises(InvalidInputError, match="^cannot clip non-finite data$"):
        mcd(x, x)


def test_mcd_config_validation():
    with pytest.raises(InvalidConfigError):
        McdConfig(n_cepstra=23, n_mel_bands=23)
    cfg = McdConfig()
    assert (cfg.n_mel_bands, cfg.n_cepstra) == (23, 13)
    # the analysis is fixed (centered 1024/256 hann, 0 Hz to Nyquist): the counts are all a caller sets
    assert [f.name for f in dataclasses.fields(McdConfig)] == ["n_mel_bands", "n_cepstra"]


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("n_mel_bands", 30.5, "n_mel_bands must be a whole number, got 30.5"),
        ("n_mel_bands", "a", "n_mel_bands must be a whole number, got 'a'"),
        ("n_cepstra", 2.5, "n_cepstra must be a whole number, got 2.5"),
    ],
)
def test_mcd_config_takes_whole_counts(field, value, message):
    with pytest.raises(InvalidConfigError) as exc:
        McdConfig(**{field: value})
    assert str(exc.value) == message


def test_mcd_config_needs_a_mel_band():
    with pytest.raises(InvalidConfigError) as exc:
        McdConfig(n_mel_bands=0)
    assert str(exc.value) == "n_mel_bands must be >= 1"


def test_mcd_config_stores_whole_float_counts_as_ints(rng):
    cfg = McdConfig(n_mel_bands=23.0, n_cepstra=13.0)
    assert cfg == McdConfig() and all(type(v) is int for v in (cfg.n_mel_bands, cfg.n_cepstra))
    x = Waveform(rng.normal(size=8000) * 0.2, 22050)
    y = Waveform(x.samples * 0.9, 22050)
    assert mcd(x, y, cfg) == mcd(x, y)


def test_mcd_custom_band_count_runs(rng):
    x = Waveform(rng.normal(size=8000) * 0.2, 22050)
    y = Waveform(x.samples * 0.9 + rng.normal(size=8000) * 0.002, 22050)
    cfg = McdConfig(n_mel_bands=40, n_cepstra=20)
    assert mcd(x, y, cfg) >= 0.0


def test_mel_filterbank_shape_and_coverage():
    fb = _mel_bank(23, 22050)
    assert fb.shape == (23, 513)
    assert fb.min() >= 0.0
    assert (fb.sum(axis=1) > 0.0).all()  # every band catches some bins


def test_mcd_detects_spectral_damage(speech_clip, rng):
    x = speech_clip
    noisy = Waveform(x.samples + rng.normal(size=len(x)) * 0.03, x.sample_rate)
    assert mcd(x, noisy) > 0.1
