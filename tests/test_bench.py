import inspect
import json

import numpy as np
import pytest

from specinv.bench import (
    TSV_COLUMNS,
    BenchReport,
    BenchSpec,
    _tone,
    run_bench,
    to_jsonl,
)
from specinv.errors import InvalidConfigError, MeasurementError, UnsupportedKindError
from specinv.signal import FrameConfig, WindowKind
from specinv.vocoder import SPECTROGRAM_KINDS, ClipMode


class MockClock:
    """Returns scripted values; records how often it was read."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.values.pop(0)


def _spec(**kw):
    base = dict(
        kind="packed_rfft",
        config=FrameConfig(64, 16),
        clip_duration=0.05,
        sample_rate=22050,
        runs=2,
        warmup_runs=3,
        stage="synthesize_only",
    )
    base.update(kw)
    return BenchSpec(**base)


def test_mock_clock_arithmetic_and_warmup_exclusion():
    # Two timed runs of 0.011 s each; warmup consumes no clock readings,
    # so exactly 2 * runs readings happen.
    clock = MockClock([0.0, 0.011, 1.0, 1.011])
    samples = int(0.05 * 22050)
    report = run_bench(_spec(), clock=clock)
    assert clock.calls == 4
    assert report.mean_seconds == pytest.approx(0.011, abs=1e-15)
    assert report.stddev_seconds == pytest.approx(0.0, abs=1e-12)
    assert report.samples_generated == samples
    assert report.khz == pytest.approx(samples / 0.011 / 1000.0, abs=1e-9)
    assert report.rtf == pytest.approx(report.khz * 1000.0 / 22050, abs=1e-9)


def test_reference_throughput_numbers_via_mock_clock():
    # A 10 s 22050 Hz clip synthesized in a 0.011 s mean lands at the
    # published 20045.5 kHz / 909.1x operating point; 0.049 s at 4500 kHz.
    spec = _spec(clip_duration=10.0, runs=1, warmup_runs=0)
    report = run_bench(spec, clock=MockClock([0.0, 0.011]))
    assert report.samples_generated == len(_tone(10.0, 22050)) == 220500
    assert report.khz == pytest.approx(20045.5, abs=0.05)
    assert report.rtf == pytest.approx(909.1, abs=0.05)

    report = run_bench(spec, clock=MockClock([0.0, 0.049]))
    assert report.khz == pytest.approx(4500.0, abs=0.05)
    assert report.rtf == pytest.approx(204.1, abs=0.05)


def test_rtf_is_one_when_elapsed_equals_duration():
    spec = _spec(clip_duration=10.0, runs=1, warmup_runs=0)
    report = run_bench(spec, clock=MockClock([5.0, 15.0]))
    assert report.rtf == pytest.approx(1.0, abs=1e-12)


def test_stddev_over_unequal_runs():
    clock = MockClock([0.0, 0.010, 1.0, 1.020])
    report = run_bench(_spec(), clock=clock)
    assert report.mean_seconds == pytest.approx(0.015, abs=1e-15)
    assert report.stddev_seconds == pytest.approx(np.std([0.010, 0.020], ddof=1), abs=1e-12)


def test_zero_elapsed_time_is_a_measurement_error():
    clock = MockClock([1.0, 1.0, 2.0, 2.0])
    with pytest.raises(MeasurementError):
        run_bench(_spec(), clock=clock)


@pytest.mark.parametrize("stage", ["synthesize_only", "analyze_only", "roundtrip"])
def test_all_stages_run_with_real_clock(stage):
    report = run_bench(_spec(stage=stage, runs=3, warmup_runs=1))
    assert report.mean_seconds > 0.0
    assert report.khz > 0.0 and report.rtf > 0.0


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        _spec(runs=0)
    with pytest.raises(InvalidConfigError):
        _spec(warmup_runs=-1)
    with pytest.raises(InvalidConfigError):
        _spec(stage="decode")
    with pytest.raises(InvalidConfigError):
        _spec(clip_duration=0.0)
    with pytest.raises(InvalidConfigError):
        _spec(workers=0)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("clip_duration", float("nan"), "clip_duration must be a positive finite number, got nan"),
        ("clip_duration", float("inf"), "clip_duration must be a positive finite number, got inf"),
        ("clip_duration", float("-inf"), "clip_duration must be a positive finite number, got -inf"),
        ("sample_rate", float("nan"), "sample_rate must be a whole number, got nan"),
        ("sample_rate", float("inf"), "sample_rate must be a whole number, got inf"),
        ("sample_rate", 22050.5, "sample_rate must be a whole number, got 22050.5"),
        ("sample_rate", 0, "sample_rate must be >= 1"),
        ("clip_duration", "x", "clip_duration must be a positive finite number, got 'x'"),
        ("clip_duration", None, "clip_duration must be a positive finite number, got None"),
        ("sample_rate", None, "sample_rate must be a whole number, got None"),
        ("sample_rate", "22050", "sample_rate must be a whole number, got '22050'"),
    ],
)
def test_spec_duration_is_finite_and_rate_whole(field, value, message):
    with pytest.raises(InvalidConfigError) as exc:
        _spec(**{field: value})
    assert str(exc.value) == message


@pytest.mark.parametrize("field,low", [("runs", 1), ("warmup_runs", 0), ("workers", 1)])
@pytest.mark.parametrize(
    "value,message",
    [
        (float("nan"), "{field} must be a whole number, got nan"),
        (float("inf"), "{field} must be a whole number, got inf"),
        (1.5, "{field} must be a whole number, got 1.5"),
        ("2", "{field} must be a whole number, got '2'"),
        (float("-inf"), "{field} must be >= {low}"),
    ],
)
def test_spec_counts_are_whole_numbers(field, low, value, message):
    with pytest.raises(InvalidConfigError) as exc:
        _spec(**{field: value})
    assert str(exc.value) == message.format(field=field, low=low)


def test_spec_whole_float_counts_become_ints():
    spec = _spec(runs=2.0, warmup_runs=1.0, workers=1.0)
    assert (spec.runs, spec.warmup_runs, spec.workers) == (2, 1, 1)
    assert all(type(v) is int for v in (spec.runs, spec.warmup_runs, spec.workers))
    assert run_bench(spec, clock=MockClock([0.0, 0.5, 1.0, 1.5])).mean_seconds == 0.5


@pytest.mark.parametrize(
    "duration,rate,reason",
    [
        (float("nan"), 8000, "cannot convert float NaN to integer"),
        (float("inf"), 8000, "cannot convert float infinity to integer"),
        (1.0, float("nan"), "cannot convert float NaN to integer"),
        (1e300, 22050, ""),
    ],
)
def test_make_tone_without_a_sample_count_is_config_error(duration, rate, reason):
    with pytest.raises(InvalidConfigError) as exc:
        _tone(duration, rate)
    assert str(exc.value).startswith(f"cannot make a {duration} s tone at {rate} Hz: {reason}")


def test_run_bench_times_the_tone_of_the_spec_duration_and_rate():
    report = run_bench(_spec(sample_rate=16000), clock=MockClock([0.0, 0.5, 1.0, 1.5]))
    assert report.samples_generated == len(_tone(0.05, 16000)) == 800
    assert list(inspect.signature(run_bench).parameters) == ["spec", "clock"]


@pytest.mark.parametrize(
    "field,value,error,message",
    [
        ("clip", "zero", InvalidConfigError, "clip must be a ClipMode, got 'zero'"),
        ("kind", "nope", UnsupportedKindError, f"unknown spectrogram kind 'nope'; expected one of {SPECTROGRAM_KINDS}"),
        ("config", None, InvalidConfigError, "config must be a FrameConfig, got NoneType"),
        ("config", FrameConfig(63, 16), InvalidConfigError, "packed_rfft requires an even win_length, got 63"),
    ],
    ids=["str-clip", "unknown-kind", "none-config", "odd-packed-window"],
)
def test_spec_checks_kind_config_and_clip_at_construction(field, value, error, message):
    with pytest.raises(error) as exc:
        _spec(**{field: value})
    assert str(exc.value) == message


def test_spec_stores_a_whole_float_sample_rate_as_an_int():
    spec = _spec(sample_rate=16000.0)
    assert type(spec.sample_rate) is int and spec.sample_rate == 16000


def test_report_records_protocol_and_parallelism():
    spec = _spec(workers=2)
    report = run_bench(spec, clock=MockClock([0.0, 0.5, 1.0, 1.5]))
    d = report.to_dict()
    assert d["workers"] == 2
    assert d["stage"] == "synthesize_only"
    assert d["runs"] == 2 and d["warmup_runs"] == 3
    assert d["pipeline"] == "packed_rfft"
    assert d["sample_rate"] == 22050


def test_tsv_row_has_stable_columns():
    report = run_bench(_spec(clip=ClipMode.zero(), kind="dct"), clock=MockClock([0.0, 0.5, 1.0, 1.5]))
    cells = report.tsv_row().split("\t")
    assert len(cells) == len(TSV_COLUMNS)
    assert cells[0] == "dct"
    assert cells[1] == "64" and cells[2] == "16"
    assert cells[3] == "zero"


def test_to_jsonl_one_record_per_report():
    r1 = run_bench(_spec(), clock=MockClock([0.0, 0.5, 1.0, 1.5]))
    r2 = run_bench(_spec(kind="dct"), clock=MockClock([0.0, 0.25, 1.0, 1.25]))
    records = [json.loads(line) for line in to_jsonl([r1, r2]).splitlines()]
    assert len(records) == 2
    assert records[0]["pipeline"] == "packed_rfft"
    assert records[1]["pipeline"] == "dct"


def test_default_protocol_matches_reference_settings():
    spec = BenchSpec(kind="dct", config=FrameConfig(1024, 256))
    assert spec.runs == 100
    assert spec.warmup_runs == 10
    assert spec.clip_duration == 10.0
    assert spec.sample_rate == 22050
    assert spec.stage == "synthesize_only"
    assert spec.workers == 1


def test_make_tone_is_deterministic():
    a = _tone(0.1, 22050)
    b = _tone(0.1, 22050)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert len(a) == 2205


def test_report_is_dataclass_with_expected_fields():
    report = run_bench(_spec(), clock=MockClock([0.0, 0.5, 1.0, 1.5]))
    assert isinstance(report, BenchReport)
    assert report.spec.kind == "packed_rfft"
    assert report.rtf == report.khz * 1000.0 / report.spec.sample_rate


def test_boxcar_large_hop_bench_runs():
    spec = BenchSpec(
        kind="packed_rfft",
        config=FrameConfig(1024, 1022, WindowKind.boxcar()),
        clip_duration=0.5,
        runs=2,
        warmup_runs=1,
    )
    report = run_bench(spec)
    assert report.khz > 0.0
