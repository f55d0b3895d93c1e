"""Benchmark harness: warmed-up, repeated pipeline timing.

Reports throughput in kHz (output samples per millisecond) and the
real-time factor.  The default protocol matches the reference experiment:
a 10 s clip at 22050 Hz, 10 warm-up runs, 100 timed runs, synthesis only
(the spectrogram is prepared outside the timed region).  The timed clip
is always the generated tone of the spec's duration and rate.  The clock
is injectable so the report arithmetic is unit-testable without real
timing.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, MeasurementError, _choice, _count, _finite, _need
from .signal import FrameConfig, Waveform
from .vocoder import ClipMode, _check_kind_rules, _spectrum, _synthesis, _waveform, analyze, synthesize

__all__ = [
    "BenchSpec",
    "BenchReport",
    "run_bench",
    "to_jsonl",
]

STAGES = ("synthesize_only", "analyze_only", "roundtrip")

# tsv_row's columns are to_dict() keys; a column not listed here prints as str().
TSV_COLUMNS = ("pipeline", "win", "hop", "clip", "khz", "rtf", "mean_s", "std_s")
_TSV_FORMATS = {"khz": ".1f", "rtf": ".1f", "mean_s": ".6g", "std_s": ".6g"}


@dataclass(frozen=True)
class BenchSpec:
    """What to measure: a pipeline plus the timing protocol around it.

    Each field is checked once, at construction, by the package's shared
    rules: kind, config and clip as analysis checks them, the counts and
    the sample rate as whole numbers (stored as ints).
    """

    kind: str
    config: FrameConfig
    clip: ClipMode = field(default_factory=ClipMode)
    clip_duration: float = 10.0
    sample_rate: int = 22050
    runs: int = 100
    warmup_runs: int = 10
    stage: str = "synthesize_only"
    workers: int = 1

    def __post_init__(self):
        _check_kind_rules(self.kind, self.config, self.clip)
        if not (_finite(self.clip_duration) and self.clip_duration > 0):
            raise InvalidConfigError(f"clip_duration must be a positive finite number, got {self.clip_duration!r}")
        object.__setattr__(self, "sample_rate", _count("sample_rate", self.sample_rate, 1))
        object.__setattr__(self, "runs", _count("runs", self.runs, 1))
        object.__setattr__(self, "warmup_runs", _count("warmup_runs", self.warmup_runs, 0))
        _choice("stage", self.stage, STAGES)
        object.__setattr__(self, "workers", _count("workers", self.workers, 1))


@dataclass(frozen=True)
class BenchReport:
    """Timing statistics and derived throughput for one configuration.

    ``khz = samples_generated / mean_seconds / 1000`` and
    ``rtf = khz * 1000 / sample_rate`` by construction.
    """

    mean_seconds: float
    stddev_seconds: float
    samples_generated: int
    khz: float
    rtf: float
    spec: BenchSpec

    def to_dict(self) -> dict:
        return {
            "pipeline": self.spec.kind,
            "win": self.spec.config.win_length,
            "hop": self.spec.config.hop_length,
            "window": self.spec.config.window.label(),
            "clip": self.spec.clip.label(),
            "khz": self.khz,
            "rtf": self.rtf,
            "mean_s": self.mean_seconds,
            "std_s": self.stddev_seconds,
            "samples": self.samples_generated,
            "sample_rate": self.spec.sample_rate,
            "stage": self.spec.stage,
            "runs": self.spec.runs,
            "warmup_runs": self.spec.warmup_runs,
            "workers": self.spec.workers,
        }

    def tsv_row(self) -> str:
        """The stable tab-separated stdout row (see TSV_COLUMNS)."""
        row = self.to_dict()
        return "\t".join(format(row[column], _TSV_FORMATS.get(column, "")) for column in TSV_COLUMNS)


def _tone(duration: float, sample_rate: int) -> Waveform:
    """Deterministic 440 Hz test tone, half full scale: the clip ``run_bench`` times."""
    try:
        t = np.arange(int(round(duration * sample_rate))) / sample_rate
    except (ValueError, OverflowError) as exc:  # a NaN, infinite or unindexable sample count
        raise InvalidConfigError(f"cannot make a {duration} s tone at {sample_rate} Hz: {exc}") from None
    return Waveform(0.5 * np.sin(2.0 * np.pi * 440.0 * t), sample_rate)


def run_bench(spec: BenchSpec, clock=time.perf_counter) -> BenchReport:
    """Execute the timing protocol for one pipeline configuration.

    The clip is ``_tone(spec.clip_duration, spec.sample_rate)``.
    Performs ``spec.warmup_runs`` untimed executions (no clock reads), then
    ``spec.runs`` timed executions of exactly the chosen stage.  For
    ``synthesize_only`` the spectrogram is computed before any timing
    starts.  The timed stage runs single-threaded unless ``spec.workers``
    says otherwise, and the setting is echoed in the report.
    """
    if not callable(clock):
        raise InvalidConfigError(f"clock must be callable, got {type(clock).__name__}")
    x = _tone(_need("run_bench", spec, BenchSpec).clip_duration, spec.sample_rate)

    if spec.stage == "synthesize_only":
        gram = analyze(x, spec.config, spec.kind, spec.clip, workers=spec.workers)
    stage = {
        "synthesize_only": lambda: synthesize(gram, workers=spec.workers),
        "analyze_only": lambda: analyze(x, spec.config, spec.kind, spec.clip, workers=spec.workers),
        "roundtrip": lambda: _waveform(
            _synthesis(_spectrum(x._source(), spec.config, spec.kind, spec.clip, spec.workers), spec.workers)
        ),
    }[spec.stage]

    for _ in range(spec.warmup_runs):
        stage()

    times = np.empty(spec.runs)
    for i in range(spec.runs):
        t0 = clock()
        stage()
        times[i] = clock() - t0

    mean = float(times.mean())
    if mean <= 0.0:
        raise MeasurementError(
            f"mean elapsed time {mean} s is not positive; clock resolution too coarse?"
        )
    std = float(times.std(ddof=1)) if spec.runs > 1 else 0.0
    samples = len(x)
    khz = samples / mean / 1000.0
    rtf = khz * 1000.0 / spec.sample_rate
    return BenchReport(mean, std, samples, khz, rtf, spec)


def to_jsonl(reports) -> str:
    """Render a list or tuple of reports as line-delimited JSON records."""
    if not isinstance(reports, (list, tuple)):
        raise InvalidInputError(f"to_jsonl needs a list of BenchReport, got {type(reports).__name__}")
    return "\n".join(json.dumps(_need("to_jsonl", r, BenchReport).to_dict(), sort_keys=True) for r in reports)
