"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench/tests``)."""
import argparse
import json
import re
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
import specinv

import run
from conftest import BENCH_DIR
from stats import Recorder, khz, tail
from workloads import END_TO_END, KINDS, OPERATIONS, PER_LAYER, WORKLOADS, Bench, expected_frames

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """Returns the given durations (seconds) as start/stop tick pairs."""

    def __init__(self, durations):
        self.ticks = [t for i, d in enumerate(durations) for t in (10.0 * i, 10.0 * i + d)]

    def __call__(self):
        return self.ticks.pop(0)


def test_median_tail_and_khz_under_injected_clock():
    durations = [0.001 * (i + 1) for i in range(25)]
    rec = Recorder(FakeClock(durations[::-1]))
    for _ in durations:
        _, seconds = rec.measure(lambda: None)
        rec.add("op", seconds)
    s = rec.summary("op")
    assert s["n"] == 25
    assert s["median_ms"] == pytest.approx(13.0)
    # p50 has 12 samples beyond it, p90 only 2: p50 is the highest reportable.
    assert (s["tail_pct"], s["tail_ms"]) == (50.0, pytest.approx(13.0))
    assert khz(661_500, rec.median("op")) == pytest.approx(661_500 / 0.013 / 1000)


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 121))
    assert tail(values) == (90.0, 108)  # 12 beyond p90; p95 would leave 6
    assert tail(list(range(1000))) == (99.0, 989)
    assert tail(list(range(10))) is None
    assert tail(list(range(20))) == (50.0, 9)


def test_metric_names_units_and_benchmark_json_agree():
    names = [n for n, _, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better in END_TO_END + PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("higher", "lower")
    with open(BENCH_DIR.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    assert declared == {n: (u, b) for n, u, b in END_TO_END}
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == list(PER_LAYER)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_clip_passes_every_check_and_reports_every_metric(workload, tmp_path):
    bench = Bench(workload, seed=7, workdir=str(tmp_path), duration=1.5)
    bench.round(keep=False)
    bench.round()
    bench.paired_round(traced_first=False)
    bench.paired_round(traced_first=True)
    bench.measure_extras()
    assert (bench.attempted, bench.failed, bench.failures) == (60, 0, [])
    assert all(len(bench.rec.samples[f"self:{op}"]) == 2 for op in OPERATIONS)
    e2e = set(bench.end_to_end()) | {"peak_rss_mb", "setup_s"}
    assert e2e == {n for n, _, _ in END_TO_END}
    layer = bench.per_layer()
    assert list(layer) == [n for n, _, _ in PER_LAYER]
    assert all(np.isfinite(v) for v in layer.values())
    win, hop, _ = WORKLOADS[workload]
    assert layer["signal.frames"] == expected_frames(bench.n, win, hop)
    assert 0.0 < layer["vocoder.clip_zero_frac"] < 1.0
    assert set(bench.digests) == set(OPERATIONS)


class Perturbed:
    """specinv with one output sample moved by 1e-3 in ``hit``."""

    def __init__(self, hit):
        self.hit = hit

    def __getattr__(self, name):
        return getattr(specinv, name)

    def _nudge(self, y):
        samples = y.samples.copy()
        samples[100] += 1e-3
        return specinv.Waveform(samples, y.sample_rate)

    def synthesize(self, spec, workers=1):
        y = specinv.synthesize(spec, workers=workers)
        return self._nudge(y) if self.hit == "synthesize" else y

    def overlap_add(self, frames):
        y = specinv.overlap_add(frames)
        return self._nudge(y) if self.hit == "overlap_add" else y


def test_perturbed_sample_trips_the_round_trip_check(tmp_path):
    bench = Bench("coarse", seed=7, workdir=str(tmp_path), duration=1.5, api=Perturbed("synthesize"))
    bench.round()
    # The exact kinds fall below 180 dB; the CLI commands that synthesize
    # still pass, since their checks do not compare against the input.
    assert bench.failed == len(KINDS) - 1
    assert bench.failed / bench.attempted > 0
    assert all("dB <" in f for f in bench.failures)
    assert "synthesize.real_fft" in bench.rec.samples
    assert "synthesize.dct" not in bench.rec.samples


def test_traced_composition_must_match_the_library_bit_for_bit(tmp_path):
    bench = Bench("coarse", seed=7, workdir=str(tmp_path), duration=1.5, api=Perturbed("overlap_add"))
    bench.round()
    assert bench.failed == 0
    bench.paired_round(traced_first=False)
    # real_fft has no SNR floor: the digest comparison alone catches it.
    # The untraced calls of the pairs still pass.
    assert bench.failed == len(KINDS)
    assert any("trace:synthesize.real_fft" in f and "traced composition" in f for f in bench.failures)


def test_harness_time_counts_input_and_checks_only(tmp_path):
    bench = Bench("coarse", seed=7, workdir=str(tmp_path), duration=1.5)
    made = bench.harness_s
    assert made > 0.0
    bench.rec.clock = FakeClock([0.5, 0.25])  # one call, then its check
    bench._op("analyze.dct", lambda: bench.api.analyze(bench.x, bench.config, "dct"), bench._check_spec("dct"))
    assert bench.rec.samples["analyze.dct"] == [0.5]
    assert bench.harness_s == pytest.approx(made + 0.25)


def test_worker_not_ready_by_the_deadline_is_killed():
    args = argparse.Namespace(workload="coarse", seed=1)
    started = []
    popen = subprocess.Popen

    def spy(*a, **kw):
        started.append(popen(*a, **kw))
        return started[-1]

    run.subprocess.Popen = spy
    try:
        with pytest.raises(run.WorkerError, match="did not become ready"):
            run._start(args, ["--setup-only"], deadline=time.perf_counter())
    finally:
        run.subprocess.Popen = popen
    assert started[0].returncode is not None


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "coarse", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert "cannot import specinv" in done.stderr
