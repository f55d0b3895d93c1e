import importlib.util
import json
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ab", Path(__file__).parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_run_order_alternates_which_side_goes_first():
    assert ab.run_order(3) == [
        (0, "parent"), (0, "change"), (1, "change"), (1, "parent"), (2, "parent"), (2, "change"),
    ]


@pytest.mark.parametrize(
    "n,rank,coverage",
    [
        (1, 1, 0.0),
        (5, 1, 1 - 2 / 32),  # below 95%: the whole range is the best there is
        (6, 1, 1 - 2 / 64),
        (10, 2, 1 - 2 * 11 / 1024),
        (20, 6, 1 - 2 * sum(math.comb(20, i) for i in range(6)) / 2**20),
    ],
)
def test_sign_interval_takes_the_widest_rank_that_keeps_95_percent(n, rank, coverage):
    values = [float(v) for v in range(n, 0, -1)]
    low, high, cover = ab.sign_interval(values)
    assert (low, high) == (rank, n + 1 - rank)
    assert cover == pytest.approx(coverage)
    assert cover >= 0.95 or rank == 1


def _run(pair, side, khz, rss, failed=0):
    return {"pair": pair, "side": side, "end_to_end": {"synth_khz.dct": khz, "peak_rss_mb": rss}, "failed": failed}


def test_summarize_pairs_each_run_with_its_partner():
    runs = [
        _run(0, "parent", 100.0, 200.0), _run(0, "change", 150.0, 180.0),
        _run(1, "change", 130.0, 190.0), _run(1, "parent", 100.0, 200.0),
        _run(2, "parent", 200.0, 100.0, failed=1), _run(2, "change", 180.0, 110.0),
        # a run that produced no record leaves its pair out of the ratios
        _run(3, "parent", 1.0, 1.0), {"pair": 3, "side": "change", "end_to_end": {}, "failed": 0},
    ]
    out = ab.summarize(runs, {"synth_khz.dct": "higher", "peak_rss_mb": "lower"})
    assert out["pairs"] == 3
    assert out["failed_runs"] == 1
    assert out["failed_ops"] == {"parent": 1, "change": 0}
    khz = out["metrics"]["synth_khz.dct"]
    assert khz["parent"] == [100.0, 100.0, 200.0] and khz["change"] == [150.0, 130.0, 180.0]
    assert khz["parent_median"] == 100.0 and khz["change_median"] == 150.0
    assert khz["ratio_median"] == pytest.approx(1.3)
    assert khz["ratio_interval"] == pytest.approx([0.9, 1.5])
    assert khz["change_better_pairs"] == 2
    assert khz["parent_iqr"] == pytest.approx(100.0)  # quartiles 100 and 200 of [100, 100, 200]
    rss = out["metrics"]["peak_rss_mb"]
    assert rss["change_better_pairs"] == 2  # lower is better: 180 < 200 and 190 < 200, not 110 > 100
    assert rss["ratio_median"] == pytest.approx(0.95)


def test_summarize_of_an_a_a_run_reads_ratio_one():
    runs = [_run(i, side, 100.0 + i, 50.0) for i in range(4) for side in ab.SIDES]
    out = ab.summarize(runs, {"synth_khz.dct": "higher", "peak_rss_mb": "lower"})
    for metric in out["metrics"].values():
        assert metric["ratio_median"] == 1.0
        assert metric["change_better_pairs"] == 0  # ties count for neither side


def test_summarize_without_a_complete_pair_has_no_metrics():
    out = ab.summarize([_run(0, "parent", 1.0, 1.0)], {"synth_khz.dct": "higher"})
    assert out["pairs"] == 0 and out["metrics"] == {}


def test_summarize_leads_each_metric_with_the_paired_ratio():
    runs = [_run(i, side, 100.0 + i, 50.0) for i in range(3) for side in ab.SIDES]
    khz = ab.summarize(runs, {"synth_khz.dct": "higher"})["metrics"]["synth_khz.dct"]
    assert list(khz)[:4] == ["ratio_median", "ratio_interval", "interval_coverage", "change_better_pairs"]


def _drifting_runs(slowdown, noise):
    """Ten pairs where the change is 10% faster, the machine slows by ``slowdown`` from pair 4 on,
    and each run's speed is off by up to ``noise`` (alternating sign)."""
    runs = []
    for i in range(10):
        level = 100.0 / (slowdown if i >= 4 else 1.0)
        jitter = 1.0 + noise * (-1) ** i
        runs += [_run(i, "parent", level * jitter, 50.0), _run(i, "change", level * 1.1 / jitter, 50.0 * jitter)]
    return runs


def test_summarize_flags_a_run_whose_pairs_drift_more_than_they_differ():
    metrics = ab.summarize(_drifting_runs(2.5, 0.02), {"synth_khz.dct": "higher"})["metrics"]
    khz = metrics["synth_khz.dct"]
    # each pair's geometric mean cancels the jitter, so the pairs spread by the slowdown alone
    assert khz["drift"] and khz["pair_spread"] == pytest.approx(2.5)
    assert khz["ratio_spread"] == pytest.approx((1.02 / 0.98) ** 2)
    # the paired ratio still reads the change's 10%
    assert khz["ratio_median"] == pytest.approx(1.1, rel=0.01) and khz["change_better_pairs"] == 10


def test_summarize_does_not_flag_a_steady_run():
    runs = _drifting_runs(1.0, 0.02)
    metrics = ab.summarize(runs, {"synth_khz.dct": "higher", "peak_rss_mb": "lower"})["metrics"]
    assert not any(m["drift"] for m in metrics.values())
    assert metrics["peak_rss_mb"]["ratio_spread"] == pytest.approx(1.02 / 0.98)


def test_identical_ratios_flag_drift_only_beyond_the_spread_floor():
    # every pair's ratio is exactly 1.1, so the within-pair spread is 1.0; the pairs' levels step 0.2% or 10% a pair
    def runs(step):
        return [_run(i, side, 100.0 * step**i * (1.1 if side == "change" else 1.0), 50.0)
                for i in range(10) for side in ab.SIDES]

    steady = ab.summarize(runs(1.002), {"synth_khz.dct": "higher"})["metrics"]["synth_khz.dct"]
    assert steady["ratio_spread"] == pytest.approx(1.0) and not steady["drift"]
    drifting = ab.summarize(runs(1.1), {"synth_khz.dct": "higher"})["metrics"]["synth_khz.dct"]
    assert drifting["ratio_spread"] == pytest.approx(1.0) and drifting["drift"]


def test_a_metric_that_reads_zero_is_summarized():
    runs = [_run(i, side, 100.0, 0.0 if side == "parent" or i % 2 else 50.0) for i in range(4) for side in ab.SIDES]
    rss = ab.summarize(runs, {"peak_rss_mb": "lower"})["metrics"]["peak_rss_mb"]
    assert rss["ratio_median"] == math.inf and not rss["drift"]


ROOT = Path(__file__).parents[1]
BOUNDS = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _resummarized(path):
    """Each workload of a committed ``tools/ab.py`` record, summarized again from its runs."""
    record = json.loads((ROOT / path).read_text())
    out = {}
    for workload, summary in record["workloads"].items():
        better = {name: m["better"] for name, m in summary["metrics"].items()}
        runs = [
            {"pair": i, "side": side, "failed": 0,
             "end_to_end": {name: m[side][i] for name, m in summary["metrics"].items()}}
            for i in range(summary["pairs"]) for side in ab.SIDES
        ]
        out[workload] = ab.summarize(runs, better, BOUNDS)["metrics"]
    return out


def test_drift_flags_the_committed_run_whose_machine_slowed_midway():
    # In BENCH_10.json the machine slowed 2.3-2.8x from the second run of dense pair 4 on.
    for workload, metrics in _resummarized("BENCH_10.json").items():
        better = {name: m["better"] for name, m in metrics.items()}
        drift = {name for name, m in metrics.items() if m["drift"]}
        kinds = {name for name in better if name.endswith("_khz") or "_khz." in name}
        assert drift == (kinds | {"setup_s"} if workload == "dense" else set()), workload


def test_an_a_a_run_yields_no_gain():
    # BENCH_8_aa.json ran one checkout as both sides: its cli_khz.analyze won 10/10 at x1.030,
    # but the medians differ by 5.7%, inside the parent's 7.5% interquartile range.
    for workload, metrics in _resummarized("BENCH_8_aa.json").items():
        assert metrics["cli_khz.analyze"]["change_better_pairs"] == 10
        assert {m["verdict"] for m in metrics.values()} == {"no change"}, workload


def test_a_committed_gain_reads_gain():
    assert _resummarized("BENCH_12.json")["coarse"]["cli_khz.synthesize"]["verdict"] == "gain"


def test_a_gain_needs_ten_pairs():
    # BENCH_17_pinned_aa.json ran one checkout as both sides for 3 pairs: its coarse peak_rss_mb
    # won 3/3 at x0.999 by more than the parent's 3-run range, and was committed as a gain.
    committed = json.loads((ROOT / "BENCH_17_pinned_aa.json").read_text())["workloads"]["coarse"]["metrics"]
    rss = _resummarized("BENCH_17_pinned_aa.json")["coarse"]["peak_rss_mb"]
    assert committed["peak_rss_mb"]["verdict"] == "gain" and rss["change_better_pairs"] == 3
    assert rss["verdict"] == "no change"
    # the 10-pair records keep every committed verdict
    for path in ("BENCH_17_pinned_aa10.json", "BENCH_17.json"):
        record = json.loads((ROOT / path).read_text())["workloads"]
        for workload, metrics in _resummarized(path).items():
            assert {name: m["verdict"] for name, m in metrics.items()} == {
                name: m["verdict"] for name, m in record[workload]["metrics"].items()}, (path, workload)


def _verdict(parent, change, better, bound=0.25):
    runs = [{"pair": i, "side": side, "failed": 0, "end_to_end": {"m": v}}
            for i, pair in enumerate(zip(parent, change)) for side, v in zip(ab.SIDES, pair)]
    return ab.summarize(runs, {"m": better}, {"m": bound})["metrics"]["m"]["verdict"]


def test_verdict_rules():
    parent = [100.0, 98.0, 102.0, 99.0, 101.0, 100.0, 97.0, 103.0, 100.0, 100.0]
    assert _verdict(parent, [v * 0.70 for v in parent], "higher") == "regression"
    assert _verdict(parent, [v * 1.30 for v in parent], "lower") == "regression"
    assert _verdict(parent, [v * 0.80 for v in parent], "higher") == "no change"  # worse, but within the bound
    assert _verdict(parent, [v * 1.10 for v in parent], "higher") == "gain"
    assert _verdict(parent, [v * 0.90 for v in parent], "lower") == "gain"
    assert _verdict(parent, parent, "higher") == "no change"
    # the parent's runs spread wider than the bound: 1.2x in every pair tells nothing...
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert _verdict(wide, [v * 1.2 for v in wide], "higher") == "unresolved"
    # ...unless every change run beats every parent run
    assert _verdict(wide, [v + 100.0 for v in wide], "higher") == "gain"
    # fewer than GAIN_PAIRS pairs cannot make a gain, however clear
    assert ab.GAIN_PAIRS == 10
    assert _verdict(parent[:9], [v * 1.10 for v in parent[:9]], "higher") == "no change"



def test_pin_malloc_adds_the_thresholds_to_the_child_environment_only(monkeypatch):
    monkeypatch.setenv("SPECINV_AB_PROBE", "kept")
    for name in ab.MALLOC_PIN:
        monkeypatch.delenv(name, raising=False)
    pinned, default = ab.child_env(True), ab.child_env(False)
    assert pinned["MALLOC_MMAP_THRESHOLD_"] == "33554432" and pinned["MALLOC_TRIM_THRESHOLD_"] == "134217728"
    assert pinned["SPECINV_AB_PROBE"] == default["SPECINV_AB_PROBE"] == "kept"
    assert not set(ab.MALLOC_PIN) & set(default) and not set(ab.MALLOC_PIN) & set(ab.os.environ)


def test_a_run_gets_the_child_environment_and_records_child_usage(tmp_path, monkeypatch):
    seen = {}

    def fake_run(cmd, cwd, env, **kwargs):
        seen["env"] = env
        Path(cmd[cmd.index("--record") + 1]).write_text(json.dumps({"end_to_end": {"m": 1.0}, "failed": 0}))
        return ab.subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    env = ab.child_env(True)
    record = ab._run(tmp_path, "coarse", 1, 1.0, str(tmp_path), "coarse-0-parent", env)
    assert seen["env"] is env
    assert record["end_to_end"] == {"m": 1.0}
    # nothing was spawned, so no child finished during the run
    assert record["minflt"] == 0 and record["sys_s"] == 0.0


def test_summarize_gives_each_side_the_median_child_usage():
    runs = [dict(_run(i, side, 100.0, 50.0), minflt=1000 * (i + 1) + (side == "change"), sys_s=0.1 * (i + 1))
            for i in range(3) for side in ab.SIDES]
    runs.append(_run(3, "parent", 100.0, 50.0))  # a run without usage keys is left out of the medians
    children = ab.summarize(runs, {"synth_khz.dct": "higher"})["children"]
    assert children["parent"] == {"minflt": 2000, "sys_s": pytest.approx(0.2)}
    assert children["change"] == {"minflt": 2001, "sys_s": pytest.approx(0.2)}
    assert ab.summarize([_run(0, "parent", 1.0, 1.0)], {})["children"]["change"] == {"minflt": None, "sys_s": None}
