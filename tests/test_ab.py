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


def test_drift_flags_the_committed_run_whose_machine_slowed_midway():
    # In BENCH_10.json the machine slowed 2.3-2.8x from the second run of dense pair 4 on.
    record = json.loads((Path(__file__).parents[1] / "BENCH_10.json").read_text())
    for workload, summary in record["workloads"].items():
        better = {name: m["better"] for name, m in summary["metrics"].items()}
        runs = [
            {"pair": i, "side": side, "failed": 0,
             "end_to_end": {name: m[side][i] for name, m in summary["metrics"].items()}}
            for i in range(summary["pairs"]) for side in ab.SIDES
        ]
        drift = {name for name, m in ab.summarize(runs, better)["metrics"].items() if m["drift"]}
        kinds = {name for name in better if name.endswith("_khz") or "_khz." in name}
        assert drift == (kinds | {"setup_s"} if workload == "dense" else set()), workload
