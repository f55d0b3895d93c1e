import importlib.util
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
