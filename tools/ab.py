"""Interleaved A/B runs of the benchmark in two checkouts, summarized as paired ratios.

Usage (from anywhere)::

    python tools/ab.py --parent DIR --change DIR --workload W [W ...] \\
        --pairs N --out BENCH_<n>.json [--seed S]

Each pair runs ``perfbench/run.py --trace 0 --record`` once in each
checkout, with the checkout as the working directory, so each side measures
its own ``src``.  Every run lasts the ``run_seconds`` that
``BENCHMARK.json`` sets.  Pair order alternates, parent first in even pairs
and change first in odd ones (ABBA), so a drift of the machine's speed over
the run falls on both sides alike.  Per workload and end-to-end metric the
output holds both sides' medians, the parent's interquartile range, how many
pairs the change won, and the median of the per-pair change/parent ratios
with a sign-test interval: the distribution-free interval for a median
between two order statistics of the ratios, with its exact binomial
coverage.  Provenance records the interpreter and library versions the
workers report, the CPU count, ``os.getloadavg()`` before and after, and the
git commit of each checkout with whether its files differ from it.  Passing
the same directory twice is an A/A run, which measures the noise floor.  The
tool only aggregates: it changes nothing in either checkout.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
CONFIDENCE = 0.95  # sign-test coverage the ratio interval aims for


def run_order(pairs: int) -> list[tuple[int, str]]:
    """``(pair, side)`` in run order: parent first in even pairs, change first in odd ones."""
    return [(i, side) for i in range(pairs) for side in (SIDES if i % 2 == 0 else SIDES[::-1])]


def sign_interval(values) -> tuple[float, float, float]:
    """``(low, high, coverage)``: order statistics ``k`` and ``n + 1 - k`` of ``values``.

    ``k`` is the largest rank whose interval still covers the median with
    probability at least ``CONFIDENCE`` under the sign test (each value
    falls above the median with probability 1/2).  With too few values for
    that, ``k`` is 1, the whole range, and ``coverage`` says how much less
    it holds.
    """
    ordered = sorted(values)
    n = len(ordered)

    def coverage(k):
        return 1.0 - 2.0 * sum(math.comb(n, i) for i in range(k)) / 2.0**n

    k = 1
    while k < (n + 1) // 2 and coverage(k + 1) >= CONFIDENCE:
        k += 1
    return ordered[k - 1], ordered[n - k], coverage(k)


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric summary of one workload's runs.

    ``runs`` holds one ``{"pair", "side", "end_to_end", "failed"}`` record
    per run; ``better`` maps each metric to ``"higher"`` or ``"lower"``.
    A pair missing either side (a run that failed) is left out of the
    ratios.
    """
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(by_pair.items()) if set(p) == set(SIDES) and all(p[s]["end_to_end"] for s in SIDES)]
    metrics = {}
    for name, direction in better.items() if pairs else ():
        values = {side: [p[side]["end_to_end"][name] for p in pairs] for side in SIDES}
        ratios = [c / a for a, c in zip(values["parent"], values["change"])]
        low, high, cover = sign_interval(ratios)
        quartiles = statistics.quantiles(values["parent"], n=4) if len(pairs) > 1 else (0.0, 0.0, 0.0)
        wins = sum((c > a) if direction == "higher" else (c < a) for a, c in zip(values["parent"], values["change"]))
        metrics[name] = {
            "better": direction,
            "parent_median": statistics.median(values["parent"]),
            "change_median": statistics.median(values["change"]),
            "parent_iqr": quartiles[2] - quartiles[0],
            "ratio_median": statistics.median(ratios),
            "ratio_interval": [low, high],
            "interval_coverage": cover,
            "change_better_pairs": wins,
            "parent": values["parent"],
            "change": values["change"],
        }
    return {
        "pairs": len(pairs),
        "failed_ops": {side: sum(r["failed"] for r in runs if r["side"] == side) for side in SIDES},
        "failed_runs": sum(not r["end_to_end"] for r in runs),
        "metrics": metrics,
    }


def _git_state(path: Path) -> dict | None:
    """The checkout's commit, and whether its files differ from it; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(path), *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    return {"commit": head.stdout.strip(), "modified": bool(git("status", "--porcelain").stdout.strip())}


def _run(checkout: Path, workload: str, seed: int, seconds: float, workdir: str, tag: str) -> dict:
    record_path = Path(workdir) / f"{tag}.json"
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", "--record", str(record_path),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not record_path.exists():
        print(f"ab: {tag} failed (exit {proc.returncode}): {proc.stderr.strip()[-500:]}", file=sys.stderr)
        return {"end_to_end": {}, "failed": 0, "provenance": {}}
    return json.loads(record_path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout measured as the baseline")
    parser.add_argument("--change", type=Path, required=True, help="checkout measured against it")
    parser.add_argument("--workload", nargs="+", required=True, help="perfbench workloads, run one after another")
    parser.add_argument("--pairs", type=int, required=True, help="parent/change pairs per workload")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, default=1, help="input clip seed, the same for every run")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    provenance = {
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "mode": "A/A" if checkouts["parent"] == checkouts["change"] else "A/B",
        "checkouts": {side: _git_state(path) for side, path in checkouts.items()},
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }
    workloads = {}
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        for workload in args.workload:
            runs = []
            for pair, side in run_order(args.pairs):
                tag = f"{workload}-{pair}-{side}"
                record = _run(checkouts[side], workload, args.seed, spec["run_seconds"], workdir, tag)
                runs.append({"pair": pair, "side": side, "end_to_end": record["end_to_end"], "failed": record["failed"]})
                if record["provenance"]:
                    provenance.setdefault("workers", record["provenance"])
                print(f"ab: {workload} pair {pair} {side} done", file=sys.stderr)
            workloads[workload] = summarize(runs, better)
    provenance["loadavg_after"] = os.getloadavg()
    provenance["finished_utc"] = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")

    out = {
        "generated_by": "tools/ab.py",
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "pairs_requested": args.pairs,
        "order": "ABBA: parent first in even pairs, change first in odd pairs",
        "provenance": provenance,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, summary in workloads.items():
        print(f"{workload}: {summary['pairs']} pairs, failed ops {summary['failed_ops']}")
        for name, m in summary["metrics"].items():
            low, high = m["ratio_interval"]
            print(f"  {name:<26} ratio {m['ratio_median']:.3f} [{low:.3f}, {high:.3f}] "
                  f"({m['interval_coverage']:.1%})  better in {m['change_better_pairs']}/{summary['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
