"""Measures the benchmark's run-to-run noise and writes a baseline record.

    python3 perfbench/baseline.py

Runs two sets of untraced runs of every workload in ``BENCHMARK.json``,
each over seeds 1..10 (seeds outermost, so workloads interleave) at its
``run_seconds``, then one traced run per workload.  For each set,
workload and end-to-end metric it reports the median, the quartiles and
the spread, (Q3 - Q1) / median from ``statistics.quantiles(n=4)``, next to
the bound in ``BENCHMARK.json``; for each workload and metric, how much
worse the second set's median is than the first's, as a share of the
first.  It writes ``perfbench/baseline.json`` with every run's metrics,
both sets' summaries, the agreement between them, and each workload's
traced record: per-layer metrics, timings with sample counts, output
digests and the provenance of the worker processes (versions, nproc,
thread settings).
"""
from __future__ import annotations

import datetime
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = tuple(range(1, 11))
SETS = 2


def run_once(workload, seed, seconds, trace, workdir) -> dict:
    path = Path(workdir) / f"{workload}-{seed}-{trace}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--record", str(path),
    ]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    with open(path) as fh:
        return json.load(fh)


def summarize(values, bound) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {
        "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
        "spread_over_bound": spread / bound,
    }


def worsening(first, second, better) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(workloads, seconds, workdir) -> dict:
    runs = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            rec = run_once(w, seed, seconds, 0, workdir)
            result = rec["result"]
            runs[w].append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "rounds": rec["rounds"],
                "setup_samples_s": rec["setup_samples_s"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(f"{w} seed {seed}: correct={result['correct']} rounds={rec['rounds']}", file=sys.stderr)
    return runs


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    started = datetime.datetime.now(datetime.timezone.utc)
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        sets = [run_set(workloads, seconds, workdir) for _ in range(SETS)]
        traced = {w: run_once(w, SEEDS[0], seconds, 1, workdir) for w in workloads}

    out = {
        "generated_by": "perfbench/baseline.py",
        "started_utc": started.isoformat(timespec="seconds"),
        "host": {"platform": platform.platform(), "machine": platform.machine()},
        "provenance": traced[workloads[0]]["provenance"],
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "sets": [],
        "agreement": {},
        "traced": traced,
    }
    worst = {"spread_over_bound": 0.0, "spread_over_bound_except_setup_s": 0.0, "worsening_over_bound": 0.0}
    print(f"{'set':<3} {'workload':<8} {'metric':<24} {'median':>12} {'spread':>7} {'bound':>5} {'ratio':>6}")
    for number, runs in enumerate(sets, 1):
        summaries = {}
        for w in workloads:
            summaries[w] = {}
            for name, m in metrics.items():
                s = summarize([r["metrics"][name] for r in runs[w]], m["bound"])
                summaries[w][name] = s
                worst["spread_over_bound"] = max(worst["spread_over_bound"], s["spread_over_bound"])
                if name != "setup_s":
                    worst["spread_over_bound_except_setup_s"] = max(
                        worst["spread_over_bound_except_setup_s"], s["spread_over_bound"]
                    )
                print(f"{number:<3} {w:<8} {name:<24} {s['median']:>12.4f} {s['spread']:>7.4f} "
                      f"{m['bound']:>5g} {s['spread_over_bound']:>6.3f}")
        out["sets"].append({"summary": summaries, "runs": runs})
    first, second = (s["summary"] for s in out["sets"][:2])
    print(f"{'workload':<8} {'metric':<24} {'set 1':>12} {'set 2':>12} {'worse':>7} {'ratio':>6}")
    for w in workloads:
        out["agreement"][w] = {}
        for name, m in metrics.items():
            a, b = first[w][name]["median"], second[w][name]["median"]
            worse = worsening(a, b, m["better"])
            out["agreement"][w][name] = {"worsening": worse, "worsening_over_bound": worse / m["bound"]}
            worst["worsening_over_bound"] = max(worst["worsening_over_bound"], worse / m["bound"])
            print(f"{w:<8} {name:<24} {a:>12.4f} {b:>12.4f} {worse:>7.4f} {worse / m['bound']:>6.3f}")
    out["worst"] = worst
    with open(HERE / "baseline.json", "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"worst: {json.dumps(worst)}; wrote {HERE / 'baseline.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
