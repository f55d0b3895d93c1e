"""specinv benchmark: one workload, measured in child processes.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; specinv is imported from its ``src``
directory.  Workloads and metrics are described in ``BENCHMARK.json`` and
``perfbench/workloads.py``.  The run

* runs SETUP_RUNS - 1 set-up-only workers, half before and half after
  the one measuring worker, each single-threaded (``workers=1`` and one
  BLAS/OpenMP thread); setup_s is the median time from starting a worker
  to its ``ready`` line, less the time the worker spent making the input
  and checking outputs;
* prints every metric by name and unit, each timing median with its sample
  count and tail, the output digests and any failures;
* ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
  end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

``--record PATH`` also writes the full record (timings, digests,
provenance) as JSON.  The exit code is nonzero, with no result line, when
a worker cannot start or set up, e.g. when specinv is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(Exception):
    pass


def _start(args, extra, deadline):
    """Start a worker; return it with its set-up seconds (until its
    ``ready`` line, less its own harness time) and the operation counts of
    its cold calls.  A worker not ready by ``deadline`` is killed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **THREADS}, stdout=subprocess.PIPE, text=True)
    line = ""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                line = proc.stdout.readline()
    except BaseException:
        _stop(proc)
        raise
    ready = time.perf_counter() - start
    if not line.startswith("ready "):
        _stop(proc)
        raise WorkerError(f"worker for {args.workload!r} did not become ready (exit code {proc.returncode})")
    _, attempted, failed, harness = line.split()
    return proc, ready - float(harness), int(attempted), int(failed)


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker exceeded the time limit") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return out


def measure(args) -> dict:
    """Run the set-up workers and the measuring worker; merge their results."""
    deadline = time.perf_counter() + TIME_LIMIT_S
    setup, attempted, failed = [], 0, 0

    def setup_only(count):
        nonlocal attempted, failed
        for _ in range(count):
            proc, ready, a, f = _start(args, ["--setup-only"], deadline)
            _finish(proc, deadline)
            setup.append(ready)
            attempted, failed = attempted + a, failed + f

    # Half the set-up workers run before the measuring worker and half
    # after it, so a burst of load on the machine that lasts a few seconds
    # cannot move the median of the set-up times.
    setup_only((SETUP_RUNS - 1) // 2)
    proc, ready, _, _ = _start(args, ["--seconds", str(args.seconds)] + ["--trace"] * args.trace, deadline)
    out = _finish(proc, deadline)
    setup.append(ready)
    setup_only(SETUP_RUNS - 1 - (SETUP_RUNS - 1) // 2)
    record = json.loads(out.strip().splitlines()[-1])
    record["attempted"] += attempted
    record["failed"] += failed
    record["end_to_end"]["setup_s"] = statistics.median(setup)
    record["setup_samples_s"] = setup
    record["fail_ratio"] = record["failed"] / record["attempted"]
    return record


def report(record: dict, trace: bool) -> dict:
    """Print the record for people; return the result line's object."""
    units = record["units"]
    print(f"workload {record['workload']}  seed {record['seed']}  grid {record['grid']}  "
          f"samples {record['samples']}  rounds {record['rounds']}")
    print(f"provenance {json.dumps(record['provenance'])}")
    print(f"setup samples (s) {record['setup_samples_s']}")
    sections = [("end_to_end", record["end_to_end"])]
    if trace:
        sections.append(("per_layer", record["per_layer"]))
    for title, values in sections:
        print(f"-- {title}")
        for name, value in values.items():
            note = "  (computed from array bytes)" if name in record["computed"] else ""
            print(f"{name:<44} {value:>16.6f} {units[name]}{note}")
    print("-- timings: median_ms, samples, tail percentile and its value")
    for name, s in record["timings"].items():
        tail = f"p{s['tail_pct']:g}={s['tail_ms']:.4f}ms" if s["tail_pct"] is not None else "tail=n/a"
        print(f"{name:<44} {s['median_ms']:>12.4f}ms  n={s['n']:<5d} {tail}")
    print("-- output digests (sha256)")
    for op, digest in record["digests"].items():
        print(f"{op:<44} {digest}")
    print(f"attempted {record['attempted']}  failed {record['failed']}  fail_ratio {record['fail_ratio']:g}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    chosen = record["per_layer"] if trace else record["end_to_end"]
    finite = all(math.isfinite(v) for v in chosen.values())
    return {
        "correct": record["failed"] == 0 and finite,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="dense, coarse or files")
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated input clip")
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True, help="1: per-layer metrics")
    parser.add_argument("--record", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    try:
        record = measure(args)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = report(record, bool(args.trace))
    if args.record:
        with open(args.record, "w") as fh:
            json.dump({**record, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
