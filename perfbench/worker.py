"""Child process of the benchmark: sets up one workload and measures it.

    python3 perfbench/worker.py --workload dense --seed 1 --setup-only
    python3 perfbench/worker.py --workload dense --seed 1 --seconds 28 [--trace]

specinv is imported from the ``src`` directory beside ``perfbench``, never
from an installed copy.  Once set up (the first, cold call of every
operation has returned and been checked) the worker prints
``ready <attempted> <failed> <harness seconds>``, the last being the time
it spent making the input and checking outputs; unless ``--setup-only`` it
then runs the timed loop and prints one JSON record as its last line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
from pathlib import Path

from run import THREADS

ROOT = Path(__file__).resolve().parents[1]


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import specinv
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import specinv from {src}: {exc}")
    if not Path(specinv.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: specinv was imported from {specinv.__file__}, not from {src}")
    return specinv


def provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREADS},
        "workers": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float, help="length of the timed loop")
    mode.add_argument("--setup-only", action="store_true", help="stop once set up")
    parser.add_argument("--trace", action="store_true", help="paired rounds, for the per-layer metrics")
    args = parser.parse_args(argv)

    _import_program()
    from workloads import COMPUTED, END_TO_END, PER_LAYER, WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as workdir:
        bench = Bench(args.workload, args.seed, workdir)
        bench.round(keep=False)
        print(f"ready {bench.attempted} {bench.failed} {bench.harness_s!r}", flush=True)
        if args.setup_only:
            return 0
        rounds = bench.run(args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "grid": dict(zip(("win", "hop", "window"), bench.grid)),
            "samples": bench.n,
            "rounds": rounds,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "failures": bench.failures,
            "provenance": provenance(),
            "end_to_end": {**bench.end_to_end(), "peak_rss_mb": peak_rss_mb},
            "units": {name: unit for name, unit, _ in END_TO_END + PER_LAYER},
            "computed": list(COMPUTED),
        }
        if args.trace:
            bench.measure_extras()
            record["per_layer"] = bench.per_layer()
        record["timings"] = bench.timings()
        record["digests"] = bench.digests
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
