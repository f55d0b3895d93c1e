"""Command-line front end.

Thin wrappers over the library: every subcommand parses and validates its
flags, calls the same functions the Python API exposes, and only then
writes output files (atomically), so an invalid invocation never leaves a
partial file behind.  Errors exit nonzero with a single
``error: <category>: <message>`` line on stderr.  ``dispatch`` may be
called any number of times in one process: it builds the parser on its
first call and reuses it, which keeps 1–2 ms of argparse setup off every
later command.
"""
from __future__ import annotations

import argparse
import functools
import sys

from . import bench as bench_mod
from . import io as io_mod
from . import metrics as metrics_mod
from .errors import (
    FormatError,
    InvalidConfigError,
    InvalidInputError,
    MeasurementError,
    SpecinvError,
    UnsupportedCodecError,
    UnsupportedKindError,
)
from .signal import _CHUNK_SAMPLES, FrameConfig, WindowKind
from .vocoder import KINDS, ClipMode, _spectrum, _synthesis, _waveform

ALGO_KINDS = {k.algo: kind for kind, k in KINDS.items()}
STAGE_NAMES = dict(zip(("synth", "analyze", "roundtrip"), bench_mod.STAGES))

# dispatch() reports the first matching row, so subclasses precede bases.
_ERROR_CATEGORIES = (
    (UnsupportedCodecError, "codec"),
    (FormatError, "format"),
    (InvalidConfigError, "config"),
    (UnsupportedKindError, "unsupported"),
    (InvalidInputError, "input"),
    (MeasurementError, "measurement"),
    (SpecinvError, "internal"),
    (MemoryError, "memory"),
    (OSError, "io"),
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse normally prints usage + error and exits; collapse that to a
    # single machine-parseable line.
    def error(self, message):
        raise _UsageError(message)


def _add_threads_flag(p):
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="worker threads for batch transforms (default 1)",
    )


def _add_encoding_flag(p):
    p.add_argument(
        "--encoding",
        choices=tuple(io_mod._WAV_ENCODINGS),
        default="float32",
        help="WAV sample encoding (default float32)",
    )


def _add_pipeline_flags(p):
    p.add_argument(
        "--algo",
        required=True,
        choices=sorted(ALGO_KINDS),
        help="spectrogram kind: fft-real (real part of the DFT), dct, "
        "prft (packed real FFT) or magnitude (analysis/export only)",
    )
    p.add_argument("--win", type=int, default=1024, metavar="N", help="window length in samples (default 1024)")
    p.add_argument("--hop", type=int, default=256, metavar="N", help="hop length in samples (default 256)")
    p.add_argument(
        "--window",
        default="hann",
        metavar="KIND",
        help="analysis window: hann, boxcar or kaiser:BETA (default hann)",
    )
    p.add_argument(
        "--clip",
        default="none",
        metavar="MODE",
        help="coefficient clipping: none, zero or threshold:TAU (default none)",
    )
    p.add_argument(
        "--no-center",
        action="store_true",
        help="disable center padding (drops trailing partial frames)",
    )
    _add_threads_flag(p)


def _frame_config(args) -> FrameConfig:
    return FrameConfig(
        win_length=args.win,
        hop_length=args.hop,
        window=WindowKind.parse(args.window),
        centered=not args.no_center,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="specinv",
        description="Phase-estimation-free vocoder: spectral analysis, inversion, "
        "quality metrics and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser(
        "analyze",
        help="WAV in, MVS1 spectrogram out",
        description="Analyze a WAV file into an MVS1 spectrogram file.",
    )
    p.add_argument("input", metavar="IN.wav", help="input WAV file")
    p.add_argument("output", metavar="OUT.mvs", help="output MVS1 spectrogram file")
    _add_pipeline_flags(p)

    p = sub.add_parser(
        "synthesize",
        help="MVS1 spectrogram in, WAV out",
        description="Synthesize a waveform from an MVS1 spectrogram file.",
    )
    p.add_argument("input", metavar="IN.mvs", help="input MVS1 spectrogram file")
    p.add_argument("output", metavar="OUT.wav", help="output WAV file")
    _add_encoding_flag(p)
    _add_threads_flag(p)

    p = sub.add_parser(
        "roundtrip",
        help="analyze then synthesize in one step",
        description="Run a WAV file through analysis and synthesis, writing the reconstruction.",
    )
    p.add_argument("input", metavar="IN.wav", help="input WAV file")
    p.add_argument("output", metavar="OUT.wav", help="output WAV file")
    _add_pipeline_flags(p)
    _add_encoding_flag(p)
    p.add_argument(
        "--report",
        action="store_true",
        help="print snr_db and mcd of the reconstruction against the input",
    )

    p = sub.add_parser(
        "metrics",
        help="SNR and MCD between two WAV files",
        description="Print snr_db and mcd between a reference and an estimate WAV.",
    )
    p.add_argument("reference", metavar="REF.wav", help="reference WAV file")
    p.add_argument("estimate", metavar="EST.wav", help="estimate WAV file")
    p.add_argument("--mcd-bands", type=int, default=23, metavar="N", help="mel bands for MCD (default 23)")
    p.add_argument(
        "--mcd-cepstra", type=int, default=13, metavar="N", help="cepstra kept for MCD, excluding c0 (default 13)"
    )

    p = sub.add_parser(
        "bench",
        help="time a pipeline and report throughput",
        description="Benchmark a pipeline: warm-up plus timed runs, reported as a "
        f"tab-separated row ({', '.join(bench_mod.TSV_COLUMNS)}).",
    )
    _add_pipeline_flags(p)
    p.add_argument("--duration", type=float, default=10.0, metavar="SEC", help="test clip length in seconds (default 10)")
    p.add_argument("--rate", type=int, default=22050, metavar="HZ", help="test clip sample rate (default 22050)")
    p.add_argument("--runs", type=int, default=100, metavar="N", help="timed runs (default 100)")
    p.add_argument("--warmup", type=int, default=10, metavar="N", help="untimed warm-up runs (default 10)")
    p.add_argument(
        "--stage",
        choices=sorted(STAGE_NAMES),
        default="synth",
        help="timed stage: synth (inverse only; spectrogram precomputed), analyze, or roundtrip",
    )

    p = sub.add_parser(
        "info",
        help="print header metadata of a WAV or MVS1 file",
        description="Print header metadata of a WAV or MVS1 file as key/value lines.",
    )
    p.add_argument("input", metavar="FILE", help="WAV or MVS1 file")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state on the parser, so one serves every dispatch.
    return build_parser()


def _print_quality(ref, est, mcd_config=metrics_mod.McdConfig()) -> None:
    print(f"snr_db\t{metrics_mod.snr_db(ref, est)!r}")
    print(f"mcd\t{metrics_mod.mcd(ref, est, mcd_config)!r}")


# analyze, synthesize and roundtrip (but for --report) stream the waveform and
# the spectrogram and never hold either whole; see the specinv.io docstring.
def _cmd_analyze(args) -> None:
    config, clip = _frame_config(args), ClipMode.parse(args.clip)
    with open(args.input, "rb") as fh:
        x = io_mod._read_mono(fh)
        io_mod._write_spec(args.output, _spectrum(x, config, ALGO_KINDS[args.algo], clip, args.threads))


def _cmd_synthesize(args) -> None:
    with open(args.input, "rb") as fh:
        y = _synthesis(io_mod._read_spec(fh), args.threads, _CHUNK_SAMPLES)
        io_mod._write_wav(args.output, y, args.encoding)


def _cmd_roundtrip(args) -> None:
    config, clip, kind = _frame_config(args), ClipMode.parse(args.clip), ALGO_KINDS[args.algo]
    if not args.report:
        with open(args.input, "rb") as fh:
            x = io_mod._read_mono(fh)
            y = _synthesis(_spectrum(x, config, kind, clip, args.threads), args.threads, _CHUNK_SAMPLES)
            io_mod._write_wav(args.output, y, args.encoding)
        return
    x = io_mod.read_wav(args.input)
    y = _waveform(_synthesis(_spectrum(x._source(), config, kind, clip, args.threads), args.threads))
    io_mod.write_wav(args.output, y, encoding=args.encoding)
    _print_quality(x, y)


def _cmd_metrics(args) -> None:
    cfg = metrics_mod.McdConfig(n_mel_bands=args.mcd_bands, n_cepstra=args.mcd_cepstra)
    ref = io_mod.read_wav(args.reference)
    est = io_mod.read_wav(args.estimate)
    _print_quality(ref, est, cfg)


def _cmd_bench(args) -> None:
    spec = bench_mod.BenchSpec(
        kind=ALGO_KINDS[args.algo],
        config=_frame_config(args),
        clip=ClipMode.parse(args.clip),
        clip_duration=args.duration,
        sample_rate=args.rate,
        runs=args.runs,
        warmup_runs=args.warmup,
        stage=STAGE_NAMES[args.stage],
        workers=args.threads,
    )
    report = bench_mod.run_bench(spec)
    print("\t".join(bench_mod.TSV_COLUMNS))
    print(report.tsv_row())


def _cmd_info(args) -> None:
    with open(args.input, "rb") as fh:
        meta = io_mod._info(fh)
    for key, value in meta.items():
        print(f"{key}\t{value}")


_COMMANDS = {
    "analyze": _cmd_analyze,
    "synthesize": _cmd_synthesize,
    "roundtrip": _cmd_roundtrip,
    "metrics": _cmd_metrics,
    "bench": _cmd_bench,
    "info": _cmd_info,
}


def dispatch(argv) -> int:
    """Parse ``argv`` and run one command, returning the process exit code."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        _COMMANDS[args.command](args)
        return 0
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 2
    except tuple(cls for cls, _ in _ERROR_CATEGORIES) as exc:
        category = next(cat for cls, cat in _ERROR_CATEGORIES if isinstance(exc, cls))
        print(f"error: {category}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
