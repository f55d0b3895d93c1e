"""Run a fixed CLI fixture set and write a JSON manifest of what it did.

Usage (from the repository root)::

    PYTHONPATH=src python tools/cli_parity.py MANIFEST.json

Every invocation goes through ``specinv.cli.dispatch`` in-process, inside a
temporary working directory, so no path of the host shows up in the
results.  For each argv the manifest records the exit code, stdout, stderr,
any warning or escaped exception, and the SHA-256 of every file the call
created.  Two manifests, written from two checkouts, are equal exactly when
the CLI behaved the same on the whole set: compare them with ``diff``.

The inputs are built from fixed seeds with ``struct``, not with the package
under test, and the MVS1 inputs of ``synthesize``/``info`` are the outputs of
the ``analyze`` calls before them, so they differ only if ``analyze`` does.
The set covers every ``--algo`` x window x clip x centering at an even and
an odd window, ``roundtrip --report``, ``metrics``, ``info`` on WAV, MVS1,
junk and invalid headers, the error lines and every ``--help``.  Last come
files of several frame blocks: every ``--algo`` x clip at 64/16, through
``analyze``, ``synthesize``, ``info`` and ``roundtrip --report``, and five
of those files with one bad value at the end of their last block.  The
last calls each meet two faults at once (bad ``--threads`` and a bad file
or input, a kind with no synthesis path, a WAV shorter than one
uncentered window), so the manifest pins which one each command reports.
``bench`` is timed, so only its help and error lines are run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from specinv.cli import dispatch

ALGOS = ("fft-real", "dct", "prft", "magnitude")
WINDOWS = ("hann", "boxcar", "kaiser:8.5")
CLIPS = ("none", "zero", "threshold:0.05")
COMMANDS = ("analyze", "synthesize", "roundtrip", "metrics", "bench", "info")

# MVS1 header field offsets (see the specinv.io docstring)
KIND, CLIP, CLIP_TAU, KAISER_BETA, SAMPLE_RATE = 6, 8, 9, 13, 26


def pcm16(samples):
    return np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2").tobytes()


def wav_bytes(payload, rate, fmt_code=1, bits=16, channels=1):
    """A RIFF/WAVE file around ``payload`` (format code 1 is PCM, 3 is float)."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_code, channels, rate, rate * block, block, bits)
    chunks = b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


def patched(raw, offset, fmt, value):
    out = bytearray(raw)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


class Runner:
    def __init__(self):
        self.records = []
        self.count = 0

    def out(self, ext):
        self.count += 1
        return f"out/{self.count:04d}.{ext}"

    def __call__(self, *argv):
        argv = [str(a) for a in argv]
        before = set(os.listdir("out"))
        stdout, stderr = io.StringIO(), io.StringIO()
        record = {"argv": argv}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    record["exit"] = dispatch(argv)
                except Exception as exc:  # a parity run records an escape, not stops
                    record["raised"] = f"{type(exc).__name__}: {exc}"
        record["stdout"] = stdout.getvalue()
        record["stderr"] = stderr.getvalue()
        record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
        record["files"] = {
            name: hashlib.sha256(Path("out", name).read_bytes()).hexdigest()
            for name in sorted(set(os.listdir("out")) - before)
        }
        self.records.append(record)
        return record


def fixtures(run):
    rng = np.random.default_rng(0)
    inputs = {
        "in/a.wav": wav_bytes(pcm16(rng.normal(size=12345) * 0.3), 16000),
        "in/b.wav": wav_bytes(np.asarray(rng.normal(size=9999) * 0.3, "<f4").tobytes(), 22050, 3, 32),
        "in/stereo.wav": wav_bytes(pcm16(rng.normal(size=1600) * 0.3), 8000, channels=2),
        "in/empty.wav": wav_bytes(b"", 8000),
        "in/pcm8.wav": wav_bytes(bytes(10), 8000, bits=8),
        "in/corrupt.wav": b"RIFF\x00\x00\x00\x00JUNK",
        "in/junk.bin": b"\x01\x02\x03\x04junkjunk",
    }
    for name, raw in inputs.items():
        Path(name).write_bytes(raw)

    # analyze, then synthesize and info on every spectrogram it wrote
    specs = []
    for wav, win, hop in (("in/a.wav", 256, 64), ("in/b.wav", 255, 100)):
        for algo in ALGOS:
            for window in WINDOWS:
                for clip in CLIPS:
                    for center in ((), ("--no-center",)):
                        mvs = run.out("mvs")
                        rec = run("analyze", wav, mvs, "--algo", algo, "--win", win, "--hop", hop,
                                  "--window", window, "--clip", clip, *center)
                        if rec.get("exit") == 0:
                            specs.append(mvs)
    for i, mvs in enumerate(specs):
        run("synthesize", mvs, run.out("wav"), "--encoding", ("pcm16", "float32")[i % 2])
        run("info", mvs)

    # roundtrip --report and metrics
    roundtrips = (
        ("in/a.wav", "dct", ()),
        ("in/a.wav", "prft", ("--clip", "zero")),
        ("in/a.wav", "fft-real", ("--window", "kaiser:8.5")),
        ("in/b.wav", "prft", ("--win", "512", "--hop", "128", "--threads", "2")),
        ("in/b.wav", "dct", ("--win", "512", "--hop", "512", "--window", "boxcar", "--no-center")),
        ("in/b.wav", "dct", ("--clip", "threshold:0.05", "--encoding", "pcm16")),
    )
    for wav, algo, extra in roundtrips:
        est = run.out("wav")
        run("roundtrip", wav, est, "--algo", algo, "--report", *extra)
        run("metrics", wav, est)
        run("metrics", wav, est, "--mcd-bands", "30", "--mcd-cepstra", "20")
    run("metrics", "in/a.wav", "in/b.wav")
    run("analyze", "in/stereo.wav", run.out("mvs"), "--algo", "dct", "--win", "64", "--hop", "16")

    # info on WAV, junk and MVS1 files with one header field changed
    for name in ("in/a.wav", "in/b.wav", "in/stereo.wav", "in/empty.wav", "in/junk.bin",
                 "in/corrupt.wav", "in/pcm8.wav"):
        run("info", name)
    odd = run.out("mvs")
    run("analyze", "in/b.wav", odd, "--algo", "dct", "--win", "33", "--hop", "8")
    mag = run.out("mvs")
    run("analyze", "in/b.wav", mag, "--algo", "magnitude", "--win", "32", "--hop", "8",
        "--window", "kaiser:8")
    kai = run.out("mvs")
    run("analyze", "in/b.wav", kai, "--algo", "dct", "--win", "32", "--hop", "8", "--window", "kaiser:8")
    odd, mag, kai = (Path(path).read_bytes() for path in (odd, mag, kai))
    lying = struct.pack("<4sHBBBffIIBIQII", b"MVS1", 1, 1, 0, 0, 0.0, 0.0, 4, 2, 1, 22050, 2**40, 1, 4)
    variants = {
        "odd_window_packed": patched(odd, KIND, "<B", 2),
        "magnitude_zero": patched(mag, CLIP, "<B", 1),
        "magnitude_threshold": patched(patched(mag, CLIP, "<B", 2), CLIP_TAU, "<f", 0.05),
        "lying_frame_count": lying + bytes(16),
        "nan_kaiser_beta": patched(mag, KAISER_BETA, "<f", float("nan")),
        "kaiser_beta_710": patched(kai, KAISER_BETA, "<f", 710.0),
        "kaiser_beta_709": patched(kai, KAISER_BETA, "<f", 709.0),
        "zero_sample_rate": patched(odd, SAMPLE_RATE, "<I", 0),
        "rate_2_31": patched(odd, SAMPLE_RATE, "<I", 2**31),
        "truncated_payload": odd[:-4],
        "trailing_bytes": odd + b"\x00\x00",
        "truncated_header": odd[:20],
        "bad_version": patched(odd, 4, "<H", 9),
        "bad_kind": patched(odd, KIND, "<B", 9),
    }
    for name, raw in variants.items():
        path = f"in/{name}.mvs"
        Path(path).write_bytes(raw)
        run("info", path)
        run("synthesize", path, run.out("wav"))

    # error lines
    a = "in/a.wav"
    for argv in (
        ("analyze", "in/nope.wav", run.out("mvs"), "--algo", "dct"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--frobnicate"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--clip", "threshold:7"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--clip", "threshold"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--clip", "threshold:x"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--window", "blackman"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--window", "kaiser"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--window", "kaiser:-1"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--window", "kaiser:800"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--threads", "0"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--win", "1"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--hop", "0"),
        ("analyze", a, run.out("mvs"), "--algo", "dct", "--win", "16", "--hop", "32"),
        ("analyze", a, run.out("mvs"), "--algo", "mel"),
        ("analyze", "in/empty.wav", run.out("mvs"), "--algo", "dct"),
        ("analyze", "in/empty.wav", run.out("mvs"), "--algo", "prft", "--win", "255"),
        ("analyze", "in/pcm8.wav", run.out("mvs"), "--algo", "dct"),
        ("analyze", "in/corrupt.wav", run.out("mvs"), "--algo", "dct"),
        ("analyze", "in/junk.bin", run.out("mvs"), "--algo", "dct"),
        ("roundtrip", a, run.out("wav"), "--algo", "magnitude"),
        ("roundtrip", a, run.out("wav"), "--algo", "prft", "--win", "255"),
        ("roundtrip", a, run.out("wav"), "--algo", "dct", "--encoding", "pcm8"),
        ("synthesize", a, run.out("wav")),
        ("synthesize", "in/junk.bin", run.out("wav")),
        ("metrics", a, "in/nope.wav"),
        ("metrics", a, a, "--mcd-bands", "0"),
        ("bench", "--algo", "prft", "--win", "255", "--runs", "1", "--warmup", "0", "--duration", "0.05"),
        ("bench", "--algo", "dct", "--runs", "0"),
        ("bench", "--algo", "dct", "--stage", "nope"),
        ("bench", "--algo", "dct", "--duration", "0"),
        ("bench", "--algo", "dct", "--duration", "-1"),
        ("bench", "--algo", "dct", "--duration", "nan"),
        ("bench", "--algo", "dct", "--duration", "inf"),
        ("bench", "--algo", "dct", "--rate", "0"),
        ("info", "in/nope.mvs"),
        ("info",),
        (),
        ("nope",),
    ):
        run(*argv)

    for command in ((),) + tuple((c,) for c in COMMANDS):
        run(*command, "--help")

    # multi-block files: 64/16 frames in/a.wav into 773 frames, 4 blocks of 256
    multi = {}
    for algo in ALGOS:
        for clip in CLIPS:
            grid = ("--algo", algo, "--win", "64", "--hop", "16", "--clip", clip)
            mvs = run.out("mvs")
            if run("analyze", "in/a.wav", mvs, *grid).get("exit") == 0:
                run("synthesize", mvs, run.out("wav"))
                run("info", mvs)
                multi[algo, clip] = Path(mvs).read_bytes()
            run("roundtrip", "in/a.wav", run.out("wav"), *grid, "--report")
    # and each with one bad value, the last of its last block
    last_block_faults = {
        "last_nan": ("dct", "none", float("nan")),
        "last_inf": ("prft", "zero", float("inf")),
        "last_negative": ("dct", "zero", -0.5),
        "last_negative_magnitude": ("magnitude", "none", -0.5),
        "last_below_tau": ("fft-real", "threshold:0.05", 0.04),
    }
    for name, (algo, clip, value) in last_block_faults.items():
        raw = multi[algo, clip]
        path = f"in/{name}.mvs"
        Path(path).write_bytes(patched(raw, len(raw) - 4, "<f", value))
        run("info", path)
        run("synthesize", path, run.out("wav"))

    # which of two faults each pipeline reports first
    Path("in/multi.mvs").write_bytes(multi["dct", "none"])
    Path("in/short.wav").write_bytes(wav_bytes(pcm16(np.linspace(-0.5, 0.5, 100)), 16000))
    for argv in (
        ("synthesize", "in/multi.mvs", run.out("wav"), "--threads", "0"),
        ("synthesize", "in/last_nan.mvs", run.out("wav"), "--threads", "0"),
        ("analyze", "in/empty.wav", run.out("mvs"), "--algo", "dct", "--threads", "0"),
        ("analyze", a, run.out("mvs"), "--algo", "prft", "--win", "255", "--hop", "64", "--threads", "0"),
        ("roundtrip", a, run.out("wav"), "--algo", "magnitude", "--win", "64", "--hop", "16"),
        ("analyze", "in/short.wav", run.out("mvs"), "--algo", "dct", "--win", "256", "--hop", "64", "--no-center"),
        ("roundtrip", "in/short.wav", run.out("wav"), "--algo", "magnitude", "--win", "256", "--no-center"),
    ):
        run(*argv)


def main(argv):
    if len(argv) != 1:
        sys.exit("usage: cli_parity.py MANIFEST.json")
    manifest = os.path.abspath(argv[0])
    os.environ["COLUMNS"] = "100"  # argparse wraps --help text to this width
    run = Runner()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            os.mkdir("in")
            os.mkdir("out")
            fixtures(run)
        finally:
            os.chdir(home)
    with open(manifest, "w") as fh:
        json.dump(run.records, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(run.records)} invocations -> {argv[0]}")


if __name__ == "__main__":
    main(sys.argv[1:])
