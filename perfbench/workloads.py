"""Workloads of the specinv benchmark: inputs, timed operations, output
checks and the traced per-layer composition.

Every workload runs the same ten operations per round, in a fixed
interleaved order: ``analyze`` then ``synthesize`` through the library for
each of ``real_fft``, ``dct`` and ``packed_rfft``, then the CLI commands
``analyze``, ``synthesize``, ``roundtrip`` and ``metrics`` through
``specinv.cli.dispatch``.  Workloads differ in the frame grid point, which
sets how much work each layer gets (see ``WORKLOADS``).

Untraced rounds time whole operations; they give the end-to-end metrics.
Paired rounds (traced runs) follow each untraced operation, or precede
it, alternately by round, with its rebuild from the public functions it
calls (``specinv.__all__`` only); every call of the rebuild is timed and
its output must be bit-identical to the untraced one.  They give the
per-layer metrics.  Layers are measured from outside: the program is not
modified.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
import tracemalloc

import numpy as np
import specinv
import specinv.cli  # noqa: F401  (dispatch is reached as api.cli.dispatch)

from speech import DURATION_S, SAMPLE_RATE, pcm16_wav_bytes, speech_clip
from stats import Recorder, khz

# name -> (win_length, hop_length, window).  dense: 8x overlap, ~10k frames
# and tens of MB per call, far beyond L2, so framing and overlap-add carry
# most of the time.  coarse: ~1x overlap and ~650 frames, so transforms and
# fixed per-call costs dominate and an OLA change should show no gain.
# files: 1024/256 hann, the CLI default and first ROADMAP grid point; 4x
# overlap puts every layer's share between the other two.
WORKLOADS = {
    "dense": (512, 64, "hann"),
    "coarse": (1024, 1022, "boxcar"),
    "files": (1024, 256, "hann"),
}
KINDS = ("real_fft", "dct", "packed_rfft")
EXACT_KINDS = ("dct", "packed_rfft")
EXACT_SNR_DB = 180.0  # the README's bound for signed dct / packed_rfft
FORWARD = {"real_fft": "dft_real_part", "dct": "dct2", "packed_rfft": "rfft_packed"}
INVERSE = {"real_fft": "idft_from_real", "dct": "dct3", "packed_rfft": "irfft_packed"}
CLI_COMMANDS = ("analyze", "synthesize", "roundtrip", "metrics")
ROUNDTRIP_CLIP = "threshold:0.05"
OPERATIONS = tuple(f"{stage}.{k}" for k in KINDS for stage in ("analyze", "synthesize")) + tuple(
    f"cli.{c}" for c in CLI_COMMANDS
)
MIN_ROUNDS = 3
MAX_FAILURES_KEPT = 20

END_TO_END = (
    tuple((f"analyze_khz.{k}", "kHz", "higher") for k in KINDS)
    + tuple((f"synth_khz.{k}", "kHz", "higher") for k in KINDS)
    + tuple((f"cli_khz.{c}", "kHz", "higher") for c in CLI_COMMANDS)
    + (("peak_rss_mb", "MB", "lower"), ("setup_s", "s", "lower"))
)
# (layer.function, what tracemalloc peaks are taken for; all packed_rfft)
ALLOC_PEAKS = (
    "vocoder.analyze",
    "vocoder.synthesize",
    "signal.frame_signal",
    "signal.overlap_add",
    "transforms.forward",
    "transforms.inverse",
    "io.read_spec",
    "metrics.mcd",
)
IO_CALLS = ("read_wav", "write_wav", "write_wav_f32", "read_spec", "write_spec")
PER_LAYER = (
    (
        ("signal.frame_signal_ms", "ms", "lower"),
        ("signal.overlap_add_ms", "ms", "lower"),
        ("signal.frames", "count", "lower"),
    )
    + tuple(
        (f"transforms.{d}_{u}.{k}", unit, better)
        for d in ("forward", "inverse")
        for u, unit, better in (("ms", "ms", "lower"), ("gbps", "GB/s", "higher"))
        for k in KINDS
    )
    + tuple((f"vocoder.{fn}_ms.{k}", "ms", "lower") for fn in ("apply_clip", "Spectrogram") for k in KINDS)
    + tuple((f"vocoder.{op}.self_ms.{k}", "ms", "lower") for op in ("analyze", "synthesize") for k in KINDS)
    + (("vocoder.clip_zero_frac", "ratio", "lower"),)
    + tuple((f"io.{c}_ms", "ms", "lower") for c in IO_CALLS)
    + tuple((f"io.{c}.bytes", "B", "lower") for c in IO_CALLS)
    + (("metrics.mcd_ms", "ms", "lower"), ("metrics.snr_db_ms", "ms", "lower"))
    + tuple((f"cli.{c}.self_ms", "ms", "lower") for c in CLI_COMMANDS)
    + tuple((f"trace.overhead_pct.{op}", "%", "lower") for op in OPERATIONS)
    + tuple((f"{name}.peak_alloc_mb", "MB", "lower") for name in ALLOC_PEAKS)
)
# Per-layer values computed from array sizes, not measured traffic.
COMPUTED = tuple(f"transforms.{d}_gbps.{k}" for d in ("forward", "inverse") for k in KINDS)


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def sha256(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode()
        elif isinstance(chunk, np.ndarray):
            chunk = np.ascontiguousarray(chunk)
        h.update(chunk)
    return h.hexdigest()


def snr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    """SNR of ``estimate`` against ``reference``, computed here, not by specinv."""
    err = reference - estimate
    noise = float(np.dot(err, err))
    return math.inf if noise == 0.0 else 10.0 * math.log10(float(np.dot(reference, reference)) / noise)


def expected_frames(n: int, win: int, hop: int) -> int:
    """Frames of centered framing: ``win // 2`` zeros each side, plus one
    zero-padded frame when a partial hop remains."""
    padded = n + 2 * (win // 2)
    return 1 + (padded - win) // hop + (1 if (padded - win) % hop else 0)


def parse_report(text: str) -> dict:
    """``{"snr_db": float, "mcd": float}`` from the CLI's report lines."""
    values = {}
    for line in text.splitlines():
        key, _, value = line.partition("\t")
        values[key] = float(value)
    _require(set(values) == {"snr_db", "mcd"}, f"unexpected report lines {text!r}")
    _require(not math.isnan(values["snr_db"]), "snr_db is NaN")
    _require(math.isfinite(values["mcd"]) and values["mcd"] >= 0.0, f"bad mcd {values['mcd']}")
    return values


class Bench:
    """One workload's input, operations, checks and timings.

    ``api`` is the specinv module; a test may pass a stand-in whose
    functions return wrong outputs, to show that the checks catch them.
    """

    def __init__(self, workload, seed, workdir, duration=DURATION_S, api=specinv):
        win, hop, window = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.api = api
        self.grid = (win, hop, window)
        self.config = api.FrameConfig(win, hop, api.WindowKind.parse(window))
        self.no_clip = api.ClipMode.none()
        self.rec = Recorder()
        # Seconds of the benchmark's own work: making the input and
        # checking outputs.  The worker leaves it out of setup_s.
        start = self.rec.clock()
        samples = speech_clip(seed, duration)
        self.n = samples.shape[0]
        self.x = api.Waveform(samples, SAMPLE_RATE)
        self.frames = expected_frames(self.n, win, hop)
        self.path = {
            name: os.path.join(workdir, name) for name in ("in.wav", "a.mvs", "s.wav", "r.wav")
        }
        with open(self.path["in.wav"], "wb") as fh:
            fh.write(pcm16_wav_bytes(samples, SAMPLE_RATE))
        self.harness_s = self.rec.clock() - start
        grid = ["--win", str(win), "--hop", str(hop), "--window", window]
        p = self.path
        self.argv = {
            "analyze": ["analyze", p["in.wav"], p["a.mvs"], "--algo", "prft", *grid],
            "synthesize": ["synthesize", p["a.mvs"], p["s.wav"], "--encoding", "pcm16"],
            "roundtrip": [
                "roundtrip", p["in.wav"], p["r.wav"], "--algo", "dct", *grid,
                "--clip", ROUNDTRIP_CLIP, "--report",
            ],
            "metrics": ["metrics", p["in.wav"], p["s.wav"]],
        }
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.array_bytes: dict[str, int] = {}
        self.extra: dict[str, float] = {}

    # -- running ----------------------------------------------------------

    def _fail(self, name: str, exc: Exception) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")

    def _accept(self, op: str, digest: str, traced: bool) -> None:
        ref = self.digests.setdefault(op, digest)
        if digest != ref:
            what = "traced composition" if traced else "output"
            raise CheckFailed(f"{what} sha256 {digest[:16]} differs from the first call's {ref[:16]}")

    def _checked(self, op: str, out, check, traced: bool) -> None:
        start = self.rec.clock()
        try:
            self._accept(op, check(out), traced)
        finally:
            self.harness_s += self.rec.clock() - start

    def _op(self, op: str, fn, check, keep: bool = True):
        """Time one untraced operation, check its output, count a failure.
        Returns ``(output, seconds)``, or ``None`` when it failed."""
        self.attempted += 1
        try:
            out, seconds = self.rec.measure(fn)
            self._checked(op, out, check, traced=False)
        except Exception as exc:  # a failed operation is counted, never fatal
            self._fail(op, exc)
            return None
        if keep:
            self.rec.add(op, seconds)
        return out, seconds

    def _traced(self, op: str, compose, check):
        """Run a rebuilt operation; time each public call it makes.
        Returns ``(output, seconds, seconds inside the public calls)``, or
        ``None`` when it failed."""
        spans = []

        def span(child, fn, *args, **kwargs):
            out, seconds = self.rec.measure(fn, *args, **kwargs)
            spans.append((child, seconds))
            return out

        self.attempted += 1
        try:
            out, seconds = self.rec.measure(compose, span)
            self._checked(op, out, check, traced=True)
        except Exception as exc:
            self._fail(f"trace:{op}", exc)
            return None
        for child, child_seconds in spans:
            self.rec.add(f"{op}/{child}", child_seconds)
        return out, seconds, sum(s for _, s in spans)

    def _pair(self, op: str, fn, compose, check, traced_first: bool):
        """The untraced operation and its rebuild, back to back.  Records
        per pair the untraced time less the time inside the rebuild's public
        calls (``self:``) and the rebuild's extra time (``tracecost:``).
        Returns both outputs, ``None`` for one that failed."""
        if traced_first:
            traced = self._traced(op, compose, check)
            plain = self._op(op, fn, check)
        else:
            plain = self._op(op, fn, check)
            traced = self._traced(op, compose, check)
        if plain and traced:
            self.rec.add(f"self:{op}", plain[1] - traced[2])
            self.rec.add(f"tracecost:{op}", traced[1] - plain[1])
        return (plain[0] if plain else None), (traced[0] if traced else None)

    def round(self, keep: bool = True) -> None:
        """One untraced round of all ten operations."""
        api = self.api
        for kind in KINDS:
            done = self._op(
                f"analyze.{kind}",
                lambda: api.analyze(self.x, self.config, kind, self.no_clip, workers=1),
                self._check_spec(kind),
                keep,
            )
            spec = done[0] if done else None
            self._op(
                f"synthesize.{kind}",
                lambda: api.synthesize(spec, workers=1),
                self._check_wave(kind),
                keep,
            )
            del done, spec
        for command in CLI_COMMANDS:
            self._op(f"cli.{command}", lambda: self._dispatch(command), self._check_cli(command), keep)

    def paired_round(self, traced_first: bool) -> None:
        """One round of pairs: each operation untraced and rebuilt from its
        public calls, back to back, ``traced_first`` setting the order."""
        api = self.api
        for kind in KINDS:
            spec, traced_spec = self._pair(
                f"analyze.{kind}",
                lambda: api.analyze(self.x, self.config, kind, self.no_clip, workers=1),
                lambda span: self._compose_analyze(kind, span),
                self._check_spec(kind),
                traced_first,
            )
            self._pair(
                f"synthesize.{kind}",
                lambda: api.synthesize(spec, workers=1),
                lambda span: self._compose_synthesize(kind, traced_spec, span),
                self._check_wave(kind),
                traced_first,
            )
            del spec, traced_spec
        for command in CLI_COMMANDS:
            self._pair(
                f"cli.{command}",
                lambda: self._dispatch(command),
                getattr(self, f"_compose_cli_{command}"),
                self._check_cli(command),
                traced_first,
            )

    def run(self, seconds: float, trace: bool) -> int:
        """Closed loop for ``seconds``: untraced rounds, or paired rounds
        whose order flips every round when ``trace``.  Returns the number
        of rounds."""
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            if trace:
                self.paired_round(traced_first=rounds % 2 == 1)
            else:
                self.round()
            rounds += 1
        return rounds

    # -- library and CLI calls ---------------------------------------------

    def _dispatch(self, command: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.api.cli.dispatch(self.argv[command])
        return code, out.getvalue(), err.getvalue()

    def _compose_analyze(self, kind, span):
        api = self.api
        fm = span("signal.frame_signal", api.frame_signal, self.x, self.config)
        coeffs = span("transforms.forward", getattr(api, FORWARD[kind]), fm.frames, workers=1)
        clipped = span("vocoder.apply_clip", api.apply_clip, coeffs, self.no_clip)
        self.array_bytes[f"forward.{kind}"] = fm.frames.nbytes + coeffs.nbytes
        return span(
            "vocoder.Spectrogram",
            api.Spectrogram, kind, clipped, self.config, self.no_clip, self.x.sample_rate, fm.original_length,
        )

    def _compose_synthesize(self, kind, spec, span):
        api = self.api
        frames = span("transforms.inverse", getattr(api, INVERSE[kind]), spec.data, workers=1)
        fm = span(
            "signal.FrameMatrix", api.FrameMatrix, frames, spec.config, spec.original_length, spec.sample_rate
        )
        self.array_bytes[f"inverse.{kind}"] = spec.data.nbytes + frames.nbytes
        return span("signal.overlap_add", api.overlap_add, fm)

    def _cli_config(self):
        """A fresh FrameConfig from the grid, built per command as the CLI does."""
        win, hop, window = self.grid
        return self.api.FrameConfig(win, hop, self.api.WindowKind.parse(window))

    def _compose_cli_analyze(self, span):
        api, p = self.api, self.path
        config, clip = self._cli_config(), api.ClipMode.parse("none")
        x = span("io.read_wav", api.read_wav, p["in.wav"])
        spec = span("vocoder.analyze", api.analyze, x, config, "packed_rfft", clip, workers=1)
        span("io.write_spec", api.write_spec, p["a.mvs"], spec)
        return 0, "", ""

    def _compose_cli_synthesize(self, span):
        api, p = self.api, self.path
        spec = span("io.read_spec", api.read_spec, p["a.mvs"])
        y = span("vocoder.synthesize", api.synthesize, spec, workers=1)
        span("io.write_wav", api.write_wav, p["s.wav"], y, encoding="pcm16")
        return 0, "", ""

    def _compose_cli_roundtrip(self, span):
        api, p = self.api, self.path
        config, clip = self._cli_config(), api.ClipMode.parse(ROUNDTRIP_CLIP)
        x = span("io.read_wav", api.read_wav, p["in.wav"])
        spec = span("vocoder.analyze", api.analyze, x, config, "dct", clip, workers=1)
        y = span("vocoder.synthesize", api.synthesize, spec, workers=1)
        span("io.write_wav_f32", api.write_wav, p["r.wav"], y, encoding="float32")
        snr = span("metrics.snr_db", api.snr_db, x, y)
        distance = span("metrics.mcd", api.mcd, x, y)
        return 0, f"snr_db\t{snr!r}\nmcd\t{distance!r}\n", ""

    def _compose_cli_metrics(self, span):
        api, p = self.api, self.path
        cfg = api.McdConfig(n_mel_bands=23, n_cepstra=13)
        ref = span("io.read_wav", api.read_wav, p["in.wav"])
        est = span("io.read_wav", api.read_wav, p["s.wav"])
        snr = span("metrics.snr_db", api.snr_db, ref, est)
        distance = span("metrics.mcd", api.mcd, ref, est, cfg)
        return 0, f"snr_db\t{snr!r}\nmcd\t{distance!r}\n", ""

    # -- output checks -----------------------------------------------------

    def _check_spec(self, kind):
        def check(spec):
            _require(spec.kind == kind, f"kind {spec.kind!r}, expected {kind!r}")
            shape = (self.frames, self.config.win_length)
            _require(spec.data.shape == shape, f"shape {spec.data.shape}, expected {shape}")
            _require(spec.sample_rate == SAMPLE_RATE, f"sample rate {spec.sample_rate}")
            _require(spec.original_length == self.n, f"original length {spec.original_length}")
            _require(bool(np.isfinite(spec.data).all()), "non-finite coefficients")
            return sha256(spec.data)

        return check

    def _check_wave(self, kind):
        def check(y):
            self._check_waveform(y)
            if kind in EXACT_KINDS:
                snr = snr_db(self.x.samples, y.samples)
                _require(snr >= EXACT_SNR_DB, f"{kind} round trip at {snr:.1f} dB < {EXACT_SNR_DB} dB")
            return sha256(y.samples)

        return check

    def _check_waveform(self, y):
        _require(len(y) == self.n, f"length {len(y)}, expected {self.n}")
        _require(y.sample_rate == SAMPLE_RATE, f"sample rate {y.sample_rate}")
        _require(bool(np.isfinite(y.samples).all()), "non-finite samples")

    def _check_cli(self, command):
        def check(result):
            code, out, err = result
            _require(code == 0, f"exit code {code}: {err.strip()}")
            p = self.path
            if command == "analyze":
                spec = self.api.read_spec(p["a.mvs"])
                _require(spec.kind == "packed_rfft", f"kind {spec.kind!r}")
                _require(spec.data.shape == (self.frames, self.config.win_length), f"shape {spec.data.shape}")
                _require(spec.sample_rate == SAMPLE_RATE, f"sample rate {spec.sample_rate}")
                _require(spec.original_length == self.n, f"original length {spec.original_length}")
                return sha256(_read(p["a.mvs"]), out)
            if command in ("synthesize", "roundtrip"):
                path = p["s.wav" if command == "synthesize" else "r.wav"]
                self._check_waveform(self.api.read_wav(path))
                if command == "roundtrip":
                    parse_report(out)
                return sha256(_read(path), out)
            parse_report(out)
            return sha256(out)

        return check

    # -- extras taken once, outside the timed loop ---------------------------

    def measure_extras(self) -> None:
        """Exact counts of the traced run: the share of coefficients the
        roundtrip clip zeroed, and tracemalloc peaks of single calls."""
        api, p = self.api, self.path
        x = api.read_wav(p["in.wav"])
        clipped = api.analyze(x, self.config, "dct", api.ClipMode.parse(ROUNDTRIP_CLIP)).data
        signed = api.analyze(x, self.config, "dct").data
        zeroed = np.count_nonzero((clipped == 0.0) & (signed != 0.0))
        self.extra["vocoder.clip_zero_frac"] = zeroed / signed.size
        del clipped, signed

        fm = api.frame_signal(self.x, self.config)
        spec = api.analyze(self.x, self.config, "packed_rfft")
        frames = api.irfft_packed(spec.data)
        y = api.synthesize(spec)
        calls = {
            "vocoder.analyze": lambda: api.analyze(self.x, self.config, "packed_rfft"),
            "vocoder.synthesize": lambda: api.synthesize(spec),
            "signal.frame_signal": lambda: api.frame_signal(self.x, self.config),
            "signal.overlap_add": lambda: api.overlap_add(
                api.FrameMatrix(frames, spec.config, spec.original_length, spec.sample_rate)
            ),
            "transforms.forward": lambda: api.rfft_packed(fm.frames),
            "transforms.inverse": lambda: api.irfft_packed(spec.data),
            "io.read_spec": lambda: api.read_spec(p["a.mvs"]),
            "metrics.mcd": lambda: api.mcd(self.x, y),
        }
        for name in ALLOC_PEAKS:
            self.extra[f"{name}.peak_alloc_mb"] = _alloc_peak_mb(calls[name])

    # -- results -----------------------------------------------------------

    def _pooled_ms(self, child: str, ops) -> float:
        values = [v for op in ops for v in self.rec.samples.get(f"{op}/{child}", ())]
        return 1000.0 * float(np.median(values))

    def end_to_end(self) -> dict:
        """End-to-end metrics measured here (peak_rss_mb and setup_s are
        taken by the caller)."""
        out = {}
        for kind in KINDS:
            out[f"analyze_khz.{kind}"] = khz(self.n, self.rec.median(f"analyze.{kind}"))
            out[f"synth_khz.{kind}"] = khz(self.n, self.rec.median(f"synthesize.{kind}"))
        for command in CLI_COMMANDS:
            out[f"cli_khz.{command}"] = khz(self.n, self.rec.median(f"cli.{command}"))
        return out

    def per_layer(self) -> dict:
        """Per-layer metrics of a traced run, in PER_LAYER order.

        ``*.self_ms`` is the median over pairs of the untraced time less
        the time inside the rebuild's public calls; ``trace.overhead_pct.*``
        is the median over pairs of the rebuild's extra time, over the
        untraced median.  Both can fall below zero within the noise, and
        for ``cli.*`` the rebuild skips argument parsing, which the
        untraced call includes.
        """
        analyze_ops = [f"analyze.{k}" for k in KINDS]
        synth_ops = [f"synthesize.{k}" for k in KINDS]
        cli_ops = [f"cli.{c}" for c in CLI_COMMANDS]
        out = {
            "signal.frame_signal_ms": self._pooled_ms("signal.frame_signal", analyze_ops),
            "signal.overlap_add_ms": self._pooled_ms("signal.overlap_add", synth_ops),
            "signal.frames": self.frames,
        }
        for kind in KINDS:
            for direction, stage in (("forward", "analyze"), ("inverse", "synthesize")):
                ms = self._pooled_ms(f"transforms.{direction}", [f"{stage}.{kind}"])
                out[f"transforms.{direction}_ms.{kind}"] = ms
                out[f"transforms.{direction}_gbps.{kind}"] = self.array_bytes[f"{direction}.{kind}"] / ms / 1e6
        for fn in ("apply_clip", "Spectrogram"):
            for kind in KINDS:
                out[f"vocoder.{fn}_ms.{kind}"] = self._pooled_ms(f"vocoder.{fn}", [f"analyze.{kind}"])
        for stage in ("analyze", "synthesize"):
            for kind in KINDS:
                out[f"vocoder.{stage}.self_ms.{kind}"] = 1000.0 * self.rec.median(f"self:{stage}.{kind}")
        out["vocoder.clip_zero_frac"] = self.extra["vocoder.clip_zero_frac"]
        sizes = {
            "read_wav": "in.wav", "write_wav": "s.wav", "write_wav_f32": "r.wav",
            "read_spec": "a.mvs", "write_spec": "a.mvs",
        }
        for call in IO_CALLS:
            out[f"io.{call}_ms"] = self._pooled_ms(f"io.{call}", cli_ops)
        for call in IO_CALLS:
            out[f"io.{call}.bytes"] = os.path.getsize(self.path[sizes[call]])
        out["metrics.mcd_ms"] = self._pooled_ms("metrics.mcd", cli_ops)
        out["metrics.snr_db_ms"] = self._pooled_ms("metrics.snr_db", cli_ops)
        for command in CLI_COMMANDS:
            out[f"cli.{command}.self_ms"] = 1000.0 * self.rec.median(f"self:cli.{command}")
        for op in OPERATIONS:
            out[f"trace.overhead_pct.{op}"] = 100.0 * self.rec.median(f"tracecost:{op}") / self.rec.median(op)
        for name in ALLOC_PEAKS:
            out[f"{name}.peak_alloc_mb"] = self.extra[f"{name}.peak_alloc_mb"]
        return {name: out[name] for name, _, _ in PER_LAYER}

    def timings(self) -> dict:
        return {name: self.rec.summary(name) for name in sorted(self.rec.samples)}


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _alloc_peak_mb(call) -> float:
    """Peak bytes allocated during one call, by tracemalloc, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
