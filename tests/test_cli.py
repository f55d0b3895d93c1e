import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    invalid_spec_files, lying_spec_bytes, make_wav_bytes, patch_payload, patch_spec, spec_bytes,
    synthetic_speech,
)

from specinv.cli import build_parser, dispatch
from specinv.errors import InvalidInputError, MeasurementError, SpecinvError, UnsupportedCodecError
from specinv.io import read_spec, read_wav, write_spec, write_wav
from specinv.metrics import mcd, snr_db
from specinv.signal import FrameConfig, Waveform
from specinv.vocoder import ClipMode, analyze, synthesize

DATA = Path(__file__).parent / "data" / "help"


@pytest.fixture()
def wav_path(tmp_path, rng):
    x = Waveform(rng.normal(size=8000) * 0.3, 22050)
    path = tmp_path / "in.wav"
    write_wav(path, x, encoding="float32")
    return path


def test_analyze_cli_matches_library_bytes(tmp_path, wav_path):
    out_cli = tmp_path / "cli.mvs"
    code = dispatch(
        ["analyze", str(wav_path), str(out_cli), "--algo", "prft", "--win", "256", "--hop", "64"]
    )
    assert code == 0
    out_lib = tmp_path / "lib.mvs"
    spec = analyze(read_wav(wav_path), FrameConfig(256, 64), "packed_rfft", ClipMode.none())
    write_spec(out_lib, spec)
    assert out_cli.read_bytes() == out_lib.read_bytes()


def test_synthesize_cli_matches_library_bytes(tmp_path, wav_path):
    mvs = tmp_path / "a.mvs"
    assert dispatch(["analyze", str(wav_path), str(mvs), "--algo", "dct"]) == 0
    out_cli = tmp_path / "cli.wav"
    assert dispatch(["synthesize", str(mvs), str(out_cli)]) == 0
    out_lib = tmp_path / "lib.wav"
    write_wav(out_lib, synthesize(read_spec(mvs)), encoding="float32")
    assert out_cli.read_bytes() == out_lib.read_bytes()


def test_roundtrip_report_matches_library_exactly(tmp_path, capsys):
    x = synthetic_speech(duration=1.0, seed=5)
    src = tmp_path / "speech.wav"
    write_wav(src, x, encoding="float32")
    out = tmp_path / "out.wav"
    code = dispatch(
        [
            "roundtrip", str(src), str(out),
            "--algo", "dct", "--win", "1024", "--hop", "128", "--clip", "zero", "--report",
        ]
    )
    assert code == 0
    lines = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    ref = read_wav(src)
    est = synthesize(analyze(ref, FrameConfig(1024, 128), "dct", ClipMode.zero()))
    assert float(lines["snr_db"]) == snr_db(ref, est)
    assert float(lines["mcd"]) == mcd(ref, est)


def test_roundtrip_signed_prft_reports_high_snr(tmp_path, wav_path, capsys):
    out = tmp_path / "out.wav"
    code = dispatch(
        ["roundtrip", str(wav_path), str(out), "--algo", "prft", "--clip", "none", "--report"]
    )
    assert code == 0
    lines = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert float(lines["snr_db"]) >= 180.0


def test_metrics_command(tmp_path, wav_path, capsys):
    est = tmp_path / "est.wav"
    x = read_wav(wav_path)
    write_wav(est, Waveform(x.samples * 0.5, x.sample_rate), encoding="float32")
    code = dispatch(["metrics", str(wav_path), str(est), "--mcd-bands", "23", "--mcd-cepstra", "13"])
    assert code == 0
    lines = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert float(lines["snr_db"]) == pytest.approx(6.0206, abs=1e-3)
    assert abs(float(lines["mcd"])) <= 1e-9


def test_bench_command_prints_tsv(capsys):
    code = dispatch(
        [
            "bench", "--algo", "prft", "--win", "256", "--hop", "64",
            "--duration", "0.1", "--runs", "2", "--warmup", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pipeline\twin\thop\tclip\tkhz\trtf\tmean_s\tstd_s"
    cells = out[1].split("\t")
    assert cells[:4] == ["packed_rfft", "256", "64", "none"]
    assert float(cells[4]) > 0 and float(cells[5]) > 0


@pytest.mark.parametrize("duration", ["nan", "inf", "1e300"])
def test_bench_duration_without_a_sample_count_is_one_error_line(capsys, duration):
    code = dispatch(["bench", "--algo", "dct", "--duration", duration, "--runs", "1", "--warmup", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: config: ")


def test_bench_large_hop_boxcar_row(capsys):
    code = dispatch(
        [
            "bench", "--algo", "prft", "--win", "1024", "--hop", "1022", "--window", "boxcar",
            "--duration", "0.25", "--runs", "2", "--warmup", "0",
        ]
    )
    assert code == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert row[0] == "packed_rfft" and row[1] == "1024" and row[2] == "1022"


def test_info_on_wav_and_mvs(tmp_path, wav_path, capsys):
    assert dispatch(["info", str(wav_path)]) == 0
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert out["format"] == "float" and out["sample_rate"] == "22050"

    mvs = tmp_path / "a.mvs"
    assert dispatch(["analyze", str(wav_path), str(mvs), "--algo", "dct"]) == 0
    assert dispatch(["info", str(mvs)]) == 0
    out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
    assert out["kind"] == "dct" and out["win_length"] == "1024"


def test_info_on_garbage_is_format_error(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"\x01\x02\x03\x04junkjunk")
    assert dispatch(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: format:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Error paths: nonzero exit, single-line messages, no partial outputs
# ---------------------------------------------------------------------------


def test_synthesize_from_magnitude_fails_cleanly(tmp_path, wav_path, capsys):
    mvs = tmp_path / "mag.mvs"
    assert dispatch(["analyze", str(wav_path), str(mvs), "--algo", "magnitude"]) == 0
    out = tmp_path / "out.wav"
    code = dispatch(["synthesize", str(mvs), str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported:") and "magnitude" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_roundtrip_magnitude_leaves_no_partial_file(tmp_path, wav_path, capsys):
    out = tmp_path / "out.wav"
    code = dispatch(["roundtrip", str(wav_path), str(out), "--algo", "magnitude"])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: unsupported:")


def test_unknown_flag_is_single_line_usage_error(tmp_path, wav_path, capsys):
    out = tmp_path / "out.mvs"
    code = dispatch(["analyze", str(wav_path), str(out), "--algo", "dct", "--frobnicate"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: usage:") and err.count("\n") == 1
    assert not out.exists()


def test_bad_clip_value_is_config_error(tmp_path, wav_path, capsys):
    out = tmp_path / "out.mvs"
    code = dispatch(["analyze", str(wav_path), str(out), "--algo", "dct", "--clip", "threshold:7"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config:")
    assert not out.exists()


def test_bad_window_value_is_config_error(tmp_path, wav_path, capsys):
    out = tmp_path / "out.mvs"
    code = dispatch(["analyze", str(wav_path), str(out), "--algo", "dct", "--window", "blackman"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config:")
    assert not out.exists()


def test_zero_threads_is_config_error(tmp_path, wav_path, capsys):
    out = tmp_path / "out.mvs"
    code = dispatch(["analyze", str(wav_path), str(out), "--algo", "dct", "--threads", "0"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: config:")
    assert not out.exists()


def test_missing_input_is_io_error(tmp_path, capsys):
    out = tmp_path / "out.mvs"
    code = dispatch(["analyze", str(tmp_path / "nope.wav"), str(out), "--algo", "dct"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: io:")
    assert not out.exists()


def test_corrupt_input_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFF\x00\x00\x00\x00JUNK")
    out = tmp_path / "out.mvs"
    code = dispatch(["analyze", str(bad), str(out), "--algo", "dct"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: format:")
    assert not out.exists()


def test_synthesize_lying_header_is_format_error(tmp_path, capsys):
    lie = tmp_path / "lie.mvs"
    lie.write_bytes(lying_spec_bytes())
    out = tmp_path / "out.wav"
    assert dispatch(["synthesize", str(lie), str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: format:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(invalid_spec_files()))
def test_info_and_synthesize_reject_invalid_spec_alike(tmp_path, capsys, name):
    bad = tmp_path / "bad.mvs"
    bad.write_bytes(invalid_spec_files()[name][0])
    out = tmp_path / "out.wav"
    assert dispatch(["info", str(bad)]) == 1
    info = capsys.readouterr()
    assert dispatch(["synthesize", str(bad), str(out)]) == 1
    synth = capsys.readouterr()
    assert info.out == synth.out == ""
    assert info.err == synth.err
    assert info.err.startswith("error: format: ") and info.err.count("\n") == 1
    assert not out.exists()


def test_synthesize_rate_beyond_wav_range_is_input_error(tmp_path, capsys):
    x = Waveform(np.linspace(-0.5, 0.5, 300), 8000)
    mvs = tmp_path / "fast.mvs"
    mvs.write_bytes(patch_spec(spec_bytes(analyze(x, FrameConfig(32, 16), "dct")), sample_rate=2**31))
    assert len(mvs.read_bytes()) < 3000
    out = tmp_path / "out.wav"
    assert dispatch(["synthesize", str(mvs), str(out)]) == 1
    assert capsys.readouterr().err == "error: input: WAV byte rate 8589934592 does not fit in 32 bits\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.mvs"]


def _dispatch_warning_free(argv):
    """``dispatch(argv)``; a warning, which a CLI user would see as extra stderr, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return dispatch(argv)


@pytest.mark.parametrize(
    "sample,clip,message",
    [
        (0.3, "threshold:1e-50", "MVS1 clip_tau 1e-50 is 0.0 as float32: threshold tau must lie in (0, 1)"),
        (0.3, "threshold:0.99999999", "MVS1 clip_tau 0.99999999 is 1.0 as float32: threshold tau must lie"),
        (3e38, "none", "MVS1 payload values exceed the float32 range"),
    ],
    ids=["tau_rounds_to_0", "tau_rounds_to_1", "payload_overflows_f32"],
)
def test_analyze_writes_no_spec_that_would_not_read_back(tmp_path, capsys, sample, clip, message):
    src = tmp_path / "in.wav"
    src.write_bytes(make_wav_bytes(np.full(4000, sample, "<f4").tobytes(), 3, 32, rate=16000))
    argv = ["analyze", str(src), str(tmp_path / "out.mvs"), "--algo", "dct", "--win", "64", "--hop", "16"]
    assert _dispatch_warning_free(argv + ["--clip", clip]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: input: " + message) and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav"]


def test_synthesize_float32_overflow_is_input_error(tmp_path, capsys):
    x = Waveform(np.linspace(-0.5, 0.5, 300), 8000)
    spec = analyze(x, FrameConfig(32, 8), "dct")
    mvs = tmp_path / "big.mvs"
    mvs.write_bytes(patch_payload(spec_bytes(spec), 0, np.full(spec.data.size, 3e38)))
    out = tmp_path / "out.wav"
    assert _dispatch_warning_free(["synthesize", str(mvs), str(out), "--encoding", "float32"]) == 1
    assert capsys.readouterr().err.startswith("error: input: WAV samples exceed the float32 range")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.mvs"]
    # pcm16 clamps, so the same spectrogram still synthesizes.
    assert _dispatch_warning_free(["synthesize", str(mvs), str(out), "--encoding", "pcm16"]) == 0
    assert read_wav(out).samples.max() == 1.0 - 1.0 / 32768


@pytest.mark.parametrize(
    "exc,category",
    [
        (UnsupportedCodecError("unsupported WAV encoding"), "codec"),
        (InvalidInputError("waveform contains NaN"), "input"),
        (MeasurementError("mean elapsed time 0.0 s is not positive"), "measurement"),
        (SpecinvError("unexpected"), "internal"),
        (MemoryError("Unable to allocate 8.00 TiB"), "memory"),
    ],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
def test_error_category_is_one_line(tmp_path, wav_path, capsys, monkeypatch, exc, category):
    def fail(fh):
        raise exc

    monkeypatch.setattr("specinv.io._read_mono", fail)  # what analyze reads its input WAV with
    out = tmp_path / "out.mvs"
    assert dispatch(["analyze", str(wav_path), str(out), "--algo", "dct"]) == 1
    assert capsys.readouterr().err == f"error: {category}: {exc}\n"
    assert not out.exists()


def test_no_command_prints_usage(capsys):
    assert dispatch([]) == 2
    assert "usage" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Help output
# ---------------------------------------------------------------------------

HELP_CASES = [
    ("top", []),
    ("analyze", ["analyze"]),
    ("synthesize", ["synthesize"]),
    ("roundtrip", ["roundtrip"]),
    ("metrics", ["metrics"]),
    ("bench", ["bench"]),
    ("info", ["info"]),
]


@pytest.mark.parametrize("name,argv", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_matches_golden_file(name, argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    assert dispatch(argv + ["--help"]) == 0
    golden = (DATA / f"{name}.txt").read_text()
    assert capsys.readouterr().out == golden


def test_every_flag_is_documented(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    flags = {
        "analyze": ["--algo", "--win", "--hop", "--window", "--clip", "--no-center", "--threads"],
        "synthesize": ["--encoding", "--threads"],
        "roundtrip": ["--algo", "--win", "--hop", "--window", "--clip", "--no-center",
                      "--threads", "--encoding", "--report"],
        "metrics": ["--mcd-bands", "--mcd-cepstra"],
        "bench": ["--algo", "--win", "--hop", "--window", "--clip", "--no-center", "--threads",
                  "--duration", "--rate", "--runs", "--warmup", "--stage"],
        "info": [],
    }
    for command, expected in flags.items():
        assert dispatch([command, "--help"]) == 0
        text = capsys.readouterr().out
        for flag in expected + ["--help"]:
            assert flag in text, f"{command} help is missing {flag}"


def test_parser_builds_without_env():
    parser = build_parser()
    assert parser.prog == "specinv"
