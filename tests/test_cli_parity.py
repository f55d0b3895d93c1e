"""Every call of the CLI parity corpus (``tools/cli_parity.py``) ends in success,
usage, or one typed error line: no exception escapes ``dispatch``, no error
is reported as ``internal``, a failing call leaves no output file behind, and
the only warning is the one a multichannel WAV gets."""
import importlib.util
import re
from pathlib import Path

import pytest

from specinv.cli import _ERROR_CATEGORIES

_spec = importlib.util.spec_from_file_location("cli_parity", Path(__file__).parents[1] / "tools" / "cli_parity.py")
cli_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_parity)

CATEGORIES = sorted({category for _, category in _ERROR_CATEGORIES} - {"internal"} | {"usage"})
ERROR_LINE = re.compile(rf"error: ({'|'.join(CATEGORIES)}): [^\n]+\n")


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    work = tmp_path_factory.mktemp("parity")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        mp.setenv("COLUMNS", "100")
        (work / "in").mkdir()
        (work / "out").mkdir()
        run = cli_parity.Runner()
        cli_parity.fixtures(run)
    return run.records


def test_every_parity_call_succeeds_or_fails_with_one_typed_error_line(records):
    assert len(records) == 512
    for record in records:
        argv = record["argv"]
        assert "raised" not in record, argv
        assert "internal" not in record["stdout"] + record["stderr"], argv
        assert all(w.startswith("MultiChannelWarning: ") for w in record["warnings"]), argv
        if record["exit"] == 0:
            continue
        assert record["files"] == {}, argv
        assert record["stdout"] == "", argv
        if argv:
            assert ERROR_LINE.fullmatch(record["stderr"]), (argv, record["stderr"])
        else:
            assert record["stderr"].startswith("usage: specinv ") and record["stderr"].count("\n") == 1


def test_bad_bench_clip_durations_and_rates_are_config_errors(records):
    # BenchSpec checks them at construction, so none of these calls times anything.
    lines = {tuple(r["argv"][2:]): r["stderr"] for r in records
             if r["argv"][:1] == ["bench"] and r["argv"][3:4] in (["--duration"], ["--rate"])}
    duration = "error: config: clip_duration must be a positive finite number, got {}\n"
    assert lines == {
        ("dct", "--duration", "0"): duration.format("0.0"),
        ("dct", "--duration", "-1"): duration.format("-1.0"),
        ("dct", "--duration", "nan"): duration.format("nan"),
        ("dct", "--duration", "inf"): duration.format("inf"),
        ("dct", "--rate", "0"): "error: config: sample_rate must be >= 1\n",
    }
