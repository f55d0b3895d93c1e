"""Every call of the CLI parity corpus (``tools/cli_parity.py``) ends in success,
usage, or one typed error line: no exception escapes ``dispatch``, no error
is reported as ``internal``, a failing call leaves no output file behind, and
the only warning is the one a multichannel WAV gets."""
import importlib.util
import re
from pathlib import Path

from specinv.cli import _ERROR_CATEGORIES

_spec = importlib.util.spec_from_file_location("cli_parity", Path(__file__).parents[1] / "tools" / "cli_parity.py")
cli_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_parity)

CATEGORIES = sorted({category for _, category in _ERROR_CATEGORIES} - {"internal"} | {"usage"})
ERROR_LINE = re.compile(rf"error: ({'|'.join(CATEGORIES)}): [^\n]+\n")


def test_every_parity_call_succeeds_or_fails_with_one_typed_error_line(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "100")
    (tmp_path / "in").mkdir()
    (tmp_path / "out").mkdir()
    run = cli_parity.Runner()
    cli_parity.fixtures(run)
    assert len(run.records) == 507
    for record in run.records:
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
