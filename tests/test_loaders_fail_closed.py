"""Every on-disk loader fails closed on bytes that are not UTF-8.

A record or history file can be hand-edited, mangled by a merge tool or
truncated mid-character.  Each loader must then raise
its own named error (which the CLI turns into a one-line exit), never a
raw ``UnicodeDecodeError`` traceback.
"""

from __future__ import annotations

import pytest

from repro.analysis.sweep_report import RecordError, load_records
from repro.analysis.trajectory import (
    TrajectoryError,
    load_history,
    load_records_file,
)
from repro.cli import main
from repro.serving.artifact import ArtifactError, iter_cached_records

#: valid JSON syntax around a byte pair no UTF-8 text can hold
NOT_UTF8 = b'{"key": "\xff\xfe"}\n'


@pytest.mark.parametrize("name,load,error", [
    pytest.param("PERF.json", load_records_file, TrajectoryError,
                 id="perf-records"),
    pytest.param("HISTORY.jsonl", load_history, TrajectoryError,
                 id="perf-history"),
    pytest.param("records/r.json", lambda p: load_records([p.parent]),
                 RecordError, id="report-records"),
    pytest.param("records/r.json", lambda p: list(iter_cached_records([p])),
                 ArtifactError, id="oracle-records"),
])
def test_non_utf8_file_raises_the_named_error(tmp_path, name, load, error):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(NOT_UTF8)
    with pytest.raises(error, match="(?i)utf-8"):
        load(path)


@pytest.mark.parametrize("argv,name,arg", [
    pytest.param(["report", "--records"], "records/r.json",
                 lambda p: p.parent, id="report-records"),
    pytest.param(["perf", "--check", "--records"], "bad.json",
                 lambda p: p, id="perf-records"),
])
def test_cli_exits_with_a_message_on_non_utf8_input(tmp_path, argv, name,
                                                    arg):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(NOT_UTF8)
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(arg(path))])
    assert "UTF-8" in str(exc.value)
