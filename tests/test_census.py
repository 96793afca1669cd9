"""The census tool's records survive a writer killed mid-write."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.graph import kernels

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"


def _census():
    spec = importlib.util.spec_from_file_location("census_under_test", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flush_leaves_one_complete_record_and_no_temp_file(tmp_path, monkeypatch):
    census = _census()
    monkeypatch.setenv("CENSUS_TAG", "tier1")  # _flush re-sets it
    monkeypatch.setattr(census, "_out", str(tmp_path))
    census._seen["tier1:tests/test_x.py"] = {kernels.in_sorted.__code__}
    census._flush()
    (record,) = tmp_path.iterdir()
    assert record.suffix == ".json"
    assert json.loads(record.read_text())["calls"] == {
        "tier1:tests/test_x.py": ["repro.graph.kernels:in_sorted"]}


def test_table_skips_what_a_writer_killed_mid_write_left(tmp_path, monkeypatch):
    """A record writer killed while it writes leaves an empty file; it
    must be one that ``table`` does not read, so ``table`` still reads
    the complete record beside it."""
    census = _census()
    monkeypatch.setenv("CENSUS_TAG", "tier1")  # _flush re-sets it
    records = tmp_path / "tier1"
    records.mkdir()
    monkeypatch.setattr(census, "_out", str(records))

    class Killed(BaseException):
        pass

    def killed(path, text):  # the file exists, still empty, at the kill
        path.touch()
        raise Killed

    census._seen["tier1:tests/test_x.py"] = {kernels.in_sorted.__code__}
    with monkeypatch.context() as m:
        m.setattr(census.Path, "write_text", killed)
        with pytest.raises(Killed):
            census._flush()
    census._seen["tier1:tests/test_y.py"] = {kernels.in_sorted.__code__}
    census._flush()
    assert len(list(records.iterdir())) == 2
    census.main(["table", "--out", str(tmp_path), "--check"])
    written = (tmp_path / "CENSUS.md").read_text()
    assert "Entry sets recorded: tier1." in written
