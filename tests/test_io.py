"""Tests for repro.io: table rendering and record serialization."""

from __future__ import annotations

import pytest

from repro.exceptions import SerializationError
from repro.io.serialization import read_records_json, write_records_json
from repro.io.tables import format_markdown_table, format_table

RECORDS = [
    {"n": 16, "mean": 3.25, "ok": True},
    {"n": 32, "mean": 4.5, "ok": False},
]


class TestTables:
    def test_ascii_table_contains_all_cells(self):
        table = format_table(RECORDS)
        assert "n" in table and "mean" in table
        assert "16" in table and "4.500" in table
        assert "yes" in table and "no" in table

    def test_title_included(self):
        table = format_table(RECORDS, title="Results")
        assert table.splitlines()[0] == "Results"

    def test_column_subset_and_order(self):
        table = format_table(RECORDS, columns=["mean", "n"])
        header = table.splitlines()[0]
        assert header.index("mean") < header.index("n")
        assert "ok" not in header

    def test_float_format(self):
        table = format_table(RECORDS, float_format=".1f")
        assert "3.2" in table and "3.250" not in table

    def test_missing_keys_render_empty(self):
        table = format_table([{"a": 1}, {"b": 2}])
        assert "a" in table and "b" in table

    def test_empty_records(self):
        assert format_table([], columns=["a"]).splitlines()[0] == "a"

    def test_markdown_table(self):
        table = format_markdown_table(RECORDS)
        lines = table.splitlines()
        assert lines[0].startswith("| n |")
        assert lines[1].startswith("|---")
        assert len(lines) == 4

    def test_markdown_empty(self):
        assert format_markdown_table([]) == ""


class TestSerialization:
    def test_json_roundtrip(self, tmp_path):
        path = write_records_json(RECORDS, tmp_path / "out.json")
        loaded = read_records_json(path)
        assert loaded == [dict(r) for r in RECORDS]

    def test_json_rejects_non_list(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text("42")
        with pytest.raises(SerializationError):
            read_records_json(path)

    def test_json_read_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            read_records_json(path)

    def test_json_unserializable_value(self, tmp_path):
        with pytest.raises(SerializationError):
            write_records_json([{"x": object()}], tmp_path / "bad.json")
