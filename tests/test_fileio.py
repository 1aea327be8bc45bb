from __future__ import annotations

import pytest

from movingtargets import fileio
from movingtargets.fileio import KeyedFiles, read_table


def records(path, columns, **kwargs):
    return read_table(path, columns, lambda record, line: (line, record), **kwargs)


class TestReplace:
    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        fileio.write_json(path, "old")

        def write_part(handle):
            handle.write("ne")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            fileio.replace(path, write_part)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert path.read_text(encoding="utf-8") == '"old"\n'

    def test_csv_and_json_outputs(self, tmp_path):
        fileio.write_csv(tmp_path / "t.csv", ["a", "b"], [[1, "x,y"], [2.5, ""]])
        fileio.write_json(tmp_path / "t.json", {"b": 1, "a": [None]})
        assert (tmp_path / "t.csv").read_bytes() == b'a,b\n1,"x,y"\n2.5,\n'
        assert (tmp_path / "t.json").read_text() == '{\n  "a": [\n    null\n  ],\n  "b": 1\n}\n'


class TestReadTable:
    def test_records_carry_their_line_numbers_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n\n3,4\n", encoding="utf-8")
        assert records(path, ["a", "b"]) == [(2, {"a": "1", "b": "2"}), (4, {"a": "3", "b": "4"})]

    def test_rows_stream_after_the_header_with_their_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n\n3,4\n5\n", encoding="utf-8")
        rows = fileio.read_rows(path, ["a", "b"])
        assert [next(rows), next(rows), next(rows)] == [(1, ["a", "b"]), (2, ["1", "2"]), (4, ["3", "4"])]
        with pytest.raises(ValueError, match="line 5: expected 2 fields, got 1"):
            next(rows)

    def test_exact_header_unless_extra_columns_are_allowed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("z,a,b\n0,1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected header a,b"):
            records(path, ["a", "b"])
        assert records(path, ["a", "b"], extra_columns=True) == [
            (2, {"z": "0", "a": "1", "b": "2"})
        ]
        with pytest.raises(ValueError, match="missing column 'c'"):
            records(path, ["a", "c"], extra_columns=True)

    @pytest.mark.parametrize("extra_columns", [False, True])
    @pytest.mark.parametrize("row, fields", [("1", 1), ("1,2,3", 3)])
    def test_every_row_has_a_field_per_column(self, tmp_path, extra_columns, row, fields):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b\n1,2\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line 3: expected 2 fields, got {fields}"):
            records(path, ["a", "b"], extra_columns=extra_columns)

    def test_csv_error_is_a_value_error_with_the_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3," + "x" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: field larger than field limit"):
            records(path, ["a", "b"])

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="expected header"):
            records(path, ["a"])


class TestKeyedFiles:
    def test_write_then_read(self, tmp_path):
        files = KeyedFiles(tmp_path / "root")
        assert files.read("m", "text") is None
        files.write("m", "text", "body\n")
        assert files.read("m", "text") == "body\n"
        assert files.path("m", "text") == tmp_path / "root" / f"{KeyedFiles.key('m', 'text')}.txt"
        assert [p.name for p in (tmp_path / "root").iterdir()] == [files.path("m", "text").name]

    def test_a_class_suffix_names_the_files_and_bytes_are_written_as_they_are(self, tmp_path):
        class BinaryFiles(KeyedFiles):
            suffix = ".bin"

        files = BinaryFiles(tmp_path)
        files.write("m", "text", b"\x00\xff\r\n")
        (path,) = tmp_path.iterdir()
        assert path == files.path("m", "text") == tmp_path / f"{KeyedFiles.key('m', 'text')}.bin"
        assert path.read_bytes() == b"\x00\xff\r\n"
        assert files.path("m", "text", ".txt") == path.with_suffix(".txt")
