"""Unit tests for edge-list I/O."""

import gzip
import io
import warnings

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import Graph, load_edge_list, save_edge_list
from repro.graph.io import _load_int_edge_list, _load_with_builder, iter_edge_lines


class TestRoundTrip:
    def test_plain_round_trip(self, figure2, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(figure2, path)
        loaded = load_edge_list(path)
        assert loaded.graph == figure2

    def test_gzip_round_trip(self, figure2, tmp_path):
        path = tmp_path / "g.txt.gz"
        save_edge_list(figure2, path, header="compressed test")
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("# compressed test")
        loaded = load_edge_list(path)
        assert loaded.graph == figure2

    def test_header_written_as_comments(self, figure2, tmp_path):
        path = tmp_path / "g.txt"
        save_edge_list(figure2, path, header="line one\nline two")
        text = path.read_text()
        assert text.startswith("# line one\n# line two\n")


class TestParsing:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP header\n\n0 1\n# mid comment\n1 2\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_edges == 2

    def test_extra_fields_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 0.5 1234\n1 2 0.7 999\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_edges == 2

    def test_short_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nonlyone\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_edge_list(path)

    def test_dirty_input_cleaned_and_counted(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n2 2\n1 2\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_edges == 2
        assert loaded.num_duplicates_dropped == 1
        assert loaded.num_self_loops_dropped == 1

    def test_sparse_integer_ids_relabelled(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("1000000 2000000\n2000000 42\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_vertices == 3
        assert loaded.labels == [1000000, 2000000, 42]

    def test_string_labels(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("alice bob\nbob carol\n")
        loaded = load_edge_list(path)
        assert loaded.graph.num_vertices == 3
        assert "alice" in loaded.labels

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n1,2\n")
        loaded = load_edge_list(path, delimiter=",")
        assert loaded.graph.num_edges == 2

    def test_iter_edge_lines_stream(self):
        stream = io.StringIO("# c\n0 1\n")
        assert list(iter_edge_lines(stream)) == [("0", "1")]


def _random_edge_text(seed: int) -> bytes:
    """Shuffled integer edge lines with repeats, reversals and self loops."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 300, size=(2000, 2)) * 1009
    pairs[::50, 1] = pairs[::50, 0]
    return "".join(f"{u} {v}\n" for u, v in pairs).encode()


#: Inputs the integer fast path takes.
FAST_INPUTS = {
    "plain": b"0 1\n1 2\n2 0\n",
    "crlf": b"# header\r\n3 1\r\n1 2\r\n",
    "tabs": b"5\t6\n6 \t 7\n\t7\t5\t\n",
    "blank_lines": b"\n1 2\n\n  \n\t\n2 3\n\n",
    "indented_comments": b"  # one\n\t# two\n1 2\n   #three\n2 3\n",
    "comment_at_eof": b"1 2\n2 3\n  # no newline",
    "leading_zeros_alias": b"007 8\n7 9\n0008 9\n",
    "three_fields": b"1 2 3\n2 3\n3 4 5 6\n",
    "dirty": b"0 1\n1 0\n2 2\n1 2\n0 1\n",
    "big_ids": b"4611686018427387904 1\n9223372036854775807 1\n",
    "random": _random_edge_text(1),
}

#: Inputs the fast path must leave to the general loader.
FALLBACK_INPUTS = {
    "lone_cr": b"1 2\r3 4\n",
    "inline_comment": b"1 2 # note\n2 3\n",
    "plus_sign": b"+5 1\n1 2\n",
    "minus_sign": b"-3 1\n1 2\n",
    "underscore": b"1_000 2\n2 3\n",
    "float": b"5.0 1\n1 2\n",
    "int64_overflow": b"9223372036854775808 1\n1 2\n",
    "non_ascii_digit": "\u0663 1\n1 2\n".encode(),
    "non_ascii_comment": "# caf\u00e9\n1 2\n".encode(),
    "form_feed": b"1\x0c2\n2 3\n",
    "vertical_tab": b"1 2\x0b\n2 3\n",
    "labels": b"alice bob\nbob 3\n",
    "empty": b"",
    "comment_only": b"# nothing\n  # here\n",
    "blank_only": b"\n \n\t\n",
}


def _write(tmp_path, name: str, data: bytes, gz: bool):
    path = tmp_path / (name + (".txt.gz" if gz else ".txt"))
    path.write_bytes(gzip.compress(data) if gz else data)
    return path


def _assert_same_loaded(got, want):
    assert got.graph.indptr.dtype == want.graph.indptr.dtype
    assert got.graph.indices.dtype == want.graph.indices.dtype
    assert np.array_equal(got.graph.indptr, want.graph.indptr)
    assert np.array_equal(got.graph.indices, want.graph.indices)
    assert got.labels == want.labels
    assert [type(x) for x in got.labels] == [type(x) for x in want.labels]
    assert got.num_self_loops_dropped == want.num_self_loops_dropped
    assert got.num_duplicates_dropped == want.num_duplicates_dropped


class TestIntegerFastPath:
    """The array-native loader against the builder loop it stands in for."""

    @pytest.mark.parametrize("gz", [False, True], ids=["text", "gzip"])
    @pytest.mark.parametrize("name", sorted(FAST_INPUTS))
    def test_fast_path_matches_builder(self, tmp_path, name, gz):
        path = _write(tmp_path, name, FAST_INPUTS[name], gz)
        fast = _load_int_edge_list(path)
        assert fast is not None
        want = _load_with_builder(path)
        _assert_same_loaded(fast, want)
        _assert_same_loaded(load_edge_list(path), want)

    @pytest.mark.parametrize("gz", [False, True], ids=["text", "gzip"])
    @pytest.mark.parametrize("name", sorted(FALLBACK_INPUTS))
    def test_other_input_falls_back(self, tmp_path, name, gz):
        path = _write(tmp_path, name, FALLBACK_INPUTS[name], gz)
        assert _load_int_edge_list(path) is None
        _assert_same_loaded(load_edge_list(path), _load_with_builder(path))

    @pytest.mark.parametrize(
        "data,lineno", [(b"0 1\n7\n1 2\n", 2), (b"# c\n\n0 1\n  7  \n", 4)]
    )
    def test_one_field_line_reports_its_number(self, tmp_path, data, lineno):
        path = _write(tmp_path, "short", data, gz=False)
        with pytest.raises(GraphFormatError, match=f"line {lineno}:"):
            load_edge_list(path)

    @pytest.mark.parametrize("name", ["empty", "comment_only", "blank_only"])
    def test_empty_input_is_quiet(self, tmp_path, name):
        path = _write(tmp_path, name, FALLBACK_INPUTS[name], gz=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded = load_edge_list(path)
        assert loaded.graph == Graph.empty(0)
        assert loaded.labels == []
        assert (loaded.num_self_loops_dropped, loaded.num_duplicates_dropped) == (0, 0)

    def test_non_default_arguments_take_the_builder(self, tmp_path):
        path = _write(tmp_path, "g", b"1 2\n2 3\n", gz=False)
        assert load_edge_list(path, as_int=False).labels == ["1", "2", "3"]
