"""Edge-list readers and writers.

The paper's datasets are distributed as SNAP-style text edge lists: one edge
per line, whitespace separated, ``#`` comment lines.  This module reads and
writes that format (optionally gzip-compressed) into the package's CSR
:class:`~repro.graph.csr.Graph`.  Dirty input (duplicates, self loops,
sparse ids) is handled uniformly: plain integer files take an array-native
path, and every other file goes through
:class:`~repro.graph.builder.GraphBuilder`, with identical results.
"""

from __future__ import annotations

import gzip
import io
import os
import zlib
from contextlib import contextmanager
from typing import IO, Iterator

import numpy as np

from ..errors import GraphFormatError
from .builder import GraphBuilder, graph_from_endpoints
from .csr import Graph

__all__ = [
    "LoadedGraph",
    "iter_edge_lines",
    "load_edge_list",
    "load_metis",
    "load_npz",
    "save_edge_list",
    "save_metis",
    "save_npz",
]


class LoadedGraph:
    """A graph loaded from disk together with its label mapping.

    Attributes
    ----------
    graph:
        The clean CSR graph with dense vertex ids ``0..n-1``.
    labels:
        ``labels[i]`` is the original id (string) of dense vertex ``i``.
    num_self_loops_dropped / num_duplicates_dropped:
        Hygiene counters from the underlying builder.
    """

    def __init__(self, graph: Graph, labels: list, loops: int, dups: int):
        self.graph = graph
        self.labels = labels
        self.num_self_loops_dropped = loops
        self.num_duplicates_dropped = dups

    def __repr__(self) -> str:
        return (
            f"LoadedGraph({self.graph!r}, dropped {self.num_self_loops_dropped} loops, "
            f"{self.num_duplicates_dropped} duplicates)"
        )


@contextmanager
def _gzip_errors(path: str):
    """Re-raise a truncated or non-gzip ``.gz`` file's read errors.

    ``gzip`` reports them only once the data is read, as ``EOFError``,
    ``gzip.BadGzipFile`` or ``zlib.error``; they become a
    :class:`GraphFormatError` that names the file.
    """
    try:
        yield
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise GraphFormatError(f"{path}: unreadable gzip file ({exc})") from exc


@contextmanager
def _open_text(path: str | os.PathLike, mode: str) -> Iterator[IO[str]]:
    """Open ``path`` as text, transparently handling ``.gz`` suffixes.

    A context manager: gzip read errors raised inside its ``with`` body
    surface as :class:`GraphFormatError`.
    """
    path = os.fspath(path)
    if not path.endswith(".gz"):
        with open(path, mode + "t", encoding="utf-8") as handle:
            yield handle
        return
    with _gzip_errors(path), io.TextIOWrapper(
        gzip.open(path, mode + "b"), encoding="utf-8"
    ) as handle:
        yield handle


def iter_edge_lines(
    handle: IO[str], *, comments: str = "#", delimiter: str | None = None
) -> Iterator[tuple[str, str]]:
    """Yield ``(u, v)`` label pairs from an edge-list text stream.

    Blank lines and lines starting with ``comments`` are skipped.  A line
    with fewer than two fields raises :class:`GraphFormatError`; extra fields
    (e.g. weights or timestamps in some SNAP dumps) are ignored.
    """
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or (comments and line.startswith(comments)):
            continue
        parts = line.split(delimiter)
        if len(parts) < 2:
            raise GraphFormatError(f"line {lineno}: expected at least two fields, got {line!r}")
        yield parts[0], parts[1]


def load_edge_list(
    path: str | os.PathLike,
    *,
    comments: str = "#",
    delimiter: str | None = None,
    as_int: bool = True,
) -> LoadedGraph:
    """Load a SNAP-style edge list from ``path`` (gzip auto-detected).

    Parameters
    ----------
    path:
        File path; ``.gz`` files are decompressed on the fly.
    comments:
        Comment prefix (default ``#``).
    delimiter:
        Field delimiter; ``None`` splits on any whitespace.
    as_int:
        When true, fields are parsed as integers (the common SNAP case) so
        that numeric labels sort naturally; non-numeric input falls back to
        string labels automatically.

    Returns
    -------
    LoadedGraph
        Clean CSR graph plus the original label mapping.
    """
    if as_int and delimiter is None and comments == "#":
        loaded = _load_int_edge_list(path)
        if loaded is not None:
            return loaded
    return _load_with_builder(path, comments=comments, delimiter=delimiter, as_int=as_int)


def _load_with_builder(
    path: str | os.PathLike, *, comments: str = "#", delimiter: str | None = None,
    as_int: bool = True,
) -> LoadedGraph:
    """The general loader: one :meth:`GraphBuilder.add_edge` per line."""
    builder = GraphBuilder()
    with _open_text(path, "r") as handle:
        for u, v in iter_edge_lines(handle, comments=comments, delimiter=delimiter):
            if as_int:
                try:
                    builder.add_edge(int(u), int(v))
                    continue
                except ValueError:
                    pass
            builder.add_edge(u, v)
    graph = builder.build()
    return LoadedGraph(
        graph, builder.labels, builder.num_self_loops_dropped, builder.num_duplicates_dropped
    )


#: The only bytes the integer fast path accepts once comment lines are gone.
_INT_TEXT_BYTES = b"0123456789 \t\r\n"


def _drop_comment_lines(data: bytes) -> bytes | None:
    """``data`` without its whole ``#`` comment lines.

    A comment line is optional spaces or tabs, then ``#``.  Returns ``None``
    when a ``#`` follows a field on its line (an inline comment).
    """
    pieces = []
    kept_from = 0
    mark = data.find(b"#")
    while mark >= 0:
        line_start = data.rfind(b"\n", 0, mark) + 1
        if data[line_start:mark].strip(b" \t"):
            return None
        pieces.append(data[kept_from:line_start])
        line_end = data.find(b"\n", mark)
        kept_from = len(data) if line_end < 0 else line_end + 1
        mark = data.find(b"#", kept_from)
    pieces.append(data[kept_from:])
    return b"".join(pieces)


def _load_int_edge_list(path: str | os.PathLike) -> LoadedGraph | None:
    """Array-native loader for plain non-negative integer edge lists.

    Returns ``None`` for any input it does not take, so that the caller
    falls back to :func:`_load_with_builder`; for every input it does take,
    the result is identical to that path's.  It takes ASCII text whose
    lines, once whole ``#`` comment lines are dropped, hold only unsigned
    decimal integers separated by spaces or tabs, at least two per line
    (extra fields are ignored), each fitting int64, with LF or CRLF line
    ends.  Empty and comment-only files are left to the general path too.
    """
    path = os.fspath(path)
    with _gzip_errors(path), (
        gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb")
    ) as handle:
        data = handle.read()
    # Non-ASCII bytes (even in comments) decode, or fail to, on the general
    # path; a lone CR is a line break in text mode.
    if not data.isascii() or (b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    data = _drop_comment_lines(data)
    if data is None or data.translate(None, _INT_TEXT_BYTES):
        return None
    if not data or data.isspace():  # no field at all: empty or comment-only
        return None
    try:
        pairs = np.loadtxt(
            io.BytesIO(data), dtype=np.int64, comments=None, usecols=(0, 1), ndmin=2
        )
    except ValueError:  # a line with one field, or a value past int64
        return None
    # Dense ids in order of first appearance, as GraphBuilder interns them.
    flat = pairs.ravel()
    values, inverse = np.unique(flat, return_inverse=True)
    first = np.full(len(values), len(flat), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(flat), dtype=np.int64))
    appearance = np.argsort(first)
    dense = np.empty(len(values), dtype=np.int64)
    dense[appearance] = np.arange(len(values), dtype=np.int64)
    ids = dense[inverse].reshape(-1, 2)
    graph, loops, dups = graph_from_endpoints(ids[:, 0], ids[:, 1], len(values))
    return LoadedGraph(graph, values[appearance].tolist(), loops, dups)


def save_edge_list(graph: Graph, path: str | os.PathLike, *, header: str | None = None) -> None:
    """Write ``graph`` to ``path`` as a text edge list (gzip by suffix).

    Each undirected edge is written once as ``u v`` with ``u < v``.
    """
    with _open_text(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


# ----------------------------------------------------------------------
# Binary cache (.npz) and METIS formats
# ----------------------------------------------------------------------

def save_npz(graph: Graph, path: str | os.PathLike) -> None:
    """Save a graph as a compressed ``.npz`` CSR snapshot.

    Loading an ``.npz`` is one :func:`numpy.load` call — orders of
    magnitude faster than re-parsing a text edge list, which matters when
    the benchmark suite re-reads the larger stand-ins repeatedly.
    """
    np.savez_compressed(os.fspath(path), indptr=graph.indptr, indices=graph.indices)


def load_npz(path: str | os.PathLike) -> Graph:
    """Load a graph saved by :func:`save_npz` (validated on load)."""
    with np.load(os.fspath(path)) as data:
        try:
            indptr, indices = data["indptr"], data["indices"]
        except KeyError as exc:
            raise GraphFormatError(f"{path}: not a graph snapshot (missing {exc})") from exc
        return Graph(indptr.copy(), indices.copy())


def load_metis(path: str | os.PathLike) -> Graph:
    """Load a graph in METIS ASCII format.

    METIS files start with a header line ``n m [fmt]``; line ``i`` of the
    body lists the (1-indexed) neighbours of vertex ``i``.  Only the
    unweighted format (``fmt`` absent or ``0``/``00``/``000``) is
    supported; weighted headers raise :class:`GraphFormatError`.
    """
    from .builder import GraphBuilder

    with _open_text(path, "r") as handle:
        header = None
        rows: list[list[int]] = []
        for raw in handle:
            line = raw.strip()
            if line.startswith("%"):
                continue
            if header is None:
                if not line:
                    continue
                header = line.split()
                if len(header) >= 3 and int(header[2] or 0) != 0:
                    raise GraphFormatError("weighted METIS formats are not supported")
                continue
            # A blank body line is a vertex with no neighbours.
            rows.append([int(tok) for tok in line.split()])
    if header is None:
        raise GraphFormatError(f"{path}: empty METIS file")
    n, m = int(header[0]), int(header[1])
    if len(rows) != n:
        raise GraphFormatError(f"{path}: header says n={n} but found {len(rows)} adjacency lines")
    builder = GraphBuilder()
    for v in range(n):
        builder.add_vertex(v)
    for v, nbrs in enumerate(rows):
        for u in nbrs:
            if not 1 <= u <= n:
                raise GraphFormatError(f"{path}: neighbour index {u} out of range 1..{n}")
            if v < u - 1:
                builder.add_edge(v, u - 1)
    graph = builder.build()
    if graph.num_edges != m:
        raise GraphFormatError(
            f"{path}: header says m={m} but adjacency encodes {graph.num_edges} edges"
        )
    return graph


def save_metis(graph: Graph, path: str | os.PathLike) -> None:
    """Write a graph in METIS ASCII format (1-indexed adjacency lines)."""
    with _open_text(path, "w") as handle:
        handle.write(f"{graph.num_vertices} {graph.num_edges}\n")
        for v in range(graph.num_vertices):
            handle.write(" ".join(str(int(u) + 1) for u in graph.neighbors(v)) + "\n")
