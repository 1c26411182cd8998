"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class GraphFormatError(ReproError):
    """An input file or edge stream could not be parsed into a graph."""


class GraphIntegrityError(ReproError):
    """A graph object violates a structural invariant.

    Raised by :func:`repro.graph.validate.validate_graph` when a CSR graph is
    internally inconsistent (unsorted adjacency, asymmetric edges, self loops,
    out-of-range endpoints, ...).
    """


class _UnknownNameError(ReproError, KeyError):
    """A registry lookup failed; also a ``KeyError`` for dict-style callers."""

    #: What the registry holds, as the message names it.
    kind = "name"

    def __init__(self, name: str, available: tuple[str, ...] = ()):
        self.name = name
        self.available = available
        hint = f"; available: {', '.join(available)}" if available else ""
        super().__init__(f"unknown {self.kind} {name!r}{hint}")

    # KeyError.__str__ repr()s its argument, which would quote the message.
    __str__ = Exception.__str__


class UnknownMetricError(_UnknownNameError):
    """A community scoring metric name is not present in the registry."""

    kind = "community metric"


class UnknownFamilyError(_UnknownNameError):
    """A hierarchy family name is not present in the registry.

    Raised by :func:`repro.engine.get_family` for names that neither a
    built-in family module nor :func:`repro.engine.register_family`
    provides.
    """

    kind = "hierarchy family"


class UnknownBackendError(_UnknownNameError):
    """A kernel backend name is not present in the registry.

    Raised by :func:`repro.kernels.get_backend` for unknown ``backend=``
    arguments and unknown ``REPRO_BACKEND`` environment values.
    """

    kind = "kernel backend"


class UnknownEngineError(_UnknownNameError):
    """A core-decomposition engine name is not recognised.

    Raised by :func:`repro.core.core_decomposition` for unknown ``engine=``
    arguments and unknown ``REPRO_ENGINE`` environment values.
    """

    kind = "decomposition engine"


class MetricRequirementError(ReproError):
    """A metric was evaluated without the primary values it requires.

    For example, asking for ``clustering_coefficient`` from an algorithm run
    that did not count triangles.
    """


class EmptyGraphError(ReproError, ValueError):
    """An operation that needs at least one vertex/edge got an empty graph.

    Raised when a best-k query has no candidate set to choose from (an
    empty or comment-only input file).  Also a ``ValueError``, so callers
    that catch ``ValueError`` for a bad argument still catch it.
    """


class GraphDeltaError(ReproError):
    """A :class:`repro.dynamic.GraphDelta` is malformed or inapplicable.

    Raised for structural problems (self loops, negative ids, overlapping
    insert/delete sets) and, under strict application, for no-op edges:
    inserting an edge already present or deleting one that is missing.
    """


class QueryError(ReproError):
    """An application-level query is unsatisfiable or malformed.

    Used by the size-constrained k-core search when the query vertex does not
    admit any k-core of the requested size.
    """


class ScenarioMismatchError(ReproError):
    """A scenario run produced a different answer than the reference.

    Raised by :mod:`repro.scenarios` when a registered scenario's result
    (best k, score, or vertex set) is not bit-identical to the python
    reference execution — the self-measurement harness refuses to time a
    wrong answer.
    """
