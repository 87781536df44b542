"""Contact-graph construction, time windowing, and degree measurements.

A validated record stream turns into an undirected graph: one vertex per
case, one edge per resolved source link. Graph snapshots are immutable
value objects; every measurement here is a pure function, so windows can
be processed in parallel. ``ContactGraph`` and ``build_graph`` are the
offline reference the streaming engine is tested against; the engine
itself keeps only a degree histogram (``{degree: vertices}``), which is
all a structure report reads.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime
from typing import AbstractSet, Iterable, Mapping, Union

from .records import CaseRecord, ValidatedStream, _Frozen, validate_stream


class TimeWindow(_Frozen):
    """Half-open interval [start, end)."""

    start: datetime
    end: datetime

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError("window start must precede end")

    def contains(self, instant: datetime) -> bool:
        return self.start <= instant < self.end


class ContactGraph(_Frozen):
    """Immutable snapshot of the contact network, every record kept: the
    tests' reference for the engine's counts.

    ``vertices`` maps case ids to their records in stream order; the
    iteration order of every derived measurement follows it, which keeps
    replays byte-for-byte reproducible. ``edges`` holds each undirected
    edge as its sorted id pair, so parallel edges cannot be represented.
    Treat both as frozen; they are not defensively copied.
    """

    vertices: Mapping[str, CaseRecord]
    edges: AbstractSet[tuple[str, str]]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on {a!r}")
            if a not in self.vertices or b not in self.vertices:
                raise ValueError(f"edge {(a, b)!r} has an endpoint outside "
                                 f"the vertex set")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> dict[str, int]:
        """Degree per vertex, in vertex insertion order."""
        out = {case_id: 0 for case_id in self.vertices}
        for a, b in self.edges:
            out[a] += 1
            out[b] += 1
        return out

    def degree_counts(self) -> dict[int, int]:
        """Number of vertices per degree, isolated vertices included."""
        return dict(Counter(self.degrees().values()))

    def n_components(self) -> int:
        """Connected components (isolated vertices count singly)."""
        parent = {v: v for v in self.vertices}

        def find(v: str) -> str:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        return sum(1 for v in self.vertices if find(v) == v)


class DegreeSample(_Frozen):
    """Degree histogram used as a fitting sample: ``counts`` maps each
    degree to the number of vertices that have it. Every fit is a
    function of this histogram alone."""

    counts: Mapping[int, int]

    @property
    def n(self) -> int:
        return sum(self.counts.values())


def build_graph(stream: Union[ValidatedStream, Iterable[CaseRecord]],
                window: TimeWindow | None = None) -> ContactGraph:
    """Build the contact graph for a window (or the whole stream), from
    the stream ``validate_stream`` orders and checks as a whole. No
    command runs it; it is the independent reference for the engine.

    A record contributes a vertex when its timestamp lies in the window;
    an edge {source, case} appears only when BOTH endpoint records lie in
    the window, so every snapshot is a self-contained graph.
    """
    validated = validate_stream(stream)
    vertices: dict[str, CaseRecord] = {}
    for rec in validated.records:
        if window is None or window.contains(rec.timestamp):
            vertices[rec.case_id] = rec
    edges: set[tuple[str, str]] = set()
    for rec in vertices.values():
        src = rec.source_id
        if src is not None and src in vertices:
            edges.add((src, rec.case_id) if src < rec.case_id
                      else (rec.case_id, src))
    return ContactGraph(vertices, edges)


def degree_sample(counts: Mapping[int, int],
                  include_isolated: bool = False) -> DegreeSample:
    """A graph's degree histogram ``counts`` (vertices per degree,
    isolated vertices included) in ascending degree order. Zero-degree
    vertices are dropped unless ``include_isolated`` is set."""
    return DegreeSample({d: counts[d] for d in sorted(counts)
                         if d > 0 or include_isolated})


def degree_distribution(sample: DegreeSample) -> dict[int, float]:
    """Empirical PMF over observed degrees, keyed in ascending order."""
    n = sample.n
    if n == 0:
        raise ValueError("empty degree sample")
    return {d: sample.counts[d] / n for d in sorted(sample.counts)}

