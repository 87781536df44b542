"""Streaming recognition of contact-network structure.

Feeds the record stream through a window schedule, maintains the graph
incrementally, and emits one structure report per closed window. A
window closes when the watermark (largest event timestamp seen) passes
its end; flushing the stream closes every remaining scheduled window.
With no schedule (``spec=None``) the whole stream is one graph, reported
at flush(). Between records the engine holds the id map, the records
waiting for their source, and one graph.

Ingestion is single-threaded and ordered. Closed windows could be
fitted in parallel (fitting is pure over immutable samples); emission
preserves window order either way.

Every record's source link is checked on arrival with the rule
``validate_stream`` applies to a whole stream: a link stands only when
its source is a record reported no later than the case. A source
already seen with a later timestamp gives ``source-after-case`` and the
link is stripped. A case whose source has not arrived waits; if the
source turns up later in time than the case, the case gets
``source-after-case`` and the two are never linked, and a case still
waiting at flush() gets ``dangling-source``. With ``on_bad_link=
"reject"`` each of these raises ValidationError instead.

A record whose window would end after the last representable instant
(9999-12-31T23:59:59Z) is dropped with a ``beyond-range`` diagnostic
before it moves the watermark, so no window end ever overflows; under
``on_bad_link="reject"`` it raises ValidationError too.

For timestamp-ordered feeds every emitted report equals the offline
pipeline's over the same window, and the link diagnostics equal
``validate_stream``'s up to order. Out-of-order feeds keep exact
vertex/edge/degree counts, and fits read only the degree histogram, so
arrival order does not reach a report; late records follow the window
mode's policy: tumbling windows reject them with a diagnostic (their
report is already out), cumulative windows absorb them into the next
prefix. No record is late to the whole-stream report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from typing import Iterable, Iterator, Sequence

from . import FAMILIES, RULES, canonical_families
from .fitting import FitError, StructureClass, fit_family, select_structure
from .graph import (ContactGraph, DegreeSample, GraphCounts, TimeWindow,
                    build_graph, degree_sample)
from .records import (BAD_LINK_POLICIES, CaseRecord, Diagnostic,
                      ValidationError, bad_link, format_timestamp,
                      normalize_timestamp)

WINDOW_MODES = ("tumbling", "cumulative")

_LAST_INSTANT = datetime.max.replace(tzinfo=timezone.utc)


@dataclass(frozen=True)
class WindowSpec:
    """How to slice the stream: disjoint fixed slices from an origin
    (tumbling) or growing prefixes of it (cumulative)."""

    mode: str
    period: timedelta
    origin: datetime

    def __post_init__(self):
        if self.mode not in WINDOW_MODES:
            raise ValueError(f"unknown window mode {self.mode!r}")
        if self.period <= timedelta(0):
            raise ValueError("window period must be positive")
        object.__setattr__(self, "origin", normalize_timestamp(self.origin))

    def window(self, index: int) -> TimeWindow:
        if index < 0:
            raise ValueError("window index must be non-negative")
        end = self.origin + (index + 1) * self.period
        if self.mode == "tumbling":
            return TimeWindow(self.origin + index * self.period, end)
        return TimeWindow(self.origin, end)


def schedule_windows(spec: WindowSpec, extent: TimeWindow) -> tuple[TimeWindow, ...]:
    """The ordered windows a WindowSpec produces over the extent: enough
    periods to cover [origin, extent.end). No command calls it; the
    engine closes windows by index, and tests compare with this."""
    span = extent.end - spec.origin
    if span <= timedelta(0):
        return ()
    k = -((-span) // spec.period)  # ceil division for timedeltas
    return tuple(spec.window(i) for i in range(k))


@dataclass(frozen=True)
class StructureReport:
    """Per-window measurement: counts, the degree sample every family was
    fitted to, and the classification with every family's fit (or its
    skip reason). ``window`` is None for the whole stream."""

    window: TimeWindow | None
    n_vertices: int
    n_edges: int
    sample: DegreeSample
    mean_degree: float
    classification: StructureClass | None
    skipped: tuple[tuple[str, str], ...] = ()

    def to_json_dict(self) -> dict:
        if self.window is None:
            window = None
        else:
            window = {"start": format_timestamp(self.window.start),
                      "end": format_timestamp(self.window.end)}
        if self.classification is None:
            classification = None
        else:
            classification = {
                "chosen": self.classification.chosen,
                "rule": self.classification.rule,
                "fits": [fit.to_json_dict()
                         for fit in self.classification.all_fits],
            }
        return {
            "window": window,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "fitting_n": self.sample.n,
            "mean_degree": self.mean_degree,
            "classification": classification,
            "skipped": {family: reason for family, reason in self.skipped},
        }


def report_for_graph(graph: ContactGraph | GraphCounts,
                     window: TimeWindow | None, families: Sequence[str],
                     rule: str, include_isolated: bool) -> StructureReport:
    """Measure and classify one graph snapshot from its degree sample,
    which the report keeps. Shared by the batch pipeline and the engine
    so the two can never diverge."""
    sample = degree_sample(graph, include_isolated)
    fits = []
    skipped = []
    for family in families:
        try:
            fits.append(fit_family(family, sample))
        except FitError as exc:
            skipped.append((family, str(exc)))
    classification = select_structure(fits, rule) if fits else None
    n_vertices = graph.n_vertices
    mean_degree = (2.0 * graph.n_edges / n_vertices) if n_vertices else 0.0
    return StructureReport(window, n_vertices, graph.n_edges, sample,
                           mean_degree, classification, tuple(skipped))


def batch_report(stream, window: TimeWindow | None = None,
                 families: Iterable[str] = FAMILIES, rule: str = "min-se",
                 include_isolated: bool = False) -> StructureReport:
    """The offline pipeline: validate the whole stream, build the
    window's graph, fit every family, select. Nothing in the CLI runs
    it; it is the independent reference that the engine's reports, for
    every window and for the whole stream, are tested against."""
    fams = canonical_families(families)
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}")
    return report_for_graph(build_graph(stream, window), window, fams, rule,
                            include_isolated)


class _GraphBuilder:
    """Incremental vertex/edge state for one window's graph.

    Children that arrive before their source wait in ``pending`` with
    their timestamps and are linked when (if) the source shows up no
    later than they do, which matches the batch rules that an edge
    exists only when both endpoints are in the window and that a source
    reported after its case is no link.
    ``degree`` holds each vertex's degree and ``histogram`` the number
    of vertices per degree; a new vertex adds to the degree-0 bucket and
    a new edge moves its two endpoints up one bucket each.
    """

    __slots__ = ("degree", "histogram", "n_edges", "pending")

    def __init__(self):
        self.degree: dict[str, int] = {}
        self.histogram: dict[int, int] = {}
        self.n_edges = 0
        self.pending: dict[str, list[tuple[str, datetime]]] = {}

    def add(self, record: CaseRecord) -> None:
        case = record.case_id
        self.degree[case] = 0
        self.histogram[0] = self.histogram.get(0, 0) + 1
        src = record.source_id
        if src is not None:
            if src in self.degree:
                self._link(src, case)
            else:
                self.pending.setdefault(src, []).append((case, record.timestamp))
        for child, ts in self.pending.pop(case, ()):
            # a mutual-source pair is one edge, made above (ids are unique)
            if child != src and record.timestamp <= ts:
                self._link(case, child)

    def _link(self, source: str, case: str) -> None:
        self.n_edges += 1
        histogram = self.histogram
        for vertex in (source, case):
            d = self.degree[vertex]
            self.degree[vertex] = d + 1
            if histogram[d] == 1:
                del histogram[d]
            else:
                histogram[d] -= 1
            histogram[d + 1] = histogram.get(d + 1, 0) + 1

    def graph(self) -> GraphCounts:
        # the histogram is copied: the builder keeps mutating after emission
        return GraphCounts(len(self.degree), self.n_edges, dict(self.histogram))


class RecognitionEngine:
    """Single-consumer streaming state.

    ingest() returns the reports whose windows the new watermark closed;
    flush() ends the stream and closes the rest of the schedule, empty
    windows included. With ``spec=None`` every record goes into one
    graph, and flush() returns its one report, even for an empty stream.
    Between records it holds ``_seen_ids`` (the id map), ``_orphans``
    (records waiting for their source) and ``_graph``: the open window's
    graph, or in cumulative and whole-stream mode every record's so far.
    Fitting is recomputed per window (tail scans do not incrementalize).
    """

    def __init__(self, spec: WindowSpec | None,
                 families: Iterable[str] = FAMILIES, rule: str = "min-se",
                 include_isolated: bool = False, on_bad_link: str = "warn"):
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
        if on_bad_link not in BAD_LINK_POLICIES:
            raise ValueError(f"on_bad_link must be 'warn' or 'reject', "
                             f"got {on_bad_link!r}")
        self.spec = spec
        self.families = canonical_families(families)
        self.rule = rule
        self.include_isolated = include_isolated
        self.on_bad_link = on_bad_link
        self.diagnostics: list[Diagnostic] = []
        self._seen_ids: dict[str, datetime] = {}  # case_id -> timestamp
        self._orphans: dict[str, list[CaseRecord]] = {}  # by missing source
        self._watermark: datetime | None = None
        self._next = 0  # next window index to emit
        # the last window index whose end is still a representable instant
        self._last_index = (None if spec is None else
                            (_LAST_INSTANT - spec.origin) // spec.period - 1)
        self._ended = False
        self._graph = _GraphBuilder()

    @property
    def watermark(self) -> datetime | None:
        return self._watermark

    def ingest(self, record: CaseRecord) -> list[StructureReport]:
        """Absorb one record; return any newly closed windows' reports."""
        if self._ended:
            raise ValidationError("stream already flushed")
        case, src, ts = record.case_id, record.source_id, record.timestamp
        if case in self._seen_ids:
            raise ValidationError(f"duplicate case_id {case!r}")
        if src is not None:
            if src not in self._seen_ids:
                self._orphans.setdefault(src, []).append(record)
            elif self._seen_ids[src] > ts:
                self.diagnostics.append(
                    bad_link("source-after-case", record, self.on_bad_link))
                record = replace(record, source_id=None)
        for child in self._orphans.pop(case, ()):
            if child.timestamp < ts:
                self.diagnostics.append(
                    bad_link("source-after-case", child, self.on_bad_link))
        self._seen_ids[case] = ts
        index = None
        if self.spec is not None and ts >= self.spec.origin:
            index = (ts - self.spec.origin) // self.spec.period
            if index > self._last_index:
                problem = (f"the window of case {case!r} would end after "
                           f"{format_timestamp(_LAST_INSTANT)}")
                if self.on_bad_link == "reject":
                    raise ValidationError(problem)
                self.diagnostics.append(Diagnostic(
                    kind="beyond-range", case_id=case,
                    message=problem + "; dropped"))
                return []
        if self._watermark is None or ts > self._watermark:
            self._watermark = ts

        if self.spec is None:
            self._graph.add(record)
            return []
        closed = self._close(
            (self._watermark - self.spec.origin) // self.spec.period)
        if index is None:
            self.diagnostics.append(Diagnostic(
                kind="before-origin", case_id=case,
                message=f"case {case!r} predates the window origin; dropped"))
        elif index < self._next:  # its window is closed
            absorb = self.spec.mode == "cumulative"
            outcome = "absorbed into the next one" if absorb else "rejected"
            self.diagnostics.append(Diagnostic(
                kind="late-record", case_id=case,
                message=f"case {case!r} arrived after its window closed; "
                        f"{outcome}"))
            if absorb:
                self._graph.add(record)
        else:  # the open window; the windows before it closed above
            self._graph.add(record)
        return closed

    def _close(self, stop: int) -> list[StructureReport]:
        """Report every window from the open one up to index ``stop``
        (exclusive), in order."""
        closed = []
        while self._next < stop:
            closed.append(report_for_graph(
                self._graph.graph(), self.spec.window(self._next),
                self.families, self.rule, self.include_isolated))
            if self.spec.mode == "tumbling":
                self._graph = _GraphBuilder()
            self._next += 1
        return closed

    def flush(self) -> list[StructureReport]:
        """End of stream: report every case still waiting for its source
        as ``dangling-source``, then emit every scheduled window up to
        the one containing the watermark, empty windows included, or
        with no schedule the whole stream's report."""
        if self._ended:
            return []
        self._ended = True
        for children in self._orphans.values():
            for child in children:
                self.diagnostics.append(
                    bad_link("dangling-source", child, self.on_bad_link))
        if self.spec is None:
            return [report_for_graph(self._graph.graph(), None, self.families,
                                     self.rule, self.include_isolated)]
        if self._watermark is None:
            return []
        return self._close(
            (self._watermark - self.spec.origin) // self.spec.period + 1)


def run(stream: Iterable[CaseRecord], spec: WindowSpec,
        families: Iterable[str] = FAMILIES, rule: str = "min-se",
        include_isolated: bool = False) -> Iterator[StructureReport]:
    """Drive a record iterable through the engine, yielding each report
    as its window closes. Deterministic for a given input and spec."""
    engine = RecognitionEngine(spec, families, rule, include_isolated)
    for record in stream:
        yield from engine.ingest(record)
    yield from engine.flush()


def classify_trend(reports: Sequence[StructureReport]) -> dict:
    """Run-length summary of the chosen family across windows: each
    stretch of identical classification, and every change point."""
    reports = tuple(reports)
    if not reports:
        raise ValueError("classify_trend needs at least one report")

    def family_of(report: StructureReport) -> str | None:
        return None if report.classification is None else report.classification.chosen

    runs = []
    transitions = []
    start = 0
    current = family_of(reports[0])
    for i in range(1, len(reports) + 1):
        family = family_of(reports[i]) if i < len(reports) else object()
        if i < len(reports) and family == current:
            continue
        window_start = reports[start].window
        window_end = reports[i - 1].window
        runs.append({
            "family": current,
            "start": start,
            "end": i - 1,
            "length": i - start,
            "from": None if window_start is None
            else format_timestamp(window_start.start),
            "to": None if window_end is None
            else format_timestamp(window_end.end),
        })
        if i < len(reports):
            transitions.append({"index": i, "from": current, "to": family})
            start = i
            current = family
    return {"windows": len(reports), "runs": runs, "transitions": transitions}
