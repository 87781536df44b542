"""Streaming recognition of contact-network structure.

Feeds the record stream through a window schedule, keeps the graph's
degree histogram incrementally, and emits one structure report per
closed window, read from that histogram alone. A record in a later
window than the open one opens its own and closes every window before
it; flushing the stream closes the open window. With no schedule
(``spec=None``) the whole stream is one graph, reported at flush().
Between records the engine holds the id map, the records waiting for
their source, one graph and the open window's bounds.

Ingestion is single-threaded and ordered. Closed windows could be
fitted in parallel (fitting is pure over immutable samples); emission
preserves window order either way.

Every link is decided in ``ingest`` and nowhere else, by the rule
``validate_stream`` applies to a whole stream: a link stands only when
its source is a record reported no later than the case. A source
already seen with a later timestamp gives ``source-after-case``. A case
whose source has not arrived waits; if the source turns up later in
time than the case, the case gets ``source-after-case``, and a case
still waiting at flush() gets ``dangling-source``. The graph is told
only which ids a new vertex links to, and makes an edge to each of them
in the open window. With ``strict=True`` a bad link raises
ValidationError instead.

A record whose window would end after the last representable instant
(9999-12-31T23:59:59Z) is dropped with a ``beyond-range`` diagnostic:
it opens no window, so it closes none, and no window end ever
overflows; under ``strict=True`` it raises ValidationError too.

For timestamp-ordered feeds every emitted report equals the offline
pipeline's over the same window, and the link diagnostics equal
``validate_stream``'s up to order. Out-of-order feeds keep an exact
degree histogram, and a report reads nothing else, so arrival order
does not reach a report; late records follow the window mode's policy:
tumbling windows reject them with a diagnostic (their report is already
out), cumulative windows absorb them into the next prefix. No record is
late to the whole-stream report.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import FAMILIES, RULES, canonical_families
from .fitting import FitError, StructureClass, fit_family, select_structure
from .graph import DegreeSample, TimeWindow, build_graph, degree_sample
from .records import (CaseRecord, Diagnostic, ValidationError, _Frozen,
                      bad_link, format_timestamp, normalize_timestamp)

WINDOW_MODES = ("tumbling", "cumulative")

_FIRST_INSTANT = datetime(1, 1, 1, tzinfo=timezone.utc)
_LAST_INSTANT = datetime(9999, 12, 31, 23, 59, 59, 999999, timezone.utc)


class WindowSpec(_Frozen):
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

    def index(self, instant: datetime) -> int:
        """The index of the window whose slice holds ``instant``; negative
        before the origin."""
        return (instant - self.origin) // self.period

    def slice(self, index: int) -> tuple[datetime, datetime]:
        """The half-open interval of the instants ``index`` maps to."""
        start = self.origin + index * self.period
        return start, start + self.period

    def window(self, index: int) -> TimeWindow:
        if index < 0:
            raise ValueError("window index must be non-negative")
        start, end = self.slice(index)
        return TimeWindow(start if self.mode == "tumbling" else self.origin,
                          end)


def schedule_windows(spec: WindowSpec, extent: TimeWindow) -> tuple[TimeWindow, ...]:
    """The ordered windows a WindowSpec produces over the extent: enough
    periods to cover [origin, extent.end). No command calls it; the
    engine closes windows by index, and tests compare with this."""
    last = spec.index(extent.end - timedelta.resolution)  # < 0: no window
    return tuple(spec.window(i) for i in range(last + 1))


class StructureReport(_Frozen):
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


def report_for_graph(counts: Mapping[int, int], window: TimeWindow | None,
                     families: Sequence[str], rule: str,
                     include_isolated: bool) -> StructureReport:
    """Measure and classify one graph snapshot, its degree histogram
    ``counts`` (isolated vertices included), from its degree sample,
    which the report keeps; each edge adds one to two degrees. Shared by
    the batch pipeline and the engine so the two can never diverge."""
    sample = degree_sample(counts, include_isolated)
    fits = []
    skipped = []
    for family in families:
        try:
            fits.append(fit_family(family, sample))
        except FitError as exc:
            skipped.append((family, str(exc)))
    classification = select_structure(fits, rule) if fits else None
    n_vertices = sum(counts.values())
    n_edges = sum(d * count for d, count in counts.items()) // 2
    mean_degree = (2.0 * n_edges / n_vertices) if n_vertices else 0.0
    return StructureReport(window, n_vertices, n_edges, sample, mean_degree,
                           classification, tuple(skipped))


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
    return report_for_graph(build_graph(stream, window).degree_counts(),
                            window, fams, rule, include_isolated)


class _GraphBuilder:
    """Incremental degree state for one window's graph: a counter,
    which decides no link. ``add`` is given the ids a new vertex links
    to and makes an edge to each of them already in this graph, which
    matches the batch rule that an edge exists only when both endpoints
    are in the window.
    ``degree`` holds each vertex's degree and ``histogram`` the number
    of vertices per degree; a new vertex enters the bucket of its degree
    (its number of edges) and each vertex it links to moves up one.
    """

    __slots__ = ("degree", "histogram")

    def __init__(self):
        self.degree: dict[str, int] = {}
        self.histogram: dict[int, int] = {}

    def add(self, case: str, links: Sequence[str]) -> None:
        degree, histogram = self.degree, self.histogram
        edges = 0
        for other in links:
            d = degree.get(other)
            if d is None:  # not in this graph
                continue
            edges += 1
            degree[other] = d + 1
            if histogram[d] == 1:
                del histogram[d]
            else:
                histogram[d] -= 1
            histogram[d + 1] = histogram.get(d + 1, 0) + 1
        degree[case] = edges
        histogram[edges] = histogram.get(edges, 0) + 1

    def graph(self) -> dict[int, int]:
        # the histogram is copied: the builder keeps mutating after emission
        return dict(self.histogram)


class RecognitionEngine:
    """Single-consumer streaming state.

    ingest() returns the reports of the windows a record closed, every
    one before its own; flush() ends the stream and closes the open
    window; both return reports built as they are read, from
    the histogram taken when the windows closed. With ``spec=None``
    every record goes into one graph, and flush() returns its one
    report, even for an empty stream.
    Between records it holds ``_seen_ids`` (the id map), ``_orphans``
    (records waiting for their source), ``_graph`` (the open window's
    graph, or in cumulative and whole-stream mode every record's so far)
    and the open window's slice, ``_open_start`` to ``_open_end``: with
    no schedule every instant a record can carry, otherwise empty until
    a record opens its window.
    ingest() alone decides which links stand; with ``strict`` a bad link
    or a record beyond range raises ValidationError, not a diagnostic.
    Each diagnostic goes to ``on_error`` as soon as it is found, and
    none is kept; with no ``on_error`` it is dropped.
    """

    def __init__(self, spec: WindowSpec | None,
                 families: Iterable[str] = FAMILIES, rule: str = "min-se",
                 include_isolated: bool = False, strict: bool = False,
                 on_error: Callable[[Diagnostic], None] | None = None):
        if rule not in RULES:
            raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")
        self.spec = spec
        self.families = canonical_families(families)
        self.rule = rule
        self.include_isolated = include_isolated
        self.strict = strict
        self._warn = (lambda d: None) if on_error is None else on_error
        self._seen_ids: dict[str, datetime] = {}  # case_id -> timestamp
        self._orphans: dict[str, list[CaseRecord]] = {}  # by missing source
        self._next = 0  # next window index to emit
        self._open_start = _FIRST_INSTANT if spec is None else _LAST_INSTANT
        self._open_end = _LAST_INSTANT
        self._ended = False
        self._graph = _GraphBuilder()

    def ingest(self, record: CaseRecord) -> Iterable[StructureReport]:
        """Absorb one record; return an iterable of the reports of the
        windows it closed."""
        if self._ended:
            raise ValidationError("stream already flushed")
        case, src, ts = record.case_id, record.source_id, record.timestamp
        seen, orphans = self._seen_ids, self._orphans
        if case in seen:
            raise ValidationError(f"duplicate case_id {case!r}")
        links = []  # the ids whose link to this case stands
        if src is not None:
            if src not in seen:
                orphans.setdefault(src, []).append(record)
            elif seen[src] > ts:
                self._warn(bad_link("source-after-case", record, self.strict))
            else:
                links.append(src)
        if case in orphans:
            for child in orphans.pop(case):
                if child.timestamp < ts:
                    self._warn(bad_link("source-after-case", child, self.strict))
                elif child.case_id not in links:  # a mutual pair is one edge
                    links.append(child.case_id)
        seen[case] = ts
        if self._open_start <= ts < self._open_end:  # no window closes
            self._graph.add(case, links)
            return []
        return self._place(case, ts, links)

    def _place(self, case: str, ts: datetime,
               links: list[str]) -> Iterable[StructureReport]:
        """ingest() of a record outside the open window: it is dropped
        before the origin, late, or opens its window, which closes every
        window before that one; a window that would end beyond range
        does not open, and the record is dropped."""
        index = self.spec.index(ts)
        if index < 0:
            self._warn(Diagnostic(
                kind="before-origin", case_id=case,
                message=f"case {case!r} predates the window origin; dropped"))
            return []
        if index < self._next:  # its window is closed
            absorb = self.spec.mode == "cumulative"
            outcome = "absorbed into the next one" if absorb else "rejected"
            self._warn(Diagnostic(
                kind="late-record", case_id=case,
                message=f"case {case!r} arrived after its window closed; "
                        f"{outcome}"))
            if absorb:
                self._graph.add(case, links)
            return []
        try:
            self._open_start, self._open_end = self.spec.slice(index)
        except OverflowError:
            problem = (f"the window of case {case!r} would end after "
                       f"{format_timestamp(_LAST_INSTANT)}")
            if self.strict:
                raise ValidationError(problem) from None
            self._warn(Diagnostic(
                kind="beyond-range", case_id=case,
                message=problem + "; dropped"))
            return []
        closed = self._close(index) if index > self._next else []
        self._graph.add(case, links)
        return closed

    def _close(self, stop: int) -> Iterator[StructureReport]:
        """Close every window from index ``_next`` up to ``stop``
        (exclusive); return their reports in order, built as they are
        read. No record lands in a window after the open one, so in
        tumbling mode each of those is empty."""
        first, counts = self._next, self._graph.graph()
        if self.spec.mode == "tumbling":
            self._graph = _GraphBuilder()
        self._next = stop
        return (report_for_graph(
            {} if index > first and self.spec.mode == "tumbling" else counts,
            self.spec.window(index), self.families, self.rule,
            self.include_isolated) for index in range(first, stop))

    def flush(self) -> Iterable[StructureReport]:
        """End of stream: report every case still waiting for its source
        as ``dangling-source``; return an iterable of the open window's
        report, if a window is open, or with no schedule the whole
        stream's report."""
        if self._ended:
            return []
        self._ended = True
        for children in self._orphans.values():
            for child in children:
                self._warn(bad_link("dangling-source", child, self.strict))
        if self.spec is None:
            return [report_for_graph(self._graph.graph(), None, self.families,
                                     self.rule, self.include_isolated)]
        if self._open_start == self._open_end:  # no record opened a window
            return []
        return self._close(self._next + 1)


def run(stream: Iterable[CaseRecord], spec: WindowSpec | None,
        families: Iterable[str] = FAMILIES, rule: str = "min-se",
        include_isolated: bool = False, strict: bool = False,
        on_error: Callable[[Diagnostic], None] | None = None,
        ) -> Iterator[StructureReport]:
    """Drive a record iterable through the engine, yielding each report
    as its window closes (with no schedule, the whole stream's report at
    its end), and each diagnostic to ``on_error`` as the engine finds it.
    Deterministic for a given input and spec."""
    engine = RecognitionEngine(spec, families, rule, include_isolated, strict,
                               on_error)
    for record in stream:
        reports = engine.ingest(record)
        if reports:  # most records close no window
            yield from reports
    yield from engine.flush()


def classify_trend(reports: Iterable[StructureReport]) -> dict:
    """Run-length summary of the chosen family across windows: each
    stretch of identical classification, and every change point. One
    pass over ``reports`` that keeps no report, only the runs; the open
    run is the last one. A run of whole-stream reports (no window) has
    null ``from`` and ``to``."""
    runs: list[dict] = []
    transitions: list[dict] = []
    for i, report in enumerate(reports):
        family = (None if report.classification is None
                  else report.classification.chosen)
        window = report.window
        if not runs or family != runs[-1]["family"]:
            if runs:
                transitions.append({"index": i, "from": runs[-1]["family"],
                                    "to": family})
            runs.append({"family": family, "start": i,
                         "from": window and format_timestamp(window.start)})
        runs[-1].update(end=i, length=i - runs[-1]["start"] + 1,
                        to=window and format_timestamp(window.end))
    return {"windows": runs[-1]["end"] + 1 if runs else 0, "runs": runs,
            "transitions": transitions}
