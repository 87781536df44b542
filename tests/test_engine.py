"""Windowed streaming engine against the batch pipeline."""

import gc
import weakref
from collections import Counter
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outbreaklens import FAMILIES
from outbreaklens import engine as engine_module
from outbreaklens import fitting
from outbreaklens.engine import (
    RecognitionEngine,
    StructureReport,
    WindowSpec,
    batch_report,
    classify_trend,
    run,
    schedule_windows,
)
from outbreaklens.graph import DegreeSample, TimeWindow, build_graph
from outbreaklens.records import (CaseRecord, GeoPoint, ValidationError,
                                  format_timestamp, validate_stream)

UTC = timezone.utc
T0 = datetime(2014, 3, 1, tzinfo=UTC)
DAY = timedelta(days=1)


def rec(case_id, source_id, minutes, lon=0.0, lat=0.0):
    return CaseRecord(case_id, source_id, T0 + timedelta(minutes=minutes),
                      GeoPoint(lon, lat))


# --- window specs and schedules -------------------------------------------


def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec("sliding", DAY, T0)
    with pytest.raises(ValueError):
        WindowSpec("tumbling", timedelta(0), T0)
    with pytest.raises(ValueError):
        WindowSpec("tumbling", -DAY, T0)


def test_tumbling_windows_are_disjoint_and_contiguous():
    spec = WindowSpec("tumbling", timedelta(hours=6), T0)
    w0, w1 = spec.window(0), spec.window(1)
    assert w0 == TimeWindow(T0, T0 + timedelta(hours=6))
    assert w1 == TimeWindow(T0 + timedelta(hours=6), T0 + timedelta(hours=12))
    assert w0.end == w1.start
    with pytest.raises(ValueError):
        spec.window(-1)


def test_cumulative_windows_share_origin():
    spec = WindowSpec("cumulative", timedelta(hours=6), T0)
    assert spec.window(0) == TimeWindow(T0, T0 + timedelta(hours=6))
    assert spec.window(3) == TimeWindow(T0, T0 + timedelta(hours=24))


def test_quarter_hour_schedule_covers_a_day_in_96_windows():
    spec = WindowSpec("tumbling", timedelta(minutes=15), T0)
    windows = schedule_windows(spec, TimeWindow(T0, T0 + DAY))
    assert len(windows) == 96
    assert windows[0].start == T0
    assert windows[-1].end == T0 + DAY


def test_schedule_single_window_when_period_equals_extent():
    spec = WindowSpec("tumbling", DAY, T0)
    assert schedule_windows(spec, TimeWindow(T0, T0 + DAY)) == (
        TimeWindow(T0, T0 + DAY),)


def test_schedule_rounds_up_partial_windows():
    spec = WindowSpec("tumbling", DAY, T0)
    windows = schedule_windows(spec, TimeWindow(T0, T0 + DAY + timedelta(hours=1)))
    assert len(windows) == 2


def test_schedule_empty_before_origin():
    spec = WindowSpec("tumbling", DAY, T0 + 5 * DAY)
    assert schedule_windows(spec, TimeWindow(T0, T0 + DAY)) == ()


# --- engine semantics -------------------------------------------------------


def test_reports_emitted_once_watermark_passes_window_end():
    engine = RecognitionEngine(WindowSpec("tumbling", DAY, T0))
    assert engine.ingest(rec("A", None, 10)) == []      # window 0 still open
    out = list(engine.ingest(rec("B", "A", 24 * 60)))    # watermark hits day 1
    assert [r.window for r in out] == [TimeWindow(T0, T0 + DAY)]
    assert out[0].n_vertices == 1 and out[0].n_edges == 0


def test_flush_emits_remaining_and_empty_windows():
    engine = RecognitionEngine(WindowSpec("tumbling", DAY, T0))
    engine.ingest(rec("A", None, 10))
    engine.ingest(rec("B", "A", 3 * 24 * 60 + 5))  # day 3; days 0-2 close
    out = engine.flush()
    assert [r.window.start for r in out] == [T0 + 3 * DAY]
    assert engine.flush() == []  # idempotent
    with pytest.raises(ValidationError):
        engine.ingest(rec("C", None, 999))


@pytest.mark.parametrize("mode", ["tumbling", "cumulative"])
def test_a_record_a_century_on_builds_its_reports_one_at_a_time(mode):
    # 36,524 windows close at once; reading the first builds one report
    engine = RecognitionEngine(WindowSpec(mode, DAY, T0))
    engine.ingest(rec("A", None, 0))
    calls = []
    report = engine_module.report_for_graph

    def counted(*args):
        calls.append(args[1])
        return report(*args)

    with mock.patch.object(engine_module, "report_for_graph", counted):
        closed = iter(engine.ingest(CaseRecord(
            "B", None, datetime(2114, 3, 1, tzinfo=UTC), GeoPoint(0.0, 0.0))))
        first = next(closed)
    assert calls == [TimeWindow(T0, T0 + DAY)]
    assert first.n_vertices == 1


def test_empty_middle_window_reports_zero_vertices():
    reports = list(run([rec("A", None, 0), rec("B", None, 2 * 24 * 60)],
                       WindowSpec("tumbling", DAY, T0)))
    assert len(reports) == 3
    middle = reports[1]
    assert middle.n_vertices == 0
    assert middle.classification is None
    assert dict(middle.skipped)  # every family says why it could not fit


def test_duplicate_id_rejected_mid_stream():
    engine = RecognitionEngine(WindowSpec("tumbling", DAY, T0))
    engine.ingest(rec("A", None, 0))
    with pytest.raises(ValidationError):
        engine.ingest(rec("A", None, 5))


def test_before_origin_record_dropped_with_diagnostic():
    diags = []
    engine = RecognitionEngine(WindowSpec("tumbling", DAY, T0 + DAY),
                               on_error=diags.append)
    engine.ingest(rec("OLD", None, 0))
    assert [d.kind for d in diags] == ["before-origin"]


@pytest.mark.parametrize("mode", ["tumbling", "cumulative"])
@pytest.mark.parametrize("origin,period", [
    (datetime(9999, 12, 31, 23, 59, 58, tzinfo=UTC), timedelta(seconds=1)),
    (datetime(9999, 12, 30, tzinfo=UTC), DAY),
    (datetime(9999, 11, 1, tzinfo=UTC), timedelta(days=7)),
    (datetime(9999, 12, 31, tzinfo=UTC), timedelta(hours=5)),
])
def test_the_last_window_kept_is_the_last_that_ends(mode, origin, period):
    # a record is kept exactly when its window's end is representable
    spec = WindowSpec(mode, period, origin)
    diags = []
    engine = RecognitionEngine(spec, on_error=diags.append)
    last = spec.index(datetime.max.replace(tzinfo=UTC)) - 1
    spec.window(last)
    with pytest.raises(OverflowError):
        spec.window(last + 1)
    start = origin + last * period
    engine.ingest(CaseRecord("A", None, start, GeoPoint(0.0, 0.0)))
    beyond = start + period
    engine.ingest(CaseRecord("B", None, beyond, GeoPoint(0.0, 0.0)))
    assert [d.kind for d in diags] == ["beyond-range"]
    assert [r.window for r in engine.flush()] == [spec.window(last)]


def test_late_record_rejected_in_tumbling_mode():
    diags = []
    engine = RecognitionEngine(WindowSpec("tumbling", DAY, T0),
                               on_error=diags.append)
    engine.ingest(rec("A", None, 0))
    closed = list(engine.ingest(rec("B", None, 24 * 60 + 1)))  # closes window 0
    assert len(closed) == 1
    engine.ingest(rec("LATE", None, 30))
    assert [d.kind for d in diags] == ["late-record"]
    final = list(engine.flush())
    # the late record is in no report
    seen = {r.window: r.n_vertices for r in closed + final}
    assert seen[TimeWindow(T0, T0 + DAY)] == 1
    assert seen[TimeWindow(T0 + DAY, T0 + 2 * DAY)] == 1


def test_late_record_absorbed_in_cumulative_mode():
    diags = []
    engine = RecognitionEngine(WindowSpec("cumulative", DAY, T0),
                               on_error=diags.append)
    engine.ingest(rec("A", None, 0))
    engine.ingest(rec("B", None, 24 * 60 + 1))
    engine.ingest(rec("LATE", "A", 30))
    assert [d.kind for d in diags] == ["late-record"]
    final = list(engine.flush())
    # growing prefix: the late arrival still lands in the last report
    assert final[-1].n_vertices == 3
    assert final[-1].n_edges == 1


def test_child_arriving_before_source_still_links():
    # same window, reversed arrival, source earlier in time: the edge
    # must appear regardless of arrival order
    reports = list(run([rec("B", "A", 20), rec("A", None, 10)],
                       WindowSpec("tumbling", DAY, T0)))
    assert reports[0].n_edges == 1


@pytest.mark.parametrize("mode", ["tumbling", "cumulative", None])
def test_engine_keeps_no_record_but_those_waiting_for_their_source(mode):
    spec = None if mode is None else WindowSpec(mode, timedelta(days=7), T0)
    engine = RecognitionEngine(spec)
    refs = []
    for i in range(50):  # all in one open window
        if i % 5 == 0:
            source = f"GHOST{i}"  # never arrives
        elif i % 2 == 0:
            source = f"C{i + 1}"  # arrives next, at the same time
        else:
            source = None
        record = rec(f"C{i}", source, 60 * (i // 2))
        refs.append(weakref.ref(record))
        assert engine.ingest(record) == []
        del record
    gc.collect()
    alive = {ref().case_id for ref in refs if ref() is not None}
    waiting = {child.case_id
               for children in engine._orphans.values() for child in children}
    assert alive == waiting == {f"C{i}" for i in range(0, 50, 5)}
    assert [(r.n_vertices, r.n_edges) for r in engine.flush()] == [(50, 20)]


def test_the_engine_keeps_no_diagnostic():
    refs = []
    alive = []

    def feed():
        yield rec("A", None, 0)
        yield rec("B", None, 24 * 60)  # closes the first window
        for i in range(1000):
            yield rec(f"LATE{i}", None, i)
        yield rec("OLD", None, -60)  # before the origin
        gc.collect()  # run's engine is alive and has found every diagnostic
        alive.extend(ref() for ref in refs if ref() is not None)

    reports = run(feed(), WindowSpec("tumbling", DAY, T0),
                  on_error=lambda diag: refs.append(weakref.ref(diag)))
    assert len(list(reports)) == 2
    assert len(refs) == 1001 and alive == []


def _drive(records, spec):
    """The reports and diagnostics of driving the engine by hand."""
    diags = []
    engine = RecognitionEngine(spec, on_error=diags.append)
    reports = []
    for record in records:
        reports.extend(engine.ingest(record))
    reports.extend(engine.flush())
    return reports, diags


@pytest.mark.parametrize("mode", ["tumbling", "cumulative", None])
def test_reversed_mutual_link_keeps_the_edge_that_stands(mode):
    # B names A and arrives first; A names B but is earlier in time, so
    # A's link is dropped and B's stands: the pair is still one edge
    records = [rec("B", "A", 60), rec("A", "B", 10)]
    spec = None if mode is None else WindowSpec(mode, DAY, T0)
    reports, diags = _drive(records, spec)
    assert [(r.n_vertices, r.n_edges) for r in reports] == [(2, 1)]
    assert [(d.kind, d.case_id) for d in diags] == [
        ("source-after-case", "A")]
    window = None if mode is None else spec.window(0)
    assert reports[0] == batch_report(records, window)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_run_hands_on_the_diagnostics_the_engine_finds_in_order(data):
    records = data.draw(st.permutations(_linked_records(data)))
    mode = data.draw(st.sampled_from(["tumbling", "cumulative", None]))
    # an origin after the first records, so some come before it
    spec = (None if mode is None else
            WindowSpec(mode, timedelta(minutes=45), T0 + timedelta(hours=1)))
    reports, diags = _drive(records, spec)
    handed = []
    assert [r.to_json_dict() for r in run(records, spec,
                                          on_error=handed.append)] == [
        r.to_json_dict() for r in reports]
    assert handed == diags


def _diagnostic_multiset(diagnostics):
    return Counter((d.kind, d.case_id, d.message) for d in diagnostics)


def test_dangling_source_reported_at_flush():
    diags = []
    engine = RecognitionEngine(WindowSpec("tumbling", DAY, T0),
                               on_error=diags.append)
    engine.ingest(rec("A", "GHOST", 0))
    assert diags == []  # the source may still arrive
    engine.flush()
    assert diags == list(validate_stream([rec("A", "GHOST", 0)]).diagnostics)


def test_reject_mode_raises_on_bad_links():
    spec = WindowSpec("tumbling", DAY, T0)
    engine = RecognitionEngine(spec, strict=True)
    engine.ingest(rec("C", "B", 60))
    with pytest.raises(ValidationError, match="reported after case 'C'"):
        engine.ingest(rec("B", None, 120))
    engine = RecognitionEngine(spec, strict=True)
    engine.ingest(rec("A", "GHOST", 0))
    with pytest.raises(ValidationError, match="matches no record"):
        engine.flush()


# --- equality with the batch pipeline ---------------------------------------


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_every_emitted_report_equals_batch(data):
    n = data.draw(st.integers(min_value=1, max_value=35))
    minutes = data.draw(st.lists(st.integers(0, 2000), min_size=n, max_size=n))
    parents = data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    mode = data.draw(st.sampled_from(["tumbling", "cumulative"]))
    records = []
    for i, (m, p) in enumerate(zip(minutes, parents)):
        src = f"C{p % i}" if i and p % 3 else None
        records.append(rec(f"C{i}", src, m))
    vs = validate_stream(records)
    spec = WindowSpec(mode, timedelta(minutes=45), T0)
    for report in run(vs.records, spec):
        assert report.to_json_dict() == batch_report(vs, report.window).to_json_dict()


def _check_snapshots(arrivals, spec):
    """Drive the engine and compare every window's snapshot, the degree
    histogram its report is built from, with the batch graph of the
    records it had seen: the degrees, and the sizes the report derives
    from the histogram."""
    snapshots = []
    report = engine_module.report_for_graph

    def capture(counts, window, *rest):
        snapshots.append((counts, window))
        return report(counts, window, *rest)

    diags = []
    engine = RecognitionEngine(spec, on_error=diags.append)
    seen = []
    checked = 0

    def check_new():
        nonlocal checked
        for counts, window in snapshots[checked:]:
            assert window == spec.window(checked)
            graph = build_graph(seen, window)
            assert dict(counts) == dict(Counter(graph.degrees().values()))
            assert sum(counts.values()) == graph.n_vertices
            assert sum(d * c for d, c in counts.items()) == 2 * len(graph.edges)
            checked += 1

    with mock.patch.object(engine_module, "report_for_graph", capture):
        for record in arrivals:
            seen.append(record)
            list(engine.ingest(record))
            check_new()
        list(engine.flush())
        check_new()
    return diags, checked


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_engine_histogram_equals_batch_graph_histogram(data):
    n = data.draw(st.integers(min_value=1, max_value=30))
    minutes = sorted(data.draw(st.lists(st.integers(0, 2000), min_size=n,
                                        max_size=n)))
    parents = data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n))
    records = []
    for i, (m, p) in enumerate(zip(minutes, parents)):
        # sources are earlier (or simultaneous) records, so no link is one
        # the batch validator drops
        src = f"C{p % i}" if i and p % 3 else None
        records.append(rec(f"C{i}", src, m))
    if data.draw(st.booleans()):
        records = data.draw(st.permutations(records))
    mode = data.draw(st.sampled_from(["tumbling", "cumulative"]))
    # an origin up to past the last record: a feed may start with records
    # before it, or hold nothing else
    origin = T0 + timedelta(minutes=data.draw(st.integers(0, minutes[-1] + 45)))
    spec = WindowSpec(mode, timedelta(minutes=45), origin)
    _, windows = _check_snapshots(records, spec)
    # every window up to the last record's is reported; none is when no
    # record reaches the origin
    last = spec.index(T0 + timedelta(minutes=minutes[-1]))
    assert windows == max(last + 1, 0)


@pytest.mark.parametrize("mode", ["tumbling", "cumulative"])
def test_engine_histogram_late_and_mutual_records(mode):
    records = [
        rec("A", "B", 10), rec("B", "A", 10),   # mutual pair, same instant
        rec("P", "Q", 20), rec("Q", "P", 30),   # mutual pair, Q after P
        rec("C", "A", 50),
        rec("D", "C", 24 * 60 + 5),             # closes window 0
        rec("LATE", "A", 40),                   # late: window 0 is out
        rec("E", "LATE", 24 * 60 + 10),
        rec("F", "D", 2 * 24 * 60),
    ]
    diags, windows = _check_snapshots(records, WindowSpec(mode, DAY, T0))
    assert windows == 3
    # P's source Q is reported after P, so that link is dropped
    assert [(d.kind, d.case_id) for d in diags] == [
        ("source-after-case", "P"), ("late-record", "LATE")]


def _linked_records(data):
    """Records C0..Cn-1 in timestamp order (ties arrive in id order).
    Each source is none, any other case (earlier, simultaneous or later
    in time) or a ghost that matches no record."""
    n = data.draw(st.integers(min_value=1, max_value=30))
    minutes = sorted(data.draw(st.lists(st.integers(0, 600), min_size=n,
                                        max_size=n)))
    records = []
    for i, m in enumerate(minutes):
        link = data.draw(st.sampled_from(["none", "case", "ghost"]))
        src = None
        if link == "ghost":
            src = f"G{data.draw(st.integers(0, 2))}"
        elif link == "case" and n > 1:
            j = data.draw(st.integers(0, n - 2))
            src = f"C{j if j < i else j + 1}"
        records.append(rec(f"C{i}", src, m))
    return records


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ordered_stream_equals_validated_stream(data):
    # for a timestamp-ordered feed, applying the link rules on arrival is
    # the same as applying them to the whole stream first: same reports,
    # same link diagnostics
    records = _linked_records(data)
    mode = data.draw(st.sampled_from(["tumbling", "cumulative"]))
    spec = WindowSpec(mode, timedelta(minutes=45), T0)
    validated = validate_stream(records)
    reports, diags = _drive(records, spec)
    expected = list(run(validated.records, spec))
    assert [r.to_json_dict() for r in reports] == [
        r.to_json_dict() for r in expected]
    assert _diagnostic_multiset(diags) == _diagnostic_multiset(
        validated.diagnostics)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shuffled_cumulative_ends_where_analyze_does(data):
    records = data.draw(st.permutations(_linked_records(data)))
    spec = WindowSpec("cumulative", timedelta(minutes=45), T0)
    reports, diags = _drive(records, spec)
    analyzed = list(run(validate_stream(records).records, spec))
    assert [r.window for r in reports] == [r.window for r in analyzed]
    assert reports[-1].to_json_dict() == analyzed[-1].to_json_dict()
    # link diagnostics do not depend on arrival order
    links = [d for d in diags if d.kind != "late-record"]
    assert _diagnostic_multiset(links) == _diagnostic_multiset(
        validate_stream(records).diagnostics)
    # with no schedule the one report is the whole stream's, as analyze
    # --window all writes it, and no record is late
    (whole,), diags = _drive(records, None)
    batch = batch_report(validate_stream(records))
    assert whole.to_json_dict() == batch.to_json_dict()
    assert whole.sample == batch.sample
    assert _diagnostic_multiset(diags) == _diagnostic_multiset(
        validate_stream(records).diagnostics)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shuffled_tumbling_equals_batch_without_late_records(data):
    records = data.draw(st.permutations(_linked_records(data)))
    spec = WindowSpec("tumbling", timedelta(minutes=45), T0)
    reports, diags = _drive(records, spec)
    late = {d.case_id for d in diags if d.kind == "late-record"}
    kept = validate_stream([r for r in records if r.case_id not in late])
    for report in reports:
        assert report.to_json_dict() == batch_report(
            kept, report.window).to_json_dict()


def test_cumulative_sample_sizes_never_shrink(outbreak_stream):
    spec = WindowSpec("cumulative", 7 * DAY, T0)
    sizes = [r.sample.n for r in run(outbreak_stream.records, spec)]
    assert sizes == sorted(sizes)


def test_cumulative_reports_equal_cold_cache_batch(outbreak_stream):
    """Daily prefixes refit with the exponent cache warm from the windows
    before them; each must equal its batch report fitted from an empty
    cache, so a stale cached exponent cannot pass as a fresh one."""
    spec = WindowSpec("cumulative", DAY, outbreak_stream.extent[0])
    fitting._powerlaw_alpha.cache_clear()
    reports = list(run(outbreak_stream.records, spec))
    assert fitting._powerlaw_alpha.cache_info().hits > 0
    assert len(reports) > 10
    for report in reports:
        fitting._powerlaw_alpha.cache_clear()
        assert report.to_json_dict() == batch_report(
            outbreak_stream, report.window).to_json_dict()


def test_run_is_deterministic(outbreak_stream):
    spec = WindowSpec("tumbling", 7 * DAY, T0)
    a = [r.to_json_dict() for r in run(outbreak_stream.records, spec)]
    b = [r.to_json_dict() for r in run(outbreak_stream.records, spec)]
    assert a == b


def test_engine_rejects_bad_setup():
    with pytest.raises(ValueError):
        RecognitionEngine(WindowSpec("tumbling", DAY, T0), families=["weibull"])
    with pytest.raises(ValueError):
        RecognitionEngine(WindowSpec("tumbling", DAY, T0), families=[])
    with pytest.raises(ValueError):
        RecognitionEngine(WindowSpec("tumbling", DAY, T0), rule="bic")
    with pytest.raises(ValueError, match="unknown rule 'bogus'"):
        batch_report([rec("A", None, 0)], rule="bogus")


def test_family_subset_and_order_do_not_matter():
    records = [rec("A", None, 0), rec("B", "A", 10), rec("C", "A", 20)]
    spec = WindowSpec("tumbling", DAY, T0)
    a = list(run(records, spec, families=["power-law", "exponential"]))
    b = list(run(records, spec, families=["exponential", "power-law"]))
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


# --- trend summaries ---------------------------------------------------------


def _report(window, chosen):
    from outbreaklens.fitting import FitResult, StructureClass
    classification = None
    if chosen is not None:
        fit = FitResult(chosen, {"lambda": 1.0}, {"lambda": 0.1},
                        ((0.01,),), -1.0, 5)
        classification = StructureClass(chosen, "min-se", (fit,))
    return StructureReport(window, 5, 4, DegreeSample({1: 2, 2: 3}), 1.6,
                           classification, ())


def test_classify_trend_single_run():
    w = [TimeWindow(T0 + i * DAY, T0 + (i + 1) * DAY) for i in range(3)]
    out = classify_trend([_report(w[i], "exponential") for i in range(3)])
    assert out["windows"] == 3
    assert len(out["runs"]) == 1
    assert out["runs"][0]["family"] == "exponential"
    assert out["runs"][0]["length"] == 3
    assert out["transitions"] == []


def test_classify_trend_transitions():
    w = [TimeWindow(T0 + i * DAY, T0 + (i + 1) * DAY) for i in range(4)]
    chosen = ["exponential", "exponential", "power-law", None]
    out = classify_trend([_report(wi, c) for wi, c in zip(w, chosen)])
    assert [r["family"] for r in out["runs"]] == ["exponential", "power-law", None]
    assert [r["length"] for r in out["runs"]] == [2, 1, 1]
    assert out["transitions"] == [
        {"index": 2, "from": "exponential", "to": "power-law"},
        {"index": 3, "from": "power-law", "to": None},
    ]
    assert out["runs"][0]["from"] == "2014-03-01T00:00:00Z"
    assert out["runs"][0]["to"] == "2014-03-03T00:00:00Z"


def test_classify_trend_of_no_reports_is_empty():
    assert classify_trend(iter([])) == {"windows": 0, "runs": [],
                                        "transitions": []}


def _classify_trend_of_a_list(reports):
    """classify_trend as it was before the one-pass fold: it copies the
    reports into a tuple and scans it with a sentinel past the end."""
    reports = tuple(reports)

    def family_of(report):
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


@settings(max_examples=200, deadline=None)
@given(chosen=st.lists(st.sampled_from(FAMILIES + (None,)), min_size=1,
                       max_size=60),
       windowed=st.booleans())
def test_classify_trend_folds_a_generator_as_the_list_scan_did(chosen,
                                                               windowed):
    def report(i, family):
        window = (TimeWindow(T0 + i * DAY, T0 + (i + 1) * DAY) if windowed
                  else None)
        return _report(window, family)

    def reports():
        return (report(i, family) for i, family in enumerate(chosen))

    assert classify_trend(reports()) == _classify_trend_of_a_list(reports())
