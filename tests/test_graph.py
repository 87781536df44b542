"""Contact-graph construction, windowing, and degrees."""

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outbreaklens.graph import (
    ContactGraph,
    TimeWindow,
    build_graph,
    degree_sample,
)
from outbreaklens.records import CaseRecord, GeoPoint, validate_stream

UTC = timezone.utc
T0 = datetime(2014, 3, 1, tzinfo=UTC)


def rec(case_id, source_id, day, lon=0.0, lat=0.0):
    return CaseRecord(case_id, source_id, T0 + timedelta(days=day),
                      GeoPoint(lon, lat))


CHAIN = [rec("A", None, 0), rec("B", "A", 1), rec("C", "B", 2),
         rec("D", "B", 3), rec("E", None, 4)]


# --- TimeWindow ----------------------------------------------------------


def test_window_is_half_open():
    w = TimeWindow(T0, T0 + timedelta(days=1))
    assert w.contains(T0)
    assert w.contains(T0 + timedelta(hours=23, minutes=59, seconds=59))
    assert not w.contains(T0 + timedelta(days=1))
    assert not w.contains(T0 - timedelta(seconds=1))


def test_window_rejects_empty_or_reversed():
    with pytest.raises(ValueError):
        TimeWindow(T0, T0)
    with pytest.raises(ValueError):
        TimeWindow(T0 + timedelta(days=1), T0)


# --- graph construction --------------------------------------------------


def test_whole_stream_graph():
    g = build_graph(CHAIN)
    assert g.n_vertices == 5
    assert g.n_edges == 3
    assert g.degrees() == {"A": 1, "B": 3, "C": 1, "D": 1, "E": 0}
    assert g.n_components() == 2


def test_edge_needs_both_endpoints_in_window():
    # B is inside, its source A is not: B stays a vertex, the edge drops
    w = TimeWindow(T0 + timedelta(days=1), T0 + timedelta(days=3))
    g = build_graph(CHAIN, w)
    assert set(g.vertices) == {"B", "C"}
    assert set(g.edges) == {("B", "C")}
    assert g.degrees() == {"B": 1, "C": 1}


def test_empty_window_graph():
    w = TimeWindow(T0 + timedelta(days=40), T0 + timedelta(days=41))
    g = build_graph(CHAIN, w)
    assert g.n_vertices == 0 and g.n_edges == 0


def test_vertices_keep_stream_order():
    g = build_graph([rec("Z", None, 1), rec("A", None, 0)])
    assert list(g.vertices) == ["A", "Z"]  # sorted by time, not by id


def test_graph_invariants_enforced():
    v = {"A": rec("A", None, 0), "B": rec("B", None, 1)}
    with pytest.raises(ValueError):
        ContactGraph(v, {("A", "A")})
    with pytest.raises(ValueError):
        ContactGraph(v, {("A", "X")})


# --- degree samples ------------------------------------------------------


def test_degree_sample_drops_isolated_by_default():
    g = build_graph(CHAIN)
    s = degree_sample(g.degree_counts())
    assert s.counts == {1: 3, 3: 1}
    assert s.n == 4


def test_degree_sample_can_keep_isolated():
    g = build_graph(CHAIN)
    s = degree_sample(g.degree_counts(), include_isolated=True)
    assert s.counts == {0: 1, 1: 3, 3: 1}


@settings(max_examples=80)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=60))
def test_degree_sum_is_twice_edge_count(parents):
    # random forest: each record links to some earlier record or none
    records = [rec("N0", None, 0)]
    for i, p in enumerate(parents, start=1):
        src = f"N{p % i}" if p % 3 else None
        records.append(rec(f"N{i}", src, i))
    g = build_graph(records)
    degs = g.degrees()
    assert sum(degs.values()) == 2 * g.n_edges
    assert g.n_components() == g.n_vertices - g.n_edges  # forest, no cycles


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 9), st.none() | st.integers(0, 12)),
                max_size=40),
       st.integers(0, 9), st.integers(1, 10))
def test_degree_histogram_fixes_vertex_and_edge_counts(rows, start, length):
    # a structure report reads only the histogram: its counts sum to the
    # vertices, and its degree sum is twice the edges, for any stream
    # (late, dangling and mutual sources included) and any window
    records = [rec(f"N{i}", None if src in (None, i) else f"N{src}", day)
               for i, (day, src) in enumerate(rows)]
    window = TimeWindow(T0 + timedelta(days=start),
                        T0 + timedelta(days=start + length))
    for g in (build_graph(records), build_graph(records, window)):
        counts = g.degree_counts()
        assert sum(counts.values()) == g.n_vertices
        assert sum(d * c for d, c in counts.items()) == 2 * len(g.edges)


# --- validated input -----------------------------------------------------


def test_exports_accept_validated_stream():
    vs = validate_stream(CHAIN)
    assert build_graph(vs).n_vertices == 5
