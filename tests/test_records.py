"""Record parsing, timestamp handling, and stream validation."""

import csv
import io
import json
import math
from datetime import datetime, timedelta, timezone
from unittest import mock
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from outbreaklens import records
from outbreaklens.records import (
    CSV_HEADER,
    FORMATS,
    CaseRecord,
    Diagnostic,
    GeoPoint,
    ParseError,
    ValidatedStream,
    ValidationError,
    format_timestamp,
    normalize_timestamp,
    parse_record,
    parse_timestamp,
    read_stream,
    serialize_record,
    validate_stream,
    write_stream,
)

UTC = timezone.utc


def rec(case_id, source_id, ts, lon=0.0, lat=0.0):
    return CaseRecord(case_id, source_id, ts, GeoPoint(lon, lat))


T0 = datetime(2014, 3, 1, tzinfo=UTC)


# --- timestamps ---------------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("2014-03-01T12:30:05Z", datetime(2014, 3, 1, 12, 30, 5, tzinfo=UTC)),
    ("2014-03-01T12:30:05z", datetime(2014, 3, 1, 12, 30, 5, tzinfo=UTC)),
    ("2014-03-01T12:30:05+00:00", datetime(2014, 3, 1, 12, 30, 5, tzinfo=UTC)),
    ("2014-03-01T14:30:05+02:00", datetime(2014, 3, 1, 12, 30, 5, tzinfo=UTC)),
    ("2014-03-01T12:30:05", datetime(2014, 3, 1, 12, 30, 5, tzinfo=UTC)),
    ("2014-03-01", datetime(2014, 3, 1, tzinfo=UTC)),
    ("2014-03-01T12:30:05.987654Z", datetime(2014, 3, 1, 12, 30, 5, tzinfo=UTC)),
])
def test_parse_timestamp_forms(text, expected):
    assert parse_timestamp(text) == expected


@pytest.mark.parametrize("text", ["", "   ", "yesterday", "2014-13-01", "12:30",
                                  "0001-01-01T00:30:00+01:00",
                                  "9999-12-31T23:59:59-01:00"])
def test_parse_timestamp_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_timestamp(text)


def test_format_timestamp_round_trip():
    ts = datetime(2015, 7, 9, 23, 59, 58, tzinfo=UTC)
    assert parse_timestamp(format_timestamp(ts)) == ts
    assert format_timestamp(ts) == "2015-07-09T23:59:58Z"


try:
    _NEW_YORK = ZoneInfo("America/New_York")
except ZoneInfoNotFoundError:  # no time-zone database on this host
    _NEW_YORK = None
_zones = st.sampled_from([UTC] + ([_NEW_YORK] if _NEW_YORK else [])) | \
    st.integers(-1439, 1439).map(lambda m: timezone(timedelta(minutes=m)))
_naive = st.datetimes(min_value=datetime(2, 1, 1),
                      max_value=datetime(9998, 12, 31))


@st.composite
def _one_instant_in_zones(draw):
    """A naive datetime, read as UTC, and the same instant in other zones,
    all with the same sub-second part."""
    naive = draw(_naive)
    instant = naive.replace(tzinfo=UTC)
    return [naive] + [instant.astimezone(zone)
                      for zone in draw(st.lists(_zones, max_size=3))]


_timestamps_in_any_order = st.lists(
    _one_instant_in_zones() | st.builds(
        lambda naive, zone, fold: [naive.replace(tzinfo=zone, fold=fold)],
        _naive, _zones, st.sampled_from([0, 1])),
    min_size=1, max_size=6,
).flatmap(lambda groups: st.permutations([v for g in groups for v in g]))


@settings(max_examples=200)
@given(values=_timestamps_in_any_order)
@example(values=[datetime(2021, 11, 7, 1, 30, tzinfo=_NEW_YORK),
                 datetime(2021, 11, 7, 1, 30, fold=1, tzinfo=_NEW_YORK)])
def test_cached_format_timestamp_equals_strftime(values):
    # instants that compare equal share a cache entry; two New York
    # times that differ only in fold compare equal but are an hour apart
    for value in values:
        assert format_timestamp(value) == \
            normalize_timestamp(value).strftime("%Y-%m-%dT%H:%M:%SZ")


# --- coordinates --------------------------------------------------------


@pytest.mark.parametrize("lon,lat", [
    (180.0001, 0.0), (-180.0001, 0.0), (0.0, 90.5), (0.0, -90.5),
    (math.nan, 0.0), (0.0, math.nan),
])
def test_geopoint_rejects_out_of_range(lon, lat):
    with pytest.raises(ValueError):
        GeoPoint(lon, lat)


def test_geopoint_accepts_boundaries():
    GeoPoint(180.0, 90.0)
    GeoPoint(-180.0, -90.0)


# --- single records -----------------------------------------------------


def test_empty_source_becomes_none():
    r = rec("A", "", T0)
    assert r.source_id is None


def test_self_source_rejected():
    with pytest.raises(ValueError):
        rec("A", "A", T0)


def test_empty_case_id_rejected():
    with pytest.raises(ValueError):
        rec("", None, T0)


def test_parse_csv_index_case():
    r = parse_record("C1,,2014-03-01,-10.1333,8.5667", "csv")
    assert r.case_id == "C1"
    assert r.source_id is None
    assert r.timestamp == T0
    assert r.location == GeoPoint(-10.1333, 8.5667)


def test_parse_csv_transmission():
    r = parse_record("C2,C1,2014-03-02T06:00:00Z,1.5,-3.25", "csv")
    assert r.source_id == "C1"
    assert r.timestamp == datetime(2014, 3, 2, 6, tzinfo=UTC)


def test_parse_jsonl():
    line = json.dumps({"case_id": "C9", "source_id": None,
                       "date": "2014-03-05", "longitude": 3.0, "latitude": 4.0})
    r = parse_record(line, "jsonl")
    assert r.case_id == "C9" and r.source_id is None


@pytest.mark.parametrize("line,field", [
    ("C1,,2014-03-01,-10.1", None),              # too few fields
    ("C1,,2014-03-01,-10.1,8.5,extra", None),    # too many
    (",,2014-03-01,0,0", "case_id"),
    ("C1,,when,0,0", "date"),
    ("C1,,2014-03-01,east,0", "longitude"),
    ("C1,,2014-03-01,0,north", "latitude"),
])
def test_parse_csv_bad_fields(line, field):
    with pytest.raises(ParseError) as exc:
        parse_record(line, "csv", line_no=7)
    assert exc.value.line_no == 7
    if field:
        assert exc.value.field == field
    assert "line 7" in str(exc.value)


def test_parse_jsonl_bad_json_and_missing_keys():
    with pytest.raises(ParseError):
        parse_record("{not json", "jsonl")
    with pytest.raises(ParseError) as exc:
        parse_record('{"case_id": "C1"}', "jsonl")
    assert "missing keys" in str(exc.value)
    with pytest.raises(ParseError):
        parse_record('[1, 2]', "jsonl")


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse_record("x", "xml")


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_serialize_parse_round_trip(format):
    r = rec("C,1", 'S"x', datetime(2014, 3, 2, 5, 6, 7, tzinfo=UTC),
            lon=-10.123456789, lat=8.000000001)
    assert parse_record(serialize_record(r, format), format) == r


_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=12)
_instants = st.integers(min_value=0, max_value=4_102_444_800).map(
    lambda s: datetime.fromtimestamp(s, tz=UTC))
_lons = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
_lats = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)


@settings(max_examples=150)
@given(case_id=_ids, source_id=st.none() | _ids, ts=_instants,
       lon=_lons, lat=_lats, format=st.sampled_from(["csv", "jsonl"]))
def test_round_trip_property(case_id, source_id, ts, lon, lat, format):
    if source_id == case_id:
        source_id = None
    r = rec(case_id, source_id, ts, lon, lat)
    assert parse_record(serialize_record(r, format), format) == r


_line_text = st.text(alphabet=st.characters(blacklist_characters="\n"))
# The first draw from _line_text builds Hypothesis's Unicode charmap,
# 1.4-1.7 s when its cache (.hypothesis/) is empty, as in a fresh clone;
# the too_slow health check would fail the test that pays for it.
_FIRST_DRAW_MAY_BE_SLOW = [HealthCheck.too_slow]
_field_values = st.one_of(
    st.none(), st.booleans(), st.floats(), _line_text,
    st.integers(-10**400, 10**400),  # past float range too
    st.sampled_from(["2014-03-01", "0001-01-01T00:30:00+01:00",
                     "9999-12-31T23:59:59Z", "9999-12-31T23:59:59-01:00",
                     "1e999", "nan", "-0"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


_VALID_FIELDS = {"case_id": "C1", "source_id": None, "date": "2014-03-01",
                 "longitude": 0, "latitude": 0}


@st.composite
def _any_line(draw, format):
    """Arbitrary text, or a valid record's fields with any of them
    dropped or replaced by arbitrary values, plus a stray key."""
    if draw(st.booleans()):
        return draw(_line_text)
    fields = dict(_VALID_FIELDS)
    for key in draw(st.sets(st.sampled_from(CSV_HEADER + ("extra",)))):
        value = draw(st.just(...) | _field_values)
        if value is ...:
            fields.pop(key, None)
        else:
            fields[key] = value
    if format == "jsonl":
        return json.dumps(fields)
    return ",".join("" if v is None else str(v) for v in fields.values())


@settings(max_examples=400, suppress_health_check=_FIRST_DRAW_MAY_BE_SLOW)
@given(st.data(), st.sampled_from(FORMATS))
def test_any_line_parses_to_a_record_or_a_parse_error(data, format):
    line = data.draw(_any_line(format))
    try:
        assert isinstance(parse_record(line, format), CaseRecord)
    except ParseError:
        pass


@settings(max_examples=150, suppress_health_check=_FIRST_DRAW_MAY_BE_SLOW)
@given(st.data(), st.sampled_from(FORMATS), st.booleans())
def test_read_stream_yields_a_record_or_a_diagnostic_per_line(data, format,
                                                              header):
    lines = data.draw(st.lists(_any_line(format), max_size=8))
    if header:
        lines.insert(0, ",".join(CSV_HEADER))
    text = "\n".join(lines)
    seen: list[Diagnostic] = []
    records = list(read_stream(io.StringIO(text), format, on_error=seen.append))
    nonblank = []
    for line in lines:
        if not nonblank:  # a byte-order mark may lead the first text
            line = line.rstrip("\r").removeprefix("\ufeff")
        if line.rstrip("\r").strip():
            nonblank.append(line)
    skipped = header and format == "csv"  # the header row is no record
    assert len(records) + len(seen) == len(nonblank) - skipped
    assert all(d.kind == "parse-error" for d in seen)
    try:
        assert list(read_stream(io.StringIO(text), format, strict=True)) == records
    except ParseError:
        assert seen


def _reader_row(line, line_no):
    """The cells of one CSV line as csv.reader alone makes them."""
    try:
        return next(csv.reader([line]))
    except (csv.Error, StopIteration):
        raise ParseError("malformed CSV line", line_no=line_no) from None


def _parsed(line):
    try:
        return parse_record(line, "csv", line_no=3)
    except ParseError as exc:
        return str(exc)


_csv_text = st.text(alphabet=st.sampled_from(',"\r\n \t\x00\\:-.+eZ019AC'))


@settings(max_examples=400, suppress_health_check=_FIRST_DRAW_MAY_BE_SLOW)
@given(st.one_of(_any_line("csv"), _csv_text, _line_text))
@example("C\x00,,2014-03-01,0,0")  # csv.reader rejects NUL before 3.11
def test_split_path_parses_as_the_csv_reader_does(line):
    fast = _parsed(line)
    with mock.patch.object(records, "_csv_row", _reader_row):
        assert _parsed(line) == fast  # the same record or the same message


def test_over_long_cell_is_malformed_on_either_path():
    limit = csv.field_size_limit(20)
    try:
        line = "C" * 21 + ",,2014-03-01,0,0"
        assert _parsed(line) == "line 3: malformed CSV line"
        assert isinstance(_parsed("C" * 10 + ",,2014-03-01,0,0"), CaseRecord)
    finally:
        csv.field_size_limit(limit)


_records = st.tuples(
    _ids | st.text(min_size=1, max_size=6), st.none() | _ids, _instants,
    _lons, _lats).filter(lambda t: t[0] != t[1]).map(lambda t: rec(*t))


@settings(max_examples=100)
@given(st.lists(_records, max_size=6), st.sampled_from(FORMATS))
def test_write_stream_writes_the_header_and_each_serialized_record(recs, format):
    buf = io.StringIO()
    assert write_stream(iter(recs), buf, format) == len(recs)
    header = ",".join(CSV_HEADER) + "\n" if format == "csv" else ""
    assert buf.getvalue() == header + "".join(
        serialize_record(r, format) + "\n" for r in recs)


# --- stream validation --------------------------------------------------


def test_validate_sorts_by_timestamp_and_is_stable():
    a = rec("A", None, T0 + timedelta(days=2))
    b = rec("B", None, T0)
    c = rec("C", None, T0 + timedelta(days=2))  # ties keep arrival order
    vs = validate_stream([a, b, c])
    assert [r.case_id for r in vs.records] == ["B", "A", "C"]


def test_validate_duplicate_id_is_hard_error():
    with pytest.raises(ValidationError):
        validate_stream([rec("A", None, T0), rec("A", None, T0)])


def test_validate_dangling_source_warn_drops_link():
    child = rec("B", "GHOST", T0 + timedelta(days=1))
    vs = validate_stream([rec("A", None, T0), child])
    kept = {r.case_id: r for r in vs.records}
    assert kept["B"].source_id is None
    assert len(vs.diagnostics) == 1
    assert vs.diagnostics[0].kind == "dangling-source"
    assert vs.diagnostics[0].case_id == "B"


def test_validate_dangling_source_reject_raises():
    with pytest.raises(ValidationError):
        validate_stream([rec("B", "GHOST", T0)], strict=True)


def test_validate_source_reported_after_case():
    parent = rec("P", None, T0 + timedelta(days=3))
    child = rec("K", "P", T0)
    vs = validate_stream([parent, child])
    kept = {r.case_id: r for r in vs.records}
    assert kept["K"].source_id is None
    assert vs.diagnostics[0].kind == "source-after-case"
    with pytest.raises(ValidationError):
        validate_stream([parent, child], strict=True)


def test_validate_same_timestamp_link_kept():
    # a source reported the same instant as its child is a valid link
    vs = validate_stream([rec("P", None, T0), rec("K", "P", T0)])
    kept = {r.case_id: r for r in vs.records}
    assert kept["K"].source_id == "P"
    assert not vs.diagnostics


def test_validate_is_idempotent():
    vs = validate_stream([rec("A", None, T0)])
    assert validate_stream(vs) is vs


def test_extent():
    assert ValidatedStream(()).extent is None
    vs = validate_stream([rec("A", None, T0 + timedelta(days=5)),
                          rec("B", None, T0)])
    assert vs.extent == (T0, T0 + timedelta(days=5))


@settings(max_examples=50)
@given(st.permutations(list("ABCDEF")))
def test_validate_order_insensitive(order):
    days = {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4, "F": 5}
    base = [rec(x, None, T0 + timedelta(days=days[x])) for x in order]
    vs = validate_stream(base)
    assert [r.case_id for r in vs.records] == list("ABCDEF")


# --- stream reading and writing ------------------------------------------


def test_read_stream_skips_header_and_blank_lines():
    text = ",".join(CSV_HEADER) + "\n\nC1,,2014-03-01,0,0\n   \nC2,C1,2014-03-02,0,0\n"
    records = list(read_stream(io.StringIO(text)))
    assert [r.case_id for r in records] == ["C1", "C2"]


@pytest.mark.parametrize("text,format", [
    ("\n \n" + ",".join(CSV_HEADER) + "\nC1,,2014-03-01,0,0\n", "csv"),
    ("\ufeff" + ",".join(CSV_HEADER) + "\nC1,,2014-03-01,0,0\n", "csv"),
    ("\ufeff\nC1,,2014-03-01,0,0\n", "csv"),
    ("\ufeff" + serialize_record(rec("C1", None, T0), "jsonl") + "\n", "jsonl"),
], ids=["blank-then-header", "csv-bom", "bom-alone", "jsonl-bom"])
def test_read_stream_skips_a_byte_order_mark_and_a_header_after_blanks(
        text, format):
    seen: list[Diagnostic] = []
    records = list(read_stream(io.StringIO(text), format, on_error=seen.append))
    assert seen == []
    assert [r.case_id for r in records] == ["C1"]
    assert list(read_stream(io.StringIO(text), format, strict=True)) == records


def test_read_stream_lenient_reports_and_continues():
    text = "C1,,2014-03-01,0,0\nbroken line\nC2,,2014-03-02,0,0\n"
    seen: list[Diagnostic] = []
    records = list(read_stream(io.StringIO(text), on_error=seen.append))
    assert [r.case_id for r in records] == ["C1", "C2"]
    assert len(seen) == 1
    assert seen[0].kind == "parse-error"
    assert seen[0].line_no == 2


def test_read_stream_strict_raises_with_line_number():
    text = "C1,,2014-03-01,0,0\nbroken line\n"
    with pytest.raises(ParseError) as exc:
        list(read_stream(io.StringIO(text), strict=True))
    assert exc.value.line_no == 2


def test_read_stream_jsonl():
    lines = [serialize_record(rec("C1", None, T0), "jsonl"),
             serialize_record(rec("C2", "C1", T0 + timedelta(days=1)), "jsonl")]
    records = list(read_stream(io.StringIO("\n".join(lines)), "jsonl"))
    assert [r.case_id for r in records] == ["C1", "C2"]


def test_read_stream_from_path(tmp_path):
    p = tmp_path / "cases.csv"
    p.write_text("C1,,2014-03-01,0,0\n", encoding="utf-8")
    assert [r.case_id for r in read_stream(p)] == ["C1"]


def test_write_stream_round_trip():
    records = [rec("C1", None, T0), rec("C2", "C1", T0 + timedelta(days=1))]
    for format in ("csv", "jsonl"):
        buf = io.StringIO()
        assert write_stream(records, buf, format) == 2
        text = buf.getvalue()
        if format == "csv":
            assert text.startswith(",".join(CSV_HEADER) + "\n")
        back = list(read_stream(io.StringIO(text), format))
        assert back == records
