"""Record parsing, timestamp handling, and stream validation."""

import copy
import csv
import dataclasses
import io
import json
import math
import pickle
import weakref
from dataclasses import dataclass
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


# --- record values ------------------------------------------------------


def test_records_compare_and_hash_by_value():
    a, b = GeoPoint(1.5, -2.0), GeoPoint(1.5, -2.0)
    assert a == b and hash(a) == hash(b) and a is not b
    assert {a, b, GeoPoint(-2.0, 1.5)} == {a, GeoPoint(-2.0, 1.5)}
    assert a != (1.5, -2.0) and GeoPoint(0.0, 1.5) != a
    r = rec("A", "S", T0, 1.5, -2.0)
    same = CaseRecord("A", "S", T0, GeoPoint(1.5, -2.0))
    assert r == same and hash(r) == hash(same)
    for other in (rec("B", "S", T0, 1.5, -2.0), rec("A", None, T0, 1.5, -2.0),
                  rec("A", "S", T0 + timedelta(seconds=1), 1.5, -2.0),
                  rec("A", "S", T0, 1.5, 2.0)):
        assert r != other
    assert repr(a) == "GeoPoint(longitude=1.5, latitude=-2.0)"
    assert repr(r) == (f"CaseRecord(case_id='A', source_id='S', "
                       f"timestamp={T0!r}, location={a!r})")


def test_records_are_immutable_and_weakly_referenceable():
    r = rec("A", None, T0)
    for obj, name in ((r, "case_id"), (r, "source_id"), (r, "timestamp"),
                      (r, "location"), (r.location, "longitude"),
                      (r.location, "latitude"), (r, "other")):
        with pytest.raises(AttributeError):
            setattr(obj, name, "x")
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert r == rec("A", None, T0)
    assert weakref.ref(r)() is r
    assert copy.copy(r) == r and pickle.loads(pickle.dumps(r)) == r


def test_records_are_dataclasses_whose_replace_runs_the_checks():
    r = rec("A", "S", T0, 1.5, -2.0)
    assert dataclasses.is_dataclass(r) and dataclasses.is_dataclass(r.location)
    assert [f.name for f in dataclasses.fields(r)] == [
        "case_id", "source_id", "timestamp", "location"]
    assert [f.name for f in dataclasses.fields(r.location)] == [
        "longitude", "latitude"]
    with pytest.raises(ValueError, match="lists itself as source"):
        dataclasses.replace(r, source_id=r.case_id)
    assert dataclasses.replace(r, source_id="").source_id is None
    with pytest.raises(ValueError, match="out of range"):
        dataclasses.replace(r.location, latitude=91.0)
    match r:
        case CaseRecord(case_id, source_id, timestamp, GeoPoint(lon, lat)):
            assert (case_id, source_id, timestamp, lon, lat) == (
                "A", "S", T0, 1.5, -2.0)
        case _:
            pytest.fail("a record must match its class pattern")
    assert hash(r) == hash((r.case_id, r.source_id, r.timestamp, r.location))
    assert hash(r.location) == hash((1.5, -2.0))


def test_record_constructor_checks_and_normalizes():
    with pytest.raises(ValueError, match="case_id must be non-empty"):
        rec("", None, T0)
    with pytest.raises(ValueError, match="lists itself as source"):
        rec("A", "A", T0)
    assert rec("A", "", T0).source_id is None
    for lon, lat in ((180.5, 0.0), (0.0, -90.5), (math.nan, 0.0),
                     (0.0, math.nan)):
        with pytest.raises(ValueError, match="out of range"):
            rec("A", None, T0, lon, lat)
    naive = datetime(2014, 3, 1, 12, 30, 5, 999)
    offset = datetime(2014, 3, 1, 14, 30, 5, tzinfo=timezone(timedelta(hours=2)))
    for ts in (naive, offset):
        stamp = rec("A", None, ts).timestamp
        assert stamp == datetime(2014, 3, 1, 12, 30, 5, tzinfo=UTC)
        assert stamp.tzinfo is UTC and stamp.microsecond == 0


def test_a_dropped_link_keeps_the_rest_of_the_record():
    child = rec("B", "GHOST", T0 + timedelta(days=1), 3.25, -8.5)
    (kept,) = validate_stream([child]).records
    assert kept == CaseRecord("B", None, child.timestamp, child.location)
    assert kept != child


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
@example(case_id="a\rb", source_id=None, ts=T0, lon=1.0, lat=2.0,
         format="csv")  # a "\r" cell written unquoted ended the line there
@example(case_id="a", source_id="b\r\nc", ts=T0, lon=1.0, lat=2.0,
         format="csv")
@example(case_id="a\rb", source_id="c\rd", ts=T0, lon=1.0, lat=2.0,
         format="jsonl")
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


# --- the parser against its reference ------------------------------------
#
# The reference is parse_record as it stood before records became slotted
# classes and each CSV cell was read in one pass: the multi-pass parse over
# csv.reader, building frozen dataclasses. With ``fixed`` it also applies
# the two rules added since, where parse_record applies them: a JSON field
# that is a boolean, an object or an array is malformed, and a coordinate
# given as text must be an ASCII decimal number (whitespace around it
# aside), where float() would also read 1_2.5, Arabic-Indic and full-width
# digits.


@dataclass(frozen=True)
class _RefGeoPoint:
    longitude: float
    latitude: float

    def __post_init__(self):
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude!r}")
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude!r}")


@dataclass(frozen=True)
class _RefCaseRecord:
    case_id: str
    source_id: str | None
    timestamp: datetime
    location: _RefGeoPoint

    def __post_init__(self):
        if not self.case_id:
            raise ValueError("case_id must be non-empty")
        if self.source_id == "":
            object.__setattr__(self, "source_id", None)
        if self.source_id == self.case_id:
            raise ValueError(f"case {self.case_id!r} lists itself as source")
        object.__setattr__(self, "timestamp",
                           normalize_timestamp(self.timestamp))


def _json_kind(value):
    return {bool: "a boolean", dict: "an object", list: "an array"}.get(
        type(value))


def _not_ascii_decimal(value):
    return isinstance(value, str) and ("_" in value
                                       or not value.strip().isascii())


def _reference_parse(line, format, fixed):
    line_no = 3
    if format == "csv":
        row = _reader_row(line, line_no)
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}",
                             line_no=line_no)
        case_id, source, date, *coords = [cell.strip() for cell in row]
    else:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line_no=line_no) from None
        if not isinstance(obj, dict):
            raise ParseError("JSON line is not an object", line_no=line_no)
        missing = [key for key in CSV_HEADER if key not in obj]
        if missing:
            raise ParseError(f"missing keys: {', '.join(missing)}",
                             line_no=line_no, field=missing[0])
        for key in CSV_HEADER if fixed else ():
            if _json_kind(obj[key]):
                raise ParseError(f"expected a string or a number, got "
                                 f"{_json_kind(obj[key])}",
                                 line_no=line_no, field=key)
        case_id, source, date, *coords = [obj[key] for key in CSV_HEADER]

    case_id = "" if case_id is None else str(case_id).strip()
    if not case_id:
        raise ParseError("empty case_id", line_no=line_no, field="case_id")
    source_id = None if source is None else (str(source).strip() or None)
    try:
        timestamp = parse_timestamp(str(date))
    except ValueError as exc:
        raise ParseError(str(exc), line_no=line_no, field="date") from None
    numbers = []
    for key, value in zip(("longitude", "latitude"), coords):
        try:
            if fixed and _not_ascii_decimal(value):
                raise ValueError(value)
            numbers.append(float(value))
        except (TypeError, ValueError, OverflowError):
            raise ParseError(f"not a number: {value!r}",
                             line_no=line_no, field=key) from None
    try:
        return _RefCaseRecord(case_id, source_id, timestamp,
                              _RefGeoPoint(*numbers))
    except ValueError as exc:
        raise ParseError(str(exc), line_no=line_no) from None


def _outcome(parse, line, format, *fixed):
    """The record's fields, or the ParseError's text."""
    try:
        r = parse(line, format, *fixed)
    except ParseError as exc:
        return str(exc)
    return (r.case_id, r.source_id, r.timestamp, r.location.longitude,
            r.location.latitude)


def _parse_at_line_3(line, format):
    return parse_record(line, format, line_no=3)


_TRICKY = ['"', "\r", "\x00", "\ufeff", " ", "\u3000", "_", ",", "\u0661",
           "\uff11", "\u00e9"]
_tricky_text = st.text(alphabet=st.sampled_from(
    _TRICKY + list("0123456789.-+eE:TZnaif")), max_size=10)
_tricky_cell = st.one_of(
    _tricky_text,
    st.sampled_from(["", "C1", "C2", "2014-03-01", "2014-03-01T12:00:00+02:00",
                     "\ufeffC1", "0", "-10.5", "+1E1", "east", "1_2.5",
                     "\u0661\u0662", "\uff11", "\uff11.5", "1e999", "nan",
                     "-0"]),
    st.text(alphabet="C", min_size=17, max_size=45))  # past a lowered limit
_number_text = st.one_of(
    st.sampled_from(["0", "-10.5", "+1E1", "1e999", "nan", "-0", "1_2.5",
                     "1_0", "\u0661\u0662", "\uff11", "\uff11.5", "east"]),
    st.text(alphabet=st.sampled_from(list("0123456789._-+eE \u3000\u0661\uff11")),
            max_size=6))
_pad = st.sampled_from(["", "", "", " ", "\t", "\u3000"])
_line_start = st.sampled_from(["", "", "\ufeff", " "])
_TEMPLATE = ("C1", "C0", "2014-03-01", "1.5", "-2.5")


def _tricky_text_for(draw, key):
    """Tricky text for one field, padded with whitespace or not; for a
    coordinate, number-like text half the time."""
    coordinate = key in ("longitude", "latitude") and draw(st.booleans())
    return (draw(_pad) + draw(_number_text if coordinate else _tricky_cell)
            + draw(_pad))


@st.composite
def _tricky_csv(draw):
    """A valid line with one or two cells replaced by tricky text, cells
    padded with whitespace or quoted, and now and then a cell dropped or
    added."""
    cells = list(_TEMPLATE)
    for i in draw(st.sets(st.integers(0, 4), min_size=1, max_size=2)):
        cells[i] = _tricky_text_for(draw, CSV_HEADER[i])
    cells = [f'"{cell.replace(chr(34), chr(34) * 2)}"'
             if draw(st.integers(0, 4)) == 0 else cell for cell in cells]
    count = draw(st.sampled_from([5, 5, 5, 5, 4, 6]))
    cells = (cells + [draw(_tricky_cell)])[:count]
    return draw(_line_start) + ",".join(cells)


_json_value = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), st.floats(),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def _tricky_json(draw):
    """A valid line with one or two fields replaced by tricky text, which
    may be padded with whitespace, or by a value of another JSON type,
    and now and then a field dropped."""
    fields = dict(zip(CSV_HEADER, _TEMPLATE))
    for key in draw(st.sets(st.sampled_from(CSV_HEADER), min_size=1,
                            max_size=2)):
        fields[key] = (draw(_json_value) if draw(st.booleans())
                       else _tricky_text_for(draw, key))
    if draw(st.integers(0, 7)) == 0:
        del fields[draw(st.sampled_from(CSV_HEADER))]
    return draw(_line_start) + json.dumps(fields,
                                          ensure_ascii=draw(st.booleans()))


def _is_one_of_the_fixes(line, format):
    """A JSON field that is a boolean, object or array, or a coordinate
    given as text that is not ASCII or holds an underscore."""
    if format == "jsonl":
        obj = json.loads(line)
        if any(_json_kind(obj[key]) for key in CSV_HEADER):
            return True
        return any(_not_ascii_decimal(obj[key])
                   for key in ("longitude", "latitude"))
    row = [cell.strip() for cell in _reader_row(line, 3)]
    return any(_not_ascii_decimal(cell) for cell in row[3:])


@settings(max_examples=1000, suppress_health_check=_FIRST_DRAW_MAY_BE_SLOW)
@given(st.data(), st.sampled_from(FORMATS), st.sampled_from([None, 16, 40]))
def test_parse_record_equals_its_reference(data, format, limit):
    tricky = _tricky_csv() if format == "csv" else _tricky_json()
    line = data.draw(st.one_of(tricky, tricky, tricky, _any_line(format),
                               _csv_text, _line_text))
    old_limit = csv.field_size_limit(limit or csv.field_size_limit())
    try:
        new = _outcome(_parse_at_line_3, line, format)
        before = _outcome(_reference_parse, line, format, False)
        fixed = _outcome(_reference_parse, line, format, True)
        assert new == fixed  # the same fields or the same message
        if fixed != before:  # one of the two fixes turned it into an error
            assert isinstance(fixed, str)
            assert _is_one_of_the_fixes(line, format)
    finally:
        csv.field_size_limit(old_limit)


@pytest.mark.parametrize("line,format,message", [
    ("C1,,2014-03-01,1_2.5,0", "csv", "not a number: '1_2.5' (field: longitude)"),
    ("C1,,2014-03-01,0,\u0661\u0662", "csv",
     "not a number: '\u0661\u0662' (field: latitude)"),
    ("C1,,2014-03-01,\uff11,0", "csv", "not a number: '\uff11' (field: longitude)"),
    ('{"case_id":"C1","source_id":null,"date":"2014-03-01","longitude":"1_2.5",'
     '"latitude":0}', "jsonl", "not a number: '1_2.5' (field: longitude)"),
    ('{"case_id":"C1","source_id":null,"date":"2014-03-01","longitude":0,'
     '"latitude":"\\uff11"}', "jsonl", "not a number: '\uff11' (field: latitude)"),
    ('{"case_id":"C1","source_id":null,"date":"2014-03-01","longitude":true,'
     '"latitude":0}', "jsonl",
     "expected a string or a number, got a boolean (field: longitude)"),
    ('{"case_id":{"x":1},"source_id":null,"date":"2014-03-01","longitude":0,'
     '"latitude":0}', "jsonl",
     "expected a string or a number, got an object (field: case_id)"),
    ('{"case_id":"C1","source_id":["C0"],"date":"2014-03-01","longitude":0,'
     '"latitude":0}', "jsonl",
     "expected a string or a number, got an array (field: source_id)"),
    ('{"case_id":"C1","source_id":null,"date":false,"longitude":0,'
     '"latitude":0}', "jsonl",
     "expected a string or a number, got a boolean (field: date)"),
])
def test_the_two_fixes_make_a_parse_error_naming_the_field(line, format,
                                                           message):
    assert _outcome(_reference_parse, line, format, False) != f"line 3: {message}"
    assert _outcome(_parse_at_line_3, line, format) == f"line 3: {message}"


@pytest.mark.parametrize("line,format", [
    ("C1,,2014-03-01,\u3000-1.5 ,\t8.25\u3000", "csv"),
    ('{"case_id":7,"source_id":3.5,"date":"2014-03-01","longitude":"\\u3000-1.5 ",'
     '"latitude":8.25}', "jsonl"),
])
def test_numbers_and_padded_decimal_text_still_parse(line, format):
    r = parse_record(line, format)
    assert (r.location.longitude, r.location.latitude) == (-1.5, 8.25)
    assert _outcome(_parse_at_line_3, line, format) == \
        _outcome(_reference_parse, line, format, False)


# Each character that decides how csv.writer writes a cell, and some
# that do not: NUL, spaces (parse_record strips them, the writer keeps
# them) and non-ASCII text.
_cell_text = st.text(alphabet=st.sampled_from(
    [",", '"', "\n", "\r", "\x00", " ", "\u00e9", "\u3000", "C", "7"]),
    min_size=1, max_size=8)
_records = st.tuples(
    _ids | st.text(min_size=1, max_size=6) | _cell_text,
    st.none() | _ids | _cell_text, _instants, _lons, _lats,
).filter(lambda t: t[0] != t[1]).map(lambda t: rec(*t))


def _one(case_id, source_id=None):
    return [rec(case_id, source_id, T0, -10.5, 8.25)]


@settings(max_examples=300)
@given(st.lists(_records, max_size=6), st.sampled_from(FORMATS))
@example(_one("a,b", "c"), "csv")
@example(_one("a", 'b"c'), "csv")
@example(_one("a\nb", "c"), "csv")
@example(_one("a", "b\rc"), "csv")
@example(_one("a\x00b", "c"), "csv")
@example(_one(" a ", "b "), "csv")
@example(_one("\u00e9t\u00e9", "\u75c5\u4f8b"), "csv")
@example(_one("a", None), "csv")
@example([rec("A", None, T0), rec("B", "A", T0),  # one timestamp object,
          rec("C", "A", T0 + timedelta(days=1)),  # then another
          rec("D,", "C", T0)], "csv")
def test_write_stream_writes_the_header_and_each_serialized_record(recs, format):
    buf = io.StringIO()
    assert write_stream(iter(recs), buf, format) == len(recs)
    header = ",".join(CSV_HEADER) + "\n" if format == "csv" else ""
    assert buf.getvalue() == header + "".join(
        serialize_record(r, format) + "\n" for r in recs)


@pytest.mark.parametrize("cell", ["a\rb", "a\r\rb", "a\r\nb"])
def test_a_carriage_return_cell_is_quoted(cell):
    r = rec("C1", cell, T0, 1.0, 2.0)
    line = f'C1,"{cell}",2014-03-01T00:00:00Z,1.0,2.0'
    assert serialize_record(r) == line
    assert parse_record(line) == r
    buf = io.StringIO()
    write_stream([r], buf)
    assert buf.getvalue() == ",".join(CSV_HEADER) + "\n" + line + "\n"


def test_records_yielded_before_the_iterable_raises_are_written():
    def failing():
        yield rec("C1", None, T0)
        yield rec("C,2", "C1", T0)  # through csv.writer
        raise RuntimeError("source failed")

    for format in FORMATS:
        buf = io.StringIO()
        with pytest.raises(RuntimeError, match="source failed"):
            write_stream(failing(), buf, format)
        lines = [serialize_record(r, format) + "\n"
                 for r in (rec("C1", None, T0), rec("C,2", "C1", T0))]
        header = ",".join(CSV_HEADER) + "\n" if format == "csv" else ""
        assert buf.getvalue() == header + "".join(lines)


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
