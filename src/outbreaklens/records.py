"""Case-record parsing, validation, and ordered streaming.

The input is a feed of reported cases, one record per line, in CSV or
JSON-lines form. Both carry the same five fields: ``case_id``,
``source_id``, ``date``, ``longitude``, ``latitude``. An empty source
field marks an index case (no known infector).

Parsing is pure and thread-safe. ``read_stream`` is a single-consumer
sequential source. ``ValidatedStream`` is immutable after construction
and safe to share.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
from datetime import datetime, timezone
from functools import lru_cache
from typing import Callable, Iterable, Iterator, TextIO, Union

CSV_HEADER = ("case_id", "source_id", "date", "longitude", "latitude")
FORMATS = ("csv", "jsonl")


class ParseError(ValueError):
    """A single line could not be turned into a CaseRecord."""

    def __init__(self, message: str, *, line_no: int | None = None,
                 field: str | None = None):
        self.line_no = line_no
        self.field = field
        prefix = f"line {line_no}: " if line_no is not None else ""
        suffix = f" (field: {field})" if field else ""
        super().__init__(f"{prefix}{message}{suffix}")


class ValidationError(ValueError):
    """The stream violates a hard invariant (duplicate ids, bad links in
    strict mode, ingestion misuse)."""


class _Frozen:
    """Base of the value types: a frozen dataclass without the cost of
    making one. A slotted class defines its own ``__init__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = names = tuple(cls.__annotations__)  # the fields
        cls._defaults = {k: v for k, v in vars(cls).items() if k in names}

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):  # not each field by position
            given = dict(zip(names, args), **kwargs)  # a repeat counts once
            values = {**self._defaults, **given}
            if len(given) < len(args) + len(kwargs) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}")
            args = [values[name] for name in names]
        self.__dict__.update(zip(names, args))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return (self._astuple() == other._astuple() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__match_args__, self._astuple())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    def __reduce__(self):  # copy and pickle go through the constructor
        return type(self), self._astuple()

    def replace(self, **changes):  # through the constructor, as a copy does
        return type(self)(**dict(zip(self.__match_args__, self._astuple()),
                                 **changes))

    __delattr__ = __setattr__
    __replace__ = replace  # copy.replace, from Python 3.13


class Diagnostic(_Frozen):
    """Non-fatal problem found while reading or validating a stream."""

    kind: str
    message: str
    line_no: int | None = None
    case_id: str | None = None


def normalize_timestamp(value: datetime) -> datetime:
    """UTC, whole seconds. Naive datetimes are taken as UTC."""
    if value.tzinfo is timezone.utc and not value.microsecond:
        return value  # already normal, as every parsed timestamp is
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    else:
        value = value.astimezone(timezone.utc)
    if value.microsecond:
        value = value.replace(microsecond=0)
    return value


# The extended ISO 8601 form, which datetime.fromisoformat reads on every
# supported Python: a date, alone or then a separator other than a sign
# (which fromisoformat would take, reading an offset as a time) and a
# time, with an offset or none. From 3.11 it also reads basic (20140301),
# week (2014-W10-1) and other forms; checking this first gives one grammar.
_TIMESTAMP_RE = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[^+-][0-9]{2}(?::[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{3}(?:[0-9]{3})?)?)?)?"
    r"(?:[+-][0-9]{2}:[0-9]{2}(?::[0-9]{2}(?:\.[0-9]{6})?)?)?)?")


@lru_cache(maxsize=4096)  # feeds repeat their dates; datetimes are immutable
def parse_timestamp(text: str) -> datetime:
    """Parse an instant from ISO-style text.

    Accepts bare dates, read as midnight UTC, and full timestamps in the
    extended form, with a trailing ``Z``, a numeric offset or none (then
    taken as UTC); see ``_TIMESTAMP_RE``. Sub-second precision is
    truncated. An offset that moves the instant outside years 1-9999 in
    UTC is a ValueError.
    """
    raw = text.strip()
    if not raw:
        raise ValueError("empty timestamp")
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    if _TIMESTAMP_RE.fullmatch(raw):
        try:
            return normalize_timestamp(datetime.fromisoformat(raw))
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"unparseable date: {text!r}")


def format_timestamp(value: datetime) -> str:
    return _format_utc(normalize_timestamp(value))


# Keyed on the normalized instant: two datetimes of one zone that differ
# only in ``fold`` compare and hash equal, yet may be an hour apart.
@lru_cache(maxsize=4096)  # records of a feed share their timestamps
def _format_utc(value: datetime) -> str:
    # strftime writes year 500 as "500", which no parser reads back
    return (f"{value.year:04}-{value.month:02}-{value.day:02}T"
            f"{value.hour:02}:{value.minute:02}:{value.second:02}Z")


class GeoPoint(_Frozen):
    """A coordinate pair in decimal degrees."""

    __slots__ = ("longitude", "latitude")
    longitude: float
    latitude: float

    def __init__(self, longitude: float, latitude: float):
        if not (type(longitude) is float and -180.0 <= longitude <= 180.0):
            longitude = _degrees(longitude, "longitude", 180.0)
        if not (type(latitude) is float and -90.0 <= latitude <= 90.0):
            latitude = _degrees(latitude, "latitude", 90.0)
        _set_longitude(self, longitude)
        _set_latitude(self, latitude)


def _degrees(value, name: str, bound: float) -> float:
    """A coordinate as a float in [-bound, bound], so that what ``repr``
    writes of it reads back; GeoPoint keeps a float in range as it is. A
    bool is no coordinate, though float() reads it as one; NaN fails the
    range check."""
    import numbers  # here, not at the top: only this rare path reads it

    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} is not a real number: {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int or fraction past float range
        raise ValueError(f"{name} out of range: {value!r}") from None
    if not -bound <= value <= bound:
        raise ValueError(f"{name} out of range: {value!r}")
    return value


class CaseRecord(_Frozen):
    """One reported case.

    ``timestamp`` is stored timezone-aware in UTC at second resolution;
    ``source_id`` is None for index cases. A record naming itself as its
    source is rejected because it could never form a valid contact edge,
    and an id with whitespace around it because parse_record strips it.
    """

    __slots__ = ("case_id", "source_id", "timestamp", "location",
                 "__weakref__")
    case_id: str
    source_id: str | None
    timestamp: datetime
    location: GeoPoint

    def __init__(self, case_id: str, source_id: str | None,
                 timestamp: datetime, location: GeoPoint):
        if not isinstance(case_id, str):
            raise ValueError(f"case_id is not a string: {case_id!r}")
        if not case_id:
            raise ValueError("case_id must be non-empty")
        if case_id.strip() != case_id:
            raise ValueError(f"case_id {case_id!r} has whitespace around it")
        if source_id == "":
            source_id = None
        elif source_id == case_id:
            raise ValueError(f"case {case_id!r} lists itself as source")
        elif source_id is not None and not isinstance(source_id, str):
            raise ValueError(f"source_id is not a string: {source_id!r}")
        elif source_id is not None and source_id.strip() != source_id:
            raise ValueError(f"source_id {source_id!r} has whitespace around it")
        _set_case_id(self, case_id)
        _set_source_id(self, source_id)
        _set_timestamp(self, normalize_timestamp(timestamp))
        _set_location(self, location)


# The slots' own setters, which go past the frozen __setattr__, and an
# instance with no slot set, for parse_record to fill.
_new = object.__new__
_set_longitude = GeoPoint.longitude.__set__
_set_latitude = GeoPoint.latitude.__set__
_set_case_id = CaseRecord.case_id.__set__
_set_source_id = CaseRecord.source_id.__set__
_set_timestamp = CaseRecord.timestamp.__set__
_set_location = CaseRecord.location.__set__


def _csv_row(line: str, line_no: int | None) -> list[str]:
    """The cells csv.reader makes of one line. A line with no quote, no
    line break and no NUL (which csv.reader rejects before Python 3.11),
    no longer than the reader's field limit, is split on commas directly,
    which is what the reader would do with it."""
    if (line and '"' not in line and "\r" not in line and "\n" not in line
            and "\x00" not in line and len(line) <= csv.field_size_limit()):
        return line.split(",")
    try:
        return next(csv.reader([line]))
    except (csv.Error, StopIteration):
        raise ParseError("malformed CSV line", line_no=line_no) from None


def parse_record(line: str, format: str = "csv", *,
                 line_no: int | None = None) -> CaseRecord:
    """Parse one line in the declared format into a CaseRecord. Both
    formats check the same values once, in one order; ``_coordinate`` and
    the constructors name what fails, and what passes is built in place."""
    if format == "csv":
        row = _csv_row(line, line_no)
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}",
                             line_no=line_no)
        case_id, source_id, date, longitude, latitude = row
        case_id = case_id.strip()
        source_id = source_id.strip() or None
        date = date.strip()
        longitude = longitude.strip()
        latitude = latitude.strip()
    elif format == "jsonl":
        case_id, source_id, date, longitude, latitude = _json_fields(line,
                                                                     line_no)
        case_id = "" if case_id is None else str(case_id).strip()
        source_id = None if source_id is None else (str(source_id).strip()
                                                    or None)
        date = str(date)
    else:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")

    if not case_id:
        raise ParseError("empty case_id", line_no=line_no, field="case_id")
    try:
        timestamp = parse_timestamp(date)
    except ValueError as exc:
        raise ParseError(str(exc), line_no=line_no, field="date") from None
    try:  # _coordinate's rule, inline for a number or plain ASCII text
        if (type(longitude) is str
                and ("_" in longitude or not longitude.isascii())
                or type(latitude) is str
                and ("_" in latitude or not latitude.isascii())):
            raise ValueError
        lon = float(longitude)
        lat = float(latitude)
    except (TypeError, ValueError, OverflowError):
        lon = _coordinate(longitude, "longitude", line_no)
        lat = _coordinate(latitude, "latitude", line_no)
    if -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0 and source_id != case_id:
        location = _new(GeoPoint)
        _set_longitude(location, lon)
        _set_latitude(location, lat)
        record = _new(CaseRecord)
        _set_case_id(record, case_id)
        _set_source_id(record, source_id)
        _set_timestamp(record, timestamp)
        _set_location(record, location)
        return record
    try:
        return CaseRecord(case_id, source_id, timestamp, GeoPoint(lon, lat))
    except ValueError as exc:
        raise ParseError(str(exc), line_no=line_no) from None


def load_json(text: str):
    """``json.loads``, naming an integer with too many digits to convert,
    where Python's message advises a call a command-line user cannot make."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other ValueError json.loads raises
        raise ValueError(f"an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


_JSON_KINDS = {bool: "a boolean", dict: "an object", list: "an array"}


def _json_fields(line: str, line_no: int | None) -> list:
    """The five field values of a JSON line, each null, a number or a
    string."""
    try:
        obj = load_json(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line_no=line_no) from None
    except (ValueError, RecursionError) as exc:  # a long integer, deep nesting
        raise ParseError(f"invalid JSON: {exc}", line_no=line_no) from None
    if not isinstance(obj, dict):
        raise ParseError("JSON line is not an object", line_no=line_no)
    missing = [key for key in CSV_HEADER if key not in obj]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}",
                         line_no=line_no, field=missing[0])
    values = [obj[key] for key in CSV_HEADER]
    for key, value in zip(CSV_HEADER, values):
        if type(value) in _JSON_KINDS:
            raise ParseError(f"expected a string or a number, got "
                             f"{_JSON_KINDS[type(value)]}",
                             line_no=line_no, field=key)
    return values


def _coordinate(value, key: str, line_no: int | None) -> float:
    """A coordinate cell or JSON value as a float. Text must be an ASCII
    decimal number, whitespace around it aside: float() alone would also
    read digit separators (``1_2.5``) and other scripts' digits. A
    boolean is no number, although float() reads it as one."""
    try:
        if value is True or value is False or type(value) is str and (
                "_" in value or not value.strip().isascii()):
            raise ValueError(value)
        return float(value)
    except (TypeError, ValueError, OverflowError):  # an int past float range
        raise ParseError(f"not a number: {value!r}",
                         line_no=line_no, field=key) from None


# each record's line in a known format, with no trailing newline
def _lines(records: Iterable[CaseRecord], format: str) -> Iterator[str]:
    for rec in records:
        loc = rec.location
        date = _format_utc(rec.timestamp)
        if format == "jsonl":
            yield json.dumps({"case_id": rec.case_id, "source_id": rec.source_id,
                              "date": date, "longitude": loc.longitude,
                              "latitude": loc.latitude},
                             sort_keys=True, separators=(",", ":"))
            continue
        source = rec.source_id or ""
        line = f"{rec.case_id},{source},{date},{loc.longitude!r},{loc.latitude!r}"
        # Four commas and no quote or line break: no cell needs quoting.
        if line.count(",") != 4 or '"' in line or "\r" in line or "\n" in line:
            # csv.writer quotes a cell holding a comma, a quote, CR or LF
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow(
                [rec.case_id, source, *line.rsplit(",", 3)[1:]])
            line = buf.getvalue()[:-2]
        yield line


def serialize_record(record: CaseRecord, format: str = "csv") -> str:
    """One output line (no trailing newline). Inverse of parse_record:
    parsing the result yields an equal record."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    return next(_lines((record,), format))


class ValidatedStream(_Frozen):
    """Records sorted by (timestamp, arrival index), invariants checked.

    Validation is idempotent: a ValidatedStream passed back through
    validate_stream is returned unchanged.
    """

    records: tuple[CaseRecord, ...]
    diagnostics: tuple[Diagnostic, ...] = ()

    def __iter__(self) -> Iterator[CaseRecord]:
        return iter(self.records)

    @property
    def extent(self) -> tuple[datetime, datetime] | None:
        """(first, last) timestamp, or None for an empty stream."""
        if not self.records:
            return None
        return self.records[0].timestamp, self.records[-1].timestamp


def bad_link(kind: str, record: CaseRecord, strict: bool) -> Diagnostic:
    """The diagnostic for a link that cannot stand: ``dangling-source``
    (the source matches no record) or ``source-after-case`` (the source
    is reported after the case). In strict mode raise instead."""
    if kind == "dangling-source":
        problem = (f"source {record.source_id!r} of case {record.case_id!r} "
                   f"matches no record")
    else:
        problem = (f"source {record.source_id!r} is reported after case "
                   f"{record.case_id!r}")
    if strict:
        raise ValidationError(problem)
    return Diagnostic(kind=kind, message=problem + "; link dropped",
                      case_id=record.case_id)


def validate_stream(records: Union[ValidatedStream, Iterable[CaseRecord]],
                    strict: bool = False) -> ValidatedStream:
    """Order the stream and enforce cross-record invariants, holding
    every record: no command runs it; it is the independent reference
    for the engine, which applies the same rules as records arrive.
    Duplicate case_ids are always a hard error. A source_id that matches
    no record, or whose record is reported after its child, drops the
    link and keeps the case as an index vertex, with a diagnostic; in
    strict mode it raises ValidationError.
    """
    if isinstance(records, ValidatedStream):
        return records
    items = list(records)
    by_id: dict[str, CaseRecord] = {}
    for rec in items:
        if rec.case_id in by_id:
            raise ValidationError(f"duplicate case_id {rec.case_id!r}")
        by_id[rec.case_id] = rec

    ordered = sorted(items, key=lambda rec: rec.timestamp)  # stable for ties
    out: list[CaseRecord] = []
    diags: list[Diagnostic] = []
    for rec in ordered:
        if rec.source_id is None:
            out.append(rec)
            continue
        source = by_id.get(rec.source_id)
        if source is None:
            kind = "dangling-source"
        elif source.timestamp > rec.timestamp:
            kind = "source-after-case"
        else:
            out.append(rec)
            continue
        diags.append(bad_link(kind, rec, strict))
        out.append(CaseRecord(rec.case_id, None, rec.timestamp, rec.location))
    return ValidatedStream(tuple(out), tuple(diags))


def _is_csv_header(line: str) -> bool:
    try:
        row = _csv_row(line, None)
    except ParseError:
        return False
    return tuple(cell.strip().lower() for cell in row) == CSV_HEADER


def read_stream(source: Union[str, os.PathLike, TextIO], format: str = "csv", *,
                strict: bool = False,
                on_error: Callable[[Diagnostic], None] | None = None,
                ) -> Iterator[CaseRecord]:
    """Yield records one at a time without loading the whole input.

    Blank lines are skipped. A byte-order mark (U+FEFF) at the start of
    the first non-blank line is dropped, and a CSV header row as that
    line is skipped. In lenient mode (default) each malformed line
    produces a Diagnostic through ``on_error`` and reading continues;
    strict mode raises on the first bad line. Cross-record checks
    (duplicate ids, link resolution) are the caller's concern; see
    validate_stream and the engine.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    own = isinstance(source, (str, os.PathLike))
    handle = open(source, "r", encoding="utf-8") if own else source
    first = True  # no non-blank line read yet
    try:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if first:
                line = line.removeprefix("\ufeff")  # a byte-order mark
            if not line or line.isspace():
                continue
            if first:
                first = False
                if format == "csv" and _is_csv_header(line):
                    continue
            try:
                yield parse_record(line, format, line_no=line_no)
            except ParseError as exc:
                if strict:
                    raise
                if on_error is not None:
                    on_error(Diagnostic(kind="parse-error", message=str(exc),
                                        line_no=line_no))
    finally:
        if own:
            handle.close()


def write_stream(records: Iterable[CaseRecord], target: TextIO,
                 format: str = "csv") -> int:
    """Write records in the given format (CSV includes the header row).
    Returns the number of records written."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    if format == "csv":
        target.write(",".join(CSV_HEADER) + "\n")
    count = 0
    for count, line in enumerate(_lines(records, format), 1):
        target.write(line + "\n")
    return count
