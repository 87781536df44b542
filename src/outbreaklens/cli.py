"""Command-line surface: analyze, stream, simulate, plot.

Exit codes are stable: 0 success, 2 unreadable or invalid input data
or an output (stderr included) that cannot be written, 64 bad flags or
simulation config, 65 empty distribution where a plot was requested.
Identical inputs and flags produce byte-identical outputs (reports and
SVG alike).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import re
import sys
from contextlib import contextmanager, suppress
from datetime import datetime, timedelta
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

from . import RULES, __version__, canonical_families

if TYPE_CHECKING:
    from .engine import StructureReport
    from .records import CaseRecord, Diagnostic

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_USAGE = 64
EXIT_EMPTY = 65

FAMILY_ALIASES = {
    "exp": "exponential",
    "norm": "normal",
    "pois": "poisson",
    "pl": "power-law",
}

# ASCII digits only: \d would also take other scripts' digits
_DURATION_RE = re.compile(r"^([0-9]+)([smhd])$")
_DURATION_UNITS = {"s": "seconds", "m": "minutes", "h": "hours", "d": "days"}

# Each command imports only the modules it runs. The names that
# perfbench/traced.py wraps on this module are imported on first access
# (PEP 562) and kept as globals; handlers call them through ``_module``.
_LAZY = {"validate_stream": "records", "write_stream": "records",
         "degree_sample": "graph", "build_graph": "graph",
         "fit_family": "fitting", "report_for_graph": "engine",
         "generate_network": "sim", "simulate_outbreak": "sim",
         "render_degree_plot": "plot"}
_module = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __package__)
    globals()[name] = value = getattr(module, name)
    return value


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def _print_message(self, message, file=None):
        """argparse writes help, usage and version text here. Text for
        stdout goes through the checked write every output uses, so a
        reader that has gone is exit 2. Text that stderr cannot take is
        dropped, with what is buffered for it, so a usage error is exit
        64 on every Python version; argparse alone would leave it to fail
        again at exit (120) or, on 3.10, let the error out (1)."""
        if file is sys.stdout and message:
            with _output(None) as out:
                out.write(message)
        elif message:
            file = file or sys.stderr
            try:
                file.write(message)
                file.flush()
            except OSError:
                _discard(file)


def parse_duration(text: str) -> timedelta:
    """Durations like 15m, 1h, 1d (also seconds: 90s)."""
    match = _DURATION_RE.match(text.strip())
    # longer than the longest timedelta, or too many digits to read
    with suppress(OverflowError, ValueError):
        if match and int(match.group(1)):
            value, unit = match.groups()
            return timedelta(**{_DURATION_UNITS[unit]: int(value)})
    raise ValueError(f"bad duration {text!r}; use positive forms like "
                     f"15m, 1h, 1d")


def parse_window_flag(text: str) -> tuple[str, timedelta] | None:
    """'all' means the whole stream; otherwise 'tumbling:<dur>' or
    'cumulative:<dur>'."""
    from .engine import WINDOW_MODES

    raw = text.strip()
    if raw == "all":
        return None
    mode, sep, dur = raw.partition(":")
    if not sep or mode not in WINDOW_MODES:
        raise ValueError(f"bad window {text!r}; use all, tumbling:<dur> "
                         f"or cumulative:<dur>")
    return mode, parse_duration(dur)


def parse_families(text: str) -> tuple[str, ...]:
    """Comma- or space-separated family names or their aliases."""
    names = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    return canonical_families(FAMILY_ALIASES.get(name, name) for name in names)


def _cannot_read(path: str | None, exc: Exception) -> _CliError:
    return _CliError(EXIT_INPUT, f"cannot read {path or 'stdin'}: {exc}")


def _read_text(path: str | None) -> str:
    """The whole input as text; unreadable or undecodable input is exit 2."""
    try:
        if path in (None, "-"):
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot_read(path, exc) from None


def _discard(out: TextIO) -> None:
    """Point the output's descriptor at the null device, so what is still
    buffered for it is dropped instead of failing a second time on close
    or at exit. An in-memory output has no descriptor."""
    try:
        fd = out.fileno()
    except io.UnsupportedOperation:
        return
    null = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(null, fd)
    finally:
        os.close(null)


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """stdout for None or "-", else the file, truncated. An output that
    cannot be opened or written (a reader that has gone) is exit 2, and
    what was still to be written to it is discarded."""
    try:
        out = (sys.stdout if path in (None, "-")
               else open(path, "w", encoding="utf-8", newline=""))
    except OSError as exc:
        raise _CliError(EXIT_INPUT, f"cannot write {path}: {exc}") from None
    try:
        yield out
        out.flush()
    except OSError as exc:
        _discard(out)
        raise _CliError(EXIT_INPUT, str(exc)) from None
    finally:
        if out is not sys.stdout:
            out.close()


def _dump_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _stderr_diag(diag: Diagnostic) -> None:
    """Warn on stderr. A stderr that cannot be written (a reader that has
    gone) is exit 2, and what is still buffered for it is discarded."""
    try:
        print(f"warning: {diag.message}", file=sys.stderr)
    except OSError as exc:
        _discard(sys.stderr)
        raise _CliError(EXIT_INPUT, str(exc)) from None


def _records_of(args, source: TextIO | None = None) -> Iterator[CaseRecord]:
    """The records of ``source`` (default: the input), read lazily. A
    file is opened on the first read, so an unreadable one raises
    OSError there."""
    from .records import read_stream

    if source is None:
        source = sys.stdin if args.input in (None, "-") else args.input
    return read_stream(source, args.format, strict=args.strict,
                       on_error=_stderr_diag)


def _reports(args, records: Iterable[CaseRecord],
             window: tuple[str, timedelta] | None, origin: datetime | None,
             families: Sequence[str]) -> Iterator[StructureReport]:
    """The reports of every command that reads records, from
    ``engine.run``: as windows close (with no window, one at end of
    input), diagnostics on stderr as they are found. The origin defaults
    to midnight UTC of the first record's day. Unreadable or invalid
    input is exit 2."""
    from .engine import WindowSpec, run

    try:
        spec = None
        if window is not None:
            records = iter(records)
            first = next(records, None)
            if first is None:  # no record, no window
                return
            records = chain([first], records)
            spec = WindowSpec(*window, origin or first.timestamp.replace(
                hour=0, minute=0, second=0))
        yield from run(records, spec, families, args.rule,
                       args.include_isolated, args.strict, _stderr_diag)
    except (OSError, UnicodeDecodeError) as exc:
        raise _cannot_read(args.input, exc) from None
    except ValueError as exc:  # invalid input
        raise _CliError(EXIT_INPUT, str(exc)) from None


def _whole_stream_report(args, records: Iterable[CaseRecord],
                         families: Sequence[str]) -> dict:
    """The whole-stream report that analyze --window all writes and plot
    renders: the structure report plus the empirical ``degree_pmf``,
    both read from one degree sample, whose degrees ascend."""
    (report,) = _reports(args, records, None, None, families)
    counts, n = report.sample.counts, report.sample.n
    out = report.to_json_dict()
    out["degree_pmf"] = [[d, count / n] for d, count in counts.items()]
    return out


def _run_config(args, command: str, origin: datetime | None,
                families: Sequence[str]) -> dict:
    from .records import format_timestamp

    return {
        "command": command,
        "input": args.input,
        "output": args.output,
        "format": args.format,
        "window": args.window,
        "origin": None if origin is None else format_timestamp(origin),
        "families": list(families),
        "rule": args.rule,
        "include_isolated": bool(args.include_isolated),
        "strict": bool(args.strict),
    }


def _write_windowed(args, command: str, records: Iterable[CaseRecord],
                    window: tuple[str, timedelta], origin: datetime | None,
                    families: Sequence[str]) -> int:
    """Write each report to the output and flush it as its window
    closes, so a reader on a pipe has it without waiting for later
    windows or end of input; then the summary line, which is folded from
    the reports as they pass, so no written report is kept. Reports
    written before an input error stay."""
    from .engine import classify_trend

    def written(reports: Iterable[StructureReport]) -> Iterator[StructureReport]:
        for report in reports:
            out.write(_dump_line(report.to_json_dict()))
            out.flush()
            yield report

    with _output(args.output) as out:
        summary = classify_trend(written(
            _reports(args, records, window, origin, families)))
        config = _run_config(args, command, origin, families)
        if summary["runs"]:  # the first window starts at the engine's origin
            config["origin"] = summary["runs"][0]["from"]
        out.write(_dump_line({"config": config, "summary": summary}))
    return EXIT_OK


def _by_time(records: Iterable[CaseRecord]) -> Iterator[CaseRecord]:
    """The records in a stable sort by timestamp, read on the first
    request for one."""
    yield from sorted(records, key=attrgetter("timestamp"))


def cmd_analyze(args) -> int:
    from .records import parse_timestamp

    families = _flag(parse_families, args.families)
    window = _flag(parse_window_flag, args.window)
    origin = _flag(parse_timestamp, args.origin or None)
    if window is not None:
        return _write_windowed(args, "analyze", _by_time(_records_of(args)),
                               window, origin, families)
    report = _whole_stream_report(args, _records_of(args), families)
    report["config"] = _run_config(args, "analyze", None, families)
    with _output(args.output) as out:
        out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return EXIT_OK


def cmd_stream(args) -> int:
    from .records import parse_timestamp

    families = _flag(parse_families, args.families)
    window = _flag(parse_window_flag, args.window)
    if window is None:
        raise _CliError(EXIT_USAGE,
                        "stream needs a windowed --window "
                        "(tumbling:<dur> or cumulative:<dur>)")
    origin = _flag(parse_timestamp, args.origin or None)
    return _write_windowed(args, "stream", _records_of(args), window, origin,
                           families)


def cmd_simulate(args) -> int:
    from .sim import SimConfig

    if args.input:
        text = _read_text(args.input)
        try:
            config = SimConfig.from_json(text)
        except (ValueError, KeyError, RecursionError) as exc:
            raise _CliError(EXIT_USAGE, f"invalid sim config: {exc}") from None
    else:
        config = SimConfig.from_json({})
    if args.seed is not None:
        try:
            config = config.replace(seed=args.seed)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc)) from None

    network = _module.generate_network(config)
    records = _module.simulate_outbreak(network, config)
    with _output(args.output) as out:
        _module.write_stream(records, out, args.format)
    return EXIT_OK


def _looks_like_report(text: str) -> dict | None:
    """The report the text holds, or None for records. A leading
    byte-order mark is dropped, as ``read_stream`` drops it, before or
    after leading whitespace."""
    stripped = text.lstrip().removeprefix("\ufeff").lstrip()
    if not stripped.startswith("{"):
        return None
    try:
        obj = json.loads(stripped)
    except (ValueError, RecursionError):  # a long integer, deep nesting
        return None
    if isinstance(obj, dict) and "n_vertices" in obj:
        return obj
    return None


def cmd_plot(args) -> int:
    """Render a whole-stream report; a record file is first turned into
    the report analyze --window all would write for it. A report the plot
    cannot be drawn from is exit 2, and one with nothing to draw exit 65."""
    from .plot import EmptyDistribution

    families = _flag(parse_families, args.families)
    text = _read_text(args.input)
    report = _looks_like_report(text)
    if report is None:
        report = _whole_stream_report(
            args, _records_of(args, io.StringIO(text)), families)
    pairs = report.get("degree_pmf")
    if pairs is None:
        raise _CliError(EXIT_INPUT,
                        "report carries no degree_pmf; generate it with "
                        "analyze --window all")
    try:
        pmf = {d: float(p) for d, p in pairs if type(d) is int and d >= 0
               and type(p) in (int, float) and 0 <= p <= 1}
        if len(pmf) != len(pairs):  # a pair left out above, or a degree twice
            raise ValueError(pairs)
        classification = report.get("classification")
        fits = list(classification["fits"]) if classification else []
    except (KeyError, TypeError, ValueError):
        raise _CliError(EXIT_INPUT, "malformed report: degree_pmf must be "
                        "[degree, probability] pairs, degrees distinct "
                        "integers from 0 and probabilities in [0, 1], and "
                        "classification null or an object with a list of "
                        "fits") from None
    try:
        svg = _module.render_degree_plot(pmf, fits, log_scale=args.log_log)
    except EmptyDistribution as exc:
        raise _CliError(EXIT_EMPTY, str(exc)) from None
    # a fit that cannot be drawn, or a degree past float range
    except (ValueError, OverflowError) as exc:
        raise _CliError(EXIT_INPUT, f"malformed report: {exc}") from None
    with _output(args.output) as out:
        out.write(svg)
    return EXIT_OK


def _flag(parse, text: str | None):
    """``parse(text)``, or None for an absent flag; a bad value is a
    usage error."""
    try:
        return None if text is None else parse(text)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from None


def _add_io_flags(sub) -> None:
    sub.add_argument("--input", help="input path; - or absent for stdin")
    sub.add_argument("--output", help="output path; - or absent for stdout")
    sub.add_argument("--format", choices=["csv", "jsonl"], default="csv",
                     help="record format (default csv)")
    sub.add_argument("--strict", action="store_true",
                     help="fail on the first malformed line or bad link")


def _add_fit_flags(sub) -> None:
    sub.add_argument("--families", default="exp,norm,pois,pl",
                     help="comma-separated: exp, norm, pois, pl")
    sub.add_argument("--rule", choices=list(RULES), default="min-se",
                     help="selection rule (default min-se)")
    sub.add_argument("--include-isolated", action="store_true",
                     dest="include_isolated",
                     help="keep zero-degree vertices in the fit sample")


def _add_window_flags(sub, default_window: str) -> None:
    sub.add_argument("--window", default=default_window,
                     help="all, tumbling:<dur>, or cumulative:<dur>; "
                          "durations like 15m, 1h, 1d "
                          f"(default {default_window})")
    sub.add_argument("--origin", help="window origin instant (default: "
                                      "midnight UTC of the first record's day)")


def build_parser() -> _Parser:
    parser = _Parser(prog="outbreaklens",
                     description="Recognize the time-varying structure of an "
                                 "outbreak contact network from case records.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="batch analysis of a "
                                  "record file; one report per window")
    _add_io_flags(analyze)
    _add_window_flags(analyze, "all")
    _add_fit_flags(analyze)
    analyze.set_defaults(handler=cmd_analyze)

    stream = commands.add_parser("stream", help="incremental windowed "
                                 "analysis, reports emitted as windows close")
    _add_io_flags(stream)
    _add_window_flags(stream, "tumbling:1d")
    _add_fit_flags(stream)
    stream.set_defaults(handler=cmd_stream)

    simulate = commands.add_parser("simulate", help="generate a synthetic "
                                   "outbreak record stream")
    simulate.add_argument("--input", help="SimConfig JSON path (optional)")
    simulate.add_argument("--output", help="output path; - or absent for stdout")
    simulate.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    simulate.add_argument("--seed", type=int, help="override the config seed")
    simulate.set_defaults(handler=cmd_simulate)

    plot = commands.add_parser("plot", help="render the degree distribution "
                               "and fitted curves as SVG")
    _add_io_flags(plot)
    _add_fit_flags(plot)
    plot.add_argument("--log-log", action="store_true", dest="log_log",
                      help="log-log axes instead of linear")
    plot.set_defaults(handler=cmd_plot)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        return args.handler(args)
    except _CliError as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:  # stderr's reader has gone too
            _discard(sys.stderr)
        return exc.code


def run() -> None:
    """The process entry point: ``main`` with the cyclic collector
    paused, then what is left frozen, so neither the run nor the
    interpreter's exit walks the heap. No command makes a cycle per
    record, line or window, so the cycles a command leaves, its
    argument parser among them, do not grow with its input."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
