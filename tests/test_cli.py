"""Command-line behavior: flags, formats, exit codes, output shapes."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import select
import subprocess
import sys
import time
import weakref
from datetime import datetime, timedelta
from pathlib import Path
from unittest import mock

import pytest

from conftest import SEED42_CSV_SHA256, SRC, run_cli_subprocess
from outbreaklens.cli import (
    EXIT_EMPTY,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    parse_duration,
    parse_families,
    parse_window_flag,
)
from outbreaklens.engine import StructureReport
from outbreaklens.records import parse_timestamp

TINY = """case_id,source_id,date,longitude,latitude
A,,2014-03-01,0,0
B,A,2014-03-02,0.5,0.5
C,B,2014-03-02T12:00:00Z,1.0,1.0
D,B,2014-03-04,1.5,1.5
"""

DANGLING = TINY + "E,GHOST,2014-03-05,2,2\n"

# C names B, which is reported an hour later; F names a source that
# never arrives. Both links are dropped with a warning.
BAD_LINKS = """case_id,source_id,date,longitude,latitude
A,,2014-03-01T00:00:00Z,0,0
C,B,2014-03-01T01:00:00Z,0,0
B,A,2014-03-01T02:00:00Z,0,0
D,B,2014-03-01T03:00:00Z,0,0
E,B,2014-03-01T04:00:00Z,0,0
F,Z,2014-03-01T05:00:00Z,0,0
"""

USAGE_ERRORS = [
    ("--window", "rolling:1d"),
    ("--window", "tumbling:5w"),
    ("--families", "weibull"),
    ("--origin", "notadate", "--window", "tumbling:1d"),
    ("--window", "cumulative:0m"),
    ("--window", "tumbling:9999999999d"),  # past the longest timedelta
]


# --- flag parsing helpers ---------------------------------------------------


@pytest.mark.parametrize("text,expected", [
    ("15m", timedelta(minutes=15)),
    ("1h", timedelta(hours=1)),
    ("1d", timedelta(days=1)),
    ("90s", timedelta(seconds=90)),
])
def test_parse_duration(text, expected):
    assert parse_duration(text) == expected


@pytest.mark.parametrize("text", ["", "5", "m5", "5w", "1.5h", "h", "0d",
                                  "9999999999d", "99999999999999999999s",
                                  "\uff11d", "\u0661d"])
def test_parse_duration_rejects(text):
    with pytest.raises(ValueError):
        parse_duration(text)


def test_parse_window_flag():
    assert parse_window_flag("all") is None
    assert parse_window_flag("tumbling:15m") == ("tumbling", timedelta(minutes=15))
    assert parse_window_flag("cumulative:1d") == ("cumulative", timedelta(days=1))
    for bad in ("rolling:1d", "tumbling", "tumbling:", "all:1d"):
        with pytest.raises(ValueError):
            parse_window_flag(bad)


def test_parse_families_aliases_and_order():
    assert parse_families("exp,pl") == ("exponential", "power-law")
    assert parse_families("pl exp") == ("exponential", "power-law")
    assert parse_families("norm,norm") == ("normal",)
    assert parse_families("power-law") == ("power-law",)
    for bad in ("", "weibull", "exp,weibull"):
        with pytest.raises(ValueError):
            parse_families(bad)


# --- analyze ----------------------------------------------------------------


def test_analyze_whole_stream_json(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    code, out, err = cli("analyze", "--input", str(src), "--window", "all")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["n_vertices"] == 4
    assert obj["n_edges"] == 3
    assert obj["mean_degree"] == pytest.approx(1.5)
    assert obj["config"]["command"] == "analyze"
    assert obj["config"]["families"] == ["exponential", "normal", "poisson",
                                         "power-law"]
    # degrees 1, 3, 1, 1: each degree's share, in ascending degree order
    assert obj["degree_pmf"] == [[1, 0.75], [3, 0.25]]
    src.write_text(TINY.splitlines()[0] + "\n", encoding="utf-8")
    code, out, _ = cli("analyze", "--input", str(src), "--window", "all")
    assert code == EXIT_OK
    assert json.loads(out)["degree_pmf"] == []


def test_analyze_windowed_jsonl(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    code, out, err = cli("analyze", "--input", str(src),
                         "--window", "tumbling:1d")
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.splitlines()]
    reports, trailer = lines[:-1], lines[-1]
    assert trailer["summary"]["windows"] == len(reports) == 4
    assert [r["n_vertices"] for r in reports] == [1, 2, 0, 1]
    assert sum(run["length"] for run in trailer["summary"]["runs"]) == 4


def test_analyze_lenient_warns_then_succeeds(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(DANGLING, encoding="utf-8")
    code, out, err = cli("analyze", "--input", str(src), "--window", "all")
    assert code == EXIT_OK
    assert "GHOST" in err
    assert json.loads(out)["n_vertices"] == 5


def test_analyze_strict_rejects_dangling(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(DANGLING, encoding="utf-8")
    code, out, err = cli("analyze", "--input", str(src), "--window", "all",
                         "--strict")
    assert code == EXIT_INPUT
    assert "GHOST" in err


_TINY_JSONL = "".join(
    json.dumps(dict(zip(TINY.splitlines()[0].split(","), line.split(",")))) + "\n"
    for line in TINY.splitlines()[1:])


@pytest.mark.parametrize("text,format", [
    ("\n" + TINY, "csv"),                        # a blank line, then the header
    ("\ufeff" + TINY, "csv"),                    # a byte-order mark
    ("\ufeff" + _TINY_JSONL, "jsonl"),
], ids=["blank-then-header", "csv-bom", "jsonl-bom"])
@pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["lenient", "strict"])
def test_valid_record_file_reads_without_a_warning(cli, tmp_path, text,
                                                   format, strict):
    def report(content):  # both files at one path, so one config too
        src = tmp_path / "cases"
        src.write_bytes(content.encode("utf-8"))
        code, out, err = cli("analyze", "--input", str(src), "--format", format,
                             *strict)
        assert (code, err) == (EXIT_OK, "")
        return out

    assert report(text) == report(TINY if format == "csv" else _TINY_JSONL)


# values json.loads cannot hold: an integer past the 4,300-digit limit
# raises a plain ValueError, nesting past the recursion limit RecursionError
UNDECODABLE = {"long-integer": "9" * 5000, "deep-nesting": "[" * 100_000}


@pytest.mark.parametrize("value", UNDECODABLE.values(), ids=UNDECODABLE)
def test_undecodable_jsonl_line_is_a_parse_error(cli, tmp_path, value):
    src = tmp_path / "cases.jsonl"
    first, *rest = _TINY_JSONL.splitlines(keepends=True)
    src.write_text(first + f'{{"case_id": {value}}}\n' + "".join(rest),
                   encoding="utf-8")
    code, out, err = cli("analyze", "--input", str(src), "--format", "jsonl")
    assert code == EXIT_OK
    assert err.startswith("warning: line 2: invalid JSON: ")
    assert err.count("\n") == 1
    assert json.loads(out)["n_vertices"] == 4
    code, out, err = cli("analyze", "--input", str(src), "--format", "jsonl",
                         "--strict")
    assert code == EXIT_INPUT
    assert err.startswith("error: line 2: invalid JSON: ")


def test_long_integer_is_named_without_python_advice(cli, tmp_path):
    digits = sys.get_int_max_str_digits()
    holds = f"an integer of more than {digits} digits"
    src = tmp_path / "cases.jsonl"
    src.write_text(f'{{"case_id": {"9" * (digits + 1)}}}\n', encoding="utf-8")
    code, _, err = cli("analyze", "--input", str(src), "--format", "jsonl")
    assert (code, err) == (EXIT_OK,
                           f"warning: line 1: invalid JSON: {holds}\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"seed": {"9" * (digits + 1)}}}', encoding="utf-8")
    code, _, config_err = cli("simulate", "--input", str(cfg))
    assert (code, config_err) == (EXIT_USAGE,
                                  f"error: invalid sim config: {holds}\n")
    assert "set_int_max_str_digits" not in err + config_err


def test_long_duration_count_is_named_without_python_advice(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    code, out, err = cli("analyze", "--input", str(src),
                         "--window", f"tumbling:{'1' * 5000}d")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: bad duration ")
    assert err.count("\n") == 1
    assert "set_int_max_str_digits" not in err


def test_analyze_missing_file(cli):
    code, _, err = cli("analyze", "--input", "/no/such/file.csv")
    assert code == EXIT_INPUT
    assert "error" in err


@pytest.mark.parametrize("flags", USAGE_ERRORS)
def test_analyze_usage_errors(cli, tmp_path, flags):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    code, _, _ = cli("analyze", "--input", str(src), *flags)
    assert code == EXIT_USAGE


def test_bad_rule_flag_is_usage_error(cli):
    code, _, _ = cli("analyze", "--rule", "bic")
    assert code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(cli):
    assert cli("prophesy")[0] == EXIT_USAGE
    assert cli()[0] == EXIT_USAGE


def test_version_flag(cli):
    code, out, _ = cli("--version")
    assert code == EXIT_OK
    assert out.strip()


# --- stream -----------------------------------------------------------------


def test_stream_reads_stdin_and_reports(cli):
    code, out, err = cli("stream", "--window", "tumbling:1d", stdin=TINY)
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["config"]["command"] == "stream"
    assert lines[-1]["summary"]["windows"] == 4


def test_stream_matches_analyze_report_lines(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    _, via_analyze, _ = cli("analyze", "--input", str(src),
                            "--window", "cumulative:1d")
    _, via_stream, _ = cli("stream", "--input", str(src),
                           "--window", "cumulative:1d")
    # identical reports; only the trailing config line names the command
    assert via_analyze.splitlines()[:-1] == via_stream.splitlines()[:-1]


def test_stream_keeps_no_written_report(cli, tmp_path):
    hours = 500
    src = tmp_path / "cases.csv"
    src.write_text("case_id,source_id,date,longitude,latitude\n" + "".join(
        f"C{i},{f'C{i - 1}' if i else ''},"
        f"{datetime(2014, 3, 1) + timedelta(hours=i):%Y-%m-%dT%H:%M:%SZ},0,0\n"
        for i in range(hours)), encoding="utf-8")
    refs = []
    alive = []  # per written report: how many reports before its predecessor live
    to_json_dict = StructureReport.to_json_dict

    def serialize(report):
        alive.append(sum(ref() is not None for ref in refs[:-1]))
        refs.append(weakref.ref(report))
        return to_json_dict(report)

    with mock.patch.object(StructureReport, "to_json_dict", serialize):
        code, out, _ = cli("stream", "--input", str(src),
                           "--window", "tumbling:1h")
    assert code == EXIT_OK
    assert json.loads(out.splitlines()[-1])["summary"]["windows"] == hours
    assert alive == [0] * hours


@pytest.mark.parametrize("flags", USAGE_ERRORS)
def test_stream_usage_errors(cli, tmp_path, flags):
    src = tmp_path / "cases.csv"
    src.write_text(BAD_LINKS, encoding="utf-8")
    code, out, err = cli("stream", "--input", str(src), *flags)
    assert code == EXIT_USAGE
    assert out == ""
    assert "warning" not in err  # rejected before any input is read


@pytest.mark.parametrize("window", ["tumbling:1d", "cumulative:1d"])
def test_stream_and_analyze_apply_the_same_link_rules(cli, tmp_path, window):
    src = tmp_path / "cases.csv"
    src.write_text(BAD_LINKS, encoding="utf-8")
    _, via_analyze, analyze_err = cli("analyze", "--input", str(src),
                                      "--window", window)
    _, via_stream, stream_err = cli("stream", "--input", str(src),
                                    "--window", window)
    assert via_analyze.splitlines()[:-1] == via_stream.splitlines()[:-1]
    (report,) = [json.loads(line) for line in via_stream.splitlines()[:-1]]
    assert (report["n_edges"], report["fitting_n"]) == (3, 4)
    assert analyze_err == stream_err
    warnings = stream_err.splitlines()
    assert len(warnings) == 2
    assert "'B' is reported after case 'C'" in warnings[0]
    assert "'Z' of case 'F' matches no record" in warnings[1]


def test_stream_strict_rejects_dangling_at_end_of_stream(cli):
    code, out, err = cli("stream", "--window", "tumbling:1d", "--strict",
                         stdin=DANGLING)
    assert code == EXIT_INPUT
    assert "GHOST" in err
    # E's arrival closed days 0-3; those reports stay, no summary follows
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 4
    assert all("n_vertices" in line for line in lines)


@pytest.mark.parametrize("command", ["analyze", "stream", "plot", "simulate"])
def test_undecodable_input_is_an_input_error(cli, tmp_path, command):
    src = tmp_path / "cases.csv"
    src.write_bytes(TINY.encode("utf-8") + b"E,D,2014-03-05,\xff,0\n")
    windowed = (("--window", "tumbling:1d") if command in ("analyze", "stream")
                else ())
    code, _, err = cli(command, "--input", str(src), *windowed)
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and "utf-8" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
@pytest.mark.parametrize("command", ["analyze", "stream", "plot", "simulate"])
def test_every_command_names_an_unreadable_input(cli, tmp_path, command,
                                                 kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"C1,,2014-03-01,\xff,0\n")
    code, out, err = cli(command, "--input", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"error: cannot read {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "stream", "plot", "simulate"])
def test_unwritable_output_is_an_input_error(cli, tmp_path, command):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    target = tmp_path / "missing" / "x.out"
    argv = {"analyze": ("--input", str(src)),
            "stream": ("--input", str(src), "--window", "tumbling:1d"),
            "plot": ("--input", str(src)),
            "simulate": ()}[command]
    code, out, err = cli(command, *argv, "--output", str(target))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


class _ClosedAt(io.StringIO):
    """A stdout whose reader has gone by the time ``text`` is written."""

    def __init__(self, text):
        super().__init__()
        self.text = text

    def write(self, text):
        if self.text in text:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("command,argv,closed_at", [
    pytest.param("analyze", ("--window", "tumbling:1d"), '"summary"',
                 id="analyze"),
    pytest.param("stream", ("--window", "tumbling:1d"), '"summary"',
                 id="stream"),
    pytest.param("analyze", ("--window", "all"), '"config"',
                 id="analyze-all"),
    pytest.param("plot", (), "</svg>", id="plot"),
    pytest.param("simulate", (), "2014-", id="simulate"),
])
def test_stdout_closed_before_the_summary_is_an_error_exit(
        cli, tmp_path, monkeypatch, command, argv, closed_at):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    monkeypatch.setattr("sys.stdout", _ClosedAt(closed_at))
    source = () if command == "simulate" else ("--input", str(src))
    code, _, err = cli(command, *source, *argv)
    assert code == EXIT_INPUT
    assert err == "error: [Errno 32] Broken pipe\n"


def _spawn(*argv, stdin=subprocess.DEVNULL,
           stderr=subprocess.PIPE) -> subprocess.Popen:
    """The real entry point with stdout (and by default stderr) on pipes
    and the interpreter's own stdout buffering, which PYTHONUNBUFFERED
    would turn off and so hide a report held back in it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "outbreaklens", *argv],
                            stdin=stdin, stdout=subprocess.PIPE,
                            stderr=stderr, env=env)


def _first_line(pipe, timeout: float = 10.0) -> bytes:
    """The first line read from ``pipe``, or what had come when
    ``timeout`` seconds passed without one, so a test cannot hang."""
    fd, data = pipe.fileno(), b""
    deadline = time.monotonic() + timeout
    while b"\n" not in data:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            break
        chunk = os.read(fd, 65536)
        if not chunk:
            break
        data += chunk
    return data.split(b"\n")[0]


def test_stream_hands_a_report_to_a_pipe_as_its_window_closes():
    # day-1 records and one day-2 record close the first window; stdin
    # stays open, so nothing but the report's own flush can deliver it
    fed = "".join(TINY.splitlines(keepends=True)[:3])
    proc = _spawn("stream", "--window", "tumbling:1d", stdin=subprocess.PIPE)
    try:
        proc.stdin.write(fed.encode("utf-8"))
        proc.stdin.flush()
        line = _first_line(proc.stdout)
    finally:
        proc.kill()
        proc.communicate()
    code, out, _ = run_cli_subprocess("analyze", "--window", "tumbling:1d",
                                      stdin=fed)
    assert code == EXIT_OK
    assert line.decode("utf-8") == out.splitlines()[0]


@pytest.mark.parametrize("command,window", [
    ("stream", "tumbling:1d"), ("stream", "cumulative:1d"),
    ("analyze", "tumbling:1d")])
def test_a_reader_that_goes_away_is_one_error_line(tmp_path, command,
                                                   window):
    src = tmp_path / "cases.csv"
    # ten years of daily reports: far more than a pipe holds
    src.write_text("case_id,source_id,date,longitude,latitude\n"
                   "A,,2014-01-01,0,0\nB,,2024-01-01,0,0\n",
                   encoding="utf-8")
    proc = _spawn(command, "--window", window, "--input", str(src))
    try:
        assert _first_line(proc.stdout).startswith(b'{"')
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == EXIT_INPUT
    assert err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("command,window", [
    ("stream", "tumbling:1d"), ("analyze", "tumbling:1d"), ("analyze", "all")])
def test_a_stderr_reader_that_goes_away_is_exit_2(tmp_path, command, window):
    src = tmp_path / "bad.csv"
    # a warning per line: far more than a pipe holds
    src.write_text("case_id,source_id,date,longitude,latitude\n"
                   + "not a record\n" * 20000, encoding="utf-8")
    proc = _spawn(command, "--window", window, "--input", str(src))
    try:
        assert _first_line(proc.stderr).startswith(b"warning: line 2: ")
        proc.stderr.close()
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == EXIT_INPUT
    assert out == b""


def test_an_error_line_with_no_stderr_reader_is_exit_2(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _spawn("analyze", "--input", str(tmp_path / "missing.csv"),
                      stderr=write_end)
    finally:
        os.close(write_end)
    try:
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == EXIT_INPUT
    assert out == b""


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("prophesy",), ("analyze", "--rule", "nope")],
                         ids=["unknown-command", "bad-choice"])
def test_a_usage_error_with_no_stderr_reader_is_exit_64(argv, unbuffered):
    # buffered, the usage text would fail again at exit's flush (exit 120);
    # unbuffered, Python 3.10's argparse would let the failed write out
    # (exit 1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "outbreaklens", *argv],
                              stdout=subprocess.PIPE, stderr=write_end,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == b""


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [("--version",), ("--help",),
                                  ("simulate", "--help")],
                         ids=["version", "help", "simulate-help"])
def test_help_and_version_with_no_stdout_reader_are_exit_2(argv, unbuffered):
    # buffered, the text would fail at exit's flush (exit 120); unbuffered,
    # argparse would swallow the failed write (exit 0)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "outbreaklens", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command,argv", [
    ("stream", ("--window", "tumbling:1d")),
    ("analyze", ("--window", "tumbling:1d")),
    ("analyze", ("--window", "all")),
    ("plot", ()),
])
def test_a_full_output_file_is_one_error_line(cli, outbreak_csv, command,
                                              argv):
    code, out, err = cli(command, "--input", str(outbreak_csv), *argv,
                         "--output", "/dev/full")
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: [Errno 28] ") and err.count("\n") == 1


def test_warnings_come_out_as_the_engine_raises_them(cli, monkeypatch):
    lines = ["A,,2014-03-01,0,0", "B,,2014-03-03,0,0",
             "C,,2014-03-02,0,0",  # B closed C's window: late
             "D,,2014-03-04,0,0"]
    stderr = io.StringIO()
    read_after = []  # what stderr held as each line was read

    def feed():
        for line in lines:
            read_after.append(stderr.getvalue())
            yield line + "\n"

    monkeypatch.setattr("sys.stdin", feed())
    monkeypatch.setattr("sys.stderr", stderr)
    code, _, _ = cli("stream", "--window", "tumbling:1d")
    assert code == EXIT_OK
    late = "case 'C' arrived after its window closed"
    assert late not in read_after[2]
    assert late in read_after[3]


def test_whole_stream_computes_no_window_end(cli):
    code, out, err = cli("analyze", "--window", "all",
                         stdin=TINY + "E,D,9999-12-31T23:59:59Z,0,0\n")
    assert code == EXIT_OK, err
    assert json.loads(out)["n_edges"] == 4


LAST_DAY = "B,,9999-12-31T23:59:59Z,0,0\n"  # its day's window ends past year 9999


@pytest.mark.parametrize("command,window", [("stream", "tumbling:1d"),
                                            ("analyze", "cumulative:1d")])
@pytest.mark.parametrize("first,end", [
    ("A,,9999-12-30T00:00:00Z,0,0\n", "9999-12-31T00:00:00Z"),
    ("A,,2014-03-01,0,0\n", "2014-03-02T00:00:00Z"),
], ids=["day-before", "from-2014"])
def test_window_past_the_last_instant_drops_the_record(cli, command, window,
                                                       first, end):
    # the record opens no window, so it closes none: no window end
    # overflows and no window between the two records is emitted
    code, out, err = cli(command, "--window", window, stdin=first + LAST_DAY)
    assert code == EXIT_OK, err
    assert err == ("warning: the window of case 'B' would end after "
                   "9999-12-31T23:59:59Z; dropped\n")
    *reports, summary = [json.loads(line) for line in out.splitlines()]
    assert [r["window"]["end"] for r in reports] == [end]
    assert reports[0]["n_vertices"] == 1
    assert summary["summary"]["windows"] == 1

    code, out, err = cli(command, "--window", window, "--strict",
                         stdin=first + LAST_DAY)
    assert code == EXIT_INPUT
    assert err == ("error: the window of case 'B' would end after "
                   "9999-12-31T23:59:59Z\n")


@pytest.mark.parametrize("command,window", [("stream", "tumbling:1d"),
                                            ("analyze", "cumulative:1d")])
def test_a_feed_of_only_a_record_past_the_last_instant_has_no_window(
        cli, command, window):
    # the record opens no window, so the flush has none to report
    code, out, err = cli(command, "--window", window, stdin=LAST_DAY)
    assert code == EXIT_OK, err
    assert err == ("warning: the window of case 'B' would end after "
                   "9999-12-31T23:59:59Z; dropped\n")
    (summary,) = [json.loads(line) for line in out.splitlines()]
    assert summary["summary"]["windows"] == 0

    code, out, err = cli(command, "--window", window, "--strict",
                         stdin=LAST_DAY)
    assert code == EXIT_INPUT
    assert err == ("error: the window of case 'B' would end after "
                   "9999-12-31T23:59:59Z\n")


def test_stream_requires_a_windowed_mode(cli):
    code, _, err = cli("stream", "--window", "all", stdin=TINY)
    assert code == EXIT_USAGE


def test_stream_flushes_partial_results_on_bad_input(cli):
    bad = ("A,,2014-03-01,0,0\n"
           "B,,2014-03-03,0,0\n"
           "A,,2014-03-03T12:00:00Z,0,0\n")  # duplicate id
    for command in ("stream", "analyze"):
        code, out, err = cli(command, "--window", "tumbling:1d", stdin=bad)
        assert code == EXIT_INPUT
        assert "duplicate" in err
        flushed = [json.loads(line) for line in out.splitlines()]
        assert len(flushed) == 2  # windows closed before the error came out
        assert all("n_vertices" in r for r in flushed)


def test_stream_strict_stops_on_parse_error(cli):
    bad = "A,,2014-03-01,0,0\nnot,a,record\n"
    code, _, err = cli("stream", "--window", "tumbling:1d", "--strict",
                       stdin=bad)
    assert code == EXIT_INPUT


# --- simulate -----------------------------------------------------------------


def test_simulate_default_config(cli):
    code, out, _ = cli("simulate")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "case_id,source_id,date,longitude,latitude"
    assert len(lines) > 1


def test_simulate_jsonl_output(cli, sim_config_path):
    code, out, _ = cli("simulate", "--input", str(sim_config_path),
                       "--format", "jsonl")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 1000
    first = json.loads(lines[0])
    assert first["source_id"] is None


def test_simulate_seed_override_changes_stream(cli, sim_config_path):
    _, a, _ = cli("simulate", "--input", str(sim_config_path))
    _, b, _ = cli("simulate", "--input", str(sim_config_path), "--seed", "43")
    _, c, _ = cli("simulate", "--input", str(sim_config_path), "--seed", "42")
    assert a != b
    assert a == c  # the fixture config already says seed 42


# Digests of the simulator's stdout; they pin every coordinate's repr and
# every timestamp's text.
SEED42_JSONL_SHA256 = \
    "43c7c1680fa86e5fc38c4827d8aa052548b224d42a775468fa6be9f505c7e750"
SEED42_UNIFORM_CSV_SHA256 = \
    "e1f522590f4cb0c03be06db5b48a64b14308fedda5388d79eb1323ffb661d5d4"


def _simulate_stdout(config_path, *flags) -> bytes:
    """The real entry point's stdout as bytes: run_cli_subprocess decodes
    text with universal newlines, which would hide a stray carriage return."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "outbreaklens", "simulate",
                           "--input", str(config_path), *flags],
                          capture_output=True, env=env, check=True)
    return proc.stdout


def test_simulate_prints_the_fixture_bytes(sim_config_path):
    csv_bytes = _simulate_stdout(sim_config_path)
    assert hashlib.sha256(csv_bytes).hexdigest() == SEED42_CSV_SHA256


def test_simulate_output_digests(sim_config_path, tmp_path):
    jsonl = _simulate_stdout(sim_config_path, "--format", "jsonl")
    assert hashlib.sha256(jsonl).hexdigest() == SEED42_JSONL_SHA256
    config = json.loads(sim_config_path.read_text(encoding="utf-8"))
    uniform = tmp_path / "uniform.json"
    uniform.write_text(json.dumps(dict(config, topology="uniform-attachment")),
                       encoding="utf-8")
    csv_bytes = _simulate_stdout(uniform)
    assert hashlib.sha256(csv_bytes).hexdigest() == SEED42_UNIFORM_CSV_SHA256


def test_simulate_rejects_bad_config(cli, tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"p_transmit": 2.0}', encoding="utf-8")
    assert cli("simulate", "--input", str(bad))[0] == EXIT_USAGE
    bad.write_text('{"n_steps": 5, "mystery": 1}', encoding="utf-8")
    assert cli("simulate", "--input", str(bad))[0] == EXIT_USAGE
    bad.write_text("not json", encoding="utf-8")
    assert cli("simulate", "--input", str(bad))[0] == EXIT_USAGE


@pytest.mark.parametrize("value", UNDECODABLE.values(), ids=UNDECODABLE)
def test_simulate_rejects_undecodable_config(cli, tmp_path, value):
    bad = tmp_path / "cfg.json"
    bad.write_text(f'{{"seed": {value}}}', encoding="utf-8")
    code, _, err = cli("simulate", "--input", str(bad))
    assert code == EXIT_USAGE
    assert err.startswith("error: invalid sim config: ")


@pytest.mark.parametrize("config", [
    pytest.param('{"n_population": 2.5}', id="n_population-float"),
    pytest.param('{"n_population": true}', id="n_population-bool"),
    pytest.param('{"n_steps": 1e3}', id="n_steps-float"),
    pytest.param('{"n_steps": "10"}', id="n_steps-string"),
    pytest.param('{"seed": 1.5}', id="seed-float"),
    pytest.param('{"p_transmit": "0.1"}', id="p_transmit-string"),
    pytest.param('{"jitter_km": null}', id="jitter_km-null"),
    pytest.param('{"index_cases": [{"region": []}]}', id="region-array"),
    pytest.param('{"index_cases": [{"longitude": null, "latitude": 1}]}',
                 id="longitude-null"),
    pytest.param('{"index_cases": [{"longitude": true, "latitude": 1}]}',
                 id="longitude-bool"),
    pytest.param('{"index_cases": [{"longitude": "1_0", "latitude": 1}]}',
                 id="longitude-digit-separator"),
])
def test_simulate_rejects_a_config_field_of_the_wrong_type(cli, tmp_path,
                                                           config):
    path = tmp_path / "cfg.json"
    path.write_text(config, encoding="utf-8")
    code, out, err = cli("simulate", "--input", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: invalid sim config: ")
    assert err.count("\n") == 1


def test_simulate_rejects_a_jitter_km_at_which_a_draw_could_overflow(cli,
                                                                      tmp_path):
    # at 1.7e308 a normal draw overflows to inf, and a longitude to nan
    path = tmp_path / "cfg.json"
    config = {"n_population": 50, "p_transmit": 1.0, "n_steps": 5}
    path.write_text(json.dumps({**config, "jitter_km": 1.7e308}),
                    encoding="utf-8")
    assert cli("simulate", "--input", str(path)) == (
        EXIT_USAGE, "", "error: invalid sim config: jitter_km must lie in "
                        "[0, 1e300]\n")
    path.write_text(json.dumps({**config, "jitter_km": 1e300}),
                    encoding="utf-8")
    cases = tmp_path / "cases.csv"
    assert cli("simulate", "--input", str(path), "--output", str(cases)) \
        == (EXIT_OK, "", "")
    code, out, err = cli("analyze", "--input", str(cases), "--strict")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["n_vertices"] > 1


@pytest.mark.parametrize("config", [
    '{"n_steps": 3000000}',
    '{"n_steps": 1000000000000000000000000000000}',
    '{"n_steps": 5, "index_cases": [{"region": "Conakry", '
    '"start": "9999-12-31"}]}',
], ids=["from-2014", "past-the-longest-timedelta", "from-the-last-day"])
def test_simulate_rejects_a_run_past_the_last_date(cli, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(config, encoding="utf-8")
    assert cli("simulate", "--input", str(path)) == (
        EXIT_USAGE, "", "error: invalid sim config: the run's last day falls "
                        "after 9999-12-31; lower n_steps or start earlier\n")
    # a run that ends on the last date is simulated
    path.write_text('{"n_steps": 5, "index_cases": [{"region": "Conakry", '
                    '"start": "9999-12-26"}]}', encoding="utf-8")
    code, out, err = cli("simulate", "--input", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1].startswith("C000001,,9999-12-26T00:00:00Z,")


def test_a_run_before_year_1000_reads_back(cli, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text('{"n_population": 200, "n_steps": 20, "index_cases": '
                      '[{"region": "Conakry", "start": "0500-03-01"}]}',
                      encoding="utf-8")
    cases = tmp_path / "cases.csv"
    assert cli("simulate", "--input", str(config), "--output", str(cases)) \
        == (EXIT_OK, "", "")
    lines = cases.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("C000001,,0500-03-01T00:00:00Z,")
    code, out, err = cli("analyze", "--input", str(cases), "--window", "all")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["n_vertices"] == len(lines) - 1
    code, out, err = cli("stream", "--input", str(cases), "--window",
                         "tumbling:2d")
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out.splitlines()[0])["window"] == {
        "start": "0500-03-01T00:00:00Z", "end": "0500-03-03T00:00:00Z"}


def test_simulate_rejects_bad_seed_override(cli):
    assert cli("simulate", "--seed", "-1")[0] == EXIT_USAGE


# --- plot ---------------------------------------------------------------------


def test_plot_from_records(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    code, out, _ = cli("plot", "--input", str(src))
    assert code == EXIT_OK
    assert out.startswith("<svg ")
    assert 'data-scale="linear"' in out


def test_plot_log_log(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    code, out, _ = cli("plot", "--input", str(src), "--log-log")
    assert code == EXIT_OK
    assert 'data-scale="log10"' in out


def test_plot_from_analyze_report(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    report_path = tmp_path / "report.json"
    cli("analyze", "--input", str(src), "--window", "all",
        "--output", str(report_path))
    code, out, _ = cli("plot", "--input", str(report_path))
    assert code == EXIT_OK
    assert out.startswith("<svg ")


def test_plot_log_log_survives_an_underflowing_fit_tail(cli, tmp_path):
    # the normal curve's far tail underflows to subnormals; halving the
    # smallest of them once gave a zero y floor and "math domain error"
    report = {
        "n_vertices": 40, "n_edges": 39,
        "degree_pmf": [[1, 0.5], [2, 0.3], [3, 0.1], [136, 0.1]],
        "classification": {"chosen": "normal", "rule": "min-se", "fits": [
            {"family": "normal", "params": {"mu": 2.0, "sigma": 3.4}}]},
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, out, err = cli("plot", "--input", str(path), "--log-log")
    assert code == EXIT_OK, err
    assert out.count("<circle data-degree=") == 4
    # the y floor is half the smallest empirical probability
    assert f'data-y0="{math.log10(0.05)!r}"' in out


def test_plot_log_log_of_the_smallest_subnormal_probability(cli, tmp_path):
    # half of 5e-324 is 0, so the y floor is 5e-324 itself
    report = {"n_vertices": 2, "degree_pmf": [[1, 1.0], [2, 5e-324]]}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, out, err = cli("plot", "--input", str(path), "--log-log")
    assert (code, err) == (EXIT_OK, "")
    assert out.count("<circle data-degree=") == 2
    assert f'data-y0="{math.log10(5e-324)!r}"' in out


@pytest.mark.parametrize("change", [
    pytest.param({"degree_pmf": [[10 ** 400, 1.0]]}, id="degree"),
    pytest.param({"classification": {"fits": [
        {"family": "poisson", "params": {"lambda": 10 ** 400}}]}},
        id="poisson-lambda"),
    pytest.param({"classification": {"fits": [
        {"family": "normal", "params": {"mu": 10 ** 400, "sigma": 1.0}}]}},
        id="normal-mu"),
])
@pytest.mark.parametrize("scale", [(), ("--log-log",)], ids=["linear", "log"])
def test_plot_of_an_integer_past_float_range_is_input_error(cli, tmp_path,
                                                            change, scale):
    report = {"n_vertices": 2, "degree_pmf": [[1, 1.0]], **change}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, out, err = cli("plot", "--input", str(path), *scale)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: malformed report: ")
    assert err.count("\n") == 1


def test_plot_report_without_pmf_is_input_error(cli, tmp_path):
    report = {"n_vertices": 4, "n_edges": 3}  # windowed reports carry no pmf
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    code, _, err = cli("plot", "--input", str(path))
    assert code == EXIT_INPUT
    assert "degree_pmf" in err


@pytest.mark.parametrize("value", UNDECODABLE.values(), ids=UNDECODABLE)
def test_plot_reads_undecodable_json_as_records(cli, tmp_path, value):
    # as any text that is not a JSON object: records, here none valid
    path = tmp_path / "report.json"
    path.write_text(f'{{"n_vertices": {value}}}\n', encoding="utf-8")
    undecodable = cli("plot", "--input", str(path))
    path.write_text('{"n_vertices": \n', encoding="utf-8")
    assert undecodable == cli("plot", "--input", str(path))
    assert undecodable[0] == EXIT_EMPTY


def test_plot_of_a_report_with_a_byte_order_mark(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY, encoding="utf-8")
    _, report, _ = cli("analyze", "--input", str(src), "--window", "all")
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    plain.write_text(report, encoding="utf-8")
    code, out, err = cli("plot", "--input", str(plain), "--log-log")
    assert (code, err) == (EXIT_OK, "")
    for lead in ("\ufeff", "\ufeff\n", "\n\ufeff"):
        marked.write_text(lead + report, encoding="utf-8")
        assert cli("plot", "--input", str(marked), "--log-log") == (
            EXIT_OK, out, ""), repr(lead)


@pytest.mark.parametrize("change", [
    pytest.param({"degree_pmf": [["a", 1]]}, id="pmf-degree-not-a-number"),
    pytest.param({"degree_pmf": 5}, id="pmf-not-a-list"),
    pytest.param({"degree_pmf": [[1, 0.5, 2]]}, id="pmf-pair-of-three"),
    pytest.param({"degree_pmf": [[math.inf, 1]]}, id="pmf-degree-infinite"),
    pytest.param({"degree_pmf": [[1.5, 0.5], [2, 0.5]]},
                 id="pmf-degree-not-an-integer"),
    pytest.param({"degree_pmf": [[1, 0.5], [1, 0.5]]},
                 id="pmf-degree-repeated"),
    pytest.param({"degree_pmf": [[True, 0.5], [2, 0.5]]},
                 id="pmf-degree-a-bool"),
    pytest.param({"degree_pmf": [["2", 0.5], [1, 0.5]]},
                 id="pmf-degree-a-string"),
    pytest.param({"degree_pmf": [[-1, 0.5], [2, 0.5]]},
                 id="pmf-degree-negative"),
    pytest.param({"degree_pmf": [[1, math.nan], [2, 0.5]]},
                 id="pmf-probability-nan"),
    pytest.param({"degree_pmf": [[1, math.inf]]},
                 id="pmf-probability-infinite"),
    pytest.param({"degree_pmf": [[1, "0.5"], [2, 0.5]]},
                 id="pmf-probability-a-string"),
    pytest.param({"degree_pmf": [[1, -0.5], [2, 0.5]]},
                 id="pmf-probability-negative"),
    pytest.param({"degree_pmf": [[1, 1.5]]}, id="pmf-probability-above-one"),
    pytest.param({"degree_pmf": [[1, True], [2, 0.5]]},
                 id="pmf-probability-a-bool"),
    pytest.param({"classification": 7}, id="classification-not-an-object"),
    pytest.param({"classification": {"chosen": "normal"}}, id="no-fits"),
    pytest.param({"classification": {"fits": [7]}}, id="fit-not-an-object"),
    pytest.param({"classification": {"fits": [{"family": "normal"}]}},
                 id="fit-without-params"),
    pytest.param({"classification": {"fits": [
        {"family": "zipf", "params": {"alpha": 2.0}}]}}, id="unknown-family"),
    pytest.param({"classification": {"fits": [
        {"family": "normal", "params": {"mu": 2.0}}]}}, id="missing-param"),
    pytest.param({"classification": {"fits": [
        {"family": "normal", "params": {"mu": 2.0, "sigma": 0.0}}]}},
        id="sigma-zero"),
    pytest.param({"classification": {"fits": [
        {"family": "power-law", "params": {"alpha": 1.0, "x_min": 1}}]}},
        id="alpha-at-one"),
    pytest.param({"classification": {"fits": [
        {"family": "power-law", "params": {"alpha": 1e12, "x_min": 2}}]}},
        id="power-law-normalizer-underflows"),
    pytest.param({"classification": {"fits": [
        {"family": "normal", "params": {"mu": 2.0, "sigma": 1e-310}}]}},
        id="density-past-float-range"),
    pytest.param({"classification": {"fits": [
        {"family": "poisson", "params": {"lambda": "2"}}]}},
        id="param-not-a-number"),
    pytest.param({"classification": {"fits": [
        {"family": "poisson", "params": {"lambda": True}}]}},
        id="param-a-bool"),
])
def test_plot_of_a_malformed_report_is_input_error(cli, tmp_path, change):
    report = {"n_vertices": 4, "n_edges": 3,
              "degree_pmf": [[1, 0.5], [2, 0.5]],
              "classification": {"chosen": "normal", "fits": [
                  {"family": "normal", "params": {"mu": 2.0, "sigma": 1.0}}]}}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert cli("plot", "--input", str(path))[0] == EXIT_OK
    path.write_text(json.dumps({**report, **change}), encoding="utf-8")
    code, out, err = cli("plot", "--input", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: malformed report: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("scale", [(), ("--log-log",)])
def test_plot_of_records_is_plot_of_their_report(cli, tmp_path, outbreak_csv,
                                                 sim_config_path, scale):
    simulated = tmp_path / "simulated.csv"
    assert cli("simulate", "--input", str(sim_config_path), "--seed", "7",
               "--output", str(simulated))[0] == EXIT_OK
    for records in (outbreak_csv, simulated):
        report = tmp_path / "report.json"
        cli("analyze", "--input", str(records), "--window", "all",
            "--output", str(report))
        code, from_records, _ = cli("plot", "--input", str(records), *scale)
        assert code == EXIT_OK
        assert cli("plot", "--input", str(report), *scale) == (
            EXIT_OK, from_records, "")


def test_plot_of_records_rejects_duplicate_ids(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(TINY + "A,,2014-03-05,0,0\n", encoding="utf-8")
    code, out, err = cli("plot", "--input", str(src))
    assert code == EXIT_INPUT
    assert out == ""
    assert err.startswith("error: duplicate case_id")


def test_plot_strict_rejects_dangling(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(DANGLING, encoding="utf-8")
    code, out, err = cli("plot", "--input", str(src), "--strict")
    assert code == EXIT_INPUT
    assert out == ""
    assert "GHOST" in err


def test_plot_warns_on_bad_links_as_analyze_does(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(DANGLING, encoding="utf-8")
    _, _, analyze_err = cli("analyze", "--input", str(src), "--window", "all")
    code, out, err = cli("plot", "--input", str(src))
    assert code == EXIT_OK
    assert out.startswith("<svg ")
    assert err == analyze_err
    assert err.startswith("warning: ") and "GHOST" in err


def test_plot_empty_stream_is_exit_65(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text("case_id,source_id,date,longitude,latitude\n",
                   encoding="utf-8")
    code, _, err = cli("plot", "--input", str(src))
    assert code == EXIT_EMPTY


# --- cross-cutting --------------------------------------------------------------


def test_isolated_vertices_enter_the_sample_only_on_request(cli, tmp_path):
    src = tmp_path / "cases.csv"
    src.write_text(DANGLING, encoding="utf-8")  # E loses its link, degree 0
    _, out_drop, _ = cli("analyze", "--input", str(src), "--window", "all")
    _, out_keep, _ = cli("analyze", "--input", str(src), "--window", "all",
                         "--include-isolated")
    assert json.loads(out_drop)["fitting_n"] == 4
    assert json.loads(out_keep)["fitting_n"] == 5
    assert [0, 0.2] in json.loads(out_keep)["degree_pmf"]


# a malformed line, a dangling source, a source after its case, and a
# record whose weekly window would end past 9999-12-31: one warning each
MESSY = """case_id,source_id,date,longitude,latitude
A,,2014-03-01,0,0
not a record
B,A,2014-03-02,0,0
C,GHOST,2014-03-03,0,0
D,E,2014-03-04,0,0
E,A,2014-03-05,0,0
F,A,9999-12-31,0,0
"""


@pytest.mark.parametrize("messy", [False, True], ids=["fixture", "messy"])
def test_readme_library_example_reports_what_analyze_does(
        cli, outbreak_csv, tmp_path, messy):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Library\n", 1)[1]
    example = example.split("```python\n", 1)[1].split("```", 1)[0]
    path = outbreak_csv
    if messy:
        path = tmp_path / "messy.csv"
        path.write_text(MESSY, encoding="utf-8")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(example.replace('"cases.csv"', repr(str(path))), {})
    *windows, dropped = printed.getvalue().splitlines()
    code, out, err = cli("analyze", "--input", str(path),
                         "--window", "tumbling:7d")
    assert code == EXIT_OK
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    assert [window.rsplit(" ", 1) for window in windows] == [
        [str(parse_timestamp(report["window"]["start"])),
         str(report["classification"] and report["classification"]["chosen"])]
        for report in reports]
    assert len(windows) == (1 if messy else 9)
    warnings = err.count("warning: ")
    assert dropped == f"{warnings} lines or records dropped"
    assert warnings == (4 if messy else 0)


def test_readme_quick_start_runs_as_written(cli, tmp_path, monkeypatch):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start\n", 1)[1]
    block = block.split("```\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    written = {}
    for line in block.splitlines():
        if not line.startswith("outbreaklens "):
            continue
        argv, _, target = line.partition(" > ")
        code, out, err = cli(*argv.split()[1:])
        assert code == EXIT_OK, (line, err)
        if target:
            (tmp_path / target).write_text(out, encoding="utf-8")
        written[argv] = out
    assert (tmp_path / "degrees.svg").read_text(
        encoding="utf-8").startswith("<svg ")
    # all but the summary line, whose config names the command
    analyzed = written["outbreaklens analyze --input cases.csv "
                       "--window tumbling:7d"].splitlines()[:-1]
    streamed = written["outbreaklens stream --input cases.csv "
                       "--window tumbling:7d"].splitlines()[:-1]
    assert len(analyzed) == 9 and analyzed == streamed


def test_jsonl_records_round_trip_through_analyze(cli, tmp_path):
    sim_out = tmp_path / "cases.jsonl"
    cli("simulate", "--format", "jsonl", "--output", str(sim_out))
    code, out, _ = cli("analyze", "--input", str(sim_out),
                       "--format", "jsonl", "--window", "all")
    assert code == EXIT_OK
    assert json.loads(out)["n_vertices"] > 0


def test_real_entry_point_runs(outbreak_csv):
    code, out, err = run_cli_subprocess(
        "analyze", "--input", str(outbreak_csv), "--window", "all")
    assert code == 0
    assert json.loads(out)["n_vertices"] == 1000


def test_benchmark_trace_hooks_all_resolve():
    # the benchmark's tracer wraps names inside the package; a refactor
    # that moves one makes every traced command fail
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    script = ("import traced; tracer = traced.Tracer(); "
              "traced.install(tracer, 0); print(tracer.missing)")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_command_imports_numpy(outbreak_csv, tmp_path):
    # numpy's import would be most of the start-up of a command, and the
    # simulator draws from the standard library's generator
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = f"""
import sys
from outbreaklens import cli
assert cli.main(["--version"]) == 0
records = ["--input", {str(outbreak_csv)!r}]
for command in (["analyze", *records],
                ["analyze", "--window", "cumulative:1d", *records],
                ["stream", *records], ["plot", "--log-log", *records],
                ["simulate"]):
    argv = command + ["--output", {str(tmp_path / "out")!r}]
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_command_imports_pathlib_or_importlib_resources(outbreak_csv,
                                                           tmp_path):
    # each is several ms of start-up; -S leaves out site, whose .pth hooks
    # may load either before the package does
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = f"""
import sys
from outbreaklens import cli
assert cli.main(["--version"]) == 0
assert cli.main(["simulate", "--output", {str(tmp_path / "sim.csv")!r}]) == 0
for command in (["analyze"], ["stream"], ["plot", "--log-log"]):
    argv = command + ["--input", {str(outbreak_csv)!r},
                      "--output", {str(tmp_path / "out")!r}]
    assert cli.main(argv) == 0, argv
loaded = {{"pathlib", "importlib.resources"}} & set(sys.modules)
assert not loaded, loaded
"""
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_module_of_the_package_imports_pathlib_or_importlib_resources():
    # the runtime check above runs each command on one input; this one
    # covers every module
    for path in sorted((SRC / "outbreaklens").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}"
                                         for alias in node.names]
            else:
                continue
            for name in names:
                assert not f"{name}.".startswith(
                    ("pathlib.", "importlib.resources.")), (path.name,
                                                            node.lineno)


def test_no_module_of_the_package_imports_a_name_it_never_reads():
    # each name an import binds is read somewhere in its module, alone or
    # as the root of an attribute (``os.path`` reads ``os``)
    for path in sorted((SRC / "outbreaklens").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread = [name for name in bound if name not in read]
            assert not unread, (path.name, node.lineno, unread)


_PACKAGE = {"outbreaklens", "outbreaklens.cli"}
_ANALYSIS = _PACKAGE | {"outbreaklens.records", "outbreaklens.graph",
                        "outbreaklens.fitting", "outbreaklens.zeta",
                        "outbreaklens.engine"}


@pytest.mark.parametrize("command,loaded", [
    (["--version"], _PACKAGE),
    (["plot", "--log-log", "--input", "{report}"],
     _PACKAGE | {"outbreaklens.plot", "outbreaklens.zeta"}),
    (["plot", "--input", "{records}"], _ANALYSIS | {"outbreaklens.plot"}),
    (["simulate"], _PACKAGE | {"outbreaklens.sim", "outbreaklens.records"}),
    (["analyze", "--input", "{records}"], _ANALYSIS),
    (["analyze", "--window", "cumulative:1d", "--input", "{records}"],
     _ANALYSIS),
    (["stream", "--input", "{records}"], _ANALYSIS),
], ids=["version", "plot-report", "plot-records", "simulate", "analyze-all",
        "analyze-windowed", "stream"])
def test_each_command_loads_only_the_modules_it_runs(
        cli, outbreak_csv, tmp_path, command, loaded):
    # every module a command imports is compiled at each start-up when no
    # bytecode is written, so each command imports only what it runs; the
    # value types build without dataclasses, which loads inspect and ast,
    # and no command loads inspect
    report = tmp_path / "report.json"
    cli("analyze", "--input", str(outbreak_csv), "--output", str(report))
    argv = [arg.format(report=report, records=outbreak_csv) for arg in command]
    if argv[0] != "--version":
        argv += ["--output", str(tmp_path / "out")]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = f"""
import json, sys
from outbreaklens import cli
assert cli.main({argv!r}) == 0
print(json.dumps([sorted(m for m in sys.modules if m.startswith("outbreaklens")),
                  "dataclasses" in sys.modules, "inspect" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    modules, has_dataclasses, has_inspect = json.loads(
        proc.stdout.splitlines()[-1])
    assert set(modules) == loaded
    assert not has_dataclasses
    assert not has_inspect


def test_traced_commands_record_their_spans(outbreak_csv, tmp_path):
    # the handlers call the names perfbench/traced.py wraps through the
    # cli module, so its wrappers still time them; and every record goes
    # through the wrapped parse_record and ingest, so no fast path hides
    # records from the benchmark's per-layer figures
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    sim, report = tmp_path / "sim.csv", tmp_path / "report.json"
    streamed = tmp_path / "stream.jsonl"
    script = f"""
import json, traced
from outbreaklens import cli
tracer = traced.Tracer()
traced.install(tracer, 0)
assert cli.main(["simulate", "--output", {str(sim)!r}]) == 0
assert cli.main(["analyze", "--input", {str(sim)!r},
                 "--output", {str(report)!r}]) == 0
assert cli.main(["plot", "--input", {str(report)!r},
                 "--output", {str(tmp_path / "plot.svg")!r}]) == 0
print(json.dumps(tracer.dump()))
before = dict(tracer.calls)
assert cli.main(["analyze", "--input", {str(outbreak_csv)!r},
                 "--output", {str(tmp_path / "fixture.json")!r}]) == 0
print(json.dumps({{name: tracer.calls[name] - before.get(name, 0)
                  for name in ("records.parse", "engine.ingest")}}))
before = dict(tracer.calls)
assert cli.main(["stream", "--window", "tumbling:1d", "--input",
                 {str(outbreak_csv)!r}, "--output", {str(streamed)!r}]) == 0
print(json.dumps({{name: tracer.calls[name] - before.get(name, 0)
                  for name in ("engine.report", "graph.snapshot")}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, fixture, stream = proc.stdout.splitlines()
    spans = json.loads(first)
    assert spans["missing"] == []
    for name in ("sim.network", "sim.outbreak", "records.serialize",
                 "plot.render"):
        assert spans["calls"].get(name, 0) > 0, name
    n_records = len(outbreak_csv.read_text(encoding="utf-8").splitlines()) - 1
    assert json.loads(fixture) == {"records.parse": n_records,
                                   "engine.ingest": n_records}
    # one traced report per window written, each from at most one snapshot
    calls = json.loads(stream)
    n_reports = len(streamed.read_text(encoding="utf-8").splitlines()) - 1
    assert calls["engine.report"] == n_reports > 1
    assert calls["graph.snapshot"] <= n_reports
