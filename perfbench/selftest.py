"""Self-tests of the benchmark's own instruments.

    python3 perfbench/selftest.py

Run from the root of a source checkout, like run.py. Exits non-zero on
the first failed check.

1. Window pairing: for several window flags, the record the benchmark
   pairs with each report (checks.closing_lines) is the record whose
   ingestion makes the engine emit that report, found by driving
   outbreaklens's RecognitionEngine in this process.
2. Injected fit delay: a traced stream run with a fixed sleep inside the
   benchmark's fit_family wrapper must show fitting spans longer by
   about calls x delay, and report lag longer by at least one window's
   fits.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
from datetime import timedelta

import checks
import run

SIM = {"topology": "preferential-attachment", "n_population": 1500, "p_transmit": 0.4,
       "n_steps": 60}
SEED = 11
FIT_DELAY = 0.01
FLAGS = ("cumulative:1d", "tumbling:2d", "tumbling:3d", "cumulative:7d")


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def make_input(work) -> bytes:
    config = work / "sim.json"
    config.write_text(json.dumps(SIM), "utf-8")
    out = work / "cases.csv"
    outcome = run.Runner(work).run(
        "simulate", ["simulate", "--input", str(config.relative_to(run.ROOT)),
                     "--seed", str(SEED), "--output", str(out.relative_to(run.ROOT))],
        output=out)
    if outcome.exit_code != 0:
        fail(f"simulate exited {outcome.exit_code}: {outcome.stderr}")
    return outcome.output


def emitted_by(raw: bytes, flag: str) -> list[int | None]:
    """Per report, the index of the record whose ingest() returned it,
    or None for reports returned by flush()."""
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from outbreaklens.engine import RecognitionEngine, WindowSpec
    from outbreaklens.records import read_stream

    mode, period = checks.parse_window(flag)
    records = list(read_stream(io.StringIO(raw.decode("utf-8"))))
    first = records[0].timestamp
    origin = first.replace(hour=0, minute=0, second=0)
    engine = RecognitionEngine(WindowSpec(mode, timedelta(seconds=period), origin))
    out: list[int | None] = []
    for k, record in enumerate(records):
        out.extend(k for _ in engine.ingest(record))
    out.extend(None for _ in engine.flush())
    return out


def test_pairing(raw: bytes) -> None:
    cases = checks.read_cases(raw.decode("utf-8"))
    lines = raw.splitlines(keepends=True)[1:]
    for flag in FLAGS:
        closing = checks.closing_lines(cases, checks.schedule(cases, flag))
        engine = emitted_by(raw, flag)
        if closing != engine:
            fail(f"{flag}: benchmark pairs reports with records {closing}, "
                 f"the engine emitted them at {engine}")
        feed = run.Feed.build(raw, closing)
        for _, k, line in feed.segments:
            if k is not None and line != lines[k]:
                fail(f"{flag}: the stamped write for record {k} is not that record")
        if b"".join(b + line for b, _, line in feed.segments) != raw:
            fail(f"{flag}: the feed does not reproduce the input byte for byte")
        print(f"ok pairing {flag}: {len(closing)} reports, "
              f"{sum(c is None for c in closing)} closed by end of input")


def traced_stream(work, raw: bytes, delay: float, flag: str) -> run.Outcome:
    cases = checks.read_cases(raw.decode("utf-8"))
    windows = checks.expected_windows(cases, flag)
    feed = run.Feed.build(raw, [w.closing_line for w in windows])
    outcome = run.Runner(work, fit_delay=delay).stream(["stream", "--window", flag], feed,
                                                      traced=True)
    if outcome.exit_code != 0:
        fail(f"traced stream exited {outcome.exit_code}: {outcome.stderr}")
    problems = checks.check_stream(outcome.output.splitlines(), windows)
    if problems:
        fail(f"traced stream output: {problems[:3]}")
    if len(outcome.lags) != len(windows) or min(outcome.lags) < 0:
        fail(f"{len(outcome.lags)} lags for {len(windows)} windows, min {min(outcome.lags)}")
    return outcome


def fit_seconds(outcome: run.Outcome) -> tuple[float, int]:
    names = [f"fitting.{family}" for family in run.FAMILIES]
    return (sum(outcome.spans["total"].get(n, 0.0) for n in names),
            sum(outcome.spans["calls"].get(n, 0) for n in names))


def test_fit_delay(work, raw: bytes) -> None:
    flag = "cumulative:1d"
    base = traced_stream(work, raw, 0.0, flag)
    slow = traced_stream(work, raw, FIT_DELAY, flag)
    (t0, calls0), (t1, calls1) = fit_seconds(base), fit_seconds(slow)
    if calls0 != calls1 or calls0 == 0:
        fail(f"fit calls differ or are zero: {calls0} vs {calls1}")
    injected = calls1 * FIT_DELAY
    ratio = (t1 - t0) / injected
    if not 0.85 <= ratio <= 1.3:
        fail(f"fitting spans rose {t1 - t0:.3f} s for {injected:.3f} s injected")
    per_window = len(run.FAMILIES) * FIT_DELAY
    lag0, lag1 = statistics.median(base.lags), statistics.median(slow.lags)
    if lag1 - lag0 < 0.8 * per_window:
        fail(f"median lag rose {lag1 - lag0:.3f} s; one window's injected fits "
             f"take {per_window:.3f} s")
    print(f"ok fit delay: {calls1} fits, spans +{t1 - t0:.3f} s for {injected:.3f} s "
          f"injected; median lag {lag0 * 1000:.1f} -> {lag1 * 1000:.1f} ms")


def main() -> int:
    if not (run.SRC / "outbreaklens" / "cli.py").is_file():
        print(f"error: no outbreaklens source under {run.SRC}", file=sys.stderr)
        return 2
    work = run.ROOT / run.STATE / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    raw = make_input(work)
    test_pairing(raw)
    test_fit_delay(work, raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
