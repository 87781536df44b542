"""Independent recomputation of what each outbreaklens command must output.

Nothing here imports outbreaklens: the window schedule, the per-window
graph counts and the closed-form fits are recounted from the input CSV
with the standard library, so a defect in the program cannot hide by
also being in the checker.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

CSV_HEADER = "case_id,source_id,date,longitude,latitude"
DAY = 86400
REL_TOL = 1e-9
ALPHA_MAX = 20.0


@dataclass(frozen=True)
class Cases:
    """The input as the checker sees it: ids, sources and UTC seconds in
    file order (the simulator writes them time-sorted)."""

    ids: tuple[str, ...]
    sources: tuple[str | None, ...]
    times: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def days(self) -> int:
        """Calendar days from the first case's day to the last's, inclusive."""
        return (self.times[-1] // DAY) - (self.times[0] // DAY) + 1

    @property
    def mean_day(self) -> float:
        """Mean day of infection, counted from the first case's day."""
        first = self.times[0] // DAY
        return math.fsum(t // DAY - first for t in self.times) / self.n


@dataclass(frozen=True)
class Expected:
    """What one window's report must say, recounted from the input."""

    start: int
    end: int
    closing_line: int | None  # index of the record that closes it; None at EOF
    n_vertices: int
    n_edges: int
    degrees: tuple[int, ...]  # positive degrees only: the fitting sample


def _seconds(text: str) -> int:
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    stamp = datetime.fromisoformat(raw)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return int(stamp.timestamp())


def _iso(seconds: int) -> str:
    return datetime.fromtimestamp(seconds, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def read_cases(text: str) -> Cases:
    """Parse a simulator CSV. Raises ValueError if the header is wrong,
    the records are not time-sorted or there are none."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"simulate CSV header is {lines[:1]!r}, expected {CSV_HEADER!r}")
    ids, sources, times = [], [], []
    for row in csv.reader(io.StringIO("\n".join(lines[1:]))):
        ids.append(row[0])
        sources.append(row[1] or None)
        times.append(_seconds(row[2]))
    if not ids:
        raise ValueError("simulate wrote no cases")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("simulate output is not time-sorted")
    return Cases(tuple(ids), tuple(sources), tuple(times))


def parse_window(flag: str) -> tuple[str, int]:
    """'cumulative:1d' -> ('cumulative', 86400). Days only: the
    benchmark's workloads use nothing finer."""
    mode, _, dur = flag.partition(":")
    if mode not in ("tumbling", "cumulative") or not dur.endswith("d"):
        raise ValueError(f"unsupported window {flag!r}")
    return mode, int(dur[:-1]) * DAY


def schedule(cases: Cases, flag: str) -> list[tuple[int, int]]:
    """The README's schedule: from midnight UTC of the first case's day,
    enough periods to cover the last case."""
    mode, period = parse_window(flag)
    origin = cases.times[0] - cases.times[0] % DAY
    count = -(-(cases.times[-1] + 1 - origin) // period)
    return [(origin if mode == "cumulative" else origin + i * period,
             origin + (i + 1) * period) for i in range(count)]


def closing_lines(cases: Cases, windows: list[tuple[int, int]]) -> list[int | None]:
    """Per window, the index of the first record whose timestamp reaches
    the window's end: ingesting it moves the watermark past the end and
    closes the window. None when only end of input closes it."""
    out = []
    for _, end in windows:
        k = bisect.bisect_left(cases.times, end)
        out.append(k if k < cases.n else None)
    return out


def _graph_counts(cases: Cases, lo: int, hi: int) -> tuple[int, int, tuple[int, ...]]:
    """Vertices, edges and positive degrees of records lo..hi-1. An edge
    counts only when both its ends are in the slice."""
    members = {cases.ids[i]: i for i in range(lo, hi)}
    degree = dict.fromkeys(members, 0)
    edges = 0
    for i in range(lo, hi):
        src = cases.sources[i]
        if src is not None and src in members:
            edges += 1
            degree[src] += 1
            degree[cases.ids[i]] += 1
    return len(members), edges, tuple(d for d in degree.values() if d > 0)


def expected_windows(cases: Cases, flag: str) -> list[Expected]:
    windows = schedule(cases, flag)
    out = []
    for (start, end), closing in zip(windows, closing_lines(cases, windows)):
        lo = bisect.bisect_left(cases.times, start)
        hi = bisect.bisect_left(cases.times, end)
        n_v, n_e, degrees = _graph_counts(cases, lo, hi)
        out.append(Expected(start, end, closing, n_v, n_e, degrees))
    return out


def expected_all(cases: Cases) -> Expected:
    n_v, n_e, degrees = _graph_counts(cases, 0, cases.n)
    return Expected(cases.times[0], cases.times[-1] + 1, None, n_v, n_e, degrees)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def closed_form_params(degrees: tuple[int, ...]) -> dict[str, dict[str, float] | None]:
    """The exponential, normal and Poisson MLEs of the sample, or None
    where the family cannot be fitted to it."""
    n = len(degrees)
    total = math.fsum(degrees)
    out: dict[str, dict[str, float] | None] = {"exponential": None, "normal": None,
                                               "poisson": None}
    if n >= 1:
        out["poisson"] = {"lambda": total / n}
    if n >= 2:
        mean = total / n
        out["exponential"] = {"lambda": 1.0 / mean}
        var = math.fsum((x - mean) ** 2 for x in degrees) / n
        if var > 0.0:
            out["normal"] = {"mu": mean, "sigma": math.sqrt(var)}
    return out


def check_report(obj: object, want: Expected, windowed: bool) -> list[str]:
    """Problems with one report object, as readable strings."""
    if not isinstance(obj, dict):
        return ["report is not a JSON object"]
    errors = []
    where = _iso(want.start) if windowed else "all"
    if windowed:
        window = obj.get("window") or {}
        if window.get("start") != _iso(want.start) or window.get("end") != _iso(want.end):
            errors.append(f"window {where}: got bounds {window!r}")
    for key, value in (("n_vertices", want.n_vertices), ("n_edges", want.n_edges),
                       ("fitting_n", len(want.degrees))):
        if obj.get(key) != value:
            errors.append(f"window {where}: {key} {obj.get(key)!r}, recount {value}")
    mean = 2.0 * want.n_edges / want.n_vertices if want.n_vertices else 0.0
    if not isinstance(obj.get("mean_degree"), float) or not _close(obj["mean_degree"], mean):
        errors.append(f"window {where}: mean_degree {obj.get('mean_degree')!r}, recount {mean!r}")
    classification = obj.get("classification")
    fits = {f.get("family"): f for f in (classification or {}).get("fits", [])}
    skipped = obj.get("skipped") or {}
    if classification is not None and classification.get("chosen") not in fits:
        errors.append(f"window {where}: chosen family is not among the fits")
    for family, params in closed_form_params(want.degrees).items():
        fit = fits.get(family)
        if params is None:
            if fit is not None or family not in skipped:
                errors.append(f"window {where}: {family} should be skipped")
            continue
        if fit is None:
            errors.append(f"window {where}: {family} missing from fits")
            continue
        got = fit.get("params", {})
        for name, value in params.items():
            if not isinstance(got.get(name), float) or not _close(got[name], value):
                errors.append(f"window {where}: {family} {name} {got.get(name)!r}, "
                              f"recomputed {value!r}")
    power = fits.get("power-law")
    if power is not None:
        x_min = power["params"].get("x_min")
        alpha = power["params"].get("alpha")
        if x_min not in set(want.degrees):
            errors.append(f"window {where}: power-law x_min {x_min!r} is not an observed degree")
        if not (isinstance(alpha, float) and 1.0 < alpha <= ALPHA_MAX):
            errors.append(f"window {where}: power-law alpha {alpha!r} outside (1, 20]")
    elif "power-law" not in skipped:
        errors.append(f"window {where}: power-law neither fitted nor skipped")
    return errors


def check_stream(lines: list[bytes], want: list[Expected]) -> list[str]:
    """Report lines then one summary line, as `stream` and windowed
    `analyze` print them."""
    try:
        objs = [json.loads(line) for line in lines]
    except ValueError as exc:
        return [f"stream output line is not JSON: {exc}"]
    if not objs or "summary" not in objs[-1]:
        return ["stream output has no summary line"]
    reports, summary = objs[:-1], objs[-1]["summary"]
    errors = []
    if len(reports) != len(want) or summary.get("windows") != len(want):
        errors.append(f"{len(reports)} reports and summary.windows "
                      f"{summary.get('windows')!r}; schedule has {len(want)}")
    for obj, expected in zip(reports, want):
        errors.extend(check_report(obj, expected, windowed=True))
    return errors


def check_analyze_all(text: str, want: Expected) -> list[str]:
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return [f"analyze output is not JSON: {exc}"]
    errors = check_report(obj, want, windowed=False)
    counts: dict[int, int] = {}
    for d in want.degrees:
        counts[d] = counts.get(d, 0) + 1
    pmf = [[d, counts[d] / len(want.degrees)] for d in sorted(counts)]
    if obj.get("degree_pmf") != pmf:
        errors.append("analyze degree_pmf differs from the recounted histogram")
    return errors


def check_svg(text: str, pmf_points: int) -> list[str]:
    """A log-log plot shows one circle per positive degree."""
    if not text.startswith("<svg") or not text.endswith("</svg>\n"):
        return ["plot output is not a complete SVG document"]
    circles = text.count("<circle data-degree=")
    if circles != pmf_points:
        return [f"plot shows {circles} empirical points, expected {pmf_points}"]
    return []
