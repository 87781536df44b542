"""Run one outbreaklens command with per-layer timers installed.

    python3 perfbench/traced.py SPANS_JSON FIT_DELAY_S -- <outbreaklens args>

Wrappers go in at the names callers look up: a name brought in with
``from .x import y`` is wrapped in the importing module, a module
global is wrapped in its own module, and methods are wrapped on their
class. ``fit_family`` dispatches through a table holding the original
fitters, so fits are timed at ``engine.fit_family``/``cli.fit_family``,
keyed by family. FIT_DELAY_S adds a sleep inside that wrapper; the
benchmark's self-test uses it to check that the timers see injected
work. Spans are aggregated in memory per name (inclusive seconds, self
seconds, calls) and written to SPANS_JSON when the command returns.
A name a later version of the program no longer has is listed under
"missing", with the span and count names it would have fed under
"unmeasured"; the benchmark fails such a command and reports no figure
for those names, so a layer that went unmeasured never reads as 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from time import perf_counter

from outbreaklens import cli, engine, fitting, graph, records

MODULES = {"cli": cli, "engine": engine, "fitting": fitting, "graph": graph,
           "records": records}
FAMILIES = ("exponential", "normal", "poisson", "power-law")  # as run.FAMILIES


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, seconds spent in child spans]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.unmeasured: set[str] = set()

    def span(self, name, fn, on_result=None, on_error=None):
        """fn wrapped in a span; ``name`` may be a function of the call's
        arguments."""
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            frame = [label, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                elapsed = perf_counter() - start
                self.stack.pop()
                self.total[label] += elapsed
                self.self_time[label] += elapsed - frame[1]
                self.calls[label] += 1
                if self.stack:
                    self.stack[-1][1] += elapsed
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def patch(self, path, make, feeds):
        """Replace the object at a dotted path such as
        ``engine.RecognitionEngine.ingest`` with make(original); ``feeds``
        names the spans and counts the wrapper records."""
        first, *middle, attr = path.split(".")
        owner = MODULES[first]
        for part in middle:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(path)
            self.unmeasured.update(feeds)
            return
        setattr(owner, attr, make(original))

    def dump(self) -> dict:
        return {"total": self.total, "self": self.self_time, "calls": self.calls,
                "counts": self.counts, "missing": self.missing,
                "unmeasured": sorted(self.unmeasured)}


def install(tracer: Tracer, fit_delay: float) -> None:
    def add(name, amount):
        tracer.counts[name] += amount

    def fit_span(original):
        fit = original
        if fit_delay:
            def fit(family, sample, *rest, **kwargs):
                time.sleep(fit_delay)
                return original(family, sample, *rest, **kwargs)

        def on_error(exc):
            if isinstance(exc, fitting.FitError):
                add("fitting.fit_errors", 1)
        return tracer.span(lambda family, *_, **__: f"fitting.{family}", fit,
                           on_error=on_error)

    def sample_span(original):
        return tracer.span("graph.degree_sample", original,
                           on_result=lambda sample: add("graph.sample_values", sample.n))

    def plot_span(original):
        return tracer.span("plot.render", original,
                           on_error=lambda exc: add("plot.failures", 1))

    def outbreak_span(original):
        return tracer.span("sim.outbreak", original,
                           on_result=lambda cases: add("sim.cases", len(cases)))

    def zeta_counter(original):
        return tracer.counter("fitting.zeta_calls", original)

    def named(name):
        return lambda original: tracer.span(name, original)

    fits = [f"fitting.{family}" for family in FAMILIES] + ["fitting.fit_errors"]
    samples = ["graph.degree_sample", "graph.sample_values"]
    for path, make, feeds in (
            ("records.parse_record", named("records.parse"), ["records.parse"]),
            ("cli.validate_stream", named("records.validate"), ["records.validate"]),
            ("graph.validate_stream", named("records.validate"), ["records.validate"]),
            ("cli.write_stream", named("records.serialize"), ["records.serialize"]),
            ("engine._GraphBuilder.graph", named("graph.snapshot"), ["graph.snapshot"]),
            ("engine.degree_sample", sample_span, samples),
            ("cli.degree_sample", sample_span, samples),
            ("cli.build_graph", named("graph.build"), ["graph.build"]),
            ("engine.fit_family", fit_span, fits),
            ("cli.fit_family", fit_span, fits),
            ("engine.select_structure", named("fitting.select"), ["fitting.select"]),
            ("fitting.hurwitz_zeta", zeta_counter, ["fitting.zeta_calls"]),
            ("fitting.hurwitz_zeta_derivatives", zeta_counter, ["fitting.zeta_calls"]),
            ("engine.RecognitionEngine.ingest", named("engine.ingest"), ["engine.ingest"]),
            ("engine.RecognitionEngine.flush", named("engine.flush"), ["engine.flush"]),
            ("engine.report_for_graph", named("engine.report"), ["engine.report"]),
            ("cli.report_for_graph", named("engine.report"), ["engine.report"]),
            ("engine.StructureReport.to_json_dict", named("engine.to_json"),
             ["engine.to_json"]),
            ("cli.generate_network", named("sim.network"), ["sim.network"]),
            ("cli.simulate_outbreak", outbreak_span, ["sim.outbreak", "sim.cases"]),
            ("cli.render_degree_plot", plot_span, ["plot.render", "plot.failures"])):
        tracer.patch(path, make, feeds)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 64
    spans_path, fit_delay, cli_args = argv[0], float(argv[1]), argv[3:]
    tracer = Tracer()
    install(tracer, fit_delay)
    try:
        return tracer.span("cli.command", cli.main)(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
