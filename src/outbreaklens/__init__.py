"""Streaming recognition of the time-varying structure of an outbreak
contact network, from geolocated and timestamped case records.

The pipeline: parse and validate the record stream (``records``), build
and window the contact graph (``graph``), fit the degree distribution
to candidate families by maximum likelihood (``fitting``), drive the
stream through a window schedule and classify each window (``engine``).
A seeded simulator (``sim``) generates record streams with known ground
truth, and ``cli``/``plot`` give it all a command-line and SVG surface.
"""

__version__ = "0.1.0"

from .records import (
    CaseRecord,
    Diagnostic,
    GeoPoint,
    ParseError,
    ValidatedStream,
    ValidationError,
    parse_record,
    parse_timestamp,
    read_stream,
    serialize_record,
    validate_stream,
    write_stream,
)
from .graph import (
    ContactGraph,
    DegreeSample,
    TimeWindow,
    build_graph,
    degree_distribution,
    degree_sample,
)
from .fitting import (
    FAMILIES,
    FitError,
    FitResult,
    RULES,
    StructureClass,
    fit_exponential,
    fit_family,
    fit_normal,
    fit_poisson,
    fit_powerlaw,
    hurwitz_zeta,
    hurwitz_zeta_derivatives,
    log_likelihood,
    select_structure,
)
from .engine import (
    RecognitionEngine,
    StructureReport,
    WindowSpec,
    batch_report,
    classify_trend,
    run,
    schedule_windows,
)
from .sim import (
    IndexCase,
    SimConfig,
    SyntheticNetwork,
    final_size_curve,
    generate_network,
    load_regions,
    simulate_outbreak,
)

__all__ = [
    "__version__",
    # records
    "CaseRecord", "Diagnostic", "GeoPoint", "ParseError", "ValidatedStream",
    "ValidationError", "parse_record", "parse_timestamp", "read_stream",
    "serialize_record", "validate_stream", "write_stream",
    # graph
    "ContactGraph", "DegreeSample", "TimeWindow", "build_graph",
    "degree_distribution", "degree_sample",
    # fitting
    "FAMILIES", "FitError", "FitResult", "RULES", "StructureClass",
    "fit_exponential", "fit_family", "fit_normal", "fit_poisson",
    "fit_powerlaw", "hurwitz_zeta", "hurwitz_zeta_derivatives",
    "log_likelihood", "select_structure",
    # engine
    "RecognitionEngine", "StructureReport", "WindowSpec", "batch_report",
    "classify_trend", "run", "schedule_windows",
    # sim
    "IndexCase", "SimConfig", "SyntheticNetwork", "final_size_curve",
    "generate_network", "load_regions", "simulate_outbreak",
]
