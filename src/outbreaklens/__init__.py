"""Streaming recognition of the time-varying structure of an outbreak
contact network, from geolocated and timestamped case records.

The pipeline: parse and validate the record stream (``records``), build
and window the contact graph (``graph``), fit the degree distribution
to candidate families by maximum likelihood (``fitting``, with the
Hurwitz zeta in ``zeta``), drive the stream through a window schedule
and classify each window (``engine``). A seeded simulator (``sim``)
generates record streams with known ground truth, and ``cli``/``plot``
give it all a command-line and SVG surface.

Import from the submodules. The root imports none of them, so each
command loads only what it runs; it holds what the argument parser
shares with the fitting code, and the parameter rules that fitting and
plotting share.
"""

from __future__ import annotations

import math
from typing import Iterable

__version__ = "0.2.0"

FAMILIES = ("exponential", "normal", "poisson", "power-law")
RULES = ("min-se", "aic", "max-loglik")

# each family's parameters and the values each takes; the power law's
# tail start x_min is whole (Clauset, Shalizi & Newman 2009)
PARAMS = {
    "exponential": {"lambda": lambda v: v > 0},
    "normal": {"mu": lambda v: True, "sigma": lambda v: v > 0},
    "poisson": {"lambda": lambda v: v >= 0},
    "power-law": {"alpha": lambda v: v > 1,
                  "x_min": lambda v: v >= 1 and v == int(v)},
}


def in_domain(family: str, name: str, value) -> bool:
    """Whether the family's parameter ``name`` takes ``value``: an int or
    float, not a bool, finite as a float and passing PARAMS' test."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and PARAMS[family][name](value))
    except OverflowError:  # an int past float range
        return False


def canonical_families(families: Iterable[str]) -> tuple[str, ...]:
    """The requested families, deduplicated, in FAMILIES order."""
    requested = list(families)
    unknown = [f for f in requested if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {unknown}; "
                         f"choose from {list(FAMILIES)}")
    if not requested:
        raise ValueError("at least one family is required")
    # canonical order keeps reports stable however the list was written
    return tuple(f for f in FAMILIES if f in set(requested))
