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
shares with the fitting code.
"""

from __future__ import annotations

from typing import Iterable

__version__ = "0.1.0"

FAMILIES = ("exponential", "normal", "poisson", "power-law")
RULES = ("min-se", "aic", "max-loglik")


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
