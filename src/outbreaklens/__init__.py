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
shares with the fitting code, and the family rules that fitting and
plotting share: each parameter's domain, the families on whole
numbers, and the Poisson log-pmf.
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
# the families whose support is the whole numbers >= 0
DISCRETE = ("poisson", "power-law")


def in_domain(family: str, name: str, value) -> bool:
    """Whether the family's parameter ``name`` takes ``value``: an int or
    float, not a bool, finite as a float and passing PARAMS' test."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value) and PARAMS[family][name](value))
    except OverflowError:  # an int past float range
        return False


def poisson_log_pmf(x: int, lam: float) -> float:
    """ln(lam^x e^-lam / x!) for a whole x >= 0 and lam > 0. From
    x = 2^16 on, past a 12k-case outbreak's degrees (under 130), where
    x ln(lam) - lam - ln x! cancels (to 0 at x = lam = 1e17), it takes
    Stirling's ln x! and Loader's (2000) deviance D."""
    if x < 2 ** 16:
        return x * math.log(lam) - lam - math.lgamma(x + 1)
    num, den = lam.as_integer_ratio()
    d = (x * den - num) / den  # x - lam, rounded once
    v = d / (x + lam)  # D = x ln(x/lam) - d = d v + 2x (v^3/3 + v^5/5 + ...)
    dev = (x * math.log(x / lam) - d if abs(v) >= 0.1 else
           d * v + 2.0 * x * math.fsum(v ** j / j for j in range(3, 33, 2)))
    return -dev - 0.5 * math.log(2.0 * math.pi * x) - 1.0 / (12.0 * x)


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
