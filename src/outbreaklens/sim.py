"""Synthetic contact structures and outbreak record streams.

The generator grows attachment trees (preferential or uniform) and runs
a discrete-time susceptible-to-infected process over them, emitting
case records with known ground truth: who infected whom, when, where.
One simulation step is one day. Everything is a deterministic function
of the config seed; replications derive independent substreams from
(seed, purpose tag, replication index), so serial and parallel runs of
the replication loop agree. Each substream is a ``random.Random``
seeded with the text "seed:tag" (or "seed:tag:rep"), and every value
comes from its ``random()``, whose sequence Python keeps for a given
seed across versions: a pick below ``b`` is ``int(random() * b)``, and
a jitter pair is one Box-Muller transform of two uniforms.
"""

from __future__ import annotations

import math
import random
from datetime import datetime, timedelta
from typing import Mapping, Sequence

from .records import (CaseRecord, GeoPoint, _coordinate, _Frozen, _record,
                      load_json, normalize_timestamp, parse_timestamp)

TOPOLOGIES = ("preferential-attachment", "uniform-attachment")

STEP = timedelta(days=1)
EARTH_RADIUS_KM = 6371.0
_KM_PER_DEG_LAT = math.pi * EARTH_RADIUS_KM / 180.0

# Substream tags; distinct draws must never share a stream.
_TAG_NETWORK = 1
_TAG_SPREAD = 2
_TAG_GEO = 3
_TAG_CURVE = 4

_DEFAULT_START = "2014-03-01"
# the types each number field takes; a bool, though an int, is none
_FIELD_TYPES = {"n_population": int, "n_steps": int, "seed": int,
                "p_transmit": (int, float), "jitter_km": (int, float)}


# (longitude, latitude) of each region preset; the first is the default
_REGIONS = {
    "Gueckedou": (-10.1333, 8.5667),
    "Macenta": (-9.4667, 8.55),
    "Kissidougou": (-10.1, 9.1833),
    "Conakry": (-13.5784, 9.6412),
    "Monrovia": (-10.8047, 6.3106),
    "Lagos": (3.3792, 6.5244),
    "Port Harcourt": (7.0134, 4.8156),
}


def load_regions() -> dict[str, GeoPoint]:
    """Named outbreak-origin presets (West African cities)."""
    return {name: GeoPoint(*point) for name, point in _REGIONS.items()}


class IndexCase(_Frozen):
    """Where and when one seeded infection enters the population."""

    location: GeoPoint
    start: datetime

    def __post_init__(self):
        object.__setattr__(self, "start", normalize_timestamp(self.start))


class SimConfig(_Frozen):
    topology: str = "preferential-attachment"
    n_population: int = 1000
    p_transmit: float = 0.1
    n_steps: int = 60
    index_cases: tuple[IndexCase, ...] = ()
    jitter_km: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        for name, kinds in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                noun = "an integer" if kinds is int else "a number"
                raise ValueError(f"{name} must be {noun}, not "
                                 f"{type(value).__name__}")
        if self.n_population < 1:
            raise ValueError("n_population must be at least 1")
        if not 0.0 <= self.p_transmit <= 1.0:
            raise ValueError("p_transmit must lie in [0, 1]")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        # a Box-Muller radius is at most 8.6 standard deviations, so no
        # jitter up to this scale overflows to an infinite coordinate
        if not 0 <= self.jitter_km <= 1e300:
            raise ValueError("jitter_km must lie in [0, 1e300]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "index_cases", tuple(self.index_cases))
        if len(self.index_cases) > self.n_population:
            raise ValueError("more index cases than individuals")
        if self.index_cases:  # the run's last day must be a date
            try:
                min(ic.start for ic in self.index_cases) + self.n_steps * STEP
            except OverflowError:
                raise ValueError("the run's last day falls after 9999-12-31; "
                                 "lower n_steps or start earlier") from None

    @classmethod
    def from_json(cls, doc: str | Mapping) -> "SimConfig":
        """Build a config from a single JSON document.

        ``index_cases`` entries give either a preset ``region`` name or
        explicit ``longitude``/``latitude``, plus an optional ``start``
        (default 2014-03-01). Omitted entirely, one index case at the
        first bundled region is used.
        """
        obj = load_json(doc) if isinstance(doc, str) else dict(doc)
        if not isinstance(obj, dict):
            raise ValueError("sim config must be a JSON object")
        unknown = set(obj) - set(cls.__match_args__)  # the fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        regions = load_regions()
        entries = obj.get("index_cases")
        if entries is None:
            entries = [{"region": next(iter(regions))}]
        if not isinstance(entries, list) or not entries:
            raise ValueError("index_cases must be a non-empty list")
        index_cases = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError("each index case must be an object")
            if "region" in entry:
                name = entry["region"]
                if not isinstance(name, str) or name not in regions:
                    raise ValueError(f"unknown region {name!r}; "
                                     f"presets: {sorted(regions)}")
                loc = regions[name]
            else:
                try:
                    loc = GeoPoint(*(_coordinate(entry[key], key, None)
                                     for key in ("longitude", "latitude")))
                except KeyError as exc:
                    raise ValueError(f"index case needs region or "
                                     f"longitude/latitude: missing {exc}") from None
            start = parse_timestamp(str(entry.get("start", _DEFAULT_START)))
            index_cases.append(IndexCase(loc, start))
        kwargs = {k: obj[k] for k in cls.__match_args__
                  if k in obj and k != "index_cases"}
        return cls(index_cases=tuple(index_cases), **kwargs)


class SyntheticNetwork(_Frozen):
    """A simple connected graph over individuals 0..n-1 with generation
    metadata, so runs can be reproduced from the record alone."""

    n: int
    edges: tuple[tuple[int, int], ...]
    topology: str
    seed: int

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists, each sorted ascending."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        return tuple(tuple(sorted(ns)) for ns in nbrs)


def _stream(*key: int) -> random.Random:
    """The substream named by ``key``: (seed, tag) or (seed, tag, rep)."""
    return random.Random(":".join(map(str, key)))


def _attachment_edges(topology: str, n: int,
                      rng: random.Random) -> tuple[tuple[int, int], ...]:
    """Grow an attachment tree, one draw per new node. Preferential
    attachment picks the target from the repeated-endpoints list, so the
    pick probability is proportional to current degree; uniform
    attachment picks any existing node with equal probability."""
    rand = rng.random
    if topology != "preferential-attachment":
        return tuple((int(rand() * new), new) for new in range(1, n))
    edges: list[tuple[int, int]] = []
    endpoints = [0]
    for new in range(1, n):
        target = endpoints[int(rand() * len(endpoints))]
        edges.append((target, new))
        endpoints += (target, new)
    return tuple(edges)


def _distinct_nodes(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct nodes of 0..n-1 by a partial Fisher-Yates shuffle, one
    draw each; the dict holds the positions the swaps have moved."""
    moved: dict[int, int] = {}
    nodes = []
    for i in range(k):
        j = i + int(rng.random() * (n - i))
        nodes.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return nodes


def generate_network(config: SimConfig) -> SyntheticNetwork:
    """Deterministic synthetic contact structure for the config seed."""
    rng = _stream(config.seed, _TAG_NETWORK)
    edges = _attachment_edges(config.topology, config.n_population, rng)
    return SyntheticNetwork(config.n_population, edges, config.topology,
                            config.seed)


def _jittered(loc: GeoPoint, dx_km: float, dy_km: float, *,
              cos=math.cos, radians=math.radians,
              km_per_deg=_KM_PER_DEG_LAT) -> GeoPoint:
    # The keyword defaults turn the global lookups of this once-per-case
    # call into locals; each conditional gives what max/min gave for
    # every finite input.
    lat = loc.latitude + dy_km / km_per_deg
    if lat > 90.0:
        lat = 90.0
    elif lat < -90.0:
        lat = -90.0
    # longitude degrees shrink with latitude; clamp the scale near poles
    scale = cos(radians(lat))
    if scale < 0.01:
        scale = 0.01
    lon = loc.longitude + dx_km / (km_per_deg * scale)
    return GeoPoint(((lon + 180.0) % 360.0) - 180.0, lat)


def simulate_outbreak(network: SyntheticNetwork,
                      config: SimConfig) -> tuple[CaseRecord, ...]:
    """Run the susceptible-to-infected process and emit case records.

    Each step, every individual infected on an earlier step transmits
    across each incident edge with probability p_transmit; a newly
    infected individual emits a record whose source is its infector and
    whose location is the infector's location plus isotropic Gaussian
    jitter of scale jitter_km. Index cases emit source-free records at
    their configured locations. When several infectors reach the same
    susceptible individual in one step, the smallest infector id wins.

    Geography draws use a separate substream from transmission draws,
    so the infection tree is invariant to jitter_km.
    """
    if not config.index_cases:
        raise ValueError("config has no index cases")
    if len(config.index_cases) > network.n:
        raise ValueError("more index cases than individuals")

    rng_spread = _stream(config.seed, _TAG_SPREAD)
    adjacency = network.adjacency()

    nodes = _distinct_nodes(rng_spread, network.n, len(config.index_cases))
    base = min(ic.start for ic in config.index_cases)
    activations: dict[int, list[tuple[int, IndexCase]]] = {}
    for node, ic in zip(nodes, config.index_cases):
        offset = ic.start - base
        step_idx = -((-offset) // STEP)  # ceil; late starts snap forward
        activations.setdefault(step_idx, []).append((node, ic))

    # The records in the order the cases arose, and by node. Each is
    # built by records._record, as parse_record builds one that passed
    # its checks, since these pass by construction: an id is "C" and six
    # or more digits, a source is None or an earlier case's id, and an
    # instant is the earliest start, which IndexCase normalized, plus
    # whole days.
    cases: list[CaseRecord] = []
    case_of: list[CaseRecord | None] = [None] * network.n
    # Infected nodes that may still have a susceptible neighbour. A case
    # joins after the scan of the step it arose in, as it transmits from
    # the next one. A node leaves once its scan in a step leaves every
    # neighbour infected or claimed: it would never draw a random number
    # again, so skipping it keeps every draw, and the output, as if each
    # infected node were visited.
    frontier: set[int] = set()
    spread = rng_spread.random
    geo = _stream(config.seed, _TAG_GEO).random
    jitter_km = config.jitter_km
    p = config.p_transmit
    last_arrival = max(activations)
    for step_idx in range(config.n_steps + 1):
        instant = base + step_idx * STEP
        arrived = []
        for node, ic in activations.get(step_idx, ()):
            if case_of[node] is None:  # may already be infected by spread
                arrived.append(node)
                case_of[node] = record = _record(
                    "C" + str(len(cases) + 1).zfill(6), None, instant,
                    ic.location)
                cases.append(record)
        claimed: dict[int, int] = {}  # target -> infector, smallest id first
        for node in sorted(frontier):
            susceptible_left = False
            for nbr in adjacency[node]:
                if case_of[nbr] is not None or nbr in claimed:
                    continue
                if spread() < p:
                    claimed[nbr] = node
                else:
                    susceptible_left = True
            if not susceptible_left:
                frontier.discard(node)
        frontier.update(arrived, claimed)
        for target, infector in claimed.items():
            if jitter_km > 0:  # Box-Muller; 1 - u keeps the log finite
                radius = jitter_km * math.sqrt(-2.0 * math.log(1.0 - geo()))
                angle = math.tau * geo()
                dx = radius * math.cos(angle)
                dy = radius * math.sin(angle)
            else:
                dx = dy = 0.0
            source = case_of[infector]
            case_of[target] = record = _record(
                "C" + str(len(cases) + 1).zfill(6), source.case_id, instant,
                _jittered(source.location, dx, dy))
            cases.append(record)
        if not frontier and step_idx >= last_arrival:
            break  # the outbreak is over: no later step draws or emits
    return tuple(cases)


def _geometric_delays(us: Sequence[float], p: float,
                      never: int) -> list[int]:
    """Per-edge transmission delays via inverse-CDF coupling: the same
    uniforms produce delays that are non-increasing in p, so final sizes
    are monotone in p within a replication. A delay is at most
    ``never``, which stands for every delay longer than the run, and at
    p = 0 (no transmission) every delay is ``never``."""
    if p == 0.0:
        return [never] * len(us)
    if p == 1.0:
        return [1] * len(us)
    log_q = math.log1p(-p)
    return [max(1, math.ceil(min(math.log1p(-u) / log_q, never)))
            for u in us]


def final_size_curve(topology: str, p_grid: Sequence[float],
                     replications: int, seed: int, *,
                     n_population: int = 1000, n_steps: int = 40,
                     n_index: int = 1, detail: bool = False):
    """Mean infected fraction after n_steps, per transmission probability.

    Uses the first-passage form of the process: on a tree, the step at
    which an individual is infected equals the sum of independent
    Geometric(p) delays along its unique path from the nearest index
    case, which is exact for the step dynamics of simulate_outbreak.
    One uniform per edge per replication is shared across the whole
    grid (common random numbers).

    Returns a tuple of (p, mean fraction) pairs; with ``detail=True``,
    returns (means, per_replication) where per_replication[r][i] is the
    fraction for p_grid[i] in replication r.
    """
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    if replications < 1:
        raise ValueError("replications must be at least 1")
    ps = [float(p) for p in p_grid]
    if any(not 0.0 <= p <= 1.0 for p in ps):
        raise ValueError("p_grid values must lie in [0, 1]")
    if not 1 <= n_index <= n_population:
        raise ValueError("n_index must lie in [1, n_population]")

    per_rep: list[tuple[float, ...]] = []
    for rep in range(replications):
        rng = _stream(seed, _TAG_CURVE, rep)
        edges = _attachment_edges(topology, n_population, rng)
        sources = _distinct_nodes(rng, n_population, n_index)
        us = [rng.random() for _ in edges]
        adjacency = SyntheticNetwork(n_population, edges, topology,
                                     seed).adjacency()

        fractions = []
        for p in ps:
            delays = _geometric_delays(us, p, n_steps + 1)
            best = {}
            for src in sources:
                # tree walk from each source; keep the earliest infection
                stack = [(src, 0)]
                seen = {src}
                while stack:
                    node, dist = stack.pop()
                    if dist <= n_steps and dist < best.get(node, n_steps + 1):
                        best[node] = dist
                    for nbr in adjacency[node]:
                        if nbr in seen:
                            continue
                        seen.add(nbr)
                        # _attachment_edges makes edge i join node i + 1
                        # to an earlier node
                        nd = dist + delays[max(node, nbr) - 1]
                        if nd <= n_steps:
                            stack.append((nbr, nd))
            fractions.append(len(best) / n_population)
        per_rep.append(tuple(fractions))

    means = tuple((p, math.fsum(rep[i] for rep in per_rep) / replications)
                  for i, p in enumerate(ps))
    if detail:
        return means, tuple(per_rep)
    return means
