"""Synthetic networks, the outbreak process, and final-size studies."""

import csv
import hashlib
import io
import json
import math
import random
import time
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SEED42_CSV_SHA256
from outbreaklens.graph import build_graph
from outbreaklens.records import (CSV_HEADER, CaseRecord, GeoPoint,
                                  format_timestamp, write_stream)
from outbreaklens.sim import (
    STEP,
    _KM_PER_DEG_LAT,
    _TAG_CURVE,
    _TAG_GEO,
    _TAG_SPREAD,
    IndexCase,
    SimConfig,
    SyntheticNetwork,
    _attachment_edges,
    final_size_curve,
    generate_network,
    load_regions,
    _jittered,
    simulate_outbreak,
)

UTC = timezone.utc
T0 = datetime(2014, 3, 1, tzinfo=UTC)

TWO_PARENTS = SyntheticNetwork(3, ((0, 2), (1, 2)), "preferential-attachment", 0)


def config(**kw):
    kw.setdefault("index_cases", (IndexCase(GeoPoint(0.0, 0.0), T0),))
    return SimConfig(**kw)


# --- presets and config -----------------------------------------------------


def test_bundled_regions():
    regions = load_regions()
    assert len(regions) == 7
    assert all(isinstance(p, GeoPoint) for p in regions.values())


def test_config_defaults():
    cfg = SimConfig.from_json({})
    assert cfg.topology == "preferential-attachment"
    assert cfg.n_population == 1000
    assert cfg.p_transmit == 0.1
    assert cfg.n_steps == 60
    assert cfg.jitter_km == 10.0
    assert cfg.seed == 0
    assert len(cfg.index_cases) == 1
    first = next(iter(load_regions().values()))
    assert cfg.index_cases[0].location == first
    assert cfg.index_cases[0].start == T0


@pytest.mark.parametrize("patch", [
    {"topology": "small-world"},
    {"n_population": 0},
    {"p_transmit": 1.5},
    {"p_transmit": -0.1},
    {"n_steps": -1},
    {"jitter_km": -2.0},
    {"jitter_km": 1.7e308},
    {"jitter_km": 10 ** 400},
    {"seed": -1},
    {"seed": 2 ** 64},
])
def test_config_rejects_bad_values(patch):
    with pytest.raises(ValueError):
        SimConfig.from_json(patch)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        SimConfig.from_json({"populaton": 50})


def test_config_rejects_non_object():
    with pytest.raises(ValueError):
        SimConfig.from_json("[1, 2]")


def test_config_index_case_forms():
    cfg = SimConfig.from_json({"index_cases": [
        {"region": "Conakry"},
        {"longitude": 3.5, "latitude": -2.0, "start": "2014-05-09"},
    ]})
    assert cfg.index_cases[0].location == load_regions()["Conakry"]
    assert cfg.index_cases[1].location == GeoPoint(3.5, -2.0)
    assert cfg.index_cases[1].start == datetime(2014, 5, 9, tzinfo=UTC)


@pytest.mark.parametrize("entries", [
    [], "Conakry", [{"region": "atlantis"}], [{"longitude": 3.0}], [42],
])
def test_config_rejects_bad_index_cases(entries):
    with pytest.raises(ValueError):
        SimConfig.from_json({"index_cases": entries})


def test_config_more_seeds_than_people():
    with pytest.raises(ValueError):
        config(n_population=1,
               index_cases=(IndexCase(GeoPoint(0, 0), T0),
                            IndexCase(GeoPoint(1, 1), T0)))


# --- network generation ------------------------------------------------------


@pytest.mark.parametrize("topology", ["preferential-attachment",
                                      "uniform-attachment"])
def test_network_is_a_spanning_tree(topology):
    net = generate_network(config(topology=topology, n_population=500))
    assert net.n == 500
    assert len(net.edges) == 499
    # connected: every node reachable from 0
    adjacency = net.adjacency()
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nbr in adjacency[node]:
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    assert len(seen) == 500


def test_network_generation_is_deterministic():
    a = generate_network(config(seed=9))
    b = generate_network(config(seed=9))
    c = generate_network(config(seed=10))
    assert a.edges == b.edges
    assert a.edges != c.edges


def _scalar_attachment_edges(topology, n, rng):
    """_attachment_edges written out plainly: a pick below b is
    int(random() * b), one per new node."""
    edges = []
    if topology == "preferential-attachment":
        endpoints = [0]
        for new in range(1, n):
            target = endpoints[int(rng.random() * len(endpoints))]
            edges.append((target, new))
            endpoints.append(target)
            endpoints.append(new)
    else:
        for new in range(1, n):
            target = int(rng.random() * new)
            edges.append((target, new))
    return tuple(edges)


@pytest.mark.parametrize("topology", ["preferential-attachment",
                                      "uniform-attachment"])
@pytest.mark.parametrize("n", [1, 2, 3, 600, 5000])
@pytest.mark.parametrize("seed", [0, 7])
def test_attachment_edges_draw_as_one_scalar_per_node(topology, n, seed):
    # final_size_curve draws on from the same generator, so its state
    # after the tree must be as after one random() per node
    rng = random.Random(f"{seed}:{_TAG_CURVE}")
    assert (_attachment_edges(topology, n, rng) == _scalar_attachment_edges(
        topology, n, random.Random(f"{seed}:{_TAG_CURVE}")))
    counted = random.Random(f"{seed}:{_TAG_CURVE}")
    for _ in range(n - 1):
        counted.random()
    assert rng.getstate() == counted.getstate()


# the largest value random() returns
_TOP = 1.0 - 2.0 ** -53


@pytest.mark.parametrize("u", [0.0, _TOP])
def test_every_pick_stays_below_its_bound(monkeypatch, u):
    # int(random() * b) < b for every b up to 2**53, so neither an
    # attachment pick nor an index-case pick can reach its bound
    monkeypatch.setattr(random.Random, "random", lambda self: u)
    for topology in ("preferential-attachment", "uniform-attachment"):
        net = generate_network(config(topology=topology, n_population=300))
        assert all(target < new for target, new in net.edges)
        assert len(set(net.edges)) == 299
    index_cases = tuple(IndexCase(GeoPoint(0.0, 0.0), T0) for _ in range(40))
    cfg = config(n_population=40, p_transmit=0.0, index_cases=index_cases)
    records = simulate_outbreak(STAR, cfg)
    assert len(records) == 40  # 40 distinct nodes, each below 3001
    _, (row,) = final_size_curve("preferential-attachment", [0.5], 1, 0,
                                 n_population=40, n_index=40, detail=True)
    assert row == (1.0,)


@pytest.mark.parametrize("draws", [[0.0], [_TOP], [0.0, _TOP], [_TOP, 0.0]])
def test_the_largest_jitter_gives_finite_coordinates(monkeypatch, draws):
    # the Box-Muller radius is at most sqrt(-2 ln 2**-53) < 8.6 standard
    # deviations, so 8.6e300 km at most: the latitude stops at a pole and
    # the longitude wraps
    cycle = iter(draws * 10_000)
    monkeypatch.setattr(random.Random, "random", lambda self: next(cycle))
    cfg = config(n_population=30, p_transmit=1.0, n_steps=30,
                 jitter_km=1e300)
    records = simulate_outbreak(generate_network(cfg), cfg)
    assert len(records) == 30
    for record in records:
        assert math.isfinite(record.location.longitude)
        assert math.isfinite(record.location.latitude)


def test_the_box_muller_radius_is_at_most_8_6_deviations(monkeypatch):
    # with every uniform at its largest, a child of a case on the equator
    # lies 8.57 jitter scales east of it (the angle is a hair below 2 pi)
    assert math.sqrt(-2.0 * math.log(1.0 - _TOP)) < 8.6
    monkeypatch.setattr(random.Random, "random", lambda self: _TOP)
    cfg = config(n_population=2, p_transmit=1.0, n_steps=1, jitter_km=1.0)
    origin, child = simulate_outbreak(generate_network(cfg), cfg)
    east_km = (child.location.longitude - origin.location.longitude) \
        * _KM_PER_DEG_LAT
    assert 8.5 < east_km < 8.6


def test_preferential_attachment_grows_hubs():
    degs = {}
    for topology in ("preferential-attachment", "uniform-attachment"):
        net = generate_network(config(topology=topology, n_population=3000,
                                      seed=1))
        counts = [0] * net.n
        for a, b in net.edges:
            counts[a] += 1
            counts[b] += 1
        degs[topology] = max(counts)
    assert degs["preferential-attachment"] > degs["uniform-attachment"]


# --- outbreak process ---------------------------------------------------------


def test_no_transmission_yields_only_index_records():
    net = generate_network(config(n_population=50))
    recs = simulate_outbreak(net, config(n_population=50, p_transmit=0.0,
                                         n_steps=20))
    assert len(recs) == 1
    assert recs[0].source_id is None
    assert recs[0].location == GeoPoint(0.0, 0.0)


def test_certain_transmission_infects_everyone():
    n = 120
    cfg = config(n_population=n, p_transmit=1.0, n_steps=n, jitter_km=0.0)
    recs = simulate_outbreak(generate_network(cfg), cfg)
    assert len(recs) == n
    by_id = {r.case_id: r for r in recs}
    for r in recs:
        if r.source_id is not None:
            # with p=1 every infection happens exactly one day after its source
            assert r.timestamp - by_id[r.source_id].timestamp == timedelta(days=1)


def test_record_graph_is_a_forest(outbreak_stream):
    g = build_graph(outbreak_stream)
    assert g.n_edges == sum(1 for r in outbreak_stream if r.source_id is not None)
    assert g.n_components() == g.n_vertices - g.n_edges


def test_case_ids_are_sequential():
    cfg = config(n_population=30, p_transmit=0.5, n_steps=40, seed=3)
    recs = simulate_outbreak(generate_network(cfg), cfg)
    assert [r.case_id for r in recs] == [f"C{i:06d}" for i in
                                         range(1, len(recs) + 1)]


def test_simulation_is_deterministic():
    cfg = config(n_population=80, p_transmit=0.3, n_steps=30, seed=21)
    net = generate_network(cfg)
    assert simulate_outbreak(net, cfg) == simulate_outbreak(net, cfg)


def test_infection_tree_invariant_to_jitter():
    base = dict(n_population=80, p_transmit=0.3, n_steps=30, seed=21)
    net = generate_network(config(**base))
    plain = simulate_outbreak(net, config(**base, jitter_km=0.0))
    noisy = simulate_outbreak(net, config(**base, jitter_km=25.0))
    assert [(r.case_id, r.source_id, r.timestamp) for r in plain] == \
           [(r.case_id, r.source_id, r.timestamp) for r in noisy]
    moved = [n.location != p.location
             for p, n in zip(plain, noisy) if n.source_id is not None]
    assert all(moved)


def test_zero_jitter_children_sit_on_their_infector():
    cfg = config(n_population=40, p_transmit=1.0, n_steps=40, jitter_km=0.0,
                 index_cases=(IndexCase(GeoPoint(-10.0, 8.0), T0),))
    recs = simulate_outbreak(generate_network(cfg), cfg)
    assert {r.location for r in recs} == {GeoPoint(-10.0, 8.0)}


def _index_nodes(cfg, n, rng=None):
    """The nodes the config's index cases land on in an n-node network,
    by a partial Fisher-Yates shuffle of a list, one draw each from rng
    (a new spread substream by default)."""
    rng = rng or random.Random(f"{cfg.seed}:{_TAG_SPREAD}")
    order = list(range(n))
    for i in range(len(cfg.index_cases)):
        j = i + int(rng.random() * (n - i))
        order[i], order[j] = order[j], order[i]
    return order[:len(cfg.index_cases)]


@pytest.mark.parametrize("seed,nodes", [(0, [1, 0]), (1, [0, 1])])
def test_simultaneous_infectors_resolve_to_one_source(seed, nodes):
    # nodes 0 and 1 are both one hop from node 2; the claim scan runs in
    # ascending node order, so the index case on node 0 is the recorded
    # source, whichever of the two it is
    cfg = SimConfig(n_population=3, p_transmit=1.0, n_steps=2, jitter_km=0.0,
                    seed=seed, index_cases=(IndexCase(GeoPoint(0.0, 0.0), T0),
                                            IndexCase(GeoPoint(10.0, 10.0), T0)))
    assert _index_nodes(cfg, 3) == nodes
    recs = simulate_outbreak(TWO_PARENTS, cfg)
    on_zero = nodes.index(0)
    assert len(recs) == 3
    assert [r.source_id for r in recs] == [None, None, f"C00000{on_zero + 1}"]
    assert recs[2].location == cfg.index_cases[on_zero].location


def test_staggered_index_cases_activate_on_their_day():
    cfg = SimConfig(n_population=3, p_transmit=0.0, n_steps=5, jitter_km=0.0,
                    seed=5, index_cases=(
                        IndexCase(GeoPoint(0.0, 0.0), T0),
                        IndexCase(GeoPoint(10.0, 10.0), T0 + timedelta(days=3))))
    recs = simulate_outbreak(TWO_PARENTS, cfg)
    assert [r.timestamp for r in recs] == [T0, T0 + timedelta(days=3)]


def test_simulate_needs_index_cases():
    net = generate_network(config(n_population=10))
    with pytest.raises(ValueError):
        simulate_outbreak(net, SimConfig(n_population=10))
    # the config admits four index cases, the 3-node network has no room
    four = SimConfig(n_population=10, index_cases=tuple(
        IndexCase(GeoPoint(float(i), 0.0), T0) for i in range(4)))
    with pytest.raises(ValueError, match="more index cases than individuals"):
        simulate_outbreak(TWO_PARENTS, four)


def test_simulate_stops_once_the_outbreak_is_over(cli, tmp_path):
    outputs, seconds = [], []
    for n_steps in (60, 2_000_000):
        path = tmp_path / f"steps{n_steps}.json"
        path.write_text(json.dumps({"n_population": 10, "p_transmit": 0.5,
                                    "seed": 3, "n_steps": n_steps}),
                        encoding="utf-8")
        start = time.perf_counter()
        code, out, _ = cli("simulate", "--input", str(path))
        seconds.append(time.perf_counter() - start)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    # stepping through every day took about 2 s on a 2-core machine
    assert seconds[1] < 1.0


def _visit_every_infected_node(network, cfg):
    """simulate_outbreak as it was before the frontier: every step visits
    every infected node, in ascending id order. It draws the index cases'
    nodes by _index_nodes, one uniform per transmission and one
    Box-Muller pair per jitter."""
    rng_spread = random.Random(f"{cfg.seed}:{_TAG_SPREAD}")
    rng_geo = random.Random(f"{cfg.seed}:{_TAG_GEO}")
    adjacency = network.adjacency()
    nodes = _index_nodes(cfg, network.n, rng_spread)
    base = min(ic.start for ic in cfg.index_cases)
    activations = {}
    for node, ic in zip(nodes, cfg.index_cases):
        activations.setdefault(-((base - ic.start) // STEP), []).append((node, ic))
    records, infected_at, locations, ids = [], {}, {}, {}

    def emit(node, source, instant, loc):
        ids[node] = f"C{len(records) + 1:06d}"
        locations[node] = loc
        records.append(CaseRecord(ids[node],
                                  None if source is None else ids[source],
                                  instant, loc))

    for step_idx in range(cfg.n_steps + 1):
        instant = base + step_idx * STEP
        for node, ic in activations.get(step_idx, ()):
            if node not in infected_at:
                infected_at[node] = step_idx
                emit(node, None, instant, ic.location)
        if step_idx == 0 or cfg.p_transmit == 0.0:
            continue
        claimed = {}
        for node in sorted(infected_at):
            if infected_at[node] >= step_idx:
                continue
            for nbr in adjacency[node]:
                if nbr in infected_at or nbr in claimed:
                    continue
                if rng_spread.random() < cfg.p_transmit:
                    claimed[nbr] = node
        for target, infector in claimed.items():
            infected_at[target] = step_idx
            if cfg.jitter_km > 0:
                u1, u2 = rng_geo.random(), rng_geo.random()
                radius = cfg.jitter_km * math.sqrt(-2.0 * math.log(1.0 - u1))
                dx = radius * math.cos(2.0 * math.pi * u2)
                dy = radius * math.sin(2.0 * math.pi * u2)
            else:
                dx = dy = 0.0
            emit(target, infector, instant,
                 _jittered(locations[infector], dx, dy))
    return tuple(records)


STAGGERED = (IndexCase(GeoPoint(-10.0, 8.0), T0),
             IndexCase(GeoPoint(-11.0, 7.0), T0 + timedelta(days=4)),
             IndexCase(GeoPoint(-9.0, 9.0), T0 + timedelta(days=9, hours=6)))
# One hub and 3,000 leaves: the step in which the hub transmits draws
# about 3,000 uniforms and 1,500 jitter pairs.
STAR = SyntheticNetwork(3001, tuple((0, leaf) for leaf in range(1, 3001)),
                        "preferential-attachment", 0)
# Every two nodes share neighbours: two index cases of one day border the
# same susceptible nodes, and the second to scan one that the first has
# claimed skips it without a draw.
COMPLETE = SyntheticNetwork(8, tuple((a, b) for b in range(8) for a in range(b)),
                            "uniform-attachment", 0)


@pytest.mark.parametrize("topology", ["preferential-attachment",
                                      "uniform-attachment"])
@pytest.mark.parametrize("kw", [
    dict(p_transmit=0.3),
    dict(p_transmit=1.0),
    dict(p_transmit=0.15, index_cases=STAGGERED),
    dict(p_transmit=0.5, jitter_km=0.0),
    dict(p_transmit=1.0, index_cases=STAGGERED, jitter_km=0.0),
    dict(p_transmit=0.5, network=STAR),
    dict(p_transmit=0.3, network=COMPLETE,
         index_cases=(IndexCase(GeoPoint(-10.0, 8.0), T0),
                      IndexCase(GeoPoint(-11.0, 7.0), T0))),
], ids=["p0.3", "p1", "staggered", "no-jitter", "p1-staggered-no-jitter",
        "many-in-one-step", "claimed-by-another-index-case"])
@pytest.mark.parametrize("seed", [0, 7])
def test_frontier_visits_give_the_records_of_visiting_every_node(topology, kw,
                                                                 seed):
    # a node leaves the frontier only when it would draw no more random
    # numbers, so every draw, and every record, is as before; a kw's
    # network stands in for the generated one
    kw = dict(kw)
    network = kw.pop("network", None)
    cfg = config(topology=topology, n_steps=25, seed=seed,
                 n_population=600 if network is None else network.n, **kw)
    network = network or generate_network(cfg)
    records = simulate_outbreak(network, cfg)
    assert len(records) > len(cfg.index_cases)
    assert records == _visit_every_infected_node(network, cfg)
    if network is STAR:
        per_day = Counter(record.timestamp for record in records)
        assert max(per_day.values()) > 1024


def test_an_index_case_due_after_the_outbreak_died_out_still_arrives():
    # two components: the first outbreak is over by day 2, and an index
    # case placed in the other component still arrives on day 5; one
    # placed in the first component finds its node infected
    network = SyntheticNetwork(4, ((0, 1), (2, 3)), "uniform-attachment", 0)
    index_cases = (IndexCase(GeoPoint(0.0, 0.0), T0),
                   IndexCase(GeoPoint(5.0, 5.0), T0 + timedelta(days=5)))
    apart = set()
    for seed in range(8):
        cfg = SimConfig(n_population=4, p_transmit=1.0, n_steps=10,
                        jitter_km=0.0, seed=seed, index_cases=index_cases)
        first, second = _index_nodes(cfg, 4)
        apart.add(first // 2 != second // 2)
        records = simulate_outbreak(network, cfg)
        assert records == _visit_every_infected_node(network, cfg)
        if first // 2 != second // 2:
            assert [(r.source_id, r.timestamp) for r in records[2:]] == [
                (None, T0 + timedelta(days=5)),
                ("C000003", T0 + timedelta(days=6))]
        else:
            assert len(records) == 2
    assert apart == {True, False}


def test_fixture_regenerates_exactly(sim_config_path):
    # the pinned CSV of the fixture config; the fixture's record file,
    # which the acceptance criteria read, came from 0.1.0's generator
    cfg = SimConfig.from_json(sim_config_path.read_text(encoding="utf-8"))
    recs = simulate_outbreak(generate_network(cfg), cfg)
    assert len(recs) == 1000
    buf = io.StringIO()
    write_stream(recs, buf, "csv")
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == SEED42_CSV_SHA256


def _written_by_csv_writer(records):
    """A CSV record stream as csv.writer writes it, one row per record."""
    buf = io.StringIO()
    buf.write(",".join(CSV_HEADER) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    for r in records:
        writer.writerow([r.case_id, r.source_id or "",
                         format_timestamp(r.timestamp),
                         repr(r.location.longitude),
                         repr(r.location.latitude)])
    return buf.getvalue()


# The simulator configs of perfbench's three workloads (stream-cumulative,
# stream-tumbling, batch-pipeline), on a fifteenth of their people.
_WORKLOAD_SIMS = [
    {"topology": "preferential-attachment", "n_population": 400,
     "p_transmit": 0.4, "n_steps": 80},
    {"topology": "uniform-attachment", "n_population": 800,
     "p_transmit": 0.3, "n_steps": 160},
    {"topology": "preferential-attachment", "n_population": 800,
     "p_transmit": 0.4, "n_steps": 80},
]


@pytest.mark.parametrize("sim", _WORKLOAD_SIMS)
@pytest.mark.parametrize("seed", [3, 905])
def test_simulate_writes_the_bytes_of_csv_writer(cli, tmp_path, sim, seed):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(sim), encoding="utf-8")
    out = tmp_path / "out.csv"
    code, _, err = cli("simulate", "--input", str(path), "--seed", str(seed),
                       "--output", str(out))
    assert code == 0, err
    cfg = SimConfig.from_json(path.read_text(encoding="utf-8")).replace(
        seed=seed)
    recs = simulate_outbreak(generate_network(cfg), cfg)
    assert len(recs) > 100
    assert out.read_bytes() == _written_by_csv_writer(recs).encode("utf-8")


def _jittered_with_max_min(loc, dx_km, dy_km):
    """The reference form of _jittered: global lookups and max/min."""
    km_per_deg_lat = math.pi * 6371.0 / 180.0
    lat = loc.latitude + dy_km / km_per_deg_lat
    lat = max(-90.0, min(90.0, lat))
    km_per_deg_lon = km_per_deg_lat * max(math.cos(math.radians(lat)), 0.01)
    lon = loc.longitude + dx_km / km_per_deg_lon
    lon = ((lon + 180.0) % 360.0) - 180.0
    return GeoPoint(lon, lat)


def _bits(point):
    return repr(point.longitude), repr(point.latitude)


@settings(max_examples=300)
@given(lon=st.floats(-180.0, 180.0), lat=st.floats(-90.0, 90.0),
       dx=st.floats(-1e6, 1e6), dy=st.floats(-1e6, 1e6))
@example(lon=0.0, lat=89.99, dx=3.0, dy=50.0)       # clamped to 90
@example(lon=0.0, lat=-89.99, dx=-3.0, dy=-50.0)    # clamped to -90
@example(lon=10.0, lat=90.0, dx=7.0, dy=0.0)
@example(lon=10.0, lat=89.0, dx=5.0, dy=111.19492664455873)  # lands on 90
@example(lon=-5.0, lat=89.5, dx=12.0, dy=0.0)       # cosine below 0.01
@example(lon=-5.0, lat=-89.7, dx=-12.0, dy=0.0)
@example(lon=0.0, lat=89.42706130231652, dx=20.0, dy=0.0)  # just below 0.01
@example(lon=0.0, lat=89.4241677221995, dx=20.0, dy=0.0)   # just above
@example(lon=179.99, lat=0.0, dx=5.0, dy=0.0)       # wraps past 180
@example(lon=-179.99, lat=0.0, dx=-5.0, dy=0.0)     # wraps past -180
@example(lon=180.0, lat=0.0, dx=0.0, dy=0.0)
@example(lon=-180.0, lat=0.0, dx=0.0, dy=0.0)
@example(lon=179.0, lat=89.9, dx=500.0, dy=30.0)    # all three at once
def test_jittered_equals_max_min_form(lon, lat, dx, dy):
    loc = GeoPoint(lon, lat)
    assert _bits(_jittered(loc, dx, dy)) == \
        _bits(_jittered_with_max_min(loc, dx, dy))


# --- final-size studies -------------------------------------------------------


def test_final_size_boundaries():
    means = dict(final_size_curve("preferential-attachment", [0.0, 1.0],
                                  replications=5, seed=1, n_population=200,
                                  n_steps=199))
    assert means[0.0] == 1.0 / 200.0
    assert means[1.0] == 1.0


@pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-20])
def test_final_size_at_a_vanishing_p_is_the_index_case_alone(p):
    # each delay is about 1/p days, past any run; one far past the
    # largest int64 once wrapped around to a one-day delay
    means = final_size_curve("uniform-attachment", [p], replications=3,
                             seed=0, n_population=50, n_steps=10)
    assert means == ((p, 1.0 / 50.0),)


def test_final_size_monotone_within_each_replication():
    grid = [0.0, 0.1, 0.3, 0.7, 1.0]
    _, per_rep = final_size_curve("uniform-attachment", grid, replications=12,
                                  seed=4, n_population=300, detail=True)
    for fractions in per_rep:
        assert list(fractions) == sorted(fractions)


@pytest.mark.parametrize("topology,counts", [
    ("preferential-attachment",
     [(3, 18, 139), (3, 37, 122), (3, 9, 124), (3, 22, 103)]),
    ("uniform-attachment",
     [(3, 7, 46), (3, 18, 84), (3, 10, 69), (3, 13, 47)]),
])
def test_final_size_with_several_index_cases(topology, counts):
    # infected counts of 200 per replication; at p = 0 only the three
    # index cases, each reached from its own source
    _, per_rep = final_size_curve(topology, [0.0, 0.1, 0.3], replications=4,
                                  seed=13, n_population=200, n_steps=12,
                                  n_index=3, detail=True)
    assert per_rep == tuple(tuple(c / 200 for c in row) for row in counts)


def test_final_size_detail_shape_and_mean():
    grid = [0.05, 0.2]
    means, per_rep = final_size_curve("preferential-attachment", grid,
                                      replications=7, seed=2,
                                      n_population=150, detail=True)
    assert [p for p, _ in means] == grid
    assert len(per_rep) == 7 and all(len(row) == 2 for row in per_rep)
    for i, (_, mean) in enumerate(means):
        assert mean == pytest.approx(sum(r[i] for r in per_rep) / 7, rel=1e-12)


def test_final_size_is_deterministic_per_seed():
    a = final_size_curve("preferential-attachment", [0.1], 6, 8,
                         n_population=100)
    b = final_size_curve("preferential-attachment", [0.1], 6, 8,
                         n_population=100)
    c = final_size_curve("preferential-attachment", [0.1], 6, 9,
                         n_population=100)
    assert a == b
    assert a != c


def test_final_size_validates_arguments():
    with pytest.raises(ValueError):
        final_size_curve("ring", [0.1], 5, 0)
    with pytest.raises(ValueError):
        final_size_curve("uniform-attachment", [1.5], 5, 0)
    with pytest.raises(ValueError):
        final_size_curve("uniform-attachment", [0.1], 0, 0)
    with pytest.raises(ValueError):
        final_size_curve("uniform-attachment", [0.1], 5, 0, n_population=10,
                         n_index=11)
