"""SVG degree-plot structure, coordinate mapping, and determinism."""

import math
import time
import xml.etree.ElementTree as ET

import pytest

from outbreaklens.fitting import fit_exponential, fit_family, fit_powerlaw
from outbreaklens.plot import (
    CURVE_POINTS,
    CURVE_STEP,
    _curve_xs,
    family_density,
    render_degree_plot,
)

NS = "{http://www.w3.org/2000/svg}"

PMF = {0: 0.05, 1: 0.55, 2: 0.20, 3: 0.10, 4: 0.06, 9: 0.04}
SAMPLE = [1] * 55 + [2] * 20 + [3] * 10 + [4] * 6 + [9] * 4 + [0] * 5


def fits_for(sample, families=("exponential", "normal", "poisson", "power-law")):
    return [fit_family(f, [x for x in sample if x > 0] if f == "power-law"
                       else sample).to_json_dict() for f in families]


def parse(svg: str):
    root = ET.fromstring(svg)
    (area,) = [g for g in root.iter(NS + "g") if g.get("id") == "plot-area"]
    return root, area


def mapping(area):
    scale = area.get("data-scale")
    x0, x1 = float(area.get("data-x0")), float(area.get("data-x1"))
    y0, y1 = float(area.get("data-y0")), float(area.get("data-y1"))
    left, top = float(area.get("data-left")), float(area.get("data-top"))
    w, h = float(area.get("data-plot-width")), float(area.get("data-plot-height"))

    def tx(v):
        v = math.log10(v) if scale == "log10" else v
        return left + (v - x0) * w / (x1 - x0)

    def ty(v):
        v = math.log10(v) if scale == "log10" else v
        return top + h * (1.0 - (v - y0) / (y1 - y0))

    return tx, ty


def test_document_shape():
    svg = render_degree_plot(PMF, fits_for(SAMPLE))
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    root, area = parse(svg)
    assert root.get("viewBox") == "0 0 800 520"
    assert area.get("data-scale") == "linear"


def test_byte_identical_across_renders():
    fits = fits_for(SAMPLE)
    assert render_degree_plot(PMF, fits) == render_degree_plot(PMF, fits)


def test_empirical_points_invert_through_recorded_transform():
    svg = render_degree_plot(PMF, fits_for(SAMPLE))
    _, area = parse(svg)
    tx, ty = mapping(area)
    circles = [c for c in area.iter(NS + "circle") if c.get("data-degree")]
    assert len(circles) == len(PMF)
    for c in circles:
        degree = int(c.get("data-degree"))
        prob = float(c.get("data-prob"))
        assert prob == PMF[degree]
        assert float(c.get("cx")) == pytest.approx(tx(degree), abs=2e-3)
        assert float(c.get("cy")) == pytest.approx(ty(prob), abs=2e-3)


def test_log_scale_drops_zero_degree_and_inverts():
    svg = render_degree_plot(PMF, fits_for(SAMPLE), log_scale=True)
    _, area = parse(svg)
    assert area.get("data-scale") == "log10"
    tx, ty = mapping(area)
    circles = [c for c in area.iter(NS + "circle") if c.get("data-degree")]
    degrees = sorted(int(c.get("data-degree")) for c in circles)
    assert degrees == [1, 2, 3, 4, 9]  # degree 0 cannot sit on a log axis
    for c in circles:
        d, p = int(c.get("data-degree")), float(c.get("data-prob"))
        assert float(c.get("cx")) == pytest.approx(tx(d), abs=2e-3)
        assert float(c.get("cy")) == pytest.approx(ty(p), abs=2e-3)


def test_one_tagged_polyline_per_fitted_family():
    svg = render_degree_plot(PMF, fits_for(SAMPLE))
    _, area = parse(svg)
    lines = [p for p in area.iter(NS + "polyline") if p.get("data-kind") == "fit"]
    assert sorted(p.get("data-family") for p in lines) == [
        "exponential", "normal", "poisson", "power-law"]


def test_continuous_curves_sample_quarter_steps():
    svg = render_degree_plot(PMF, [fit_exponential(SAMPLE).to_json_dict()])
    _, area = parse(svg)
    (line,) = [p for p in area.iter(NS + "polyline")
               if p.get("data-family") == "exponential"]
    pts = line.get("points").split()
    x_hi = float(area.get("data-x1"))
    assert len(pts) == int(round(x_hi / CURVE_STEP)) + 1


def test_discrete_curves_sit_on_integers():
    fit = fit_powerlaw([x for x in SAMPLE if x > 0], x_min=1)
    svg = render_degree_plot(PMF, [fit.to_json_dict()])
    _, area = parse(svg)
    tx, ty = mapping(area)
    (line,) = [p for p in area.iter(NS + "polyline")
               if p.get("data-family") == "power-law"]
    xs = [float(pair.split(",")[0]) for pair in line.get("points").split()]
    expected = [tx(float(v)) for v in range(1, int(float(area.get("data-x1"))) + 1)]
    assert xs == pytest.approx(expected, abs=2e-3)


def test_curves_below_degree_2048_keep_every_step():
    # the largest degree 2,047 puts x_hi at 2,048: 8,192 quarter steps
    for log_scale in (False, True):
        x_lo = 1.0 if log_scale else 0.0
        steps = int((2048.0 - x_lo) / CURVE_STEP)
        assert _curve_xs("normal", {}, x_lo, 2048.0, log_scale) == [
            x_lo + i * CURVE_STEP for i in range(steps + 1)]
        assert _curve_xs("poisson", {}, x_lo, 2048.0, log_scale) == [
            float(v) for v in range(int(x_lo), 2049)]


@pytest.mark.parametrize("log_scale", [False, True])
def test_a_huge_degree_draws_capped_curves(log_scale):
    pmf = {1: 0.5, 1_000_000: 0.5}
    fits = [{"family": "exponential", "params": {"lambda": 2e-6}},
            {"family": "normal", "params": {"mu": 5e5, "sigma": 5e5}},
            {"family": "poisson", "params": {"lambda": 5e5}},
            {"family": "power-law", "params": {"alpha": 1.5, "x_min": 1}}]
    started = time.perf_counter()
    svg = render_degree_plot(pmf, fits, log_scale=log_scale)
    assert time.perf_counter() - started < 1.0
    _, area = parse(svg)
    tx, _ = mapping(area)
    xs = {line.get("data-family"): [float(pair.split(",")[0])
                                    for pair in line.get("points").split()]
          for line in area.iter(NS + "polyline")}
    assert len(xs) == 4
    for family_xs in xs.values():
        assert len(family_xs) <= CURVE_POINTS
        assert family_xs == sorted(family_xs)
    # the thinned curves still run from their first degree to the last
    for family, first in (("exponential", 1.0 if log_scale else 0.0),
                          ("power-law", 1.0)):
        assert xs[family][0] == pytest.approx(tx(first), abs=2e-3)
        assert xs[family][-1] == pytest.approx(tx(1_000_001.0), abs=2e-3)


def test_curves_stay_inside_the_frame():
    svg = render_degree_plot(PMF, fits_for(SAMPLE))
    _, area = parse(svg)
    left, top = float(area.get("data-left")), float(area.get("data-top"))
    right = left + float(area.get("data-plot-width"))
    bottom = top + float(area.get("data-plot-height"))
    for p in area.iter(NS + "polyline"):
        for pair in p.get("points").split():
            x, y = map(float, pair.split(","))
            assert left - 1 <= x <= right + 1
            assert top - 1 <= y <= bottom + 1


@pytest.mark.parametrize("log_scale", [False, True])
def test_a_density_past_float_range_is_not_drawn(log_scale):
    # 1 / (sigma sqrt(2 pi)) overflows at the mean, so no y scale is finite
    fits = [{"family": "normal", "params": {"mu": 1.0, "sigma": 1e-310}}]
    with pytest.raises(ValueError, match="float range"):
        render_degree_plot({0: 0.5, 1: 0.5}, fits, log_scale=log_scale)
    # just above where it overflows, every coordinate is finite
    fits[0]["params"]["sigma"] = 3e-308
    svg = render_degree_plot({0: 0.5, 1: 0.5}, fits, log_scale=log_scale)
    assert "nan" not in svg and "inf" not in svg


def test_report_style_fit_mappings_accepted():
    fits = [{"family": "exponential", "params": {"lambda": 0.5}}]
    svg = render_degree_plot(PMF, fits)
    assert 'data-family="exponential"' in svg


def test_legend_lists_parameters_in_name_order():
    fits = [{"family": "power-law", "params": {"x_min": 2, "alpha": 2.5}}]
    svg = render_degree_plot(PMF, fits)
    assert "power-law (alpha=2.5, x_min=2)" in svg


def test_legend_names_every_series():
    svg = render_degree_plot(PMF, fits_for(SAMPLE))
    assert "empirical pmf" in svg
    for family in ("exponential", "normal", "poisson", "power-law"):
        assert family in svg


def test_empty_distribution_rejected():
    with pytest.raises(ValueError):
        render_degree_plot({}, [])
    with pytest.raises(ValueError):
        render_degree_plot({0: 1.0}, [], log_scale=True)


def test_density_helpers_match_definitions():
    assert family_density("exponential", {"lambda": 2.0}, 0.5) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-12)
    assert family_density("normal", {"mu": 0.0, "sigma": 1.0}, 0.0) == \
        pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
    assert family_density("poisson", {"lambda": 2.0}, 1.5) == 0.0
    assert family_density("power-law", {"alpha": 2.0, "x_min": 2}, 1.0) == 0.0
    with pytest.raises(ValueError):
        family_density("gamma", {}, 1.0)
