"""Deterministic SVG rendering of degree distributions and their fits.

The output is a standalone SVG built by plain string assembly: no
rendering dependency, byte-identical across runs, and friendly to text
diffing. Machine-readable hooks for tests and tooling: the plot-area
group carries data-* attributes describing the coordinate mapping, and
every series carries its family name.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Mapping, Sequence

from . import DISCRETE, PARAMS, in_domain, poisson_log_pmf
from .zeta import hurwitz_zeta

WIDTH = 800
HEIGHT = 520
MARGIN_LEFT = 64
MARGIN_TOP = 40
MARGIN_RIGHT = 200  # room for the legend
MARGIN_BOTTOM = 56
CURVE_STEP = 0.25   # quarter steps land exactly on integer degrees
CURVE_POINTS = 8192  # a curve of more steps (degree 2,048 on) is thinned

SERIES_COLORS = {
    "exponential": "#d62728",
    "normal": "#1f77b4",
    "poisson": "#2ca02c",
    "power-law": "#9467bd",
}
POINT_COLOR = "#202020"

# a power-law curve's normalizer is the same at every plotted degree
_zeta = lru_cache(maxsize=16)(hurwitz_zeta)


class EmptyDistribution(ValueError):
    """No point of the degree PMF can be drawn on the chosen axes."""


def _drawable(fit: Mapping) -> tuple[str, dict[str, float]]:
    """A fit's family and that family's parameters in name order;
    ValueError unless both are known and each is in its domain (PARAMS)."""
    try:
        family, given = fit["family"], fit["params"]
        params = {name: given.get(name) for name in sorted(PARAMS[family])}
        if all(in_domain(family, *item) for item in params.items()):
            return family, params
    except (AttributeError, KeyError, TypeError):
        pass
    raise ValueError(f"cannot draw fit {fit!r}")


def family_density(family: str, params: Mapping[str, float], x: float) -> float:
    """Density (or PMF, for the discrete families) at x."""
    if family == "exponential":
        lam = params["lambda"]
        return lam * math.exp(-lam * x) if x >= 0 else 0.0
    if family == "normal":
        mu, sigma = params["mu"], params["sigma"]
        z = (x - mu) / sigma
        return math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    if family == "poisson":
        lam = params["lambda"]
        if x < 0 or x != int(x):
            return 0.0
        if lam == 0.0:
            return 1.0 if x == 0 else 0.0
        return math.exp(poisson_log_pmf(int(x), lam))
    if family == "power-law":
        alpha, x_min = params["alpha"], int(params["x_min"])
        if x < x_min or x != int(x):
            return 0.0
        z = _zeta(alpha, float(x_min))
        if z == 0.0:  # x^-alpha underflows too: no curve to draw
            raise ValueError(f"cannot draw power law alpha={alpha!r}, "
                             f"x_min={x_min}: zeta underflows")
        return x ** (-alpha) / z
    raise ValueError(f"unknown family {family!r}")


def _curve_xs(family: str, params: Mapping[str, float], x_lo: float,
              x_hi: float, log_scale: bool) -> list[float]:
    """Where a curve is drawn between the whole degrees x_lo and x_hi:
    every quarter step (integer, for the discrete families), or past
    CURVE_POINTS steps that many points spread evenly on the axis."""
    step = CURVE_STEP
    if family in DISCRETE:
        step = 1.0
        if family == "power-law":
            x_lo = max(x_lo, float(params["x_min"]))
    steps = int(round((x_hi - x_lo) / step))
    if steps <= CURVE_POINTS:
        return [x_lo + i * step for i in range(steps + 1)]
    last = CURVE_POINTS - 1
    if log_scale:
        xs = [x_lo * (x_hi / x_lo) ** (i / last) for i in range(CURVE_POINTS)]
    else:
        xs = [x_lo + (x_hi - x_lo) * i / last for i in range(CURVE_POINTS)]
    return xs if step == CURVE_STEP else sorted({float(round(x)) for x in xs})


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_degree_plot(pmf: Mapping[int, float], fits: Sequence[Mapping], *,
                       log_scale: bool = False) -> str:
    """Scatter of the empirical degree PMF with one overlaid curve per
    fit, each a report's fit dict (``family`` and ``params``; the legend
    lists the parameters in name order). Linear axes by default;
    ``log_scale`` plots log10 of both axes (zero-degree and
    zero-probability points are dropped there, and curve values below
    half the smallest empirical probability, or below it where half of
    it is 0, are drawn at that floor).
    Raises EmptyDistribution when no point can be drawn, and ValueError
    on a fit it cannot draw."""
    points = sorted((int(d), float(p)) for d, p in pmf.items())
    if log_scale:
        points = [(d, p) for d, p in points if d > 0 and p > 0]
    if not points:
        raise EmptyDistribution("empty distribution")

    parsed = [_drawable(fit) for fit in fits]
    max_deg = max(d for d, _ in points)
    x_lo = 1.0 if log_scale else 0.0
    x_hi = float(max_deg + 1)

    # On log axes the y floor sits below the smallest empirical
    # probability, and curve values under it are drawn on it: a far tail
    # can underflow to a subnormal whose logarithm would set the scale.
    # Half the smallest subnormal is 0, so that one is its own floor.
    p_min = min(p for _, p in points)
    y_floor = 0.5 * p_min or p_min
    curves = []
    for family, params in parsed:
        xs = _curve_xs(family, params, x_lo, x_hi, log_scale)
        pts = [(x, family_density(family, params, x)) for x in xs]
        if log_scale:
            pts = [(x, max(y, y_floor)) for x, y in pts if x > 0 and y > 0]
        curves.append((family, params, pts))

    y_values = [p for _, p in points]
    for _, _, pts in curves:
        y_values.extend(y for _, y in pts)
    y_max = max(y_values) * 1.08
    if not math.isfinite(y_max):  # a density past float range
        raise ValueError("a fitted density exceeds the float range")
    if log_scale:
        x0, x1 = math.log10(x_lo), math.log10(x_hi)
        y0, y1 = math.log10(y_floor), math.log10(y_max)
    else:
        x0, x1 = x_lo, x_hi
        y0, y1 = 0.0, y_max

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def tx(x: float) -> float:
        v = math.log10(x) if log_scale else x
        return MARGIN_LEFT + (v - x0) * plot_w / (x1 - x0)

    def ty(y: float) -> float:
        v = math.log10(y) if log_scale else y
        return MARGIN_TOP + plot_h * (1.0 - (v - y0) / (y1 - y0))

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" '
               f'fill="#ffffff"/>')
    out.append(
        f'<g id="plot-area" data-scale="{"log10" if log_scale else "linear"}" '
        f'data-x0="{x0!r}" data-x1="{x1!r}" data-y0="{y0!r}" data-y1="{y1!r}" '
        f'data-left="{MARGIN_LEFT}" data-top="{MARGIN_TOP}" '
        f'data-plot-width="{plot_w}" data-plot-height="{plot_h}">')

    # frame and ticks
    bottom = MARGIN_TOP + plot_h
    right = MARGIN_LEFT + plot_w
    out.append(f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#444444"/>')
    if log_scale:
        x_ticks = []
        decade = 1
        while decade <= max_deg + 1:
            x_ticks.append(float(decade))
            decade *= 10
    else:
        step = max(1, int(math.ceil((max_deg + 1) / 12.0)))
        x_ticks = [float(v) for v in range(0, max_deg + 2, step)]
    for xt in x_ticks:
        px = tx(xt)
        out.append(f'<line x1="{_fmt(px)}" y1="{bottom}" x2="{_fmt(px)}" '
                   f'y2="{bottom + 6}" stroke="#444444"/>')
        label = f"{int(xt)}" if xt == int(xt) else f"{xt:g}"
        out.append(f'<text x="{_fmt(px)}" y="{bottom + 22}" '
                   f'font-family="sans-serif" font-size="12" '
                   f'text-anchor="middle" fill="#333333">{label}</text>')
    n_y_ticks = 5
    for i in range(n_y_ticks + 1):
        frac = i / n_y_ticks
        if log_scale:
            yv = 10.0 ** (y0 + frac * (y1 - y0))
        else:
            yv = y0 + frac * (y1 - y0)
        py = ty(yv)
        out.append(f'<line x1="{MARGIN_LEFT - 6}" y1="{_fmt(py)}" '
                   f'x2="{MARGIN_LEFT}" y2="{_fmt(py)}" stroke="#444444"/>')
        out.append(f'<text x="{MARGIN_LEFT - 10}" y="{_fmt(py + 4)}" '
                   f'font-family="sans-serif" font-size="12" '
                   f'text-anchor="end" fill="#333333">{yv:.4g}</text>')
    out.append(f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
               f'font-family="sans-serif" font-size="13" text-anchor="middle" '
               f'fill="#333333">degree</text>')
    out.append(f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.1f}" '
               f'font-family="sans-serif" font-size="13" text-anchor="middle" '
               f'fill="#333333" transform="rotate(-90 18 '
               f'{MARGIN_TOP + plot_h / 2:.1f})">probability</text>')

    # fitted curves
    for family, params, pts in curves:
        if not pts:
            continue
        coords = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in pts)
        color = SERIES_COLORS[family]
        out.append(f'<polyline data-kind="fit" data-family="{family}" '
                   f'points="{coords}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')

    # empirical scatter on top
    out.append('<g data-kind="empirical">')
    for d, p in points:
        out.append(f'<circle data-degree="{d}" data-prob="{p!r}" '
                   f'cx="{_fmt(tx(float(d)))}" cy="{_fmt(ty(p))}" r="3.5" '
                   f'fill="{POINT_COLOR}"/>')
    out.append('</g>')

    # legend
    lx = right + 16
    ly = MARGIN_TOP + 8
    out.append(f'<text x="{lx}" y="{ly}" font-family="sans-serif" '
               f'font-size="12" fill="#111111">empirical pmf</text>')
    out.append(f'<circle cx="{lx - 10}" cy="{ly - 4}" r="3.5" '
               f'fill="{POINT_COLOR}"/>')
    row = 1
    for family, params, _ in curves:
        y = ly + 20 * row
        row += 1
        color = SERIES_COLORS[family]
        label = ", ".join(f"{k}={v:.6g}" for k, v in params.items())
        out.append(f'<line x1="{lx - 16}" y1="{y - 4}" x2="{lx - 4}" '
                   f'y2="{y - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx}" y="{y}" font-family="sans-serif" '
                   f'font-size="12" fill="#111111">{family} ({label})</text>')

    out.append('</g>')
    out.append('</svg>')
    return "\n".join(out) + "\n"
