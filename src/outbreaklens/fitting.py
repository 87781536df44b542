"""Maximum-likelihood fitting of degree samples and structure selection.

Closed-form estimators for the exponential, normal, and Poisson
families, and a discrete (zeta-normalized) power law fitted by
one-dimensional likelihood maximization, with an optional
Kolmogorov-Smirnov scan for the tail start. Standard errors come from
the observed Fisher information; each fit carries its variance-
covariance matrix and log-likelihood so selection rules can be swapped.

All operations are pure functions of immutable samples (memoization
returns only what a call would compute) and are safe for data-parallel
execution across windows.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left
from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, Iterable, Mapping, Union

from . import DISCRETE, FAMILIES, PARAMS, RULES, in_domain, poisson_log_pmf
from .graph import DegreeSample
from .records import _Frozen
from .zeta import hurwitz_zeta, hurwitz_zeta_derivatives

ALPHA_MIN = 1.0 + 1e-9
ALPHA_MAX = 20.0
ALPHA_TOL = 1e-10

_LN_2PI = math.log(2.0 * math.pi)


class FitError(ValueError):
    """The sample cannot support the requested fit."""


SampleLike = Union[DegreeSample, Iterable[float]]


def _sample(family: str, sample: SampleLike, least: int = 1) -> tuple[Mapping, int]:
    """The sample as {value: count} (a DegreeSample already is one) and
    its size n. FitError when n < least, or unless each distinct value
    is in the family's support: any value for the normal, >= 0 for the
    exponential, an integer >= 0 (not a bool) for the DISCRETE families,
    whose values are then keyed by int."""
    hist = sample.counts if isinstance(sample, DegreeSample) else Counter(sample)
    n = sum(hist.values())
    if n < least:
        raise FitError("empty sample" if least == 1 else
                       f"sample smaller than {least}")
    whole = family in DISCRETE
    for x in hist:
        if family != "normal" and x < 0 or whole and (
                isinstance(x, bool) or x != x // 1):  # inf // 1 is nan
            raise FitError(f"{family} requires {'integer ' * whole}"
                           f"values >= 0, got {x!r}")
    return ({int(x): count for x, count in hist.items()} if whole
            else hist), n


def _sum_over(hist: Mapping, term) -> float:
    """Exactly rounded sum of term(x) over every sample value, equal bit
    for bit to math.fsum over the expanded sample. term runs once per
    distinct value; count * term sums exactly as integers over one
    power-of-two denominator, then one correctly rounded division. Other
    types, inf, nan and terms large enough for fsum to overflow take
    the expanded fsum, with its result or exception."""
    terms = [(term(x), count) for x, count in hist.items()]
    n = sum(hist.values())
    if all(isinstance(t, (int, float)) and abs(t) * n < 2.0 ** 1020
           for t, _ in terms):
        ratios = [(float(t).as_integer_ratio(), count) for t, count in terms]
        scale = max((d for (_, d), _ in ratios), default=1)
        return sum(num * (scale // d) * count
                   for (num, d), count in ratios) / scale
    return math.fsum(chain.from_iterable(
        repeat(t, count) for t, count in terms))


class FitResult(_Frozen):
    """One family fitted to one sample.

    ``params``/``se`` preserve estimation order; ``vcov`` rows follow the
    order of ``se`` (parameters estimated without a standard error, like
    a scanned tail start, carry no row). ``n`` is the effective sample
    size the family actually used.
    """

    family: str
    params: Mapping[str, float]
    se: Mapping[str, float]
    vcov: tuple[tuple[float, ...], ...]
    log_likelihood: float
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        k = len(self.vcov)
        if k != len(self.se) or any(len(row) != k for row in self.vcov):
            raise ValueError("vcov shape does not match the se vector")

    def to_json_dict(self) -> dict:
        k = len(self.vcov)
        return {
            "family": self.family,
            "params": dict(self.params),
            "se": dict(self.se),
            "vcov": {"dim": [k, k], "data": [v for row in self.vcov for v in row]},
            "loglik": self.log_likelihood,
            "n": self.n,
        }


class StructureClass(_Frozen):
    """Outcome of comparing all fitted families under one rule."""

    chosen: str
    rule: str
    all_fits: tuple[FitResult, ...]

    def __post_init__(self):
        if self.chosen not in {fit.family for fit in self.all_fits}:
            raise ValueError("chosen family is not among the fits")


# --- Log-likelihood ---------------------------------------------------------

def log_likelihood(family: str, params: Mapping[str, float],
                   sample: SampleLike) -> float:
    """Exact log-density sum of the sample under the given family.

    The power law is evaluated on its tail only (values >= x_min). A
    parameter outside its domain (PARAMS) or a value outside the
    family's support raises FitError.
    """
    if family not in PARAMS:
        raise ValueError(f"unknown family {family!r}")
    hist, n = _sample(family, sample)
    for name in PARAMS[family]:
        if not in_domain(family, name, value := params.get(name)):
            raise FitError(f"{family} {name} outside its domain: {value!r}")
    if family == "exponential":
        return _exponential_log_likelihood(n, params["lambda"],
                                           _sum_over(hist, lambda x: x))
    if family == "normal":
        mu = params["mu"]
        return _normal_log_likelihood(
            n, params["sigma"], _sum_over(hist, lambda x: (x - mu) ** 2))
    if family == "poisson":
        return _poisson_log_likelihood(hist, params["lambda"])
    alpha, x_min = params["alpha"], int(params["x_min"])  # the power law
    tail = {x: count for x, count in hist.items() if x >= x_min}
    if not tail:
        raise FitError("no values at or above x_min")
    return _powerlaw_log_likelihood(tail, alpha, _zeta_terms(alpha, x_min)[0])


def _exponential_log_likelihood(n: int, lam: float, sum_x: float) -> float:
    return n * math.log(lam) - lam * sum_x


def _normal_log_likelihood(n: int, sigma: float, ss: float) -> float:
    """ss is the sum of squared deviations from the mean parameter."""
    two_var = 2.0 * sigma * sigma
    if two_var >= sys.float_info.min:
        quad = ss / two_var
    else:  # 2 sigma^2 lost bits or is 0: divide by each factor in turn
        quad = ss / (2.0 * sigma) / sigma
    return -0.5 * n * _LN_2PI - n * math.log(sigma) - quad


def _poisson_log_likelihood(ints: Mapping[int, int], lam: float) -> float:
    if lam == 0.0:
        if any(ints):
            raise FitError("poisson(0) puts no mass on positive values")
        return 0.0
    return _sum_over(ints, lambda x: poisson_log_pmf(x, lam))


def _powerlaw_log_likelihood(tail: Mapping[int, int], alpha: float,
                             z: float) -> float:
    """The power law's log-likelihood of its tail {value: count}, given
    z = zeta(alpha, x_min)."""
    return -alpha * _sum_over(tail, math.log) - sum(tail.values()) * math.log(z)


# --- Closed-form fits -------------------------------------------------------

def fit_exponential(sample: SampleLike) -> FitResult:
    """MLE rate 1/mean; SE = rate/sqrt(n); vcov = rate^2/n."""
    hist, n = _sample("exponential", sample, 2)
    sum_x = _sum_over(hist, lambda x: x)
    mean = sum_x / n
    if mean <= 0:
        raise FitError("all-zero sample has no exponential MLE")
    lam = 1.0 / mean
    se = lam / math.sqrt(n)
    return FitResult("exponential", {"lambda": lam}, {"lambda": se},
                     ((lam * lam / n,),),
                     _exponential_log_likelihood(n, lam, sum_x), n)


def fit_normal(sample: SampleLike) -> FitResult:
    """MLE mean and sigma (denominator n); vcov = diag(s^2/n, s^2/2n)."""
    hist, n = _sample("normal", sample, 2)
    mu = _sum_over(hist, lambda x: x) / n
    ss = _sum_over(hist, lambda x: (x - mu) ** 2)
    var = ss / n
    if var == 0.0:
        raise FitError("constant sample: singular Fisher information")
    sigma = math.sqrt(var)
    se = {"mu": sigma / math.sqrt(n), "sigma": sigma / math.sqrt(2.0 * n)}
    vcov = ((var / n, 0.0), (0.0, var / (2.0 * n)))
    return FitResult("normal", {"mu": mu, "sigma": sigma}, se, vcov,
                     _normal_log_likelihood(n, sigma, ss), n)


def fit_poisson(sample: SampleLike) -> FitResult:
    """MLE rate = mean; SE = sqrt(rate/n); vcov = rate/n."""
    ints, n = _sample("poisson", sample)
    lam = _sum_over(ints, lambda x: x) / n
    return FitResult("poisson", {"lambda": lam}, {"lambda": math.sqrt(lam / n)},
                     ((lam / n,),), _poisson_log_likelihood(ints, lam), n)


# --- Discrete power law -----------------------------------------------------

# A gap between consecutive observed tail values wider than this many
# integers is crossed with one zeta difference instead of a term sum.
_KS_GAP = 64
# Newton converges in a handful of steps and bisection needs about 40 to
# close the bracket to ALPHA_TOL; this only bounds the loop.
_NEWTON_MAX_STEPS = 200


# A candidate's KS lower bound looks at its first _BOUND_VALUES observed
# tail values (a max over fewer points is still a lower bound): over the
# cumulative:1d windows of three 6k-case preferential outbreaks, 98% of
# the candidates skipped are decided within 16, and one that is solved
# after all wastes at most 16. _SKIP_ROUNDING is the rounding allowance
# per value looked at; see _can_win.
_BOUND_VALUES = 16
_SKIP_ROUNDING = 2.0 ** -40


def _zeta_terms(alpha: float, x_min: int) -> tuple[float, float, float]:
    """zeta, zeta' and zeta'' at (alpha, x_min); FitError where zeta is
    subnormal or 0 (x_min past 1e16): too few bits for a likelihood."""
    z, z1, z2 = hurwitz_zeta_derivatives(alpha, float(x_min))
    if z < sys.float_info.min:
        raise FitError(f"zeta({alpha!r}, {x_min}) underflows to {z!r}")
    return z, z1, z2


# The two memos below share one key. A candidate tail unchanged since the
# last window gets bit-identical arguments (suffix sums are built from
# the top down); 1024 entries each hold a few windows' scans in a few
# hundred KiB, so state stays bounded.
@lru_cache(maxsize=1024)
def _powerlaw_start(mean_log: float, x_min: int) -> tuple[float, float, float, float]:
    """The exponent solver's first step: the continuous approximation
    alpha0 (Clauset, Shalizi & Newman 2009, eq. 3.7) clamped to
    [ALPHA_MIN, ALPHA_MAX], and zeta, zeta' and zeta'' at alpha0."""
    gap = mean_log - math.log(x_min - 0.5)  # > 0 but for rounding at huge x_min
    alpha = min(max(1.0 + 1.0 / gap, ALPHA_MIN), ALPHA_MAX) if gap > 0 else ALPHA_MAX
    return (alpha, *_zeta_terms(alpha, x_min))


@lru_cache(maxsize=1024)
def _powerlaw_alpha(mean_log: float, x_min: int) -> tuple[float, float, float, float]:
    """Maximize l(alpha) = -n*alpha*mean_log - n*ln zeta(alpha, x_min)
    on [ALPHA_MIN, ALPHA_MAX] by safeguarded Newton on the score; return
    alpha with zeta, zeta' and zeta'' at it.

    The score per point is g = -mean_log - z'/z, where -z'/z is the mean
    of ln X under the fitted law; its derivative is minus the variance
    of ln X, so l is strictly concave and g has at most one root. Each
    step keeps a bracket [lo, hi] with g(lo) > 0 >= g(hi) and bisects
    when Newton would leave it; iteration stops once a step is at most
    ALPHA_TOL. When the likelihood still rises at ALPHA_MAX the estimate
    is clamped there. Iteration starts from _powerlaw_start, so the
    result lies on the side of its alpha0 that the score there points
    to: at or above alpha0 when g(alpha0) > 0, else at or below.
    """
    lo, hi = ALPHA_MIN, ALPHA_MAX
    alpha, z, z1, z2 = _powerlaw_start(mean_log, x_min)
    capped = alpha == ALPHA_MAX  # whether g(ALPHA_MAX) has been looked at
    for _ in range(_NEWTON_MAX_STEPS):
        m1 = z1 / z
        g = -mean_log - m1
        if g > 0.0:
            if alpha >= ALPHA_MAX:
                return alpha, z, z1, z2
            lo = alpha
        else:
            hi = alpha
        step = g / (z2 / z - m1 * m1)
        new = alpha + step
        if abs(step) <= ALPHA_TOL and lo <= new <= hi:
            return (new, *_zeta_terms(new, x_min))
        if not lo < new < hi:
            if new >= hi == ALPHA_MAX and not capped:
                new, capped = ALPHA_MAX, True
            else:
                new = 0.5 * (lo + hi)
            if hi - lo <= ALPHA_TOL:
                return (new, *_zeta_terms(new, x_min))
        alpha = new
        z, z1, z2 = _zeta_terms(alpha, x_min)
    return alpha, z, z1, z2


def _ks_distance(tail: list[tuple[int, int]], n_tail: int, alpha: float,
                 x_min: int, z: float, stop: float = math.inf,
                 gap: Callable[[float], float] = abs) -> float:
    """Max |empirical - fitted| tail CDF over the observed tail values
    ``tail`` ((value, count), ascending). The fitted CDF at v is the
    running sum of k^-alpha over x_min <= k <= v, over the solver's
    z = zeta(alpha, x_min); only a long gap between observed values takes
    a zeta, crossed with z - zeta(alpha, v + 1). Once the distance reaches
    ``stop`` the scan ends and returns a value >= ``stop``. ``gap`` maps
    empirical minus fitted to the distance: abs, or operator.pos or
    operator.neg for one side of it."""
    power = -alpha
    head = 0.0  # sum of k^-alpha over x_min <= k < nxt
    nxt = x_min
    cum = 0
    worst = 0.0
    for v, count in tail:
        if v == nxt:
            head += v ** power
        elif v - nxt < _KS_GAP:
            for k in range(nxt, v + 1):
                head += k ** power
        else:
            head = z - hurwitz_zeta(alpha, float(v + 1))
        nxt = v + 1
        cum += count
        d = gap(cum / n_tail - head / z)
        if d > worst:
            worst = d
            if worst >= stop:
                break
    return worst


def _can_win(tail: list[tuple[int, int]], n_tail: int, mean_log: float,
             x_min: int, best: float) -> bool:
    """Whether the candidate's KS distance can be below ``best``, judged
    from the solver's first step alone.

    The fitted tail CDF F(v; alpha) rises with alpha at every v: its
    derivative is E[1{X <= v} (E ln X - ln X)], between 0 and sd(ln X)/2.
    The exponent lies on the side of alpha0 that the score g(alpha0)
    points to (see _powerlaw_alpha), so on that side the gap between
    F(v; alpha0) and the empirical CDF bounds the KS distance from
    below. The candidate is skipped once that bound reaches ``best``
    plus a margin: ALPHA_TOL * sd(ln X) at alpha0, for an exponent off
    by up to ALPHA_TOL, and _SKIP_ROUNDING per value looked at plus
    one. The fitted CDF at the j-th value is a sum of at most 64 terms
    per value up to it, or a zeta difference, over zeta; with u = 2^-53
    and zeta's relative error e, a distance there rounds by less than
    (64 j + 5) u + 3 e, so even at e = 1e-13 the two distances compared
    round by less than half of (j + 1) * _SKIP_ROUNDING. A skipped
    candidate's distance is then at least ``best``: it could not have
    won, not even a tie.
    """
    tail = tail[:_BOUND_VALUES]
    alpha0, z, z1, z2 = _powerlaw_start(mean_log, x_min)
    m1 = z1 / z
    stop = (best + (len(tail) + 1) * _SKIP_ROUNDING
            + ALPHA_TOL * math.sqrt(abs(z2 / z - m1 * m1)))
    side = operator.neg if -mean_log - m1 > 0.0 else operator.pos
    return _ks_distance(tail, n_tail, alpha0, x_min, z, stop, side) < stop


def fit_powerlaw(sample: SampleLike, x_min: int | None = None) -> FitResult:
    """Discrete power law p(x) = x^(-alpha) / zeta(alpha, x_min) on the
    tail {x >= x_min}.

    With ``x_min`` given, alpha alone is estimated. Otherwise every
    distinct positive sample value is tried as the tail start and the
    one minimizing the Kolmogorov-Smirnov distance between fitted and
    empirical tail CDFs wins (ties go to the smallest). Tail sizes and
    sums of ln x for every candidate come from suffix sums over the
    histogram. A candidate whose KS distance cannot beat the best so far
    is skipped before its exponent is solved (see _can_win), and a
    solved candidate's KS scan stops once it can no longer win.

    SE(alpha) comes from the observed Fisher information
    n * (z''/z - (z'/z)^2), with the zeta terms the solver returned at
    the estimate; the scanned tail start carries no standard error.
    """
    ints, _ = _sample("power-law", sample)

    values = sorted(x for x in ints if x >= 1)
    tail = [(v, ints[v]) for v in values]
    # suffix sums: n_tails[i] points and sum_logs[i] = sum of ln x at or
    # above values[i]
    n_tails = [0] * (len(values) + 1)
    sum_logs = [0.0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        v, count = tail[i]
        n_tails[i] = n_tails[i + 1] + count
        sum_logs[i] = sum_logs[i + 1] + count * math.log(v)

    if x_min is not None:
        if not in_domain("power-law", "x_min", x_min):
            raise FitError(f"power-law x_min outside its domain: {x_min!r}")
        x_min = int(x_min)
        i = bisect_left(values, x_min)
        n_tail = n_tails[i]
        if n_tail < 2:
            raise FitError("tail smaller than 2 points")
        if values[i:] == [x_min]:
            raise FitError("degenerate tail: all values equal x_min, "
                           "likelihood increases without bound")
        alpha, z, z1, z2 = _powerlaw_alpha(sum_logs[i] / n_tail, x_min)
    else:
        # a candidate needs two distinct tail values, else the tail is
        # degenerate; larger candidates only shrink the tail further
        best = None  # (ks, index, the solver's alpha, z, z1 and z2)
        for i in range(len(values) - 1):
            x_c, n_c, tail_c = values[i], n_tails[i], tail[i:]
            mean_log = sum_logs[i] / n_c
            try:
                if best is not None and not _can_win(tail_c, n_c, mean_log,
                                                     x_c, best[0]):
                    continue
                solved = _powerlaw_alpha(mean_log, x_c)
            except FitError:  # zeta underflows at this tail start
                continue
            ks_c = _ks_distance(tail_c, n_c, solved[0], x_c, solved[1],
                                math.inf if best is None else best[0])
            if best is None or ks_c < best[0]:
                best = (ks_c, i, solved)
        if best is None:
            raise FitError("no x_min candidate leaves a fittable tail")
        _, i, (alpha, z, z1, z2) = best
        x_min, n_tail = values[i], n_tails[i]

    info = z2 / z - (z1 / z) ** 2  # variance of ln X under the fitted law
    se = 1.0 / math.sqrt(n_tail * info)
    return FitResult("power-law", {"x_min": x_min, "alpha": alpha},
                     {"alpha": se}, ((se * se,),),
                     _powerlaw_log_likelihood(dict(tail[i:]), alpha, z),
                     n_tail)


# --- Selection --------------------------------------------------------------

_FIT_FUNCTIONS = {
    "exponential": fit_exponential,
    "normal": fit_normal,
    "poisson": fit_poisson,
    "power-law": fit_powerlaw,
}


def fit_family(family: str, sample: SampleLike) -> FitResult:
    """Dispatch to the fitter for one family name."""
    try:
        fitter = _FIT_FUNCTIONS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    return fitter(sample)


def select_structure(fits: Iterable[FitResult], rule: str = "min-se") -> StructureClass:
    """Pick the family a degree sample most plausibly follows.

    min-se: smallest sum of parameter standard errors (the scale-mixing
    is deliberate; it is the comparison the reports are defined by).
    aic: smallest 2k - 2*loglik with k the number of parameters carrying
    a standard error. max-loglik: largest log-likelihood. Ties break by
    family order: exponential < normal < poisson < power-law, so the
    outcome never depends on the order of ``fits``.
    """
    fits = tuple(fits)
    if not fits:
        raise ValueError("empty fit list")
    if rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}; expected one of {RULES}")

    def key(fit: FitResult) -> tuple[float, int]:
        rank = FAMILIES.index(fit.family)
        if rule == "min-se":
            return (math.fsum(fit.se.values()), rank)
        if rule == "aic":
            return (2.0 * len(fit.se) - 2.0 * fit.log_likelihood, rank)
        return (-fit.log_likelihood, rank)

    chosen = min(fits, key=key).family
    return StructureClass(chosen, rule, fits)
