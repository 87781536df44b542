"""MLE fitting, standard errors, likelihoods, and structure selection."""

import functools
import itertools
import json
import math
from collections import Counter
from datetime import timedelta
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import zeta as scipy_zeta

from outbreaklens.fitting import (
    ALPHA_MAX,
    ALPHA_MIN,
    FAMILIES,
    FitError,
    FitResult,
    _ks_distance,
    _powerlaw_alpha,
    _sum_over,
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
from outbreaklens import PARAMS, RULES
from outbreaklens import fitting as fitting_module
from outbreaklens import zeta as zeta_module
from outbreaklens.engine import WindowSpec, run
from outbreaklens.graph import DegreeSample
from outbreaklens.plot import render_degree_plot
from outbreaklens.sim import SimConfig, generate_network, simulate_outbreak

SAMPLE = (1, 2, 3, 10)  # mean 4, n 4


# --- closed forms against hand arithmetic --------------------------------


def test_exponential_closed_form():
    fit = fit_exponential(SAMPLE)
    assert fit.params["lambda"] == pytest.approx(0.25, rel=1e-15)
    assert fit.se["lambda"] == pytest.approx(0.25 / 2.0, rel=1e-15)
    assert fit.vcov == ((pytest.approx(0.25 ** 2 / 4.0, rel=1e-15),),)
    assert fit.n == 4


def test_normal_closed_form():
    fit = fit_normal(SAMPLE)
    var = (9.0 + 4.0 + 1.0 + 36.0) / 4.0  # denominator n, not n-1
    assert fit.params["mu"] == pytest.approx(4.0, rel=1e-15)
    assert fit.params["sigma"] == pytest.approx(math.sqrt(var), rel=1e-15)
    assert fit.se["mu"] == pytest.approx(math.sqrt(var / 4.0), rel=1e-15)
    assert fit.se["sigma"] == pytest.approx(math.sqrt(var / 8.0), rel=1e-15)
    assert fit.vcov[0][1] == 0.0 and fit.vcov[1][0] == 0.0
    assert fit.vcov[0][0] == pytest.approx(var / 4.0, rel=1e-15)
    assert fit.vcov[1][1] == pytest.approx(var / 8.0, rel=1e-15)


def test_poisson_closed_form():
    fit = fit_poisson(SAMPLE)
    assert fit.params["lambda"] == pytest.approx(4.0, rel=1e-15)
    assert fit.se["lambda"] == pytest.approx(1.0, rel=1e-15)
    assert fit.vcov == ((pytest.approx(1.0, rel=1e-15),),)


def test_fit_family_dispatch():
    assert fit_family("exponential", SAMPLE).family == "exponential"
    with pytest.raises(ValueError):
        fit_family("weibull", SAMPLE)


def test_degree_sample_input_equals_tuple_input():
    ds = DegreeSample({1: 1, 2: 1, 3: 1, 10: 1})
    assert fit_exponential(ds) == fit_exponential(SAMPLE)


# --- log-likelihoods against scipy ----------------------------------------


def test_exponential_loglik_matches_scipy():
    fit = fit_exponential(SAMPLE)
    ref = stats.expon(scale=1.0 / fit.params["lambda"]).logpdf(SAMPLE).sum()
    assert fit.log_likelihood == pytest.approx(ref, rel=1e-12)


def test_normal_loglik_matches_scipy():
    fit = fit_normal(SAMPLE)
    ref = stats.norm(fit.params["mu"], fit.params["sigma"]).logpdf(SAMPLE).sum()
    assert fit.log_likelihood == pytest.approx(ref, rel=1e-12)


def test_poisson_loglik_matches_scipy():
    fit = fit_poisson(SAMPLE)
    ref = stats.poisson(fit.params["lambda"]).logpmf(SAMPLE).sum()
    assert fit.log_likelihood == pytest.approx(ref, rel=1e-12)


def test_powerlaw_loglik_matches_scipy_zeta():
    xs = (1, 1, 2, 3, 5, 8)
    ll = log_likelihood("power-law", {"alpha": 2.2, "x_min": 1}, xs)
    ref = sum(-2.2 * math.log(x) for x in xs) - 6 * math.log(scipy_zeta(2.2, 1))
    assert ll == pytest.approx(ref, rel=1e-12)


def test_powerlaw_loglik_restricted_to_tail():
    xs = (1, 1, 2, 4, 6)
    ll = log_likelihood("power-law", {"alpha": 2.0, "x_min": 3}, xs)
    ref = sum(-2.0 * math.log(x) for x in (4, 6)) - 2 * math.log(scipy_zeta(2.0, 3))
    assert ll == pytest.approx(ref, rel=1e-12)


def test_loglik_support_violations():
    with pytest.raises(FitError):
        log_likelihood("exponential", {"lambda": 1.0}, (-1.0, 2.0))
    with pytest.raises(FitError):
        log_likelihood("poisson", {"lambda": 1.0}, (1.5,))
    with pytest.raises(FitError):
        log_likelihood("poisson", {"lambda": 0.0}, (1,))
    assert log_likelihood("poisson", {"lambda": 0.0}, (0, 0)) == 0.0
    with pytest.raises(FitError):
        log_likelihood("power-law", {"alpha": 2.0, "x_min": 5}, (1, 2))
    with pytest.raises(FitError):
        log_likelihood("exponential", {"lambda": 1.0}, ())
    # a negative value is outside the power law's sample support, below
    # x_min too, as it is for fit_powerlaw
    with pytest.raises(FitError, match="requires integer values"):
        log_likelihood("power-law", {"alpha": 2.0, "x_min": 2}, (-1, 2, 3))


# --- power law -------------------------------------------------------------


def test_powerlaw_recovers_known_exponent():
    xs = np.random.default_rng(11).zipf(2.5, size=5000)
    fit = fit_powerlaw(xs, x_min=1)
    assert fit.params["x_min"] == 1
    assert abs(fit.params["alpha"] - 2.5) < 3.0 * fit.se["alpha"]
    assert fit.n == 5000


def test_powerlaw_alpha_maximizes_likelihood_locally():
    xs = np.random.default_rng(3).zipf(2.3, size=2000)
    fit = fit_powerlaw(xs, x_min=1)
    a = fit.params["alpha"]
    ll = lambda alpha: log_likelihood("power-law", {"alpha": alpha, "x_min": 1}, xs)
    here = ll(a)
    assert here >= ll(a - 1e-4) and here >= ll(a + 1e-4)


def test_powerlaw_scan_steps_over_contamination():
    rng = np.random.default_rng(314)
    draws = rng.zipf(2.5, size=60_000)
    tail = draws[draws >= 4][:600]
    junk = np.concatenate([np.full(200, 1), np.full(150, 2), np.full(50, 3)])
    sample = np.concatenate([junk, tail])
    fit = fit_powerlaw(sample)
    assert fit.params["x_min"] >= 4
    fixed = fit_powerlaw(sample, x_min=4)
    assert fixed.params["alpha"] == pytest.approx(2.5, abs=0.15)
    assert fixed.n == len(tail)


def test_powerlaw_scan_keeps_origin_for_clean_sample():
    xs = np.random.default_rng(11).zipf(2.5, size=5000)
    fit = fit_powerlaw(xs)
    assert fit.params["x_min"] == 1


def test_powerlaw_se_from_curvature():
    # the info term must equal the variance of ln X under the fitted law,
    # recomputed here by direct summation over the support
    xs = np.random.default_rng(5).zipf(2.6, size=3000)
    fit = fit_powerlaw(xs, x_min=1)
    a = fit.params["alpha"]
    z = scipy_zeta(a, 1)
    ks = np.arange(1, 200_000)
    pmf = ks ** (-a) / z
    m1 = float((np.log(ks) * pmf).sum())
    m2 = float((np.log(ks) ** 2 * pmf).sum())
    assert fit.se["alpha"] == pytest.approx(1.0 / math.sqrt(3000 * (m2 - m1 ** 2)),
                                            rel=1e-4)


def test_powerlaw_error_cases():
    with pytest.raises(FitError):
        fit_powerlaw(())
    with pytest.raises(FitError):
        fit_powerlaw((2.5, 3.5), x_min=1)  # non-integers
    with pytest.raises(FitError):
        fit_powerlaw((-1, 2, 3), x_min=1)
    with pytest.raises(FitError):
        fit_powerlaw((1, 2, 3), x_min=0)
    with pytest.raises(FitError):
        fit_powerlaw((1, 2, 3), x_min=9)  # empty tail
    with pytest.raises(FitError):
        fit_powerlaw((4, 4, 4, 4), x_min=4)  # degenerate tail
    with pytest.raises(FitError):
        fit_powerlaw((7, 7, 7, 7))  # no candidate leaves a varied tail


@pytest.mark.parametrize("spread", [2, 16])
@pytest.mark.parametrize("x_min", [10 ** 15, 10 ** 16, 7 * 10 ** 16, 10 ** 17])
@pytest.mark.parametrize("given_x_min", [False, True])
def test_powerlaw_at_a_huge_tail_start_fits_or_raises_fit_error(
        x_min, spread, given_x_min):
    # every tail value is within float resolution of x_min, so the start
    # value's denominator mean(ln x) - ln(x_min - 1/2) rounds to 0, whose
    # limit is the largest exponent; at 7 * 10**16 zeta(20, x_min) is a
    # subnormal float, and at 10**17 it underflows to 0. 10**17 + 16 is
    # a float-exact integer, 10**17 + 2 is not.
    sample = (x_min, x_min, x_min + spread)
    try:
        fit = fit_powerlaw(sample, x_min=x_min if given_x_min else None)
    except FitError:
        return
    assert fit.params == {"x_min": x_min, "alpha": ALPHA_MAX}
    assert fit.n == 3 and math.isfinite(fit.log_likelihood)


def test_powerlaw_log_likelihood_where_zeta_underflows_is_a_fit_error():
    with pytest.raises(FitError, match="underflows"):
        log_likelihood("power-law", {"alpha": ALPHA_MAX, "x_min": 10 ** 17},
                       (10 ** 17, 10 ** 17 + 16))
    # zeta(20, 7 * 10**16) is a subnormal float, too few bits to use
    with pytest.raises(FitError, match="underflows"):
        log_likelihood("power-law", {"alpha": 20.0, "x_min": 7 * 10 ** 16},
                       (7 * 10 ** 16, 7 * 10 ** 16 + 16))


@pytest.mark.parametrize("sigma", [1e-200, 1e-155, 5e-324])
def test_a_normal_log_likelihood_where_two_sigma_squared_underflows(sigma):
    # 2 sigma^2 is below the least normal float: a sample off the mean
    # lies past float range, and one on it has no quadratic term
    params = {"mu": 0.0, "sigma": sigma}
    assert log_likelihood("normal", params, (0, 1)) == -math.inf
    assert log_likelihood("normal", params, (0, 0)) == \
        -math.log(2.0 * math.pi) - 2.0 * math.log(sigma)


@pytest.mark.parametrize("sigma", [1e-150, 0.3, 7.0])
def test_a_normal_log_likelihood_divides_by_two_sigma_squared(sigma):
    # every sigma whose 2 sigma^2 is a normal float keeps the bits it had
    params = {"mu": 0.0, "sigma": sigma}
    assert log_likelihood("normal", params, (0, 1)) == (
        -math.log(2.0 * math.pi) - 2.0 * math.log(sigma)
        - 1.0 / (2.0 * sigma * sigma))


def test_integer_families_take_integers_no_float_holds():
    fit = fit_poisson((10 ** 17, 10 ** 17 + 1))
    assert fit.params == {"lambda": 1e17}
    for fitter in (fit_poisson, fit_powerlaw):
        for bad in (2.5, True, math.inf, math.nan):
            with pytest.raises(FitError, match="requires integer values"):
                fitter((2, 3, bad))


def test_other_family_error_cases():
    with pytest.raises(FitError):
        fit_exponential((3.0,))
    with pytest.raises(FitError):
        fit_exponential((-1.0, 1.0))
    with pytest.raises(FitError):
        fit_exponential((0.0, 0.0))
    with pytest.raises(FitError):
        fit_normal((2.0, 2.0, 2.0))
    with pytest.raises(FitError):
        fit_poisson(())
    with pytest.raises(FitError):
        fit_poisson((1.5, 2.0))


# --- parameter domains -----------------------------------------------------

# each family's parameters held in their domains, and a sample at which
# every parameter value in its domain has a log-likelihood (poisson(0)
# puts no mass on positive values; x_min up to 1,000 leaves a tail of
# two distinct values)
_HELD = {"exponential": {"lambda": 0.5}, "normal": {"mu": 1.0, "sigma": 2.0},
         "poisson": {"lambda": 1.5}, "power-law": {"alpha": 2.5, "x_min": 1}}
_SAMPLES = {"exponential": (0, 1, 2, 3), "normal": (0, 1, 2, 3),
            "poisson": (0, 0), "power-law": tuple(range(1, 1002))}
_PARAM_NAMES = [(family, name) for family in PARAMS for name in PARAMS[family]]
_MISSING = object()


@pytest.mark.parametrize("x_min", [2.5, math.nan, math.inf, True])
def test_an_x_min_outside_its_domain_is_a_fit_error(x_min):
    with pytest.raises(FitError, match="outside its domain"):
        log_likelihood("power-law", {"alpha": 2.0, "x_min": x_min}, (1, 2, 3))
    with pytest.raises(FitError, match="outside its domain"):
        fit_powerlaw((1, 2, 3), x_min=x_min)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False])
@pytest.mark.parametrize("family,name", _PARAM_NAMES)
def test_a_parameter_outside_its_domain_is_a_fit_error(family, name, value):
    params = {**_HELD[family], name: value}
    with pytest.raises(FitError, match=f"{family} {name} outside its domain"):
        log_likelihood(family, params, _SAMPLES[family])


def _accepts(call, *args, **kwargs) -> bool:
    try:
        call(*args, **kwargs)
    except ValueError:  # FitError is one
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PARAM_NAMES), st.one_of(
    st.integers(-1000, 1000),
    st.floats(-1000, 1000).filter(lambda v: v == 0 or abs(v) >= 1e-3),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, _MISSING]),
    st.booleans()))
@example(("power-law", "x_min"), 2.5)
@example(("poisson", "lambda"), True)
@example(("normal", "mu"), math.inf)
def test_fitting_and_plot_accept_the_same_parameter_values(key, value):
    family, name = key
    params = {**_HELD[family], name: value}
    if value is _MISSING:
        del params[name]
    verdicts = {
        _accepts(log_likelihood, family, params, _SAMPLES[family]),
        _accepts(render_degree_plot, {0: 0.25, 1: 0.25, 2: 0.5},
                 [{"family": family, "params": params}])}
    if name == "x_min" and value is not _MISSING:
        verdicts.add(_accepts(fit_powerlaw, _SAMPLES[family], x_min=value))
    assert len(verdicts) == 1


# --- result objects --------------------------------------------------------


def test_fit_result_json_round_trip():
    fit = fit_normal(SAMPLE)
    obj = json.loads(json.dumps(fit.to_json_dict()))
    assert obj["vcov"]["dim"] == [2, 2]
    assert len(obj["vcov"]["data"]) == 4


def test_fit_result_shape_checks():
    with pytest.raises(ValueError):
        FitResult("exponential", {"lambda": 1.0}, {"lambda": 0.1}, (), 0.0, 9)
    with pytest.raises(ValueError):
        FitResult("cauchy", {}, {}, (), 0.0, 1)


# --- selection -------------------------------------------------------------


def stub(family, se_map, loglik=0.0):
    k = len(se_map)
    ses = list(se_map.values())
    vcov = tuple(tuple(ses[i] ** 2 if i == j else 0.0 for j in range(k))
                 for i in range(k))
    return FitResult(family, {p: 1.0 for p in se_map}, se_map, vcov, loglik, 10)


def test_min_se_sums_over_parameters():
    fits = [stub("exponential", {"lambda": 0.30}),
            stub("normal", {"mu": 0.10, "sigma": 0.15})]
    assert select_structure(fits, "min-se").chosen == "normal"


def test_max_loglik_rule():
    fits = [stub("exponential", {"lambda": 0.1}, loglik=-50.0),
            stub("poisson", {"lambda": 0.9}, loglik=-40.0)]
    assert select_structure(fits, "max-loglik").chosen == "poisson"


def test_aic_charges_for_parameters():
    # equal likelihoods: the one-parameter family wins on aic
    fits = [stub("normal", {"mu": 0.1, "sigma": 0.1}, loglik=-40.0),
            stub("poisson", {"lambda": 0.9}, loglik=-40.0)]
    assert select_structure(fits, "aic").chosen == "poisson"
    # two extra nats of likelihood exactly offset two extra parameters;
    # the tie then breaks by family order
    fits = [stub("normal", {"mu": 0.1, "sigma": 0.1}, loglik=-39.0),
            stub("poisson", {"lambda": 0.9}, loglik=-40.0)]
    assert select_structure(fits, "aic").chosen == "normal"


def test_ties_break_by_family_order():
    fits = [stub("power-law", {"alpha": 0.2}),
            stub("exponential", {"lambda": 0.2})]
    assert select_structure(fits, "min-se").chosen == "exponential"


def test_selection_ignores_input_order():
    fits = [stub("exponential", {"lambda": 0.4}),
            stub("normal", {"mu": 0.2, "sigma": 0.3}),
            stub("poisson", {"lambda": 0.3}),
            stub("power-law", {"alpha": 0.25})]
    expected = select_structure(fits).chosen
    for perm in itertools.permutations(fits):
        assert select_structure(perm).chosen == expected


def test_selection_errors():
    with pytest.raises(ValueError):
        select_structure([])
    with pytest.raises(ValueError):
        select_structure([stub("exponential", {"lambda": 0.1})], rule="bic")


# --- histogram fits against the expanded sample ----------------------------


def _expanded_closed_forms(xs):
    """The closed-form fits computed per vertex, by math.fsum over the
    expanded sample: the histogram fits must equal these bit for bit."""
    n = len(xs)
    out = {}
    mean = math.fsum(xs) / n
    if n >= 2 and mean > 0:
        lam = 1.0 / mean
        ll = n * math.log(lam) - lam * math.fsum(xs)
        out["exponential"] = FitResult("exponential", {"lambda": lam},
                                       {"lambda": lam / math.sqrt(n)},
                                       ((lam * lam / n,),), ll, n)
    if n >= 2:
        var = math.fsum((x - mean) ** 2 for x in xs) / n
        if var > 0.0:
            sigma = math.sqrt(var)
            ss = math.fsum((x - mean) ** 2 for x in xs)
            ll = (-0.5 * n * math.log(2.0 * math.pi) - n * math.log(sigma)
                  - ss / (2.0 * sigma * sigma))
            out["normal"] = FitResult(
                "normal", {"mu": mean, "sigma": sigma},
                {"mu": sigma / math.sqrt(n), "sigma": sigma / math.sqrt(2.0 * n)},
                ((var / n, 0.0), (0.0, var / (2.0 * n))), ll, n)
    ll = 0.0 if mean == 0.0 else math.fsum(
        x * math.log(mean) - mean - math.lgamma(x + 1) for x in xs)
    out["poisson"] = FitResult("poisson", {"lambda": mean},
                               {"lambda": math.sqrt(mean / n)},
                               ((mean / n,),), ll, n)
    return out


def _brute_force_alpha(tail):
    """MLE alpha for a tail given as a list of values, by bisection on
    the score over the fitter's (ALPHA_MIN, ALPHA_MAX) bracket."""
    n = len(tail)
    x_min = min(tail)
    mean_log = math.fsum(math.log(x) for x in tail) / n

    def score(alpha):
        z, z1, _ = hurwitz_zeta_derivatives(alpha, float(x_min))
        return -mean_log - z1 / z

    lo, hi = ALPHA_MIN, ALPHA_MAX
    if score(hi) > 0:
        return hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if score(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _brute_force_ks(tail, alpha):
    """KS distance of a tail (list of values) from the power law at
    alpha, with one hurwitz_zeta call per tail value for the fitted CDF."""
    x_min = min(tail)
    z0 = hurwitz_zeta(alpha, float(x_min))
    ks = 0.0
    for v in sorted(set(tail)):
        emp = sum(1 for x in tail if x <= v) / len(tail)
        ks = max(ks, abs(emp - (1.0 - hurwitz_zeta(alpha, float(v + 1)) / z0)))
    return ks


def _brute_force_scan(xs):
    """(x_min, alpha) by the Kolmogorov-Smirnov scan."""
    distinct = sorted({x for x in xs if x >= 1})
    best = None
    for x_min in distinct[:-1]:
        tail = sorted(x for x in xs if x >= x_min)
        alpha = _brute_force_alpha(tail)
        ks = _brute_force_ks(tail, alpha)
        if best is None or ks < best[0]:
            best = (ks, x_min, alpha)
    return best[1], best[2]


DEGREES = st.lists(st.one_of(st.integers(0, 12), st.integers(13, 40),
                             st.integers(41, 3000)),
                   min_size=1, max_size=60)
HISTOGRAMS = st.dictionaries(st.one_of(st.integers(0, 40), st.integers(41, 3000)),
                             st.integers(1, 400), min_size=1, max_size=30)


@settings(max_examples=120, deadline=None)
@given(HISTOGRAMS)
def test_histogram_closed_forms_equal_expanded_fsum(counts):
    sample = DegreeSample(counts)
    xs = [x for x, count in counts.items() for _ in range(count)]
    expected = _expanded_closed_forms(xs)
    for family in ("exponential", "normal", "poisson"):
        if family in expected:
            assert fit_family(family, sample) == expected[family]
        else:
            with pytest.raises(FitError):
                fit_family(family, sample)


@settings(max_examples=120, deadline=None)
@given(DEGREES)
def test_powerlaw_scan_equals_brute_force_scan(xs):
    sample = DegreeSample(dict(Counter(xs)))
    if len({x for x in xs if x >= 1}) < 2:
        with pytest.raises(FitError):
            fit_powerlaw(sample)
        return
    fit = fit_powerlaw(sample)
    x_min, alpha = _brute_force_scan(xs)
    assert fit.params["x_min"] == x_min
    assert fit.params["alpha"] == pytest.approx(alpha, abs=1e-9)
    assert fit.n == sum(1 for x in xs if x >= x_min)


@settings(max_examples=120, deadline=None)
@given(HISTOGRAMS.filter(lambda counts: len([x for x in counts if x >= 1]) >= 2),
       st.floats(1.05, 6.0))
def test_ks_distance_equals_per_value_zeta_cdf(counts, alpha):
    # long gaps between observed values take the zeta-difference path
    tail = sorted((x, count) for x, count in counts.items() if x >= 1)
    values = [x for x, count in tail for _ in range(count)]
    got = _ks_distance(tail, len(values), alpha, tail[0][0])
    assert got == pytest.approx(_brute_force_ks(values, alpha), abs=1e-12)


# --- exactness of the shortcuts ---------------------------------------------


def _fit_or_reason(sample):
    try:
        return fit_powerlaw(sample)
    except FitError as exc:
        return str(exc)


def _clear_exponent_caches():
    _powerlaw_alpha.cache_clear()
    fitting_module._powerlaw_start.cache_clear()


# a step adds a histogram, or one vertex, which leaves every candidate
# tail above it unchanged, so later fits hit the cache
GROWTH = st.lists(st.one_of(HISTOGRAMS, st.dictionaries(
    st.integers(0, 3000), st.just(1), min_size=1, max_size=1)),
    min_size=2, max_size=6)


@settings(max_examples=60, deadline=None)
@given(GROWTH)
def test_warm_exponent_cache_fits_equal_cold_fits(steps):
    """Histograms that grow step by step, as a cumulative window's do:
    fits that reuse the previous steps' cached exponents equal fits
    from an empty cache."""
    samples = []
    hist = Counter()
    for step in steps:
        hist.update(step)
        samples.append(DegreeSample(dict(hist)))
    warm = [_fit_or_reason(sample) for sample in samples]
    cold = []
    for sample in samples:
        _clear_exponent_caches()
        cold.append(_fit_or_reason(sample))
    assert warm == cold


@settings(max_examples=120, deadline=None)
@given(HISTOGRAMS.filter(lambda counts: len([x for x in counts if x >= 1]) >= 2),
       st.floats(1.05, 6.0), st.floats(0.0, 1.0))
def test_ks_distance_stops_only_at_the_bound(counts, alpha, stop):
    tail = sorted((x, count) for x, count in counts.items() if x >= 1)
    n_tail = sum(count for _, count in tail)
    exact = _ks_distance(tail, n_tail, alpha, tail[0][0])
    for bound in (stop, exact, math.nextafter(exact, math.inf)):
        got = _ks_distance(tail, n_tail, alpha, tail[0][0], bound)
        if exact < bound:
            assert got == exact
        else:
            assert got >= bound


def _exhaustive_fit_or_reason(sample):
    """fit_powerlaw's x_min scan before candidates were skipped, on a
    non-empty sample: every candidate's exponent is solved and its KS
    distance measured. The fit at the winning x_min is fit_powerlaw's
    with x_min given; no candidate gives fit_powerlaw's reason."""
    counts = sample.counts
    values = sorted(x for x in counts if x >= 1)
    tail = [(v, counts[v]) for v in values]
    n_tails = [0] * (len(values) + 1)
    sum_logs = [0.0] * (len(values) + 1)
    for i in range(len(values) - 1, -1, -1):
        v, count = tail[i]
        n_tails[i] = n_tails[i + 1] + count
        sum_logs[i] = sum_logs[i + 1] + count * math.log(v)
    best = None
    for i in range(len(values) - 1):
        alpha = _powerlaw_alpha(sum_logs[i] / n_tails[i], values[i])
        ks = _ks_distance(tail[i:], n_tails[i], alpha, values[i],
                          math.inf if best is None else best[0])
        if best is None or ks < best[0]:
            best = (ks, values[i])
    if best is None:
        return "no x_min candidate leaves a fittable tail"
    return fit_powerlaw(sample, x_min=best[1])


@settings(max_examples=200, deadline=None)
@given(HISTOGRAMS)
# x_min 21 and 40 are both at ALPHA_MAX and at KS distance 0.39160005954083
@example({21: 688200321925746, 40: 5000000000000, 41: 5000000000000})
# x_min 40 is at ALPHA_MAX, after x_min 1 has set a best distance
@example({1: 5, 40: 400, 41: 1})
def test_pruned_scan_equals_exhaustive_scan(counts):
    sample = DegreeSample(counts)
    assert _fit_or_reason(sample) == _exhaustive_fit_or_reason(sample)


@functools.cache
def _outbreak_window_samples():
    """Every window's sample of the outbreak that
    test_cumulative_window_fits_match_the_reference_kernel fits."""
    config = SimConfig.from_json({"topology": "preferential-attachment",
                                  "n_population": 6000, "p_transmit": 0.4,
                                  "n_steps": 80, "seed": 3})
    records = simulate_outbreak(generate_network(config), config)
    origin = records[0].timestamp.replace(hour=0, minute=0, second=0)
    spec = WindowSpec("cumulative", timedelta(days=1), origin)
    return [report.sample for report in run(records, spec, ["power-law"])]


def _fits_and_zeta_derivative_calls(fit, samples):
    """fit over the samples in turn from empty exponent caches, and how
    many zeta-derivative evaluations it made."""
    _clear_exponent_caches()
    with mock.patch.object(fitting_module, "hurwitz_zeta_derivatives",
                           wraps=hurwitz_zeta_derivatives) as counted:
        fits = [fit(sample) for sample in samples]
    _clear_exponent_caches()
    return fits, counted.call_count


def test_pruned_scan_equals_exhaustive_scan_on_every_outbreak_window():
    # also a count guard: a scan that solved every candidate again would
    # make as many zeta-derivative calls as the exhaustive one
    samples = [sample for sample in _outbreak_window_samples() if sample.counts]
    assert len(samples) > 30
    fits, calls = _fits_and_zeta_derivative_calls(_fit_or_reason, samples)
    expected, reference_calls = _fits_and_zeta_derivative_calls(
        _exhaustive_fit_or_reason, samples)
    assert fits == expected
    assert calls < reference_calls


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3000), st.integers(0, 3000),
       st.floats(ALPHA_MIN, ALPHA_MAX), st.floats(ALPHA_MIN, ALPHA_MAX))
@example(1, 0, 2.5, math.nextafter(2.5, math.inf))
@example(1, 3000, math.nextafter(ALPHA_MAX, 0.0), ALPHA_MAX)
@example(40, 1, ALPHA_MIN, ALPHA_MAX)
def test_fitted_cdf_rises_with_the_exponent(x_min, above, a1, a2):
    """F(v; alpha) = 1 - zeta(alpha, v + 1) / zeta(alpha, x_min), the
    fitted tail CDF the skipped candidates are bounded by. Its
    complement is compared at 50 digits, since F itself can round to 1
    (x_min 1, v 3001, alpha 20: 1 - F is about 4e-68)."""
    a1, a2 = sorted((a1, a2))
    v = x_min + above
    with mpmath.workdps(50):
        def above_v(alpha):
            alpha = mpmath.mpf(alpha)
            return mpmath.zeta(alpha, v + 1) / mpmath.zeta(alpha, x_min)
        assert above_v(a1) >= above_v(a2)
        if a1 < a2:
            assert above_v(a1) > above_v(a2)


WIDE_TERMS = st.one_of(
    st.floats(),  # nan, both infinities, subnormals and +-max included
    st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan, -0.0,
                     2.0 ** 1000, -(2.0 ** 1000), 5e-324]),
    st.floats(2.0 ** 1015, 2.0 ** 1023).flatmap(
        lambda x: st.sampled_from([x, -x])),
    st.integers(-(2 ** 80), 2 ** 80),
    st.integers(2 ** 1023, 2 ** 1100),
)


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(WIDE_TERMS, st.integers(1, 40)), max_size=10))
def test_sum_over_equals_expanded_fsum(pairs):
    # keys are positions, so one term value may repeat under several keys
    terms = [term for term, _ in pairs]
    hist = {i: count for i, (_, count) in enumerate(pairs)}
    expanded = [terms[i] for i, count in hist.items() for _ in range(count)]
    try:
        expected = math.fsum(expanded)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc)):
            _sum_over(hist, terms.__getitem__)
        return
    assert _same_float(_sum_over(hist, terms.__getitem__), expected)


# --- order independence -----------------------------------------------------


@settings(max_examples=60)
@given(st.permutations([1, 1, 2, 2, 3, 4, 7, 9, 15, 40]))
def test_fits_are_bitwise_order_independent(perm):
    """Exactly-rounded accumulation: shuffling the sample must not move
    any reported float, which is what makes replays reproducible."""
    base = (1, 1, 2, 2, 3, 4, 7, 9, 15, 40)
    for fitter in (fit_exponential, fit_normal, fit_poisson):
        a, b = fitter(base), fitter(tuple(perm))
        assert a.params == b.params
        assert a.se == b.se
        assert a.log_likelihood == b.log_likelihood
    pa = fit_powerlaw(base, x_min=2)
    pb = fit_powerlaw(tuple(perm), x_min=2)
    assert pa.params == pb.params and pa.se == pb.se


# --- fits under the earlier zeta kernel -------------------------------------

# The zeta kernel before its tail took each correction from the last
# one: one power per Bernoulli correction, all ten always added.
_REFERENCE_EM_COEFFICIENTS = tuple(
    b2m / math.factorial(2 * m)
    for m, b2m in enumerate(zeta_module._BERNOULLI_2M, start=1))


def _reference_zeta_core(s, a, order):
    if not s > 1.0:
        raise ValueError(f"hurwitz_zeta requires s > 1, got {s!r}")
    if not a > 0.0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got {a!r}")

    target = max(15.0, 1.5 * s)
    head_terms = max(0, math.ceil(target - a))

    h0 = h1 = h2 = 0.0
    if order == 0 and head_terms <= 64:
        for k in range(head_terms):
            h0 += (a + k) ** (-s)
    else:
        long_head = head_terms > 64
        for k in range(head_terms):
            base = a + k
            term = base ** (-s)
            lnb = math.log(base)
            if long_head:
                rest = term * (1.0 + base / (s - 1.0))
                if (rest <= 1e-17 * h0 and abs(lnb) * rest <= 1e-17 * abs(h1)
                        and lnb * lnb * rest <= 1e-17 * h2):
                    return h0, -h1, h2
            h0 += term
            h1 += lnb * term
            h2 += lnb * lnb * term

    x = a + head_terms
    u = math.log(x)
    xs = x ** (-s)
    g = 1.0 / (s - 1.0)

    z0 = h0 + x * xs * g + 0.5 * xs
    z1 = z2 = 0.0
    if order >= 1:
        z1 = -h1 - x * xs * (u * g + g * g) - 0.5 * u * xs
    if order >= 2:
        z2 = h2 + x * xs * (u * u * g + 2.0 * u * g * g + 2.0 * g ** 3) \
            + 0.5 * u * u * xs

    p = 1.0
    q1 = q2 = 0.0
    next_i = 0
    for m, c in enumerate(_REFERENCE_EM_COEFFICIENTS, start=1):
        while next_i <= 2 * m - 2:
            p *= s + next_i
            q1 += 1.0 / (s + next_i)
            q2 += 1.0 / (s + next_i) ** 2
            next_i += 1
        e = x ** (-(s + 2 * m - 1))
        z0 += c * p * e
        if order >= 1:
            z1 += c * p * e * (q1 - u)
        if order >= 2:
            z2 += c * p * e * ((q1 - u) ** 2 - q2)
    return z0, z1, z2


def _fits_under(kernel, sample):
    """Every family's fit (or its error) and the family each rule
    chooses, with ``kernel`` as zeta's and an empty exponent cache."""
    fits, outcome = [], {}
    with mock.patch.object(zeta_module, "_zeta_core", kernel):
        _powerlaw_alpha.cache_clear()
        try:
            for family in FAMILIES:
                try:
                    fits.append(fit_family(family, sample))
                except FitError as exc:
                    outcome[family] = str(exc)
        finally:
            _powerlaw_alpha.cache_clear()
    if fits:
        outcome.update((rule, select_structure(fits, rule).chosen)
                       for rule in RULES)
    return outcome, {fit.family: fit for fit in fits}


def _assert_fits_match_the_reference_kernel(sample):
    outcome, fits = _fits_under(zeta_module._zeta_core, sample)
    ref_outcome, ref_fits = _fits_under(_reference_zeta_core, sample)
    assert outcome == ref_outcome
    assert fits.keys() == ref_fits.keys()
    if "power-law" not in fits:
        return
    fit, ref = fits["power-law"], ref_fits["power-law"]
    assert fit.params["x_min"] == ref.params["x_min"]
    assert fit.n == ref.n
    for value, expected in ((fit.params["alpha"], ref.params["alpha"]),
                            (fit.log_likelihood, ref.log_likelihood)):
        assert math.isclose(value, expected, rel_tol=1e-13, abs_tol=0.0)
    # se comes from z''/z - (z'/z)^2, which cancels down to the variance
    # of ln X: a tail bunched at x_min (x_min 23, alpha 7.7) scales the
    # rounding of either kernel, and of alpha, by z''/z over it, ~480
    z, _, z2 = hurwitz_zeta_derivatives(ref.params["alpha"],
                                        float(ref.params["x_min"]))
    cancellation = (z2 / z) * ref.n * ref.se["alpha"] ** 2
    assert math.isclose(fit.se["alpha"], ref.se["alpha"],
                        rel_tol=1e-13 * max(1.0, cancellation), abs_tol=0.0)
    for family in fits.keys() - {"power-law"}:
        assert fits[family] == ref_fits[family]  # no zeta on their path


@settings(max_examples=150, deadline=None)
@given(HISTOGRAMS)
def test_histogram_fits_match_the_reference_kernel(counts):
    _assert_fits_match_the_reference_kernel(DegreeSample(dict(sorted(counts.items()))))


def test_cumulative_window_fits_match_the_reference_kernel():
    # every window of a heavy-tailed outbreak, as stream --window
    # cumulative:1d fits it
    config = SimConfig.from_json({"topology": "preferential-attachment",
                                  "n_population": 6000, "p_transmit": 0.4,
                                  "n_steps": 80, "seed": 3})
    records = simulate_outbreak(generate_network(config), config)
    assert len(records) > 5000
    origin = records[0].timestamp.replace(hour=0, minute=0, second=0)
    spec = WindowSpec("cumulative", timedelta(days=1), origin)
    samples = [report.sample for report in run(records, spec, ["power-law"])]
    assert len(samples) > 30
    for sample in samples:
        _assert_fits_match_the_reference_kernel(sample)
