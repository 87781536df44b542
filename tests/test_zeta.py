"""Hurwitz zeta accuracy against independent references."""

import math
import time
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from outbreaklens import zeta as zeta_module
from outbreaklens.zeta import hurwitz_zeta, hurwitz_zeta_derivatives

mpmath.mp.dps = 30


def test_basel_value():
    assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-14)


def test_basel_offset_value():
    assert hurwitz_zeta(2.0, 2.0) == pytest.approx(math.pi ** 2 / 6.0 - 1.0,
                                                   rel=1e-14)


def test_apery_constant():
    assert hurwitz_zeta(3.0, 1.0) == pytest.approx(1.2020569031595942854,
                                                   rel=1e-14)


def test_pi_fourth_over_ninety():
    assert hurwitz_zeta(4.0, 1.0) == pytest.approx(math.pi ** 4 / 90.0,
                                                   rel=1e-14)


GRID_S = (1.0001, 1.01, 1.5, 2.0, 2.5, 2.8, 3.5, 6.0, 10.0, 19.9)
GRID_A = (1.0, 1.5, 2.0, 3.0, 10.0, 100.25, 5000.0)


@pytest.mark.parametrize("s", GRID_S)
@pytest.mark.parametrize("a", GRID_A)
def test_value_matches_scipy(s, a):
    assert hurwitz_zeta(s, a) == pytest.approx(float(scipy_zeta(s, a)),
                                               rel=1e-12)


@pytest.mark.parametrize("s", (1.001, 1.5, 2.5, 6.0, 15.0))
@pytest.mark.parametrize("a", (1.0, 2.0, 7.5, 300.0))
def test_derivatives_match_mpmath(s, a):
    z0, z1, z2 = hurwitz_zeta_derivatives(s, a)
    ref0 = float(mpmath.zeta(s, a))
    ref1 = float(mpmath.zeta(s, a, derivative=1))
    ref2 = float(mpmath.zeta(s, a, derivative=2))
    assert z0 == pytest.approx(ref0, rel=1e-11)
    assert z1 == pytest.approx(ref1, rel=1e-11)
    assert z2 == pytest.approx(ref2, rel=1e-11)


def test_value_only_path_agrees_with_derivative_path():
    for s in GRID_S:
        for a in GRID_A:
            assert hurwitz_zeta(s, a) == hurwitz_zeta_derivatives(s, a)[0]


@settings(max_examples=200)
@given(s=st.floats(min_value=1.01, max_value=18.0),
       a=st.floats(min_value=0.5, max_value=200.0))
def test_shift_recurrence(s, a):
    # zeta(s, a) = a^-s + zeta(s, a + 1), the defining series shifted once
    lhs = hurwitz_zeta(s, a)
    rhs = a ** (-s) + hurwitz_zeta(s, a + 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=100)
@given(s=st.floats(min_value=1.01, max_value=18.0),
       a=st.floats(min_value=0.5, max_value=100.0))
def test_decreasing_in_offset_and_positive(s, a):
    z_near = hurwitz_zeta(s, a)
    z_far = hurwitz_zeta(s, a + 0.5)
    assert z_near > z_far > 0.0


def test_first_derivative_is_negative():
    # every series term (a+k)^-s shrinks as s grows
    for s in (1.5, 2.5, 8.0):
        for a in (1.0, 4.0):
            assert hurwitz_zeta_derivatives(s, a)[1] < 0.0


def test_log_convexity_in_s():
    # var(ln X) under the normalized law is z''/z - (z'/z)^2 > 0
    for s in (1.2, 2.5, 10.0):
        z0, z1, z2 = hurwitz_zeta_derivatives(s, 1.0)
        assert z2 / z0 - (z1 / z0) ** 2 > 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(0.5, 1.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, -3.0)


@pytest.mark.parametrize("s", (41.0, 60.0, 1e3, 1e7, 1e12))
@pytest.mark.parametrize("a", (1.0, 2.0, 7.5))
def test_large_s_matches_mpmath(s, a):
    # past 64 head terms the head stops once the rest is negligible, so
    # a huge s costs a few terms; values below the float range are 0
    started = time.perf_counter()
    values = hurwitz_zeta_derivatives(s, a) + (hurwitz_zeta(s, a),)
    assert time.perf_counter() - started < 0.1
    refs = [float(mpmath.zeta(s, a, derivative=d)) for d in (0, 1, 2, 0)]
    for value, ref in zip(values, refs):
        assert math.isclose(value, ref, rel_tol=1e-12, abs_tol=0.0)


def test_large_offset_keeps_the_tail():
    # terms decay slowly when a >> s: the head runs its full length and
    # the Euler-Maclaurin tail is added as before
    s, a = 50.0, 1e6
    for d, value in enumerate(hurwitz_zeta_derivatives(s, a)):
        ref = float(mpmath.zeta(s, a, derivative=d))
        assert math.isclose(value, ref, rel_tol=1e-12)


def test_small_s_keeps_the_plain_head_and_tail():
    # up to s = 40 the head has at most 60 terms, under the length past
    # which it may stop early, so every bit is the plain head and tail's
    grid = [(s, a) for s in (1.5, 20.0, 40.0) for a in (0.01, 1.0, 2.0, 7.5)]

    def values():
        return [(hurwitz_zeta(s, a), hurwitz_zeta_derivatives(s, a))
                for s, a in grid]

    stopping = values()
    with mock.patch.object(zeta_module, "_LONG_HEAD", math.inf):
        assert values() == stopping


@settings(max_examples=300, deadline=None)
@given(s=st.floats(min_value=1.0, max_value=20.0, exclude_min=True),
       a=st.one_of(st.integers(min_value=1, max_value=2000).map(float),
                   st.floats(min_value=0.0, max_value=300.0, exclude_min=True)
                   .filter(lambda a: not a.is_integer())))
def test_every_order_matches_mpmath_at_80_digits(s, a):
    # below 80 digits mpmath's own error reaches 1e-9 for s near 20;
    # a tiny offset whose first term a^-s is past the float range has
    # no float value to check
    assume(-s * math.log(a) < 690.0)
    values = hurwitz_zeta_derivatives(s, a)
    assert hurwitz_zeta(s, a) == values[0]  # bit for bit
    with mpmath.workdps(80):
        for d, value in enumerate(values):
            ref = mpmath.zeta(s, a, derivative=d)
            assert abs((value - ref) / ref) <= 1e-14
