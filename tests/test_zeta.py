"""Hurwitz zeta accuracy against independent references."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

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
