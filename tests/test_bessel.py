"""Series evaluator tests against closed forms, brute force, and scipy."""

import cmath
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special

from dinicert import (
    DiniFamily,
    DomainError,
    Order,
    bessel_j,
    bessel_j_prime,
    oracle_closed_form,
    sum_closed,
    w_eval,
    w_prime_eval,
)
from dinicert.bessel import _j_pair, _j_ratio, _w_sum
from dinicert.zeros import _d_lead


def j_brute(nu, x, terms=60):
    """Independent ascending-series oracle with explicit gamma coefficients.

    Only safe for small x where no cancellation occurs.
    """
    return sum((-1) ** k * (0.5 * x) ** (2 * k + nu)
               / (math.factorial(k) * math.gamma(k + nu + 1))
               for k in range(terms))


class TestGamma:
    """Gamma(nu + 1) in the leading term (t/2)^nu / Gamma(nu + 1) of J_nu(t).

    At t = 1e-4 the second series term is kept explicitly; the third is
    below 1e-16 relative for every order used here.
    """

    T = 1e-4

    def lead(self, nu, gamma_nu1):
        t = self.T
        return (0.5 * t) ** nu / gamma_nu1 * (1.0 - t * t / (4.0 * (nu + 1.0)))

    def test_one(self):
        # Gamma(1) = 1
        assert bessel_j(Order(0.0), self.T) == pytest.approx(self.lead(0.0, 1.0), rel=1e-15)

    def test_half(self):
        # Gamma(1/2) = sqrt(pi) normalizes J_{-1/2}(t) = sqrt(2/(pi t)) cos t
        expected = math.sqrt(2.0 / (math.pi * self.T)) * math.cos(self.T)
        assert bessel_j(Order(-0.5), self.T) == pytest.approx(expected, rel=1e-15)

    def test_recurrence_value(self):
        # Gamma(4.5) = 3.5 * 2.5 * 1.5 * Gamma(1.5), Gamma(1.5) = sqrt(pi)/2
        gamma = 3.5 * 2.5 * 1.5 * math.sqrt(math.pi) / 2.0
        assert bessel_j(Order(3.5), self.T) == pytest.approx(self.lead(3.5, gamma), rel=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.9, 7.3, 23.0, 49.5])
    def test_functional_equation(self, x):
        # Gamma(x + 1) = x Gamma(x): the leading terms of J_x and J_{x-1}
        # differ by the factor (t/2) / x.
        t = self.T
        ratio = bessel_j(Order(x), t) / bessel_j(Order(x - 1.0), t)
        expected = (0.5 * t / x) * (1.0 - t * t / (4.0 * (x + 1.0))) / (1.0 - t * t / (4.0 * x))
        assert ratio == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        # Gamma(nu + 1) needs nu + 1 > 0, which the order validation enforces.
        with pytest.raises(DomainError):
            bessel_j(x - 1.0, 1.0)


class TestBesselJ:
    def test_half_at_one(self):
        expected = math.sqrt(2.0 / math.pi) * math.sin(1.0)
        assert bessel_j(Order(0.5), 1.0) == pytest.approx(expected, rel=1e-13)

    def test_three_half_at_one(self):
        expected = math.sqrt(2.0 / math.pi) * (math.sin(1.0) - math.cos(1.0))
        assert bessel_j(Order(1.5), 1.0) == pytest.approx(expected, rel=1e-13)

    def test_small_x_leading_term(self):
        assert bessel_j(Order(0.0), 1e-8) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("x", [0.5, 5.0, 10.0, 25.0, 40.0, 59.5])
    def test_half_closed_form_across_range(self, x):
        expected = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
        assert bessel_j(Order(0.5), x) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nu", [-0.9, -0.3, 0.7, 2.3, 7.5])
    @pytest.mark.parametrize("x", [0.2, 1.0, 8.0, 33.0, 57.0])
    def test_against_scipy(self, nu, x):
        mine = bessel_j(Order(nu), x)
        ref = special.jv(nu, x)
        assert abs(mine - ref) <= 1e-10 * (abs(ref) + 1e-15)

    def test_small_x_against_brute_series(self):
        for nu in (-0.6, 0.0, 1.3):
            for x in (0.05, 0.8, 2.0):
                assert bessel_j(Order(nu), x) == pytest.approx(
                    j_brute(nu, x), rel=1e-13)

    @pytest.mark.parametrize("nu", [-0.7, -0.2, 0.5, 1.5, 3.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 12.0, 20.0])
    def test_three_term_recurrence(self, nu, x):
        j0 = bessel_j(Order(nu), x)
        j1 = bessel_j(Order(nu + 1), x)
        j2 = bessel_j(Order(nu + 2), x)
        resid = abs(j0 + j2 - 2.0 * (nu + 1.0) * j1 / x)
        assert resid <= 1e-12 * max(1.0, abs(j0))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_j(Order(0.5), 0.0)
        with pytest.raises(DomainError):
            bessel_j(Order(0.5), 60.5)
        with pytest.raises(DomainError):
            Order(-1.0)

    @pytest.mark.parametrize("a,nu", [(math.inf, 0.5), (1.0, math.inf),
                                      (-math.inf, 0.5), (math.nan, 0.5)])
    def test_non_finite_parameters(self, a, nu):
        with pytest.raises(DomainError):
            DiniFamily(a, nu)


class TestAgainstMpmath:
    """Both summation paths against 50-digit mpmath, where |J| is far below 1."""

    @staticmethod
    def ref(nu, x):
        with mpmath.workdps(50):
            return mpmath.besselj(nu, x)

    # (127.46..., 1.50...): nu + 1.0 is not a double, and Gamma at the
    # rounded argument is off by 7e-14.
    @pytest.mark.parametrize("nu,x", [(15.0, 1.0), (40.0, 2.5), (10.5, 1.0),
                                      (127.46171375524251, 1.5099264395450418)])
    def test_double_path_relative_error(self, nu, x):
        ref = self.ref(nu, x)
        assert abs(bessel_j(Order(nu), x) - ref) <= 1e-14 * abs(ref)

    def test_sum_closed_high_order(self):
        # S = -f'(1) / (2 f(1)) for f(x) = x^-nu D_{a,nu}(x).  Formed from
        # J'_nu, the numerator cancelled as nu grew: 8.1e-11 relative at
        # (3, 100) and 9.0e-11 at (1, 130).
        for a, nu in [(1, 20), (3, 100), (1, 130)]:
            with mpmath.workdps(50):
                f = lambda x: x ** -nu * (a * mpmath.besselj(nu, x)
                                          - x * mpmath.besselj(nu + 1, x))
                ref = -mpmath.diff(f, 1) / (2 * f(1))
            value = sum_closed(DiniFamily(float(a), Order(float(nu))))
            assert abs(value - ref) <= 1e-14 * abs(ref), (a, nu)

    # (15.098..., 5.59...): nu + 1.0 rounds by 1.8e-15, and J at the rounded
    # order is 14 ulp off J_{nu+1}.  The six x after it are the doubles nearest
    # zeros of J_{nu+1}, where the k-weighted sum for J_{nu+1} cancels to
    # about 1e-16 of its terms and the guard must add bits for it alone.
    # The last five lie near nu = -1 with x <= 3, where a series cancels by
    # more than 8x and the double path hands the pair over; it kept them
    # at a 64x test, 3.8 to 61.7 ulp off.
    @pytest.mark.parametrize("nu,x", [(30.0, 4.0), (40.0, 4.96), (60.0, 5.0),
                                      (0.3, 45.0), (10.0, 59.0), (175.0, 2.9),
                                      (15.098473923193199, 5.590940537789909),
                                      (0.0, 3.8317059702075125),
                                      (0.0, 38.474766234771614),
                                      (2.5, 10.417118547379365),
                                      (15.098473923193199, 21.192365812297204),
                                      (-0.6, 6.13335049782515),
                                      (0.3, 45.223016071459725),
                                      (-0.9248, 0.568), (-0.6774, 2.961),
                                      (-0.9947, 2.366),
                                      (-0.9833743330735266, 2.385292905614846),
                                      (-0.5685241524472753, 2.969703587812349)])
    def test_fixed_point_pair_within_one_ulp(self, nu, x):
        with mpmath.workdps(50):
            orders = (mpmath.mpf(nu), mpmath.mpf(nu) + 1)
        for mu, value in zip(orders, _j_pair(nu, x)):
            ref = self.ref(mu, x)
            assert abs(float(ref)) >= sys.float_info.min
            assert value != 0.0
            assert abs(value - ref) <= math.ulp(float(ref))


    # (x/2)^nu at x = 5e-324, nu < 0 is 0.0 ** nu, a ZeroDivisionError that
    # once escaped the double path instead of sending the pair to fixed point.
    def test_smallest_x_negative_order(self):
        value = bessel_j(Order(-0.5), 5e-324)
        ref = self.ref(-0.5, 5e-324)
        assert abs(value - ref) <= math.ulp(value)

    # (15.466, 1.772): fl(nu + 1.0) rounds, and the double path once summed
    # J at the rounded order, 43 ulp off J_{nu+1}.
    def test_double_path_pair_at_exact_orders(self):
        nu, x = 15.466, 1.772
        with mpmath.workdps(50):
            orders = (mpmath.mpf(nu), mpmath.mpf(nu) + 1)
        for mu, value in zip(orders, _j_pair(nu, x)):
            assert abs(value - self.ref(mu, x)) <= 2 * math.ulp(value)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(nu=st.floats(-1.0, 400.0, exclude_min=True),
       x=st.floats(0.0, 60.0, exclude_min=True))
def test_scaled_pair_is_a_positive_multiple(nu, x):
    """_d_lead's (J_nu, J_{nu+1}) / lead is the pair times 1 / lead > 0:
    wherever both pairs and J_{nu+1} / J_nu are normal doubles, the signs
    agree.  Each scaled value is within half an ulp; for x > 3 each _j_pair
    value comes from the same fixed-point sums, within 1 ulp, and the two
    ratios agree to 8 ulp.  At x <= 3 _j_pair may take the double path, up to
    11.4 ulp per value, so the scaled ratio is checked against 40-digit
    mpmath at the exact orders instead, to 2 ulp (1.66 at worst over 1,500
    random points)."""
    (j0, j1), (c0, c1) = _j_pair(nu, x), _d_lead(1.0, nu, x)[2:4]
    assume(min(abs(j0), abs(j1), abs(c0), abs(c1)) >= sys.float_info.min)
    assume(abs(j1 / j0) >= sys.float_info.min)
    assert (math.copysign(1.0, c0), math.copysign(1.0, c1)) == \
        (math.copysign(1.0, j0), math.copysign(1.0, j1))
    if x > 3.0:
        assert abs(c1 / c0 - j1 / j0) <= 8 * math.ulp(j1 / j0)
        return
    with mpmath.workdps(40):
        v = mpmath.mpf(nu)
        ref = float(mpmath.besselj(v + 1, x) / mpmath.besselj(v, x))
    assert abs(c1 / c0 - ref) <= 2 * math.ulp(ref)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(nu=st.floats(-1.0, 1000.0, exclude_min=True))
def test_ratio_at_one_against_mpmath(nu):
    """J_{nu+2}(1) / J_{nu+1}(1) from the continued fraction, within 2 eps
    of 40-digit mpmath at the exact orders."""
    with mpmath.workdps(40):
        v = mpmath.mpf(nu)
        ref = mpmath.besselj(v + 2, 1) / mpmath.besselj(v + 1, 1)
        assert abs(_j_ratio(nu)[1] - ref) <= 2 * sys.float_info.epsilon * ref


@settings(max_examples=150, derandomize=True, deadline=None)
@given(nu=st.floats(-0.9, 40.0, exclude_min=True),
       x=st.floats(0.0, 60.0, exclude_min=True))
@example(nu=0.0, x=2.404825557695773)  # J_0 vanishes: r near +-1e16
@example(nu=0.0, x=3.8317059702075125)  # J_1 vanishes: r near 0
@example(nu=-0.9, x=60.0)
# x nearest j_{3,2}: a denominator rounds to 0 at the last level (r = -inf)
# or, for nu = 2, one level up (r = +0.0)
@example(nu=3.0, x=9.76102312998167)
@example(nu=2.0, x=9.76102312998167)
def test_ratio_against_mpmath(nu, x):
    """(s, s r) from the continued fraction: atan r within (x + 8) eps of the
    40-digit angle of J_{nu+1}(x) / J_nu(x), modulo pi, as _j_ratio states,
    and s = sign J_nu(x) wherever J_nu is not within that rounding of 0.
    Where it is, s may take either sign, but r flips with it, so the sign of
    D = a J_nu - x J_{nu+1} read from the pair stays right."""
    s, sr = _j_ratio(nu, x, 0)
    assert abs(s) == 1.0
    r = s * sr
    with mpmath.workdps(40):
        v = mpmath.mpf(nu)
        j0, j1 = mpmath.besselj(v, x), mpmath.besselj(v + 1, x)
        err = abs(mpmath.atan(r) - mpmath.atan(j1 / j0))
        assert min(err, mpmath.pi - err) <= (x + 8) * sys.float_info.epsilon
        if abs(j0) > (x + 8) * sys.float_info.epsilon * abs(j1):
            assert s == mpmath.sign(j0)
        else:
            for a in (0.01, 1.0, 100.0):
                assert math.copysign(1.0, a * s - x * sr) == mpmath.sign(a * j0 - x * j1)


class TestBesselJPrime:
    def test_half_at_one(self):
        j_half = math.sqrt(2.0 / math.pi) * math.sin(1.0)
        j_three = math.sqrt(2.0 / math.pi) * (math.sin(1.0) - math.cos(1.0))
        expected = 0.5 * j_half - j_three
        assert bessel_j_prime(Order(0.5), 1.0) == pytest.approx(expected, rel=1e-11)

    def test_order_one_at_one(self):
        expected = j_brute(0.0, 1.0) - j_brute(1.0, 1.0)
        assert bessel_j_prime(Order(1.0), 1.0) == pytest.approx(expected, rel=1e-11)

    def test_small_x_slope(self):
        x = 1e-4
        assert bessel_j_prime(Order(0.0), x) == pytest.approx(-x / 2.0, abs=1e-12)

    def test_finite_difference(self):
        nu, x, h = 0.7, 2.3, 1e-5
        fd = (bessel_j(Order(nu), x + h) - bessel_j(Order(nu), x - h)) / (2 * h)
        assert bessel_j_prime(Order(nu), x) == pytest.approx(fd, abs=1e-6)


class TestWSeries:
    def test_normalization_at_zero(self):
        fam = DiniFamily(1.3, Order(0.4))
        assert w_eval(fam, 0.0) == 0.0
        assert w_prime_eval(fam, 0.0) == 1.0

    def test_r_half_value(self):
        fam = DiniFamily(1.0, Order(0.5))
        expected = 0.25 * math.cos(0.5)
        assert w_eval(fam, 0.25) == pytest.approx(expected, rel=1e-13)

    def test_q_half_value(self):
        # (sqrt(z)/2)(sin sqrt(z) + sqrt(z) cos sqrt(z)) at z = 0.25
        fam = DiniFamily(2.0, Order(0.5))
        expected = 0.25 * (math.sin(0.5) + 0.5 * math.cos(0.5))
        assert w_eval(fam, 0.25) == pytest.approx(expected, rel=1e-13)

    def test_w_prime_closed_form(self):
        # d/dz [z cos sqrt(z)] = cos sqrt(z) - (sqrt(z)/2) sin sqrt(z)
        fam = DiniFamily(1.0, Order(0.5))
        expected = math.cos(0.5) - 0.25 * math.sin(0.5)
        assert w_prime_eval(fam, 0.25) == pytest.approx(expected, rel=1e-13)

    def test_w_prime_finite_difference_complex(self):
        fam = DiniFamily(1.7, Order(0.9))
        z, h = 0.3 + 0.4j, 1e-5
        fd = (w_eval(fam, z + h) - w_eval(fam, z - h)) / (2 * h)
        assert abs(w_prime_eval(fam, z) - fd) <= 1e-6

    def test_real_on_real_exact(self):
        fam = DiniFamily(2.4, Order(-0.3))
        for z in np.linspace(-1.0, 1.0, 17):
            w = w_eval(fam, float(z))
            wp = w_prime_eval(fam, float(z))
            assert w.imag == 0.0
            assert wp.imag == 0.0

    @pytest.mark.parametrize("nu", [0.3, 1.7])
    @pytest.mark.parametrize("z", [0.5, -0.8, 0.99, 0.3 + 0.4j])
    def test_specialization_against_explicit_series(self, nu, z):
        # a=2 gives sum (n+1) c_n z^{n+1}; a=1 gives sum (2n+1)/1 ... both
        # written out with explicit gamma coefficients as the oracle.
        def explicit(a, terms=80):
            total = 0j
            for n in range(terms):
                c = ((-1) ** n * (2 * n + a) * math.gamma(nu + 1)
                     / (a * 4.0 ** n * math.factorial(n) * math.gamma(n + nu + 1)))
                total += c * complex(z) ** (n + 1)
                if abs(c) < 1e-20 and n > 5:
                    break
            return total
        for a in (1.0, 2.0):
            mine = w_eval(DiniFamily(a, Order(nu)), z)
            ref = explicit(a)
            assert abs(mine - ref) <= 1e-14 * (1.0 + abs(ref))

    def test_term_stream_matches_coefficients(self):
        # Horner's rule in w_eval against 12 explicit-coefficient terms,
        # which exhaust the series to 1e-16 at |z| = 0.43.
        fam = DiniFamily(1.6, Order(0.8))
        z = 0.37 - 0.21j
        ref = 0j
        for n in range(12):
            c = ((-1) ** n * (2 * n + fam.a) * math.gamma(fam.nu + 1)
                 / (fam.a * 4.0 ** n * math.factorial(n)
                    * math.gamma(n + fam.nu + 1)))
            ref += c * z ** (n + 1)
        assert abs(w_eval(fam, z) - ref) <= 1e-15

    def test_first_term_is_z(self):
        # Near 0 only the first term z survives in double precision.
        z = 1e-20 * (0.11 + 0.7j)
        assert w_eval(DiniFamily(0.9, Order(0.2)), z) == z

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            w_eval(DiniFamily(1.0, Order(0.5)), 1.5)

    @pytest.mark.parametrize("z", [complex("nan"), complex(0.5, float("nan")),
                                   complex("inf"), np.array([0.5, complex("nan")])])
    def test_non_finite_rejected(self, z):
        # NaN fails every comparison with the radius: rejected, not summed
        # for 400 terms into a convergence failure.
        with pytest.raises(DomainError):
            w_eval(DiniFamily(1.0, Order(0.5)), z)

    def test_array_input(self):
        fam = DiniFamily(1.0, Order(0.5))
        zs = np.array([0.1, 0.5 + 0.2j, -0.9])
        out = w_eval(fam, zs)
        assert out.shape == zs.shape
        for k, z in enumerate(zs):
            assert out[k] == pytest.approx(w_eval(fam, complex(z)), rel=1e-15)

    @pytest.mark.parametrize("fn", [w_eval, w_prime_eval])
    def test_scalar_bits_equal_array_element(self, fn):
        # A point summed alone, in Python floats, and in a one-point array, in
        # numpy, gets the same bits (a complex product rounds differently in
        # numpy's scalar and SIMD loops; real products and sums do not).
        fam, rng = DiniFamily(1.0, Order(0.3)), random.Random(0)
        for _ in range(300):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            alone = fn(fam, z)
            assert type(alone) is complex
            assert alone == fn(fam, np.array([z]))[0], z

    @pytest.mark.parametrize("fn", [w_eval, w_prime_eval])
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_array(self, fn, shape):
        out = fn(DiniFamily(1.0, Order(0.5)), np.zeros(shape, dtype=complex))
        assert out.shape == shape and out.dtype == np.complex128


def w_sum_reference(a, nu, zz, derivative):
    """The w series by the complex term recurrence t_{n+1} = t_n (f_n z), with
    both stop-test maxima taken over every point at every term: the accuracy
    reference for _w_sum."""
    t = np.ones_like(zz) if derivative else zz.copy()
    s = t.copy()
    n = 0
    small = 0
    while small < 2:
        f = -(2 * n + 2 + a) / ((2 * n + a) * 4.0 * (n + 1) * (nu + n + 1))
        if derivative:
            f *= (n + 2) / (n + 1)
        fz = f * zz
        t = t * fz
        s = s + t
        tmax = float(np.max(np.abs(t)))
        smax = float(np.max(np.abs(s)))
        if tmax < 1e-16 * (1.0 + smax):
            small += 1
        else:
            small = 0
        n += 1
        if n > 400:
            raise AssertionError("reference series did not converge")
    return s


def w_series_mp(a, nu, z, derivative):
    """(w or w' at z, the sum of its terms' moduli) from 40 terms of the series
    in 40-digit mpmath; on |z| <= 1, a >= 0.01 and nu > -0.99 the terms left
    out are below 1e-95."""
    with mpmath.workdps(40):
        a, nu, z = mpmath.mpf(a), mpmath.mpf(nu), mpmath.mpc(z)
        c, s, scale = mpmath.mpf(1), 0, 0
        for k in range(40):
            t = (k + 1) * c * z ** k if derivative else c * z ** (k + 1)
            s, scale = s + t, scale + abs(t)
            c *= -(2 * k + 2 + a) / ((2 * k + a) * 4 * (k + 1) * (nu + k + 1))
        return s, scale


def assert_w_sum_accurate(a, nu, zz, derivative, points):
    """At the argmin of |w| (or |w'|) and ``points`` (indices into the
    flattened input), _w_sum is within the reference's error of mpmath, or
    within twice the rounding scale eps sum |terms|."""
    new = np.reshape(_w_sum(a, nu, zz, derivative), -1)
    old = np.reshape(w_sum_reference(a, nu, zz, derivative), -1)
    flat = np.reshape(zz, -1)
    for i in {int(np.argmin(np.abs(new))), *(p % flat.size for p in points)}:
        ref, scale = w_series_mp(a, nu, flat[i], derivative)
        err_new, err_old = abs(new[i] - ref), abs(old[i] - ref)
        assert err_new <= max(err_old, 2 * sys.float_info.epsilon * scale), (i, derivative)


def _circle(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _polar(count, m, angles):
    """The polar grid r_k e^(2 pi i j / m), r_k = 0.99 (k+1) / count, j < angles."""
    radii = 0.99 * np.arange(1, count + 1) / count
    return radii[:, None] * np.exp(2j * np.pi * np.arange(angles) / m)


# Polar grids (64 x 361, an odd angle count, radii decreasing), unit circles
# (20,000 points is past numpy's 256 KiB temporary-elision size) and 0-d
# scalars.
W_SUM_INPUTS = {
    "grid_64x361": lambda: _polar(64, 720, 361),
    "odd_angles": lambda: _polar(16, 63, 63),
    "radii_decreasing": lambda: _polar(16, 64, 33)[::-1],
    "circle_4": lambda: _circle(4),
    "circle_64": lambda: _circle(64),
    "circle_20000": lambda: _circle(20000),
    "scalar": lambda: np.asarray(0.3 + 0.4j),
    "scalar_rim": lambda: np.asarray(-1.0 + 0j),
}


@pytest.mark.parametrize("name", W_SUM_INPUTS)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(log_a=st.floats(-2.0, 2.0), nu=st.floats(-0.99, 60.0, exclude_min=True),
       points=st.lists(st.integers(0, 2 ** 31), min_size=8, max_size=8))
def test_w_sum_against_mpmath(name, log_a, nu, points):
    """Horner's rule keeps w and w' within the term recurrence's error of
    40-digit mpmath, or within 2 eps sum |terms|, on every input shape."""
    a, zz = 10.0 ** log_a, W_SUM_INPUTS[name]()
    for derivative in (False, True):
        assert_w_sum_accurate(a, nu, zz, derivative, points)


@pytest.mark.parametrize("a, nu, z0", [(1.0, -0.5, 0.740173884394967),
                                       (0.7, -0.3, 0.8062230035949673)])
def test_w_sum_zero_on_rim(a, nu, z0):
    """z0 = omega_1^2 puts a zero of w at the largest |z|, where w is all
    cancellation: the error stays at the rounding of the terms there too."""
    zz = np.array([z0, -0.99 * z0, 0.5 * z0])
    for derivative in (False, True):
        assert_w_sum_accurate(a, nu, zz, derivative, range(3))


@pytest.mark.parametrize("derivative", [False, True])
def test_w_sum_independent_of_array_size(derivative):
    """The 20,000-point circle (past numpy's 256 KiB temporary elision) gives
    the same bits as its points in 1,000-point chunks: the product's operand
    order does not follow the array's size."""
    zz = 0.9 * _circle(20000)
    whole = _w_sum(1.0, 0.3, zz, derivative)
    chunks = [_w_sum(1.0, 0.3, zz[i:i + 1000], derivative) for i in range(0, 20000, 1000)]
    assert np.array_equal(whole, np.concatenate(chunks))


class TestClosedFormOracles:
    CASES = (
        ("q_half", 2.0, 0.5),
        ("q_threehalf", 2.0, 1.5),
        ("r_half", 1.0, 0.5),
        ("r_threehalf", 1.0, 1.5),
    )

    def test_r_half_zero_of_cos(self):
        assert abs(oracle_closed_form("r_half", math.pi ** 2 / 4.0)) < 1e-15

    def test_all_normalized_at_zero(self):
        for which, _, _ in self.CASES:
            assert oracle_closed_form(which, 0.0) == 0.0

    def test_frozen_values(self):
        assert oracle_closed_form("r_threehalf", 1.0).real == pytest.approx(
            0.7174008807851488, rel=1e-13)
        assert oracle_closed_form("q_threehalf", 1.0).real == pytest.approx(
            0.8104534588022096, rel=1e-13)

    @pytest.mark.parametrize("which,a,nu", CASES)
    def test_agrees_with_series(self, which, a, nu):
        fam = DiniFamily(a, Order(nu))
        for r in (0.2, 0.6, 1.0):
            for k in range(8):
                z = r * cmath.exp(2j * math.pi * k / 8)
                assert abs(w_eval(fam, z) - oracle_closed_form(which, z)) <= 1e-12

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            oracle_closed_form("q_fivehalf", 0.5)
