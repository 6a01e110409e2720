"""Series evaluator tests against closed forms, brute force, and scipy."""

import cmath
import hashlib
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
    oracle_closed_form,
    sum_closed,
    w_eval,
    w_prime_eval,
)
from dinicert import bessel
from dinicert.bessel import X_MAX, _j_pair, _j_ratio, _j_sums, _levels, _TWO_K, _w_coeffs, _w_sums
from dinicert.errors import NumericFailure
from dinicert.zeros import _d_lead


def _w_sum(a, nu, z, derivative):
    """w (or w') alone, as w_eval and w_prime_eval sum it; an array of one or
    more dimensions goes in as the list of its points and comes back in its
    shape."""
    if isinstance(z, np.ndarray) and z.ndim:
        points = np.asarray(z, dtype=np.complex128).ravel().tolist()
        return np.array(_w_sums(a, nu, points, (derivative,))[0], np.complex128).reshape(z.shape)
    return _w_sums(a, nu, z, (derivative,))[0]


def j_prime(nu, x):
    """J'_nu(x) = (nu/x) J_nu(x) - J_{nu+1}(x) from the pair, as D' is formed."""
    j0, j1 = _j_pair(nu, x)
    return (nu / x) * j0 - j1


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


def j_sums_reference(nu, x):
    """``_j_sums`` in its plain form, term by term: den_k formed afresh, k t_k
    by multiplication and one signed add to each sum.  The kernel must match
    it bit for bit."""
    xn, xd = x.as_integer_ratio()
    p, q = nu.as_integer_ratio()
    c, d = xn * xn * q, 4 * xd * xd
    wp = 73 + int(1.443 * x)
    lift = max(0, (d * (q + p)).bit_length() - c.bit_length())
    for _ in range(4):
        prec = wp + lift
        t = s0 = m0 = m1 = 1 << prec
        s1 = k = 0
        while t:
            k += 1
            if k > 500:
                raise NumericFailure(f"Bessel series did not converge at nu={nu}, x={x}")
            t = t * c // (d * k * (k * q + p))
            kt = k * t
            if k & 1:
                s0 -= t
                s1 -= kt
            else:
                s0 += t
                s1 += kt
            m0 = max(m0, t)
            m1 = max(m1, kt)
        cancel = max(m.bit_length() - abs(s).bit_length() if s else prec
                     for m, s in ((m0, s0), (m1, s1)))
        if cancel <= prec - 63:
            return s0, s1, prec, wp
        wp += cancel - (prec - 63) + 20
    raise NumericFailure(f"could not reach target precision at nu={nu}, x={x}")


def j_ratio_reference(nu, x=1.0, shift=1):
    """``_j_ratio`` over range() levels with 2 (nu + k) mixing an int in."""
    t, s = 0.0, 1.0
    for k in range(int(1.25 * x + 3.0 * x ** (1.0 / 3.0)) + 19 + shift, shift, -1):
        t = x / ((2.0 * (nu + k) - x * t) or -5e-324)
        if t < 0.0:
            s = -s
    return s, s * t


def outcome(fn, *args):
    try:
        return fn(*args)
    except NumericFailure as exc:
        return str(exc)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(nu=st.floats(-1.0, 400.0, exclude_min=True),
       x=st.floats(0.0, 60.0, exclude_min=True))
@example(nu=0.3, x=X_MAX)
@example(nu=-0.9999999999999999, x=1.0)
@example(nu=-0.9999999999999999, x=X_MAX)
@example(nu=1000.0, x=1.0)
@example(nu=7.0, x=13.0)
@example(nu=0.0, x=2.5)
@example(nu=-0.75, x=33.3)
@example(nu=2.0 ** -40, x=17.0)
@example(nu=3.0, x=2.0 ** -30)
@example(nu=-0.5, x=2.0 ** -30)
# c = xn^2 q and d = 4 xd^2 lose their common power of 2 in the kernel: 2^55,
# all of q, at the least x; 4, all of d, at an integer x with q = 2^52; none
# at an integer nu; and 2, all of q, with d = 2^2002
@example(nu=0.1, x=5e-324)
@example(nu=-1.0 + 2.0 ** -52, x=48.0)
@example(nu=1e300, x=59.99999999999999)
@example(nu=0.5, x=2.0 ** -1000)
def test_kernels_match_reference(nu, x):
    """Both kernels give the reference's bits: (s0, s1, prec, wp) and, at
    either shift, (s, s r)."""
    assert outcome(_j_sums, nu, x) == outcome(j_sums_reference, nu, x)
    for shift in (0, 1):
        assert _j_ratio(nu, x, shift) == j_ratio_reference(nu, x, shift)


# x at and next to the doubles nearest zeros of J_nu (shift 0) or of J_{nu+1}
# (shift 1): s0 or s1 cancels to about an ulp of its terms and the guard
# must add bits.
@pytest.mark.parametrize("nu,shift,n", [(0.0, 0, 1), (0.0, 1, 1), (0.0, 0, 12),
                                        (2.0, 1, 2), (-0.6, 0, 3), (-0.9, 1, 1),
                                        (15.098473923193199, 1, 4), (0.3, 0, 14),
                                        (37.25, 0, 2), (37.25, 1, 1)])
def test_kernels_match_reference_next_to_zeros(nu, shift, n):
    with mpmath.workdps(30):
        v = mpmath.mpf(nu) + shift
        z = float(mpmath.findroot(lambda t: mpmath.besselj(v, t),
                                  mpmath.besseljzero(v + 1, n) - 1.5) if v < 0
                  else mpmath.besseljzero(v, n))
    for x in (math.nextafter(z, 0.0), z, math.nextafter(z, math.inf)):
        sums = _j_sums(nu, x)
        assert sums == j_sums_reference(nu, x)
        assert sums[3] > 73 + int(1.443 * x)  # the guard escalated
        assert _j_ratio(nu, x, shift) == j_ratio_reference(nu, x, shift)


def test_sums_keep_their_bits():
    """(s0, s1, prec, wp) over a seeded grid of nu in (-1, 400], half of it
    with nu + 1 log-uniform from 1e-6, each at x = 1 and at an x in (0, 60],
    a third of those log-uniform from 1e-3: the sha256 of their reprs, as the
    kernel gave them when it tracked both maxima term by term."""
    rng, digest = random.Random(7), hashlib.sha256()
    for i in range(400):
        if i % 2:
            nu = min(-1.0 + 10.0 ** rng.uniform(-6.0, math.log10(401.0)), 400.0)
        else:
            nu = -1.0 + 401.0 * (1.0 - rng.random())
        if i % 3 == 0:
            x = 10.0 ** rng.uniform(-3.0, math.log10(60.0))
        else:
            x = 60.0 * (1.0 - rng.random())
        for v in (1.0, x):
            digest.update(repr(_j_sums(nu, v)).encode())
    assert digest.hexdigest() == "20184f5c9d6980305047a93450f8a0748d59ba761e8433d2649e97e8c11cab03"


@pytest.mark.parametrize("x", [300.0, 1000.0])
def test_sums_fail_like_reference(x):
    """Past the domain t_500 is nonzero and both raise the same message;
    at x = 1000 the peak of k t_k lies near the 500-term limit."""
    message = outcome(j_sums_reference, 0.5, x)
    assert isinstance(message, str) and "did not converge" in message
    assert outcome(_j_sums, 0.5, x) == message


@pytest.mark.parametrize("nu", [-0.9999999999999999, -0.5, 0.0, 3.7, 400.0, 1e300])
def test_ratio_table_covers_x_max(nu):
    """The 2k table ends where the deepest fraction starts (x = X_MAX,
    shift 1), so no level is dropped there."""
    assert len(_TWO_K) == _levels(X_MAX) + 2
    assert _j_ratio(nu, X_MAX, 1) == j_ratio_reference(nu, X_MAX, 1)


def old_levels(x):
    """``_levels`` before the depth was set from the tail."""
    return int(1.25 * x + 3.0 * x ** (1.0 / 3.0)) + 19


def test_rho_keeps_its_bits_at_the_old_depth(monkeypatch):
    """rho = J_{nu+2}(1) / J_{nu+1}(1), from which certify forms S and nu_a,
    has the same bits at 13 levels as at the former 23, over 100,000 orders:
    nu uniform in (-1, 1000] and nu + 1 log-uniform in [1e-16, 1001]."""
    rng = random.Random(13)
    nus = [1000.0 - rng.random() * 1001.0 for _ in range(50_000)] + [
        math.exp(rng.uniform(math.log(1e-16), math.log(1001.0))) - 1.0 for _ in range(50_000)]
    nus = [nu for nu in nus if nu > -1.0]
    assert len(nus) >= 99_000 and _levels(1.0) == 13
    rho = [_j_ratio(nu) for nu in nus]
    monkeypatch.setattr(bessel, "_levels", old_levels)
    assert [_j_ratio(nu) for nu in nus] == rho


def mp_j_zero_after(v, x):
    """The first zero of J_v in (x, x + 4] to 40 digits, or None: a sign change
    on a grid of step 1, below the 2.99 spacing of the zeros."""
    f = lambda t: mpmath.besselj(v, t)
    x, fx = mpmath.mpf(x), f(x)
    for _ in range(4):
        fy = f(x + 1)
        if fx * fy < 0:
            return mpmath.findroot(f, (x, x + 1), solver="anderson")
        x, fx = x + 1, fy
    return None


def test_ratio_angle_within_bound_at_and_next_to_zeros():
    """At the depth x + 8 x^(1/3) + 4, atan r stays within (x + 8) eps of the
    40-digit angle of J_{nu+1}(x) / J_nu(x), modulo pi, as _j_ratio states:
    300 draws of nu in (-0.9, 40] and x in (0, 60], half of them at or within
    2 ulp of the double nearest a zero of J_nu or J_{nu+1}."""
    rng = random.Random(8)
    for i in range(300):
        nu, x = 40.0 - rng.random() * 40.9, 60.0 - rng.random() * 60.0
        with mpmath.workdps(40):
            v, shift = mpmath.mpf(nu), rng.randint(0, 1)
            while i % 2 == 0:  # a zero below 60 follows some x, as j_{41,1} < 48
                z = mp_j_zero_after(v + shift, x)
                if z is not None and z <= X_MAX:
                    x = float(z)
                    for _ in range(rng.randint(0, 2)):
                        x = math.nextafter(x, rng.choice((0.0, math.inf)))
                    break
                x = 60.0 - rng.random() * 60.0
            s, sr = _j_ratio(nu, x, 0)
            err = abs(mpmath.atan(s * sr) - mpmath.atan(mpmath.besselj(v + 1, x)
                                                       / mpmath.besselj(v, x)))
            assert min(err, mpmath.pi - err) <= (x + 8) * sys.float_info.epsilon, (nu, x)


class TestBesselJPrime:
    def test_half_at_one(self):
        j_half = math.sqrt(2.0 / math.pi) * math.sin(1.0)
        j_three = math.sqrt(2.0 / math.pi) * (math.sin(1.0) - math.cos(1.0))
        expected = 0.5 * j_half - j_three
        assert j_prime(0.5, 1.0) == pytest.approx(expected, rel=1e-11)

    def test_order_one_at_one(self):
        expected = j_brute(0.0, 1.0) - j_brute(1.0, 1.0)
        assert j_prime(1.0, 1.0) == pytest.approx(expected, rel=1e-11)

    def test_small_x_slope(self):
        x = 1e-4
        assert j_prime(0.0, x) == pytest.approx(-x / 2.0, abs=1e-12)

    def test_finite_difference(self):
        nu, x, h = 0.7, 2.3, 1e-5
        fd = (bessel_j(Order(nu), x + h) - bessel_j(Order(nu), x - h)) / (2 * h)
        assert j_prime(nu, x) == pytest.approx(fd, abs=1e-6)


class TestWSeries:
    def test_normalization_at_zero(self):
        fam = DiniFamily(1.3, Order(0.4))
        assert w_eval(fam, 0.0) == 0.0
        assert w_prime_eval(fam, 0.0) == 1.0

    @pytest.mark.parametrize("a", [5e-324, 1e-300])
    def test_underflowing_term_ratio_fails_loudly(self, a):
        # at 5e-324 the first ratio's denominator 4a(nu + 1) is 0.0, a
        # ZeroDivisionError; at 1e-300 it is subnormal and the series overflows
        fam = DiniFamily(a, Order(-0.9999999999999999))
        with pytest.raises(NumericFailure, match="w series did not converge"):
            w_eval(fam, 0.5)

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
                                   complex("inf"), (0.5, complex("nan")),
                                   [complex("nan"), 0.5], complex(1.5e308, 1.5e308)])
    def test_non_finite_rejected(self, z):
        # NaN fails every comparison with the radius: rejected, not summed
        # for 400 terms into a convergence failure.  abs(z) past the double
        # range raises OverflowError, which is refused the same way.
        with pytest.raises(DomainError):
            w_eval(DiniFamily(1.0, Order(0.5)), z)

    def test_list_input(self):
        fam, zs = DiniFamily(1.0, Order(0.5)), [0.1, 0.5 + 0.2j, -0.9]
        for fn in (w_eval, w_prime_eval):
            out = fn(fam, zs)
            assert type(out) is list and all(type(w) is complex for w in out)
            assert out == fn(fam, tuple(zs))
        assert w_eval(fam, []) == []

    @pytest.mark.parametrize("fn", [w_eval, w_prime_eval])
    def test_scalar_bits_equal_array_element(self, fn):
        # A point summed alone and in a one-point list gets the same bits:
        # both are summed by the same Python-float loop.
        fam, rng = DiniFamily(1.0, Order(0.3)), random.Random(0)
        for _ in range(300):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            alone = fn(fam, z)
            assert type(alone) is complex
            assert alone == fn(fam, [z])[0], z


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


def w_sum_numpy_first(a, nu, z, derivative):
    """_w_sum as it was when every input went through numpy first, with the
    disk check and r_max by abs(complex), the C library's hypot: Horner's rule
    on numpy's real arrays, a 0-d input summed in Python floats."""
    zz = np.asarray(z, dtype=np.complex128)
    radii = [abs(v) for v in zz.ravel().tolist()]
    if not all(r <= 1.0 + 1e-9 for r in radii):
        raise DomainError("w_{a,nu} is evaluated on the closed unit disk only")
    c = _w_coeffs(a, nu, max(radii, default=0.0))
    if derivative:
        c = [(k + 1) * ck for k, ck in enumerate(c)]
    x, y = (zz.real, zz.imag) if zz.ndim else (float(zz.real), float(zz.imag))
    p, q = c[-1], 0.0
    for ck in c[-2::-1]:
        p, q = p * x - q * y + ck, p * y + q * x
    if not derivative:
        p, q = p * x - q * y, p * y + q * x
    if not zz.ndim:
        return complex(p, q)
    out = np.empty(zz.shape, dtype=np.complex128)
    out.real, out.imag = p, q
    return out


# Every kind of point input; all are summed by one Python-float loop.
PYTHON_POINTS = {
    "int": lambda z: round(z.real),
    "float": lambda z: z.real,
    "complex": lambda z: z,
}
NUMPY_POINTS = {
    "float64": lambda z: np.float64(z.real),
    "complex128": np.complex128,
    "complex64": np.complex64,
    "0-d": np.asarray,
    "one-point": lambda z: np.array([z]),
}


def w_sum_outcome(fn, a, nu, z, derivative):
    """The result's type and bits (the sign of a zero included), or the message
    of the DomainError raised."""
    try:
        w = fn(a, nu, z, derivative)
    except DomainError as exc:
        return "DomainError", str(exc)
    return type(w), np.asarray(w, dtype=np.complex128).tobytes()


def assert_w_sum_as_numpy_first(a, nu, z, kinds):
    for make in kinds.values():
        v = make(z)
        for derivative in (False, True):
            new = w_sum_outcome(_w_sum, a, nu, v, derivative)
            assert new == w_sum_outcome(w_sum_numpy_first, a, nu, v, derivative), (v, derivative)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(log_a=st.floats(-2.0, 2.0), nu=st.floats(-0.99, 60.0, exclude_min=True),
       r=st.floats(0.0, 1.0), theta=st.floats(-math.pi, math.pi))
@example(log_a=0.0, nu=0.5, r=1.0, theta=0.0)  # the rim on the real axis
@example(log_a=0.0, nu=0.5, r=0.0, theta=0.0)  # the origin
def test_w_sum_point_bits_as_numpy_first(log_a, nu, r, theta):
    """Every kind of point on the closed disk gets the bits and return type it
    got when all input went through numpy's real arithmetic: numpy's real
    products and sums round as Python's do.  r_max = abs(z) is within two ulp
    of np.abs(z) (numpy 2.4 on x86 with FMA rounds L sqrt(1 + (S/L)^2) with a
    fused multiply-add, and differs from hypot at about a third of random
    points), and _w_coeffs' length does not follow those ulp."""
    a, z = 10.0 ** log_a, r * cmath.exp(1j * theta)
    r_np = float(np.abs(np.complex128(z)))
    assert abs(abs(z) - r_np) <= 2 * math.ulp(r_np)
    assert len(_w_coeffs(a, nu, abs(z))) == len(_w_coeffs(a, nu, r_np))
    assert_w_sum_as_numpy_first(a, nu, z, PYTHON_POINTS | NUMPY_POINTS)


def near_disk_edge(theta, dx, dy):
    """(1 + 1e-9) e^(i theta), moved dx and dy ulp in Re and Im."""
    z = (1.0 + 1e-9) * cmath.exp(1j * theta)
    return complex(z.real + dx * math.ulp(z.real), z.imag + dy * math.ulp(z.imag))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(theta=st.floats(-math.pi, math.pi), dx=st.integers(-4, 4), dy=st.integers(-4, 4))
@example(theta=1.4959779807050952, dx=0, dy=0)  # np.abs above 1 + 1e-9, hypot not (FMA)
def test_w_sum_disk_edge_as_numpy_first(theta, dx, dy):
    """Within a few ulp of |z| = 1 + 1e-9 every kind of point, numpy's too,
    is refused exactly where abs(z) > 1 + 1e-9 (the C library's hypot, not
    np.abs, which can fall on the other side) and otherwise summed with the
    bits of numpy's real arithmetic."""
    z = near_disk_edge(theta, dx, dy)
    assert_w_sum_as_numpy_first(1.0, 0.3, z, PYTHON_POINTS | NUMPY_POINTS)
    refused = w_sum_outcome(_w_sum, 1.0, 0.3, np.array([z]), False)[0] == "DomainError"
    assert refused == (abs(z) > 1.0 + 1e-9)


# A point as each input type, and its one result from each return type.
SAME_POINT = {
    "complex": (lambda z: z, lambda w: w),
    "complex128": (np.complex128, lambda w: w),
    "0-d": (np.asarray, lambda w: w),
    "one-point": (lambda z: np.array([z]), lambda w: complex(w[0])),
    "list": (lambda z: [z], lambda w: w[0]),
}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(log_a=st.floats(-2.0, 2.0), nu=st.floats(-0.99, 60.0, exclude_min=True),
       theta=st.floats(-math.pi, math.pi), r=st.floats(0.0, 1.0),
       edge=st.booleans(), dx=st.integers(-4, 4), dy=st.integers(-4, 4))
@example(log_a=0.0, nu=0.3, theta=1.4959779807050952, r=1.0, edge=True, dx=0, dy=0)
def test_w_sum_same_bits_for_every_input_type(log_a, nu, theta, r, edge, dx, dy):
    """A point gets the same bits of w and w' (and the same refusal) as a
    Python complex, a numpy complex128 scalar, a 0-d array, a one-point
    array and a one-point list, inside the disk and within a few ulp of
    |z| = 1 + 1e-9."""
    a = 10.0 ** log_a
    z = near_disk_edge(theta, dx, dy) if edge else r * cmath.exp(1j * theta)
    for derivative in (False, True):
        seen = set()
        for make, take in SAME_POINT.values():
            try:
                w = take(_w_sum(a, nu, make(z), derivative))
            except DomainError:
                seen.add("refused")
            else:
                assert type(w) is complex
                seen.add(np.complex128(w).tobytes())
        assert len(seen) == 1, (z, derivative)
        assert ("refused" in seen) == (abs(z) > 1.0 + 1e-9)


@pytest.mark.parametrize("z", [complex("nan"), complex(0.5, float("nan")), complex("inf")])
def test_w_sum_non_finite_as_numpy_first(z):
    kinds = {k: make for k, make in (PYTHON_POINTS | NUMPY_POINTS).items() if k != "int"}
    assert_w_sum_as_numpy_first(1.0, 0.3, z, kinds)


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
