"""Series evaluator tests against closed forms, brute force, and scipy."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
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
from dinicert.bessel import _j_pair


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
        # S = -f'(1) / (2 f(1)) for f(x) = x^-nu D_{a,nu}(x), a = 1, nu = 20
        a, nu = 1, 20
        with mpmath.workdps(50):
            f = lambda x: x ** -nu * (a * mpmath.besselj(nu, x)
                                      - x * mpmath.besselj(nu + 1, x))
            ref = -mpmath.diff(f, 1) / (2 * f(1))
        assert abs(sum_closed(DiniFamily(1.0, Order(20.0))) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("nu,x", [(30.0, 4.0), (40.0, 4.96), (60.0, 5.0),
                                      (0.3, 45.0), (10.0, 59.0), (175.0, 2.9)])
    def test_fixed_point_pair_within_one_ulp(self, nu, x):
        for mu, value in zip((nu, nu + 1.0), _j_pair(nu, x)):
            ref = self.ref(mu, x)
            assert abs(float(ref)) >= sys.float_info.min
            assert value != 0.0
            assert abs(value - ref) <= math.ulp(float(ref))


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
        # The term recurrence of w_eval against 12 explicit-coefficient
        # terms, which exhaust the series to 1e-16 at |z| = 0.43.
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

    def test_array_input(self):
        fam = DiniFamily(1.0, Order(0.5))
        zs = np.array([0.1, 0.5 + 0.2j, -0.9])
        out = w_eval(fam, zs)
        assert out.shape == zs.shape
        for k, z in enumerate(zs):
            assert out[k] == pytest.approx(w_eval(fam, complex(z)), rel=1e-15)


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
