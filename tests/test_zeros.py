"""Zero localization tests against half-integer closed forms."""

import math

import pytest

from dinicert import (
    DiniFamily,
    DomainError,
    NumericFailure,
    Order,
    bessel_j,
    bessel_j_prime,
    dini_eval,
    dini_prime,
    find_zeros,
    ismail_lower_bound,
    oracle_closed_form,
)


def bisect(f, lo, hi, tol=1e-13):
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if math.copysign(1.0, f(mid)) == math.copysign(1.0, flo):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestDiniEval:
    def test_half_integer_value(self):
        # D_{2,1/2}(x) = sqrt(2/(pi x)) (sin x + x cos x)
        fam = DiniFamily(2.0, Order(0.5))
        expected = math.sqrt(2.0 / math.pi) * (math.sin(1.0) + math.cos(1.0))
        assert dini_eval(fam, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_of_cosine_form(self):
        # D_{1,1/2}(x) = sqrt(2x/pi) cos x vanishes at pi/2
        fam = DiniFamily(1.0, Order(0.5))
        assert abs(dini_eval(fam, math.pi / 2.0)) < 1e-14

    @pytest.mark.parametrize("a,nu", [(0.3, -0.8), (1.0, 0.5), (4.0, 2.0)])
    def test_positive_near_origin(self, a, nu):
        assert dini_eval(DiniFamily(a, Order(nu)), 1e-3) > 0.0

    @pytest.mark.parametrize("a,nu,x", [(1.5, 0.3, 0.7), (2.0, 1.2, 9.5)])
    def test_matches_definition(self, a, nu, x):
        # (a - nu) J_nu + x J'_nu, assembled from the public Bessel ops
        ref = (a - nu) * bessel_j(Order(nu), x) + x * bessel_j_prime(Order(nu), x)
        assert dini_eval(DiniFamily(a, Order(nu)), x) == pytest.approx(ref, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            dini_eval(DiniFamily(1.0, Order(0.5)), 0.0)


class TestDiniPrime:
    def test_value_at_first_zero(self):
        # d/dx [sqrt(2x/pi) cos x] at pi/2 equals exactly -1
        fam = DiniFamily(1.0, Order(0.5))
        assert dini_prime(fam, math.pi / 2.0) == pytest.approx(-1.0, rel=1e-12)

    def test_finite_difference(self):
        fam = DiniFamily(2.0, Order(0.5))
        h = 1e-5
        fd = (dini_eval(fam, 1.0 + h) - dini_eval(fam, 1.0 - h)) / (2 * h)
        assert dini_prime(fam, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_nonzero_at_tabulated_zeros(self):
        fam = DiniFamily(2.0, Order(0.5))
        for e in find_zeros(fam, 4).entries:
            assert abs(dini_prime(fam, e.zero)) > 1e-2


class TestFindZeros:
    def test_half_integer_exactness(self):
        table = find_zeros(DiniFamily(1.0, Order(0.5)), 5)
        for e in table.entries:
            assert e.zero == pytest.approx((2 * e.index - 1) * math.pi / 2.0,
                                           abs=1e-10)

    def test_tan_equation_root(self):
        # first root of tan x = -x, i.e. of sin x + x cos x, on (pi/2, pi)
        ref = bisect(lambda x: math.sin(x) + x * math.cos(x), 1.6, 3.1)
        table = find_zeros(DiniFamily(2.0, Order(0.5)), 1)
        assert table.zeros[0] == pytest.approx(ref, abs=1e-10)
        assert table.zeros[0] == pytest.approx(2.0287578381104342, abs=1e-9)

    def test_three_half_root_kills_oracle(self):
        table = find_zeros(DiniFamily(1.0, Order(1.5)), 1)
        z = table.zeros[0]
        assert abs(oracle_closed_form("r_threehalf", z * z)) < 1e-10

    def test_bracket_certificates(self):
        fam = DiniFamily(2.0, Order(1.0))
        table = find_zeros(fam, 6)
        for e in table.entries:
            assert e.lo < e.zero < e.hi
            assert e.hi - e.lo <= table.tol
            assert dini_eval(fam, e.lo) * dini_eval(fam, e.hi) < 0.0
            j0 = bessel_j(Order(fam.nu), e.zero)
            j1 = bessel_j(Order(fam.nu + 1), e.zero)
            scale = abs(fam.a * j0) + abs(e.zero * j1)
            assert e.residual <= 1e-10 * scale

    def test_spacing_invariants(self):
        zs = find_zeros(DiniFamily(2.0, Order(1.0)), 6).zeros
        for a, b in zip(zs, zs[1:]):
            assert 1.0 < b - a < 2.0 * math.pi
            assert b - a > 0.25  # exceeds the scan step

    def test_monotone_in_order(self):
        nus = (-0.7, -0.2, 0.8, 1.9, 3.0)
        tables = [find_zeros(DiniFamily(1.7, Order(nu)), 5) for nu in nus]
        for n in range(5):
            zs = [t.entries[n].zero for t in tables]
            assert all(x < y for x, y in zip(zs, zs[1:]))

    def test_count_validation(self):
        fam = DiniFamily(1.0, Order(0.5))
        with pytest.raises(DomainError):
            find_zeros(fam, 0)
        with pytest.raises(DomainError):
            find_zeros(fam, 19)
        with pytest.raises(DomainError):
            find_zeros(fam, 5, tol=0.0)

    def test_insufficient_zeros_below_cap(self):
        # at nu = 9 the 18th zero lies beyond the x <= 60 series range
        with pytest.raises(NumericFailure, match="sign changes"):
            find_zeros(DiniFamily(1.0, Order(9.0)), 18)


class TestSmallestZero:
    """The hypothesis omega_1 > 1 and its margin, from the first table entry."""

    @staticmethod
    def margin(a, nu):
        return find_zeros(DiniFamily(a, Order(nu)), 1).zeros[0] - 1.0

    def test_half_integer(self):
        assert self.margin(1.0, 0.5) == pytest.approx(math.pi / 2.0 - 1.0, abs=1e-10)

    def test_tan_family(self):
        assert self.margin(2.0, 0.5) == pytest.approx(1.0287578381104342, abs=1e-9)

    def test_dini_at_zero_order(self):
        assert self.margin(1.0, 0.0) > 0.0

    def test_failing_family(self):
        # D_{1,-1/2} ~ cos x - x sin x has its first zero at cot x = x
        margin = self.margin(1.0, -0.5)
        assert margin < 0.0
        assert margin == pytest.approx(0.8603335890193798 - 1.0, abs=1e-9)


class TestIsmailBound:
    def test_half_integer(self):
        fam = DiniFamily(1.0, Order(0.5))
        assert ismail_lower_bound(fam) == pytest.approx(2.0, rel=1e-15)
        omega1 = find_zeros(fam, 1).zeros[0]
        assert omega1 ** 2 > 2.0

    def test_admissibility_boundary(self):
        # a = 2/(4 nu + 3) at nu = 1/4 gives the bound exactly 1
        assert ismail_lower_bound(DiniFamily(0.5, Order(0.25))) == pytest.approx(
            1.0, rel=1e-15)

    def test_simple_substitution(self):
        assert ismail_lower_bound(DiniFamily(2.0, Order(0.0))) == pytest.approx(
            2.0, rel=1e-15)


class TestLandau:
    def test_increasing_pairs(self):
        # omega_{a,nu,n} increases with nu at fixed a > 0 (Landau)
        for a, nu1, nu2, n in ((1.0, 0.5, 1.5, 1), (2.0, 0.0, 1.0, 2)):
            z1 = find_zeros(DiniFamily(a, Order(nu1)), n).zeros[-1]
            z2 = find_zeros(DiniFamily(a, Order(nu2)), n).zeros[-1]
            assert z1 < z2
