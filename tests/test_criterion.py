"""Sum criterion and critical order tests against independent oracles."""

import importlib
import math
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dinicert import (
    DiniFamily,
    DomainError,
    NumericFailure,
    Order,
    PoleError,
    bessel_j,
    critical_equation,
    critical_order,
    evaluate_criterion,
    find_zeros,
    ismail_lower_bound,
    sum_closed,
)
from dinicert.zeros import MAX_ZEROS

criterion = importlib.import_module("dinicert.criterion")

# Root of J_nu(1) = J_{nu+1}(1): the first Dini zero of the a=1 family sits
# exactly at radius 1 there, so the closed-form sum has a pole.
NU_POLE_A1 = -0.3400924939228838


def exact_partial_half(n_terms):
    """Partial criterion sum for (a=1, nu=1/2): zeros are (2n-1)pi/2."""
    return math.fsum(1.0 / (((2 * n - 1) * math.pi / 2.0) ** 2 - 1.0)
                     for n in range(1, n_terms + 1))


class TestSumClosed:
    def test_tangent_value(self):
        val = sum_closed(DiniFamily(1.0, Order(0.5)))
        assert val == pytest.approx(math.tan(1.0) / 2.0, abs=1e-10)

    def test_half_integer_a2(self):
        # assembled from J_{1/2}(1), J'_{1/2}(1) in closed form
        j = math.sqrt(2.0 / math.pi) * math.sin(1.0)
        jp = math.sqrt(2.0 / math.pi) * (math.cos(1.0) - 0.5 * math.sin(1.0))
        expected = -0.5 * (-1.5 * j + jp) / (1.5 * j + jp)
        val = sum_closed(DiniFamily(2.0, Order(0.5)))
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.4134685738456465, rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            sum_closed(DiniFamily(1.0, Order(NU_POLE_A1)))

    @pytest.mark.parametrize("nu", [152.0, 155.0, 156.0])
    def test_subnormal_pair_refused(self, nu):
        # J_nu(1) or J_{nu+1}(1) below 2^-1032 keeps fewer than about 42 bits
        with pytest.raises(NumericFailure, match="subnormal") as info:
            sum_closed(DiniFamily(1.0, Order(nu)))
        assert not isinstance(info.value, PoleError)

    def test_underflowed_pair_is_a_pole(self):
        # both J values round to 0 at nu = 200: D(1) = 0 within any scale
        with pytest.raises(PoleError):
            sum_closed(DiniFamily(1.0, Order(200.0)))


def sum_truncated(fam, n_terms):
    """The truncated route's (partial sum, tail bound), as evaluate_criterion
    reports them."""
    crit = evaluate_criterion(fam, n_terms)
    return crit.truncated_value, crit.tail_bound


class TestSumTruncated:
    def test_exact_partial_and_tail(self):
        value, tail = sum_truncated(DiniFamily(1.0, Order(0.5)), 8)
        assert value == pytest.approx(exact_partial_half(8), abs=1e-12)
        true_tail = math.tan(1.0) / 2.0 - value
        assert tail >= true_tail > 0.0
        # (T - P_8) m / (m - 1) on the exact zeros (2n-1)pi/2, with T = 1/2
        zs = [(2 * n - 1) * math.pi / 2.0 for n in range(1, 9)]
        m = zs[-1] ** 2
        ref = (0.5 - math.fsum(1.0 / (z * z) for z in zs)) * m / (m - 1.0)
        assert tail == pytest.approx(ref, abs=1e-10)
        # below the integral-comparison bound with spacing pi
        assert tail < 0.01351761132345682

    def test_empty_sum(self):
        fam = DiniFamily(1.0, Order(0.5))
        value, tail = sum_truncated(fam, 0)
        assert value == 0.0
        assert tail >= sum_closed(fam)

    def test_tail_decreases_with_terms(self):
        fam = DiniFamily(1.0, Order(0.5))
        tails = [sum_truncated(fam, n)[1] for n in (4, 8, 12)]
        assert tails[0] > tails[1] > tails[2]

    def test_enclosure(self):
        fam = DiniFamily(2.0, Order(1.0))
        value, tail = sum_truncated(fam, 10)
        closed = sum_closed(fam)
        assert value <= closed <= value + tail

    def test_inapplicable_when_zero_inside(self):
        assert sum_truncated(DiniFamily(1.0, Order(-0.5)), 6) == (None, None)

    def test_term_count_validation(self):
        fam = DiniFamily(1.0, Order(0.5))
        with pytest.raises(DomainError):
            sum_truncated(fam, -1)
        with pytest.raises(DomainError):
            sum_truncated(fam, 19)

    def test_no_terms_bounds_what_one_term_encloses(self):
        # N = 0 and N = 1 both read omega_1 alone: T m/(m - 1) is
        # 1/(m - 1) + (T - 1/m) m/(m - 1)
        fam = DiniFamily(2.0, Order(1.0))
        value, tail = sum_truncated(fam, 1)
        assert sum_truncated(fam, 0) == (0.0, pytest.approx(value + tail, rel=1e-15))


class TestTailIdentity:
    def test_half_order_square_sum(self):
        # T = (a + 2)/(4a(nu + 1)) = 1/2 = sum 4/((2n - 1)^2 pi^2) for (1, 1/2)
        assert 1.0 / ismail_lower_bound(DiniFamily(1.0, Order(0.5))) == 0.5
        with mpmath.workdps(30):
            t = mpmath.nsum(lambda n: 4 / ((2 * n - 1) * mpmath.pi) ** 2, [1, mpmath.inf])
            assert abs(t - mpmath.mpf(1) / 2) < mpmath.mpf(10) ** -25

    def test_tail_reads_only_the_first_zeros(self):
        fam = DiniFamily(2.0, Order(1.0))
        long = evaluate_criterion(fam, 5, table=find_zeros(fam, 18))
        short = evaluate_criterion(fam, 5, table=find_zeros(fam, 5))
        assert (long.truncated_value, long.tail_bound) == (
            short.truncated_value, short.tail_bound) == sum_truncated(fam, 5)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(a=st.floats(math.log(0.05), math.log(50.0)).map(math.exp),
       nu=st.floats(-0.95, 25.0, exclude_min=True),
       n=st.integers(0, MAX_ZEROS))
@example(a=1.0, nu=0.5, n=0)
@example(a=0.05, nu=25.0, n=1)
@example(a=50.0, nu=-0.5, n=18)
def test_tail_bound_two_sided_against_mpmath(a, nu, n):
    """true <= tail_bound <= true m/(m - 1), with true = S - truncated_value
    from 50-digit mpmath, wherever the truncated route applies: the two
    sides of the proof that 1/omega_n^2 < 1/(omega_n^2 - 1) <= (1/omega_n^2)
    m/(m - 1) for n > N."""
    fam = DiniFamily(a, Order(nu))
    try:
        table = find_zeros(fam, max(n, 1))
        crit = evaluate_criterion(fam, n, table=table)
    except NumericFailure:  # fewer zeros below 60, or D(1) = 0
        return
    if crit.truncated_value is None:
        return
    with mpmath.workdps(50):
        m_a, v = mpmath.mpf(a), mpmath.mpf(nu)
        j0, j1 = mpmath.besselj(v, 1), mpmath.besselj(v + 1, 1)
        true = (j0 + (m_a - 2 * v) * j1) / (2 * (m_a * j0 - j1)) - crit.truncated_value
        m = mpmath.mpf(table.zeros[max(n, 1) - 1]) ** 2
        assert true <= crit.tail_bound <= true * m / (m - 1)


class TestEvaluateCriterion:
    def test_fields(self):
        fam = DiniFamily(1.0, Order(0.5))
        crit = evaluate_criterion(fam, n_terms=8)
        assert crit.terms_used == 8
        assert crit.threshold_margin == pytest.approx(1.0 - crit.closed_value,
                                                      rel=1e-15)
        assert crit.truncated_value <= crit.closed_value
        assert crit.closed_value <= crit.truncated_value + crit.tail_bound

    def test_truncated_route_none_when_inapplicable(self):
        crit = evaluate_criterion(DiniFamily(1.0, Order(-0.5)), n_terms=6)
        assert crit.truncated_value is None and crit.tail_bound is None

    @pytest.mark.parametrize("n", [-1, 19])
    def test_term_count_validated_with_a_table(self, n):
        fam = DiniFamily(1.0, Order(0.5))
        with pytest.raises(DomainError, match=r"n_terms must lie in \[0, 18\]"):
            evaluate_criterion(fam, n_terms=n, table=find_zeros(fam, 18))


class TestCriticalEquation:
    def test_positive_above_threshold(self):
        # 3 J_1(1) - 2 J_2(1) > 0, consistent with nu = 1 exceeding nu_2
        val = critical_equation(2.0, 1.0)
        ref = 3.0 * bessel_j(Order(1.0), 1.0) - 2.0 * bessel_j(Order(2.0), 1.0)
        assert val == pytest.approx(ref, rel=1e-13)
        assert val > 0.0

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.8])
    def test_special_case_forms(self, nu):
        # a=2 reduces to 3 J_nu(1) + 2(nu-2) J_{nu+1}(1),
        # a=1 to J_nu(1) - (3-2nu) J_{nu+1}(1)
        j0 = bessel_j(Order(nu), 1.0)
        j1 = bessel_j(Order(nu + 1.0), 1.0)
        assert critical_equation(2.0, nu) == pytest.approx(
            3.0 * j0 + 2.0 * (nu - 2.0) * j1, rel=1e-13)
        assert critical_equation(1.0, nu) == pytest.approx(
            j0 - (3.0 - 2.0 * nu) * j1, rel=1e-13)


class TestCriticalOrder:
    def test_a2_root(self):
        res = critical_order(2.0)
        assert res.nu_a == pytest.approx(-0.1438607404254301, abs=1e-9)
        assert res.hi - res.lo <= 1e-10
        assert critical_equation(2.0, res.lo) * critical_equation(2.0, res.hi) < 0
        assert abs(res.sum_at_root - 1.0) <= 1e-8
        # the root is g's only sign change on (-1, 2] (proof in the docstring)
        signs = [critical_equation(2.0, -0.995 + 0.01 * k) > 0 for k in range(300)]
        assert sum(s != t for s, t in zip(signs, signs[1:])) == 1

    def test_reads_one_j_pair(self, monkeypatch):
        # the bracket is certified by the secant's own phi; the residual and
        # S(a, nu_a) share one pair at the root
        calls = []
        pair = criterion._j_pair
        monkeypatch.setattr(criterion, "_j_pair",
                            lambda nu, x: calls.append((nu, x)) or pair(nu, x))
        res = critical_order(2.0)
        assert calls == [(res.nu_a, 1.0)]

    def test_a1_root(self):
        res = critical_order(1.0)
        assert res.nu_a == pytest.approx(0.3060766614512549, abs=1e-9)
        assert abs(res.sum_at_root - 1.0) <= 1e-8

    def test_residual_scale(self):
        res = critical_order(2.0)
        j0 = bessel_j(Order(res.nu_a), 1.0)
        j1 = bessel_j(Order(res.nu_a + 1.0), 1.0)
        scale = abs(3.0 * j0) + abs((2.0 - 2.0 * res.nu_a + 2.0) * j1)
        assert res.residual <= 1e-12 * scale

    def test_degenerate_coupling_is_exact(self):
        # at a = 1/2 the J_nu term drops out and the root is nu = 5/4
        res = critical_order(0.5)
        assert res.nu_a == pytest.approx(1.25, abs=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            critical_order(0.0)
        with pytest.raises(DomainError):
            critical_order(1.0, tol=0.0)

    def test_tol_below_one_ulp_fails_loudly(self):
        # 0.49 tol is below half an ulp of nu_a: the bracket rounds to one
        # point, a width failure rather than a sign test on a point
        for a, tol in ((1.0, 1e-17), (2.0, 1e-17), (2.0, 1e-300)):
            with pytest.raises(NumericFailure, match=f"no bracket of width <= {tol:g} holds"):
                critical_order(a, tol=tol)

    def test_overflowing_equation_fails_loudly(self):
        # phi changes sign across the bracket, but (2a - 1) J_nu(1) overflows
        with pytest.raises(NumericFailure, match="residual inf"):
            critical_order(1e308)

    def test_no_sign_change(self):
        with pytest.raises(NumericFailure, match="no sign change"):
            critical_order(0.1)

    def test_sum_cross_check_fails_loudly(self, monkeypatch):
        # no a gives S(a, nu_a) off 1 by more than 1e-8 at a certified root, so
        # the sum is forced; bench/run.py classifies failures by this message
        monkeypatch.setattr(criterion, "_sum_from_pair", lambda *args: 1.5)
        with pytest.raises(NumericFailure, match=r"^sum criterion at nu_a deviates from 1 "
                                                 r"by 5\.000e-01 \(> 1e-08\) for a=1$"):
            critical_order(1.0)


class TestCriterionShape:
    @pytest.mark.parametrize("a,start", [(1.0, -0.2), (2.0, -0.45)])
    def test_margin_strictly_increasing(self, a, start):
        # on the subinterval where omega_1 > 1 the margin 1 - S increases
        nus = [start + 0.2 * k for k in range(17)]
        sums = [sum_closed(DiniFamily(a, Order(nu))) for nu in nus]
        for s1, s2 in zip(sums, sums[1:]):
            assert s1 > s2

    def test_nu_a_continuous_in_a(self):
        grid = [0.5 + 0.25 * k for k in range(11)]
        roots = [critical_order(a).nu_a for a in grid]
        for r1, r2 in zip(roots, roots[1:]):
            # generous secant bound: |d nu_a / d a| < 3 on [0.5, 4]
            assert abs(r2 - r1) <= 0.75


@settings(max_examples=30, derandomize=True, deadline=None)
@given(a=st.floats(math.log(0.361), math.log(50.0)).map(math.exp))
@example(a=0.5)
@example(a=1e6)
def test_critical_order_against_mpmath(a):
    """nu_a within 4 eps (nu_a + 1) of the 40-digit root of the critical
    equation, with its certified bracket.  a >= 0.361 keeps nu_a below the
    window's end 2 (nu_a = 2 at a = 0.36042).  At a = 1/2 the root is 5/4
    exactly; as a grows it tends to -0.56230, the root of
    2 J_nu(1) = J_{nu+1}(1)."""
    res = critical_order(a)
    with mpmath.workdps(40):
        m = mpmath.mpf(a)
        g = lambda v: ((2 * m - 1) * mpmath.besselj(v, 1)
                       - (m - 2 * v + 2) * mpmath.besselj(v + 1, 1))
        root = mpmath.findroot(g, mpmath.mpf(res.nu_a))
        assert abs(res.nu_a - root) <= 4 * sys.float_info.epsilon * (root + 1)
        assert mpmath.sign(g(res.lo)) * mpmath.sign(g(res.hi)) == -1
    assert res.hi - res.lo <= 1e-10
    if a == 0.5:
        assert res.nu_a == 1.25
    if a == 1e6:
        assert res.nu_a == pytest.approx(-0.56230, abs=1e-5)
