"""Zero localization tests against half-integer closed forms and mpmath."""

import functools
import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from dinicert import zeros
from dinicert.bessel import X_MAX


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


def mp_dini(a, nu):
    """D_{a,nu} in mpmath at the exact binary values of a and nu."""
    a, nu = mpmath.mpf(a), mpmath.mpf(nu)
    return lambda x: a * mpmath.besselj(nu, x) - x * mpmath.besselj(nu + 1, x)


@functools.lru_cache(maxsize=None)
def mp_zeros(a, nu, count):
    """First ``count`` zeros of a J_nu - x J_{nu+1} from mpmath alone: sign
    changes on a 0.1 grid from x = 0.01, each solved to 40 digits."""
    with mpmath.workdps(40):
        f = mp_dini(a, nu)
        roots, x = [], mpmath.mpf("0.01")
        fx = f(x)
        while len(roots) < count:
            y = x + mpmath.mpf("0.1")
            fy = f(y)
            if fx * fy < 0:
                roots.append(mpmath.findroot(f, (x, y), solver="anderson"))
            x, fx = y, fy
    return tuple(roots)


def mp_root_near(a, nu, z):
    """Root of D_{a,nu} to 40 digits by a secant seeded at z."""
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        return mpmath.findroot(mp_dini(a, nu), (z, z * (1 + mpmath.mpf(2) ** -30)))


def ulps_off(z, root):
    return float(abs(mpmath.mpf(z) - root)) / math.ulp(z)


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
            ref = (2 * e.n - 1) * math.pi / 2.0
            assert abs(e.zero - ref) <= 4 * math.ulp(ref)

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

    @pytest.mark.parametrize("a,nu,count,tol", [
        (1.0, 0.3, 6, 1e-12), (1.0, 0.3, 6, 1e-8),
        (0.7, -0.6, 6, 1e-12), (0.7, -0.6, 6, 1e-8),
        (2.5, 4.2, 6, 1e-12), (2.5, 4.2, 6, 1e-8),
        # a < nu: the first gap, 8.19, is wider than 2 pi
        (3.0, 10.0, 10, 1e-12),
    ])
    def test_within_4_ulp_of_mpmath(self, a, nu, count, tol):
        table = find_zeros(DiniFamily(a, Order(nu)), count, tol=tol)
        for e, root in zip(table.entries, mp_zeros(a, nu, count), strict=True):
            assert ulps_off(e.zero, root) <= 4.0, (e.n, e.zero)

    @pytest.mark.parametrize("tol", [1e-14, 1e-12, 1e-8, 1e-4, 0.05, 0.1])
    def test_bracket_width_within_tol(self, tol):
        fam = DiniFamily(0.7, Order(-0.6))
        try:
            table = find_zeros(fam, 18, tol=tol)
        except NumericFailure as exc:
            # from x = 4 up, x -/+ 0.49e-14 rounds to a bracket 1.07e-14 wide
            assert tol < 1e-12 and "could not be refined" in str(exc)
            return
        for e in table.entries:
            assert e.lo < e.zero < e.hi and e.hi - e.lo <= tol
            assert dini_eval(fam, e.lo) * dini_eval(fam, e.hi) < 0.0

    def test_bracket_reaching_below_zero_fails_loudly(self):
        # the first zero, 0.00446, lies nearer 0 than 0.49 tol
        with pytest.raises(NumericFailure, match="could not be refined"):
            find_zeros(DiniFamily(0.01, Order(-0.999)), 1, tol=0.05)

    def test_spacing_invariants(self):
        zs = find_zeros(DiniFamily(2.0, Order(1.0)), 6).zeros
        for a, b in zip(zs, zs[1:]):
            assert 1.0 < b - a < 2.0 * math.pi
            assert b - a > 0.25

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

    # omega_1 sits dozens of decades below the end of its scan step (a = 1e-100,
    # omega_1^2 ~ 2a (nu + 1)), where Newton on D far above the root takes
    # steps of about x / (nu + 2); rejected steps bisect geometrically, so the
    # zero is reached, and its bracket of width tol then reaches below 0
    @pytest.mark.parametrize("nu,x", [(-0.5, "1e-50"),
                                      (-0.9999999999999999, "1.4901161193847656e-58")])
    def test_zero_decades_below_the_step_end(self, nu, x):
        with pytest.raises(NumericFailure, match=f"zero 1 near x={x} could not be refined"):
            find_zeros(DiniFamily(1e-100, Order(nu)), 1)

    def test_first_zero_below_1e3(self):
        # omega_1 lies below 1e-3; the first 2.5 step holds omega_1, j_{nu,1}
        # and omega_2, so the scan must halve it
        table = find_zeros(DiniFamily(0.001, Order(-0.9999)), 3)
        refs = (4.4710184517792e-4, 2.4054, 5.5204)
        for z, ref in zip(table.zeros, refs, strict=True):
            assert z == pytest.approx(ref, rel=1e-4)
            assert ulps_off(z, mp_root_near(0.001, -0.9999, ref)) <= 4.0

    def test_last_zero_just_below_cap(self):
        # the 11th zero of D_{1,20} lies at 59.9165, inside the last step
        z = find_zeros(DiniFamily(1.0, Order(20.0)), 11).entries[10].zero
        assert ulps_off(z, mp_root_near(1.0, 20.0, 59.9165)) <= 4.0

    def test_certified_where_the_pair_underflows(self):
        # J_400(40) = 1.5e-349 underflows in true units, so the sign change
        # and the checks run on the sums over lead and the residual reads 0.0
        e = find_zeros(DiniFamily(2.0, Order(400.0)), 1).entries[0]
        ref = mpmath.mpf("40.00012499668381791127234465277363410016")
        assert e.lo < ref < e.hi and e.residual == 0.0
        assert ulps_off(e.zero, ref) <= 0.5

    # At tol = 1e-14 the end values, once formed in doubles, showed no sign
    # change across these brackets; their integer numerators do.
    @pytest.mark.parametrize("a,nu,ref", [
        (2.962578042575134, 113.91774007601425, 25.926942444606073),
        (3.6427803850989817, 97.03455925741638, 26.47840418211724)])
    def test_tight_bracket_certified(self, a, nu, ref):
        e = find_zeros(DiniFamily(a, Order(nu)), 1, tol=1e-14).entries[0]
        assert e.zero == ref
        with mpmath.workdps(40):
            d = mp_dini(a, nu)
            assert mpmath.sign(d(e.lo)) * mpmath.sign(d(e.hi)) == -1

    def test_start_past_double_range(self):
        # 4a(nu + 1) overflows, and the start at half the root of the Ismail
        # bound was inf
        with pytest.raises(NumericFailure):
            find_zeros(DiniFamily(1e308, Order(5.0)), 1)

    def test_scan_starts_at_or_below_cap(self, monkeypatch):
        # the Ismail start at nu = 1e12 is 5.8e5, where the continued fraction
        # runs 1.25 x levels; no zero lies below 60 there
        seen, ratio = [], zeros._j_ratio
        monkeypatch.setattr(zeros, "_j_ratio",
                            lambda nu, x, shift=1: seen.append(x) or ratio(nu, x, shift))
        with pytest.raises(NumericFailure, match="only 0 sign changes"):
            find_zeros(DiniFamily(1.0, Order(1e12)), 1)
        assert seen and max(seen) <= X_MAX

    def test_insufficient_zeros_below_cap(self):
        # at nu = 9 the 18th zero lies beyond the x <= 60 series range
        with pytest.raises(NumericFailure, match="sign changes"):
            find_zeros(DiniFamily(1.0, Order(9.0)), 18)


class TestIntervalNewton:
    """The sign-change proof from the finish's values at x alone."""

    @staticmethod
    def at(a, nu, x, tol):
        """_interval_newton's arguments for the bracket x -/+ 0.49 tol."""
        num, den, j0, j1, _ = zeros._d_lead(a, nu, x)
        dp = zeros._dprime_from_pair(a, nu, x, j0, j1)
        return a, nu, x, x - 0.49 * tol, x + 0.49 * tol, num / den, dp, j0, j1

    def test_bracket_straddling_a_zero_of_j(self):
        # a = 100 puts omega_1 0.024 below j_{0,1}, inside a bracket of width 0.1
        e = find_zeros(DiniFamily(100.0, Order(0.0)), 1, tol=0.1).entries[0]
        assert e.lo < 2.404825557695773 < e.hi
        assert zeros._interval_newton(*self.at(100.0, 0.0, e.zero, 0.1)) is True

    @pytest.mark.parametrize("a,nu", [(0.001, -0.9999), (0.01, -0.999)])
    def test_order_near_minus_one(self, a, nu):
        e = find_zeros(DiniFamily(a, Order(nu)), 1).entries[0]
        assert zeros._interval_newton(*self.at(a, nu, e.zero, 1e-12)) is True

    def test_refuses_bracket_off_the_zero(self):
        z = find_zeros(DiniFamily(1.0, Order(0.3)), 3).entries[2].zero
        assert zeros._interval_newton(*self.at(1.0, 0.3, z, 1e-12)) is True
        assert zeros._interval_newton(*self.at(1.0, 0.3, z + 10e-12, 1e-12)) is False

    def test_refuses_vanishing_derivative(self):
        z = find_zeros(DiniFamily(1.0, Order(0.3)), 1).entries[0].zero
        args = self.at(1.0, 0.3, z, 1e-12)
        assert zeros._interval_newton(*args[:6], 0.0, *args[7:]) is False

    # At a = 1e308 D' overflows: +inf below j_{5,1} = 8.7715 and -inf above it
    @pytest.mark.parametrize("x", [8.0, 9.3245])
    def test_refuses_non_finite_derivative(self, x):
        args = self.at(1e308, 5.0, x, 1e-12)
        assert not math.isfinite(args[6])
        assert zeros._interval_newton(*args) is False
        for dp in (math.nan, math.inf, -math.inf):
            assert zeros._interval_newton(*args[:5], 0.0, dp, *args[7:]) is False

    def test_one_pass_per_zero(self, monkeypatch):
        # the end check took two more _d_lead passes per zero, 3.2 in all
        passes, d_lead = [], zeros._d_lead
        monkeypatch.setattr(zeros, "_d_lead", lambda *args: passes.append(1) or d_lead(*args))
        rng, found, used = random.Random(5), 0, 0
        for _ in range(20):
            fam = DiniFamily(rng.uniform(0.2, 5.0), Order(rng.uniform(-0.9, 15.0)))
            passes.clear()
            found += len(find_zeros(fam, rng.randint(1, 8), rng.choice((1e-12, 1e-8))))
            used += len(passes)
        assert found >= 80 and used <= 1.5 * found


@settings(max_examples=40, derandomize=True, deadline=None)
@given(a=st.floats(math.log(0.01), math.log(30.0)).map(math.exp),
       nu=st.floats(-0.99, 30.0, exclude_min=True), count=st.integers(1, 8))
@example(a=0.001, nu=-0.9999, count=8)
@example(a=3.0, nu=10.0, count=8)
@example(a=0.0956, nu=15.466, count=1)
def test_zeros_interlace_over_domain(a, nu, count):
    """Each omega_n lies between the zeros n - 1 and n of J_nu: J_nu changes
    sign n - 1 times on (0, omega_n], so J_nu(omega_n) has sign (-1)^(n-1).
    The sign changes are counted on a grid of step 1, below the 2.99 minimum
    gap between zeros of J_nu, from J_nu > 0 near 0; a skipped zero, or an
    even number of them, breaks the count."""
    try:
        table = find_zeros(DiniFamily(a, Order(nu)), count)
    except NumericFailure as exc:
        assert "sign changes of D_" in str(exc)
        return
    d, v = mp_dini(a, nu), mpmath.mpf(nu)
    changes, prev, t = 0, 1, 1
    with mpmath.workdps(40):
        for e in table.entries:
            while t < e.zero:
                s = mpmath.sign(mpmath.besselj(v, t))
                changes, prev, t = changes + (s != prev), s, t + 1
            s = mpmath.sign(mpmath.besselj(v, e.zero))
            assert changes + (s != prev) == e.n - 1 and s == (-1) ** (e.n - 1)
            assert mpmath.sign(d(e.lo)) * mpmath.sign(d(e.hi)) == -1
            assert ulps_off(e.zero, mp_root_near(a, nu, e.zero)) <= 4.0


def test_zeros_within_1_ulp_of_mpmath(monkeypatch):
    """Seeded tables, a log-uniform in [0.01, 30], nu in (-0.99, 30], up to 8
    zeros: every zero within 1 ulp of the 40-digit root.  The sample must
    hold zeros in scan steps across which J_nu changes sign, where the sign
    that the continued fraction carries flips inside the Newton bracket, and
    in steps where it does not."""
    refine, straddles = zeros._refine, []

    def spy(family, n, lo, hi, flo, tol):
        jlo, jhi = (zeros._d_lead(family.a, family.nu, v)[2] for v in (lo, hi))
        straddles.append(math.copysign(1.0, jlo) != math.copysign(1.0, jhi))
        return refine(family, n, lo, hi, flo, tol)

    monkeypatch.setattr(zeros, "_refine", spy)
    rng = random.Random(11)
    # Newton on D in doubles alone ends 1.90 and 1.22 ulp off omega_1 of these
    tables = [(0.1144538781956924, 3.3842488119897736, 1), (1.0, 0.2, 12)]
    tables += [(math.exp(rng.uniform(math.log(0.01), math.log(30.0))),
                rng.uniform(-0.99, 30.0), rng.randint(1, 8)) for _ in range(30)]
    for a, nu, count in tables:
        try:
            table = find_zeros(DiniFamily(a, Order(nu)), count)
        except NumericFailure as exc:
            assert "sign changes of D_" in str(exc)
            continue
        for e in table.entries:
            assert ulps_off(e.zero, mp_root_near(a, nu, e.zero)) <= 1.0, (a, nu, e.n)
    assert 10 <= sum(straddles) <= len(straddles) - 10


def test_residual_against_mpmath():
    """Seeded tables, a log-uniform in [0.05, 20], nu in (-0.95, 25], up to 8
    zeros: every residual within 1e-3 relative of the 40-digit |D(zero)|, so
    nonzero wherever that is."""
    rng, checked = random.Random(23), 0
    for _ in range(30):
        a = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
        nu, count = rng.uniform(-0.95, 25.0), rng.randint(1, 8)
        try:
            table = find_zeros(DiniFamily(a, Order(nu)), count)
        except NumericFailure as exc:
            assert "sign changes of D_" in str(exc)
            continue
        with mpmath.workdps(40):
            d = mp_dini(a, nu)
            for e in table.entries:
                ref = abs(d(mpmath.mpf(e.zero)))
                assert abs(e.residual - ref) <= 1e-3 * ref, (a, nu, e.n)
                checked += 1
    assert checked >= 60


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

    @pytest.mark.parametrize("a", [1e308, 4.6e307])
    def test_past_double_range(self, a):
        # 4a(nu + 1) overflows; the bound read inf
        assert ismail_lower_bound(DiniFamily(a, Order(5.0))) == 24.0


class TestLandau:
    def test_increasing_pairs(self):
        # omega_{a,nu,n} increases with nu at fixed a > 0 (Landau)
        for a, nu1, nu2, n in ((1.0, 0.5, 1.5, 1), (2.0, 0.0, 1.0, 2)):
            z1 = find_zeros(DiniFamily(a, Order(nu1)), n).zeros[-1]
            z2 = find_zeros(DiniFamily(a, Order(nu2)), n).zeros[-1]
            assert z1 < z2
