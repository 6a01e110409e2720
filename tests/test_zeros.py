"""Zero localization tests against half-integer closed forms and mpmath."""

import contextlib
import functools
import io
import math
import random
import re
import sys

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, mpf_mul, round_nearest, to_float

from dinicert import (
    DiniFamily,
    DomainError,
    NumericFailure,
    Order,
    bessel_j,
    certify,
    cli,
    critical_order,
    dini_eval,
    evaluate_criterion,
    find_zeros,
    ismail_lower_bound,
    oracle_closed_form,
)
from dinicert import zeros
from dinicert.bessel import X_MAX, _j_pair, _j_ratio


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


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def eager_residual(a, nu, x):
    """|num lead / den| from a fresh fixed-point pass at x, rounded once."""
    num, den, _, _, wp = zeros._d_lead(a, nu, x)
    return abs(to_float(mpf_mul(from_man_exp(num, 1 - den.bit_length()),
                                zeros._lead(nu, x, wp), 53, round_nearest)))


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
        # (a - nu) J_nu + x J'_nu, assembled from mpmath's J and J'
        ref = float((a - nu) * mpmath.besselj(nu, x) + x * mpmath.besselj(nu, x, 1))
        assert dini_eval(DiniFamily(a, Order(nu)), x) == pytest.approx(ref, rel=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            dini_eval(DiniFamily(1.0, Order(0.5)), 0.0)


def dini_prime(fam, x):
    """D'_{a,nu}(x) as Halley and the finish form it from the J pair."""
    return zeros._dprime_from_pair(fam.a, fam.nu, x, *_j_pair(fam.nu, x))


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


def vanishing_finish(monkeypatch):
    """Make D' read 0 from the finish's first ``_d_lead`` pass on, a double
    zero that no family has.  Halley reads D' through ``_dprime_from_pair``
    too, before that pass, so it is left alone."""
    finishing, d_lead, dprime = [], zeros._d_lead, zeros._dprime_from_pair
    monkeypatch.setattr(zeros, "_d_lead", lambda *args: finishing.append(1) or d_lead(*args))
    monkeypatch.setattr(zeros, "_dprime_from_pair",
                        lambda *args: 0.0 if finishing else dprime(*args))


class TestFindZeros:
    def test_half_integer_exactness(self):
        table = find_zeros(DiniFamily(1.0, Order(0.5)), 5)
        for e in table.entries:
            ref = (2 * e.n - 1) * math.pi / 2.0
            assert abs(e.zero - ref) <= 4 * math.ulp(ref)

    def test_vanishing_derivative_fails_loudly(self, monkeypatch):
        # bench/run.py classifies failures by this message
        vanishing_finish(monkeypatch)
        with pytest.raises(NumericFailure, match=r"^derivative vanishes at refined zero "
                                                 r"x=1\.5707963267948966; zero may not be simple$"):
            find_zeros(DiniFamily(1.0, Order(0.5)), 1)

    def test_vanishing_derivative_exits_3(self, monkeypatch):
        vanishing_finish(monkeypatch)
        assert cli_run(["zeros", "--a", "1", "--nu", "0.5", "--n", "1"]) == (
            3, "", "numeric failure: derivative vanishes at refined zero x=1.5707963267948966; "
                   "zero may not be simple\n")

    def test_overflowing_finish_fails_loudly(self, monkeypatch):
        # No family is known to reach it since the scan starts at the Ismail
        # bound: num is scaled past the double range from the first pass on.
        d_lead = zeros._d_lead
        monkeypatch.setattr(zeros, "_d_lead", lambda *args: (
            lambda num, *rest: (num << 2000, *rest))(*d_lead(*args)))
        with pytest.raises(NumericFailure, match=r"^D / lead overflows the double range at "
                                                 r"x=\S+; zero 1 could not be refined$"):
            find_zeros(DiniFamily(1.0, Order(0.5)), 1)

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

    # 0.49 tol is below half the double spacing at pi / 2, so x -/+ 0.49 tol
    # rounds to x: the bracket collapses, which is a width failure
    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_collapsed_bracket_is_a_width_failure(self, tol):
        message = (f"zero 1 near x=1.5707963267948966 could not be refined to a bracket "
                   f"of width <= {tol:g} inside x > 0")
        with pytest.raises(NumericFailure) as exc:
            find_zeros(DiniFamily(1.0, Order(0.5)), 1, tol=tol)
        assert str(exc.value) == message
        code, out, err = cli_run(["zeros", "--a", "1", "--nu", "0.5", "--n", "1",
                                  "--tol", repr(tol)])
        assert (code, out, err) == (3, "", f"numeric failure: {message}\n")

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

    # omega_1 sat dozens of decades below the end of a scan step from half
    # the Ismail bound (a = 1e-100, omega_1^2 ~ 2a (nu + 1)), where Newton on D
    # far above the root takes steps of about x / (nu + 2); rejected steps
    # bisect geometrically, so the zero is reached, and its bracket of width
    # tol then reaches below 0
    @pytest.mark.parametrize("nu,x", [(-0.5, "1e-50"),
                                      (-0.9999999999999999, "1.4901161193847656e-58")])
    def test_zero_decades_below_the_step_end(self, nu, x):
        with pytest.raises(NumericFailure, match=f"zero 1 near x={x} could not be refined"):
            find_zeros(DiniFamily(1e-100, Order(nu)), 1)

    def test_first_zero_below_1e3(self):
        # omega_1 lies below 1e-3; a first step of 2.5 from half the Ismail
        # bound held omega_1, j_{nu,1} and omega_2, and the scan had to halve it
        table = find_zeros(DiniFamily(0.001, Order(-0.9999)), 3)
        refs = (4.4710184517792e-4, 2.4054, 5.5204)
        for z, ref in zip(table.zeros, refs, strict=True):
            assert z == pytest.approx(ref, rel=1e-4)
            assert ulps_off(z, mp_root_near(0.001, -0.9999, ref)) <= 4.0

    def test_step_with_two_zeros_is_halved(self, monkeypatch):
        # Between the scan's bounds no family with a normal a is known to give
        # a step with two zeros; from half the Ismail bound, with no end bound,
        # the first step of this one holds omega_1, j_{nu,1} and omega_2, and
        # halving it gives the same table.
        family = DiniFamily(0.001, Order(-0.9999))
        reference, ratio, ends = find_zeros(family, 3), zeros._j_ratio, []
        monkeypatch.setattr(zeros, "_scan_bounds", lambda a, nu: (
            0.5 * math.sqrt(ismail_lower_bound(family)), X_MAX, 0.0))
        monkeypatch.setattr(zeros, "_j_ratio",
                            lambda nu, x, shift=1: ends.append(x) or ratio(nu, x, shift))
        assert find_zeros(family, 3) == reference
        assert ends[2] == 0.5 * (ends[0] + ends[1])  # the first step, halved

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

    def test_zero_far_below_the_step_middle(self):
        # Newton from the middle of the step (0.19, 2.69) did not converge near
        # x = 0.505; the scan's bounds put omega_1 in a step 8e-5 wide, where
        # Halley from the Hermite start reaches it
        e = find_zeros(DiniFamily(0.0008007069164642664, Order(92.99840089120748)), 1).entries[0]
        assert e.zero == 0.38798157827105395
        with mpmath.workdps(50):
            z = mpmath.mpf(e.zero)
            ref = mpmath.findroot(mp_dini(0.0008007069164642664, 92.99840089120748),
                                  (z, z * (1 + mpmath.mpf(2) ** -30)))
        assert ulps_off(e.zero, ref) <= 0.5

    def test_start_past_double_range(self):
        # 4a(nu + 1) overflows, and the start at half the root of the Ismail
        # bound was inf
        with pytest.raises(NumericFailure):
            find_zeros(DiniFamily(1e308, Order(5.0)), 1)

    def test_scan_starts_at_or_below_cap(self, monkeypatch):
        # the Ismail start at nu = 1e12 is 1.2e6, where the continued fraction
        # would run about x levels; no zero lies below 60 there
        seen, ratio = [], zeros._j_ratio
        monkeypatch.setattr(zeros, "_j_ratio",
                            lambda nu, x, shift=1: seen.append(x) or ratio(nu, x, shift))
        with pytest.raises(NumericFailure, match="only 0 sign changes"):
            find_zeros(DiniFamily(1.0, Order(1e12)), 1)
        assert seen and max(seen) <= X_MAX

    def test_scan_stops_at_the_bound_on_omega_1(self, monkeypatch):
        # 2 nu overflows at nu = 1e308 and every ratio reads r = 0, so D keeps
        # its sign; omega_1 <= sqrt(2a (nu + 1)) = 2.11, and the scan stops
        # there instead of going on to x = 60
        seen, ratio = [], zeros._j_ratio
        monkeypatch.setattr(zeros, "_j_ratio",
                            lambda nu, x, shift=1: seen.append(x) or ratio(nu, x, shift))
        fam = DiniFamily(2.2250738585072014e-308, Order(1e308))
        end = zeros._scan_bounds(fam.a, fam.nu)[1]
        message = (f"no sign changes of D_(a=2.22507e-308,nu=1e+308) found below x={end!r}, "
                   "the proved bound on omega_1: the Bessel continued fraction failed")
        with pytest.raises(NumericFailure) as exc:
            find_zeros(fam, 3)
        assert str(exc.value) == message
        assert 2.1 < end < 2.12 and len(seen) == 2 and max(seen) == end

    def test_insufficient_zeros_below_cap(self):
        # at nu = 9 the 18th zero lies beyond the x <= 60 series range
        with pytest.raises(NumericFailure, match="sign changes"):
            find_zeros(DiniFamily(1.0, Order(9.0)), 18)

    @staticmethod
    def refine_calls(monkeypatch):
        calls, refine = [], zeros._refine
        monkeypatch.setattr(zeros, "_refine",
                            lambda *args: calls.append(args) or refine(*args))
        return calls

    def test_count_proved_before_any_refinement(self, monkeypatch):
        # 4 zeros lie below 60; the scan proves it without refining them
        calls = self.refine_calls(monkeypatch)
        with pytest.raises(NumericFailure, match="only 4 sign changes"):
            find_zeros(DiniFamily(3.0, Order(40.0)), 12)
        assert calls == []

    def test_truncated_route_refines_nothing_it_drops(self, monkeypatch):
        # the criterion's 12-zero table is short at nu = 20, which its
        # truncated route catches; the 11 zeros below 60 are never refined
        calls = self.refine_calls(monkeypatch)
        assert evaluate_criterion(DiniFamily(1.0, Order(20.0))).truncated_value is None
        assert calls == []

    def test_count_failure_precedes_refinement_failure(self):
        # zero 1 cannot be refined to a bracket of width 1e-14 at x = 7.68,
        # but the table is short of 9 zeros, and that is what it reports
        message = "only 7 sign changes of D_(a=1,nu=29) found below x=60, needed 9"
        with pytest.raises(NumericFailure) as exc:
            find_zeros(DiniFamily(1.0, Order(29.0)), 9, 1e-14)
        assert str(exc.value) == message


def mp_zero(v, k):
    """The double nearest j_{v,k}, v > -1, from 40-digit mpmath."""
    with mpmath.workdps(40):
        if v >= 0:
            return float(mpmath.besseljzero(v, k))
        return float(mpmath.findroot(lambda t: mpmath.besselj(v, t),
                                     mpmath.besseljzero(v + 1, k) - 1.5))


def mp_counts(nu, xs, alphas):
    """For each x of xs, which lie within a few ulp of each other: the sign
    changes on (0, x] of J_nu and of D_{a,nu} for each a of alphas, in
    40-digit mpmath on a grid of step 0.5 that ends at x.  Both are positive
    near 0, and at these a no two zeros of either lie within 0.5 (those of
    J_nu are 2.99 apart)."""
    def changes(values):
        signs = [1] + [mpmath.sign(f) for f in values]
        return sum(p != q for p, q in zip(signs, signs[1:]))

    with mpmath.workdps(40):
        v, counts = mpmath.mpf(nu), []
        grid = [(t, mpmath.besselj(v, t), mpmath.besselj(v + 1, t))
                for t in (mpmath.mpf(i) / 2 for i in range(1, math.ceil(2 * min(xs))))]
        for x in xs:
            t = mpmath.mpf(x)
            points = grid + [(t, mpmath.besselj(v, t), mpmath.besselj(v + 1, t))]
            counts.append((changes([j0 for _, j0, _ in points]),
                           [changes([a * j0 - t * j1 for t, j0, j1 in points]) for a in alphas]))
    return counts


class TestCount:
    """The continued fraction's count of the zeros of J_nu below x, and the
    Dini count n + [x r > a] that ``find_zeros`` takes from it at x = 60 for a
    table that may not fit below x = 60."""

    ALPHAS = (0.01, 1.0, 100.0)

    def check(self, nu, xs, exact):
        for x, (zeros_j, zeros_d) in zip(xs, mp_counts(nu, xs, self.ALPHAS)):
            n, r = _j_ratio(nu, x, 0, count=True)
            if x in exact:
                assert n == zeros_j
            assert [n + (x * r > a) for a in self.ALPHAS] == zeros_d

    @pytest.mark.parametrize("nu,x", [(0.0, X_MAX), (2.5, 1.0), (39.0, X_MAX), (59.5, X_MAX)])
    def test_count_matches_mpmath(self, nu, x):
        self.check(nu, (x,), (x,))

    # One ulp either side of a zero of J_nu, where the last level's sign is
    # within rounding, and of a zero of J_{nu+3}, where an intermediate level's
    # is.  At the double nearest a zero of J_nu, n may err by one, and r flips
    # with it, so only the Dini count is exact there.
    @pytest.mark.parametrize("nu,shift,k", [(0.0, 0, 12), (-0.5, 0, 19), (-0.9, 0, 3),
                                            (3.7, 0, 5), (0.3, 3, 2), (10.0, 3, 4),
                                            (-0.6, 3, 5)])
    def test_count_next_to_zeros(self, nu, shift, k):
        z = mp_zero(mpmath.mpf(nu) + shift, k)
        xs = (math.nextafter(z, 0.0), z, math.nextafter(z, math.inf))
        self.check(nu, xs, xs if shift else (xs[0], xs[2]))

    def test_table_that_cannot_fill_takes_one_fraction(self, monkeypatch):
        # 4 zeros lie below 60: one fraction at x = 60 proves it, with no scan
        # and no fixed-point pass
        ratios, ratio = [], zeros._j_ratio
        monkeypatch.setattr(zeros, "_j_ratio",
                            lambda *args, **kw: ratios.append((args, kw)) or ratio(*args, **kw))
        monkeypatch.setattr(zeros, "_j_sums", lambda *args: pytest.fail("a fixed-point pass"))
        with pytest.raises(NumericFailure, match=r"^only 4 sign changes .* needed 12$"):
            find_zeros(DiniFamily(3.0, Order(40.0)), 12)
        assert ratios == [((40.0, X_MAX, 0), {"count": True})]


def table_outcome(a, nu, count):
    try:
        return repr(find_zeros(DiniFamily(a, Order(nu)), count))
    except NumericFailure as exc:
        return str(exc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a=st.floats(math.log(1e-3), math.log(1e6)).map(math.exp),
       nu=st.floats(-1.0, 60.0, exclude_min=True, exclude_max=True),
       count=st.integers(1, 18))
@example(a=3.0, nu=40.0, count=12)
@example(a=1.0, nu=20.0, count=11)  # the 11th zero lies at 59.9165
@example(a=1.0, nu=20.0, count=12)
@example(a=1.18, nu=-0.03, count=16)
def test_count_changes_no_outcome(a, nu, count):
    """Each table, or its failure message, is the one the scan alone gives:
    with the count off, as the fraction's (MAX_ZEROS, 0.0) leaves it."""
    counted, ratio = table_outcome(a, nu, count), zeros._j_ratio
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zeros, "_j_ratio", lambda nu, x, shift=1, count=False: (
            (zeros.MAX_ZEROS, 0.0) if count else ratio(nu, x, shift)))
        assert table_outcome(a, nu, count) == counted


class TestIntervalNewton:
    """The sign-change proof from the finish's values at x alone."""

    @staticmethod
    def at(a, nu, x, tol):
        """_interval_newton's arguments for the bracket x -/+ 0.49 tol and the
        finish's (d, dp) at x."""
        num, den, j0, j1, _ = zeros._d_lead(a, nu, x)
        dp = zeros._dprime_from_pair(a, nu, x, j0, j1)
        return a, nu, x, x - 0.49 * tol, x + 0.49 * tol, j0, j1, (num / den, dp)

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
        assert zeros._interval_newton(*args[:7], (args[7][0], 0.0)) is False

    # At a = 1e308 D' overflows: +inf below j_{5,1} = 8.7715 and -inf above it
    @pytest.mark.parametrize("x", [8.0, 9.3245])
    def test_refuses_non_finite_derivative(self, x):
        args = self.at(1e308, 5.0, x, 1e-12)
        assert not math.isfinite(args[7][1])
        assert zeros._interval_newton(*args) is False
        for dp in (math.nan, math.inf, -math.inf):
            assert zeros._interval_newton(*args[:7], (0.0, dp)) is False

    @staticmethod
    def one_pair(a, nu, x, blo, bhi, d, dp, j0, j1):
        """The test for one pair, as it read before the bound was shared."""
        h, dx = min(x - blo, bhi - x), max(x - blo, bhi - x)
        q, g = (nu / blo) * (nu / blo), abs(a - nu)
        t = (1.0 + q + 1.0 / blo) * dx
        m = max(abs(j0), abs(nu / x * j0) + abs(j1)) * (math.exp(t) if t < 709.0 else math.inf)
        eta = dx * m * ((g + 1.0) * (1.0 + q) + q * blo + bhi + g / blo)
        err = 32.0 * sys.float_info.epsilon * ((abs(a * nu / x) + x) * abs(j0) + g * abs(j1))
        return math.isfinite(dp) and abs(d) + math.ulp(d) < (abs(dp) - err - eta) * h

    def test_one_bound_for_two_pairs(self):
        # random brackets and values near a zero, each value inf, -inf or nan
        # one time in 20, and the finish's values next to certified zeros
        rng, odd = random.Random(17), (math.inf, -math.inf, math.nan)
        cases, decided = [], 0
        for _ in range(3000):
            x = rng.uniform(0.5, 60.0)
            w = x * 10.0 ** rng.uniform(-14.0, -6.0)
            dp = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 10.0)
            v = [rng.choice(odd) if rng.random() < 0.05 else u for u in (
                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0) * dp * w,
                dp, rng.uniform(0.0, 2.0) * abs(dp))]
            cases.append((rng.uniform(0.01, 5.0), rng.uniform(-0.99, min(x, 40.0)), x, x - w,
                          x + w, v[0], v[1], (v[2], v[3]), (0.0, v[4])))
        for fam, count in ((DiniFamily(1.0, Order(0.3)), 8), (DiniFamily(0.7, Order(-0.6)), 8)):
            for e in find_zeros(fam, count).entries:
                args = self.at(fam.a, fam.nu, e.zero * (1.0 + 1e-13), 1e-12)
                cases.append((*args, (0.0, abs(args[7][1]) * 0.5)))
        for a, nu, x, blo, bhi, j0, j1, p1, p2 in cases:
            fused = zeros._interval_newton(a, nu, x, blo, bhi, j0, j1, p1, p2)
            apart = [zeros._interval_newton(a, nu, x, blo, bhi, j0, j1, p) for p in (p1, p2)]
            assert apart == [self.one_pair(a, nu, x, blo, bhi, *p, j0, j1) for p in (p1, p2)]
            assert fused is (apart[0] and apart[1])
            decided += fused
        assert 300 <= decided <= len(cases) - 300

    def test_one_pass_per_zero(self, monkeypatch):
        # the end check took two more _d_lead passes per zero, 3.2 in all, and a
        # second pass at each moved zero 1.26; Newton from the step's middle
        # with a confirming call took 7.45 _j_ratio calls per zero, scan included
        passes, d_lead = [], zeros._d_lead
        monkeypatch.setattr(zeros, "_d_lead", lambda *args: passes.append(1) or d_lead(*args))
        ratios, ratio = [], zeros._j_ratio
        monkeypatch.setattr(zeros, "_j_ratio", lambda *args: ratios.append(1) or ratio(*args))
        rng, found = random.Random(5), 0
        for _ in range(20):
            fam = DiniFamily(rng.uniform(0.2, 5.0), Order(rng.uniform(-0.9, 15.0)))
            found += len(find_zeros(fam, rng.randint(1, 8), rng.choice((1e-12, 1e-8))))
        assert found >= 80 and len(passes) == found and len(ratios) <= 5.0 * found


def table_bits(family, count, tol):
    """Zero, bracket and residual of each entry by float.hex, or the failure."""
    try:
        return [tuple(v.hex() for v in (e.zero, e.lo, e.hi, e.residual))
                for e in find_zeros(family, count, tol).entries]
    except NumericFailure as exc:
        return type(exc).__name__, str(exc)


class TestPhaseStart:
    """Halley's start at the Liouville-Green phase prediction."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(a=st.floats(math.log(1e-3), math.log(1e6)).map(math.exp),
           nu=st.floats(-0.999, 40.0, exclude_min=True), count=st.integers(1, 18),
           tol=st.sampled_from((1e-12, 1e-8)))
    # the ends of the domain: a subnormal a, which Halley takes by the pair
    # from the middle, and nu = 500 with a = 1e-12
    @example(a=5e-324, nu=-0.9999999999999999, count=2, tol=1e-12)
    @example(a=1e-12, nu=500.0, count=1, tol=1e-12)
    # a normal a where both predictions decline: J_nu changes sign across
    # the first step, so the Hermite start is not tried
    @example(a=42246.230058295165, nu=-0.9667588396102019, count=1, tol=1e-12)
    def test_same_bits_as_the_midpoint_start(self, a, nu, count, tol):
        # the start moves only where Halley begins: every zero, bracket,
        # residual and failure message is that of Halley from the middle of
        # the scan step, as with both predictions off
        family = DiniFamily(a, Order(nu))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeros, "_phase_start", lambda *args: None)
            mp.setattr(zeros, "_hermite_start", lambda *args: None)
            reference = table_bits(family, count, tol)
        assert table_bits(family, count, tol) == reference

    # first zeros: the phase model covers those with lo >= 1/2 and lo^2 >
    # 1.2 (nu^2 - 1/4); the Hermite start those below the turning point
    @pytest.mark.parametrize("a,nu,start", [
        (1.9145010238646418, 0.07470873876652906, "_phase_start"), (1.0, 0.3, "_phase_start"),
        (2.0, 1.0, "_phase_start"), (0.5, 0.0, "_phase_start"), (3.6, 10.9, "_hermite_start"),
        (0.35, 3.58, "_hermite_start"), (1.0, 20.0, "_hermite_start")])
    def test_first_zero_takes_one_halley_call(self, monkeypatch, a, nu, start):
        ratio, refine, refining, calls, starts = zeros._j_ratio, zeros._refine, [False], [], []
        predict = getattr(zeros, start)

        def spy_ratio(*args):
            calls.append(refining[0])
            return ratio(*args)

        def spy_refine(*args):
            refining[0] = True
            try:
                return refine(*args)
            finally:
                refining[0] = False

        monkeypatch.setattr(zeros, "_j_ratio", spy_ratio)
        monkeypatch.setattr(zeros, "_refine", spy_refine)
        monkeypatch.setattr(zeros, start, lambda *args: starts.append(predict(*args)) or starts[-1])
        find_zeros(DiniFamily(a, Order(nu)), 1)
        assert len(starts) == 1 and starts[0] is not None and sum(calls) == 1

    def test_halley_calls_near_the_critical_curve(self, monkeypatch):
        # 12-zero tables within 0.15 of the critical curve: Halley from the
        # endpoint start took about 2.7 _j_ratio calls per zero, from the
        # phase prediction with Simpson's mean of sqrt q about 1.2, and from
        # the closed-form integral 1.02; the scan's calls are not counted
        ratio, refine, refining, calls = zeros._j_ratio, zeros._refine, [False], []

        def spy_ratio(*args):
            calls.append(refining[0])
            return ratio(*args)

        def spy_refine(*args):
            refining[0] = True
            try:
                return refine(*args)
            finally:
                refining[0] = False

        monkeypatch.setattr(zeros, "_j_ratio", spy_ratio)
        monkeypatch.setattr(zeros, "_refine", spy_refine)
        found = 0
        for a in (0.8, 1.1, 1.4, 1.7, 2.0, 2.3, 2.6, 3.0):
            for off in (-0.15, 0.0, 0.15):
                found += len(find_zeros(DiniFamily(a, Order(critical_order(a).nu_a + off)), 12))
        assert found == 288 and sum(calls) <= 1.1 * found


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(a=st.floats(math.log(1e-3), 0.0).map(math.exp),
       nu=st.floats(math.log(100.0), math.log(2000.0)).map(math.exp))
@example(a=0.001, nu=999.2)
@example(a=0.001, nu=1500.0)
def test_first_zero_for_small_a_at_large_order(a, nu):
    """One-zero tables with a log-uniform in [1e-3, 1] and nu log-uniform in
    [100, 2000], where omega_1 lies far below the turning point x = nu (at
    1.4143546234939817 for (0.001, 999.2)): each zero within half an ulp of
    the 40-digit root, or, near a = 1 and nu = 2000, omega_1 ~ sqrt(2a (nu +
    1)) above the series cap x = 60 and the count failure."""
    try:
        (z,) = find_zeros(DiniFamily(a, Order(nu)), 1).zeros
    except NumericFailure as exc:
        assert "only 0 sign changes" in str(exc)
        assert mp_root_near(a, nu, math.sqrt(2.0 * a * (nu + 1.0))) > X_MAX
        return
    assert ulps_off(z, mp_root_near(a, nu, z)) <= 0.5


def test_zeros_within_half_ulp_of_mpmath(monkeypatch):
    """Seeded tables, a log-uniform in [0.01, 30], nu in (-0.99, 30], up to 8
    zeros: every zero within half an ulp of the 40-digit root.  The sample must
    hold zeros in scan steps across which J_nu changes sign, where the sign
    that the continued fraction carries flips inside the Newton bracket, and
    in steps where it does not."""
    refine, straddles = zeros._refine, []

    def spy(family, n, lo, hi, *args):
        jlo, jhi = (zeros._d_lead(family.a, family.nu, v)[2] for v in (lo, hi))
        straddles.append(math.copysign(1.0, jlo) != math.copysign(1.0, jhi))
        return refine(family, n, lo, hi, *args)

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
            assert ulps_off(e.zero, mp_root_near(a, nu, e.zero)) <= 0.5, (a, nu, e.n)
    assert 10 <= sum(straddles) <= len(straddles) - 10


def test_one_pass_certificate_is_sound():
    """A zero the finish's Newton step reached is certified from the pass before
    the step where that pass bounds D and D' at it.  Seeded tables, a
    log-uniform in [0.01, 30], nu in (-0.99, 30], up to 8 zeros, tol 1e-8,
    1e-12 or 1e-14: a fresh pass at each zero clears the derivative and
    residual gates, ``residual`` has its bits, and 40-digit D changes sign
    across [lo, hi].  At least 15% of the zeros take that route."""
    rng, checked, one_pass = random.Random(29), 0, 0
    for _ in range(40):
        a = math.exp(rng.uniform(math.log(0.01), math.log(30.0)))
        nu, count = rng.uniform(-0.99, 30.0), rng.randint(1, 8)
        tol = rng.choice((1e-8, 1e-12, 1e-14))
        try:
            table = find_zeros(DiniFamily(a, Order(nu)), count, tol)
        except NumericFailure as exc:  # at 1e-14, x - 0.49 tol rounds widely past x ~ 4
            assert re.search("sign changes of D_|bracket of width", str(exc))
            continue
        d = mp_dini(a, nu)
        for e in table.entries:
            num, den, j0, j1, _ = zeros._d_lead(a, nu, e.zero)
            scale = abs(a * j0) + abs(e.zero * j1)
            assert abs(zeros._dprime_from_pair(a, nu, e.zero, j0, j1)) > 1e-8 * scale
            assert abs(num / den) <= zeros.RESIDUAL_REL * scale
            assert e.residual == eager_residual(a, nu, e.zero), (a, nu, e.n)
            with mpmath.workdps(40):
                assert mpmath.sign(d(e.lo)) * mpmath.sign(d(e.hi)) == -1, (a, nu, e.n)
            one_pass += len(e._finish) == 2  # (a, nu): no pass at the zero itself
            checked += 1
    assert checked >= 60 and one_pass >= 0.15 * checked


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


class TestLazyResidual:
    """The residual, the one value per zero that needs ``_lead``, is formed on
    first read from the finish's exact values, with the same bits as the
    eager |num lead / den| at the zero."""

    def test_lead_only_where_a_residual_is_read(self, monkeypatch, capsys):
        calls, lead = [], zeros._lead
        monkeypatch.setattr(zeros, "_lead", lambda *args: calls.append(1) or lead(*args))
        certify(DiniFamily(1.0, Order(0.3)))  # 12 zeros, none of them read
        assert len(calls) == 0
        assert cli.main(["zeros", "--a", "1", "--nu", "0.5", "--n", "5"]) == 0
        assert len(calls) == 5
        calls.clear()
        e = find_zeros(DiniFamily(1.0, Order(0.5)), 1).entries[0]
        assert e.residual == e.residual and len(calls) == 1

    def test_bits_of_the_eager_residual(self):
        rng, checked = random.Random(19), 0
        for _ in range(20):
            a = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
            nu = rng.uniform(-0.99, 30.0)
            try:
                table = find_zeros(DiniFamily(a, Order(nu)), rng.randint(1, 8))
            except NumericFailure as exc:
                assert "sign changes of D_" in str(exc)
                continue
            for e in table.entries:
                assert e.residual == eager_residual(a, nu, e.zero), (a, nu, e.n)
                other = zeros.ZeroEntry(e.n, e.zero, e.lo, e.hi, (1, 1, 0.0, 53))
                assert other == e and hash(other) == hash(e) and repr(other) == repr(e)
                checked += 1
        assert checked >= 60

    # No double x meets |D| <= 1e-10 scale at these (ROADMAP item 4)
    @pytest.mark.parametrize("a, nu, count, message", [
        (1e-6, -0.999999, 2,
         "residual 2.676e-16 exceeds 1e-10 * scale at x=2.4048275164155424"),
        (1e9, 3.0, 2, "residual 9.325e-08 exceeds 1e-10 * scale at x=6.380161889543822"),
    ])
    def test_residual_gate_message(self, a, nu, count, message):
        with pytest.raises(NumericFailure, match=re.escape(message)):
            find_zeros(DiniFamily(a, Order(nu)), count)


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


def mp_j_zeros(nu, stop=0.0):
    """The zeros of J_nu, nu > -1, to 40 digits, up to the first past ``stop``:
    J_nu > 0 below 2 sqrt(nu + 1) <= j_{nu,1} (sigma_1 > j_{nu,1}^-2), and
    beyond it each sign change on a grid of step 1, a third of the 2.9971
    spacing of the zeros, is solved."""
    with mpmath.workdps(40):
        v = mpmath.mpf(nu)
        f = lambda t: mpmath.besselj(v, t)
        x = 2 * mpmath.sqrt(v + 1) * (1 - mpmath.mpf(10) ** -3)
        fx, zs = f(x), []
        while not zs or zs[-1] <= stop:
            fy = f(x + 1)
            if fx * fy < 0:
                zs.append(mpmath.findroot(f, (x, x + 1), solver="anderson"))
            x, fx = x + 1, fy
    return zs


class TestScanBounds:
    """The three proved bounds that place the scan, against 40-digit mpmath."""

    def test_first_zero_between_the_bounds(self):
        # omega_1^2 in (L, 2a (nu + 1)], L the Ismail bound, and the scan's
        # rounded start and end on either side of omega_1, as D > 0 on (0,
        # omega_1) and D < 0 on (omega_1, j_{nu,1}]
        rng = random.Random(32)
        for _ in range(150):
            a = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            nu = 60.0 - rng.random() * 61.0
            start, end, _ = zeros._scan_bounds(a, nu)
            j1 = mp_j_zeros(nu)[0]
            with mpmath.workdps(40):
                d, A, v = mp_dini(a, nu), mpmath.mpf(a), mpmath.mpf(nu)
                lower = mpmath.sqrt(4 * A * (v + 1) / (A + 2))
                upper = mpmath.sqrt(2 * A * (v + 1))
                assert lower < j1 and d(lower) > 0 and d(start) > 0, (a, nu)
                assert upper >= j1 or d(upper) < 0, (a, nu)
                assert end == X_MAX or end >= j1 or d(end) < 0, (a, nu)

    def test_jump_below_the_first_zero_of_j(self):
        # sigma_3^(-1/6) = (32 (nu + 1)^3 (nu + 2) (nu + 3))^(1/6) <= j_{nu,1},
        # and the scan's rounded jump below it
        rng = random.Random(61)
        nus = [-0.999999, -0.5, 0.0, 0.5, 400.0] + [
            math.exp(rng.uniform(math.log(1e-6), math.log(401.0))) - 1.0 for _ in range(30)]
        for nu in nus:
            j1 = mp_j_zeros(nu)[0]
            with mpmath.workdps(40):
                v = mpmath.mpf(nu)
                bound = (32 * (v + 1) ** 3 * (v + 2) * (v + 3)) ** (mpmath.mpf(1) / 6)
                assert zeros._scan_bounds(1.0, nu)[2] < bound < j1, nu

    def test_scan_step_below_the_spacing_of_zeros_of_j(self):
        # Sturm's bound pi / sqrt(1 + 1/pi^2) = 2.9971, and the zeros of J_nu
        # below x = 60 more than SCAN_STEP apart
        assert zeros.SCAN_STEP < math.pi / math.sqrt(1.0 + 1.0 / math.pi ** 2)
        for nu in (-0.999, -0.9, -0.7, -0.5, -0.3, -0.1, 0.0, 0.2, 0.5, 1.0, 2.0, 5.0,
                   10.0, 20.0, 35.0, 50.0):
            js = mp_j_zeros(nu, X_MAX)
            assert len(js) >= 2 and min(b - c for b, c in zip(js[1:], js)) > zeros.SCAN_STEP, nu

    @pytest.mark.parametrize("a", [5e-324, 1e-310, 2.2250738585072014e-308, 1e-15, 1.0,
                                   1e300, 1.6e308, 1.7976931348623157e308])
    def test_formed_without_overflow(self, a):
        # 2a, 4a (nu + 1) and (nu + 1)^3 overflow at the ends of the double range
        for nu in (-0.9999999999999999, -0.9, 0.0, 20.0, 1e15, 1e154, 1e308):
            start, end, jump = zeros._scan_bounds(a, nu)
            assert 0.0 < start <= end <= X_MAX and jump > 0.0, (a, nu)


class TestLandau:
    def test_increasing_pairs(self):
        # omega_{a,nu,n} increases with nu at fixed a > 0 (Landau)
        for a, nu1, nu2, n in ((1.0, 0.5, 1.5, 1), (2.0, 0.0, 1.0, 2)):
            z1 = find_zeros(DiniFamily(a, Order(nu1)), n).zeros[-1]
            z2 = find_zeros(DiniFamily(a, Order(nu2)), n).zeros[-1]
            assert z1 < z2
