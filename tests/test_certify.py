"""Certification verdicts, disk sampling, and factorization validation."""

import cmath
import contextlib
import importlib
import io
import json
import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinicert import (
    DiniFamily,
    DomainError,
    NumericFailure,
    Order,
    certify,
    critical_order,
    evaluate_criterion,
    factorization_check,
    find_zeros,
    starlike_sample,
    w_eval,
)
from dinicert import cli, criterion
from dinicert.bessel import _w_coeffs, _w_sums

certify_module = importlib.import_module("dinicert.certify")

NU_POLE_A1 = -0.3400924939228838


def fam(a, nu):
    return DiniFamily(a, Order(nu))


class TestVerdicts:
    def test_certified_r_half(self):
        rep = certify(fam(1.0, 0.5))
        assert rep.verdict == "certified"
        assert rep.sum_criterion.closed_value == pytest.approx(
            math.tan(1.0) / 2.0, abs=1e-10)
        assert rep.smallest_zero_margin == pytest.approx(math.pi / 2 - 1, abs=1e-9)
        assert rep.min_re_starlike > 0.0

    def test_refuted_below_threshold(self):
        rep = certify(fam(1.0, 0.2))
        assert rep.verdict == "refuted"
        assert rep.sum_criterion.closed_value > 1.0
        assert rep.smallest_zero_margin > 0.0

    def test_certified_q_at_zero_order(self):
        assert certify(fam(2.0, 0.0)).verdict == "certified"

    def test_refuted_a2_below(self):
        rep = certify(fam(2.0, -0.5))
        assert rep.verdict == "refuted"

    def test_inapplicable_carries_no_sum(self):
        rep = certify(fam(1.0, -0.5))
        assert rep.verdict == "inapplicable"
        assert rep.sum_criterion is None
        assert rep.min_re_starlike is None
        assert rep.smallest_zero_margin < 0.0

    def test_inapplicable_first_zero_below_1e3(self):
        # omega_1 = 4.47e-4: the scan must not start above it
        rep = certify(fam(0.001, -0.9999))
        assert rep.verdict == "inapplicable"
        assert rep.smallest_zero_margin == pytest.approx(4.4710184517792e-4 - 1.0)

    def test_boundary_at_critical_order(self):
        nu_a = critical_order(1.0).nu_a
        rep = certify(fam(1.0, nu_a))
        assert rep.verdict == "boundary"
        assert not rep.zero_at_unit_radius
        assert abs(rep.sum_criterion.closed_value - 1.0) <= 1e-9

    def test_boundary_when_zero_at_unit_radius(self):
        rep = certify(fam(1.0, NU_POLE_A1))
        assert rep.verdict == "boundary"
        assert rep.zero_at_unit_radius
        assert rep.sum_criterion is None
        assert abs(rep.smallest_zero_margin) < 1e-9

    def test_deterministic_reports(self):
        assert certify(fam(2.0, 0.7)) == certify(fam(2.0, 0.7))

    @pytest.mark.parametrize("n", [-5, -1, 19])
    @pytest.mark.parametrize("nu", [0.5, -0.5, NU_POLE_A1])
    def test_zero_count_validated_before_any_zero(self, monkeypatch, nu, n):
        # certified, inapplicable and zero-at-radius-1 families alike
        def no_zeros(*args, **kwargs):
            raise AssertionError("a zero was localised")
        for mod in ("dinicert.certify", "dinicert.criterion"):
            monkeypatch.setattr(importlib.import_module(mod), "find_zeros", no_zeros)
        with pytest.raises(DomainError, match=r"zero_count must lie in \[0, 18\]"):
            certify(fam(1.0, nu), zero_count=n)

    def test_one_closed_sum_per_verdict(self, monkeypatch):
        # Delta, the pole test and S all come from one ratio at x = 1: no
        # J pair and no sum_closed
        calls, ratio = [], certify_module._j_ratio
        def spy(nu, x=1.0, shift=1):
            calls.append(x)
            return ratio(nu, x, shift)
        def no_pair(*args):
            raise AssertionError("a J pair was formed")
        monkeypatch.setattr(certify_module, "_j_ratio", spy)
        for mod in ("dinicert.criterion", "dinicert.zeros"):
            monkeypatch.setattr(importlib.import_module(mod), "_j_pair", no_pair)
        monkeypatch.setattr(criterion, "sum_closed", no_pair)
        rep = certify(fam(1.0, 0.3))
        assert rep.verdict == "refuted"
        assert calls == [1.0]

    @pytest.mark.parametrize("a, nu, verdict", [(1.0, 0.3, "refuted"),
                                                (1.0, -0.5, "inapplicable"),
                                                (1.0, NU_POLE_A1, "boundary"),
                                                (1.0, 200.0, "certified")])
    def test_one_zero_table_per_verdict(self, monkeypatch, a, nu, verdict):
        # refuted, inapplicable and the pole route (Delta inside the pole
        # band) each localise zeros once; (1, 200) is decided from rho, though
        # J_200(1) underflows, and asks for its one zero below x = 60
        sizes, find = [], certify_module.find_zeros
        def spy(family, n, *args, **kwargs):
            sizes.append(n)
            return find(family, n, *args, **kwargs)
        monkeypatch.setattr(certify_module, "find_zeros", spy)
        monkeypatch.setattr(criterion, "find_zeros", spy)
        rep = certify(fam(a, nu), zero_count=1 if nu == 200.0 else 12)
        assert rep.verdict == verdict
        assert rep.zero_at_unit_radius == (verdict == "boundary")
        assert sizes == ([12] if verdict == "refuted" else [1])

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("a, nu, s", [
        (0.012150575550725844, 155.03710009849794, 0.3597922539645883),
        (0.008068078246003427, 154.4412774809384, 0.6646576375996474),
        (1.0, 200.0, 0.0037375850877725456)])
    def test_certified_where_the_pair_is_subnormal(self, n, a, nu, s):
        # J_nu(1) is subnormal at the first two, where a J pair's S reads 9.07
        # and 1.135 (refuted), and 0 at the third; each S is 50-digit mpmath's
        rep = certify(fam(a, nu), zero_count=n)
        assert rep.verdict == "certified"
        assert rep.sum_criterion.closed_value == s

    def test_certified_with_disk_minimum_at_zero_refused(self, monkeypatch):
        # a certified S with min Re(z w'/w) <= 0 contradicts itself: exit 3
        monkeypatch.setattr(certify_module, "starlike_sample", lambda family: -1e-5)
        with pytest.raises(NumericFailure, match=r"closed sum S = 0\.778.* = -1e-05 <= 0"):
            certify(fam(1.0, 0.5))

    def test_enclosure_attached(self):
        rep = certify(fam(2.0, 1.0))
        sc = rep.sum_criterion
        assert sc.truncated_value <= sc.closed_value
        assert sc.closed_value <= sc.truncated_value + sc.tail_bound


@settings(max_examples=30, derandomize=True, deadline=None)
@given(a=st.floats(0.05, 10.0), nu=st.floats(-0.99, 3.0, exclude_min=True))
def test_verdict_against_mpmath(a, nu):
    """inapplicable exactly when D(1) < 0 (omega_1 < 1), else certified or
    refuted by the sign of 1 - S, all from 40-digit mpmath."""
    with mpmath.workdps(40):
        m, v = mpmath.mpf(a), mpmath.mpf(nu)
        j0, j1 = mpmath.besselj(v, 1), mpmath.besselj(v + 1, 1)
        d1 = m * j0 - j1
        s = -((2 * v * v - m * v - 1) * j0 + (m - 2 * v) * (v * j0 - j1)) / (2 * d1)
    if abs(d1) <= 1e-9 * (abs(m * j0) + abs(j1)) or abs(s - 1) <= 1e-8:
        return  # too close to a boundary for the sign to be the test
    verdict = certify(fam(a, nu), zero_count=2).verdict
    if d1 < 0:
        assert verdict == "inapplicable"
    else:
        assert verdict == ("certified" if s < 1 else "refuted")


def test_ratio_sum_and_verdict_against_mpmath():
    """certify's S within 1 ulp of 50-digit mpmath, plus rho's 2 eps carried
    through dS/drho = (a (a + 2 - rho) - Delta) / (2 Delta^2), and its verdict
    the 50-digit one, or ``boundary`` inside a band; a log-uniform in
    [1e-3, 1e3], nu in (-1, 400], one zero.  Draws whose one-zero table exits 3
    (omega_1 above x = 60, or a refinement failure at small a) are skipped
    and counted."""
    eps, decided, skipped = sys.float_info.epsilon, [], []

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(log_a=st.floats(-3.0, 3.0), nu=st.floats(-1.0, 400.0, exclude_min=True))
    def check(log_a, nu):
        a = 10.0 ** log_a
        with mpmath.workdps(50):
            m, v = mpmath.mpf(a), mpmath.mpf(nu)
            rho = mpmath.besselj(v + 2, 1) / mpmath.besselj(v + 1, 1)
            b = 2 * v + 2 - rho
            delta = m * b - 1
            s = (m + 2 - rho) / (2 * delta)
            pole = abs(delta) <= 1e-10 * (m * abs(b) + 1)
            tol = math.ulp(float(s)) + float(abs((m * (m + 2 - rho) - delta) / (2 * delta ** 2))
                                             * 2 * eps * rho)
        want = ("boundary" if pole or (delta > 0 and abs(s - 1) <= 1e-9) else
                "inapplicable" if delta < 0 else "certified" if s < 1 else "refuted")
        try:
            find_zeros(fam(a, nu), 1)
        except NumericFailure:
            skipped.append((a, nu))
            return
        decided.append((a, nu))
        rep = certify(fam(a, nu), zero_count=1)
        near = abs(delta) <= 2e-10 * (m * abs(b) + 1) or abs(s - 1) <= 1e-9 + tol
        assert rep.verdict == want or (rep.verdict == "boundary" and near)
        if rep.sum_criterion is not None:
            assert abs(rep.sum_criterion.closed_value - s) <= tol

    check()
    assert len(decided) >= 200, (len(decided), len(skipped))


def a_for_first_zero(x2):
    """a = x J_{3/2}(x) / J_{1/2}(x), which puts omega_1^2 of w_{a,1/2} at x^2."""
    with mpmath.workdps(40):
        x = mpmath.sqrt(mpmath.mpf(x2))
        return float(x * mpmath.besselj(1.5, x) / mpmath.besselj(0.5, x))


class TestStarlikeSample:
    def test_functional_tends_to_one_at_origin(self):
        z = 1e-3 * np.exp(2j * np.pi * np.arange(8) / 8)
        w, wp = map(np.array, _w_sums(1.0, 0.5, z.tolist()))
        val = np.real(z * wp / w)
        assert np.all(np.abs(val - 1.0) <= 1e-3)

    def test_certified_family_positive(self):
        assert starlike_sample(fam(1.0, 0.5)) > 0.0

    def test_conjugate_symmetry_exact(self):
        from dinicert import w_prime_eval
        f = fam(1.3, 0.4)
        for theta in (0.3, 1.1, 2.7):
            zp = 0.9 * cmath.exp(1j * theta)
            zm = 0.9 * cmath.exp(-1j * theta)
            func_p = (zp * w_prime_eval(f, zp) / w_eval(f, zp)).real
            func_m = (zm * w_prime_eval(f, zm) / w_eval(f, zm)).real
            assert abs(func_p - func_m) <= 1e-14

    @pytest.mark.parametrize("x2", ["0.495", "0.9899"])
    def test_zero_inside_disk_refused(self, x2):
        # omega_1^2 mid-disk and just inside |z| = 0.99: w(0.99) < 0
        a = a_for_first_zero(x2)
        assert find_zeros(fam(a, 0.5), 1).zeros[0] ** 2 == pytest.approx(float(x2), rel=1e-13)
        with pytest.raises(NumericFailure, match=r"w\(0.99\) = -.* omega_1\^2 <= 0.99"):
            starlike_sample(fam(a, 0.5))

    def test_zero_just_outside_disk_sampled(self):
        # omega_1^2 = 0.9901: w(0.99) > 0, and the pole of z w'/w next to
        # z = 0.99 drives the minimum far below 0
        assert starlike_sample(fam(a_for_first_zero("0.9901"), 0.5)) < -1e3


def functional_mp(a, nu, z):
    """(Re(z w'/w), its rounding scale, w) at z, to 50 digits: the scale
    (sum |(k+1) c_k z^(k+1)| + |Re(z w'/w)| sum |c_k z^(k+1)|) / |w| bounds
    how far the rounding of the two sums, eps times their absolute terms,
    moves the quotient."""
    with mpmath.workdps(50):
        a, nu, z = mpmath.mpf(a), mpmath.mpf(nu), mpmath.mpmathify(z)
        c, w, zwp, aw, azwp, k = mpmath.mpf(1), 0, 0, 0, 0, 0
        while (k + 1) * abs(c) > mpmath.mpf(10) ** -60:
            t = c * z ** (k + 1)
            w, zwp, aw, azwp = w + t, zwp + (k + 1) * t, aw + abs(t), azwp + (k + 1) * abs(t)
            c *= -(2 * k + 2 + a) / ((2 * k + a) * 4 * (k + 1) * (nu + k + 1))
            k += 1
        f = (zwp / w).real
        return f, (azwp + abs(f) * aw) / abs(w), w


@settings(max_examples=25, derandomize=True, deadline=None)
@given(log_a=st.floats(-2.0, 2.0), nu=st.floats(-0.99, 60.0, exclude_min=True))
def test_starlike_sample_against_mpmath(log_a, nu):
    """Re(z w'/w) at z = 0.99 is within twice the rounding scale of 50-digit
    mpmath; a family whose w(0.99) is not positive is refused."""
    a = 10.0 ** log_a
    ref, scale, w = functional_mp(a, nu, 0.99)
    if w <= 0:
        with pytest.raises(NumericFailure, match=r"omega_1\^2 <= 0.99"):
            starlike_sample(fam(a, nu))
    else:
        assert abs(starlike_sample(fam(a, nu)) - ref) <= 2 * sys.float_info.epsilon * scale


@pytest.mark.parametrize("radii, m", [([0.99 * (k + 1) / 16 for k in range(16)], 63),
                                      ([0.99 * (16 - k) / 16 for k in range(16)], 64),
                                      ([1e-3], 8), ([1e-3], 7)])
def test_polar_sum_grid_shapes(radii, m):
    """The series summed on polar grids r e^(2 pi i j / m), j < count, of
    odd shapes (an odd angle count, the full circle; decreasing radii; one
    tiny radius): Re(z w'/w) is nowhere below its value at z = max r, up to
    rounding, as the extremal-point argument says."""
    a, nu = 1.3, 0.4
    count = m // 2 + 1 if m % 2 == 0 else m
    z = np.asarray(radii)[:, None] * np.exp(2j * np.pi * np.arange(count) / m)
    w, wp = (np.reshape(v, z.shape) for v in _w_sums(a, nu, z.ravel().tolist()))
    value = np.real(z * wp / w)
    r = max(radii)
    w, wp = _w_sums(a, nu, r)
    at_r = (r * wp / w).real
    assert value.min() >= at_r - 1e-15
    if r == 0.99:
        assert starlike_sample(fam(a, nu)) == at_r


@pytest.mark.parametrize("a, nu, verdict", [(1.0, 0.5, "certified"), (1.0, 0.2, "refuted"),
                                            (100.0, -0.75, "refuted")])
def test_point_is_the_disk_minimum(a, nu, verdict):
    """starlike_sample is at most Re(z w'/w) over a dense 50-digit sample of
    |z| <= 0.99 (12 radii x 25 angles on the upper half disk), within its
    rounding, and is the theta = 0 value of ``boundary --samples 64``."""
    assert certify(fam(a, nu)).verdict == verdict
    value = starlike_sample(fam(a, nu))
    ref, scale, _ = functional_mp(a, nu, 0.99)
    with mpmath.workdps(50):
        dense = min(functional_mp(a, nu, mpmath.mpf(0.99) * i / 12
                                  * mpmath.expjpi(mpmath.mpf(j) / 24))[0]
                    for i in range(1, 13) for j in range(25))
    assert dense == ref  # the sample's minimum is its point z = 0.99
    assert value <= dense + 2 * sys.float_info.epsilon * scale
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["boundary", "--a", repr(a), "--nu", repr(nu), "--samples", "64"]) == 0
    # boundary divides in numpy, whose complex quotient multiplies by a
    # rounded reciprocal: 1 ulp from the one division here at (100, -0.75)
    row = json.loads(out.getvalue())["results"]["samples"][0]
    assert abs(row["starlike_re_at_0p99"] - value) <= math.ulp(value)


def factorization_reference(f, n, table):
    """(max deviation, envelope, max |partial product|) on the ring as numpy
    arrays give them, the reference for ``factorization_check``."""
    zs = np.array(table.zeros[:n])
    ring = 0.9 * np.exp(1j * (np.pi * np.arange(49) / 48))
    prod = ring * np.prod(1.0 - ring[:, None] / (zs * zs), axis=-1)
    deviation = float(np.max(np.abs(np.array(w_eval(f, ring.tolist())) - prod)))
    scale = float(np.max(np.abs(prod)))
    return deviation, scale * math.expm1(0.9 * criterion._tail_mass(f, table.zeros[:n])), scale


def ring_check(f, n, table):
    """(max deviation, envelope) as factorization_check took them on its
    49-point ring 0.9 e^(i pi j / 48), j <= 48."""
    zeros = table.zeros[:n]
    squares = [z * z for z in zeros]
    ring = [0.9 * cmath.exp(1j * (math.pi * j / 48)) for j in range(49)]
    prods = [z * math.prod(1.0 - z / m for m in squares) for z in ring]
    deviation = max(abs(w - p) for w, p in zip(w_eval(f, ring), prods))
    return deviation, max(map(abs, prods)) * math.expm1(0.9 * criterion._tail_mass(f, zeros))


@pytest.fixture(scope="module")
def sweep_tables():
    """400 seeded families with 18-zero tables: a log-uniform in [1e-3, 1e3],
    nu uniform in (-0.99, 30]; draws with fewer zeros below x = 60 are skipped."""
    rng, out = random.Random(30), []
    while len(out) < 400:
        f = fam(math.exp(rng.uniform(math.log(1e-3), math.log(1e3))), rng.uniform(-0.99, 30.0))
        try:
            out.append((f, find_zeros(f, 18)))
        except NumericFailure:
            continue
    return out


@pytest.fixture(scope="module")
def table18():
    return find_zeros(fam(2.0, 1.0), 18)


class TestFactorization:
    def test_within_envelope(self, table18):
        fc = factorization_check(fam(2.0, 1.0), n_zeros=18, table=table18)
        assert fc.within_envelope
        assert fc.max_deviation > 0.0

    @pytest.mark.parametrize("n", [6, 12, 18])
    @pytest.mark.parametrize("a,nu", [(1.0, 0.5), (2.0, 0.5), (1.0, 1.5), (2.0, 1.0)])
    def test_exact_tail_envelope(self, a, nu, n):
        # selftest check 09's families; at z = -0.9 every dropped factor is
        # 1 + 0.9/omega_n^2, so the expm1 envelope is nearly attained
        fc = factorization_check(fam(a, nu), n_zeros=n)
        assert fc.within_envelope
        assert fc.max_deviation > 0.99 * fc.envelope

    def test_one_point_by_hand(self, monkeypatch, table18):
        # one w evaluation, at the scalar z = -0.9, where a ring took 49 points
        seen = []

        def spy(family, z):
            seen.append(z)
            return w_eval(family, z)
        monkeypatch.setattr(certify_module, "w_eval", spy)
        fc = factorization_check(fam(2.0, 1.0), n_zeros=6, table=table18)
        assert len(seen) == 1 and type(seen[0]) is float and seen[0] == -0.9
        p = -0.9 * math.prod(1.0 + 0.9 / (z * z) for z in table18.zeros[:6])
        assert fc.max_deviation == abs(w_eval(fam(2.0, 1.0), -0.9) - p)

    def test_matches_numpy_reference(self):
        """A seeded sweep of 300 tables against the numpy computation this
        check once was: the deviation within 4 eps of the largest partial
        product, the envelope within 4 ulp, and the same ``within_envelope``.
        Not bit for bit: numpy's complex |z| is not the C library's hypot,
        and its complex quotient multiplies by a rounded reciprocal."""
        rng = np.random.default_rng(27)
        eps, tables = sys.float_info.epsilon, 0
        while tables < 300:
            f = fam(float(np.exp(rng.uniform(math.log(0.2), math.log(5.0)))),
                    float(rng.uniform(-0.9, 15.0)))
            try:
                table = find_zeros(f, 18)
            except NumericFailure:  # fewer than 18 zeros below x = 60
                continue
            tables += 1
            for n in (0, 6, 12, 18):
                deviation, envelope, scale = factorization_reference(f, n, table)
                fc = factorization_check(f, n_zeros=n, table=table)
                assert abs(fc.max_deviation - deviation) <= 4 * eps * scale
                assert abs(fc.envelope - envelope) <= 4 * math.ulp(envelope)
                assert fc.within_envelope == (deviation <= envelope)

    @pytest.mark.parametrize("n", [0, 6, 18])
    def test_deviation_peaks_on_ring(self, table18, n):
        # maximum modulus: no interior point of |z| <= 0.9 deviates more
        f = fam(2.0, 1.0)
        fc = factorization_check(f, n_zeros=n, table=table18)
        z = np.asarray([0.9 * k / 16 for k in range(1, 16)])[:, None] * np.exp(
            2j * np.pi * np.arange(49) / 96)
        zs = np.asarray(table18.zeros[:n])
        prod = z * np.prod(1.0 - z[..., None] / (zs * zs), axis=-1)
        w = np.reshape(w_eval(f, z.ravel().tolist()), z.shape)
        assert fc.max_deviation >= np.max(np.abs(w - prod))

    def test_one_point_is_the_ring_bit_for_bit(self, sweep_tables):
        # the 49-point ring's maximum sat at its theta = pi point, z = -0.9;
        # where expm1 overflowed, OverflowError escaped, now NumericFailure
        overflowed = 0
        for f, table in sweep_tables:
            for n in range(0, 19, 3):
                try:
                    ref = ring_check(f, n, table)
                except OverflowError:
                    with pytest.raises(NumericFailure, match="T - P_N = "):
                        factorization_check(f, n_zeros=n, table=table)
                    overflowed += 1
                    continue
                fc = factorization_check(f, n_zeros=n, table=table)
                assert (fc.max_deviation, fc.envelope) == ref, (f, n)
        assert overflowed  # the overflow branch ran

    def test_deviation_against_mpmath(self, sweep_tables):
        """|w(-0.9) - p(-0.9)| against 40-digit mpmath on the table's double
        zeros, so only rounding separates them.  At z = -0.9 every term
        c_k z^(k+1) has one sign, so w's K terms sum without cancellation to
        |w|: each c_k carries at most 8k roundings (its term ratio takes 7,
        its product one), Horner 2K more, so |dw| <= 10K u |w|, plus the
        terms dropped past K.  p's N factors take 4 roundings each and z one,
        and the difference one more, relative to the deviation."""
        u, checked = sys.float_info.epsilon / 2, 0
        with mpmath.workdps(40):
            for f, table in sweep_tables[:110]:
                a, nu, z = mpmath.mpf(f.a), mpmath.mpf(f.nu), mpmath.mpf(-0.9)
                x = -z / 4
                w = z * (mpmath.hyp0f1(nu + 1, x)
                         + 2 * x / (a * (nu + 1)) * mpmath.hyp0f1(nu + 2, x))
                k_terms = len(_w_coeffs(f.a, f.nu, 0.9))
                c, dropped = mpmath.mpf(1), mpmath.mpf(0)
                for k in range(k_terms + 60):
                    if k >= k_terms:
                        dropped += c * abs(z) ** (k + 1)
                    c *= (2 * k + 2 + a) / ((2 * k + a) * 4 * (k + 1) * (nu + k + 1))
                for n in range(0, 19, 3):
                    p = z * mpmath.fprod(1 - z / mpmath.mpf(t) ** 2 for t in table.zeros[:n])
                    deviation = abs(w - p)
                    tol = (10 * k_terms * u * abs(w) + dropped + (4 * n + 1) * u * abs(p)
                           + u * deviation)
                    try:
                        fc = factorization_check(f, n_zeros=n, table=table)
                    except NumericFailure:  # the envelope overflows, as above
                        continue
                    assert abs(fc.max_deviation - deviation) <= tol, (f, n)
                    checked += 1
        assert checked >= 750

    def test_deviation_shrinks_with_more_zeros(self, table18):
        devs = [factorization_check(fam(2.0, 1.0), n_zeros=n, table=table18,
                                    ).max_deviation
                for n in (6, 10, 14, 18)]
        for d1, d2 in zip(devs, devs[1:]):
            assert d2 <= 1.1 * d1  # monotone within 10% slack

    def test_vanishes_at_origin(self):
        assert w_eval(fam(2.0, 1.0), 0.0) == 0.0

    @pytest.mark.parametrize("n", [-1, 19])
    @pytest.mark.parametrize("with_table", [False, True])
    def test_zero_count_validated_before_any_zero(self, monkeypatch, table18, n, with_table):
        # n_zeros = -1 once sliced a passed table to 17 zeros and reported -1
        def no_zeros(*args, **kwargs):
            raise AssertionError("a zero was localised")
        monkeypatch.setattr(importlib.import_module("dinicert.certify"), "find_zeros", no_zeros)
        with pytest.raises(DomainError, match=r"n_zeros must lie in \[0, 18\]"):
            factorization_check(fam(2.0, 1.0), n_zeros=n, table=table18 if with_table else None)

    @pytest.mark.parametrize("a,nu,tail", [(0.003, -0.92, "2086.4583333333344"),
                                           (0.01, -0.99, "5024.999999999995")])
    def test_overflowing_envelope_fails_loudly(self, a, nu, tail):
        # N = 0 leaves T - P_N = T = (a + 2)/(4a(nu + 1)), and expm1(0.9 T)
        # overflows above T ~ 788: a bare OverflowError escaped here
        with pytest.raises(NumericFailure, match=rf"overflows: T - P_N = {tail}$"):
            factorization_check(fam(a, nu), n_zeros=0)

    def test_no_zeros_compares_against_z(self):
        # N = 0: the product is z itself and the envelope the whole sum T
        fc = factorization_check(fam(2.0, 1.0), n_zeros=0)
        assert fc.n_zeros == 0
        assert fc.within_envelope


COUNTED = {
    "find_zeros": lambda f, n: find_zeros(f, n),
    "evaluate_criterion": lambda f, n: evaluate_criterion(f, n_terms=n),
    "certify": lambda f, n: certify(f, zero_count=n),
    "factorization_check": lambda f, n: factorization_check(f, n_zeros=n),
}


@pytest.mark.parametrize("entry", sorted(COUNTED))
@pytest.mark.parametrize("count", [2.5, math.inf, math.nan])
def test_non_integer_count_is_a_domain_error(entry, count):
    # 2.5 once truncated to 2 zeros; inf and nan escaped as OverflowError
    # and ValueError, outside the exit-2 contract
    with pytest.raises(DomainError, match=r"must be an integer, not (2\.5|inf|nan)$"):
        COUNTED[entry](fam(1.0, 0.5), count)


@pytest.mark.parametrize("entry", sorted(COUNTED))
def test_integral_float_count_is_the_int(entry):
    f = fam(1.0, 0.5)
    assert COUNTED[entry](f, 3.0) == COUNTED[entry](f, 3)
