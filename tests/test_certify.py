"""Certification verdicts, disk sampling, and factorization validation."""

import cmath
import contextlib
import importlib
import io
import json
import math
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
    factorization_check,
    find_zeros,
    starlike_sample,
    w_eval,
)
from dinicert import cli, criterion
from dinicert.bessel import _w_sum

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
        with pytest.raises(DomainError, match=r"n_terms must lie in \[0, 18\]"):
            certify(fam(1.0, nu), zero_count=n)

    def test_one_closed_sum_per_verdict(self, monkeypatch):
        # the pole probe's S is the reported one: one J pair at x = 1
        calls, pair = [], criterion._j_pair
        def spy(nu, x):
            calls.append(x)
            return pair(nu, x)
        monkeypatch.setattr(criterion, "_j_pair", spy)
        rep = certify(fam(1.0, 0.3))
        assert rep.verdict == "refuted"
        assert calls == [1.0]

    @pytest.mark.parametrize("a, nu, verdict", [(1.0, 0.3, "refuted"),
                                                (1.0, -0.5, "inapplicable"),
                                                (1.0, 200.0, "boundary")])
    def test_one_zero_table_per_verdict(self, monkeypatch, a, nu, verdict):
        # refuted, inapplicable and the pole route each localise zeros once;
        # (1, 200) takes the pole route while J_200(1) underflows, so
        # sum_closed raises PoleError, although omega_1 ~ 20
        sizes, find = [], certify_module.find_zeros
        def spy(family, n, *args, **kwargs):
            sizes.append(n)
            return find(family, n, *args, **kwargs)
        monkeypatch.setattr(certify_module, "find_zeros", spy)
        monkeypatch.setattr(criterion, "find_zeros", spy)
        rep = certify(fam(a, nu))
        assert rep.verdict == verdict
        assert rep.zero_at_unit_radius == (nu == 200.0)
        assert sizes == ([12] if verdict == "refuted" else [1])

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


def a_for_first_zero(x2):
    """a = x J_{3/2}(x) / J_{1/2}(x), which puts omega_1^2 of w_{a,1/2} at x^2."""
    with mpmath.workdps(40):
        x = mpmath.sqrt(mpmath.mpf(x2))
        return float(x * mpmath.besselj(1.5, x) / mpmath.besselj(0.5, x))


class TestStarlikeSample:
    def test_functional_tends_to_one_at_origin(self):
        z = 1e-3 * np.exp(2j * np.pi * np.arange(8) / 8)
        val = np.real(z * _w_sum(1.0, 0.5, z, True) / _w_sum(1.0, 0.5, z, False))
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

    def test_cached_grid_is_read_only(self):
        # factorization_check's ring, built once at import
        ring = certify_module._RING
        assert ring.shape == (49,)
        assert not ring.flags.writeable
        with pytest.raises(ValueError):
            ring[0] = 0.5

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
    value = np.real(z * _w_sum(a, nu, z, True) / _w_sum(a, nu, z, False))
    r = max(radii)
    at_r = (r * _w_sum(a, nu, r, True) / _w_sum(a, nu, r, False)).real
    assert value.shape == z.shape
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

    def test_ring_by_hand(self):
        # the ring factorization_check samples, 0.9 e^(i pi j / 48), bit for bit
        thetas = [2.0 * math.pi * j / 96 for j in range(49)]
        by_hand = 0.9 * np.exp(1j * np.asarray(thetas))
        assert np.array_equal(certify_module._RING, by_hand)

    @pytest.mark.parametrize("n", [0, 6, 18])
    def test_deviation_peaks_on_ring(self, table18, n):
        # maximum modulus: no interior point of |z| <= 0.9 deviates more
        f = fam(2.0, 1.0)
        fc = factorization_check(f, n_zeros=n, table=table18)
        z = np.asarray([0.9 * k / 16 for k in range(1, 16)])[:, None] * np.exp(
            2j * np.pi * np.arange(49) / 96)
        zs = np.asarray(table18.zeros[:n])
        prod = z * np.prod(1.0 - z[..., None] / (zs * zs), axis=-1)
        assert fc.max_deviation >= np.max(np.abs(w_eval(f, z) - prod))

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
        with pytest.raises(DomainError, match=r"n_terms must lie in \[0, 18\]"):
            factorization_check(fam(2.0, 1.0), n_zeros=n, table=table18 if with_table else None)

    def test_no_zeros_compares_against_z(self):
        # N = 0: the product is z itself and the envelope the whole sum T
        fc = factorization_check(fam(2.0, 1.0), n_zeros=0)
        assert fc.n_zeros == 0
        assert fc.within_envelope
