"""Certification verdicts, disk sampling, and factorization validation."""

import cmath
import importlib
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
from dinicert import bessel, criterion
from dinicert.bessel import _unit_roots, _w_polar, _w_sum
from dinicert.certify import _polar_grid, default_radii

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


class TestStarlikeSample:
    def test_functional_tends_to_one_at_origin(self):
        p, q, x, y = _w_polar(1.0, 0.5, (1e-3,), 8, 5)
        val = (x * p + y * q) / (p * p + q * q)
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
        for spec, shape in (((64, 0.99, 720), (64, 361)), ((16, 0.9, 96), (16, 49))):
            radii, z = _polar_grid(*spec)
            assert radii == tuple(default_radii(*spec[:2]))
            assert _polar_grid(*spec)[1] is z
            assert z.shape == shape
            assert not z.flags.writeable
            with pytest.raises(ValueError):
                z[0, 0] = 0.5

    def test_grid_fault_on_interior_zero(self):
        # a = x J_{3/2}(x) / J_{1/2}(x) at x^2 = 0.495 puts omega_1^2 on the
        # grid's 32nd radius, 0.99 * 32 / 64, at theta = 0
        with mpmath.workdps(40):
            x = mpmath.sqrt(mpmath.mpf("0.495"))
            a = float(x * mpmath.besselj(1.5, x) / mpmath.besselj(0.5, x))
        assert default_radii()[31] == 0.495
        assert find_zeros(fam(a, 0.5), 1).zeros[0] ** 2 == pytest.approx(0.495, rel=1e-14)
        with pytest.raises(NumericFailure, match="grid fault"):
            starlike_sample(fam(a, 0.5))


def functional_mp(a, nu, r, j, m):
    """(Re(z w'/w), its rounding scale) at z = r e^(2 pi i j / m), to 50 digits:
    the scale (sum |(k+1) c_k z^(k+1)| + |Re(z w'/w)| sum |c_k z^(k+1)|) / |w|
    bounds how far the rounding of the two sums, eps times their absolute
    terms, moves the quotient."""
    with mpmath.workdps(50):
        a, nu = mpmath.mpf(a), mpmath.mpf(nu)
        z = mpmath.mpf(r) * mpmath.expjpi(mpmath.mpf(2 * j) / m)
        c, w, zwp, aw, azwp, k = mpmath.mpf(1), 0, 0, 0, 0, 0
        while (k + 1) * abs(c) > mpmath.mpf(10) ** -60:
            t = c * z ** (k + 1)
            w, zwp, aw, azwp = w + t, zwp + (k + 1) * t, aw + abs(t), azwp + (k + 1) * abs(t)
            c *= -(2 * k + 2 + a) / ((2 * k + a) * 4 * (k + 1) * (nu + k + 1))
            k += 1
        f = (zwp / w).real
        return f, (azwp + abs(f) * aw) / abs(w)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(log_a=st.floats(-2.0, 2.0), nu=st.floats(-0.99, 60.0, exclude_min=True),
       points=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 360)),
                       min_size=50, max_size=50))
def test_polar_sum_against_mpmath(log_a, nu, points):
    """Re(z w'/w) from the separable sum, at the 64 x 361 grid's argmin and 50
    more points, is within the pointwise series' error of 50-digit mpmath, or
    within twice the rounding scale (both sums keep to about 1.7 scales)."""
    a, radii = 10.0 ** log_a, tuple(default_radii())
    z = _polar_grid(64, 0.99, 720)[1]
    p, q, x, y = _w_polar(a, nu, radii, 720, z.shape[1])
    new = (x * p + y * q) / (p * p + q * q)
    old = np.real(z * _w_sum(a, nu, z, True) / _w_sum(a, nu, z, False))
    assert starlike_sample(fam(a, nu)) == new.min()
    argmin = np.unravel_index(int(np.argmin(new)), new.shape)
    for i, j in [argmin, *points]:
        ref, scale = functional_mp(a, nu, radii[i], int(j), 720)
        err_new, err_old = abs(new[i, j] - ref), abs(old[i, j] - ref)
        assert err_new <= max(err_old, 2 * sys.float_info.epsilon * scale), (i, j)


@pytest.mark.parametrize("radii, m", [(default_radii(16), 63),
                                      (default_radii(16)[::-1], 64),
                                      ([1e-3], 8), ([1e-3], 7)])
def test_polar_sum_grid_shapes(radii, m):
    """An odd angle count (the full circle), decreasing radii and one tiny
    radius: w and z w' match the pointwise series at every point, within
    rounding of their terms, whose moduli sum to below 3 |z| here, and so
    does the functional starlike_sample minimises."""
    a, nu, radii = 1.3, 0.4, tuple(radii)
    count = m // 2 + 1 if m % 2 == 0 else m
    z = np.asarray(radii)[:, None] * _unit_roots(m)[:count]
    p, q, x, y = _w_polar(a, nu, radii, m, count)
    assert p.shape == z.shape == (len(radii), count)
    w, zwp = _w_sum(a, nu, z, False), z * _w_sum(a, nu, z, True)
    assert np.all(np.abs(p + 1j * q - w) <= 4e-15 * np.abs(z))
    assert np.all(np.abs(x + 1j * y - zwp) <= 4e-15 * np.abs(z))
    value = float(np.min((x * p + y * q) / (p * p + q * q)))
    assert value == pytest.approx(float(np.min(np.real(zwp / w))), abs=1e-15)


def test_disk_checks_never_sum_pointwise(monkeypatch):
    """starlike_sample and factorization_check take w from the separable sum
    alone, not from the pointwise series."""
    def spy(*args):
        raise AssertionError("_w_sum called")
    for mod in (bessel, importlib.import_module("dinicert.certify")):
        monkeypatch.setattr(mod, "_w_sum", spy, raising=False)
    assert starlike_sample(fam(1.3, 0.4)) > 0.0
    assert factorization_check(fam(2.0, 1.0), n_zeros=6).within_envelope
    assert certify(fam(1.0, 0.5)).min_re_starlike > 0.0


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

    def test_grid_is_the_polar_grid(self):
        # the grid factorization_check built by hand, bit for bit
        radii = [0.9 * (k + 1) / 16 for k in range(16)]
        thetas = [2.0 * math.pi * j / 96 for j in range(49)]
        by_hand = np.asarray(radii)[:, None] * np.exp(1j * np.asarray(thetas)[None, :])
        assert np.array_equal(_polar_grid(16, 0.9, 96)[1], by_hand)

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
