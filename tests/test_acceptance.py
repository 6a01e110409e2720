"""Acceptance suite: runs every selftest check once and asserts each.

One line per criterion is printed (visible with ``pytest -v -s`` or in
failure output); the same checks back ``dinicert selftest``.
"""

import mpmath
import numpy as np
import pytest

from dinicert import (DiniFamily, DomainError, Order, evaluate_criterion, find_zeros,
                      ismail_lower_bound, selftest, starlike_sample)


@pytest.fixture(scope="module")
def results():
    return {r.id: r for r in selftest.run_checks()}


CRITERIA = [cid for cid, _, _ in selftest._CHECKS]


@pytest.mark.parametrize("cid", CRITERIA)
def test_acceptance_criterion(cid, results):
    r = results[cid]
    line = f"criterion {r.id:02d} {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
    print(line)
    assert r.passed, line


def test_unknown_check_ids_are_rejected():
    with pytest.raises(DomainError, match=r"^unknown check ids: \[0, 42\]$"):
        selftest.run_checks({3, 42, 0})


def test_empty_check_selection_is_rejected():
    with pytest.raises(DomainError, match=r"^no check ids selected$"):
        selftest.run_checks(set())


def _numpy_families():
    """The 20 families selftest drew from numpy's generator before it drew
    from the standard library's, in the same ranges and order."""
    rng = np.random.default_rng(selftest.RANDOM_SEED)
    return [(float(rng.uniform(0.8, 3.0)), float(rng.uniform(0.0, 2.0))) for _ in range(20)]


@pytest.mark.parametrize("a, nu", _numpy_families())
def test_former_selftest_families(a, nu):
    """What checks 05, 07 and 11 assert, on each family they checked before:
    the closed sum inside [truncated, truncated + tail], omega_1^2 above the
    Ismail bound, and Re(z w'/w) > 0 at z = 0.99 where S <= 1 - 1e-9."""
    fam = DiniFamily(a, Order(nu))
    table = find_zeros(fam, 12)
    crit = evaluate_criterion(fam, n_terms=12, table=table)
    assert crit.truncated_value <= crit.closed_value <= crit.truncated_value + crit.tail_bound
    assert table.entries[0].zero ** 2 > ismail_lower_bound(fam)
    if crit.closed_value <= 1.0 - 1e-9:
        assert starlike_sample(fam) > 0.0


def _mp_sum(a, nu):
    """S(a, nu) = -f'(1) / (2 f(1)) for f(x) = x^-nu D_{a,nu}(x), the
    Mittag-Leffler form of sum 1/(omega_n^2 - 1), in mpmath alone."""
    f = lambda x: x ** -nu * ((a - nu) * mpmath.besselj(nu, x)
                              + x * mpmath.besselj(nu, x, derivative=1))
    return -mpmath.diff(f, 1) / (2 * f(1))


# Special cases of the critical equation S(a, nu) = 1 at a = 2 and a = 1.
CRITICAL_FORMS = {
    "a2": (2, lambda nu: 3 * mpmath.besselj(nu, 1)
           + 2 * (nu - 2) * mpmath.besselj(nu + 1, 1), -0.14, selftest.REF_NU_A2),
    "a1": (1, lambda nu: mpmath.besselj(nu, 1)
           - (3 - 2 * nu) * mpmath.besselj(nu + 1, 1), 0.31, selftest.REF_NU_A1),
}


@pytest.mark.parametrize("case", sorted(CRITICAL_FORMS))
def test_reference_critical_orders_are_rounded_oracle_roots(case):
    """Check 01's constants are the four-decimal roundings of roots
    computed with mpmath alone, not values fitted to dinicert output."""
    a, form, guess, ref = CRITICAL_FORMS[case]
    with mpmath.workdps(40):
        root = mpmath.findroot(form, guess)
        assert abs(_mp_sum(a, root) - 1) < mpmath.mpf("1e-25")
    root = float(root)
    assert round(root, 4) == ref
    assert abs(root - ref) <= selftest.REF_TOL
