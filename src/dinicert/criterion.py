"""The sum criterion S(a,nu) = sum 1/(omega^2 - 1) and the critical orders.

The closed form comes from the Mittag-Leffler expansion of the
logarithmic derivative of D_{a,nu}, evaluated at 1:

    S = [J_nu(1) + (a - 2 nu) J_{nu+1}(1)] / [2 (a J_nu(1) - J_{nu+1}(1))]

The truncated route sums 1/(omega_n^2 - 1) over a certified zero table
and bounds the tail by the exact identity T = sum 1/omega_n^2 =
(a + 2)/(4a(nu + 1)), the z^2 coefficient of w = z prod(1 - z/omega_n^2);
no zero spacing is assumed.  The critical order nu_a is the root of
(2a-1) J_nu(1) - (a - 2 nu + 2) J_{nu+1}(1), the threshold at which S = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import _j_pair, _j_ratio
from .errors import DomainError, NumericFailure, PoleError
from .families import DiniFamily, _as_a, _as_nu
from .zeros import ZeroTable, _check_count, find_zeros, ismail_lower_bound

POLE_REL = 1e-10
BOUNDARY_BAND = 1e-9
# Roots above 2 (a < 0.3604) are refused: mpmath's findroot, the benchmark's
# oracle for nu_a, is too imprecise there to check S = 1 to its 1e-30 bound.
SEARCH_WINDOW = (-0.74, 2.0)
SUM_CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class SumCriterion:
    """Two-route value of S(a,nu) with enclosure data.

    When the first zero does not exceed 1, or the zero table cannot be
    formed, the truncated route is inapplicable and its fields are None.
    """

    family: DiniFamily
    closed_value: float
    truncated_value: float | None
    terms_used: int
    tail_bound: float | None
    threshold_margin: float


@dataclass(frozen=True)
class CriticalOrder:
    """Root nu_a of the critical equation, with bracket and residual."""

    a: float
    nu_a: float
    lo: float
    hi: float
    residual: float
    sum_at_root: float


def _sum_from_pair(a: float, nu: float, j0: float, j1: float) -> float:
    den = a * j0 - j1  # D_{a,nu}(1)
    if abs(den) <= POLE_REL * (abs(a * j0) + abs(j1)):
        raise PoleError(
            f"D_(a={a:g},nu={nu:g})(1) vanishes within {POLE_REL:g} of scale; "
            "a Dini zero lies at radius 1")
    if min(abs(j0), abs(j1)) < 2.0 ** -1032:  # fewer than about 42 bits left
        raise NumericFailure(f"J_nu(1) or J_(nu+1)(1) is subnormal at nu={nu:g}; S unresolved")
    return (j0 + (a - 2.0 * nu) * j1) / (2.0 * den)


def sum_closed(family: DiniFamily) -> float:
    """Closed-form value of S(a,nu) = sum over n of 1/(omega_n^2 - 1).

    Raises PoleError when D_{a,nu}(1) is numerically zero (a Dini zero at 1),
    and NumericFailure when the J pair at 1 is subnormal (nu >~ 150).
    """
    return _sum_from_pair(family.a, family.nu, *_j_pair(family.nu, 1.0))


def _tail_mass(family: DiniFamily, zeros) -> float:
    """T - P_N = sum_{n>N} 1/omega_n^2 after the first N zeros ``zeros``."""
    return 1.0 / ismail_lower_bound(family) - math.fsum(1.0 / (z * z) for z in zeros)


def evaluate_criterion(family: DiniFamily, n_terms: int = 12,
                       table: ZeroTable | None = None) -> SumCriterion:
    """Assemble the closed and truncated routes into one SumCriterion.

    A precomputed zero table of length >= max(n_terms, 1) may be passed
    to avoid recomputing zeros; the truncated fields are None when the
    first zero does not exceed 1 or the table cannot be formed.
    """
    n_terms = _check_count(n_terms, "n_terms", 0)
    return _criterion(family, sum_closed(family), n_terms, table)


def _criterion(family: DiniFamily, closed: float, n_terms: int,
               table: ZeroTable | None) -> SumCriterion:
    """``evaluate_criterion`` from its closed sum ``closed`` on.

    The truncated route is the partial sum over the first n_terms zeros plus
    a rigorous tail bound.  The z^2 coefficient of w = z prod(1 - z/omega_n^2)
    gives T = sum_n 1/omega_n^2 = (a + 2)/(4a(nu + 1)) exactly.  For n > N,
    omega_n >= omega_M, M = max(N, 1), and t/(t - 1) decreases, so with
    P_N = sum_{n<=N} 1/omega_n^2 and m = omega_M^2 the tail is at most
    (T - P_N) m/(m - 1).  It reads the first M zeros and assumes no spacing.
    Rounding (about 1e-13 relative in T - P_N) needs no guard: for n >= M + 2
    interlacing puts omega_n above j_{nu,M+1} > omega_M + 2.99 (the Sturm
    spacing in ``zeros``), so each such term lies below its share of the bound
    by a relative 1/m - 1/omega_n^2 > 2.5e-5, as omega_M <= 60.
    """
    value = tail = None
    try:
        if table is None or len(table) < max(n_terms, 1):
            table = find_zeros(family, max(n_terms, 1))
    except NumericFailure:
        pass
    else:
        zs = table.zeros
        if zs[0] > 1.0:
            value = math.fsum(1.0 / (z * z - 1.0) for z in zs[:n_terms])
            m = zs[max(n_terms, 1) - 1] ** 2
            tail = _tail_mass(family, zs[:n_terms]) * m / (m - 1.0)
    return SumCriterion(family, closed, value, n_terms, tail, 1.0 - closed)


def critical_equation(a: float, nu: float) -> float:
    """g(nu) = (2a - 1) J_nu(1) - (a - 2 nu + 2) J_{nu+1}(1)."""
    nu = _as_nu(nu)
    j0, j1 = _j_pair(nu, 1.0)
    return (2.0 * a - 1.0) * j0 - (a - 2.0 * nu + 2.0) * j1


def critical_order(a: float, tol: float = 1e-10) -> CriticalOrder:
    """Root nu_a of the critical equation g; it must lie in SEARCH_WINDOW.

    With rho = J_{nu+2}(1) / J_{nu+1}(1) the recurrence gives g = J_{nu+1}(1) h,
    h = 4a nu + 3a - 4 - (2a - 1) rho, and J_{nu+1}(1) > 0 for nu > -1, so
    nu_a is the fixed point of F = (4 - 3a + (2a - 1) rho) / (4a), evaluated
    as (4/a - 3 + (2 - 1/a) rho) / 4 so that no product with a overflows.

    Uniqueness.  Each level t -> 1 / (2 (nu + k) - t) of rho's continued
    fraction decreases in nu, so rho' < 0, |rho'| = rho^2 (2 + |r'|) <=
    2.25 rho^2 (its tail r < 1/3) and rho < 1 / (2 nu + 3) < 1.  For a >= 1/2,
    h' >= 4a.  For a < 1/2, h < 0 on (-1, -3/4], and a root has
    4a (nu + 3/4) = 4 - (1 - 2a) rho > 3, so h' >= 4a - 2.25 rho^2 >
    3 / (nu + 3/4) - 9 / (16 (nu + 3/2)^2) > 0.  So h' > 0 wherever h
    vanishes and h(-1+) < 0 < h(inf): g has exactly one root on (-1, inf).

    Secant on F(nu) - nu from max(-0.99, 1/a - 7/8) and F of it, until a step
    is below half an ulp of |nu| + 1 (at most 7 rho for a in [0.01, 1e6]).
    Certified as a zero is: the secant's own F(nu) - nu = -h / (4a), which
    has the sign of -g, changes sign across [nu_a -+ 0.49 tol], which must hold
    nu_a and round to width <= tol; and from one J pair at nu_a, |g(nu_a)| <=
    1e-12 times the sum of its terms' moduli and |S(a, nu_a) - 1| <= 1e-8."""
    a = _as_a(a)
    tol = float(tol)
    if not 0.0 < tol <= 1e-2:
        raise DomainError("tol must lie in (0, 1e-2]")

    fixed = lambda v: (4.0 / a - 3.0 + (2.0 - 1.0 / a) * _j_ratio(v)[1]) * 0.25
    nu0 = max(-0.99, 1.0 / a - 0.875)
    phi0 = fixed(nu0) - nu0
    root = nu0 + phi0
    for _ in range(50):
        phi = fixed(root) - root
        if phi == phi0:
            break
        step = phi * (root - nu0) / (phi - phi0)
        nu0, phi0, root = root, phi, root - step
        # Also ends on a NaN step (1/a overflows for a below 2.2e-308); the
        # certificate below, not the step count, decides whether root is nu_a.
        if not abs(step) > 0.5 * math.ulp(abs(root) + 1.0):
            break
    lo_w, hi_w = SEARCH_WINDOW
    if not lo_w <= root <= hi_w:
        raise NumericFailure(
            f"no sign change of the critical equation on [{lo_w:g}, {hi_w:g}] for a={a:g}")

    lo, hi = root - 0.49 * tol, root + 0.49 * tol
    if not (lo < root < hi and hi - lo <= tol):  # a tol below the spacing at root
        raise NumericFailure(f"no bracket of width <= {tol:g} holds nu_a={root!r} for a={a:g}")
    if not (fixed(lo) - lo) * (fixed(hi) - hi) < 0.0:
        raise NumericFailure(
            f"critical equation does not change sign across [{lo!r}, {hi!r}] for a={a:g}")
    j0, j1 = _j_pair(root, 1.0)
    p, q = (2.0 * a - 1.0) * j0, (a - 2.0 * root + 2.0) * j1
    residual = abs(p - q)
    # (2a - 1) J_nu(1) overflows for a above 9e307, where phi still changes sign
    if not residual <= 1e-12 * (abs(p) + abs(q)) < math.inf:
        raise NumericFailure(
            f"critical equation residual {residual:.3e} above 1e-12 * scale for a={a:g}")

    s_root = _sum_from_pair(a, root, j0, j1)
    if abs(s_root - 1.0) > SUM_CROSS_CHECK_TOL:
        raise NumericFailure(
            f"sum criterion at nu_a deviates from 1 by {abs(s_root - 1.0):.3e} "
            f"(> {SUM_CROSS_CHECK_TOL:g}) for a={a:g}")
    return CriticalOrder(a, root, lo, hi, residual, s_root)
