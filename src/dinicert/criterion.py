"""The sum criterion S(a,nu) = sum 1/(omega^2 - 1) and the critical orders.

The closed form comes from the Mittag-Leffler expansion of the
logarithmic derivative of D_{a,nu}, evaluated at 1:

    S = -1/2 * [(2 nu^2 - a nu - 1) J_nu(1) + (a - 2 nu) J'_nu(1)]
              / [(a - nu) J_nu(1) + J'_nu(1)]

The truncated route sums 1/(omega_n^2 - 1) over a certified zero table
and attaches a rigorous tail bound by integral comparison.  The critical
order nu_a is the root of (2a-1) J_nu(1) - (a - 2 nu + 2) J_{nu+1}(1),
the threshold at which S = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import _j_pair
from .errors import DomainError, NumericFailure, PoleError
from .families import DiniFamily, _as_nu
from .zeros import MAX_ZEROS, ZeroTable, find_zeros

POLE_REL = 1e-10
BOUNDARY_BAND = 1e-9
SCAN_STEP = 0.05
DEFAULT_SEARCH = (-0.74, 2.0)
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
    unique_in_scan: bool
    sum_at_root: float


def sum_closed(family: DiniFamily) -> float:
    """Closed-form value of S(a,nu) = sum over n of 1/(omega_n^2 - 1).

    Raises PoleError when D_{a,nu}(1) is numerically zero, i.e. some
    Dini zero sits at 1 and the criterion is ill-posed.
    """
    a, nu = family.a, family.nu
    j0, j1 = _j_pair(nu, 1.0)
    jp = nu * j0 - j1  # J'_nu(1)
    den = a * j0 - j1  # (a - nu) J_nu(1) + J'_nu(1) = D_{a,nu}(1)
    scale = abs(a * j0) + abs(j1)
    if abs(den) <= POLE_REL * scale:
        raise PoleError(
            f"D_(a={a:g},nu={nu:g})(1) vanishes within {POLE_REL:g} of scale; "
            "a Dini zero lies at radius 1")
    num = (2.0 * nu * nu - a * nu - 1.0) * j0 + (a - 2.0 * nu) * jp
    return -0.5 * num / den


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


def critical_equation(a: float, nu: float) -> float:
    """g(nu) = (2a - 1) J_nu(1) - (a - 2 nu + 2) J_{nu+1}(1)."""
    nu = _as_nu(nu)
    j0, j1 = _j_pair(nu, 1.0)
    return (2.0 * a - 1.0) * j0 - (a - 2.0 * nu + 2.0) * j1


def _g_scale(a: float, nu: float) -> float:
    j0, j1 = _j_pair(nu, 1.0)
    return abs((2.0 * a - 1.0) * j0) + abs((a - 2.0 * nu + 2.0) * j1)


def critical_order(a: float, search: tuple[float, float] = DEFAULT_SEARCH,
                   tol: float = 1e-10) -> CriticalOrder:
    """Unique root nu_a of the critical equation inside ``search``.

    A sign-change scan with step 0.05 must find exactly one crossing
    (none or several raise NumericFailure); bisection brings the bracket
    below ``tol`` and a secant polish drives the residual to rounding
    level.  The root is cross-checked against |S(a, nu_a) - 1| <= 1e-8.
    """
    a = float(a)
    if not a > 0.0:
        raise DomainError("a must be positive")
    lo_s, hi_s = float(search[0]), float(search[1])
    if not (-1.0 < lo_s < hi_s):
        raise DomainError("search interval must satisfy -1 < lo < hi")
    tol = float(tol)
    if not 0.0 < tol <= 1e-2:
        raise DomainError("tol must lie in (0, 1e-2]")

    g = lambda v: critical_equation(a, v)
    # Scan for sign changes.
    brackets = []
    n_steps = int(math.ceil((hi_s - lo_s) / SCAN_STEP))
    x_prev = lo_s
    f_prev = g(x_prev)
    for k in range(1, n_steps + 1):
        x = min(lo_s + k * SCAN_STEP, hi_s)
        f = g(x)
        if math.copysign(1.0, f_prev) != math.copysign(1.0, f):
            brackets.append((x_prev, x, f_prev))
        x_prev, f_prev = x, f
    if not brackets:
        raise NumericFailure(
            f"no sign change of the critical equation on [{lo_s:g}, {hi_s:g}] for a={a:g}")
    if len(brackets) > 1:
        locs = ", ".join(f"({p:.3g},{q:.3g})" for p, q, _ in brackets)
        raise NumericFailure(
            f"multiple sign changes of the critical equation for a={a:g}: {locs}")

    lo, hi, flo = brackets[0]
    slo = math.copysign(1.0, flo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if math.copysign(1.0, g(mid)) == slo:
            lo = mid
        else:
            hi = mid

    # Secant polish inside the bracket.
    x0, x1 = lo, hi
    f0, f1 = g(x0), g(x1)
    root = 0.5 * (lo + hi)
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not lo <= x2 <= hi:
            x2 = 0.5 * (lo + hi)
        f2 = g(x2)
        x0, f0, x1, f1 = x1, f1, x2, f2
        root = x2
        if f2 == 0.0 or abs(x1 - x0) < 1e-15 * max(1.0, abs(x1)):
            break
    residual = abs(g(root))
    if residual > 1e-12 * _g_scale(a, root):
        raise NumericFailure(
            f"critical equation residual {residual:.3e} above 1e-12 * scale for a={a:g}")

    s_root = sum_closed(DiniFamily(a, root))
    if abs(s_root - 1.0) > SUM_CROSS_CHECK_TOL:
        raise NumericFailure(
            f"sum criterion at nu_a deviates from 1 by {abs(s_root - 1.0):.3e} "
            f"(> {SUM_CROSS_CHECK_TOL:g}) for a={a:g}")
    return CriticalOrder(a, root, lo, hi, residual, True, s_root)
