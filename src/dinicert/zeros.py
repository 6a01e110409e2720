"""Evaluation of D_{a,nu} and certified localization of its positive zeros.

D_{a,nu}(x) = (a - nu) J_nu(x) + x J'_nu(x) is evaluated as the identical
a J_nu(x) - x J_{nu+1}(x), which forms no J'.

Counting.  D = J_nu (a - y) with y = x J_{nu+1} / J_nu, and the Mittag-Leffler
expansion y = sum_k 2 x^2 / (j_{nu,k}^2 - x^2) (Watson, ch. 15) makes y
strictly increasing between consecutive zeros j_{nu,k} of J_nu, from 0 (on
(0, j_{nu,1})) or -inf up to +inf.  So each (j_{nu,n-1}, j_{nu,n}), with
j_{nu,0} = 0, holds exactly one zero omega_n, and a - y > 0 before it.  Sturm
comparison on sqrt(x) J_nu puts the j_{nu,k} at least pi apart for |nu| >= 1/2
and pi / sqrt(1 + 1/pi^2) > 2.99 apart for |nu| < 1/2 (where j_{nu,1} >= pi/2),
so a scan step of 2.5 straddles at most one j_{nu,k}.  It then holds one zero
exactly when D changes sign across it, and two exactly when D keeps its sign,
J_nu changes sign and sign D = sign J_nu (a - y > 0) at its left end; such a
step is halved.  The scan starts at half the square root of the Ismail bound,
below omega_1, where D > 0 and J_nu > 0, or at x = 60, where its last step ends.

The scan and Newton take D up to a positive factor from ``_j_ratio``'s
(s, s r) = (J_nu, J_{nu+1}) / |J_nu|.  Its s = sign J_nu errs only within
rounding of a zero of J_nu, where r flips with it and keeps sign D right (at
2,100 doubles within 3 ulp of such zeros s erred at 50, sign D at none of
6,300 checks, a in {0.01, 1, 100}); so the halving rule can miss only a Dini
zero within about (x + 8) eps of j_{nu,k}, which needs a >~ 1e14, far above
the 2.8e6 past which the certificate fails.  For a subnormal a, which a - x r
cannot resolve, Newton takes ``_j_pair`` (doubles, for x <= 3): else a = 5e-324,
nu = -0.9999999999999999 fails at x = 2.85e-170, not omega_1 = 3.3e-170.

Refinement.  Bracket-safeguarded Newton from the middle of the scan step runs
until its step or the bracket is one ulp of x; a rejected step bisects,
geometrically across more than a factor 4.  The finish takes ``_d_lead``, one
fixed-point pass, at x: D / lead = num / den exactly, num = an s0 + 2 ad s1 and
den = ad 2^prec for a = an / ad, so d = num / den rounds once.  Up to two Newton
steps on d move x, bounded by the scan step, not by the Newton bracket, whose
ends took sign D from rounded values.  Against 40-digit mpmath the worst of
1,690 zeros (200 random tables and the zero-tables benchmark inputs) is 0.4998 ulp.

Certificate.  The bracket [x - 0.49 tol, x + 0.49 tol] must round to width
<= tol inside x > 0, D must change sign across it, and at x |D'| > 1e-8 scale
and |D| <= 1e-10 scale, scale = |a J_nu| + |x J_{nu+1}|; else NumericFailure.
The sign change is proved from the finish's own values at x by an interval
Newton test (Moore, Interval Analysis, 1966; ``_interval_newton``): D' keeps
its sign across the bracket and carries D past 0 inside it.  Where that test
does not decide, ``_d_lead``'s integer numerators at the two ends must have
opposite signs (lead, den > 0); over 12,000 seeded tables that took 213 of
43,914 brackets, each at nu^2 / x^2 > 1,500, and none of the benchmark's.  All
of it is in lead units, where an integer's sign neither rounds nor underflows
and no value sees lead: J_400(40) = 1.5e-349, yet D_(2,400)'s first zero is
certified.  The reported ``residual`` is |num lead / den| at x, with ``_lead``
in libmp, rounded once: true units, 0.0 only where it underflows.  No
certificate or residual depends on whether x <= 3.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from mpmath.libmp import from_man_exp, mpf_mul, round_nearest, to_float

from .bessel import X_MAX, _check_x, _j_pair, _j_ratio, _j_sums, _lead
from .errors import DomainError, NumericFailure
from .families import DiniFamily

SCAN_STEP = 2.5
MAX_ZEROS = 18
DEFAULT_TOL = 1e-12
RESIDUAL_REL = 1e-10


@dataclass(frozen=True)
class ZeroEntry:
    """One localized zero with its certified bracket and residual."""

    n: int
    zero: float
    lo: float
    hi: float
    residual: float


@dataclass(frozen=True)
class ZeroTable:
    """Ordered positive zeros omega_{a,nu,n}; immutable after construction."""

    family: DiniFamily
    tol: float
    entries: tuple[ZeroEntry, ...]

    @property
    def zeros(self) -> tuple[float, ...]:
        return tuple(e.zero for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _sign(v: float) -> float:
    return math.copysign(1.0, v)


def _d_from_pair(a: float, x: float, j0: float, j1: float) -> float:
    return a * j0 - x * j1


def _dprime_from_pair(a: float, nu: float, x: float, j0: float, j1: float) -> float:
    return (a * nu / x - x) * j0 + (nu - a) * j1


def dini_eval(family: DiniFamily, x: float) -> float:
    """D_{a,nu}(x) = a J_nu(x) - x J_{nu+1}(x) for x in (0, 60]."""
    x = _check_x(x)
    j0, j1 = _j_pair(family.nu, x)
    return _d_from_pair(family.a, x, j0, j1)


def dini_prime(family: DiniFamily, x: float) -> float:
    """D'_{a,nu}(x), with J'' eliminated through the Bessel equation.

    Reduces to (a nu / x - x) J_nu(x) + (nu - a) J_{nu+1}(x).
    """
    x = _check_x(x)
    a, nu = family.a, family.nu
    return _dprime_from_pair(a, nu, x, *_j_pair(nu, x))


def ismail_lower_bound(family: DiniFamily) -> float:
    """Lower bound 4a(nu+1)/(a+2) on the square of the first Dini zero.

    Holds for every a > 0, nu > -1; a value above 1 already certifies
    that no zero of w_{a,nu} lies in the closed unit disk.  Where 4a(nu+1)
    overflows it is formed as 4 (a / (a + 2)) (nu + 1), at most the largest
    double.
    """
    a, nu = family.a, family.nu
    bound = 4.0 * a * (nu + 1.0) / (a + 2.0)
    if bound == math.inf:
        bound = min(4.0 * (a / (a + 2.0)) * (nu + 1.0), sys.float_info.max)
    return bound


def _d_lead(a: float, nu: float, x: float) -> tuple[int, int, float, float, int]:
    """(num, den, j0, j1, wp) from one _j_sums pass: D / lead = num / den exactly,
    den a power of 2; (J_nu, J_{nu+1}) / lead = (j0, j1), each rounded once; wp."""
    s0, s1, prec, wp = _j_sums(nu, x)
    (an, ad), (xn, xd) = a.as_integer_ratio(), x.as_integer_ratio()
    return (an * s0 + 2 * ad * s1, ad << prec, s0 / (1 << prec),
            -2 * xd * s1 / (xn << prec), wp)


def _interval_newton(a: float, nu: float, x: float, blo: float, bhi: float,
                     d: float, dp: float, j0: float, j1: float) -> bool:
    """True if D changes sign across [blo, bhi], blo < x < bhi, proved from the
    finish's values at x in lead units: d = D / lead and j0, j1 rounded once,
    dp = D' / lead formed from them.  (J_nu, J'_nu) solves Y' = A Y with
    A = [[0, 1], [nu^2 / xi^2 - 1, -1 / xi]] (DLMF 10.2.1), and |A| <= L =
    1 + nu^2 / blo^2 + 1 / blo on the bracket in the infinity-norm, so by
    Gronwall |J_nu|, |J'_nu| <= m = |Y(x)| e^(L delta) there, delta = max|xi - x|.
    The same equation gives D'' = -((a - nu)(1 - nu^2 / xi^2) + 1 + nu^2 / xi^2)
    J_nu + (nu^2 / xi - xi - (a - nu) / xi) J'_nu, so |D'(xi) - D'(x)| <= eta =
    delta max|D''|.  Where |dp| exceeds eta and its rounding, D' keeps dp's sign
    on the bracket, and D moves from D(x) by at least (|dp| - err - eta) h
    towards either end, h = min|end - x|: past 0 when that exceeds |d| and its
    rounding.  err, 32 eps times the sum of dp's terms, covers dp's rounding
    and that of this test's own sums of non-negative terms.  Any inf or nan
    fails the comparison, which then leaves the decision to the end check."""
    h, dx = min(x - blo, bhi - x), max(x - blo, bhi - x)
    q, g = (nu / blo) * (nu / blo), abs(a - nu)
    t = (1.0 + q + 1.0 / blo) * dx  # L delta; exp overflows past 709.78
    m = max(abs(j0), abs(nu / x * j0) + abs(j1)) * (math.exp(t) if t < 709.0 else math.inf)
    eta = dx * m * ((g + 1.0) * (1.0 + q) + q * blo + bhi + g / blo)
    err = 32.0 * sys.float_info.epsilon * ((abs(a * nu / x) + x) * abs(j0) + g * abs(j1))
    return math.isfinite(dp) and abs(d) + math.ulp(d) < (abs(dp) - err - eta) * h


def _refine(family: DiniFamily, n: int, lo: float, hi: float, flo: float,
            tol: float) -> ZeroEntry:
    """Zero number n in the scan step (lo, hi), where D is flo at lo, refined
    and certified as the module docstring describes."""
    a, nu = family.a, family.nu
    slo, step_lo, step_hi = _sign(flo), lo, hi
    by_pair = a < sys.float_info.min  # a - x r ~ a near the zero
    x = 0.5 * (lo + hi)
    for _ in range(100):
        j0, j1 = _j_pair(nu, x) if by_pair else _j_ratio(nu, x, 0)
        d, dp = _d_from_pair(a, x, j0, j1), _dprime_from_pair(a, nu, x, j0, j1)
        lo, hi = (x, hi) if _sign(d) == slo else (lo, x)
        step = d / dp if dp != 0.0 else math.inf
        # Tested before the safeguard, which would bisect on a converged
        # step that rounds x - step onto the endpoint x has just become.
        if min(abs(step), hi - lo) <= math.ulp(x):
            break
        x -= step
        if not lo < x < hi:  # bisect, geometrically across decades
            x = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi)
    else:
        raise NumericFailure(f"Newton did not converge near x={x!r}; zero {n} "
                             "could not be refined")

    for i in range(3):
        num, den, j0, j1, wp = _d_lead(a, nu, x)
        d = num / den  # D / lead, rounded once
        dp = _dprime_from_pair(a, nu, x, j0, j1)
        x_new = x - d / dp if dp != 0.0 else x
        if i == 2 or x_new == x or not step_lo < x_new < step_hi:
            break
        x = x_new

    blo, bhi = x - 0.49 * tol, x + 0.49 * tol
    if not (0.0 < blo and bhi - blo <= tol):
        raise NumericFailure(
            f"zero {n} near x={x!r} could not be refined to a bracket of width "
            f"<= {tol:g} inside x > 0")
    if not (_interval_newton(a, nu, x, blo, bhi, d, dp, j0, j1)
            or _d_lead(a, nu, blo)[0] * _d_lead(a, nu, bhi)[0] < 0):
        raise NumericFailure(
            f"bracket [{blo!r}, {bhi!r}] has no sign change; zero {n} could not "
            "be refined to a certified zero")
    scale = abs(a * j0) + abs(x * j1)
    residual = abs(to_float(mpf_mul(from_man_exp(num, 1 - den.bit_length()),
                                    _lead(nu, x, wp), 53, round_nearest)))
    if abs(dp) <= 1e-8 * scale:
        raise NumericFailure(
            f"derivative vanishes at refined zero x={x!r}; zero may not be simple")
    if abs(d) > RESIDUAL_REL * scale:
        raise NumericFailure(
            f"residual {residual:.3e} exceeds {RESIDUAL_REL:g} * scale at x={x!r}")
    return ZeroEntry(n, x, blo, bhi, residual)


def find_zeros(family: DiniFamily, count: int, tol: float = DEFAULT_TOL) -> ZeroTable:
    """First ``count`` positive zeros of D_{a,nu}, each with a bracket of width
    <= tol across which D changes sign and a residual |D(zero)| <= 1e-10 * scale.
    Fails, rather than truncating, if fewer lie below the series cap x = 60."""
    count = int(count)
    if not 1 <= count <= MAX_ZEROS:
        raise DomainError(f"count must lie in [1, {MAX_ZEROS}]")
    tol = float(tol)
    if not 0.0 < tol <= 0.1:
        raise DomainError("tol must lie in (0, 0.1]")

    a, nu = family.a, family.nu
    x = 0.5 * math.sqrt(ismail_lower_bound(family))
    if not 0.0 < x < X_MAX:  # 4a(nu + 1) underflowed, or omega_1 > 2 X_MAX
        x = min(math.sqrt(a) * math.sqrt((nu + 1.0) / (a + 2.0)), X_MAX)
    fx = _d_from_pair(a, x, *(jx := _j_ratio(nu, x, 0)))
    entries: list[ZeroEntry] = []
    while len(entries) < count:
        if x >= X_MAX:
            raise NumericFailure(
                f"only {len(entries)} sign changes of D_(a={a:g},nu={nu:g}) found "
                f"below x={X_MAX:g}, needed {count}")
        y = min(x + SCAN_STEP, X_MAX)
        while True:
            fy = _d_from_pair(a, y, *(jy := _j_ratio(nu, y, 0)))
            # Two zeros: omega_n, j_{nu,n} and omega_{n+1} all lie in (x, y).
            if not (_sign(fx) == _sign(fy) == jx[0] != jy[0]):  # jx[0] = sign J_nu
                break
            y = 0.5 * (x + y)
        if _sign(fx) != _sign(fy):
            entries.append(_refine(family, len(entries) + 1, x, y, fx, tol))
        x, jx, fx = y, jy, fy
    return ZeroTable(family, tol, tuple(entries))
