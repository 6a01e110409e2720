"""Evaluation of D_{a,nu} and certified localization of its positive zeros.

D_{a,nu}(x) = (a - nu) J_nu(x) + x J'_nu(x) is evaluated as the identical
a J_nu(x) - x J_{nu+1}(x), which forms no J'.

Counting.  D = J_nu (a - y) with y = x J_{nu+1} / J_nu, and the Mittag-Leffler
expansion y = sum_k 2 x^2 / (j_{nu,k}^2 - x^2) (Watson, ch. 15) makes y
strictly increasing between consecutive zeros j_{nu,k} of J_nu, from 0 (on
(0, j_{nu,1})) or -inf up to +inf.  So each (j_{nu,n-1}, j_{nu,n}), with
j_{nu,0} = 0, holds exactly one zero omega_n, and a - y > 0 before it.  Sturm
comparison on sqrt(x) J_nu puts the j_{nu,k} at least pi apart for |nu| >= 1/2
and pi / sqrt(1 + 1/pi^2) = 2.9971 apart for |nu| < 1/2 (where j_{nu,1} >=
pi/2), so a scan step of 191/64 = 2.984375, 0.0128 short of that, straddles
at most one j_{nu,k}.  It then holds one zero exactly when D changes sign
across it, and two exactly when D keeps its sign, J_nu changes sign and sign
D = sign J_nu (a - y > 0) at its left end; such a step is halved.  The same
expansion gives the Rayleigh sums sigma_1 = sum_k j_{nu,k}^-2 = 1 / (4 (nu +
1)) and sigma_3 = sum_k j_{nu,k}^-6 = 1 / (32 (nu + 1)^3 (nu + 2) (nu + 3))
(Ismail and Muldoon), and three proved bounds (``_scan_bounds``) place the
scan.  It starts at sqrt(L) (1 - 1e-9), L = 4a (nu + 1) / (a + 2) < omega_1^2
(Ismail), where D > 0 and J_nu > 0, or at x = 60, where its last step ends.
Below j_{nu,1} each term of y exceeds 2 x^2 / j_{nu,k}^2, so y > x^2 / (2 (nu
+ 1)) and omega_1^2 <= 2a (nu + 1): until a sign change no step ends past
sqrt(2a (nu + 1)) (1 + 1e-9), where the scan fails at once, as the ratio
missed omega_1 (2 nu overflows past nu = 9e307; for a subnormal a the bound
is not used, as a - x r rounds to 0 there).  And j_{nu,1}^-6 < sigma_3, so
(omega_1, sigma_3^(-1/6) (1 - 1e-6)) holds no zero of D or J_nu: after
omega_1's step a step that starts below that bound ends SCAN_STEP past it,
still straddling at most one j_{nu,k}, with no call spent in between.  So
the scan alone proves the count: it runs until it holds ``count`` steps with
a sign change, or fails at x = 60, before any zero is refined.  A table that
may not fit below x = 60, ``count`` >= floor((60 - jump) / pi), is first
counted by one continued fraction at x = 60 (for nu < 60, as J_nu has no zero
below 60 past it, and a normal a, as for the bound on omega_1): its n
negative denominators number the zeros of J_nu in (0, 60) (``_j_ratio``), so
omega_1, ..., omega_n lie below 60, and omega_{n+1} does exactly where 60 r >
a, r = J_{nu+1}(60) / J_nu(60), as a - y falls from +inf (from a for n = 0) to
a - 60 r across (j_{nu,n}, 60).  Near a zero of J_nu at 60, n and r flip
together, so n + [60 r > a] holds.  Fewer than ``count`` raise the scan's
own message with that number, after one call in place of about 20; more run
the scan.  The gate only decides whether to count: where it counts, the
count is the scan's.

The scan and Halley take D up to a positive factor from ``_j_ratio``'s
(s, s r) = (J_nu, J_{nu+1}) / |J_nu|.  Its s = sign J_nu errs only within
rounding of a zero of J_nu, where r flips with it and keeps sign D right (at
2,100 doubles within 3 ulp of such zeros s erred at 50, sign D at none of
6,300 checks, a in {0.01, 1, 100}); so the halving rule can miss only a Dini
zero within about (x + 8) eps of j_{nu,k}, which needs a >~ 1e14, far above
the 2.8e6 past which the certificate fails.  For a subnormal a, which a - x r
cannot resolve, Halley takes ``_j_pair`` (doubles, for x <= 3): else a = 5e-324,
nu = -0.9999999999999999 fails at x = 3.80e-170, not omega_1 = 3.31e-170.

Refinement.  Bracket-safeguarded Halley starts where the Liouville-Green phase
of u = sqrt(x) J_nu predicts the zero (DLMF 2.7, 10.18).  u'' + q u = 0, q = 1 -
(nu^2 - 1/4) / x^2, and the modified Pruefer angle theta (u = R q^(-1/4) sin
theta, u' = R q^(1/4) cos theta) has theta' = sqrt q + (q' / 4q) sin 2 theta
exactly; at a scan end u'/u = (nu + 1/2) / x - r gives theta mod pi, and D = 0
exactly where theta = pi/2 + atan((a - nu - 1/2) / (x sqrt q)) mod pi.  From
the end nearer a linear first guess, Newton solves that with int sqrt q in
closed form (an acos, or an asinh for |nu| < 1/2) and the integral of the
correction by Simpson's rule, theta at the middle taken from the closed form
plus the trapezoid on the correction; a second step follows one that moved x
by more than 1e-3 x.  Below x = 1/2 or x^2 = 1.2 (nu^2 - 1/4) the model is poor
(a = 1.3e-55: 0.64 for a zero at 6.1e-28): where the step's low end lies there,
a Newton step on theta from the high end gives the first guess, and the model
declines where the high end lies there too, where x reaches x^2 <= 1.05 (nu^2 -
1/4), and where the prediction lands outside the step.  Against the certified
zeros of the zero-tables and verdict-grid benchmark inputs (seeds 1, 4 and 901,
1,698 zeros) the 1,626 predictions have median error 6.2e-9 relative, and 92%
start within 1e-6 x, where one Halley call ends the iteration.  Where the model
declines in the first step, if J_nu keeps its sign across it, below j_{nu,1},
Halley starts at the root of the quintic Hermite interpolant of Z = x J_nu /
J_{nu+1} matched to Z, Z' and Z'' at both ends, from the Riccati equation Z' =
((2 nu + 2) Z - Z^2) / x - x: Z is smooth below j_{nu,1}, as J_{nu+1} > 0
there, and D = 0 where Z = x^2 / a (67 starts on those inputs, median error
1.9e-9, 96% within 1e-6 x).  Else, and for a subnormal a, Halley starts at the
middle.  Only the start moves; every result keeps its bits.  D' is
``_dprime_from_pair``'s, as in the finish, and D'' comes from the Bessel
equation; Halley's c = 1 - D D'' / (2 D'^2) is taken in (0.5, 2) only, else
Newton's step.  It stops at a Newton step or bracket of one ulp of x, or
after a step <= 1e-6 x that shrank 1000-fold (steps of x / (nu + 2), where D ~
x^(nu+2), do not; a predicted start is a step of its distance to the nearer
end), leaving the rest to the finish; a rejected step bisects, geometrically
across more than a factor 4.  The finish takes ``_d_lead``, one
fixed-point pass, at x: D / lead = num / den exactly, num = an s0 + 2 ad s1 and
den = ad 2^prec for a = an / ad, so d = num / den rounds once.  Up to two
Newton steps on d move x, bounded by the scan step, not by the Newton bracket,
whose ends took sign D from rounded values.  Against 40-digit mpmath the worst
of 1,690 zeros (200 random tables and the zero-tables benchmark inputs) is
0.4998 ulp.

Certificate.  The bracket [x - 0.49 tol, x + 0.49 tol] must round to width
<= tol around x, inside x > 0 (a tol below the double spacing at x collapses
it, a width failure), D must change sign across it, and at x |D'| > 1e-8 scale
and |D| <= 1e-10 scale, scale = |a J_nu| + |x J_{nu+1}|; else NumericFailure.
The sign change is proved from the finish's own values at x by an interval
Newton test (Moore, Interval Analysis, 1966; ``_interval_newton``): D' keeps
its sign across the bracket and carries D past 0 inside it.  Where that test
does not decide, ``_d_lead``'s integer numerators at the two ends must have
opposite signs (lead, den > 0).  Where a finish step moves x to x', x' needs no
pass if x lies in its bracket and, with E = eta + err of that test: the test
passes; |d + dp dx| + E |dx| is under half the residual gate and |dp| - E over
twice the derivative gate; and 2 E |dx| / (0.49 tol) <= scale / 4, as |scale'|
<= 2 eta / delta.  All of it is in lead units, where an integer's sign neither
rounds nor underflows and no value sees lead: J_400(40) = 1.5e-349, yet
D_(2,400)'s first zero is certified.  The reported ``residual`` is
|num lead / den| at x, with ``_lead`` in libmp, rounded once: true units, 0.0
only where it underflows.  It is formed on first read (``ZeroEntry``), or by
the residual gate's failure message, so a caller that never reads it pays no
``_lead``.  No certificate or residual depends on whether x <= 3.
"""

from __future__ import annotations

import math
import operator
import sys
from functools import cached_property

from .bessel import X_MAX, _check_x, _j_pair, _j_ratio, _j_sums, _lead, _libmp
from .errors import DomainError, NumericFailure
from .families import DiniFamily, _Record, _set

SCAN_STEP = 2.984375  # 191 / 64, below the 2.9971 spacing of J_nu's zeros
MAX_ZEROS = 18
DEFAULT_TOL = 1e-12
RESIDUAL_REL = 1e-10


class ZeroEntry(_Record):
    """One localized zero with its certified bracket and residual.

    ``_finish`` holds the finish's exact values at ``zero`` (num, den's bit
    length, nu, wp), or (a, nu) where the pass before certified it.  The first
    read forms ``residual`` from them, after a pass at ``zero`` in that case,
    with the same bits either way, and keeps it: a caller that never reads it,
    such as ``certify``, pays neither.  A concurrent first read at worst forms
    it twice.  ``_finish`` takes no part in equality, hash or repr."""

    def __init__(self, n: int, zero: float, lo: float, hi: float, _finish: tuple) -> None:
        _set(self, "__dict__", {"n": n, "zero": zero, "lo": lo, "hi": hi,
                                "_finish": _finish, "_key": (n, zero, lo, hi)})

    @cached_property
    def residual(self) -> float:
        """|num lead / den| at zero, with ``_lead`` in libmp, rounded once."""
        finish = self._finish
        if len(finish) == 2:  # (a, nu): no pass was made at zero
            num, den, _, _, wp = _d_lead(*finish, self.zero)
            finish = (num, den.bit_length(), finish[1], wp)
        num, den_bits, nu, wp = finish
        lm = _libmp()
        return abs(lm.to_float(lm.mpf_mul(lm.from_man_exp(num, 1 - den_bits),
                                          _lead(nu, self.zero, wp), 53, lm.round_nearest)))


class ZeroTable(_Record):
    """Ordered positive zeros omega_{a,nu,n}; immutable after construction."""

    def __init__(self, family: DiniFamily, tol: float, entries: tuple[ZeroEntry, ...]) -> None:
        _set(self, "__dict__", {"family": family, "tol": tol, "entries": entries,
                                "_key": (family, tol, entries)})

    @property
    def zeros(self) -> tuple[float, ...]:
        return tuple(e.zero for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def _dprime_from_pair(a: float, nu: float, x: float, j0: float, j1: float) -> float:
    return (a * nu / x - x) * j0 + (nu - a) * j1


def dini_eval(family: DiniFamily, x: float) -> float:
    """D_{a,nu}(x) = a J_nu(x) - x J_{nu+1}(x) for x in (0, 60]."""
    x = _check_x(x)
    j0, j1 = _j_pair(family.nu, x)
    return family.a * j0 - x * j1


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
                     j0: float, j1: float, *pairs: tuple[float, float]) -> bool:
    """True if D changes sign across [blo, bhi], blo < x < bhi, proved from the
    finish's values at x in lead units for each (d, dp) of ``pairs``: d = D /
    lead and j0, j1 rounded once, dp = D' / lead formed from them.  (J_nu,
    J'_nu) solves Y' = A Y with A = [[0, 1], [nu^2 / xi^2 - 1, -1 / xi]]
    (DLMF 10.2.1), and |A| <= L =
    1 + nu^2 / blo^2 + 1 / blo on the bracket in the infinity-norm, so by
    Gronwall |J_nu|, |J'_nu| <= m = |Y(x)| e^(L delta) there, delta = max|xi - x|.
    The same equation gives D'' = -((a - nu)(1 - nu^2 / xi^2) + 1 + nu^2 / xi^2)
    J_nu + (nu^2 / xi - xi - (a - nu) / xi) J'_nu, so |D'(xi) - D'(x)| <= eta =
    delta max|D''|.  Where |dp| exceeds eta and its rounding, D' keeps dp's sign
    on the bracket, and D moves from D(x) by at least (|dp| - err - eta) h
    towards either end, h = min|end - x|: past 0 when that exceeds |d| and its
    rounding.  err, 32 eps times the sum of dp's terms, covers dp's rounding
    and that of this test's own sums of non-negative terms.  Any inf or nan
    fails the comparison, which then leaves the decision to the end check.
    The bound (h, m, eta, err) depends on no pair: it is formed once for all."""
    h, dx = min(x - blo, bhi - x), max(x - blo, bhi - x)
    q, g = (nu / blo) * (nu / blo), abs(a - nu)
    t = (1.0 + q + 1.0 / blo) * dx  # L delta; exp overflows past 709.78
    m = max(abs(j0), abs(nu / x * j0) + abs(j1)) * (math.exp(t) if t < 709.0 else math.inf)
    eta = dx * m * ((g + 1.0) * (1.0 + q) + q * blo + bhi + g / blo)
    err = 32.0 * sys.float_info.epsilon * ((abs(a * nu / x) + x) * abs(j0) + g * abs(j1))
    for d, dp in pairs:
        if not (math.isfinite(dp) and abs(d) + math.ulp(d) < (abs(dp) - err - eta) * h):
            return False
    return True


def _phase_start(a: float, nu: float, lo: float, hi: float, jlo: tuple[float, float],
                 jhi: tuple[float, float]) -> float | None:
    """Halley's start in the scan step (lo, hi) from the Liouville-Green phase,
    as the module docstring describes, or None; jlo and jhi as in ``_refine``."""
    c2, h, g = nu * nu - 0.25, nu + 0.5, a - nu - 0.5
    if not (hi >= 0.5 and hi * hi > 1.2 * c2):
        return None
    # At an end, x sqrt q = sqrt(x^2 - c2) and theta - theta* is -atan2(...) mod pi
    phi, rhi = math.sqrt(hi * hi - c2), hi * jhi[0] * jhi[1]  # rhi = x J_{nu+1} / J_nu
    down = -math.atan2(phi * (a - rhi), phi * phi - g * (h - rhi)) % math.pi
    # pe = theta(e) - pi/2 on the branch that meets theta* - pi/2 = atan(g / (x sqrt q))
    e, pe, pxe = hi, math.atan(g / phi) + down, phi
    if lo >= 0.5 and lo * lo > 1.2 * c2:
        plo, rlo = math.sqrt(lo * lo - c2), lo * jlo[0] * jlo[1]
        up = math.atan2(plo * (a - rlo), plo * plo - g * (h - rlo)) % math.pi
        x = lo + (hi - lo) * up / (up + down)
        if x - lo <= hi - x:
            e, pe, pxe = lo, math.atan(g / plo) - up, plo
    else:  # the model holds near hi only: a Newton step on theta from there
        x = hi - down * hi / phi
    if not (lo < x < hi and x * x > 1.05 * c2):
        return None
    # int sqrt q = sqrt(t^2 - c2) - rc acos(rc / t), or rc asinh(rc / t) for c2 < 0;
    # f(t) = -(q' / 4q)(t), so theta' = sqrt q + f(t) sin 2 (theta(t) - pi/2)
    rc, arc = math.sqrt(abs(c2)), math.acos if c2 > 0.0 else math.asinh
    se = pxe - rc * arc(rc / e)
    fe = -c2 / (2.0 * e * pxe * pxe) * math.sin(2.0 * pe)
    for _ in range(2):
        m, px = 0.5 * (e + x), math.sqrt(x * x - c2)
        pm = math.sqrt(m * m - c2)
        fm, i = -c2 / (2.0 * m * pm * pm), math.atan(g / px) - pe  # i = theta(x) - theta(e)
        # theta(m) - pi/2 from the exact integral and the trapezoid on the correction
        tm = pe + pm - rc * arc(rc / m) - se
        tm += 0.25 * (x - e) * (fe + fm * math.sin(2.0 * tm))
        # at x, theta - pi/2 = atan(g / px), so sin 2 (theta - pi/2) = 2 g px / (px^2 + g^2)
        w = px * (px * px + g * g)
        fx = -c2 * g / (x * w)
        # Newton on int theta' = i, the correction by Simpson's rule
        simpson = (x - e) / 6.0 * (fe + 4.0 * fm * math.sin(2.0 * tm) + fx)
        dx = (px - rc * arc(rc / x) - se + simpson - i) / (px / x + fx + g * x / w)
        if not (lo < (x := x - dx) < hi and x * x > 1.05 * c2):
            return None
        if abs(dx) <= 1e-3 * x:
            break
    return x


def _hermite_start(a: float, nu: float, lo: float, hi: float, jlo: tuple[float, float],
                   jhi: tuple[float, float]) -> float | None:
    """Halley's start in the first scan step (lo, hi) where J_nu keeps its sign,
    from the quintic Hermite interpolant of Z = x J_nu / J_{nu+1}, as the module
    docstring describes, or None; jlo and jhi as in ``_refine``."""
    h, v, ends = hi - lo, 2.0 * nu + 1.0, []
    for x, (s, sr) in ((lo, jlo), (hi, jhi)):
        if not s * sr > 0.0:  # r = J_{nu+1} / J_nu underflowed
            return None
        z = x / (s * sr)
        z1 = ((v + 1.0) * z - z * z) / x - x  # Z' and Z'' from the Riccati equation
        ends += [z, z1 * h, ((v - 2.0 * z) * z1 / x - 2.0) * h * h]
    p0, d0, e0, p1, d1, e1 = ends
    # Z(lo + h s) ~ p0 + d0 s + e0 s^2 / 2 + c3 s^3 + c4 s^4 + c5 s^5, matching
    # Z, Z' and Z'' at both ends; D = 0 where Z = x^2 / a, found by Newton in s
    c3 = 10.0 * (p1 - p0) - 6.0 * d0 - 4.0 * d1 - 1.5 * e0 + 0.5 * e1
    c4 = 15.0 * (p0 - p1) + 8.0 * d0 + 7.0 * d1 + 1.5 * e0 - e1
    c5 = 6.0 * (p1 - p0) - 3.0 * (d0 + d1) - 0.5 * (e0 - e1)
    f0, f1 = p0 - lo * lo / a, p1 - hi * hi / a
    if not f0 * f1 < 0.0:
        return None
    s = f0 / (f0 - f1)
    for _ in range(8):
        x = lo + h * s
        f = ((((c5 * s + c4) * s + c3) * s + 0.5 * e0) * s + d0) * s + p0 - x * x / a
        fp = (((5.0 * c5 * s + 4.0 * c4) * s + 3.0 * c3) * s + e0) * s + d0 - 2.0 * h * x / a
        if fp == 0.0:
            return None
        s -= (ds := f / fp)
        if abs(ds) <= 1e-10:
            break
    x = lo + h * s
    return x if lo < x < hi else None


def _refine(family: DiniFamily, n: int, lo: float, hi: float, jlo: tuple[float, float],
            jhi: tuple[float, float], tol: float) -> ZeroEntry:
    """Zero number n in the scan step (lo, hi), where ``_j_ratio`` gave jlo and
    jhi, refined and certified as the module docstring describes: Halley from
    ``_phase_start``'s prediction, else in the first step from
    ``_hermite_start``'s, else from the middle."""
    a, nu = family.a, family.nu
    slo, step_lo, step_hi = math.copysign(1.0, a * jlo[0] - lo * jlo[1]), lo, hi
    by_pair = a < sys.float_info.min  # a - x r ~ a near the zero
    y = None
    if not by_pair:
        y = _phase_start(a, nu, lo, hi, jlo, jhi)
        if y is None and n == 1 and jlo[0] == jhi[0]:  # the first step, below j_{nu,1}
            y = _hermite_start(a, nu, lo, hi, jlo, jhi)
    x, prev = (y, min(y - lo, hi - y)) if y is not None else (0.5 * (lo + hi), math.inf)
    g = a - nu
    for _ in range(100):
        j0, j1 = _j_pair(nu, x) if by_pair else _j_ratio(nu, x, 0)
        # Halley on D up to a positive factor; D'' from the Bessel equation
        d, dp, q = a * j0 - x * j1, _dprime_from_pair(a, nu, x, j0, j1), (nu / x) * (nu / x)
        ddp = (nu * nu / x - x - g / x) * (nu / x * j0 - j1) - (g * (1.0 - q) + 1.0 + q) * j0
        t, c = (d / dp, 1.0 - 0.5 * d / dp * ddp / dp) if dp != 0.0 else (math.inf, 0.0)
        step = t / c if 0.5 < c < 2.0 else t
        lo, hi = (x, hi) if math.copysign(1.0, d) == slo else (lo, x)
        # Tested before the safeguard, which would bisect on a converged
        # step that rounds x - step onto the endpoint x has just become.
        if min(abs(t), hi - lo) <= math.ulp(x):
            break
        x -= step
        if not lo < x < hi:  # bisect, geometrically across decades; step = inf resets prev
            x, step = math.sqrt(lo) * math.sqrt(hi) if hi > 4.0 * lo else 0.5 * (lo + hi), math.inf
        elif abs(step) <= 1e-6 * x and abs(step) <= 1e-3 * prev:
            break  # converged: the finish's exact step takes the last ulp or so
        prev = abs(step)
    else:
        raise NumericFailure(f"Newton did not converge near x={x!r}; zero {n} "
                             "could not be refined")

    for i in range(3):
        num, den, j0, j1, wp = _d_lead(a, nu, x)
        try:
            d = num / den  # D / lead, rounded once
        except OverflowError:  # a near the top of the double range
            raise NumericFailure(f"D / lead overflows the double range at x={x!r}; "
                                 f"zero {n} could not be refined") from None
        dp, scale = _dprime_from_pair(a, nu, x, j0, j1), abs(a * j0) + abs(x * j1)
        x_new = x - d / dp if dp != 0.0 else x
        if i == 2 or x_new == x or not step_lo < x_new < step_hi:
            break
        blo, bhi, dx, w = x_new - 0.49 * tol, x_new + 0.49 * tol, x_new - x, 0.49 * tol
        res = abs(d + dp * dx) + math.ulp(d) + math.ulp(dp * dx)
        p = min(min(scale * w / 8.0, 0.5 * RESIDUAL_REL * scale - res) / abs(dx),
                abs(dp) - 2e-8 * scale)
        if 0.0 < blo < x < bhi and bhi - blo <= tol and p > 0.0 and _interval_newton(
                a, nu, x, blo, bhi, j0, j1, (d, dp), (0.0, p)):  # (0.0, p): E < p
            return ZeroEntry(n, x_new, blo, bhi, (a, nu))
        x = x_new

    blo, bhi = x - 0.49 * tol, x + 0.49 * tol
    if not (0.0 < blo < x < bhi and bhi - blo <= tol):
        raise NumericFailure(
            f"zero {n} near x={x!r} could not be refined to a bracket of width "
            f"<= {tol:g} inside x > 0")
    if not (_interval_newton(a, nu, x, blo, bhi, j0, j1, (d, dp))
            or _d_lead(a, nu, blo)[0] * _d_lead(a, nu, bhi)[0] < 0):
        raise NumericFailure(
            f"bracket [{blo!r}, {bhi!r}] has no sign change; zero {n} could not "
            "be refined to a certified zero")
    entry = ZeroEntry(n, x, blo, bhi, (num, den.bit_length(), nu, wp))
    if abs(dp) <= 1e-8 * scale:
        raise NumericFailure(
            f"derivative vanishes at refined zero x={x!r}; zero may not be simple")
    if abs(d) > RESIDUAL_REL * scale:
        raise NumericFailure(
            f"residual {entry.residual:.3e} exceeds {RESIDUAL_REL:g} * scale at x={x!r}")
    return entry


def _check_count(n, name: str, low: int) -> int:
    """``n`` as an int in [low, MAX_ZEROS]: an int, or a float of integer value;
    anything else, 2.5, inf or nan among them, raises DomainError."""
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, not {n!r}") from None
    if not low <= n <= MAX_ZEROS:
        raise DomainError(f"{name} must lie in [{low}, {MAX_ZEROS}]")
    return n


def _scan_bounds(a: float, nu: float) -> tuple[float, float, float]:
    """(start, end, jump): start < omega_1 <= end and jump <= j_{nu,1}, as the
    module docstring proves, with margins far above their rounding, formed so
    that none overflows or loses bits to underflow; start, end <= X_MAX."""
    r = math.sqrt(nu + 1.0)
    start = 2.0 * math.sqrt(a) / math.sqrt(a + 2.0) * r * (1.0 - 1e-9)
    end = math.sqrt(2.0 * a) * r * (1.0 + 1e-9) if a >= sys.float_info.min else X_MAX
    jump = r * (32.0 * (nu + 2.0) * (nu + 3.0)) ** (1.0 / 6.0) * (1.0 - 1e-6)
    return min(start, X_MAX), min(end, X_MAX), jump


def _too_few(a: float, nu: float, found: int, count: int) -> NumericFailure:
    return NumericFailure(f"only {found} sign changes of D_(a={a:g},nu={nu:g}) found "
                          f"below x={X_MAX:g}, needed {count}")


def find_zeros(family: DiniFamily, count: int, tol: float = DEFAULT_TOL) -> ZeroTable:
    """First ``count`` positive zeros of D_{a,nu}, each with a bracket of width
    <= tol across which D changes sign and a residual |D(zero)| <= 1e-10 * scale.
    The scan proves the count first and fails, rather than truncating, if fewer
    lie below the series cap x = 60; only then are the zeros refined, n = 1, 2..."""
    count = _check_count(count, "count", 1)
    tol = float(tol)
    if not 0.0 < tol <= 0.1:
        raise DomainError("tol must lie in (0, 0.1]")

    a, nu = family.a, family.nu
    x, end, jump = _scan_bounds(a, nu)
    at_max = None  # _j_ratio(nu, X_MAX, 0), where the count forms it
    if count >= (X_MAX - jump) // math.pi and nu < X_MAX and a >= sys.float_info.min:
        below, r = _j_ratio(nu, X_MAX, 0, count=True)  # the zeros of J_nu below X_MAX
        at_max = (-1.0, -r) if below & 1 else (1.0, r)
        below += X_MAX * r > a  # and omega_{below+1}, where it lies below X_MAX
        if below < count:
            raise _too_few(a, nu, below, count)
    sx, rx = _j_ratio(nu, x, 0)
    gx = math.copysign(1.0, a * sx - x * rx)  # sign D
    steps: list[tuple] = []
    while len(steps) < count:
        if not steps and x >= end < X_MAX:  # only where the ratio missed omega_1
            raise NumericFailure(
                f"no sign changes of D_(a={a:g},nu={nu:g}) found below x={end!r}, "
                "the proved bound on omega_1: the Bessel continued fraction failed")
        if x >= X_MAX:
            raise _too_few(a, nu, len(steps), count)
        y = min(max(x, jump) + SCAN_STEP, X_MAX) if steps else min(x + SCAN_STEP, end)
        while True:
            sy, ry = at_max if y == X_MAX and at_max else _j_ratio(nu, y, 0)
            gy = math.copysign(1.0, a * sy - y * ry)
            # Two zeros: omega_n, j_{nu,n} and omega_{n+1} all lie in (x, y).
            if not (gx == gy == sx != sy):  # sx = sign J_nu
                break
            y = 0.5 * (x + y)
        if gx != gy:
            steps.append((x, y, (sx, rx), (sy, ry)))
        x, sx, rx, gx = y, sy, ry, gy
    # A list: under CPython 3.11 a generator here left a block per table for the
    # full garbage collection, +2 MiB peak RSS over 20 s of the zero-tables bench.
    return ZeroTable(family, tol, tuple([_refine(family, n, *step, tol)
                                         for n, step in enumerate(steps, 1)]))
