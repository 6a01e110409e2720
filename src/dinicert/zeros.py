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
below omega_1, where D > 0 and J_nu > 0; its last step ends at x = 60.

Refinement.  Bracket-safeguarded Newton from the midpoint of the step runs
until its step or the bracket is one ulp of x, leaving the zero within a few
ulp.  One bracket [x - 0.49 tol, x + 0.49 tol] is then certified by a sign
change, a nonvanishing derivative and a residual check against the scale
|a J_nu| + |x J_{nu+1}|; a failed check, or a bracket that rounds wider than
tol or reaches x <= 0, raises NumericFailure.

D and D' are linear in the pair, so the scan and Newton take it only up to a
positive factor (``_j_pair_scaled``, no libmp prefactor): no sign, step or
halving sees the factor.  The certificate's pairs at x and the bracket ends
carry the prefactor, so its checks and the residual are in true units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import X_MAX, _check_x, _j_pair, _j_pair_scaled
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

    def tail_spacing(self) -> float:
        """Zero spacing assumed beyond the table by the tail bounds: the
        observed minimum, capped at pi (the McMahon asymptotic spacing);
        pi for fewer than two zeros."""
        zs = self.zeros
        return min([math.pi] + [b - a for a, b in zip(zs, zs[1:])])


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
    that no zero of w_{a,nu} lies in the closed unit disk.
    """
    return 4.0 * family.a * (family.nu + 1.0) / (family.a + 2.0)


def _refine(family: DiniFamily, n: int, lo: float, hi: float, flo: float,
            tol: float) -> ZeroEntry:
    """Zero number n in the scan's sign bracket (lo, hi), refined and
    certified as the module docstring describes."""
    a, nu = family.a, family.nu
    slo = math.copysign(1.0, flo)
    x = 0.5 * (lo + hi)
    for _ in range(100):
        j0, j1 = _j_pair_scaled(nu, x)
        d = _d_from_pair(a, x, j0, j1)
        if math.copysign(1.0, d) == slo:
            lo = x
        else:
            hi = x
        dp = _dprime_from_pair(a, nu, x, j0, j1)
        step = d / dp if dp != 0.0 else math.inf
        # Tested before the safeguard, which would bisect on a converged
        # step that rounds x - step onto the endpoint x has just become.
        if min(abs(step), hi - lo) <= math.ulp(x):
            break
        x_new = x - step
        x = x_new if lo < x_new < hi else 0.5 * (lo + hi)
    else:
        raise NumericFailure(f"Newton did not converge near x={x!r}; zero {n} "
                             "could not be refined")

    blo, bhi = x - 0.49 * tol, x + 0.49 * tol
    if not (0.0 < blo and bhi - blo <= tol):
        raise NumericFailure(
            f"zero {n} near x={x!r} could not be refined to a bracket of width "
            f"<= {tol:g} inside x > 0")
    jl, jh, jx = (_j_pair(nu, v) for v in (blo, bhi, x))
    dl, dh = _d_from_pair(a, blo, *jl), _d_from_pair(a, bhi, *jh)
    if dl == 0.0 or dh == 0.0 or math.copysign(1.0, dl) == math.copysign(1.0, dh):
        raise NumericFailure(
            f"bracket [{blo!r}, {bhi!r}] has no sign change; zero {n} could not "
            "be refined to a certified zero")
    d, dp = _d_from_pair(a, x, *jx), _dprime_from_pair(a, nu, x, *jx)
    scale = max(abs(a * j0) + abs(v * j1) for v, (j0, j1) in ((blo, jl), (bhi, jh), (x, jx)))
    if abs(dp) <= 1e-8 * scale:
        raise NumericFailure(
            f"derivative vanishes at refined zero x={x!r}; zero may not be simple")
    if abs(d) > RESIDUAL_REL * scale:
        raise NumericFailure(
            f"residual {abs(d):.3e} exceeds {RESIDUAL_REL:g} * scale at x={x!r}")
    return ZeroEntry(n, x, blo, bhi, abs(d))


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
    if x == 0.0:  # 4a(nu + 1) underflowed; the same start from factors that do not
        x = math.sqrt(a) * math.sqrt((nu + 1.0) / (a + 2.0))
    jx = _j_pair_scaled(nu, x)
    fx = _d_from_pair(a, x, *jx)
    sign = lambda v: math.copysign(1.0, v)
    entries: list[ZeroEntry] = []
    while len(entries) < count:
        if x >= X_MAX:
            raise NumericFailure(
                f"only {len(entries)} sign changes of D_(a={a:g},nu={nu:g}) found "
                f"below x={X_MAX:g}, needed {count}")
        y = min(x + SCAN_STEP, X_MAX)
        while True:
            jy = _j_pair_scaled(nu, y)
            fy = _d_from_pair(a, y, *jy)
            # Two zeros: omega_n, j_{nu,n} and omega_{n+1} all lie in (x, y).
            if not (sign(fx) == sign(fy) == sign(jx[0]) != sign(jy[0])):
                break
            y = 0.5 * (x + y)
        if sign(fx) != sign(fy):
            entries.append(_refine(family, len(entries) + 1, x, y, fx, tol))
        x, jx, fx = y, jy, fy
    return ZeroTable(family, tol, tuple(entries))
