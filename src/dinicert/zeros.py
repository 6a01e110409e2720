"""Evaluation of D_{a,nu} and certified localization of its positive zeros.

D_{a,nu}(x) = (a - nu) J_nu(x) + x J'_nu(x) is evaluated as
a J_nu(x) - x J_{nu+1}(x), which is algebraically identical and avoids
forming J' separately.  Zeros are bracketed by a sign-change scan with
step 0.25 starting below the Ismail bound, refined by bisection and a
bracket-safeguarded Newton iteration, and certified by a sign change
across the final bracket plus a residual check against the local scale
|a J_nu| + |x J_{nu+1}|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bessel import X_MAX, _check_x, _j_pair
from .errors import DomainError, NumericFailure
from .families import DiniFamily

SCAN_STEP = 0.25
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


def _scale(a: float, x: float, j0: float, j1: float) -> float:
    return abs(a * j0) + abs(x * j1)


def _refine(family: DiniFamily, n: int, lo: float, hi: float, flo: float,
            tol: float) -> ZeroEntry | None:
    """Zero number n: bisection to 1e-4, then bracket-safeguarded Newton,
    then a certified bracket of width <= tol; every value comes from the
    same _j_pair."""
    a, nu = family.a, family.nu
    slo = math.copysign(1.0, flo)

    coarse = max(tol, 1e-4)
    while hi - lo > coarse:
        mid = 0.5 * (lo + hi)
        j0, j1 = _j_pair(nu, mid)
        if math.copysign(1.0, _d_from_pair(a, mid, j0, j1)) == slo:
            lo = mid
        else:
            hi = mid

    # Newton from the midpoint, falling back to bisection when an iterate
    # leaves the bracket.
    x = 0.5 * (lo + hi)
    for _ in range(60):
        j0, j1 = _j_pair(nu, x)
        d = _d_from_pair(a, x, j0, j1)
        dp = _dprime_from_pair(a, nu, x, j0, j1)
        if math.copysign(1.0, d) == slo:
            lo = x
        else:
            hi = x
        if dp != 0.0:
            step = d / dp
            x_new = x - step
            if not (lo < x_new < hi):
                x_new = 0.5 * (lo + hi)
        else:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 0.25 * tol or hi - lo <= tol:
            x = x_new
            break
        x = x_new
    root = min(max(x, lo), hi)

    # Certify a final bracket of width <= tol around the root; if the zero
    # sits near an endpoint, try the shifted variants before giving up.
    # Fractions sum below 1 so rounding cannot push the width past tol.
    for frac_lo, frac_hi in ((0.49, 0.49), (0.2, 0.78), (0.78, 0.2)):
        blo, bhi = root - frac_lo * tol, root + frac_hi * tol
        jl = _j_pair(nu, blo)
        jh = _j_pair(nu, bhi)
        dl = _d_from_pair(a, blo, *jl)
        dh = _d_from_pair(a, bhi, *jh)
        if dl == 0.0 or dh == 0.0:
            continue
        if math.copysign(1.0, dl) != math.copysign(1.0, dh):
            j0, j1 = _j_pair(nu, root)
            resid = abs(_d_from_pair(a, root, j0, j1))
            scale = max(_scale(a, blo, *jl), _scale(a, bhi, *jh), _scale(a, root, j0, j1))
            dp = _dprime_from_pair(a, nu, root, j0, j1)
            if abs(dp) <= 1e-8 * scale:
                raise NumericFailure(
                    f"derivative vanishes at refined zero x={root!r}; "
                    "zero may not be simple")
            if resid > RESIDUAL_REL * scale:
                raise NumericFailure(
                    f"residual {resid:.3e} exceeds {RESIDUAL_REL:g} * scale at x={root!r}")
            return ZeroEntry(n, root, blo, bhi, resid)
    # Could not certify the sign change; fall back to the classic bracket.
    if hi - lo <= tol:
        j0, j1 = _j_pair(nu, root)
        resid = abs(_d_from_pair(a, root, j0, j1))
        scale = _scale(a, root, j0, j1)
        if resid <= RESIDUAL_REL * scale:
            return ZeroEntry(n, root, lo, hi, resid)
    return None


def find_zeros(family: DiniFamily, count: int, tol: float = DEFAULT_TOL) -> ZeroTable:
    """First ``count`` positive zeros of D_{a,nu}, certified.

    Each entry carries a bracket of width <= tol across which D changes
    sign and a residual |D(zero)| <= 1e-10 * scale.  Fails, rather than
    truncating silently, if fewer than ``count`` sign changes exist below
    the series range cap x = 60.
    """
    count = int(count)
    if not 1 <= count <= MAX_ZEROS:
        raise DomainError(f"count must lie in [1, {MAX_ZEROS}]")
    tol = float(tol)
    if not 0.0 < tol <= 0.1:
        raise DomainError("tol must lie in (0, 0.1]")

    a, nu = family.a, family.nu
    bound = math.sqrt(ismail_lower_bound(family))
    x = max(1e-3, 0.5 * bound)

    entries: list[ZeroEntry] = []
    j0, j1 = _j_pair(nu, x)
    fx = _d_from_pair(a, x, j0, j1)
    while len(entries) < count:
        y = x + SCAN_STEP
        if y > X_MAX:
            raise NumericFailure(
                f"only {len(entries)} sign changes of D_(a={a:g},nu={nu:g}) found "
                f"below x={X_MAX:g}, needed {count}")
        j0, j1 = _j_pair(nu, y)
        fy = _d_from_pair(a, y, j0, j1)
        if math.copysign(1.0, fx) != math.copysign(1.0, fy):
            entry = _refine(family, len(entries) + 1, x, y, fx, tol)
            if entry is None:
                raise NumericFailure(
                    f"bracket ({x:.6g}, {y:.6g}) could not be refined to a "
                    "certified zero")
            entries.append(entry)
            # Consecutive zeros are more than 1 apart; skip dead ground.
            x = entry.zero + 0.75
            j0, j1 = _j_pair(nu, x)
            fx = _d_from_pair(a, x, j0, j1)
        else:
            x, fx = y, fy

    zs = [e.zero for e in entries]
    for prev, cur in zip(zs, zs[1:]):
        gap = cur - prev
        if not (1.0 < gap < 2.0 * math.pi):
            raise NumericFailure(
                f"zero spacing {gap:.6g} outside (1, 2*pi); table rejected")
    return ZeroTable(family, tol, tuple(entries))
