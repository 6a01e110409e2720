"""Evaluation of D_{a,nu} and certified localization of its positive zeros.

D_{a,nu}(x) = (a - nu) J_nu(x) + x J'_nu(x) is evaluated as
a J_nu(x) - x J_{nu+1}(x), which is algebraically identical and avoids
forming J' separately.  A sign-change scan with step 0.25, starting below
the Ismail bound, brackets each zero.  Bracket-safeguarded Newton from the
midpoint runs until its step or the bracket is one ulp of x, which leaves
the zero within a few ulp.  One bracket [x - 0.49 tol, x + 0.49 tol] is
then certified by a sign change, a nonvanishing derivative and a residual
check against the local scale |a J_nu| + |x J_{nu+1}|.  Zeros lie more
than 1 apart, and all gaps but the first (wider if a < nu) below 2 pi.
Whatever fails these checks, or a bracket that rounds wider than tol,
raises NumericFailure.
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
            tol: float) -> ZeroEntry:
    """Zero number n in the scan's sign bracket (lo, hi), refined and
    certified as the module docstring describes, from one _j_pair."""
    a, nu = family.a, family.nu
    slo = math.copysign(1.0, flo)
    x = 0.5 * (lo + hi)
    for _ in range(100):
        j0, j1 = _j_pair(nu, x)
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
    jl, jh = _j_pair(nu, blo), _j_pair(nu, bhi)
    dl, dh = _d_from_pair(a, blo, *jl), _d_from_pair(a, bhi, *jh)
    if dl == 0.0 or dh == 0.0 or math.copysign(1.0, dl) == math.copysign(1.0, dh):
        raise NumericFailure(
            f"bracket [{blo!r}, {bhi!r}] has no sign change; zero {n} could not "
            "be refined to a certified zero")
    scale = max(_scale(a, blo, *jl), _scale(a, bhi, *jh), _scale(a, x, j0, j1))
    if abs(dp) <= 1e-8 * scale:
        raise NumericFailure(
            f"derivative vanishes at refined zero x={x!r}; zero may not be simple")
    if abs(d) > RESIDUAL_REL * scale:
        raise NumericFailure(
            f"residual {abs(d):.3e} exceeds {RESIDUAL_REL:g} * scale at x={x!r}")
    return ZeroEntry(n, x, blo, bhi, abs(d))


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
    fx = _d_from_pair(a, x, *_j_pair(nu, x))
    while len(entries) < count:
        y = x + SCAN_STEP
        if y > X_MAX:
            raise NumericFailure(
                f"only {len(entries)} sign changes of D_(a={a:g},nu={nu:g}) found "
                f"below x={X_MAX:g}, needed {count}")
        fy = _d_from_pair(a, y, *_j_pair(nu, y))
        if math.copysign(1.0, fx) != math.copysign(1.0, fy):
            entries.append(_refine(family, len(entries) + 1, x, y, fx, tol))
            # Consecutive zeros are more than 1 apart; skip dead ground.
            x = entries[-1].zero + 0.75
            fx = _d_from_pair(a, x, *_j_pair(nu, x))
        else:
            x, fx = y, fy

    # Every gap exceeds 1, which the 0.75 skip relies on; only the first
    # may exceed 2 pi, as it does when a < nu.
    zs = [e.zero for e in entries]
    for i in range(1, len(zs)):
        gap = zs[i] - zs[i - 1]
        if not (gap > 1.0 and (i == 1 or gap < 2.0 * math.pi)):
            bounds = "(1, inf)" if i == 1 else "(1, 2*pi)"
            raise NumericFailure(
                f"zero spacing {gap:.6g} outside {bounds}; table rejected")
    return ZeroTable(family, tol, tuple(entries))
