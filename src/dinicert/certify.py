"""Certification of w_{a,nu}: starlike with all derivatives close-to-convex.

By the Shah-Trimble characterization, for an entire function
z * prod(1 - z/z_n) whose zeros z_n share one argument and have modulus
above 1, starlikeness on the unit disk together with close-to-convexity
of every derivative holds exactly when sum 1/(|z_n| - 1) <= 1.  For
w_{a,nu} the zeros are z_n = omega_n^2, so the hypothesis reads
omega_1 > 1 and the sum is S(a,nu).

The decision is made on the closed-form sum (exact up to Bessel
evaluation error) while the truncated sum with its tail bound is
attached as an independent enclosure; disk sampling of Re(z w'/w) and a
product-versus-series factorization check provide corroborating
numerical evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bessel import _j_ratio, _unit_roots, _w_polar
from .criterion import BOUNDARY_BAND, SumCriterion, _check_n_terms, _criterion, _tail_mass, sum_closed
from .errors import NumericFailure, PoleError
from .families import DiniFamily
from .zeros import ZeroTable, find_zeros

GRID_RADII = 64
GRID_ANGLES = 720
GRID_MAX_RADIUS = 0.99

VERDICT_CERTIFIED = "certified"
VERDICT_REFUTED = "refuted"
VERDICT_INAPPLICABLE = "inapplicable"
VERDICT_BOUNDARY = "boundary"


@dataclass(frozen=True)
class GridSpec:
    radii: int
    angles: int
    max_radius: float


@dataclass(frozen=True)
class FactorizationCheck:
    """Max deviation between the w series and its truncated zero product."""

    n_zeros: int
    max_deviation: float
    envelope: float

    @property
    def within_envelope(self) -> bool:
        return self.max_deviation <= self.envelope


@dataclass(frozen=True)
class CertReport:
    """Certification verdict with margins and sampling evidence."""

    family: DiniFamily
    verdict: str
    sum_criterion: SumCriterion | None
    smallest_zero_margin: float
    min_re_starlike: float | None
    grid: GridSpec
    zero_at_unit_radius: bool = False


def default_radii(count: int = GRID_RADII, max_radius: float = GRID_MAX_RADIUS) -> list[float]:
    return [max_radius * (k + 1) / count for k in range(count)]


@cache
def _polar_grid(count: int, max_radius: float, m: int) -> tuple[tuple[float, ...], np.ndarray]:
    """``default_radii(count, max_radius)`` and the half grid r e^(2 pi i j / m),
    j <= m / 2 (m even), on them: built on first use, once per process, and
    read-only.  Callers that never sample the disk never build it."""
    radii = tuple(default_radii(count, max_radius))
    z = np.asarray(radii)[:, None] * _unit_roots(m)[:m // 2 + 1]
    z.flags.writeable = False
    return radii, z


def starlike_sample(family: DiniFamily) -> float:
    """Minimum of Re(z w'(z) / w(z)) over certify's 64 x 720 polar grid.

    The series has real coefficients, so the functional is symmetric in
    theta -> -theta; only theta in [0, pi] is evaluated, which covers the
    full grid's minimum exactly.
    """
    radii, z = _polar_grid(GRID_RADII, GRID_MAX_RADIUS, GRID_ANGLES)
    p, q, x, y = _w_polar(family.a, family.nu, radii, GRID_ANGLES, z.shape[1])
    x *= p
    x += np.multiply(y, q, out=y)  # Re(z w' conj(w))
    p *= p
    p += np.multiply(q, q, out=q)  # |w|^2
    i = np.unravel_index(int(np.argmin(p)), p.shape)
    if math.sqrt(p[i]) < 1e-14:
        raise NumericFailure(f"grid fault: |w| below 1e-14 at z={z[i]!r}; a zero meets the grid")
    x /= p
    return float(x.min())


def factorization_check(family: DiniFamily, n_zeros: int = 18,
                        table: ZeroTable | None = None) -> FactorizationCheck:
    """Compare the w series against z * prod_{n<=N} (1 - z / omega_n^2)
    on a 16 x 96 polar grid on |z| <= 0.9.

    They differ by the factor prod_{n>N} (1 - z/omega_n^2), within
    expm1(|z| (T - P_N)) of 1, where T - P_N = sum_{n>N} 1/omega_n^2 exactly
    (T and P_N as in ``sum_truncated``).  So the deviation must stay below
    C expm1(0.9 (T - P_N)), C the max modulus of the partial product on the
    grid; the first-order C 0.9 (T - P_N) would not hold.
    """
    n_zeros = _check_n_terms(n_zeros)
    if table is None or len(table) < n_zeros:
        table = find_zeros(family, max(n_zeros, 1))
    zs = np.array(table.zeros[:n_zeros])
    radii, z = _polar_grid(16, 0.9, 96)
    p, q = _w_polar(family.a, family.nu, radii, 96, z.shape[1], derivative=False)
    prod = z * np.prod(1.0 - z[..., None] / (zs * zs), axis=-1)
    deviation = float(np.max(np.hypot(p - prod.real, q - prod.imag)))
    tail_mass = _tail_mass(family, table.zeros[:n_zeros])
    envelope = float(np.max(np.abs(prod))) * math.expm1(0.9 * tail_mass)
    return FactorizationCheck(n_zeros, deviation, envelope)


def certify(family: DiniFamily, zero_count: int = 12) -> CertReport:
    """Shah-Trimble verdict for w_{a,nu} with corroborating evidence.

    certified    omega_1 > 1 and S <= 1
    refuted      omega_1 > 1 and S > 1
    inapplicable omega_1 <= 1 (the modulus hypothesis fails; no sum)
    boundary     |S - 1| <= 1e-9, or a Dini zero sits at radius 1

    The modulus hypothesis needs no zero: D > 0 on (0, omega_1), and D < 0 on
    [j_{nu,1}, j_{nu+1,1}] (there J_nu <= 0 < J_{nu+1}, by interlacing), so
    omega_2 > j_{nu+1,1} > j_{0,1} ~ 2.405 and omega_1 <= 1 exactly when
    D(1) <= 0.  The recurrence gives D(1) = J_{nu+1}(1) Delta, J_{nu+1}(1) > 0,
    Delta = a (2 nu + 2 - rho) - 1, rho = J_{nu+2}(1) / J_{nu+1}(1): Delta decides.
    """
    zero_count = _check_n_terms(zero_count)
    grid = GridSpec(GRID_RADII, GRID_ANGLES, GRID_MAX_RADIUS)

    # A Dini zero numerically at radius 1 makes the criterion ill-posed;
    # decide that first so the verdict does not hinge on which side of 1
    # the refined zero happens to round to.
    try:
        s = sum_closed(family)
    except PoleError:
        s = None
    a, nu = family.a, family.nu
    no_sum = s is None or a * (2.0 * nu + 2.0 - _j_ratio(nu)[1]) - 1.0 <= 0.0
    table = find_zeros(family, 1 if no_sum else max(zero_count, 1))
    margin = table.entries[0].zero - 1.0
    if no_sum:
        return CertReport(family, VERDICT_BOUNDARY if s is None else VERDICT_INAPPLICABLE,
                          None, margin, None, grid, zero_at_unit_radius=s is None)

    verdict = (VERDICT_BOUNDARY if abs(s - 1.0) <= BOUNDARY_BAND
               else VERDICT_CERTIFIED if s <= 1.0 else VERDICT_REFUTED)
    return CertReport(family, verdict, _criterion(family, s, zero_count, table), margin,
                      starlike_sample(family), grid)
