"""Certification of w_{a,nu}: starlike with all derivatives close-to-convex.

By the Shah-Trimble characterization, for an entire function
z * prod(1 - z/z_n) whose zeros z_n share one argument and have modulus
above 1, starlikeness on the unit disk together with close-to-convexity
of every derivative holds exactly when sum 1/(|z_n| - 1) <= 1.  For
w_{a,nu} the zeros are z_n = omega_n^2, so the hypothesis reads
omega_1 > 1 and the sum is S(a,nu).

The decision is made on the closed-form sum (exact up to Bessel
evaluation error) while the truncated sum with its tail bound is
attached as an independent enclosure.  Re(z w'/w) at its extremal point
z = 0.99 and a product-versus-series factorization check on the ring
|z| = 0.9 provide corroborating numerical evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bessel import _j_ratio, _w_sum
from .criterion import BOUNDARY_BAND, SumCriterion, _check_n_terms, _criterion, _tail_mass, sum_closed
from .errors import NumericFailure, PoleError
from .families import DiniFamily
from .zeros import ZeroTable, find_zeros

VERDICT_CERTIFIED = "certified"
VERDICT_REFUTED = "refuted"
VERDICT_INAPPLICABLE = "inapplicable"
VERDICT_BOUNDARY = "boundary"


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
    """Certification verdict with margins and corroborating evidence."""

    family: DiniFamily
    verdict: str
    sum_criterion: SumCriterion | None
    smallest_zero_margin: float
    min_re_starlike: float | None
    zero_at_unit_radius: bool = False


# The upper half of the ring |z| = 0.9, 0.9 e^(i pi j / 48) for j <= 48: the
# series has real coefficients, so the lower half mirrors it.
_RING = 0.9 * np.exp(1j * (np.pi * np.arange(49) / 48))
_RING.flags.writeable = False


def starlike_sample(family: DiniFamily) -> float:
    """Minimum of Re(z w'(z) / w(z)) over |z| <= 0.99: its value at z = 0.99.

    w = z prod(1 - z/omega_n^2) with every omega_n real (a > 0), so
    z w'/w = 1 - sum z / (omega_n^2 - z), and on |z| <= r < c,
    Re z / (c - z) <= r / (c - r) with equality at z = r.  The minimum is
    therefore 1 - S(sqrt 0.99), S(x) = sum x^2 / (omega_n^2 - x^2), taken at
    the one point z = 0.99, provided omega_1^2 > 0.99.  On the real axis w > 0 on (0, omega_1^2) and w < 0 on
    (omega_1^2, omega_2^2), omega_2^2 > j_{0,1}^2 ~ 5.78, so the sign of
    w(0.99) decides that without a zero.
    """
    w = _w_sum(family.a, family.nu, 0.99, derivative=False).real
    if not w > 0.0:
        raise NumericFailure(f"w(0.99) = {w!r} <= 0: omega_1^2 <= 0.99, so a zero "
                             "of w lies in the disk |z| <= 0.99")
    return 0.99 * _w_sum(family.a, family.nu, 0.99, derivative=True).real / w


def factorization_check(family: DiniFamily, n_zeros: int = 18,
                        table: ZeroTable | None = None) -> FactorizationCheck:
    """Compare the w series against z * prod_{n<=N} (1 - z / omega_n^2)
    on |z| <= 0.9.

    Both the difference and the partial product are entire, so by the
    maximum modulus principle their maxima over the disk lie on the ring
    |z| = 0.9, and only its 49 points ``_RING`` are evaluated.  They differ
    by the factor prod_{n>N} (1 - z/omega_n^2), within expm1(|z| (T - P_N))
    of 1, where T - P_N = sum_{n>N} 1/omega_n^2 exactly (T and P_N as in
    ``sum_truncated``).  So the deviation must stay below
    C expm1(0.9 (T - P_N)), C the max modulus of the partial product on the
    ring; the first-order C 0.9 (T - P_N) would not hold.
    """
    n_zeros = _check_n_terms(n_zeros)
    if table is None or len(table) < n_zeros:
        table = find_zeros(family, max(n_zeros, 1))
    zs = np.array(table.zeros[:n_zeros])
    w = _w_sum(family.a, family.nu, _RING, derivative=False)
    prod = _RING * np.prod(1.0 - _RING[:, None] / (zs * zs), axis=-1)
    deviation = float(np.max(np.abs(w - prod)))
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
                          None, margin, None, zero_at_unit_radius=s is None)

    verdict = (VERDICT_BOUNDARY if abs(s - 1.0) <= BOUNDARY_BAND
               else VERDICT_CERTIFIED if s <= 1.0 else VERDICT_REFUTED)
    # 1 - S(sqrt 0.99) > 0 wherever S(1) <= 1, as S(r) grows with r: a
    # certified verdict with a minimum at or below 0 contradicts itself.
    min_re = starlike_sample(family)
    if verdict == VERDICT_CERTIFIED and min_re <= 0.0:
        raise NumericFailure(f"closed sum S = {s!r} certifies, but the independent w series "
                             f"gives min Re(z w'/w) = {min_re!r} <= 0 on |z| <= 0.99")
    return CertReport(family, verdict, _criterion(family, s, zero_count, table), margin, min_re)
