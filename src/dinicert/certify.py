"""Certification of w_{a,nu}: starlike with all derivatives close-to-convex.

By the Shah-Trimble characterization, for an entire function
z * prod(1 - z/z_n) whose zeros z_n share one argument and have modulus
above 1, starlikeness on the unit disk together with close-to-convexity
of every derivative holds exactly when sum 1/(|z_n| - 1) <= 1.  For
w_{a,nu} the zeros are z_n = omega_n^2, so the hypothesis reads
omega_1 > 1 and the sum is S(a,nu).

The verdict is decided on the closed-form sum, from one Bessel ratio; the
truncated sum with its tail bound is an independent enclosure, and Re(z w'/w)
at its extremal point z = 0.99 and a product-versus-series factorization check
at its extremal point z = -0.9 are corroborating numerical evidence, not proof.
"""

from __future__ import annotations

import math

from .bessel import _j_ratio, _w_sums, w_eval
from .criterion import BOUNDARY_BAND, POLE_REL, SumCriterion, _criterion, _tail_mass
from .errors import NumericFailure
from .families import DiniFamily, _Record
from .zeros import ZeroTable, _check_count, find_zeros

VERDICT_CERTIFIED = "certified"
VERDICT_REFUTED = "refuted"
VERDICT_INAPPLICABLE = "inapplicable"
VERDICT_BOUNDARY = "boundary"


class FactorizationCheck(_Record):
    """Max deviation between the w series and its truncated zero product."""

    def __init__(self, n_zeros: int, max_deviation: float, envelope: float) -> None:
        self._store(locals())

    @property
    def within_envelope(self) -> bool:
        return self.max_deviation <= self.envelope


class CertReport(_Record):
    """Certification verdict with margins and corroborating evidence."""

    def __init__(self, family: DiniFamily, verdict: str, sum_criterion: SumCriterion | None,
                 smallest_zero_margin: float, min_re_starlike: float | None,
                 zero_at_unit_radius: bool = False) -> None:
        self._store(locals())


def starlike_sample(family: DiniFamily) -> float:
    """Minimum of Re(z w'(z) / w(z)) over |z| <= 0.99: its value at z = 0.99.

    w = z prod(1 - z/omega_n^2) with every omega_n real (a > 0), so
    z w'/w = 1 - sum z / (omega_n^2 - z), and on |z| <= r < c,
    Re z / (c - z) <= r / (c - r) with equality at z = r.  The minimum is
    therefore 1 - S(sqrt 0.99), S(x) = sum x^2 / (omega_n^2 - x^2), taken at
    the one point z = 0.99, provided omega_1^2 > 0.99.  On the real axis
    w > 0 on (0, omega_1^2) and w < 0 on (omega_1^2, omega_2^2),
    omega_2^2 > j_{0,1}^2 ~ 5.78, so the sign of w(0.99) decides that
    without a zero.
    """
    w, wp = _w_sums(family.a, family.nu, 0.99)
    if not w.real > 0.0:
        raise NumericFailure(f"w(0.99) = {w.real!r} <= 0: omega_1^2 <= 0.99, so a zero "
                             "of w lies in the disk |z| <= 0.99")
    return 0.99 * wp.real / w.real


def factorization_check(family: DiniFamily, n_zeros: int = 18,
                        table: ZeroTable | None = None) -> FactorizationCheck:
    """Compare the w series against p(z) = z * prod_{n<=N} (1 - z / omega_n^2)
    on |z| <= 0.9 at its extremal point z = -0.9.

    Every omega_n^2 > 0 (a > 0), so on |z| = r each factor obeys
    |1 - z/omega^2| <= 1 + r/omega^2 and |p| peaks at z = -r.  The series is
    p R, R(z) = prod_{n>N} (1 - z/omega_n^2), and R(-z) has positive Taylor
    coefficients, so |R(z) - 1| <= R(-r) - 1 <= expm1(r (T - P_N)), with
    T - P_N = sum_{n>N} 1/omega_n^2 exactly (as in ``_criterion``): the
    deviation |p| |R - 1| peaks at z = -r too, up to the rounding of the
    table's zeros, and stays below |p(-0.9)| expm1(0.9 (T - P_N)).  By the
    maximum modulus principle both are maxima over the disk.
    """
    n_zeros = _check_count(n_zeros, "n_zeros", 0)
    if table is None or len(table) < n_zeros:
        table = find_zeros(family, max(n_zeros, 1))
    zeros = table.zeros[:n_zeros]
    p = -0.9 * math.prod(1.0 + 0.9 / (z * z) for z in zeros)
    deviation = abs(w_eval(family, -0.9) - p)
    tail = _tail_mass(family, zeros)
    try:
        envelope = abs(p) * math.expm1(0.9 * tail)
    except OverflowError:
        raise NumericFailure(f"envelope expm1(0.9 (T - P_N)) overflows: T - P_N = {tail!r}")
    return FactorizationCheck(n_zeros, deviation, envelope)


def certify(family: DiniFamily, zero_count: int = 12) -> CertReport:
    """Shah-Trimble verdict for w_{a,nu} with corroborating evidence.

    certified    omega_1 > 1 and S <= 1
    refuted      omega_1 > 1 and S > 1
    inapplicable omega_1 <= 1 (the modulus hypothesis fails; no sum)
    boundary     |S - 1| <= 1e-9, or a Dini zero sits at radius 1

    The modulus hypothesis needs no zero: D > 0 on (0, omega_1), and D < 0 on
    [j_{nu,1}, j_{nu+1,1}] (there J_nu <= 0 < J_{nu+1}, by interlacing), so
    omega_2 > j_{nu+1,1} > j_{0,1} ~ 2.405 and omega_1 <= 1 exactly when D(1) <= 0.
    One ``_j_ratio`` gives rho = J_{nu+2}(1) / J_{nu+1}(1), and by DLMF 10.6.1
    D(1) / J_{nu+1}(1) = Delta = a B - 1, B = 2 nu + 2 - rho, J_{nu+1}(1) > 0, and
    S = (a + 2 - rho) / (2 Delta), exact ratios of integers as a, nu and rho are
    binary rationals: Delta's sign is exact, and its pole band |Delta| <= POLE_REL
    (a |B| + 1) (D(1)'s test over J_{nu+1}(1)) and S round once.
    """
    zero_count = _check_count(zero_count, "zero_count", 0)

    (an, ad), (p, q) = family.a.as_integer_ratio(), family.nu.as_integer_ratio()
    rn, rd = _j_ratio(family.nu)[1].as_integer_ratio()
    b, den = an * (2 * (p + q) * rd - rn * q), ad * q * rd  # b = a B den
    delta = b - den  # Delta den
    pole = abs(delta) / (abs(b) + den) <= POLE_REL
    no_sum = pole or delta <= 0
    table = find_zeros(family, 1 if no_sum else max(zero_count, 1))
    margin = table.entries[0].zero - 1.0
    if no_sum:
        return CertReport(family, VERDICT_BOUNDARY if pole else VERDICT_INAPPLICABLE,
                          None, margin, None, zero_at_unit_radius=pole)

    s = q * (an * rd + 2 * ad * rd - rn * ad) / (2 * delta)
    verdict = (VERDICT_BOUNDARY if abs(s - 1.0) <= BOUNDARY_BAND
               else VERDICT_CERTIFIED if s <= 1.0 else VERDICT_REFUTED)
    # 1 - S(sqrt 0.99) > 0 wherever S(1) <= 1, as S(r) grows with r: a
    # certified verdict with a minimum at or below 0 contradicts itself.
    min_re = starlike_sample(family)
    if verdict == VERDICT_CERTIFIED and min_re <= 0.0:
        raise NumericFailure(f"closed sum S = {s!r} certifies, but the independent w series "
                             f"gives min Re(z w'/w) = {min_re!r} <= 0 on |z| <= 0.99")
    return CertReport(family, verdict, _criterion(family, s, zero_count, table), margin, min_re)
