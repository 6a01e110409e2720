"""Bessel functions of the first kind and the normalized family w_{a,nu}.

Three evaluators give J_nu(x) and J_{nu+1}(x) together:

- ``_j_ratio``, (J_mu, J_{mu+1}) / |J_mu| for mu = nu or nu + 1, by a backward
  continued fraction in doubles: the zero scan and Halley, and
  rho = J_{nu+2}(1) / J_{nu+1}(1) for certify's modulus test and nu_a;
- ``_j_sums``, the integer sums of one fixed-point pass over J_nu's leading
  term: each zero's finish and certificate (``zeros._d_lead``), and
  ``_j_pair`` beyond the double path;
- ``_j_pair``, the pair itself: the public J, J', D and D', the closed sum S,
  the critical equation and nu_a's certificate, and Halley for subnormal a.

``_j_pair`` sums the ascending power series with the term-ratio
recurrence; Gamma appears only in the leading term, so no coefficient
overflows.  The series alternates and its largest term grows like e^x, so
it loses about 0.43*x digits to cancellation.  There are two ways to sum it:

- doubles, for x <= 3: both orders in one loop (the second's leading term
  is the first's times (x/2)/(nu + 1)), kept when in each the largest term
  exceeds the sum by less than 8x.  Against 40-digit mpmath over seven draws
  of 2,700 points, x in (0, 3], the worst error is 10.1 ulp with nu uniform
  in (-1, 171] and 11.4 ulp with nu + 1 log-uniform in [1e-3, 172], at most
  1.7e-15 relative.
- one fixed-point pass over Python ints, for x > 3 and for any pair the
  doubles reject (nu near -1; Gamma(nu + 1) past the double range).  One
  recurrence gives J_nu's terms over its leading term, and J_{nu+1}, at
  nu + 1 exactly, is the same terms weighted by k (the series
  differentiated term by term).  It starts with 73 + 1.443*x bits, adds
  guard bits while cancellation leaves fewer than 63, and truncates the
  result to a double, so results are faithfully rounded (error below
  1 ulp), not always correctly rounded: against 40-digit mpmath at 300
  random points with nu in (-1, 100] and x in (3, 60], 288 of the 600
  values are not the nearest double; the worst is 0.998 ulp.

All state is local and mpmath's libmp primitives are pure functions of
(value, precision), so every function here is safe to call from any
number of threads; the one value kept, a ``ZeroEntry``'s residual, is such
a pure function too, so racing first reads agree.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from mpmath.libmp import (
    fone,
    from_float,
    from_man_exp,
    mpf_add,
    mpf_div,
    mpf_gamma,
    mpf_mul,
    mpf_pow,
    mpf_shift,
    round_nearest,
    to_float,
)

from .errors import DomainError, NumericFailure
from .families import DiniFamily, Order, _as_nu

_RN = round_nearest

# Double summation is accepted only while the largest term exceeds the
# result by less than this factor (< 1 digit lost to cancellation).
_FLOAT_PATH_X_MAX = 3.0
_FLOAT_PATH_CANCEL_MAX = 8.0

X_MAX = 60.0


def _j_pair_float(nu: float, x: float) -> tuple[float, float] | None:
    """(J_nu(x), J_{nu+1}(x)) summed together in doubles; None if either
    order cancels too deeply."""
    try:
        # Gamma(nu + 1) = Gamma(nu) * nu where nu + 1.0 rounds: the rounded
        # argument would cost up to (nu + 1) ln(nu + 1) ulp.
        if nu + 1.0 - 1.0 == nu:
            t0 = (0.5 * x) ** nu / math.gamma(nu + 1.0)
        else:
            t0 = (0.5 * x) ** nu / nu / math.gamma(nu)
    except (OverflowError, ZeroDivisionError):  # past the double range
        return None
    t1 = t0 * (0.5 * x) / (nu + 1.0)  # from t0, so no order is rounded
    s0, s1, m0, m1 = t0, t1, abs(t0), abs(t1)
    q = -0.25 * x * x
    n = small = 0
    while small < 2:
        t0 *= q / ((n + 1) * (n + nu + 1))
        t1 *= q / ((n + 1) * (n + nu + 2))
        s0 += t0
        s1 += t1
        a0, a1 = abs(t0), abs(t1)
        m0 = a0 if a0 > m0 else m0
        m1 = a1 if a1 > m1 else m1
        if a0 <= 1e-17 * abs(s0) and a1 <= 1e-17 * abs(s1):
            small += 1
        else:
            small = 0
        n += 1
        if n > 400:
            return None
    if abs(s0) * _FLOAT_PATH_CANCEL_MAX < m0 or abs(s1) * _FLOAT_PATH_CANCEL_MAX < m1:
        return None
    return s0, s1


def _j_sums(nu: float, x: float) -> tuple[int, int, int, int]:
    """(s0, s1, prec, wp): J_nu(x) = lead s0 2^-prec, J_{nu+1}(x) = -lead s1 2^-prec
    / (x/2), lead = (x/2)^nu / Gamma(nu + 1).  t_k are J_nu's terms over lead,
    so s0 = sum (-1)^k t_k starts at 1 and keeps its relative accuracy, and
    x J_{nu+1} = nu J_nu - x J'_nu = -lead sum (-1)^k 2k t_k (DLMF 10.6.2, the
    series differentiated) gives s1 = sum (-1)^k k t_k.  nu = p/q and x are
    binary rationals, so a term costs one multiplication and one truncating
    division by integers.  The sum runs until the term truncates to zero; the
    guard grows while cancellation leaves fewer than 63 bits in either sum.
    wp, the bits the prefactor needs, omits the fraction bits that keep s1's
    leading term (x/2)^2 / (nu + 1) at least 2^wp where it is below 1."""
    xn, xd = x.as_integer_ratio()
    p, q = nu.as_integer_ratio()
    c, d = xn * xn * q, 4 * xd * xd
    wp = 73 + int(1.443 * x)
    lift = max(0, (d * (q + p)).bit_length() - c.bit_length())
    for _ in range(4):
        prec = wp + lift
        t = s0 = m0 = m1 = 1 << prec
        s1 = k = 0
        while t:
            k += 1
            if k > 500:
                raise NumericFailure(f"Bessel series did not converge at nu={nu}, x={x}")
            t = t * c // (d * k * (k * q + p))
            kt = k * t
            if k & 1:
                s0 -= t
                s1 -= kt
            else:
                s0 += t
                s1 += kt
            if t > m0:  # inline: a max() call costs as much as the term
                m0 = t
            if kt > m1:
                m1 = kt
        cancel = max(m.bit_length() - abs(s).bit_length() if s else prec
                     for m, s in ((m0, s0), (m1, s1)))
        if cancel <= prec - 63:
            return s0, s1, prec, wp
        wp += cancel - (prec - 63) + 20
    raise NumericFailure(f"could not reach target precision at nu={nu}, x={x}")


def _lead(nu: float, x: float, wp: int):
    """_j_sums' prefactor (x/2)^nu / Gamma(nu + 1) in libmp at wp bits."""
    mu = from_float(nu)
    return mpf_div(mpf_pow(mpf_shift(from_float(x), -1), mu, wp, _RN),
                   mpf_gamma(mpf_add(mu, fone), wp, _RN), wp, _RN)


def _j_pair(nu: float, x: float) -> tuple[float, float]:
    """(J_nu(x), J_{nu+1}(x)): doubles where they suffice, else the fixed
    sums times one ``_lead``, which serves both orders."""
    if x <= _FLOAT_PATH_X_MAX and (pair := _j_pair_float(nu, x)):
        return pair
    s0, s1, prec, wp = _j_sums(nu, x)
    lead, half = _lead(nu, x, wp), mpf_shift(from_float(x), -1)
    return tuple(to_float(mpf_mul(from_man_exp(s, -prec), f, wp, _RN))
                 for s, f in ((s0, lead), (-s1, mpf_div(lead, half, wp, _RN))))


def _j_ratio(nu: float, x: float = 1.0, shift: int = 1) -> tuple[float, float]:
    """(s, s r) = (J_mu(x), J_{mu+1}(x)) / |J_mu(x)|, mu = nu + shift exactly,
    r by the backward continued fraction r_{m-1} = x / (2m - x r_m),
    r_m = J_{m+1}(x) / J_m(x) (DLMF 10.10.1), from r = 0 at
    M = mu + int(1.25 x + 3 x^(1/3)) + 19.  Past m = x a level shrinks the tail
    error by about (x / 2m)^2 (at x = 1 below 4e-59 relative in all; at 200,000
    random points 40 more levels moved no bit), so only rounding remains:
    atan r is within (x + 8) eps of atan(J_{mu+1} / J_mu), modulo pi (worst
    0.64 (x + 8) eps against 40-digit mpmath, nu in (-0.9, 40], x in (0, 60],
    half the draws at or next to zeros of J_nu or J_{nu+1}).
    s = sign J_mu(x) is the parity of the negative denominators
    2m - x r_m = x J_{m-1} / J_m: their signs telescope to sign(J_mu / J_M),
    and J_M(x) > 0 as x < M < j_{M,1}.  A denominator that rounds to 0
    (J_{m-1}(x) = 0) is taken as -5e-324, so r_{m-1} = -inf and the next is
    +inf: one of the two is negative, as J_{m-2} = -J_m there, so the parity
    holds.  A denominator of the wrong sign flips the next too, so s errs only
    at the last level, within rounding of a zero of J_mu, and r flips with it.
    At x = 1 all are positive: the defaults give (1.0, rho),
    rho = J_{nu+2}(1) / J_{nu+1}(1), within 2 eps relative for nu in (-1, 1000]."""
    t, s = 0.0, 1.0
    for k in range(int(1.25 * x + 3.0 * x ** (1.0 / 3.0)) + 19 + shift, shift, -1):
        t = x / ((2.0 * (nu + k) - x * t) or -5e-324)
        if t < 0.0:  # x > 0, so t < 0 exactly where its denominator is
            s = -s
    return s, s * t


def _check_x(x: float) -> float:
    x = float(x)
    if not (0.0 < x <= X_MAX):
        raise DomainError(f"x must lie in (0, {X_MAX:g}]")
    return x


def bessel_j(order: Order | float, x: float) -> float:
    """J_nu(x) for nu > -1 and x in (0, 60], by ascending series."""
    return _j_pair(_as_nu(order), _check_x(x))[0]


def bessel_j_prime(order: Order | float, x: float) -> float:
    """J'_nu(x) via the identity J'_nu = (nu/x) J_nu - J_{nu+1} (valid for nu > -1)."""
    nu = _as_nu(order)
    x = _check_x(x)
    j0, j1 = _j_pair(nu, x)
    return (nu / x) * j0 - j1


def _check_disk(z):
    zz = np.asarray(z, dtype=np.complex128)
    if not np.all(np.abs(zz) <= 1.0 + 1e-9):  # NaN fails the comparison too
        raise DomainError("w_{a,nu} is evaluated on the closed unit disk only")
    return zz


def _w_coeffs(a: float, nu: float, rmax: float) -> list[float]:
    """c_k of w_{a,nu} = sum c_k z^(k+1), from c_0 = 1 by the term ratio
    c_{n+1} / c_n = -(2n + 2 + a) / ((2n + a) 4 (n + 1) (nu + n + 1)), until two
    consecutive rim terms of z w' on |z| <= rmax, (k+1) |c_k| rmax^(k+1), fall
    below 1e-16 (1 + their sum)."""
    c, bound, small = [1.0], rmax, 0
    while small < 2:
        n = len(c) - 1
        c.append(c[-1] * (-(2 * n + 2 + a) / ((2 * n + a) * 4.0 * (n + 1) * (nu + n + 1))))
        u = (n + 2) * abs(c[-1]) * rmax ** (n + 2)
        bound += u
        small = small + 1 if u < 1e-16 * (1.0 + bound) else 0
        if n >= 400:
            raise NumericFailure("w series did not converge on the unit disk")
    return c


def _w_sum(a: float, nu: float, z, derivative: bool):
    """w (or w') on |z| <= 1, for every caller: Horner's rule over
    ``_w_coeffs`` at the input's max |z|, w = z sum c_k z^k and
    w' = sum (k+1) c_k z^k, on (Re z, Im z) in real arithmetic.  numpy's
    scalar and SIMD loops round real products and sums alike, so a point's
    bits do not depend on the size of its array.  0-d input runs in Python
    floats and returns a complex.
    """
    zz = _check_disk(z)
    c = _w_coeffs(a, nu, float(np.max(np.abs(zz), initial=0.0)))
    if derivative:
        c = [(k + 1) * ck for k, ck in enumerate(c)]
    x, y = (zz.real, zz.imag) if zz.ndim else (float(zz.real), float(zz.imag))
    p, q = c[-1], 0.0
    for ck in c[-2::-1]:
        p, q = p * x - q * y + ck, p * y + q * x
    if not derivative:
        p, q = p * x - q * y, p * y + q * x
    if not zz.ndim:
        return complex(p, q)
    out = np.empty(zz.shape, dtype=np.complex128)
    out.real, out.imag = p, q
    return out


def w_eval(family: DiniFamily, z):
    """w_{a,nu}(z) on |z| <= 1, normalized so w(0) = 0 and w'(0) = 1.

    Accepts a scalar or an ndarray of points; scalar input returns a
    complex scalar.  The series has real coefficients, so real input z
    yields a result with imaginary part exactly zero.
    """
    return _w_sum(family.a, family.nu, z, derivative=False)


def w_prime_eval(family: DiniFamily, z):
    """Term-wise differentiated series of w_{a,nu}; w'(0) = 1."""
    return _w_sum(family.a, family.nu, z, derivative=True)


_CLOSED_FORMS = ("q_half", "q_threehalf", "r_half", "r_threehalf")


def oracle_closed_form(which: str, z: complex) -> complex:
    """Half-integer closed forms of w_{a,nu} for cross-validation.

    q_* are the a = 2 family at nu = 1/2, 3/2; r_* the a = 1 family.
    All four satisfy w(0) = 0 and w'(0) = 1 and agree with the power
    series; z = 0 returns the series limit 0.  (Either branch of sqrt(z)
    gives the same value, the combinations are entire in z.)
    """
    if which not in _CLOSED_FORMS:
        raise DomainError(f"unknown closed form {which!r}; choose from {_CLOSED_FORMS}")
    z = complex(z)
    if z == 0:
        return 0j
    s = cmath.sqrt(z)
    if which == "q_half":
        return (s / 2.0) * (cmath.sin(s) + s * cmath.cos(s))
    if which == "q_threehalf":
        return (3.0 / (2.0 * s)) * (s * cmath.cos(s) + (z - 1.0) * cmath.sin(s))
    if which == "r_half":
        return z * cmath.cos(s)
    return 3.0 * (z - 2.0) * cmath.sin(s) / s + 6.0 * cmath.cos(s)
