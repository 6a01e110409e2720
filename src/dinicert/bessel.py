"""Bessel functions of the first kind and the normalized family w_{a,nu}.

Everything downstream needs J_nu(x) and J_{nu+1}(x) together, so the
pair is one call, ``_j_pair``.  Both come from the ascending power series
with the term-ratio recurrence; Gamma appears only in the leading term,
so no coefficient overflows.  The series alternates and its largest term
grows like e^x, so it loses about 0.43*x digits to cancellation.  There
are two ways to sum it:

- doubles, for x <= 3: each order is kept when the largest term exceeds
  the sum by less than 64x.  Against 40-digit mpmath at 2,700 random
  points with nu up to 171 the worst error is 11 ulp (1.4e-15 relative).
- one fixed-point pass over Python ints for both orders, for x > 3 and
  for any order the doubles reject (nu near -1; Gamma(nu + 1) past the
  double range).  It starts with 73 + 1.443*x bits, adds guard bits while
  cancellation leaves fewer than 63, and truncates the result to a
  double, so results are faithfully rounded (error below 1 ulp), not
  always correctly rounded: against 40-digit mpmath at 300 random points
  with nu in (-1, 100] and x in (3, 60], 148 values are not the nearest
  double and the worst error is 0.994 ulp.

All state is local and mpmath's libmp primitives are pure functions of
(value, precision), so every function here is safe to call from any
number of threads.
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
from .families import DiniFamily, Order

_RN = round_nearest

# Double summation is accepted only while the largest term exceeds the
# result by less than this factor (< 2 digits lost to cancellation).
_FLOAT_PATH_X_MAX = 3.0
_FLOAT_PATH_CANCEL_MAX = 64.0

X_MAX = 60.0


def _as_nu(order: Order | float) -> float:
    if isinstance(order, Order):
        return order.nu
    return Order(float(order)).nu


def _j_series_float(nu: float, x: float) -> float | None:
    """Double-precision ascending series; None if cancellation is too deep."""
    try:
        # Gamma(nu + 1) = Gamma(nu) * nu where nu + 1.0 rounds: the rounded
        # argument would cost up to (nu + 1) ln(nu + 1) ulp.
        if nu + 1.0 - 1.0 == nu:
            t = (0.5 * x) ** nu / math.gamma(nu + 1.0)
        else:
            t = (0.5 * x) ** nu / nu / math.gamma(nu)
    except OverflowError:
        return None
    s = t
    maxmag = abs(t)
    q = -0.25 * x * x
    n = 0
    small = 0
    while small < 2:
        t *= q / ((n + 1) * (n + nu + 1))
        s += t
        a = abs(t)
        if a > maxmag:
            maxmag = a
        if a <= 1e-17 * abs(s):
            small += 1
        else:
            small = 0
        n += 1
        if n > 400:
            return None
    if abs(s) * _FLOAT_PATH_CANCEL_MAX < maxmag:
        return None
    return s


def _j_pair_fixed(nu: float, x: float) -> tuple[float, float]:
    """(J_nu(x), J_{nu+1}(x)) summed together in Python-int fixed point.

    Each series is normalised by its leading term (x/2)^mu / Gamma(mu+1),
    so both sums start at 1 and tiny results keep their relative accuracy;
    the prefactors are applied in libmp at the end.  The second order is
    mu = fl(nu + 1.0).  nu, mu and x are exact binary rationals, so each
    term ratio (x/2)^2 / (k (k + mu)) is a ratio of integers and a term
    costs one multiplication and one truncating division.  The sum runs
    until both terms truncate to zero; the guard grows while cancellation
    leaves fewer than 63 bits.
    """
    mu = nu + 1.0
    xn, xd = x.as_integer_ratio()
    p0, q0 = nu.as_integer_ratio()
    p1, q1 = mu.as_integer_ratio()
    c0, c1, d = xn * xn * q0, xn * xn * q1, 4 * xd * xd
    prec = 73 + int(1.443 * x)
    for _ in range(4):
        t0 = t1 = s0 = s1 = m0 = m1 = 1 << prec
        k = 0
        while t0 or t1:
            k += 1
            if k > 500:
                raise NumericFailure(f"Bessel series did not converge at nu={nu}, x={x}")
            t0 = t0 * c0 // (d * k * (k * q0 + p0))
            t1 = t1 * c1 // (d * k * (k * q1 + p1))
            if k & 1:
                s0 -= t0
                s1 -= t1
            else:
                s0 += t0
                s1 += t1
            m0 = max(m0, t0)
            m1 = max(m1, t1)
        cancel = max(m.bit_length() - abs(s).bit_length() if s else prec
                     for m, s in ((m0, s0), (m1, s1)))
        if cancel <= prec - 63:
            return _scaled(s0, nu, x, prec), _scaled(s1, mu, x, prec)
        prec += cancel - (prec - 63) + 20
    raise NumericFailure(f"could not reach target precision at nu={nu}, x={x}")


def _scaled(s: int, mu: float, x: float, prec: int) -> float:
    """s * 2^-prec * (x/2)^mu / Gamma(mu + 1), truncated to a double."""
    m = from_float(mu)
    lead = mpf_div(mpf_pow(mpf_shift(from_float(x), -1), m, prec, _RN),
                   mpf_gamma(mpf_add(m, fone, prec, _RN), prec, _RN), prec, _RN)
    return to_float(mpf_mul(from_man_exp(s, -prec), lead, prec, _RN))


def _j_pair(nu: float, x: float) -> tuple[float, float]:
    """(J_nu(x), J_{nu+1}(x)): doubles where they suffice, else fixed point."""
    j0 = j1 = None
    if x <= _FLOAT_PATH_X_MAX:
        j0 = _j_series_float(nu, x)
        j1 = _j_series_float(nu + 1.0, x)
        if j0 is not None and j1 is not None:
            return j0, j1
    f0, f1 = _j_pair_fixed(nu, x)
    return (f0 if j0 is None else j0), (f1 if j1 is None else j1)


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


def _w_ratio(a: float, nu: float, n: int) -> float:
    """Factor f_n with t_{n+1} = f_n * z * t_n for the w_{a,nu} series."""
    return -(2 * n + 2 + a) / ((2 * n + a) * 4.0 * (n + 1) * (nu + n + 1))


def _check_disk(z):
    zz = np.asarray(z, dtype=np.complex128)
    if np.any(np.abs(zz) > 1.0 + 1e-9):
        raise DomainError("w_{a,nu} is evaluated on the closed unit disk only")
    return zz


def _w_sum(a: float, nu: float, z, derivative: bool):
    """Vectorized series sum for w (or w') on |z| <= 1.

    Stops once two consecutive terms fall below 1e-16 * (1 + |partial|),
    measured in the max norm over the input array.
    """
    zz = _check_disk(z)
    t = np.ones_like(zz) if derivative else zz.copy()
    s = t.copy()
    n = 0
    small = 0
    while small < 2:
        f = _w_ratio(a, nu, n)
        if derivative:
            f *= (n + 2) / (n + 1)
        t = t * (f * zz)
        s = s + t
        tmax = float(np.max(np.abs(t)))
        smax = float(np.max(np.abs(s)))
        if tmax < 1e-16 * (1.0 + smax):
            small += 1
        else:
            small = 0
        n += 1
        if n > 400:
            raise NumericFailure("w series did not converge on the unit disk")
    return s


def w_eval(family: DiniFamily, z):
    """w_{a,nu}(z) on |z| <= 1, normalized so w(0) = 0 and w'(0) = 1.

    Accepts a scalar or an ndarray of points; scalar input returns a
    complex scalar.  The series has real coefficients, so real input z
    yields a result with imaginary part exactly zero.
    """
    out = _w_sum(family.a, family.nu, z, derivative=False)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def w_prime_eval(family: DiniFamily, z):
    """Term-wise differentiated series of w_{a,nu}; w'(0) = 1."""
    out = _w_sum(family.a, family.nu, z, derivative=True)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


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
