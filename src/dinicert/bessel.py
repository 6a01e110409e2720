"""Bessel functions of the first kind and the normalized family w_{a,nu}.

Three evaluators give J_nu(x) and J_{nu+1}(x) together:

- ``_j_ratio``, (J_mu, J_{mu+1}) / |J_mu| for mu = nu or nu + 1, by a backward
  continued fraction in float-only arithmetic, each level adding 2 nu to a
  tabled 2k (fl(2 nu + 2k) = 2 fl(nu + k) exactly), x + 8 x^(1/3) + 4 levels
  deep, where its tail lies below 2^-60: the zero scan, Halley, nu_a, and at
  x = 1 all of ``certify``'s Delta, pole test and S; its negative
  denominators also count the zeros of J_mu below x, for a zero table that
  may not fit below x = 60;
- ``_j_sums``, the integer sums of one fixed-point pass over J_nu's leading
  term: each zero's finish and certificate (``zeros._d_lead``), and
  ``_j_pair`` beyond the double path;
- ``_j_pair``, the pair itself: the public J and D, ``sum_closed``,
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
  differentiated term by term), summed from the partial sums A_i of the
  first as K A_K - sum_{i<K} A_i: one addition per term, no multiplication.
  The term ratio's numerator and denominators first lose their common power
  of 2 (nu and x are binary rationals), which leaves every truncated term
  the same integer on about 50 fewer bits.  Term denominators come by
  differences, and the maxima that measure cancellation are read at the two
  peaks, found before the pass from nu and x, with no comparison per term.
  It starts with 73 + 1.443*x bits, adds guard bits while cancellation
  leaves fewer than 63, and truncates the result to a double, so results
  are faithfully rounded (error below 1 ulp), not always correctly rounded:
  against 40-digit mpmath at 300 random points with nu in (-1, 100] and x
  in (3, 60], 288 of the 600 values are not the nearest double; the worst
  is 0.998 ulp.

All state is local and mpmath's libmp primitives are pure functions of
(value, precision), so every function here is safe to call from any
number of threads; the one value kept, a ``ZeroEntry``'s residual, is such
a pure function too, so racing first reads agree.  libmp is imported on
first use, and Python's import lock makes a racing thread wait until the
module is whole.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import DomainError, NumericFailure
from .families import DiniFamily, Order, _as_nu, _w_terms

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
    division by integers; den_k = d k (k q + p) comes by differences.  d = 4
    xd^2 is a power of 2, so c = xn^2 q and d share a power of 2, at least
    2^min(log2 q, log2 d), which divides every den_k: divided out of c and d
    once, it leaves every floor(t c / den_k) the same integer, and every test
    below that compares c with a multiple of d, or their bit lengths, the same
    outcome, so (s0, s1, prec, wp) keep their bits on shorter operands.  With
    the partial sums A_i = sum_{j<=i} (-1)^j t_j, s1 = K A_K - sum_{i<K} A_i
    exactly, so s1 costs one addition per term.  The sum runs until the term
    truncates to zero, and fails if t_500 does not; the guard grows while
    cancellation leaves fewer than 63 bits in either sum, measured against the
    largest term of each, m0 and m1, with no comparison per term.  den_k
    increases, so t_k = floor(t_{k-1} c / den_k) rises (or stays) exactly while
    den_k <= c and falls after: m0 = t_k0 at the last such k0, exactly.  k t_k
    rises at most while its exact ratio c k / (den_k (k - 1)) exceeds 1, up to
    k1, and falls after; the floor loses less than 1 in t_k, so (k - 1) t_{k-1}
    < k t_k + k up to k1, and m1 = max(2^prec, k1 t_k1 + k1 (k1 + 1) / 2) bounds
    every k t_k from above, within k1^2 of the largest: the bit length of the
    largest but where that lies within k1^2 below a power of 2, and then one
    bit more, so the 63-bit test is never weaker.  k0 and k1 are roots of
    quadratics in k, found in doubles and settled by exact tests.  wp, the
    bits the prefactor needs, omits the fraction bits that keep s1's leading
    term (x/2)^2 / (nu + 1) at least 2^wp where it is below 1."""
    xn, xd = x.as_integer_ratio()
    p, q = nu.as_integer_ratio()
    c, d = xn * xn * q, 4 * xd * xd
    g = math.gcd(c, d)
    c, d = c // g, d // g
    dd = 2 * d * q  # den_k - den_{k-1} = d (2k q - q + p) grows by dd a term
    # k0, the last k with den_k <= c, and k1, the last with c k > den_k (k - 1):
    # the roots of k (k + nu) = (x/2)^2 and (k + nu)(k - 1) = (x/2)^2 in doubles,
    # settled by exact tests
    k0 = int(0.5 * (math.hypot(nu, x) - nu))
    while d * (k0 + 1) * ((k0 + 1) * q + p) <= c:
        k0 += 1
    while k0 and d * k0 * (k0 * q + p) > c:
        k0 -= 1
    k1 = int(0.5 * (1.0 - nu + math.hypot(nu + 1.0, x)))
    while d * k1 * ((k1 + 1) * q + p) < c:
        k1 += 1
    while k1 > 1 and d * (k1 - 1) * (k1 * q + p) >= c:
        k1 -= 1
    wp = 73 + int(1.443 * x)
    lift = max(0, (d * (q + p)).bit_length() - c.bit_length())
    for _ in range(4):
        prec = wp + lift
        t = s0 = 1 << prec
        u = k = den = 0  # u = sum_{i<k} A_i
        e = d * (p - q)  # so the first step gives den_1 = d (q + p)
        peaks = []  # t_k0, t_k1, then the end stop's value, unused
        # Two terms a step, odd (to) then even (t), so k is even between steps;
        # t >= 2^prec up to k0 and k t rises on to k1, so t is 0 only in the tail.
        for stop in (k0, k1, 500):
            while t and k < stop:
                u += s0
                e += dd
                den += e
                to = t * c // den
                s0 -= to
                u += s0
                e += dd
                den += e
                t = to * c // den
                s0 += t
                k += 2
            peaks.append(t if k == stop else to)
        if t:
            raise NumericFailure(f"Bessel series did not converge at nu={nu}, x={x}")
        s1 = k * s0 - u
        m0, m1 = peaks[0], max(k1 * peaks[1] + k1 * (k1 + 1) // 2, 1 << prec)
        cancel = max(m0.bit_length() - abs(s0).bit_length() if s0 else prec,
                     m1.bit_length() - abs(s1).bit_length() if s1 else prec)
        if cancel <= prec - 63:
            return s0, s1, prec, wp
        wp += cancel - (prec - 63) + 20
    raise NumericFailure(f"could not reach target precision at nu={nu}, x={x}")


@functools.cache
def _libmp():
    """mpmath's libmp, imported on first use: most commands never need it."""
    from mpmath import libmp
    return libmp


def _lead(nu: float, x: float, wp: int):
    """_j_sums' prefactor (x/2)^nu / Gamma(nu + 1) in libmp at wp bits."""
    lm = _libmp()
    mu, rn = lm.from_float(nu), lm.round_nearest
    return lm.mpf_div(lm.mpf_pow(lm.mpf_shift(lm.from_float(x), -1), mu, wp, rn),
                      lm.mpf_gamma(lm.mpf_add(mu, lm.fone), wp, rn), wp, rn)


def _j_pair(nu: float, x: float) -> tuple[float, float]:
    """(J_nu(x), J_{nu+1}(x)): doubles where they suffice, else the fixed
    sums times one ``_lead``, which serves both orders."""
    if x <= _FLOAT_PATH_X_MAX and (pair := _j_pair_float(nu, x)):
        return pair
    s0, s1, prec, wp = _j_sums(nu, x)
    lm = _libmp()
    lead, half, rn = _lead(nu, x, wp), lm.mpf_shift(lm.from_float(x), -1), lm.round_nearest
    return tuple(lm.to_float(lm.mpf_mul(lm.from_man_exp(s, -prec), f, wp, rn))
                 for s, f in ((s0, lead), (-s1, lm.mpf_div(lead, half, wp, rn))))


def _levels(x: float) -> int:
    """Levels of ``_j_ratio``'s continued fraction at x, set by its tail: x +
    8 x^(1/3) + 4, 13 at x = 1 and 95 at x = 60."""
    return int(x + 8.0 * x ** (1.0 / 3.0)) + 4


# 2k for every level k of _j_ratio up to x = X_MAX and shift 1: a slice past
# the end would drop levels silently.
_TWO_K = tuple(2.0 * k for k in range(_levels(X_MAX) + 2))


def _j_ratio(nu: float, x: float = 1.0, shift: int = 1,
             count: bool = False) -> tuple[float, float] | tuple[int, float]:
    """(s, s r) = (J_mu(x), J_{mu+1}(x)) / |J_mu(x)|, mu = nu + shift exactly,
    r by the backward continued fraction r_{m-1} = x / (2m - x r_m),
    r_m = J_{m+1}(x) / J_m(x) (DLMF 10.10.1), from r = 0 at
    M = mu + int(x + 8 x^(1/3)) + 4 (``_levels``).  Past m = x a level shrinks
    the tail error by about (x / 2m)^2, and at that depth the tail moves atan r
    by at most 9e-22, below 2^-60 (60-digit mpmath, 1,512 draws: x in (0, 60],
    nu in (-1, 40], both shifts); at x = 1, 13 levels, rho has the bits of the
    former 23 at 100,000 orders nu in (-1, 1000].  So only rounding remains:
    atan r is within (x + 8) eps of atan(J_{mu+1} / J_mu), modulo pi (worst
    0.49 (x + 8) eps against 40-digit mpmath at 2,400 checks, nu in (-0.9,
    40], x in (0, 60], half the draws at or next to zeros of J_nu or J_{nu+1}).
    Level m = nu + k forms 2m as the sum of the doubles 2 nu and 2k (_TWO_K),
    so each level is float-only arithmetic; fl(2 nu + 2k) = 2 fl(nu + k)
    exactly, as scaling by 2 commutes with rounding, and both overflow alike.
    s = sign J_mu(x) is the parity of the negative denominators
    2m - x r_m = x J_{m-1} / J_m: their signs telescope to sign(J_mu / J_M),
    and J_M(x) > 0 as x < M < j_{M,1}.  A denominator that rounds to 0
    (J_{m-1}(x) = 0) is taken as -5e-324, so r_{m-1} = -inf and the next is
    +inf: one of the two is negative, as J_{m-2} = -J_m there, so the parity
    holds.  A denominator of the wrong sign flips the next too, so s errs only
    at the last level, within rounding of a zero of J_mu, and r flips with it.
    At x = 1 all are positive: the defaults give (1.0, rho),
    rho = J_{nu+2}(1) / J_{nu+1}(1), within 2 eps relative for nu in (-1, 1000].
    With ``count``, (n, r): n, the number of negative denominators, is the
    number of sign changes in J_mu(x), J_{mu+1}(x), ..., J_M(x), which is the
    number of zeros of J_mu in (0, x).  As x grows from 0, where all are
    positive, a sign change enters or leaves only where one of them vanishes:
    at a zero of J_{mu+k}, k >= 1, its neighbours have opposite signs, so the
    three keep one change, and at a zero of J_mu, J'_mu = -J_{mu+1} there, so
    J_mu and J_{mu+1} gain one.  A denominator that rounds to the wrong sign
    flips the next with it, one of the two negative either way, so n errs
    only at the last level, where r flips with it, as s does."""
    t, n, tn = 0.0, 0, 2.0 * nu
    for k2 in _TWO_K[_levels(x) + shift:shift:-1]:
        t = x / ((tn + k2 - x * t) or -5e-324)
        if t < 0.0:  # x > 0, so t < 0 exactly where its denominator is
            n += 1
    if count:
        return n, t
    s = -1.0 if n & 1 else 1.0
    return s, s * t


def _check_x(x: float) -> float:
    x = float(x)
    if not (0.0 < x <= X_MAX):
        raise DomainError(f"x must lie in (0, {X_MAX:g}]")
    return x


def bessel_j(order: Order | float, x: float) -> float:
    """J_nu(x) for nu > -1 and x in (0, 60], by ascending series."""
    return _j_pair(_as_nu(order), _check_x(x))[0]


def _w_coeffs(a: float, nu: float, rmax: float) -> list[float]:
    """c_k of ``_w_terms`` until two consecutive rim terms of z w' on |z| <=
    rmax, (k+1) |c_k| rmax^(k+1), fall below 1e-16 (1 + their sum)."""
    terms = _w_terms(a, nu)
    c, bound, small = [next(terms)], rmax, 0
    while small < 2:
        c.append(ck := next(terms))
        u = len(c) * abs(ck) * rmax ** len(c)
        bound += u
        small = small + 1 if u < 1e-16 * (1.0 + bound) else 0
    return c


def _w_points(z):
    """(points, r_max, form): z's points as Python complex numbers, their max
    abs(z) (the C library's hypot), refusing |z| > 1 + 1e-9, and a function
    that shapes results as z: a list for a list or tuple, else a complex."""
    if type(z) in (list, tuple):
        points, form = [complex(v) for v in z], list
    else:
        points, form = [complex(z)], lambda out: out[0]
    try:
        radii = [abs(v) for v in points]
    except OverflowError:  # |z| past the double range
        radii = [math.inf]
    if not all(r <= 1.0 + 1e-9 for r in radii):  # NaN fails the comparison too
        raise DomainError("w_{a,nu} is evaluated on the closed unit disk only")
    return points, max(radii, default=0.0), form


def _w_sums(a: float, nu: float, z, derivatives=(False, True)) -> list:
    """w = z sum c_k z^k (False) or w' = sum (k+1) c_k z^k (True) on |z| <= 1
    for each of ``derivatives``, from one ``_w_coeffs`` list at the input's max
    |z|, by Horner's rule on (Re z, Im z) in Python floats point by point: a
    point's bits depend on it and that max |z| alone, not on the input's type."""
    points, rmax, form = _w_points(z)
    c = _w_coeffs(a, nu, rmax)
    sums = []
    for derivative in derivatives:
        b = [(k + 1) * ck for k, ck in enumerate(c)] if derivative else c
        out, top, rest = [], b[-1], b[-2::-1]
        for v in points:
            x, y = v.real, v.imag
            p, q = top, 0.0
            for bk in rest:
                p, q = p * x - q * y + bk, p * y + q * x
            if not derivative:
                p, q = p * x - q * y, p * y + q * x
            out.append(complex(p, q))
        sums.append(form(out))
    return sums


def w_eval(family: DiniFamily, z):
    """w_{a,nu}(z) on |z| <= 1, normalized so w(0) = 0 and w'(0) = 1.

    A number (a numpy scalar or 0-d array too) gives a complex, a list or
    tuple a list.  The series has real coefficients, so real input z yields
    an imaginary part exactly zero.
    """
    return _w_sums(family.a, family.nu, z, (False,))[0]


def w_prime_eval(family: DiniFamily, z):
    """Term-wise differentiated series of w_{a,nu}; w'(0) = 1."""
    return _w_sums(family.a, family.nu, z, (True,))[0]


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
