"""Independent mpmath oracles for every result the benchmark checks.

Nothing here imports dinicert.  Each check takes the inputs of one
operation and what the program returned, and gives back

    (rel_errors, reasons, violations)

rel_errors  relative errors of the returned numbers against the oracle
reasons     failure reasons (`fail.<reason>` counters) for a result that
            misses its error budget or is flagged where it should not be
violations  certificates the program issued that the oracle refutes: a
            verdict of the wrong kind, or a zero or critical-order bracket
            across which the function does not change sign

A violation makes the whole run incorrect; a reason only counts the
operation as failed.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 40

# Error budgets, each the library's own stated figure.
SUM_REL_BUDGET = 1e-11   # `sum` envelope: closed_form_accuracy_budget
W_REL_BUDGET = 1e-12     # w series stops at 1e-16 * (1 + |partial|); 1e-12 leaves room
NU_REL_BUDGET = 1e-9     # critical_order brackets nu_a to 1e-10
BOUNDARY_BAND = 1e-9     # |S - 1| at or below this is a `boundary` verdict
POLE_REL = 1e-10         # D(1) at or below this share of its scale is a pole


def _rel(value, ref, scale=None) -> float:
    ref_abs = abs(ref) if scale is None else scale
    if ref_abs == 0:
        return 0.0 if value == 0 else math.inf
    return float(abs(mp.mpmathify(value) - ref) / ref_abs)


# ------------------------------------------------------------- functions

def j_pair(nu, x):
    return mp.besselj(nu, x), mp.besselj(nu + 1, x)


def dini(a, nu, x):
    """D_{a,nu}(x) = a J_nu(x) - x J_{nu+1}(x) and its derivative."""
    j0, j1 = j_pair(nu, x)
    return a * j0 - x * j1, (a * nu / x - x) * j0 + (nu - a) * j1


def sum_s(a, nu):
    """S(a, nu) by the closed form, and D(1) with its scale."""
    j0, j1 = j_pair(nu, 1)
    jp = nu * j0 - j1
    den = a * j0 - j1
    num = (2 * nu * nu - a * nu - 1) * j0 + (a - 2 * nu) * jp
    return -num / (2 * den), den, abs(a * j0) + abs(j1)


def critical_g(a, nu):
    """(2a - 1) J_nu(1) - (a - 2 nu + 2) J_{nu+1}(1); its root is nu_a."""
    j0, j1 = j_pair(nu, 1)
    return (2 * a - 1) * j0 - (a - 2 * nu + 2) * j1


def critical_curve(a: float) -> float:
    """nu_a(a) for a in [0.8, 3], where the root lies in (-0.74, 2)."""
    with mp.workdps(20):
        return float(mp.findroot(lambda v: critical_g(a, v), (-0.74, 2.0),
                                 solver="anderson"))


def unit_zero_order(a: float) -> float:
    """The order nu at which D_{a,nu}(1) = 0, i.e. omega_1 = 1, for a in
    [0.8, 3]; below it omega_1 < 1."""
    with mp.workdps(20):
        return float(mp.findroot(lambda v: a * mp.besselj(v, 1) - mp.besselj(v + 1, 1),
                                 (-0.99, 2.0), solver="anderson"))


def w_and_prime(a, nu, z):
    """w_{a,nu}(z) and w'(z) through 0F1, independent of the w series.

    With F_b(z) = 0F1(; b; -z/4), the series of w sums to
    w = z (F_{nu+1} - z F_{nu+2} / (2 a (nu + 1))).
    """
    z = mp.mpmathify(z)
    f1 = mp.hyp0f1(nu + 1, -z / 4)
    f2 = mp.hyp0f1(nu + 2, -z / 4)
    f3 = mp.hyp0f1(nu + 3, -z / 4)
    c = 1 / (2 * a * (nu + 1))
    df1 = -f2 / (4 * (nu + 1))
    df2 = -f3 / (4 * (nu + 2))
    w = z * (f1 - c * z * f2)
    wp = f1 + z * df1 - c * (2 * z * f2 + z * z * df2)
    return w, wp


# ----------------------------------------------------------------- checks

def expected_verdict(a, nu) -> str:
    """Shah-Trimble verdict from mpmath.

    D_{a,nu}(x) x^-nu is positive near 0 and consecutive zeros are more
    than 1 apart, so omega_1 <= 1 exactly when D(1) <= 0.
    """
    s, den, scale = sum_s(a, nu)
    if abs(den) <= POLE_REL * scale:
        return "boundary"
    if den < 0:
        return "inapplicable"
    if abs(s - 1) <= BOUNDARY_BAND:
        return "boundary"
    return "certified" if s < 1 else "refuted"


def check_sum_closed(a, nu, value):
    s, _, _ = sum_s(a, nu)
    err = _rel(value, s)
    return [err], (["accuracy"] if err > SUM_REL_BUDGET else []), []


def check_report(a, nu, verdict):
    """A certify verdict.  A `boundary` the oracle does not confirm is a
    failure to decide; any other wrong verdict is a false certificate."""
    want = expected_verdict(a, nu)
    if verdict == want:
        return [], [], []
    if verdict == "boundary":
        return [], ["spurious_boundary"], []
    return [], [], [f"verdict {verdict} at (a={a!r}, nu={nu!r}), oracle says {want}"]


def check_zero(a, nu, zero, lo, hi):
    """A certified zero: inside its bracket, D changes sign across it."""
    errs, violations = [], []
    dlo, _ = dini(a, nu, lo)
    dhi, _ = dini(a, nu, hi)
    if not (lo <= zero <= hi) or mp.sign(dlo) * mp.sign(dhi) >= 0:
        violations.append(f"zero {zero!r} of (a={a!r}, nu={nu!r}) not certified by "
                          f"bracket [{lo!r}, {hi!r}]")
    d, dp = dini(a, nu, zero)
    root = zero - d / dp  # one Newton step from a ~1e-12 start is exact to 40 digits
    errs.append(_rel(zero, root))
    return errs, [], violations


def check_critical(a, nu_a, lo, hi):
    errs, reasons, violations = [], [], []
    glo, ghi = critical_g(a, lo), critical_g(a, hi)
    if not (lo <= nu_a <= hi) or mp.sign(glo) * mp.sign(ghi) >= 0:
        violations.append(f"nu_a {nu_a!r} for a={a!r} not certified by "
                          f"bracket [{lo!r}, {hi!r}]")
    root = mp.findroot(lambda v: critical_g(a, v), mp.mpf(nu_a))
    s, _, _ = sum_s(a, root)
    if abs(s - 1) > mp.mpf(10) ** (10 - DPS):
        raise AssertionError(f"oracle critical root for a={a!r} has S={s}")
    # nu lives on (-1, inf): measure the error against nu + 1.
    err = _rel(nu_a, root, scale=root + 1)
    errs.append(err)
    if err > NU_REL_BUDGET:
        reasons.append("accuracy")
    return errs, reasons, violations


def check_w(a, nu, z, w, wp=None):
    """w (and w') at one point, relative to max(|value|, 1)."""
    ow, owp = w_and_prime(a, nu, z)
    errs = [_rel(w, ow, scale=max(abs(ow), 1))]
    if wp is not None:
        errs.append(_rel(wp, owp, scale=max(abs(owp), 1)))
    return errs, (["accuracy"] if max(errs) > W_REL_BUDGET else []), []


def check_starlike(a, nu, z, value):
    """Re(z w'(z) / w(z)) at one point."""
    ow, owp = w_and_prime(a, nu, z)
    ref = mp.re(z * owp / ow)
    err = _rel(value, ref, scale=max(abs(ref), 1))
    return [err], (["accuracy"] if err > W_REL_BUDGET else []), []
