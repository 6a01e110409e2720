"""Acceptance checks runnable from the CLI (``dinicert selftest``).

Each check is independent of the code path it validates: expected values
come from half-integer closed forms, brute-force summation, finite
differences, or the four-decimal roundings of independently computed
critical orders, never from the routine under test.  Heavy artifacts
(verdict scans, random-family zero tables) are computed once and shared
across checks.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass

from .bessel import bessel_j, oracle_closed_form, w_eval
from .certify import certify, factorization_check, starlike_sample
from .criterion import critical_order, evaluate_criterion, sum_closed
from .errors import DomainError
from .families import DiniFamily, Order
from .zeros import find_zeros, ismail_lower_bound

# Critical orders at a = 2 and a = 1, rounded to four decimals from the
# roots of 3 J_nu(1) + 2 (nu - 2) J_{nu+1}(1) = 0 and
# J_nu(1) - (3 - 2 nu) J_{nu+1}(1) = 0 computed in 40-digit mpmath
# (-0.1438607404... and 0.3060766614...; tests/test_acceptance.py
# recomputes them).  They replace the figures -0.1438 and 0.3062, at which
# S - 1 is -1.39e-4 and -1.82e-4, so neither is a root of S = 1.
REF_NU_A2 = -0.1439
REF_NU_A1 = 0.3061
REF_TOL = 5e-5

RANDOM_SEED = 20250810


@dataclass(frozen=True)
class CheckResult:
    id: int
    name: str
    passed: bool
    detail: str


def _fam(a: float, nu: float) -> DiniFamily:
    return DiniFamily(a, Order(nu))


# ---------------------------------------------------------------- shared

def _critical_orders(ctx: dict):
    if "critical" not in ctx:
        ctx["critical"] = {a: critical_order(a) for a in (1.0, 2.0)}
    return ctx["critical"]


def _flip_reports(ctx: dict):
    """certify() over nu grids of step 0.01 straddling each critical order."""
    if "flip" not in ctx:
        grids = {
            1.0: [k / 100.0 for k in range(10, 51)],     # 0.10 .. 0.50
            2.0: [k / 100.0 for k in range(-34, 7)],     # -0.34 .. 0.06
        }
        ctx["flip"] = {
            a: [(nu, certify(_fam(a, nu))) for nu in grid]
            for a, grid in grids.items()
        }
    return ctx["flip"]


def _random_families(ctx: dict):
    """20 seeded random families with length-12 zero tables and criteria."""
    if "random" not in ctx:
        rng = random.Random(RANDOM_SEED)
        out = []
        for _ in range(20):
            fam = _fam(rng.uniform(0.8, 3.0), rng.uniform(0.0, 2.0))
            table = find_zeros(fam, 12)
            crit = evaluate_criterion(fam, n_terms=12, table=table)
            out.append((fam, table, crit))
        ctx["random"] = out
    return ctx["random"]


# ---------------------------------------------------------------- checks

def _check_critical_constants(ctx):
    crit = _critical_orders(ctx)
    v2, v1 = crit[2.0].nu_a, crit[1.0].nu_a
    d2, d1 = abs(v2 - REF_NU_A2), abs(v1 - REF_NU_A1)
    detail = (f"a=2: computed {v2:.10f}, reference {REF_NU_A2} (|diff| {d2:.2e}); "
              f"a=1: computed {v1:.10f}, reference {REF_NU_A1} (|diff| {d1:.2e}); "
              f"tolerance {REF_TOL:g}")
    return d2 <= REF_TOL and d1 <= REF_TOL, detail


def _check_sum_closed_oracle(ctx):
    closed = sum_closed(_fam(1.0, 0.5))
    target = math.tan(1.0) / 2.0
    # Brute force over the exact zeros z_n = (2n-1)pi/2: sum 1/z_n^2 = 1/2
    # (sum 1/(2n-1)^2 = pi^2/8) leaves sum 1/(z_n^2 (z_n^2 - 1)), whose terms
    # fall like n^-4, summed over n <= 100; they decrease and z_n is pi apart,
    # so the tail is below the integral (atanh(1/z_N) - 1/z_N) / pi.
    z = [(2.0 * n - 1.0) * math.pi / 2.0 for n in range(1, 101)]
    partial = 0.5 + math.fsum(1.0 / (t * t * (t * t - 1.0)) for t in z)
    tail = (math.atanh(1.0 / z[-1]) - 1.0 / z[-1]) / math.pi
    ok = abs(closed - target) <= 1e-10 and partial <= closed <= partial + tail
    detail = (f"closed {closed:.12f} vs tan(1)/2 {target:.12f} "
              f"(|diff| {abs(closed - target):.2e}); brute-force enclosure "
              f"[{partial:.12f}, {partial + tail:.12f}]")
    return ok, detail


def _check_halfinteger_zero_table(ctx):
    table = find_zeros(_fam(1.0, 0.5), 10)
    worst = max(abs(e.zero - (2 * e.n - 1) * math.pi / 2.0)
                for e in table.entries)
    return worst <= 1e-13, f"max |zero - (2n-1)pi/2| = {worst:.3e} over n=1..10"


def _flip_summary(pairs):
    verdicts = [r.verdict for _, r in pairs]
    flips = [(pairs[i][0], pairs[i + 1][0])
             for i in range(len(pairs) - 1)
             if verdicts[i] != verdicts[i + 1]]
    return verdicts, flips


def _check_verdict_flip(ctx):
    flip = _flip_reports(ctx)
    msgs, ok = [], True
    expected = {1.0: (0.30, 0.31), 2.0: (-0.15, -0.14)}
    for a, pairs in sorted(flip.items()):
        verdicts, flips = _flip_summary(pairs)
        good = (len(flips) == 1
                and verdicts[0] == "refuted" and verdicts[-1] == "certified"
                and abs(flips[0][0] - expected[a][0]) < 1e-9
                and abs(flips[0][1] - expected[a][1]) < 1e-9)
        ok = ok and good
        where = f"{flips[0][0]:.2f}->{flips[0][1]:.2f}" if len(flips) == 1 else f"{len(flips)} flips"
        msgs.append(f"a={a:g}: refuted->certified at {where} "
                    f"(expected {expected[a][0]}..{expected[a][1]})")
    return ok, "; ".join(msgs)


def _check_enclosure(ctx):
    worst = ""
    ok = True
    for fam, table, crit in _random_families(ctx):
        lo = crit.truncated_value
        hi = crit.truncated_value + crit.tail_bound
        if not (lo <= crit.closed_value <= hi):
            ok = False
            worst = (f"; violated at a={fam.a:.4f}, nu={fam.nu:.4f}: "
                     f"closed {crit.closed_value!r} not in [{lo!r}, {hi!r}]")
    return ok, ("20 random families, N=12: closed value inside "
                "[truncated, truncated + tail]" + worst)


def _check_recurrence(ctx):
    worst = 0.0
    for nu in (-0.5, 0.0, 0.5, 1.0, 2.0):
        for x in (0.5, 1.0, 5.0, 10.0, 20.0):
            j0 = bessel_j(Order(nu), x)
            j1 = bessel_j(Order(nu + 1.0), x)
            j2 = bessel_j(Order(nu + 2.0), x)
            resid = abs(j0 + j2 - 2.0 * (nu + 1.0) * j1 / x) / max(1.0, abs(j0))
            worst = max(worst, resid)
    return worst <= 1e-12, f"max relative recurrence residual {worst:.3e} (<= 1e-12)"


def _check_ismail(ctx):
    ok = True
    min_gap = math.inf
    for fam, table, _ in _random_families(ctx):
        gap = table.entries[0].zero ** 2 - ismail_lower_bound(fam)
        min_gap = min(min_gap, gap)
        ok = ok and gap > 0.0
    return ok, f"omega_1^2 - 4a(nu+1)/(a+2) >= {min_gap:.6f} over 20 random families"


def _check_landau(ctx):
    nus = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    ok = True
    min_gap = math.inf
    for a in (1.0, 2.0):
        tables = [find_zeros(_fam(a, nu), 3) for nu in nus]
        for n in (1, 2, 3):
            zs = [t.entries[n - 1].zero for t in tables]
            for z1, z2 in zip(zs, zs[1:]):
                min_gap = min(min_gap, z2 - z1)
                ok = ok and z1 < z2
    return ok, (f"omega_(a,nu,n) strictly increasing in nu for a in {{1,2}}, "
                f"n in {{1,2,3}}; min increment {min_gap:.6f}")


def _check_factorization(ctx):
    msgs, ok = [], True
    for a, nu in ((1.0, 0.5), (2.0, 0.5), (1.0, 1.5), (2.0, 1.0)):
        fc = factorization_check(_fam(a, nu), n_zeros=18)
        ok = ok and fc.within_envelope
        msgs.append(f"(a={a:g},nu={nu:g}): dev {fc.max_deviation:.4e} "
                    f"<= env {fc.envelope:.4e}")
    return ok, "; ".join(msgs)


def _check_oracles(ctx):
    cases = (
        (2.0, 0.5, "q_half"),
        (2.0, 1.5, "q_threehalf"),
        (1.0, 0.5, "r_half"),
        (1.0, 1.5, "r_threehalf"),
    )
    radii = [(k + 1) / 10.0 for k in range(10)]
    thetas = [2.0 * math.pi * j / 10.0 for j in range(10)]
    grid = [r * complex(math.cos(t), math.sin(t)) for r in radii for t in thetas]
    worst = 0.0
    for a, nu, which in cases:
        for z, w in zip(grid, w_eval(_fam(a, nu), grid)):
            worst = max(worst, abs(w - oracle_closed_form(which, z)))
    return worst <= 1e-12, (f"max |w_eval - closed form| = {worst:.3e} over "
                            f"4 families x 100 unit-disk points")


def _check_starlike_certified(ctx):
    flip = _flip_reports(ctx)
    mins = []
    for a, pairs in sorted(flip.items()):
        for nu, rep in pairs:
            if rep.verdict == "certified":
                mins.append(rep.min_re_starlike)
    for fam, table, crit in _random_families(ctx):
        if crit.closed_value <= 1.0 - 1e-9:
            mins.append(starlike_sample(fam))
    ok = all(m is not None and m > 0.0 for m in mins)
    return ok, (f"min Re(z w'/w) over |z| <= 0.99, at z = 0.99, positive for all "
                f"{len(mins)} certified families; smallest {min(mins):.6f}")


def _check_cli_golden(ctx):
    from . import cli

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    c1, o1, _ = run(["zeros", "--a", "1", "--nu", "0.5", "--n", "3"])
    c2, o2, _ = run(["zeros", "--a", "1", "--nu", "0.5", "--n", "3"])
    det_ok = c1 == 0 and c2 == 0 and o1 == o2 and o1 != ""
    c3, _, e3 = run(["zeros", "--a", "1", "--nu", "-2"])
    c4, _, e4 = run(["critical", "--a", "0.1"])
    c5, o5, _ = run(["sum", "--a", "2", "--nu", "0.5"])
    c6, o6, _ = run(["sum", "--a", "2", "--nu", "0.5"])
    codes_ok = c3 == 2 and "nu must exceed -1" in e3 and c4 == 3 and c5 == 0
    ok = det_ok and codes_ok and o5 == o6
    return ok, (f"byte determinism {det_ok}; exit codes: validation {c3} (want 2), "
                f"numeric {c4} (want 3), success {c1} (want 0)")


_CHECKS = (
    (1, "critical constants to four decimals", _check_critical_constants),
    (2, "closed-form sum against tan(1)/2 and brute force", _check_sum_closed_oracle),
    (3, "half-integer zero table exactness", _check_halfinteger_zero_table),
    (4, "verdict flips exactly once at the critical order", _check_verdict_flip),
    (5, "closed sum enclosed by truncated sum + tail bound", _check_enclosure),
    (6, "three-term recurrence residual", _check_recurrence),
    (7, "Ismail lower bound on the first zero", _check_ismail),
    (8, "Landau monotonicity of zeros in the order", _check_landau),
    (9, "factorization agreement within truncation envelope", _check_factorization),
    (10, "series matches half-integer closed forms", _check_oracles),
    (11, "certified families sample starlike", _check_starlike_certified),
    (12, "CLI determinism and exit codes", _check_cli_golden),
)


def run_checks(only: set[int] | None = None) -> list[CheckResult]:
    """Run the acceptance checks (all, or the subset in ``only``); an empty
    ``only``, or an id in it that names no check, raises DomainError."""
    if only is not None and not only:
        raise DomainError("no check ids selected")
    bad = set(only or ()) - {cid for cid, _, _ in _CHECKS}
    if bad:
        raise DomainError(f"unknown check ids: {sorted(bad)}")
    ctx: dict = {}
    results = []
    for cid, name, fn in _CHECKS:
        if only is not None and cid not in only:
            continue
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(cid, name, bool(passed), detail))
    return results
