"""Command-line surface: zeros, sum, critical, certify, eval, boundary, selftest.

Handlers only compute: each returns (results, diagnostics, csv_header,
csv_rows), and ``_output`` alone renders a JSON envelope {command, inputs,
results, diagnostics, version} or, on ``--format csv`` or selftest without
``--json``, CSV lines (None as an empty cell).  Result dataclasses render
their repr fields in declaration order, then their cached properties in class
order, and those names are the wire keys.
Floats print at up to 17 significant digits: byte-stable, exact round trip.
Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
selftest failure, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import math
import sys
from collections.abc import Sequence

from . import __version__
from .bessel import _w_sums, w_eval
from .certify import certify
from .criterion import (BOUNDARY_BAND, SEARCH_WINDOW, SUM_CROSS_CHECK_TOL,
                        CriticalOrder, critical_order, evaluate_criterion)
from .errors import DomainError, NumericFailure
from .families import DiniFamily, Order
from .zeros import DEFAULT_TOL, SCAN_STEP, X_MAX, ZeroEntry, find_zeros

# ------------------------------------------------------------ rendering

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericFailure("non-finite value reached the serializer")
    return "%.17g" % x


def _render(obj, indent: int = 0) -> str:
    # Floats, dicts and lists first, a dict's finite floats inline: an envelope is mostly these.
    if isinstance(obj, float):
        return _fmt_float(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = f',\n{pad}  "'.join([
            f'{k}": ' + ("%.17g" % v if type(v) is float and math.isfinite(v)
                         else _render(v, indent + 1)) for k, v in obj.items()])
        return f'{{\n{pad}  "{inner}\n{pad}}}'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = f",\n{pad}  ".join([_render(v, indent + 1) for v in obj])
        return f"[\n{pad}  {inner}\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if dataclasses.is_dataclass(obj):
        return _render({k: getattr(obj, k) for k in _wire_keys(type(obj))}, indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


@functools.cache
def _wire_keys(cls) -> tuple[str, ...]:
    """A result class's rendered names: its repr fields in declaration order,
    then its cached properties in class order."""
    return (tuple(f.name for f in dataclasses.fields(cls) if f.repr)
            + tuple(k for k, v in vars(cls).items()
                    if isinstance(v, functools.cached_property)))


def _output(args, results, diagnostics: dict, header: Sequence[str] | None,
            rows: list[list]) -> str:
    """The one place that picks CSV or JSON; inputs are the parsed flags."""
    flags = vars(args)
    if flags.get("format") == "csv" or flags.get("json") is False:
        return _csv(header, rows)
    inputs = {k: str(v) if isinstance(v, complex) else v
              for k, v in flags.items() if k not in ("out", "command", "func")}
    return _render({
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
    })


def _csv(header: Sequence[str] | None, rows: list[list]) -> str:
    lines = [] if header is None else [",".join(header)]
    lines += [",".join("" if v is None else _fmt_float(v) if isinstance(v, float) else str(v)
                       for v in row) for row in rows]
    return "\n".join(lines)


# ------------------------------------------------------------- commands

def _family(args) -> DiniFamily:
    return DiniFamily(args.a, Order(args.nu))


def _cmd_zeros(args):
    table = find_zeros(_family(args), args.n, args.tol)
    diag = {
        "scan_step": SCAN_STEP,
        "range_cap": X_MAX,
        "tol": table.tol,
        "max_bracket_width": max(e.hi - e.lo for e in table.entries),
        "max_residual": max(e.residual for e in table.entries),
    }
    keys = _wire_keys(ZeroEntry)
    return table, diag, keys, [[getattr(e, k) for k in keys] for e in table.entries]


def _cmd_sum(args):
    family = _family(args)
    crit = evaluate_criterion(family, n_terms=args.n)
    diag = {
        "closed_form_accuracy_budget": 1e-11,
        "truncated_applicable": crit.truncated_value is not None,
        "tail_bound": crit.tail_bound,
    }
    header = ["a", "nu", "closed", "truncated", "terms", "tail_bound", "margin"]
    row = [family.a, family.nu, crit.closed_value, crit.truncated_value,
           crit.terms_used, crit.tail_bound, crit.threshold_margin]
    return crit, diag, header, [row]


def _cmd_critical(args):
    result = critical_order(args.a, tol=args.tol)
    diag = {
        "search_lo": SEARCH_WINDOW[0],
        "search_hi": SEARCH_WINDOW[1],
        "bracket_width": result.hi - result.lo,
        "sum_cross_check_tol": SUM_CROSS_CHECK_TOL,
    }
    keys = _wire_keys(CriticalOrder)
    return result, diag, keys, [[getattr(result, k) for k in keys]]


def _cmd_certify(args):
    family = _family(args)
    report = certify(family, zero_count=args.n)
    diag = {
        "zero_count": args.n,
        "boundary_band": BOUNDARY_BAND,
        "decision_route": "closed_form_sum",
        "sampling_is_corroboration_only": True,
    }
    header = ["a", "nu", "verdict", "closed_sum", "zero_margin", "min_re_starlike"]
    row = [family.a, family.nu, report.verdict,
           getattr(report.sum_criterion, "closed_value", None),
           report.smallest_zero_margin, report.min_re_starlike]
    return report, diag, header, [row]


def _cmd_eval(args):
    family, z = _family(args), args.z
    w, wp = _w_sums(family.a, family.nu, z)
    parts = {"z": z, "w": w, "w_prime": wp}
    results = {k: {"re": v.real, "im": v.imag} for k, v in parts.items()}
    header = ["a", "nu"] + [f"{k}_{p}" for k in parts for p in ("re", "im")]
    row = [family.a, family.nu] + [x for v in parts.values() for x in (v.real, v.imag)]
    return results, {"series_truncation_threshold": 1e-16}, header, [row]


def _cmd_boundary(args):
    family = _family(args)
    m = args.samples
    if m < 1:
        raise DomainError("samples must be positive")
    if m > 65536:
        raise DomainError("samples must be at most 65536")
    thetas = [2.0 * math.pi * k / m for k in range(m)]
    z_unit = [cmath.exp(1j * t) for t in thetas]
    z_inner = [0.99 * z for z in z_unit]
    w = w_eval(family, z_unit)
    wi, wpi = _w_sums(family.a, family.nu, z_inner)
    # CPython divides complex numbers by Smith's method with a true division,
    # so at theta = 0 this is starlike_sample's 0.99 w'(0.99) / w(0.99).
    rows = [(t, v.real, v.imag, (z * d / u).real)
            for t, v, z, u, d in zip(thetas, w, z_inner, wi, wpi)]
    header = ["theta", "w_re", "w_im", "starlike_re_at_0p99"]
    results = {"samples": [dict(zip(header, row)) for row in rows]}
    diag = {"samples": m, "starlike_radius": 0.99,
            "series_truncation_threshold": 1e-16}
    return results, diag, header, rows


def _cmd_selftest(args):
    from . import selftest
    only = None
    if args.only is not None:
        try:
            only = {int(tok) for tok in args.only.split(",") if tok.strip()}
        except ValueError:
            raise DomainError("--only expects a comma-separated list of check ids")
    checks = selftest.run_checks(only)
    failed = sum(not r.passed for r in checks)
    payload = {"checks": checks, "passed": len(checks) - failed, "failed": failed}
    rows = [[f"check {r.id:02d} {'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"]
            for r in checks]
    rows.append([f"{len(checks) - failed} passed, {failed} failed"])
    return payload, {"checks_run": len(checks)}, None, rows


# -------------------------------------------------------------- parsing

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process (parse_args only reads it).
    Each command declares its flags in the order its envelope lists them."""
    p = argparse.ArgumentParser(
        prog="dinicert",
        description="Certified numerics for Dini-function zeros and "
                    "starlikeness certificates on the unit disk.")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write output to FILE instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--a", type=float, required=True,
                        help="coupling a > 0 of the family (a=2: q_nu, a=1: r_nu)")
    family.add_argument("--nu", type=float, required=True, help="Bessel order nu > -1")

    def command(name, func, help_, *parents):
        q = sub.add_parser(name, help=help_, parents=parents)
        q.set_defaults(func=func)
        return q

    zeros = command("zeros", _cmd_zeros, "first n positive zeros of D_{a,nu}", family)
    zeros.add_argument("--n", type=int, default=5, help="number of zeros (default 5)")
    zeros.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="bracket width tolerance (default 1e-12)")
    sum_ = command("sum", _cmd_sum, "criterion sum: closed form and truncated+tail",
                   family)
    sum_.add_argument("--n", type=int, default=12,
                      help="zeros in the truncated sum (default 12)")
    crit = command("critical", _cmd_critical, "critical order nu_a where the sum hits 1")
    crit.add_argument("--a", type=float, required=True, help="coupling a > 0")
    crit.add_argument("--tol", type=float, default=1e-10,
                      help="bracket tolerance (default 1e-10)")
    cert = command("certify", _cmd_certify,
                   "starlike / close-to-convex verdict for w_{a,nu}", family)
    cert.add_argument("--n", type=int, default=12,
                      help="zeros for the corroborating sum (default 12)")
    ev = command("eval", _cmd_eval, "w and w' at one point of the closed unit disk",
                 family)
    ev.add_argument("--z", type=complex, required=True,
                    help="evaluation point, e.g. 0.5 or '0.3+0.4j'")
    bd = command("boundary", _cmd_boundary, "w on |z|=1 and Re(z w'/w) at r=0.99",
                 family)
    bd.add_argument("--samples", type=int, default=64,
                    help="number of angular samples, at most 65536 (default 64)")
    for q in (zeros, sum_, crit, cert, ev, bd):
        q.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
    st = command("selftest", _cmd_selftest, "run the acceptance checks")
    st.add_argument("--only", default=None,
                    help="comma-separated check ids to run (default all)")
    st.add_argument("--json", action="store_true", help="machine-readable report")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        results, diagnostics, header, rows = args.func(args)
        text = _output(args, results, diagnostics, header, rows)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        print(text)
    # selftest's results count failed checks, and any failure exits 1
    return 1 if isinstance(results, dict) and results.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
