"""Command-line surface: zeros, sum, critical, certify, eval, boundary, selftest.

Every command prints a JSON envelope {command, inputs, results,
diagnostics, version} by default (CSV for tabular data on request).
Result dataclasses render field by field in declaration order, so their
field names are the wire keys.  Floats are printed with up to 17
significant digits so output is byte-stable and re-parses to the exact
double.  Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success, 1 selftest failure,
2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import __version__
from .bessel import w_eval, w_prime_eval
from .certify import certify
from .criterion import (BOUNDARY_BAND, SEARCH_WINDOW, SUM_CROSS_CHECK_TOL,
                        critical_order, evaluate_criterion)
from .errors import DomainError, NumericFailure
from .families import DiniFamily, Order
from .zeros import DEFAULT_TOL, SCAN_STEP, X_MAX, find_zeros

# ------------------------------------------------------------ rendering

def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise NumericFailure("non-finite value reached the serializer")
    return "%.17g" % x


def _render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{k}": {_render(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_render(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if dataclasses.is_dataclass(obj):
        return _render({f.name: getattr(obj, f.name)
                        for f in dataclasses.fields(obj)}, indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _envelope(command: str, inputs: dict, results, diagnostics: dict) -> str:
    return _render({
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics,
        "version": __version__,
    })


def _csv(header: list[str], rows: list[list]) -> str:
    def cell(v):
        if isinstance(v, float):
            return _fmt_float(v)
        return str(v)
    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines)


# ------------------------------------------------------------- commands

def _cmd_zeros(args) -> tuple[str, int]:
    family = DiniFamily(args.a, Order(args.nu))
    table = find_zeros(family, args.n, args.tol)
    if args.format == "csv":
        rows = [[e.n, e.zero, e.lo, e.hi, e.residual] for e in table.entries]
        return _csv(["n", "zero", "lo", "hi", "residual"], rows), 0
    diag = {
        "scan_step": SCAN_STEP,
        "range_cap": X_MAX,
        "tol": table.tol,
        "max_bracket_width": max(e.hi - e.lo for e in table.entries),
        "max_residual": max(e.residual for e in table.entries),
    }
    inputs = {"a": family.a, "nu": family.nu, "n": args.n, "tol": args.tol,
              "format": args.format}
    return _envelope("zeros", inputs, table, diag), 0


def _cmd_sum(args) -> tuple[str, int]:
    family = DiniFamily(args.a, Order(args.nu))
    crit = evaluate_criterion(family, n_terms=args.n)
    applicable = crit.truncated_value is not None
    if args.format == "csv":
        row = [family.a, family.nu, crit.closed_value, crit.truncated_value,
               crit.terms_used, crit.tail_bound, crit.threshold_margin]
        return _csv(["a", "nu", "closed", "truncated", "terms", "tail_bound",
                     "margin"], [["" if v is None else v for v in row]]), 0
    diag = {
        "closed_form_accuracy_budget": 1e-11,
        "truncated_applicable": applicable,
        "tail_bound": crit.tail_bound,
    }
    inputs = {"a": family.a, "nu": family.nu, "n": args.n, "format": args.format}
    return _envelope("sum", inputs, crit, diag), 0


def _cmd_critical(args) -> tuple[str, int]:
    result = critical_order(args.a, tol=args.tol)
    if args.format == "csv":
        row = [result.a, result.nu_a, result.lo, result.hi, result.residual,
               result.sum_at_root]
        return _csv(["a", "nu_a", "lo", "hi", "residual", "sum_at_root"], [row]), 0
    diag = {
        "search_lo": SEARCH_WINDOW[0],
        "search_hi": SEARCH_WINDOW[1],
        "bracket_width": result.hi - result.lo,
        "sum_cross_check_tol": SUM_CROSS_CHECK_TOL,
    }
    inputs = {"a": args.a, "tol": args.tol, "format": args.format}
    return _envelope("critical", inputs, result, diag), 0


def _cmd_certify(args) -> tuple[str, int]:
    family = DiniFamily(args.a, Order(args.nu))
    report = certify(family, zero_count=args.n)
    if args.format == "csv":
        sc = report.sum_criterion
        row = [family.a, family.nu, report.verdict,
               "" if sc is None else sc.closed_value,
               report.smallest_zero_margin,
               "" if report.min_re_starlike is None else report.min_re_starlike]
        return _csv(["a", "nu", "verdict", "closed_sum", "zero_margin",
                     "min_re_starlike"], [row]), 0
    diag = {
        "zero_count": args.n,
        "boundary_band": BOUNDARY_BAND,
        "decision_route": "closed_form_sum",
        "sampling_is_corroboration_only": True,
    }
    inputs = {"a": family.a, "nu": family.nu, "n": args.n, "format": args.format}
    return _envelope("certify", inputs, report, diag), 0


def _cmd_eval(args) -> tuple[str, int]:
    family = DiniFamily(args.a, Order(args.nu))
    z = args.z
    w = w_eval(family, z)
    wp = w_prime_eval(family, z)
    if args.format == "csv":
        row = [family.a, family.nu, z.real, z.imag, w.real, w.imag, wp.real, wp.imag]
        return _csv(["a", "nu", "z_re", "z_im", "w_re", "w_im",
                     "w_prime_re", "w_prime_im"], [row]), 0
    results = {
        "z": {"re": z.real, "im": z.imag},
        "w": {"re": w.real, "im": w.imag},
        "w_prime": {"re": wp.real, "im": wp.imag},
    }
    diag = {"series_truncation_threshold": 1e-16}
    inputs = {"a": family.a, "nu": family.nu, "z": str(z), "format": args.format}
    return _envelope("eval", inputs, results, diag), 0


def _cmd_boundary(args) -> tuple[str, int]:
    family = DiniFamily(args.a, Order(args.nu))
    m = args.samples
    if m < 1:
        raise DomainError("samples must be positive")
    thetas = np.array([2.0 * math.pi * k / m for k in range(m)])
    z_unit = np.exp(1j * thetas)
    z_inner = 0.99 * z_unit
    w = w_eval(family, z_unit)
    wi = w_eval(family, z_inner)
    wpi = w_prime_eval(family, z_inner)
    starlike = np.real(z_inner * wpi / wi)
    rows = [[float(thetas[k]), float(w[k].real), float(w[k].imag),
             float(starlike[k])] for k in range(m)]
    if args.format == "csv":
        return _csv(["theta", "w_re", "w_im", "starlike_re_at_0p99"], rows), 0
    results = {
        "samples": [
            {"theta": r[0], "w_re": r[1], "w_im": r[2], "starlike_re_at_0p99": r[3]}
            for r in rows
        ],
    }
    diag = {"samples": m, "starlike_radius": 0.99,
            "series_truncation_threshold": 1e-16}
    inputs = {"a": family.a, "nu": family.nu, "samples": m, "format": args.format}
    return _envelope("boundary", inputs, results, diag), 0


def _cmd_selftest(args) -> tuple[str, int]:
    from . import selftest

    only = None
    if args.only:
        try:
            only = {int(tok) for tok in args.only.split(",") if tok.strip()}
        except ValueError:
            raise DomainError("--only expects a comma-separated list of check ids")
        bad = only - {cid for cid, _, _ in selftest._CHECKS}
        if bad:
            raise DomainError(f"unknown check ids: {sorted(bad)}")
    results = selftest.run_checks(only)
    failed = [r for r in results if not r.passed]
    code = 1 if failed else 0
    if args.json:
        payload = {
            "checks": results,
            "passed": len(results) - len(failed),
            "failed": len(failed),
        }
        inputs = {"only": args.only, "json": True}
        diag = {"checks_run": len(results)}
        return _envelope("selftest", inputs, payload, diag), code
    lines = [
        f"check {r.id:02d} {'PASS' if r.passed else 'FAIL'} "
        f"{r.name}: {r.detail}"
        for r in results
    ]
    lines.append(f"{len(results) - len(failed)} passed, {len(failed)} failed")
    return "\n".join(lines), code


# -------------------------------------------------------------- parsing

def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, required=True,
                   help="coupling a > 0 of the family (a=2: q_nu, a=1: r_nu)")
    p.add_argument("--nu", type=float, required=True,
                   help="Bessel order nu > -1")


def _add_format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="output format (default json)")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dinicert",
        description="Certified numerics for Dini-function zeros and "
                    "starlikeness certificates on the unit disk.")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write output to FILE instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("zeros", help="first n positive zeros of D_{a,nu}")
    _add_family_flags(q)
    q.add_argument("--n", type=int, default=5, help="number of zeros (default 5)")
    q.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="bracket width tolerance (default 1e-12)")
    _add_format_flag(q)
    q.set_defaults(func=_cmd_zeros)

    q = sub.add_parser("sum", help="criterion sum: closed form and truncated+tail")
    _add_family_flags(q)
    q.add_argument("--n", type=int, default=12,
                   help="zeros in the truncated sum (default 12)")
    _add_format_flag(q)
    q.set_defaults(func=_cmd_sum)

    q = sub.add_parser("critical", help="critical order nu_a where the sum hits 1")
    q.add_argument("--a", type=float, required=True, help="coupling a > 0")
    q.add_argument("--tol", type=float, default=1e-10,
                   help="bracket tolerance (default 1e-10)")
    _add_format_flag(q)
    q.set_defaults(func=_cmd_critical)

    q = sub.add_parser("certify", help="starlike / close-to-convex verdict for w_{a,nu}")
    _add_family_flags(q)
    q.add_argument("--n", type=int, default=12,
                   help="zeros for the corroborating sum (default 12)")
    _add_format_flag(q)
    q.set_defaults(func=_cmd_certify)

    q = sub.add_parser("eval", help="w and w' at one point of the closed unit disk")
    _add_family_flags(q)
    q.add_argument("--z", type=complex, required=True,
                   help="evaluation point, e.g. 0.5 or '0.3+0.4j'")
    _add_format_flag(q)
    q.set_defaults(func=_cmd_eval)

    q = sub.add_parser("boundary", help="w on |z|=1 and Re(z w'/w) at r=0.99")
    _add_family_flags(q)
    q.add_argument("--samples", type=int, default=64,
                   help="number of angular samples (default 64)")
    _add_format_flag(q)
    q.set_defaults(func=_cmd_boundary)

    q = sub.add_parser("selftest", help="run the acceptance checks")
    q.add_argument("--json", action="store_true", help="machine-readable report")
    q.add_argument("--only", default=None,
                   help="comma-separated check ids to run (default all)")
    q.set_defaults(func=_cmd_selftest)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        text, code = args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
