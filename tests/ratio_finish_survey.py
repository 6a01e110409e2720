"""Could the continued fraction alone take each zero's finish step?

    python tests/ratio_finish_survey.py

For every zero that the zero-tables and verdict-grid benchmark inputs refine
at seeds 1, 4 and 901, this takes the x at which ``_refine`` makes its first
fixed-point pass and forms the finish's Newton step x - d / dp from
``_j_ratio`` in place of the pass, with r = J_{nu+1} / J_nu moved to either
end of the band where atan r is within ``k (x + 8) eps`` of the computed
value.  It prints, for k = 0.49 (the worst error measured against 40-digit
mpmath) and k = 1 (the bound the README states), how many zeros get the same
double x_new at both ends of the band (the ratio decides the step), and the
median and 95th percentile of the band's half-width in x_new, in ulps of x.
Run it from the repository root; it reads the inputs from ``bench/``.
"""

from __future__ import annotations

import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import generate  # noqa: E402

import dinicert  # noqa: E402
from dinicert import zeros  # noqa: E402
from dinicert.errors import NumericFailure  # noqa: E402


def finish_points() -> list[tuple[float, float, float]]:
    """(a, nu, x) for the first fixed-point pass of each refined zero."""
    points, d_lead, first = [], zeros._d_lead, []

    def spy(a, nu, x):
        if not first:
            first.append(x)
            points.append((a, nu, x))
        return d_lead(a, nu, x)

    refine = zeros._refine

    def spy_refine(*args):
        first.clear()
        return refine(*args)

    zeros._d_lead, zeros._refine = spy, spy_refine
    try:
        for workload in ("zero-tables", "verdict-grid"):
            for seed in (1, 4, 901):
                for op in generate(workload, seed):
                    family = dinicert.DiniFamily(*op.args[:2])
                    try:
                        if op.kind == "certify":
                            dinicert.certify(family)
                        else:
                            dinicert.find_zeros(family, *op.args[2:])
                    except NumericFailure:
                        pass
    finally:
        zeros._d_lead, zeros._refine = d_lead, refine
    return points


def x_new(a: float, nu: float, x: float, r: float) -> float:
    """The finish's step from J_nu-scaled values: D / J_nu = a - x r."""
    dp = (a * nu / x - x) + (nu - a) * r
    return x - (a - x * r) / dp


def main() -> None:
    points = finish_points()
    print(f"{len(points)} zeros")
    for k in (0.49, 1.0):
        decided, widths = 0, []
        for a, nu, x in points:
            s, sr = zeros._j_ratio(nu, x, 0)
            phi, delta = math.atan(s * sr), k * (x + 8.0) * sys.float_info.epsilon
            lo, hi = (x_new(a, nu, x, math.tan(phi + sign * delta)) for sign in (-1.0, 1.0))
            decided += lo == hi
            widths.append(abs(hi - lo) / 2.0 / math.ulp(x))
        widths.sort()
        print(f"atan r within {k} (x + 8) eps: the ratio decides x_new for {decided} "
              f"of {len(points)} zeros; half-width median {statistics.median(widths):.2f} "
              f"ulp, 95th percentile {widths[int(0.95 * (len(widths) - 1))]:.2f} ulp")


if __name__ == "__main__":
    main()
