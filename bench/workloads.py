"""Seeded workload generators.

A workload is a list of operations, generated from the seed alone and
run in a closed loop with one caller.  Each generator draws its
parameters as Latin hypercubes (`_design`), so every seed covers each
range evenly and the mix of cheap and expensive operations (which sets
throughput and the latency percentiles) is the same from seed to seed,
while the points themselves differ.  Strata of different kinds are
interleaved so that any prefix of the list has about the full mix.

Nothing here imports dinicert: the program receives only the inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

from oracle import critical_curve, unit_zero_order


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Op:
    """One operation: a library call or a CLI argv, with plain arguments."""

    kind: str       # certify | find_zeros | sum_closed | critical_order | cli
    args: tuple
    stratum: str


def _design(rng: random.Random, n: int, *dims) -> list[tuple]:
    """n points of a Latin hypercube, ordered along the first dim.

    Each dim is a range (lo, hi), sampled once in each of n equal slices
    of (lo, hi], or a list of n values, each used once.  Which slice of
    one dim meets which slice of another is fixed for every seed; the seed
    only places each point inside its slices.  The points follow the
    slices of the first dim in golden-ratio order, so any run of
    consecutive points spreads over that dim.  Put the dim that drives an
    operation's cost first: then a pass cut short by the clock still has
    about the full cost mix, and the timings do not vary with the seed.
    """
    cols = []
    for d, dim in enumerate(dims):
        perm = list(range(n)) if d == 0 else random.Random(f"design:{n}:{d}").sample(range(n), n)
        if isinstance(dim, list):
            cols.append([dim[k] for k in perm])
        else:
            lo, hi = dim
            cols.append([hi - (hi - lo) * (k + rng.random()) / n for k in perm])
    order = sorted(range(n), key=lambda k: (k * _GOLDEN) % 1.0)
    return [tuple(col[k] for col in cols) for k in order]


def _log(points, d):
    """Map dim d of each point from log scale."""
    return [p[:d] + (math.exp(p[d]),) + p[d + 1:] for p in points]


def _interleave(*strata: list[Op]) -> list[Op]:
    """Merge strata so each is spread evenly along the list."""
    keyed = [((j + 0.5) / len(s), i, op)
             for i, s in enumerate(strata) for j, op in enumerate(s)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _near_critical(rng, n):
    """(a, nu) within 0.2 of the critical curve, a in [0.8, 3]."""
    return [(a, critical_curve(a) + off)
            for off, a in _design(rng, n, (-0.2, 0.2), (0.8, 3.0))]


def _inside_unit_disk(rng, n):
    """(a, nu) with omega_1 < 1, a in [0.8, 3].

    The Ismail bound 4a(nu+1)/(a+2) is then below 1 too, so certify takes
    its fast path: one zero, then `inapplicable`.  The order stays 5% of
    the way short of omega_1 = 1, where D(1) = 0 is a pole of the sum.
    """
    return [(a, -1.0 + u * (unit_zero_order(a) + 1.0))
            for u, a in _design(rng, n, (0.0, 0.95), (0.8, 3.0))]


def verdict_grid(rng: random.Random) -> list[Op]:
    """certify over the critical band, the Ismail fast path and high orders."""
    def ops(points, stratum):
        return [Op("certify", p, stratum) for p in points]
    return _interleave(ops(_near_critical(rng, 22), "near_critical"),
                       ops(_inside_unit_disk(rng, 5), "omega1_lt_1"),
                       ops([(a, nu) for nu, a in _design(rng, 8, (4.0, 40.0), (0.8, 3.0))],
                           "nu_4_40"))


def zero_tables(rng: random.Random) -> list[Op]:
    """find_zeros with every count 1..18 once per tolerance."""
    counts = [(n, tol) for n in range(1, 19) for tol in (1e-12, 1e-8)]
    return [Op("find_zeros", (a, nu, n, tol), f"n{n}")
            for (n, tol), nu, a in _design(rng, 36, counts, (-0.9, 15.0), (0.2, 5.0))]


def closed_form(rng: random.Random) -> list[Op]:
    """sum_closed over a wide (a, nu) box, critical_order over log-spaced a."""
    sums = [Op("sum_closed", (a, nu), "sum")
            for nu, a in _design(rng, 512, (-0.9, 400.0), (0.1, 10.0))]
    crit = [Op("critical_order", p, "critical")
            for p in _log(_design(rng, 64, (math.log(0.1), math.log(50.0))), 0)]
    return _interleave(sums, crit)


def _family_args(a, nu):
    return ["--a", repr(a), "--nu", repr(nu)]


def cli_mix(rng: random.Random) -> list[Op]:
    """In-process CLI calls, cheap commands the majority."""
    box = ((-0.9, 15.0), (0.2, 5.0))  # nu first: it drives the cost
    evals = []
    for nu, a, r, t in _design(rng, 12, *box, (0.0, 1.0), (0.0, 2.0 * math.pi)):
        z = complex(r * math.cos(t), r * math.sin(t))
        evals.append(["eval", *_family_args(a, nu), f"--z={z.real!r}{z.imag:+.17g}j"])
    boundary = [["boundary", *_family_args(a, nu), "--samples", str(m)]
                for nu, a, m in _design(rng, 8, *box, [32, 64] * 4)]
    critical = [["critical", "--a", repr(a)]
                for (a,) in _log(_design(rng, 8, (math.log(0.1), math.log(50.0))), 0)]
    zeros = [["zeros", *_family_args(a, nu), "--n", str(n)]
             for nu, a, n in _design(rng, 4, *box, [3, 4, 5, 6])]
    sums = [["sum", *_family_args(a, nu)] for a, nu in _near_critical(rng, 4)]
    # certify: the critical band, the Ismail fast path, and orders above
    # 140 where J_nu(1) leaves the double range.
    cert_points = (_near_critical(rng, 2) + _inside_unit_disk(rng, 1)
                   + [(a, nu) for nu, a in _design(rng, 1, (140.0, 400.0), (0.2, 5.0))])
    certs = [["certify", *_family_args(a, nu)] for a, nu in cert_points]

    def ops(argvs):
        return [Op("cli", tuple(argv), argv[0]) for argv in argvs]
    return _interleave(ops(evals), ops(boundary), ops(critical), ops(zeros),
                       ops(sums), ops(certs))


WORKLOADS = {
    "verdict-grid": verdict_grid,
    "zero-tables": zero_tables,
    "closed-form": closed_form,
    "cli-mix": cli_mix,
}


def generate(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def digest(ops: list[Op]) -> str:
    """sha256 of the generated inputs, floats written exactly."""
    text = json.dumps([[op.kind, [repr(v) for v in op.args], op.stratum] for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()
