"""dinicert benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload verdict-grid --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.
Untraced (--trace 0) the run cycles through the workload's operations
for --seconds and reports the end-to-end metrics.  Traced (--trace 1) it
times one untraced pass, then repeats whole traced passes for --seconds
and reports per-layer metrics.  Either way every distinct operation is
then checked against the mpmath oracles outside the timed region.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; before it comes the full report as indented JSON (all metrics,
raw times, failure counters, environment stamp).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import mpmath as mp  # noqa: E402

import oracle  # noqa: E402
from layertrace import LAYERS, VERDICTS, LayerTrace  # noqa: E402
from workloads import WORKLOADS, digest, generate  # noqa: E402

SETUP_RUNS = 9
TAIL_LEVELS = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The highest of TAIL_LEVELS with at least 10 samples beyond it at each
# workload's op count in a 20 s run (about 60, 60, 90000 and 400 ops),
# except closed-form: its p99.9 (90 samples) is set by scheduler stalls
# of a shared machine and spread 0.20 over ten seeds, its p99 by the
# slowest critical_order calls.
TAIL_LEVEL = {"verdict-grid": 75.0, "zero-tables": 75.0, "closed-form": 99.0,
              "cli-mix": 95.0}
# Machine-speed probe: the reference kernel is timed every CAL_EVERY_S;
# REF_NOMINAL_NS over its median duration around an operation is the
# local speed that scales that operation's time (see bench/README.md).
REF_STEPS = 5000
CAL_EVERY_S = 0.05
CAL_WINDOW_S = 0.5
REF_NOMINAL_NS = 1_000_000
# Exception message families, in match order.
FAIL_PATTERNS = (
    ("spacing_rejected", "zero spacing"),
    ("too_few_sign_changes", "sign changes of D_"),
    ("critical_no_sign_change", "no sign change of the critical equation"),
    ("critical_multiple_sign_changes", "multiple sign changes of the critical"),
    ("critical_residual", "critical equation residual"),
    ("critical_sum_cross_check", "sum criterion at nu_a deviates"),
    ("residual_check", "residual"),
    ("refine", "could not be refined"),
    ("derivative_vanishes", "derivative vanishes"),
    ("bessel_series", "Bessel series"),
    ("bessel_series", "target precision"),
)
FAIL_REASONS = ("pole", *dict(FAIL_PATTERNS), "numeric_other", "domain", "other",
                "accuracy", "bracket_width", "enclosure", "spurious_boundary")

# The metrics of the last stdout line, as declared in BENCHMARK.json.
END_TO_END = ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mib")
PER_LAYER = (
    *(f"{layer}.{m}" for layer in LAYERS for m in ("calls", "self_share", "failures")),
    "bessel.self_s", "bessel.mpmath_calls", "zeros.zeros_localized",
    "zeros.bessel_calls_per_zero", "certify.zeros_per_verdict",
    "criterion.bessel_calls_per_op", *(f"certify.verdicts.{v}" for v in VERDICTS),
    "trace.overhead", *(f"fail.{r}" for r in FAIL_REASONS),
)


@dataclass(frozen=True)
class Raised:
    """Outcome of an operation that raised."""

    type: str
    message: str


def fail_reason(type_name: str, message: str) -> str:
    if type_name == "PoleError":
        return "pole"
    if type_name == "DomainError":
        return "domain"
    for reason, pattern in FAIL_PATTERNS:
        if pattern in message:
            return reason
    return "numeric_other" if type_name == "NumericFailure" else "other"


# ------------------------------------------------------------ operations

def bind(op, lib):
    """A zero-argument callable for `op`; families are built here, untimed."""
    if op.kind == "certify":
        family = lib.DiniFamily(*op.args)
        return lambda: lib.certify(family)
    if op.kind == "find_zeros":
        a, nu, n, tol = op.args
        family = lib.DiniFamily(a, nu)
        return lambda: lib.find_zeros(family, n, tol)
    if op.kind == "sum_closed":
        family = lib.DiniFamily(*op.args)
        return lambda: lib.sum_closed(family)
    if op.kind == "critical_order":
        return lambda: lib.critical_order(*op.args)
    if op.kind == "cli":
        argv = list(op.args)
        main = lib.cli.main

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            return code, out.getvalue(), err.getvalue()
        return run_cli
    raise ValueError(f"unknown operation kind {op.kind!r}")


def call(fn):
    try:
        return fn()
    except Exception as exc:  # every raise is an outcome to classify
        return Raised(type(exc).__name__, str(exc))


class Outcomes:
    """The first outcome of each operation, and how many later calls of
    the same operation returned something different."""

    def __init__(self, n: int):
        self.n = n
        self.first: list = []
        self.calls = 0
        self.mismatched = 0

    def add(self, r) -> None:
        if self.calls < self.n:
            self.first.append(r)
        else:
            ref = self.first[self.calls % self.n]
            if not (r == ref or repr(r) == repr(ref)):  # repr: equal when both NaN
                self.mismatched += 1
        self.calls += 1


# ----------------------------------------------------------------- checks
# Checks read results in the shape of the CLI envelopes, so the library
# calls and the CLI commands share them.

def _merge(acc, part):
    for into, items in zip(acc, part):
        into.extend(items)


def _check_zeros(acc, a, nu, n, tol, res):
    for e in res["entries"]:
        _merge(acc, oracle.check_zero(a, nu, e["zero"], e["lo"], e["hi"]))
        if e["hi"] - e["lo"] > tol:
            acc[1].append("bracket_width")
    if len(res["entries"]) != n:
        acc[2].append(f"{len(res['entries'])} zeros returned for n={n}")


def _check_sum(acc, a, nu, sc):
    """A SumCriterion: the closed value, and the enclosure when present."""
    _merge(acc, oracle.check_sum_closed(a, nu, sc["closed_value"]))
    if sc["truncated_value"] is not None:
        s, _, _ = oracle.sum_s(a, nu)
        lo = sc["truncated_value"]
        if not lo <= s <= lo + sc["tail_bound"]:
            acc[1].append("enclosure")


def _check_certify(acc, a, nu, res):
    sc = res["sum_criterion"]
    _merge(acc, oracle.check_report(a, nu, res["verdict"]))
    if sc is not None:
        _check_sum(acc, a, nu, sc)


def _check_envelope(acc, text):
    env = json.loads(text)
    cmd, inputs, res = env["command"], env["inputs"], env["results"]
    a, nu = inputs["a"], inputs.get("nu")
    if cmd == "eval":
        z = complex(inputs["z"])
        w = complex(res["w"]["re"], res["w"]["im"])
        wp = complex(res["w_prime"]["re"], res["w_prime"]["im"])
        _merge(acc, oracle.check_w(a, nu, z, w, wp))
    elif cmd == "boundary":
        m = len(res["samples"])
        for k, s in enumerate(res["samples"]):
            theta = 2.0 * math.pi * k / m
            z = complex(math.cos(theta), math.sin(theta))
            _merge(acc, oracle.check_w(a, nu, z, complex(s["w_re"], s["w_im"])))
            _merge(acc, oracle.check_starlike(a, nu, 0.99 * z, s["starlike_re_at_0p99"]))
    elif cmd == "critical":
        _merge(acc, oracle.check_critical(a, res["nu_a"], res["lo"], res["hi"]))
    elif cmd == "zeros":
        _check_zeros(acc, a, nu, inputs["n"], inputs["tol"], res)
    elif cmd == "sum":
        _check_sum(acc, a, nu, res)
    elif cmd == "certify":
        _check_certify(acc, a, nu, res)
    else:
        raise ValueError(f"unexpected command {cmd!r}")


def _sum_dict(sc):
    return {"closed_value": sc.closed_value, "truncated_value": sc.truncated_value,
            "tail_bound": sc.tail_bound}


def check(op, outcome):
    """(rel_errors, reasons, violations) for one operation's outcome."""
    acc = ([], [], [])
    if isinstance(outcome, Raised):
        acc[1].append(fail_reason(outcome.type, outcome.message))
    elif op.kind == "certify":
        sc = outcome.sum_criterion
        _check_certify(acc, *op.args, {"verdict": outcome.verdict,
                                       "sum_criterion": sc and _sum_dict(sc)})
    elif op.kind == "find_zeros":
        entries = [{"zero": e.zero, "lo": e.lo, "hi": e.hi} for e in outcome.entries]
        _check_zeros(acc, *op.args, {"entries": entries})
    elif op.kind == "sum_closed":
        _merge(acc, oracle.check_sum_closed(*op.args, outcome))
    elif op.kind == "critical_order":
        _merge(acc, oracle.check_critical(*op.args, outcome.nu_a, outcome.lo, outcome.hi))
    else:
        code, out, err = outcome
        if code == 3:
            acc[1].append(fail_reason("NumericFailure", err.partition(": ")[2]))
        elif code != 0:
            acc[1].append("domain" if code == 2 else "other")
        else:
            _check_envelope(acc, out)
    return acc


# ------------------------------------------------------------ measurement

def measure_setup() -> tuple[list[float], list[float]]:
    """Wall time for a fresh interpreter to finish `import dinicert`.

    Returns the raw times and the same times at reference speed, each
    scaled by the reference kernel timed just before it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        probe = statistics.median(time_reference() for _ in range(3))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import dinicert"], env=env,
                       cwd=str(ROOT), check=True)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * REF_NOMINAL_NS / probe)
    return raw, scaled


def reference_kernel() -> int:
    """Fixed pure-Python big-integer work, timed to track machine speed."""
    x, acc, mask = 0x9E3779B97F4A7C15, 1, (1 << 256) - 1
    for i in range(REF_STEPS):
        acc = (acc * x + i) & mask
    return acc


def time_reference() -> int:
    t0 = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - t0


def timed_loop(fns, outcomes, seconds):
    """Closed loop over fns, cycling, until `seconds` pass.

    Every CAL_EVERY_S the reference kernel is timed between operations.
    Returns (latencies in ns, operation start times in ns, wall seconds
    spent in the loop less the reference runs, reference probes as
    (time, duration) in ns).
    """
    lat, starts, probes = array("q"), array("q"), []
    n = len(fns)
    clock = time.perf_counter_ns
    start = clock()
    deadline = start + int(seconds * 1e9)
    next_probe = start
    i = 0
    while (now := clock()) < deadline:
        if now >= next_probe:
            probes.append((now, time_reference()))
            next_probe = now + int(CAL_EVERY_S * 1e9)
        t0 = clock()
        r = call(fns[i % n])
        lat.append(clock() - t0)
        starts.append(t0)
        outcomes.add(r)
        i += 1
    wall = (clock() - start - sum(d for _, d in probes)) * 1e-9
    return lat, starts, wall, probes


def local_speed(lat, starts, probes):
    """Machine speed during each operation, relative to REF_NOMINAL_NS:
    from the median probe within CAL_WINDOW_S before its start or after
    its end."""
    times = [t for t, _ in probes]
    durs = [d for _, d in probes]
    window = int(CAL_WINDOW_S * 1e9)
    memo = {}
    speed = []
    for d, t in zip(lat, starts):
        a = bisect.bisect_left(times, t - window)
        b = max(bisect.bisect_right(times, t + d + window), a + 1)
        if (a, b) not in memo:
            memo[a, b] = REF_NOMINAL_NS / statistics.median(durs[a:b] or durs[-1:])
        speed.append(memo[a, b])
    return speed


def traced_passes(fns, outcomes, seconds):
    """One untraced pass, then whole traced passes for `seconds` (at least one).

    Returns (untraced latencies in ns, untraced wall, tracer, passes,
    traced wall, seconds inside operation calls).
    """
    clock = time.perf_counter_ns
    base_lat = []
    start = time.perf_counter()
    for fn in fns:
        t0 = clock()
        outcomes.add(call(fn))
        base_lat.append(clock() - t0)
    base_wall = time.perf_counter() - start

    tracer = LayerTrace(str(SRC / "dinicert"))
    passes = op_ns = 0
    start = time.perf_counter()
    with tracer:
        while passes == 0 or time.perf_counter() - start < seconds:
            for fn in fns:
                t0 = clock()
                outcomes.add(call(fn))
                op_ns += clock() - t0
            passes += 1
    wall = time.perf_counter() - start
    return base_lat, base_wall, tracer, passes, wall, op_ns * 1e-9


def environment(phase_load):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": phase_load,
    }


def check_all(ops, outcomes):
    """Oracle checks on the first outcome of each operation.

    Returns (relative errors, fail.<reason> counts, violations, failed ops).
    """
    rel_errs, fails, violations, failed = [], dict.fromkeys(FAIL_REASONS, 0), [], 0
    with mp.workdps(oracle.DPS):
        for op, outcome in zip(ops, outcomes.first):
            errs, reasons, viol = check(op, outcome)
            rel_errs.extend(errs)
            violations.extend(viol)
            failed += bool(reasons)
            for r in set(reasons):
                fails[r] += 1
    if outcomes.mismatched:
        violations.append(f"{outcomes.mismatched} repeated calls returned a different result")
    return rel_errs, fails, violations, failed


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted xs.

    A mean of the order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    distribution, here in its normal approximation.  Unlike a single order
    statistic it does not jump from one sample to the next when the sample
    count changes by one, which matters when a few dozen latencies spread
    over three orders of magnitude.
    """
    n = len(xs)
    sd = math.sqrt(p * (1.0 - p) / (n + 2))
    lo, hi = max(0, math.floor((p - 8 * sd) * n)), min(n, math.ceil((p + 8 * sd) * n))

    def cdf(u):
        return 0.5 * (1.0 + math.erf((u - p) / (sd * math.sqrt(2.0))))
    weights = [cdf((i + 1) / n) - cdf(i / n) for i in range(lo, hi)]
    return sum(w * x for w, x in zip(weights, xs[lo:hi])) / sum(weights)


def end_to_end(lat, starts, wall, probes, setup, rss_mib, failed, n_ops, rel_errs,
               tail_level):
    """End-to-end metrics.  Times are reported at reference machine speed
    (each latency times the local speed); the raw figures go in the report."""
    n = len(lat)
    # Step down from the workload's level if fewer than 10 samples lie beyond it.
    level = next((p for p in TAIL_LEVELS if p <= tail_level and n * (1 - p / 100) >= 10),
                 50.0)
    speed = local_speed(lat, starts, probes)
    raw_ms = sorted(v * 1e-6 for v in lat)
    ref_ms = sorted(v * 1e-6 * f for v, f in zip(lat, speed))
    mean_speed = sum(v * f for v, f in zip(lat, speed)) / sum(lat)
    setup_raw, setup_ref = setup
    metrics = {
        "ops_per_s": (n / (wall * mean_speed), "1/s"),
        "op_p50_ms": (hd_quantile(ref_ms, 0.5), "ms"),
        "op_tail_ms": (hd_quantile(ref_ms, level / 100), "ms"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
        "fail_share": (failed / n_ops, "ratio"),
        "max_rel_err": (max(rel_errs, default=0.0), "ratio"),
    }
    raw = {
        "ops_per_s": n / wall,
        "op_p50_ms": hd_quantile(raw_ms, 0.5),
        "op_tail_ms": hd_quantile(raw_ms, level / 100),
        "setup_s": statistics.median(setup_raw),
    }
    return metrics, {"timed_ops": n, "wall_s": wall, "tail_percentile": level,
                     "machine_speed": mean_speed, "raw": raw}


def per_layer(ops, base_lat, base_wall, tracer, passes, wall, op_s, fails):
    """Per-layer metrics of a traced run.

    The traced wall time splits as  sum of <layer>.self_s  +  trace.bench_s
    (the loop between operations)  +  trace.residual_s (inside operation
    calls but outside every layer span: the benchmark's call wrappers,
    non-layer modules called directly, and the hook's own edges).
    """
    metrics = tracer.summary(passes, wall)
    metrics["trace.overhead"] = (wall / passes / base_wall, "ratio")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.bench_s"] = (wall - op_s, "s")
    metrics["trace.residual_s"] = (op_s - metrics["trace.layers_s"][0], "s")
    for reason, n in fails.items():
        metrics[f"fail.{reason}"] = (n, "count")
    by_cmd = {}
    for op, ns in zip(ops, base_lat):
        if op.kind == "cli":
            by_cmd.setdefault(op.stratum, []).append(ns * 1e-6)
    for cmd, values in sorted(by_cmd.items()):
        metrics[f"cli.{cmd}.p50_ms"] = (statistics.median(values), "ms")
    return metrics, {"passes": passes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "dinicert" / "__init__.py").is_file():
        print(f"error: no dinicert package under {SRC}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    sys.path.insert(0, str(SRC))
    import dinicert as lib
    import dinicert.cli  # noqa: F401  (bind() reaches cli.main through lib)

    ops = generate(args.workload, args.seed)
    fns = [bind(op, lib) for op in ops]
    outcomes = Outcomes(len(ops))
    if args.trace:
        timing = traced_passes(fns, outcomes, args.seconds)
    else:
        setup = measure_setup()
        lat, starts, wall, probes = timed_loop(fns, outcomes, args.seconds)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Operations the timed loop never reached are run here, untimed.
    for fn in fns[len(outcomes.first):]:
        outcomes.add(call(fn))
    rel_errs, fails, violations, failed = check_all(ops, outcomes)

    if args.trace:
        metrics, extra = per_layer(ops, *timing, fails)
        spans = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.json.gz"
        spans.parent.mkdir(exist_ok=True)
        timing[2].dump(spans)
        extra["spans_file"] = str(spans.relative_to(ROOT))
        wanted = PER_LAYER
    else:
        metrics, extra = end_to_end(lat, starts, wall, probes, setup, rss_mib, failed,
                                    len(ops), rel_errs, TAIL_LEVEL[args.workload])
        extra["fail"] = {f"fail.{r}": n for r, n in fails.items()}
        wanted = END_TO_END
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_in_set": len(ops), "inputs_sha256": digest(ops),
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "violations": violations[:20],
        "environment": environment([load_start, os.getloadavg()[0]]),
    }
    print(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": not violations,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
