"""Benchmark of sblq: three workloads, checked answers, optional layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload small-mix --seed 1 --seconds 30 --trace 0

The program is imported from `src/` of the same checkout.  With `--trace 0`
the last line of standard output holds the end-to-end metrics, with
`--trace 1` the per-layer metrics; the line before it is a report with the
environment, sample counts and failures.  Each workload runs in its own
process, single-threaded, as a closed loop: one op at a time, passes over
the workload's ops repeated until `--seconds` is used up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
SETUP_PROBES = 2          # extra set-ups, each in a fresh process, for setup_s
WORKLOADS = ("small-mix", "holder-ladder", "nonholder-ladder")

# Host speed.  On a shared host the speed of pure-Python code drifts by up to
# a quarter within minutes, and the exact ops follow it almost one to one.
# Before the first op and after every op, a fixed stretch of stdlib Fraction
# arithmetic (no sblq code) is timed, repeatedly, for at least
# CALIBRATION_MIN_S and at least CALIBRATION_SHARE of the op's time.  An op's
# host speed is CALIBRATION_REFERENCE_S over the mean of the median stretch
# times before and after it.  Op times are multiplied by their host speed:
# they read as seconds on a host where one stretch takes the reference time
# (about its typical time on the 2-vCPU x86-64 host the benchmark was tuned
# on).
CALIBRATION_TERMS = 200
CALIBRATION_MIN_S = 0.003
CALIBRATION_SHARE = 0.05
CALIBRATION_REFERENCE_S = 0.0015

# (metric name, unit) printed with --trace 0, in the order BENCHMARK.json lists them
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import the package, build the inputs and run one untimed warm-up op.

    Returns (workloads module, ops, seconds taken, seconds scaled to the
    reference host speed).  Each of the three steps is scaled like an op.
    """
    sys.path.insert(0, str(SRC))
    seconds = scaled = 0.0
    after = calibrate(0.0)

    def step(body):
        nonlocal seconds, scaled, after
        start = perf_counter()
        out = body()
        took = perf_counter() - start
        before, after = after, calibrate(took)
        seconds += took
        scaled += took * host_speed(before, after)
        return out

    def load():
        import sblq.cli  # noqa: F401  (its import cost belongs to set-up)
        import workloads
        return workloads

    workloads = step(load)
    ops = step(lambda: workloads.build_ops(workload, seed))
    step(ops[0].call)
    return workloads, ops, seconds, scaled


def probe_setup(workload: str, seed: int):
    """(Measured, scaled) set-up time of a fresh process, which pays the
    imports again."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    seconds, scaled = proc.stdout.split()[-2:]
    return float(seconds), float(scaled)


def calibration_stretch() -> float:
    """Seconds taken by a fixed stretch of Fraction arithmetic."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return perf_counter() - start


def calibrate(op_seconds: float) -> float:
    """Median time of the stretches run after an op that took `op_seconds`."""
    stretches = []
    while sum(stretches) < max(CALIBRATION_MIN_S, CALIBRATION_SHARE * op_seconds):
        stretches.append(calibration_stretch())
    return statistics.median(stretches)


def host_speed(before: float, after: float) -> float:
    """Host speed over a step, from the median stretch times around it."""
    return 2 * CALIBRATION_REFERENCE_S / (before + after)


def run_pass(ops, failures: dict, tracer=None, speeds=None):
    """Time every op once, then check its output outside the timed region.

    Returns (op seconds, failed count).  An op fails when it raises or when
    its check rejects the output.  With a `speeds` list, calibration
    stretches run before the first op and after each op's check, and each
    op's host speed is appended.
    """
    times, failed = [], 0
    after = calibrate(0.0) if speeds is not None else None
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = k
        start = perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a failed op is counted, the run goes on
            out, error = None, exc
        times.append(perf_counter() - start)
        if tracer is not None:
            tracer.op_id = None
        if error is None:
            try:
                ok = bool(op.check(out))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            failed += 1
            if op.name not in failures:
                failures[op.name] = repr(error) if error else "check rejected the output"
        if speeds is not None:
            before, after = after, calibrate(times[-1])
            speeds.append(host_speed(before, after))
    return times, failed


def timed_passes(seconds: float, body):
    """Call body() until the next call would overrun `seconds`; at least once."""
    start = perf_counter()
    count = 0
    while True:
        body()
        count += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / count > seconds:
            return


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, timeout=10).stdout.strip()
    except OSError:
        l3 = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache_bytes": int(l3) if l3.isdigit() else None,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(ops, seconds: float, failures: dict):
    """Timed passes with calibration stretches between ops.

    Returns (op times of each pass, host speed around each op of each pass,
    attempted, failed).
    """
    passes, speeds, attempted, failed = [], [], 0, 0

    def one_pass():
        nonlocal attempted, failed
        speeds.append([])
        times, bad = run_pass(ops, failures, speeds=speeds[-1])
        passes.append(times)
        attempted += len(times)
        failed += bad

    timed_passes(seconds, one_pass)
    return passes, speeds, attempted, failed


def measure_traced(ops, seconds: float, failures: dict, extra_namespaces,
                   spans_path: Path):
    """Alternate untraced and traced passes; layer numbers from the traced ones.

    The first pass is untraced, so caches are warm when tracing starts and
    the traced counts repeat exactly across runs with the same seed.
    """
    from layers import Tracer
    tracer = Tracer()
    plain, traced, stats = [], [], []
    attempted = failed = 0
    first_spans = None

    def one_pass(traced_pass: bool) -> float:
        nonlocal attempted, failed
        if traced_pass:
            tracer.reset()
            tracer.install(extra_namespaces)
        try:
            times, bad = run_pass(ops, failures, tracer if traced_pass else None)
        finally:
            tracer.uninstall()
        attempted += len(times)
        failed += bad
        return sum(times)

    def pair():
        nonlocal first_spans
        plain.append(one_pass(False))
        traced.append(one_pass(True))
        stats.append(tracer.layer_stats())
        if first_spans is None:
            first_spans = tracer.spans   # reset() starts a new list

    timed_passes(seconds, pair)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path, first_spans)
    first = stats[0]
    for later in stats[1:]:
        for key, value in first.items():
            if not key.endswith("_s") and later.get(key) != value:
                print(f"warning: traced count {key} changed between passes: "
                      f"{value} then {later.get(key)}", file=sys.stderr)
    layer = dict(first)
    for key in first:
        if key.endswith("_s"):
            layer[key] = statistics.median(s[key] for s in stats)
    layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return layer, plain, traced, attempted, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sblq").is_dir():
        print(f"no sblq package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    workloads, ops, *setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(*setup_s)
        return 0

    failures: dict = {}
    report = {"env": environment(args), "ops_per_pass": len(ops)}
    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        layer, plain, traced, attempted, failed = measure_traced(
            ops, args.seconds, failures, [workloads], spans_path)
        from layers import PER_LAYER
        metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                   for name, unit in PER_LAYER}
        report.update(untraced_wall_s=plain, traced_wall_s=traced,
                      spans_file=str(spans_path.relative_to(ROOT)))
    else:
        setups = [tuple(setup_s)] + [probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
        passes, speeds, attempted, failed = measure(ops, args.seconds, failures)
        scaled = [[speed * t for speed, t in zip(pass_speeds, times)]
                  for pass_speeds, times in zip(speeds, passes)]
        walls = [sum(times) for times in scaled]
        # one latency sample per op, its median over the passes, so that the
        # percentiles do not shift with the number of passes that fit
        samples = [statistics.median(op_times) for op_times in zip(*scaled)]
        values = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "wall_s": statistics.median(walls),
            "latency_p50_ms": 1e3 * statistics.median(samples),
            "latency_p90_ms": 1e3 * quantile(samples, 90),
            "ok_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        report.update(setup_samples_s=[scaled for _, scaled in setups],
                      measured_setup_s=[seconds for seconds, _ in setups],
                      pass_wall_s=walls,
                      measured_pass_wall_s=[sum(times) for times in passes],
                      host_speed=[statistics.median(s) for s in speeds],
                      latency_samples=len(samples),
                      latency_samples_beyond_p90=sum(
                          1 for t in samples if 1e3 * t > values["latency_p90_ms"]),
                      op_median_s={op.name: t for op, t in zip(ops, samples)})
    report.update(attempted=attempted, failed=failed,
                  failed_ratio=failed / attempted, failures=failures)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
