"""Benchmark of the routhsim pipeline: one command, four workloads.

    python3 bench/run.py --workload gait_sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the library from `src/`.
Each workload is a closed loop: one process, one caller, each op starting
when the previous one ends, BLAS pinned to one thread. Inputs come from
`--seed` only. Every op's output is checked; a failed check or an unexpected
error counts as a failed op and makes the exit code 1.

`--trace 0` prints the end-to-end metrics. `--trace 1` replays a fixed pass
of cases, each once untraced and once traced, and prints the per-layer
metrics per op. The last stdout line is the JSON result; the lines before it
give every metric with its unit and the environment. A record of the run
(and, when traced, its spans) is written under `.bench_out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure at least this long (and at least the "
                        "workload's minimum op count), stopping at the next "
                        "cycle boundary")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": git_sha(), "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


class Outcomes:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, i, message):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"op {i}: {message}")


def timed_op(wl, fx, case, tracer, outcomes, i):
    """Run one op and check it; returns its latency, or None if it failed."""
    outcomes.attempted += 1
    try:
        t0 = time.perf_counter()
        result = wl.op(fx, case, tracer)
        latency = time.perf_counter() - t0
        fails = wl.check(fx, case, result)
    except Exception:  # an op's error is a measured failure, not a crash
        outcomes.fail(i, traceback.format_exc(limit=-3).strip())
        return None
    if fails:
        outcomes.fail(i, "; ".join(fails))
        return None
    return latency


def set_up(wl, seed, workdir, null):
    """One set-up round: fixture, first case, and one warm-up op, timed."""
    t0 = time.perf_counter()
    fx = wl.fixture(workdir)
    case = wl.prepare(fx, next(wl.cases(seed)))
    result = wl.op(fx, case, null)
    elapsed = time.perf_counter() - t0
    return elapsed, fx, wl.check(fx, case, result)


def measure(wl, fx, seed, seconds, null, outcomes):
    """Closed loop over the seed's cases until `seconds` pass and at least
    `min_ops` ops have run, in whole cycles.

    Returns all latencies, the latencies per kind of case, and the wall time.
    """
    latencies = []
    by_kind = {}
    cases = wl.cases(seed)
    start = time.perf_counter()
    i = 0
    while (i % len(wl.cycle) or i < wl.min_ops
           or time.perf_counter() - start < seconds):
        latency = timed_op(wl, fx, wl.prepare(fx, next(cases)), null, outcomes, i)
        if latency is not None:
            latencies.append(latency)
            by_kind.setdefault(wl.cycle[i % len(wl.cycle)], []).append(latency)
        i += 1
    return latencies, by_kind, time.perf_counter() - start


def measure_traced(wl, fx, seed, seconds, null, tracer, outcomes):
    """Replay the first cases in passes, each op untraced then traced.

    Every pass runs the same cases, so per-op counts repeat exactly whatever
    the number of passes.
    """
    cases = wl.cases(seed)
    deck = [next(cases) for _ in range(wl.trace_pass or len(wl.cycle))]
    untraced_s = 0.0
    ops = 0
    start = time.perf_counter()
    while ops == 0 or time.perf_counter() - start < seconds:
        for i, raw in enumerate(deck):
            latency = timed_op(wl, fx, wl.prepare(fx, raw), null, outcomes, i)
            untraced_s += latency or 0.0
            case = wl.prepare(fx, raw)
            tracer.op = ops
            outcomes.attempted += 1
            try:
                with tracer.span("op"):
                    result = wl.op(fx, case, tracer)
                wl.probe(fx, case, tracer)
                fails = wl.check(fx, case, result)
            except Exception:
                outcomes.fail(i, traceback.format_exc(limit=-3).strip())
                fails = None
            if fails:
                outcomes.fail(i, "; ".join(fails))
            ops += 1
    return ops, untraced_s


def tail(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    The caller passes a sample of fixed size, so the percentile is the same
    in every run. With too few samples (failed ops), the slowest op (p100)
    stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "routhsim" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import routhsim  # noqa: F401  (timed: the library and its dependencies)
    import_s = time.perf_counter() - t0

    from tracing import PER_LAYER, NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    null = NullTracer()
    outcomes = Outcomes()
    tag = f"{wl.name}-seed{args.seed}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            elapsed, fx, fails = set_up(wl, args.seed, str(workdir), null)
            rounds.append(elapsed)
            if fails:
                outcomes.attempted += 1
                outcomes.fail(-1, "warm-up: " + "; ".join(fails))
        setup_s = import_s + statistics.median(rounds)

        if args.trace:
            tracer = Tracer()
            n_ops, untraced_s = measure_traced(wl, fx, args.seed, args.seconds,
                                               null, tracer, outcomes)
            tracer.dump(OUT / f"{tag}-spans.json")
            values = tracer.per_layer(n_ops, untraced_s)
            metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
            detail = {"traced_ops": n_ops}
        else:
            latencies, by_kind, wall = measure(wl, fx, args.seed, args.seconds,
                                               null, outcomes)
            # Read on the first min_ops ops only, which every run has.
            tail_s, tail_pct = (tail(latencies[:wl.min_ops]) if latencies
                                else (0.0, 0.0))
            values = {
                "ops_per_s": len(latencies) / wall,
                "op_p50_s": statistics.median(latencies) if latencies else 0.0,
                "op_tail_s": tail_s,
                "setup_s": setup_s,
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: (values[name], unit) for name, unit in END_TO_END}
            detail = {"wall_s": wall, "op_tail_percentile": tail_pct,
                      "tail_samples": min(len(latencies), wl.min_ops),
                      "latencies_by_kind": by_kind,
                      "fail_ratio": outcomes.failed / max(1, outcomes.attempted)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    detail.update(import_s=import_s, setup_rounds_s=rounds, failures=outcomes.messages)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": outcomes.attempted,
              "failed": outcomes.failed, "env": env, "detail": detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"{tag}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {outcomes.attempted}  failed {outcomes.failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'fail_ratio':32s} {detail['fail_ratio']:.6g} ratio")
        print(f"  op_tail_s is p{detail['op_tail_percentile']:.1f} of "
              f"{detail['tail_samples']} samples")
    for message in outcomes.messages:
        print(f"  FAILED {message}")
    print("env " + json.dumps(env))
    correct = outcomes.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcomes.attempted,
                      "failed": outcomes.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
