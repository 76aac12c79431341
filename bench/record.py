"""Repeat the benchmark over seeds, judge its steadiness, and write a record.

    python3 bench/record.py --seeds 1-10 --out bench/BENCH_1.json

Run it from the root of a checkout. For each workload it runs the command in
BENCHMARK.json once per seed untraced, one run at a time, then twice traced
on the first seed. Per end-to-end metric it reports the median and the
quartile spread (Q3 - Q1 over the median) against a third of the metric's
bound; the two traced runs must repeat every count exactly. It exits 1
unless every spread is below a third of its bound and the counts repeat.
It also checks the RHS counters against independently counted calls:
`integrate_segment` at the certified seed with t_max = 5 (about 3750
evaluations) and the pinned return-map Jacobian (about 43k).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
TRACED_RUNS = 2
COUNTS = ("models.rhs_calls", "models.guard_calls", "models.reset_calls",
          "hybrid.impacts", "poincare.section_offset_calls",
          "routh.inertia_calls", "scenario.report_bytes")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def counter_sanity():
    """Count RHS calls of two reference computations outside the benchmark."""
    sys.path.insert(0, str(ROOT / "src"))
    import dataclasses

    import routhsim as rs
    from tracing import Tracer
    from workloads import CERT_IMPACT_ANGLE, CERT_KAPPA, CERT_SEED, gait_seed

    params = rs.SlipParams(kappa=CERT_KAPPA)
    seed = gait_seed(*CERT_SEED)
    tracer = Tracer()
    spec = tracer.spec(rs.slip_hybrid_spec(params))
    with tracer.span("integrate_segment"):
        rs.integrate_segment(spec, seed, 0.0, 5.0)
    pinned = tracer.spec(rs.slip_hybrid_spec(
        dataclasses.replace(params, phi0=CERT_IMPACT_ANGLE)))
    with tracer.span("jacobian"):
        rs.jacobian(pinned, rs.slip_section(seed), t_max=5.0)
    found = {rec["name"]: rec["calls"]["models.rhs"][0] for rec in tracer.spans}
    expected = {"integrate_segment": 3750, "jacobian": 43000}
    return {name: {"rhs_calls": found[name], "expected_about": want,
                   "ok": abs(found[name] - want) <= 0.05 * want}
            for name, want in expected.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--out", default=None, help="write the record here")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    record = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = [run(bench["command"], name, s, seconds, 0) for s in args.seeds]
        e2e = {}
        for metric in bench["end_to_end"]:
            key = metric["name"]
            stats = spread([r["metrics"][key]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            stats["steady"] = stats["spread"] < metric["bound"] / 3
            steady &= stats["steady"]
            e2e[key] = stats
            print(f"{name:15s} {key:12s} median {stats['median']:.5g}  "
                  f"spread {stats['spread']:.3f}  bound/3 {metric['bound'] / 3:.3f}"
                  f"{'' if stats['steady'] else '  NOT STEADY'}", flush=True)
        entry = {"end_to_end": e2e,
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs]}
        traced = [run(bench["command"], name, args.seeds[0], seconds, 1)
                  for _ in range(TRACED_RUNS)]
        layers = [{k: v["value"] for k, v in r["metrics"].items()} for r in traced]
        repeat = all(t[k] == layers[0][k] for t in layers for k in COUNTS)
        steady &= repeat
        entry.update(per_layer=layers, counts_repeat=repeat)
        print(f"{name:15s} traced counts repeat: {repeat}", flush=True)
        record["workloads"][name] = entry

    record["counter_sanity"] = counter_sanity()
    print("counter sanity: " + json.dumps(record["counter_sanity"]))
    env_file = OUT / f"{names[-1]}-seed{args.seeds[0]}-trace0.json"
    record["env"] = json.loads(env_file.read_text())["env"]
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
