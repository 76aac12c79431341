"""Command-line front end: one subcommand per scenario task.

Exit codes: 0 success, 1 a requested check failed, 2 input error,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import yaml

from .scenario import TASKS, ScenarioError, parse_scenario, run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="routhsim",
        description="Hybrid Routhian systems: reduction, symmetric periodic "
                    "orbits, stability, and zero-dynamics control.")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a {task} scenario")
        p.add_argument("--scenario", required=True,
                       help="path to the YAML scenario file")
        p.add_argument("--out", default=".",
                       help="output directory for trajectory and report files")
        p.add_argument("--seed-override", default=None,
                       help="comma-separated state coordinates replacing the "
                            "scenario seed")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="print the report as JSON on stdout")
    return parser


def _load_scenario(args):
    try:
        with open(args.scenario) as fh:
            sc = parse_scenario(fh.read())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    if sc.task != args.task:
        raise ScenarioError(
            f"scenario declares task '{sc.task}' but subcommand is '{args.task}'")
    if args.seed_override is not None:
        try:
            seed = tuple(float(v) for v in args.seed_override.split(","))
        except ValueError as exc:
            raise ScenarioError(f"bad --seed-override: {exc}") from exc
        sc = dataclasses.replace(sc, seed=seed)
    return sc


def _summarize(report):
    print(f"task: {report.task}")
    for key, value in report.results.items():
        if key in ("jacobian",):
            continue
        print(f"  {key}: {value}")
    for check in report.checks:
        status = "pass" if check["passed"] else "FAIL"
        print(f"  check {check['name']}: {status} "
              f"(residual {check['residual']:.3e}, "
              f"tolerance {check['tolerance']:.1e})")
    if report.impact_times:
        print(f"  impacts: {len(report.impact_times)}")
    print(f"  wall_seconds: {report.wall_seconds:.3f}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sc = _load_scenario(args)
    except (ScenarioError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        report = run(sc, out_dir=args.out)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if args.as_json:
        print(json.dumps(report.as_dict(), indent=2))
    elif not args.quiet:
        _summarize(report)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
