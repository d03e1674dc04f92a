"""Command-line entry point: ``locus <pipeline> [options]``."""

from __future__ import annotations

import argparse
import json
import sys

from .harness import PIPELINES, RunConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locus",
        description="Desk-scale computations with localities, fusion systems, "
                    "orbit categories, higher limits, and B3 root data.")
    parser.add_argument("pipeline", choices=PIPELINES)
    parser.add_argument("--group", help="bundled group name or path to a .grp file")
    parser.add_argument("--prime", type=int, default=2)
    parser.add_argument("--objects", default="all-nontrivial",
                        help="all-nontrivial | centric | subcentric | min-order:N")
    parser.add_argument("--jmax", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--samples", type=int, default=100000)
    parser.add_argument("--q", type=int, help="field size for lie-verify")
    parser.add_argument("--report", dest="report_path",
                        help="write the canonical report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        pipeline=args.pipeline, group=args.group, prime=args.prime,
        objects=args.objects, jmax=args.jmax, seed=args.seed,
        samples=args.samples, q=args.q,
        report_path=args.report_path)
    report = run(config)
    sys.stdout.write(report.canonical_bytes().decode() + "\n")
    if report.timings:
        sys.stderr.write("timings (s): " + json.dumps(report.timings) + "\n")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
