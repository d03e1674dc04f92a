"""Command-line entry point: ``locus <pipeline> [options]``."""

from __future__ import annotations

import argparse
import json
import sys

from .catlimits import FunctorError
from .cohomology import BudgetError
from .fusion import FusionError
from .harness import PIPELINES, RunConfig, run
from .locality import LocalityError
from .permgroups import GroupError
from .rootdata import RootDataError
from .signalizer import SignalizerError
from .transporter import TransporterError

# the package's named errors: a rejected input, reported in one line
INPUT_ERRORS = (GroupError, LocalityError, FusionError, TransporterError,
                SignalizerError, FunctorError, RootDataError, BudgetError)


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
    """Exit status 0 when every verdict passes, 1 when one fails, 2 when the
    input is rejected with one of the package's named errors."""
    args = build_parser().parse_args(argv)
    config = RunConfig(
        pipeline=args.pipeline, group=args.group, prime=args.prime,
        objects=args.objects, jmax=args.jmax, seed=args.seed,
        samples=args.samples, q=args.q,
        report_path=args.report_path)
    try:
        report = run(config)
    except INPUT_ERRORS as exc:
        sys.stderr.write(f"locus: {type(exc).__name__}: {exc}\n")
        return 2
    sys.stdout.write(report.canonical_bytes().decode() + "\n")
    for key, reason in report.skipped().items():
        sys.stderr.write(f"locus: {key} {reason}\n")
    if report.timings:
        sys.stderr.write("timings (s): " + json.dumps(report.timings) + "\n")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
