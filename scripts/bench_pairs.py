"""Alternating parent/change perfbench runs, collected into one BENCH file.

    python scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload bigcover --pairs 10 --traced --out BENCH_6.json

Each side is a git checkout directory or a git revision of the repository
in the current directory, run with its own ``perfbench/run.py`` at the same
``--seconds`` and seed.  Both sides run from fresh ``git archive``s in
temporary directories that are removed afterwards: a revision as it is, a
checkout as ``git stash create`` records its tracked files, which leaves
the checkout untouched (stage new files first; untracked ones are left
out).  Wall time and peak RSS both differ between a working checkout and an
archive of the same files, so only archives compare like with like.  Each
archive's ``src`` and ``perfbench`` are byte-compiled once before its runs:
under PYTHONDONTWRITEBYTECODE=1 every run would otherwise compile the
sources again, and its peak RSS would be the compiler's.  Pair i
runs the parent first when i is even and the change first when i is odd.
After every run the record that the benchmark wrote to
``<archive>/.bench_out/`` is read back.  With ``--traced`` one traced run
per side follows the pairs.

The output file gets one entry per workload, keyed ``<workload>`` at the
default seed 2024 and ``<workload>/seed<N>`` at any other; entries under
other keys already in the file are kept.  An entry holds every run's record
(machine block, medians and quartiles, checks), each side's commit
(suffixed ``-dirty`` for a checkout with uncommitted changes), each side's
median and quartiles over its run medians, the number of pairs the change
won for every end-to-end metric (lower is better, ties count for neither),
the item digests of ``perfbench/expected.json`` and, with ``--traced``,
each side's per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Tuple

E2E = ["wall_s", "setup_s", "cpu_s", "peak_rss_mb"]
DEFAULT_SEED = 2024
KEPT = ["machine", "elapsed_s", "spread", "failures", "result"]


def bench(checkout: Path, workload: str, seconds: int, seed: int, trace: int) -> dict:
    """One perfbench run of one checkout; the record it wrote, trimmed."""
    subprocess.run([sys.executable, str(checkout / "perfbench" / "run.py"),
                    "--workload", workload, "--seconds", str(seconds),
                    "--seed", str(seed), "--trace", str(trace)],
                   check=True, stdout=subprocess.DEVNULL)
    path = checkout / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text())
    return {k: record[k] for k in KEPT}


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def value(record: dict, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def git(*args: str, cwd: Optional[Path] = None) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True)


def resolve_side(spec: str, stack: contextlib.ExitStack) -> Tuple[Path, str]:
    """(directory to run, commit) for a checkout directory or a revision:
    its files archived into a temporary directory that ``stack`` removes."""
    cwd = Path(spec) if Path(spec).is_dir() else None
    if cwd is not None:
        head = git("rev-parse", "--verify", "HEAD", cwd=cwd)
        if head.returncode:
            raise SystemExit(f"bench_pairs: {spec!r} is not a git checkout")
        commit = head.stdout.decode().strip()
        stash = git("stash", "create", cwd=cwd).stdout.decode().strip()
        tree, commit = (stash, commit + "-dirty") if stash else (commit, commit)
    else:
        rev = git("rev-parse", "--verify", "--quiet", spec + "^{commit}")
        if rev.returncode:
            raise SystemExit(f"bench_pairs: {spec!r} is neither a directory "
                             "nor a git revision")
        tree = commit = rev.stdout.decode().strip()
    tmp = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="bench-")))
    tar = subprocess.run(["git", "archive", "--format=tar", tree], cwd=cwd,
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tmp)], input=tar, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tmp, check=True, stdout=subprocess.DEVNULL)
    return tmp, commit


def pair_count(text: str) -> int:
    """--pairs: the quartiles of each side need at least two runs."""
    pairs = int(text)
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 pairs, got {pairs}")
    return pairs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="checkout directory or git revision")
    ap.add_argument("--change", required=True, help="checkout directory or git revision")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=pair_count, default=10)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    with contextlib.ExitStack() as stack:
        sides, commits = {}, {}
        for name in ("parent", "change"):
            sides[name], commits[name] = resolve_side(getattr(args, name), stack)
        return compare(args, sides, commits)


def compare(args: argparse.Namespace, sides: dict, commits: dict) -> int:
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(bench(sides[side], args.workload, args.seconds, args.seed, 0))
        print(f"pair {i + 1}: " + ", ".join(
            f"{side} wall_s {value(runs[side][-1], 'wall_s'):.3f}" for side in order),
            file=sys.stderr)

    entry = {
        "seconds": args.seconds, "seed": args.seed, "pairs": args.pairs,
        "commit": commits,
        "correct": all(r["result"]["correct"] for rs in runs.values() for r in rs),
        "expected_sha256": {
            side: [item["sha256"] for item in json.loads(
                (path / "perfbench" / "expected.json").read_text())[args.workload]]
            for side, path in sides.items()},
        "metrics": {},
        "runs": runs,
    }
    for metric in E2E:
        parent = [value(r, metric) for r in runs["parent"]]
        change = [value(r, metric) for r in runs["change"]]
        entry["metrics"][metric] = {
            "parent": spread(parent), "change": spread(change),
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "parent_wins": sum(p < c for p, c in zip(parent, change)),
        }
    if args.traced:
        entry["traced"] = {side: bench(path, args.workload, args.seconds, args.seed, 1)
                           for side, path in sides.items()}

    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = args.workload if args.seed == DEFAULT_SEED else f"{args.workload}/seed{args.seed}"
    out[key] = entry
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for metric, m in entry["metrics"].items():
        print(f"{args.workload} {metric}: parent {m['parent']['median']:.4g} "
              f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}], change "
              f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
              f"{m['change']['q3']:.4g}], change better in "
              f"{m['change_wins']}/{args.pairs}")
    return 0 if entry["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
