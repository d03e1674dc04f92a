"""The locus benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload acceptance --seed 2024 --seconds 40 --trace 0
    python3 perfbench/run.py                 # every workload, one table
    python3 perfbench/run.py --record        # re-record the expected digests

Run it from anywhere; it works on the checkout that holds it and builds
nothing (``src`` goes on ``PYTHONPATH``).  Every pass runs in a fresh child
process (``child.py``) with one caller and no worker pool: the child loads
the workload's groups (``setup_s``), then runs the timed pass (``wall_s``,
``cpu_s``, ``peak_rss_mb``).  A run keeps starting passes while the next
one is expected to end within ``--seconds``, and reports medians.

With ``--trace 1`` each pass is a pair: an untraced pass, then a pass under
the tracer of ``tracer.py``.  The run reports the per-layer metrics of the
traced passes and ``trace.overhead_s``, the traced minus the untraced wall
time.

Every item's canonical report bytes are checked against ``expected.json``;
a call that raises or a digest that differs counts as failed, and the keys
of ``results`` that differ are printed.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record, with the machine block, every sample and the speed probes taken
around each pass, goes to ``.bench_out/``.  On a shared virtual machine the
CPU speed can drift by half over minutes; the probes show when that happened.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer  # names and units of the per-layer metrics; imports no locus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected.json"
WORKLOADS = ["acceptance", "limits", "bigcover"]
DEFAULT_SEED = 2024
RUN_LIMIT_S = 170.0  # a run ends well inside the 180 s it is allowed
SETUP_SAMPLES = 2  # set-up-only children per run, on top of one per pass

E2E = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")]


class BenchError(RuntimeError):
    """The benchmark cannot run here (as opposed to the program failing)."""


# -- machine block ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of src/locus, which identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((SRC / "locus").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "loadavg_start": list(os.getloadavg()),
        "LOCUS_MEMORY_BUDGET_MB": os.environ.get("LOCUS_MEMORY_BUDGET_MB"),
        "commit": _commit(),
        "src_sha256": _source_sha256(),
    }


# -- children -----------------------------------------------------------------

def child(workload: str, seed: int, mode: str, deadline: float, spans=None) -> dict:
    """Run one child process to completion and return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode]
    if spans is not None:
        cmd.append(str(spans))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} pass did not end before the run's time limit",
                "elapsed": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"error": f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}",
                "elapsed": elapsed}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(out["locus"]).resolve().is_relative_to(SRC):
        raise BenchError(f"child imported locus from {out['locus']}, not from {SRC}")
    out["elapsed"] = elapsed
    return out


class Checker:
    """Counts item checks against the recorded digests."""

    def __init__(self, expected_items: list):
        self.expected = expected_items
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def check(self, out: dict, n_items: int) -> bool:
        """Check every item of one pass; return True if the pass ran."""
        if "error" in out:
            self.attempted += n_items
            self.failed += n_items
            self.messages.append(out["error"])
            return False
        for i, rec in enumerate(out["items"]):
            self.attempted += 1
            want = self.expected[i] if i < len(self.expected) else None
            if "error" in rec:
                self.fail(f"{rec['name']} raised:\n{rec['error']}")
            elif want is None or want["name"] != rec["name"]:
                self.fail(f"{rec['name']}: no recorded digest (run --record)")
            elif want["sha256"] != rec["sha256"]:
                keys = sorted(k for k in set(want["keys"]) | set(rec["keys"])
                              if want["keys"].get(k) != rec["keys"].get(k))
                self.fail(f"{rec['name']}: canonical bytes differ from the record; "
                          f"differing result keys: {keys or '(none: passed flag or inputs)'}")
        return True

    def same_bytes(self, plain: dict, traced: dict) -> None:
        """The traced pass must produce the bytes of the untraced pass."""
        for a, b in zip(plain["items"], traced["items"]):
            if "raw" in a and "raw" in b:
                self.attempted += 1
                if a["raw"] != b["raw"]:
                    self.fail(f"{a['name']}: traced canonical bytes differ from untraced")


# -- one run ------------------------------------------------------------------

def _median(xs):
    return statistics.median(xs) if xs else None


def _spread(xs):
    if len(xs) < 2:
        return None
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"q1": q1, "median": statistics.median(xs), "q3": q3, "n": len(xs)}


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 expected: dict) -> tuple:
    n_items = max(1, len(expected.get(workload, [])))
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    checker = Checker(expected.get(workload, []))
    samples = {name: [] for name, _ in E2E}
    layers, plain_walls, traced_walls, item_seconds, probes = [], [], [], [], []
    info = machine()

    def fits(estimate: float) -> bool:
        now = time.monotonic()
        return now + estimate <= min(start + seconds, deadline - 5.0)

    warm = child(workload, seed, "setup", deadline)  # bytecode and file cache
    if "error" in warm:
        checker.check(warm, n_items)
    if not trace:
        for _ in range(SETUP_SAMPLES):
            out = child(workload, seed, "setup", deadline)
            if "error" not in out:
                samples["setup_s"].append(out["setup_s"])
        estimate = 0.0
        while not samples["wall_s"] or fits(estimate):
            out = child(workload, seed, "plain", deadline)
            estimate = max(estimate, out["elapsed"])
            if not checker.check(out, n_items):
                break
            for name, _ in E2E:
                samples[name].append(out[name])
            item_seconds.append([rec.get("seconds") for rec in out["items"]])
            probes.append(out["probe_s"])
    else:
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"{workload}-seed{seed}.spans.json"
        estimate = 0.0
        while not traced_walls or fits(estimate):
            plain = child(workload, seed, "plain", deadline)
            traced = child(workload, seed, "traced", deadline, spans)
            estimate = max(estimate, plain["elapsed"] + traced["elapsed"])
            ok = checker.check(plain, n_items) & checker.check(traced, n_items)
            if not ok:
                break
            checker.same_bytes(plain, traced)
            plain_walls.append(plain["wall_s"])
            traced_walls.append(traced["wall_s"])
            layers.append(traced["layers"])
    info["loadavg_end"] = list(os.getloadavg())

    if trace:
        metrics = {}
        if layers:
            for name, unit in tracer.metric_units().items():
                if name == "trace.overhead_s":
                    value = _median(traced_walls) - _median(plain_walls)
                else:
                    value = _median([m[name] for m in layers])
                    if unit != "s":
                        value = int(value)
                metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": _median(samples[name]), "unit": unit}
                   for name, unit in E2E if samples[name]}
    result = {"correct": checker.failed == 0, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": info, "elapsed_s": time.monotonic() - start,
        "samples": samples if not trace else {"plain_wall_s": plain_walls,
                                               "traced_wall_s": traced_walls},
        "spread": {k: _spread(v) for k, v in samples.items()} if not trace else None,
        "layers_per_pass": layers,
        "item_seconds": item_seconds,
        "probe_s": probes,
        "failures": checker.messages,
        "result": result,
    }
    return result, record


def write_record(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"{record['workload']}-seed{record['seed']}"
                  f"-trace{record['trace']}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return path


def print_result(workload: str, result: dict, record: dict, path: Path) -> None:
    m = record["machine"]
    print(f"[{workload}] machine: nproc {m['nproc']}, {m['cpu_model']}, python {m['python']}, "
          f"numpy {m['numpy']}, load {m['loadavg_start'][0]:.2f} -> {m['loadavg_end'][0]:.2f}, "
          f"LOCUS_MEMORY_BUDGET_MB {m['LOCUS_MEMORY_BUDGET_MB'] or 'unset'}, "
          f"commit {m['commit'] or 'unknown'}, src {m['src_sha256'][:12]}")
    for message in record["failures"]:
        print(f"[{workload}] FAILED: {message}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"[{workload}] {name} = {shown} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"[{workload}] failed_frac = {frac:g} ratio "
          f"({result['failed']} of {result['attempted']} checks)")
    print(f"[{workload}] record: {path.relative_to(ROOT)}")


def print_table(results: dict) -> None:
    heads = [f"{name} ({unit})" for name, unit in E2E] + ["failed_frac (ratio)"]
    print(f"{'workload':<12}" + "".join(f"{h:>20}" for h in heads))
    for workload, result in results.items():
        cells = [result["metrics"][name]["value"] for name, _ in E2E if name in result["metrics"]]
        cells.append(result["failed"] / result["attempted"])
        print(f"{workload:<12}" + "".join(f"{c:>20.4g}" for c in cells))


# -- recording the expected digests --------------------------------------------

def record_expected() -> None:
    """Write expected.json from one untraced pass per workload at the default seed."""
    expected = {}
    deadline = time.monotonic() + 10 * RUN_LIMIT_S
    for workload in WORKLOADS:
        out = child(workload, DEFAULT_SEED, "plain", deadline)
        if "error" in out:
            raise BenchError(out["error"])
        for rec in out["items"]:
            if "error" in rec or not rec["passed"]:
                raise BenchError(f"{rec['name']} did not pass; nothing recorded")
        expected[workload] = [{k: rec[k] for k in ("name", "sha256", "passed", "keys")}
                              for rec in out["items"]]
        print(f"{workload}: {len(out['items'])} items recorded")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


# -- command line -----------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record expected.json at the default seed and exit")
    args = ap.parse_args(argv)

    if not (SRC / "locus" / "harness.py").is_file():
        print(f"error: no locus sources under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        record_expected()
        return 0
    expected = json.loads(EXPECTED.read_text())
    chosen = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in chosen:
        result, record = run_workload(workload, args.seed, args.seconds,
                                      bool(args.trace), expected)
        print_result(workload, result, record, write_record(record))
        results[workload] = result
    if args.workload == "all":
        if not args.trace:
            print_table(results)
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
