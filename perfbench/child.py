"""One pass of one workload, in a fresh process.

Run by ``run.py`` as ``python3 perfbench/child.py WORKLOAD SEED MODE
[SPANS_PATH]`` with ``src`` on ``PYTHONPATH``.  MODE is ``setup`` (set-up
only), ``plain`` (set-up, then the timed pass) or ``traced`` (the same with
the tracer installed).  The child prints one JSON object on stdout:
``setup_s``, and for a pass ``wall_s``, ``cpu_s``, ``peak_rss_mb``,
``probe_s`` (a fixed loop timed just before and after the pass, which shows
how fast the machine was running) and one record per item with the digest
of its canonical bytes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
import traceback

T_START = time.perf_counter()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def item_record(name: str, canonical: bytes, seed: int, default_seed: int) -> dict:
    """Digests of one report.

    ``sha256`` hashes the canonical bytes with the echoed ``inputs.seed`` set
    to the default seed, so one recorded digest checks every seed; ``raw``
    hashes the bytes as produced.  ``keys`` hashes each result on its own,
    so that a mismatch can name the keys that differ.
    """
    payload = json.loads(canonical)
    inputs = payload.get("inputs", {})
    if "seed" in inputs:
        if inputs["seed"] != seed:
            raise ValueError(f"report echoes seed {inputs['seed']}, expected {seed}")
        inputs["seed"] = default_seed
    normal = json.dumps(payload, sort_keys=True, indent=1).encode()
    return {
        "name": name,
        "sha256": _sha(normal),
        "raw": _sha(canonical),
        "passed": payload["passed"],
        "keys": {k: _sha(json.dumps(v, sort_keys=True).encode())
                 for k, v in payload["results"].items()},
    }


def main(argv) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    import workloads  # imports locus: part of the set-up time

    kept = workloads.setup(workload)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s, "locus": workloads.harness.__file__}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    del kept
    gc.collect()

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer(run_id=f"{workload}-{seed}")
        tracer.install()
    items = []
    probe_before = speed_probe()
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        for item in workloads.WORKLOADS[workload]:
            t_item = time.perf_counter()
            try:
                if tracer is not None and item.pipeline:
                    with tracer.span(f"harness.{item.pipeline}"):
                        report = item.make(seed)
                else:
                    report = item.make(seed)
                rec = item_record(item.name, report.canonical_bytes(), seed,
                                  workloads.DEFAULT_SEED)
            except Exception:  # a failed call is counted, the pass goes on
                rec = {"name": item.name, "error": traceback.format_exc()}
            rec["seconds"] = time.perf_counter() - t_item
            items.append(rec)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    out.update(wall_s=wall_s, cpu_s=cpu_s, items=items,
               probe_s=[probe_before, speed_probe()],
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s)
        if len(argv) > 4:
            with open(argv[4], "w", encoding="utf-8") as fh:
                json.dump({"run_id": tracer.run_id,
                           "fields": ["name", "start", "end", "parent", "run_id"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
