"""Benchmark entry point.

    python3 perfbench/run.py --workload navigate-cold --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each invocation runs one workload in its own process and prints, as its
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, measured with tracing off over ``--seconds //
round_seconds`` rounds of the workload (at least one).  With ``--trace 1`` the run makes one
untraced and one traced round and reports the per-layer metrics of the
traced round; the spans are written to ``.perfbench/spans/``.

The deterministic values of every round (training runs, spmm/sample/predict
calls, explorer counts, cache hit rate, result bytes, guideline quality) must
repeat exactly: between rounds of a run, between the untraced and the traced
round, and between runs of the same code and seed (kept in
``.perfbench/repeat/``).  A difference is a benchmark defect and makes the
run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from statistics import median

# One BLAS/OpenMP thread, set before numpy is first imported: threaded BLAS
# on a small shared host is the largest source of run-to-run spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_KERNEL", None)  # measure the program's default kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: fresh interpreters timed for the start-up part of setup_s (plus this
#: one), half before the set-up and half after the rounds: the host's speed
#: changes in steps a few seconds apart, so spreading them out decorrelates
#: their errors
STARTUP_PROBES = 4


def cold_start() -> float:
    """Import the program and build the dataset; seconds taken."""
    start = time.perf_counter()
    import repro.serving.transport  # noqa: F401
    from repro.explorer.navigator import GNNavigator  # noqa: F401
    from repro.graphs.datasets import load_dataset
    from repro.graphs.profiling import profile_graph

    profile_graph(load_dataset("reddit2"))
    return time.perf_counter() - start


def startup_probe() -> float:
    """``cold_start`` in a fresh interpreter, waited for."""
    proc = subprocess.run(
        [sys.executable, __file__, "--startup-probe"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def code_hash() -> str:
    """Identity of the code under test: the program and this benchmark."""
    digest = hashlib.sha256()
    for base in (SRC, Path(__file__).parent):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeat_check(workload: str, seed: int, det: dict) -> list[str]:
    """Compare ``det`` with an earlier run of the same code and seed."""
    path = WORK / "repeat" / f"{workload}-seed{seed}-{code_hash()}.json"
    current = json.loads(json.dumps(det, sort_keys=True))
    if path.exists():
        earlier = json.loads(path.read_text())
        return [
            f"{key}: {earlier.get(key)!r} earlier, {current.get(key)!r} now"
            for key in sorted(set(earlier) | set(current))
            if earlier.get(key) != current.get(key)
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(current, sort_keys=True, indent=1))
    return []


def run_round(workload, tracer):
    """One round, timed; its deterministic values include the counted seams."""
    from repro.runtime.kernels import kernel_counters

    def spmm_calls() -> float:
        return sum(slot["calls"] for slot in kernel_counters().values())

    before, spmm_before = Counter(tracer.counts), spmm_calls()
    start = time.perf_counter()
    out = workload.round(tracer)
    out.extra["wall"] = time.perf_counter() - start
    counts = Counter(tracer.counts)
    counts.subtract(before)
    workload.check_counts(counts, out)
    for key in (
        "runtime.gt_run",
        "sampling.sample",
        "estimator.predict",
        "estimator.predicted_configs",
        "explorer.prune_check",
        "transport.result_bytes",
    ):
        out.det[key] = counts[key]
    out.det["kernels.spmm_calls"] = spmm_calls() - spmm_before
    lookups = counts["hardware.looked_up"]
    out.det["hardware.hit_rate"] = counts["hardware.hits"] / lookups if lookups else 0.0
    out.extra["counts"] = counts
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--startup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.startup_probe:
        parser.error("--workload is required")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.startup_probe:
        print(cold_start())
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    # Every store is explicit; should anything fall back to the shared
    # store, it lands here rather than in .cache/store.
    os.environ["REPRO_STORE_DIR"] = os.path.join(workdir, "shared-store")
    try:
        return measure(args, bench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, bench: dict, workdir: str) -> int:
    sys.path.insert(0, str(Path(__file__).parent))
    from layers import per_layer
    from tracing import Tracer, install
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    startups = [cold_start()]
    startups += [startup_probe() for _ in range(STARTUP_PROBES // 2)]
    workload = WORKLOADS[args.workload](args.seed, workdir)
    rounds = []
    try:
        start = time.perf_counter()
        workload.setup()
        fill_s = time.perf_counter() - start
        tracer = Tracer(enabled=False)
        patches = install(tracer)
        try:
            count = 1 if args.trace else max(1, int(args.seconds // workload.round_seconds))
            for _ in range(count):
                rounds.append(run_round(workload, tracer))
            if args.trace:
                patches.undo()
                tracer = Tracer(enabled=True)
                patches = install(tracer)
                rounds.append(run_round(workload, tracer))
            final = workload.finish(tracer)
        finally:
            patches.undo()
    finally:
        workload.teardown()
    startups += [startup_probe() for _ in range(STARTUP_PROBES - STARTUP_PROBES // 2)]
    setup_s = median(startups) + fill_s

    problems = [
        f"round {i} differs from round 0 in {key}: {rounds[0].det.get(key)!r} vs {r.det.get(key)!r}"
        for i, r in enumerate(rounds[1:], 1)
        for key in sorted(set(rounds[0].det) | set(r.det))
        if rounds[0].det.get(key) != r.det.get(key)
    ]
    problems += repeat_check(args.workload, args.seed, rounds[0].det)
    for problem in problems:
        print(f"exact-repeat check: {problem}", file=sys.stderr)

    attempted = sum(r.attempted for r in rounds) + final.attempted
    failed = sum(r.failed for r in rounds) + final.failed
    if args.trace:
        spans_dir = WORK / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
        values = per_layer(tracer, rounds[-1], rounds[0], failed / attempted)
        specs = bench["per_layer"]
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "navigate_s": median(w for r in rounds for w in r.walls),
        }
        specs = bench["end_to_end"]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
