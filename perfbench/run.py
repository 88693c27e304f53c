"""queryemb benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Workloads are ``train-desk``, ``retrieval-desk`` and ``dense-graph`` (see
workloads.py and README.md).  A run sets its workload up ``setup_reps``
times, then repeats the measured phase until ``--seconds`` would be exceeded
(at least once).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions, nothing wrapped).  With ``--trace 1`` the run does one untraced
repetition, one traced set-up and repetition, and one more untraced
repetition, and reports per-layer metrics from the spans; it also times
``generate_dataset`` at one thread and at ``nproc`` threads.  Spans go to ``.perfbench/spans/``.

The program gets one thread for numpy's BLAS pool, so the benchmark never
puts more threads than ``nproc`` on it.  The benchmark needs the checkout's
``src/queryemb``; without it, it exits with code 2 and prints no result.
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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = 1

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Per-layer metrics of the traced run: layer -> statistics reported for it.
LAYER_STATS = {
    "core.QueryGraph": ("calls", "self_s"),
    "genmodel.generate_dataset": ("self_s",),
    "genmodel.save_dataset": ("self_s",),
    "genmodel.load_dataset": ("self_s",),
    "embedder.loss_and_gradient": ("calls", "self_s", "p50_us", "p99_us"),
    "embedder.sample_positives": ("self_s",),
    "embedder.sample_negatives": ("self_s",),
    "embedder.train": ("self_s",),
    "embedder.save_checkpoint": ("self_s",),
    "embedder.embed_query": ("calls", "self_s"),
    "evaluation.EmbeddingStore.init": ("self_s",),
    "evaluation.EmbeddingStore.rank": ("self_s", "p50_us", "p99_us"),
    "baseline.TrigramHashStore.init": ("self_s",),
    "baseline.TrigramHashStore.rank": ("calls", "self_s", "p50_us", "p99_us"),
    "evaluation.oracle_best": ("self_s",),
    "evaluation.reformulate": ("self_s",),
    "evaluation.evaluate": ("self_s",),
    "evaluation.top_products": ("calls",),
    "theory.blue_report": ("self_s",),
    **{f"theory.suite_{s}": ("self_s",) for s in ("mean", "variance", "partition", "pmi", "blue")},
    "cli.verify_checksums": ("self_s",),
    "cli.sha256_file": ("calls",),
    "cli.write_manifest": ("self_s",),
}
STAT_UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower"),
              "p50_us": ("us", "lower"), "p99_us": ("us", "lower")}
COUNTERS = (
    ("core.graph_edges", "count", "lower"),
    ("genmodel.dataset_bytes", "bytes", "lower"),
    ("cli.bytes_hashed", "bytes", "lower"),
    ("genmodel.generate_dataset.threads_speedup", "x", "higher"),
    ("trace.overhead_frac", "1", "lower"),
)
PER_LAYER = tuple(
    (f"{layer}.{stat}", *STAT_UNITS[stat]) for layer, stats in LAYER_STATS.items() for stat in stats
) + COUNTERS


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, naming the code when git cannot."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "queryemb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def machine_facts(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def check_across_runs(run, workload: str, seed: int, digest: str) -> None:
    """Artifacts must match those of earlier runs of this code and seed."""
    path = os.path.join(STATE, "digests", digest, f"{workload}-seed{seed}.json")
    earlier = {}
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
    for key, value in run.digests.items():
        if key in earlier:
            run.check(f"{key} matches an earlier run with seed {seed}", earlier[key] == value)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({**earlier, **run.digests}, fh, indent=1, sort_keys=True)


def threads_speedup(run, config) -> float:
    """generate_dataset at one thread over generate_dataset at nproc threads."""
    from queryemb import genmodel

    nproc = os.cpu_count() or 1
    t1, one = timed(run.call, "generate_dataset threads=1", genmodel.generate_dataset, config, 1)
    tn, many = timed(run.call, f"generate_dataset threads={nproc}", genmodel.generate_dataset,
                     config, nproc)
    if one is None or many is None:
        return 0.0
    run.check("generate_dataset output does not depend on threads", one.queries == many.queries)
    return t1 / tn


def layer_metrics(tracer, overhead: float, speedup: float, dataset_dir: str,
                  dataset_files) -> dict[str, float]:
    stats = tracer.layer_stats()
    values = {}
    for layer, names in LAYER_STATS.items():
        for stat in names:
            values[f"{layer}.{stat}"] = stats.get(layer, {}).get(stat, 0)
    values["core.graph_edges"] = tracer.counters["core.graph_edges"]
    values["cli.bytes_hashed"] = tracer.counters["cli.bytes_hashed"]
    values["genmodel.dataset_bytes"] = sum(
        os.path.getsize(os.path.join(dataset_dir, f)) for f in dataset_files
    )
    values["genmodel.generate_dataset.threads_speedup"] = speedup
    values["trace.overhead_frac"] = overhead
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy is first imported, so its BLAS pool starts with this size
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "queryemb", "__init__.py")):
        print(f"error: {SRC}/queryemb not found; run from a queryemb checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import queryemb

    if not os.path.abspath(queryemb.__file__).startswith(SRC + os.sep):
        print(f"error: imported queryemb from {queryemb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    facts = machine_facts(wl.name, args.seed)
    work = os.path.join(STATE, "work", f"{wl.name}-seed{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    run = workloads.Run(work, args.seed)
    try:
        run.check("no layer is wrapped before the run", not tracing.wrapped_targets())
        setup_times = [timed(wl.setup, run)[0] for _ in range(wl.setup_reps)]
        walls, reps = [], []
        start = time.perf_counter()
        while True:
            failed_before = len(run.failures)
            wall, figures = timed(wl.measure, run)
            walls.append(wall)
            reps.append(figures)
            elapsed = time.perf_counter() - start
            if args.trace or len(run.failures) > failed_before or elapsed + wall > args.seconds:
                break

        if args.trace:
            tracer = tracing.Tracer()
            with tracer:
                run.tracer = tracer
                wl.setup(run)
                traced_wall, _ = timed(wl.measure, run)
                run.tracer = None
            run.check("every wrapper is removed after the traced run",
                      not tracing.wrapped_targets())
            # untraced repetitions before and after the traced one, so that
            # warm-up and drift do not pass for tracing overhead
            walls.append(timed(wl.measure, run)[0])
            speedup = threads_speedup(run, wl.config(args.seed))
            overhead = traced_wall / statistics.median(walls) - 1.0
            metrics = layer_metrics(tracer, overhead, speedup, run.path(wl.dataset_dir),
                                    workloads.DATASET_FILES)
            units = {name: unit for name, unit, _ in PER_LAYER}
            spans_path = os.path.join(STATE, "spans", f"{wl.name}-seed{args.seed}.jsonl")
            tracer.write_jsonl(spans_path, facts)
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}

        check_across_runs(run, wl.name, args.seed, facts["source_digest"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # every figure by name with its unit; the JSON line carries the declared ones
    figures = {k: statistics.median([r[k] for r in reps if k in r]) for k in workloads.UNITS
               if any(k in r for r in reps)}
    failed = len(run.failures)
    print("facts " + json.dumps(facts))
    print("setups_s " + " ".join(f"{t:.4f}" for t in setup_times))
    print("repetitions_s " + " ".join(f"{t:.4f}" for t in walls))
    for name, value in {**metrics, **figures}.items():
        print(f"{name:<48} {value:>16.6g} {units.get(name, workloads.UNITS.get(name))}")
    print(f"{'failed_frac':<48} {failed / max(run.attempted, 1):>16.6g} 1")
    for failure in run.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
    }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"facts": facts, "figures": figures, "failures": run.failures, **result}, fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
