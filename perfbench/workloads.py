"""The benchmark's workloads: what each run sets up, measures and checks.

Every workload drives queryemb the way a user does, through the in-process
CLI (``cli.main([...])``) plus the public functions the CLI has no command
for.  Layers are looked up on their modules at call time, so a tracer that
has replaced them is seen.

A ``Run`` counts operations and the ones that failed.  An operation fails
when a CLI command exits non-zero or raises, when an output check does not
hold, or when an artifact's sha256 differs from the same artifact made
earlier with the same seed.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from queryemb import cli, embedder, genmodel, theory

DESK_EPOCHS = 1
DENSE_QUERIES = 20_000
EVAL_TEST_FRACTION = 0.2  # the eval command's default
SUITES = ("mean", "variance", "partition", "pmi", "blue")
DATASET_FILES = (
    genmodel.CONFIG_FILENAME,
    genmodel.VOCAB_FILENAME,
    genmodel.PRODUCTS_FILENAME,
    genmodel.QUERIES_FILENAME,
    genmodel.EDGES_FILENAME,
)

# Units of the figures a measured repetition reports.
UNITS = {
    "generate_queries_per_s": "1/s",
    "load_queries_per_s": "1/s",
    "validate_s": "s",
    "train_anchor_epochs_per_s": "1/s",
    "eval_attention_probes_per_s": "1/s",
    "eval_hash_probes_per_s": "1/s",
    "blue_r": "1",
    "final_loss": "nat",
    "attention_f1": "1",
    "hash_f1": "1",
}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_key_values(path: str, config) -> None:
    """Write a config dataclass in the CLI's ``key = value`` format."""
    with open(path, "w", newline="\n") as fh:
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if isinstance(value, bool):
                text = str(value).lower()
            elif isinstance(value, tuple):
                text = ",".join(repr(float(v)) for v in value)
            else:
                text = repr(value) if isinstance(value, float) else str(value)
            fh.write(f"{f.name} = {text}\n")


class Run:
    """Working directory, operation accounting and output checks of one run."""

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.tracer = None  # set while a tracer is installed
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        os.makedirs(work, exist_ok=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)
        return ok

    def call(self, label: str, fn: Callable, *args):
        """Run one API operation; a raised exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every error is a failed operation
            traceback.print_exc()
            self.failures.append(f"{label}: {exc!r}")
            return None

    def cli(self, *argv: str) -> float | None:
        """Run one CLI command in-process; returns its seconds, None if it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = cli.main(list(argv))
        except Exception as exc:  # noqa: BLE001
            traceback.print_exc()
            self.failures.append(f"{' '.join(argv)}: {exc!r}")
            return None
        seconds = time.perf_counter() - t0
        if code != 0:
            self.failures.append(f"{' '.join(argv)}: exit {code}: {err.getvalue().strip()[-300:]}")
            return None
        return seconds

    def digest(self, label: str, paths) -> None:
        """Record sha256 of each file; a file made before under the same
        label must have the same bytes."""
        for p in paths:
            key = f"{label}/{os.path.basename(p)}"
            value = sha256(p) if os.path.exists(p) else "missing"
            if key in self.digests:
                self.check(f"{key} is deterministic", self.digests[key] == value)
            else:
                self.digests[key] = value


# ---------------------------------------------------------------------------
# steps shared by the workloads


def _desk_config(seed: int):
    return genmodel.default_benchmark_config(seed)


def _dense_config(seed: int):
    return dataclasses.replace(genmodel.default_benchmark_config(seed), n_queries=DENSE_QUERIES)


def _generate(run: Run, config, out: str) -> float | None:
    cfg_path = out + ".config.txt"
    write_key_values(cfg_path, config)
    seconds = run.cli("generate", "--config", cfg_path, "--out", out)
    run.digest(os.path.basename(out), [os.path.join(out, f) for f in DATASET_FILES])
    return seconds


def _train(run: Run, dataset_dir: str, out: str) -> float | None:
    cfg_path = out + ".config.txt"
    config = dataclasses.replace(theory.desk_train_config(run.seed), epochs=DESK_EPOCHS)
    write_key_values(cfg_path, config)
    seconds = run.cli("train", dataset_dir, "--config", cfg_path, "--out", out)
    run.digest(
        os.path.basename(out),
        [os.path.join(out, cli.CHECKPOINT_FILENAME), os.path.join(out, cli.LOSS_TRACE_FILENAME)],
    )
    return seconds


def _final_loss(run: Run, trace_path: str) -> float:
    """Mean batch loss of the last epoch in a loss trace."""
    with open(trace_path) as fh:
        rows = [(int(r["epoch"]), float(r["loss"])) for r in csv.DictReader(fh)]
    last = max(e for e, _ in rows)
    losses = [v for e, v in rows if e == last]
    value = sum(losses) / len(losses)
    run.check("final loss is finite and below the first batch loss",
              math.isfinite(value) and value < rows[0][1], f"{value} vs {rows[0][1]}")
    return value


def _eval_f1(run: Run, csv_path: str, n_probes: int) -> float:
    """F1 of mean precision and mean recall over the eval report's rows."""
    with open(csv_path) as fh:
        rows = [(float(r["precision"]), float(r["recall"])) for r in csv.DictReader(fh)]
    run.check(f"{os.path.basename(csv_path)} has one row per probe", len(rows) == n_probes,
              f"{len(rows)} rows, {n_probes} probes")
    run.check(f"{os.path.basename(csv_path)} scores lie in [0, 1]",
              all(0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 for p, r in rows))
    p = sum(p for p, _ in rows) / max(len(rows), 1)
    r = sum(r for _, r in rows) / max(len(rows), 1)
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    setup_reps: int
    setup: Callable[[Run], None]
    measure: Callable[[Run], dict[str, float]]  # one repetition's figures
    config: Callable[[int], object]  # generator config of the workload's dataset
    dataset_dir: str


def _setup_desk(run: Run) -> None:
    _generate(run, _desk_config(run.seed), run.path("ds"))


def _setup_retrieval(run: Run) -> None:
    _setup_desk(run)
    _train(run, run.path("ds"), run.path("ck"))


def _measure_train(run: Run) -> dict[str, float]:
    n_queries = _desk_config(run.seed).n_queries
    seconds = _train(run, run.path("ds"), run.path("train"))
    if seconds is None:
        return {}
    out = {
        "train_anchor_epochs_per_s": n_queries * DESK_EPOCHS / seconds,
        "final_loss": _final_loss(run, run.path("train", cli.LOSS_TRACE_FILENAME)),
    }
    model = run.call("load checkpoint", embedder.load_checkpoint,
                     run.path("train", cli.CHECKPOINT_FILENAME))
    dataset = run.call("load dataset", genmodel.load_dataset, run.path("ds"))
    if model is None or dataset is None:
        return out
    report = run.call("blue_report", theory.blue_report, model, dataset)
    if report is not None:
        run.check("blue_report correlation is finite", math.isfinite(report.pearson_r))
        out["blue_r"] = report.pearson_r
    return out


def _measure_retrieval(run: Run) -> dict[str, float]:
    n_queries = _desk_config(run.seed).n_queries
    n_probes = int(round(EVAL_TEST_FRACTION * n_queries))
    out = {}
    for model, name, key in (
        (run.path("ck", cli.CHECKPOINT_FILENAME), "attention", "attention"),
        ("baseline", "trigram_hash", "hash"),
    ):
        out_dir = run.path(f"eval_{key}")
        seconds = run.cli("eval", run.path("ds"), "--model", model, "--out", out_dir,
                          "--seed", str(run.seed))
        if seconds is None:
            continue
        csv_path = os.path.join(out_dir, f"eval_{name}.csv")
        run.digest(f"eval_{key}", [csv_path])
        out[f"eval_{key}_probes_per_s"] = n_probes / seconds
        out[f"{key}_f1"] = _eval_f1(run, csv_path, n_probes)
    return out


def _measure_dense(run: Run) -> dict[str, float]:
    out_dir = run.path("dds")
    seconds = _generate(run, _dense_config(run.seed), out_dir)
    if seconds is None:
        return {}
    out = {"generate_queries_per_s": DENSE_QUERIES / seconds}

    t0 = time.perf_counter()
    problems = run.call("verify_checksums", cli.verify_checksums, out_dir)
    dataset = run.call("load dataset", genmodel.load_dataset, out_dir)
    load_s = time.perf_counter() - t0
    run.check("dataset checksums verify", problems == [], str(problems))
    if dataset is not None:
        out["load_queries_per_s"] = DENSE_QUERIES / load_s
        with open(os.path.join(out_dir, genmodel.EDGES_FILENAME)) as fh:
            n_edge_lines = sum(1 for _ in fh)
        run.check("loaded query count", len(dataset.queries) == DENSE_QUERIES)
        run.check("loaded graph has every saved edge", dataset.graph.n_edges == n_edge_lines,
                  f"{dataset.graph.n_edges} vs {n_edge_lines}")
        del dataset

    validate_s = 0.0
    for suite in SUITES:
        val_dir = run.path("validate", suite)
        seconds = run.cli("validate", suite, "--out", val_dir)
        if seconds is None:
            continue
        validate_s += seconds
        report = os.path.join(val_dir, cli.REPORT_FILENAME)
        with open(report) as fh:
            lines = [line for line in fh.read().splitlines() if line]
        run.check(f"validate {suite}: every check passes",
                  bool(lines) and all(line.startswith("PASS") for line in lines))
        run.digest(f"validate_{suite}", [report])
    out["validate_s"] = validate_s
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-desk",
            setup_reps=3,
            setup=_setup_desk,
            measure=_measure_train,
            config=_desk_config,
            dataset_dir="ds",
        ),
        Workload(
            "retrieval-desk",
            setup_reps=1,
            setup=_setup_retrieval,
            measure=_measure_retrieval,
            config=_desk_config,
            dataset_dir="ds",
        ),
        Workload(
            "dense-graph",
            setup_reps=3,
            setup=_setup_desk,
            measure=_measure_dense,
            config=_dense_config,
            dataset_dir="dds",
        ),
    )
}
