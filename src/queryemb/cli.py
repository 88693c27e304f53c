"""Command-line pipelines: generate, train, eval, validate.

Every command resolves its configuration explicitly (flat key-value files,
no hidden defaults for scientific parameters), writes its artifacts, and
records a run manifest with sha256 checksums so downstream commands can
detect corrupted or mismatched inputs.  Outputs are byte-identical across
runs with the same seed; wall-clock duration lives only in the manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import theory
from .baseline import TrigramHashStore
from .core import (
    STREAM_SPLIT,
    GeneratorConfig,
    _errors_prefixed,
    config_from_mapping,
    config_text,
    key_values_text,
    read_key_values,
    rng_stream,
    write_key_values,
)
from .embedder import (
    TrainConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_trace,
)
from .evaluation import (
    DEFAULT_K,
    DEFAULT_ORACLE_POOL,
    DEFAULT_REFORMULATIONS,
    EmbeddingStore,
    evaluate,
    format_summary,
    write_eval_csv,
)
from .genmodel import generate_dataset, load_dataset, save_dataset

MANIFEST_FILENAME = "manifest.txt"
CHECKPOINT_FILENAME = "checkpoint.bin"
LOSS_TRACE_FILENAME = "loss_trace.csv"
REPORT_FILENAME = "report.txt"
SUMMARY_FILENAME = "summary.txt"
# train manifest input: sha256 over the checksum lines of the dataset's manifest
DATASET_DIGEST_KEY = "dataset_digest"

VALIDATE_SUITES = tuple(theory.SUITES)


# ---------------------------------------------------------------------------
# run manifests


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _section(prefix: str, entries: dict[str, str]) -> dict[str, str]:
    """The manifest entries "prefix.key" of entries, sorted by key."""
    return {f"{prefix}.{key}": entries[key] for key in sorted(entries)}


def _checksums(manifest: dict[str, str]) -> dict[str, str]:
    """A manifest's checksum.* entries as {file name relative to its directory: sha256}."""
    keys = ((key.partition("."), value) for key, value in manifest.items())
    return {name: value for (prefix, _, name), value in keys if prefix == "checksum" and name}


def write_manifest(out_dir: str, entries: dict[str, str]) -> None:
    write_key_values(os.path.join(out_dir, MANIFEST_FILENAME), entries)


def read_manifest(artifact_dir: str) -> dict[str, str] | None:
    """artifact_dir's manifest entries in file order; None when it has no manifest.

    command, seed (an int) and duration_seconds (a float) are required.
    """
    path = os.path.join(artifact_dir, MANIFEST_FILENAME)
    if not os.path.exists(path):
        return None
    entries = read_key_values(path)
    for key, parse in (("command", str), ("seed", int), ("duration_seconds", float)):
        if key not in entries:
            raise ValueError(f"manifest {path!r} is missing {key!r}")
        try:
            parse(entries[key])
        except ValueError:
            raise ValueError(
                f"manifest {path!r}: {key!r} is not parsable as {parse.__name__}: {entries[key]!r}"
            ) from None
    return entries


def verify_checksums(artifact_dir: str, manifest: dict[str, str] | None = None) -> list[str]:
    """Compare files in artifact_dir against its manifest; return mismatches.

    manifest is artifact_dir's manifest as read_manifest returned it, for a
    caller that has read it already; None reads it here.  A missing manifest
    is not an error (hand-built directories are legal inputs); a manifest
    whose recorded files are absent or altered is.
    """
    if manifest is None:
        manifest = read_manifest(artifact_dir) or {}
    problems = []
    for name, expected in _checksums(manifest).items():
        path = os.path.join(artifact_dir, name)
        if not os.path.exists(path):
            problems.append(f"{name}: recorded in manifest but missing on disk")
        elif sha256_file(path) != expected:
            problems.append(f"{name}: checksum mismatch (file changed since the manifest)")
    return problems


def dataset_digest(manifest: dict[str, str]) -> str:
    """sha256 over the checksum lines of a dataset's manifest.

    The checksums are a function of the config and seed, unlike the
    manifest's duration_seconds, so the digest names the dataset's content.
    """
    lines = key_values_text(_section("checksum", _checksums(manifest)))
    return hashlib.sha256(lines.encode()).hexdigest()


def _record(
    out_dir: str, command: str, seed: int, config: dict[str, str],
    inputs: dict[str, str], outputs: dict[str, str], written: list[str], t0: float,
) -> None:
    """Write out_dir's manifest for a command started at t0 that wrote the
    files named in written (relative to out_dir); each one is checksummed."""
    checksums = {name: sha256_file(os.path.join(out_dir, name)) for name in written}
    write_manifest(out_dir, {
        "command": command, "seed": str(seed), "duration_seconds": repr(time.time() - t0),
        **_section("config", config), **_section("input", inputs),
        **_section("output", outputs), **_section("checksum", checksums),
    })


def _verified(kind: str, artifact_dir: str, manifest: dict[str, str] | None) -> bool:
    """verify_checksums against artifact_dir's manifest as read_manifest
    returned it, each problem reported on stderr; True if none."""
    problems = verify_checksums(artifact_dir, manifest or {})
    for p in problems:
        print(f"error: {kind} {artifact_dir}: {p}", file=sys.stderr)
    return not problems


# ---------------------------------------------------------------------------
# config files


@dataclass(frozen=True)
class EvalParams:
    k: int = DEFAULT_K
    n_reformulations: int = DEFAULT_REFORMULATIONS
    oracle_pool: int = DEFAULT_ORACLE_POOL
    test_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.k < 1 or self.n_reformulations < 1 or self.oracle_pool < 1:
            raise ValueError("k, n_reformulations and oracle_pool must be positive")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")


def _config(cls, path: str | None, seed: int | None):
    """The config file at path parsed as cls, its seed replaced by --seed if given;
    cls's defaults when path is None.  A bad file's error starts with its path."""
    if path is None:
        return config_from_mapping(cls, {})
    with _errors_prefixed(path):
        mapping = read_key_values(path)
        if seed is not None:
            mapping["seed"] = str(seed)
        return config_from_mapping(cls, mapping)


def split_query_ids(n_queries: int, test_fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Deterministic (store_ids, probe_ids) split on its own RNG stream.

    test_fraction = 0 means self-retrieval: every query is both stored and
    probed (probes are excluded from their own candidate lists downstream).
    """
    ids = np.arange(n_queries)
    if test_fraction == 0.0:
        all_ids = [int(i) for i in ids]
        return all_ids, all_ids
    perm = rng_stream(seed, STREAM_SPLIT).permutation(n_queries)
    n_test = int(round(test_fraction * n_queries))
    n_test = min(max(n_test, 1), n_queries - 1)
    probe = sorted(int(i) for i in perm[:n_test])
    store = sorted(int(i) for i in perm[n_test:])
    return store, probe


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args: argparse.Namespace) -> int:
    t0 = time.time()
    config = _config(GeneratorConfig, args.config, args.seed)
    dataset = generate_dataset(config)
    os.makedirs(args.out, exist_ok=True)
    written = save_dataset(dataset, args.out)
    inputs = {"config": os.path.abspath(args.config)}
    outputs = {"dataset": os.path.abspath(args.out)}
    _record(args.out, "generate", config.seed, config_text(config), inputs, outputs, written, t0)
    print(
        f"generated {len(dataset.queries)} queries over {config.n_products} products "
        f"({dataset.graph.n_edges} graph edges) -> {args.out}"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    t0 = time.time()
    dataset_manifest = read_manifest(args.dataset)
    if not _verified("dataset", args.dataset, dataset_manifest):
        return 2
    dataset = load_dataset(args.dataset)
    train_config = _config(TrainConfig, args.config, args.seed)
    model = init_model(
        dataset.config.vocab_size, dataset.config.dim, dataset.config.max_len, train_config.seed
    )
    trained, trace = train(model, dataset, train_config)
    inputs = {"dataset": os.path.abspath(args.dataset), "config": os.path.abspath(args.config)}
    if dataset_manifest is not None:
        inputs[DATASET_DIGEST_KEY] = dataset_digest(dataset_manifest)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, CHECKPOINT_FILENAME)
    save_checkpoint(trained, ckpt_path)
    write_loss_trace(os.path.join(args.out, LOSS_TRACE_FILENAME), trace)
    _record(
        args.out, "train", train_config.seed, config_text(train_config), inputs,
        {"checkpoint": os.path.abspath(ckpt_path)}, [CHECKPOINT_FILENAME, LOSS_TRACE_FILENAME], t0,
    )
    if trace:
        first, last = trace[0][2], trace[-1][2]
        print(f"trained {train_config.epochs} epochs, batch loss {first:.4f} -> {last:.4f}")
    elif train_config.epochs:
        print(
            f"trained {train_config.epochs} epochs, 0 updates: no anchor has a neighbour "
            "(checkpoint equals initialization)"
        )
    else:
        print("trained 0 epochs (checkpoint equals initialization)")
    print(f"checkpoint -> {ckpt_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    t0 = time.time()
    dataset_manifest = read_manifest(args.dataset)
    if not _verified("dataset", args.dataset, dataset_manifest):
        return 2
    checkpoint_dir = os.path.dirname(os.path.abspath(args.model))
    if args.model != "baseline":
        checkpoint_manifest = read_manifest(checkpoint_dir)
        if not _verified("checkpoint", checkpoint_dir, checkpoint_manifest):
            return 2
    dataset = load_dataset(args.dataset)
    params = _config(EvalParams, args.config, None)
    seed = args.seed if args.seed is not None else 0
    store_ids, probe_ids = split_query_ids(len(dataset.queries), params.test_fraction, seed)
    store_queries = dataset.queries.take(store_ids)

    if args.model == "baseline":
        store: EmbeddingStore | TrigramHashStore = TrigramHashStore(store_queries, ids=store_ids)
        name = "trigram_hash"
        model_input = "baseline"
    else:
        model = load_checkpoint(args.model)
        if model.vocab_size != dataset.config.vocab_size or model.max_len < dataset.config.max_len:
            raise ValueError(
                "checkpoint shape does not fit the dataset: "
                f"vocab {model.vocab_size} vs {dataset.config.vocab_size}, "
                f"max_len {model.max_len} vs {dataset.config.max_len}"
            )
        trained_on = (checkpoint_manifest or {}).get(f"input.{DATASET_DIGEST_KEY}")
        digest = None if dataset_manifest is None else dataset_digest(dataset_manifest)
        if trained_on is not None and trained_on != digest:
            raise ValueError(
                "checkpoint was trained on a different dataset: its manifest records "
                f"dataset digest {trained_on}, {args.dataset} has {digest or 'no manifest'}"
            )
        store = EmbeddingStore(model, store_queries, ids=store_ids)
        name = "attention"
        model_input = os.path.abspath(args.model)

    report = evaluate(
        store,
        dataset.queries,
        dataset.purchase_map,
        probe_ids,
        k=params.k,
        n_reformulations=params.n_reformulations,
        oracle_pool=params.oracle_pool,
        model_name=name,
    )
    os.makedirs(args.out, exist_ok=True)
    csv_name = f"eval_{name}.csv"
    csv_path = os.path.join(args.out, csv_name)
    summary_path = os.path.join(args.out, SUMMARY_FILENAME)
    write_eval_csv(report, csv_path)
    summary = format_summary([report])
    with open(summary_path, "w", newline="\n") as fh:
        fh.write(summary)
    inputs = {"dataset": os.path.abspath(args.dataset), "model": model_input}
    outputs = {"report": os.path.abspath(csv_path), "summary": os.path.abspath(summary_path)}
    _record(
        args.out, "eval", seed, config_text(params), inputs, outputs,
        [csv_name, SUMMARY_FILENAME], t0,
    )
    print(summary, end="")
    print(f"per-query report -> {csv_path}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    t0 = time.time()
    suites = VALIDATE_SUITES if args.suite == "all" else (args.suite,)
    os.makedirs(args.out, exist_ok=True)
    checks = []
    suite_seeds: dict[str, int] = {}
    for suite in suites:
        seed = args.seed if args.seed is not None else theory.SEEDS[suite]
        checks.extend(theory.SUITES[suite](seed))
        suite_seeds[suite] = seed

    lines = [c.line() for c in checks]
    files = {REPORT_FILENAME: "\n".join(lines) + "\n", **dict(c.panel for c in checks if c.panel)}
    for name, text in files.items():
        with open(os.path.join(args.out, name), "w", newline="\n") as fh:
            fh.write(text)

    config = {"suite": args.suite}
    config.update({f"seed_{name}": str(value) for name, value in suite_seeds.items()})
    outputs = {"report": os.path.abspath(os.path.join(args.out, REPORT_FILENAME))}
    _record(args.out, "validate", suite_seeds[suites[0]], config, {}, outputs, list(files), t0)
    for line in lines:
        print(line)
    n_failed = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_failed}/{len(checks)} checks passed")
    return 0 if n_failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queryemb",
        description="Synthetic query generation, attention embedding training, "
        "retrieval evaluation, and statistical validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_help: str | None, required: bool = True) -> None:
        if config_help is not None:
            p.add_argument("--config", required=required, help=config_help)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")

    p_gen = sub.add_parser("generate", help="sample a synthetic dataset to a directory")
    common(p_gen, "generator config (key = value; see README for keys)")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train the attention embedder on a dataset")
    p_train.add_argument("dataset", help="dataset directory from `generate`")
    common(p_train, "training config (key = value; learning_rate and epochs required)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score reformulation retrieval for a model")
    p_eval.add_argument("dataset", help="dataset directory from `generate`")
    p_eval.add_argument(
        "--model",
        required=True,
        help='checkpoint file from `train`, or the literal "baseline" for trigram hashing',
    )
    common(p_eval, "optional eval config (k, n_reformulations, oracle_pool, test_fraction)", False)
    p_eval.set_defaults(func=cmd_eval)

    p_val = sub.add_parser("validate", help="run statistical validation suites")
    p_val.add_argument(
        "suite",
        choices=VALIDATE_SUITES + ("all",),
        help="which suite to run (figure1 also writes panel CSVs)",
    )
    common(p_val, None)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
