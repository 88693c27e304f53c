"""In-memory span tracer for the queryemb benchmark.

The tracer replaces queryemb functions at the place where their callers look
them up (``cli.train``, ``embedder.loss_and_gradient``, the ``rank`` method of
``baseline.TrigramHashStore``, the ``theory.SUITES`` table, ...) with thin
wrappers, and puts every original back when it is removed.  Nothing in the
program itself changes.

Two kinds of wrapper exist:

* span wrappers record one span per call: name, start, end, parent span and
  trace id.  A span opened while no other span is open starts a new trace,
  so every CLI command the benchmark runs gets its own trace id;
* count wrappers, for functions called more than 10^4 times per run, only
  add to a call count and a summed time.  That summed time is charged to the
  enclosing span as covered time, like a child span.  Tally wrappers only
  count: ``top_products`` runs ~8M times per eval pair, and timing each call
  would more than double the eval's time.  Its time stays in its callers'
  self time.

Spans stay in memory until ``write_jsonl`` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from queryemb import baseline, cli, core, embedder, evaluation, genmodel, theory

SPAN = "span"
COUNT = "count"
TALLY = "tally"


def _graph_edges(tracer: "Tracer", args: tuple) -> None:
    tracer.counters["core.graph_edges"] += args[0].n_edges


def _bytes_hashed(tracer: "Tracer", args: tuple) -> None:
    tracer.counters["cli.bytes_hashed"] += os.path.getsize(args[0])


# (owner, attribute, layer name, kind, hook run after each call with the
# call's positional arguments).  Owners are modules, classes or dicts.
TARGETS = (
    (core.QueryGraph, "__init__", "core.QueryGraph", SPAN, _graph_edges),
    (cli, "generate_dataset", "genmodel.generate_dataset", SPAN, None),
    (cli, "save_dataset", "genmodel.save_dataset", SPAN, None),
    (cli, "load_dataset", "genmodel.load_dataset", SPAN, None),
    (genmodel, "load_dataset", "genmodel.load_dataset", SPAN, None),
    (cli, "train", "embedder.train", SPAN, None),
    (embedder, "loss_and_gradient", "embedder.loss_and_gradient", SPAN, None),
    (embedder, "sample_positives", "embedder.sample_positives", SPAN, None),
    (embedder, "sample_negatives", "embedder.sample_negatives", SPAN, None),
    (cli, "save_checkpoint", "embedder.save_checkpoint", SPAN, None),
    (evaluation, "embed_query", "embedder.embed_query", COUNT, None),
    (evaluation.EmbeddingStore, "__init__", "evaluation.EmbeddingStore.init", SPAN, None),
    (evaluation.EmbeddingStore, "rank", "evaluation.EmbeddingStore.rank", SPAN, None),
    (baseline.TrigramHashStore, "__init__", "baseline.TrigramHashStore.init", SPAN, None),
    (baseline.TrigramHashStore, "rank", "baseline.TrigramHashStore.rank", SPAN, None),
    (cli, "evaluate", "evaluation.evaluate", SPAN, None),
    (evaluation, "reformulate", "evaluation.reformulate", SPAN, None),
    (evaluation, "oracle_best", "evaluation.oracle_best", SPAN, None),
    (evaluation, "top_products", "evaluation.top_products", TALLY, None),
    (theory, "blue_report", "theory.blue_report", SPAN, None),
    *((theory.SUITES, s, f"theory.suite_{s}", SPAN, None) for s in theory.SUITES),
    (cli, "verify_checksums", "cli.verify_checksums", SPAN, None),
    (cli, "sha256_file", "cli.sha256_file", SPAN, _bytes_hashed),
    (cli, "write_manifest", "cli.write_manifest", SPAN, None),
)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else vars(owner)[attr]


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def wrapped_targets() -> list[str]:
    """Layer names whose lookup place currently holds a tracer wrapper."""
    return [
        name for owner, attr, name, _, _ in TARGETS
        if hasattr(_get(owner, attr), "__perfbench_layer__")
    ]


@dataclass(frozen=True)
class Span:
    id: int
    trace: int
    parent: int | None
    name: str
    start: float
    end: float


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], counted: dict[int, float] | None = None) -> dict[int, float]:
    """Each span's duration minus the time its children cover.

    Children are the spans whose parent is the span; overlapping children
    are counted once.  ``counted`` maps a span id to time spent in count-only
    calls made directly under it, which is covered time as well.
    """
    counted = counted or {}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end) - counted.get(s.id, 0.0)
        for s in spans
    }


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        # count-only layers: name -> [calls, summed seconds]
        self.counted: dict[str, list] = defaultdict(lambda: [0, 0.0])
        # summed count-only time charged to the span that was open
        self._counted_under: dict[int, float] = defaultdict(float)
        self._stack: list[tuple[int, int]] = []  # open (span id, trace id)
        self._next_id = 0
        self._next_trace = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def _open(self) -> tuple[int, int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        if self._stack:
            parent, trace = self._stack[-1]
        else:
            parent, trace = None, self._next_trace
            self._next_trace += 1
        self._stack.append((span_id, trace))
        return span_id, trace, parent

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body of a with-statement."""
        span_id, trace, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, trace, parent, name, start, end))

    def _span_wrapper(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        slot = self.counted[name]
        under = self._counted_under
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            dt = clock() - t0
            slot[0] += 1
            slot[1] += dt
            if stack:
                under[stack[-1][0]] += dt
            return result

        return wrapper

    def _tally_wrapper(self, fn, name: str):
        slot = self.counted[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, kind, hook in TARGETS:
            original = _get(owner, attr)
            if kind == SPAN:
                wrapper = self._span_wrapper(original, name, hook)
            elif kind == COUNT:
                wrapper = self._count_wrapper(original, name)
            else:
                wrapper = self._tally_wrapper(original, name)
            wrapper.__perfbench_layer__ = name
            self._saved.append((owner, attr, original))
            _set(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- reporting

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer name: calls, self_s, and for span layers p50_us / p99_us
        of the call's whole duration."""
        selfs = self_times(self.spans, self._counted_under)
        durations: dict[str, list[float]] = defaultdict(list)
        self_sum: dict[str, float] = defaultdict(float)
        for s in self.spans:
            durations[s.name].append(s.end - s.start)
            self_sum[s.name] += selfs[s.id]
        out = {}
        for name, ds in durations.items():
            us = np.asarray(ds) * 1e6
            out[name] = {
                "calls": len(ds),
                "self_s": self_sum[name],
                "p50_us": float(np.percentile(us, 50)),
                "p99_us": float(np.percentile(us, 99)),
            }
        for name, (calls, total) in self.counted.items():
            if calls:
                out[name] = {"calls": calls, "self_s": total}
        return out

    def write_jsonl(self, path: str, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"facts": header}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
            for name, (calls, total) in sorted(self.counted.items()):
                fh.write(json.dumps({"counted": name, "calls": calls, "total_s": total}) + "\n")
