"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run  # sets the BLAS thread count and locates the checkout
sys.path.insert(0, run.SRC)

import tracing  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

from queryemb import cli, genmodel  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(i, parent, start, end, name="x"):
    return Span(i, 0, parent, name, start, end)


def test_self_time_subtracts_union_of_children_and_counted_time():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),  # overlaps span 1: covered time is 1..5
        _span(3, 2, 2.5, 4.5),  # grandchild: covered by span 2 only
        _span(4, 0, 9.5, 12.0),  # runs past its parent: clipped at 10
    ]
    selfs = tracing.self_times(spans, counted={0: 1.0, 3: 0.5})
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 0.5 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 2.0)
    assert selfs[3] == pytest.approx(2.0 - 0.5)
    assert selfs[4] == pytest.approx(2.5)


def test_layer_stats_count_calls_and_percentiles():
    tracer = Tracer()
    tracer.spans = [_span(i, None, float(i), i + 1e-6 * (i + 1), "layer") for i in range(100)]
    stats = tracer.layer_stats()["layer"]
    assert stats["calls"] == 100
    assert stats["self_s"] == pytest.approx(sum(1e-6 * (i + 1) for i in range(100)))
    assert stats["p50_us"] == pytest.approx(50.5)
    assert stats["p99_us"] == pytest.approx(99.01)


def test_traced_command_records_spans_and_restores_every_wrapper(tmp_path):
    originals = [tracing._get(owner, attr) for owner, attr, *_ in tracing.TARGETS]
    assert not tracing.wrapped_targets()
    config = genmodel.default_benchmark_config(3)
    small = dataclasses.replace(config, n_queries=60)
    cfg = tmp_path / "gen.txt"
    import workloads

    workloads.write_key_values(str(cfg), small)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert len(tracing.wrapped_targets()) == len(tracing.TARGETS)
            with tracer.span("cli.generate"):
                argv = ["generate", "--config", str(cfg), "--out", str(tmp_path / "ds")]
                assert cli.main(argv) == 0
            genmodel.load_dataset(str(tmp_path / "ds"))
            raise RuntimeError("the wrappers must go even when the run fails")
    assert not tracing.wrapped_targets()
    assert [tracing._get(owner, attr) for owner, attr, *_ in tracing.TARGETS] == originals

    by_name = {s.name: s for s in tracer.spans}
    root = by_name["cli.generate"]
    assert root.parent is None
    assert by_name["genmodel.generate_dataset"].parent == root.id
    assert by_name["genmodel.generate_dataset"].trace == root.trace
    # the load ran outside the command, so it starts a trace of its own
    assert by_name["genmodel.load_dataset"].trace != root.trace
    stats = tracer.layer_stats()
    assert stats["core.QueryGraph"]["calls"] == 2
    assert tracer.counters["core.graph_edges"] > 0
    assert tracer.counters["cli.bytes_hashed"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [name for name, *_ in run.END_TO_END] + [name for name, *_ in run.PER_LAYER]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert bench["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in run.END_TO_END
    ]
    assert bench["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in run.PER_LAYER]
    import workloads

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(w) for w in workloads.UNITS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
