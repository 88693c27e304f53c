"""Shared fixtures and helpers.

The desk-benchmark training run (30 epochs on 5000 queries, then the
attention-vs-BLUE report and the three panels its checks carry) takes
about 3.4-5 s on a 2-core machine, and several test modules (trainer
contract, attention-vs-BLUE report, figure-1 panels, end-to-end metric
ordering) all need the same trained model, so it runs once per session.
"""

import time

import numpy as np
import pytest

_DESK_TIMING: dict[str, float] = {}


@pytest.fixture(scope="session")
def desk_run():
    from queryemb import theory

    t0 = time.perf_counter()
    result = theory.figure1_report(theory.DESK_SEED)
    _DESK_TIMING["seconds"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="session")
def desk_seconds(desk_run):
    """Wall-clock seconds the session's desk training run took."""
    return _DESK_TIMING["seconds"]


def query_table(rows, product_ids, width: int):
    """A QueryTable of variable-length id rows, each padded with 0 to ``width``."""
    from queryemb.core import QueryTable

    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    if np.any(lengths > width):
        raise ValueError(f"query length {lengths.max()} exceeds max_len {width}")
    flat = np.array([t for r in rows for t in r])  # a float or object dtype is QueryTable's to refuse
    ids = np.zeros((lengths.size, width), dtype=flat.dtype if flat.size else np.int64)
    ids[np.arange(width) < lengths[:, None]] = flat
    return QueryTable(ids, lengths, product_ids)


def next_integer(stream, n: int) -> int:
    """The next Generator.integers(n) of a ReplayStream, through peek and skip:
    the first half Lemire's rule accepts, and 0 without a read at n = 1."""
    if n == 1:
        return 0
    values = stream.peek(n, 64)[1]  # about half are redrawn just past 2**31, never all 64
    i = int(np.flatnonzero(values >= 0)[0])
    stream.skip(i + 1)
    return int(values[i])


def has_edge(graph, u: int, v: int) -> bool:
    """Whether queries u and v are adjacent in a QueryGraph (u's CSR row is sorted)."""
    nbrs = graph.neighbors(u)
    j = np.searchsorted(nbrs, v)
    return bool(j < nbrs.size and nbrs[j] == v)
