"""Shared fixtures and helpers.

The desk-benchmark training run (30 epochs on 5000 queries, then the
attention-vs-BLUE report and its three panel CSVs) takes about 12-15 s on
a 2-core machine, and several test modules (trainer contract,
attention-vs-BLUE report, figure-1 panels, end-to-end metric ordering)
all need the same trained model, so it runs once per session.
"""

import time

import numpy as np
import pytest

_DESK_TIMING: dict[str, float] = {}


@pytest.fixture(scope="session")
def desk_panel_dir(tmp_path_factory):
    """Where the session's desk run writes the three figure-1 panel CSVs."""
    return tmp_path_factory.mktemp("desk_panels")


@pytest.fixture(scope="session")
def desk_run(desk_panel_dir):
    from queryemb import theory

    t0 = time.perf_counter()
    result = theory.figure1_report(theory.DESK_SEED, out_dir=str(desk_panel_dir))
    _DESK_TIMING["seconds"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="session")
def desk_seconds(desk_run):
    """Wall-clock seconds the session's desk training run took."""
    return _DESK_TIMING["seconds"]


def has_edge(graph, u: int, v: int) -> bool:
    """Whether queries u and v are adjacent in a QueryGraph (u's CSR row is sorted)."""
    nbrs = graph.neighbors(u)
    j = np.searchsorted(nbrs, v)
    return bool(j < nbrs.size and nbrs[j] == v)
