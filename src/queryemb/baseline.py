"""Bag-of-trigrams baseline: hashed count vectors with Bray-Curtis retrieval.

Each query becomes a fixed-width count vector by hashing trigram ids into
buckets with splitmix64 (Steele, Lea & Flood's 64-bit finalizer), chosen
because it is tiny, well documented, and bit-stable across platforms.
Retrieval is brute-force nearest neighbours under Bray-Curtis distance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import QueryTable

HASH_DIM = 300

_M64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """The splitmix64 output function applied to x + gamma.

    Equivalent to the first output of a splitmix64 stream seeded with x,
    e.g. splitmix64(0) == 0xE220A8397B1DCDAF.
    """
    z = (int(x) + _SPLITMIX_GAMMA) & _M64
    z = ((z ^ (z >> 30)) * _MIX_1) & _M64
    z = ((z ^ (z >> 27)) * _MIX_2) & _M64
    return (z ^ (z >> 31)) & _M64


def bucket_of(trigram_id: int, n_buckets: int = HASH_DIM) -> int:
    return splitmix64(trigram_id) % n_buckets


def hash_query(ids: Sequence[int], n_buckets: int = HASH_DIM) -> np.ndarray:
    """Bucketed trigram counts of one query; the total count equals its length."""
    counts = np.bincount([bucket_of(t, n_buckets) for t in ids], minlength=n_buckets)
    return counts.astype(np.float64)


def _counts(x: np.ndarray | Sequence[float]) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("count vectors must be non-negative")
    return arr


def bray_curtis(a, b) -> float:
    """sum |a_i - b_i| / sum (a_i + b_i); defined only when some count is positive."""
    va, vb = _counts(a), _counts(b)
    if va.shape != vb.shape:
        raise ValueError(f"shape mismatch: {va.shape} vs {vb.shape}")
    denom = float(np.sum(va + vb))
    if denom == 0.0:
        raise ValueError("Bray-Curtis undefined for two all-zero vectors")
    return float(np.sum(np.abs(va - vb)) / denom)


class QueryStore:
    """Base of the retrieval stores: the stored query ids, one per table row."""

    def __init__(self, queries: QueryTable, ids: Sequence[int] | None) -> None:
        self.ids = np.asarray(range(len(queries)) if ids is None else list(ids), dtype=np.int64)
        if self.ids.size != len(queries):
            raise ValueError("ids and queries must have equal length")

    def __len__(self) -> int:
        return self.ids.size

    def __contains__(self, query_id: int) -> bool:
        return bool(np.any(self.ids == query_id))

    def _ranked(self, keys: np.ndarray, exclude_id: int | None) -> np.ndarray:
        """Store ids ordered by (keys, ascending id), optionally dropping one id."""
        ranked = self.ids[np.lexsort((self.ids, keys))]
        return ranked if exclude_id is None else ranked[ranked != exclude_id]


class TrigramHashStore(QueryStore):
    """Immutable retrieval index of hashed queries."""

    def __init__(self, queries: QueryTable, ids: Sequence[int] | None = None,
                 n_buckets: int = HASH_DIM) -> None:
        super().__init__(queries, ids)
        self.n_buckets = n_buckets
        self.matrix = np.zeros((len(queries), n_buckets), dtype=np.float64)
        for row in range(len(queries)):
            self.matrix[row] = hash_query(queries.row(row), n_buckets)

    def distances(self, pv: np.ndarray) -> np.ndarray:
        """Bray-Curtis distance from the probe's count vector to every stored row."""
        if pv.shape[0] != self.n_buckets:
            raise ValueError("probe bucket width does not match store")
        # every stored row counts >= 1 trigram, so no denominator is 0
        return np.abs(self.matrix - pv).sum(axis=1) / (self.matrix + pv).sum(axis=1)

    def rank(self, probe: Sequence[int], exclude_id: int | None = None) -> np.ndarray:
        """All store ids ordered by the probe's (distance, id), optionally dropping one id."""
        return self._ranked(self.distances(hash_query(probe, self.n_buckets)), exclude_id)


def knn(store: TrigramHashStore, probe: Sequence[int], k: int) -> list[int]:
    """ids of the k nearest stored queries; ties broken by ascending id."""
    if len(store) == 0:
        raise ValueError("store is empty")
    if k > len(store):
        raise ValueError(f"k={k} exceeds store size {len(store)}")
    return [int(i) for i in store.rank(probe)[:k]]
