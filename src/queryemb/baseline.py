"""Bag-of-trigrams baseline: hashed count vectors with Bray-Curtis retrieval.

Each query becomes a fixed-width count vector by hashing trigram ids into
buckets with splitmix64 (Steele, Lea & Flood's 64-bit finalizer), chosen
because it is tiny, well documented, and bit-stable across platforms.
Retrieval is brute-force nearest neighbours under Bray-Curtis distance.  The
store holds its counts bucket-major in the smallest unsigned type that holds
them, so a probe reads one contiguous row for each of its buckets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import QueryTable, _int64_array

HASH_DIM = 300

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def splitmix64_array(x) -> np.ndarray:
    """The splitmix64 output function applied to x + gamma, elementwise.

    Takes an integer array (or sequence) and returns a 1-d or wider uint64
    array.  uint64 arithmetic wraps modulo 2**64, exactly like the published
    algorithm's ``& (2**64 - 1)`` after each step; the array always has at
    least one dimension because numpy scalars warn on the wrap.
    """
    z = np.array(x, dtype=np.uint64, ndmin=1) + _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_2
    return z ^ (z >> np.uint64(31))


def _bucket_counts(ids: np.ndarray, lengths: np.ndarray, n_buckets: int) -> np.ndarray:
    """(n_buckets, n) trigram counts of n padded rows, bucket by bucket, in the
    smallest unsigned type that holds the largest count."""
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    n, width = ids.shape
    valid = np.arange(width) < lengths[:, None]
    buckets = (splitmix64_array(ids) % np.uint64(n_buckets)).astype(np.intp)
    cells = buckets * n + np.arange(n)[:, None]
    counts = np.bincount(cells[valid], minlength=n * n_buckets).reshape(n_buckets, n)
    return counts.astype(np.min_scalar_type(counts.max(initial=0)))


def hash_query(ids: Sequence[int], n_buckets: int = HASH_DIM) -> np.ndarray:
    """Bucketed trigram counts of one raw query (its QueryTable.of_query) as float64;
    the total count equals its length."""
    table = QueryTable.of_query(ids)
    return _bucket_counts(table.ids, table.lengths, n_buckets)[:, 0].astype(np.float64)


def _counts(x: np.ndarray | Sequence[float]) -> np.ndarray:
    """x as a count vector: integers keep their type, anything else becomes float64."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.float64)
        if not np.isfinite(arr).all():
            raise ValueError("count vectors must be finite")
    if arr.dtype.kind != "u" and np.any(arr < 0):
        raise ValueError("count vectors must be non-negative")
    return arr


class QueryStore:
    """Base of the retrieval stores: the stored query ids, one per table row.

    A store encodes a probe table (encode) and scores one encoded probe
    against every stored row (keys, ascending is nearer)."""

    def __init__(self, queries: QueryTable, ids: Sequence[int] | None) -> None:
        self.ids = _int64_array(range(len(queries)) if ids is None else list(ids), "store ids")
        if self.ids.size != len(queries):
            raise ValueError("ids and queries must have equal length")
        self._sorted_ids = np.unique(self.ids)
        if self._sorted_ids.size != self.ids.size:
            raise ValueError("store ids must be unique")

    def __len__(self) -> int:
        return self.ids.size

    def __contains__(self, query_id: int) -> bool:
        """Whether some stored id equals query_id (3.0 equals 3), by binary search."""
        i = np.searchsorted(self._sorted_ids, query_id)
        return bool(i < self._sorted_ids.size and self._sorted_ids[i] == query_id)

    def _ranked(self, keys: np.ndarray, count: int, exclude_id: int | None) -> np.ndarray:
        """The first count store ids in (keys, ascending id) order, never exclude_id.

        Only the ids whose key is not above the need-th smallest key are
        sorted.  Every id of the full order's first need positions is among
        them, ties at the threshold included, so the result equals the full
        sort's prefix.  NaN keys are never above anything, so they stay
        candidates and sort last, as in the full sort.
        """
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        need = count + (exclude_id is not None)
        ids = self.ids
        if need < keys.size:
            t = np.partition(keys, need - 1)[need - 1]
            picked = np.flatnonzero(~(keys > t))
            keys, ids = keys[picked], ids[picked]
        ranked = ids[np.lexsort((ids, keys))]
        if exclude_id is not None:
            ranked = ranked[ranked != exclude_id]
        return ranked[:count]


class TrigramHashStore(QueryStore):
    """Immutable retrieval index of hashed queries."""

    def __init__(self, queries: QueryTable, ids: Sequence[int] | None = None,
                 n_buckets: int = HASH_DIM) -> None:
        super().__init__(queries, ids)
        self.n_buckets = n_buckets
        self.counts = _bucket_counts(queries.ids, queries.lengths, n_buckets)
        self.matrix = self.counts.T  # row i: the bucket counts of stored query i
        self.totals = queries.lengths.astype(np.float64)  # row sums of matrix

    def encode(self, queries: QueryTable) -> np.ndarray:
        """(Q, n_buckets) bucket counts of every table row, equal to its hash_query."""
        return _bucket_counts(queries.ids, queries.lengths, self.n_buckets).T

    def distances(self, pv: np.ndarray) -> np.ndarray:
        """Bray-Curtis distance from the probe's count vector to every stored row.

        sum |a - b| = S_a + S_b - 2 sum min(a, b) for non-negative counts, and
        min(a_j, b_j) is 0 where the probe has no count, so only the probe's
        (at most its length) buckets are read, each one contiguous row of
        counts.  min takes numpy's usual type promotion of the counts and the
        probe, so no count wraps, and integer mins are summed in the
        smallest type that holds the probe's total, which bounds them.  For
        integer counts, as hash_query and encode give, every term is an
        integer that float64 holds exactly, so the result equals the dense
        ``abs(M - pv).sum(1) / (M + pv).sum(1)`` bit for bit.
        """
        pv = _counts(pv)
        if pv.shape != (self.n_buckets,):
            raise ValueError("probe bucket width does not match store")
        cols = np.flatnonzero(pv)
        probe = pv[cols, None]
        top = np.result_type(self.counts, probe, np.min_scalar_type(probe.sum()))
        shared = np.minimum(self.counts[cols], probe).sum(axis=0, dtype=top)
        # every stored row counts >= 1 trigram, so no denominator is 0
        total = self.totals + pv.sum()
        return (total - 2.0 * shared) / total

    keys = distances  # the sort keys of an encoded probe

    def rank(self, probe: Sequence[int], count: int,
             exclude_id: int | None = None) -> np.ndarray:
        """The count store ids nearest the probe by (distance, id), never exclude_id."""
        pv = self.encode(QueryTable.of_query(probe))[0]  # integer counts
        return self._ranked(self.keys(pv), count, exclude_id)

