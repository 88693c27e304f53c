"""Shared primitives: configuration, RNG streams, and base types.

Randomness policy
-----------------
All sampling goes through counter-based Philox generators keyed by
``(seed, stream)``.  Distinct logical entities (vocabulary, product set,
each individual query, training, splits) get distinct stream ids, so any
entity can be regenerated in isolation and generation order never matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream-id layout under a single user-facing seed.  Query i uses stream
# STREAM_QUERIES + i, so everything below STREAM_QUERIES is reserved.
STREAM_VOCAB = 0
STREAM_PRODUCTS = 1
STREAM_MODEL_INIT = 2
STREAM_TRAIN = 3
STREAM_SPLIT = 4
STREAM_VALIDATE = 5
STREAM_QUERIES = 16


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Return an independent Generator for (seed, stream).

    Uses Philox, a counter-based bit generator: streams with different
    keys are statistically independent, and the mapping is pure (no
    global state, no dependence on call order).
    """
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_unit_sphere(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw one point uniformly from the unit sphere in R^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    while True:
        v = rng.standard_normal(dim)
        norm = np.linalg.norm(v)
        if norm > 1e-12:  # resample on (measure-zero) degenerate draw
            return v / norm


def sample_trigram_vocab(rng: np.random.Generator, vocab_size: int, dim: int) -> np.ndarray:
    """Latent trigram vectors: vocab_size i.i.d. standard normal rows in R^dim."""
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return rng.standard_normal((vocab_size, dim))


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic query generator.

    ``alphas[i]`` and ``betas[i]`` control position i+1 of a query: with
    probability alphas[i] the trigram is drawn from the exponential
    family tilted toward the product vector with inverse temperature
    betas[i], otherwise uniformly from the vocabulary.  Query length is
    Poisson(lam) truncated to [1, max_len].  Two products are graph
    neighbours when their Euclidean distance is at most epsilon_p.
    """

    dim: int
    vocab_size: int
    max_len: int
    lam: float
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    epsilon_p: float
    n_products: int
    n_queries: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if len(self.alphas) != self.max_len or len(self.betas) != self.max_len:
            raise ValueError(
                "alphas and betas must each have max_len entries "
                f"(max_len={self.max_len}, got {len(self.alphas)} and {len(self.betas)})"
            )
        for i, a in enumerate(self.alphas):
            if not (0.5 < a <= 1.0):
                raise ValueError(f"alphas[{i}]={a} outside (0.5, 1]")
        for i, b in enumerate(self.betas):
            if b < 0.0:
                raise ValueError(f"betas[{i}]={b} must be >= 0")
        if not (self.lam > 0.0):
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not (self.epsilon_p >= 0.0):
            # 0 is legal: the graph then degenerates to same-product cliques
            raise ValueError(f"epsilon_p must be >= 0, got {self.epsilon_p}")
        if self.n_products < 0 or self.n_queries < 0:
            raise ValueError("n_products and n_queries must be non-negative")
        if self.n_queries > 0 and self.n_products < 1:
            raise ValueError("cannot generate queries without products")


@dataclass(frozen=True, eq=False)
class QueryTable:
    """Q queries as one padded table: trigram ids, lengths and products.

    Row i of ``ids`` holds query i's trigram ids in its first ``lengths[i]``
    slots and 0 after them; product ``product_ids[i]`` generated it.  The arrays
    are read-only int64 copies, validated once here; ``id_bound`` (largest id
    + 1) lets callers check in O(1) that the table fits a vocabulary.
    """

    ids: np.ndarray
    lengths: np.ndarray
    product_ids: np.ndarray
    id_bound: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("ids", "lengths", "product_ids"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        ids, lengths = self.ids, self.lengths
        if not (ids.ndim == 2 and lengths.shape == self.product_ids.shape == ids.shape[:1]):
            raise ValueError("ids, lengths and product_ids must have shapes (Q, width), (Q,), (Q,)")
        if np.any(lengths < 1):
            raise ValueError("a query must contain at least one trigram")
        if np.any(lengths > self.width):
            raise ValueError(f"query length {lengths.max()} exceeds max_len {self.width}")
        if np.any(ids < 0):
            raise ValueError("trigram ids must be non-negative")
        if np.any(ids[np.arange(self.width) >= lengths[:, None]]):
            raise ValueError("slots past a query's length must hold 0")
        if np.any(self.product_ids < 0):
            raise ValueError("product_id must be non-negative")
        object.__setattr__(self, "id_bound", int(ids.max(initial=-1)) + 1)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], product_ids: Sequence[int], width: int):
        """Table of variable-length id rows, padded with 0 to ``width``."""
        lengths = np.array([len(r) for r in rows], dtype=np.int64)
        if np.any(lengths > width):
            raise ValueError(f"query length {lengths.max()} exceeds max_len {width}")
        ids = np.zeros((lengths.size, width), dtype=np.int64)
        ids[np.arange(width) < lengths[:, None]] = [t for r in rows for t in r]
        return cls(ids, lengths, product_ids)

    @property
    def width(self) -> int:
        return self.ids.shape[1]

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QueryTable) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("ids", "lengths", "product_ids")
        )

    def row(self, i: int) -> np.ndarray:
        """The trigram ids of query i, without padding."""
        return self.ids[i, : self.lengths[i]]

    def take(self, idx: Sequence[int]) -> "QueryTable":
        """The table of rows idx, in that order."""
        return QueryTable(self.ids[idx], self.lengths[idx], self.product_ids[idx])


class QueryGraph:
    """Undirected graph on query ids with purchase side-information.

    Stored in CSR form: the neighbours of q are ``indices[indptr[q]:indptr[q+1]]``,
    sorted and never containing q.  ``edges`` lists each undirected edge once
    as a ``(u, v)`` row with ``u < v``, so symmetry holds by construction.
    ``purchase_map[q]`` lists (product_id, count) pairs recording purchases
    attributed to query q.
    """

    def __init__(
        self,
        n_queries: int,
        edges: np.ndarray | Sequence[Sequence[int]],
        purchase_map: dict[int, list[tuple[int, int]]],
    ) -> None:
        n = int(n_queries)
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (E, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            bad = edges[((edges < 0) | (edges >= n)).any(axis=1)][0]
            raise ValueError(f"edge {tuple(bad.tolist())} has a query id out of range")
        u, v = edges[:, 0], edges[:, 1]
        bad = np.flatnonzero(u >= v)
        if bad.size:
            a, b = edges[bad[0]].tolist()
            if a == b:
                raise ValueError(f"self-loop at query {a}")
            raise ValueError(f"edge ({a}, {b}) violates u < v ordering")
        # one key q * n + w per directed edge; sorted, the keys run through
        # the CSR rows in order and key % n is the neighbour
        keys = np.concatenate([u * n + v, v * n + u])
        keys.sort()
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            a, b = sorted(divmod(int(keys[dup[0]]), n))
            raise ValueError(f"duplicate edge ({a}, {b})")
        keys %= max(n, 1)
        self.indices = keys
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(edges.ravel(), minlength=n), out=self.indptr[1:])
        for q, purchases in purchase_map.items():
            if not (0 <= q < n):
                raise ValueError(f"purchase_map key {q} is not a query id")
            for pid, count in purchases:
                if pid < 0:
                    raise ValueError("purchased product_id must be non-negative")
                if count < 1:
                    raise ValueError("purchase count must be >= 1")
        self.purchase_map = {q: list(v) for q, v in purchase_map.items()}

    @property
    def n_queries(self) -> int:
        return self.indptr.size - 1

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    def neighbors(self, q: int) -> np.ndarray:
        return self.indices[self.indptr[q] : self.indptr[q + 1]]

    def degree(self, q: int) -> int:
        return int(self.indptr[q + 1] - self.indptr[q])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        j = np.searchsorted(nbrs, v)
        return bool(j < nbrs.size and nbrs[j] == v)

    def edges(self) -> np.ndarray:
        """Each undirected edge once: (E, 2) rows (u, v), u < v, sorted by u then v."""
        rows = np.repeat(np.arange(self.n_queries), np.diff(self.indptr))
        upper = self.indices > rows
        return np.column_stack([rows[upper], self.indices[upper]])
