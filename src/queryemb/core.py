"""Shared primitives: configuration, RNG streams, and base types.

Randomness policy
-----------------
All sampling goes through counter-based Philox generators keyed by
``(seed, stream)``.  Distinct logical entities (vocabulary, product set,
each individual query, training, splits) get distinct stream ids, so any
entity can be regenerated in isolation and generation order never matters.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    return np.random.Generator(np.random.Philox(key=stream_key(seed, stream)))


def stream_key(seed: int, stream: int) -> np.ndarray:
    """The Philox key of (seed, stream): both words taken mod 2**64."""
    return np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)


# Philox4x64-10's multipliers and key increments (Salmon, Moraes, Dror & Shaw,
# "Parallel random numbers: as easy as 1, 2, 3", SC'11), as numpy's Philox uses them.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# stream_words runs the rounds on at most this many (stream, block) cells at a
# time, so each temporary (128 KiB) stays in cache: 2x faster on 20000 streams.
_PHILOX_CELLS = 1 << 14


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit product a * m (uint64 a, 64-bit m).

    The high word is summed from the 32-bit halves' products, none of which
    overflows (Warren, Hacker's Delight, 8-2).
    """
    a0, a1, m0, m1 = a & 0xFFFFFFFF, a >> 32, m & 0xFFFFFFFF, m >> 32
    t = a1 * m0 + (a0 * m0 >> 32)
    w = (t & 0xFFFFFFFF) + a0 * m1
    return a1 * m1 + (t >> 32) + (w >> 32), a * m


def stream_words(seed: int, streams: Sequence[int], n_words: int) -> np.ndarray:
    """(len(streams), n_words) uint64: the first raw words of each rng_stream(seed, stream).

    Philox4x64-10 for many streams at once, in uint64 array arithmetic, bit for
    bit as numpy's Philox: it bumps the counter before each 4-word block, so
    block b is the counter (b + 1, 0, 0, 0) under the key stream_key(seed, stream).
    """
    if n_words < 0:
        raise ValueError(f"n_words must be >= 0, got {n_words}")
    if isinstance(streams, np.ndarray) and streams.dtype.kind in "iu":
        keys = streams.astype(np.uint64)  # two's complement: each stream mod 2**64
    else:
        keys = np.array([int(s) & _MASK64 for s in streams], dtype=np.uint64)
    blocks = -(-n_words // 4)
    # round 1 multiplies the counter words alone, and three of them are 0
    hi, lo = _mulhilo(np.arange(1, blocks + 1, dtype=np.uint64), _PHILOX_M[0])
    out = np.empty((keys.size, blocks, 4), dtype=np.uint64)
    step = max(1, _PHILOX_CELLS // max(blocks, 1))
    for start in range(0, keys.size, step):
        k0, k1 = seed & _MASK64, keys[start : start + step, None]
        x0 = np.full((k1.size, blocks), k0, dtype=np.uint64)
        x1, x2, x3 = np.zeros_like(x0), hi ^ k1, np.broadcast_to(lo, x0.shape)
        for _ in range(9):
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
            hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        out[start : start + step] = np.stack([x0, x1, x2, x3], axis=-1)
    return np.ascontiguousarray(out.reshape(keys.size, 4 * blocks)[:, :n_words])


def lemire_draw(x, n: int):
    """Generator.integers(n), 1 < n < 2**32, on the 32-bit draw x: (value, accepted).

    Lemire's rule as numpy applies it: the value is x*n >> 32, and the call
    redraws while x*n mod 2**32 < (2**32 - n) % n.  x is a Python int or a
    uint64 array, and n an int or a uint64 array broadcast against x.
    """
    m = x * n
    return m >> 32, (m & 0xFFFFFFFF) >= (2**32 - n) % n


class ReplayStream:
    """Generator.integers(n) calls replayed on what is left of a live Philox stream.

    A bounded draw with n < 2**32 reads 32-bit halves: the bit generator's
    kept half first (``has_uint32``/``uinteger`` of its state), then each raw
    word's low half before its high half; ``integers(1)`` reads nothing.  The
    raw words are read ahead, ``n_words`` at first and as many again as are
    held whenever a peek runs past them, and kept as one uint64 array of
    halves.
    """

    def __init__(self, bit_generator: np.random.BitGenerator, n_words: int) -> None:
        state = bit_generator.state
        self._bits = bit_generator
        self._halves = np.array([state["uinteger"]] if state["has_uint32"] else [], np.uint64)
        self._cursor = 0
        self._read(n_words)

    def _read(self, n_words: int) -> None:
        words = self._bits.random_raw(max(n_words, 1))
        halves = np.column_stack([words & 0xFFFFFFFF, words >> 32]).ravel()
        self._halves = np.concatenate([self._halves, halves])

    @property
    def position(self) -> int:
        """The number of halves read so far, the kept half included."""
        return self._cursor

    def skip(self, count: int) -> None:
        """Read the next count held halves (as peek returned them) without decoding them."""
        if not 0 <= count <= self._halves.size - self._cursor:
            held = self._halves.size - self._cursor
            raise ValueError(f"can skip 0 to {held} halves, not {count}")
        self._cursor += count

    def peek(self, n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The next size halves, read ahead as needed but left unread: as uint64
        32-bit values and as the integers(n) each gives, -1 where Lemire's rule
        redraws.  Any n outside [2, 2**32) raises before a read."""
        if not 1 < n < 2**32:
            raise ValueError(f"range must lie in [2, 2**32), got {n}")
        start = self._cursor
        while start + size > self._halves.size:
            self._read(self._halves.size // 2)
        halves = self._halves[start : start + size]
        value, accepted = lemire_draw(halves, n)
        return halves, np.where(accepted, value.view(np.int64), -1)  # values < 2**32


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
            if not (0.0 <= b < np.inf):  # NaN fails too
                raise ValueError(f"betas[{i}]={b} must be finite and >= 0")
        if not (0.0 < self.lam < np.inf):
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if not (self.epsilon_p >= 0.0):
            # 0 is legal: the graph then degenerates to same-product cliques
            raise ValueError(f"epsilon_p must be >= 0, got {self.epsilon_p}")
        if self.n_products < 0 or self.n_queries < 0:
            raise ValueError("n_products and n_queries must be non-negative")
        if self.n_queries > 0 and self.n_products < 1:
            raise ValueError("cannot generate queries without products")


def parse_key_values(text: str) -> dict[str, str]:
    """Parse flat "key = value" lines; '#' starts a comment; blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def key_values_text(entries: Mapping[str, str]) -> str:
    """The ``key = value`` lines of entries, one per entry, in the mapping's order."""
    return "".join(f"{key} = {value}\n" for key, value in entries.items())


def write_key_values(path: str, entries: Mapping[str, str]) -> None:
    """Write key_values_text(entries) to path, with Unix line ends on every platform."""
    with open(path, "w", newline="\n") as fh:
        fh.write(key_values_text(entries))


def read_key_values(path: str) -> dict[str, str]:
    """The ``key = value`` file at path, parsed by parse_key_values, in file order."""
    with open(path) as fh:
        return parse_key_values(fh.read())


def _parse_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw == "true"


# value parser per config field annotation
_FIELD_PARSERS = {
    int: int,
    float: float,
    bool: _parse_bool,
    str: str,
    tuple[float, ...]: lambda raw: tuple(float(x) for x in raw.split(",")),
}


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def config_text(config) -> dict[str, str]:
    """A config dataclass as the ``key = value`` strings config_from_mapping reads back.

    Bools are ``true``/``false``, floats their ``repr``, tuples comma-joined floats.
    """
    return {f.name: _value_text(getattr(config, f.name)) for f in dataclasses.fields(config)}


def config_from_mapping(cls, kv: dict[str, str]):
    """Config dataclass ``cls`` from text values, each parsed by its field's annotation.

    Fields without a default are required; a missing or unknown key, or a
    value its type cannot parse, raises ValueError.
    """
    fields = dataclasses.fields(cls)
    missing = {f.name for f in fields if f.default is dataclasses.MISSING} - kv.keys()
    if missing:
        raise ValueError(f"missing {cls.__name__} keys: {sorted(missing)}")
    unknown = kv.keys() - {f.name for f in fields}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for name, raw in kv.items():
        with _errors_prefixed(name):
            kwargs[name] = _FIELD_PARSERS[types[name]](raw)
    return cls(**kwargs)


@contextlib.contextmanager
def _errors_prefixed(prefix: str):
    """A ValueError raised inside, raised again as one whose message starts with prefix + ": "."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _check_integers(arr: np.ndarray, what: str) -> None:
    """Refuse a non-empty array whose dtype is not an integer type (np.asarray([]) is float64)."""
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")


def _int64_array(values, what: str) -> np.ndarray:
    """values as a new int64 array, refused unless integers. np.asarray makes a list
    float64, object or uint64 if it holds a Python int past int64, which raises
    OverflowError, as does a uint64 value past int64."""
    arr = np.asarray(values)
    if arr.dtype.kind in "fOu" and not isinstance(values, np.ndarray):
        np.array(values, dtype=np.int64)  # the OverflowError, if any
    _check_integers(arr, what)
    if arr.dtype == np.uint64 and arr.size and arr.max() > np.iinfo(np.int64).max:
        raise OverflowError(f"{what} must fit int64")
    return arr.astype(np.int64)


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
        for name, what in (("ids", "trigram ids"), ("lengths", "lengths"),
                           ("product_ids", "product ids")):
            arr = _int64_array(getattr(self, name), what)
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

    @classmethod
    def of_query(cls, q: Sequence[int]) -> "QueryTable":
        """One raw query as a one-row table with product id 0, its ids checked as a row's."""
        ids = _int64_array(q, "trigram ids")
        if ids.ndim != 1:
            raise ValueError(f"a query is a 1-d sequence of trigram ids, got shape {ids.shape}")
        return cls(ids[None], [ids.size], [0])

    def row(self, i: int) -> np.ndarray:
        """The trigram ids of query i, without padding."""
        return self.ids[i, : self.lengths[i]]

    def take(self, idx: Sequence[int]) -> "QueryTable":
        """The table of rows idx, in that order."""
        return QueryTable(self.ids[idx], self.lengths[idx], self.product_ids[idx])


class QueryGraph:
    """Undirected graph on query ids.

    Stored in CSR form: the neighbours of q are ``indices[indptr[q]:indptr[q+1]]``,
    sorted and never containing q.  ``edges`` lists each undirected edge once
    as a ``(u, v)`` row with ``u < v``, so symmetry holds by construction.
    The input edges may have any integer dtype and are read as they are (a
    uint32 array is not widened); anything else raises ValueError.  ``indices``
    and ``indptr`` are int64.
    """

    def __init__(self, n_queries: int, edges: np.ndarray | Sequence[Sequence[int]]) -> None:
        n = int(n_queries)
        edges = np.asarray(edges)
        _check_integers(edges, "edge query ids")
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
        # the CSR rows in order, row q starts at the first key >= q * n and
        # key % n is the neighbour.  The keys are at most n * n - 1, so up to
        # n = 2**16 they sort as uint32; they are computed in that dtype, not
        # the input's (an int32 q * n wraps from n = 2**16 + 1).
        kind = np.uint32 if n <= 1 << 16 else np.uint64
        keys = np.empty(2 * len(edges), dtype=kind)
        for half, q, w in ((keys[: len(edges)], u, v), (keys[len(edges) :], v, u)):
            np.multiply(q, n, out=half, dtype=kind, casting="unsafe")
            np.add(half, w, out=half, dtype=kind, casting="unsafe")
        keys.sort()
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            a, b = sorted(divmod(int(keys[dup[0]]), n))
            raise ValueError(f"duplicate edge ({a}, {b})")
        self.indptr = np.empty(n + 1, dtype=np.int64)
        self.indptr[:n] = np.searchsorted(keys, np.arange(n, dtype=kind) * kind(n))
        self.indptr[n] = keys.size  # n * n itself overflows uint32 at n = 2**16
        self.indices = np.empty(keys.size, dtype=np.int64)
        np.remainder(keys, max(n, 1), out=self.indices)

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

    def edges(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Each undirected edge once: (E, 2) rows (u, v), u < v, sorted by u then v;
        only those with lo <= u < hi when a row range is given."""
        hi = self.n_queries if hi is None else hi
        rows = np.repeat(np.arange(lo, hi), np.diff(self.indptr[lo : hi + 1]))
        cols = self.indices[self.indptr[lo] : self.indptr[hi]]
        upper = cols > rows
        return np.column_stack([rows[upper], cols[upper]])
