"""Synthetic query generation.

A product is a point on the unit sphere in R^dim.  A query is an ordered
trigram-id sequence whose length is truncated-Poisson and whose position-i
trigram comes from the mixture

    P(t) = alpha_i * exp(beta_i <t, p>) / Z(p, beta_i) + (1 - alpha_i) / m,

where Z(p, beta) = sum_t exp(beta <t, p>) is the partition function over
the m vocabulary vectors.  Queries are graph-adjacent when their products
lie within epsilon_p of each other (same product included, distance 0).

Reproducibility contract
------------------------
Query ``i`` consumes randomness only from ``rng_stream(seed, STREAM_QUERIES+i)``
in a fixed draw order: product id, then one uniform for the length, then per
position one uniform for the component choice followed by one uniform (tilted
component, inverse-CDF) or one integer draw (uniform component).  Generation
is therefore identical for any generation order.

Each stream's raw Philox words are read once and decoded in integer and
power-of-two arithmetic, bit for bit as numpy's Generator decodes them:
``random()`` is (word >> 11) * 2**-53; ``integers(n)``, 1 < n < 2**32, is Lemire's
rule (``core.lemire_draw``) on 32-bit draws.  A 32-bit draw takes a fresh word's
low half and keeps its high half for the next one, which ``random()`` skips;
``integers(1)`` reads nothing.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .core import (
    STREAM_PRODUCTS,
    STREAM_QUERIES,
    STREAM_VOCAB,
    GeneratorConfig,
    QueryGraph,
    QueryTable,
    _errors_prefixed,
    config_from_mapping,
    config_text,
    lemire_draw,
    read_key_values,
    rng_stream,
    sample_trigram_vocab,
    sample_unit_sphere,
    stream_words,
    write_key_values,
)

# edges.tsv is formatted in blocks of graph rows holding at most this many
# CSR entries (or one longer row), which bounds the transient tables of a write.
_EDGE_WRITE_BLOCK = 1 << 16
_TAB, _NEWLINE = ord("\t"), ord("\n")
# The most digits a queries.tsv field may have: 19 of them stay below 2**64.
_MAX_DIGITS = 19
# The tilted draws' CDF table is built and searched at most this many floats
# (8 MiB) at a time; the desk and dense tables (200 keys x 2000) fit in one.
_CDF_BLOCK_FLOATS = 1 << 20

MATRIX_MAGIC = b"QEMBMAT1"

CONFIG_FILENAME = "config.txt"
VOCAB_FILENAME = "vocab.bin"
PRODUCTS_FILENAME = "products.bin"
QUERIES_FILENAME = "queries.tsv"
EDGES_FILENAME = "edges.tsv"


def truncated_poisson_pmf(lam: float, max_len: int) -> np.ndarray:
    """Pmf of Poisson(lam) conditioned on 1 <= k <= max_len; entry j is k=j+1."""
    if not (0.0 < lam < np.inf):
        raise ValueError(f"lam must be finite and > 0, got {lam}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    k = np.arange(1, max_len + 1, dtype=np.float64)
    log_pmf = k * np.log(lam) - gammaln(k + 1.0)
    log_pmf -= log_pmf.max()
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


def query_lengths(config: GeneratorConfig, u: np.ndarray) -> np.ndarray:
    """Truncated-Poisson query lengths by inverse CDF of the uniforms u in [0, 1).

    A draw's length is 1 plus the count of CDF entries, the last one left out,
    that are <= u: min(searchsorted(cdf, u, side="right"), max_len - 1) + 1.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):  # NaN fails too
        raise ValueError(f"uniforms must lie in [0, 1), got values in [{u.min()}, {u.max()}]")
    cdf = np.cumsum(truncated_poisson_pmf(config.lam, config.max_len))
    lengths = np.ones(u.shape, dtype=np.int64)
    for entry in cdf[:-1].tolist():
        lengths += u >= entry
    return lengths


def partition_function(p: np.ndarray, beta: float, vocab: np.ndarray) -> float:
    """Z(p, beta) = sum over vocabulary of exp(beta <t, p>)."""
    return float(np.exp(beta * (vocab @ np.asarray(p, dtype=np.float64))).sum())


def tilted_component_probs(p: np.ndarray, beta: float, vocab: np.ndarray) -> np.ndarray:
    """Normalized weights exp(beta <t, p>) / Z of the tilted mixture component.

    p is one product (dim,) or a stack of products (P, dim), giving (m,) or (P, m).
    """
    s = (vocab @ np.asarray(p, dtype=np.float64).T).T
    s *= beta
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def mixture_probs(
    products: np.ndarray, position: int, config: GeneratorConfig, vocab: np.ndarray
) -> np.ndarray:
    """Position-wise trigram distributions (tilted + uniform mixture), (P, m).

    Row a is the distribution of the trigram at this position given products[a].
    """
    alpha, beta = _position_params(config, position)
    probs = tilted_component_probs(products, beta, vocab)
    return mix_uniform(probs, alpha, config.vocab_size, out=probs)


def mix_uniform(
    tilted: np.ndarray, alpha: float, vocab_size: int, out: np.ndarray | None = None
) -> np.ndarray:
    """alpha * tilted + (1 - alpha) / vocab_size: a position's mixture of its
    tilted component with the uniform one, written into out when given."""
    out = np.multiply(tilted, alpha, out=out)
    out += (1.0 - alpha) / vocab_size
    return out


def _position_params(config: GeneratorConfig, position: int) -> tuple[float, float]:
    if not (1 <= position <= config.max_len):
        raise ValueError(f"position {position} outside [1, {config.max_len}]")
    return config.alphas[position - 1], config.betas[position - 1]


def sample_trigrams_batch(
    rng: np.random.Generator,
    p: np.ndarray,
    position: int,
    config: GeneratorConfig,
    vocab: np.ndarray,
    n_samples: int,
) -> np.ndarray:
    """Vectorized i.i.d. draws from the position mixture (for Monte Carlo use).

    Distributionally identical to the generator's per-query draws but consumes
    the stream differently (three parallel draw arrays), so it is not meant
    for dataset generation.
    """
    alpha, beta = _position_params(config, position)
    cdf = np.cumsum(tilted_component_probs(p, beta, vocab))[None, :]
    pick_tilted = rng.random(n_samples) < alpha
    u = rng.random(n_samples)[pick_tilted]  # drawn for every sample, read for the tilted ones
    ids = rng.integers(config.vocab_size, size=n_samples).astype(np.int64)
    ids[pick_tilted] = inverse_cdf_rows(cdf, np.zeros(u.size, dtype=np.int64), u)
    return ids


def trigram_mean_coefficient(
    p: np.ndarray, position: int, config: GeneratorConfig, vocab: np.ndarray
) -> float:
    """Predicted length of the mean sampled trigram along p.

    The mean of the position-i mixture is rho_i * p with
    rho_i = m * alpha_i * beta_i * exp(beta_i^2 / 2) / Z(p, beta_i).
    """
    alpha, beta = _position_params(config, position)
    return rho_from_partition(config.vocab_size, alpha, beta, partition_function(p, beta, vocab))


def rho_from_partition(vocab_size: int, alpha: float, beta: float, z: float | np.ndarray):
    """rho = m * alpha * beta * exp(beta^2 / 2) / Z, for one partition function
    value Z or elementwise over an array of them."""
    return vocab_size * alpha * beta * float(np.exp(0.5 * beta * beta)) / z


def trigram_empirical_variance(
    p: np.ndarray,
    position: int,
    config: GeneratorConfig,
    vocab: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of E || t_i - rho_i p ||^2 at one position.

    Deviations are measured from the predicted mean rho_i * p, not the
    sample mean.
    """
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000, got {n_samples}")
    ids = sample_trigrams_batch(rng, p, position, config, vocab, n_samples)
    rho = trigram_mean_coefficient(p, position, config, vocab)
    diff = vocab - rho * np.asarray(p, dtype=np.float64)  # each vocabulary row's term once
    return float(np.mean(np.einsum("ij,ij->i", diff, diff)[ids]))


@dataclass(frozen=True)
class SyntheticDataset:
    config: GeneratorConfig
    vocab: np.ndarray
    products: np.ndarray
    queries: QueryTable
    graph: QueryGraph

    def __post_init__(self) -> None:
        c = self.config
        q = self.queries
        if self.vocab.shape != (c.vocab_size, c.dim):
            raise ValueError(f"vocab shape {self.vocab.shape} != ({c.vocab_size}, {c.dim})")
        if self.products.shape != (c.n_products, c.dim):
            raise ValueError(f"products shape {self.products.shape} != ({c.n_products}, {c.dim})")
        if not (np.all(np.isfinite(self.vocab)) and np.all(np.isfinite(self.products))):
            raise ValueError("vocab and products must be finite")
        _check_queries(c, q)
        if self.graph.n_queries != len(q):
            raise ValueError("graph size does not match query count")

    @property
    def purchase_map(self) -> dict[int, list[tuple[int, int]]]:
        """The eval's purchases, derived on each access: query q bought product_ids[q] once."""
        return {q: [(pid, 1)] for q, pid in enumerate(self.queries.product_ids.tolist())}


def _check_queries(config: GeneratorConfig, q: QueryTable) -> None:
    """The queries fit the config: its query count, max_len, vocabulary and products."""
    if len(q) != config.n_queries:
        raise ValueError(f"{len(q)} queries != configured {config.n_queries}")
    if q.width > config.max_len:
        raise ValueError(f"query width {q.width} exceeds max_len {config.max_len}")
    if q.id_bound > config.vocab_size:
        raise ValueError("trigram id out of vocabulary range")
    if len(q) and q.product_ids.max() >= config.n_products:
        raise ValueError(f"product_id {q.product_ids.max()} out of range")


def product_adjacency(products: np.ndarray, epsilon_p: float) -> np.ndarray:
    """Boolean (P, P) matrix: products within epsilon_p of each other (self included)."""
    gram = products @ products.T
    sq = np.maximum(gram.diagonal()[:, None] + gram.diagonal()[None, :] - 2.0 * gram, 0.0)
    adj = np.sqrt(sq) <= epsilon_p
    np.fill_diagonal(adj, True)  # same-product pairs are adjacent (distance 0)
    return adj


def _groups(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of keys in [0, n_keys): key k's entries are order[bounds[k]:bounds[k+1]]."""
    order = np.argsort(keys, kind="stable")
    return order, np.searchsorted(keys[order], np.arange(n_keys + 1))


def inverse_cdf_rows(cdfs: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Draw j: min(searchsorted(cdfs[rows[j]], u[j], side="right"), m - 1), all draws at once.

    Every row of the (K, m) table must be non-decreasing (a cumsum of
    probabilities), so a binary lift over the flattened table counts exactly
    the entries <= u[j]: about log2(m) gather-and-compare passes.  A row
    outside [0, K) raises ValueError.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= len(cdfs)):
        bad = rows.min() if rows.min() < 0 else rows.max()
        raise ValueError(f"CDF row {bad} outside [0, {len(cdfs)})")
    m, first = cdfs.shape[1], rows * cdfs.shape[1]
    flat, at, span = cdfs.ravel(), first.copy(), m
    while span > 1:  # the count lies in [at - first, at - first + span]
        half = span // 2
        at += half * (flat[at + half] <= u)
        span -= half
    at += flat[at] <= u
    return np.minimum(at - first, m - 1)


def _query_edges(product_ids: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Edges (u, v), u < v, between queries whose products are adjacent.

    Queries are bucketed by product; each bucket is paired with the
    concatenated buckets of its adjacent products.  The rows are uint32
    up to 2**32 queries.
    """
    order, bounds = _groups(product_ids, len(adjacency))
    order = order.astype(np.uint32 if len(product_ids) <= 1 << 32 else np.int64)
    buckets = [order[bounds[a] : bounds[a + 1]] for a in range(len(adjacency))]
    blocks = [np.empty((0, 2), dtype=order.dtype)]
    for a, mine in enumerate(buckets):
        near = np.concatenate([buckets[b] for b in np.flatnonzero(adjacency[a])])
        u = np.repeat(mine, near.size)
        v = np.tile(near, mine.size)
        keep = u < v
        blocks.append(np.column_stack([u[keep], v[keep]]))
    return np.concatenate(blocks)


class _StreamReader:
    """Generator.random() and .integers(n) for each listed row j of rng_stream(seed, streams[j]).

    Once a row needs more words than were read, every stream is re-read with twice as many.
    """

    def __init__(self, seed: int, streams: np.ndarray, n_words: int) -> None:
        self.seed, self.streams, self.words = seed, streams, stream_words(seed, streams, n_words)
        self.cursor = np.zeros(len(streams), dtype=np.int64)
        self.kept, self.has_kept = np.zeros(len(streams), np.uint64), np.zeros(len(streams), bool)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        self.cursor[rows] += 1
        if rows.size and self.cursor[rows].max() > self.words.shape[1]:
            self.words = stream_words(self.seed, self.streams, 2 * self.words.shape[1])
        return self.words[rows, self.cursor[rows] - 1]

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        had, out = self.has_kept[rows], self.kept[rows]
        word = self._next64(rows[~had])  # low half now, high half kept for the next draw
        out[~had], self.kept[rows[~had]] = word & 0xFFFFFFFF, word >> 32
        self.has_kept[rows] = ~had
        return out

    def random(self, rows: np.ndarray) -> np.ndarray:
        return (self._next64(rows) >> 11) * 2.0**-53

    def integers(self, rows: np.ndarray, n: int) -> np.ndarray:
        out, redo = np.zeros(rows.size, dtype=np.int64), np.arange(rows.size if n > 1 else 0)
        while redo.size:
            value, accepted = lemire_draw(self._next32(rows[redo]), n)
            out[redo] = value  # a redrawn row is overwritten by a later pass
            redo = redo[~accepted]
        return out


def _sample_queries(
    config: GeneratorConfig, products: np.ndarray, vocab: np.ndarray, n_words: int
) -> QueryTable:
    """Every query decoded from its stream; tilted draws are looked up per (product, beta) last."""
    n, width, everyone = config.n_queries, config.max_len, np.arange(config.n_queries)
    reader = _StreamReader(config.seed, STREAM_QUERIES + everyone, n_words)
    product_ids = reader.integers(everyone, config.n_products)
    lengths = query_lengths(config, reader.random(everyone))
    ids, tilted_u = np.zeros((n, width), dtype=np.int64), np.full((n, width), np.nan)
    for pos in range(width):
        rows = np.flatnonzero(lengths > pos)
        tilted = reader.random(rows) < config.alphas[pos]
        tilted_u[rows[tilted], pos] = reader.random(rows[tilted])  # stays NaN where not tilted
        ids[rows[~tilted], pos] = reader.integers(rows[~tilted], config.vocab_size)

    q, pos = np.nonzero(~np.isnan(tilted_u))
    slot = np.array([config.betas.index(b) for b in config.betas])  # equal betas, one CDF
    keys, row = np.unique(product_ids[q] * width + slot[pos], return_inverse=True)
    u, per_block = tilted_u[q, pos], max(1, _CDF_BLOCK_FLOATS // config.vocab_size)
    for lo in range(0, keys.size, per_block):
        block = keys[lo : lo + per_block]
        cdfs = np.zeros((block.size, config.vocab_size))
        for r, k in enumerate(block.tolist()):  # the generator's 1-D path, not the (P, dim) GEMM
            p, beta = products[k // width], config.betas[k % width]
            cdfs[r] = np.cumsum(tilted_component_probs(p, beta, vocab))
        j = (row >= lo) & (row < lo + block.size)  # the draws whose key is in this block
        ids[q[j], pos[j]] = inverse_cdf_rows(cdfs, row[j] - lo, u[j])
    return QueryTable(ids, lengths, product_ids)


def generate_dataset(config: GeneratorConfig, threads: int = 1) -> SyntheticDataset:
    """Run the full generative process for one configuration; ``threads`` is ignored."""
    for name in ("vocab_size", "n_products"):  # integers(n) leaves its 32-bit path at 2**32
        if getattr(config, name) >= 2**32:
            raise ValueError(f"{name} must be < 2**32, got {getattr(config, name)}")
    vocab = sample_trigram_vocab(
        rng_stream(config.seed, STREAM_VOCAB), config.vocab_size, config.dim
    )
    prod_rng = rng_stream(config.seed, STREAM_PRODUCTS)
    products = np.array(
        [sample_unit_sphere(prod_rng, config.dim) for _ in range(config.n_products)],
        dtype=np.float64,
    ).reshape(config.n_products, config.dim)
    queries = _sample_queries(config, products, vocab, n_words=2 + 2 * config.max_len)
    edges = _query_edges(queries.product_ids, product_adjacency(products, config.epsilon_p))
    return SyntheticDataset(config, vocab, products, queries, QueryGraph(len(queries), edges))


# ---------------------------------------------------------------------------
# serialization


def write_matrix_stream(fh, arr: np.ndarray) -> None:
    """Binary matrix block: 8-byte magic, uint32 rows, uint32 cols, row-major LE float64."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {arr.shape}")
    fh.write(struct.pack("<8sII", MATRIX_MAGIC, arr.shape[0], arr.shape[1]))
    fh.write(arr.tobytes(order="C"))


def read_matrix_stream(fh, context: str = "matrix") -> np.ndarray:
    header = fh.read(16)
    if len(header) != 16:
        raise ValueError(f"{context}: truncated header")
    magic, rows, cols = struct.unpack("<8sII", header)
    if magic != MATRIX_MAGIC:
        raise ValueError(f"{context}: bad magic {magic!r}")
    expected = rows * cols * 8
    available = os.fstat(fh.fileno()).st_size - fh.tell()  # checked before a read of that size
    if available < expected:
        raise ValueError(f"{context}: payload {available} bytes, expected {expected}")
    return np.frombuffer(fh.read(expected), dtype="<f8").reshape(rows, cols).astype(np.float64)


def write_matrix(path: str, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_matrix_stream(fh, arr)


def read_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        arr = read_matrix_stream(fh, context=path)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after matrix payload")
    return arr


def _cell_table(n: int) -> np.ndarray:
    """(2n + 1,) void cells of the decimal text of 0..n-1, NUL-padded to one width:
    cell v is v's digits and a tab, cell n + v its digits and a newline, cell 2n empty."""
    width = len(str(max(n - 1, 0)))
    digits = np.arange(n).astype(f"S{width}").view(np.uint8).reshape(n, width)
    cells = np.zeros((2 * n + 1, width + 1), dtype=np.uint8)
    cells[:n, :width] = cells[n : 2 * n, :width] = digits
    cells[:n, width], cells[n : 2 * n, width] = _TAB, _NEWLINE
    return cells.view(np.dtype((np.void, width + 1)))[:, 0]


def _tsv_bytes(cells: np.ndarray, index: np.ndarray) -> bytes:
    """The text of cells[index], row after row, with the NUL padding dropped."""
    text = cells.take(index).view(np.uint8).ravel()
    return text[text != 0].tobytes()


def save_dataset(dataset: SyntheticDataset, out_dir: str) -> list[str]:
    """Write the dataset directory; returns the relative file names written."""
    os.makedirs(out_dir, exist_ok=True)
    config = dict(sorted(config_text(dataset.config).items()))
    write_key_values(os.path.join(out_dir, CONFIG_FILENAME), config)
    write_matrix(os.path.join(out_dir, VOCAB_FILENAME), dataset.vocab)
    write_matrix(os.path.join(out_dir, PRODUCTS_FILENAME), dataset.products)
    q, graph = dataset.queries, dataset.graph
    n = max(dataset.config.n_products, dataset.config.vocab_size, len(q))
    cells = _cell_table(n)
    with open(os.path.join(out_dir, QUERIES_FILENAME), "wb") as fh:
        fields = np.column_stack([q.product_ids, q.ids])  # the product id, then the trigram ids
        index = np.where(np.arange(fields.shape[1]) <= q.lengths[:, None], fields, 2 * n)
        index[np.arange(len(q)), q.lengths] += n  # a line ends after its last trigram
        fh.write(_tsv_bytes(cells, index))
    with open(os.path.join(out_dir, EDGES_FILENAME), "wb") as fh:
        lo, indptr = 0, graph.indptr
        while lo < graph.n_queries:  # the most rows from lo that fit a block, at least one
            hi = max(lo + 1, np.searchsorted(indptr, indptr[lo] + _EDGE_WRITE_BLOCK, "right") - 1)
            fh.write(_tsv_bytes(cells, graph.edges(lo, hi) + [0, n]))
            lo = hi
    return [CONFIG_FILENAME, VOCAB_FILENAME, PRODUCTS_FILENAME, QUERIES_FILENAME, EDGES_FILENAME]


def _read_queries(path: str, width: int) -> QueryTable:
    """The QueryTable of a queries.tsv file, parsed in byte-level array passes.

    It accepts exactly the bytes save_dataset writes: lines that end in "\\n",
    of decimal fields in ASCII digits without a leading 0, each followed by
    one tab or the line's end; a line is a product id and then 1 to width
    trigram ids.  Anything else raises ValueError naming the file and the
    first bad line.
    """
    text = np.fromfile(path, dtype=np.uint8)
    ends = np.flatnonzero((text == _TAB) | (text == _NEWLINE))  # each field's terminator
    newline = text[ends] == _NEWLINE
    if text.size and text[-1] != _NEWLINE:
        raise ValueError(f"{path} line {newline.sum() + 1}: no final newline")
    starts = np.concatenate([[0], ends + 1])[:-1]
    size = ends - starts
    first = np.concatenate([[0], np.flatnonzero(newline) + 1])  # each line's first field
    count = np.diff(first)
    line = np.repeat(np.arange(count.size), count)

    digits = text - ord("0")  # uint8: below 10 exactly for the ASCII digits
    values = np.zeros(ends.size, dtype=np.uint64)
    for k in range(min(int(size.max(initial=0)), _MAX_DIGITS)):  # digit columns, right to left
        values += digits[ends - 1 - k] * (size > k) * np.uint64(10**k)
    stray = digits > 9
    stray[ends] = False
    literal = (size > 1) & (text[starts] == ord("0"))  # a leading 0
    literal[np.searchsorted(ends, np.flatnonzero(stray))] = True

    def field(f: int) -> bytes:
        return text[starts[f] : ends[f]].tobytes()

    faults = []  # (0-based line, message) of each kind's first instance
    for f in np.flatnonzero(size == 0)[:1]:
        faults.append((line[f], "empty field: a double or trailing tab, or a blank line"))
    for f in np.flatnonzero(literal)[:1]:
        faults.append((line[f], f"invalid literal {field(f)!r}: a field is a non-negative "
                                "integer in ASCII digits without a leading 0"))
    for f in np.flatnonzero(~literal & ((size > _MAX_DIGITS) | (values > 2**63 - 1)))[:1]:
        faults.append((line[f], f"{field(f).decode()} is past the int64 range"))
    for q in np.flatnonzero(count < 2)[:1]:
        faults.append((q, "a query must contain at least one trigram"))
    for q in np.flatnonzero(count > width + 1)[:1]:
        faults.append((q, f"query length {count[q] - 1} exceeds max_len {width}"))
    if faults:
        at, why = min(faults, key=lambda fault: fault[0])
        raise ValueError(f"{path} line {at + 1}: {why}")

    slot = np.arange(ends.size) - first[line]  # 0: the product id, i: trigram i
    ids = np.zeros((count.size, width), dtype=np.int64)
    trigram = slot > 0
    ids[line[trigram], slot[trigram] - 1] = values[trigram]
    return QueryTable(ids, count - 1, values[first[:-1]].astype(np.int64))


def load_dataset(in_dir: str) -> SyntheticDataset:
    """The dataset save_dataset wrote to in_dir; an error about a file's content names the file."""
    path = os.path.join(in_dir, CONFIG_FILENAME)
    with _errors_prefixed(path):
        config = config_from_mapping(GeneratorConfig, read_key_values(path))
    vocab = read_matrix(os.path.join(in_dir, VOCAB_FILENAME))
    products = read_matrix(os.path.join(in_dir, PRODUCTS_FILENAME))

    path = os.path.join(in_dir, QUERIES_FILENAME)
    queries = _read_queries(path, config.max_len)  # its errors name the file already
    with _errors_prefixed(path):
        _check_queries(config, queries)  # before the graph, whose ids the count bounds

    path = os.path.join(in_dir, EDGES_FILENAME)
    with _errors_prefixed(path), warnings.catch_warnings():
        # an edge-free graph is saved as an empty edges.tsv
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        edges = np.loadtxt(path, ndmin=2, dtype=np.int32 if len(queries) < 2**31 else np.int64)
        graph = QueryGraph(len(queries), edges)
    return SyntheticDataset(config, vocab, products, queries, graph)


# ---------------------------------------------------------------------------
# benchmark configuration


def alphas_for_linear_variance(max_len: int, beta: float, variance_span: float) -> tuple[float, ...]:
    """Mixture weights making the per-position trigram variance exactly affine.

    The position-i variance is dim + beta^2 * a_i (1 - a_i); solving
    a(1-a) = s for the larger root makes the variance run linearly from
    dim (position 1) to dim + variance_span (last position) while keeping
    every a_i in (1/2, 1].  The dim offset is the same at every position,
    so the weights do not depend on it.
    """
    if variance_span < 0 or variance_span > beta * beta / 4.0 * 0.999999:
        raise ValueError("variance_span must lie in [0, beta^2/4)")
    out = []
    for i in range(max_len):
        frac = i / (max_len - 1) if max_len > 1 else 0.0
        s = variance_span * frac / (beta * beta)
        out.append(0.5 * (1.0 + float(np.sqrt(1.0 - 4.0 * s))))
    return tuple(out)


def default_benchmark_config(seed: int) -> GeneratorConfig:
    """The desk-scale benchmark: constant beta, variance rising linearly in position.

    lam is set far above max_len so ~99% of queries sit at the truncation
    point and every attention row trains on (nearly) every query.  With
    heavily varying lengths, rows for late positions only ever appear inside
    long queries and pick up a systematic boundary inflation that has
    nothing to do with per-position noise.

    beta = 2.5 keeps e^{beta^2} (~518) well under the vocabulary size, so
    partition functions still concentrate; pushing beta to 3 inverts the
    empirical variance profile at this vocabulary size.  The variance span
    1.5 is close to the beta^2/4 cap (1.5625), giving the widest per-position
    contrast the mixture supports.  epsilon_p = 0.5 is small enough that the
    query graph is exactly the union of same-product cliques, the cleanest
    positive signal at 200 products.
    """
    beta = 2.5
    max_len = 12
    return GeneratorConfig(
        dim=16,
        vocab_size=2000,
        max_len=max_len,
        lam=1200.0,
        alphas=alphas_for_linear_variance(max_len, beta, variance_span=1.5),
        betas=(beta,) * max_len,
        epsilon_p=0.5,
        n_products=200,
        n_queries=5000,
        seed=seed,
    )
