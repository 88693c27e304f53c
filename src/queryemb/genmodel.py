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
is therefore identical for any thread count and any generation order.
"""

from __future__ import annotations

import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
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
    rng_stream,
    sample_trigram_vocab,
    sample_unit_sphere,
)

# Skip the per-(product, position) CDF cache when it would exceed this many
# floats; generation then recomputes tilted weights per query.
_CDF_CACHE_MAX_FLOATS = 5e7

# edges.tsv is formatted this many rows at a time, which bounds the
# transient Python ints of a write.
_EDGE_WRITE_BLOCK = 1 << 16

MATRIX_MAGIC = b"QEMBMAT1"

CONFIG_FILENAME = "config.txt"
VOCAB_FILENAME = "vocab.bin"
PRODUCTS_FILENAME = "products.bin"
QUERIES_FILENAME = "queries.tsv"
EDGES_FILENAME = "edges.tsv"


def truncated_poisson_pmf(lam: float, max_len: int) -> np.ndarray:
    """Pmf of Poisson(lam) conditioned on 1 <= k <= max_len; entry j is k=j+1."""
    if not (lam > 0.0):
        raise ValueError(f"lam must be > 0, got {lam}")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    k = np.arange(1, max_len + 1, dtype=np.float64)
    log_pmf = k * np.log(lam) - gammaln(k + 1.0)
    log_pmf -= log_pmf.max()
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


def sample_query_length(rng: np.random.Generator, lam: float, max_len: int) -> int:
    """One draw from Poisson(lam) truncated to [1, max_len] (inverse CDF)."""
    pmf = truncated_poisson_pmf(lam, max_len)
    return _draw_length(rng, np.cumsum(pmf))


def _draw_length(rng: np.random.Generator, length_cdf: np.ndarray) -> int:
    u = rng.random()
    idx = int(np.searchsorted(length_cdf, u, side="right"))
    return min(idx, length_cdf.size - 1) + 1


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
    probs *= alpha
    probs += (1.0 - alpha) / config.vocab_size
    return probs


def _position_params(config: GeneratorConfig, position: int) -> tuple[float, float]:
    if not (1 <= position <= config.max_len):
        raise ValueError(f"position {position} outside [1, {config.max_len}]")
    return config.alphas[position - 1], config.betas[position - 1]


def _draw_trigram(
    rng: np.random.Generator, alpha: float, tilted_cdf: np.ndarray, vocab_size: int
) -> int:
    # Canonical two-stage draw; see the module docstring for the stream contract.
    if rng.random() < alpha:
        u = rng.random()
        return min(int(np.searchsorted(tilted_cdf, u, side="right")), vocab_size - 1)
    return int(rng.integers(vocab_size))


def sample_trigram(
    rng: np.random.Generator,
    p: np.ndarray,
    position: int,
    config: GeneratorConfig,
    vocab: np.ndarray,
) -> int:
    """Draw one trigram id for the given product and 1-based position."""
    alpha, beta = _position_params(config, position)
    cdf = np.cumsum(tilted_component_probs(p, beta, vocab))
    return _draw_trigram(rng, alpha, cdf, config.vocab_size)


def sample_trigrams_batch(
    rng: np.random.Generator,
    p: np.ndarray,
    position: int,
    config: GeneratorConfig,
    vocab: np.ndarray,
    n_samples: int,
) -> np.ndarray:
    """Vectorized i.i.d. draws from the position mixture (for Monte Carlo use).

    Distributionally identical to repeated sample_trigram calls but consumes
    the stream differently (three parallel draw arrays), so it is not meant
    for dataset generation.
    """
    alpha, beta = _position_params(config, position)
    cdf = np.cumsum(tilted_component_probs(p, beta, vocab))
    pick_tilted = rng.random(n_samples) < alpha
    tilted = np.minimum(
        np.searchsorted(cdf, rng.random(n_samples), side="right"), config.vocab_size - 1
    )
    uniform = rng.integers(config.vocab_size, size=n_samples)
    return np.where(pick_tilted, tilted, uniform).astype(np.int64)


def trigram_mean_coefficient(
    p: np.ndarray, position: int, config: GeneratorConfig, vocab: np.ndarray
) -> float:
    """Predicted length of the mean sampled trigram along p.

    The mean of the position-i mixture is rho_i * p with
    rho_i = m * alpha_i * beta_i * exp(beta_i^2 / 2) / Z(p, beta_i).
    """
    alpha, beta = _position_params(config, position)
    z = partition_function(p, beta, vocab)
    return config.vocab_size * alpha * beta * float(np.exp(0.5 * beta * beta)) / z


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
    diff = vocab[ids] - rho * np.asarray(p, dtype=np.float64)
    return float(np.mean(np.einsum("ij,ij->i", diff, diff)))


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
        if len(q) != c.n_queries:
            raise ValueError(f"{len(q)} queries != configured {c.n_queries}")
        if self.graph.n_queries != len(q):
            raise ValueError("graph size does not match query count")
        if q.width > c.max_len:
            raise ValueError(f"query width {q.width} exceeds max_len {c.max_len}")
        if q.id_bound > c.vocab_size:
            raise ValueError("trigram id out of vocabulary range")
        if len(q) and q.product_ids.max() >= c.n_products:
            raise ValueError(f"product_id {q.product_ids.max()} out of range")


def product_adjacency(products: np.ndarray, epsilon_p: float) -> np.ndarray:
    """Boolean (P, P) matrix: products within epsilon_p of each other (self included)."""
    gram = products @ products.T
    sq = np.maximum(gram.diagonal()[:, None] + gram.diagonal()[None, :] - 2.0 * gram, 0.0)
    adj = np.sqrt(sq) <= epsilon_p
    np.fill_diagonal(adj, True)  # same-product pairs are adjacent (distance 0)
    return adj


def _query_edges(product_ids: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """Edges (u, v), u < v, between queries whose products are adjacent.

    Queries are bucketed by product; each bucket is paired with the
    concatenated buckets of its adjacent products.
    """
    n_products = adjacency.shape[0]
    order = np.argsort(product_ids, kind="stable")
    bounds = np.searchsorted(product_ids[order], np.arange(n_products + 1))
    buckets = [order[bounds[a] : bounds[a + 1]] for a in range(n_products)]
    blocks = [np.empty((0, 2), dtype=np.int64)]
    for a, mine in enumerate(buckets):
        near = np.concatenate([buckets[b] for b in np.flatnonzero(adjacency[a])])
        u = np.repeat(mine, near.size)
        v = np.tile(near, mine.size)
        keep = u < v
        blocks.append(np.column_stack([u[keep], v[keep]]))
    return np.concatenate(blocks)


def _query_graph(queries: QueryTable, edges: np.ndarray) -> QueryGraph:
    """The query graph; each query records one purchase of its own product."""
    purchase_map = {qi: [(pid, 1)] for qi, pid in enumerate(queries.product_ids.tolist())}
    return QueryGraph(len(queries), edges, purchase_map)


def generate_dataset(config: GeneratorConfig, threads: int = 1) -> SyntheticDataset:
    """Run the full generative process for one configuration.

    With threads > 1, queries are generated concurrently; outputs are
    identical to the single-threaded run because each query has its own
    RNG substream.
    """
    vocab = sample_trigram_vocab(
        rng_stream(config.seed, STREAM_VOCAB), config.vocab_size, config.dim
    )
    prod_rng = rng_stream(config.seed, STREAM_PRODUCTS)
    products = np.array(
        [sample_unit_sphere(prod_rng, config.dim) for _ in range(config.n_products)],
        dtype=np.float64,
    ).reshape(config.n_products, config.dim)

    length_cdf = np.cumsum(truncated_poisson_pmf(config.lam, config.max_len))
    use_cache = (
        config.n_products * config.max_len * config.vocab_size <= _CDF_CACHE_MAX_FLOATS
    )
    cdf_cache: dict[tuple[int, int], np.ndarray] = {}

    def tilted_cdf(pid: int, pos_idx: int) -> np.ndarray:
        key = (pid, pos_idx)
        cached = cdf_cache.get(key)
        if cached is not None:
            return cached
        cdf = np.cumsum(
            tilted_component_probs(products[pid], config.betas[pos_idx], vocab)
        )
        if use_cache:
            cdf_cache[key] = cdf
        return cdf

    def make_query(qi: int) -> tuple[list[int], int]:
        r = rng_stream(config.seed, STREAM_QUERIES + qi)
        pid = int(r.integers(config.n_products))
        length = _draw_length(r, length_cdf)
        ids = [
            _draw_trigram(r, config.alphas[pos], tilted_cdf(pid, pos), config.vocab_size)
            for pos in range(length)
        ]
        return ids, pid

    if threads > 1 and config.n_queries > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            made = list(pool.map(make_query, range(config.n_queries)))
    else:
        made = [make_query(qi) for qi in range(config.n_queries)]

    queries = QueryTable.from_rows([r for r, _ in made], [p for _, p in made], config.max_len)
    edges = _query_edges(queries.product_ids, product_adjacency(products, config.epsilon_p))
    return SyntheticDataset(config, vocab, products, queries, _query_graph(queries, edges))


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
    payload = fh.read(expected)
    if len(payload) != expected:
        raise ValueError(f"{context}: payload {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)


def write_matrix(path: str, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_matrix_stream(fh, arr)


def read_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        arr = read_matrix_stream(fh, context=path)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after matrix payload")
    return arr


def _config_to_text(config: GeneratorConfig) -> str:
    items = {
        "alphas": ",".join(repr(a) for a in config.alphas),
        "betas": ",".join(repr(b) for b in config.betas),
        "dim": str(config.dim),
        "epsilon_p": repr(config.epsilon_p),
        "lam": repr(config.lam),
        "max_len": str(config.max_len),
        "n_products": str(config.n_products),
        "n_queries": str(config.n_queries),
        "seed": str(config.seed),
        "vocab_size": str(config.vocab_size),
    }
    return "".join(f"{k} = {v}\n" for k, v in sorted(items.items()))


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


def config_from_mapping(kv: dict[str, str]) -> GeneratorConfig:
    required = {
        "alphas", "betas", "dim", "epsilon_p", "lam",
        "max_len", "n_products", "n_queries", "seed", "vocab_size",
    }
    missing = required - kv.keys()
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    unknown = kv.keys() - required
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return GeneratorConfig(
        dim=int(kv["dim"]),
        vocab_size=int(kv["vocab_size"]),
        max_len=int(kv["max_len"]),
        lam=float(kv["lam"]),
        alphas=tuple(float(x) for x in kv["alphas"].split(",")),
        betas=tuple(float(x) for x in kv["betas"].split(",")),
        epsilon_p=float(kv["epsilon_p"]),
        n_products=int(kv["n_products"]),
        n_queries=int(kv["n_queries"]),
        seed=int(kv["seed"]),
    )


def save_dataset(dataset: SyntheticDataset, out_dir: str) -> list[str]:
    """Write the dataset directory; returns the relative file names written."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, CONFIG_FILENAME), "w", newline="\n") as fh:
        fh.write(_config_to_text(dataset.config))
    write_matrix(os.path.join(out_dir, VOCAB_FILENAME), dataset.vocab)
    write_matrix(os.path.join(out_dir, PRODUCTS_FILENAME), dataset.products)
    q = dataset.queries
    with open(os.path.join(out_dir, QUERIES_FILENAME), "w", newline="\n") as fh:
        for pid, ids, n in zip(q.product_ids.tolist(), q.ids.tolist(), q.lengths.tolist()):
            fh.write("\t".join(map(str, [pid, *ids[:n]])) + "\n")
    edges = dataset.graph.edges()
    with open(os.path.join(out_dir, EDGES_FILENAME), "w", newline="\n") as fh:
        for lo in range(0, len(edges), _EDGE_WRITE_BLOCK):
            block = edges[lo : lo + _EDGE_WRITE_BLOCK]
            fh.write(("%d\t%d\n" * len(block)) % tuple(block.ravel().tolist()))
    return [CONFIG_FILENAME, VOCAB_FILENAME, PRODUCTS_FILENAME, QUERIES_FILENAME, EDGES_FILENAME]


def load_dataset(in_dir: str) -> SyntheticDataset:
    with open(os.path.join(in_dir, CONFIG_FILENAME)) as fh:
        config = config_from_mapping(parse_key_values(fh.read()))
    vocab = read_matrix(os.path.join(in_dir, VOCAB_FILENAME))
    products = read_matrix(os.path.join(in_dir, PRODUCTS_FILENAME))

    with open(os.path.join(in_dir, QUERIES_FILENAME)) as fh:
        lines = [[int(t) for t in line.split("\t")] for line in map(str.strip, fh) if line]
    if len(lines) != config.n_queries:  # checked before the graph, whose ids it bounds
        raise ValueError(f"{len(lines)} queries != configured {config.n_queries}")
    rows, product_ids = [line[1:] for line in lines], [line[0] for line in lines]
    try:
        queries = QueryTable.from_rows(rows, product_ids, config.max_len)
    except OverflowError as exc:  # an id past int64 is outside every range
        raise ValueError(f"{QUERIES_FILENAME}: {exc}") from exc

    with warnings.catch_warnings():
        # an edge-free graph is saved as an empty edges.tsv
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        edges = np.loadtxt(os.path.join(in_dir, EDGES_FILENAME), dtype=np.int64, ndmin=2)
    return SyntheticDataset(config, vocab, products, queries, _query_graph(queries, edges))


# ---------------------------------------------------------------------------
# benchmark configuration


def alphas_for_linear_variance(
    dim: int, max_len: int, beta: float, variance_span: float
) -> tuple[float, ...]:
    """Mixture weights making the per-position trigram variance exactly affine.

    The position-i variance is dim + beta^2 * a_i (1 - a_i); solving
    a(1-a) = s for the larger root makes the variance run linearly from
    dim (position 1) to dim + variance_span (last position) while keeping
    every a_i in (1/2, 1].
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
        alphas=alphas_for_linear_variance(16, max_len, beta, variance_span=1.5),
        betas=(beta,) * max_len,
        epsilon_p=0.5,
        n_products=200,
        n_queries=5000,
        seed=seed,
    )
