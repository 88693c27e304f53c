"""Attention-weighted trigram embeddings and their negative-sampling trainer.

A query embedding is a softmax-weighted average of trigram vectors: position
i contributes the score <attn[i], emb[t_i]>, the scores are softmaxed into
weights, and the embedding is the weighted mean of the trigram vectors.
Training pulls graph-adjacent query embeddings together and pushes
non-adjacent ones apart through a sigmoid cross-entropy loss; gradients are
hand-derived and checked against finite differences in the test suite.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .core import STREAM_MODEL_INIT, STREAM_TRAIN, QueryGraph, QueryTable, rng_stream
from .genmodel import SyntheticDataset, read_matrix_stream, write_matrix_stream

# Pair scores are clamped to this magnitude before exponentiation.  Beyond
# it the loss is flat, so clamped pairs contribute exactly zero gradient.
SCORE_CLAMP = 30.0

CHECKPOINT_MAGIC = b"QEMBCKP1"
CHECKPOINT_VERSION = 1


@dataclass
class AttentionModel:
    """Trainable parameters: one row of emb per trigram, one row of attn per position."""

    emb: np.ndarray
    attn: np.ndarray

    def __post_init__(self) -> None:
        self.emb = np.asarray(self.emb, dtype=np.float64)
        self.attn = np.asarray(self.attn, dtype=np.float64)
        if self.emb.ndim != 2 or self.attn.ndim != 2:
            raise ValueError("emb and attn must be 2-d arrays")
        if self.emb.shape[1] != self.attn.shape[1]:
            raise ValueError(
                f"dim mismatch: emb is {self.emb.shape}, attn is {self.attn.shape}"
            )
        if not (np.isfinite(self.emb).all() and np.isfinite(self.attn).all()):
            raise ValueError("model parameters must be finite")

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    @property
    def max_len(self) -> int:
        return self.attn.shape[0]

    def copy(self) -> "AttentionModel":
        return AttentionModel(self.emb.copy(), self.attn.copy())


def init_model(vocab_size: int, dim: int, max_len: int, seed: int) -> AttentionModel:
    """Gaussian trigram table (std 1/sqrt(dim)), zero attention rows.

    Zero attention rows mean every query starts at uniform weights, so any
    weight structure visible after training was learned.
    """
    rng = rng_stream(seed, STREAM_MODEL_INIT)
    emb = rng.standard_normal((vocab_size, dim)) / np.sqrt(dim)
    return AttentionModel(emb=emb, attn=np.zeros((max_len, dim)))


def _check_ids(model: AttentionModel, q: Sequence[int]) -> np.ndarray:
    """The ids of one raw query, validated as a one-row table that must fit the model."""
    row = list(q)
    table = QueryTable.from_rows([row], [0], max(len(row), 1))
    _check_table(model, table)
    return table.row(0)


def _check_table(model: AttentionModel, queries: QueryTable) -> None:
    """O(1): every row of a (self-validated) table fits the model."""
    if queries.width > model.max_len:
        raise ValueError(f"query width {queries.width} exceeds model max_len {model.max_len}")
    if queries.id_bound > model.vocab_size:
        raise ValueError(f"trigram id {queries.id_bound - 1} outside [0, {model.vocab_size})")


def _forward(model: AttentionModel, ids: Sequence[int]):
    """Returns (z, weights, V) for one query; V stacks the trigram vectors."""
    idx = np.asarray(ids, dtype=np.intp)
    V = model.emb[idx]
    scores = np.einsum("ij,ij->i", model.attn[: len(ids)], V)
    scores = scores - scores.max()
    w = np.exp(scores)
    w /= w.sum()
    return w @ V, w, V


def attention_weights(model: AttentionModel, q: Sequence[int]) -> np.ndarray:
    return _forward(model, _check_ids(model, q))[1]


def embed_query(model: AttentionModel, q: Sequence[int]) -> np.ndarray:
    return _forward(model, _check_ids(model, q))[0]


def embed_table(model: AttentionModel, queries: QueryTable) -> np.ndarray:
    """(Q, dim) embeddings of every row of the table."""
    _check_table(model, queries)
    rows = [_forward(model, queries.row(i))[0] for i in range(len(queries))]
    return np.array(rows, dtype=np.float64).reshape(len(queries), model.dim)


def log_sigmoid(x: float) -> float:
    """log(1/(1+e^-x)) with the stable branch, input clamped to |x| <= SCORE_CLAMP."""
    x = float(np.clip(x, -SCORE_CLAMP, SCORE_CLAMP))
    if x >= 0.0:
        return -np.log1p(np.exp(-x))
    return x - np.log1p(np.exp(x))


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class TrainingBatch:
    """One anchor with its sampled positive and negative query ids."""

    anchor: int
    positives: tuple[int, ...]
    negatives: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positives", tuple(int(x) for x in self.positives))
        object.__setattr__(self, "negatives", tuple(int(x) for x in self.negatives))
        if self.anchor in self.positives or self.anchor in self.negatives:
            raise ValueError("anchor must not appear among its positives or negatives")


@dataclass
class ModelGradient:
    emb: np.ndarray
    attn: np.ndarray


def loss(model: AttentionModel, batch: TrainingBatch, queries: QueryTable) -> float:
    """Mean -log sigma(<z_a, z_pos>) plus mean -log sigma(-<z_a, z_neg>)."""
    if not batch.positives or not batch.negatives:
        raise ValueError("loss needs at least one positive and one negative")
    _check_table(model, queries)
    involved = {batch.anchor, *batch.positives, *batch.negatives}
    z = {qid: _forward(model, queries.row(qid))[0] for qid in involved}
    z_a = z[batch.anchor]
    pos = -np.mean([log_sigmoid(z_a @ z[p]) for p in batch.positives])
    neg = -np.mean([log_sigmoid(-(z_a @ z[n])) for n in batch.negatives])
    return float(pos + neg)


def loss_and_gradient(
    model: AttentionModel, batch: TrainingBatch, queries: QueryTable
) -> tuple[float, ModelGradient]:
    """Loss plus its exact gradient in both parameter blocks.

    Backprop through one query with upstream u = dL/dz:
        c_i = <u, V_i>,  b_i = w_i (c_i - sum_j w_j c_j)
        d attn_i = b_i V_i,   d emb_{t_i} += w_i u + b_i attn_i.
    Pair terms: a positive with score x contributes (sigma(x) - 1) / |P|
    to d x, a negative sigma(x) / |N|; scores past the clamp are flat and
    contribute zero.
    """
    if not batch.positives or not batch.negatives:
        raise ValueError("loss needs at least one positive and one negative")

    _check_table(model, queries)
    involved = {batch.anchor, *batch.positives, *batch.negatives}
    fwd = {qid: _forward(model, queries.row(qid)) for qid in involved}

    z_a = fwd[batch.anchor][0]
    upstream: dict[int, np.ndarray] = {qid: np.zeros(model.dim) for qid in involved}
    total = 0.0

    for sign, group in ((+1, batch.positives), (-1, batch.negatives)):
        inv = 1.0 / len(group)
        for qid in group:
            z_o = fwd[qid][0]
            x = float(z_a @ z_o)
            total -= log_sigmoid(sign * x) * inv
            if abs(x) >= SCORE_CLAMP:
                continue  # loss is flat past the clamp
            # d/dx of -log sigma(x) is sigma(x) - 1; of -log sigma(-x) is sigma(x)
            g = (_sigmoid(x) - (1.0 if sign > 0 else 0.0)) * inv
            upstream[batch.anchor] += g * z_o
            upstream[qid] += g * z_a

    grad = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))
    for qid, u in upstream.items():
        z, w, V = fwd[qid]
        ids = queries.row(qid)
        c = V @ u
        b = w * (c - float(w @ c))
        n = len(ids)
        grad.attn[:n] += b[:, None] * V
        np.add.at(grad.emb, ids, w[:, None] * u + b[:, None] * model.attn[:n])
    return float(total), grad


# ---------------------------------------------------------------------------
# sampling


def sample_positives(
    graph: QueryGraph,
    q: int,
    mode: str,
    rng: np.random.Generator,
    n_samples: int = 5,
    walk_length: int = 3,
    walks_per_node: int = 10,
) -> list[int]:
    """Positive examples for anchor q.

    mode="uniform": n_samples i.i.d. uniform draws from the neighbours of q.
    mode="walks": every node visited on walks_per_node random walks of
    walk_length steps started at q (visits to q itself are dropped).
    Isolated anchors yield an empty list.
    """
    nbrs = graph.neighbors(q)
    if nbrs.size == 0:
        return []
    if mode == "uniform":
        return [int(nbrs[rng.integers(nbrs.size)]) for _ in range(n_samples)]
    if mode == "walks":
        out: list[int] = []
        for _ in range(walks_per_node):
            cur = q
            for _ in range(walk_length):
                cur_nbrs = graph.neighbors(cur)
                if cur_nbrs.size == 0:
                    break
                cur = int(cur_nbrs[rng.integers(cur_nbrs.size)])
                if cur != q:
                    out.append(cur)
        return out
    raise ValueError(f"unknown positive-sampling mode {mode!r}")


def sample_negatives(
    graph: QueryGraph, q: int, k: int, rng: np.random.Generator
) -> list[int]:
    """k i.i.d. uniform non-neighbours of q, by rejection sampling."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    n = graph.n_queries
    available = n - 1 - graph.degree(q)
    if available < k:
        raise ValueError(f"only {available} non-neighbours available, need {k}")
    nbrs = graph.neighbors(q)
    out: list[int] = []
    while len(out) < k:
        cand = int(rng.integers(n))
        if cand == q:
            continue
        j = np.searchsorted(nbrs, cand)
        if j < nbrs.size and nbrs[j] == cand:
            continue
        out.append(cand)
    return out


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    n_negatives: int = 5
    positive_mode: str = "walks"
    n_positives: int = 5
    walk_length: int = 3
    walks_per_node: int = 10
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "sgd"
    lr_decay: float = 1.0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    uniform_attention: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("n_negatives", "n_positives", "walk_length", "walks_per_node", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.positive_mode not in ("uniform", "walks"):
            raise ValueError(f"positive_mode must be 'uniform' or 'walks', got {self.positive_mode!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must be in (0, 1]")


def train(
    model: AttentionModel, dataset: SyntheticDataset, config: TrainConfig
) -> tuple[AttentionModel, list[tuple[int, int, float]]]:
    """SGD (or Adam) over a fixed set of per-anchor batches; returns
    (trained copy, loss trace).

    The anchor order and each anchor's positive/negative samples are drawn
    once up front and reused every epoch, so training minimizes a fixed
    finite sum.  This keeps the loss trace comparable across epochs: a
    window of batch losses at epoch k and the same window at epoch k+1
    cover identical samples, and any difference between them is optimizer
    progress rather than resampling noise.

    The trace has one (epoch, batch_index, mean batch loss) row per update.
    Anchors whose positive sample comes back empty are skipped.  A non-finite
    batch loss aborts with a diagnostic rather than continuing silently.
    """
    model = model.copy()
    graph = dataset.graph
    queries = dataset.queries
    _check_table(model, queries)
    rng = rng_stream(config.seed, STREAM_TRAIN)
    trace: list[tuple[int, int, float]] = []

    order = rng.permutation(graph.n_queries)
    batches: list[list[TrainingBatch]] = []
    for start in range(0, order.size, config.batch_size):
        group = []
        for a in order[start : start + config.batch_size]:
            a = int(a)
            pos = sample_positives(
                graph,
                a,
                config.positive_mode,
                rng,
                n_samples=config.n_positives,
                walk_length=config.walk_length,
                walks_per_node=config.walks_per_node,
            )
            if not pos:
                continue
            neg = sample_negatives(graph, a, config.n_negatives * len(pos), rng)
            group.append(TrainingBatch(anchor=a, positives=tuple(pos), negatives=tuple(neg)))
        if group:
            batches.append(group)

    adam_m = adam_v = None
    adam_t = 0
    if config.optimizer == "adam":
        adam_m = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))
        adam_v = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))

    lr = config.learning_rate
    for epoch in range(config.epochs):
        for batch_idx, group in enumerate(batches):
            acc = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))
            losses = []
            for batch in group:
                value, grad = loss_and_gradient(model, batch, queries)
                losses.append(value)
                acc.emb += grad.emb
                acc.attn += grad.attn
            mean_loss = float(np.mean(losses))
            if not np.isfinite(mean_loss):
                raise RuntimeError(
                    f"non-finite loss {mean_loss} at epoch {epoch}, batch {batch_idx}; aborting"
                )
            inv = 1.0 / len(losses)
            acc.emb *= inv
            acc.attn *= inv
            if config.uniform_attention:
                acc.attn[:] = 0.0
            if config.optimizer == "sgd":
                model.emb -= lr * acc.emb
                model.attn -= lr * acc.attn
            else:
                adam_t += 1
                b1, b2 = config.adam_beta1, config.adam_beta2
                for slot in ("emb", "attn"):
                    g = getattr(acc, slot)
                    m_ = getattr(adam_m, slot)
                    v_ = getattr(adam_v, slot)
                    m_ *= b1
                    m_ += (1 - b1) * g
                    v_ *= b2
                    v_ += (1 - b2) * g * g
                    m_hat = m_ / (1 - b1**adam_t)
                    v_hat = v_ / (1 - b2**adam_t)
                    getattr(model, slot)[:] -= lr * m_hat / (np.sqrt(v_hat) + config.adam_eps)
            trace.append((epoch, batch_idx, mean_loss))
        lr *= config.lr_decay
    return model, trace


def smoothed_trace(losses: Sequence[float], window: int = 10) -> np.ndarray:
    """Means of consecutive full windows of the loss sequence."""
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(losses) // window
    if n == 0:
        return np.array([])
    return np.asarray(losses[: n * window], dtype=np.float64).reshape(n, window).mean(axis=1)


# ---------------------------------------------------------------------------
# persistence


def save_checkpoint(model: AttentionModel, path: str) -> None:
    """Header (magic, version, m, d, N) followed by the emb and attn matrix blocks."""
    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                "<8sIIII",
                CHECKPOINT_MAGIC,
                CHECKPOINT_VERSION,
                model.vocab_size,
                model.dim,
                model.max_len,
            )
        )
        write_matrix_stream(fh, model.emb)
        write_matrix_stream(fh, model.attn)


def load_checkpoint(path: str) -> AttentionModel:
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError(f"{path}: truncated checkpoint header")
        magic, version, m, d, n = struct.unpack("<8sIIII", header)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        emb = read_matrix_stream(fh, context=f"{path}:emb")
        attn = read_matrix_stream(fh, context=f"{path}:attn")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes")
    if emb.shape != (m, d) or attn.shape != (n, d):
        raise ValueError(f"{path}: header dims do not match matrix blocks")
    return AttentionModel(emb=emb, attn=attn)


def write_loss_trace(path: str, trace: Sequence[tuple[int, int, float]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("epoch,batch,loss\n")
        for epoch, batch, value in trace:
            fh.write(f"{epoch},{batch},{value!r}\n")
