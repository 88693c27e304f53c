"""Attention-weighted trigram embeddings and their negative-sampling trainer.

A query embedding is a softmax-weighted average of trigram vectors: position
i contributes the score <attn[i], emb[t_i]>, the scores are softmaxed into
weights, and the embedding is the weighted mean of the trigram vectors.
Training pulls graph-adjacent query embeddings together and pushes
non-adjacent ones apart through a sigmoid cross-entropy loss.  Each training
group (the anchors of one update with their sampled positives and
negatives, held as pair arrays) is one batched pass over the padded query
rows; gradients are hand-derived and checked against finite differences and
against a per-anchor scalar reference in the test suite.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .core import (
    STREAM_MODEL_INIT,
    STREAM_TRAIN,
    QueryGraph,
    QueryTable,
    ReplayStream,
    lemire_draw,
    query_row,
    rng_stream,
)
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


def _check_fit(model: AttentionModel, width: int, id_bound: int) -> None:
    """Rows of this width with ids below id_bound fit the model."""
    if width > model.max_len:
        raise ValueError(f"query width {width} exceeds model max_len {model.max_len}")
    if id_bound > model.vocab_size:
        raise ValueError(f"trigram id {id_bound - 1} outside [0, {model.vocab_size})")


def _check_table(model: AttentionModel, queries: QueryTable) -> None:
    """O(1): every row of a (self-validated) table fits the model."""
    _check_fit(model, queries.width, queries.id_bound)


def _forward_rows(model: AttentionModel, ids: np.ndarray, lengths: np.ndarray):
    """Returns (z, weights, V) for a batch of padded rows.

    ids is (B, L) with pad slots past lengths[b]; V = emb[ids] is (B, L, dim),
    weights is the (B, L) softmax over each row's valid slots (exactly 0 on
    pad slots) and z the (B, dim) weighted sums.
    """
    width = ids.shape[1]
    V = model.emb[ids]
    scores = np.einsum("bld,ld->bl", V, model.attn[:width])
    valid = np.arange(width) < lengths[:, None]
    scores[~valid] = -np.inf
    scores -= scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=1, keepdims=True)
    return np.einsum("bl,bld->bd", w, V), w, V


def embed_query(model: AttentionModel, q: Sequence[int]) -> np.ndarray:
    """z of one raw query, checked as a one-row table would be and forwarded as one row."""
    ids = query_row(q)
    _check_fit(model, ids.size, int(ids.max()) + 1)
    return _forward_rows(model, ids[None, :], np.array([ids.size]))[0][0]


def embed_table(model: AttentionModel, queries: QueryTable) -> np.ndarray:
    """(Q, dim) embeddings of every row of the table."""
    _check_table(model, queries)
    return _forward_rows(model, queries.ids, queries.lengths)[0]


@dataclass
class ModelGradient:
    emb: np.ndarray
    attn: np.ndarray


class TrainingGroup(NamedTuple):
    """Pair arrays of one training group: one entry per (anchor, positive) and
    (anchor, negative) pair, each anchor's positives before its negatives.

    weight is 1/|P_a| or 1/|N_a|, then divided by the group's anchor count,
    so weighted sums are means over the group of each anchor's loss.
    distinct holds the group's query ids once each, ascending, and inverse
    the index into distinct of every anchor, then of every other, so a group
    pass forwards each query once without sorting the ids again.
    Build groups with TrainingGroup.build.
    """

    anchor: np.ndarray
    other: np.ndarray
    weight: np.ndarray
    positive: np.ndarray
    distinct: np.ndarray
    inverse: np.ndarray

    @classmethod
    def build(cls, anchor: np.ndarray, other: np.ndarray, weight: np.ndarray,
              positive: np.ndarray) -> "TrainingGroup":
        ids = np.concatenate([anchor, other])
        low = ids.min(initial=0)  # 0 unless an id is negative
        present = np.bincount(ids - low) > 0  # np.unique's distinct and inverse, without its sort
        return cls(anchor, other, weight, positive, np.flatnonzero(present) + low,
                   (np.cumsum(present) - 1)[ids - low])


def _upstream(partner: np.ndarray, g: np.ndarray, inverse: np.ndarray, n_rows: int) -> np.ndarray:
    """u = dL/dz of a group's n_rows rows: pair q adds g_q z_o to its anchor's
    row and g_q z_a to its other's.  Position p (anchor side q < P, other
    side P + q of pair q) is row inverse[p], and partner[p] is the z of its
    pair's other side.  One sparse column per position, ascending: scipy's
    CSC product walks its columns in order and adds each term to a zeroed
    row, so every row sums its terms in the order np.add.at over a, then o,
    would."""
    scatter = sparse.csc_array(
        (np.tile(g, 2), inverse, np.arange(inverse.size + 1)), shape=(n_rows, inverse.size)
    )
    return scatter @ partner


def loss_and_gradient(
    model: AttentionModel, group: TrainingGroup, queries: QueryTable
) -> tuple[float, ModelGradient]:
    """Mean loss of one training group plus its exact gradient in both parameter blocks.

    The loss is the mean over the group's anchors of mean -log sigma(<z_a, z_pos>)
    plus mean -log sigma(-<z_a, z_neg>).

    Every distinct query of the group is forwarded once.  A positive pair
    with score x contributes (sigma(x) - 1) * weight to d x, a negative
    sigma(x) * weight; scores past the clamp are flat and contribute zero.
    The pair terms are summed into each query's upstream u = dL/dz, and one
    backprop per query follows:
        c_i = <u, V_i>,  b_i = w_i (c_i - sum_j w_j c_j)
        d attn_i = b_i V_i,   d emb_{t_i} += w_i u + b_i attn_i
    over the valid slots i of the query.
    """
    _check_table(model, queries)
    anchor, _, weight, positive, distinct, inverse = group
    if anchor.size == 0:
        raise ValueError("a training group needs at least one anchor")
    if distinct[0] < 0 or distinct[-1] >= len(queries):
        raise ValueError(f"query ids must lie in [0, {len(queries)})")
    ids, lengths = queries.ids[distinct], queries.lengths[distinct]
    z, w, V = _forward_rows(model, ids, lengths)
    partner = z[np.roll(inverse, anchor.size)]  # the z of every other, then of every anchor
    x = np.einsum("pd,pd->p", partner[anchor.size :], partner[: anchor.size])
    # -log sigma(t) with t = +-x clamped to |t| <= SCORE_CLAMP, in the stable form
    t = np.clip(np.where(positive, x, -x), -SCORE_CLAMP, SCORE_CLAMP)
    value = float(weight @ (np.log1p(np.exp(-np.abs(t))) - np.minimum(t, 0.0)))
    e = np.exp(-np.abs(x))
    sig = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    g = np.where(np.abs(x) < SCORE_CLAMP, (sig - positive) * weight, 0.0)
    u = _upstream(partner, g, inverse, distinct.size)
    del partner  # (2P, dim): not held through the backward pass

    width = V.shape[1]
    c = np.einsum("bld,bd->bl", V, u)
    b = w * (c - np.einsum("bl,bl->b", w, c)[:, None])
    d_attn = np.zeros_like(model.attn)
    d_attn[:width] = np.einsum("bl,bld->ld", b, V)
    # d emb over the valid slots only (pad slots hold id 0).  The w_i u term
    # is a (vocab, rows) CSC product whose column b holds row b's slots in
    # order, so each trigram sums its terms in row-major slot order, as a
    # bincount over the valid slots would.  The b_i attn_i term is a
    # (vocab, width) table of summed b times attn.
    valid = np.arange(width) < lengths[:, None]
    trigram = ids[valid]
    spread = sparse.csc_array(
        (w[valid], trigram, np.concatenate([[0], np.cumsum(lengths)])),
        shape=(model.vocab_size, lengths.size),
    )
    d_emb = spread @ u
    b_table = np.bincount(
        trigram * width + np.nonzero(valid)[1], weights=b[valid], minlength=model.vocab_size * width
    )
    d_emb += b_table.reshape(model.vocab_size, width) @ model.attn[:width]
    return value, ModelGradient(d_emb, d_attn)


# ---------------------------------------------------------------------------
# sampling


def sample_positives(graph: QueryGraph, q: int, n_samples: int, stream: ReplayStream) -> list[int]:
    """n_samples i.i.d. uniform draws from the neighbours of anchor q.

    Each draw is one stream.integers(degree) call.  An isolated anchor yields
    an empty list and draws nothing.
    """
    nbrs = graph.neighbors(q)
    if nbrs.size == 0:
        return []
    return [int(nbrs[stream.integers(nbrs.size)]) for _ in range(n_samples)]


def sample_negatives(graph: QueryGraph, q: int, k: int, stream: ReplayStream) -> list[int]:
    """k i.i.d. uniform non-neighbours of q, by rejection sampling.

    Each candidate is one stream.integers(n_queries) call, redrawn while it
    is q or a neighbour of q.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    n = graph.n_queries
    available = n - 1 - graph.degree(q)
    if available < k:
        raise ValueError(f"only {available} non-neighbours available, need {k}")
    return stream.integers_outside(n, k, {q, *graph.neighbors(q).tolist()})


# ---------------------------------------------------------------------------
# training

# Adam's moment decay rates and denominator guard (the usual defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    n_negatives: int = 5
    n_positives: int = 5
    batch_size: int = 32
    seed: int = 0
    lr_decay: float = 1.0
    uniform_attention: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for name in ("n_negatives", "n_positives", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must be in (0, 1]")


# _training_groups replays the train stream REPLAY_BLOCK anchors at a time,
# each at up to REPLAY_DELAYS - 1 halves past its speculative offset
REPLAY_BLOCK = 128
REPLAY_DELAYS = 32


def _replay_block(
    graph: QueryGraph, anchors: np.ndarray, n_samples: int, k: int, stream: ReplayStream,
    excluded: np.ndarray,
) -> tuple[np.ndarray, bool]:
    """(samples, stuck): the (m, n_samples + k) positives and negatives of the
    first m anchors, from the stream's cursor on, as sample_positives and
    sample_negatives would draw them; the cursor is left at anchor m.

    Anchor j's draws start at offset o_j if no earlier draw is redrawn, and
    delta halves later if some are.  For each delta < REPLAY_DELAYS, array
    passes give the next anchor's delay: the positive halves must pass
    Lemire's rule at the degree, and the negatives are the first k halves
    whose integers(n_queries) is accepted and neither the anchor nor a
    neighbour (a bitmap row of excluded, all False between calls).  The walk
    through that table stops at the first anchor without an entry: a positive
    redraw, too few non-neighbours, or a next delay past the table.  stuck
    says it has no entry even at delay 0, so only the samplers can draw it.
    """
    n, width = graph.n_queries, n_samples + k + REPLAY_DELAYS - 1
    lo, rows = graph.indptr[anchors], np.arange(anchors.size)
    degree = graph.indptr[anchors + 1] - lo
    n_pos = np.where(degree > 1, n_samples, 0)  # integers(1) reads nothing
    offset = np.concatenate([[0], np.cumsum(n_pos + k)])
    halves, values = stream.peek(n, int(offset[-1]) + width)
    cols = offset[:-1, None] + np.arange(width)  # row j: o_j on, flattened below
    drawn, accepted = lemire_draw(halves[cols], degree.astype(np.uint64)[:, None])
    v = values[cols]
    row = np.repeat(rows, degree)
    marks = row * n + graph.indices[np.arange(row.size) + (lo - np.cumsum(degree) + degree)[row]]
    excluded[marks] = True
    good = ((v >= 0) & (v != anchors[:, None]) & ~excluded[rows[:, None] * n + v]).ravel()
    excluded[marks] = False
    # counts of redrawn positives and of kept halves before each flat index
    redraws, goods = (np.concatenate([[0], np.cumsum(x)]) for x in (~accepted, good))
    start = rows[:, None] * width + np.arange(REPLAY_DELAYS)  # anchor j at delay delta
    first_negative = start + n_pos[:, None]
    good_at = np.append(np.flatnonzero(good), 2 * good.size)  # past the last: delay too large
    last = good_at[np.minimum(goods[first_negative] + k - 1, good_at.size - 1)]
    nxt = last + 1 - (rows * width + n_pos + k)[:, None]
    found = (redraws[first_negative] == redraws[start]) & (n - 1 - degree >= k)[:, None]
    nxt[~found | (nxt >= REPLAY_DELAYS)] = -1
    walked, delay = [], 0
    for entries in nxt.tolist():
        if entries[delay] < 0:
            break
        walked.append(delay)
        delay = entries[delay]
    m = len(walked)
    at, placed = np.array(walked, dtype=np.int64)[:, None], rows[:m, None]
    stream.skip(int(offset[m]) + delay)
    positives = graph.indices[lo[placed] + drawn[placed, at + np.arange(n_samples)].view(np.int64)]
    negatives = v.ravel()[good_at[goods[first_negative[placed, at]] + np.arange(k)]]
    return np.hstack([positives, negatives]), m < anchors.size and delay == 0


def _training_groups(graph: QueryGraph, config: TrainConfig) -> list[TrainingGroup]:
    """Every anchor's samples, drawn once from rng_stream(seed, STREAM_TRAIN), as pair arrays.

    The stream's draws, in order: permutation(n_queries) on the Generator,
    then per anchor its positive draws and its negatives' integers(n_queries)
    draws, replayed from the stream's remaining words.  Anchor j of the
    permutation belongs to group j // batch_size; anchors without positives
    are skipped and groups left empty are dropped.

    The anchors are replayed a block at a time (_replay_block).  An anchor
    that no block table can place goes through sample_positives and
    sample_negatives from its exact stream position, so both paths give the
    same draws.
    """
    rng = rng_stream(config.seed, STREAM_TRAIN)
    order = rng.permutation(graph.n_queries)
    n_samples = config.n_positives
    k = config.n_negatives * n_samples  # an anchor with positives has n_samples of them
    draws = order.size * (n_samples + k)
    stream = ReplayStream(rng.bit_generator, draws * 9 // 16)  # two draws a word, 1/8 for redraws
    kept = np.flatnonzero(np.diff(graph.indptr)[order])  # an isolated anchor draws nothing
    if not kept.size:
        return []
    anchors, size = order[kept], n_samples + k  # pairs per anchor
    other = np.empty((kept.size, size), dtype=np.int64)
    excluded = np.zeros(REPLAY_BLOCK * graph.n_queries, dtype=bool)
    j = 0
    while j < kept.size:
        samples, stuck = _replay_block(graph, anchors[j : j + REPLAY_BLOCK], n_samples, k,
                                       stream, excluded)
        other[j : j + len(samples)] = samples
        j += len(samples)
        if stuck:
            # looked up at call time, so a wrapper installed on the module sees these anchors
            a = int(anchors[j])
            positives = sample_positives(graph, a, n_samples, stream)
            other[j] = positives + sample_negatives(graph, a, k, stream)
            j += 1
    del stream
    group = kept // config.batch_size
    anchor = np.repeat(anchors, size)
    positive = np.tile(np.arange(size) < n_samples, kept.size)
    weight = np.where(positive, 1.0 / n_samples, 1.0 / k)
    weight /= np.repeat(np.bincount(group)[group], size)  # the group's anchor count
    cuts = (np.flatnonzero(np.diff(group)) + 1) * size
    return [
        TrainingGroup.build(*parts)
        for parts in zip(*(np.split(a, cuts) for a in (anchor, other.ravel(), weight, positive)))
    ]


def train(
    model: AttentionModel, dataset: SyntheticDataset, config: TrainConfig
) -> tuple[AttentionModel, list[tuple[int, int, float]]]:
    """Adam over a fixed set of training groups of up to batch_size anchors
    each; returns (trained copy, loss trace).

    Adam rather than plain SGD: the loss surface couples coordinates at very
    different scales (trigram embeddings vs attention scores), and SGD needs
    absurd step sizes to move the attention rows at all.

    The anchor order and each anchor's positive/negative samples are drawn
    once up front (see _training_groups) and reused every epoch, so training
    minimizes a fixed finite sum.  This keeps the loss trace comparable
    across epochs: a window of batch losses at epoch k and the same window
    at epoch k+1 cover identical samples, and any difference between them
    is optimizer progress rather than resampling noise.

    Each update is one loss_and_gradient call on one group.  The trace has
    one (epoch, batch_index, mean batch loss) row per update.
    Anchors whose positive sample comes back empty are skipped.  A non-finite
    batch loss, or non-finite parameters after the last update, abort with a
    diagnostic rather than continuing silently.
    """
    model = model.copy()
    queries = dataset.queries
    _check_table(model, queries)
    groups = _training_groups(dataset.graph, config)
    trace: list[tuple[int, int, float]] = []
    # Adam's first and second moment estimates of each parameter block
    moment1 = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))
    moment2 = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))
    step = 0

    lr = config.learning_rate
    for epoch in range(config.epochs):
        for batch_idx, group in enumerate(groups):
            # looked up at call time, so a wrapper installed on the module sees every group
            mean_loss, acc = loss_and_gradient(model, group, queries)
            if not np.isfinite(mean_loss):
                raise RuntimeError(
                    f"non-finite loss {mean_loss} at epoch {epoch}, batch {batch_idx}; aborting"
                )
            if config.uniform_attention:
                acc.attn[:] = 0.0
            step += 1
            for slot in ("emb", "attn"):
                g, m, v = getattr(acc, slot), getattr(moment1, slot), getattr(moment2, slot)
                m *= ADAM_BETA1
                m += (1 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1 - ADAM_BETA2) * g * g
                m_hat = m / (1 - ADAM_BETA1**step)
                v_hat = v / (1 - ADAM_BETA2**step)
                getattr(model, slot)[:] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            trace.append((epoch, batch_idx, mean_loss))
        lr *= config.lr_decay
    # every update but the last is followed by a loss check; the last one is checked here
    if not (np.isfinite(model.emb).all() and np.isfinite(model.attn).all()):
        epoch, batch_idx, _ = trace[-1]
        raise RuntimeError(
            f"non-finite parameters after the update at epoch {epoch}, batch {batch_idx}; aborting"
        )
    return model, trace


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
