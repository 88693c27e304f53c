import dataclasses
import hashlib
import io
import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import next_integer, query_table
from numpy.testing import assert_allclose
from scipy.stats import chisquare

from queryemb import embedder, theory
from queryemb.core import (
    STREAM_TRAIN,
    GeneratorConfig,
    QueryGraph,
    ReplayStream,
    rng_stream,
)
from queryemb.embedder import (
    SCORE_CLAMP,
    AttentionModel,
    ModelGradient,
    TrainConfig,
    TrainingGroup,
    embed_query,
    embed_table,
    init_model,
    load_checkpoint,
    loss_and_gradient,
    sample_negatives,
    sample_positives,
    save_checkpoint,
    train,
    write_loss_trace,
)
from queryemb.genmodel import SyntheticDataset, default_benchmark_config, generate_dataset
from queryemb.theory import desk_train_config


def attention_weights(model, q):
    """Attention weights of one raw query, through the batched forward pass."""
    row = list(q)
    table = query_table([row], [0], max(len(row), 1))
    embedder._check_table(model, table)
    return embedder._forward_rows(model, table.ids, table.lengths)[1][0]


def smoothed_trace(losses, window=10):
    """Means of consecutive full windows of the loss sequence."""
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(losses) // window
    if n == 0:
        return np.array([])
    return np.asarray(losses[: n * window], dtype=np.float64).reshape(n, window).mean(axis=1)


# ---------------------------------------------------------------------------
# scalar reference: per-anchor samples drawn by Generator calls, held as
# TrainingBatch tuples, and the pair arrays built from them


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


def _group_pairs(group):
    """The TrainingGroup of a list of TrainingBatch, pair by pair in batch order."""
    if not group:
        raise ValueError("a training group needs at least one anchor")
    n_pos = np.array([len(b.positives) for b in group])
    n_neg = np.array([len(b.negatives) for b in group])
    if not (n_pos.all() and n_neg.all()):
        raise ValueError("loss needs at least one positive and one negative")
    sizes = n_pos + n_neg
    anchor = np.repeat([b.anchor for b in group], sizes)
    other = np.array([q for b in group for q in (*b.positives, *b.negatives)])
    slot = np.arange(anchor.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    positive = slot < np.repeat(n_pos, sizes)
    weight = 1.0 / np.where(positive, np.repeat(n_pos, sizes), np.repeat(n_neg, sizes))
    return TrainingGroup.build(anchor, other, weight / len(group), positive)


def ref_sample_positives(graph, q, n_samples, rng):
    """Positives of anchor q, one Generator.integers(degree) call per draw."""
    nbrs = graph.neighbors(q)
    if nbrs.size == 0:
        return []
    return [int(nbrs[rng.integers(nbrs.size)]) for _ in range(n_samples)]


def ref_sample_negatives(graph, q, k, rng):
    """k non-neighbours of q, one Generator.integers(n) call and one search per candidate."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return []
    n = graph.n_queries
    available = n - 1 - graph.degree(q)
    if available < k:
        raise ValueError(f"only {available} non-neighbours available, need {k}")
    nbrs = graph.neighbors(q)
    out = []
    while len(out) < k:
        cand = int(rng.integers(n))
        if cand == q:
            continue
        j = np.searchsorted(nbrs, cand)
        if j < nbrs.size and nbrs[j] == cand:
            continue
        out.append(cand)
    return out


def ref_training_groups(graph, config):
    """The groups train fixes up front, sampled anchor by anchor from the Generator."""
    rng = rng_stream(config.seed, STREAM_TRAIN)
    order = rng.permutation(graph.n_queries)
    groups = []
    for start in range(0, order.size, config.batch_size):
        group = []
        for a in order[start : start + config.batch_size]:
            a = int(a)
            pos = ref_sample_positives(graph, a, config.n_positives, rng)
            if pos:
                neg = ref_sample_negatives(graph, a, config.n_negatives * len(pos), rng)
                group.append(TrainingBatch(anchor=a, positives=tuple(pos), negatives=tuple(neg)))
        if group:
            groups.append(_group_pairs(group))
    return groups


def _stream(seed, n_words=64):
    """A replay of rng_stream(seed) from its first word."""
    return ReplayStream(rng_stream(seed).bit_generator, n_words)


def _singleton_queries(emb_rows):
    """One query per trigram id, so query id i embeds to roughly emb[i]."""
    return query_table([[i] for i in range(len(emb_rows))], [0] * len(emb_rows), 1)


# raw queries that every one-query entry point rejects, with the error it gives
BAD_RAW_QUERIES = (
    ([], "at least one trigram"),
    ([1, -1], "non-negative"),
    ([[0, 1]], "1-d"),
    ([1.7], "integers"),  # a one-row QueryTable truncated it to trigram 1
    (["3"], "integers"),
)


def _graph(n, edges):
    return QueryGraph(n, edges)


class TestEmbedQuery:
    def test_singleton_query_returns_trigram_vector(self):
        model = init_model(6, 4, 3, seed=0)
        out = embed_query(model, [5])
        assert np.array_equal(out, model.emb[5])

    def test_zero_attention_gives_plain_mean(self):
        model = init_model(10, 4, 3, seed=1)
        out = embed_query(model, [2, 7, 7])
        assert_allclose(out, model.emb[[2, 7, 7]].mean(axis=0), atol=1e-14)

    def test_permutation_sensitive_with_distinct_rows(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0]])
        attn = np.array([[2.0, 0.0], [0.0, 0.0]])
        model = AttentionModel(emb=emb, attn=attn)
        ab = embed_query(model, [0, 1])
        ba = embed_query(model, [1, 0])
        assert not np.allclose(ab, ba)

    def test_permutation_invariant_with_equal_rows(self):
        emb = rng_stream(2).standard_normal((5, 3))
        attn = np.tile(rng_stream(3).standard_normal(3), (4, 1))
        model = AttentionModel(emb=emb, attn=attn)
        assert_allclose(
            embed_query(model, [1, 3, 4]), embed_query(model, [4, 1, 3]), atol=1e-12
        )

    def test_id_out_of_range(self):
        model = init_model(4, 2, 3, seed=4)
        with pytest.raises(ValueError, match="trigram id"):
            embed_query(model, [4])

    def test_too_long_query(self):
        model = init_model(4, 2, 2, seed=5)
        with pytest.raises(ValueError, match="max_len"):
            embed_query(model, [0, 1, 2])

    def test_empty_negative_and_nested_queries_rejected(self):
        model = init_model(4, 2, 3, seed=5)
        for q, message in BAD_RAW_QUERIES:
            with pytest.raises(ValueError, match=message):
                embed_query(model, q)

    def test_matches_one_row_table_bit_for_bit(self):
        model = _random_model(52)
        for row in ([3], [0, 39, 7], [5, 5, 5, 5, 5]):
            table = query_table([row], [0], len(row))
            assert np.array_equal(embed_query(model, row), embed_table(model, table)[0])


class TestAttentionWeights:
    def test_equal_scores_uniform(self):
        model = init_model(9, 4, 3, seed=6)  # zero attn rows -> all scores 0
        assert_allclose(attention_weights(model, [1, 2, 3]), [1 / 3] * 3, atol=1e-15)

    def test_hand_softmax(self):
        # scores [ln 2, 0] -> weights [2/3, 1/3]
        emb = np.array([[1.0], [1.0]])
        attn = np.array([[np.log(2.0)], [0.0]])
        model = AttentionModel(emb=emb, attn=attn)
        assert_allclose(attention_weights(model, [0, 1]), [2 / 3, 1 / 3], rtol=1e-14)

    def test_shift_invariance(self):
        # second embedding coordinate is 1 for every trigram, so adding c to
        # the second coordinate of every attn row shifts all scores by c
        rng = rng_stream(7)
        emb = np.column_stack([rng.standard_normal(6), np.ones(6)])
        attn = np.column_stack([rng.standard_normal(4), np.zeros(4)])
        shifted = attn.copy()
        shifted[:, 1] += 3.7
        w0 = attention_weights(AttentionModel(emb, attn), [0, 2, 5])
        w1 = attention_weights(AttentionModel(emb, shifted), [0, 2, 5])
        assert_allclose(w0, w1, atol=1e-12)

    def test_weights_sum_to_one_and_positive(self):
        rng = rng_stream(8)
        model = AttentionModel(rng.standard_normal((20, 5)), rng.standard_normal((6, 5)))
        for _ in range(25):
            ids = rng.integers(0, 20, size=rng.integers(1, 7))
            w = attention_weights(model, ids)
            assert abs(w.sum() - 1.0) < 1e-12
            assert (w > 0).all()


class TestLoss:
    def test_orthogonal_pairs_give_two_log_two(self):
        emb = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = AttentionModel(emb, np.zeros((1, 2)))
        queries = _singleton_queries(emb)
        batch = TrainingBatch(anchor=0, positives=(1,), negatives=(2,))
        value = loss_and_gradient(model, _group_pairs([batch]), queries)[0]
        assert_allclose(value, 2 * np.log(2.0), rtol=1e-14)

    def test_unit_scores_hand_value(self):
        # <z_a, z_p> = 1 and <z_a, z_n> = -1 -> 2 * -log sigma(1)
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        model = AttentionModel(emb, np.zeros((1, 2)))
        queries = _singleton_queries(emb)
        batch = TrainingBatch(anchor=0, positives=(1,), negatives=(2,))
        expected = 2 * np.log1p(np.exp(-1.0))
        assert_allclose(loss_and_gradient(model, _group_pairs([batch]), queries)[0], expected, rtol=1e-14)
        assert abs(expected - 0.6265) < 1e-4

    def test_saturated_scores_drive_loss_to_zero(self):
        emb = np.array([[10.0, 0.0], [10.0, 0.0], [-10.0, 0.0]])
        model = AttentionModel(emb, np.zeros((1, 2)))
        queries = _singleton_queries(emb)
        batch = TrainingBatch(anchor=0, positives=(1,), negatives=(2,))
        assert loss_and_gradient(model, _group_pairs([batch]), queries)[0] < 1e-12

    def test_empty_sets_rejected(self):
        emb = np.eye(3)
        model = AttentionModel(emb, np.zeros((1, 3)))
        queries = _singleton_queries(emb)
        with pytest.raises(ValueError, match="positive"):
            loss_and_gradient(model, _group_pairs([TrainingBatch(0, (), (2,))]), queries)
        with pytest.raises(ValueError, match="positive"):
            loss_and_gradient(model, _group_pairs([TrainingBatch(0, (1,), ())]), queries)

    def test_anchor_overlap_rejected(self):
        with pytest.raises(ValueError, match="anchor"):
            TrainingBatch(anchor=0, positives=(0,), negatives=(2,))


def _random_case(seed, m=20, d=4, n_max=5, n_queries=12):
    rng = rng_stream(seed)
    model = AttentionModel(
        rng.standard_normal((m, d)) / np.sqrt(d), rng.standard_normal((n_max, d)) * 0.3
    )
    rows = [
        rng.integers(0, m, size=rng.integers(1, n_max + 1)).tolist() for _ in range(n_queries)
    ]
    queries = query_table(rows, [0] * n_queries, n_max)
    ids = rng.permutation(n_queries)
    batch = TrainingBatch(
        anchor=int(ids[0]), positives=tuple(ids[1:4].tolist()), negatives=tuple(ids[4:9].tolist())
    )
    return model, queries, batch


def _fd_coordinate(model, group, queries, slot, i, j, h=1e-5):
    arr = getattr(model, slot)
    orig = arr[i, j]
    arr[i, j] = orig + h
    up = loss_and_gradient(model, group, queries)[0]
    arr[i, j] = orig - h
    down = loss_and_gradient(model, group, queries)[0]
    arr[i, j] = orig
    return (up - down) / (2 * h)


# ---------------------------------------------------------------------------
# scalar reference: the per-anchor trainer the batched group pass replaced


def _ref_log_sigmoid(x):
    x = float(np.clip(x, -SCORE_CLAMP, SCORE_CLAMP))
    if x >= 0.0:
        return -np.log1p(np.exp(-x))
    return x - np.log1p(np.exp(x))


def _ref_sigmoid(x):
    if x >= 0.0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


def _ref_forward(model, ids):
    V = model.emb[np.asarray(ids, dtype=np.intp)]
    scores = np.einsum("ij,ij->i", model.attn[: len(ids)], V)
    w = np.exp(scores - scores.max())
    w /= w.sum()
    return w @ V, w, V


def _ref_anchor_loss_and_gradient(model, batch, queries):
    """Loss and gradient of one anchor, one query and one pair at a time."""
    involved = {batch.anchor, *batch.positives, *batch.negatives}
    fwd = {qid: _ref_forward(model, queries.row(qid)) for qid in involved}
    z_a = fwd[batch.anchor][0]
    upstream = {qid: np.zeros(model.dim) for qid in involved}
    total = 0.0
    for sign, others in ((+1, batch.positives), (-1, batch.negatives)):
        inv = 1.0 / len(others)
        for qid in others:
            z_o = fwd[qid][0]
            x = float(z_a @ z_o)
            total -= _ref_log_sigmoid(sign * x) * inv
            if abs(x) >= SCORE_CLAMP:
                continue
            g = (_ref_sigmoid(x) - (1.0 if sign > 0 else 0.0)) * inv
            upstream[batch.anchor] += g * z_o
            upstream[qid] += g * z_a
    grad = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))
    for qid, u in upstream.items():
        _, w, V = fwd[qid]
        ids = queries.row(qid)
        c = V @ u
        b = w * (c - float(w @ c))
        grad.attn[: len(ids)] += b[:, None] * V
        np.add.at(grad.emb, ids, w[:, None] * u + b[:, None] * model.attn[: len(ids)])
    return total, grad


def _ref_loss_and_gradient(model, group, queries):
    """Mean over the group's anchors of the per-anchor loss and gradient."""
    acc = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))
    losses = []
    for batch in group:
        value, grad = _ref_anchor_loss_and_gradient(model, batch, queries)
        losses.append(value)
        acc.emb += grad.emb
        acc.attn += grad.attn
    inv = 1.0 / len(losses)
    return float(np.mean(losses)), ModelGradient(acc.emb * inv, acc.attn * inv)


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = rng_stream(100)
        checked = 0
        for case_seed in range(10):
            model, queries, batch = _random_case(200 + case_seed)
            value, grad = loss_and_gradient(model, _group_pairs([batch]), queries)
            touched = sorted({t for i in range(len(queries)) for t in queries.row(i).tolist()})
            for _ in range(10):
                if rng.random() < 0.5:
                    slot, i = "emb", int(rng.choice(touched))
                else:
                    slot, i = "attn", int(rng.integers(0, model.max_len))
                j = int(rng.integers(0, model.dim))
                fd = _fd_coordinate(model, _group_pairs([batch]), queries, slot, i, j)
                an = getattr(grad, slot)[i, j]
                assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd)), (slot, i, j, an, fd)
                checked += 1
        assert checked == 100

    def test_untouched_parameters_get_zero_gradient(self):
        model, queries, batch = _random_case(300)
        involved = {batch.anchor, *batch.positives, *batch.negatives}
        used = {t for qid in involved for t in queries.row(qid).tolist()}
        grad = loss_and_gradient(model, _group_pairs([batch]), queries)[1]
        for t in range(model.vocab_size):
            if t not in used:
                assert np.array_equal(grad.emb[t], np.zeros(model.dim))
        longest = max(queries.lengths[qid] for qid in involved)
        assert np.array_equal(grad.attn[longest:], np.zeros_like(grad.attn[longest:]))

    def test_zero_model_is_stationary(self):
        # all-zero embeddings: every pair score is 0 and the pushes from the
        # positive and negative terms cancel exactly
        model = AttentionModel(np.zeros((6, 3)), np.zeros((2, 3)))
        queries = _singleton_queries(model.emb)
        batch = TrainingBatch(anchor=0, positives=(1, 2), negatives=(3, 4, 5))
        grad = loss_and_gradient(model, _group_pairs([batch]), queries)[1]
        assert np.array_equal(grad.emb, np.zeros_like(grad.emb))
        assert np.array_equal(grad.attn, np.zeros_like(grad.attn))
        rng = rng_stream(9)
        h = 1e-5
        for _ in range(5):
            d_emb = rng.standard_normal(model.emb.shape)
            up = loss_and_gradient(AttentionModel(model.emb + h * d_emb, model.attn),
                                   _group_pairs([batch]), queries)[0]
            down = loss_and_gradient(AttentionModel(model.emb - h * d_emb, model.attn),
                                     _group_pairs([batch]), queries)[0]
            assert abs(up - down) / (2 * h) < 1e-6

    def test_table_that_does_not_fit_the_model_rejected(self):
        # the check covers the whole table, not only the rows in the batch
        model = init_model(5, 2, 2, seed=0)
        batch = TrainingBatch(anchor=0, positives=(1,), negatives=(2,))
        for rows, message in (
            ([[0], [1], [2], [5]], r"trigram id 5 outside \[0, 5\)"),
            ([[0], [1], [2], [2, 3, 4]], "query width 3 exceeds model max_len 2"),
        ):
            queries = query_table(rows, [0] * len(rows), max(map(len, rows)))
            with pytest.raises(ValueError, match=message):
                loss_and_gradient(model, _group_pairs([batch]), queries)

    def test_descent_along_gradient(self):
        model, queries, batch = _random_case(400)
        value, grad = loss_and_gradient(model, _group_pairs([batch]), queries)
        step = 1e-3
        stepped = AttentionModel(model.emb - step * grad.emb, model.attn - step * grad.attn)
        assert loss_and_gradient(stepped, _group_pairs([batch]), queries)[0] < value


def _mixed_dataset(seed=41):
    """Small generated dataset whose queries have lengths 1 to 5."""
    cfg = GeneratorConfig(
        dim=4,
        vocab_size=40,
        max_len=5,
        lam=2.5,
        alphas=(0.9,) * 5,
        betas=(1.0,) * 5,
        epsilon_p=0.5,
        n_products=4,
        n_queries=60,
        seed=seed,
    )
    return generate_dataset(cfg)


def _random_model(seed, vocab_size=40, dim=4, max_len=5):
    rng = rng_stream(seed)
    return AttentionModel(
        rng.standard_normal((vocab_size, dim)) * 0.5, rng.standard_normal((max_len, dim)) * 0.5
    )


def _sampled_groups(dataset, n_groups, group_size, seed):
    """Groups drawn the way train draws them: uniform positives, non-neighbour negatives."""
    rng = rng_stream(seed)
    order = rng.permutation(len(dataset.queries))[: n_groups * group_size]
    groups = []
    for start in range(0, order.size, group_size):
        group = []
        for a in order[start : start + group_size]:
            pos = ref_sample_positives(dataset.graph, int(a), 4, rng)
            if pos:
                neg = ref_sample_negatives(dataset.graph, int(a), 2 * len(pos), rng)
                group.append(TrainingBatch(int(a), tuple(pos), tuple(neg)))
        groups.append(group)
    return groups


# query 1 is a repeated positive of anchor 0, query 2 sits in all three
# anchors' pair lists, and anchor 3 is anchor 0's negative and vice versa
_HANDMADE_GROUP = [
    TrainingBatch(0, (1, 1, 2), (3, 4, 5)),
    TrainingBatch(3, (2, 6), (0, 7)),
    TrainingBatch(8, (9,), (1, 2, 10, 10)),
]


def _pair_scores(model, group, queries):
    def z(q):
        return _ref_forward(model, queries.row(q))[0]

    return np.array([z(b.anchor) @ z(q) for b in group for q in (*b.positives, *b.negatives)])


class TestGroupPass:
    """The batched group pass against the per-anchor scalar reference."""

    def test_matches_scalar_reference(self):
        ds = _mixed_dataset()
        queries = ds.queries
        groups = [_HANDMADE_GROUP, *_sampled_groups(ds, 4, 6, seed=43)]
        involved = sorted(
            {q for g in groups for b in g for q in (b.anchor, *b.positives, *b.negatives)}
        )
        assert len(set(queries.lengths[involved].tolist())) >= 3
        assert any(len(set(b.positives)) < len(b.positives) for g in groups[1:] for b in g)

        base = _random_model(42)
        # scaling emb by k and attn by 1/k keeps the softmax weights and
        # multiplies every pair score by k^2: push the largest one past the clamp
        k = np.sqrt(1.05 * SCORE_CLAMP / np.abs(_pair_scores(base, _HANDMADE_GROUP, queries)).max())
        clamped = AttentionModel(base.emb * k, base.attn / k)
        x = np.abs(_pair_scores(clamped, _HANDMADE_GROUP, queries))
        assert (x >= SCORE_CLAMP).any() and (x < SCORE_CLAMP).any()

        for model in (base, clamped):
            for group in groups:
                value, grad = loss_and_gradient(model, _group_pairs(group), queries)
                ref_value, ref_grad = _ref_loss_and_gradient(model, group, queries)
                assert_allclose(value, ref_value, rtol=1e-12, atol=0)
                assert_allclose(grad.emb, ref_grad.emb, rtol=0, atol=1e-12)
                assert_allclose(grad.attn, ref_grad.attn, rtol=0, atol=1e-12)

    def test_group_matches_finite_differences(self):
        ds = _mixed_dataset()
        model = _random_model(44)
        group = _sampled_groups(ds, 1, 5, seed=45)[0]
        assert len(group) >= 3
        value, grad = loss_and_gradient(model, _group_pairs(group), ds.queries)
        involved = {q for b in group for q in (b.anchor, *b.positives, *b.negatives)}
        touched = sorted({t for q in involved for t in ds.queries.row(q).tolist()})
        rng = rng_stream(46)
        for _ in range(40):
            if rng.random() < 0.5:
                slot, i = "emb", int(rng.choice(touched))
            else:
                slot, i = "attn", int(rng.integers(0, model.max_len))
            j = int(rng.integers(0, model.dim))
            fd = _fd_coordinate(model, _group_pairs(group), ds.queries, slot, i, j)
            an = getattr(grad, slot)[i, j]
            assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd)), (slot, i, j, an, fd)

    def test_trigram_in_no_row_gets_exactly_zero_gradient(self):
        # pad slots hold id 0, so a scatter that reached them would touch emb[0]
        rng = rng_stream(47)
        rows = [rng.integers(1, 12, size=n).tolist() for n in (1, 2, 4, 3, 1, 2, 4, 3, 2, 1, 4)]
        queries = query_table(rows, [0] * len(rows), 4)
        assert (queries.ids == 0).any()
        model = AttentionModel(rng.standard_normal((12, 3)), rng.standard_normal((4, 3)))
        grad = loss_and_gradient(model, _group_pairs(_HANDMADE_GROUP), queries)[1]
        assert np.array_equal(grad.emb[0], np.zeros(3))
        assert np.abs(grad.emb[1:]).sum() > 0

    def test_empty_group_rejected(self):
        model = _random_model(48)
        empty = TrainingGroup.build(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty(0, bool))
        with pytest.raises(ValueError, match="at least one anchor"):
            loss_and_gradient(model, empty, _mixed_dataset().queries)

    @pytest.mark.parametrize("bad", [-1, 60])
    def test_query_id_outside_the_table_rejected(self, bad):
        # a negative id would otherwise index the table from its end
        ds = _mixed_dataset()
        model = _random_model(51)
        for batch in (TrainingBatch(bad, (1,), (2,)), TrainingBatch(0, (bad,), (2,))):
            with pytest.raises(ValueError, match=r"query ids must lie in \[0, 60\)"):
                loss_and_gradient(model, _group_pairs([batch]), ds.queries)

    def test_embed_table_matches_embed_query(self):
        ds = _mixed_dataset()
        model = _random_model(49)
        table = embed_table(model, ds.queries)
        assert table.shape == (len(ds.queries), model.dim)
        for i in range(len(ds.queries)):
            row = ds.queries.row(i)
            assert_allclose(table[i], _ref_forward(model, row)[0], rtol=0, atol=1e-12)
            assert_allclose(embed_query(model, row), table[i], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("report_length", [None, 2])
    def test_blue_report_attention_is_per_row_mean(self, report_length):
        ds = _mixed_dataset()
        model = _random_model(50)
        report = theory.blue_report(model, ds, report_length=report_length)
        used = np.flatnonzero(ds.queries.lengths == report.report_length)
        assert report.n_queries_used == used.size > 1
        expected = np.mean([attention_weights(model, ds.queries.row(i)) for i in used], axis=0)
        assert_allclose(report.attention, expected, rtol=0, atol=1e-12)


def _add_at_loss_and_gradient(model, group, queries):
    """loss_and_gradient with u summed by two np.add.at scatters, anchors then
    others, and d emb's w_i u term by one bincount per column: the summation
    orders the sparse products must reproduce."""
    anchor, _, weight, positive, distinct, inverse = group[:6]
    a, o = inverse[: anchor.size], inverse[anchor.size :]
    ids, lengths = queries.ids[distinct], queries.lengths[distinct]
    z, w, V = embedder._forward_rows(model, ids, lengths)
    x = np.einsum("pd,pd->p", z[a], z[o])
    t = np.clip(np.where(positive, x, -x), -SCORE_CLAMP, SCORE_CLAMP)
    value = float(weight @ (np.log1p(np.exp(-np.abs(t))) - np.minimum(t, 0.0)))
    e = np.exp(-np.abs(x))
    sig = np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    g = np.where(np.abs(x) < SCORE_CLAMP, (sig - positive) * weight, 0.0)
    u = np.zeros_like(z)
    np.add.at(u, a, g[:, None] * z[o])
    np.add.at(u, o, g[:, None] * z[a])
    width = V.shape[1]
    c = np.einsum("bld,bd->bl", V, u)
    b = w * (c - np.einsum("bl,bl->b", w, c)[:, None])
    grad = ModelGradient(np.zeros_like(model.emb), np.zeros_like(model.attn))
    grad.attn[:width] = np.einsum("bl,bld->ld", b, V)
    rows, slots = np.nonzero(np.arange(width) < lengths[:, None])
    trigram = ids[rows, slots]
    w_valid = w[rows, slots]
    for j in range(model.dim):
        grad.emb[:, j] = np.bincount(trigram, weights=w_valid * u[rows, j], minlength=model.vocab_size)
    b_table = np.bincount(
        trigram * width + slots, weights=b[rows, slots], minlength=model.vocab_size * width
    )
    grad.emb += b_table.reshape(model.vocab_size, width) @ model.attn[:width]
    return value, grad


def _assert_pass_bytes_equal(model, group, queries):
    value, grad = loss_and_gradient(model, group, queries)
    ref_value, ref_grad = _add_at_loss_and_gradient(model, group, queries)
    assert struct.pack("<d", value) == struct.pack("<d", ref_value)
    assert grad.emb.tobytes() == ref_grad.emb.tobytes()
    assert grad.attn.tobytes() == ref_grad.attn.tobytes()


def _assert_unique_ids(group):
    distinct, inverse = np.unique(np.concatenate([group.anchor, group.other]), return_inverse=True)
    assert np.array_equal(group.distinct, distinct)
    assert np.array_equal(group.inverse, inverse)


class TestGroupIndex:
    """TrainingGroup.build's presence-count index against np.unique."""

    @pytest.mark.parametrize(
        "ids",
        [
            rng_stream(57).integers(0, 50, size=400),  # repeats, some ids absent
            np.array([13, 13]),  # a single id
            np.array([0, 49, 0, 7, 49, 0]),  # the ends of [0, 50)
            np.array([-1, 3, -1, 60]),  # out of range: loss_and_gradient rejects these
        ],
        ids=["repeats", "single", "ends", "outside"],
    )
    def test_matches_np_unique(self, ids):
        half = ids.size // 2
        group = TrainingGroup.build(ids[:half], ids[half:], np.ones(ids.size - half),
                                    np.zeros(ids.size - half, dtype=bool))
        _assert_unique_ids(group)
        assert group.distinct.dtype == group.inverse.dtype == np.int64


@pytest.fixture(scope="module")
def desk_groups():
    """The desk dataset at seed 2 and the groups of a 1-epoch desk-recipe train."""
    ds = generate_dataset(default_benchmark_config(2))
    config = dataclasses.replace(desk_train_config(2), epochs=1)
    return ds, embedder._training_groups(ds.graph, config)


# ids 0-10 of _HANDMADE_GROUP: query 1 holds trigram 7 at three slots and
# query 3 is one trigram long, so a CSC column of d emb repeats a row
_REPEATS_TABLE = query_table(
    [[4, 9], [7, 3, 7, 7], [3], [5], [7, 7, 1, 2, 8], [6, 2, 9, 4, 1], [2, 2], [1],
     [9, 8, 7, 6, 5], [3, 3, 3], [0, 5]],
    [0] * 11,
    width=5,
)


class TestSparseScatter:
    """The group pass's CSC-product scatters against np.add.at and bincount, byte for byte."""

    def test_handmade_group_matches_add_at(self):
        # ids 0 and 3 are anchors and others, 1 and 2 are others three times each
        group = _group_pairs(_HANDMADE_GROUP)
        _assert_unique_ids(group)
        queries = _mixed_dataset().queries
        for seed in (52, 53):
            _assert_pass_bytes_equal(_random_model(seed), group, queries)

    def test_repeated_trigram_and_one_trigram_query(self):
        table = _REPEATS_TABLE
        assert any(np.unique(table.row(q)).size < table.lengths[q] for q in range(len(table)))
        assert (table.lengths == 1).any()
        group = _group_pairs(_HANDMADE_GROUP)
        for seed in (55, 56):
            _assert_pass_bytes_equal(_random_model(seed, vocab_size=10), group, table)

    def test_desk_groups_match_add_at(self, desk_groups):
        ds, groups = desk_groups
        assert len(groups) == 10
        c = ds.config
        rng = rng_stream(54)
        model = AttentionModel(rng.standard_normal((c.vocab_size, c.dim)) / np.sqrt(c.dim),
                               rng.standard_normal((c.max_len, c.dim)) * 0.3)
        for group in groups:
            _assert_unique_ids(group)
            _assert_pass_bytes_equal(model, group, ds.queries)


class TestSamplePositives:
    def test_single_neighbor_always_chosen(self):
        g = _graph(3, [(0, 1)])
        stream = _stream(10)
        assert sample_positives(g, 0, 20, stream) == [1] * 20

    def test_isolated_node_returns_empty(self):
        g = _graph(3, [(0, 1)])
        stream = _stream(11)
        assert sample_positives(g, 2, 5, stream) == []
        assert next_integer(stream, 1000) == int(rng_stream(11).integers(1000))  # nothing drawn


class TestSampleNegatives:
    def test_complete_graph_errors(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = _graph(4, edges)
        with pytest.raises(ValueError, match="non-neighbours"):
            sample_negatives(g, 0, 1, _stream(16))

    def test_k_zero_returns_empty(self):
        g = _graph(4, [(0, 1), (0, 2), (0, 3)])
        assert sample_negatives(g, 0, 0, _stream(17)) == []

    def test_never_returns_neighbor_or_self(self):
        g = _graph(10, [(0, 1), (0, 2), (3, 4)])
        stream = _stream(18)
        for _ in range(200):
            out = sample_negatives(g, 0, 3, stream)
            assert 0 not in out and 1 not in out and 2 not in out

    def test_uniform_over_non_neighbors(self):
        # 100-node ring: every node has 2 neighbors, 97 non-neighbors
        n = 100
        g = _graph(n, [(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)])
        stream = _stream(19)
        draws = np.array([sample_negatives(g, 0, 1, stream)[0] for _ in range(100_000)])
        allowed = sorted(set(range(n)) - {0, 1, 99})
        counts = np.array([(draws == a).sum() for a in allowed])
        assert counts.sum() == 100_000
        assert chisquare(counts).pvalue > 0.01


def _tiny_dataset(seed=21, n_products=3, n_queries=24):
    cfg = GeneratorConfig(
        dim=4,
        vocab_size=30,
        max_len=3,
        lam=6.0,
        alphas=(0.9, 0.9, 0.9),
        betas=(1.0, 1.0, 1.0),
        epsilon_p=0.5,
        n_products=n_products,
        n_queries=n_queries,
        seed=seed,
    )
    return generate_dataset(cfg)


class TestTrain:
    def test_zero_learning_rate_leaves_parameters(self):
        ds = _tiny_dataset()
        model0 = init_model(30, 4, 3, seed=22)
        trained, trace = train(model0, ds, TrainConfig(learning_rate=0.0, epochs=3, seed=5, n_positives=2, n_negatives=2))
        assert np.array_equal(trained.emb, model0.emb)
        assert np.array_equal(trained.attn, model0.attn)
        assert len(trace) > 0

    def test_zero_epochs_is_identity_with_empty_trace(self):
        ds = _tiny_dataset()
        model0 = init_model(30, 4, 3, seed=23)
        trained, trace = train(model0, ds, TrainConfig(learning_rate=0.1, epochs=0, seed=5, n_positives=2, n_negatives=2))
        assert np.array_equal(trained.emb, model0.emb)
        assert trace == []

    def test_single_adam_step_is_exact(self):
        # one group spanning every anchor, one epoch: the update must be
        # exactly Adam's first step on the mean gradient over the anchors,
        # with bias-corrected moments (1-b1) g / (1-b1) and (1-b2) g^2 / (1-b2)
        ds = _tiny_dataset(n_queries=8)
        n = len(ds.queries)
        model0 = init_model(30, 4, 3, seed=24)
        cfg = TrainConfig(
            learning_rate=0.3, epochs=1, n_positives=2, n_negatives=2, batch_size=n, seed=77
        )
        trained, trace = train(model0, ds, cfg)

        rng = rng_stream(cfg.seed, STREAM_TRAIN)
        order = rng.permutation(n)
        acc_emb = np.zeros_like(model0.emb)
        acc_attn = np.zeros_like(model0.attn)
        count = 0
        for a in order:
            a = int(a)
            pos = ref_sample_positives(ds.graph, a, 2, rng)
            if not pos:
                continue
            neg = ref_sample_negatives(ds.graph, a, 2 * len(pos), rng)
            batch = TrainingBatch(anchor=a, positives=tuple(pos), negatives=tuple(neg))
            grad = loss_and_gradient(model0, _group_pairs([batch]), ds.queries)[1]
            acc_emb += grad.emb
            acc_attn += grad.attn
            count += 1
        assert count == n

        b1, b2, eps = 0.9, 0.999, 1e-8

        def first_step(g):
            m_hat = (1 - b1) * g / (1 - b1)
            v_hat = (1 - b2) * g * g / (1 - b2)
            return 0.3 * m_hat / (np.sqrt(v_hat) + eps)

        step_emb, step_attn = first_step(acc_emb / count), first_step(acc_attn / count)
        assert np.abs(step_attn).max() > 0.29  # the step moves the attention rows too
        assert_allclose(trained.emb, model0.emb - step_emb, rtol=0, atol=1e-12)
        assert_allclose(trained.attn, model0.attn - step_attn, rtol=0, atol=1e-12)
        assert len(trace) == 1

    def test_deterministic_per_seed(self):
        ds = _tiny_dataset()
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=31, n_positives=2, n_negatives=2)
        m1, t1 = train(init_model(30, 4, 3, seed=25), ds, cfg)
        m2, t2 = train(init_model(30, 4, 3, seed=25), ds, cfg)
        assert np.array_equal(m1.emb, m2.emb)
        assert np.array_equal(m1.attn, m2.attn)
        assert t1 == t2

    def test_uniform_attention_ablation_freezes_attn(self):
        ds = _tiny_dataset()
        model0 = init_model(30, 4, 3, seed=26)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=32, uniform_attention=True, n_positives=2, n_negatives=2)
        trained, _ = train(model0, ds, cfg)
        assert np.array_equal(trained.attn, model0.attn)
        assert not np.array_equal(trained.emb, model0.emb)

    def test_adam_runs_and_moves_parameters(self):
        ds = _tiny_dataset()
        model0 = init_model(30, 4, 3, seed=27)
        cfg = TrainConfig(learning_rate=0.01, epochs=2, seed=33, n_positives=2, n_negatives=2)
        trained, trace = train(model0, ds, cfg)
        assert not np.array_equal(trained.emb, model0.emb)
        assert all(np.isfinite(v) for _, _, v in trace)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-0.1, epochs=1)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(learning_rate=0.1, epochs=-1)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(learning_rate=0.1, epochs=1, batch_size=0)
        with pytest.raises(ValueError, match="lr_decay"):
            TrainConfig(learning_rate=0.1, epochs=1, lr_decay=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(learning_rate=rate, epochs=1)

    def test_non_finite_parameters_after_last_update_abort(self, monkeypatch):
        # the loss of every update is checked before it is applied, so only
        # the parameter check after the loop sees what the last update wrote
        ds = _tiny_dataset()
        original = embedder.loss_and_gradient

        def infinite_gradient(model, group, queries):
            value, grad = original(model, group, queries)
            return value, ModelGradient(np.full_like(grad.emb, np.inf), grad.attn)

        monkeypatch.setattr(embedder, "loss_and_gradient", infinite_gradient)
        cfg = TrainConfig(learning_rate=10.0, epochs=1, seed=5, n_positives=2, n_negatives=2,
                          batch_size=len(ds.queries))
        # Adam divides the infinite first moment by the infinite root of the
        # second: inf / inf is NaN, which the parameter check must catch
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite parameters .* epoch 0, batch 0"):
                train(init_model(30, 4, 3, seed=22), ds, cfg)


class TestTrainLooksUpTheGroupPass:
    def test_every_group_goes_through_the_module_attribute(self, monkeypatch):
        # a wrapper installed on embedder.loss_and_gradient (as a tracer does)
        # must see one call per group and epoch
        ds = _tiny_dataset()
        calls = []
        original = embedder.loss_and_gradient

        def counting(model, group, queries):
            calls.append(len(set(group.anchor.tolist())))
            return original(model, group, queries)

        monkeypatch.setattr(embedder, "loss_and_gradient", counting)
        cfg = TrainConfig(
            learning_rate=0.1, epochs=2, seed=5, n_positives=2, n_negatives=2, batch_size=5,
        )
        _, trace = train(init_model(30, 4, 3, seed=22), ds, cfg)
        n_groups = len({b for e, b, _ in trace if e == 0})
        assert n_groups == 5  # 24 anchors in groups of 5
        assert len(calls) == n_groups * cfg.epochs
        n_anchors = sum(ds.graph.degree(q) > 0 for q in range(len(ds.queries)))
        assert sum(calls) == n_anchors * cfg.epochs


def _edge_case_graph():
    """40 queries: 0 and 1 isolated, 2-3 and 4-5 degree-1 pairs, 6 adjacent to
    10-39 (its only non-neighbours are 0-5 and 7-9), random edges among 7-39."""
    rng = rng_stream(60)
    edges = [(2, 3), (4, 5)] + [(6, v) for v in range(10, 40)]
    edges += [(u, v) for u in range(7, 40) for v in range(u + 1, 40) if rng.random() < 0.15]
    return _graph(40, edges)


class _ZeroedStream(ReplayStream):
    """A replay whose every 7th half reads 0: Lemire's rule redraws a 0 at
    every range but a power of two."""

    def _read(self, n_words):
        super()._read(n_words)
        self._halves[::7] = 0


def _watch_samplers(monkeypatch):
    """The anchors sample_negatives is called for, through the module attribute."""
    calls = []

    def watching(graph, q, k, stream):
        calls.append(q)
        return sample_negatives(graph, q, k, stream)

    monkeypatch.setattr(embedder, "sample_negatives", watching)
    return calls


def _watch_blocks(monkeypatch):
    """One (anchors, placed, stuck, late) per _replay_block call: late is how
    many halves past its speculative offset the anchor after the placed ones starts."""
    blocks = []
    original = embedder._replay_block

    def watching(graph, anchors, n_samples, k, stream, excluded):
        start = stream.position
        samples, stuck = original(graph, anchors, n_samples, k, stream, excluded)
        degree = np.diff(graph.indptr)[anchors[: len(samples)]]
        speculative = start + int(np.where(degree > 1, n_samples, 0).sum()) + k * len(samples)
        blocks.append((anchors.size, len(samples), stuck, stream.position - speculative))
        return samples, stuck

    monkeypatch.setattr(embedder, "_replay_block", watching)
    return blocks


def _assert_same_groups(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        for name in ("anchor", "other", "positive", "distinct", "inverse"):
            assert np.array_equal(getattr(g, name), getattr(e, name)), name
        assert g.weight.dtype == e.weight.dtype and g.weight.tobytes() == e.weight.tobytes()


class TestTrainingSamplesMatchReference:
    """Samples replayed from the train stream against one Generator call per draw."""

    # the ids name the positives drawn: uniform neighbours
    @pytest.mark.parametrize("n_words", [1, 10_000], ids=["1-uniform", "10000-uniform"])
    def test_samplers_match_generator_calls(self, n_words):
        # anchor 6 needs k = 3 * 3 negatives, as many as it has non-neighbours,
        # and 31 of every 40 candidates are redrawn
        g = _edge_case_graph()
        gen, twin = rng_stream(61), rng_stream(61)
        stream = ReplayStream(twin.bit_generator, n_words)  # n_words=1: the budget overruns
        for a in [0, 2, 6, 1, 4, 6, *range(7, 40), 3, 5, 6]:
            pos = sample_positives(g, a, 3, stream)
            assert pos == ref_sample_positives(g, a, 3, gen)
            neg = sample_negatives(g, a, 3 * len(pos), stream)
            assert neg == ref_sample_negatives(g, a, 3 * len(pos), gen)
        assert next_integer(stream, 1000) == int(gen.integers(1000))

    def test_too_few_non_neighbours_raise_before_any_draw(self):
        g = _edge_case_graph()
        stream = _stream(62)
        with pytest.raises(ValueError, match="only 9 non-neighbours available, need 10"):
            sample_negatives(g, 6, 10, stream)
        with pytest.raises(ValueError, match="only 9 non-neighbours available, need 10"):
            ref_sample_negatives(g, 6, 10, rng_stream(62))
        assert next_integer(stream, 1000) == int(rng_stream(62).integers(1000))

    @pytest.mark.parametrize(
        "cfg",
        [
            TrainConfig(learning_rate=0.1, epochs=1, n_positives=3, n_negatives=3,
                        batch_size=7, seed=1),
            TrainConfig(learning_rate=0.1, epochs=1, n_positives=3, n_negatives=3,
                        batch_size=1, seed=3),
        ],
        ids=["uniform-7", "uniform-1"],
    )
    def test_edge_case_groups_match_reference(self, cfg):
        g = _edge_case_graph()
        groups = embedder._training_groups(g, cfg)
        _assert_same_groups(groups, ref_training_groups(g, cfg))
        assert sum(np.unique(x.anchor).size for x in groups) == 38  # isolated 0 and 1 skipped

    def test_edge_case_fallback_matches_reference(self, monkeypatch):
        # with 3 delays anchor 6's window holds 11 negative halves, and about
        # 40 are needed for its 9 non-neighbours, so only the samplers draw it
        monkeypatch.setattr(embedder, "REPLAY_DELAYS", 3)
        calls = _watch_samplers(monkeypatch)
        g = _edge_case_graph()
        cfg = TrainConfig(learning_rate=0.1, epochs=1, n_positives=3, n_negatives=3,
                          batch_size=7, seed=1)
        _assert_same_groups(embedder._training_groups(g, cfg), ref_training_groups(g, cfg))
        assert 6 in calls

    def test_positive_redraws_go_to_the_samplers(self, monkeypatch):
        # every 7th half reads 0 (_ZeroedStream), so about 3 in 7 anchors of a
        # degree that is not a power of two redraw a positive; drawn by the
        # samplers alone, the same stream gives the reference groups
        monkeypatch.setattr(embedder, "ReplayStream", _ZeroedStream)
        g = _edge_case_graph()
        cfg = TrainConfig(learning_rate=0.1, epochs=1, n_positives=3, n_negatives=3,
                          batch_size=7, seed=2)
        redrawn, sampled = set(), []

        def watching(graph, q, n_samples, stream):
            sampled.append(q)
            start = stream.position
            positives = sample_positives(graph, q, n_samples, stream)
            if graph.degree(q) > 1 and stream.position - start > n_samples:
                redrawn.add(q)
            return positives

        monkeypatch.setattr(embedder, "sample_positives", watching)
        with monkeypatch.context() as patch:
            def no_block(graph, anchors, n_samples, k, stream, excluded):
                return np.empty((0, n_samples + k), dtype=np.int64), True

            patch.setattr(embedder, "_replay_block", no_block)
            expected = embedder._training_groups(g, cfg)
        sampled.clear()
        _assert_same_groups(embedder._training_groups(g, cfg), expected)
        assert redrawn and redrawn <= set(sampled)

    # (block, delays): the three ways a block ends, each seen at least once
    @pytest.mark.parametrize("block, delays", [(3, 2), (5, 6), (8, 8)])
    @pytest.mark.parametrize("graph", ["edge-case", "mixed"])
    def test_block_boundaries_match_reference(self, graph, block, delays, monkeypatch):
        monkeypatch.setattr(embedder, "REPLAY_BLOCK", block)
        monkeypatch.setattr(embedder, "REPLAY_DELAYS", delays)
        blocks = _watch_blocks(monkeypatch)
        calls = _watch_samplers(monkeypatch)
        g = _edge_case_graph() if graph == "edge-case" else _mixed_dataset(seed=44).graph
        for seed in (1, 2, 3):
            cfg = TrainConfig(learning_rate=0.1, epochs=1, n_positives=3, n_negatives=3,
                              batch_size=7, seed=seed)
            _assert_same_groups(embedder._training_groups(g, cfg), ref_training_groups(g, cfg))
        # a whole block walked, its last anchor's draws running into the next one's offsets
        assert any(m == size and late > 0 for size, m, _, late in blocks)
        # a block stopped at an anchor it could not place: at a delay past the
        # table, resumed by the next block ...
        assert any(m < size and not stuck for size, m, stuck, _ in blocks)
        # ... and at delay 0, drawn by the samplers
        assert any(stuck for _, _, stuck, _ in blocks)
        assert calls

    def test_fallback_heavy_graph_matches_reference(self, monkeypatch):
        # half of all pairs are edges, so half of the negative candidates are
        # redrawn and about a fifth of the anchors need more delays than the
        # block table holds: the samplers draw them, at the anchor's degree
        # and at n_queries in turn
        upper = np.triu_indices(300, 1)
        edge = rng_stream(70).random(upper[0].size) < 0.5
        g = _graph(300, np.column_stack([upper[0][edge], upper[1][edge]]))
        calls = _watch_samplers(monkeypatch)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=1)
        _assert_same_groups(embedder._training_groups(g, cfg), ref_training_groups(g, cfg))
        assert len(calls) > 300 // 10

    @pytest.mark.parametrize("seed", [4, 9])
    def test_desk_groups_match_reference(self, seed):
        ds = generate_dataset(default_benchmark_config(seed))
        cfg = dataclasses.replace(desk_train_config(seed), epochs=1)
        groups = embedder._training_groups(ds.graph, cfg)
        _assert_same_groups(groups, ref_training_groups(ds.graph, cfg))

    def test_20000_query_groups_match_reference(self):
        ds = generate_dataset(dataclasses.replace(default_benchmark_config(5), n_queries=20_000))
        cfg = dataclasses.replace(desk_train_config(5), epochs=1)
        _assert_same_groups(embedder._training_groups(ds.graph, cfg),
                            ref_training_groups(ds.graph, cfg))

    def test_anchor_with_too_few_non_neighbours_raises_before_any_draw(self, monkeypatch):
        # anchor 6 has 9 non-neighbours and needs 2 * 5 negatives
        g = _edge_case_graph()
        seen = []

        def watching(graph, q, k, stream):
            seen.append((q, k, stream, stream.position))
            return sample_negatives(graph, q, k, stream)

        monkeypatch.setattr(embedder, "sample_negatives", watching)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, n_positives=2, n_negatives=5, seed=1)
        with pytest.raises(ValueError, match="only 9 non-neighbours available, need 10"):
            embedder._training_groups(g, cfg)
        q, k, stream, position = seen[-1]
        assert (q, k) == (6, 10)
        assert stream.position == position

    def test_too_few_non_neighbours_raise_where_the_draws_would_pass(self):
        # anchors 0 and 1 have 2 non-neighbours each and need 3 negatives; at
        # seed 23 the stream's draws after the permutation are 3, 2, 2, 3, 2, 2,
        # none of them 0 or 1
        g = _graph(4, [(0, 1)])
        cfg = TrainConfig(learning_rate=0.1, epochs=1, n_positives=1, n_negatives=3, seed=23)
        with pytest.raises(ValueError, match="only 2 non-neighbours available, need 3"):
            embedder._training_groups(g, cfg)

    @pytest.mark.parametrize("seed", [1, 3, 7], ids=["1-uniform", "3-uniform", "7-uniform"])
    def test_dataset_groups_match_reference(self, seed):
        ds = _mixed_dataset(seed=40 + seed)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, n_positives=4, n_negatives=2,
                          batch_size=16, seed=seed)
        _assert_same_groups(embedder._training_groups(ds.graph, cfg), ref_training_groups(ds.graph, cfg))


# sha256 of checkpoint.bin and loss_trace.csv of a small train (uniform
# positives, Adam), taken before the samples were replayed from the stream's
# raw words: any drift in the replay, the group pass or the update changes them
_PINNED_TRAINS = {
    "uniform": (
        "cc896f348f059d1dbbeba50b0e87f41355159201836d55d0a7bdd1babddc05b6",
        "2befbd373eabb71a2161b1f793ad79a615137d2575b7ec1323f722861fa254d3",
    ),
}


@pytest.mark.parametrize("mode", sorted(_PINNED_TRAINS))
def test_training_bytes_pinned(mode, tmp_path):
    ds = _mixed_dataset()
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=7, n_positives=3, n_negatives=2,
                      batch_size=16)
    model, trace = train(init_model(40, 4, 5, seed=7), ds, cfg)
    save_checkpoint(model, str(tmp_path / "checkpoint.bin"))
    write_loss_trace(str(tmp_path / "loss_trace.csv"), trace)
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("checkpoint.bin", "loss_trace.csv")
    )
    assert digests == _PINNED_TRAINS[mode]


class TestDeskBenchmarkTraining:
    """Contract checks on the pinned full-scale run (shared session fixture)."""

    def test_final_epoch_mean_under_seventy_percent_of_initial(self, desk_run):
        by_epoch = {}
        for epoch, _, value in desk_run.trace:
            by_epoch.setdefault(epoch, []).append(value)
        epochs = sorted(by_epoch)
        initial = np.mean(by_epoch[epochs[0]])
        final = np.mean(by_epoch[epochs[-1]])
        assert final < 0.7 * initial, (initial, final)

    def test_smoothed_trace_monotone_nonincreasing(self, desk_run):
        losses = [v for _, _, v in desk_run.trace]
        sm = smoothed_trace(losses, window=10)
        diffs = np.diff(sm)
        assert (diffs <= 0).all(), f"increases at {np.where(diffs > 0)[0]}: {diffs[diffs > 0]}"


class TestSmoothedTrace:
    def test_window_means(self):
        out = smoothed_trace([1, 2, 3, 4, 5, 6], window=2)
        assert_allclose(out, [1.5, 3.5, 5.5])

    def test_partial_window_dropped(self):
        out = smoothed_trace([1, 2, 3, 4, 5], window=2)
        assert_allclose(out, [1.5, 3.5])

    def test_short_input_empty(self):
        assert smoothed_trace([1, 2, 3], window=10).size == 0

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            smoothed_trace([1.0], window=0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = init_model(17, 5, 4, seed=28)
        path = str(tmp_path / "model.bin")
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert np.array_equal(back.emb, model.emb)
        assert np.array_equal(back.attn, model.attn)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<8sIIII", b"WRONGMAG", 1, 2, 2, 2))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        model = init_model(3, 2, 2, seed=29)
        path = str(tmp_path / "v.bin")
        save_checkpoint(model, path)
        data = bytearray(open(path, "rb").read())
        data[8] = 99
        open(path, "wb").write(bytes(data))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        model = init_model(3, 2, 2, seed=30)
        path = str(tmp_path / "t.bin")
        save_checkpoint(model, path)
        with open(path, "ab") as fh:
            fh.write(b"x")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)


class TestLossTraceFile:
    def test_round_trip_through_csv(self, tmp_path):
        trace = [(0, 0, 1.25), (0, 1, 1.0 / 3.0), (1, 0, 0.875)]
        path = str(tmp_path / "trace.csv")
        write_loss_trace(path, trace)
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,batch,loss"
        parsed = [
            (int(e), int(b), float(v))
            for e, b, v in (line.split(",") for line in lines[1:])
        ]
        assert parsed == trace
