import io
import struct
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare

from queryemb.core import QueryGraph, QueryTable, rng_stream
from queryemb.embedder import (
    AttentionModel,
    TrainConfig,
    TrainingBatch,
    attention_weights,
    embed_query,
    init_model,
    load_checkpoint,
    loss,
    loss_and_gradient,
    sample_negatives,
    sample_positives,
    save_checkpoint,
    smoothed_trace,
    train,
    write_loss_trace,
)
from queryemb.genmodel import SyntheticDataset, generate_dataset
from queryemb.theory import desk_train_config


def _singleton_queries(emb_rows):
    """One query per trigram id, so query id i embeds to roughly emb[i]."""
    return QueryTable.from_rows([[i] for i in range(len(emb_rows))], [0] * len(emb_rows), 1)


def _graph(n, edges):
    return QueryGraph(n, edges, {i: [(0, 1)] for i in range(n)})


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
        assert_allclose(loss(model, batch, queries), 2 * np.log(2.0), rtol=1e-14)

    def test_unit_scores_hand_value(self):
        # <z_a, z_p> = 1 and <z_a, z_n> = -1 -> 2 * -log sigma(1)
        emb = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        model = AttentionModel(emb, np.zeros((1, 2)))
        queries = _singleton_queries(emb)
        batch = TrainingBatch(anchor=0, positives=(1,), negatives=(2,))
        expected = 2 * np.log1p(np.exp(-1.0))
        assert_allclose(loss(model, batch, queries), expected, rtol=1e-14)
        assert abs(expected - 0.6265) < 1e-4

    def test_saturated_scores_drive_loss_to_zero(self):
        emb = np.array([[10.0, 0.0], [10.0, 0.0], [-10.0, 0.0]])
        model = AttentionModel(emb, np.zeros((1, 2)))
        queries = _singleton_queries(emb)
        batch = TrainingBatch(anchor=0, positives=(1,), negatives=(2,))
        assert loss(model, batch, queries) < 1e-12

    def test_empty_sets_rejected(self):
        emb = np.eye(3)
        model = AttentionModel(emb, np.zeros((1, 3)))
        queries = _singleton_queries(emb)
        with pytest.raises(ValueError, match="positive"):
            loss(model, TrainingBatch(0, (), (2,)), queries)
        with pytest.raises(ValueError, match="positive"):
            loss(model, TrainingBatch(0, (1,), ()), queries)

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
    queries = QueryTable.from_rows(rows, [0] * n_queries, n_max)
    ids = rng.permutation(n_queries)
    batch = TrainingBatch(
        anchor=int(ids[0]), positives=tuple(ids[1:4].tolist()), negatives=tuple(ids[4:9].tolist())
    )
    return model, queries, batch


def _fd_coordinate(model, batch, queries, slot, i, j, h=1e-5):
    arr = getattr(model, slot)
    orig = arr[i, j]
    arr[i, j] = orig + h
    up = loss(model, batch, queries)
    arr[i, j] = orig - h
    down = loss(model, batch, queries)
    arr[i, j] = orig
    return (up - down) / (2 * h)


class TestLossGradient:
    def test_matches_finite_differences(self):
        rng = rng_stream(100)
        checked = 0
        for case_seed in range(10):
            model, queries, batch = _random_case(200 + case_seed)
            value, grad = loss_and_gradient(model, batch, queries)
            assert_allclose(value, loss(model, batch, queries), rtol=1e-12)
            touched = sorted({t for i in range(len(queries)) for t in queries.row(i).tolist()})
            for _ in range(10):
                if rng.random() < 0.5:
                    slot, i = "emb", int(rng.choice(touched))
                else:
                    slot, i = "attn", int(rng.integers(0, model.max_len))
                j = int(rng.integers(0, model.dim))
                fd = _fd_coordinate(model, batch, queries, slot, i, j)
                an = getattr(grad, slot)[i, j]
                assert abs(an - fd) <= 1e-4 * max(1.0, abs(fd)), (slot, i, j, an, fd)
                checked += 1
        assert checked == 100

    def test_untouched_parameters_get_zero_gradient(self):
        model, queries, batch = _random_case(300)
        involved = {batch.anchor, *batch.positives, *batch.negatives}
        used = {t for qid in involved for t in queries.row(qid).tolist()}
        grad = loss_and_gradient(model, batch, queries)[1]
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
        grad = loss_and_gradient(model, batch, queries)[1]
        assert np.array_equal(grad.emb, np.zeros_like(grad.emb))
        assert np.array_equal(grad.attn, np.zeros_like(grad.attn))
        rng = rng_stream(9)
        h = 1e-5
        for _ in range(5):
            d_emb = rng.standard_normal(model.emb.shape)
            up = loss(AttentionModel(model.emb + h * d_emb, model.attn), batch, queries)
            down = loss(AttentionModel(model.emb - h * d_emb, model.attn), batch, queries)
            assert abs(up - down) / (2 * h) < 1e-6

    def test_table_that_does_not_fit_the_model_rejected(self):
        # the check covers the whole table, not only the rows in the batch
        model = init_model(5, 2, 2, seed=0)
        batch = TrainingBatch(anchor=0, positives=(1,), negatives=(2,))
        for rows, message in (
            ([[0], [1], [2], [5]], r"trigram id 5 outside \[0, 5\)"),
            ([[0], [1], [2], [2, 3, 4]], "query width 3 exceeds model max_len 2"),
        ):
            queries = QueryTable.from_rows(rows, [0] * len(rows), max(map(len, rows)))
            with pytest.raises(ValueError, match=message):
                loss_and_gradient(model, batch, queries)
            with pytest.raises(ValueError, match=message):
                loss(model, batch, queries)

    def test_descent_along_gradient(self):
        model, queries, batch = _random_case(400)
        value, grad = loss_and_gradient(model, batch, queries)
        step = 1e-3
        stepped = AttentionModel(model.emb - step * grad.emb, model.attn - step * grad.attn)
        assert loss(stepped, batch, queries) < value


class TestSamplePositives:
    def test_single_neighbor_always_chosen(self):
        g = _graph(3, [(0, 1)])
        rng = rng_stream(10)
        assert sample_positives(g, 0, "uniform", rng, n_samples=20) == [1] * 20

    def test_isolated_node_returns_empty(self):
        g = _graph(3, [(0, 1)])
        assert sample_positives(g, 2, "uniform", rng_stream(11)) == []
        assert sample_positives(g, 2, "walks", rng_stream(12)) == []

    def test_walk_length_one_stays_in_neighborhood(self):
        g = _graph(6, [(0, 1), (0, 2), (1, 3), (2, 4), (4, 5)])
        rng = rng_stream(13)
        for _ in range(50):
            out = sample_positives(g, 0, "walks", rng, walk_length=1, walks_per_node=1)
            assert set(out) <= {1, 2}

    def test_walk_distribution_matches_enumeration(self):
        # path graph 0-1-2-3-4; start node 2; walk_length=3, one walk.
        # Exhaustive oracle: enumerate all step sequences with their exact
        # probabilities (each step uniform over current neighbors).
        g = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        start, length = 2, 3

        def walks(node, steps):
            if steps == 0:
                return [((), 1.0)]
            out = []
            for nxt in g.neighbors(node):
                for tail, p in walks(int(nxt), steps - 1):
                    out.append(((int(nxt),) + tail, p / g.degree(node)))
            return out

        exact = {seq: p for seq, p in walks(start, length)}
        assert abs(sum(exact.values()) - 1.0) < 1e-12

        rng = rng_stream(14)
        n = 100_000
        observed = Counter()
        for _ in range(n):
            visits = sample_positives(
                g, start, "walks", rng, walk_length=length, walks_per_node=1
            )
            # reconstruct the full step sequence: visits drop returns to start
            observed[tuple(visits)] += 1

        # visit tuples collapse sequences that revisit the start; fold the
        # oracle the same way before comparing
        folded = Counter()
        for seq, p in exact.items():
            folded[tuple(s for s in seq if s != start)] += p
        keys = sorted(folded)
        obs = np.array([observed.get(k, 0) for k in keys])
        exp = np.array([folded[k] * n for k in keys])
        assert chisquare(obs, exp).pvalue > 0.01

    def test_unknown_mode_rejected(self):
        g = _graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="mode"):
            sample_positives(g, 0, "bogus", rng_stream(15))


class TestSampleNegatives:
    def test_complete_graph_errors(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = _graph(4, edges)
        with pytest.raises(ValueError, match="non-neighbours"):
            sample_negatives(g, 0, 1, rng_stream(16))

    def test_k_zero_returns_empty(self):
        g = _graph(4, [(0, 1), (0, 2), (0, 3)])
        assert sample_negatives(g, 0, 0, rng_stream(17)) == []

    def test_never_returns_neighbor_or_self(self):
        g = _graph(10, [(0, 1), (0, 2), (3, 4)])
        rng = rng_stream(18)
        for _ in range(200):
            out = sample_negatives(g, 0, 3, rng)
            assert 0 not in out and 1 not in out and 2 not in out

    def test_uniform_over_non_neighbors(self):
        # 100-node ring: every node has 2 neighbors, 97 non-neighbors
        n = 100
        g = _graph(n, [(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)])
        rng = rng_stream(19)
        draws = np.array([sample_negatives(g, 0, 1, rng)[0] for _ in range(100_000)])
        allowed = sorted(set(range(n)) - {0, 1, 99})
        counts = np.array([(draws == a).sum() for a in allowed])
        assert counts.sum() == 100_000
        assert chisquare(counts).pvalue > 0.01


def _tiny_dataset(seed=21, n_products=3, n_queries=24):
    from queryemb.core import GeneratorConfig

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
        trained, trace = train(model0, ds, TrainConfig(learning_rate=0.0, epochs=3, seed=5, positive_mode="uniform", n_positives=2, n_negatives=2))
        assert np.array_equal(trained.emb, model0.emb)
        assert np.array_equal(trained.attn, model0.attn)
        assert len(trace) > 0

    def test_zero_epochs_is_identity_with_empty_trace(self):
        ds = _tiny_dataset()
        model0 = init_model(30, 4, 3, seed=23)
        trained, trace = train(model0, ds, TrainConfig(learning_rate=0.1, epochs=0, seed=5, positive_mode="uniform", n_positives=2, n_negatives=2))
        assert np.array_equal(trained.emb, model0.emb)
        assert trace == []

    def test_single_sgd_step_is_exact(self):
        # one batch spanning every anchor, one epoch: the update must be
        # exactly init - lr * (mean gradient over the materialized batch)
        from queryemb.core import STREAM_TRAIN

        ds = _tiny_dataset(n_queries=8)
        n = len(ds.queries)
        model0 = init_model(30, 4, 3, seed=24)
        cfg = TrainConfig(
            learning_rate=0.3,
            epochs=1,
            positive_mode="uniform",
            n_positives=2,
            n_negatives=2,
            batch_size=n,
            seed=77,
        )
        trained, trace = train(model0, ds, cfg)

        rng = rng_stream(cfg.seed, STREAM_TRAIN)
        order = rng.permutation(n)
        acc_emb = np.zeros_like(model0.emb)
        acc_attn = np.zeros_like(model0.attn)
        count = 0
        for a in order:
            a = int(a)
            pos = sample_positives(ds.graph, a, "uniform", rng, n_samples=2)
            if not pos:
                continue
            neg = sample_negatives(ds.graph, a, 2 * len(pos), rng)
            batch = TrainingBatch(anchor=a, positives=tuple(pos), negatives=tuple(neg))
            grad = loss_and_gradient(model0, batch, ds.queries)[1]
            acc_emb += grad.emb
            acc_attn += grad.attn
            count += 1
        assert count == n
        assert_allclose(trained.emb, model0.emb - 0.3 * acc_emb / count, atol=1e-15)
        assert_allclose(trained.attn, model0.attn - 0.3 * acc_attn / count, atol=1e-15)
        assert len(trace) == 1

    def test_deterministic_per_seed(self):
        ds = _tiny_dataset()
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=31, positive_mode="uniform", n_positives=2, n_negatives=2)
        m1, t1 = train(init_model(30, 4, 3, seed=25), ds, cfg)
        m2, t2 = train(init_model(30, 4, 3, seed=25), ds, cfg)
        assert np.array_equal(m1.emb, m2.emb)
        assert np.array_equal(m1.attn, m2.attn)
        assert t1 == t2

    def test_uniform_attention_ablation_freezes_attn(self):
        ds = _tiny_dataset()
        model0 = init_model(30, 4, 3, seed=26)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=32, uniform_attention=True, positive_mode="uniform", n_positives=2, n_negatives=2)
        trained, _ = train(model0, ds, cfg)
        assert np.array_equal(trained.attn, model0.attn)
        assert not np.array_equal(trained.emb, model0.emb)

    def test_adam_runs_and_moves_parameters(self):
        ds = _tiny_dataset()
        model0 = init_model(30, 4, 3, seed=27)
        cfg = TrainConfig(learning_rate=0.01, epochs=2, seed=33, optimizer="adam", positive_mode="uniform", n_positives=2, n_negatives=2)
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
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(learning_rate=0.1, epochs=1, optimizer="lbfgs")
        with pytest.raises(ValueError, match="lr_decay"):
            TrainConfig(learning_rate=0.1, epochs=1, lr_decay=0.0)


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
