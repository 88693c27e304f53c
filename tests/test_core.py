import numpy as np
import pytest
from conftest import has_edge
from numpy.testing import assert_allclose

from queryemb.cli import EvalParams
from queryemb.core import (
    GeneratorConfig,
    QueryGraph,
    QueryTable,
    ReplayStream,
    config_from_mapping,
    lemire_draw,
    rng_stream,
    sample_trigram_vocab,
    sample_unit_sphere,
    stream_words,
)
from queryemb.embedder import TrainConfig
from queryemb.genmodel import truncated_poisson_pmf


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = rng_stream(42, 7).standard_normal(100)
        b = rng_stream(42, 7).standard_normal(100)
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        a = rng_stream(42, 0).standard_normal(100)
        b = rng_stream(42, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_seeds_are_distinct(self):
        a = rng_stream(0, 3).standard_normal(100)
        b = rng_stream(1, 3).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_call_order_independent(self):
        # Drawing from one stream must not perturb another.
        r1 = rng_stream(5, 1)
        r2 = rng_stream(5, 2)
        interleaved = [r1.standard_normal(), r2.standard_normal(), r1.standard_normal()]
        fresh = rng_stream(5, 1)
        assert interleaved[0] == fresh.standard_normal()
        assert interleaved[2] == fresh.standard_normal()

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 5, 2**64 + 3, -1])
    def test_stream_words_are_each_streams_raw_output(self, seed):
        streams = [16, 17, 3, 2**63, 16]
        words = stream_words(seed, streams, 9)
        assert words.shape == (5, 9) and words.dtype == np.uint64
        for row, stream in zip(words, streams):
            assert np.array_equal(row, rng_stream(seed, stream).bit_generator.random_raw(9))


def _twins(seed, lead):
    """A Generator of rng_stream(seed, 3) and a second copy, both after lead(generator)."""
    gen, twin = rng_stream(seed, 3), rng_stream(seed, 3)
    lead(gen)
    lead(twin)
    return gen, twin


_LEADS = {
    "fresh": lambda g: None,
    "permutation": lambda g: g.permutation(50),
    "kept_half": lambda g: g.integers(7),  # one 32-bit draw keeps the word's high half
}

# n = 1 reads nothing; just above 2**31 about half of all draws are redrawn
_RANGES = [1, 2, 3, 7, 25, 1, 1000, 2**31 + 1, 5000, 2**32 - 1]


class TestReplayStream:
    @pytest.mark.parametrize("lead", sorted(_LEADS))
    @pytest.mark.parametrize("n_words", [1, 4096])
    def test_integers_match_generator(self, lead, n_words):
        gen, twin = _twins(11, _LEADS[lead])
        assert twin.bit_generator.state["has_uint32"] == (lead == "kept_half")
        replay = ReplayStream(twin.bit_generator, n_words)
        ranges = _RANGES * 300
        assert [replay.integers(n) for n in ranges] == [int(gen.integers(n)) for n in ranges]

    def test_forced_lemire_rejection(self):
        # n just above 2**31: the rule rejects about half of the 32-bit draws
        n = 2**31 + 1
        gen, twin = _twins(12, _LEADS["kept_half"])
        kept = twin.bit_generator.state["uinteger"]
        words = rng_stream(12, 3).bit_generator.random_raw(3000)[1:]  # past the word integers(7) split
        halves = np.concatenate([[kept], np.column_stack([words & 0xFFFFFFFF, words >> 32]).ravel()])
        value, accepted = lemire_draw(halves.astype(np.uint64), n)
        assert 0.4 < accepted.mean() < 0.6
        replay = ReplayStream(twin.bit_generator, 16)
        expected = [int(gen.integers(n)) for _ in range(2000)]
        assert [replay.integers(n) for _ in range(2000)] == expected
        assert value[accepted][:2000].tolist() == expected

    def test_lemire_draw_scalar_matches_array(self):
        x = rng_stream(13).bit_generator.random_raw(500) & 0xFFFFFFFF
        for n in (2, 3, 1000, 2**31 + 1, 2**32 - 1):
            value, accepted = lemire_draw(x, n)
            scalar = [lemire_draw(int(h), n) for h in x]
            assert value.tolist() == [v for v, _ in scalar]
            assert accepted.tolist() == [a for _, a in scalar]

    def test_lemire_draw_boundary(self):
        # 3 * 0xAAAAAAAB = 2**33 + 1: leftover 1 equals the threshold (2**32 - 3) % 3
        assert (2**32 - 3) % 3 == 1
        assert lemire_draw(0xAAAAAAAB, 3) == (2, True)
        assert lemire_draw(0, 3) == (0, False)
        x = np.array([0xAAAAAAAB, 0], dtype=np.uint64)
        value, accepted = lemire_draw(x, 3)
        assert value.tolist() == [2, 0] and accepted.tolist() == [True, False]

    # 34 of 40 values excluded: most draws are rejected; past 2**31 Lemire's
    # rule itself redraws about half of them
    @pytest.mark.parametrize("n, excluded", [(40, set(range(3, 37))), (2**31 + 1, {5, 7})])
    @pytest.mark.parametrize("n_words", [1, 4096])
    def test_integers_outside_matches_generator_rejection(self, n_words, n, excluded):
        gen, twin = _twins(14, _LEADS["permutation"])
        replay = ReplayStream(twin.bit_generator, n_words)
        for k in (1, 25, 6, 40):
            expected = []
            while len(expected) < k:
                value = int(gen.integers(n))
                if value not in excluded:
                    expected.append(value)
            assert replay.integers_outside(n, k, excluded) == expected
            # the scan stops right after the k-th kept draw
            assert replay.integers(9) == int(gen.integers(9))

    def test_integers_outside_needs_a_real_range(self):
        replay = ReplayStream(rng_stream(15).bit_generator, 8)
        for n in (0, 1, 2**32):
            with pytest.raises(ValueError, match="range"):
                replay.integers_outside(n, 1, set())


class TestSampleUnitSphere:
    def test_every_draw_has_unit_norm(self):
        rng = rng_stream(0)
        for dim in (2, 3, 16):
            for _ in range(50):
                assert abs(np.linalg.norm(sample_unit_sphere(rng, dim)) - 1.0) < 1e-9

    def test_coordinate_means_vanish(self):
        # Uniform-sphere coordinates have mean 0, variance 1/d; with 10^4
        # draws the mean's sigma is sqrt(1/(3*10^4)).
        rng = rng_stream(1)
        draws = np.array([sample_unit_sphere(rng, 3) for _ in range(10_000)])
        sigma = np.sqrt(1.0 / 3.0 / 10_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * sigma)

    def test_coordinate_second_moment(self):
        rng = rng_stream(2)
        dim = 3
        draws = np.array([sample_unit_sphere(rng, dim) for _ in range(10_000)])
        assert_allclose(np.mean(draws[:, 0] ** 2), 1.0 / dim, rtol=0.05)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            sample_unit_sphere(rng_stream(0), 0)


class TestSampleTrigramVocab:
    def test_reproducible_under_seed(self):
        a = sample_trigram_vocab(rng_stream(9, 0), 1, 2)
        b = sample_trigram_vocab(rng_stream(9, 0), 1, 2)
        assert np.array_equal(a, b)
        assert a.shape == (1, 2)

    def test_coordinate_means_vanish(self):
        vocab = sample_trigram_vocab(rng_stream(3), 10_000, 8)
        sigma = 1.0 / np.sqrt(10_000)
        assert np.all(np.abs(vocab.mean(axis=0)) < 3 * sigma)

    def test_covariance_close_to_identity(self):
        vocab = sample_trigram_vocab(rng_stream(4), 10_000, 8)
        cov = vocab.T @ vocab / vocab.shape[0]
        off = cov - np.diag(np.diag(cov))
        assert np.all(np.abs(off) < 0.05)
        assert_allclose(np.diag(cov), 1.0, atol=0.05)

    def test_isotropy_eigenvalues(self):
        # m >= 10^3 * d keeps the second-moment spectrum within [0.8, 1.2].
        dim = 4
        vocab = sample_trigram_vocab(rng_stream(5), 1000 * dim, dim)
        eig = np.linalg.eigvalsh(vocab.T @ vocab / vocab.shape[0])
        assert eig.min() > 0.8 and eig.max() < 1.2


def _config(**overrides):
    base = dict(
        dim=4,
        vocab_size=10,
        max_len=3,
        lam=2.0,
        alphas=(0.9, 0.8, 0.7),
        betas=(1.0, 0.5, 0.0),
        epsilon_p=0.5,
        n_products=5,
        n_queries=20,
        seed=0,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGeneratorConfig:
    def test_valid_config_roundtrips_fields(self):
        cfg = _config()
        assert cfg.alphas == (0.9, 0.8, 0.7)
        assert cfg.max_len == 3

    def test_alpha_must_exceed_half(self):
        with pytest.raises(ValueError, match="alphas"):
            _config(alphas=(0.5, 0.8, 0.7))

    def test_alpha_one_is_legal(self):
        _config(alphas=(1.0, 1.0, 1.0))

    @pytest.mark.parametrize("beta", [-0.1, np.inf, np.nan])
    def test_negative_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="betas"):
            _config(betas=(1.0, beta, 0.0))

    def test_beta_zero_is_legal(self):
        _config(betas=(0.0, 0.0, 0.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="max_len entries"):
            _config(alphas=(0.9, 0.8))

    @pytest.mark.parametrize("lam", [0.0, np.inf, np.nan])
    def test_nonpositive_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam"):
            _config(lam=lam)
        with pytest.raises(ValueError, match="lam"):
            truncated_poisson_pmf(lam, 3)

    def test_queries_require_products(self):
        with pytest.raises(ValueError, match="without products"):
            _config(n_products=0, n_queries=5)

    def test_empty_dataset_is_legal(self):
        _config(n_products=0, n_queries=0)


class TestQuery:
    """The padded query table that every layer shares."""

    def test_len_and_fields(self):
        t = QueryTable.from_rows([[3, 1, 4], [2]], [2, 0], 3)
        assert len(t) == 2 and t.width == 3
        assert t.ids.tolist() == [[3, 1, 4], [2, 0, 0]]
        assert t.lengths.tolist() == [3, 1]
        assert t.product_ids.tolist() == [2, 0]
        assert t.row(0).tolist() == [3, 1, 4] and t.row(1).tolist() == [2]
        assert t.ids.dtype == t.lengths.dtype == t.product_ids.dtype == np.int64
        assert t.id_bound == 5
        assert QueryTable.from_rows([[1]], [0], width=4).ids.tolist() == [[1, 0, 0, 0]]

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            QueryTable.from_rows([[1], []], [0, 0], 1)
        with pytest.raises(ValueError, match="at least one"):
            QueryTable(ids=[[0]], lengths=[0], product_ids=[0])

    def test_validate_against_bounds(self):
        with pytest.raises(ValueError, match="max_len 1"):
            QueryTable.from_rows([[0, 1]], [0], width=1)
        with pytest.raises(ValueError, match="max_len 2"):
            QueryTable(ids=[[0, 1]], lengths=[3], product_ids=[0])
        with pytest.raises(ValueError, match="trigram ids must be non-negative"):
            QueryTable.from_rows([[0, -1]], [0], 2)
        with pytest.raises(ValueError, match="product_id must be non-negative"):
            QueryTable.from_rows([[0]], [-1], 1)
        with pytest.raises(ValueError, match="slots past"):
            QueryTable(ids=[[1, 7]], lengths=[1], product_ids=[0])
        with pytest.raises(ValueError, match="shapes"):
            QueryTable(ids=[[1, 7]], lengths=[2, 2], product_ids=[0])
        with pytest.raises(ValueError, match="shapes"):
            QueryTable(ids=[1, 7], lengths=[2], product_ids=[0])

    def test_arrays_are_read_only_copies(self):
        ids = np.array([[4, 5]])
        t = QueryTable(ids=ids, lengths=[2], product_ids=[1])
        ids[0, 0] = 9
        assert t.ids[0, 0] == 4
        for arr in (t.ids, t.lengths, t.product_ids):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            t.row(0)[0] = 0
        with pytest.raises(AttributeError):
            t.ids = np.array([[0, 0]])

    def test_take_and_equality(self):
        t = QueryTable.from_rows([[3, 1], [2], [7, 7]], [0, 1, 2], 2)
        swapped = t.take([2, 0])
        assert swapped.ids.tolist() == [[7, 7], [3, 1]]
        assert swapped.product_ids.tolist() == [2, 0]
        assert (t == t.take([0, 1, 2])) is True
        assert (t == swapped) is False
        assert t != "not a table"
        assert len(t.take([])) == 0
        empty = QueryTable.from_rows([], [], width=4)
        assert len(empty) == 0 and empty.width == 4 and empty.id_bound == 0
        assert empty != QueryTable.from_rows([], [], width=3)


class TestQueryGraph:
    def test_basic_adjacency(self):
        g = QueryGraph(3, [(0, 1), (1, 2)])
        assert g.n_queries == 3
        assert g.n_edges == 2
        assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
        assert not has_edge(g, 0, 2)
        assert g.degree(1) == 2
        assert g.edges().tolist() == [[0, 1], [1, 2]]

    def test_neighbors_sorted(self):
        g = QueryGraph(3, [(0, 2), (0, 1)])
        assert list(g.neighbors(0)) == [1, 2]

    def test_csr_matches_edge_set(self):
        n = 30
        rng = rng_stream(5)
        pairs = {(u, v) for u, v in rng.integers(n, size=(120, 2)).tolist() if u < v}
        edges = rng.permutation(np.array(sorted(pairs)))
        g = QueryGraph(n, edges)
        assert g.n_edges == len(pairs)
        assert g.edges().tolist() == [list(e) for e in sorted(pairs)]
        for q in range(n):
            want = sorted({v for u, v in pairs if u == q} | {u for u, v in pairs if v == q})
            assert g.neighbors(q).tolist() == want
            assert g.degree(q) == len(want)
            for w in range(n):
                assert has_edge(g, q, w) == ((min(q, w), max(q, w)) in pairs)

    def test_empty_and_isolated(self):
        g = QueryGraph(0, [])
        assert g.n_queries == 0 and g.n_edges == 0
        assert g.edges().shape == (0, 2)
        g = QueryGraph(4, [(1, 3)])
        assert g.degree(0) == 0 and g.neighbors(2).size == 0
        assert has_edge(g, 3, 1) and not has_edge(g, 0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            QueryGraph(1, [(0, 0)])

    def test_reversed_edge_rejected(self):
        with pytest.raises(ValueError, match="u < v"):
            QueryGraph(2, [(1, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 2\)"):
            QueryGraph(3, [(0, 2), (0, 1), (0, 2)])

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            QueryGraph(1, [(0, 5)])
        with pytest.raises(ValueError, match="out of range"):
            QueryGraph(2, [(-1, 1)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            QueryGraph(3, [(0, 1, 2)])


_GEN_KV = {
    "dim": "4", "vocab_size": "50", "max_len": "2", "lam": "2.0", "alphas": "0.9,0.8",
    "betas": "1.0,0.5", "epsilon_p": "0.5", "n_products": "5", "n_queries": "0", "seed": "1",
}
_TRAIN_KV = {"learning_rate": "0.1", "epochs": "2"}


# id -> (config class, text values, the ValueError message matched or the config built)
_CODEC_CASES = {
    "generator-missing-key": (GeneratorConfig, {"dim": "4"}, "missing"),
    "generator-unknown-key": (GeneratorConfig, {**_GEN_KV, "bogus": "x"}, "unknown"),
    "generator-bad-tuple-element": (GeneratorConfig, {**_GEN_KV, "betas": "1.0,x"}, "betas"),
    "train-missing-key": (TrainConfig, {"learning_rate": "0.1"}, "epochs"),
    "train-unknown-key": (TrainConfig, {**_TRAIN_KV, "adam_beta1": "0.9"}, "unknown"),
    "train-bad-bool": (TrainConfig, {**_TRAIN_KV, "uniform_attention": "yes"}, "true or false"),
    "train-typed-values": (
        TrainConfig,
        {**_TRAIN_KV, "uniform_attention": "true"},
        TrainConfig(learning_rate=0.1, epochs=2, uniform_attention=True),
    ),
    "eval-no-keys": (EvalParams, {}, EvalParams()),
    "eval-out-of-range": (EvalParams, {"test_fraction": "1.0"}, "test_fraction"),
}


@pytest.mark.parametrize("cls, kv, expected", _CODEC_CASES.values(), ids=_CODEC_CASES.keys())
def test_config_from_mapping(cls, kv, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            config_from_mapping(cls, kv)
    else:
        assert config_from_mapping(cls, kv) == expected
