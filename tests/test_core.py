import numpy as np
import pytest
from numpy.testing import assert_allclose

from queryemb.core import (
    GeneratorConfig,
    QueryGraph,
    QueryTable,
    rng_stream,
    sample_trigram_vocab,
    sample_unit_sphere,
)


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

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError, match="betas"):
            _config(betas=(1.0, -0.1, 0.0))

    def test_beta_zero_is_legal(self):
        _config(betas=(0.0, 0.0, 0.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="max_len entries"):
            _config(alphas=(0.9, 0.8))

    def test_nonpositive_lam_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            _config(lam=0.0)

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
        g = QueryGraph(3, [(0, 1), (1, 2)], {0: [(7, 2)]})
        assert g.n_queries == 3
        assert g.n_edges == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert g.degree(1) == 2
        assert g.edges().tolist() == [[0, 1], [1, 2]]
        assert g.purchase_map[0] == [(7, 2)]

    def test_neighbors_sorted(self):
        g = QueryGraph(3, [(0, 2), (0, 1)], {})
        assert list(g.neighbors(0)) == [1, 2]

    def test_csr_matches_edge_set(self):
        n = 30
        rng = rng_stream(5)
        pairs = {(u, v) for u, v in rng.integers(n, size=(120, 2)).tolist() if u < v}
        edges = rng.permutation(np.array(sorted(pairs)))
        g = QueryGraph(n, edges, {})
        assert g.n_edges == len(pairs)
        assert g.edges().tolist() == [list(e) for e in sorted(pairs)]
        for q in range(n):
            want = sorted({v for u, v in pairs if u == q} | {u for u, v in pairs if v == q})
            assert g.neighbors(q).tolist() == want
            assert g.degree(q) == len(want)
            for w in range(n):
                assert g.has_edge(q, w) == ((min(q, w), max(q, w)) in pairs)

    def test_empty_and_isolated(self):
        g = QueryGraph(0, [], {})
        assert g.n_queries == 0 and g.n_edges == 0
        assert g.edges().shape == (0, 2)
        g = QueryGraph(4, [(1, 3)], {})
        assert g.degree(0) == 0 and g.neighbors(2).size == 0
        assert g.has_edge(3, 1) and not g.has_edge(0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            QueryGraph(1, [(0, 0)], {})

    def test_reversed_edge_rejected(self):
        with pytest.raises(ValueError, match="u < v"):
            QueryGraph(2, [(1, 0)], {})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 2\)"):
            QueryGraph(3, [(0, 2), (0, 1), (0, 2)], {})

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            QueryGraph(1, [(0, 5)], {})
        with pytest.raises(ValueError, match="out of range"):
            QueryGraph(2, [(-1, 1)], {})

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            QueryGraph(3, [(0, 1, 2)], {})

    def test_bad_purchase_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            QueryGraph(2, [], {0: [(3, 0)]})

    def test_bad_purchase_key_rejected(self):
        with pytest.raises(ValueError, match="not a query id"):
            QueryGraph(2, [], {2: [(3, 1)]})
