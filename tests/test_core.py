import numpy as np
import pytest
from conftest import has_edge, next_integer
from numpy.testing import assert_allclose

from queryemb.cli import EvalParams
from queryemb.core import (
    _PHILOX_CELLS,
    STREAM_QUERIES,
    GeneratorConfig,
    QueryGraph,
    QueryTable,
    ReplayStream,
    config_from_mapping,
    lemire_draw,
    rng_stream,
    sample_trigram_vocab,
    sample_unit_sphere,
    stream_key,
    stream_words,
)
from queryemb.embedder import TrainConfig, _first_kept
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
        streams = [3, 16, 2**63, 2**64 - 1, 2**64 + 5, -1, 16]
        as_uint64 = np.array([s & (2**64 - 1) for s in streams], dtype=np.uint64)
        for given in (streams, as_uint64.view(np.int64), as_uint64):
            for n_words in (0, 1, 3, 4, 5, 26):
                words = stream_words(seed, given, n_words)
                assert words.shape == (len(streams), n_words) and words.dtype == np.uint64
                assert np.array_equal(words, rekeyed_stream_words(seed, streams, n_words))
        for stream, row in zip(streams, stream_words(seed, streams, 9)):
            assert np.array_equal(row, rng_stream(seed, stream).bit_generator.random_raw(9))

    @pytest.mark.parametrize("streams", [[], np.zeros(0, dtype=np.int64)])
    def test_stream_words_of_no_streams(self, streams):
        words = stream_words(5, streams, 7)
        assert words.shape == (0, 7) and words.dtype == np.uint64

    def test_stream_words_of_every_dense_query(self):
        # 20000 streams run the rounds in several cache-sized passes, the last one partial
        streams = STREAM_QUERIES + np.arange(20000)
        assert 20000 % (_PHILOX_CELLS // 7) != 0
        assert np.array_equal(stream_words(3, streams, 26), rekeyed_stream_words(3, streams, 26))

    def test_stream_words_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n_words"):
            stream_words(0, [1], -1)


def rekeyed_stream_words(seed, streams, n_words):
    """stream_words' reference: one Philox bit generator, re-keyed for each stream in turn."""
    bits = np.random.Philox(key=stream_key(seed, 0))
    fresh = bits.state  # counter 0, empty buffer, no kept 32-bit half
    out = np.empty((len(streams), n_words), dtype=np.uint64)
    for j, stream in enumerate(streams):
        fresh["state"]["key"] = stream_key(seed, int(stream))
        bits.state = fresh
        out[j] = bits.random_raw(n_words)
    return out


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


def _raw_position(bit_generator):
    """How far a Philox bit generator has read: its block counter and buffer position."""
    state = bit_generator.state
    return state["state"]["counter"].tolist(), state["buffer_pos"]


class TestReplayStream:
    @pytest.mark.parametrize("lead", sorted(_LEADS))
    @pytest.mark.parametrize("n_words", [1, 4096])
    def test_integers_match_generator(self, lead, n_words):
        gen, twin = _twins(11, _LEADS[lead])
        assert twin.bit_generator.state["has_uint32"] == (lead == "kept_half")
        replay = ReplayStream(twin.bit_generator, n_words)
        ranges = _RANGES * 300
        assert [next_integer(replay, n) for n in ranges] == [int(gen.integers(n)) for n in ranges]

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
        assert [next_integer(replay, n) for _ in range(2000)] == expected
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
        # the samplers' rejection scan over the replay (embedder._first_kept)
        gen, twin = _twins(14, _LEADS["permutation"])
        replay = ReplayStream(twin.bit_generator, n_words)
        for k in (1, 25, 6, 40, 0):
            expected = []
            while len(expected) < k:
                value = int(gen.integers(n))
                if value not in excluded:
                    expected.append(value)
            assert _first_kept(replay, n, k, np.array(sorted(excluded))).tolist() == expected
            # the scan stops right after the k-th kept draw
            assert next_integer(replay, 9) == int(gen.integers(9))

    def test_peek_reads_ahead_and_skip_reads(self):
        gen, twin = _twins(17, _LEADS["kept_half"])
        replay = ReplayStream(twin.bit_generator, 2)  # 5 halves held, the kept one first
        halves, values = replay.peek(1000, 40)
        assert halves.size == values.size == 40 and replay.position == 0
        value, accepted = lemire_draw(halves, 1000)
        assert values.tolist() == np.where(accepted, value, -1).tolist()
        assert accepted.all()  # so each half below is one integers(1000) call
        replay.skip(3)
        assert replay.position == 3
        expected = [int(gen.integers(1000)) for _ in range(40)]
        assert values.tolist() == expected
        assert replay.peek(1000, 37)[1].tolist() == expected[3:]
        with pytest.raises(ValueError, match="can skip"):
            replay.skip(10**6)

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1, 2**33])
    def test_integers_rejects_a_range_outside_1_to_2_32_before_reading(self, n):
        # 2**33 never accepts a draw ((2**32 - n) % n is 2**32), so unchecked a
        # scan for one would read ahead until memory ran out; 0 would divide by zero
        gen, twin = _twins(16, _LEADS["kept_half"])
        replay = ReplayStream(twin.bit_generator, 4)
        read = _raw_position(twin.bit_generator)
        with pytest.raises(ValueError, match=r"range must lie in \[2, 2\*\*32\)"):
            replay.peek(n, 10**6)
        assert replay.position == 0 and _raw_position(twin.bit_generator) == read  # no word read
        assert next_integer(replay, 7) == int(gen.integers(7))

    def test_integers_outside_needs_a_real_range(self):
        # 1 too: integers(1) reads nothing, so no half may be decoded at it
        twin = rng_stream(15).bit_generator
        replay = ReplayStream(twin, 8)
        read = _raw_position(twin)
        for n in (0, 1, 2**32):
            with pytest.raises(ValueError, match=r"range must lie in \[2, 2\*\*32\)"):
                _first_kept(replay, n, 1, np.empty(0, dtype=np.int64))
        assert replay.position == 0 and _raw_position(twin) == read


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
        t = QueryTable([[3, 1, 4], [2, 0, 0]], [3, 1], [2, 0])
        assert len(t) == 2 and t.width == 3
        assert t.ids.tolist() == [[3, 1, 4], [2, 0, 0]]
        assert t.lengths.tolist() == [3, 1]
        assert t.product_ids.tolist() == [2, 0]
        assert t.row(0).tolist() == [3, 1, 4] and t.row(1).tolist() == [2]
        assert t.ids.dtype == t.lengths.dtype == t.product_ids.dtype == np.int64
        assert t.id_bound == 5

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            QueryTable(ids=[[1], [0]], lengths=[1, 0], product_ids=[0, 0])
        with pytest.raises(ValueError, match="at least one"):
            QueryTable(ids=[[0]], lengths=[0], product_ids=[0])

    def test_validate_against_bounds(self):
        with pytest.raises(ValueError, match="max_len 1"):
            QueryTable(ids=[[0]], lengths=[2], product_ids=[0])
        with pytest.raises(ValueError, match="max_len 2"):
            QueryTable(ids=[[0, 1]], lengths=[3], product_ids=[0])
        with pytest.raises(ValueError, match="trigram ids must be non-negative"):
            QueryTable(ids=[[0, -1]], lengths=[2], product_ids=[0])
        with pytest.raises(ValueError, match="product_id must be non-negative"):
            QueryTable(ids=[[0]], lengths=[1], product_ids=[-1])
        with pytest.raises(ValueError, match="slots past"):
            QueryTable(ids=[[1, 7]], lengths=[1], product_ids=[0])
        with pytest.raises(ValueError, match="shapes"):
            QueryTable(ids=[[1, 7]], lengths=[2, 2], product_ids=[0])
        with pytest.raises(ValueError, match="shapes"):
            QueryTable(ids=[1, 7], lengths=[2], product_ids=[0])

    def test_non_integer_ids_rejected(self):
        # each was truncated to integers: ids [[1, 2, 0]], and [[1, 0]] with product 0
        with pytest.raises(ValueError, match="trigram ids must be integers, got dtype float64"):
            QueryTable([[1.7, 2.2, 0.0]], [2], [0])
        with pytest.raises(ValueError, match="trigram ids must be integers, got dtype float64"):
            QueryTable(np.array([[1.9, 0.0]]), [1], [0])
        with pytest.raises(ValueError, match="product ids must be integers, got dtype float64"):
            QueryTable(np.array([[1, 0]]), [1], [0.5])
        with pytest.raises(ValueError, match="lengths must be integers"):
            QueryTable([[1, 0]], [1.0], [0])
        with pytest.raises(ValueError, match="integers"):
            QueryTable(np.array([[np.nan]]), [1], [0])  # refused, not cast with a warning
        empty = QueryTable(np.zeros((0, 3)), [], [])  # np.asarray([]) is float64: still loads
        assert len(empty) == 0 and empty.ids.dtype == np.int64
        with pytest.raises(OverflowError):  # an int past int64, not a misnamed float dtype
            QueryTable([[1, 2**63]], [2], [0])
        # np.asarray makes these uint64, which wrapped to -2**63 in the int64 copy
        with pytest.raises(OverflowError):
            QueryTable([[1]], [1], [2**63])
        with pytest.raises(OverflowError, match="product ids must fit int64"):
            QueryTable([[1]], [1], np.array([2**63], dtype=np.uint64))
        assert QueryTable([[1]], [1], np.array([2**63 - 1], dtype=np.uint64)).product_ids[0] == 2**63 - 1

    def test_of_query_is_a_one_row_table(self):
        t = QueryTable.of_query([4, 0, 4])
        assert t == QueryTable([[4, 0, 4]], [3], [0])
        assert QueryTable.of_query(np.array([7], dtype=np.uint8)) == QueryTable([[7]], [1], [0])
        with pytest.raises(ValueError, match="1-d"):
            QueryTable.of_query([[4, 0]])
        with pytest.raises(ValueError, match="at least one trigram"):
            QueryTable.of_query([])

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
        t = QueryTable([[3, 1], [2, 0], [7, 7]], [2, 1, 2], [0, 1, 2])
        swapped = t.take([2, 0])
        assert swapped.ids.tolist() == [[7, 7], [3, 1]]
        assert swapped.product_ids.tolist() == [2, 0]
        assert (t == t.take([0, 1, 2])) is True
        assert (t == swapped) is False
        assert t != "not a table"
        assert len(t.take([])) == 0
        empty = QueryTable(np.zeros((0, 4), dtype=np.int64), [], [])
        assert len(empty) == 0 and empty.width == 4 and empty.id_bound == 0
        assert empty != QueryTable(np.zeros((0, 3), dtype=np.int64), [], [])


_EDGE_DTYPES = [np.uint16, np.uint32, np.int32, np.int64, np.uint64]


def fitting(edges, dtype):
    """The (u, v) rows of edges whose ids dtype can hold, as a dtype array."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return edges[(edges <= np.iinfo(dtype).max).all(axis=1)].astype(dtype)


def int64_csr(n, edges):
    """QueryGraph's CSR arrays from int64 keys q * n + w, whatever n is."""
    u, v = np.asarray(edges, dtype=np.int64).T
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    return np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))]), keys % n


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

    # keys q * n + w fit uint32 up to n = 2**16 and take uint64 from n = 2**16 + 1;
    # the edges come in any integer dtype that holds their ids, and are not widened
    # (keys multiplied in 32 bits would make (0, 2**16) a false duplicate at 2**16 + 1)
    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    def test_csr_at_the_key_dtype_boundary(self, n):
        for dtype in _EDGE_DTYPES:
            edges = fitting([(n - 2, n - 1), (0, n - 1), (5, 7), (0, 1), (1, n - 1)], dtype)
            g = QueryGraph(n, edges)
            indptr, indices = int64_csr(n, edges)
            assert g.indices.dtype == g.indptr.dtype == np.int64
            assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)
            assert g.neighbors(n - 1).tolist() == sorted(u for u, v in edges.tolist() if v == n - 1)
            assert g.edges().tolist() == sorted(edges.tolist())
            assert len(edges) == (2 if dtype == np.uint16 and n > 2**16 else 5), dtype
        assert QueryGraph(n, edges).neighbors(n - 1).tolist() == [0, 1, n - 2]

    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    def test_messages_at_the_key_dtype_boundary(self, n):
        last, tried = n - 1, 0
        for edges, message in (
            ([(0, last), (1, last), (0, last)], rf"^duplicate edge \(0, {last}\)$"),
            ([(0, 1), (last, last)], rf"^self-loop at query {last}$"),
            ([(last, 0)], rf"^edge \({last}, 0\) violates u < v ordering$"),
            ([(0, n)], rf"^edge \(0, {n}\) has a query id out of range$"),
        ):
            for dtype in _EDGE_DTYPES:  # each dtype that holds the edge's ids
                if len(fitting(edges, dtype)) == len(edges):
                    tried += 1
                    with pytest.raises(ValueError, match=message):
                        QueryGraph(n, fitting(edges, dtype))
        assert tried == (4 * 4 + 3 if n == 2**16 else 4 * 4)

    @pytest.mark.parametrize(
        "edges",
        [[(0.7, 2)], np.array([(0.7, 2)]), [(0.0, 2.0)], [("0", "2")], np.array([("0", "2")]),
         [(True, False)], np.ones((1, 2), dtype=bool), [(0, 2**64)]],
        ids=["float_list", "float_array", "integral_floats", "str_list", "str_array",
             "bool_list", "bool_array", "past_uint64"],
    )
    def test_non_integer_edges_rejected(self, edges):
        with pytest.raises(ValueError, match=r"^edge query ids must be integers, got dtype"):
            QueryGraph(3, edges)

    def test_python_int_lists_and_empty_graphs_build(self):
        g = QueryGraph(3, [[0, 2], [1, 2]])
        assert g.edges().tolist() == [[0, 2], [1, 2]] and g.neighbors(2).tolist() == [0, 1]
        for n, edges in ((3, []), (3, [[]]), (0, []), (3, np.empty((0, 2))),
                         (2**16 + 1, np.empty((0, 2), dtype=np.uint32))):
            g = QueryGraph(n, edges)
            assert g.n_edges == 0 and g.indptr.tolist() == [0] * (n + 1)
            assert g.indices.dtype == g.indptr.dtype == np.int64
            assert g.edges().shape == (0, 2)

    def test_edges_of_a_row_range(self):
        n = 12
        rng = rng_stream(7)
        pairs = sorted({(u, v) for u, v in rng.integers(n, size=(40, 2)).tolist() if u < v})
        g = QueryGraph(n, pairs)
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                want = [[u, v] for u, v in pairs if lo <= u < hi]
                assert g.edges(lo, hi).tolist() == want
                assert g.edges(lo, hi).shape == (len(want), 2)
        assert g.edges(0, n).tolist() == g.edges().tolist() == [list(e) for e in pairs]


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
