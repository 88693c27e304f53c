import numpy as np
import pytest
from conftest import query_table
from numpy.testing import assert_allclose, assert_array_equal

from queryemb.baseline import (
    HASH_DIM,
    QueryStore,
    TrigramHashStore,
    _counts,
    hash_query,
    splitmix64_array,
)
from queryemb.core import QueryTable, rng_stream
from queryemb.embedder import AttentionModel, embed_query
from queryemb.evaluation import EmbeddingStore, reformulate
from test_embedder import BAD_RAW_QUERIES

# Scalar references for the array baseline, also used by other test modules.


def splitmix64(x: int) -> int:
    """splitmix64 of one integer, taken modulo 2**64.

    Equivalent to the first output of a splitmix64 stream seeded with x,
    e.g. splitmix64(0) == 0xE220A8397B1DCDAF.
    """
    return int(splitmix64_array([int(x) & ((1 << 64) - 1)])[0])


def bucket_of(trigram_id: int, n_buckets: int = HASH_DIM) -> int:
    return splitmix64(trigram_id) % n_buckets


def hash_counts(row, n_buckets: int = HASH_DIM) -> np.ndarray:
    """The float64 bucket counts of one query, one bucket_of per trigram."""
    out = np.zeros(n_buckets)
    for t in row:
        out[bucket_of(int(t), n_buckets)] += 1.0
    return out


def bray_curtis(a, b) -> float:
    """sum |a_i - b_i| / sum (a_i + b_i); defined only when some count is positive."""
    va, vb = (_counts(v).astype(np.float64) for v in (a, b))  # unsigned counts would wrap
    if va.shape != vb.shape:
        raise ValueError(f"shape mismatch: {va.shape} vs {vb.shape}")
    denom = float(np.sum(va + vb))
    if denom == 0.0:
        raise ValueError("Bray-Curtis undefined for two all-zero vectors")
    return float(np.sum(np.abs(va - vb)) / denom)


def knn(store: TrigramHashStore, probe, k: int) -> list[int]:
    """ids of the k nearest stored queries; ties broken by ascending id."""
    if len(store) == 0:
        raise ValueError("store is empty")
    if k > len(store):
        raise ValueError(f"k={k} exceeds store size {len(store)}")
    return [int(i) for i in store.rank(probe, k)]


def _q(*ids):
    return list(ids)


def _table(queries):
    return query_table(queries, [0] * len(queries), max(map(len, queries), default=1))


def _full_sort(ids, keys, count, exclude_id=None):
    """Reference ranking: one lexsort of every id by (key, id), then the prefix."""
    ranked = ids[np.lexsort((ids, keys))]
    if exclude_id is not None:
        ranked = ranked[ranked != exclude_id]
    return ranked[:count]


class TestSplitmix64:
    # Frozen first outputs of the reference splitmix64 generator seeded
    # with 0 and 1 (Vigna's reference implementation).
    VECTORS = {
        0: 0xE220A8397B1DCDAF,
        1: 0x910A2DEC89025CC1,
    }

    def test_reference_vectors(self):
        for x, want in self.VECTORS.items():
            assert splitmix64(x) == want, hex(splitmix64(x))

    def test_against_inline_reference(self):
        # independent transcription of the published constants
        def ref(x):
            m = (1 << 64) - 1
            z = (x + 0x9E3779B97F4A7C15) & m
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
            return (z ^ (z >> 31)) & m

        for x in (0, 1, 2, 299, 1234567, 2**64 - 1):
            assert splitmix64(x) == ref(x)
        xs = (0, 1, 2, 299, 1234567, 2**63 - 1)
        out = splitmix64_array(np.array(xs, dtype=np.int64))
        assert out.dtype == np.uint64
        assert [int(v) for v in out] == [ref(x) for x in xs]

    def test_output_in_64_bits(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_bucket_of_is_mod_reduction(self):
        for t in (0, 7, 299, 12345):
            assert bucket_of(t) == splitmix64(t) % HASH_DIM
            assert bucket_of(t, 7) == splitmix64(t) % 7


class TestHashQuery:
    def test_count_conservation(self):
        h = hash_query(_q(3, 14, 159))
        assert h.sum() == 3.0
        assert h.shape == (HASH_DIM,)

    def test_identical_queries_identical_vectors(self):
        a = hash_query(_q(5, 6, 7))
        b = hash_query(_q(5, 6, 7))
        assert np.array_equal(a, b)

    def test_bag_semantics_under_permutation(self):
        a = hash_query(_q(9, 2, 41, 2))
        b = hash_query(_q(2, 41, 9, 2))
        assert np.array_equal(a, b)

    def test_repeated_trigram_counts_twice(self):
        h = hash_query(_q(11, 11))
        assert h[bucket_of(11)] == 2.0
        assert h.sum() == 2.0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            bray_curtis(np.array([1.0, -1.0]), hash_query(_q(1), n_buckets=2))

    @pytest.mark.parametrize("q, message", BAD_RAW_QUERIES)
    def test_bad_raw_queries_rejected_as_embed_query_rejects_them(self, q, message):
        store = TrigramHashStore(_table([_q(1, 2), _q(3)]))
        with pytest.raises(ValueError, match=message):
            hash_query(q)
        with pytest.raises(ValueError, match=message):
            store.rank(q, 1)
        with pytest.raises(ValueError, match=message):
            reformulate(store, q, 1)

    @pytest.mark.parametrize("q, message", [
        ([2**63], "too large"),  # np.asarray: uint64
        ([1, 2**63], "too large"),  # np.asarray: float64
        (np.array([2**64 - 1], dtype=np.uint64), "trigram ids must fit int64"),
    ])
    def test_raw_id_past_int64_overflows_as_a_table_row_does(self, q, message):
        # a uint64 id wrapped to a negative one and was refused as "non-negative"
        store = TrigramHashStore(_table([_q(1, 2), _q(3)]))
        model = AttentionModel(np.zeros((4, 2)), np.zeros((2, 2)))
        for one_query in (lambda q: QueryTable([q], [len(q)], [0]), hash_query,
                          lambda q: store.rank(q, 1), lambda q: embed_query(model, q)):
            with pytest.raises(OverflowError, match=message):
                one_query(q)

    @pytest.mark.parametrize("n_buckets", [0, -3])
    def test_bucket_count_below_one_rejected(self, n_buckets):
        with pytest.raises(ValueError, match="n_buckets"):
            hash_query(_q(1), n_buckets)
        with pytest.raises(ValueError, match="n_buckets"):
            TrigramHashStore(_table([_q(1)]), n_buckets=n_buckets)


class TestBrayCurtis:
    def test_identical_vectors_zero(self):
        v = np.array([2.0, 0.0, 1.0])
        assert bray_curtis(v, v) == 0.0

    def test_disjoint_supports_one(self):
        assert bray_curtis([1.0, 0.0, 3.0], [0.0, 2.0, 0.0]) == 1.0

    def test_hand_example(self):
        assert_allclose(bray_curtis([1.0, 0.0, 2.0], [1.0, 1.0, 0.0]), 3.0 / 5.0, rtol=1e-15)

    def test_symmetry_and_bounds(self):
        rng = rng_stream(40)
        for _ in range(50):
            a = rng.integers(0, 5, size=12).astype(float)
            b = rng.integers(0, 5, size=12).astype(float)
            if a.sum() + b.sum() == 0:
                continue
            d_ab = bray_curtis(a, b)
            assert d_ab == bray_curtis(b, a)
            assert 0.0 <= d_ab <= 1.0
            assert (d_ab == 0.0) == bool(np.array_equal(a, b))

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            bray_curtis(np.zeros(3), np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bray_curtis(np.ones(3), np.ones(4))


def _random_table(seed, n=60, vocab=40, width=6):
    """Rows with repeated trigram ids; few buckets make distinct ids collide."""
    rng = rng_stream(seed)
    rows = [rng.integers(0, vocab, size=rng.integers(1, width + 1)).tolist() for _ in range(n)]
    return rows, _table(rows)


class TestSparseStore:
    @pytest.mark.parametrize("n_buckets", [7, HASH_DIM])
    def test_matrix_is_stack_of_hash_query(self, n_buckets):
        rows, table = _random_table(48)
        store = TrigramHashStore(table, n_buckets=n_buckets)
        want = np.stack([hash_counts(r, n_buckets) for r in rows])
        assert_array_equal(np.stack([hash_query(r, n_buckets) for r in rows]), want)
        assert_array_equal(store.matrix, want)
        assert_array_equal(store.totals, want.sum(axis=1))

    @pytest.mark.parametrize("n_buckets", [7, HASH_DIM])
    def test_distances_equal_dense_bray_curtis_bitwise(self, n_buckets):
        rows, table = _random_table(49)
        store = TrigramHashStore(table, n_buckets=n_buckets)
        m = store.matrix
        rng = rng_stream(50)
        probes = rows[:5] + [rng.integers(0, 60, size=k).tolist() for k in (1, 3, 6, 9)]
        for probe in probes:
            pv = hash_query(probe, n_buckets)
            dense = np.abs(m - pv).sum(axis=1) / (m + pv).sum(axis=1)
            assert_array_equal(store.distances(pv), dense)

    def test_negative_probe_counts_rejected(self):
        store = TrigramHashStore(_table([_q(1, 2)]), n_buckets=7)
        with pytest.raises(ValueError, match="non-negative"):
            store.distances(-np.ones(7))
        with pytest.raises(ValueError, match="non-negative"):
            store.distances(np.array([0, 0, -1, 0, 0, 0, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probe_counts_rejected(self, bad):
        # NaN passed the sign check and gave all-NaN keys, ranked with a warning only
        store = TrigramHashStore(_table([_q(1, 2), _q(3)]), n_buckets=7)
        pv = hash_query(_q(1), 7)
        pv[4] = bad
        with pytest.raises(ValueError, match="finite"):
            store.distances(pv)
        with pytest.raises(ValueError, match="finite"):
            bray_curtis(pv, hash_query(_q(2), 7))

    @pytest.mark.parametrize("n_buckets", [7, HASH_DIM])
    def test_encode_rows_are_hash_query(self, n_buckets):
        rows, table = _random_table(51)
        store = TrigramHashStore(table.take(range(20)), n_buckets=n_buckets)
        encoded = store.encode(table)
        assert encoded.shape == (len(table), n_buckets) and encoded.dtype.kind == "u"
        for row, vector in zip(rows, encoded):
            pv = hash_counts(row, n_buckets)
            assert_array_equal(vector, pv)
            assert_array_equal(hash_query(row, n_buckets), pv)
            assert_array_equal(store.distances(vector), store.distances(pv))

    def test_counts_are_bucket_major_and_small(self):
        _, table = _random_table(52)
        store = TrigramHashStore(table)
        assert store.counts.shape == (HASH_DIM, len(table)) and store.counts.flags.c_contiguous
        assert store.counts.dtype == np.uint8
        assert np.shares_memory(store.matrix, store.counts)


def _dense_bray_curtis(store, pv):
    m = store.matrix.astype(np.float64)
    return np.abs(m - pv).sum(axis=1) / (m + pv).sum(axis=1)


class TestCountTypes:
    """Counts are held in the smallest unsigned type; no count or sum wraps."""

    def test_count_past_uint8_is_kept(self):
        long_query = list(range(300))
        table = query_table([long_query, _q(1, 2)], [0, 0], 300)
        store = TrigramHashStore(table, n_buckets=1)
        assert store.counts.dtype == np.uint16
        assert store.matrix[:, 0].tolist() == [300, 2]
        assert store.encode(table)[:, 0].tolist() == [300, 2]
        assert hash_query(long_query, 1)[0] == 300.0
        for pv in (np.array([300.0]), np.array([2], dtype=np.uint8), store.encode(table)[0]):
            assert_array_equal(store.distances(pv), _dense_bray_curtis(store, pv))

    def test_sum_of_mins_past_the_count_type_does_not_wrap(self):
        # 300 trigrams over 7 buckets: every count fits uint8, their sum does not
        table = query_table([list(range(300)), _q(1, 2)], [0, 0], 300)
        store = TrigramHashStore(table, n_buckets=7)
        assert store.counts.dtype == np.uint8
        pv = store.encode(table)[0]
        assert pv.dtype == np.uint8 and pv.sum() == 300
        assert store.distances(pv)[0] == 0.0
        assert_array_equal(store.distances(pv), _dense_bray_curtis(store, pv.astype(float)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64, np.float64])
    def test_probe_count_past_the_store_type_does_not_wrap(self, dtype):
        _, table = _random_table(53)
        store = TrigramHashStore(table, n_buckets=7)
        assert store.counts.dtype == np.uint8
        for big in (255, 256, 300, 1000):
            if big > np.iinfo(np.uint8).max and dtype is np.uint8:
                continue
            pv = np.zeros(7, dtype=dtype)
            pv[[0, 3]] = big, 2
            want = _dense_bray_curtis(store, pv.astype(np.float64))
            assert_array_equal(store.distances(pv), want)
            # sums of 255-capped mins past 255 must not wrap either
            pv[:] = big
            assert_array_equal(store.distances(pv), _dense_bray_curtis(store, pv.astype(float)))

    def test_fractional_probe_counts_promote_to_float(self):
        _, table = _random_table(54)
        store = TrigramHashStore(table, n_buckets=7)
        rng = rng_stream(55)
        for _ in range(10):
            pv = rng.random(7) * rng.integers(1, 4, size=7)
            got = store.distances(pv)
            assert got.dtype == np.float64
            assert_allclose(got, _dense_bray_curtis(store, pv), rtol=1e-15, atol=0)
            assert_allclose(store.distances(pv.astype(np.float32)),
                            _dense_bray_curtis(store, pv.astype(np.float32).astype(float)),
                            rtol=1e-15, atol=0)


class TestKnn:
    def _random_store(self, seed, n=50, vocab=400):
        rng = rng_stream(seed)
        queries = [
            _q(*rng.integers(0, vocab, size=rng.integers(1, 6)).tolist()) for _ in range(n)
        ]
        return queries, TrigramHashStore(_table(queries))

    def test_probe_in_store_is_own_nearest(self):
        queries, store = self._random_store(41)
        assert knn(store, queries[17], 1) == [17] or bray_curtis(
            hash_query(queries[knn(store, queries[17], 1)[0]]), hash_query(queries[17])
        ) == 0.0

    def test_k_equals_store_size_is_full_sort(self):
        queries, store = self._random_store(42, n=20)
        probe = queries[3]
        out = knn(store, probe, 20)
        assert sorted(out) == list(range(20))
        pv = hash_query(probe)
        dists = [bray_curtis(hash_query(q), pv) for q in queries]
        oracle = [i for _, i in sorted((d, i) for i, d in enumerate(dists))]
        assert out == oracle

    def test_matches_brute_force_oracle(self):
        queries, store = self._random_store(43)
        rng = rng_stream(44)
        for _ in range(10):
            probe = _q(*rng.integers(0, 400, size=4).tolist())
            pv = hash_query(probe)
            dists = [bray_curtis(hash_query(q), pv) for q in queries]
            oracle = [i for _, i in sorted((d, i) for i, d in enumerate(dists))][:7]
            assert knn(store, probe, 7) == oracle

    def test_tie_break_by_ascending_id(self):
        # two stored queries identical to the probe -> both at distance 0,
        # lower id first
        queries = [_q(8, 9), _q(1), _q(8, 9)]
        store = TrigramHashStore(_table(queries))
        assert knn(store, _q(8, 9), 2) == [0, 2]

    def test_insertion_order_invariance(self):
        rng = rng_stream(45)
        queries = [_q(*rng.integers(0, 99, size=3).tolist()) for _ in range(15)]
        ids = list(range(15))
        perm = rng.permutation(15).tolist()
        store_a = TrigramHashStore(_table(queries), ids)
        store_b = TrigramHashStore(_table([queries[i] for i in perm]), [ids[i] for i in perm])
        probe = _q(4, 4, 17)
        assert knn(store_a, probe, 15) == knn(store_b, probe, 15)

    def test_k_too_large(self):
        queries, store = self._random_store(46, n=5)
        with pytest.raises(ValueError, match="exceeds"):
            knn(store, queries[0], 6)

    def test_empty_store(self):
        store = TrigramHashStore(_table([]))
        with pytest.raises(ValueError, match="empty"):
            knn(store, _q(1), 1)

    def test_rank_exclusion(self):
        queries, store = self._random_store(47, n=10)
        ranked = store.rank(queries[2], 9, exclude_id=2)
        assert 2 not in ranked
        assert ranked.size == 9
        assert_array_equal(ranked, _full_sort(store.ids, store.distances(
            hash_query(queries[2])), 9, 2))

    def test_rank_hashes_raw_probes_to_integer_counts(self, monkeypatch):
        # counts past 255 widen the store to uint16; a probe repeats one trigram 300 times
        rows = [[7] * 300, _q(7, 8, 9), _q(1, 2, 3, 4), _q(8)] + [[8] * 40] * 3
        store = TrigramHashStore(_table(rows), n_buckets=13)
        seen = []
        distances = store.distances
        monkeypatch.setattr(store, "keys", lambda pv: seen.append(pv) or distances(pv))
        for probe in rows + [[7] * 299 + [8]]:
            ranked = store.rank(probe, 5)
            # the float64 vector of hash_query gives the same distances, bit for bit
            want = store.distances(hash_query(probe, 13))
            assert seen[-1].dtype.kind == "u"
            assert_array_equal(distances(seen[-1]), want)
            assert_array_equal(ranked, _full_sort(store.ids, want, 5))

    def test_custom_bucket_width(self):
        queries = [_q(1, 2), _q(3)]
        store = TrigramHashStore(_table(queries), n_buckets=7)
        assert store.matrix.shape == (2, 7)
        with pytest.raises(ValueError, match="width"):
            store.distances(hash_query(_q(1), n_buckets=300))


class TestTopCountSelection:
    """The partial selection returns exactly the full sort's first count ids."""

    def _store(self, ids):
        return QueryStore(_table([_q(0)] * len(ids)), ids)

    def _exclusions(self, ids, keys, count):
        """None, an id inside the top count, one outside it and one not stored."""
        order = _full_sort(ids, keys, ids.size)
        inside = [int(order[min(count, ids.size) - 1])]
        outside = [int(order[count + 1])] if count + 1 < ids.size else []
        return [None, *inside, *outside, int(ids.max()) + 1]

    def _check_raw(self, ids, keys):
        store = self._store(ids)
        n = ids.size
        for count in sorted({1, 2, 5, n - 1, n} - {0}):
            for exclude in self._exclusions(ids, keys, count):
                got = store._ranked(keys, count, exclude)
                assert_array_equal(got, _full_sort(ids, keys, count, exclude))
                assert got.size == min(count, n - (exclude in ids))

    def test_heavy_ties_on_raw_keys(self):
        rng = rng_stream(60)
        for n_values in (3, 4):
            for _ in range(20):
                n = int(rng.integers(2, 40))
                ids = rng.permutation(3 * n)[:n].astype(np.int64)
                keys = rng.integers(0, n_values, size=n).astype(np.float64)
                self._check_raw(ids, keys)

    def test_signed_zero_keys_tie(self):
        # -(a @ z) gives -0.0 where the similarity is 0.0; both tie, id decides
        ids = np.array([4, 1, 3, 0, 2], dtype=np.int64)
        keys = np.array([0.0, -0.0, 0.0, -0.0, -1.0])
        self._check_raw(ids, keys)
        assert self._store(ids)._ranked(keys, 3, None).tolist() == [2, 0, 1]

    def test_nan_keys_sort_last(self):
        rng = rng_stream(61)
        for n_finite in (0, 1, 3, 8, 20):
            ids = rng.permutation(25).astype(np.int64)
            keys = np.full(25, np.nan)
            keys[rng.permutation(25)[:n_finite]] = rng.integers(0, 3, size=n_finite)
            self._check_raw(ids, keys)
        # fewer finite keys than count: the NaN-keyed ids fill the tail by id
        ids = np.arange(6, dtype=np.int64)
        keys = np.array([np.nan, 2.0, np.nan, 1.0, np.nan, np.nan])
        assert self._store(ids)._ranked(keys, 4, None).tolist() == [3, 1, 0, 2]

    def _check_store(self, store, probes, keys_of):
        for probe in probes:
            keys = keys_of(probe)
            # the stores are built so that most keys are shared
            assert np.unique(keys).size < keys.size / 2
            for count in (1, 5, len(store) - 1, len(store)):
                for exclude in self._exclusions(store.ids, keys, count):
                    assert_array_equal(store.rank(probe, count, exclude),
                                       _full_sort(store.ids, keys, count, exclude))

    def test_hash_store_matches_full_sort(self):
        rng = rng_stream(62)
        # a small vocabulary makes many rows hash to equal distances
        rows = [_q(*rng.integers(0, 6, size=rng.integers(1, 4)).tolist()) for _ in range(40)]
        store = TrigramHashStore(_table(rows), rng.permutation(100)[:40].tolist())
        self._check_store(store, rows[:10], lambda p: store.distances(hash_query(p)))

    def test_embedding_store_matches_full_sort(self):
        rng = rng_stream(63)
        # integer embeddings and zero attention logits: many equal dot products
        model = AttentionModel(rng.integers(-1, 2, size=(8, 3)).astype(np.float64),
                               np.zeros((3, 3)))
        rows = [_q(*rng.integers(0, 8, size=rng.integers(1, 4)).tolist()) for _ in range(40)]
        store = EmbeddingStore(model, _table(rows), rng.permutation(100)[:40].tolist())
        self._check_store(store, rows[:10], lambda p: -(store.matrix @ embed_query(model, p)))

    def test_duplicate_ids_rejected(self):
        # one exclusion would otherwise drop every row stored under the id
        with pytest.raises(ValueError, match="unique"):
            TrigramHashStore(_table([_q(1), _q(2), _q(3)]), ids=[5, 5, 6])

    def test_count_below_one_rejected(self):
        queries = _table([_q(1), _q(2), _q(3)])
        store = TrigramHashStore(queries)
        for count in (0, -1):
            with pytest.raises(ValueError, match="count must be at least 1"):
                store.rank(_q(1), count)
            with pytest.raises(ValueError, match="count must be at least 1"):
                reformulate(store, _q(1), count)
            with pytest.raises(ValueError, match="count must be at least 1"):
                reformulate(store, 0, count, queries=queries)
            with pytest.raises(ValueError, match="count must be at least 1"):
                knn(store, _q(1), count)


class TestStoreIds:
    """Store ids are integers that fit int64, refused rather than cast."""

    @pytest.mark.parametrize("ids, error, message", [
        ([0.5, 1.7, 2.2, 3.9], ValueError, "store ids must be integers"),
        (np.array([0.0, 1.0, 2.0, 3.0]), ValueError, "store ids must be integers"),
        (["0", "1", "2", "3"], ValueError, "store ids must be integers"),
        ([0, 1, 2, 2**63], OverflowError, None),
        ([2**63, 2**63 + 1, 2**63 + 2, 2**63 + 3], OverflowError, None),  # np.asarray: uint64
        (np.arange(4, dtype=np.uint64) + np.uint64(2**63), OverflowError, None),
        ([0, 1, 2, -(2**63) - 1], OverflowError, None),
    ])
    def test_bad_ids_rejected(self, ids, error, message):
        queries = _table([_q(1), _q(2), _q(3), _q(4)])
        for make in (TrigramHashStore, QueryStore):
            with pytest.raises(error, match=message):
                make(queries, ids)

    def test_integer_ids_of_any_type_kept(self):
        queries = _table([_q(1), _q(2), _q(3)])
        for ids in ([7, 3, 5], np.array([7, 3, 5], dtype=np.uint8), (np.int32(7), 3, 5),
                    [2**63 - 1, 3, 5]):
            store = TrigramHashStore(queries, ids)
            assert store.ids.dtype == np.int64
            assert store.ids.tolist() == [int(i) for i in ids]
            assert store.rank(_q(2), 1).tolist() == [3]


class TestStoreMembership:
    """`in` answers by binary search over the sorted ids, as a scan would."""

    def test_matches_scan(self):
        rng = rng_stream(64)
        ids = rng.permutation(200)[:60].astype(np.int64) - 20  # some stored ids are negative
        store = QueryStore(_table([_q(0)] * ids.size), ids.tolist())
        assert (ids < 0).any()
        for q in range(-30, 190):
            for value in (q, np.int64(q), float(q), q + 0.5):
                assert (value in store) == bool(np.any(ids == value)), value
        for value in (int(ids.max()) + 1, int(ids.min()) - 1, 2**70, -(2**70), float("nan")):
            assert value not in store

    def test_float_equal_to_a_stored_id_is_a_member(self):
        store = QueryStore(_table([_q(0)] * 3), [7, 3, 5])
        assert 3.0 in store and np.int64(5) in store
        assert 3.5 not in store and 4 not in store and -3 not in store
