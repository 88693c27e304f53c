import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from queryemb.baseline import (
    HASH_DIM,
    TrigramHashStore,
    bray_curtis,
    bucket_of,
    hash_query,
    knn,
    splitmix64,
    splitmix64_array,
)
from queryemb.core import QueryTable, rng_stream


def _q(*ids):
    return list(ids)


def _table(queries):
    return QueryTable.from_rows(queries, [0] * len(queries), max(map(len, queries), default=1))


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
        want = np.stack([hash_query(r, n_buckets) for r in rows])
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
        ranked = store.rank(queries[2], exclude_id=2)
        assert 2 not in ranked
        assert ranked.size == 9

    def test_custom_bucket_width(self):
        queries = [_q(1, 2), _q(3)]
        store = TrigramHashStore(_table(queries), n_buckets=7)
        assert store.matrix.shape == (2, 7)
        with pytest.raises(ValueError, match="width"):
            store.distances(hash_query(_q(1), n_buckets=300))
