import dataclasses
from itertools import combinations

import numpy as np
import pytest
from conftest import query_table
from numpy.testing import assert_allclose, assert_array_equal

from queryemb.baseline import TrigramHashStore
from queryemb import evaluation
from queryemb.cli import split_query_ids
from queryemb.core import GeneratorConfig, rng_stream
from queryemb.embedder import AttentionModel, embed_query, init_model
from queryemb.evaluation import (
    EmbeddingStore,
    EvalReport,
    evaluate,
    f1,
    format_summary,
    oracle_best,
    reformulate,
    top_products,
    write_eval_csv,
)
from queryemb.genmodel import default_benchmark_config, generate_dataset
from test_baseline import bray_curtis, hash_counts
from test_embedder import _ref_forward


def _q(*ids):
    return list(ids)


def _table(rows):
    return query_table(rows, [0] * len(rows), max(map(len, rows), default=1))


def metrics_of(q, refs, pm, k):
    """evaluate's precision and recall of probe q whose reformulations are exactly
    the distinct ids refs: the store holds only them, and evaluate asks for all."""
    queries = _table([_q(0)] * (max(q, *refs) + 1))
    store = TrigramHashStore(queries.take(refs), refs)
    row = evaluate(store, queries, pm, [q], k, n_reformulations=len(refs)).rows[0]
    assert sorted(row.reformulations) == sorted(refs)
    return row.precision, row.recall


class TestTopProducts:
    def test_sorted_by_count_then_id(self):
        purchases = [(5, 2), (1, 9), (7, 2), (3, 9)]
        assert top_products(purchases, 3) == [1, 3, 5]

    def test_fewer_than_k_uses_all(self):
        assert top_products([(4, 1)], 20) == [4]

    def test_numpy_integers_accepted(self):
        assert top_products([(np.int64(5), np.int32(2)), (np.uint8(1), 9)], 2) == [1, 5]

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            top_products([(1, 1)], 0)


_NOT_INTEGERS = "must hold an integer product_id and count"

# purchase maps the eval must reject wherever it reads them; before the checks,
# the first scored precision 0.0 and oracle_best counted the second's purchases
_BAD_PURCHASES = (
    ({0: [(-2, 1)], 1: [(-2, 1)], 2: [(4, 1)]}, "product_id -2 must be non-negative"),
    ({0: [(3, 0)], 1: [(3, 0)], 2: [(4, 1)]}, "purchase count 0 must be >= 1"),
    # before their checks, 1.5 was truncated to product 1 (precision 1.0, oracle
    # (0.2, 1.0)), the string raised TypeError and 2**63 OverflowError
    pytest.param({0: [(1.5, 1)], 1: [(1, 1)], 2: [(4, 1)]}, _NOT_INTEGERS, id="float-id"),
    pytest.param({0: [("1", 1)], 1: [(1, 1)], 2: [(4, 1)]}, _NOT_INTEGERS, id="str-id"),
    pytest.param({0: [(1, 1.5)], 1: [(1, 1)], 2: [(4, 1)]}, _NOT_INTEGERS, id="float-count"),
    pytest.param(
        {0: [(2**63, 1)], 1: [(2**63, 1)], 2: [(4, 1)]},
        "product_id 9223372036854775808 does not fit int64",
        id="id-past-int64",
    ),
)


class TestBadPurchasesRejected:
    @pytest.mark.parametrize("pm, message", _BAD_PURCHASES)
    def test_evaluate(self, pm, message):
        queries = _table([_q(1), _q(1), _q(2)])
        with pytest.raises(ValueError, match=message):
            evaluate(TrigramHashStore(queries), queries, pm, [0], k=20, n_reformulations=2)

    @pytest.mark.parametrize("pm, message", _BAD_PURCHASES)
    def test_oracle_best(self, pm, message):
        with pytest.raises(ValueError, match=message):
            oracle_best([0], [1, 2], pm, 20)

    @pytest.mark.parametrize("pm, message", _BAD_PURCHASES)
    def test_one_probe_metrics(self, pm, message):
        with pytest.raises(ValueError, match=message):
            metrics_of(0, [1], pm, 20)


class TestNonIntegerIdsRejected:
    """Probe and candidate ids must be integers; before the check, probe 0.7
    was scored as query 0, np.float64(1.9) and True as query 1, and candidate
    1.5 as 1."""

    PM = {0: [(1, 1)], 1: [(1, 1)], 2: [(4, 1)]}

    @pytest.mark.parametrize("probes", [[0.7], [np.float64(1.9)], [True], [2, 0.7]],
                             ids=["float", "numpy-float", "bool", "int-then-float"])
    def test_evaluate(self, probes):
        queries = _table([_q(1), _q(1), _q(2)])
        with pytest.raises(ValueError, match="probe ids must be integers"):
            evaluate(TrigramHashStore(queries), queries, self.PM, probes, n_reformulations=1)

    @pytest.mark.parametrize("probes, candidates, what", [
        ([0.7], [1, 2], "probe ids"),
        ([np.float64(1.9)], [0, 2], "probe ids"),
        ([True], [0, 2], "probe ids"),
        ([0], [1.5, 2], "candidate ids"),
        ([0], np.array([1.0, 2.0]), "candidate ids"),
    ], ids=["float", "numpy-float", "bool", "float-candidate", "float-candidate-array"])
    def test_oracle_best(self, probes, candidates, what):
        with pytest.raises(ValueError, match=f"{what} must be integers"):
            oracle_best(probes, candidates, self.PM, 20)


class TestBoolBesideIntsRejected:
    """np.asarray([2, True]) is int64: evaluate scored True as query 1, and
    oracle_best took it as probe or candidate 1."""

    PM = TestNonIntegerIdsRejected.PM

    def test_evaluate(self):
        queries = _table([_q(1), _q(1), _q(2)])
        with pytest.raises(ValueError, match=r"^probe ids must be integers, got a bool$"):
            evaluate(TrigramHashStore(queries), queries, self.PM, [2, True], n_reformulations=1)

    @pytest.mark.parametrize("probes, candidates, what", [
        ([2, True], [0, 1], "probe ids"),
        ([0], [np.True_, 2], "candidate ids"),
    ])
    def test_oracle_best(self, probes, candidates, what):
        with pytest.raises(ValueError, match=rf"^{what} must be integers, got a bool$"):
            oracle_best(probes, candidates, self.PM, 20)


class TestQueryPrecision:
    def test_all_share_single_product(self):
        pm = {0: [(9, 1)], 1: [(9, 3)], 2: [(9, 1)], 3: [(9, 2)]}
        assert metrics_of(0, [1, 2, 3], pm, 20)[0] == 1.0

    def test_none_share(self):
        pm = {0: [(9, 1)], 1: [(8, 1)], 2: [(7, 1)]}
        assert metrics_of(0, [1, 2], pm, 20)[0] == 0.0

    def test_two_of_five(self):
        pm = {0: [(9, 1)], 1: [(9, 1)], 2: [(9, 1)], 3: [(8, 1)], 4: [(7, 1)], 5: [(6, 1)]}
        assert metrics_of(0, [1, 2, 3, 4, 5], pm, 20)[0] == 0.4

    def test_missing_purchases_count_as_nonrelevant(self):
        pm = {0: [(9, 1)], 1: [(9, 1)]}
        assert metrics_of(0, [1, 2], pm, 20)[0] == 0.5

    def test_respects_k_cutoff(self):
        # probe's product 9 is the probe's 2nd-ranked product: visible at
        # k=2, invisible at k=1
        pm = {0: [(3, 5), (9, 1)], 1: [(9, 4)]}
        assert metrics_of(0, [1], pm, 2)[0] == 1.0
        assert metrics_of(0, [1], pm, 1)[0] == 0.0

    def test_order_invariance(self):
        pm = {0: [(9, 1)], 1: [(9, 1)], 2: [(8, 1)], 3: [(9, 1)]}
        a = metrics_of(0, [1, 2, 3], pm, 20)[0]
        b = metrics_of(0, [3, 1, 2], pm, 20)[0]
        assert a == b


class TestProductRecall:
    def test_full_coverage(self):
        pm = {0: [(1, 2), (2, 1)], 1: [(1, 9)], 2: [(2, 9)]}
        assert metrics_of(0, [1, 2], pm, 20)[1] == 1.0

    def test_empty_union(self):
        pm = {0: [(1, 2)], 1: [(5, 1)], 2: []}
        assert metrics_of(0, [1, 2], pm, 20)[1] == 0.0

    def test_half_coverage(self):
        # probe has {a=1, b=2}; reformulations cover only {1}
        pm = {0: [(1, 3), (2, 3)], 1: [(1, 1)], 2: [(1, 5)]}
        assert metrics_of(0, [1, 2], pm, 20)[1] == 0.5

    def test_probe_without_purchases_rejected(self):
        with pytest.raises(ValueError, match="no purchases"):
            metrics_of(0, [1], {1: [(1, 1)]}, 20)

    def test_monotone_in_k_on_single_product_data(self):
        cfg = GeneratorConfig(
            dim=4, vocab_size=40, max_len=3, lam=2.0,
            alphas=(0.9, 0.9, 0.9), betas=(1.0, 1.0, 1.0), epsilon_p=0.6,
            n_products=4, n_queries=30, seed=50,
        )
        ds = generate_dataset(cfg)
        refs = [1, 2, 3, 4, 5]
        for probe in (0, 7, 19):
            values = [
                metrics_of(probe, refs, ds.purchase_map, k)[1]
                for k in (1, 2, 5, 20)
            ]
            assert values == sorted(values)


class TestF1:
    def test_equal_inputs(self):
        assert f1(0.5, 0.5) == 0.5

    def test_zero_recall(self):
        assert f1(1.0, 0.0) == 0.0
        assert f1(0.0, 0.0) == 0.0

    def test_hand_computed_value(self):
        assert abs(f1(0.659, 0.708) - 0.6826) < 5e-5

    def test_bounds_and_identity(self):
        rng = rng_stream(51)
        for _ in range(100):
            p, r = rng.random(), rng.random()
            v = f1(p, r)
            assert v <= 2 * min(p, r) + 1e-15
            assert f1(p, p) == pytest.approx(p)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            f1(1.2, 0.5)


def _orthogonal_model(n):
    """Model whose trigram vectors are scaled unit axes: query (i,) embeds to e_i."""
    return AttentionModel(np.eye(n), np.zeros((3, n)))


class TestReformulate:
    def test_store_of_duplicates_returns_them(self):
        # ids 1..5 duplicate the probe exactly; the rest are orthogonal
        queries = _table([_q(0)] + [_q(0)] * 5 + [_q(6), _q(7)])
        model = _orthogonal_model(8)
        store = EmbeddingStore(model, queries)
        assert reformulate(store, 0, 5, queries=queries) == [1, 2, 3, 4, 5]
        hstore = TrigramHashStore(queries)
        assert reformulate(hstore, 0, 5, queries=queries) == [1, 2, 3, 4, 5]

    def test_count_beyond_store_errors(self):
        queries = _table([_q(0), _q(1), _q(2)])
        store = EmbeddingStore(_orthogonal_model(3), queries)
        with pytest.raises(ValueError, match="candidates"):
            reformulate(store, 0, 3, queries=queries)

    def test_matches_exhaustive_scan_oracle(self):
        rng = rng_stream(52)
        model = init_model(60, 8, 3, seed=53)
        rows = [
            _q(*rng.integers(0, 60, size=rng.integers(1, 4)).tolist()) for _ in range(30)
        ]
        queries = _table(rows)
        store = EmbeddingStore(model, queries)
        for probe_id in (0, 11, 29):
            z = embed_query(model, rows[probe_id])
            scored = [
                (-float(embed_query(model, q) @ z), i)
                for i, q in enumerate(rows)
                if i != probe_id
            ]
            oracle = [i for _, i in sorted(scored)][:5]
            assert reformulate(store, probe_id, 5, queries=queries) == oracle

    def test_hash_store_scan_oracle(self):
        rng = rng_stream(54)
        rows = [
            _q(*rng.integers(0, 500, size=rng.integers(1, 4)).tolist()) for _ in range(30)
        ]
        queries = _table(rows)
        store = TrigramHashStore(queries)
        probe_id = 4
        pv = hash_counts(rows[probe_id])
        scored = [
            (bray_curtis(hash_counts(q), pv), i)
            for i, q in enumerate(rows)
            if i != probe_id
        ]
        oracle = [i for _, i in sorted(scored)][:5]
        assert reformulate(store, probe_id, 5, queries=queries) == oracle

    def test_held_out_probe_not_excluded(self):
        queries = _table([_q(0), _q(1), _q(2), _q(3), _q(4), _q(5)])
        store = EmbeddingStore(_orthogonal_model(6), queries)
        probe = _q(2)
        out = reformulate(store, probe, 5)
        assert out[0] == 2  # the identical stored query ranks first

    def test_id_probe_requires_query_list(self):
        queries = _table([_q(0), _q(1)])
        store = EmbeddingStore(_orthogonal_model(2), queries)
        with pytest.raises(ValueError, match="query table"):
            reformulate(store, 0, 1)

    def test_table_that_does_not_fit_the_model_rejected(self):
        model = _orthogonal_model(3)  # vocabulary 3, max_len 3
        with pytest.raises(ValueError, match=r"trigram id 3 outside \[0, 3\)"):
            EmbeddingStore(model, _table([_q(0), _q(3)]))
        with pytest.raises(ValueError, match="max_len 3"):
            EmbeddingStore(model, _table([_q(0, 1, 2, 0)]))

    def test_id_outside_the_table_rejected(self):
        # a negative id must not index the table from its end
        queries = _table([_q(i % 7) for i in range(10)])
        store = TrigramHashStore(queries)
        for bad in (-1, -10, 10):
            with pytest.raises(ValueError, match=r"query id -?\d+ outside \[0, 10\)"):
                reformulate(store, bad, 3, queries=queries)
        assert len(reformulate(store, 9, 3, queries=queries)) == 3

    def test_dot_product_ties_broken_by_id(self):
        queries = _table([_q(0), _q(1), _q(2), _q(3)])
        emb = np.array(
            [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
        )
        store = EmbeddingStore(AttentionModel(emb, np.zeros((1, 2))), queries)
        assert reformulate(store, 0, 3, queries=queries) == [1, 2, 3]


def _toy_purchases(rng, n_queries, n_products=6, max_per_query=3):
    pm = {}
    for q in range(n_queries):
        count = int(rng.integers(1, max_per_query + 1))
        pids = rng.choice(n_products, size=count, replace=False)
        pm[q] = [(int(p), int(rng.integers(1, 5))) for p in pids]
    return pm


def _unrestricted_oracle(probe, candidates, pm, k, size):
    """Exhaustive max precision / max recall over every size-subset."""
    probe_top = set(top_products(pm[probe], k))
    cands = [c for c in candidates if c != probe]
    best_p, best_r = 0.0, 0.0
    for subset in combinations(cands, size):
        hits = sum(
            1 for c in subset if probe_top & set(top_products(pm.get(c, []), k))
        )
        union = set()
        for c in subset:
            union.update(top_products(pm.get(c, []), k))
        best_p = max(best_p, hits / size)
        best_r = max(best_r, len(union & probe_top) / len(probe_top))
    return best_p, best_r


def _reference_coverage_masks(probe_top, candidate_ids, pm, k):
    """Per-candidate bitmask over the probe's top-k products, plus relevant count."""
    index = {pid: j for j, pid in enumerate(probe_top)}
    masks = np.zeros(len(candidate_ids), dtype=np.int64)
    for row, c in enumerate(candidate_ids):
        m = 0
        for pid in top_products(pm.get(c, []), k):
            j = index.get(pid)
            if j is not None:
                m |= 1 << j
        masks[row] = m
    return masks, int(np.count_nonzero(masks))


def _reference_oracle(q, candidate_ids, pm, k, n_reformulations=5, pool=25):
    """Per-candidate scalar oracle: top_products for every candidate of every
    probe, int64 masks (so k < 64), the same pool restriction and enumeration."""
    probe_top = top_products(pm.get(q, []), k)
    if not probe_top:
        raise ValueError(f"probe {q} has no purchases")
    candidate_ids = [c for c in candidate_ids if c != q]
    if not candidate_ids:
        raise ValueError("no candidates available")
    masks, n_relevant = _reference_coverage_masks(probe_top, candidate_ids, pm, k)
    take = min(n_reformulations, len(candidate_ids))
    best_precision = min(n_relevant, take) / n_reformulations
    overlap = np.array([bin(m).count("1") for m in masks])
    order = np.lexsort((np.asarray(candidate_ids), -overlap))[:pool]
    unique_masks = [m for m in sorted(set(int(masks[j]) for j in order), reverse=True) if m]
    full = (1 << len(probe_top)) - 1
    best_cover = 0
    for r in range(1, min(take, len(unique_masks)) + 1):
        for combo in combinations(unique_masks, r):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return best_precision, 1.0
            best_cover = max(best_cover, bin(u).count("1"))
    return best_precision, best_cover / len(probe_top)


class TestOracleBest:
    def test_five_same_product_candidates_give_precision_one(self):
        pm = {i: [(3, 1)] for i in range(6)}
        p, r = oracle_best([0], list(range(1, 6)), pm, 20)
        assert p == 1.0 and r == 1.0

    def test_absent_product_gives_zero_precision(self):
        pm = {0: [(99, 1)], **{i: [(1, 1)] for i in range(1, 8)}}
        p, r = oracle_best([0], list(range(1, 8)), pm, 20)
        assert p == 0.0 and r == 0.0

    def test_matches_unrestricted_enumeration_at_toy_scale(self):
        rng = rng_stream(55)
        pm = _toy_purchases(rng, 20)
        candidates = list(range(20))
        for probe in range(4):
            want = _unrestricted_oracle(probe, candidates, pm, 20, 5)
            got = oracle_best(
                [probe], candidates, pm, 20, n_reformulations=5, pool=len(candidates)
            )
            assert got == pytest.approx(want), (probe, got, want)

    def test_aggregate_is_mean_over_probes(self):
        pm = {0: [(1, 1)], 1: [(1, 1)], 2: [(2, 1)], 3: [(1, 1)], 4: [(1, 1)],
              5: [(1, 1)], 6: [(1, 1)], 7: [(1, 1)]}
        candidates = list(range(8))
        # probe 0 can reach precision 1, probe 2's product is unique to it
        p, r = oracle_best([0, 2], candidates, pm, 20)
        assert p == pytest.approx(0.5)
        assert r == pytest.approx(0.5)


class TestOracleTableMatchesReference:
    """The top-product-table oracle against the per-candidate reference.

    Desk data gives every query one product, which saturates the oracle at
    (1, 1); these maps give queries several products with tied counts, so
    the masks have several bits and the pool cut-off decides.
    """

    @pytest.mark.parametrize("k", [1, 3, 20])
    @pytest.mark.parametrize("pool", [4, 25])
    def test_exactly_equal_per_probe_and_mean(self, k, pool):
        rng = rng_stream(61)
        pm = _toy_purchases(rng, 40, n_products=40, max_per_query=8)
        candidates = [int(c) for c in rng.permutation(40)[:30]]  # holds some probes
        probes = list(range(12))
        assert any(p in candidates for p in probes)
        want = [_reference_oracle(q, candidates, pm, k, 3, pool) for q in probes]
        got = [oracle_best([q], candidates, pm, k, 3, pool) for q in probes]
        assert got == want
        assert len(set(want)) > 1  # the maps do not saturate the oracle
        arr = np.asarray(want)
        assert oracle_best(probes, candidates, pm, k, 3, pool) == (
            float(arr[:, 0].mean()), float(arr[:, 1].mean())
        )

    def test_unpurchased_candidates_and_missing_probe(self):
        # probe 5 lists product 4 twice, so its best recall stays below 1
        pm = {0: [(4, 2), (5, 2), (6, 1)], 1: [(5, 1)], 3: [(6, 3), (4, 3)], 4: [],
              5: [(4, 2), (4, 2), (6, 1)]}
        for q in (0, 5):
            for k in (1, 2, 3):
                for cands in ([0, 1, 2, 3, 4], [2, 4, 1], [3], [5, 3, 1]):
                    assert oracle_best([q], cands, pm, k, 2, 2) == _reference_oracle(
                        q, cands, pm, k, 2, 2
                    )
        assert oracle_best([5], [3], pm, 3) == (0.2, 2 / 3)
        with pytest.raises(ValueError, match="no purchases"):
            oracle_best([2], [0, 1], pm, 3)
        with pytest.raises(ValueError, match="no candidates"):
            oracle_best([0], [0, 0], pm, 3)

    def test_k_beyond_64_bits(self):
        # the probe's top list holds 70 products, so coverage masks need 70 bits
        rng = rng_stream(62)
        pm = {0: [(p, 1 + p % 3) for p in range(70)]}
        for c in range(1, 9):
            pids = rng.choice(90, size=int(rng.integers(10, 40)), replace=False)
            pm[c] = [(int(p), int(rng.integers(1, 4))) for p in pids]
        candidates = list(range(9))
        want = _unrestricted_oracle(0, candidates, pm, 70, 3)
        got = oracle_best([0], candidates, pm, 70, n_reformulations=3, pool=9)
        assert got == pytest.approx(want)
        assert 0.0 < got[1] < 1.0
        got = oracle_best([0], [1, 2], pm, k=70, n_reformulations=2)
        assert got == pytest.approx(_unrestricted_oracle(0, [1, 2], pm, 70, 2))

    def test_top_products_called_once_per_candidate_and_probe(self, monkeypatch):
        # a wrapper on evaluation.top_products (as the benchmark's tracer
        # installs) must see the candidates' lookups once, not once per probe
        rng = rng_stream(63)
        pm = _toy_purchases(rng, 60, n_products=10, max_per_query=4)
        calls = []
        original = evaluation.top_products

        def counting(purchases, k):
            calls.append(k)
            return original(purchases, k)

        monkeypatch.setattr(evaluation, "top_products", counting)
        probes, candidates = list(range(10)), list(range(60))
        oracle_best(probes, candidates, pm, 5)
        assert 0 < len(calls) <= len(candidates) + len(probes)


def _reference_top_table(ids, pm, k):
    """One top-k row per id, in list order, padded with -1."""
    tops = [top_products(pm.get(c, []), k) for c in ids]
    table = np.full((len(tops), max(map(len, tops), default=0)), -1, dtype=np.int64)
    for row, top in zip(table, tops):
        row[: len(top)] = top
    return table


def _oracle_one(q, ids, tops, purchase_map, k, n_reformulations, pool):
    """Scalar oracle of one probe against candidates ``ids`` whose top-k rows are ``tops``."""
    probe_top = top_products(purchase_map.get(q, []), k)
    if not probe_top:
        raise ValueError(f"probe {q} has no purchases")
    keep = ids != q
    if not keep.any():
        raise ValueError("no candidates available")
    ids = ids[keep]
    # one mask bit per distinct product; a product listed twice in probe_top
    # still counts twice in len(probe_top), so full coverage is then out of
    # reach, as full recall is in evaluate
    slot = {pid: j for j, pid in enumerate(probe_top)}
    hits = (tops[keep][:, :, None] == np.fromiter(slot, np.int64, len(slot))).any(axis=1)
    bits = [1 << j for j in slot.values()]

    take = min(n_reformulations, ids.size)
    overlap = hits.sum(axis=1)
    best_precision = min(int(np.count_nonzero(overlap)), take) / n_reformulations

    # pool restriction: keep the `pool` candidates with the largest coverage
    order = np.lexsort((ids, -overlap))[:pool]
    masks = {sum(b for b, hit in zip(bits, hits[j]) if hit) for j in order}
    unique_masks = [m for m in sorted(masks, reverse=True) if m]

    full = (1 << len(probe_top)) - 1
    best_cover = 0
    for r in range(1, min(take, len(unique_masks)) + 1):
        for combo in combinations(unique_masks, r):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return best_precision, 1.0
            best_cover = max(best_cover, bin(u).count("1"))
    return best_precision, best_cover / len(probe_top)


def _scalar_oracle(probes, candidate_ids, pm, k, n_reformulations=5, pool=25):
    """oracle_best one probe at a time through _oracle_one."""
    ids = np.asarray(candidate_ids, dtype=np.int64)
    tops = _reference_top_table(candidate_ids, pm, k)
    pairs = [_oracle_one(q, ids, tops, pm, k, n_reformulations, pool) for q in probes]
    arr = np.asarray(pairs, dtype=np.float64)
    return float(arr[:, 0].mean()), float(arr[:, 1].mean())


def _messy_purchases(rng, n_queries, n_products, max_per_query, absent=0.15, repeat=0.3):
    """Multi-product purchase lists with small (often tied) counts.  Some
    queries have no entry; some list one product twice, with its own count."""
    pm = {}
    for q in range(n_queries):
        if rng.random() < absent:
            continue
        size = int(rng.integers(1, max_per_query + 1))
        purchases = [(int(p), int(rng.integers(1, 4)))
                     for p in rng.choice(n_products, size=size, replace=False)]
        if rng.random() < repeat:
            purchases.append((purchases[int(rng.integers(size))][0], int(rng.integers(1, 4))))
        pm[q] = purchases
    return pm


def _listed_twice(pm, q, k):
    top = top_products(pm[q], k)
    return len(set(top)) < len(top)


class TestBatchedOracleMatchesScalar:
    """oracle_best, all probes at once, against the one-probe-at-a-time references."""

    @pytest.mark.parametrize("k", [1, 2, 3, 20])
    @pytest.mark.parametrize("pool", [1, 3, 25])
    def test_random_maps(self, k, pool):
        rng = rng_stream(64 + k)
        pm = _messy_purchases(rng, 60, 25, 6)
        candidates = [int(c) for c in rng.permutation(60)[:40]]
        candidates.append(candidates[3])  # one candidate id listed twice
        probes = [q for q in range(60) if q in pm][:16]
        assert any(p in candidates for p in probes) and any(p not in candidates for p in probes)
        assert any(c not in pm for c in candidates)
        assert any(_listed_twice(pm, q, k) for q in probes) or k == 1
        want = [_scalar_oracle([q], candidates, pm, k, 3, pool) for q in probes]
        assert [oracle_best([q], candidates, pm, k, 3, pool) for q in probes] == want
        assert want == [_reference_oracle(q, candidates, pm, k, 3, pool) for q in probes]
        assert len(set(want)) > 1  # the maps do not saturate the oracle
        assert oracle_best(probes, candidates, pm, k, 3, pool) == _scalar_oracle(
            probes, candidates, pm, k, 3, pool
        )

    @pytest.mark.parametrize("chunk,k", [(1, 3), (7, 3), (50, 3), (1, 70), (7, 70), (50, 70)],
                             ids=["1", "7", "50", "1-k70", "7-k70", "50-k70"])
    def test_probes_joined_in_chunks(self, chunk, k, monkeypatch):
        # a small join budget splits the probes over many chunks; at k = 70
        # most probes list more than 64 distinct products
        rng = rng_stream(69)
        pm = _messy_purchases(rng, 50, 10, 5) if k == 3 else _messy_purchases(rng, 50, 90, 75)
        candidates = [int(c) for c in rng.permutation(50)[:35]]
        probes = [q for q in range(50) if q in pm]
        want = oracle_best(probes, candidates, pm, k, 3, 4)
        assert want == _scalar_oracle(probes, candidates, pm, k, 3, 4)
        monkeypatch.setattr(evaluation, "_CHUNK", chunk)
        assert oracle_best(probes, candidates, pm, k, 3, 4) == want

    @pytest.mark.parametrize("pool", [1, 2, 3, 7])
    def test_candidates_sharing_top_lists(self, pool):
        # few products: many candidates share one top list, so the pool's cut
        # falls inside such a group, and a probe's own rows sit inside one
        rng = rng_stream(68)
        pm = {}
        for q in range(40):
            size = int(rng.integers(1, 3))
            pm[q] = [(int(p), int(rng.integers(1, 3))) for p in rng.choice(4, size, replace=False)]
        candidates = [int(c) for c in rng.permutation(40)[:30]] + [5, 5, 11]
        probes = list(range(0, 40, 3))
        for k in (1, 2):
            want = [_scalar_oracle([q], candidates, pm, k, 3, pool) for q in probes]
            assert [oracle_best([q], candidates, pm, k, 3, pool) for q in probes] == want
            assert oracle_best(probes, candidates, pm, k, 3, pool) == _scalar_oracle(
                probes, candidates, pm, k, 3, pool
            )

    def test_unrestricted_pool_matches_enumeration(self):
        rng = rng_stream(70)
        pm = _messy_purchases(rng, 14, 12, 4, absent=0.0, repeat=0.0)
        candidates = list(range(14))
        for probe in range(5):
            want = _unrestricted_oracle(probe, candidates, pm, 20, 3)
            assert oracle_best([probe], candidates, pm, 20, 3, pool=14) == pytest.approx(want)
            assert oracle_best([probe], candidates, pm, 20, 3, pool=14) == _scalar_oracle(
                [probe], candidates, pm, 20, 3, 14
            )

    def test_k_70(self):
        rng = rng_stream(71)
        pm = {0: [(p, 1 + p % 3) for p in range(70)], 1: [(5, 1), (5, 2), (80, 1)]}
        for c in range(2, 12):
            pids = rng.choice(90, size=int(rng.integers(10, 40)), replace=False)
            pm[c] = [(int(p), int(rng.integers(1, 4))) for p in pids]
        candidates = list(range(1, 12)) + [20]
        for pool in (1, 4, 12):
            for probes in ([0], [0, 1], [1, 0, 3]):
                got = oracle_best(probes, candidates, pm, 70, 3, pool)
                assert got == _scalar_oracle(probes, candidates, pm, 70, 3, pool)
        got = oracle_best([0], candidates, pm, 70, 3, pool=12)
        assert got == pytest.approx(_unrestricted_oracle(0, candidates, pm, 70, 3))
        assert 0.0 < got[1] < 1.0

    def test_ties_at_the_pool_boundary_go_to_the_smaller_id(self):
        # every candidate covers one of the probe's three products; the pool of
        # two takes ids 4 and 5, which cover the same one
        pm = {0: [(1, 1), (2, 1), (3, 1)], 4: [(1, 1)], 5: [(1, 2)], 6: [(2, 1)], 7: [(3, 1)]}
        candidates = [7, 6, 5, 4]
        assert oracle_best([0], candidates, pm, 20, 3, pool=2) == (1.0, 1 / 3)
        assert oracle_best([0], candidates, pm, 20, 3, pool=3) == (1.0, 2 / 3)
        for pool in (1, 2, 3, 4):
            assert oracle_best([0], candidates, pm, 20, 3, pool) == _scalar_oracle(
                [0], candidates, pm, 20, 3, pool
            )

    def test_probe_listed_twice_inside_a_pattern_beyond_the_pool(self):
        # ids 0, 0, 1, 5 share one top list; with a pool of one, the probe's
        # two own rows come first in it and id 1 still makes the pool
        pm = {0: [(1, 1), (2, 1)], 1: [(1, 1), (2, 1)], 5: [(1, 1), (2, 1)], 6: [(1, 1)],
              7: [(2, 1)]}
        candidates = [0, 5, 0, 1, 6, 7]
        want = _scalar_oracle([0], candidates, pm, 20, 3, 1)
        assert oracle_best([0], candidates, pm, 20, 3, pool=1) == want
        assert want[1] == 1.0

    def test_pattern_beyond_the_pool_listed_out_of_id_order(self):
        # ids 9, 2, 1 share one top list and tie with id 3's: the pool of two
        # is ids 1 and 2, which cover one product of three
        pm = {0: [(1, 1), (2, 1), (3, 1)], 9: [(1, 1)], 2: [(1, 1)], 1: [(1, 1)], 3: [(2, 1)]}
        candidates = [9, 2, 1, 3]
        want = _scalar_oracle([0], candidates, pm, 20, 3, 2)
        assert oracle_best([0], candidates, pm, 20, 3, pool=2) == want
        assert want[1] == 1 / 3

    def test_more_reformulations_than_candidates(self):
        pm = {0: [(1, 1), (2, 1)], 1: [(1, 1)], 2: [(2, 1)], 3: [(9, 1)]}
        for candidates in ([1], [1, 2], [0, 1, 3], [2, 2]):
            assert oracle_best([0], candidates, pm, 20, 5) == _scalar_oracle(
                [0], candidates, pm, 20, 5
            )
        assert oracle_best([0], [1, 2], pm, 20, 5) == (0.4, 1.0)

    def test_rejections_in_probe_order(self):
        pm = {0: [(1, 1)], 1: [(1, 1)], 3: [(1, 1)]}
        with pytest.raises(ValueError, match="no candidates"):
            oracle_best([0], [0, 0], pm, 3)
        with pytest.raises(ValueError, match="no candidates"):
            oracle_best([1], [], pm, 3)
        with pytest.raises(ValueError, match="probe 2 has no purchases"):
            oracle_best([1, 2, 0], [0, 0], pm, 3)
        with pytest.raises(ValueError, match="no candidates"):
            oracle_best([1, 0, 2], [0, 0], pm, 3)
        with pytest.raises(ValueError, match="probe"):
            oracle_best([], [0, 1], pm, 3)
        with pytest.raises(ValueError, match="n_reformulations and pool"):
            oracle_best([0], [1, 3], pm, 3, n_reformulations=0)
        for pool in (0, -1):  # -1 used to pool all candidates but the last
            with pytest.raises(ValueError, match="n_reformulations and pool"):
                oracle_best([0], [1, 3], pm, 3, pool=pool)
        table = evaluation._top_table([0, 1], pm, 3)  # lacks candidate 3
        assert oracle_best([0], [1], pm, 3, table=table) == oracle_best([0], [1], pm, 3)
        with pytest.raises(ValueError, match="missing from the top-product table"):
            oracle_best([0], [1, 3], pm, 3, table=table)


def _ref_precision(q, refs, pm, k):
    probe_top = set(top_products(pm.get(q, []), k))
    return sum(1 for r in refs if probe_top & set(top_products(pm.get(r, []), k))) / len(refs)


def _ref_recall(q, refs, pm, k):
    probe_top = top_products(pm.get(q, []), k)
    union = set()
    for r in refs:
        union.update(top_products(pm.get(r, []), k))
    return len(union & set(probe_top)) / len(probe_top)


class TestArrayMetricsMatchScalar:
    """evaluate's precision and recall against the set-based references."""

    @pytest.mark.parametrize("k", [1, 2, 5, 70])
    def test_random_maps(self, k):
        rng = rng_stream(72)
        pm = _messy_purchases(rng, 40, 12, 8, repeat=0.6)
        probes = [q for q in pm if _listed_twice(pm, q, 20)][:5] + [q for q in pm][:10]
        for q in probes:
            others = [i for i in range(45) if i != q]  # some ids have no purchases
            for _ in range(4):
                refs = rng.choice(others, size=int(rng.integers(1, 8)), replace=False).tolist()
                assert metrics_of(q, refs, pm, k) == (_ref_precision(q, refs, pm, k),
                                                      _ref_recall(q, refs, pm, k))

    def test_repeated_probe_product_counts_once_above_twice_below(self):
        pm = {0: [(4, 2), (6, 2), (4, 1)], 1: [(4, 1), (6, 1)]}
        assert top_products(pm[0], 3) == [4, 6, 4]
        assert metrics_of(0, [1], pm, 3)[1] == 2 / 3
        assert metrics_of(0, [1, 2], pm, 3)[0] == 0.5


def _reference_evaluate(store, queries, pm, probe_ids, k=20, n_reformulations=5,
                        oracle_pool=25, model_name="model"):
    """evaluate one probe at a time, from the scalar metrics and oracle."""
    rows = []
    for q in probe_ids:
        refs = reformulate(store, int(q), n_reformulations, queries=queries)
        p = _ref_precision(int(q), refs, pm, k)
        r = _ref_recall(int(q), refs, pm, k)
        rows.append(evaluation.EvalRow(int(q), tuple(refs), p, r))
    mean_p = float(np.mean([row.precision for row in rows]))
    mean_r = float(np.mean([row.recall for row in rows]))
    best_p, best_r = _scalar_oracle([int(q) for q in probe_ids], [int(i) for i in store.ids],
                                    pm, k, n_reformulations, oracle_pool)
    best = f1(best_p, best_r)
    return EvalReport(
        model_name=model_name, k=k, n_reformulations=n_reformulations, rows=tuple(rows),
        mean_precision=mean_p, mean_recall=mean_r, f1_score=f1(mean_p, mean_r),
        best_precision=best_p, best_recall=best_r,
        best_f1=best,
        normalized_precision=mean_p / best_p if best_p > 0 else 0.0,
        normalized_recall=mean_r / best_r if best_r > 0 else 0.0,
        normalized_f1=f1(mean_p, mean_r) / best if best > 0 else 0.0,
    )


class TestEvaluateMatchesReference:
    def _case(self, seed):
        ds = _desk_toy_dataset(seed)
        rng = rng_stream(seed + 100)
        pm = _messy_purchases(rng, len(ds.queries), 15, 5)
        store_ids = sorted(int(i) for i in rng.permutation(len(ds.queries))[:45])
        probes = [q for q in rng.permutation(len(ds.queries)).tolist() if q in pm][:20]
        assert any(q in store_ids for q in probes) and any(q not in store_ids for q in probes)
        stores = [
            EmbeddingStore(init_model(100, 8, 4, seed=seed), ds.queries.take(store_ids), store_ids),
            TrigramHashStore(ds.queries.take(store_ids), store_ids),
        ]
        return ds, pm, probes, stores

    @pytest.mark.parametrize("k,pool,chunk", [(1, 25, None), (3, 2, None), (20, 25, None),
                                              (20, 3, 40)])
    def test_field_by_field(self, k, pool, chunk, monkeypatch):
        if chunk:  # a few probes per array pass
            monkeypatch.setattr(evaluation, "_CHUNK", chunk)
        ds, pm, probes, stores = self._case(80)
        for store in stores:
            got = evaluate(store, ds.queries, pm, probes, k, 4, pool)
            want = _reference_evaluate(store, ds.queries, pm, probes, k, 4, pool)
            for field in dataclasses.fields(EvalReport):
                assert getattr(got, field.name) == getattr(want, field.name), field.name
            assert 0.0 < got.best_recall < 1.0

    def test_rows_hold_python_floats(self):
        ds, pm, probes, stores = self._case(81)
        for store in stores:
            for row in evaluate(store, ds.queries, pm, probes).rows:
                assert type(row.precision) is float and type(row.recall) is float

    def test_numpy_probe_ids(self):
        ds, pm, probes, stores = self._case(82)
        store = stores[1]
        want = evaluate(store, ds.queries, pm, probes)
        assert evaluate(store, ds.queries, pm, np.array(probes)) == want
        assert evaluate(store, ds.queries, pm, tuple(np.int64(q) for q in probes)) == want
        with pytest.raises(ValueError, match="need at least one probe query"):
            evaluate(store, ds.queries, pm, np.array([], dtype=np.int64))

    def test_probe_without_purchases_rejected(self):
        ds, pm, probes, stores = self._case(83)
        missing = next(q for q in range(len(ds.queries)) if q not in pm)
        with pytest.raises(ValueError, match=f"probe {missing} has no purchases"):
            evaluate(stores[0], ds.queries, pm, [*probes[:3], missing, *probes[3:]])

    def test_top_products_once_per_distinct_id(self, monkeypatch):
        ds, pm, probes, stores = self._case(84)
        calls = []
        original = evaluation.top_products

        def counting(purchases, k):
            calls.append(k)
            return original(purchases, k)

        monkeypatch.setattr(evaluation, "top_products", counting)
        for store in stores:
            calls.clear()
            evaluate(store, ds.queries, pm, probes + probes[:3])
            assert len(calls) == len(set(probes) | set(store.ids.tolist()))


class TestBatchedRankingMatchesScalar:
    """evaluate encodes its probes at once; its reformulations equal reformulate's."""

    @staticmethod
    def _check(store, queries, probes, counts):
        pm = {q: [(q % 3, 1)] for q in range(len(queries))}
        for count in counts:
            got = [row.reformulations for row in evaluate(store, queries, pm, probes, 3, count).rows]
            want = [tuple(reformulate(store, q, count, queries=queries)) for q in probes]
            assert got == want, count

    @staticmethod
    def _split(n, store_ids, test_fraction):
        """test_fraction 0: every query is stored and probed, so each probe is
        excluded from its own results; else the unstored queries are probed."""
        if test_fraction == 0:
            return list(range(n)), list(range(n))
        return store_ids, sorted(set(range(n)) - set(store_ids))

    @pytest.mark.parametrize("test_fraction", [0, 0.6])
    def test_tie_heavy_stores(self, test_fraction):
        # TestTopCountSelection's stores: a small vocabulary hashes many rows to
        # equal distances; integer embeddings give many equal dot products
        rng = rng_stream(62)
        rows = [_q(*rng.integers(0, 6, size=rng.integers(1, 4)).tolist()) for _ in range(100)]
        queries = _table(rows)
        store_ids, probes = self._split(100, rng.permutation(100)[:40].tolist(), test_fraction)
        model = AttentionModel(rng.integers(-1, 2, size=(8, 3)).astype(np.float64),
                               np.zeros((3, 3)))
        counts = (1, 5, len(store_ids) - 1)
        for store in (TrigramHashStore(queries.take(store_ids), store_ids),
                      EmbeddingStore(model, queries.take(store_ids), store_ids)):
            self._check(store, queries, probes, counts)

    @pytest.mark.parametrize("test_fraction", [0.0, 0.2])
    def test_desk_dataset(self, test_fraction):
        config = default_benchmark_config(3)
        ds = generate_dataset(config)
        store_ids, probes = split_query_ids(len(ds.queries), test_fraction, 3)
        probes = probes[::5] if test_fraction == 0 else probes  # 1000 probes either way
        store_queries = ds.queries.take(store_ids)
        model = init_model(config.vocab_size, config.dim, config.max_len, seed=3)
        for store in (TrigramHashStore(store_queries, store_ids),
                      EmbeddingStore(model, store_queries, store_ids)):
            self._check(store, ds.queries, probes, (5,))

    def test_encoded_rows_equal_scalar_encodings(self):
        ds = _desk_toy_dataset(64)
        hstore = TrigramHashStore(ds.queries)
        estore = EmbeddingStore(init_model(100, 8, 4, seed=65), ds.queries)
        for i, (h, z) in enumerate(zip(hstore.encode(ds.queries), estore.encode(ds.queries))):
            row = ds.queries.row(i)
            assert_array_equal(h, hash_counts(row))
            assert_allclose(z, _ref_forward(estore.model, row)[0], rtol=0, atol=1e-12)
            assert_array_equal(z, embed_query(estore.model, row))

    def test_probe_checks_keep_reformulate_messages(self):
        queries = _table([_q(i % 5) for i in range(8)])
        pm = {q: [(1, 1)] for q in range(8)}
        store = TrigramHashStore(queries.take([0, 1, 2]), [0, 1, 2])
        for bad in (-1, 8):
            with pytest.raises(ValueError, match=rf"query id {bad} outside \[0, 8\)"):
                evaluate(store, queries, pm, [3, bad], n_reformulations=2)
        evaluate(store, queries, pm, [5, 6], n_reformulations=3)  # held out: 3 candidates
        with pytest.raises(ValueError, match="store offers 2 candidates, need 3"):
            evaluate(store, queries, pm, [5, 1], n_reformulations=3)


def _desk_toy_dataset(seed=56):
    cfg = GeneratorConfig(
        dim=8, vocab_size=100, max_len=4, lam=8.0,
        alphas=(0.9,) * 4, betas=(1.5,) * 4, epsilon_p=0.4,
        n_products=5, n_queries=60, seed=seed,
    )
    return generate_dataset(cfg)


class TestEvaluate:
    def test_report_fields_and_bounds(self):
        ds = _desk_toy_dataset()
        model = init_model(100, 8, 4, seed=57)
        store = EmbeddingStore(model, ds.queries)
        report = evaluate(
            store, ds.queries, ds.purchase_map, probe_ids=list(range(48, 60)),
            k=20, model_name="attention",
        )
        assert isinstance(report, EvalReport)
        assert len(report.rows) == 12
        for row in report.rows:
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.recall <= 1.0
            assert len(row.reformulations) == 5
            assert row.query_id not in row.reformulations
        assert 0.0 <= report.normalized_precision <= 1.0 + 1e-12
        assert 0.0 <= report.normalized_recall <= 1.0 + 1e-12
        assert report.f1_score == pytest.approx(
            f1(report.mean_precision, report.mean_recall)
        )

    def test_normalized_scores_bounded_with_unrestricted_pool(self):
        ds = _desk_toy_dataset(seed=58)
        store = TrigramHashStore(ds.queries)
        report = evaluate(
            store, ds.queries, ds.purchase_map, probe_ids=list(range(10)),
            k=20, oracle_pool=len(ds.queries), model_name="trigram_hash",
        )
        assert report.normalized_precision <= 1.0 + 1e-12
        assert report.normalized_recall <= 1.0 + 1e-12
        assert report.normalized_f1 <= 1.0 + 1e-12

    def test_empty_probes_rejected(self):
        ds = _desk_toy_dataset(seed=59)
        store = TrigramHashStore(ds.queries)
        with pytest.raises(ValueError, match="probe"):
            evaluate(store, ds.queries, ds.purchase_map, probe_ids=[])


class TestReportOutput:
    def _report(self):
        ds = _desk_toy_dataset(seed=60)
        store = TrigramHashStore(ds.queries)
        return evaluate(
            store, ds.queries, ds.purchase_map, probe_ids=[0, 1, 2],
            model_name="trigram_hash",
        )

    def test_csv_round_trip(self, tmp_path):
        report = self._report()
        path = str(tmp_path / "eval.csv")
        write_eval_csv(report, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "query_id,reformulations,precision,recall"
        assert len(lines) == 1 + len(report.rows)
        first = lines[1].split(",")
        assert int(first[0]) == report.rows[0].query_id
        assert tuple(int(x) for x in first[1].split(";")) == report.rows[0].reformulations
        assert float(first[2]) == report.rows[0].precision

    def test_summary_block_lists_models(self):
        report = self._report()
        text = format_summary([report, report])
        lines = text.splitlines()
        assert lines[0].split() == [
            "model", "prec@K", "rec@K", "f1", "prec/best", "rec/best", "f1/best"
        ]
        assert sum("trigram_hash" in line for line in lines) == 2
