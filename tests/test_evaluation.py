from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from queryemb.baseline import TrigramHashStore, hash_query
from queryemb import evaluation
from queryemb.core import GeneratorConfig, QueryTable, rng_stream
from queryemb.embedder import AttentionModel, embed_query, init_model
from queryemb.evaluation import (
    EmbeddingStore,
    EvalReport,
    evaluate,
    f1,
    format_summary,
    oracle_best,
    product_recall_at_k,
    query_precision_at_k,
    reformulate,
    top_products,
    write_eval_csv,
)
from queryemb.genmodel import generate_dataset
from test_baseline import bray_curtis


def _q(*ids):
    return list(ids)


def _table(rows):
    return QueryTable.from_rows(rows, [0] * len(rows), max(map(len, rows), default=1))


class TestTopProducts:
    def test_sorted_by_count_then_id(self):
        purchases = [(5, 2), (1, 9), (7, 2), (3, 9)]
        assert top_products(purchases, 3) == [1, 3, 5]

    def test_fewer_than_k_uses_all(self):
        assert top_products([(4, 1)], 20) == [4]

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k"):
            top_products([(1, 1)], 0)


class TestQueryPrecision:
    def test_all_share_single_product(self):
        pm = {0: [(9, 1)], 1: [(9, 3)], 2: [(9, 1)], 3: [(9, 2)]}
        assert query_precision_at_k(0, [1, 2, 3], pm, 20) == 1.0

    def test_none_share(self):
        pm = {0: [(9, 1)], 1: [(8, 1)], 2: [(7, 1)]}
        assert query_precision_at_k(0, [1, 2], pm, 20) == 0.0

    def test_two_of_five(self):
        pm = {0: [(9, 1)], 1: [(9, 1)], 2: [(9, 1)], 3: [(8, 1)], 4: [(7, 1)], 5: [(6, 1)]}
        assert query_precision_at_k(0, [1, 2, 3, 4, 5], pm, 20) == 0.4

    def test_missing_purchases_count_as_nonrelevant(self):
        pm = {0: [(9, 1)], 1: [(9, 1)]}
        assert query_precision_at_k(0, [1, 2], pm, 20) == 0.5

    def test_respects_k_cutoff(self):
        # probe's product 9 is the probe's 2nd-ranked product: visible at
        # k=2, invisible at k=1
        pm = {0: [(3, 5), (9, 1)], 1: [(9, 4)]}
        assert query_precision_at_k(0, [1], pm, 2) == 1.0
        assert query_precision_at_k(0, [1], pm, 1) == 0.0

    def test_order_invariance(self):
        pm = {0: [(9, 1)], 1: [(9, 1)], 2: [(8, 1)], 3: [(9, 1)]}
        a = query_precision_at_k(0, [1, 2, 3], pm, 20)
        b = query_precision_at_k(0, [3, 1, 2], pm, 20)
        assert a == b


class TestProductRecall:
    def test_full_coverage(self):
        pm = {0: [(1, 2), (2, 1)], 1: [(1, 9)], 2: [(2, 9)]}
        assert product_recall_at_k(0, [1, 2], pm, 20) == 1.0

    def test_empty_union(self):
        pm = {0: [(1, 2)], 1: [(5, 1)], 2: []}
        assert product_recall_at_k(0, [1, 2], pm, 20) == 0.0

    def test_half_coverage(self):
        # probe has {a=1, b=2}; reformulations cover only {1}
        pm = {0: [(1, 3), (2, 3)], 1: [(1, 1)], 2: [(1, 5)]}
        assert product_recall_at_k(0, [1, 2], pm, 20) == 0.5

    def test_probe_without_purchases_rejected(self):
        with pytest.raises(ValueError, match="no purchases"):
            product_recall_at_k(0, [1], {1: [(1, 1)]}, 20)

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
                product_recall_at_k(probe, refs, ds.graph.purchase_map, k)
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
        pv = hash_query(rows[probe_id])
        scored = [
            (bray_curtis(hash_query(q), pv), i)
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
            store, ds.queries, ds.graph.purchase_map, probe_ids=list(range(48, 60)),
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
            store, ds.queries, ds.graph.purchase_map, probe_ids=list(range(10)),
            k=20, oracle_pool=len(ds.queries), model_name="trigram_hash",
        )
        assert report.normalized_precision <= 1.0 + 1e-12
        assert report.normalized_recall <= 1.0 + 1e-12
        assert report.normalized_f1 <= 1.0 + 1e-12

    def test_empty_probes_rejected(self):
        ds = _desk_toy_dataset(seed=59)
        store = TrigramHashStore(ds.queries)
        with pytest.raises(ValueError, match="probe"):
            evaluate(store, ds.queries, ds.graph.purchase_map, probe_ids=[])


class TestReportOutput:
    def _report(self):
        ds = _desk_toy_dataset(seed=60)
        store = TrigramHashStore(ds.queries)
        return evaluate(
            store, ds.queries, ds.graph.purchase_map, probe_ids=[0, 1, 2],
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
