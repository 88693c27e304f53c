import dataclasses
import hashlib
import os
import re
import tracemalloc
import types

import numpy as np
import pytest
from conftest import has_edge, query_table
from numpy.testing import assert_allclose
from scipy.stats import chisquare, poisson

from queryemb.core import (
    STREAM_QUERIES,
    GeneratorConfig,
    QueryGraph,
    parse_key_values,
    rng_stream,
    sample_unit_sphere,
    stream_words,
)
from queryemb import genmodel
from queryemb.genmodel import (
    _groups,
    _position_params,
    _read_queries,
    _sample_queries,
    _StreamReader,
    alphas_for_linear_variance,
    default_benchmark_config,
    generate_dataset,
    inverse_cdf_rows,
    load_dataset,
    mixture_probs,
    partition_function,
    query_lengths,
    read_matrix,
    sample_trigrams_batch,
    save_dataset,
    tilted_component_probs,
    trigram_empirical_variance,
    trigram_mean_coefficient,
    truncated_poisson_pmf,
    write_matrix,
)
from queryemb.theory import tiny_universe_config


def _config(**overrides):
    base = dict(
        dim=4,
        vocab_size=50,
        max_len=3,
        lam=2.0,
        alphas=(0.9, 0.8, 0.7),
        betas=(1.0, 0.5, 0.0),
        epsilon_p=0.5,
        n_products=5,
        n_queries=40,
        seed=11,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


# ---------------------------------------------------------------------------
# Scalar reference generator: one Generator call per draw, in the stream order
# of the genmodel docstring.  The bulk decoder must reproduce it exactly.


def _draw_length(rng, length_cdf):
    idx = int(np.searchsorted(length_cdf, rng.random(), side="right"))
    return min(idx, length_cdf.size - 1) + 1


def sample_query_length(rng, lam, max_len):
    """One draw from Poisson(lam) truncated to [1, max_len] (inverse CDF)."""
    return _draw_length(rng, np.cumsum(truncated_poisson_pmf(lam, max_len)))


def _draw_trigram(rng, alpha, tilted_cdf, vocab_size):
    if rng.random() < alpha:
        u = rng.random()
        return min(int(np.searchsorted(tilted_cdf, u, side="right")), vocab_size - 1)
    return int(rng.integers(vocab_size))


def sample_trigram(rng, p, position, config, vocab):
    """Draw one trigram id for the given product and 1-based position."""
    alpha, beta = _position_params(config, position)
    return _draw_trigram(
        rng, alpha, np.cumsum(tilted_component_probs(p, beta, vocab)), config.vocab_size
    )


def reference_queries(config, products, vocab):
    """The query table drawn query by query, each from its own Generator."""
    length_cdf = np.cumsum(truncated_poisson_pmf(config.lam, config.max_len))
    rows, pids = [], []
    for qi in range(config.n_queries):
        r = rng_stream(config.seed, STREAM_QUERIES + qi)
        pid = int(r.integers(config.n_products))
        length = _draw_length(r, length_cdf)
        rows.append([sample_trigram(r, products[pid], pos, config, vocab)
                     for pos in range(1, length + 1)])
        pids.append(pid)
    return query_table(rows, pids, config.max_len)


def _words_used(rng):
    """Raw Philox words a Generator has consumed so far."""
    state = rng.bit_generator.state
    blocks = int(state["state"]["counter"][0])
    return 4 * blocks - 4 + state["buffer_pos"] if blocks else 0


class TestQueryLength:
    def test_truncation_to_one(self):
        rng = rng_stream(0)
        assert all(sample_query_length(rng, 5.0, 1) == 1 for _ in range(200))

    def test_mean_matches_pmf_oracle(self):
        # Oracle: scipy's Poisson pmf, renormalized over [1, 50].
        lam, n_max = 5.0, 50
        k = np.arange(1, n_max + 1)
        pk = poisson.pmf(k, lam)
        oracle_mean = float((k * pk).sum() / pk.sum())
        rng = rng_stream(1)
        pmf = truncated_poisson_pmf(lam, n_max)
        draws = rng.choice(k, size=100_000, p=pmf)
        assert abs(draws.mean() - oracle_mean) / oracle_mean < 0.02

    def test_draws_stay_in_range(self):
        rng = rng_stream(2)
        draws = np.array([sample_query_length(rng, 5.0, 50) for _ in range(5000)])
        assert draws.min() >= 1 and draws.max() <= 50

    def test_pmf_matches_scipy_pointwise(self):
        for lam, n_max in ((0.5, 4), (5.0, 50), (12.5, 12)):
            k = np.arange(1, n_max + 1)
            oracle = poisson.pmf(k, lam)
            oracle = oracle / oracle.sum()
            assert_allclose(truncated_poisson_pmf(lam, n_max), oracle, rtol=1e-10)

    def test_huge_lam_is_stable(self):
        # lam far beyond max_len concentrates all mass at the truncation point.
        pmf = truncated_poisson_pmf(6000.0, 12)
        assert np.isfinite(pmf).all() and abs(pmf.sum() - 1.0) < 1e-12
        assert pmf[-1] > 0.99

    @pytest.mark.parametrize("lam, max_len", [(1.0, 3), (5.0, 12), (1200.0, 12), (2.0, 1)])
    def test_lengths_equal_searchsorted_at_cdf_entries(self, lam, max_len):
        cfg = _config(lam=lam, max_len=max_len, alphas=(0.75,) * max_len, betas=(1.0,) * max_len)
        cdf = np.cumsum(truncated_poisson_pmf(lam, max_len))
        edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0)])
        u = np.concatenate([[0.0, 1.0 - 2.0**-53], edges, rng_stream(70).random(1000)])
        u = u[(u >= 0.0) & (u < 1.0)]
        got = query_lengths(cfg, u)
        # the former rule: one searchsorted of every draw in the CDF
        want = np.minimum(np.searchsorted(cdf, u, side="right"), max_len - 1) + 1
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert query_lengths(cfg, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, 1.0, 5.0, -0.5])
    def test_uniforms_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
            query_lengths(_config(), np.array([0.25, bad, 0.75]))


class TestPartitionFunction:
    def test_beta_zero_equals_vocab_size(self):
        vocab = rng_stream(0).standard_normal((37, 4))
        p = sample_unit_sphere(rng_stream(1), 4)
        assert partition_function(p, 0.0, vocab) == 37.0

    def test_two_term_hand_evaluation(self):
        vocab = np.array([[1.0, 0.0], [0.5, -0.5]])
        p = np.array([0.6, 0.8])
        expected = np.exp(0.6) + np.exp(0.3 - 0.4)
        assert_allclose(partition_function(p, 1.0, vocab), expected, rtol=1e-14)

    def test_concentration_improves_with_vocab_size(self):
        dim = 16
        rel_stds = []
        for m in (1000, 10_000):
            vocab = rng_stream(3).standard_normal((m, dim))
            prng = rng_stream(4)
            zs = np.array(
                [
                    partition_function(sample_unit_sphere(prng, dim), 1.0, vocab)
                    for _ in range(100)
                ]
            )
            rel_stds.append(zs.std() / zs.mean())
        assert rel_stds[1] < rel_stds[0]


class TestSampleTrigram:
    def test_beta_zero_uniform_chisquare(self):
        cfg = _config(alphas=(0.9, 0.8, 0.7), betas=(0.0, 0.5, 0.0))
        vocab = rng_stream(cfg.seed).standard_normal((cfg.vocab_size, cfg.dim))
        p = sample_unit_sphere(rng_stream(5), cfg.dim)
        rng = rng_stream(6)
        draws = sample_trigrams_batch(rng, p, 1, cfg, vocab, 100_000)
        counts = np.bincount(draws, minlength=cfg.vocab_size)
        assert chisquare(counts).pvalue > 0.01

    def test_sharp_tilt_mode_is_argmax(self):
        cfg = _config(
            vocab_size=100,
            alphas=(1.0, 1.0, 1.0),
            betas=(10.0, 10.0, 10.0),
        )
        vocab = rng_stream(7).standard_normal((100, cfg.dim))
        p = sample_unit_sphere(rng_stream(8), cfg.dim)
        rng = rng_stream(9)
        draws = np.array([sample_trigram(rng, p, 1, cfg, vocab) for _ in range(500)])
        modal = np.bincount(draws, minlength=100).argmax()
        assert modal == int(np.argmax(vocab @ p))

    def test_scalar_and_batch_paths_agree_in_distribution(self):
        cfg = _config(vocab_size=20)
        vocab = rng_stream(10).standard_normal((20, cfg.dim))
        p = sample_unit_sphere(rng_stream(11), cfg.dim)
        n = 40_000
        scalar_rng, batch_rng = rng_stream(12), rng_stream(13)
        scalar = np.array([sample_trigram(scalar_rng, p, 2, cfg, vocab) for _ in range(n)])
        batch = sample_trigrams_batch(batch_rng, p, 2, cfg, vocab, n)
        c1 = np.bincount(scalar, minlength=20)
        c2 = np.bincount(batch, minlength=20)
        # two-sample chi-square on the contingency table
        expected = (c1 + c2) / 2.0
        stat = ((c1 - expected) ** 2 / expected + (c2 - expected) ** 2 / expected).sum()
        # 19 dof common-distribution test; 43.8 is the 0.001 quantile
        assert stat < 43.8

    def test_mixture_probs_normalized(self):
        cfg = _config()
        vocab = rng_stream(14).standard_normal((cfg.vocab_size, cfg.dim))
        prng = rng_stream(15)
        products = np.stack([sample_unit_sphere(prng, cfg.dim) for _ in range(cfg.n_products)])
        for pos in (1, 2, 3):
            alpha, beta = cfg.alphas[pos - 1], cfg.betas[pos - 1]
            probs = mixture_probs(products, pos, cfg, vocab)
            assert probs.shape == (cfg.n_products, cfg.vocab_size)
            assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert probs.min() >= (1 - alpha) / cfg.vocab_size - 1e-15
            # each row is the one-product mixture the generator samples from
            for p, row in zip(products, probs):
                expected = alpha * tilted_component_probs(p, beta, vocab) + (1 - alpha) / cfg.vocab_size
                assert_allclose(row, expected, rtol=0, atol=1e-15)
        for pos in (0, cfg.max_len + 1):
            with pytest.raises(ValueError, match="position"):
                mixture_probs(products, pos, cfg, vocab)

    def test_position_out_of_range(self):
        cfg = _config()
        vocab = rng_stream(16).standard_normal((cfg.vocab_size, cfg.dim))
        p = sample_unit_sphere(rng_stream(17), cfg.dim)
        with pytest.raises(ValueError, match="position"):
            sample_trigram(rng_stream(18), p, 4, cfg, vocab)


class TestTrigramMeanLaw:
    """Monte Carlo checks of the mean law E[t_i] = rho_i p."""

    def test_mean_tracks_product_direction(self):
        # d=16, m=10^4, 10^5 samples: cosine > 0.95, magnitude within 10%.
        dim, m, n = 16, 10_000, 100_000
        cfg = GeneratorConfig(
            dim=dim, vocab_size=m, max_len=2, lam=2.0,
            alphas=(0.9, 0.8), betas=(0.5, 1.0), epsilon_p=0.5,
            n_products=1, n_queries=0, seed=19,
        )
        vocab = rng_stream(19).standard_normal((m, dim))
        p = sample_unit_sphere(rng_stream(20), dim)
        rng = rng_stream(21)
        for pos in (1, 2):
            ids = sample_trigrams_batch(rng, p, pos, cfg, vocab, n)
            mean_vec = vocab[ids].mean(axis=0)
            rho = trigram_mean_coefficient(p, pos, cfg, vocab)
            cosine = mean_vec @ p / np.linalg.norm(mean_vec)
            assert cosine > 0.95
            assert abs(np.linalg.norm(mean_vec) - rho) / rho < 0.10

    def test_rho_zero_when_beta_zero(self):
        cfg = _config(betas=(0.0, 0.0, 0.0))
        vocab = rng_stream(22).standard_normal((cfg.vocab_size, cfg.dim))
        p = sample_unit_sphere(rng_stream(23), cfg.dim)
        assert trigram_mean_coefficient(p, 1, cfg, vocab) == 0.0


def former_trigrams_batch(rng, p, position, config, vocab, n_samples):
    """The batch sampler that placed every draw in the tilted CDF: pick, u, uniform."""
    alpha, beta = _position_params(config, position)
    cdf = np.cumsum(tilted_component_probs(p, beta, vocab))
    pick = rng.random(n_samples) < alpha
    tilted = np.minimum(np.searchsorted(cdf, rng.random(n_samples), side="right"), cdf.size - 1)
    return np.where(pick, tilted, rng.integers(config.vocab_size, size=n_samples))


def former_empirical_variance(p, position, config, vocab, n_samples, rng):
    """The scatter with one einsum row per sampled draw."""
    ids = former_trigrams_batch(rng, p, position, config, vocab, n_samples)
    rho = trigram_mean_coefficient(p, position, config, vocab)
    diff = vocab[ids] - rho * np.asarray(p, dtype=np.float64)
    return float(np.mean(np.einsum("ij,ij->i", diff, diff)))


class TestTrigramEmpiricalVariance:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 0.0, 0.7])
    def test_equals_former_per_draw_code(self, seed, alpha):
        # a stand-in for GeneratorConfig, which keeps alphas in (1/2, 1]; the samplers read
        # only these fields
        cfg = types.SimpleNamespace(dim=16, vocab_size=2000, max_len=2, alphas=(0.9, alpha),
                                    betas=(0.5, 1.5))
        vocab = rng_stream(seed, 1).standard_normal((cfg.vocab_size, cfg.dim))
        p = sample_unit_sphere(rng_stream(seed, 2), cfg.dim)
        got = sample_trigrams_batch(rng_stream(seed, 3), p, 2, cfg, vocab, 20_000)
        want = former_trigrams_batch(rng_stream(seed, 3), p, 2, cfg, vocab, 20_000)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        est = trigram_empirical_variance(p, 2, cfg, vocab, 20_000, rng_stream(seed, 4))
        assert est == former_empirical_variance(p, 2, cfg, vocab, 20_000, rng_stream(seed, 4))

    def test_beta_zero_alpha_one_matches_dim(self):
        dim, m = 16, 10_000
        cfg = GeneratorConfig(
            dim=dim, vocab_size=m, max_len=1, lam=1.0,
            alphas=(1.0,), betas=(0.0,), epsilon_p=0.5,
            n_products=1, n_queries=0, seed=24,
        )
        vocab = rng_stream(24).standard_normal((m, dim))
        p = sample_unit_sphere(rng_stream(25), dim)
        est = trigram_empirical_variance(p, 1, cfg, vocab, 100_000, rng_stream(26))
        assert abs(est - dim) / dim < 0.05

    def test_identical_positions_agree(self):
        dim, m = 8, 5000
        cfg = GeneratorConfig(
            dim=dim, vocab_size=m, max_len=2, lam=1.0,
            alphas=(0.8, 0.8), betas=(1.0, 1.0), epsilon_p=0.5,
            n_products=1, n_queries=0, seed=27,
        )
        vocab = rng_stream(27).standard_normal((m, dim))
        p = sample_unit_sphere(rng_stream(28), dim)
        e1 = trigram_empirical_variance(p, 1, cfg, vocab, 100_000, rng_stream(29))
        e2 = trigram_empirical_variance(p, 2, cfg, vocab, 100_000, rng_stream(30))
        assert abs(e1 - e2) / e1 < 0.02

    def test_minimum_sample_size_enforced(self):
        cfg = _config()
        vocab = rng_stream(31).standard_normal((cfg.vocab_size, cfg.dim))
        p = sample_unit_sphere(rng_stream(32), cfg.dim)
        with pytest.raises(ValueError, match="n_samples"):
            trigram_empirical_variance(p, 1, cfg, vocab, 999, rng_stream(33))

    @pytest.mark.xfail(
        strict=True,
        reason="the claimed monotone decrease contradicts the mean-deviation "
        "identity: E||t - rho p||^2 = d + alpha beta^2 (1 - alpha) grows "
        "with beta whenever alpha < 1 and stays flat at alpha = 1",
    )
    def test_variance_strictly_decreases_in_beta(self):
        dim, m = 16, 10_000
        vocab = rng_stream(34).standard_normal((m, dim))
        p = sample_unit_sphere(rng_stream(35), dim)
        estimates = []
        for beta in (0.0, 0.5, 1.0):
            cfg = GeneratorConfig(
                dim=dim, vocab_size=m, max_len=1, lam=1.0,
                alphas=(0.8,), betas=(beta,), epsilon_p=0.5,
                n_products=1, n_queries=0, seed=36,
            )
            estimates.append(
                trigram_empirical_variance(p, 1, cfg, vocab, 100_000, rng_stream(37))
            )
        assert estimates[0] > estimates[1] > estimates[2]


class TestGenerateDataset:
    def test_same_product_queries_are_adjacent(self):
        ds = generate_dataset(_config(n_products=2, n_queries=30, epsilon_p=1e-9))
        by_product = {}
        for qi, pid in enumerate(ds.queries.product_ids.tolist()):
            by_product.setdefault(pid, []).append(qi)
        for members in by_product.values():
            for i in members:
                for j in members:
                    if i != j:
                        assert has_edge(ds.graph, i, j)

    def test_epsilon_zero_gives_same_product_cliques_exactly(self):
        ds = generate_dataset(_config(epsilon_p=0.0, n_products=4, n_queries=40))
        for u in range(40):
            for v in range(u + 1, 40):
                same = ds.queries.product_ids[u] == ds.queries.product_ids[v]
                assert has_edge(ds.graph, u, v) == same

    def test_intermediate_epsilon_matches_brute_force_rule(self):
        eps = 1.0
        ds = generate_dataset(_config(epsilon_p=eps, n_products=8, n_queries=60))
        p = ds.products
        pid = ds.queries.product_ids.tolist()
        n = len(pid)
        want = [
            [u, v]
            for u in range(n)
            for v in range(u + 1, n)
            if pid[u] == pid[v] or np.linalg.norm(p[pid[u]] - p[pid[v]]) <= eps
        ]
        # some, but not all, cross-product query pairs are adjacent
        cross = [(u, v) for u in range(n) for v in range(u + 1, n) if pid[u] != pid[v]]
        n_cross_adjacent = sum([u, v] in want for u, v in cross)
        assert 0 < n_cross_adjacent < len(cross)
        for u in range(n):
            for v in range(n):
                assert has_edge(ds.graph, u, v) == (u != v and [min(u, v), max(u, v)] in want)
        assert ds.graph.edges().tolist() == want

    def test_sphere_diameter_gives_complete_graph(self):
        ds = generate_dataset(_config(epsilon_p=2.0 * (1 + 1e-9), n_products=6, n_queries=25))
        n = len(ds.queries)
        assert ds.graph.n_edges == n * (n - 1) // 2

    def test_purchase_map_assigns_generating_product(self):
        ds = generate_dataset(_config())
        for qi, pid in enumerate(ds.queries.product_ids.tolist()):
            assert ds.purchase_map[qi] == [(pid, 1)]

    def test_determinism_across_runs(self):
        a = generate_dataset(_config())
        b = generate_dataset(_config())
        assert np.array_equal(a.vocab, b.vocab)
        assert np.array_equal(a.products, b.products)
        assert a.queries == b.queries

    def test_threads_do_not_change_output(self):
        cfg = _config(n_queries=60)
        serial = generate_dataset(cfg, threads=1)
        parallel = generate_dataset(cfg, threads=4)
        assert serial.queries == parallel.queries
        assert np.array_equal(serial.vocab, parallel.vocab)

    def test_product_unit_norms(self):
        ds = generate_dataset(_config())
        assert_allclose(np.linalg.norm(ds.products, axis=1), 1.0, atol=1e-9)

    def test_empty_dataset(self):
        ds = generate_dataset(_config(n_products=0, n_queries=0))
        assert len(ds.queries) == 0
        assert ds.graph.n_edges == 0

    @pytest.mark.parametrize("field", ["vocab_size", "n_products"])
    def test_sizes_of_2_pow_32_rejected(self, field):
        # numpy's integers(n) leaves its 32-bit path there, and the decoder with it
        with pytest.raises(ValueError, match=rf"{field} must be < 2\*\*32"):
            generate_dataset(_config(**{field: 2**32}))


class TestBulkDecoding:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_products=1),
            dict(vocab_size=1),
            dict(max_len=1, alphas=(0.9,), betas=(1.0,)),
            dict(alphas=(1.0, 1.0, 1.0)),
            dict(alphas=(0.51, 0.51, 0.51)),
            dict(lam=0.1),
            dict(seed=2**40 + 3),
        ],
        ids=["one_product", "one_trigram", "max_len_1", "all_tilted", "mostly_uniform",
             "short_queries", "seed_past_2_40"],
    )
    def test_edge_configs_match_scalar_reference(self, overrides):
        ds = generate_dataset(_config(n_queries=200, **overrides))
        assert ds.queries == reference_queries(ds.config, ds.products, ds.vocab)

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_desk_recipe_matches_scalar_reference(self, seed):
        cfg = dataclasses.replace(default_benchmark_config(seed), n_queries=300)
        ds = generate_dataset(cfg)
        assert ds.queries == reference_queries(cfg, ds.products, ds.vocab)

    @pytest.mark.parametrize("n_words", [1, 3])
    def test_queries_past_their_word_budget_are_decoded_exactly(self, n_words):
        # both budgets are below the 2 + 2 * max_len words generation starts
        # with, so queries run past them and every stream is read again
        cfg = _config(n_queries=150, vocab_size=3000, alphas=(0.51, 0.51, 0.51), lam=5.0)
        ds = generate_dataset(cfg)
        assert _sample_queries(cfg, ds.products, ds.vocab, n_words) == ds.queries
        assert ds.queries == reference_queries(cfg, ds.products, ds.vocab)

    @pytest.mark.parametrize("n", [1, 200, 2000, 2**31 + 1])
    def test_reader_matches_generator_interleaved(self, n):
        # 2**31 + 1 rejects about half the 32-bit draws, so kept high halves
        # are consumed by rejections as well as by later draws
        streams = np.arange(STREAM_QUERIES, STREAM_QUERIES + 300)
        ops = rng_stream(40).random(40) < 0.5  # True: integers(n), False: random()
        reader = _StreamReader(41, streams, 200)
        rows = np.arange(streams.size)
        got = np.column_stack(
            [reader.integers(rows, n) if op else reader.random(rows) for op in ops]
        )
        for j, stream in enumerate(streams.tolist()):
            g = rng_stream(41, stream)
            want = [g.integers(n) if op else g.random() for op in ops]
            assert got[j].tolist() == want
            assert reader.cursor[j] == _words_used(g)

    def test_reader_past_its_words_reads_on_exactly(self):
        n, budget = 2**31 + 1, 3
        streams = np.arange(500)
        reader = _StreamReader(42, streams, budget)
        rows = np.arange(streams.size)
        got = np.column_stack([reader.integers(rows, n) for _ in range(4)])
        used = []
        for j, stream in enumerate(streams.tolist()):
            g = rng_stream(42, stream)
            assert got[j].tolist() == [g.integers(n) for _ in range(4)]
            used.append(_words_used(g))
        assert reader.cursor.tolist() == used
        assert 0 < sum(u > budget for u in used) < streams.size
        assert reader.words.shape[1] >= max(used)
        assert np.array_equal(reader.words, stream_words(42, streams, reader.words.shape[1]))


class TestCdfBlocks:
    """The tilted draws' CDF table is built and searched in blocks of keys."""

    @pytest.mark.parametrize("keys_per_block", [1, 7])
    def test_blocks_match_one_table_and_scalar_reference(self, monkeypatch, keys_per_block):
        cfg = _config(n_queries=200, n_products=9, betas=(1.0, 0.5, 1.5))
        whole = generate_dataset(cfg)
        monkeypatch.setattr(genmodel, "_CDF_BLOCK_FLOATS", keys_per_block * cfg.vocab_size)
        assert generate_dataset(cfg).queries == whole.queries
        assert whole.queries == reference_queries(cfg, whole.products, whole.vocab)

    def test_desk_and_dense_tables_fit_in_one_block(self):
        cfg = default_benchmark_config(0)  # one beta: one key per product
        assert cfg.n_products * cfg.vocab_size <= genmodel._CDF_BLOCK_FLOATS

    def test_many_betas_peak_allocation_is_bounded(self):
        # 12 betas x 500 products: one dense table would be 6000 x 2000 floats (92 MiB)
        betas = tuple(2.0 + 0.05 * i for i in range(12))
        cfg = dataclasses.replace(
            default_benchmark_config(0), betas=betas, n_products=500, n_queries=2000
        )
        tracemalloc.start()
        try:
            generate_dataset(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * genmodel._CDF_BLOCK_FLOATS, peak  # 32 MiB


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated above what was allocated before it."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGraphMemory:
    """The edge list stays in its ids' own width from generate to edges.tsv and back:
    traced peaks on the seed-3 20,000-query dataset (about 1M edges), where an
    (E, 2) int64 copy alone is 16 MB."""

    MIB = 2**20

    @pytest.fixture(scope="class")
    def dense(self, tmp_path_factory):
        cfg = dataclasses.replace(default_benchmark_config(3), n_queries=20_000)
        ds, generate = traced_peak(generate_dataset, cfg)
        out = str(tmp_path_factory.mktemp("dense"))
        _, save = traced_peak(save_dataset, ds, out)
        back, load = traced_peak(load_dataset, out)
        return types.SimpleNamespace(ds=ds, back=back, generate=generate, save=save, load=load)

    def test_stage_peaks_are_bounded(self, dense):
        assert dense.ds.graph.n_edges > 900_000
        assert dense.generate <= 38 * self.MIB, dense.generate
        assert dense.save <= 16 * self.MIB, dense.save
        assert dense.load <= 38 * self.MIB, dense.load
        g, back = dense.ds.graph, dense.back.graph
        assert np.array_equal(g.indptr, back.indptr) and np.array_equal(g.indices, back.indices)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_query_graph_peak_per_edge(self, dense, dtype):
        g = dense.ds.graph
        edges = g.edges().astype(dtype)
        built, peak = traced_peak(QueryGraph, g.n_queries, edges)
        assert peak <= 26 * len(edges), peak / len(edges)
        assert np.array_equal(built.indptr, g.indptr) and np.array_equal(built.indices, g.indices)


# ---------------------------------------------------------------------------
# Scalar reference for the row-wise inverse-CDF search: one CDF row and one
# np.searchsorted per key that occurs.


def inverse_cdf_by_group(keys, u, n_keys, cdf_row):
    """Draw j: u[j]'s inverse-CDF index in cdf_row(keys[j]); one row and one search per key."""
    order, bounds = _groups(keys, n_keys)
    out = np.empty(keys.size, dtype=np.int64)
    for k in np.flatnonzero(np.diff(bounds)):
        mine = order[bounds[k] : bounds[k + 1]]
        cdf = cdf_row(int(k))
        out[mine] = np.minimum(np.searchsorted(cdf, u[mine], side="right"), cdf.size - 1)
    return out


def _cdf_table(rng, n_rows, m):
    """Cumsummed probability rows with zero-probability runs; the last row is all zero."""
    probs = rng.random((n_rows, m))
    probs[rng.random((n_rows, m)) < 0.3] = 0.0
    for row in probs:
        start = rng.integers(m)
        row[start : start + rng.integers(1, m // 4 + 2)] = 0.0  # a flat CDF stretch
    probs[-1] = 0.0
    sums = probs.sum(axis=1, keepdims=True)
    return np.cumsum(probs / np.where(sums > 0, sums, 1.0), axis=1)


def _hard_draws(rng, cdfs, n):
    """Rows and uniforms hitting CDF entries exactly, 0, 1 and values past a row's end."""
    rows = rng.integers(len(cdfs), size=n)
    u = rng.random(n)
    kind = rng.integers(5, size=n)
    exact = cdfs[rows, rng.integers(cdfs.shape[1], size=n)]
    u = np.where(kind == 1, exact, u)
    u = np.where(kind == 2, 0.0, u)
    u = np.where(kind == 3, 1.0, u)
    past = np.nextafter(cdfs[rows, -1], np.inf) + rng.random(n) * (rng.random(n) < 0.5)
    return rows, np.where(kind == 4, past, u)


class TestInverseCdfRows:
    @pytest.mark.parametrize("m", [1, 2, 3, 30, 2047, 2048, 2049])
    def test_matches_scalar_reference_and_searchsorted(self, m):
        rng = rng_stream(50 + m)
        cdfs = _cdf_table(rng, 7, m)
        rows, u = _hard_draws(rng, cdfs, 3000)
        got = inverse_cdf_rows(cdfs, rows, u)
        assert got.dtype == np.int64
        want = inverse_cdf_by_group(rows, u, len(cdfs), lambda k: cdfs[k])
        assert np.array_equal(got, want)
        per_draw = [min(np.searchsorted(cdfs[r], x, side="right"), m - 1) for r, x in zip(rows, u)]
        assert got.tolist() == per_draw

    def test_entries_equal_to_u_are_counted(self):
        cdfs = np.array([[0.0, 0.0, 0.25, 0.25, 0.5, 1.0]])
        u = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.99, 1.0, 2.0])
        got = inverse_cdf_rows(cdfs, np.zeros(u.size, dtype=np.int64), u)
        assert got.tolist() == [2, 2, 4, 4, 5, 5, 5, 5]

    @pytest.mark.parametrize("bad", [-1, 3, 2**40])
    def test_rows_outside_table_rejected(self, bad):
        cdfs = _cdf_table(rng_stream(52), 3, 4)
        with pytest.raises(ValueError, match=rf"CDF row {bad} outside \[0, 3\)"):
            inverse_cdf_rows(cdfs, np.array([bad, 0]), np.array([0.6, 0.6]))

    def test_empty_draws(self):
        cdfs = _cdf_table(rng_stream(51), 3, 30)
        got = inverse_cdf_rows(cdfs, np.zeros(0, dtype=np.int64), np.zeros(0))
        assert got.shape == (0,) and got.dtype == np.int64

    def test_batch_sampler_keeps_its_draw_order(self):
        # the former sampler: pick, tilted uniform, integers, one searchsorted
        cfg = _config(vocab_size=300)
        vocab = rng_stream(19).standard_normal((300, cfg.dim))
        p = sample_unit_sphere(rng_stream(20), cfg.dim)
        rng = rng_stream(21)
        alpha, beta = cfg.alphas[1], cfg.betas[1]
        cdf = np.cumsum(tilted_component_probs(p, beta, vocab))
        pick = rng.random(5000) < alpha
        tilted = np.minimum(np.searchsorted(cdf, rng.random(5000), side="right"), 299)
        want = np.where(pick, tilted, rng.integers(300, size=5000))
        assert np.array_equal(sample_trigrams_batch(rng_stream(21), p, 2, cfg, vocab, 5000), want)


class TestMatrixSerialization:
    def test_round_trip(self, tmp_path):
        arr = rng_stream(38).standard_normal((7, 3))
        path = os.path.join(tmp_path, "m.bin")
        write_matrix(path, arr)
        assert np.array_equal(read_matrix(path), arr)
        assert os.path.getsize(path) == 16 + 7 * 3 * 8

    def test_empty_matrix_round_trip(self, tmp_path):
        arr = np.zeros((0, 5))
        path = os.path.join(tmp_path, "empty.bin")
        write_matrix(path, arr)
        out = read_matrix(path)
        assert out.shape == (0, 5)

    def test_bad_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTMAGIC" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            read_matrix(path)

    def test_truncated_payload_rejected(self, tmp_path):
        arr = np.ones((4, 4))
        path = os.path.join(tmp_path, "trunc.bin")
        write_matrix(path, arr)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(ValueError):
            read_matrix(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        # the size is checked against the file before a read of that size,
        # which for this header raised OverflowError
        path = os.path.join(tmp_path, "huge.bin")
        write_matrix(path, np.ones((1, 1)))
        with open(path, "r+b") as fh:
            fh.seek(8)
            fh.write(b"\xff" * 8)  # rows = cols = 0xFFFFFFFF
        with pytest.raises(ValueError, match=f"payload 8 bytes, expected {0xFFFFFFFF**2 * 8}"):
            read_matrix(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        arr = np.ones((2, 2))
        path = os.path.join(tmp_path, "trail.bin")
        write_matrix(path, arr)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            read_matrix(path)


class TestConfigText:
    def test_parse_key_values_basic(self):
        kv = parse_key_values("a = 1\n# comment\n\nb = two words  # tail\n")
        assert kv == {"a": "1", "b": "two words"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_key_values("a = 1\na = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_key_values("just some text\n")

    def test_config_txt_bytes_pinned(self, tmp_path):
        save_dataset(generate_dataset(tiny_universe_config(29)), str(tmp_path))
        assert (tmp_path / "config.txt").read_bytes() == (
            b"alphas = 0.95,0.9,0.85\nbetas = 1.0,0.9,0.8\ndim = 4\nepsilon_p = 0.8\n"
            b"lam = 1.0\nmax_len = 3\nn_products = 300\nn_queries = 0\nseed = 29\n"
            b"vocab_size = 30\n"
        )


# query ids past 999, trigram ids past 99, product ids past 9; no queries; every length
_TEXT_CASES = [
    dict(vocab_size=150, max_len=4, alphas=(0.6,) * 4, betas=(1.0,) * 4, n_products=12,
         n_queries=1100, epsilon_p=0.3),
    dict(n_products=0, n_queries=0),
    dict(),
]
_TEXT_CASE_IDS = ["digit_boundaries", "empty", "lengths_1_to_max_len"]


def digit_table_text(dataset):
    """queries.tsv and edges.tsv as the digit-table writer made them: each cell's digits
    gathered into a (rows, cols, w + 1) buffer, a tab or a newline set after them, the
    absent cells zeroed and every 0 byte dropped."""
    c, q, edges = dataset.config, dataset.queries, dataset.graph.edges()
    n = max(c.n_products, c.vocab_size, len(q))
    width = len(str(max(n - 1, 0)))
    digits = np.arange(n).astype(f"S{width}").view(np.uint8).reshape(n, width)

    def tsv(fields, present):
        cells = np.full((*fields.shape, width + 1), ord("\t"), dtype=np.uint8)
        cells[..., :-1] = digits[fields]
        cells[np.arange(len(fields)), present.sum(axis=1) - 1, -1] = ord("\n")
        cells[~present] = 0
        text = cells.ravel()
        return text[text != 0].tobytes()

    fields = np.column_stack([q.product_ids, q.ids])
    queries = tsv(fields, np.arange(fields.shape[1]) <= q.lengths[:, None])
    return queries, tsv(edges, np.ones(edges.shape, bool))


def assert_row_blocks_equal_one_shot_text(ds, tmp_path, monkeypatch, block):
    """edges.tsv written in row blocks equals one _tsv_bytes call over the whole edge
    list; the blocks tile the rows in order, and each holds the most rows whose CSR
    entries fit in block, or one longer row."""
    n = max(ds.config.n_products, ds.config.vocab_size, len(ds.queries))
    want = genmodel._tsv_bytes(genmodel._cell_table(n), ds.graph.edges() + [0, n])
    monkeypatch.setattr(genmodel, "_EDGE_WRITE_BLOCK", block)
    ranges, edges = [], QueryGraph.edges
    monkeypatch.setattr(QueryGraph, "edges", lambda g, lo, hi: ranges.append((lo, hi)) or edges(g, lo, hi))
    save_dataset(ds, str(tmp_path))
    monkeypatch.undo()
    assert (tmp_path / "edges.tsv").read_bytes() == want
    indptr, rows = ds.graph.indptr, len(ds.queries)
    bounds = [0, *(hi for _, hi in ranges)]
    assert ranges == list(zip(bounds, bounds[1:])) and bounds[-1] == rows
    for lo, hi in ranges:
        assert hi == lo + 1 or indptr[hi] - indptr[lo] <= block
        assert hi == rows or indptr[hi + 1] - indptr[lo] > block
    assert load_dataset(str(tmp_path)).graph.edges().tolist() == ds.graph.edges().tolist()


def per_line_queries(path, width):
    """queries.tsv as the loader once read it: int() of each tab-split field, line by line."""
    with open(path) as fh:
        lines = [[int(t) for t in line.split("\t")] for line in map(str.strip, fh) if line]
    return query_table([line[1:] for line in lines], [line[0] for line in lines], width)


class TestDatasetSerialization:
    def test_round_trip(self, tmp_path):
        ds = generate_dataset(_config())
        out = os.path.join(tmp_path, "ds")
        save_dataset(ds, out)
        back = load_dataset(out)
        assert back.config == ds.config
        assert np.array_equal(back.vocab, ds.vocab)
        assert np.array_equal(back.products, ds.products)
        assert back.queries == ds.queries
        assert np.array_equal(back.graph.edges(), ds.graph.edges())
        assert back.purchase_map == ds.purchase_map

    def test_save_is_byte_deterministic(self, tmp_path):
        cfg = _config()
        d1, d2 = os.path.join(tmp_path, "a"), os.path.join(tmp_path, "b")
        save_dataset(generate_dataset(cfg), d1)
        save_dataset(generate_dataset(cfg), d2)
        for name in os.listdir(d1):
            b1 = open(os.path.join(d1, name), "rb").read()
            b2 = open(os.path.join(d2, name), "rb").read()
            assert b1 == b2, name

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = generate_dataset(_config(n_products=0, n_queries=0))
        out = os.path.join(tmp_path, "empty")
        save_dataset(ds, out)
        back = load_dataset(out)
        assert len(back.queries) == 0
        assert back.graph.n_edges == 0
        assert os.path.getsize(os.path.join(out, "edges.tsv")) == 0

    @pytest.mark.parametrize("overrides", _TEXT_CASES, ids=_TEXT_CASE_IDS)
    def test_text_equals_reference_writer(self, tmp_path, monkeypatch, overrides):
        ds = generate_dataset(_config(**overrides))
        q, edges = ds.queries, ds.graph.edges()
        if len(q):
            assert {1, ds.config.max_len} <= set(q.lengths.tolist())
        if overrides.get("n_queries", 0) > 1000:
            assert edges.max() >= 1000 and q.ids.max() >= 100 and q.product_ids.max() >= 10
            monkeypatch.setattr(genmodel, "_EDGE_WRITE_BLOCK", 777)  # blocks end mid-file
        save_dataset(ds, str(tmp_path))
        # the former writer: "\t".join of str per query line, "%d\t%d\n" per edge
        queries = "".join(
            "\t".join(map(str, [pid, *ids[:n]])) + "\n"
            for pid, ids, n in zip(q.product_ids.tolist(), q.ids.tolist(), q.lengths.tolist())
        )
        edge_text = ("%d\t%d\n" * len(edges)) % tuple(edges.ravel().tolist())
        assert (tmp_path / "queries.tsv").read_bytes() == queries.encode()
        assert (tmp_path / "edges.tsv").read_bytes() == edge_text.encode()
        assert digit_table_text(ds) == (queries.encode(), edge_text.encode())

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    @pytest.mark.parametrize(
        "edges",
        [[(0, 5), (5, 39), (10, 20)], [(0, v) for v in range(1, 40)] + [(1, 2), (38, 39)], [],
         None],
        ids=["isolated_queries", "row_longer_than_a_block", "no_edges", "generated"],
    )
    def test_row_blocks_equal_one_shot_text(self, tmp_path, monkeypatch, block, edges):
        ds = generate_dataset(_config())
        if edges is not None:
            ds = dataclasses.replace(ds, graph=QueryGraph(40, edges))
        assert_row_blocks_equal_one_shot_text(ds, tmp_path, monkeypatch, block)

    @pytest.mark.parametrize(
        "cfg", [_config(n_products=0, n_queries=0), default_benchmark_config(3)], ids=["empty", "desk"]
    )
    def test_row_blocks_equal_one_shot_text_on_whole_datasets(self, tmp_path, monkeypatch, cfg):
        assert_row_blocks_equal_one_shot_text(generate_dataset(cfg), tmp_path, monkeypatch, 7)

    @pytest.mark.parametrize("n", [1, 2, 9, 10, 11, 99, 100, 101, 1000, 1001])
    def test_cell_table_at_digit_widths(self, n):
        cells = genmodel._cell_table(n)
        assert cells.shape == (2 * n + 1,)
        rows = cells.view(np.uint8).reshape(2 * n + 1, -1)
        text = [bytes(row).replace(b"\0", b"") for row in rows]
        assert text == [b"%d\t" % v for v in range(n)] + [b"%d\n" % v for v in range(n)] + [b""]
        edges = np.array([[0, n - 1], [n // 2, n - 1], [0, 0]])  # the first, a middle and the last
        got = genmodel._tsv_bytes(cells, edges + [0, n])
        assert got == ("%d\t%d\n" * 3 % tuple(edges.ravel().tolist())).encode()

    def test_text_bytes_pinned(self, tmp_path):
        # sha256 taken from the "%d"-formatting writer this one replaced
        save_dataset(generate_dataset(_config()), str(tmp_path))
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("queries.tsv", "edges.tsv")
        }
        assert digests == {
            "queries.tsv": "9f361ff7721eb5773c0998010a00c8a39846cf0c1ae6e88bb325bd1bc76139cd",
            "edges.tsv": "7ddd4c3a6aa72b84b0d53039a8eb1a366809cf37e7aa4ab4488ac128768856a9",
        }

    @pytest.mark.parametrize(
        "first_line, message",
        [
            ("3", "at least one trigram"),
            ("3\t4\t-1", "non-negative"),
            ("3\t50", "vocabulary"),
            ("3\t1\t2\t3\t4", "exceeds max_len 3"),
            ("5\t1", "product_id 5 out of range"),
            ("3\t1.5", "invalid literal"),
            ("3\tx", "invalid literal"),
            ("3\t1\t" + "9" * 20, "queries.tsv"),
            ("9" * 20 + "\t1", "queries.tsv"),
        ],
    )
    def test_bad_query_line_rejected(self, tmp_path, first_line, message):
        out = os.path.join(tmp_path, "ds")
        save_dataset(generate_dataset(_config()), out)
        path = os.path.join(out, "queries.tsv")
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join([first_line, *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match=message):
            load_dataset(out)

    @pytest.mark.parametrize("overrides", _TEXT_CASES, ids=_TEXT_CASE_IDS)
    def test_reader_equals_per_line_parser(self, tmp_path, overrides):
        ds = generate_dataset(_config(**overrides))
        save_dataset(ds, str(tmp_path))
        path = str(tmp_path / "queries.tsv")
        table = _read_queries(path, ds.config.max_len)
        assert table == per_line_queries(path, ds.config.max_len) == ds.queries

    def test_reader_takes_ids_up_to_int64_max(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_bytes(b"0\t9223372036854775807\n10\t0\t1000000000000000000\n")
        table = _read_queries(str(path), 2)
        assert table.ids.tolist() == [[2**63 - 1, 0], [0, 10**18]]
        assert table.lengths.tolist() == [1, 2] and table.product_ids.tolist() == [0, 10]

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"3\t10\r", "invalid literal"),  # a CRLF line end
            (b"\n3\t10", "empty field"),  # a blank line
            (b"3\t\t10", "empty field"),
            (b"3\t10\t", "empty field"),
            (b"\t3\t10", "empty field"),
            (b" 3\t10", "invalid literal"),
            (b"3\t+5", "invalid literal"),
            (b"3\t1_0", "invalid literal"),
            ("3\t\uff15".encode(), "invalid literal"),  # a full-width 5
            (b"3\t1\x00", "invalid literal"),
            (b"3\t05", "invalid literal"),
            (b"3\t-0", "non-negative"),
            (b"3\t9223372036854775808", "past the int64 range"),
            (b"3\t" + b"9" * 19, "past the int64 range"),
            (b"3\t" + b"1" * 20, "past the int64 range"),
        ],
        ids=["crlf", "blank_line", "double_tab", "trailing_tab", "leading_tab", "leading_space",
             "plus", "underscore", "non_ascii_digit", "nul", "leading_zero", "minus_zero",
             "2_pow_63", "19_digits", "20_digits"],
    )
    def test_bytes_the_writer_never_writes_rejected(self, tmp_path, line, message):
        out = os.path.join(tmp_path, "ds")
        save_dataset(generate_dataset(_config()), out)
        path = os.path.join(out, "queries.tsv")
        lines = open(path, "rb").read().split(b"\n")
        with open(path, "wb") as fh:
            fh.write(b"\n".join([*lines[:2], line, *lines[3:]]))
        with pytest.raises(ValueError, match=rf"queries\.tsv line 3: .*{message}"):
            load_dataset(out)

    def test_missing_final_newline_rejected(self, tmp_path):
        out = os.path.join(tmp_path, "ds")
        save_dataset(generate_dataset(_config()), out)
        path = os.path.join(out, "queries.tsv")
        text = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(text[:-1])
        with pytest.raises(ValueError, match=r"queries\.tsv line 40: no final newline"):
            load_dataset(out)

    def test_first_bad_line_is_named(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_bytes(b"1\t2\n1\t2\t3\t4\t5\n1\n1\tx\n1\t\t2\n")
        with pytest.raises(ValueError, match=r"queries\.tsv line 2: query length 4 exceeds max_len 3"):
            _read_queries(str(path), 3)
        path.write_bytes(b"1\t2\n1\n1\tx\n1\t2\t3\t4\t5\n")
        with pytest.raises(ValueError, match=r"queries\.tsv line 2: .*at least one trigram"):
            _read_queries(str(path), 3)

    @pytest.mark.parametrize("keep", [slice(1, None), slice(None), slice(0, 1)])
    def test_wrong_query_count_rejected(self, tmp_path, keep):
        out = os.path.join(tmp_path, "ds")
        save_dataset(generate_dataset(_config()), out)
        path = os.path.join(out, "queries.tsv")
        lines = open(path).read().splitlines()
        lines = lines[keep] if keep != slice(None) else lines + lines[:1]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="queries != configured 40"):
            load_dataset(out)

    def test_duplicate_edge_line_rejected(self, tmp_path):
        ds = generate_dataset(_config())
        out = os.path.join(tmp_path, "ds")
        save_dataset(ds, out)
        u, v = ds.graph.edges()[0]
        with open(os.path.join(out, "edges.tsv"), "a") as fh:
            fh.write(f"{u}\t{v}\n")
        with pytest.raises(ValueError, match="duplicate edge"):
            load_dataset(out)

    def test_malformed_edge_line_rejected(self, tmp_path):
        ds = generate_dataset(_config())
        out = os.path.join(tmp_path, "ds")
        save_dataset(ds, out)
        with open(os.path.join(out, "edges.tsv"), "a") as fh:
            fh.write("1\tx\n")
        with pytest.raises(ValueError):
            load_dataset(out)

    @pytest.mark.parametrize("bad", [-1, 40, 2**31, 2**63], ids=["minus_1", "n_queries", "2_pow_31", "2_pow_63"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_edge_id_out_of_range_rejected(self, tmp_path, bad, column):
        out = os.path.join(tmp_path, "ds")
        save_dataset(generate_dataset(_config()), out)
        edge = [(bad, 1), (0, bad)][column]
        with open(os.path.join(out, "edges.tsv"), "a") as fh:
            fh.write("%d\t%d\n" % edge)
        with pytest.raises(ValueError, match="out of range" if -1 <= bad <= 40 else None):
            load_dataset(out)

    def test_unordered_edge_file_rejected(self, tmp_path):
        ds = generate_dataset(_config())
        out = os.path.join(tmp_path, "ds")
        save_dataset(ds, out)
        with open(os.path.join(out, "edges.tsv"), "w") as fh:
            fh.write("3\t1\n")
        with pytest.raises(ValueError, match="u < v"):
            load_dataset(out)

    # (file, its new text from the saved text, the message after the file's path)
    @pytest.mark.parametrize("name, edit, message", [
        ("config.txt", lambda text: text + "oops\n", "line 11: expected 'key = value', got 'oops'"),
        ("config.txt", lambda text: text.replace("dim = 4\n", ""),
         r"missing GeneratorConfig keys: \['dim'\]"),
        ("config.txt", lambda text: text.replace("dim = 4", "dim = x"), "dim: invalid literal"),
        ("edges.tsv", lambda text: text + text.splitlines(True)[0], r"duplicate edge \(0, \d+\)"),
        ("edges.tsv", lambda text: "0\t40\n" + text, r"edge \(0, 40\) has a query id out of range"),
        ("edges.tsv", lambda text: "0\t1\tx\n" + text,
         "could not convert string 'x' to int32 at row 0, column 3"),
        ("queries.tsv", lambda text: "3\tx\n" + text.split("\n", 1)[1], "line 1: invalid literal"),
        ("queries.tsv", lambda text: "3\t50\n" + text.split("\n", 1)[1],
         "trigram id out of vocabulary range"),
        ("queries.tsv", lambda text: "5\t1\n" + text.split("\n", 1)[1], "product_id 5 out of range"),
        ("queries.tsv", lambda text: text.split("\n", 1)[1], "39 queries != configured 40"),
    ], ids=["config-line", "config-missing", "config-value", "edges-duplicate", "edges-range",
            "edges-parse", "queries-parse", "queries-vocabulary", "queries-product", "queries-count"])
    def test_content_errors_name_their_file_once(self, tmp_path, name, edit, message):
        out = os.path.join(tmp_path, "ds")
        save_dataset(generate_dataset(_config()), out)
        path = os.path.join(out, name)
        with open(path) as fh:
            text = edit(fh.read())
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError) as caught:
            load_dataset(out)
        # the parser of queries.tsv names the file and the line itself: " line 1:"
        assert str(caught.value).count(name) == 1
        assert re.fullmatch(f"{re.escape(path)}:? {message}.*", str(caught.value))

    @pytest.mark.parametrize("name, bad", [("vocab.bin", np.inf), ("products.bin", np.nan)])
    def test_non_finite_matrix_rejected(self, tmp_path, name, bad):
        out = os.path.join(tmp_path, "ds")
        save_dataset(generate_dataset(_config()), out)
        path = os.path.join(out, name)
        arr = read_matrix(path)
        arr[0, 0] = bad
        write_matrix(path, arr)
        with pytest.raises(ValueError, match="must be finite"):
            load_dataset(out)


class TestLinearVarianceProfile:
    def test_variance_line_is_exact(self):
        beta, span, dim, n = 2.0, 0.96, 16, 12
        alphas = alphas_for_linear_variance(n, beta, span)
        sigma2 = [dim + a * beta * beta * (1 - a) for a in alphas]
        expected = [dim + span * i / (n - 1) for i in range(n)]
        assert_allclose(sigma2, expected, atol=1e-12)
        assert all(0.5 < a <= 1.0 for a in alphas)
        assert alphas[0] == 1.0

    def test_span_cap_enforced(self):
        with pytest.raises(ValueError, match="variance_span"):
            alphas_for_linear_variance(12, 2.0, 1.01)

    def test_default_benchmark_is_valid_and_constant_beta(self):
        cfg = default_benchmark_config(0)
        assert cfg.dim == 16 and cfg.vocab_size == 2000
        assert cfg.n_products == 200 and cfg.n_queries == 5000
        assert len(set(cfg.betas)) == 1
