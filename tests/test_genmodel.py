import os

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare, poisson

from queryemb.core import GeneratorConfig, rng_stream, sample_unit_sphere
from queryemb.genmodel import (
    alphas_for_linear_variance,
    config_from_mapping,
    default_benchmark_config,
    generate_dataset,
    load_dataset,
    mixture_probs,
    parse_key_values,
    partition_function,
    read_matrix,
    sample_query_length,
    sample_trigram,
    sample_trigrams_batch,
    save_dataset,
    trigram_empirical_variance,
    trigram_mean_coefficient,
    truncated_poisson_pmf,
    write_matrix,
)


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
        p = sample_unit_sphere(rng_stream(15), cfg.dim)
        for pos in (1, 2, 3):
            probs = mixture_probs(p, pos, cfg, vocab)
            assert abs(probs.sum() - 1.0) < 1e-12
            assert probs.min() >= (1 - cfg.alphas[pos - 1]) / cfg.vocab_size - 1e-15

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


class TestTrigramEmpiricalVariance:
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
                        assert ds.graph.has_edge(i, j)

    def test_epsilon_zero_gives_same_product_cliques_exactly(self):
        ds = generate_dataset(_config(epsilon_p=0.0, n_products=4, n_queries=40))
        for u in range(40):
            for v in range(u + 1, 40):
                same = ds.queries.product_ids[u] == ds.queries.product_ids[v]
                assert ds.graph.has_edge(u, v) == same

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
                assert ds.graph.has_edge(u, v) == (u != v and [min(u, v), max(u, v)] in want)
        assert ds.graph.edges().tolist() == want

    def test_sphere_diameter_gives_complete_graph(self):
        ds = generate_dataset(_config(epsilon_p=2.0 * (1 + 1e-9), n_products=6, n_queries=25))
        n = len(ds.queries)
        assert ds.graph.n_edges == n * (n - 1) // 2

    def test_purchase_map_assigns_generating_product(self):
        ds = generate_dataset(_config())
        for qi, pid in enumerate(ds.queries.product_ids.tolist()):
            assert ds.graph.purchase_map[qi] == [(pid, 1)]

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

    def test_config_from_mapping_requires_all_keys(self):
        with pytest.raises(ValueError, match="missing"):
            config_from_mapping({"dim": "4"})

    def test_config_from_mapping_rejects_unknown(self):
        kv = {
            "dim": "4", "vocab_size": "50", "max_len": "1", "lam": "2.0",
            "alphas": "0.9", "betas": "1.0", "epsilon_p": "0.5",
            "n_products": "5", "n_queries": "0", "seed": "1", "bogus": "x",
        }
        with pytest.raises(ValueError, match="unknown"):
            config_from_mapping(kv)


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
        assert back.graph.purchase_map == ds.graph.purchase_map

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

    def test_unordered_edge_file_rejected(self, tmp_path):
        ds = generate_dataset(_config())
        out = os.path.join(tmp_path, "ds")
        save_dataset(ds, out)
        with open(os.path.join(out, "edges.tsv"), "w") as fh:
            fh.write("3\t1\n")
        with pytest.raises(ValueError, match="u < v"):
            load_dataset(out)


class TestLinearVarianceProfile:
    def test_variance_line_is_exact(self):
        beta, span, dim, n = 2.0, 0.96, 16, 12
        alphas = alphas_for_linear_variance(dim, n, beta, span)
        sigma2 = [dim + a * beta * beta * (1 - a) for a in alphas]
        expected = [dim + span * i / (n - 1) for i in range(n)]
        assert_allclose(sigma2, expected, atol=1e-12)
        assert all(0.5 < a <= 1.0 for a in alphas)
        assert alphas[0] == 1.0

    def test_span_cap_enforced(self):
        with pytest.raises(ValueError, match="variance_span"):
            alphas_for_linear_variance(16, 12, 2.0, 1.01)

    def test_default_benchmark_is_valid_and_constant_beta(self):
        cfg = default_benchmark_config(0)
        assert cfg.dim == 16 and cfg.vocab_size == 2000
        assert cfg.n_products == 200 and cfg.n_queries == 5000
        assert len(set(cfg.betas)) == 1
