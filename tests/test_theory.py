import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import minimize

from queryemb import theory
from queryemb.core import GeneratorConfig, rng_stream
from queryemb.embedder import AttentionModel, init_model
from queryemb.genmodel import (
    default_benchmark_config,
    generate_dataset,
    mixture_probs,
    partition_function,
    product_adjacency,
    rho_from_partition,
    trigram_empirical_variance,
    trigram_mean_coefficient,
    truncated_poisson_pmf,
)
from queryemb.theory import (
    _affine_fit,
    _count_in,
    _decode_codes,
    _fmt,
    _position_probs,
    _product_scores,
    _query_vectors,
    _sample_sequences,
    BETA_PANEL_FILE,
    DESK_SEED,
    FIGURE_BETA_RESIDUAL_MAX,
    SUITES,
    TINY_MIN_COUNT,
    FIT_BETA_MAX,
    SEEDS,
    VALIDATE_SEED,
    VARIANCE_PANEL_FILE,
    WEIGHT_PANEL_FILE,
    BlueReport,
    CheckResult,
    blue_report,
    blue_weights,
    enumerate_pmi,
    estimate_pmi,
    estimator_variances,
    fit_betas,
    mean_trigram_coefficient,
    pearson_r,
    position_variances,
    sequence_conditionals,
    tiny_universe_config,
)


def simplex_qp_oracle(variances):
    """Numeric minimizer of sum w_i^2 s_i over the probability simplex.

    Solves the stationarity system of the quadratic program directly
    (one linear solve); the optimum is interior for positive variances,
    which the caller's positivity assertion certifies, so no inequality
    constraint is active.
    """
    v = np.asarray(variances, dtype=np.float64)
    k = v.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = np.diag(2.0 * v)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    w = np.linalg.solve(kkt, rhs)[:k]
    assert (w > 0).all()
    return w


class TestBlueWeights:
    def test_constant_variances_uniform(self):
        assert_allclose(blue_weights([7.0, 7.0, 7.0]), [1 / 3] * 3, atol=1e-15)

    def test_hand_example(self):
        assert_allclose(blue_weights([1.0, 2.0, 4.0]), [4 / 7, 2 / 7, 1 / 7], rtol=1e-15)

    def test_dominant_precision_limit(self):
        w = blue_weights([1.0, 1e6])
        assert abs(w[0] - 1.0) < 1e-5 and abs(w[1]) < 1e-5

    def test_matches_numeric_simplex_minimizer(self):
        rng = rng_stream(70)
        worst = 0.0
        for _ in range(100):
            v = rng.uniform(0.1, 10.0, size=int(rng.integers(2, 12)))
            worst = max(worst, float(np.max(np.abs(blue_weights(v) - simplex_qp_oracle(v)))))
        assert worst <= 1e-9, worst

    def test_oracle_itself_minimizes(self):
        # certify the linear-solve oracle against an off-the-shelf
        # constrained minimizer at its own (looser) accuracy
        rng = rng_stream(71)
        for _ in range(5):
            v = rng.uniform(0.5, 5.0, size=6)
            res = minimize(
                lambda w: float(w @ (w * v)),
                np.full(6, 1 / 6),
                jac=lambda w: 2.0 * w * v,
                method="SLSQP",
                bounds=[(0.0, 1.0)] * 6,
                constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
                options={"ftol": 1e-14, "maxiter": 200},
            )
            assert np.max(np.abs(res.x - simplex_qp_oracle(v))) < 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            blue_weights([1.0, 0.0])
        with pytest.raises(ValueError, match="positive"):
            blue_weights([1.0, -2.0])
        with pytest.raises(ValueError, match="positive"):
            blue_weights([1.0, np.nan])
        with pytest.raises(ValueError, match="positive"):
            estimator_variances([1.0, np.nan])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=15),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance_and_normalization(self, variances, scale):
        v = np.asarray(variances)
        w = blue_weights(v)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert_allclose(blue_weights(scale * v), w, atol=1e-12)


class TestEstimatorVariances:
    def test_linear_profile_k4(self):
        unweighted, weighted = estimator_variances([1.0, 2.0, 3.0, 4.0])
        assert abs(unweighted - 0.625) <= 1e-12  # 1/2 + 1/(2*4)
        assert abs(weighted - 12.0 / 25.0) <= 1e-12  # 1 / H_4

    def test_closed_forms_all_sizes(self):
        for k in (4, 10, 100):
            v = np.arange(1, k + 1, dtype=np.float64)
            unweighted, weighted = estimator_variances(v)
            assert abs(unweighted - (0.5 + 0.5 / k)) <= 1e-12
            assert abs(weighted - 1.0 / np.sum(1.0 / v)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=15))
    def test_weighted_never_exceeds_unweighted(self, variances):
        unweighted, weighted = estimator_variances(variances)
        assert weighted <= unweighted * (1 + 1e-12)
        if len(set(variances)) == 1:
            assert abs(weighted - unweighted) <= 1e-12 * unweighted

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            estimator_variances([0.0, 1.0])


class TestPearsonR:
    def test_perfect_line(self):
        assert pearson_r([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            pearson_r([1, 1, 1], [1, 2, 3])


class ExactPmi:
    """Scalar enumeration reference for sequence probabilities on a tiny universe.

    Sequences are tuples of trigram ids; enumerate_pmi is its array form.
    """

    def __init__(self, dataset):
        c = dataset.config
        self.dataset = dataset
        self.adj = product_adjacency(dataset.products, c.epsilon_p)
        self.n_ordered_pairs = int(self.adj.sum())
        self.probs = _position_probs(dataset)
        self.length_pmf = truncated_poisson_pmf(c.lam, c.max_len)

    def conditional(self, sequence):
        f = np.full(self.dataset.config.n_products, self.length_pmf[len(sequence) - 1])
        for pos, t in enumerate(sequence):
            f = f * self.probs[pos][:, t]
        return f

    def marginal(self, sequence):
        return float(self.conditional(sequence).mean())

    def joint(self, seq_a, seq_b):
        fa = self.conditional(seq_a)
        fb = self.conditional(seq_b)
        return float(fa @ self.adj @ fb) / self.n_ordered_pairs

    def pmi(self, seq_a, seq_b):
        return float(
            np.log(self.joint(seq_a, seq_b) / (self.marginal(seq_a) * self.marginal(seq_b)))
        )


def _encode(sequence, vocab_size=30):
    """The sequence code sum_i (t_i + 1) * (m+1)^i of a tuple of trigram ids."""
    return sum((t + 1) * (vocab_size + 1) ** i for i, t in enumerate(sequence))


def _beta_zero_universe(seed):
    return GeneratorConfig(
        dim=4, vocab_size=30, max_len=3, lam=1.0,
        alphas=(0.95, 0.9, 0.85), betas=(0.0, 0.0, 0.0), epsilon_p=0.8,
        n_products=300, n_queries=0, seed=seed,
    )


class TestEstimatePmi:
    def test_minimum_sample_size(self):
        ds = generate_dataset(tiny_universe_config(0))
        with pytest.raises(ValueError, match="1000"):
            estimate_pmi(ds, n_joint=999)

    def test_pair_keys_that_would_overflow_int64_rejected(self):
        # 31**14 > 2**63: the int64 pair keys lo * 31**7 + hi would wrap
        cfg = tiny_universe_config(0)
        big = GeneratorConfig(
            dim=cfg.dim, vocab_size=30, max_len=7, lam=1.0, alphas=(0.9,) * 7,
            betas=(1.0,) * 7, epsilon_p=cfg.epsilon_p, n_products=20, n_queries=0, seed=0,
        )
        with pytest.raises(ValueError, match=r"2\*\*63"):
            estimate_pmi(generate_dataset(big), n_joint=1000, n_marginal=1000)

    def test_deterministic_per_seed(self):
        ds = generate_dataset(tiny_universe_config(3))
        a = estimate_pmi(ds, 40_000, 40_000, seed=9, min_count=8)
        b = estimate_pmi(ds, 40_000, 40_000, seed=9, min_count=8)
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.pmi, b.pmi)
        assert np.array_equal(a.std_errors, b.std_errors)

    def test_orthogonal_model_vectors_give_zero_dot(self):
        ds = generate_dataset(tiny_universe_config(4))
        # force orthogonality by hand: disjoint coordinate support
        vocab = ds.vocab.copy()
        vocab[0] = [1.0, 0.0, 0.0, 0.0]
        vocab[1] = [0.0, 2.0, 0.0, 0.0]
        ds_orth = type(ds)(
            config=ds.config, vocab=vocab, products=ds.products,
            queries=ds.queries, graph=ds.graph,
        )
        qa = _query_vectors(ds_orth, np.array([_encode((0,)), _encode((0, 0))]))
        qb = _query_vectors(ds_orth, np.array([_encode((1,)), _encode((1, 1))]))
        assert np.array_equal(np.einsum("ij,ij->i", qa, qb), [0.0, 0.0])

    def test_beta_zero_universe_pmi_is_noise_around_zero(self):
        # with beta = 0 every query is uniform regardless of product, so
        # joint = product of marginals exactly and every true PMI is 0
        ds = generate_dataset(_beta_zero_universe(VALIDATE_SEED))
        est = estimate_pmi(ds, seed=VALIDATE_SEED)
        assert np.array_equal(est.dot_over_d, np.zeros(len(est.pairs)))
        z = np.abs(est.pmi) / est.std_errors
        assert len(est.pairs) > 100
        assert float(np.mean(z <= 2.0)) >= 0.9
        assert float(z.max()) <= 4.5

    def test_exact_oracle_symmetry(self):
        ds = generate_dataset(tiny_universe_config(5))
        oracle = ExactPmi(ds)
        a, b = (0, 3), (2,)
        # fa @ adj @ fb sums in a different order than fb @ adj @ fa, so
        # agreement is to rounding, not bit-exact
        assert oracle.pmi(a, b) == pytest.approx(oracle.pmi(b, a), rel=1e-12)
        assert oracle.joint(a, b) == pytest.approx(oracle.joint(b, a), rel=1e-12)

    def test_oracle_marginals_sum_to_length_mass(self):
        # summing the exact marginal over every length-1 sequence gives the
        # probability that a query has length 1
        ds = generate_dataset(tiny_universe_config(6))
        oracle = ExactPmi(ds)
        total = sum(oracle.marginal((t,)) for t in range(ds.config.vocab_size))
        assert total == pytest.approx(float(oracle.length_pmf[0]), rel=1e-12)
        codes = np.arange(1, ds.config.vocab_size + 1)  # the codes of every (t,)
        array_total = sequence_conditionals(ds, codes).mean(axis=1).sum()
        assert array_total == pytest.approx(float(oracle.length_pmf[0]), rel=1e-12)

    def test_grouped_sampler_matches_masked_loop_reference(self):
        ds = generate_dataset(tiny_universe_config(VALIDATE_SEED))
        cdfs = np.cumsum(_position_probs(ds), axis=2)
        product_ids = rng_stream(8).integers(ds.config.n_products, size=20_000)
        got = _sample_sequences(rng_stream(9), product_ids, ds, cdfs)
        want = _masked_loop_sequences(rng_stream(9), product_ids, ds, cdfs)
        assert np.array_equal(got, want)

    def test_sampled_pmi_matches_enumeration_on_pinned_seed(self):
        ds = generate_dataset(tiny_universe_config(VALIDATE_SEED))
        est = estimate_pmi(ds, seed=VALIDATE_SEED, min_count=TINY_MIN_COUNT)
        exact = enumerate_pmi(ds, est.pairs)
        z = np.abs(est.pmi - exact) / est.std_errors
        assert float(z.max()) <= 3.0
        assert pearson_r(exact, est.dot_over_d) > 0.8


    def test_marginal_counts_bind_the_selection(self):
        # the joint draws come first, so both runs select on the same joint
        # counts; with 10,000 marginal draws in the selection half, 10 of the 478
        # pairs whose joint count reaches min_count have a side seen fewer times
        ds = generate_dataset(tiny_universe_config(VALIDATE_SEED))
        few = estimate_pmi(ds, n_marginal=20_000, seed=VALIDATE_SEED, min_count=TINY_MIN_COUNT)
        many = estimate_pmi(ds, seed=VALIDATE_SEED, min_count=TINY_MIN_COUNT)
        assert (len(few.pairs), len(many.pairs)) == (468, 478)
        assert few.n_dropped + len(few.pairs) == many.n_dropped + len(many.pairs)

    def test_pairs_are_ordered_codes_in_key_order(self):
        ds = generate_dataset(tiny_universe_config(3))
        est = estimate_pmi(ds, 40_000, 40_000, seed=9, min_count=8)
        assert est.pairs.dtype == np.int64 and est.pairs.shape == (len(est.pmi), 2)
        assert np.all(est.pairs[:, 0] <= est.pairs[:, 1])
        keys = est.pairs[:, 0] * 31**3 + est.pairs[:, 1]
        assert np.all(np.diff(keys) > 0)


def sorted_count_in(sample, values):
    """The former _count_in: two binary searches of every value in the sorted sample."""
    s = np.sort(sample)
    return np.searchsorted(s, values, side="right") - np.searchsorted(s, values, side="left")


class TestCountIn:
    @pytest.mark.parametrize(
        "sample, values",
        [
            ([], [3, 1, 2]),  # an empty sample
            ([5, 1, 5, 9, 1, 5], [9, 0, 5, 7, 10, 1, 5]),  # absent and unsorted values
            ([4, 4, 4], []),
            ([2**62, -3, 2**62], [-3, 2**62, 2**62 - 1, -4]),
        ],
    )
    def test_equals_sorted_search(self, sample, values):
        sample, values = np.array(sample, dtype=np.int64), np.array(values, dtype=np.int64)
        got = _count_in(sample, values)
        assert got.tolist() == sorted_count_in(sample, values).tolist()
        assert got.shape == values.shape

    def test_equals_sorted_search_on_sampled_codes(self):
        rng = rng_stream(80)
        sample = rng.integers(0, 500, size=20_000)
        values = rng.integers(-10, 600, size=(2, 1500))  # estimate_pmi counts both sides at once
        assert np.array_equal(_count_in(sample, values), sorted_count_in(sample, values))


class TestDecodeCodes:
    def test_round_trip_all_lengths(self):
        c = tiny_universe_config(0)
        seqs = [(0,), (29,), (4, 0), (7, 29, 3), (29, 29, 29)]
        ids, lengths = _decode_codes(np.array([_encode(q) for q in seqs]), c)
        assert lengths.tolist() == [len(q) for q in seqs]
        for row, q in zip(ids, seqs):
            assert tuple(row[: len(q)]) == q
            assert not row[len(q):].any()  # padded with 0, as in QueryTable

    @pytest.mark.parametrize(
        "code, message",
        [
            (0, "must lie in"),  # the empty sequence, and the digits of (-1,)
            (-1, "must lie in"),
            (-_encode((2,)), "must lie in"),
            (31**3, "must lie in"),  # (-1, -1, -1, 0): longer than max_len
            (31**3 + 1, "must lie in"),
            (31 * 5, "empty position"),  # (-1, 4): a gap before a filled position
            (31 * 31 * 2 + 3, "empty position"),
        ],
    )
    def test_codes_no_sequence_has_raise(self, code, message):
        c = tiny_universe_config(0)
        with pytest.raises(ValueError, match=message):
            _decode_codes(np.array([_encode((1,)), code]), c)
        ds = generate_dataset(c)
        with pytest.raises(ValueError, match=message):
            enumerate_pmi(ds, np.array([[_encode((1,)), code]]))


class TestEnumeratePmiMatchesReference:
    def test_array_pmi_equals_scalar_reference(self):
        ds = generate_dataset(tiny_universe_config(VALIDATE_SEED))
        oracle = ExactPmi(ds)
        seqs = [(0,), (17,), (3, 9), (29, 0), (5, 5, 5), (2, 11, 28)]
        pairs = [(a, b) for a in seqs for b in seqs]  # self pairs and both orders
        got = enumerate_pmi(ds, np.array([[_encode(a), _encode(b)] for a, b in pairs]))
        want = [oracle.pmi(a, b) for a, b in pairs]
        assert_allclose(got, want, rtol=0, atol=1e-9)
        swapped = enumerate_pmi(ds, np.array([[_encode(b), _encode(a)] for a, b in pairs]))
        assert_allclose(swapped, got, rtol=0, atol=1e-9)

    def test_estimated_pairs_equal_scalar_reference(self):
        ds = generate_dataset(tiny_universe_config(3))
        est = estimate_pmi(ds, 40_000, 40_000, seed=9, min_count=8)
        oracle = ExactPmi(ds)
        ids, lengths = _decode_codes(est.pairs.ravel(), ds.config)
        seqs = [tuple(row[:n]) for row, n in zip(ids.tolist(), lengths)]
        want = [oracle.pmi(a, b) for a, b in zip(seqs[::2], seqs[1::2])]
        assert_allclose(enumerate_pmi(ds, est.pairs), want, rtol=0, atol=1e-9)


def _masked_loop_sequences(rng, product_ids, dataset, cdfs):
    """_sample_sequences with one boolean mask per product present, as the reference."""
    c = dataset.config
    n = product_ids.size
    length_cdf = np.cumsum(truncated_poisson_pmf(c.lam, c.max_len))
    lengths = np.minimum(
        np.searchsorted(length_cdf, rng.random(n), side="right"), c.max_len - 1
    ) + 1
    base = c.vocab_size + 1
    codes = np.zeros(n, dtype=np.int64)
    for pos in range(c.max_len):
        active = np.flatnonzero(lengths > pos)
        if active.size == 0:
            break
        ids = np.empty(active.size, dtype=np.int64)
        u = rng.random(active.size)
        prods = product_ids[active]
        for a in np.unique(prods):
            rows = prods == a
            ids[rows] = np.minimum(
                np.searchsorted(cdfs[pos, a], u[rows], side="right"), c.vocab_size - 1
            )
        codes[active] += (ids + 1) * base**pos
    return codes


@pytest.fixture(scope="module")
def small_trained():
    """A cheap constant-parameter benchmark trained for the uniform check."""
    from queryemb.embedder import TrainConfig, init_model, train

    cfg = GeneratorConfig(
        dim=8, vocab_size=500, max_len=6, lam=600.0,
        alphas=(0.8,) * 6, betas=(1.5,) * 6, epsilon_p=0.5,
        n_products=40, n_queries=1000, seed=12,
    )
    ds = generate_dataset(cfg)
    tc = TrainConfig(
        learning_rate=0.02, epochs=10, n_positives=5, n_negatives=5,
        batch_size=200, seed=12, lr_decay=0.92,
    )
    model, _ = train(init_model(500, 8, 6, 12), ds, tc)
    return ds, model


class TestBlueReport:
    def test_constant_parameters_give_uniform_blue_and_attention(self, small_trained):
        ds, model = small_trained
        report = blue_report(model, ds)
        assert report.report_length == 6
        assert_allclose(report.blue, 1.0 / 6.0, atol=0.02)
        assert np.max(np.abs(report.attention - 1.0 / 6.0)) < 0.15
        assert abs(report.blue.sum() - 1.0) <= 1e-12

    def test_untrained_model_rejected(self):
        cfg = GeneratorConfig(
            dim=4, vocab_size=50, max_len=3, lam=30.0,
            alphas=(0.9,) * 3, betas=(1.0,) * 3, epsilon_p=0.5,
            n_products=5, n_queries=50, seed=13,
        )
        ds = generate_dataset(cfg)
        model = init_model(50, 4, 3, 13)
        with pytest.raises(ValueError, match="untrained"):
            blue_report(model, ds)

    def test_overflowing_betas_rejected_not_nan(self):
        # exp(beta^2 / 2) overflows at these betas, so every exact variance is NaN
        cfg = GeneratorConfig(
            dim=4, vocab_size=50, max_len=3, lam=30.0,
            alphas=(0.9,) * 3, betas=(200.0, 150.0, 100.0), epsilon_p=0.5,
            n_products=5, n_queries=50, seed=13,
        )
        ds = generate_dataset(cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=r"position 1 \(beta 200.0\) is not finite: nan"):
                position_variances(ds, [1, 2, 3])
            model = init_model(50, 4, 3, 13)
            model.attn[:] = 1.0  # a trained model's rows are not all zero
            with pytest.raises(ValueError, match="not finite"):
                blue_report(model, ds)

    @pytest.mark.parametrize("field", ["variances", "blue"])
    def test_nan_fields_rejected(self, field):
        fields = dict(
            positions=(1, 2), attention=np.array([0.5, 0.5]), variances=np.array([1.0, 1.0]),
            blue=np.array([0.5, 0.5]), pearson_r=float("nan"), report_length=2,
            n_queries_used=3,
        )
        BlueReport(**fields)
        fields[field] = np.array([np.nan, 0.5])
        with pytest.raises(ValueError):
            BlueReport(**fields)

    def test_desk_attention_tracks_blue(self, desk_run):
        assert desk_run.report.pearson_r >= 0.8
        assert abs(desk_run.report.blue.sum() - 1.0) <= 1e-12

    def test_desk_variances_grow_linearly(self, desk_run):
        positions = np.asarray(desk_run.report.positions, dtype=float)
        assert pearson_r(desk_run.report.variances, positions) >= 0.8

    def test_desk_checks_all_pass(self, desk_run):
        for check in desk_run.checks:
            assert check.passed, check.line()

    def test_figure1_report_text_at_pinned_seed(self, desk_run):
        assert DESK_SEED == 0
        assert [check.line() for check in desk_run.checks] == [
            "PASS attention_tracks_blue: pearson_r=0.85576 report_length=12 n_queries=4945",
            "PASS variance_grows_linearly: pearson_r=0.99947",
            "PASS beta_recovery_flat: max_abs_residual=0.151419 n_feasible=12 n_positions=12",
        ]


# sha256 of the three panels that the desk run's checks carry at DESK_SEED 0
_PINNED_PANELS = {
    WEIGHT_PANEL_FILE: "0b3294cdfd8c26522858442f09ae97b59b1a4615821dd8b9b2428d60489d86ad",
    VARIANCE_PANEL_FILE: "f48d7b0f83b33cf86199b0f60abff8432cfe021db153d43eb80612f7504826c3",
    BETA_PANEL_FILE: "3c4234c346f9792e062c2140469445484492c02cc3016c177c7b7ab3e43e635d",
}


def _desk_panels(desk_run):
    return dict(check.panel for check in desk_run.checks if check.panel)


class TestFigure1Panels:
    def _rows(self, text, header, n_rows):
        lines = text.split("\n")
        assert lines[0] == header and lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == n_rows
        return rows

    def test_panels_hold_the_report(self, desk_run):
        report, panels_by_name = desk_run.report, _desk_panels(desk_run)
        assert list(panels_by_name) == [WEIGHT_PANEL_FILE, VARIANCE_PANEL_FILE, BETA_PANEL_FILE]
        ideal = _affine_fit(np.asarray(report.positions, dtype=float), report.variances)
        panels = (
            (WEIGHT_PANEL_FILE, "position,attention_weight,blue_weight",
             (report.attention, report.blue)),
            (VARIANCE_PANEL_FILE, "position,variance,ideal_variance", (report.variances, ideal)),
        )
        for name, header, columns in panels:
            rows = self._rows(panels_by_name[name], header, len(report.positions))
            for row, pos, *values in zip(rows, report.positions, *columns):
                assert row == [str(pos), *(_fmt(float(v)) for v in values)]
        rows = self._rows(
            panels_by_name[BETA_PANEL_FILE], "position,beta_residual", len(report.positions)
        )
        assert [row[0] for row in rows] == [str(pos) for pos in report.positions]
        assert all(abs(float(row[1])) <= FIGURE_BETA_RESIDUAL_MAX for row in rows)

    def test_panel_bytes_pinned(self, desk_run):
        assert DESK_SEED == 0
        panels_by_name = _desk_panels(desk_run)
        for name, digest in _PINNED_PANELS.items():
            assert hashlib.sha256(panels_by_name[name].encode()).hexdigest() == digest, name


class TestPositionVariances:
    def test_exact_matches_monte_carlo(self):
        cfg = GeneratorConfig(
            dim=8, vocab_size=200, max_len=3, lam=2.0, alphas=(0.9, 0.7, 0.6),
            betas=(1.5, 1.0, 2.0), epsilon_p=0.5, n_products=10, n_queries=0, seed=31,
        )
        ds = generate_dataset(cfg)
        positions = [1, 2, 3]
        exact = position_variances(ds, positions)
        n = 100_000
        rng = rng_stream(31, 7)
        for pos, value in zip(positions, exact):
            estimates, sample_vars = [], []
            for p in ds.products:
                estimates.append(trigram_empirical_variance(p, pos, cfg, ds.vocab, n, rng))
                # variance of one draw of ||t - rho p||^2, by enumeration
                pi = mixture_probs(p[None], pos, cfg, ds.vocab)[0]
                rho = trigram_mean_coefficient(p, pos, cfg, ds.vocab)
                sq = np.sum((ds.vocab - rho * p) ** 2, axis=1)
                sample_vars.append(pi @ sq**2 - (pi @ sq) ** 2)
            se = np.sqrt(np.sum(sample_vars) / n) / cfg.n_products
            assert abs(np.mean(estimates) - value) <= 4.0 * se, (pos, value, se)
        for bad in (0, cfg.max_len + 1):
            with pytest.raises(ValueError, match="position"):
                position_variances(ds, [1, bad])

    def test_per_beta_tables_match_per_position_mixtures(self):
        # three distinct betas, positions 2 and 4 share one and 1 and 5 another
        cfg = GeneratorConfig(
            dim=8, vocab_size=200, max_len=5, lam=2.0, alphas=(0.9, 0.7, 0.6, 0.8, 0.75),
            betas=(1.5, 1.0, 2.0, 1.0, 1.5), epsilon_p=0.5, n_products=10, n_queries=0, seed=31,
        )
        ds = generate_dataset(cfg)
        products, vocab = ds.products, ds.vocab
        mixtures = {pos: mixture_probs(products, pos, cfg, vocab) for pos in range(1, 6)}
        assert _position_probs(ds).tobytes() == np.stack(list(mixtures.values())).tobytes()

        positions = [3, 1, 5, 2, 4, 1]
        scores = _product_scores(ds)
        expected = []
        for pos in positions:  # the exact variance one position at a time
            pi = mixtures[pos]
            alpha, beta = cfg.alphas[pos - 1], cfg.betas[pos - 1]
            rho = rho_from_partition(cfg.vocab_size, alpha, beta, np.exp(beta * scores).sum(axis=1))
            along = np.einsum("ij,ij->i", pi @ vocab, products)
            expected.append(float(np.mean(pi @ np.einsum("ij,ij->i", vocab, vocab)
                                          - 2.0 * rho * along
                                          + rho * rho * np.einsum("ij,ij->i", products, products))))
        assert position_variances(ds, positions).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("position", [0, -1, 4])
    def test_mean_coefficient_rejects_positions_outside_range(self, position):
        # max_len is 3: position 0 and -1 must not wrap to the last positions
        ds = generate_dataset(tiny_universe_config(3))
        with pytest.raises(ValueError, match=rf"position {position} outside \[1, 3\]"):
            mean_trigram_coefficient(ds, position)

    @pytest.mark.parametrize("beta, variance", [(30.0, "inf"), (38.0, "nan")])
    def test_overflowing_rho_raises(self, beta, variance):
        cfg = GeneratorConfig(
            dim=4, vocab_size=50, max_len=1, lam=1.0, alphas=(0.9,), betas=(beta,),
            epsilon_p=0.5, n_products=5, n_queries=20, seed=13,
        )
        ds = generate_dataset(cfg)
        with np.errstate(over="ignore", invalid="ignore"):
            message = rf"position 1 \(beta {beta}\) is not finite: {variance}"
            with pytest.raises(ValueError, match=message):
                position_variances(ds, [1])
            if beta == 30.0:  # rho itself is finite; only its square overflows
                assert 1e161 < mean_trigram_coefficient(ds, 1) < 1e162
            else:
                message = r"rho at position 1 \(beta 38.0\) is not finite: inf"
                with pytest.raises(ValueError, match=message):
                    mean_trigram_coefficient(ds, 1)


class TestStackedPartitionSums:
    def test_stacked_sums_equal_per_product_partition_function(self):
        ds = generate_dataset(dataclasses.replace(default_benchmark_config(1), n_queries=0))
        scores = _product_scores(ds)
        for beta in (0.0, 0.7, 2.5, 7.9):
            want = [partition_function(p, beta, ds.vocab) for p in ds.products]
            assert_array_equal(np.exp(beta * scores).sum(axis=1), want)

    def test_mean_coefficient_equals_per_product_loop(self):
        # the mean of per-product partition_function calls, as fit_betas once computed it
        ds = generate_dataset(dataclasses.replace(default_benchmark_config(1), n_queries=0))
        c, scores = ds.config, _product_scores(ds)
        for pos, beta in ((1, 2.5), (7, 0.3), (12, 6.1)):
            z = np.mean([partition_function(p, beta, ds.vocab) for p in ds.products])
            want = c.vocab_size * c.alphas[pos - 1] * beta * float(np.exp(0.5 * beta * beta)) / z
            assert mean_trigram_coefficient(ds, pos, beta) == want
            assert mean_trigram_coefficient(ds, pos, beta, scores) == want


class TestFitBetas:
    def _flat_dataset(self, betas, seed=14):
        cfg = GeneratorConfig(
            dim=8, vocab_size=1000, max_len=len(betas), lam=1.0,
            alphas=(0.8,) * len(betas), betas=tuple(betas), epsilon_p=0.5,
            n_products=10, n_queries=0, seed=seed,
        )
        return generate_dataset(cfg)

    def test_variance_on_line_with_zero_rho_gives_zero_beta(self):
        ds = self._flat_dataset([0.0, 0.0, 0.0])
        line = np.array([8.0, 8.5, 9.0])
        fitted = fit_betas(line.copy(), line, ds)
        assert fitted.feasible.all()
        assert np.array_equal(fitted.betas, np.zeros(3))
        assert np.array_equal(fitted.residuals, np.zeros(3))

    def test_smaller_variance_gives_strictly_larger_beta(self):
        ds = self._flat_dataset([1.0, 1.0, 1.0])
        line = np.array([10.0, 10.0, 10.0])
        gaps = np.array([0.5, 2.0, 4.5])
        fitted = fit_betas(line - gaps, line, ds)
        assert fitted.feasible.all()
        assert fitted.betas[0] < fitted.betas[1] < fitted.betas[2]

    def test_fitted_beta_matches_independent_bisection(self):
        ds = self._flat_dataset([1.0])
        line = np.array([12.0])
        gap = 3.0
        fitted = fit_betas(line - gap, line, ds)
        lo, hi = 0.0, 8.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if mean_trigram_coefficient(ds, 1, beta=mid) ** 2 < gap:
                lo = mid
            else:
                hi = mid
        assert fitted.betas[0] == pytest.approx((lo + hi) / 2, abs=1e-6)

    def test_flat_tail_recovers_flat_betas(self):
        ds = self._flat_dataset([1.0] * 5)
        line = np.full(5, 11.0)
        variances = line - 1.7  # constant gap everywhere
        fitted = fit_betas(variances, line, ds)
        assert fitted.feasible.all()
        tail = fitted.betas[2:]
        assert float(np.ptp(tail)) < 1e-6

    def test_negative_gap_flagged_infeasible(self):
        ds = self._flat_dataset([1.0, 1.0])
        line = np.array([9.0, 9.0])
        fitted = fit_betas(np.array([9.5, 8.0]), line, ds)
        assert not fitted.feasible[0] and np.isnan(fitted.betas[0])
        assert fitted.feasible[1]

    def test_gap_beyond_search_bound_flagged_infeasible(self):
        ds = self._flat_dataset([1.0, 1.0])
        bound_gap = mean_trigram_coefficient(ds, 1, beta=FIT_BETA_MAX) ** 2
        line = np.array([bound_gap + 10.0, bound_gap + 10.0])
        fitted = fit_betas(line - np.array([2.0 * bound_gap, 0.5 * bound_gap]), line, ds)
        assert not fitted.feasible[0] and np.isnan(fitted.betas[0])
        assert np.isnan(fitted.residuals[0])
        assert fitted.feasible[1] and 0.0 < fitted.betas[1] < FIT_BETA_MAX

    def test_shape_mismatch(self):
        ds = self._flat_dataset([1.0])
        with pytest.raises(ValueError, match="align"):
            fit_betas([1.0, 2.0], [1.0], ds)


class TestCheckResultFormatting:
    def test_line_layout(self):
        check = CheckResult(name="demo", passed=True, details={"x": 1.5, "n": 3})
        assert check.line() == "PASS demo: x=1.5 n=3"
        check = CheckResult(name="demo", passed=False, details={})
        assert check.line().startswith("FAIL demo:")


class TestGatesAtTheirEdges:
    """Each correlation gate with the statistic at its threshold and one float
    step to the other side, so a gate that moved or changed direction fails."""

    @pytest.mark.parametrize("r, passed", [(0.8, False), (np.nextafter(0.8, 1.0), True)])
    def test_pmi_dot_correlation_is_above_0_8(self, monkeypatch, r, passed):
        monkeypatch.setattr(theory, "pearson_r", lambda x, y: r)
        check = theory.suite_pmi(VALIDATE_SEED)[0]
        assert check.name == "pmi_dot_correlation" and check.passed == passed

    @pytest.mark.parametrize("r, passed", [(0.8, True), (np.nextafter(0.8, 0.0), False)])
    def test_figure1_correlations_are_at_least_0_8(self, monkeypatch, r, passed):
        # in place of the 30-epoch run, random attention rows: their mean
        # weights vary by position, so blue_report takes a correlation
        def untrained(model, dataset, config):
            return AttentionModel(model.emb, rng_stream(71).standard_normal(model.attn.shape)), []

        monkeypatch.setattr(theory, "train", untrained)
        monkeypatch.setattr(theory, "pearson_r", lambda x, y: r)
        checks = {check.name: check.passed for check in theory.figure1_report(DESK_SEED).checks}
        assert checks["attention_tracks_blue"] == checks["variance_grows_linearly"] == passed


class TestSuites:
    # The statistical suites only: figure1 is a 30-epoch train, which the
    # session's desk_run already runs at its own pinned seed (and figure1
    # fails at VALIDATE_SEED 29).
    @pytest.mark.parametrize("name", sorted(set(SUITES) - {"figure1"}))
    def test_suite_passes_at_pinned_seed(self, name):
        checks = SUITES[name](SEEDS[name])
        assert checks, name
        for check in checks:
            assert check.passed, check.line()

    def test_pmi_report_text_at_pinned_seed(self):
        assert [check.line() for check in SUITES["pmi"](VALIDATE_SEED)] == [
            "PASS pmi_dot_correlation: pearson_r=0.874437 n_pairs=478 n_dropped=62479",
            "PASS pmi_sampling_matches_enumeration: max_z=2.60007 n_pairs=478",
        ]

    def test_mean_report_text_at_pinned_seed(self):
        assert [check.line() for check in SUITES["mean"](VALIDATE_SEED)] == [
            "PASS trigram_mean_position_1: alpha=0.9 beta=0.5 cosine=0.994976 rho=0.44973"
            " magnitude_rel_err=0.000198077",
            "PASS trigram_mean_position_2: alpha=0.8 beta=1 cosine=0.997371 rho=0.801014"
            " magnitude_rel_err=0.00592526",
            "PASS trigram_mean_position_3: alpha=0.7 beta=1.5 cosine=0.997279 rho=1.05579"
            " magnitude_rel_err=0.0132484",
        ]

    def test_variance_report_text_at_pinned_seed(self):
        assert [check.line() for check in SUITES["variance"](VALIDATE_SEED)] == [
            "PASS variance_anchor_beta0: estimate=15.9675 expected=16 rel_err=0.00203031",
            "PASS variance_formula_position_1: alpha=0.9 beta=0.5 estimate=15.9827"
            " predicted=16.0225",
            "PASS variance_formula_position_2: alpha=0.8 beta=1 estimate=16.1962 predicted=16.16",
            "PASS variance_formula_position_3: alpha=0.7 beta=1.5 estimate=16.5415"
            " predicted=16.4725",
            "PASS variance_identical_positions: position_1=16.1703 position_2=16.2105",
        ]
