import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize

from queryemb.core import GeneratorConfig, rng_stream
from queryemb.genmodel import generate_dataset
from queryemb.theory import (
    SUITES,
    TINY_MIN_COUNT,
    VALIDATE_SEED,
    CheckResult,
    ExactPmi,
    blue_report,
    blue_weights,
    enumerate_pmi,
    estimate_pmi,
    estimator_variances,
    fit_betas,
    mean_trigram_coefficient,
    model_dot_over_d,
    pearson_r,
    position_variances,
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
        assert a.pairs == b.pairs
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
        assert model_dot_over_d(ds_orth, (0,), (1,)) == 0.0
        assert model_dot_over_d(ds_orth, (0, 0), (1, 1)) == 0.0

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

    def test_sampled_pmi_matches_enumeration_on_pinned_seed(self):
        ds = generate_dataset(tiny_universe_config(VALIDATE_SEED))
        est = estimate_pmi(ds, seed=VALIDATE_SEED, min_count=TINY_MIN_COUNT)
        exact = enumerate_pmi(ds, est.pairs)
        z = np.abs(est.pmi - exact) / est.std_errors
        assert float(z.max()) <= 3.0
        assert pearson_r(exact, est.dot_over_d) > 0.8


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
        learning_rate=0.02, epochs=10, positive_mode="uniform",
        n_positives=5, n_negatives=5, batch_size=200, seed=12,
        optimizer="adam", lr_decay=0.92,
    )
    model, _ = train(init_model(500, 8, 6, 12), ds, tc)
    return ds, model


class TestBlueReport:
    def test_constant_parameters_give_uniform_blue_and_attention(self, small_trained):
        ds, model = small_trained
        report = blue_report(model, ds, seed=12)
        assert report.report_length == 6
        assert_allclose(report.blue, 1.0 / 6.0, atol=0.02)
        assert np.max(np.abs(report.attention - 1.0 / 6.0)) < 0.15
        assert abs(report.blue.sum() - 1.0) <= 1e-12

    def test_untrained_model_rejected(self):
        from queryemb.embedder import init_model

        cfg = GeneratorConfig(
            dim=4, vocab_size=50, max_len=3, lam=30.0,
            alphas=(0.9,) * 3, betas=(1.0,) * 3, epsilon_p=0.5,
            n_products=5, n_queries=50, seed=13,
        )
        ds = generate_dataset(cfg)
        model = init_model(50, 4, 3, 13)
        with pytest.raises(ValueError, match="untrained"):
            blue_report(model, ds, seed=13)
        report = blue_report(model, ds, seed=13, allow_untrained=True)
        assert_allclose(report.attention, 1.0 / 3.0, atol=1e-12)

    def test_desk_attention_tracks_blue(self, desk_run):
        assert desk_run.report.pearson_r >= 0.8
        assert abs(desk_run.report.blue.sum() - 1.0) <= 1e-12

    def test_desk_variances_grow_linearly(self, desk_run):
        positions = np.asarray(desk_run.report.positions, dtype=float)
        assert pearson_r(desk_run.report.variances, positions) >= 0.8

    def test_desk_checks_all_pass(self, desk_run):
        for check in desk_run.checks:
            assert check.passed, check.line()


class TestPositionVariances:
    def test_deterministic(self):
        ds = generate_dataset(tiny_universe_config(7))
        a = position_variances(ds, [1, 2], n_samples=2000, seed=3)
        b = position_variances(ds, [1, 2], n_samples=2000, seed=3)
        assert np.array_equal(a, b)
        assert (a > 0).all()


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


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_suite_passes_at_pinned_seed(self, name):
        checks = SUITES[name](VALIDATE_SEED)
        assert checks, name
        for check in checks:
            assert check.passed, check.line()
