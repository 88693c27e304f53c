"""End-to-end acceptance checks, one printed pass/fail line per check.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; without
-s the lines still print but pytest only shows them for failing checks.
Check 3b is expected to fail and is marked accordingly: the claimed
monotone decrease of the centered second moment in beta does not hold
(see its docstring), and weakening the assertion would hide that.
"""

import itertools
import os
import time

import numpy as np
import pytest
from conftest import query_table
from scipy.optimize import minimize

from queryemb import theory
from queryemb.baseline import TrigramHashStore
from queryemb.cli import main, sha256_file, split_query_ids
from queryemb.core import GeneratorConfig, rng_stream
from queryemb.embedder import AttentionModel, loss_and_gradient
from queryemb.evaluation import (
    EmbeddingStore,
    evaluate,
    f1,
    oracle_best,
    reformulate,
)
from queryemb.genmodel import generate_dataset, trigram_empirical_variance
from test_baseline import bray_curtis, hash_counts, knn, splitmix64
from test_embedder import TrainingBatch, _group_pairs
from test_evaluation import _ref_precision, _ref_recall, metrics_of


def _report(num, name, passed, detail):
    line = f"[{num:>5}] {'PASS' if passed else 'FAIL'} {name}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# 1. gradient correctness


def _random_case(seed, m=20, d=4, n_max=5, n_queries=12):
    rng = rng_stream(seed)
    model = AttentionModel(
        rng.standard_normal((m, d)) / np.sqrt(d), rng.standard_normal((n_max, d)) * 0.3
    )
    rows = [
        rng.integers(0, m, size=rng.integers(1, n_max + 1)).tolist() for _ in range(n_queries)
    ]
    queries = query_table(rows, [0] * n_queries, n_max)
    ids = rng.permutation(n_queries)
    batch = TrainingBatch(
        anchor=int(ids[0]), positives=tuple(ids[1:4].tolist()), negatives=tuple(ids[4:9].tolist())
    )
    return model, queries, _group_pairs([batch])


def test_01_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for case in range(10):  # 10 random (model, batch) pairs, 10 coordinates each
        model, queries, group = _random_case(100 + case)
        _, grad = loss_and_gradient(model, group, queries)
        picker = rng_stream(200 + case)
        for _ in range(10):
            slot = "emb" if picker.uniform() < 0.5 else "attn"
            arr = getattr(model, slot)
            i = int(picker.integers(arr.shape[0]))
            j = int(picker.integers(arr.shape[1]))
            orig = arr[i, j]
            arr[i, j] = orig + h
            up = loss_and_gradient(model, group, queries)[0]
            arr[i, j] = orig - h
            down = loss_and_gradient(model, group, queries)[0]
            arr[i, j] = orig
            fd = (up - down) / (2 * h)
            err = abs(getattr(grad, slot)[i, j] - fd) / max(1.0, abs(fd))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    _report(
        "1/10", "gradient vs central differences", worst < 1e-4 and elapsed < 60,
        f"worst rel err {worst:.2e} over 100 coords (tol 1e-4), {elapsed:.1f}s < 60s",
    )


# ---------------------------------------------------------------------------
# 2. trigram mean law


def test_02_trigram_mean_law():
    t0 = time.perf_counter()
    checks = theory.suite_mean(theory.VALIDATE_SEED)
    elapsed = time.perf_counter() - t0
    ok = all(c.passed for c in checks) and elapsed < 120
    _report(
        "2/10", "mean ~ rho * p at three (alpha, beta) settings", ok,
        f"{sum(c.passed for c in checks)}/{len(checks)} checks "
        f"(cos > 0.95, |rho| within 10%), {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# 3. centered second moment


def test_03a_variance_anchor():
    checks = theory.suite_variance(theory.VALIDATE_SEED)
    anchor = [c for c in checks if "anchor" in c.name]
    assert anchor
    ok = all(c.passed for c in anchor)
    _report("3a/10", "beta=0, alpha=1 second moment = dim within 5%", ok,
            "; ".join(c.line() for c in anchor))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the centered second moment E||t - rho p||^2 equals "
        "d + alpha(1-alpha)beta^2, which grows (not shrinks) in beta at "
        "fixed alpha < 1 and is constant at alpha = 1; the claimed strict "
        "decrease over beta in {0, 0.5, 1} cannot hold"
    ),
)
def test_03b_variance_strictly_decreases_in_beta():
    """Claimed: at fixed alpha the estimate strictly decreases in beta.

    The estimator that does improve with beta is the rescaled one t/rho,
    whose variance carries a 1/rho^2 factor; the raw centered second
    moment measured here moves the other way.  Kept as written so the
    discrepancy stays visible.
    """
    d, m, alpha = 16, 2000, 0.8
    rng = rng_stream(77)
    vocab = rng.standard_normal((m, d))
    p = rng.standard_normal(d)
    p /= np.linalg.norm(p)
    cfgs = [
        GeneratorConfig(
            dim=d, vocab_size=m, max_len=1, lam=1.0, alphas=(alpha,), betas=(b,),
            epsilon_p=0.5, n_products=1, n_queries=0, seed=77,
        )
        for b in (0.0, 0.5, 1.0)
    ]
    variances = [
        trigram_empirical_variance(p, 1, cfg, vocab, 200_000, rng_stream(78 + i))
        for i, cfg in enumerate(cfgs)
    ]
    decreasing = variances[0] > variances[1] > variances[2]
    _report(
        "3b/10", "second moment strictly decreasing over beta in {0, 0.5, 1}",
        decreasing, "measured " + ", ".join(f"{v:.3f}" for v in variances),
    )


# ---------------------------------------------------------------------------
# 4. partition-function concentration


def test_04_partition_concentration():
    checks = theory.suite_partition(theory.VALIDATE_SEED)
    conc = [c for c in checks if "spread" in c.name]
    assert conc
    ok = all(c.passed for c in conc)
    _report("4/10", "rel std of Z over 100 products falls across m in {1e2,1e3,1e4}",
            ok, "; ".join(c.line() for c in conc))


# ---------------------------------------------------------------------------
# 5. PMI tracks <q, q'>/d on the enumerable universe


def test_05_pmi_correlation():
    t0 = time.perf_counter()
    ds = generate_dataset(theory.tiny_universe_config(theory.VALIDATE_SEED))
    est = theory.estimate_pmi(ds, seed=theory.VALIDATE_SEED)
    exact = theory.enumerate_pmi(ds, est.pairs)
    r = theory.pearson_r(exact, est.dot_over_d)
    elapsed = time.perf_counter() - t0
    _report(
        "5/10", "enumerated PMI vs dot/d on the tiny universe",
        r > 0.8 and elapsed < 300,
        f"pearson r {r:.3f} > 0.8 over {len(est.pairs)} pairs, {elapsed:.1f}s < 300s",
    )


# ---------------------------------------------------------------------------
# 6. inverse-variance weights vs numeric minimization


def _simplex_qp_oracle(v):
    k = v.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = np.diag(2.0 * v)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    w = np.linalg.solve(kkt, rhs)[:k]
    assert (w > 0).all()  # interior, so the simplex inequalities are slack
    return w


def test_06_blue_weights_against_minimization_oracle():
    rng = rng_stream(600)
    worst = 0.0
    for _ in range(100):
        v = rng.uniform(0.1, 10.0, size=int(rng.integers(2, 12)))
        worst = max(
            worst, float(np.max(np.abs(theory.blue_weights(v) - _simplex_qp_oracle(v))))
        )
    # certify the oracle once against a generic constrained minimizer
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
    oracle_ok = float(np.max(np.abs(res.x - _simplex_qp_oracle(v)))) < 1e-6

    closed = 0.0
    for k in (4, 10, 100):
        v = np.arange(1, k + 1, dtype=np.float64)
        unweighted, weighted = theory.estimator_variances(v)
        closed = max(closed, abs(unweighted - (0.5 + 0.5 / k)))
        closed = max(closed, abs(weighted - 1.0 / np.sum(1.0 / v)))
    ok = worst <= 1e-9 and closed <= 1e-12 and oracle_ok
    _report(
        "6/10", "blue weights vs simplex QP oracle + closed forms", ok,
        f"worst weight dev {worst:.1e} <= 1e-9 (100 draws), "
        f"closed-form dev {closed:.1e} <= 1e-12 (k in 4,10,100)",
    )


# ---------------------------------------------------------------------------
# 7. attention tracks inverse-variance weights on the desk benchmark


def test_07_attention_tracks_blue(desk_run, desk_seconds):
    r = desk_run.report.pearson_r
    ok = r >= 0.8 and desk_seconds <= 900 and all(c.passed for c in desk_run.checks)
    _report(
        "7/10", "desk run: attention-vs-BLUE correlation", ok,
        f"pearson r {r:.3f} >= 0.8, training+report {desk_seconds:.0f}s <= 900s, "
        f"{sum(c.passed for c in desk_run.checks)}/{len(desk_run.checks)} panel checks",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end ordering: attention beats trigram hashing


def test_08_attention_beats_trigram_hash(desk_run):
    ds = desk_run.dataset
    store_ids, probe_ids = split_query_ids(len(ds.queries), 0.2, theory.DESK_SEED)
    store_queries = ds.queries.take(store_ids)
    att = evaluate(
        EmbeddingStore(desk_run.model, store_queries, ids=store_ids),
        ds.queries, ds.purchase_map, probe_ids, k=20, n_reformulations=5,
        model_name="attention",
    )
    hsh = evaluate(
        TrigramHashStore(store_queries, ids=store_ids),
        ds.queries, ds.purchase_map, probe_ids, k=20, n_reformulations=5,
        model_name="trigram_hash",
    )
    _report(
        "8/10", "desk benchmark F1 ordering (identical split, K=20, 5 reformulations)",
        att.f1_score > hsh.f1_score,
        f"attention {att.f1_score:.3f} > trigram hash {hsh.f1_score:.3f}",
    )


# ---------------------------------------------------------------------------
# 9. every frozen metric example, exactly as stated


def test_09_metric_examples():
    P = {1: [(7, 3)], 2: [(7, 1)], 3: [(7, 2)], 4: [(8, 1)], 5: [(9, 1)],
         6: [(10, 1)], 7: [(7, 5), (8, 1)]}
    failures = []

    def check(label, got, want, exact=True):
        good = (got == want) if exact else abs(got - want) < 5e-5
        if not good:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    def table(rows):
        return query_table(rows, [0] * len(rows), max(map(len, rows), default=1))

    # trigram-hash baseline
    check("splitmix64(0)", splitmix64(0), 0xE220A8397B1DCDAF)
    check("splitmix64(1)", splitmix64(1), 0x910A2DEC89025CC1)
    q3 = [5, 9, 5]
    h3 = TrigramHashStore(table([q3])).encode(table([q3, q3, [9, 5, 5]]))
    check("hash count conservation", float(h3[0].sum()), 3.0)
    check("hash reference counts", np.array_equal(h3[0], hash_counts(q3)), True)
    check("hash determinism", np.array_equal(h3[0], h3[1]), True)
    check("hash bag semantics", np.array_equal(h3[0], h3[2]), True)
    check("bray_curtis identical", bray_curtis([1.0, 2.0], [1.0, 2.0]), 0.0)
    check("bray_curtis disjoint", bray_curtis([1.0, 0.0], [0.0, 2.0]), 1.0)
    check("bray_curtis hand case", bray_curtis([1.0, 0.0, 2.0], [1.0, 1.0, 0.0]), 3 / 5)

    rng = rng_stream(900)
    queries = [rng.integers(0, 40, size=rng.integers(1, 6)).tolist() for _ in range(50)]
    store = TrigramHashStore(query_table(queries, [0] * 50, 5))
    check("knn self nearest", knn(store, queries[13], 1), [13])
    order = sorted(range(50), key=lambda i: (bray_curtis(store.counts[:, i], store.counts[:, 4]), i))
    check("knn full sort oracle", knn(store, queries[4], 50), order)

    # retrieval metrics
    dup = [1, 2]
    others = [rng.integers(3, 40, size=4).tolist() for _ in range(10)]
    dup_store = TrigramHashStore(table([dup] * 5 + others))
    check("reformulate duplicates", sorted(reformulate(dup_store, dup)), [0, 1, 2, 3, 4])
    try:
        reformulate(TrigramHashStore(table(others[:3])), dup)
        failures.append("reformulate count>store: no error raised")
    except ValueError:
        pass
    scan_store = TrigramHashStore(table(others[:30] if len(others) >= 30 else others * 3))
    probe = others[0]
    dists = sorted(
        range(len(scan_store)),
        key=lambda i: (bray_curtis(scan_store.counts[:, i], scan_store.counts[:, 0]), i),
    )
    check("reformulate scan oracle", reformulate(scan_store, probe), dists[:5])

    check("precision all share", metrics_of(1, [2, 3], P, 20)[0], 1.0)
    check("precision none share", metrics_of(1, [4, 5], P, 20)[0], 0.0)
    check("precision 2 of 5", metrics_of(1, [2, 3, 4, 5, 6], P, 20)[0], 0.4)
    check("recall full cover", metrics_of(1, [2], P, 20)[1], 1.0)
    check("recall empty union", metrics_of(1, [4], P, 20)[1], 0.0)
    check("recall half cover", metrics_of(7, [2], P, 20)[1], 0.5)
    check("f1 equal args", f1(0.5, 0.5), 0.5)
    check("f1 zero recall", f1(1.0, 0.0), 0.0)
    check("f1 table values", f1(0.659, 0.708), 0.6826, exact=False)

    # best-possible oracle
    same = {i: [(3, 1)] for i in range(6)}
    check("oracle same-product", oracle_best([0], list(range(1, 6)), same, 20), (1.0, 1.0))
    absent = {0: [(99, 1)], **{i: [(3, 1)] for i in range(1, 6)}}
    best_p, _ = oracle_best([0], list(range(1, 6)), absent, 20)
    check("oracle absent product", best_p, 0.0)

    toy_p = {i: [(int(v), 1)] for i, v in enumerate(rng.integers(0, 4, size=20))}
    cands = list(range(1, 20))
    restricted = oracle_best([0], cands, toy_p, 20, pool=len(cands))
    best_p, best_r = 0.0, 0.0  # each maximized over subsets independently
    for combo in itertools.combinations(cands, 5):
        best_p = max(best_p, _ref_precision(0, combo, toy_p, 20))
        best_r = max(best_r, _ref_recall(0, combo, toy_p, 20))
    check("oracle full enumeration", restricted, (best_p, best_r))

    _report("9/10", "frozen metric examples (hash baseline + retrieval metrics)",
            not failures, "; ".join(failures) or "all examples exact as stated")


# ---------------------------------------------------------------------------
# 10. byte-identical artifacts


GEN_CFG = """\
dim = 6
vocab_size = 300
max_len = 4
lam = 3.0
alphas = 0.9,0.85,0.8,0.75
betas = 1.5,1.4,1.3,1.2
epsilon_p = 0.5
n_products = 30
n_queries = 300
seed = 11
"""

TRAIN_CFG = """\
learning_rate = 0.05
epochs = 2
n_positives = 3
n_negatives = 3
batch_size = 100
seed = 11
"""


def test_10_determinism(tmp_path):
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(GEN_CFG)
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(TRAIN_CFG)
    hashes = []
    for run in ("a", "b"):
        data = str(tmp_path / f"data_{run}")
        out = str(tmp_path / f"run_{run}")
        assert main(["generate", "--config", str(gen_cfg), "--out", data]) == 0
        assert main(["train", data, "--config", str(train_cfg), "--out", out]) == 0
        hashes.append(
            {
                f"{kind}/{name}": sha256_file(os.path.join(d, name))
                for kind, d in (("data", data), ("run", out))
                for name in sorted(os.listdir(d))
                if name != "manifest.txt"
            }
        )
    same = hashes[0] == hashes[1]
    _report("10/10", "generate + train artifacts byte-identical across reruns",
            same, f"{len(hashes[0])} artifacts compared (manifest timing excluded)")
