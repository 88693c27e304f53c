"""Reformulation retrieval metrics with best-possible normalization.

A probe query is "reformulated" into its nearest stored queries.  Quality is
scored against purchase data: a reformulation is relevant when its top-K
purchased products intersect the probe's, and recall measures how much of
the probe's top-K product list the reformulations jointly cover.  Raw scores
are also reported as fractions of the best score any choice of
reformulations from the store could have achieved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .baseline import QueryStore, TrigramHashStore
from .core import QueryTable
from .embedder import AttentionModel, embed_query, embed_table

PurchaseMap = Mapping[int, Sequence[tuple[int, int]]]

DEFAULT_K = 20
DEFAULT_REFORMULATIONS = 5
DEFAULT_ORACLE_POOL = 25


def top_products(purchases: Sequence[tuple[int, int]], k: int) -> list[int]:
    """Product ids by descending purchase count (ties: ascending id), at most k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(purchases, key=lambda pc: (-pc[1], pc[0]))
    return [pid for pid, _ in ranked[:k]]


def query_precision_at_k(
    q: int, reformulations: Sequence[int], purchase_map: PurchaseMap, k: int
) -> float:
    """Fraction of reformulations sharing a top-k product with the probe.

    Queries absent from the purchase map count as non-relevant.
    """
    if not reformulations:
        raise ValueError("need at least one reformulation")
    probe_top = set(top_products(purchase_map.get(q, []), k))
    hits = 0
    for r in reformulations:
        if probe_top & set(top_products(purchase_map.get(r, []), k)):
            hits += 1
    return hits / len(reformulations)


def product_recall_at_k(
    q: int, reformulations: Sequence[int], purchase_map: PurchaseMap, k: int
) -> float:
    """Fraction of the probe's top-k products covered by some reformulation's top-k."""
    probe_top = top_products(purchase_map.get(q, []), k)
    if not probe_top:
        raise ValueError(f"probe {q} has no purchases; recall undefined")
    union: set[int] = set()
    for r in reformulations:
        union.update(top_products(purchase_map.get(r, []), k))
    return len(union & set(probe_top)) / len(probe_top)


def f1(precision: float, recall: float) -> float:
    if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
        raise ValueError("precision and recall must lie in [0, 1]")
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


class EmbeddingStore(QueryStore):
    """Retrieval index over attention embeddings; similarity is the dot product."""

    def __init__(self, model: AttentionModel, queries: QueryTable,
                 ids: Sequence[int] | None = None) -> None:
        super().__init__(queries, ids)
        self.model = model
        self.matrix = embed_table(model, queries)

    def rank(self, probe: Sequence[int], count: int,
             exclude_id: int | None = None) -> np.ndarray:
        """The count store ids first by the probe's (descending similarity, ascending id)."""
        return self._ranked(-(self.matrix @ embed_query(self.model, probe)), count, exclude_id)


def reformulate(
    store: EmbeddingStore | TrigramHashStore,
    q: int | Sequence[int],
    count: int = DEFAULT_REFORMULATIONS,
    queries: QueryTable | None = None,
) -> list[int]:
    """The count nearest stored queries to q, never including q itself.

    Pass q as a query id (with the full query table in ``queries``) when the
    probe may be a store member, so it can be excluded from its own results;
    pass a trigram id row for held-out probes.
    """
    if isinstance(q, (int, np.integer)):
        if queries is None:
            raise ValueError("reformulating by id requires the query table")
        if not 0 <= q < len(queries):
            raise ValueError(f"query id {q} outside [0, {len(queries)})")
        probe: Sequence[int] = queries.row(q)
        exclude: int | None = int(q) if q in store else None
    else:
        probe, exclude = q, None
    available = len(store) - (1 if exclude is not None else 0)
    if count > available:
        raise ValueError(f"store offers {available} candidates, need {count}")
    return [int(i) for i in store.rank(probe, count, exclude_id=exclude)]


# ---------------------------------------------------------------------------
# best-possible (oracle) scores


def _top_table(ids: Sequence[int], purchase_map: PurchaseMap, k: int) -> np.ndarray:
    """Each query's top-k product ids as one row, padded with -1.

    Product ids are non-negative, so a pad never matches one.  The width is
    the longest list, at most k.
    """
    tops = [top_products(purchase_map.get(c, []), k) for c in ids]
    lengths = np.array([len(t) for t in tops], dtype=np.int64)
    table = np.full((lengths.size, int(lengths.max(initial=0))), -1, dtype=np.int64)
    table[np.arange(table.shape[1]) < lengths[:, None]] = [p for t in tops for p in t]
    return table


def _oracle_one(
    q: int,
    ids: np.ndarray,
    tops: np.ndarray,
    purchase_map: PurchaseMap,
    k: int,
    n_reformulations: int,
    pool: int,
) -> tuple[float, float]:
    """oracle_best for one probe against candidates ``ids`` whose top-k rows are ``tops``."""
    probe_top = top_products(purchase_map.get(q, []), k)
    if not probe_top:
        raise ValueError(f"probe {q} has no purchases")
    keep = ids != q
    if not keep.any():
        raise ValueError("no candidates available")
    ids = ids[keep]
    # one mask bit per distinct product; a product listed twice in probe_top
    # still counts twice in len(probe_top), so full coverage is then out of
    # reach, as full recall is in product_recall_at_k
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


def oracle_best(
    probes: Sequence[int],
    candidate_ids: Sequence[int],
    purchase_map: PurchaseMap,
    k: int,
    n_reformulations: int = DEFAULT_REFORMULATIONS,
    pool: int = DEFAULT_ORACLE_POOL,
) -> tuple[float, float]:
    """Mean over the probes of the highest precision and recall any
    n_reformulations-subset of the candidates could score.

    Subsets are drawn from the ``pool`` candidates with the largest product
    overlap (the restriction is certified against unrestricted enumeration
    at toy scale in the tests).  Precision needs no enumeration: relevant
    candidates are interchangeable.  Recall maximizes coverage of the
    probe's top-k products over subsets of distinct coverage patterns,
    held as Python-int bitmasks, so k has no cap.
    """
    ids = np.asarray(candidate_ids, dtype=np.int64)
    tops = _top_table(candidate_ids, purchase_map, k)
    pairs = [_oracle_one(q, ids, tops, purchase_map, k, n_reformulations, pool) for q in probes]
    arr = np.asarray(pairs, dtype=np.float64)
    return float(arr[:, 0].mean()), float(arr[:, 1].mean())


# ---------------------------------------------------------------------------
# end-to-end evaluation


@dataclass(frozen=True)
class EvalRow:
    query_id: int
    reformulations: tuple[int, ...]
    precision: float
    recall: float


@dataclass(frozen=True)
class EvalReport:
    model_name: str
    k: int
    n_reformulations: int
    rows: tuple[EvalRow, ...]
    mean_precision: float
    mean_recall: float
    f1_score: float
    mean_f1_per_query: float
    best_precision: float
    best_recall: float
    best_f1: float
    normalized_precision: float
    normalized_recall: float
    normalized_f1: float


def evaluate(
    store: EmbeddingStore | TrigramHashStore,
    queries: QueryTable,
    purchase_map: PurchaseMap,
    probe_ids: Sequence[int],
    k: int = DEFAULT_K,
    n_reformulations: int = DEFAULT_REFORMULATIONS,
    oracle_pool: int = DEFAULT_ORACLE_POOL,
    model_name: str = "model",
) -> EvalReport:
    """Score reformulation retrieval for every probe and attach oracle normalization."""
    if not probe_ids:
        raise ValueError("need at least one probe query")
    candidate_ids = [int(i) for i in store.ids]
    rows = []
    per_f1 = []
    for q in probe_ids:
        refs = reformulate(store, int(q), n_reformulations, queries=queries)
        p = query_precision_at_k(int(q), refs, purchase_map, k)
        r = product_recall_at_k(int(q), refs, purchase_map, k)
        rows.append(EvalRow(int(q), tuple(refs), p, r))
        per_f1.append(f1(p, r))
    mean_p = float(np.mean([row.precision for row in rows]))
    mean_r = float(np.mean([row.recall for row in rows]))
    best_p, best_r = oracle_best(
        [int(q) for q in probe_ids], candidate_ids, purchase_map, k, n_reformulations, oracle_pool
    )
    best = f1(best_p, best_r)
    return EvalReport(
        model_name=model_name,
        k=k,
        n_reformulations=n_reformulations,
        rows=tuple(rows),
        mean_precision=mean_p,
        mean_recall=mean_r,
        f1_score=f1(mean_p, mean_r),
        mean_f1_per_query=float(np.mean(per_f1)),
        best_precision=best_p,
        best_recall=best_r,
        best_f1=best,
        normalized_precision=mean_p / best_p if best_p > 0 else 0.0,
        normalized_recall=mean_r / best_r if best_r > 0 else 0.0,
        normalized_f1=f1(mean_p, mean_r) / best if best > 0 else 0.0,
    )


def write_eval_csv(report: EvalReport, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("query_id,reformulations,precision,recall\n")
        for row in report.rows:
            refs = ";".join(str(i) for i in row.reformulations)
            fh.write(f"{row.query_id},{refs},{row.precision!r},{row.recall!r}\n")


def format_summary(reports: Sequence[EvalReport]) -> str:
    """Fixed-width comparison block: raw metrics plus fraction-of-best columns."""
    header = (
        f"{'model':<16} {'prec@K':>8} {'rec@K':>8} {'f1':>8} "
        f"{'prec/best':>10} {'rec/best':>10} {'f1/best':>10}"
    )
    lines = [header, "-" * len(header)]
    for rep in reports:
        lines.append(
            f"{rep.model_name:<16} {rep.mean_precision:>8.4f} {rep.mean_recall:>8.4f} "
            f"{rep.f1_score:>8.4f} {rep.normalized_precision:>10.4f} "
            f"{rep.normalized_recall:>10.4f} {rep.normalized_f1:>10.4f}"
        )
    return "\n".join(lines) + "\n"
