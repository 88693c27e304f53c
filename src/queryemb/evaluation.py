"""Reformulation retrieval metrics with best-possible normalization.

A probe query is "reformulated" into its nearest stored queries.  Quality is
scored against purchase data: a reformulation is relevant when its top-K
purchased products intersect the probe's, and recall measures how much of
the probe's top-K product list the reformulations jointly cover.  Raw scores
are also reported as fractions of the best score any choice of
reformulations from the store could have achieved.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .baseline import QueryStore, TrigramHashStore
from .core import QueryTable, _int64_array
from .embedder import AttentionModel, embed_query, embed_table

PurchaseMap = Mapping[int, Sequence[tuple[int, int]]]

# the top-product table holds product ids as int64
_INT64_MAX = int(np.iinfo(np.int64).max)
# elements that one array pass over many probes holds at once
_CHUNK = 1 << 20

DEFAULT_K = 20
DEFAULT_REFORMULATIONS = 5
DEFAULT_ORACLE_POOL = 25


def top_products(purchases: Sequence[tuple[int, int]], k: int) -> list[int]:
    """Product ids by descending purchase count (ties: ascending id), at most k.

    Every metric and the oracle read purchases here, so here they are checked.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    checked = []
    for pid, count in purchases:
        try:  # numpy integers pass; a float or a string would be truncated or fail later
            pid, count = operator.index(pid), operator.index(count)
        except TypeError:
            raise ValueError(
                f"purchase ({pid!r}, {count!r}) must hold an integer product_id and count"
            ) from None
        if pid < 0:
            raise ValueError(f"purchased product_id {pid} must be non-negative")
        if pid > _INT64_MAX:
            raise ValueError(f"purchased product_id {pid} does not fit int64")
        if count < 1:
            raise ValueError(f"purchase count {count} must be >= 1")
        checked.append((pid, count))
    ranked = sorted(checked, key=lambda pc: (-pc[1], pc[0]))
    return [pid for pid, _ in ranked[:k]]


class TopTable(NamedTuple):
    """The top-k product lists of a set of queries as one array."""

    ids: np.ndarray  # distinct query ids, ascending
    tops: np.ndarray  # row i: top_products of ids[i], padded with -1 to the longest list

    def rows(self, query_ids) -> np.ndarray:
        """The table rows of query_ids, in their shape; every id must be in ids."""
        query_ids = np.asarray(query_ids, dtype=np.int64)
        at = np.searchsorted(self.ids, query_ids)
        found = at < self.ids.size
        found[found] = self.ids[at[found]] == query_ids[found]
        if not found.all():
            raise ValueError("query ids missing from the top-product table")
        return self.tops[at]


def _top_rows(ids, purchase_map: PurchaseMap, k: int) -> np.ndarray:
    """Each id's top_products as one row, padded with -1 to the longest list.

    Product ids are non-negative, so a pad never matches one.  The width is
    the longest list, at most k.
    """
    # looked up at call time, so a wrapper installed on the module sees every call
    tops = [top_products(purchase_map.get(c, []), k) for c in ids]
    lengths = np.array([len(t) for t in tops], dtype=np.int64)
    table = np.full((lengths.size, int(lengths.max(initial=0))), -1, dtype=np.int64)
    table[np.arange(table.shape[1]) < lengths[:, None]] = [p for t in tops for p in t]
    return table


def _top_table(ids, purchase_map: PurchaseMap, k: int) -> TopTable:
    """The TopTable of the distinct ids: one top_products call each."""
    uids = np.unique(np.asarray(ids, dtype=np.int64))
    return TopTable(uids, _top_rows(uids.tolist(), purchase_map, k))


def _first_listed(tops: np.ndarray) -> np.ndarray:
    """Mask of the entries of each row that are products not listed earlier in it."""
    width = tops.shape[-1]
    earlier = ((tops[..., :, None] == tops[..., None, :]) & np.tri(width, width, -1, bool)).any(-1)
    return (tops >= 0) & ~earlier


def _hits(probe_tops: np.ndarray, ref_tops: np.ndarray) -> np.ndarray:
    """Which first-listed products of each probe row each of its ref rows lists.

    probe_tops is (n, w) and ref_tops (n, R, w'), both padded with -1; the
    (n, R, w) result is False at pads and at a product's later listings.  The
    comparison is made for about _CHUNK elements at once.
    """
    n, width = probe_tops.shape
    per_row = width * max(ref_tops.shape[1] * ref_tops.shape[2], width)
    step = max(1, _CHUNK // max(1, per_row))
    hits = np.empty((n, ref_tops.shape[1], width), dtype=bool)
    for lo in range(0, n, step):
        probe, refs = probe_tops[lo : lo + step], ref_tops[lo : lo + step]
        match = (refs[:, :, :, None] == probe[:, None, None, :]).any(axis=2)
        hits[lo : lo + step] = match & _first_listed(probe)[:, None, :]
    return hits


def _overlaps(probe_tops: np.ndarray, ref_tops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per probe row: how many of its reformulations share a top product with
    it, and how many of its distinct top products some reformulation lists.

    probe_tops is (n, w) and ref_tops (n, R, w'), both padded with -1.
    """
    hits = _hits(probe_tops, ref_tops)
    return hits.any(axis=2).sum(axis=1), hits.any(axis=1).sum(axis=1)


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

    def encode(self, queries: QueryTable) -> np.ndarray:
        """(Q, dim) embeddings of every table row, equal to its embed_query."""
        return embed_table(self.model, queries)

    def keys(self, z: np.ndarray) -> np.ndarray:
        """The sort keys of an encoded probe: its negated similarity to every stored row."""
        return -(self.matrix @ z)

    def rank(self, probe: Sequence[int], count: int,
             exclude_id: int | None = None) -> np.ndarray:
        """The count store ids first by the probe's (descending similarity, ascending id)."""
        return self._ranked(self.keys(embed_query(self.model, probe)), count, exclude_id)


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
    return store.rank(probe, count, exclude_id=exclude).tolist()


# ---------------------------------------------------------------------------
# best-possible (oracle) scores


def _spans(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For spans of the given lengths laid end to end: each element's span and
    its offset within it."""
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(owner.size) - (np.cumsum(count) - count)[owner]


def _incidence(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> sparse.csr_array:
    """The 0/1 matrix with a 1 at each (row, col) given, however often."""
    matrix = sparse.csr_array((np.ones(rows.size, dtype=np.int64), (rows, cols)), shape=shape)
    matrix.data[:] = 1  # repeated pairs were summed
    return matrix


def _rank_within(keys: np.ndarray) -> np.ndarray:
    """Each element's position among the equal keys before it; keys are sorted."""
    return np.arange(keys.size) - np.searchsorted(keys, keys, "left")


def _best_cover(masks: list[int], take: int, n_top: int) -> int:
    """Most bits that an OR of at most take of the masks sets (n_top when all
    n_top bits of a top list can be set)."""
    full = (1 << n_top) - 1
    best = 0
    for r in range(1, min(take, len(masks)) + 1):
        for combo in combinations(masks, r):
            u = 0
            for m in combo:
                u |= m
            if u == full:
                return n_top
            best = max(best, bin(u).count("1"))
    return best


def oracle_best(
    probes: Sequence[int],
    candidate_ids: Sequence[int],
    purchase_map: PurchaseMap,
    k: int,
    n_reformulations: int = DEFAULT_REFORMULATIONS,
    pool: int = DEFAULT_ORACLE_POOL,
    *,
    table: TopTable | None = None,
) -> tuple[float, float]:
    """Mean over the probes of the highest precision and recall any
    n_reformulations-subset of the candidates could score.

    Subsets are drawn from the ``pool`` candidates with the largest product
    overlap, ties by ascending id (the restriction is certified against
    unrestricted enumeration at toy scale in the tests); a probe is never its
    own candidate.  Precision needs no enumeration: relevant candidates are
    interchangeable.  Recall maximizes coverage of the probe's top-k
    products over subsets of distinct coverage patterns, held as Python-int
    bitmasks, so k has no cap.

    All probes are scored at once: every (probe, candidate top list)
    overlap is one entry of a sparse product of a probe x product and a
    product x top-list incidence, and masks are built only for each probe's
    pool.  ``table`` is a TopTable that already holds every probe and
    candidate (evaluate passes its own); without it, one is built.
    """
    probe_ids = _int64_array(probes, "probe ids").reshape(-1)
    cand = _int64_array(candidate_ids, "candidate ids").reshape(-1)
    if probe_ids.size == 0:
        raise ValueError("need at least one probe query")
    if n_reformulations < 1 or pool < 1:
        raise ValueError("n_reformulations and pool must be at least 1")
    if table is None:
        table = _top_table(np.concatenate([probe_ids, cand]), purchase_map, k)
    probe_tops = table.rows(probe_ids)
    n_top = np.count_nonzero(probe_tops >= 0, axis=1)
    sorted_cand = np.sort(cand)
    n_self = np.searchsorted(sorted_cand, probe_ids, "right")
    n_self -= np.searchsorted(sorted_cand, probe_ids)  # a probe's own rows
    available = cand.size - n_self
    bad = np.flatnonzero((n_top == 0) | (available == 0))
    if bad.size:
        if n_top[bad[0]] == 0:
            raise ValueError(f"probe {probe_ids[bad[0]]} has no purchases")
        raise ValueError("no candidates available")

    # candidate rows with equal top rows (one "pattern") overlap every probe
    # equally; member_id holds each pattern's ids in ascending order
    patterns, pattern_of = np.unique(table.rows(cand), axis=0, return_inverse=True)
    pattern_of = pattern_of.reshape(-1)
    member_id = cand[np.lexsort((cand, pattern_of))]
    size = np.bincount(pattern_of, minlength=len(patterns))
    start = np.cumsum(size) - size
    # (has @ lists)[i, j] is how many distinct products probe i and pattern j share
    probe_listed, pattern_listed = probe_tops >= 0, patterns >= 0
    products, code = np.unique(
        np.concatenate([probe_tops[probe_listed], patterns[pattern_listed]]), return_inverse=True
    )
    split = np.count_nonzero(probe_listed)
    has = _incidence(np.nonzero(probe_listed)[0], code[:split], (probe_ids.size, products.size))
    lists = _incidence(code[split:], np.nonzero(pattern_listed)[0], (products.size, len(patterns)))

    take = np.minimum(n_reformulations, available)
    relevant = np.zeros(probe_ids.size)
    best_cover = np.zeros(probe_ids.size, dtype=np.int64)
    # probes in chunks of about _CHUNK elements: a probe's (product, pattern)
    # joins bound its pairs, each pair pools at most min(size, pool + n_self)
    # members, and the masks compare at most pool top rows with the probe's
    weight = has @ (lists @ np.minimum(size, pool + n_self.max())) + pool * probe_tops.shape[1]
    chunk = (np.cumsum(weight) - weight) // _CHUNK
    cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), probe_ids.size]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pairs = (has[lo:hi] @ lists).tocoo()  # rows in probe order
        probe, pattern, overlap = pairs.row + lo, pairs.col, pairs.data
        relevant[lo:hi] = np.bincount(pairs.row, size[pattern], hi - lo)

        # The pool is each probe's first `pool` member rows by (overlap desc,
        # id).  Only a pattern's first pool + n_self ids can reach it: the
        # probe's own rows are dropped, and equal overlaps go by id
        span, offset = _spans(np.minimum(size[pattern], pool + n_self[probe]))
        member = member_id[start[pattern[span]] + offset]
        keep = member != probe_ids[probe[span]]
        span, member = span[keep], member[keep]
        order = np.lexsort((member, -overlap[span], probe[span]))
        pooled = np.unique(span[order][_rank_within(probe[span[order]]) < pool])

        # the pooled pairs' hits as Python-int bitmasks, bit j for column j.
        # A product listed twice has one bit, so full coverage of n_top bits
        # is then out of reach, as full recall is
        hits = _hits(probe_tops[probe[pooled]], patterns[pattern[pooled], None])[:, 0]
        masks = [int.from_bytes(row, "little") for row in np.packbits(hits, 1, bitorder="little")]
        owner = probe[pooled]
        bounds = np.flatnonzero(np.diff(owner, prepend=-1, append=-1))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            i = int(owner[a])
            unique_masks = sorted(set(masks[a:b]), reverse=True)
            best_cover[i] = _best_cover(unique_masks, int(take[i]), int(n_top[i]))
    # a probe's own rows lie in a pattern that overlaps it
    best_precision = np.minimum(relevant - n_self, take) / n_reformulations
    best_recall = best_cover / n_top
    return float(best_precision.mean()), float(best_recall.mean())


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
    """Score reformulation retrieval for every probe and attach oracle normalization.

    The probes are encoded at once (store.encode); each is then ranked from
    its row (store.keys) as reformulate ranks it by id.  The metrics and the
    oracle of all probes are read from one TopTable of the probes and stored
    queries, so top_products runs once per distinct id.
    """
    probes = _int64_array(probe_ids, "probe ids").reshape(-1).tolist()
    if not probes:
        raise ValueError("need at least one probe query")
    table = _top_table(np.concatenate([probes, store.ids]), purchase_map, k)
    probe_tops = table.rows(probes)
    lengths = np.count_nonzero(probe_tops >= 0, axis=1)
    excluded, n = np.isin(probes, store.ids).tolist(), len(queries)
    for q, exclude, length in zip(probes, excluded, lengths.tolist()):  # reformulate's checks
        if not 0 <= q < n:
            raise ValueError(f"query id {q} outside [0, {n})")
        if n_reformulations > len(store) - exclude:
            raise ValueError(f"store offers {len(store) - exclude} candidates, need {n_reformulations}")
        if not length:
            raise ValueError(f"probe {q} has no purchases; recall undefined")
    vectors = store.encode(queries.take(probes))
    refs = [store._ranked(store.keys(v), n_reformulations, q if exclude else None).tolist()
            for q, v, exclude in zip(probes, vectors, excluded)]
    relevant, covered = _overlaps(probe_tops, table.rows(refs))
    # tolist gives Python floats, whose repr the CSV writes
    precision = (relevant / n_reformulations).tolist()
    recall = (covered / lengths).tolist()
    rows = tuple(EvalRow(q, tuple(r), p, c) for q, r, p, c in zip(probes, refs, precision, recall))
    mean_p = float(np.mean(precision))
    mean_r = float(np.mean(recall))
    best_p, best_r = oracle_best(
        probes, store.ids, purchase_map, k, n_reformulations, oracle_pool, table=table
    )
    best = f1(best_p, best_r)
    return EvalReport(
        model_name=model_name,
        k=k,
        n_reformulations=n_reformulations,
        rows=rows,
        mean_precision=mean_p,
        mean_recall=mean_r,
        f1_score=f1(mean_p, mean_r),
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
