"""Exact dense indexing and the one negative sampler.

The index is a plain id -> unit-vector table scanned exhaustively; at desk
scale exactness beats any approximate structure and makes oracle testing
trivial. Search and both negative strategies are one blocked top-k over a
key per (query, document), ``_top_k``; when mining, a query's relevant
documents key -inf and are dropped. Search and hard (ANCE) negatives key by
cosine, a fixed-order row dot over a BLAS shortlist, ties by doc id; random
negatives key by one uniform draw per document, ties by corpus position. One
id -> row map, ``_rows``, names the first repeated id for the index, both
strategies and a run's queries; ``_columns`` rejects a relevant id outside it.
``mine_dataset`` builds examples.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Document, Qrels, Query, TrainingExample
from .encoder import encode  # unused here; perfbench/tracer.py wraps mining.encode
from .encoder import EncoderConfig, EncoderParams, encode_texts
from .numerics import as_matrix, as_vector, check_unit, row_norms

log = logging.getLogger(__name__)

RankedList = list[tuple[str, float]]

DEFAULT_NEGATIVES = 10
# Keys per top-k block: bounds each (queries, docs) key block (2**18 float64 =
# 2 MiB); np.partition sees only the block's chunk maxima.
_BLOCK_SCORES = 1 << 18


@dataclass
class DenseIndex:
    """Immutable snapshot of document embeddings for exact cosine search."""

    doc_ids: list[str]
    vectors: np.ndarray  # (n_docs, dim), rows unit norm
    dim: int

    def __post_init__(self):
        self._row_of = _rows(self.doc_ids)
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.shape != (len(self.doc_ids), self.dim):
            raise ValueError("vectors shape inconsistent with doc_ids/dim")
        check_unit(self.vectors, lambda i: f"index vector {self.doc_ids[i]!r}")
        n = len(self.doc_ids)
        # Position of each row in ascending doc-id (str) order: the tie-break key.
        self._id_rank = np.empty(n, dtype=np.int64)
        self._id_rank[sorted(range(n), key=self.doc_ids.__getitem__)] = np.arange(n)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._row_of

    def vector(self, doc_id: str) -> np.ndarray:
        return self.vectors[self._row_of[doc_id]]


def build_index(corpus: list[Document], params: EncoderParams,
                config: EncoderConfig) -> DenseIndex:
    """Encode every document with the given parameters."""
    if not corpus:
        raise ValueError("corpus must be nonempty")
    _rows([doc.id for doc in corpus])  # a repeated id fails before any encoding
    for doc in corpus:
        if not doc.text:
            raise ValueError(f"document {doc.id!r} has empty text")
    vectors = encode_texts(params, config, [doc.text for doc in corpus])
    return DenseIndex([doc.id for doc in corpus], vectors, config.d_model)


def search_many(index: DenseIndex, query_vecs, k: int) -> list[RankedList]:
    """Exact top-k by cosine for each row of query_vecs, ties by ascending
    doc_id: one ``_top_k`` pass keyed by the cosines."""
    return _search(index, as_matrix(query_vecs, "query_vecs", index.dim), k, [])


def _search(index: DenseIndex, queries, k: int, excluded: list[list[int]]) -> list[RankedList]:
    """``_top_k`` over the cosines of the checked query rows, normalized, with
    every document: BLAS keys the shortlist, a fixed-order row dot the result.
    Two summation orders of a d-term dot of rows of norm at most 1 + 1e-9 differ
    by at most 2 * d * u / (1 - d * u), u = 2**-53: the slack is 8 times that."""
    queries = queries / row_norms(queries, "query")[:, None]
    slack = 8 * index.dim * np.finfo(float).eps
    return _top_k(lambda start, stop: queries[start:stop] @ index.vectors.T,
                  lambda rows, cols, _: np.einsum("ij,ij->i", queries[rows], index.vectors[cols]),
                  slack, len(queries), k, index.doc_ids, index._id_rank, excluded)


def _top_k(keys, final, slack: float, n_rows: int, k: int, labels: list[str],
           tie_rank: np.ndarray, excluded: list[list[int]]) -> list[RankedList]:
    """Each row's first k labels, with their final keys, by (descending final
    key, ascending ``tie_rank``), outside the columns ``excluded[i]`` lists (none
    when ``excluded`` is empty): those key -inf, rank last and are dropped.
    ``keys(start, stop)`` gives rows [start, stop)'s shortlist keys, in row order,
    ``_BLOCK_SCORES // len(labels)`` rows at a time; ``final`` and ``slack`` are
    as for ``_block_top``, with rows counted from 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    keep = min(k, len(labels))
    if keep == 0:  # nothing to rank
        return [[] for _ in range(n_rows)]
    block = max(1, _BLOCK_SCORES // len(labels))
    ranked: list[RankedList] = []
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        cols, values = _block_top(keys(start, stop),
                                  lambda rows, cols, near: final(start + rows, cols, near),
                                  slack, keep, tie_rank, excluded[start:stop])
        pairs = list(zip(map(labels.__getitem__, cols), values))
        ranked += [[p for p in pairs[i:i + keep] if p[1] > -np.inf]
                   for i in range(0, len(pairs), keep)]
    return ranked


def _block_top(keys: np.ndarray, final, slack: float, keep: int, tie_rank: np.ndarray,
               excluded: list[list[int]]) -> tuple[list, list]:
    """Each row's first ``keep`` columns by (descending final key, ascending
    ``tie_rank``) and their final keys, row after row, once row i's
    ``excluded[i]`` columns key -inf in place, for good. ``final(rows, cols,
    near)`` gives pairs (rows[i], cols[i]) keyed ``near`` in ``keys`` their final
    keys, each within ``slack / 2``. If t is a row's ``keep``-th key, only its
    columns keyed t - slack or more can rank, and all of them get final keys, so
    ties resolve by ``tie_rank`` as in a full sort; t is at least the ``keep``-th
    largest of its chunks' maxima. Every array dies on return, before the next
    block's keys are allocated: small arrays alive across blocks pin heap holes."""
    keys[[i for i, cols in enumerate(excluded) for _ in cols],
         [col for cols in excluded for col in cols]] = -np.inf
    n = keys.shape[1]
    chunks = min(n, max(keep, 64))  # keep == n: one column each, the threshold the row minimum
    maxima = np.maximum.reduceat(keys, np.arange(chunks) * n // chunks, axis=1)
    least = np.partition(maxima, chunks - keep, axis=1)[:, chunks - keep] - slack
    rows, cols = np.divmod(np.flatnonzero(keys >= least[:, None]), n)  # row-major
    near = keys[rows, cols]
    # ``rows`` is sorted, also under a sort led by it: row i's entries start at its first
    first = np.searchsorted(rows, np.arange(len(keys)))
    table = np.full((len(keys), np.bincount(rows).max()), -np.inf)  # each row's candidates
    table[rows, np.arange(len(rows)) - first[rows]] = near
    kth = np.partition(table, -keep, axis=1)[:, -keep]
    pick = np.flatnonzero(near >= (kth - slack)[rows])
    rows, cols, near = rows[pick], cols[pick], near[pick]
    cand = np.where(near > -np.inf, final(rows, cols, near), -np.inf)
    order = np.lexsort((tie_rank[cols], -cand, rows))
    first = np.searchsorted(rows, np.arange(len(keys)))
    kept = order[(first[:, None] + np.arange(keep)).ravel()]
    return cols[kept].tolist(), cand[kept].tolist()


def search_top_k(index: DenseIndex, query_vec, k: int) -> RankedList:
    """Exact top-k by cosine for one query; see ``search_many``."""
    return _search(index, as_vector(query_vec, "query_vec", index.dim)[None, :], k, [])[0]


def _rows(ids: list[str], what: str = "doc_id") -> dict[str, int]:
    """Each id's row in ``ids``; the first id met twice raises, named as ``what``."""
    row_of: dict[str, int] = {}
    for i, key in enumerate(ids):
        if row_of.setdefault(key, i) != i:
            raise ValueError(f"duplicate {what} {key!r}")
    return row_of


def _columns(row_of: dict[str, int], excluded: list[set[str]]) -> list[list[int]]:
    """Each excluded set's corpus columns under ``row_of``; an unknown id raises."""
    try:
        return [[row_of[doc_id] for doc_id in skip] for skip in excluded]
    except KeyError as err:
        raise ValueError(f"unknown positive_id {err.args[0]!r}") from None


def mine_ance_negatives_many(index: DenseIndex, params: EncoderParams, config: EncoderConfig,
                             queries: list[str], excluded: list[set[str]],
                             k: int = DEFAULT_NEGATIVES) -> list[list[str]]:
    """For each query, its k most similar documents outside its excluded set,
    its relevant (positive) doc ids: all queries are encoded in one pass and
    ranked in one ``_top_k`` pass by ``search_many``'s keys, so each gets k
    negatives whenever the corpus has them."""
    if len(excluded) != len(queries):
        raise ValueError(f"{len(excluded)} excluded sets for {len(queries)} queries")
    columns = _columns(index._row_of, excluded)
    ranked = _search(index, as_matrix(encode_texts(params, config, queries), "query_vecs",
                                      index.dim), k, columns)
    return [[doc_id for doc_id, _ in ranking] for ranking in ranked]


def mine_ance_negatives(index: DenseIndex, params: EncoderParams, config: EncoderConfig,
                        query: str, positive_id: str, k: int = DEFAULT_NEGATIVES) -> list[str]:
    """Top-k most similar documents to the query, excluding its positive."""
    return mine_ance_negatives_many(index, params, config, [query], [{positive_id}], k)[0]


def mine_random_negatives_many(corpus_ids: list[str], excluded: list[set[str]], k: int,
                               rng: np.random.Generator) -> list[list[str]]:
    """For each excluded set, a uniform sample of k other ids without replacement.

    Each sample is the top k, outside the set, of one ``rng.random()`` key per
    corpus id, ties by corpus position (the top k of i.i.d. uniform keys is a
    uniform draw; Kool et al., arXiv 1903.06059). Keys are drawn row-major:
    set i takes draws [i * n, (i + 1) * n) for n ids, whatever the block
    size. Ids follow the one id rule (see the module docstring); when fewer
    than k ids remain, all are returned, in key order.
    """
    n = len(corpus_ids)
    ranked = _top_k(lambda start, stop: rng.random((stop - start, n)),
                    lambda rows, cols, drawn: drawn, 0.0, len(excluded), k,
                    corpus_ids, np.arange(n), _columns(_rows(corpus_ids), excluded))
    return [[doc_id for doc_id, _ in ranking] for ranking in ranked]


def mine_random_negatives(corpus_ids: list[str], positive_id: str, k: int,
                          rng: np.random.Generator) -> list[str]:
    """Uniform sample of k non-positive ids; see ``mine_random_negatives_many``."""
    return mine_random_negatives_many(corpus_ids, [{positive_id}], k, rng)[0]


def mine_dataset(corpus: list[Document], queries: list[Query], qrels: Qrels,
                 neg_query_map: dict[str, list[str]] | None,
                 params: EncoderParams | None, config: EncoderConfig | None,
                 strategy: str, k: int, rng: np.random.Generator) -> list[TrainingExample]:
    """One example per judged query: its relevant docs as positives and k negatives
    outside them, top-ranked by the model ("ance") or drawn from ``rng`` ("random"),
    each with its own queries when given ``neg_query_map``. Unjudged queries are
    skipped with a warning."""
    if strategy not in ("ance", "random"):
        raise ValueError(f"strategy must be 'ance' or 'random', got {strategy!r}")
    doc_by_id = {doc.id: doc for doc in corpus}
    mineable = []  # (query, its relevant doc ids)
    for query in queries:
        relevant = qrels.relevant_docs(query.id)
        if not relevant:
            log.warning("query %s has no relevant document; skipped", query.id)
            continue
        unknown = sorted(d for d in relevant if d not in doc_by_id)
        if unknown:
            raise ValueError(f"qrels references unknown doc_id {unknown[0]!r} for query {query.id}")
        mineable.append((query, relevant))
    if not mineable:
        raise ValueError("no mineable queries (qrels empty or ids mismatched)")
    excluded = [relevant for _, relevant in mineable]
    if strategy == "ance":
        neg_lists = mine_ance_negatives_many(build_index(corpus, params, config), params, config,
                                             [query.text for query, _ in mineable], excluded, k)
    else:
        neg_lists = mine_random_negatives_many([doc.id for doc in corpus], excluded, k, rng)
    examples = []
    for (query, relevant), neg_ids in zip(mineable, neg_lists):
        neg_queries = None
        if neg_query_map is not None:
            missing = [nid for nid in neg_ids if nid not in neg_query_map]
            if missing:
                raise ValueError(f"neg-query map missing entries for {missing[:3]}")
            neg_queries = [neg_query_map[nid] for nid in neg_ids]
        pos = [doc_by_id[d].text for d in sorted(relevant)]
        neg = [doc_by_id[nid].text for nid in neg_ids]
        examples.append(TrainingExample(query=query.text, pos=pos, neg=neg, neg_queries=neg_queries))
    return examples
