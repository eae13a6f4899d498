"""Exact dense indexing and the two negative-sampling strategies.

The index is a plain id -> unit-vector table scanned exhaustively; at desk
scale exactness beats any approximate structure and makes oracle testing
trivial. ``search_many`` scores a block of queries against every document
with one matmul, at most ``_BLOCK_SCORES`` scores per block, and ranks the
whole block with one lexsort by (row, descending score, ascending doc id),
with no per-row loop. Hard negatives come from the
top-ranked documents outside each query's relevant set under the current
model; random negatives are a uniform sample of the documents outside it.
The single-query functions are one-query calls of the batched ones, and
``mine_dataset`` turns judged queries into training examples with either.
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
# Scores per search block: bounds the (queries, docs) score matrix and the
# copy np.partition makes of it (2**18 float64 = 2 MiB each).
_BLOCK_SCORES = 1 << 18


@dataclass
class DenseIndex:
    """Immutable snapshot of document embeddings for exact cosine search."""

    doc_ids: list[str]
    vectors: np.ndarray  # (n_docs, dim), rows unit norm
    dim: int

    def __post_init__(self):
        if len(self.doc_ids) != len(set(self.doc_ids)):
            raise ValueError("doc_ids must be unique")
        if self.vectors.shape != (len(self.doc_ids), self.dim):
            raise ValueError("vectors shape inconsistent with doc_ids/dim")
        check_unit(self.vectors, lambda i: f"index vector {self.doc_ids[i]!r}")
        n = len(self.doc_ids)
        self._row_of = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}
        # Position of each row in ascending doc-id (str) order: the tie-break key.
        self._id_rank = np.empty(n, dtype=np.int64)
        self._id_rank[sorted(range(n), key=self.doc_ids.__getitem__)] = np.arange(n)
        # BLAS gives equal rows different last bits depending on where they
        # sit in its tiles. With duplicate rows, score the distinct ones and
        # expand, so that equal documents tie exactly and rank by id.
        rows = np.ascontiguousarray(self.vectors, dtype=np.float64)
        _, first, inverse = np.unique(rows.view(np.dtype((np.void, 8 * self.dim))).ravel(),
                                      return_index=True, return_inverse=True)
        self._distinct = (rows[first], inverse) if len(first) < n else None

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._row_of

    def vector(self, doc_id: str) -> np.ndarray:
        return self.vectors[self._row_of[doc_id]]

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """(len(queries), n_docs) dot products of unit queries with every row."""
        if self._distinct is None:
            return queries @ self.vectors.T
        distinct, inverse = self._distinct
        return (queries @ distinct.T)[:, inverse]


def build_index(corpus: list[Document], params: EncoderParams,
                config: EncoderConfig) -> DenseIndex:
    """Encode every document with the given parameters."""
    if not corpus:
        raise ValueError("corpus must be nonempty")
    seen = set()
    for doc in corpus:
        if doc.id in seen:
            raise ValueError(f"duplicate doc_id {doc.id!r}")
        seen.add(doc.id)
        if not doc.text:
            raise ValueError(f"document {doc.id!r} has empty text")
    vectors = encode_texts(params, config, [doc.text for doc in corpus])
    return DenseIndex([doc.id for doc in corpus], vectors, config.d_model)


def search_many(index: DenseIndex, query_vecs, k: int) -> list[RankedList]:
    """Exact top-k by cosine for each row of query_vecs, ties by ascending doc_id.

    Scores ``_BLOCK_SCORES // len(index)`` queries per matmul. One partition
    finds every row's k-th highest score, and every document scoring at least
    that much is a candidate, so boundary ties resolve by id exactly as a
    full sort would. One lexsort orders the block's candidates by (row,
    descending score, ascending doc id), and each row keeps its first
    ``min(k, len(index))``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = as_matrix(query_vecs, "query_vecs", index.dim)
    queries = queries / row_norms(queries, "query")[:, None]
    n = len(index)
    keep = min(k, n)
    if keep == 0:  # an empty index
        return [[] for _ in queries]
    block = max(1, _BLOCK_SCORES // n)
    ranked: list[RankedList] = []
    for start in range(0, len(queries), block):
        cols, values = _block_top(index.scores(queries[start:start + block]), keep, index._id_rank)
        pairs = list(zip(map(index.doc_ids.__getitem__, cols), values))
        ranked += [pairs[i:i + keep] for i in range(0, len(pairs), keep)]
    return ranked


def _block_top(scores: np.ndarray, keep: int, id_rank: np.ndarray) -> tuple[list, list]:
    """Each row's first ``keep`` columns by (descending score, ascending
    ``id_rank``) and their scores, row after row.

    Every array of a block dies on return, before the next block's score
    matrix is allocated; small arrays left alive across blocks would pin
    holes in the heap and hold it resident for the rest of the process.
    """
    n = scores.shape[1]
    kth = np.partition(scores, n - keep, axis=1)[:, n - keep]  # keep == n: the row minimum
    # every (row, col) scoring at least its row's k-th score, row-major
    rows, cols = np.divmod(np.flatnonzero(scores >= kth[:, None]), n)
    cand = scores[rows, cols]
    order = np.lexsort((id_rank[cols], -cand, rows))
    # ``rows`` is sorted and stays so under ``order``: row i's candidates start
    # at its first entry
    first = np.searchsorted(rows, np.arange(len(scores)))
    kept = order[(first[:, None] + np.arange(keep)).ravel()]
    return cols[kept].tolist(), cand[kept].tolist()


def search_top_k(index: DenseIndex, query_vec, k: int) -> RankedList:
    """Exact top-k by cosine for one query; see ``search_many``."""
    return search_many(index, as_vector(query_vec, "query_vec", index.dim)[None, :], k)[0]


def mine_ance_negatives_many(index: DenseIndex, params: EncoderParams, config: EncoderConfig,
                             queries: list[str], excluded: list[set[str]],
                             k: int = DEFAULT_NEGATIVES) -> list[list[str]]:
    """For each query, its k most similar documents outside its excluded set.

    ``excluded[i]`` holds query i's relevant (positive) doc ids. All queries
    are encoded in one pass and searched in one call; each retrieves
    k + len(excluded[i]) documents and drops the excluded ones, so it gets k
    negatives whenever the corpus has them. Order stays descending by
    similarity.
    """
    if len(excluded) != len(queries):
        raise ValueError(f"{len(excluded)} excluded sets for {len(queries)} queries")
    for skip in excluded:
        for doc_id in skip:
            if doc_id not in index:
                raise ValueError(f"unknown positive_id {doc_id!r}")
    depth = k + max(map(len, excluded), default=0)
    ranked = search_many(index, encode_texts(params, config, queries), depth)
    negatives = []
    for ranking, skip in zip(ranked, excluded):
        top = ranking[:k + len(skip)]
        negatives.append([doc_id for doc_id, _ in top if doc_id not in skip][:k])
    return negatives


def mine_ance_negatives(index: DenseIndex, params: EncoderParams, config: EncoderConfig,
                        query: str, positive_id: str, k: int = DEFAULT_NEGATIVES) -> list[str]:
    """Top-k most similar documents to the query, excluding its positive."""
    return mine_ance_negatives_many(index, params, config, [query], [{positive_id}], k)[0]


def mine_random_negatives_many(corpus_ids: list[str], excluded: list[set[str]], k: int,
                               rng: np.random.Generator) -> list[list[str]]:
    """For each excluded set, a uniform sample of k other ids without replacement.

    Ids must be unique; excluded ids outside the corpus are ignored. When
    fewer than k other documents exist, all of them are returned in shuffled
    order. Draws index the corpus without the excluded ids: with excluded
    positions p_0 < p_1 < ..., pool index j is corpus index
    j + #{i : p_i - i <= j}, so no per-query pool is built.
    """
    position = {doc_id: i for i, doc_id in enumerate(corpus_ids)}
    samples = []
    for skip in excluded:
        skipped = np.array(sorted(position[d] for d in skip if d in position), dtype=np.int64)
        size = len(corpus_ids) - len(skipped)
        if size <= k:
            chosen = rng.permutation(size)
        else:
            chosen = rng.choice(size, size=k, replace=False)
        rows = chosen + np.searchsorted(skipped - np.arange(len(skipped)), chosen, side="right")
        samples.append([corpus_ids[j] for j in rows.tolist()])
    return samples


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
    if k < 1:
        raise ValueError("k must be >= 1")
    doc_by_id = {doc.id: doc for doc in corpus}
    mineable = []  # (query, its relevant doc ids)
    for query in queries:
        relevant = qrels.relevant_docs(query.id)
        if not relevant:
            log.warning("query %s has no relevant document; skipped", query.id)
            continue
        unknown = sorted(d for d in relevant if d not in doc_by_id)
        if unknown:
            raise ValueError(f"qrels references unknown doc_id {unknown[0]!r} "
                             f"for query {query.id}")
        mineable.append((query, relevant))
    if not mineable:
        raise ValueError("no mineable queries (qrels empty or ids mismatched)")
    excluded = [relevant for _, relevant in mineable]
    if strategy == "ance":
        neg_lists = mine_ance_negatives_many(build_index(corpus, params, config), params,
                                             config, [query.text for query, _ in mineable],
                                             excluded, k)
    else:
        neg_lists = mine_random_negatives_many(list(doc_by_id), excluded, k, rng)
    examples = []
    for (query, relevant), neg_ids in zip(mineable, neg_lists):
        neg_queries = None
        if neg_query_map is not None:
            missing = [nid for nid in neg_ids if nid not in neg_query_map]
            if missing:
                raise ValueError(f"neg-query map missing entries for {missing[:3]}")
            neg_queries = [neg_query_map[nid] for nid in neg_ids]
        examples.append(TrainingExample(
            query=query.text,
            pos=[doc_by_id[d].text for d in sorted(relevant)],
            neg=[doc_by_id[nid].text for nid in neg_ids],
            neg_queries=neg_queries,
        ))
    return examples
