"""Exact dense indexing and the two negative-sampling strategies.

The index is a plain id -> unit-vector table scanned exhaustively; at desk
scale exactness beats any approximate structure and makes oracle testing
trivial. ``search_many`` scores a block of queries against every document
with one matmul, at most ``_BLOCK_SCORES`` scores per block, and ranks each
row by (descending score, ascending doc id). Hard negatives come from the
top-ranked documents outside each query's relevant set under the current
model; random negatives are a uniform sample. The single-query functions
are one-query calls of the batched ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Document
from .encoder import encode  # unused here; perfbench/tracer.py wraps mining.encode
from .encoder import EncoderConfig, EncoderParams, encode_texts
from .numerics import NORM_FLOOR, as_vector

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
        norms = np.linalg.norm(self.vectors, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValueError("index vectors must be unit norm")
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

    Scores ``_BLOCK_SCORES // len(index)`` queries per matmul. Per row, the
    k-th highest score is found with a partition, and every document scoring
    at least that much is kept, so boundary ties resolve by id exactly as a
    full sort would.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    queries = np.asarray(query_vecs, dtype=np.float64)
    if queries.ndim != 2:
        raise ValueError(f"query_vecs must be 2-D, got shape {queries.shape}")
    if queries.shape[1] != index.dim:
        raise ValueError(f"query dimension {queries.shape[1]} != index dimension {index.dim}")
    if not np.all(np.isfinite(queries)):
        raise ValueError("query_vecs contains non-finite entries")
    norms = np.sqrt([q @ q for q in queries])  # the dot np.linalg.norm takes, row by row
    if not np.all(norms >= NORM_FLOOR):
        raise ValueError("cannot search with a zero-norm query")
    queries = queries / norms[:, None]
    n = len(index)
    block = max(1, _BLOCK_SCORES // max(n, 1))
    ranked: list[RankedList] = []
    for start in range(0, len(queries), block):
        scores = index.scores(queries[start:start + block])
        if k < n:
            kth = np.partition(scores, n - k, axis=1)[:, n - k]
        for i, row in enumerate(scores):
            cand = np.arange(n) if k >= n else np.flatnonzero(row >= kth[i])
            order = cand[np.lexsort((index._id_rank[cand], -row[cand]))[:k]]
            ranked.append([(index.doc_ids[j], float(row[j])) for j in order])
    return ranked


def search_top_k(index: DenseIndex, query_vec, k: int) -> RankedList:
    """Exact top-k by cosine for one query; see ``search_many``."""
    return search_many(index, as_vector(query_vec, "query_vec")[None, :], k)[0]


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


def mine_random_negatives_many(corpus_ids: list[str], positive_ids: list[str], k: int,
                               rng: np.random.Generator) -> list[list[str]]:
    """For each positive, a uniform sample of k other ids without replacement.

    Ids must be unique. When fewer than k other documents exist, all of them
    are returned in shuffled order. Draws index the corpus without the
    positive (pool index j is corpus index j + (j >= p), p the positive's
    position), so no per-query pool is built.
    """
    n = len(corpus_ids)
    position = {doc_id: i for i, doc_id in enumerate(corpus_ids)}
    samples = []
    for positive_id in positive_ids:
        p = position.get(positive_id, n)
        size = n - (p < n)
        if size <= k:
            chosen = rng.permutation(size)
        else:
            chosen = rng.choice(size, size=k, replace=False)
        samples.append([corpus_ids[j + (j >= p)] for j in chosen.tolist()])
    return samples


def mine_random_negatives(corpus_ids: list[str], positive_id: str, k: int,
                          rng: np.random.Generator) -> list[str]:
    """Uniform sample of k non-positive ids; see ``mine_random_negatives_many``."""
    return mine_random_negatives_many(corpus_ids, [positive_id], k, rng)[0]
