"""Exact dense indexing and the two negative-sampling strategies.

The index is a plain id -> unit-vector table scanned exhaustively; at desk
scale exactness beats any approximate structure and makes oracle testing
trivial. Hard negatives come from the top-ranked non-positive documents
under the current model; random negatives are a uniform sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Document
from .encoder import EncoderConfig, EncoderParams, encode, encode_texts
from .numerics import as_vector

RankedList = list[tuple[str, float]]

DEFAULT_NEGATIVES = 10


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
        self._row_of = {doc_id: i for i, doc_id in enumerate(self.doc_ids)}

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
    seen = set()
    for doc in corpus:
        if doc.id in seen:
            raise ValueError(f"duplicate doc_id {doc.id!r}")
        seen.add(doc.id)
        if not doc.text:
            raise ValueError(f"document {doc.id!r} has empty text")
    vectors = encode_texts(params, config, [doc.text for doc in corpus])
    return DenseIndex([doc.id for doc in corpus], vectors, config.d_model)


def search_top_k(index: DenseIndex, query_vec, k: int) -> RankedList:
    """Exact top-k by cosine, ties broken by ascending doc_id.

    Scans all documents; candidate selection uses an argpartition cut, then
    every document tied with the k-th score is kept so boundary ties resolve
    by id exactly as a full sort would.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = as_vector(query_vec, "query_vec")
    if q.shape[0] != index.dim:
        raise ValueError(f"query dimension {q.shape[0]} != index dimension {index.dim}")
    qn = q / np.linalg.norm(q)
    scores = index.vectors @ qn
    n = len(index)
    if k >= n:
        candidates = range(n)
    else:
        part = np.argpartition(-scores, k - 1)
        kth_score = scores[part[k - 1]]
        candidates = np.flatnonzero(scores >= kth_score)
    ranked = sorted(((index.doc_ids[i], float(scores[i])) for i in candidates),
                    key=lambda pair: (-pair[1], pair[0]))
    return ranked[:k]


def mine_ance_negatives(index: DenseIndex, params: EncoderParams, config: EncoderConfig,
                        query: str, positive_id: str, k: int = DEFAULT_NEGATIVES) -> list[str]:
    """Top-k most similar documents to the query, excluding its positive.

    Retrieves k+1, drops the positive wherever it ranks, truncates to k;
    order stays descending by similarity.
    """
    if positive_id not in index:
        raise ValueError(f"unknown positive_id {positive_id!r}")
    query_vec = encode(params, config, query)
    ranked = search_top_k(index, query_vec, k + 1)
    negatives = [doc_id for doc_id, _ in ranked if doc_id != positive_id]
    return negatives[:k]


def mine_random_negatives(corpus_ids: list[str], positive_id: str, k: int,
                          rng: np.random.Generator) -> list[str]:
    """Uniform sample of k non-positive ids without replacement.

    When fewer than k non-positive documents exist, all of them are
    returned in shuffled order.
    """
    pool = [doc_id for doc_id in corpus_ids if doc_id != positive_id]
    if len(pool) <= k:
        order = rng.permutation(len(pool))
        return [pool[i] for i in order]
    chosen = rng.choice(len(pool), size=k, replace=False)
    return [pool[i] for i in chosen]
