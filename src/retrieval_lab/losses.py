"""Contrastive objectives over unit embeddings, in matrix form, with analytic gradients.

Two losses: the standard softmax cross-entropy contrastive loss over
(query, positive, hard negatives), and a penalty-augmented variant that
additionally keeps each hard negative close to its own positive queries.
Both operate purely on embeddings; encoding happens elsewhere. Each loss has
one implementation, its gradient call, which computes the loss in the same
pass and returns it as ``BatchGrads.loss``; ``cl_loss``/``clp_loss`` read
that field. Every embedding has unit norm (one row-wise check per field), so
a cosine is a dot product: the scores are ``[pos; negs] @ q``, the penalty is
``mean_j (1 - mean(Q_j @ n_j))``, and a score ``s = a · b`` with upstream
``g`` sends ``g (b - s a)`` to ``a``, the partial of cosine at unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    as_vector,
    cosine_similarity,  # unused here; perfbench/tracer.py wraps losses.cosine_similarity
    cosine_similarity_grad,  # unused here; perfbench/tracer.py wraps losses.cosine_similarity_grad
)

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class LossConfig:
    """tau: softmax temperature; lam: penalty interpolation weight in [0, 1]."""

    tau: float = 0.05
    lam: float = 0.1

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")


@dataclass
class ContrastiveBatch:
    """One training example: query/positive/negative embeddings, all unit norm.

    ``neg_embs`` is a ``(k, d)`` matrix, one row per negative.
    ``neg_query_embs`` (one ``(m_j, d)`` matrix per negative) holds the
    embeddings of each negative document's own positive queries; it is only
    required by the penalty-augmented loss. Lists of vectors are accepted
    for both.
    """

    query_emb: np.ndarray
    pos_emb: np.ndarray
    neg_embs: np.ndarray = field(default_factory=list)
    neg_query_embs: list[np.ndarray] | None = None

    def __post_init__(self):
        self.query_emb = as_vector(self.query_emb, "query_emb")
        dim = self.query_emb.shape[0]
        self.pos_emb = _matrix([self.pos_emb], dim, "pos_emb")[0]
        _check_unit(np.stack([self.query_emb, self.pos_emb]), ("query_emb", "pos_emb").__getitem__)
        self.neg_embs = _matrix(self.neg_embs, dim, "neg_embs")
        _check_unit(self.neg_embs, "neg_embs[{}]".format)
        if self.neg_query_embs is not None:
            if len(self.neg_query_embs) != len(self.neg_embs):
                raise ValueError("neg_query_embs must have one entry list per negative")
            self.neg_query_embs = [_matrix(qs, dim, f"neg_query_embs[{j}]")
                                   for j, qs in enumerate(self.neg_query_embs)]
            starts = np.cumsum([0, *map(len, self.neg_query_embs)])

            def row_name(i: int) -> str:
                j = int(np.searchsorted(starts, i, side="right")) - 1
                return f"neg_query_embs[{j}][{i - starts[j]}]"

            _check_unit(np.vstack([self.neg_embs[:0], *self.neg_query_embs]), row_name)


@dataclass
class BatchGrads:
    """Gradients aligned with ContrastiveBatch fields, and the loss they are the
    gradients of (NaN when built by hand without one)."""

    query_emb: np.ndarray
    pos_emb: np.ndarray
    neg_embs: np.ndarray
    neg_query_embs: list[np.ndarray] | None = None
    loss: float = float("nan")


def _matrix(rows, dim: int, name: str) -> np.ndarray:
    """``rows`` (a matrix or a list of vectors) as a float64 ``(n, dim)`` matrix."""
    try:
        m = np.asarray(rows, dtype=np.float64)
    except ValueError:
        raise ValueError(f"{name} holds vectors of unequal dimension") from None
    if m.shape == (0,):
        return m.reshape(0, dim)
    if m.ndim != 2 or m.shape[1] != dim:
        raise ValueError(f"{name} must hold vectors of dimension {dim}, got shape {m.shape}")
    return m


def _check_unit(m: np.ndarray, row_name) -> None:
    """Raise for the first row of ``m`` that is non-finite or not of unit norm."""
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))
    if bad.size:
        i = int(bad[0])
        if not np.all(np.isfinite(m[i])):
            raise ValueError(f"{row_name(i)} contains non-finite entries")
        raise ValueError(f"{row_name(i)} must be unit norm, got |v| = {norms[i]}")


def cl_loss(batch: ContrastiveBatch, cfg: LossConfig) -> float:
    """Softmax cross-entropy pulling the query to the positive, away from negatives."""
    return cl_loss_grad(batch, cfg).loss


def clp_loss(batch: ContrastiveBatch, cfg: LossConfig) -> float:
    """(1 - lam) * contrastive loss + lam * negative-query penalty.

    The penalty is the mean over negatives of (1 - mean similarity to their
    own positive queries): bounded in [0, 2], and 0 when there are no negatives.
    """
    return clp_loss_grad(batch, cfg).loss


def _penalty_rows(batch: ContrastiveBatch) -> tuple[np.ndarray, ...]:
    """The penalty with one row per (negative, own query) pair: the negative
    index of each row, that negative, the query, their cosine and its weight
    ``1 / (k m_j)``, so that the penalty is ``weights @ (1 - sims)``."""
    counts = np.array([len(qs) for qs in batch.neg_query_embs], dtype=np.intp)
    owner = np.repeat(np.arange(counts.size), counts)
    negs = batch.neg_embs[owner]
    queries = np.vstack([batch.neg_embs[:0], *batch.neg_query_embs])  # (0, d) when k = 0
    sims = np.einsum("ij,ij->i", negs, queries)
    return owner, negs, queries, sims, 1.0 / (counts.size * counts[owner])


def cl_loss_grad(batch: ContrastiveBatch, cfg: LossConfig) -> BatchGrads:
    """cl_loss and its analytic gradients w.r.t. query, positive and negatives; the
    log-sum-exp subtracts the max so extreme temperatures stay finite."""
    q = batch.query_emb
    docs = np.vstack([batch.pos_emb, batch.neg_embs])
    scores = docs @ q
    z = scores / cfg.tau
    m = float(np.max(z))
    e = np.exp(z - m)
    total = np.sum(e)
    # d loss / d score_i = (p_i - 1[i == 0]) / tau
    ds = e / total
    ds[0] -= 1.0
    ds /= cfg.tau
    d_docs = ds[:, None] * (q - scores[:, None] * docs)
    return BatchGrads(ds @ docs - (ds @ scores) * q, d_docs[0], d_docs[1:],
                      loss=m + float(np.log(total)) - float(z[0]))


def clp_loss_grad(batch: ContrastiveBatch, cfg: LossConfig) -> BatchGrads:
    """clp_loss and its analytic gradients; negatives receive contributions
    from both the contrastive term and the penalty term.

    With lam == 0 the contrastive loss and gradients are returned untouched
    (bit-identical to cl_loss_grad) and all negative-query gradients are zero.
    """
    if batch.neg_query_embs is None or any(len(qs) == 0 for qs in batch.neg_query_embs):
        raise ValueError("CLP requires negative-query embeddings")
    grads = cl_loss_grad(batch, cfg)
    if cfg.lam == 0.0:
        grads.neg_query_embs = [np.zeros_like(qs) for qs in batch.neg_query_embs]
        return grads

    owner, negs, queries, sims, weights = _penalty_rows(batch)
    grads.loss = (1.0 - cfg.lam) * grads.loss + cfg.lam * float(weights @ (1.0 - sims))
    for g in (grads.query_emb, grads.pos_emb, grads.neg_embs):
        g *= 1.0 - cfg.lam
    ds = (-cfg.lam * weights)[:, None]  # d loss / d sim of each row
    np.add.at(grads.neg_embs, owner, ds * (queries - sims[:, None] * negs))
    # one (m_j, d) block per negative; the piece after the last end is empty
    ends = np.cumsum([len(qs) for qs in batch.neg_query_embs])
    grads.neg_query_embs = np.split(ds * (negs - sims[:, None] * queries), ends)[:-1]
    return grads
