"""Contrastive objectives over unit embeddings, in matrix form, with analytic gradients.

Two losses: the standard softmax cross-entropy contrastive loss over
(query, positive, hard negatives), and a penalty-augmented variant that
additionally keeps each hard negative close to its own positive queries.
Both operate purely on embeddings and share one implementation,
``_group_loss_grad``: the losses of a stack of equal-shape examples and
their analytic gradients, from one pass. Training calls it once per run of
such examples; ``cl_loss_grad``/``clp_loss_grad`` are its one-example calls
on a ``ContrastiveBatch``, which checks that every row has unit norm. So a
cosine is a dot product: the scores are ``[pos; negs] @ q``, the penalty is
``mean_j (1 - mean(Q_j @ n_j))``, and a score ``s = a · b`` with upstream
``g`` sends ``g (b - s a)`` to ``a``, the partial of cosine at unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    as_matrix,
    as_vector,
    check_unit,
    cosine_similarity,  # unused here; perfbench/tracer.py wraps losses.cosine_similarity
    cosine_similarity_grad,  # unused here; perfbench/tracer.py wraps losses.cosine_similarity_grad
)


@dataclass(frozen=True)
class LossConfig:
    """tau: softmax temperature; lam: penalty interpolation weight in [0, 1]."""

    tau: float = 0.05
    lam: float = 0.1

    def __post_init__(self):
        if not 0 < self.tau < np.inf:  # NaN fails both comparisons
            raise ValueError("tau must be a finite number > 0")
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
        self.pos_emb = as_vector(self.pos_emb, "pos_emb", dim)
        self.neg_embs = as_matrix(self.neg_embs, "neg_embs", dim)
        if self.neg_query_embs is not None:
            if len(self.neg_query_embs) != len(self.neg_embs):
                raise ValueError("neg_query_embs must have one entry list per negative")
            self.neg_query_embs = [as_matrix(qs, f"neg_query_embs[{j}]", dim)
                                   for j, qs in enumerate(self.neg_query_embs)]
        own = self.neg_query_embs or []
        names = ["query_emb", "pos_emb", *map("neg_embs[{}]".format, range(len(self.neg_embs))),
                 *(f"neg_query_embs[{j}][{i}]" for j, qs in enumerate(own) for i in range(len(qs)))]
        check_unit(np.vstack([self.query_emb, self.pos_emb, self.neg_embs, *own]),
                   names.__getitem__)


@dataclass
class BatchGrads:
    """Gradients aligned with ContrastiveBatch fields, and the loss they are the
    gradients of (NaN when built by hand without one)."""

    query_emb: np.ndarray
    pos_emb: np.ndarray
    neg_embs: np.ndarray
    neg_query_embs: list[np.ndarray] | None = None
    loss: float = float("nan")


def cl_loss(batch: ContrastiveBatch, cfg: LossConfig) -> float:
    """Softmax cross-entropy pulling the query to the positive, away from negatives."""
    return cl_loss_grad(batch, cfg).loss


def clp_loss(batch: ContrastiveBatch, cfg: LossConfig) -> float:
    """(1 - lam) * contrastive loss + lam * negative-query penalty.

    The penalty is the mean over negatives of (1 - mean similarity to their
    own positive queries): bounded in [0, 2], and 0 when there are no negatives.
    """
    return clp_loss_grad(batch, cfg).loss


def _group_loss_grad(vecs: np.ndarray, k: int, counts: list[int] | None,
                     cfg: LossConfig) -> tuple[np.ndarray, np.ndarray]:
    """Losses ``(B,)`` and gradients w.r.t. ``vecs``, a ``(B, 2 + k + M, d)``
    stack of equal-shape examples: a query, positive, k negatives, then M own
    queries, ``counts[j]`` for negative j. ``counts`` None or ``lam == 0``
    gives CL. Each product is one dot or gemv per example, as for one alone."""
    q, docs = vecs[:, 0], vecs[:, 1:2 + k]
    scores = np.matmul(docs, q[:, :, None])[:, :, 0]
    z = scores / cfg.tau
    m = z.max(axis=1)  # subtracted so that extreme temperatures stay finite
    e = np.exp(z - m[:, None])
    total = e.sum(axis=1)
    # d loss / d score_i = (p_i - 1[i == 0]) / tau
    ds = e / total[:, None]
    ds[:, 0] -= 1.0
    ds /= cfg.tau
    ups = np.zeros_like(vecs)
    ups[:, 0] = (np.matmul(ds[:, None], docs)[:, 0]
                 - np.matmul(ds[:, None], scores[:, :, None])[:, 0] * q)
    ups[:, 1:2 + k] = ds[:, :, None] * (q[:, None] - scores[:, :, None] * docs)
    losses = m + np.log(total) - z[:, 0]
    if counts is None or cfg.lam == 0.0:
        return losses, ups
    # one penalty row per (negative, own query) pair, weighted 1 / (k m_j)
    owner = np.repeat(np.arange(k), counts)
    negs, queries = docs[:, 1 + owner], vecs[:, 2 + k:]
    sims = np.einsum("bij,bij->bi", negs, queries)
    weights = 1.0 / (k * np.repeat(counts, counts))
    penalty = np.matmul(weights, (1.0 - sims)[:, :, None])[:, 0]
    losses = (1.0 - cfg.lam) * losses + cfg.lam * penalty
    ups[:, :2 + k] *= 1.0 - cfg.lam
    dsim = (-cfg.lam * weights)[:, None]  # d loss / d sim of each row
    np.add.at(ups, (np.arange(len(vecs))[:, None], 2 + owner),
              dsim * (queries - sims[:, :, None] * negs))
    ups[:, 2 + k:] = dsim * (negs - sims[:, :, None] * queries)
    return losses, ups


def _one_example(batch: ContrastiveBatch, counts: list[int] | None, cfg: LossConfig) -> BatchGrads:
    """``_group_loss_grad`` on ``batch`` alone, as ``BatchGrads``."""
    k, own = len(batch.neg_embs), batch.neg_query_embs if counts is not None else []
    rows = np.vstack([batch.query_emb, batch.pos_emb, batch.neg_embs, *own])
    losses, ups = _group_loss_grad(rows[None], k, counts, cfg)
    # one (m_j, d) block per negative; the piece after the last end is empty
    neg_query_embs = None if counts is None else np.split(ups[0, 2 + k:], np.cumsum(counts))[:-1]
    return BatchGrads(ups[0, 0], ups[0, 1], ups[0, 2:2 + k], neg_query_embs, loss=float(losses[0]))


def cl_loss_grad(batch: ContrastiveBatch, cfg: LossConfig) -> BatchGrads:
    """cl_loss and its analytic gradients w.r.t. query, positive and negatives."""
    return _one_example(batch, None, cfg)


def clp_loss_grad(batch: ContrastiveBatch, cfg: LossConfig) -> BatchGrads:
    """clp_loss and its analytic gradients; negatives receive contributions
    from both the contrastive term and the penalty term. At lam == 0 they are
    cl_loss_grad's bit for bit, and every negative-query gradient is zero."""
    if batch.neg_query_embs is None or any(len(qs) == 0 for qs in batch.neg_query_embs):
        raise ValueError("CLP requires negative-query embeddings")
    return _one_example(batch, [len(qs) for qs in batch.neg_query_embs], cfg)
