"""Fine-tuning loop: encode, loss gradients, backprop, Adam, freeze masks.

Examples are taken ``grad_accum_steps`` at a time. Parameters do not change
inside such a group, so every text of the group goes through one encoder
forward, each example's loss gradients are taken with respect to its
texts' embeddings, and one encoder backward adds the whole group's
gradients. They are averaged over the group before the optimizer step, so
the learning-rate scale does not change with the accumulation count. A
partial group left over at the end of an epoch still steps, averaged over
its actual size.

Freezing is done by skipping: the group's gradient dict holds only the
tensors the freeze mode leaves trainable, so the backward never computes a
frozen tensor's gradient and Adam never touches it. Within a trainable
tensor Adam updates only the rows that have ever had a nonzero gradient
(for the embedding, the ids the training texts use); every other row would
move by exactly zero, so the result equals dense Adam bit for bit.

Groups tokenize through the encoder's word -> id memo, one per vocabulary
size for the whole process, so a word is hashed once however many groups
and re-mines use it. The gradient dict is allocated once per run. A group
writes only its distinct token ids' rows of the embedding gradient, so the
averaging, Adam's search for newly touched rows and the zeroing after the
step cover those rows, and every other trainable tensor in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .data import TrainingExample
from .encoder import (
    EncoderConfig,
    EncoderParams,
    FreezeMode,
    _backward,
    _forward,
    encode,  # unused here; perfbench/tracer.py wraps training.encode
    encode_with_grad,  # unused here; perfbench/tracer.py wraps training.encode_with_grad
    zero_grads,
)
from .losses import ContrastiveBatch, LossConfig, cl_loss_grad, clp_loss_grad
from .losses import cl_loss, clp_loss  # unused here; perfbench/tracer.py wraps both
from .numerics import make_rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    epochs: int = 1
    grad_accum_steps: int = 4
    loss: str = "cl"  # "cl" or "clp"
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    freeze: FreezeMode = FreezeMode.FULL
    seed: int = 0
    # The negatives' own queries are re-encoded through the live model and
    # receive gradients by default; set True to treat them as constants.
    stop_grad_neg_queries: bool = False

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:  # NaN fails both comparisons
            raise ValueError("learning_rate must be a finite number > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.grad_accum_steps < 1:
            raise ValueError("grad_accum_steps must be >= 1")
        if self.loss not in ("cl", "clp"):
            raise ValueError(f"loss must be 'cl' or 'clp', got {self.loss!r}")


@dataclass
class OptimizerState:
    """Adam first/second moment accumulators, the step counter and, per tensor,
    the rows that have ever had a nonzero gradient (the only rows Adam moves)."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    touched: dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def init(params: EncoderParams) -> "OptimizerState":
        return OptimizerState(m=zero_grads(params), v=zero_grads(params))


@dataclass
class TrainResult:
    params: EncoderParams
    loss_trace: list[float]


def adam_step(params: EncoderParams, grads: dict[str, np.ndarray],
              state: OptimizerState, lr: float,
              written: dict[str, np.ndarray] | None = None) -> tuple[EncoderParams, OptimizerState]:
    """One bias-corrected Adam update, applied in place to the tensors in ``grads``.

    A row whose gradient, ``m`` and ``v`` have always been zero would move
    by exactly ``lr * 0 / (0 + eps) = +0``, so only rows that have ever had
    a nonzero gradient are updated; the result equals the dense update bit
    for bit. Tensors missing from ``grads`` are frozen and skipped.
    ``written`` may name, per tensor, the only rows that can be nonzero.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    tensors = params.named_tensors()
    for name, g in grads.items():
        touched = state.touched.setdefault(name, np.zeros(len(g), dtype=bool))
        hint = (written or {}).get(name, slice(None))
        part = g[hint]
        touched[hint] |= np.any(part.reshape(len(part), -1) != 0, axis=1)
        rows = slice(None) if touched.all() else np.flatnonzero(touched)
        g, m, v = g[rows], state.m[name][rows], state.v[name][rows]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        state.m[name][rows], state.v[name][rows] = m, v
        tensors[name][rows] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def _trainable(tensors: dict[str, np.ndarray], mode: FreezeMode) -> list[str]:
    """Names of the tensors ``mode`` leaves trainable; every other tensor is frozen."""
    if mode == FreezeMode.MOE_ONLY and "gate" not in tensors:
        raise ValueError("freeze mode moe_only requires MoE parameters")
    if mode == FreezeMode.FULL:
        return list(tensors)
    kept = ("w_up", "b_up") if mode == FreezeMode.INTERMEDIATE_ONLY else ("w_up", "b_up", "gate")
    return [name for name in tensors if name.startswith(kept)]


def apply_freeze(grads: dict[str, np.ndarray], mode: FreezeMode) -> dict[str, np.ndarray]:
    """Zero the gradients of every tensor outside the trainable set."""
    if mode == FreezeMode.FULL:
        return grads
    kept = _trainable(grads, mode)
    return {name: (g if name in kept else np.zeros_like(g)) for name, g in grads.items()}


def _example_loss(example: TrainingExample, vecs: np.ndarray, cfg: TrainConfig,
                  use_penalty: bool) -> tuple[float, np.ndarray]:
    """Loss of one example and its gradients w.r.t. ``vecs``, the encodings of
    its query, positive, negatives and (with the penalty) the negatives' queries."""
    k = len(example.neg)
    neg_query_rows = vecs[2 + k:]
    neg_query_embs = None
    if use_penalty:
        # one block per negative; the piece after the last end is empty
        ends = np.cumsum([len(qs) for qs in example.neg_queries])
        neg_query_embs = np.split(neg_query_rows, ends)[:-1]
    batch = ContrastiveBatch(vecs[0], vecs[1], vecs[2:2 + k], neg_query_embs)
    # CLP at lam == 0 is CL bit for bit, so the penalty-free call serves it.
    bgrads = (clp_loss_grad if use_penalty else cl_loss_grad)(batch, cfg.loss_cfg)
    upstreams = [bgrads.query_emb, bgrads.pos_emb, bgrads.neg_embs]
    if use_penalty:
        upstreams += ([np.zeros_like(neg_query_rows)] if cfg.stop_grad_neg_queries
                      else bgrads.neg_query_embs)
    return bgrads.loss, np.vstack(upstreams)


def _group_grads(params: EncoderParams, config: EncoderConfig,
                 group: list[TrainingExample], cfg: TrainConfig, grads: dict[str, np.ndarray],
                 first_step: int) -> tuple[list[float], np.ndarray]:
    """Losses of one accumulation group, and the embedding rows the backward
    wrote (the group's distinct token ids); adds the group's gradients into
    ``grads``."""
    use_penalty = cfg.loss == "clp" and cfg.loss_cfg.lam != 0.0
    layout = [[ex.query, ex.pos[0], *ex.neg,
               *(q for qs in (ex.neg_queries if use_penalty else []) for q in qs)]
              for ex in group]
    vecs, ctx = _forward(params, config, [text for texts in layout for text in texts])
    losses, upstreams, row = [], [], 0
    for step, (example, texts) in enumerate(zip(group, layout), start=first_step):
        loss, ups = _example_loss(example, vecs[row:row + len(texts)], cfg, use_penalty)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at example step {step}")
        losses.append(loss)
        upstreams.append(ups)
        row += len(texts)
    _backward(params, ctx, np.vstack(upstreams), grads)
    return losses, ctx["uniq"]


def train(params: EncoderParams, config: EncoderConfig,
          dataset: list[TrainingExample], cfg: TrainConfig,
          refresh_fn: Callable[[EncoderParams], list[TrainingExample]] | None = None,
          ) -> TrainResult:
    """Run the fine-tuning loop and return trained params plus the loss trace.

    Examples are visited in seeded-shuffled order each epoch. ``refresh_fn``,
    when given, re-builds the dataset from the current parameters at the
    start of every epoch (explicit re-mining); optimizer state persists
    across the refresh.
    """
    if not dataset and refresh_fn is None:
        raise ValueError("dataset must be nonempty")
    if cfg.loss == "clp":
        _require_neg_queries(dataset)

    params = params.copy()
    params.check_shapes(config)
    tensors = params.named_tensors()
    accum = {name: np.zeros_like(tensors[name]) for name in _trainable(tensors, cfg.freeze)}
    state = OptimizerState.init(params)
    rng = make_rng(cfg.seed)
    trace: list[float] = []

    for _ in range(cfg.epochs):
        if refresh_fn is not None:
            dataset = refresh_fn(params)
            if not dataset:
                raise ValueError("refresh_fn returned an empty dataset")
            if cfg.loss == "clp":
                _require_neg_queries(dataset)
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), cfg.grad_accum_steps):
            group = [dataset[int(idx)] for idx in order[start:start + cfg.grad_accum_steps]]
            losses, uniq = _group_grads(params, config, group, cfg, accum, len(trace))
            trace += losses
            _optimizer_step(params, accum, uniq, len(group), state, cfg)
    return TrainResult(params=params, loss_trace=trace)


def _optimizer_step(params: EncoderParams, accum: dict[str, np.ndarray], uniq: np.ndarray,
                    count: int, state: OptimizerState, cfg: TrainConfig) -> None:
    """Adam on the group's mean gradient, then zero what the group wrote into
    ``accum``: the embedding's ``uniq`` rows (every other row is +0.0 already)
    and every other tensor in full."""
    written = {"embedding": uniq}
    for name, g in accum.items():
        g[written.get(name, slice(None))] /= count
    adam_step(params, accum, state, cfg.learning_rate, written)
    for name, g in accum.items():
        g[written.get(name, slice(None))] = 0.0


def _require_neg_queries(dataset: list[TrainingExample]) -> None:
    for i, ex in enumerate(dataset):
        if ex.neg and ex.neg_queries is None:
            raise ValueError(
                f"loss 'clp' needs neg_queries on every example; missing at index {i}")
