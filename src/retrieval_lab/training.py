"""Fine-tuning loop: encode, loss gradients, backprop, Adam, freeze masks.

Examples are taken ``grad_accum_steps`` at a time. Parameters do not change
inside such a group, so every text of the group goes through one encoder
forward, each run of examples with equal shapes (negatives and own queries
per negative) goes through one loss call on its stacked embeddings, and one
encoder backward adds the whole group's gradients. They are averaged over
the group before the optimizer step, so the learning-rate scale does not
change with the accumulation count. A partial group left over at the end of
an epoch still steps, averaged over its actual size.

Freezing is done by skipping: the gradient dict and Adam's moments exist
only for the tensors the freeze mode leaves trainable, so the backward
never computes a frozen tensor's gradient and Adam never touches it. Within
a trainable tensor Adam updates only the rows a group wrote (for the
embedding, the ids the training texts use); every other row would move by
exactly zero, so the result equals dense Adam bit for bit.

``steps`` trains the params in place and yields after each optimizer step;
``train`` runs it to the end on a copy. The examples are a list, or a
function of the live params called at each epoch's start (re-mining).
A run tokenizes each distinct training text once: its groups share one
text -> token ids memo, made when the run starts and dropped with it, so it
serves every epoch and re-mined set of the run but no later call. Words go
through the encoder's process-wide word -> id memo, so a word is hashed once
however many runs, groups and re-mines use it. The gradient
dict and the moments are made once per run by ``np.zeros``, so a row no
group writes is never filled in memory. A group writes only its distinct
token ids' rows of the embedding gradient, so the averaging, the row marking
and the zeroing after the step cover those rows, and every other trainable
tensor in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Iterator

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
    zero_grads,  # unused here; perfbench/tracer.py wraps training.zero_grads
)
from .losses import LossConfig, _group_loss_grad
from .losses import cl_loss, clp_loss  # unused here; perfbench/tracer.py wraps both
from .losses import cl_loss_grad, clp_loss_grad  # unused here; perfbench/tracer.py wraps both
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
    the rows a group wrote (the only rows Adam moves)."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    touched: dict[str, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def init(tensors: dict[str, np.ndarray]) -> "OptimizerState":
        return OptimizerState(m={name: np.zeros(t.shape) for name, t in tensors.items()},
                              v={name: np.zeros(t.shape) for name, t in tensors.items()})


@dataclass
class TrainResult:
    params: EncoderParams
    loss_trace: list[float]


def adam_step(params: EncoderParams, grads: dict[str, np.ndarray],
              state: OptimizerState, lr: float,
              written: dict[str, np.ndarray] | None = None) -> tuple[EncoderParams, OptimizerState]:
    """One bias-corrected Adam update, applied in place to the tensors in ``grads``.

    ``written`` may name, per tensor, the only rows of ``grads`` that are not
    +0.0 (default: every row). A row whose gradient, ``m`` and ``v`` have
    always been +0.0 moves by exactly ``lr * 0 / (0 + eps) = +0``, so only
    rows ever written are updated; the result equals the dense update bit
    for bit. Tensors missing from ``grads`` are frozen and skipped.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    tensors = params.named_tensors()
    for name, g in grads.items():
        touched = state.touched.setdefault(name, np.zeros(len(g), dtype=bool))
        touched[(written or {}).get(name, slice(None))] = True
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


def _group_grads(params: EncoderParams, config: EncoderConfig,
                 group: list[TrainingExample], cfg: TrainConfig, grads: dict[str, np.ndarray],
                 first_step: int, tokens: dict[str, list[int]] | None = None
                 ) -> tuple[list[float], np.ndarray]:
    """Losses of one accumulation group, and the embedding rows the backward
    wrote (the group's distinct token ids); adds the group's gradients into
    ``grads``. ``tokens`` is the run's text -> token ids memo."""
    use_penalty = cfg.loss == "clp" and cfg.loss_cfg.lam != 0.0
    texts, shapes = [], []
    for ex in group:
        # without negatives the penalty is 0, so such an example trains as CL
        counts = [len(qs) for qs in ex.neg_queries] if use_penalty and ex.neg else None
        own = [q for qs in ex.neg_queries for q in qs] if counts else []
        texts += [ex.query, ex.pos[0], *ex.neg, *own]
        shapes.append((len(ex.neg), counts))
    vecs, ctx = _forward(params, config, texts, tokens)
    upstreams, losses, row = np.empty_like(vecs), [], 0
    for (k, counts), run in groupby(shapes):  # one loss call per run of equal shapes
        n, width = len(list(run)), 2 + k + sum(counts or ())
        block = slice(row, row + n * width)
        run_losses, ups = _group_loss_grad(vecs[block].reshape(n, width, -1), k, counts,
                                           cfg.loss_cfg)
        if cfg.stop_grad_neg_queries:
            ups[:, 2 + k:] = 0.0
        upstreams[block] = ups.reshape(n * width, -1)
        losses += run_losses.tolist()
        row += n * width
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        raise RuntimeError(f"non-finite loss at example step {first_step + bad[0]}")
    _backward(params, ctx, upstreams, grads)
    return losses, ctx["uniq"]


def steps(params: EncoderParams, config: EncoderConfig,
          examples: list[TrainingExample] | Callable[[EncoderParams], list[TrainingExample]],
          cfg: TrainConfig) -> Iterator[tuple[int, list[float]]]:
    """Train ``params`` in place, yielding ``(epoch, losses)`` after each optimizer step.

    ``epoch`` counts from 0; ``losses`` are the group's, in visiting order
    (seeded-shuffled each epoch). The params read at a yield include that
    step, so after epoch ``e``'s last step they equal an ``epochs=e + 1`` run.
    ``examples`` is the training set, or a function that re-builds it from the
    live params at each epoch's start (re-mining); optimizer state persists
    across epochs. Nothing runs before the first ``next()``, and each epoch's
    set is checked before its first group.
    """
    params.check_shapes(config)
    tensors = params.named_tensors()
    accum = {name: np.zeros(tensors[name].shape) for name in _trainable(tensors, cfg.freeze)}
    state = OptimizerState.init(accum)
    rng = make_rng(cfg.seed)
    seen, tokens = 0, {}  # tokens: text -> token ids, kept for this run only
    for epoch in range(cfg.epochs):
        dataset = _checked(examples(params) if callable(examples) else examples, cfg)
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), cfg.grad_accum_steps):
            group = [dataset[int(idx)] for idx in order[start:start + cfg.grad_accum_steps]]
            losses, uniq = _group_grads(params, config, group, cfg, accum, seen, tokens)
            seen += len(group)
            written = {"embedding": uniq}
            for name, g in accum.items():
                g[written.get(name, slice(None))] /= len(group)
            adam_step(params, accum, state, cfg.learning_rate, written)
            for name, g in accum.items():
                g[written.get(name, slice(None))] = 0.0
            yield epoch, losses


def train(params: EncoderParams, config: EncoderConfig,
          examples: list[TrainingExample] | Callable[[EncoderParams], list[TrainingExample]],
          cfg: TrainConfig) -> TrainResult:
    """Run ``steps`` to the end on a copy of ``params``; return the copy and every loss."""
    params = params.copy()
    trace = [loss for _, losses in steps(params, config, examples, cfg) for loss in losses]
    return TrainResult(params=params, loss_trace=trace)


def _checked(dataset: list[TrainingExample], cfg: TrainConfig) -> list[TrainingExample]:
    """``dataset``, once it is nonempty and, for CLP, has every negative's queries."""
    if not dataset:
        raise ValueError("training examples must be nonempty")
    if cfg.loss == "clp":
        for i, ex in enumerate(dataset):
            if ex.neg and ex.neg_queries is None:
                raise ValueError(
                    f"loss 'clp' needs neg_queries on every example; missing at index {i}")
    return dataset
