"""Spans and counters around the retrieval_lab layers, kept in memory.

The package itself carries no instrumentation. ``Tracer.install`` replaces
each public function under the name its calling module looks it up by
(``training.encode``, ``mining.search_top_k``, ...) with a wrapper that
records a span, and ``Tracer.uninstall`` puts the originals back. Spans are
``[name, start, end, parent index]``; nothing is written until the run ends.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from time import perf_counter

from retrieval_lab import cli, data, encoder, evaluation, losses, mining, training


def _forward_text(tracer, args, kwargs, result):
    tracer.texts.append((args[1], args[2], "forward"))


def _backward_text(tracer, args, kwargs, result):
    tracer.texts.append((args[1], args[2], "backward"))


def _checkpoint_bytes(tracer, args, kwargs, result):
    tracer.counts["checkpoint_bytes"] += os.path.getsize(args[2])


def _penalty_texts(tracer, args, kwargs, result):
    batch, cfg = args[0], args[1]
    if cfg.lam != 0.0:
        tracer.counts["penalty_texts"] += sum(len(qs) for qs in batch.neg_query_embs)


def _index_docs(tracer, args, kwargs, result):
    tracer.counts["index_docs"] += len(args[0])


def _negatives(tracer, args, kwargs, result):
    k = args[5] if len(args) > 5 else kwargs.get("k", mining.DEFAULT_NEGATIVES)
    tracer.counts["negatives_requested"] += k
    tracer.counts["negatives_returned"] += len(result)


def _training_examples(tracer, args, kwargs, result):
    tracer.counts["training_examples"] += len(args[2]) * args[3].epochs


def _eval_queries(tracer, args, kwargs, result):
    tracer.counts["eval_queries"] += len(args[3])


# (owner, attribute, span name, counter hook or None). The owner is the
# module whose global the caller resolves, so internal calls that bypass the
# layer boundary (clp_loss -> cl_loss) are not counted twice. Hooks see the
# call's arguments as the package passes them.
_WRAPPED = [
    (data, "synth_generate", "data.synth", None),
    (data, "load_corpus", "data.load", None),
    (data, "load_queries", "data.load", None),
    (data, "load_qrels", "data.load", None),
    (data, "load_neg_query_map", "data.load", None),
    (data, "load_train_set", "data.load", None),
    (data, "save_id_text", "data.save", None),
    (data, "save_qrels", "data.save", None),
    (data, "save_neg_query_map", "data.save", None),
    (data, "save_train_set", "data.save", None),
    (data.Qrels, "relevant_docs", "data.relevant_docs", None),
    (training, "encode", "encoder.forward", _forward_text),
    (mining, "encode", "encoder.forward", _forward_text),
    (evaluation, "encode", "encoder.forward", _forward_text),
    (training, "encode_with_grad", "encoder.backward", _backward_text),
    (training, "zero_grads", "encoder.zero_grads", None),
    (encoder, "zero_grads", "encoder.zero_grads", None),
    (cli, "save_checkpoint", "encoder.checkpoint_save", _checkpoint_bytes),
    (cli, "load_checkpoint", "encoder.checkpoint_load", None),
    (training, "cl_loss", "losses.loss", None),
    (training, "clp_loss", "losses.loss", None),
    (training, "cl_loss_grad", "losses.grad", None),
    (training, "clp_loss_grad", "losses.grad", _penalty_texts),
    (losses, "cosine_similarity", "numerics.cosine", None),
    (losses, "cosine_similarity_grad", "numerics.cosine", None),
    (mining, "build_index", "mining.index_build", _index_docs),
    (evaluation, "build_index", "mining.index_build", _index_docs),
    (mining, "search_top_k", "mining.search", None),
    (evaluation, "search_top_k", "mining.search", None),
    (mining, "mine_ance_negatives", "mining.mine", _negatives),
    (training, "train", "training.train", _training_examples),
    (training, "adam_step", "training.adam", None),
    (evaluation, "build_run", "evaluation.build_run", _eval_queries),
    (evaluation, "score_run", "evaluation.score", None),
]


class Tracer:
    """Collects spans, counters and encoded texts for one unit of work at a time.

    The benchmark always opens spans around its own calls into the CLI;
    ``install`` adds the spans inside the package for a traced run.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.texts: list[tuple] = []
        self._originals: list[tuple] = []

    def begin(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self.stack.pop()][2] = perf_counter()

    def take(self) -> "Unit":
        """Hand over everything recorded since the last call and start afresh."""
        if self.stack:
            raise RuntimeError(f"open spans: {[self.spans[i][0] for i in self.stack]}")
        unit = Unit(list(self.spans), Counter(self.counts), list(self.texts))
        self.spans.clear()
        self.counts.clear()
        self.texts.clear()
        return unit

    def _wrap(self, original, name: str, hook):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            span = spans[index]
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in _WRAPPED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


class Unit:
    """Spans and counts of one set-up or one pass of mine -> train -> eval."""

    def __init__(self, spans: list[list], counts: Counter, texts: list[tuple]):
        self.spans = spans
        self.counts = counts
        self.texts = texts

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Per span name: total seconds, calls, self seconds; plus the direct
        children of ``training.train`` by name (seconds)."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        own: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        train_children: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            own[name] += end - start - child_time[i]
            if parent >= 0 and self.spans[parent][0] == "training.train":
                train_children[name] += end - start
        return total, calls, own, train_children
