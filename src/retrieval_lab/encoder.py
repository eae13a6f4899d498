"""Toy deterministic text encoder with an explicit intermediate up-projection.

The encoder embeds hashed tokens, pushes each token through a
relu(x W_up + b_up) W_down + b_down feed-forward block with a residual
connection, mean-pools over tokens and L2-normalizes the result. The
up-projection ("intermediate layer") can be swapped for a top-1 routed
mixture of experts; backprop is hand-derived for both variants.

Tokens never interact, so a token's output row depends on its id alone. A
batch of texts goes through one table over its distinct ids (MoE: one gate
matmul, then one up-projection matmul per expert), and backprop runs once
over that table, adding into a caller-supplied gradient dict. An
``encode_texts`` call, a whole corpus included, is one such batch, so the
table has at most ``vocab_size`` rows. Text splits on whitespace when that
gives the word-character runs, else by regex. Every word -> id lookup goes
through one memo per vocabulary size, kept for the whole process, so a word
is hashed once however many calls tokenize it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum
from functools import cache
from pathlib import Path

import numpy as np

from .numerics import (NORM_FLOOR, _atomic_open, _reading, as_matrix, as_vector, make_rng,
                       seeded_init)

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

CHECKPOINT_FORMAT = "retrieval-lab-checkpoint-v1"


class FreezeMode(str, Enum):
    """Which parameter subset stays trainable during fine-tuning."""

    FULL = "full"                           # every tensor trainable
    INTERMEDIATE_ONLY = "intermediate_only"  # only w_up / b_up (or expert copies)
    MOE_ONLY = "moe_only"                    # only expert tensors and the gate


@dataclass(frozen=True)
class MoEConfig:
    num_experts: int = 2
    experts_per_token: int = 1

    def __post_init__(self):
        if self.num_experts < 1:
            raise ValueError("num_experts must be positive")
        if self.experts_per_token < 1 or self.experts_per_token > self.num_experts:
            raise ValueError("experts_per_token must be in [1, num_experts]")
        if self.experts_per_token != 1:
            raise ValueError("only experts_per_token == 1 is supported")


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = 4096
    d_model: int = 64
    d_intermediate: int = 256
    moe: MoEConfig | None = None

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.d_model < 1:
            raise ValueError("d_model must be positive")
        if self.d_intermediate < self.d_model:
            raise ValueError("d_intermediate must be >= d_model")

    def to_dict(self) -> dict:
        moe = None
        if self.moe is not None:
            moe = {"num_experts": self.moe.num_experts,
                   "experts_per_token": self.moe.experts_per_token}
        return {"vocab_size": self.vocab_size, "d_model": self.d_model,
                "d_intermediate": self.d_intermediate, "moe": moe}

    @staticmethod
    def from_dict(d: dict) -> "EncoderConfig":
        moe = d.get("moe")
        return EncoderConfig(
            vocab_size=d["vocab_size"],
            d_model=d["d_model"],
            d_intermediate=d["d_intermediate"],
            moe=None if moe is None else MoEConfig(**moe),
        )


@dataclass
class EncoderParams:
    """All encoder weights.

    With MoE enabled, ``w_up``/``b_up`` hold one copy per expert and ``gate``
    is the (d_model x num_experts) routing matrix; otherwise they are single
    tensors and ``gate`` is None.
    """

    embedding: np.ndarray                 # (vocab_size, d_model)
    w_up: np.ndarray | list[np.ndarray]   # (d_model, d_intermediate), per expert when MoE
    b_up: np.ndarray | list[np.ndarray]   # (d_intermediate,), per expert when MoE
    w_down: np.ndarray                    # (d_intermediate, d_model)
    b_down: np.ndarray                    # (d_model,)
    gate: np.ndarray | None = None        # (d_model, num_experts) iff MoE

    @property
    def is_moe(self) -> bool:
        return self.gate is not None

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Canonical name -> tensor mapping (stable order)."""
        out: dict[str, np.ndarray] = {"embedding": self.embedding}
        if self.is_moe:
            for e, (w, b) in enumerate(zip(self.w_up, self.b_up)):
                out[f"w_up.{e}"] = w
                out[f"b_up.{e}"] = b
        else:
            out["w_up"] = self.w_up
            out["b_up"] = self.b_up
        out["w_down"] = self.w_down
        out["b_down"] = self.b_down
        if self.is_moe:
            out["gate"] = self.gate
        return out

    def copy(self) -> "EncoderParams":
        if self.is_moe:
            w_up = [w.copy() for w in self.w_up]
            b_up = [b.copy() for b in self.b_up]
        else:
            w_up = self.w_up.copy()
            b_up = self.b_up.copy()
        return EncoderParams(
            embedding=self.embedding.copy(),
            w_up=w_up,
            b_up=b_up,
            w_down=self.w_down.copy(),
            b_down=self.b_down.copy(),
            gate=None if self.gate is None else self.gate.copy(),
        )

    def check_shapes(self, config: EncoderConfig) -> None:
        v, d, di = config.vocab_size, config.d_model, config.d_intermediate
        as_matrix(self.embedding, "embedding")
        if self.embedding.shape != (v, d):
            raise ValueError(f"embedding shape {self.embedding.shape} != {(v, d)}")
        ups = self.w_up if self.is_moe else [self.w_up]
        bs = self.b_up if self.is_moe else [self.b_up]
        if config.moe is not None:
            if not self.is_moe or len(ups) != config.moe.num_experts:
                raise ValueError("params do not match MoE config")
        elif self.is_moe:
            raise ValueError("params carry a gate but config has no MoE")
        for w, b in zip(ups, bs):
            if w.shape != (d, di) or b.shape != (di,):
                raise ValueError("intermediate layer shape mismatch")
        if self.w_down.shape != (di, d) or self.b_down.shape != (d,):
            raise ValueError("down projection shape mismatch")
        if self.gate is not None and self.gate.shape != (d, config.moe.num_experts):
            raise ValueError("gate shape mismatch")


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Seeded uniform init; biases start at zero.

    Draw order is fixed (embedding, expert up-projections, down projection,
    gate) so a seed fully determines every tensor.
    """
    rng = make_rng(seed)
    d, di = config.d_model, config.d_intermediate
    embedding = seeded_init(rng, config.vocab_size, d, 0.1)
    up_scale = 1.0 / np.sqrt(d)
    down_scale = 1.0 / np.sqrt(di)
    if config.moe is not None:
        w_up = [seeded_init(rng, d, di, up_scale) for _ in range(config.moe.num_experts)]
        b_up = [np.zeros(di) for _ in range(config.moe.num_experts)]
    else:
        w_up = seeded_init(rng, d, di, up_scale)
        b_up = np.zeros(di)
    w_down = seeded_init(rng, di, d, down_scale)
    b_down = np.zeros(d)
    gate = seeded_init(rng, d, config.moe.num_experts, up_scale) if config.moe else None
    return EncoderParams(embedding, w_up, b_up, w_down, b_down, gate)


def zero_grads(params: EncoderParams) -> dict[str, np.ndarray]:
    """Zero-filled gradient dict shaped like ``params.named_tensors()``."""
    return {name: np.zeros_like(t) for name, t in params.named_tensors().items()}


def stable_token_id(token: str, vocab_size: int) -> int:
    """Map a token to a hash bucket via blake2b-64 (stable across runs/platforms)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % vocab_size


def tokenize(text: str, config: EncoderConfig) -> list[int]:
    """Lowercase, split into maximal runs of word characters (``_words``), hash to ids."""
    return list(map(_word_ids(config.vocab_size).__getitem__, _words(text)))


def _words(text: str) -> list[str]:
    """``_TOKEN_RE.findall(text.lower())``, by ``str.split()`` when that is exact.

    At every code point, ``re``'s word characters are those ``str.isalnum()``
    accepts plus ``_``, and none of the characters ``str.split()`` splits on
    is one. So when the split words hold only word characters, the text is
    word runs between whitespace, and the split gives the regex's words;
    otherwise the regex runs. ``TestWords`` checks both facts exhaustively.
    """
    lowered = text.lower()
    words = lowered.split()
    if "".join(words).replace("_", "a").isalnum():
        return words
    return _TOKEN_RE.findall(lowered)


def _route(x: np.ndarray, params: EncoderParams) -> tuple[np.ndarray, np.ndarray]:
    """Gate probabilities (n, experts) and top-1 expert (n,); ties go to the lowest index."""
    logits = x @ params.gate
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    p = z / z.sum(axis=1, keepdims=True)
    return p, np.argmax(p, axis=1)


def moe_intermediate_forward(
    x: np.ndarray, params: EncoderParams, config: EncoderConfig
) -> tuple[np.ndarray, int, float]:
    """Route one token vector through its top-1 expert.

    Returns (gated expert output, selected expert index, gate probability).
    Only the selected expert is evaluated; argmax ties go to the lowest index.
    """
    if config.moe is None or not params.is_moe:
        raise ValueError("MoE is not enabled for this encoder")
    x = as_vector(x, "x")
    if x.shape[0] != config.d_model:
        raise ValueError(f"x has dimension {x.shape[0]}, expected {config.d_model}")
    p, route = _route(x[None, :], params)
    e = int(route[0])
    r = np.maximum(x @ params.w_up[e] + params.b_up[e], 0.0)
    return p[0, e] * r, e, float(p[0, e])


class _WordIds(dict):
    """Word -> token id at one vocabulary size; a word not yet in it is hashed
    by ``stable_token_id``. It has no cap: it keeps one entry per distinct
    word the process has tokenized, words of texts the caller holds anyway."""

    def __init__(self, vocab_size: int):
        super().__init__()
        self.vocab_size = vocab_size

    def __missing__(self, word: str) -> int:
        self[word] = token = stable_token_id(word, self.vocab_size)
        return token


@cache
def _word_ids(vocab_size: int) -> _WordIds:
    """The process's one word -> id memo at ``vocab_size``."""
    return _WordIds(vocab_size)


def _table_rows(texts: list[str],
                config: EncoderConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of the texts' token table and how texts pool them: the sorted
    distinct token ids, each token's index into them, text after text (as
    ``np.unique``'s inverse), and each text's token count."""
    word_id = _word_ids(config.vocab_size).__getitem__
    lengths = np.empty(len(texts), dtype=np.intp)
    flat: list[int] = []
    for i, text in enumerate(texts):
        text_ids = list(map(word_id, _words(text)))
        if not text_ids:
            raise ValueError("empty input")
        flat += text_ids
        lengths[i] = len(text_ids)
    ids = np.array(flat, dtype=np.intp)
    present = np.zeros(config.vocab_size, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[ids], lengths


def _forward(params: EncoderParams, config: EncoderConfig,
             texts: list[str]) -> tuple[np.ndarray, dict]:
    """Unit-norm encodings (len(texts), d_model) plus the context ``_backward`` needs.

    Each distinct token id goes through the token network once, so the table
    has at most ``vocab_size`` rows; a text's pool is the mean of its rows of
    that table.
    """
    uniq, inv, lengths = _table_rows(texts, config)
    x = params.embedding[uniq]  # (m, d_model), one row per distinct id
    ctx = {"uniq": uniq, "inv": inv, "lengths": lengths, "x": x}
    if params.is_moe:
        p, route = _route(x, params)
        pe = p[np.arange(len(uniq)), route]  # gate probability of each row's expert
        groups = [(e, np.flatnonzero(route == e)) for e in np.unique(route)]
        h = np.empty((len(uniq), config.d_intermediate))  # pre-activation, then gated
        for e, rows in groups:
            h[rows] = x[rows] @ params.w_up[e] + params.b_up[e]
        np.maximum(h, 0.0, out=h)
        h *= pe[:, None]
        ctx.update(p=p, route=route, pe=pe, groups=groups)
    else:
        h = x @ params.w_up  # (m, d_intermediate)
        h += params.b_up
        np.maximum(h, 0.0, out=h)
    table = h @ params.w_down
    table += params.b_down
    table += x
    pool = _mean_rows(table, inv, lengths)
    # (n, 1, d) @ (n, d, 1): matmul takes each row's vector-vector product with
    # the dot that ``row @ row`` (and so l2_normalize) uses, in one call
    norms = np.sqrt(np.matmul(pool[:, None, :], pool[:, :, None])[:, 0, 0])
    if not np.all(norms >= NORM_FLOOR):
        raise ValueError(f"cannot normalize: pool norm {norms.min()} below floor {NORM_FLOOR}")
    pool /= norms[:, None]
    ctx.update(h=h, norms=norms, out=pool)
    return pool, ctx


def _mean_rows(table: np.ndarray, inv: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per text, the mean of its rows of ``table`` (``inv``: the texts' rows end
    to end). Bit for bit ``.mean(axis=0)`` for d_model >= 2: each sum starts
    from +0.0 and adds the text's rows in order. Texts are pooled longest
    first, so at each position only the texts still running (a prefix) add a
    row, and the work grows with the total token count."""
    order = np.argsort(-lengths, kind="stable")
    starts, longest_first = (np.cumsum(lengths) - lengths)[order], lengths[order]
    # running[p]: how many texts are longer than p, i.e. still running at position p
    running = np.searchsorted(-longest_first, -np.arange(lengths.max(initial=0)))
    pool = np.zeros((len(lengths), table.shape[1]))
    for position, k in enumerate(running):
        pool[:k] += table[inv[starts[:k] + position]]
    pool /= longest_first[:, None]
    out = np.empty_like(pool)
    out[order] = pool
    return out


def _backward(params: EncoderParams, ctx: dict, upstreams: np.ndarray,
              grads: dict[str, np.ndarray]) -> None:
    """Add d(sum_j upstreams[j] . out[j])/dparams into ``grads``, one pass over the table.

    A tensor missing from ``grads`` is frozen: its gradient is neither
    computed nor added as a key, and without ``embedding`` the whole
    input-gradient chain is skipped.
    """
    out, lengths, inv, x, h = (ctx[k] for k in ("out", "lengths", "inv", "x", "h"))

    def add(name, grad):  # grad is a thunk, so a frozen tensor's gradient never runs
        if name in grads:
            grads[name] += grad()

    # out = pool / |pool|; d(upstream . out)/dpool = (upstream - out (out . upstream)) / |pool|
    dpool = (upstreams - out * np.sum(out * upstreams, axis=1)[:, None]) / ctx["norms"][:, None]
    n, m = len(lengths), len(ctx["uniq"])
    counts = np.bincount(np.repeat(np.arange(n) * m, lengths) + inv, minlength=n * m)
    dtable = counts.reshape(n, m).T.astype(np.float64) @ (dpool / lengths[:, None])
    add("b_down", lambda: dtable.sum(axis=0))
    add("w_down", lambda: h.T @ dtable)
    dh = dtable @ params.w_down.T  # (m, d_intermediate)
    want_dx = "embedding" in grads
    if params.is_moe:
        p, route, pe = (ctx[k] for k in ("p", "route", "pe"))
        du = (h > 0) * (pe[:, None] * dh)  # h > 0 exactly where relu is (pe > 0)
        if want_dx or "gate" in grads:
            # softmax jacobian row e: dp_e/dlogit_j = p_e (1[e==j] - p_j); h = p_e relu(u)
            onehot = route[:, None] == np.arange(p.shape[1])
            dlogits = np.sum(h * dh, axis=1)[:, None] * (onehot - p)
            add("gate", lambda: x.T @ dlogits)
        dx = dtable + dlogits @ params.gate.T if want_dx else None
        for e, rows in ctx["groups"]:
            add(f"b_up.{e}", lambda: du[rows].sum(axis=0))
            add(f"w_up.{e}", lambda: x[rows].T @ du[rows])
            if want_dx:
                dx[rows] += du[rows] @ params.w_up[e].T
    else:
        du = (h > 0) * dh
        add("b_up", lambda: du.sum(axis=0))
        add("w_up", lambda: x.T @ du)
        dx = dtable + du @ params.w_up.T if want_dx else None  # residual path plus the block
    if want_dx:
        grads["embedding"][ctx["uniq"]] += dx  # ids are unique: no repeated-index scatter


def encode_texts(params: EncoderParams, config: EncoderConfig, texts: list[str]) -> np.ndarray:
    """Encode texts to unit-norm rows (len(texts), d_model) in one ``_forward``: one
    token table over all their distinct ids, at most ``vocab_size`` rows."""
    return _forward(params, config, texts)[0]


def encode(params: EncoderParams, config: EncoderConfig, text: str) -> np.ndarray:
    """Encode text to a unit-norm vector of dimension d_model."""
    return encode_texts(params, config, [text])[0]


def encode_with_grad(
    params: EncoderParams, config: EncoderConfig, text: str, upstream,
    grads: dict[str, np.ndarray] | None = None,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Forward pass plus gradients of upstream . encode(text) w.r.t. every tensor.

    Returns (encoded vector, gradient dict keyed like ``named_tensors``). The
    gradients are added into ``grads`` when given (and that dict returned),
    else into a fresh zero dict. Experts no token routed to get no gradient.
    """
    upstream = as_vector(upstream, "upstream")
    if upstream.shape[0] != config.d_model:
        raise ValueError(f"upstream has dimension {upstream.shape[0]}, expected {config.d_model}")
    if grads is None:
        grads = zero_grads(params)
    out, ctx = _forward(params, config, [text])
    _backward(params, ctx, upstream[None, :], grads)
    return out[0], grads


def save_checkpoint(params: EncoderParams, config: EncoderConfig, path: str | Path) -> None:
    """Write config plus all tensors to one JSON document (``indent=2``, sorted keys).

    Tensor payloads are base64 of raw little-endian float64 bytes, so
    load(save(p)) round-trips bit-exactly and the file bytes are
    deterministic for identical params. Base64 never needs JSON escaping, so
    the document is dumped with empty ``data`` strings and each payload is
    written between the pieces, in sorted tensor-name order, never joined
    into one string with them.
    """
    params.check_shapes(config)
    named = params.named_tensors()
    tensors = {name: {"shape": list(t.shape), "dtype": "<f8", "data": ""}
               for name, t in named.items()}
    doc = {"format": CHECKPOINT_FORMAT, "config": config.to_dict(), "tensors": tensors}
    pieces = json.dumps(doc, sort_keys=True, indent=2).split('"data": ""')
    if len(pieces) != len(named) + 1:
        raise ValueError(f"{len(pieces) - 1} data fields for {len(named)} tensors")
    with _atomic_open(path) as fh:
        fh.write(pieces[0])
        for name, piece in zip(sorted(named), pieces[1:]):
            raw = np.ascontiguousarray(named[name], dtype="<f8").tobytes()
            fh.write('"data": "')
            fh.write(base64.b64encode(raw).decode("ascii"))
            fh.write('"' + piece)
        fh.write("\n")


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, EncoderConfig]:
    with _reading(path) as doc:
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
        config = EncoderConfig.from_dict(doc["config"])

        def tensor(name: str) -> np.ndarray:
            entry = doc["tensors"].get(name)
            if entry is None:
                raise ValueError(f"{path}: tensor {name!r} is missing")
            raw, shape = base64.b64decode(entry["data"]), entry["shape"]
            if len(raw) != 8 * int(np.prod(shape)):
                raise ValueError(f"{path}: tensor {name!r} has {len(raw)} bytes for shape {shape}")
            t = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.all(np.isfinite(t)):
                raise ValueError(f"{path}: tensor {name!r} holds non-finite values")
            return t

        if config.moe is not None:
            w_up = [tensor(f"w_up.{e}") for e in range(config.moe.num_experts)]
            b_up = [tensor(f"b_up.{e}") for e in range(config.moe.num_experts)]
            gate = tensor("gate")
        else:
            w_up = tensor("w_up")
            b_up = tensor("b_up")
            gate = None
        params = EncoderParams(tensor("embedding"), w_up, b_up,
                               tensor("w_down"), tensor("b_down"), gate)
        params.check_shapes(config)
        return params, config
