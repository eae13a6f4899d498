"""Toy deterministic text encoder with an explicit intermediate up-projection.

The encoder embeds hashed tokens, pushes each token through a
relu(x W_up + b_up) W_down + b_down feed-forward block with a residual
connection, mean-pools over tokens and L2-normalizes the result. The
up-projection ("intermediate layer") is a top-1 routed mixture of experts;
the dense layer is its one-expert case with no gate, so one function
(``_intermediate``) runs both, and backprop is hand-derived once. Every
tensor's name and shape is declared once, by ``tensor_layout``.

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
from copy import deepcopy
from dataclasses import asdict, dataclass
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
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "EncoderConfig":
        moe = d.get("moe")
        return EncoderConfig(
            vocab_size=d["vocab_size"],
            d_model=d["d_model"],
            d_intermediate=d["d_intermediate"],
            moe=None if moe is None else MoEConfig(**moe),
        )


def tensor_layout(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Every tensor's name and shape, in canonical order: the embedding, each
    expert's up-projection and bias, the down projection and its bias, then
    the gate. The dense up-projection is the one expert of a layer with no
    gate, named ``w_up``/``b_up``; routed expert ``e`` is ``w_up.{e}``/``b_up.{e}``."""
    v, d, di = config.vocab_size, config.d_model, config.d_intermediate
    layout = {"embedding": (v, d)}
    for w_name, b_name in _expert_names(config):
        layout[w_name], layout[b_name] = (d, di), (di,)
    layout.update(w_down=(di, d), b_down=(d,))
    if config.moe is not None:
        layout["gate"] = (d, config.moe.num_experts)
    return layout


def _expert_names(config: EncoderConfig) -> list[tuple[str, str]]:
    """Each expert's (up-projection, bias) tensor names, in expert order."""
    suffixes = [""] if config.moe is None else [f".{e}" for e in range(config.moe.num_experts)]
    return [(f"w_up{s}", f"b_up{s}") for s in suffixes]


@dataclass
class EncoderParams:
    """All encoder weights, laid out by ``tensor_layout``.

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

    @classmethod
    def from_named(cls, config: EncoderConfig, tensor) -> "EncoderParams":
        """Params of ``config``'s layout whose tensors are ``tensor(name, shape)``,
        called in layout order; the tensor named ``w_up.{e}`` goes to ``w_up[e]``."""
        fields: dict = {}
        for name, shape in tensor_layout(config).items():
            field, _, index = name.partition(".")
            t = tensor(name, shape)
            fields[field] = fields.get(field, []) + [t] if index else t
        return cls(**fields)

    def _tensor(self, name: str) -> np.ndarray:
        """The tensor a layout name points at: ``w_up.1`` is ``w_up[1]``."""
        field, _, index = name.partition(".")
        return getattr(self, field)[int(index)] if index else getattr(self, field)

    def named_tensors(self) -> dict[str, np.ndarray]:
        """Canonical name -> tensor, in ``tensor_layout`` order, for the sizes
        these tensors have and one expert per ``w_up`` entry when there is a gate."""
        (v, d), di = self.embedding.shape, self.w_down.shape[0]
        config = EncoderConfig(v, d, di, MoEConfig(len(self.w_up)) if self.is_moe else None)
        return {name: self._tensor(name) for name in tensor_layout(config)}

    def copy(self) -> "EncoderParams":
        return deepcopy(self)

    def check_shapes(self, config: EncoderConfig) -> None:
        """Raise unless these are exactly ``config``'s tensors, shape for shape."""
        as_matrix(self.embedding, "embedding")
        shapes = {name: t.shape for name, t in self.named_tensors().items()}
        if shapes != (layout := tensor_layout(config)):
            raise ValueError(f"tensor shapes {shapes} do not match the config's layout {layout}")


def init_params(config: EncoderConfig, seed: int) -> EncoderParams:
    """Seeded uniform init; biases start at zero.

    Matrices are drawn in layout order, skipping the biases, so a seed fully
    determines every tensor. The embedding draws from [-0.1, 0.1], a matrix of
    n rows from [-1/sqrt(n), 1/sqrt(n)].
    """
    rng = make_rng(seed)

    def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 1:
            return np.zeros(shape)
        return seeded_init(rng, *shape, 0.1 if name == "embedding" else 1.0 / np.sqrt(shape[0]))

    return EncoderParams.from_named(config, draw)


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


def _intermediate(params: EncoderParams, config: EncoderConfig, x: np.ndarray) -> dict:
    """The intermediate layer on the rows of ``x``: ``h``, each row's relu(x W_up
    + b_up) through its top-1 expert times that expert's gate probability, plus
    what ``_backward`` needs. One matmul per expert a row routed to; when one
    expert holds every row, its product is ``h`` itself. The dense up-projection
    is that one expert with no gate (``p``, ``route``, ``pe`` None), so unscaled.
    """
    names = _expert_names(config)
    p = route = pe = None
    experts = [0]
    if params.is_moe:  # softmax gate, top-1 expert; argmax ties go to the lowest index
        logits = x @ params.gate
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        route = np.argmax(p, axis=1)
        pe = p[np.arange(len(x)), route]  # gate probability of each row's expert
        experts = np.unique(route)
    groups = [(slice(None) if len(experts) == 1 else np.flatnonzero(route == e), *names[e])
              for e in experts]
    h = None if len(groups) == 1 else np.empty((len(x), config.d_intermediate))
    for rows, w_name, b_name in groups:
        u = x[rows] @ params._tensor(w_name)  # pre-activation
        u += params._tensor(b_name)
        if h is None:
            h = u
        else:
            h[rows] = u
    np.maximum(h, 0.0, out=h)
    if pe is not None:
        h *= pe[:, None]
    return {"h": h, "p": p, "route": route, "pe": pe, "groups": groups}


def moe_intermediate_forward(x: np.ndarray, params: EncoderParams,
                             config: EncoderConfig) -> tuple[np.ndarray, int, float]:
    """Route one token vector through its top-1 expert: a one-row ``_intermediate``.

    Returns (gated expert output, selected expert index, gate probability).
    Only the selected expert is evaluated; argmax ties go to the lowest index.
    """
    if config.moe is None or not params.is_moe:
        raise ValueError("MoE is not enabled for this encoder")
    x = as_vector(x, "x")
    if x.shape[0] != config.d_model:
        raise ValueError(f"x has dimension {x.shape[0]}, expected {config.d_model}")
    layer = _intermediate(params, config, x[None, :])
    return layer["h"][0], int(layer["route"][0]), float(layer["pe"][0])


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
    ctx = _intermediate(params, config, x)
    ctx.update(uniq=uniq, inv=inv, lengths=lengths, x=x)
    table = ctx["h"] @ params.w_down
    table += params.b_down
    table += x
    pool = _mean_rows(table, inv, lengths)
    # (n, 1, d) @ (n, d, 1): matmul takes each row's vector-vector product with
    # the dot that ``row @ row`` (and so l2_normalize) uses, in one call
    norms = np.sqrt(np.matmul(pool[:, None, :], pool[:, :, None])[:, 0, 0])
    if not np.all(norms >= NORM_FLOOR):
        raise ValueError(f"cannot normalize: pool norm {norms.min()} below floor {NORM_FLOOR}")
    pool /= norms[:, None]
    ctx.update(norms=norms, out=pool)
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
    p, pe = ctx["p"], ctx["pe"]
    du = (h > 0) * (dh if pe is None else pe[:, None] * dh)  # h > 0 exactly where relu is
    dx = dtable  # the residual path; the gate and the experts add theirs
    if p is not None and (want_dx or "gate" in grads):
        # softmax jacobian row e: dp_e/dlogit_j = p_e (1[e==j] - p_j); h = p_e relu(u)
        onehot = ctx["route"][:, None] == np.arange(p.shape[1])
        dlogits = np.sum(h * dh, axis=1)[:, None] * (onehot - p)
        add("gate", lambda: x.T @ dlogits)
        if want_dx:
            dx = dtable + dlogits @ params.gate.T
    for rows, w_name, b_name in ctx["groups"]:
        add(b_name, lambda: du[rows].sum(axis=0))
        add(w_name, lambda: x[rows].T @ du[rows])
        if want_dx:
            dx[rows] += du[rows] @ params._tensor(w_name).T
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

        def tensor(name: str, shape: tuple[int, ...]) -> np.ndarray:
            entry = doc["tensors"].get(name)
            if entry is None:
                raise ValueError(f"{path}: tensor {name!r} is missing")
            raw, stored = base64.b64decode(entry["data"]), entry["shape"]
            if len(raw) != 8 * int(np.prod(stored)):
                raise ValueError(f"{path}: tensor {name!r} has {len(raw)} bytes for shape {stored}")
            if stored != list(shape):
                raise ValueError(f"{path}: tensor {name!r} has shape {stored}, not {list(shape)}")
            t = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.all(np.isfinite(t)):
                raise ValueError(f"{path}: tensor {name!r} holds non-finite values")
            return t

        params = EncoderParams.from_named(config, tensor)
        extra = sorted(set(doc["tensors"]) - set(tensor_layout(config)))
        if extra:
            raise ValueError(f"{path}: tensors {extra} are not in the config's layout")
        return params, config
