"""Toy deterministic text encoder with an explicit intermediate up-projection.

The encoder embeds hashed tokens, pushes each token through a
relu(x W_up + b_up) W_down + b_down feed-forward block with a residual
connection, mean-pools over tokens and L2-normalizes the result. The
up-projection ("intermediate layer") is a top-1 routed mixture of experts;
the dense layer is its one-expert case with no gate, so one function
(``_intermediate``) runs both, and backprop is hand-derived once. Every
tensor's name and shape is declared once, by ``tensor_layout``.

Tokens never interact, so a token's output row, its MoE route included,
depends on its id alone. A batch of texts goes through one table over its
distinct ids, and backprop runs once over that table, adding into a
caller-supplied gradient dict. The gate runs on the id-sorted rows; then the
table takes one row order, expert-major, so each expert runs one matmul on
one contiguous span, and backprop sums over rows in that order. An
``encode_texts`` call, a whole corpus included, is one such batch, so the
table has at most ``vocab_size`` rows. A batch tokenizes each distinct text
once, through a text memo of its own or the caller's (``training.steps``
keeps one per run). Text splits on whitespace when that gives the
word-character runs, else by regex. Every word -> id lookup goes through one
memo per vocabulary size, kept for the whole process, so a word is hashed
once however many calls tokenize it.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import re
from copy import deepcopy
from dataclasses import asdict, dataclass, fields
from enum import Enum
from functools import cache
from pathlib import Path

import numpy as np

from .numerics import (_atomic_open, _from_fields, _reading, as_matrix, as_vector, make_rng,
                       row_norms, seeded_init)

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)

CHECKPOINT_FORMAT = "retrieval-lab-checkpoint-v1"


class FreezeMode(str, Enum):
    """Which parameter subset stays trainable during fine-tuning."""

    FULL = "full"                           # every tensor trainable
    INTERMEDIATE_ONLY = "intermediate_only"  # only w_up / b_up (or expert copies)
    MOE_ONLY = "moe_only"                    # only expert tensors and the gate


@dataclass(frozen=True)
class MoEConfig:
    """A top-1 routed layer of ``num_experts`` experts."""

    num_experts: int = 2

    def __post_init__(self):
        if self.num_experts < 1:
            raise ValueError("num_experts must be positive")


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
        if moe is not None:  # older files record top-1 routing as experts_per_token: 1
            if not isinstance(moe, dict):
                raise ValueError(f"moe: expected an object, got {type(moe).__name__}")
            if moe.get("experts_per_token", 1) != 1:
                raise ValueError("only experts_per_token == 1 is supported")
            moe = {k: v for k, v in moe.items() if k != "experts_per_token"}
        for where, keys, cls in (("", d, EncoderConfig), ("moe: ", moe or {}, MoEConfig)):
            if unknown := sorted(keys.keys() - {f.name for f in fields(cls)}):
                raise ValueError(f"{where}unknown keys {unknown}")
        return _from_fields(EncoderConfig, d,
                            moe=None if moe is None else _from_fields(MoEConfig, moe))


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


@cache
def _expert_names(config: EncoderConfig) -> tuple[tuple[str, str], ...]:
    """Each expert's (up-projection, bias) tensor names, in expert order."""
    suffixes = [""] if config.moe is None else [f".{e}" for e in range(config.moe.num_experts)]
    return tuple((f"w_up{s}", f"b_up{s}") for s in suffixes)


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
    """The intermediate layer on the id-sorted rows ``x``: ``h``, each row's relu(x
    W_up + b_up) through its top-1 expert times that expert's gate probability,
    plus what ``_backward`` needs. The gate runs on the id-sorted rows; one stable
    sort by expert (``order``) then puts ``x``, ``h``, ``p``, ``route`` and ``pe`` in
    the table's one row order, so each expert runs one matmul on its span ``[a:b)``.
    The dense layer is the one expert of span ``[0:m)``, with no gate (``p``,
    ``route``, ``pe`` None), so unscaled and unsorted (``order`` slices every row).
    """
    names = _expert_names(config)
    p = route = pe = None
    order = slice(None)
    ends = [len(x)]
    if params.is_moe:  # softmax gate, top-1 expert; argmax ties go to the lowest index
        logits = x @ params.gate  # on the id-sorted rows: its bits depend on row position
        z = np.exp(logits - logits.max(1, keepdims=True))
        p = z / z.sum(1, keepdims=True)
        route = p.argmax(1)
        order = route.argsort(kind="stable")
        x, p, route = x[order], p[order], route[order]
        pe = p.max(1)  # gate probability of each row's expert: its largest
        ends = np.bincount(route, minlength=len(names)).cumsum().tolist()
    spans = [(a, b, *name) for a, b, name in zip([0, *ends], ends, names) if a < b]
    h = np.empty((len(x), config.d_intermediate))
    for a, b, w_name, b_name in spans:
        np.matmul(x[a:b], params._tensor(w_name), out=h[a:b])  # pre-activation
        h[a:b] += params._tensor(b_name)
    np.maximum(h, 0.0, out=h)
    if pe is not None:
        h *= pe[:, None]
    return {"x": x, "h": h, "p": p, "route": route, "pe": pe, "order": order, "spans": spans}


def moe_intermediate_forward(x: np.ndarray, params: EncoderParams,
                             config: EncoderConfig) -> tuple[np.ndarray, int, float]:
    """Route one token vector through its top-1 expert: a one-row ``_intermediate``.

    Returns (gated expert output, selected expert index, gate probability).
    Only the selected expert is evaluated; argmax ties go to the lowest index.
    """
    if config.moe is None or not params.is_moe:
        raise ValueError("MoE is not enabled for this encoder")
    x = as_vector(x, "x", config.d_model)
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


def _table_rows(texts: list[str], config: EncoderConfig,
                tokens: dict[str, list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts' sorted distinct token ids (the rows the gate runs on), their
    token ids end to end, and each text's token count. A text missing from the
    ``tokens`` memo (text -> ids) is tokenized into it."""
    flat, lengths = [], []  # token ids, text after text; each text's count
    for i, text in enumerate(texts):
        text_ids = tokens.get(text)
        if text_ids is None:
            tokens[text] = text_ids = tokenize(text, config)
        if not text_ids:
            raise ValueError(f"empty input: texts[{i}] has no words: {text!r}")
        flat += text_ids
        lengths.append(len(text_ids))
    ids = np.array(flat, dtype=np.intp)
    present = np.zeros(config.vocab_size, dtype=bool)
    present[ids] = True
    return present.nonzero()[0], ids, np.array(lengths, dtype=np.intp)


def _forward(params: EncoderParams, config: EncoderConfig, texts: list[str],
             tokens: dict[str, list[int]] | None = None) -> tuple[np.ndarray, dict]:
    """Unit-norm encodings (len(texts), d_model) plus the context ``_backward`` needs.

    Each distinct token id goes through the token network once, so the table
    has at most ``vocab_size`` rows, in the one row order ``_intermediate`` sets
    after routing. Only here do ids map to rows: row ``r`` holds id ``uniq[r]``,
    token ``t`` (texts end to end) reads row ``inv[t]``, and a text's pool is
    the mean of its rows. ``tokens`` is ``_table_rows``' text -> ids memo, by
    default one for this call.
    """
    uniq, ids, lengths = _table_rows(texts, config, {} if tokens is None else tokens)
    ctx = _intermediate(params, config, params.embedding[uniq])
    uniq = uniq[ctx.pop("order")]
    row = np.empty(config.vocab_size, dtype=np.intp)
    row[uniq] = np.arange(len(uniq))
    inv = row.take(ids)
    table = ctx["h"] @ params.w_down
    table += params.b_down
    table += ctx["x"]
    pool = _mean_rows(table, inv, lengths)
    norms = row_norms(pool, "pool")
    pool /= norms[:, None]
    ctx.update(uniq=uniq, inv=inv, lengths=lengths, norms=norms, out=pool)
    return pool, ctx


def _mean_rows(table: np.ndarray, inv: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per text, the mean of its rows of ``table`` (``inv``: the texts' rows end
    to end). Bit for bit ``.mean(axis=0)`` for d_model >= 2: each sum starts
    from +0.0 and adds the text's rows in order. Texts are pooled longest
    first, so at each position only the texts still running (a prefix) add a
    row, and the work grows with the total token count."""
    order = (-lengths).argsort()  # equal lengths in any order: each text sums alone
    starts = (lengths.cumsum() - lengths).take(order)
    pool = np.zeros((len(lengths), table.shape[1]))
    running = len(lengths)
    # ended[p]: how many texts have p tokens, so stop before position p
    for position, ended in enumerate(np.bincount(lengths).tolist()[:-1]):
        running -= ended
        pool[:running] += table.take(inv.take(starts[:running] + position), axis=0)
    out = np.empty_like(pool)
    out[order] = pool
    out /= lengths[:, None]  # in place: a fresh array per call costs page faults
    return out


def _backward(params: EncoderParams, ctx: dict, upstreams: np.ndarray,
              grads: dict[str, np.ndarray]) -> None:
    """Add d(sum_j upstreams[j] . out[j])/dparams into ``grads``, one pass over the table.

    A tensor missing from ``grads`` is frozen: its gradient is neither
    computed nor added as a key, and without ``embedding`` the whole
    input-gradient chain is skipped. Every row array is in the table's one
    order (``_forward``), so each expert reads its span and every sum over
    rows runs in that order.
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
    du = dtable @ params.w_down.T  # dh (m, d_intermediate)
    want_dx = "embedding" in grads
    p, pe = ctx["p"], ctx["pe"]
    dx = dtable  # the residual path; the gate and the experts add theirs
    if p is not None and (want_dx or "gate" in grads):
        # softmax jacobian row e: dp_e/dlogit_j = p_e (1[e==j] - p_j); h = p_e relu(u)
        onehot = ctx["route"][:, None] == np.arange(p.shape[1])
        dlogits = np.sum(h * du, axis=1)[:, None] * (onehot - p)
        add("gate", lambda: x.T @ dlogits)
        if want_dx:
            dx = dtable + dlogits @ params.gate.T
    if pe is not None:
        du *= pe[:, None]
    du *= h > 0  # h > 0 exactly where relu is
    for a, b, w_name, b_name in ctx["spans"]:
        add(b_name, lambda: du[a:b].sum(axis=0))
        add(w_name, lambda: x[a:b].T @ du[a:b])
        if want_dx:
            dx[a:b] += du[a:b] @ params._tensor(w_name).T
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
    upstream = as_vector(upstream, "upstream", config.d_model)
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
    the document is dumped with empty ``data`` strings and each payload's
    ASCII bytes are written between the pieces, in sorted tensor-name order,
    never decoded to text or joined into one string with them.
    """
    params.check_shapes(config)
    named = params.named_tensors()
    tensors = {name: {"shape": list(t.shape), "dtype": "<f8", "data": ""}
               for name, t in named.items()}
    doc = {"format": CHECKPOINT_FORMAT, "config": config.to_dict(), "tensors": tensors}
    pieces = json.dumps(doc, sort_keys=True, indent=2).split('"data": ""')
    with _atomic_open(path, binary=True) as fh:
        fh.write(pieces[0].encode())
        for name, piece in zip(sorted(named), pieces[1:]):
            raw = np.ascontiguousarray(named[name], dtype="<f8").tobytes()
            fh.write(b'"data": "')
            fh.write(binascii.b2a_base64(raw, newline=False))
            fh.write(f'"{piece}'.encode())
        fh.write(b"\n")


def load_checkpoint(path: str | Path) -> tuple[EncoderParams, EncoderConfig]:
    with _reading(path) as doc:
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
        try:
            config = EncoderConfig.from_dict(doc["config"])
        except ValueError as err:  # a bad value, or a key no config has
            raise ValueError(f"config: {err}") from err

        def tensor(name: str, shape: tuple[int, ...]) -> np.ndarray:
            entry = doc["tensors"].get(name)
            if entry is None:
                raise ValueError(f"tensor {name!r} is missing")
            if (dtype := entry["dtype"]) != "<f8":
                raise ValueError(f"tensor {name!r} has dtype {dtype!r}, not '<f8'")
            try:
                raw = binascii.a2b_base64(entry["data"])
            except (TypeError, ValueError) as err:  # not ASCII base64 text
                raise ValueError(f"tensor {name!r} data is not base64 ({err})") from err
            stored = entry["shape"]
            if len(raw) != 8 * int(np.prod(stored)):
                raise ValueError(f"tensor {name!r} has {len(raw)} bytes for shape {stored}")
            if stored != list(shape):
                raise ValueError(f"tensor {name!r} has shape {stored}, not {list(shape)}")
            t = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.all(np.isfinite(t)):
                raise ValueError(f"tensor {name!r} holds non-finite values")
            return t

        params = EncoderParams.from_named(config, tensor)
        if extra := sorted(set(doc["tensors"]) - set(tensor_layout(config))):
            raise ValueError(f"tensors {extra} are not in the config's layout")
        return params, config
