"""Corpus/query/qrels/training-set files plus a deterministic synthetic generator.

File formats (all UTF-8):
  corpus.jsonl, queries.jsonl   {"id": "...", "text": "..."} per line
  qrels.tsv                     query_id<TAB>doc_id<TAB>relevance(0|1), no header
  train.jsonl                   {"query", "pos": [...], "neg": [...], "neg_queries": [[...], ...]}
  neg_queries.jsonl             {"doc_id": "...", "queries": [...]} per line

The generator builds clustered bag-of-words data: clusters own disjoint
vocabularies, queries quote words from their relevant document, and every
document gets standalone queries of its own so it can serve as somebody
else's hard negative with known positive queries attached.
"""

from __future__ import annotations

import json
import operator
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import _TOKEN_RE
from .numerics import _atomic_open, make_rng


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class Query:
    id: str
    text: str


@dataclass
class Qrels:
    """Binary relevance judgments; absent pairs count as 0."""

    judgments: dict[tuple[str, str], int] = field(default_factory=dict)
    # query_id -> docs judged 1; kept in step with ``judgments`` by set()
    _relevant: dict[str, set[str]] = field(default_factory=dict, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        for (qid, did), rel in list(self.judgments.items()):
            self.set(qid, did, rel)

    def set(self, query_id: str, doc_id: str, relevance: int) -> None:
        if relevance not in (0, 1):
            raise ValueError(f"relevance must be 0 or 1, got {relevance}")
        self.judgments[(query_id, doc_id)] = relevance
        docs = self._relevant.setdefault(query_id, set())
        if relevance:
            docs.add(doc_id)
        else:
            docs.discard(doc_id)

    def relevant_docs(self, query_id: str) -> set[str]:
        return set(self._relevant.get(query_id, ()))


@dataclass
class TrainingExample:
    """(query, positives, mined negatives, negatives' own positive queries)."""

    query: str
    pos: list[str]
    neg: list[str] = field(default_factory=list)
    neg_queries: list[list[str]] | None = None

    def __post_init__(self):
        if not self.query:
            raise ValueError("query must be nonempty")
        if not self.pos:
            raise ValueError("pos must contain at least one text")
        if self.neg_queries is not None:
            if len(self.neg_queries) != len(self.neg):
                raise ValueError("neg_queries must align one list per negative")
            if any(len(qs) < 1 for qs in self.neg_queries):
                raise ValueError("each neg_queries entry needs at least one query")

    def to_dict(self) -> dict:
        d = {"query": self.query, "pos": self.pos, "neg": self.neg}
        if self.neg_queries is not None:
            d["neg_queries"] = self.neg_queries
        return d


def _read_jsonl(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}:{lineno}: malformed JSON ({err.msg})") from err
            if not isinstance(obj, dict):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
            yield lineno, obj


def _load_id_text(path: str | Path, cls):
    items = []
    seen: dict[str, int] = {}
    for lineno, obj in _read_jsonl(path):
        try:
            item = cls(id=_as_id(obj["id"], "id"), text=_as_text(obj["text"], "text"))
        except KeyError as err:
            raise ValueError(f"{path}:{lineno}: missing field {err.args[0]!r}") from err
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
        if not item.id:
            raise ValueError(f"{path}:{lineno}: id must be nonempty")
        if item.id in seen:
            raise ValueError(
                f"{path}:{lineno}: duplicate id {item.id!r} (first seen on line {seen[item.id]})")
        seen[item.id] = lineno
        items.append(item)
    return items


def load_corpus(path: str | Path) -> list[Document]:
    return _load_id_text(path, Document)


def load_queries(path: str | Path) -> list[Query]:
    return _load_id_text(path, Query)


def _write_jsonl(path: str | Path, objects) -> None:
    """One ``json.dumps(obj, sort_keys=True, ensure_ascii=False)`` line per object,
    through one encoder for the whole file."""
    encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode
    with _atomic_open(path) as fh:
        for obj in objects:
            fh.write(encode(obj) + "\n")


def save_id_text(items, path: str | Path) -> None:
    _write_jsonl(path, ({"id": item.id, "text": item.text} for item in items))


def _read_tsv(path: str | Path, fields: int):
    """(line number, fields) of each nonblank line of ``path``, each ``fields`` tab-separated."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != fields:
                raise ValueError(f"{path}:{lineno}: expected {fields} tab-separated fields")
            yield lineno, parts


def load_qrels(path: str | Path) -> Qrels:
    qrels = Qrels()
    seen: dict[tuple[str, str], int] = {}
    for lineno, (qid, did, rel) in _read_tsv(path, 3):
        if (qid, did) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate judgment ({qid!r}, {did!r}) "
                             f"(first seen on line {seen[qid, did]})")
        seen[qid, did] = lineno
        try:
            qrels.set(qid, did, int(rel))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
    return qrels


def save_qrels(qrels: Qrels, path: str | Path) -> None:
    with _atomic_open(path) as fh:
        for (qid, did), rel in sorted(qrels.judgments.items()):
            fh.write(f"{qid}\t{did}\t{rel}\n")


def _as_list(value, name: str) -> list:
    """``value`` if it is a JSON array; a string or any other value is rejected."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _as_id(value, name: str) -> str:
    """``value`` if it is a string; an integer (not ``bool``) in its ``str()`` form."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{name} must be a string or an integer, got {type(value).__name__}")
    return str(value)


def _as_text(value, name: str) -> str:
    """``value`` if it is a string the encoder splits into at least one word."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {type(value).__name__}")
    if _TOKEN_RE.search(value.lower()) is None:
        raise ValueError(f"{name} has no word characters: {value!r}")
    return value


def _as_texts(value, name: str) -> list[str]:
    """``value`` if it is a JSON array of strings."""
    return [_as_text(v, f"{name}[{i}]") for i, v in enumerate(_as_list(value, name))]


def load_train_set(path: str | Path) -> list[TrainingExample]:
    examples = []
    for lineno, obj in _read_jsonl(path):
        try:
            neg_queries = obj.get("neg_queries")
            if neg_queries is not None:
                neg_queries = [_as_texts(qs, f"neg_queries[{j}]")
                               for j, qs in enumerate(_as_list(neg_queries, "neg_queries"))]
            example = TrainingExample(
                query=_as_text(obj["query"], "query"),
                pos=_as_texts(obj["pos"], "pos"),
                neg=_as_texts(obj.get("neg", []), "neg"),
                neg_queries=neg_queries,
            )
        except (KeyError, ValueError, TypeError) as err:
            raise ValueError(f"{path}:{lineno}: invalid training example ({err})") from err
        examples.append(example)
    return examples


def save_train_set(examples: list[TrainingExample], path: str | Path) -> None:
    _write_jsonl(path, (ex.to_dict() for ex in examples))


def load_neg_query_map(path: str | Path) -> dict[str, list[str]]:
    """doc_id -> texts of that document's own positive queries."""
    mapping: dict[str, list[str]] = {}
    for lineno, obj in _read_jsonl(path):
        doc_id = obj.get("doc_id")
        queries = obj.get("queries")
        if doc_id in (None, "") or not queries:
            raise ValueError(f"{path}:{lineno}: need nonempty doc_id and queries")
        try:  # ids are read as _load_id_text reads them, so one matches its document's
            doc_id, queries = _as_id(doc_id, "doc_id"), _as_texts(queries, "queries")
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
        if doc_id in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
        mapping[doc_id] = queries
    return mapping


def save_neg_query_map(mapping: dict[str, list[str]], path: str | Path) -> None:
    _write_jsonl(path, ({"doc_id": doc_id, "queries": mapping[doc_id]}
                        for doc_id in sorted(mapping)))


@dataclass(frozen=True)
class SynthSpec:
    num_clusters: int = 10
    docs_per_cluster: int = 50
    queries_per_cluster: int = 10
    vocab_per_cluster: int = 40
    noise_rate: float = 0.1
    doc_words: int = 30
    query_words: int = 5
    neg_queries_per_doc: int = 1

    def __post_init__(self):
        for name in ("num_clusters", "docs_per_cluster", "queries_per_cluster",
                     "vocab_per_cluster", "doc_words", "query_words",
                     "neg_queries_per_doc"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must be in [0, 1)")
        if self.query_words > self.doc_words:
            raise ValueError("query_words cannot exceed doc_words")


@dataclass
class SynthDataset:
    corpus: list[Document]
    queries: list[Query]
    qrels: Qrels
    neg_query_map: dict[str, list[str]]


def _resume(bitgen, saved: dict, words: int, has_uint32: int, uinteger: int) -> None:
    """Set PCG64 to ``words`` 64-bit words past ``saved``, with this 32-bit buffer."""
    bitgen.state = {**saved, "has_uint32": has_uint32, "uinteger": uinteger}
    bitgen.random_raw(words, output=False)  # unlike advance(), keeps the buffer


class _Draws:
    """``random()``, ``integers(low, high)`` and ``choice(n, size, replace=False)``
    of a PCG64 ``Generator``, bit for bit, from ``random_raw`` read 1,024 words at
    a time; on exit the generator is where numpy's own calls would have left it.

    ``random()`` is one 64-bit word r as (r >> 11) * 2**-53. ``integers`` with
    n = high - low <= 2**32 draws nothing if n = 1, else is Lemire's method on a
    32-bit v, the unused high half of the last word split if PCG64 buffers one,
    else the low half of a fresh word: low + (v * n) >> 32, redrawn while
    (v * n) mod 2**32 < (2**32 - n) mod n. ``choice`` is Floyd's sampler and a
    shuffle, or, for n > 10000 and size > n // 50, a shuffle of range(n)'s tail."""

    def __init__(self, rng):
        self._bitgen, self._saved = rng.bit_generator, rng.bit_generator.state
        self._has, self._buf = self._saved["has_uint32"], self._saved["uinteger"]
        self._raw, self._read = iter(()), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        _resume(self._bitgen, self._saved, self._read - operator.length_hint(self._raw),
                self._has, self._buf)

    def _next64(self) -> int:
        for r in self._raw:
            return r
        self._raw, self._read = iter(self._bitgen.random_raw(1024).tolist()), self._read + 1024
        return next(self._raw)

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        n = high - low
        while n > 1:
            if self._has:
                v, self._has = self._buf, 0
            else:
                r = self._next64()
                v, self._has, self._buf = r & 0xFFFFFFFF, 1, r >> 32
            if (v * n) & 0xFFFFFFFF >= (2**32 - n) % n:
                return low + ((v * n) >> 32)
        return low

    def choice(self, n: int, size: int, replace: bool = True) -> list[int]:
        if replace:
            raise NotImplementedError("only choice(replace=False) is replayed")
        if n <= 10000 or size <= n // 50:
            picked = {}  # insertion-ordered, for O(1) membership
            for j in range(n - size, n):
                v = self.integers(0, j + 1)
                picked[j if v in picked else v] = None
            picked, first = list(picked), 1
        else:
            picked, first = list(range(n)), max(n - size, 1)
        for i in range(len(picked) - 1, first - 1, -1):
            j = self.integers(0, i + 1)
            picked[i], picked[j] = picked[j], picked[i]
        return picked[len(picked) - size:]


def _make_vocabulary(spec: SynthSpec, rng) -> list[list[str]]:
    """Disjoint per-cluster word lists of random lowercase strings."""
    letters = string.ascii_lowercase
    taken: set[str] = set()
    clusters = []
    for _ in range(spec.num_clusters):
        words = []
        while len(words) < spec.vocab_per_cluster:
            length = int(rng.integers(4, 8))
            word = "".join(letters[rng.integers(0, 26)] for _ in range(length))
            if word not in taken:
                taken.add(word)
                words.append(word)
        clusters.append(words)
    return clusters


def _draw_word(own: list[str], other: list[str], noise_rate: float, rng) -> str:
    pool = other if (other and rng.random() < noise_rate) else own
    return pool[int(rng.integers(0, len(pool)))]


def _sample_words(own: list[str], other: list[str], count: int,
                  noise_rate: float, rng) -> list[str]:
    """``count`` calls of ``_draw_word``, bit for bit and generator state after
    included, as ``_Draws`` reads them but vectorized, from one ``random_raw``
    read per run of words between redraws. A redrawn word goes through
    ``_draw_word``, and so does every word when a pool has one word."""
    if 1 in (len(own), len(other)):
        return [_draw_word(own, other, noise_rate, rng) for _ in range(count)]
    bitgen, noise = rng.bit_generator, int(bool(other))
    words: list[str] = []
    while len(words) < count:
        n, saved = count - len(words), bitgen.state
        has = saved["has_uint32"]
        fresh = (np.arange(n) + has) % 2 == 0  # word i splits a fresh 64-bit word
        starts = np.concatenate([[0], np.cumsum(fresh + noise)])  # raw words read before word i
        raw = bitgen.random_raw(int(starts[-1]))
        split = raw[starts[1:][fresh] - 1]
        # the value buffered on entry (used when has_uint32 is set), then the
        # low and high half of each split word: the 32-bit draws in stream order
        halves = np.concatenate([np.array([saved["uinteger"]], dtype=np.uint64),
                                 np.stack([split & 0xFFFFFFFF, split >> 32], 1).ravel()])
        noisy = ((raw[starts[:-1]] >> 11) * 2.0**-53 < noise_rate if noise
                 else np.zeros(n, dtype=bool))
        sizes = np.where(noisy, len(other), len(own)).astype(np.uint64)
        m = halves[1 - has:n + 1 - has] * sizes
        r = int(next(iter(np.flatnonzero((m & 0xFFFFFFFF) < (2**32 - sizes) % sizes)), n))
        words += [(other if z else own)[i]
                  for z, i in zip(noisy[:r].tolist(), (m[:r] >> 32).tolist())]
        # the state before word r (numpy redraws it if r < n); the 32-bit buffer
        # there holds its unused value, or else the last value used
        full = (r + has) % 2
        _resume(bitgen, saved, int(starts[r]), full, int(halves[r + full - has]))
        if r < n:
            words.append(_draw_word(own, other, noise_rate, rng))
    return words


def _query_from_doc(doc_words: list[str], other: list[str], spec: SynthSpec, rng) -> str:
    """Short query quoting the document, with noise words swapped in."""
    picked = rng.choice(len(doc_words), size=spec.query_words, replace=False)
    return " ".join([other[int(rng.integers(0, len(other)))]
                     if other and rng.random() < spec.noise_rate else doc_words[i]
                     for i in picked])


def synth_generate(spec: SynthSpec, seed: int) -> SynthDataset:
    """Deterministic clustered corpus, queries, qrels and per-document queries.

    Cluster vocabularies are disjoint; every query's relevant document is in
    its cluster and contributes the query's words (minus noise). The
    neg-query map covers every document.
    """
    rng = make_rng(seed)
    with _Draws(rng) as draws:
        cluster_vocab = _make_vocabulary(spec, draws)
    all_words = [w for words in cluster_vocab for w in words]
    # other_words[c]: every word outside cluster c, in all_words order; the
    # clusters are disjoint blocks of vocab_per_cluster words in all_words
    v = spec.vocab_per_cluster
    other_words = [all_words[:c * v] + all_words[(c + 1) * v:] for c in range(spec.num_clusters)]

    corpus: list[Document] = []
    doc_words: dict[str, list[str]] = {}
    for c in range(spec.num_clusters):
        cluster_words = _sample_words(cluster_vocab[c], other_words[c],
                                      spec.docs_per_cluster * spec.doc_words, spec.noise_rate, rng)
        for j in range(spec.docs_per_cluster):
            doc_id = f"d{c * spec.docs_per_cluster + j:05d}"
            words = cluster_words[j * spec.doc_words:(j + 1) * spec.doc_words]
            corpus.append(Document(doc_id, " ".join(words)))
            doc_words[doc_id] = words

    queries: list[Query] = []
    qrels = Qrels()
    neg_query_map: dict[str, list[str]] = {}
    with _Draws(rng) as draws:
        for c in range(spec.num_clusters):
            own_docs = corpus[c * spec.docs_per_cluster:(c + 1) * spec.docs_per_cluster]
            for _ in range(spec.queries_per_cluster):
                target = own_docs[int(draws.integers(0, len(own_docs)))]
                text = _query_from_doc(doc_words[target.id], other_words[c], spec, draws)
                query_id = f"q{len(queries):04d}"
                queries.append(Query(query_id, text))
                qrels.set(query_id, target.id, 1)
        for i, doc in enumerate(corpus):
            other = other_words[i // spec.docs_per_cluster]
            neg_query_map[doc.id] = [_query_from_doc(doc_words[doc.id], other, spec, draws)
                                     for _ in range(spec.neg_queries_per_doc)]
    return SynthDataset(corpus, queries, qrels, neg_query_map)
