"""Corpus/query/qrels/training-set files plus a deterministic synthetic generator.

File formats (all UTF-8):
  corpus.jsonl, queries.jsonl   {"id": "...", "text": "..."} per line
  qrels.tsv                     query_id<TAB>doc_id<TAB>relevance(0|1), no header
  train.jsonl                   {"query", "pos": [...], "neg": [...], "neg_queries": [[...], ...]}
  neg_queries.jsonl             {"doc_id": "...", "queries": [...]} per line

A JSONL line is byte-equal to ``json.dumps(obj, sort_keys=True, ensure_ascii=False)``,
built from the strings of ``json.encoder.encode_basestring`` that json.dumps uses.

The generator builds clustered bag-of-words data: clusters own disjoint
vocabularies, queries quote words from their relevant document, and every
document gets standalone queries of its own so it can serve as somebody
else's hard negative with known positive queries attached.
"""

from __future__ import annotations

import functools
import json
import string
from dataclasses import dataclass, field
from json.encoder import encode_basestring
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


def _read_jsonl(path: str | Path):
    """(line number, object) of each nonblank line; only ``"\\n"`` ends a line."""
    decode = json.JSONDecoder().raw_decode
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            body = line.strip(" \t\r\n")  # what json.loads skips around the value
            try:
                obj, end = decode(body)
            except json.JSONDecodeError:
                end = -1
            if end != len(body):  # rejected: json.loads words the error
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


def _array(texts, quote=encode_basestring) -> str:
    """``json.dumps(texts, ensure_ascii=False)`` of a list of strings."""
    return "[" + ", ".join(map(quote, texts)) + "]"


def save_id_text(items, path: str | Path) -> None:
    q = encode_basestring
    with _atomic_open(path) as fh:
        fh.writelines(f'{{"id": {q(item.id)}, "text": {q(item.text)}}}\n' for item in items)


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
        if rel not in ("0", "1"):
            raise ValueError(f"{path}:{lineno}: relevance must be 0 or 1, got {rel!r}")
        qrels.set(qid, did, int(rel))
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
    q = functools.cache(encode_basestring)  # a text recurs across examples; encode it once

    def line(ex: TrainingExample) -> str:
        neg_queries = ("" if ex.neg_queries is None else
                       f'"neg_queries": [{", ".join(_array(qs, q) for qs in ex.neg_queries)}], ')
        return (f'{{"neg": {_array(ex.neg, q)}, {neg_queries}'
                f'"pos": {_array(ex.pos, q)}, "query": {q(ex.query)}}}\n')

    with _atomic_open(path) as fh:
        fh.writelines(map(line, examples))


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
    with _atomic_open(path) as fh:
        fh.writelines(f'{{"doc_id": {encode_basestring(doc_id)}, '
                      f'"queries": {_array(mapping[doc_id])}}}\n' for doc_id in sorted(mapping))


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


def _uniform(raw):
    """numpy's ``random()`` of each 64-bit word: (r >> 11) * 2**-53."""
    return (raw >> 11) * 2.0**-53


def _lemire(values, n):
    """numpy's ``integers(0, n)`` of each 32-bit value by Lemire's method: the
    results, and where numpy would reject the value and draw another."""
    m = values * n
    return m >> 32, (m & 0xFFFFFFFF) < (2**32 - n) % n


def _halves(raw, reads, has: int, buffered: int):
    """PCG64's 32-bit draws, in stream order, from ``raw`` (64-bit words read in
    bulk) when draw c comes after reads[c] ``random()`` calls: the values, and
    the index in ``raw`` of each one's word (-1 for the value buffered on entry).
    A draw splits the next word and buffers its high half, or takes the buffered
    half; ``random()`` takes a whole word and leaves the buffer alone."""
    t = np.arange(len(reads)) - has  # -1: the buffered value; even t splits a word
    pos = np.where(t < 0, -1, reads[t - t % 2 + has] + t // 2)
    word = np.append(raw, np.uint64(buffered) << 32)[pos]
    return np.where(t % 2, word >> 32, word & 0xFFFFFFFF), pos


def _resume(bitgen, saved: dict, raw, reads: int, pos, draws: int) -> None:
    """Set PCG64 where numpy's calls leave it after ``reads`` ``random()`` and the
    first ``draws`` 32-bit draws of ``_halves`` from state ``saved``."""
    has, last = saved["has_uint32"], saved["uinteger"]
    if draws and pos[draws - 1] >= 0:  # the buffer holds the last split word's high half
        last = int(raw[pos[draws - 1]] >> 32)
    bitgen.state = {**saved, "has_uint32": (draws - has) % 2, "uinteger": last}
    # unlike advance(), random_raw keeps the buffer
    bitgen.random_raw(reads + (draws + 1 - has) // 2, output=False)


def _make_vocabulary(spec: SynthSpec, rng) -> list[str]:
    """Distinct random lowercase words, cluster c's in the c-th block of vocab_per_cluster.
    Per word, numpy's ``integers(4, 8)`` length and as many ``integers(0, 26)``
    letters, replayed from one ``random_raw`` read per run of words between
    redraws; a redrawn word makes numpy's own calls. A word drawn before is dropped."""
    total = spec.num_clusters * spec.vocab_per_cluster
    bitgen, words = rng.bit_generator, {}  # insertion-ordered set
    while len(words) < total:
        n, saved = 8 * (total - len(words)), bitgen.state  # a word takes 5 to 8 draws
        raw = bitgen.random_raw((n + 1 - saved["has_uint32"]) // 2)
        values, pos = _halves(raw, np.zeros(n, dtype=np.int64), saved["has_uint32"],
                              saved["uinteger"])
        length = (_lemire(values, 4)[0] + 4).tolist()  # 4 divides 2**32: never redrawn
        codes, redrawn = _lemire(values, 26)
        text = (codes + 97).astype(np.uint8).tobytes().decode()  # one letter per draw
        redrawn = np.flatnonzero(redrawn).tolist()
        p = redraw = 0
        while len(words) < total and p + 8 <= n:
            end = p + 1 + length[p]
            if redraw := any(p < i < end for i in redrawn):
                break
            words.setdefault(text[p + 1:end])
            p = end
        _resume(bitgen, saved, raw, 0, pos, p)
        if redraw:
            length = int(rng.integers(4, 8))
            words.setdefault("".join(string.ascii_lowercase[rng.integers(0, 26)]
                                     for _ in range(length)))
    return list(words)


def _row_run(m: int, fixed, words: int, quiet: int, n_other: int, noise_rate: float, rng):
    """Up to ``m`` rows of draws from one ``random_raw`` read, up to the first row
    numpy redraws, where the generator is left. A row draws ``integers(0, n)``
    for each n in ``fixed``, then per word a ``random()`` when n_other > 0 and
    ``integers(0, n_other)`` if that is below noise_rate (a noisy word), else
    ``integers(0, quiet)``; a range of one value reads nothing. Returns each
    row's draws (fixed, then one per word) and its noisy words."""
    f, cols = len(fixed), len(fixed) + words
    noise, swap, keep = int(n_other > 0), int(n_other > 1), int(quiet > 1)
    per = sum(n > 1 for n in fixed)  # 32-bit draws before a row's first random()
    bitgen = rng.bit_generator
    saved = bitgen.state
    has = saved["has_uint32"]
    raw = bitgen.random_raw(m * words * noise + (m * (per + words * max(swap, keep)) + 1) // 2)
    noisy = np.zeros(m * words, dtype=bool)
    if noise:
        # word k's random() reads raw[k + (c + 1 - has) // 2] after c 32-bit draws:
        # per for each row up to its own, and those of the earlier words
        k = np.arange(m * words)
        bits, twice = _uniform(raw) < noise_rate, 2 * k + (k // words + 1) * per + 1 - has
        if swap == keep:  # every word makes as many 32-bit draws: closed form
            noisy = bits[(twice + k * swap) >> 1]
        else:  # only the noisy words (swap) or only the others (keep) draw
            bits, hits, s = bits.tolist(), [], 0
            for t in twice.tolist():
                hits.append(bits[(t + s) >> 1])
                s += swap if hits[-1] else keep
            noisy = np.array(hits, dtype=bool)
    noisy = noisy.reshape(m, words)
    ranges = np.hstack([np.tile(np.array(fixed, dtype=np.uint64), (m, 1)),
                        np.where(noisy, n_other, quiet).astype(np.uint64)])
    cells = np.flatnonzero(ranges > 1)
    rows = np.arange(m)[:, None] * words  # random() calls before each row
    reads = noise * np.hstack([np.repeat(rows, f, 1), rows + np.arange(1, words + 1)])
    values, pos = _halves(raw, reads.ravel()[cells], has, saved["uinteger"])
    got, redrawn = _lemire(values, ranges.ravel()[cells])
    r = int(cells[np.argmax(redrawn)]) // cols if redrawn.any() else m
    done = int(np.searchsorted(cells, r * cols))
    _resume(bitgen, saved, raw, r * words * noise, pos, done)
    draws = np.zeros(r * cols, dtype=np.int64)
    draws[cells[:done]] = got[:done]
    return draws.reshape(r, cols), noisy[:r]


def _replay(count: int, run, one) -> list:
    """``count`` rows: ``run(i)`` reads rows from row i on in bulk, up to the first
    one numpy redraws, and ``one(i)`` makes row i with numpy's own calls."""
    rows: list = []
    while len(rows) < count:
        rows += run(len(rows))
        if len(rows) < count:
            rows.append(one(len(rows)))
    return rows


def _draw_word(own: list[str], other: list[str], noise_rate: float, rng) -> str:
    pool = other if (other and rng.random() < noise_rate) else own
    return pool[int(rng.integers(0, len(pool)))]


def _sample_docs(vocabulary, spec: SynthSpec, rng):
    """Every document's ``doc_words`` words, one row each, in cluster order: per
    word ``_draw_word`` from its cluster's block of ``vocabulary`` (own) and the
    rest (other), read as rows by ``_row_run``."""
    v, per = spec.vocab_per_cluster, spec.docs_per_cluster
    n_docs = spec.num_clusters * per

    def run(first):
        draws, noisy = _row_run(n_docs - first, [], spec.doc_words, v, len(vocabulary) - v,
                                spec.noise_rate, rng)
        c = (first + np.arange(len(draws)))[:, None] // per  # each document's cluster
        # an other-pool draw skips the cluster's own block of the vocabulary
        return vocabulary[np.where(noisy, draws + v * (draws >= c * v), c * v + draws)].tolist()

    def one(doc):
        block = np.s_[doc // per * v:(doc // per + 1) * v]
        own, other = vocabulary[block].tolist(), np.delete(vocabulary, block).tolist()
        return [_draw_word(own, other, spec.noise_rate, rng) for _ in range(spec.doc_words)]

    return np.array(_replay(n_docs, run, one), dtype=object)


def _query_from_doc(doc_words: list[str], other: list[str], spec: SynthSpec, rng) -> str:
    """Short query quoting the document, with noise words swapped in."""
    picked = rng.choice(len(doc_words), size=spec.query_words, replace=False)
    return " ".join([other[int(rng.integers(0, len(other)))]
                     if other and rng.random() < spec.noise_rate else doc_words[i]
                     for i in picked])


def _sample_queries(first_doc, targets: bool, docs, vocabulary, spec: SynthSpec, rng):
    """``_query_from_doc`` of document first_doc[i] + t for each i, t drawn first
    by ``integers(0, docs_per_cluster)`` if ``targets`` else 0: the texts and the
    documents (``docs`` holds their words as rows). A query's ``_row_run`` row
    draws the target, Floyd's picks (``integers(0, j + 1)`` for j from doc_words
    - query_words up; a repeated pick takes j), their shuffle (``integers(0, i)``
    for i from query_words down to 2), then per word a noise swap. Where
    ``choice`` would not use Floyd's sampler, numpy's own calls make every query."""
    d, q, v = spec.doc_words, spec.query_words, spec.vocab_per_cluster
    fixed = ([spec.docs_per_cluster] * targets + list(range(d - q + 1, d + 1))
             + list(range(q, 1, -1)))
    floyd = d <= 10000 or q <= d // 50

    def run(first):
        if not floyd:
            return []
        draws, noisy = _row_run(len(first_doc) - first, fixed, q, 1, len(vocabulary) - v,
                                spec.noise_rate, rng)
        r = len(draws)
        doc, at = first_doc[first:first + r] + (draws[:, 0] if targets else 0), np.arange(r)
        picks, seen = draws[:, targets:targets + q].copy(), np.zeros((r, d), dtype=bool)
        for j in range(q):
            picks[:, j] = np.where(seen[at, picks[:, j]], d - q + j, picks[:, j])
            seen[at, picks[:, j]] = True
        for j, col in zip(range(q - 1, 0, -1), range(targets + q, len(fixed))):
            to = draws[:, col]
            picks[at, j], picks[at, to] = picks[at, to], picks[:, j].copy()
        words = docs[doc[:, None], picks]
        other, c = draws[:, len(fixed):][noisy], doc[np.nonzero(noisy)[0]] // spec.docs_per_cluster
        words[noisy] = vocabulary[other + v * (other >= c * v)]
        return list(zip(map(" ".join, words.tolist()), doc.tolist()))

    def one(i):
        doc = int(first_doc[i]) + (int(rng.integers(0, spec.docs_per_cluster)) if targets else 0)
        c = doc // spec.docs_per_cluster
        other = np.delete(vocabulary, np.s_[c * v:(c + 1) * v]).tolist()
        return _query_from_doc(docs[doc].tolist(), other, spec, rng), doc

    texts, chosen = zip(*_replay(len(first_doc), run, one))
    return list(texts), list(chosen)


def synth_generate(spec: SynthSpec, seed: int) -> SynthDataset:
    """Deterministic clustered corpus, queries, qrels and per-document queries.

    Cluster vocabularies are disjoint; every query's relevant document is in
    its cluster and contributes the query's words (minus noise). The
    neg-query map covers every document.
    """
    rng = make_rng(seed)
    vocabulary = np.array(_make_vocabulary(spec, rng), dtype=object)
    docs = _sample_docs(vocabulary, spec, rng)
    corpus = [Document(f"d{i:05d}", " ".join(words)) for i, words in enumerate(docs.tolist())]

    first_doc = np.arange(0, len(corpus), spec.docs_per_cluster).repeat(spec.queries_per_cluster)
    texts, targets = _sample_queries(first_doc, True, docs, vocabulary, spec, rng)
    queries = [Query(f"q{i:04d}", text) for i, text in enumerate(texts)]
    qrels = Qrels({(query.id, corpus[doc].id): 1 for query, doc in zip(queries, targets)})
    per_doc = spec.neg_queries_per_doc
    first_doc = np.arange(len(corpus)).repeat(per_doc)
    texts, _ = _sample_queries(first_doc, False, docs, vocabulary, spec, rng)
    neg_query_map = {doc.id: texts[i * per_doc:(i + 1) * per_doc] for i, doc in enumerate(corpus)}
    return SynthDataset(corpus, queries, qrels, neg_query_map)
