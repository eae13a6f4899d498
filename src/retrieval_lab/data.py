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
import string
from dataclasses import dataclass, field
from pathlib import Path

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
        if not item.id or not item.text:
            raise ValueError(f"{path}:{lineno}: id and text must be nonempty")
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


def load_qrels(path: str | Path) -> Qrels:
    qrels = Qrels()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            qid, did, rel = parts
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
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {type(value).__name__}")
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


def _make_vocabulary(spec: SynthSpec, rng) -> list[list[str]]:
    """Disjoint per-cluster word lists of random lowercase strings."""
    letters = string.ascii_lowercase
    taken: set[str] = set()
    clusters = []
    for _ in range(spec.num_clusters):
        words = []
        while len(words) < spec.vocab_per_cluster:
            length = int(rng.integers(4, 8))
            word = "".join(letters[i] for i in rng.integers(0, 26, size=length))
            if word not in taken:
                taken.add(word)
                words.append(word)
        clusters.append(words)
    return clusters


def _sample_words(own: list[str], other: list[str], count: int,
                  noise_rate: float, rng) -> list[str]:
    words = []
    for _ in range(count):
        pool = other if (other and rng.random() < noise_rate) else own
        words.append(pool[int(rng.integers(0, len(pool)))])
    return words


def _query_from_doc(doc_words: list[str], other: list[str], spec: SynthSpec, rng) -> str:
    """Short query quoting the document, with noise words swapped in."""
    picked = rng.choice(len(doc_words), size=spec.query_words, replace=False)
    words = [doc_words[i] for i in picked]
    for i in range(len(words)):
        if other and rng.random() < spec.noise_rate:
            words[i] = other[int(rng.integers(0, len(other)))]
    return " ".join(words)


def synth_generate(spec: SynthSpec, seed: int) -> SynthDataset:
    """Deterministic clustered corpus, queries, qrels and per-document queries.

    Cluster vocabularies are disjoint; every query's relevant document is in
    its cluster and contributes the query's words (minus noise). The
    neg-query map covers every document.
    """
    rng = make_rng(seed)
    cluster_vocab = _make_vocabulary(spec, rng)
    all_words = [w for words in cluster_vocab for w in words]
    # other_words[c]: every word outside cluster c, in all_words order; the
    # clusters are disjoint blocks of vocab_per_cluster words in all_words
    v = spec.vocab_per_cluster
    other_words = [all_words[:c * v] + all_words[(c + 1) * v:] for c in range(spec.num_clusters)]

    corpus: list[Document] = []
    doc_words: dict[str, list[str]] = {}
    doc_cluster: dict[str, int] = {}
    for c in range(spec.num_clusters):
        for j in range(spec.docs_per_cluster):
            doc_id = f"d{c * spec.docs_per_cluster + j:05d}"
            words = _sample_words(cluster_vocab[c], other_words[c], spec.doc_words,
                                  spec.noise_rate, rng)
            corpus.append(Document(doc_id, " ".join(words)))
            doc_words[doc_id] = words
            doc_cluster[doc_id] = c

    queries: list[Query] = []
    qrels = Qrels()
    qnum = 0
    for c in range(spec.num_clusters):
        own_docs = corpus[c * spec.docs_per_cluster:(c + 1) * spec.docs_per_cluster]
        for _ in range(spec.queries_per_cluster):
            target = own_docs[int(rng.integers(0, len(own_docs)))]
            text = _query_from_doc(doc_words[target.id], other_words[c], spec, rng)
            query_id = f"q{qnum:04d}"
            qnum += 1
            queries.append(Query(query_id, text))
            qrels.set(query_id, target.id, 1)

    neg_query_map: dict[str, list[str]] = {}
    for doc in corpus:
        other = other_words[doc_cluster[doc.id]]
        neg_query_map[doc.id] = [
            _query_from_doc(doc_words[doc.id], other, spec, rng)
            for _ in range(spec.neg_queries_per_doc)
        ]
    return SynthDataset(corpus, queries, qrels, neg_query_map)
