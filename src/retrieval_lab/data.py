"""Corpus/query/qrels/training-set files plus a deterministic synthetic generator.

File formats (all UTF-8; ``_lines`` reads each line file, and names one that is not UTF-8):
  corpus.jsonl, queries.jsonl   {"id": "...", "text": "..."} per line, each a ``Document``
  qrels.tsv                     query_id<TAB>doc_id<TAB>relevance(0|1), no header
  train.jsonl                   {"query", "pos": [...], "neg": [...], "neg_queries": [[...], ...]}
  neg_queries.jsonl             {"doc_id": "...", "queries": [...]} per line

A JSONL line is byte-equal to ``json.dumps(obj, sort_keys=True, ensure_ascii=False)``.
train.jsonl lines are that call. The corpus, query and neg-query-map lines have one
fixed shape each, so they are filled from the ``json.encoder.encode_basestring``
strings that json.dumps uses, in under half its time.

One function per input rule: ``_read_jsonl`` and ``_read_tsv`` prefix ``path:line`` to every
fault of a record, ``_unique`` names a repeated key (id, doc_id, judgment, ranked pair) and
both lines, and ``_as_id`` takes an id: a nonempty string, or an integer. A train.jsonl
line with a key other than the four above is rejected; ``Qrels`` reads its judgments once.

The generator builds clustered bag-of-words data: clusters own disjoint
vocabularies, queries quote words from their relevant document, and every
document gets standalone queries of its own so it can serve as somebody
else's hard negative with known positive queries attached. Each kind of draw
(vocabulary, documents, training queries, neg-map queries) comes from its own
child stream of the seed, as whole vectorized numpy arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .encoder import _TOKEN_RE
from .numerics import _atomic_open, make_rng


@dataclass(frozen=True)
class Document:
    id: str
    text: str


Query = Document  # a query row is an id/text record too


@dataclass
class Qrels:
    """Binary relevance judgments; absent pairs count as 0."""

    judgments: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        self._relevant: dict[str, set[str]] = {}  # query_id -> docs judged 1
        for (qid, did), rel in self.judgments.items():
            if rel not in (0, 1):
                raise ValueError(f"relevance must be 0 or 1, got {rel}")
            if rel:
                self._relevant.setdefault(qid, set()).add(did)

    def relevant_docs(self, query_id: str) -> set[str]:
        return set(self._relevant.get(query_id, ()))


@dataclass
class TrainingExample:
    """(query, positives, mined negatives, negatives' own positive queries).

    Training uses ``pos[0]`` only. ``mine_dataset`` writes every relevant
    document, sorted by id; the others only keep their documents out of the
    negatives."""

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


def _lines(path: str | Path):
    """(line number, line) per nonblank line of ``path``, split as universal newlines split;
    a file that is not UTF-8 raises a ``ValueError`` naming ``path``, as ``_reading`` does."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.strip():
                    yield lineno, line
        except UnicodeDecodeError as err:  # its position is in the decoded buffer, not the line
            raise ValueError(f"{path}: {err}") from err


def _read_jsonl(path: str | Path, parse):
    """(line, ``parse(obj)``) per nonblank line's JSON object. A fault of the line or from
    ``parse`` (``KeyError``: a missing field) names ``path:line``."""
    decode = json.JSONDecoder().raw_decode
    for lineno, line in _lines(path):
        body = line.strip(" \t\r\n")  # what json.loads skips around the value
        try:
            obj, end = decode(body)
        except json.JSONDecodeError:
            end = -1
        try:
            if end != len(body):  # rejected: json.loads words the error
                obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
            record = parse(obj)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{lineno}: malformed JSON ({err.msg})") from err
        except KeyError as err:
            raise ValueError(f"{path}:{lineno}: missing field {err.args[0]!r}") from err
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
        yield lineno, record


def _unique(path: str | Path, records, name: str, key):
    """The (line number, record) pairs read from ``path``, passed on while no
    ``key(record)`` repeats; a repeated one raises, naming it and both lines."""
    first: dict = {}
    for lineno, record in records:
        if (k := key(record)) in first:
            raise ValueError(f"{path}:{lineno}: duplicate {name} {k!r} "
                             f"(first seen on line {first[k]})")
        first[k] = lineno
        yield lineno, record


def load_corpus(path: str | Path) -> list[Document]:
    """The id/text records of a corpus.jsonl or queries.jsonl file."""
    def parse(obj):
        return Document(id=_as_id(obj["id"], "id"), text=_as_text(obj["text"], "text"))

    return [item for _, item in _unique(path, _read_jsonl(path, parse), "id", lambda i: i.id)]


load_queries = load_corpus


def _array(texts) -> str:
    """``json.dumps(texts, ensure_ascii=False)`` of a list of strings."""
    return "[" + ", ".join(map(encode_basestring, texts)) + "]"


def save_id_text(items, path: str | Path) -> None:
    q = encode_basestring
    with _atomic_open(path) as fh:
        fh.writelines(f'{{"id": {q(item.id)}, "text": {q(item.text)}}}\n' for item in items)


def _read_tsv(path: str | Path, fields: int, parse):
    """(line, ``parse(*parts)``) per nonblank line of ``path``, split at tabs into ``fields``
    parts. A fault of the line or from ``parse`` names ``path:line``."""
    for lineno, line in _lines(path):
        parts = line.rstrip("\n").split("\t")
        try:
            if len(parts) != fields:
                raise ValueError(f"expected {fields} tab-separated fields")
            record = parse(*parts)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
        yield lineno, record


def load_qrels(path: str | Path) -> Qrels:
    def parse(qid, did, rel):
        if rel not in ("0", "1"):
            raise ValueError(f"relevance must be 0 or 1, got {rel!r}")
        return (_as_id(qid, "query_id"), _as_id(did, "doc_id")), int(rel)

    return Qrels(dict(j for _, j in _unique(path, _read_tsv(path, 3, parse), "judgment",
                                            lambda j: j[0])))


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
    """``value`` if it is a nonempty string; an integer (not ``bool``) in its ``str()`` form."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{name} must be a string or an integer, got {type(value).__name__}")
    if value == "":
        raise ValueError(f"{name} must be nonempty")
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
    def parse(obj):
        if unknown := sorted(obj.keys() - {f.name for f in fields(TrainingExample)}):
            raise ValueError(f"unknown fields {unknown}")
        neg_queries = obj.get("neg_queries")
        if neg_queries is not None:
            neg_queries = [_as_texts(qs, f"neg_queries[{j}]")
                           for j, qs in enumerate(_as_list(neg_queries, "neg_queries"))]
        return TrainingExample(
            query=_as_text(obj["query"], "query"),
            pos=_as_texts(obj["pos"], "pos"),
            neg=_as_texts(obj.get("neg", []), "neg"),
            neg_queries=neg_queries,
        )

    return [example for _, example in _read_jsonl(path, parse)]


def save_train_set(examples: list[TrainingExample], path: str | Path) -> None:
    with _atomic_open(path) as fh:  # a line leaves out neg_queries when it is None
        fh.writelines(json.dumps({k: v for k, v in vars(ex).items() if v is not None},
                                 sort_keys=True, ensure_ascii=False) + "\n" for ex in examples)


def load_neg_query_map(path: str | Path) -> dict[str, list[str]]:
    """doc_id -> texts of that document's own positive queries."""
    def parse(obj):
        doc_id, queries = _as_id(obj["doc_id"], "doc_id"), _as_texts(obj["queries"], "queries")
        if not queries:
            raise ValueError("queries must be nonempty")
        return doc_id, queries  # doc_id read as a corpus id

    return dict(e for _, e in _unique(path, _read_jsonl(path, parse), "doc_id", lambda e: e[0]))


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


def _make_vocabulary(spec: SynthSpec, rng) -> np.ndarray:
    """Distinct lowercase words of 4 to 7 letters, cluster c's in the c-th block of
    vocab_per_cluster: per word an ``integers(4, 8)`` length and 7
    ``integers(97, 123)`` letter codes, of which the first length are kept. A word
    drawn before is dropped, and as many words as are missing are drawn again."""
    total = spec.num_clusters * spec.vocab_per_cluster
    words: dict[str, None] = {}  # insertion-ordered set
    while len(words) < total:
        n = total - len(words)
        lengths = rng.integers(4, 8, size=n).tolist()
        text = rng.integers(97, 123, size=(n, 7), dtype=np.uint8).tobytes().decode()
        words.update(dict.fromkeys(text[7 * i:7 * i + k] for i, k in enumerate(lengths)))
    return np.array(list(words), dtype=object)


def _add_noise(words, doc, spec: SynthSpec, rng):
    """``words`` (vocabulary indices, one row per document in ``doc``) with each
    word where ``random() < noise_rate`` swapped for an ``integers(0, V - v)``
    word shifted past its document's cluster block (V words, v per cluster).
    With one cluster there is no other word, and nothing is drawn."""
    if spec.num_clusters == 1:
        return words
    v = spec.vocab_per_cluster
    noisy = rng.random(words.shape) < spec.noise_rate
    other = rng.integers(0, (spec.num_clusters - 1) * v, size=words.shape)
    block = (doc // spec.docs_per_cluster * v)[:, None]
    return np.where(noisy, other + v * (other >= block), words)


def _documents(spec: SynthSpec, rng):
    """Vocabulary indices of every document, one row each: doc_words
    ``integers(0, v)`` words of its cluster's block, then noise."""
    doc = np.arange(spec.num_clusters * spec.docs_per_cluster)
    own = (doc // spec.docs_per_cluster * spec.vocab_per_cluster)[:, None]
    own = own + rng.integers(0, spec.vocab_per_cluster, size=(len(doc), spec.doc_words))
    return _add_noise(own, doc, spec, rng)


def _quote(doc, docs, spec: SynthSpec, rng):
    """One query per document in ``doc``: the words at the first query_words
    columns of ``argsort(random())`` over its row of ``docs``, with noise."""
    picks = np.argsort(rng.random((len(doc), spec.doc_words)), axis=1)[:, :spec.query_words]
    return _add_noise(docs[doc[:, None], picks], doc, spec, rng)


def synth_generate(spec: SynthSpec, seed: int) -> SynthDataset:
    """Deterministic clustered corpus, queries, qrels and per-document queries.

    Cluster vocabularies are disjoint; every query's relevant document is in
    its cluster and contributes the query's words (minus noise). The
    neg-query map covers every document.

    Each kind of draw has its own child stream of ``SeedSequence(seed)``, in
    this order: vocabulary, documents, training queries, neg-map queries. A
    new kind of draw takes the next child: ``spawn`` children do not depend on
    how many are spawned, so it moves no existing file's bytes. The bytes do
    depend on the algorithms of numpy's ``Generator``; the pinned bundle
    hashes in the tests catch a change there.
    """
    vocab_rng, doc_rng, query_rng, neg_rng = map(make_rng, np.random.SeedSequence(seed).spawn(4))
    vocabulary = _make_vocabulary(spec, vocab_rng)

    def texts(words):
        return list(map(" ".join, vocabulary[words].tolist()))

    docs = _documents(spec, doc_rng)
    doc, per = np.arange(len(docs)), spec.docs_per_cluster
    corpus = [Document(f"d{i:05d}", text) for i, text in enumerate(texts(docs))]

    first = np.arange(0, len(corpus), per).repeat(spec.queries_per_cluster)
    targets = first + query_rng.integers(0, per, size=len(first))
    queries = [Query(f"q{i:04d}", text)
               for i, text in enumerate(texts(_quote(targets, docs, spec, query_rng)))]
    qrels = Qrels({(query.id, corpus[t].id): 1 for query, t in zip(queries, targets.tolist())})
    k = spec.neg_queries_per_doc
    neg = texts(_quote(doc.repeat(k), docs, spec, neg_rng))
    neg_query_map = {d.id: neg[i * k:(i + 1) * k] for i, d in enumerate(corpus)}
    return SynthDataset(corpus, queries, qrels, neg_query_map)
