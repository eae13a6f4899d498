import json
import string
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from retrieval_lab import data
from retrieval_lab.data import (
    Document,
    Qrels,
    SynthSpec,
    TrainingExample,
    _as_text,
    _make_vocabulary,
    _sample_docs,
    _sample_queries,
    load_corpus,
    load_neg_query_map,
    load_qrels,
    load_queries,
    load_train_set,
    save_id_text,
    save_neg_query_map,
    save_qrels,
    save_train_set,
    synth_generate,
)
from retrieval_lab.encoder import _words


class TestIdTextLoaders:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "b", "text": "two"}\n'
                        '{"id": "a", "text": "one"}\n'
                        '{"id": "c", "text": "three"}\n')
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["b", "a", "c"]

    def test_duplicate_id_cites_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [f'{{"id": "d{i}", "text": "t{i}"}}' for i in range(6)]
        lines.append('{"id": "d2", "text": "dup"}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":7"):
            load_corpus(path)

    def test_malformed_json_cites_line(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"id": "a", "text": "x"}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            load_queries(path)

    @pytest.mark.parametrize("line, kind", [
        ('{"id": 5, "text": ["a", "b"]}', "list"), ('{"id": "b", "text": 7}', "int")],
        ids=["list", "int"])
    def test_non_string_text_cites_line(self, tmp_path, line, kind):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n' + line + "\n")
        match = rf"corpus\.jsonl:2: text must be a string, got {kind}$"
        with pytest.raises(ValueError, match=match):
            load_corpus(path)

    @pytest.mark.parametrize("value, kind", [
        ("null", "NoneType"), ('["x"]', "list"), ("1.5", "float"), ("true", "bool")],
        ids=["null", "list", "float", "bool"])
    def test_wrong_type_id_cites_line(self, tmp_path, value, kind):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 3, "text": "x"}\n{"id": ' + value + ', "text": "y"}\n')
        match = rf"corpus\.jsonl:2: id must be a string or an integer, got {kind}$"
        with pytest.raises(ValueError, match=match):
            load_corpus(path)

    def test_round_trip(self, tmp_path):
        docs = [Document("a", "alpha beta"), Document("b", "gamma")]
        path = tmp_path / "c.jsonl"
        save_id_text(docs, path)
        assert load_corpus(path) == docs


class TestQrels:
    def test_round_trip(self, tmp_path):
        qrels = Qrels()
        qrels.set("q1", "d1", 1)
        qrels.set("q1", "d2", 0)
        qrels.set("q2", "d3", 1)
        path = tmp_path / "qrels.tsv"
        save_qrels(qrels, path)
        loaded = load_qrels(path)
        assert loaded.judgments == qrels.judgments

    def test_relevant_docs(self):
        qrels = Qrels()
        qrels.set("q1", "d1", 1)
        qrels.set("q1", "d2", 0)
        assert qrels.relevant_docs("q1") == {"d1"}
        assert qrels.relevant_docs("missing") == set()

    def test_overwrite_to_zero_removes_doc(self):
        qrels = Qrels()
        qrels.set("q1", "d1", 1)
        qrels.set("q1", "d2", 1)
        qrels.set("q1", "d1", 0)
        assert qrels.relevant_docs("q1") == {"d2"}
        assert qrels.judgments[("q1", "d1")] == 0
        qrels.relevant_docs("q1").add("d9")  # caller gets a copy
        assert qrels.relevant_docs("q1") == {"d2"}

    def test_rejects_graded_relevance(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Qrels().set("q", "d", 2)

    @pytest.mark.parametrize("rel", ["+1", " 1", "01", "0_1", "\uff11", "2", "-0", "1.0", ""])
    def test_relevance_is_exactly_0_or_1(self, tmp_path, rel):
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q1\td1\t1\nq1\td2\t{rel}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_qrels(path)
        assert str(err.value) == f"{path}:2: relevance must be 0 or 1, got {rel!r}"

    def test_bad_line_cites_number(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq2\td2\n")
        with pytest.raises(ValueError, match=":2"):
            load_qrels(path)

    def test_repeated_pair_cites_both_lines(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq1\td2\t1\n\nq1\td1\t0\n")
        match = r"qrels\.tsv:4: duplicate judgment \('q1', 'd1'\) \(first seen on line 1\)$"
        with pytest.raises(ValueError, match=match):
            load_qrels(path)


class TestTrainSet:
    def test_example_without_neg_queries_is_valid(self):
        ex = TrainingExample(query="q", pos=["p"], neg=["n1", "n2"])
        assert ex.neg_queries is None

    def test_neg_queries_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            TrainingExample(query="q", pos=["p"], neg=["n1", "n2"],
                            neg_queries=[["a"]])

    def test_empty_inner_neg_queries(self):
        with pytest.raises(ValueError, match="at least one"):
            TrainingExample(query="q", pos=["p"], neg=["n"], neg_queries=[[]])

    def test_round_trip(self, tmp_path):
        examples = [
            TrainingExample(query="q1", pos=["p1"], neg=["n1", "n2"],
                            neg_queries=[["a"], ["b", "c"]]),
            TrainingExample(query="q2", pos=["p2", "p3"], neg=[]),
        ]
        path = tmp_path / "train.jsonl"
        save_train_set(examples, path)
        assert load_train_set(path) == examples

    def test_invalid_line_cites_number(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text('{"query": "q", "pos": ["p"]}\n{"query": "q2"}\n')
        with pytest.raises(ValueError, match=":2"):
            load_train_set(path)

    @pytest.mark.parametrize("line, field", [
        ('{"query": "q", "pos": "pp"}', "pos must be a list, got str"),
        ('{"query": "q", "pos": ["p"], "neg": "nn"}', "neg must be a list, got str"),
        ('{"query": "q", "pos": ["p"], "neg": ["n"], "neg_queries": "a"}',
         "neg_queries must be a list, got str"),
        ('{"query": "q", "pos": ["p"], "neg": ["n"], "neg_queries": ["ab"]}',
         r"neg_queries\[0\] must be a list, got str"),
    ])
    def test_string_where_list_belongs_cites_line(self, tmp_path, line, field):
        path = tmp_path / "train.jsonl"
        path.write_text('{"query": "q", "pos": ["p"]}\n' + line + "\n")
        match = rf"train\.jsonl:2: invalid training example \({field}\)"
        with pytest.raises(ValueError, match=match):
            load_train_set(path)

    @pytest.mark.parametrize("line, field", [
        ('{"query": ["a", "b"], "pos": ["p"], "neg": []}', "query must be a string, got list"),
        ('{"query": 7, "pos": ["p"]}', "query must be a string, got int"),
        ('{"query": "q", "pos": ["p", 3]}', r"pos\[1\] must be a string, got int"),
        ('{"query": "q", "pos": ["p"], "neg": [null]}', r"neg\[0\] must be a string, got NoneType"),
        ('{"query": "q", "pos": ["p"], "neg": ["n"], "neg_queries": [["a", ["b"]]]}',
         r"neg_queries\[0\]\[1\] must be a string, got list"),
    ])
    def test_non_string_text_cites_line(self, tmp_path, line, field):
        path = tmp_path / "train.jsonl"
        path.write_text('{"query": "q", "pos": ["p"]}\n' + line + "\n")
        match = rf"train\.jsonl:2: invalid training example \({field}\)$"
        with pytest.raises(ValueError, match=match):
            load_train_set(path)


class TestNegQueryMap:
    def test_round_trip(self, tmp_path):
        mapping = {"d1": ["q a", "q b"], "d0": ["q c"]}
        path = tmp_path / "neg_queries.jsonl"
        save_neg_query_map(mapping, path)
        assert load_neg_query_map(path) == mapping

    def test_duplicate_doc_rejected(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": "d", "queries": ["x"]}\n'
                        '{"doc_id": "d", "queries": ["y"]}\n')
        with pytest.raises(ValueError, match="duplicate"):
            load_neg_query_map(path)

    def test_string_queries_cite_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": "d", "queries": ["x"]}\n'
                        '{"doc_id": "e", "queries": "hello"}\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2: queries must be a list, got str$"):
            load_neg_query_map(path)

    @pytest.mark.parametrize("line, field", [
        ('{"doc_id": "e", "queries": [1, {"a": 2}]}', r"queries\[0\] must be a string, got int"),
        ('{"doc_id": "e", "queries": ["x", {"a": 2}]}', r"queries\[1\] must be a string, got dict"),
    ], ids=["int", "dict"])
    def test_non_string_query_cites_line(self, tmp_path, line, field):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": "d", "queries": ["x"]}\n' + line + "\n")
        with pytest.raises(ValueError, match=rf"m\.jsonl:2: {field}$"):
            load_neg_query_map(path)

    @pytest.mark.parametrize("value, message", [
        ("null", "need nonempty doc_id and queries"),
        ('["x"]', "doc_id must be a string or an integer, got list"),
        ("1.5", "doc_id must be a string or an integer, got float"),
        ("true", "doc_id must be a string or an integer, got bool"),
    ], ids=["null", "list", "float", "bool"])
    def test_wrong_type_doc_id_cites_line(self, tmp_path, value, message):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": 3, "queries": ["x"]}\n'
                        '{"doc_id": ' + value + ', "queries": ["y"]}\n')
        with pytest.raises(ValueError, match=rf"m\.jsonl:2: {message}$"):
            load_neg_query_map(path)

    def test_number_doc_id_matches_the_corpus_id(self, tmp_path):
        corpus, mapping = tmp_path / "c.jsonl", tmp_path / "m.jsonl"
        corpus.write_text('{"id": 5, "text": "five"}\n')
        mapping.write_text('{"doc_id": 5, "queries": ["q"]}\n')
        assert list(load_neg_query_map(mapping)) == [doc.id for doc in load_corpus(corpus)]
        mapping.write_text('{"doc_id": 5, "queries": ["q"]}\n{"doc_id": "5", "queries": ["r"]}\n')
        with pytest.raises(ValueError, match=r"m\.jsonl:2: duplicate doc_id '5'$"):
            load_neg_query_map(mapping)


@pytest.mark.parametrize("loader, first", [
    (load_corpus, '{"id": "a", "text": "x"}'),
    (load_queries, '{"id": "a", "text": "x"}'),
    (load_train_set, '{"query": "q", "pos": ["p"]}'),
    (load_neg_query_map, '{"doc_id": "d", "queries": ["x"]}'),
], ids=["corpus", "queries", "train_set", "neg_query_map"])
@pytest.mark.parametrize("line, kind", [
    ("[1, 2]", "list"), ('"text"', "str"), ("7", "int"), ("null", "NoneType")],
    ids=["list", "str", "int", "null"])
def test_non_object_line_cites_line(tmp_path, loader, first, line, kind):
    path = tmp_path / "f.jsonl"
    path.write_text(first + "\n" + line + "\n")
    with pytest.raises(ValueError, match=rf"f\.jsonl:2: expected a JSON object, got {kind}$"):
        loader(path)


@pytest.mark.parametrize("loader, line, field", [
    (load_corpus, '{"id": "b", "text": "!!! ---"}', "text"),
    (load_queries, '{"id": "b", "text": ""}', "text"),
    (load_train_set, '{"query": " ?", "pos": ["p"]}', r"invalid training example \(query"),
    (load_train_set, '{"query": "q", "pos": ["p", "..."]}', r"invalid training example \(pos\[1\]"),
    (load_train_set, '{"query": "q", "pos": ["p"], "neg": ["-"], "neg_queries": [["a"]]}',
     r"invalid training example \(neg\[0\]"),
    (load_train_set, '{"query": "q", "pos": ["p"], "neg": ["n"], "neg_queries": [["a", "+"]]}',
     r"invalid training example \(neg_queries\[0\]\[1\]"),
    (load_neg_query_map, '{"doc_id": "e", "queries": ["x", "\\t"]}', r"queries\[1\]"),
], ids=["corpus", "queries", "train_query", "train_pos", "train_neg", "train_neg_queries",
        "neg_query_map"])
def test_text_without_words_cites_line(tmp_path, loader, line, field):
    path = tmp_path / "f.jsonl"
    first = {load_train_set: '{"query": "q", "pos": ["p"]}',
             load_neg_query_map: '{"doc_id": "d", "queries": ["x"]}'}.get(
                 loader, '{"id": "a", "text": "x"}')
    path.write_text(first + "\n" + line + "\n")
    with pytest.raises(ValueError, match=rf"f\.jsonl:2: {field}.* has no word characters: "):
        loader(path)


# characters a JSON writer or a line reader could get wrong: quotes, escapes,
# controls, Unicode line breaks, a BOM and a character outside the BMP
_TRICKY = st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\r", "\t", "\x0b",
                           "\x0c", "\x85", "\u2028", "\u2029", "\ufeff", "\u3000", "\U0001f600",
                           "\U0001d518", "\u00e9", " ", "a"])
_CHARS = _TRICKY | st.characters(exclude_categories=["Cs"])
# an id is any nonempty string; a text needs a word character to load
_IDS = st.text(_CHARS, min_size=1, max_size=8)
_TEXTS = st.tuples(st.text(_CHARS, max_size=8), st.text(_CHARS, max_size=8)).map("w".join)


def _example(query, pos, negs):
    """A training example with ``neg_queries`` when every negative has queries."""
    neg = [text for text, _ in negs]
    neg_queries = [qs for _, qs in negs]
    return TrainingExample(query=query, pos=pos, neg=neg,
                           neg_queries=neg_queries if all(neg_queries) else None)


_EXAMPLES = st.builds(_example, _TEXTS, st.lists(_TEXTS, min_size=1, max_size=3),
                      st.lists(st.tuples(_TEXTS, st.lists(_TEXTS, max_size=2)), max_size=3))


def dumps_lines(objects) -> bytes:
    return "".join(json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"
                   for obj in objects).encode("utf-8")


def train_dict(ex: TrainingExample) -> dict:
    d = {"query": ex.query, "pos": ex.pos, "neg": ex.neg}
    if ex.neg_queries is not None:
        d["neg_queries"] = ex.neg_queries
    return d


class TestJsonlWriterBytes:
    """Every JSONL writer's bytes equal ``json.dumps(obj, sort_keys=True,
    ensure_ascii=False)`` plus ``\\n`` per object, and load back unchanged."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(items=st.dictionaries(_IDS, _TEXTS, max_size=6))
    def test_id_text(self, tmp_path, items):
        docs = [Document(doc_id, text) for doc_id, text in items.items()]
        path = tmp_path / "corpus.jsonl"
        save_id_text(docs, path)
        assert path.read_bytes() == dumps_lines({"id": d.id, "text": d.text} for d in docs)
        assert load_corpus(path) == docs

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mapping=st.dictionaries(_IDS, st.lists(_TEXTS, min_size=1, max_size=3), max_size=5))
    def test_neg_query_map(self, tmp_path, mapping):
        path = tmp_path / "neg_queries.jsonl"
        save_neg_query_map(mapping, path)
        assert path.read_bytes() == dumps_lines(
            {"doc_id": doc_id, "queries": mapping[doc_id]} for doc_id in sorted(mapping))
        assert load_neg_query_map(path) == mapping

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(examples=st.lists(_EXAMPLES, max_size=4), shared=_TEXTS)
    def test_train_set(self, tmp_path, examples, shared):
        # a text repeated within and across lines, with and without neg_queries
        examples += [TrainingExample(shared, [shared, shared], [shared], [[shared]]),
                     TrainingExample(shared, [shared], [shared])]
        path = tmp_path / "train.jsonl"
        save_train_set(examples, path)
        assert path.read_bytes() == dumps_lines(map(train_dict, examples))
        assert load_train_set(path) == examples


def _corpus_file(tmp_path, content: bytes):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(content)
    return path


class TestJsonlLines:
    """A JSONL line ends only at ``\\n`` after universal-newline translation."""

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_end_a_line(self, tmp_path, end):
        path = _corpus_file(tmp_path, f'{{"id": "a", "text": "x"}}{end}{end}'
                                      f'{{"id": "b", "text": "y"}}{end}oops{end}'.encode())
        with pytest.raises(ValueError, match=r"corpus\.jsonl:4: malformed JSON "
                                             r"\(Expecting value\)$"):
            load_corpus(path)
        path.write_bytes(path.read_bytes().replace(f"oops{end}".encode(), b""))
        assert load_corpus(path) == [Document("a", "x"), Document("b", "y")]

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"])
    def test_unicode_line_breaks_stay_in_the_text(self, tmp_path, char):
        path = _corpus_file(tmp_path, f'{{"id": "a", "text": "x{char}y"}}\n'
                                      f'{{"id": "b", "text": "z"}}\n'.encode())
        assert load_corpus(path) == [Document("a", f"x{char}y"), Document("b", "z")]

    @pytest.mark.parametrize("blank", [" ", "\x0b", "\u3000", "\t \x0c", ""])
    def test_whitespace_line_is_skipped(self, tmp_path, blank):
        path = _corpus_file(tmp_path, f'{{"id": "a", "text": "x"}}\n{blank}\n'
                                      f'{{"id": "b", "text": "y"}}\nnull\n'.encode())
        with pytest.raises(ValueError, match=r"corpus\.jsonl:4: expected a JSON object, "
                                             r"got NoneType$"):
            load_corpus(path)

    def test_surrounding_json_whitespace_is_accepted(self, tmp_path):
        path = _corpus_file(tmp_path, b' \t{"id": "a", "text": "x"}\t \r\n')
        assert load_corpus(path) == [Document("a", "x")]

    @pytest.mark.parametrize("content, lineno, message", [
        ('{"id": "a",\n"text": "x"}\n', 1, "Expecting property name enclosed in double quotes"),
        ('{"id": "a", "text": "x\ny"}\n', 1, "Invalid control character at"),
        ('{"id": "a", "text": "x"}\n{"id": "b", "text": "y', 2, "Unterminated string starting at"),
        ('{"id": "a", "text": "x"}{"id": "b", "text": "y"}\n', 1, "Extra data"),
        ('{"id": "a", "text": "x"}\n{"id": "b", "text": "y"} ,\n', 2, "Extra data"),
        ('{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\x0b\n', 2, "Extra data"),
        ('\ufeff{"id": "a", "text": "x"}\n', 1, "Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        ('{"id": "a", "text": "x"}\nnot json\n{"id": "a", "text": "x"}\n', 2,
         "Expecting value"),
    ], ids=["split-record", "newline-in-string", "unterminated-last-line", "two-records",
            "trailing-garbage", "trailing-vertical-tab", "bom", "first-fault-wins"])
    def test_malformed_line_cites_its_number(self, tmp_path, content, lineno, message):
        path = _corpus_file(tmp_path, content.encode())
        with pytest.raises(ValueError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}:{lineno}: malformed JSON ({message})"


@given(st.text(alphabet=" _-.!\t\u00e9\u0130\u00b2\u2160\u0300\u00aaa1", max_size=6))
def test_word_check_agrees_with_the_tokenizer(text):
    try:
        _as_text(text, "text")
    except ValueError:
        assert _words(text) == []
    else:
        assert _words(text) != []


class TestSynthGenerate:
    def test_reproducible_per_seed(self):
        spec = SynthSpec(num_clusters=3, docs_per_cluster=4, queries_per_cluster=2,
                         vocab_per_cluster=15, noise_rate=0.1)
        a = synth_generate(spec, 5)
        b = synth_generate(spec, 5)
        assert a.corpus == b.corpus
        assert a.queries == b.queries
        assert a.qrels.judgments == b.qrels.judgments
        assert a.neg_query_map == b.neg_query_map

    def test_different_seed_differs(self):
        spec = SynthSpec(num_clusters=2, docs_per_cluster=3, queries_per_cluster=1,
                         vocab_per_cluster=10, noise_rate=0.0)
        assert synth_generate(spec, 1).corpus != synth_generate(spec, 2).corpus

    def test_qrels_reference_existing_ids(self):
        spec = SynthSpec(num_clusters=4, docs_per_cluster=5, queries_per_cluster=3,
                         vocab_per_cluster=20, noise_rate=0.2)
        ds = synth_generate(spec, 9)
        doc_ids = {d.id for d in ds.corpus}
        query_ids = {q.id for q in ds.queries}
        for (qid, did), rel in ds.qrels.judgments.items():
            assert qid in query_ids and did in doc_ids and rel == 1

    def test_every_query_has_a_relevant_doc(self):
        spec = SynthSpec(num_clusters=2, docs_per_cluster=4, queries_per_cluster=3,
                         vocab_per_cluster=12, noise_rate=0.1)
        ds = synth_generate(spec, 11)
        for q in ds.queries:
            assert ds.qrels.relevant_docs(q.id)

    def test_neg_query_map_covers_every_doc(self):
        spec = SynthSpec(num_clusters=3, docs_per_cluster=6, queries_per_cluster=2,
                         vocab_per_cluster=15, noise_rate=0.1, neg_queries_per_doc=2)
        ds = synth_generate(spec, 13)
        assert set(ds.neg_query_map) == {d.id for d in ds.corpus}
        for queries in ds.neg_query_map.values():
            assert len(queries) == 2
            assert all(q for q in queries)

    def test_single_cluster_bow_retrieval_trivially_easy(self):
        spec = SynthSpec(num_clusters=1, docs_per_cluster=8, queries_per_cluster=4,
                         vocab_per_cluster=25, noise_rate=0.0)
        ds = synth_generate(spec, 15)
        # every doc shares the one cluster vocabulary with every query
        vocab = set()
        for d in ds.corpus:
            vocab.update(d.text.split())
        for q in ds.queries:
            assert set(q.text.split()) <= vocab

    def test_impossible_spec_rejected(self):
        with pytest.raises(ValueError, match="query_words"):
            SynthSpec(num_clusters=1, docs_per_cluster=1, queries_per_cluster=1,
                      vocab_per_cluster=5, noise_rate=0.0, doc_words=3, query_words=5)
        with pytest.raises(ValueError, match="noise_rate"):
            SynthSpec(noise_rate=1.0)

    def test_bag_of_words_oracle_separates_clusters(self):
        # cosine over word-count vectors must put each query's relevant doc
        # above every out-of-cluster doc for almost all queries
        spec = SynthSpec(num_clusters=10, docs_per_cluster=50, queries_per_cluster=10,
                         vocab_per_cluster=40, noise_rate=0.1)
        ds = synth_generate(spec, 1234)
        vocab = sorted({w for d in ds.corpus for w in d.text.split()}
                       | {w for q in ds.queries for w in q.text.split()})
        word_ix = {w: i for i, w in enumerate(vocab)}

        def bow(text):
            v = np.zeros(len(vocab))
            for w, c in Counter(text.split()).items():
                if w in word_ix:
                    v[word_ix[w]] = c
            return v

        doc_vecs = {d.id: bow(d.text) for d in ds.corpus}
        cluster_of = {d.id: int(d.id[1:]) // spec.docs_per_cluster for d in ds.corpus}
        wins = 0
        for q in ds.queries:
            rel = next(iter(ds.qrels.relevant_docs(q.id)))
            qv = bow(q.text)

            def cos(v):
                return float(qv @ v / (np.linalg.norm(qv) * np.linalg.norm(v) + 1e-12))

            rel_score = cos(doc_vecs[rel])
            out_scores = [cos(doc_vecs[d.id]) for d in ds.corpus
                          if cluster_of[d.id] != cluster_of[rel]]
            if rel_score > max(out_scores):
                wins += 1
        assert wins / len(ds.queries) > 0.95


def reference_sample_words(own, other, count, noise_rate, rng):
    """The per-word draws of document words that ``_row_run`` reads as rows: the oracle."""
    words = []
    for _ in range(count):
        pool = other if (other and rng.random() < noise_rate) else own
        words.append(pool[int(rng.integers(0, len(pool)))])
    return words


# Lemire's method redraws a 32-bit value v when (v * n) mod 2**32 < (2**32 - n) mod n;
# for this pool the bound is 2**31 - 1, so about half of all draws are redrawn.
REDRAW_POOL = range(2**31 + 1)


def warm_twins(seed, warm_draws):
    """Two equal generators after ``warm_draws`` 32-bit draws (odd sets ``has_uint32``)."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for rng in rngs:
        rng.integers(0, 7, size=warm_draws)
    assert rngs[0].bit_generator.state["has_uint32"] == warm_draws % 2
    return rngs


def row_run_words(own, other, count, noise_rate, rng, words):
    """``count`` document words (a multiple of ``words``) as ``_replay`` makes them
    from ``_row_run`` rows of ``words`` words, with ``quiet`` = len(own) and
    n_other = len(other); a redrawn row draws each word by ``_draw_word``."""
    def run(first):
        draws, noisy = data._row_run(count // words - first, [], words, len(own), len(other),
                                     noise_rate, rng)
        return [[(other if z else own)[i] for z, i in zip(*row)]
                for row in zip(noisy.tolist(), draws.tolist())]

    def one(_):
        return [data._draw_word(own, other, noise_rate, rng) for _ in range(words)]

    return [word for row in data._replay(count // words, run, one) for word in row]


def assert_bulk_matches_reference(seed, own, other, count, noise_rate, warm_draws, words=1):
    """Equal words, equal generator state after (the 32-bit buffer too) and equal
    draws after that; ``warm_draws`` 32-bit draws first set ``has_uint32`` when odd."""
    rngs = warm_twins(seed, warm_draws)
    assert (row_run_words(own, other, count, noise_rate, rngs[0], words)
            == reference_sample_words(own, other, count, noise_rate, rngs[1]))
    assert_same_generator(*rngs)


def assert_same_generator(got_rng, want_rng):
    """Equal PCG64 state, equal 32-bit buffer and equal draws after that."""
    got, want = got_rng.bit_generator.state, want_rng.bit_generator.state
    assert got["state"] == want["state"]
    assert got["has_uint32"] == want["has_uint32"]
    if want["has_uint32"]:
        assert got["uinteger"] == want["uinteger"]
    for _ in range(3):
        assert got_rng.integers(0, 1000) == want_rng.integers(0, 1000)
        assert got_rng.random() == want_rng.random()


def vocab(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


class TestSampleWordsBulkRead:
    """Document rows of ``_row_run`` against per-word numpy draws, with pools no
    ``SynthSpec`` makes: a range of 2**31 + 1 that numpy redraws about half the
    time, and an own pool larger than the other pool."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           own_size=st.integers(1, 60),
           other=st.one_of(st.integers(0, 300).map(lambda n: vocab("x", n)),
                           st.just(REDRAW_POOL)),
           redraw_own=st.booleans(),
           rows=st.integers(0, 40),
           words=st.integers(1, 4),
           noise_rate=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
           warm_draws=st.integers(0, 3))
    def test_equals_per_word_draws(self, seed, own_size, other, redraw_own, rows, words,
                                   noise_rate, warm_draws):
        own = REDRAW_POOL if redraw_own else vocab("o", own_size)
        assert_bulk_matches_reference(seed, own, other, rows * words, noise_rate, warm_draws,
                                      words)

    @pytest.mark.parametrize("warm_draws", [0, 1], ids=["has_uint32_unset", "has_uint32_set"])
    @pytest.mark.parametrize("count", [29, 30], ids=["odd_count", "even_count"])
    @pytest.mark.parametrize("seed", range(5))
    def test_entry_buffer_and_count_parity(self, seed, count, warm_draws):
        assert_bulk_matches_reference(seed, vocab("o", 40), vocab("x", 360), count, 0.3,
                                      warm_draws)

    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_empty_other_draws_no_noise(self, seed, warm_draws):
        assert_bulk_matches_reference(seed, vocab("o", 40), [], 31, 0.5, warm_draws)

    @pytest.mark.parametrize("own,other", [
        (vocab("o", 1), vocab("x", 5)),
        (vocab("o", 5), vocab("x", 1)),
        (vocab("o", 1), vocab("x", 1)),
        (vocab("o", 1), []),
    ], ids=["one_word_own", "one_word_other", "one_word_both", "one_word_own_no_other"])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_word_pool(self, seed, own, other):
        # one pool of one word and the other larger: the scan places each random()
        assert_bulk_matches_reference(seed, own, other, 30, 0.5, seed % 2, words=2)

    @pytest.mark.parametrize("own,other", [
        (REDRAW_POOL, []),
        (REDRAW_POOL, vocab("x", 50)),
        (vocab("o", 50), REDRAW_POOL),
    ], ids=["redraw_own_no_other", "redraw_own", "redraw_other"])
    @pytest.mark.parametrize("seed", range(5))
    def test_lemire_redraw(self, seed, own, other, monkeypatch):
        redrawn = count_calls(monkeypatch, "_draw_word")
        assert_bulk_matches_reference(seed, own, other, 60, 0.5, seed % 2, words=2)
        assert redrawn  # each redrawn row went through the per-word path


def reference_vocabulary(spec, rng):
    """The per-word draws that ``_make_vocabulary`` reads in bulk: the oracle."""
    taken, words = set(), []
    while len(words) < spec.num_clusters * spec.vocab_per_cluster:
        length = int(rng.integers(4, 8))
        word = "".join(string.ascii_lowercase[rng.integers(0, 26)] for _ in range(length))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def reference_docs(vocabulary, spec, rng):
    """The per-word draws that ``_sample_docs`` reads as rows: the oracle."""
    v, rows = spec.vocab_per_cluster, []
    for c in range(spec.num_clusters):
        own = list(vocabulary[c * v:(c + 1) * v])
        other = list(vocabulary[:c * v]) + list(vocabulary[(c + 1) * v:])
        rows += [reference_sample_words(own, other, spec.doc_words, spec.noise_rate, rng)
                 for _ in range(spec.docs_per_cluster)]
    return np.array(rows, dtype=object)


def reference_queries(first_doc, targets, docs, all_words, spec, rng):
    """The per-query draws that ``_sample_queries`` reads in bulk: the oracle."""
    v, texts, chosen = spec.vocab_per_cluster, [], []
    for first in first_doc:
        doc = int(first) + (int(rng.integers(0, spec.docs_per_cluster)) if targets else 0)
        c = doc // spec.docs_per_cluster
        other = list(all_words[:c * v]) + list(all_words[(c + 1) * v:])
        picked = rng.choice(len(docs[doc]), size=spec.query_words, replace=False)
        texts.append(" ".join([other[int(rng.integers(0, len(other)))]
                               if other and rng.random() < spec.noise_rate else docs[doc][i]
                               for i in picked]))
        chosen.append(doc)
    return texts, chosen


class CountingGenerator:
    """A numpy ``Generator`` that counts the calls made through it; bulk reads
    go to ``bit_generator``, which is not counted."""

    def __init__(self, rng):
        self.bit_generator, self._rng, self.calls = rng.bit_generator, rng, 0

    def __getattr__(self, name):  # reached only for names __init__ did not set
        self.calls += 1
        return getattr(self._rng, name)


def assert_replays_match_numpy(spec, seed, warm_draws):
    """``spec``'s vocabulary, documents, training queries and neg-map queries, in
    that order, equal numpy's own calls on a twin generator, which ends where
    numpy leaves it. Returns the numpy calls each replay made itself (only on a
    redraw, or for choice's tail shuffle). The replays draw from a vocabulary of
    distinct words, and the queries quote documents of distinct words."""
    replayed, numpy_rng = warm_twins(seed, warm_draws)
    counted = CountingGenerator(replayed)
    assert _make_vocabulary(spec, counted) == reference_vocabulary(spec, numpy_rng)
    calls = [counted.calls]
    all_words = np.array(vocab("v", spec.num_clusters * spec.vocab_per_cluster), dtype=object)
    counted.calls = 0
    assert (_sample_docs(all_words, spec, counted).tolist()
            == reference_docs(all_words, spec, numpy_rng).tolist())
    calls.append(counted.calls)
    n_docs = spec.num_clusters * spec.docs_per_cluster
    docs = np.array([vocab(f"d{i}w", spec.doc_words) for i in range(n_docs)], dtype=object)
    for first_doc, targets in [
            (np.arange(spec.num_clusters).repeat(spec.queries_per_cluster)
             * spec.docs_per_cluster, True),
            (np.arange(n_docs).repeat(spec.neg_queries_per_doc), False)]:
        counted.calls = 0
        assert (_sample_queries(first_doc, targets, docs, all_words, spec, counted)
                == reference_queries(first_doc, targets, docs, all_words, spec, numpy_rng))
        calls.append(counted.calls)
    assert_same_generator(replayed, numpy_rng)
    return calls


def force_redraws(monkeypatch):
    """Make ``_lemire`` report two draws mid-read as redrawn, so that the bulk
    replays make numpy's own calls there and then read on in bulk."""
    lemire = data._lemire

    def flagged(values, n):
        got, redrawn = lemire(values, n)
        redrawn[len(redrawn) // 2:len(redrawn) // 2 + 2] = True
        return got, redrawn

    monkeypatch.setattr(data, "_lemire", flagged)


def count_calls(monkeypatch, name):
    """A list that gains the arguments of each call of ``data.<name>``."""
    calls, func = [], getattr(data, name)
    monkeypatch.setattr(data, name, lambda *args: calls.append(args) or func(*args))
    return calls


def query_runs(row_runs):
    """The ``_row_run`` calls among ``row_runs`` that read queries: a query row
    has fixed draws (Floyd's picks at least), a document row none."""
    return [args for args in row_runs if args[1]]


def query_spec(doc_words, query_words):
    return SynthSpec(num_clusters=2, docs_per_cluster=1, queries_per_cluster=2,
                     vocab_per_cluster=3, noise_rate=0.3, doc_words=doc_words,
                     query_words=query_words)


# one spec per draw of one value (Floyd's first pick at query_words == doc_words,
# the target at one document per cluster, the swap from a one-word pool, a
# document's own word from a one-word pool), per run without random() (one
# cluster) and per run without a noise swap. one_word_own_pool is the only
# document case where words draw unequal numbers of values (a noisy word one,
# the others none), so the only one whose random() positions take the scan.
EDGE_SPECS = {
    "query_words_eq_doc_words": SynthSpec(num_clusters=3, docs_per_cluster=4,
                                          vocab_per_cluster=8, doc_words=6, query_words=6),
    "one_doc_per_cluster": SynthSpec(num_clusters=3, docs_per_cluster=1, noise_rate=0.3),
    "one_cluster": SynthSpec(num_clusters=1, docs_per_cluster=5),
    "one_word_other_pool": SynthSpec(num_clusters=2, vocab_per_cluster=1, docs_per_cluster=4,
                                     doc_words=8, query_words=4, noise_rate=0.5),
    "no_noise": SynthSpec(num_clusters=3, docs_per_cluster=4, neg_queries_per_doc=3,
                          noise_rate=0.0),
    "one_word_own_pool": SynthSpec(num_clusters=3, vocab_per_cluster=1, docs_per_cluster=4,
                                   doc_words=8, query_words=4, noise_rate=0.5),
}


class TestDrawsReplayNumpy:
    """The bulk replays of the vocabulary, document and query draws,
    ``_make_vocabulary``, ``_sample_docs`` and ``_sample_queries``, against
    numpy's own calls on twin generators."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), warm_draws=st.integers(0, 3),
           sizes=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 4),
                           st.integers(1, 12), st.integers(1, 12), st.integers(1, 3)),
           query_share=st.floats(0.0, 1.0), noise_rate=st.floats(0.0, 0.99))
    def test_interleaved_calls(self, seed, warm_draws, sizes, query_share, noise_rate):
        clusters, docs, queries, vocab_size, doc_words, neg_queries = sizes
        spec = SynthSpec(num_clusters=clusters, docs_per_cluster=docs,
                         queries_per_cluster=queries, vocab_per_cluster=vocab_size,
                         noise_rate=noise_rate, doc_words=doc_words,
                         query_words=max(1, round(query_share * doc_words)),
                         neg_queries_per_doc=neg_queries)
        assert_replays_match_numpy(spec, seed, warm_draws)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), warm_draws=st.integers(0, 1),
           n=st.one_of(st.integers(2, 2**32), st.sampled_from([2**31 + 1, 2**32 - 1, 2**32])))
    def test_lemire_matches_integers(self, seed, warm_draws, n):
        replayed, numpy_rng = warm_twins(seed, warm_draws)
        value = replayed.integers(0, 2**32, dtype=np.uint64)  # one 32-bit draw, as drawn
        got, redrawn = data._lemire(np.array([value], dtype=np.uint64), n)
        want = numpy_rng.integers(0, n)
        # numpy read one value unless it rejected it and drew again
        assert (replayed.bit_generator.state == numpy_rng.bit_generator.state) != redrawn[0]
        assert redrawn[0] or got[0] == want

    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_value_range_draws_nothing(self, seed, warm_draws):
        spec = SynthSpec(num_clusters=2, docs_per_cluster=1, vocab_per_cluster=1,
                         doc_words=4, query_words=4, noise_rate=0.5)
        assert assert_replays_match_numpy(spec, seed, warm_draws) == [0, 0, 0, 0]
        # every document and query draw of this spec has one value: nothing is read
        spec = SynthSpec(num_clusters=1, docs_per_cluster=1, vocab_per_cluster=1,
                         doc_words=2, query_words=1)
        rng = warm_twins(seed, warm_draws)[0]
        before = rng.bit_generator.state
        vocabulary = np.array(["w"], dtype=object)
        docs = _sample_docs(vocabulary, spec, rng)
        assert docs.tolist() == [["w", "w"]]
        spec = SynthSpec(num_clusters=1, docs_per_cluster=1, doc_words=1, query_words=1)
        assert (_sample_queries(np.zeros(3, dtype=int), True, docs[:, :1], vocabulary, spec, rng)
                == (["w"] * 3, [0] * 3))
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("spec", EDGE_SPECS.values(), ids=EDGE_SPECS.keys())
    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(2))
    def test_edge_branches(self, seed, warm_draws, spec):
        assert assert_replays_match_numpy(spec, seed, warm_draws) == [0, 0, 0, 0]

    @pytest.mark.parametrize("seed", [1, 2027])
    def test_benchmark_spec_reads_in_bulk_only(self, seed):
        spec = SynthSpec(num_clusters=100, docs_per_cluster=50, queries_per_cluster=20,
                         vocab_per_cluster=40)
        assert assert_replays_match_numpy(spec, seed, 0) == [0, 0, 0, 0]

    @pytest.mark.parametrize("sizes", [(100, 50, 20), (10, 50, 10), (100, 5, 1)],
                             ids=["retrieve-5k", "train-dense-clp", "train-moe-wide"])
    @pytest.mark.parametrize("seed", [1, 2027])
    def test_benchmark_synth_makes_no_numpy_call(self, seed, sizes, monkeypatch):
        # the synth sizes of perfbench/run.py's workloads: a redraw or a draw
        # that leaves the bulk reads would show here as a Generator method call
        made, make_rng = [], data.make_rng
        monkeypatch.setattr(data, "make_rng",
                            lambda s: made.append(CountingGenerator(make_rng(s))) or made[-1])
        synth_generate(SynthSpec(*sizes, vocab_per_cluster=40), seed)
        assert [rng.calls for rng in made] == [0]

    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(10))
    def test_lemire_redraw(self, seed, warm_draws, monkeypatch):
        force_redraws(monkeypatch)
        spec = SynthSpec(num_clusters=3, docs_per_cluster=4, queries_per_cluster=5,
                         vocab_per_cluster=6, noise_rate=0.4)
        # each replay made numpy's own calls at a redraw, and read on in bulk after it
        assert all(assert_replays_match_numpy(spec, seed, warm_draws))

    @pytest.mark.parametrize("warm_draws", [0, 1])
    def test_vocabulary_drops_a_repeated_word(self, warm_draws):
        spec, seed = SynthSpec(num_clusters=20, vocab_per_cluster=40), 34
        assert assert_replays_match_numpy(spec, seed, warm_draws)[0] == 0
        rng, total = warm_twins(seed, warm_draws)[0], 20 * 40
        drawn = ["".join(string.ascii_lowercase[rng.integers(0, 26)]
                         for _ in range(int(rng.integers(4, 8)))) for _ in range(total + 1)]
        assert len(set(drawn)) == total  # the vocabulary draws one word twice

    @pytest.mark.parametrize("n,k", [(30, 5), (10000, 9000), (10001, 200)],
                             ids=["floyd_small", "floyd_n_10000", "floyd_k_n_over_50"])
    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(2))
    def test_choice_floyd(self, seed, warm_draws, n, k, monkeypatch):
        # ranges near 10,000 are redrawn now and then (in the neg-map run of
        # floyd_n_10000 at seed 1 after one 32-bit draw), so calls are not
        # counted; but the bulk read runs
        runs = count_calls(monkeypatch, "_row_run")
        assert_replays_match_numpy(query_spec(n, k), seed, warm_draws)
        assert query_runs(runs)

    @pytest.mark.parametrize("n,k", [(10001, 201), (20000, 20000)],
                             ids=["tail_k_over_n_over_50", "tail_all"])
    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(2))
    def test_choice_tail_shuffle(self, seed, warm_draws, n, k, monkeypatch):
        # numpy's own calls make every query; the documents are read in bulk
        runs = count_calls(monkeypatch, "_row_run")
        calls = assert_replays_match_numpy(query_spec(n, k), seed, warm_draws)
        assert calls[:2] == [0, 0] and all(calls[2:]) and not query_runs(runs)


def numpy_synth(spec, seed):
    """``synth_generate`` with every bulk replay swapped for numpy's own calls."""
    with mock.patch.multiple(data, _make_vocabulary=reference_vocabulary,
                             _sample_docs=reference_docs,
                             _sample_queries=reference_queries):
        return synth_generate(spec, seed)


class TestSynthEqualsNumpyDraws:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sizes=st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 4),
                           st.integers(1, 12), st.integers(1, 12), st.integers(1, 3)),
           query_share=st.floats(0.0, 1.0),
           noise_rate=st.floats(0.0, 0.99))
    def test_small_specs(self, seed, sizes, query_share, noise_rate):
        clusters, docs, queries, vocab, doc_words, neg_queries = sizes
        spec = SynthSpec(num_clusters=clusters, docs_per_cluster=docs,
                         queries_per_cluster=queries, vocab_per_cluster=vocab,
                         noise_rate=noise_rate, doc_words=doc_words,
                         query_words=max(1, round(query_share * doc_words)),
                         neg_queries_per_doc=neg_queries)
        assert synth_generate(spec, seed) == numpy_synth(spec, seed)

    @pytest.mark.parametrize("spec", [
        SynthSpec(num_clusters=1, docs_per_cluster=1, doc_words=10001, query_words=201,
                  queries_per_cluster=2),
        SynthSpec(num_clusters=3, docs_per_cluster=6, queries_per_cluster=2,
                  vocab_per_cluster=15),
    ], ids=["tail_shuffle", "acceptance_like"])
    def test_named_specs(self, spec):
        assert synth_generate(spec, 1) == numpy_synth(spec, 1)
