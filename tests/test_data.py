import json
import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from retrieval_lab import data
from retrieval_lab.data import (
    Document,
    Qrels,
    Query,
    SynthDataset,
    SynthSpec,
    TrainingExample,
    _as_text,
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
from retrieval_lab.evaluation import load_run
from retrieval_lab.numerics import make_rng


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

    def test_empty_id_cites_line(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{"id": "", "text": "y"}\n')
        with pytest.raises(ValueError, match=r"queries\.jsonl:2: id must be nonempty$"):
            load_queries(path)

    def test_round_trip(self, tmp_path):
        docs = [Document("a", "alpha beta"), Document("b", "gamma")]
        path = tmp_path / "c.jsonl"
        save_id_text(docs, path)
        assert load_corpus(path) == docs

    def test_a_query_row_is_a_document(self):
        # one id/text record and one reader; both names stay bound
        assert Query is Document and load_queries is load_corpus


class TestQrels:
    def test_round_trip(self, tmp_path):
        qrels = Qrels({("q1", "d1"): 1, ("q1", "d2"): 0, ("q2", "d3"): 1})
        path = tmp_path / "qrels.tsv"
        save_qrels(qrels, path)
        loaded = load_qrels(path)
        assert loaded.judgments == qrels.judgments

    def test_relevant_docs(self):
        qrels = Qrels({("q1", "d1"): 1, ("q1", "d2"): 0})
        assert qrels.relevant_docs("q1") == {"d1"}
        assert qrels.relevant_docs("missing") == set()

    def test_overwrite_to_zero_removes_doc(self):
        qrels = Qrels({("q1", "d1"): 0, ("q1", "d2"): 1})
        assert qrels.relevant_docs("q1") == {"d2"}
        assert qrels.judgments[("q1", "d1")] == 0
        qrels.relevant_docs("q1").add("d9")  # caller gets a copy
        assert qrels.relevant_docs("q1") == {"d2"}

    def test_rejects_graded_relevance(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Qrels({("q", "d"): 2})

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

    @pytest.mark.parametrize("line", ["q2\td2", "q2\td2\t1\t", "q2 d2 1"])
    def test_wrong_field_count_cites_line(self, tmp_path, line):
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q1\td1\t1\n{line}\n")
        with pytest.raises(ValueError, match=r"qrels\.tsv:2: expected 3 tab-separated fields$"):
            load_qrels(path)

    @pytest.mark.parametrize("line, field", [("q1\t\t1", "doc_id"), ("\td1\t1", "query_id")])
    def test_empty_id_cites_line(self, tmp_path, line, field):
        # judged relevant, an empty doc_id would score q1 0.0 against any real ranking
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q0\td0\t1\n{line}\n")
        with pytest.raises(ValueError, match=rf"qrels\.tsv:2: {field} must be nonempty$"):
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

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match=r"^query must be nonempty$"):
            TrainingExample(query="", pos=["p"])

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
        match = rf"train\.jsonl:2: {field}$"
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
        match = rf"train\.jsonl:2: {field}$"
        with pytest.raises(ValueError, match=match):
            load_train_set(path)

    @pytest.mark.parametrize("line, message", [
        ('{"pos": ["p"]}', "missing field 'query'"),
        ('{"query": "q", "neg": ["n"]}', "missing field 'pos'"),
        ('{"query": "q", "pos": []}', "pos must contain at least one text"),
        # a misspelled field would otherwise load as an example without negatives
        ('{"query": "q", "pos": ["p"], "negs": ["n"]}', r"unknown fields \['negs'\]"),
        ('{"query": "q", "poss": ["p"], "Neg": []}', r"unknown fields \['Neg', 'poss'\]"),
    ], ids=["no_query", "no_pos", "empty_pos", "unknown_field", "unknown_fields"])
    def test_fault_reads_like_other_loaders(self, tmp_path, line, message):
        path = tmp_path / "train.jsonl"
        path.write_text('{"query": "q", "pos": ["p"]}\n' + line + "\n")
        with pytest.raises(ValueError, match=rf"train\.jsonl:2: {message}$"):
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
        ("null", "doc_id must be a string or an integer, got NoneType"),
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

    @pytest.mark.parametrize("line, message", [
        ('{"queries": ["y"]}', "missing field 'doc_id'"),
        ('{"doc_id": "", "queries": ["y"]}', "doc_id must be nonempty"),
        ('{"doc_id": "e"}', "missing field 'queries'"),
        ('{"doc_id": "e", "queries": []}', "queries must be nonempty"),
    ], ids=["no_doc_id", "empty_doc_id", "no_queries", "empty_queries"])
    def test_each_field_fault_is_named(self, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": "d", "queries": ["x"]}\n' + line + "\n")
        with pytest.raises(ValueError, match=rf"m\.jsonl:2: {message}$"):
            load_neg_query_map(path)

    def test_number_doc_id_matches_the_corpus_id(self, tmp_path):
        corpus, mapping = tmp_path / "c.jsonl", tmp_path / "m.jsonl"
        corpus.write_text('{"id": 5, "text": "five"}\n')
        mapping.write_text('{"doc_id": 5, "queries": ["q"]}\n')
        assert list(load_neg_query_map(mapping)) == [doc.id for doc in load_corpus(corpus)]
        mapping.write_text('{"doc_id": 5, "queries": ["q"]}\n{"doc_id": "5", "queries": ["r"]}\n')
        with pytest.raises(ValueError,
                           match=r"m\.jsonl:2: duplicate doc_id '5' \(first seen on line 1\)$"):
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
    (load_train_set, '{"query": " ?", "pos": ["p"]}', "query"),
    (load_train_set, '{"query": "q", "pos": ["p", "..."]}', r"pos\[1\]"),
    (load_train_set, '{"query": "q", "pos": ["p"], "neg": ["-"], "neg_queries": [["a"]]}',
     r"neg\[0\]"),
    (load_train_set, '{"query": "q", "pos": ["p"], "neg": ["n"], "neg_queries": [["a", "+"]]}',
     r"neg_queries\[0\]\[1\]"),
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


@pytest.mark.parametrize("loader, first", [
    (load_corpus, '{"id": "a", "text": "x"}'),
    (load_qrels, "q\td\t1"),
    (load_train_set, '{"query": "q", "pos": ["p"]}'),
    (load_neg_query_map, '{"doc_id": "d", "queries": ["x"]}'),
    (load_run, "q\t1\td\t0.5"),
], ids=["corpus", "qrels", "train_set", "neg_query_map", "run"])
def test_file_not_utf8_names_itself(tmp_path, loader, first):
    # 0xE9 is Latin-1's e-acute: in UTF-8 it starts a sequence that "x" cannot continue
    path = tmp_path / "f.txt"
    path.write_bytes(first.encode() + b"\n\xe9x\n")
    with pytest.raises(ValueError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}: 'utf-8' codec can't decode byte 0xe9 in position ")


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


# the edge cases of the bundles pinned in tests/test_cli.py: a document longer
# than 10,000 words, draws of one value (one document per cluster, one-word
# pools), one cluster (no noise word exists), query_words == doc_words, several
# neg queries per document and zero noise
EDGE_SPECS = {
    "10001-doc-words": SynthSpec(num_clusters=1, docs_per_cluster=1, queries_per_cluster=2,
                                 doc_words=10001, query_words=201),
    "noise-swaps": SynthSpec(num_clusters=2, docs_per_cluster=2, queries_per_cluster=1,
                             vocab_per_cluster=3, noise_rate=0.5, neg_queries_per_doc=3),
    "query-words-eq-doc-words": SynthSpec(num_clusters=3, docs_per_cluster=4,
                                          queries_per_cluster=3, vocab_per_cluster=8,
                                          doc_words=6, query_words=6, noise_rate=0.3),
    "one-doc-per-cluster": SynthSpec(num_clusters=3, docs_per_cluster=1, queries_per_cluster=4,
                                     vocab_per_cluster=10, noise_rate=0.3),
    "one-cluster": SynthSpec(num_clusters=1, docs_per_cluster=5, queries_per_cluster=4,
                             vocab_per_cluster=10),
    "one-word-other-pool": SynthSpec(num_clusters=2, vocab_per_cluster=1, docs_per_cluster=4,
                                     queries_per_cluster=3, doc_words=8, query_words=4,
                                     noise_rate=0.5),
    "one-word-vocabularies": SynthSpec(num_clusters=2, vocab_per_cluster=1, doc_words=1,
                                       query_words=1, noise_rate=0.9),
    "three-neg-queries-no-noise": SynthSpec(num_clusters=3, docs_per_cluster=4,
                                            queries_per_cluster=2, vocab_per_cluster=10,
                                            neg_queries_per_doc=3, noise_rate=0.0),
}


def word_clusters(spec, seed) -> dict[str, int]:
    """word -> its cluster, from the vocabulary that synth_generate draws from
    the first child stream of SeedSequence(seed)."""
    rng = make_rng(np.random.SeedSequence(seed).spawn(1)[0])
    vocabulary = data._make_vocabulary(spec, rng).tolist()
    return {word: i // spec.vocab_per_cluster for i, word in enumerate(vocabulary)}


def cluster(doc_id: str, spec) -> int:
    return int(doc_id[1:]) // spec.docs_per_cluster


def quoted_pairs(ds):
    """(words, id of the document quoted) of every training and neg-map query."""
    for query in ds.queries:
        (doc_id,) = ds.qrels.relevant_docs(query.id)
        yield query.text.split(), doc_id
    for doc_id, texts in ds.neg_query_map.items():
        for text in texts:
            yield text.split(), doc_id


def save_bundle(ds, outdir) -> dict[str, bytes]:
    outdir.mkdir()
    save_id_text(ds.corpus, outdir / "corpus.jsonl")
    save_id_text(ds.queries, outdir / "queries.jsonl")
    save_qrels(ds.qrels, outdir / "qrels.tsv")
    save_neg_query_map(ds.neg_query_map, outdir / "neg_queries.jsonl")
    return {path.name: path.read_bytes() for path in outdir.iterdir()}


def assert_neg_query_map_covers_every_doc(spec):
    ds = synth_generate(spec, 13)
    assert list(ds.neg_query_map) == [d.id for d in ds.corpus]
    for queries in ds.neg_query_map.values():
        assert len(queries) == spec.neg_queries_per_doc
        assert all(q for q in queries)


class ScriptedGenerator:
    """A stand-in for numpy's Generator whose ``integers`` calls return the
    given arrays in turn, and record their ranges and sizes."""

    def __init__(self, *draws):
        self.draws, self.calls = list(draws), []

    def integers(self, low, high, size=None, dtype=np.int64):
        self.calls.append((low, high, size))
        return np.array(self.draws.pop(0), dtype=dtype)


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
        assert_neg_query_map_covers_every_doc(spec)

    @pytest.mark.parametrize("spec", EDGE_SPECS.values(), ids=EDGE_SPECS.keys())
    def test_neg_query_map_covers_every_doc_of_edge_specs(self, spec):
        assert_neg_query_map_covers_every_doc(spec)

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

    @pytest.mark.parametrize("name", ["num_clusters", "docs_per_cluster", "queries_per_cluster",
                                      "vocab_per_cluster", "doc_words", "query_words",
                                      "neg_queries_per_doc"])
    def test_count_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1$"):
            SynthSpec(**{name: 0})

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

    @pytest.mark.parametrize("spec", EDGE_SPECS.values(), ids=EDGE_SPECS.keys())
    def test_cluster_vocabularies_disjoint(self, spec):
        clusters = word_clusters(spec, 3)
        assert len(clusters) == spec.num_clusters * spec.vocab_per_cluster  # distinct words
        assert all(re.fullmatch("[a-z]{4,7}", word) for word in clusters)
        ds = synth_generate(spec, 3)
        texts = [d.text for d in ds.corpus] + [q.text for q in ds.queries]
        texts += [text for queries in ds.neg_query_map.values() for text in queries]
        assert {word for text in texts for word in text.split()} <= clusters.keys()

    @pytest.mark.parametrize("spec", EDGE_SPECS.values(), ids=EDGE_SPECS.keys())
    @pytest.mark.parametrize("seed", range(3))
    def test_query_words_quote_distinct_document_positions(self, spec, seed):
        # what the document's words cannot cover, each at a position of its
        # own, is noise: words of another cluster
        clusters, ds = word_clusters(spec, seed), synth_generate(spec, seed)
        docs = {doc.id: doc.text.split() for doc in ds.corpus}
        for query, doc_id in quoted_pairs(ds):
            assert len(query) == spec.query_words
            leftover = Counter(query) - Counter(docs[doc_id])
            assert all(clusters[word] != cluster(doc_id, spec) for word in leftover)
        for i, query in enumerate(ds.queries):  # a training query quotes its cluster's document
            (doc_id,) = ds.qrels.relevant_docs(query.id)
            assert cluster(doc_id, spec) == i // spec.queries_per_cluster

    @pytest.mark.parametrize("spec", EDGE_SPECS.values(), ids=EDGE_SPECS.keys())
    def test_noise_share_within_binomial_bounds(self, spec):
        # over 100 seeds, a document word is another cluster's with probability
        # p = noise_rate (0 with one cluster). Given the documents, a query word
        # is with e = f + (1 - f) * p, f that share of its document's words; the
        # picks of one query are drawn without replacement, so a query's count
        # varies at most as a binomial one does
        p = spec.noise_rate if spec.num_clusters > 1 else 0.0
        doc_noise = doc_words = query_noise = 0
        mean = var = 0.0
        for seed in range(100):
            clusters, ds = word_clusters(spec, seed), synth_generate(spec, seed)
            noise = {doc.id: sum(clusters[word] != cluster(doc.id, spec)
                                 for word in doc.text.split()) for doc in ds.corpus}
            doc_noise += sum(noise.values())
            doc_words += len(ds.corpus) * spec.doc_words
            for query, doc_id in quoted_pairs(ds):
                f = noise[doc_id] / spec.doc_words
                e = f + (1 - f) * p
                query_noise += sum(clusters[word] != cluster(doc_id, spec) for word in query)
                mean += len(query) * e
                var += len(query) * e * (1 - e)
        assert abs(doc_noise - doc_words * p) <= 5 * math.sqrt(doc_words * p * (1 - p))
        assert abs(query_noise - mean) <= 5 * math.sqrt(var)

    @pytest.mark.parametrize("spec", EDGE_SPECS.values(), ids=EDGE_SPECS.keys())
    def test_each_draw_kind_keeps_its_own_stream(self, spec, tmp_path):
        base = save_bundle(synth_generate(spec, 6), tmp_path / "base")
        more_queries = replace(spec, queries_per_cluster=spec.queries_per_cluster + 2)
        bundle = save_bundle(synth_generate(more_queries, 6), tmp_path / "queries")
        assert bundle["queries.jsonl"] != base["queries.jsonl"]
        for name in ("corpus.jsonl", "neg_queries.jsonl"):
            assert bundle[name] == base[name]
        more_neg = replace(spec, neg_queries_per_doc=spec.neg_queries_per_doc + 1)
        bundle = save_bundle(synth_generate(more_neg, 6), tmp_path / "neg")
        assert bundle["neg_queries.jsonl"] != base["neg_queries.jsonl"]
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.tsv"):
            assert bundle[name] == base[name]

    def test_vocabulary_redraws_a_repeated_word(self):
        spec = SynthSpec(num_clusters=1, vocab_per_cluster=3)
        rng = ScriptedGenerator([4, 4, 5], [list(b"abcdxyz"), list(b"abcdqrs"), list(b"efghijk")],
                                [7], [list(b"zzzzzzz")])
        # the second word repeats the first: it is dropped, and one word drawn again
        assert data._make_vocabulary(spec, rng).tolist() == ["abcd", "efghi", "zzzzzzz"]
        assert rng.calls == [(4, 8, 3), (97, 123, (3, 7)), (4, 8, 1), (97, 123, (1, 7))]


# Per-word reference draws: the oracle of the bulk draws in data.py. Each
# makes numpy's scalar calls, one word at a time, in the order the data.py
# docstrings give for the whole arrays: all of a step's random() keys or
# integers() before the next step's. The one exception is the letter codes,
# which numpy's uint8 draws take four to a 32-bit value within one call: the
# oracle draws them in one call too, and cuts the words out of them itself.
def reference_vocabulary(spec, rng):
    total, words = spec.num_clusters * spec.vocab_per_cluster, []
    while len(words) < total:
        n = total - len(words)
        lengths = [int(rng.integers(4, 8)) for _ in range(n)]
        codes = rng.integers(97, 123, size=7 * n, dtype=np.uint8).tolist()
        for i, length in enumerate(lengths):
            word = "".join(map(chr, codes[7 * i:7 * i + length]))
            if word not in words:
                words.append(word)
    return words


def reference_noise(rows, clusters, spec, rng):
    """``rows`` of vocabulary indices, the i-th of cluster ``clusters[i]``, with a
    word where random() < noise_rate swapped for a word of the other clusters'
    pool, picked by integers(0, pool size). One cluster has no pool: no draw."""
    if spec.num_clusters == 1:
        return rows
    v = spec.vocab_per_cluster
    noisy = [[rng.random() < spec.noise_rate for _ in row] for row in rows]
    picks = [[int(rng.integers(0, (spec.num_clusters - 1) * v)) for _ in row] for row in rows]
    out = []
    for row, c, swaps, pick in zip(rows, clusters, noisy, picks):
        # the pool, as two ranges: the words before cluster c's block and after it
        before, after = range(c * v), range((c + 1) * v, spec.num_clusters * v)
        out.append([(before[i] if i < len(before) else after[i - len(before)]) if swap else word
                    for word, swap, i in zip(row, swaps, pick)])
    return out


def reference_docs(spec, rng):
    v, per = spec.vocab_per_cluster, spec.docs_per_cluster
    clusters = [i // per for i in range(spec.num_clusters * per)]
    rows = [[c * v + int(rng.integers(0, v)) for _ in range(spec.doc_words)] for c in clusters]
    return reference_noise(rows, clusters, spec, rng)


def reference_quotes(doc, docs, spec, rng):
    """A query of each document in ``doc``: the query_words positions of its row
    in ``docs`` with the smallest random() keys, smallest first, with noise."""
    rows = []
    for d in doc:
        keys = [rng.random() for _ in range(spec.doc_words)]
        picked = sorted(range(spec.doc_words), key=keys.__getitem__)[:spec.query_words]
        rows.append([docs[d][i] for i in picked])
    return reference_noise(rows, [d // spec.docs_per_cluster for d in doc], spec, rng)


def reference_synth(spec, seed):
    """``synth_generate`` from the per-word reference draws."""
    vocab_rng, doc_rng, query_rng, neg_rng = map(make_rng, np.random.SeedSequence(seed).spawn(4))
    vocabulary = reference_vocabulary(spec, vocab_rng)

    def texts(rows):
        return [" ".join(vocabulary[word] for word in row) for row in rows]

    docs, per = reference_docs(spec, doc_rng), spec.docs_per_cluster
    corpus = [Document(f"d{i:05d}", text) for i, text in enumerate(texts(docs))]
    targets = [c * per + int(query_rng.integers(0, per))
               for c in range(spec.num_clusters) for _ in range(spec.queries_per_cluster)]
    queries = [Query(f"q{i:04d}", text)
               for i, text in enumerate(texts(reference_quotes(targets, docs, spec, query_rng)))]
    k = spec.neg_queries_per_doc
    neg = texts(reference_quotes([d for d in range(len(docs)) for _ in range(k)], docs, spec,
                                 neg_rng))
    return SynthDataset(
        corpus, queries, Qrels({(q.id, corpus[t].id): 1 for q, t in zip(queries, targets)}),
        {d.id: neg[i * k:(i + 1) * k] for i, d in enumerate(corpus)})


def warm_twins(seed, warm_draws):
    """Two equal generators after ``warm_draws`` 32-bit draws: an odd number
    leaves half of a 64-bit value buffered (``has_uint32``) for the next one."""
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    for rng in rngs:
        rng.integers(0, 7, size=warm_draws)
    assert rngs[0].bit_generator.state["has_uint32"] == warm_draws % 2
    return rngs


def assert_same_generator(got_rng, want_rng):
    """Equal PCG64 state, equal 32-bit buffer and equal draws after that."""
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for _ in range(3):
        assert got_rng.integers(0, 1000) == want_rng.integers(0, 1000)
        assert got_rng.random() == want_rng.random()


class CountingGenerator:
    """A numpy ``Generator`` that counts the calls made through it."""

    def __init__(self, rng):
        self._rng, self.calls = rng, 0

    def __getattr__(self, name):  # reached only for names __init__ did not set
        self.calls += 1
        return getattr(self._rng, name)

    def take(self):
        calls, self.calls = self.calls, 0
        return calls


def bulk_calls(spec):
    """The Generator calls of the documents, training queries and neg-map
    queries: one array draw each of own words or pick keys, and a random() and
    an integers() array for the noise where another cluster exists."""
    noise = 2 if spec.num_clusters > 1 else 0
    return [1 + noise] * 3


def assert_draws_match_reference(spec, seed, warm_draws):
    """``spec``'s vocabulary, documents, training queries and neg-map queries,
    drawn in that order from one generator, equal the reference draws on a twin
    generator, which ends in the same state. The training queries quote
    targets drawn apart. Returns the Generator calls of each of the four."""
    bulk, reference = warm_twins(seed, warm_draws)
    counted, calls = CountingGenerator(bulk), []
    assert data._make_vocabulary(spec, counted).tolist() == reference_vocabulary(spec, reference)
    calls.append(counted.take())
    docs = data._documents(spec, counted)
    want = reference_docs(spec, reference)
    assert docs.tolist() == want
    calls.append(counted.take())
    n_docs, per = len(want), spec.docs_per_cluster
    first = np.arange(0, n_docs, per).repeat(spec.queries_per_cluster)
    targets = first + np.random.default_rng(seed).integers(0, per, size=len(first))
    for doc in (targets, np.arange(n_docs).repeat(spec.neg_queries_per_doc)):
        assert (data._quote(doc, docs, spec, counted).tolist()
                == reference_quotes(doc.tolist(), want, spec, reference))
        calls.append(counted.take())
    assert_same_generator(bulk, reference)
    return calls


# one spec per draw of one value (the first pick key's rank at query_words ==
# doc_words, a target among one document per cluster, a swap from a one-word
# pool, a document's own word from a one-word block), per run without noise
# draws (one cluster) and per run without a noise swap
BRANCH_SPECS = {
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

small_specs = st.builds(
    lambda sizes, query_share, noise_rate: SynthSpec(
        *sizes[:4], noise_rate=noise_rate, doc_words=sizes[4],
        query_words=max(1, round(query_share * sizes[4])), neg_queries_per_doc=sizes[5]),
    st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 4), st.integers(1, 12),
              st.integers(1, 12), st.integers(1, 3)),
    st.floats(0.0, 1.0), st.floats(0.0, 0.99))


class TestDrawsReplayNumpy:
    """The bulk draws of the vocabulary, the documents and the queries,
    ``_make_vocabulary``, ``_documents`` and ``_quote``, against the per-word
    reference draws on twin generators."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), warm_draws=st.integers(0, 3), spec=small_specs)
    def test_interleaved_calls(self, seed, warm_draws, spec):
        assert assert_draws_match_reference(spec, seed, warm_draws)[1:] == bulk_calls(spec)

    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_one_value_range_draws_nothing(self, seed, warm_draws):
        spec = SynthSpec(num_clusters=2, docs_per_cluster=1, vocab_per_cluster=1,
                         doc_words=4, query_words=4, noise_rate=0.5)
        assert assert_draws_match_reference(spec, seed, warm_draws) == [2, 3, 3, 3]
        # every own word of this spec is a draw of one value: the documents read nothing
        spec = SynthSpec(num_clusters=1, docs_per_cluster=1, vocab_per_cluster=1,
                         doc_words=2, query_words=1)
        rng, twin = warm_twins(seed, warm_draws)
        docs = data._documents(spec, rng)
        assert docs.tolist() == [[0, 0]]
        assert rng.bit_generator.state == twin.bit_generator.state
        # a query of a one-word document reads its pick key and nothing else
        spec = SynthSpec(num_clusters=1, docs_per_cluster=1, doc_words=1, query_words=1)
        assert data._quote(np.zeros(3, dtype=int), docs[:, :1], spec, rng).tolist() == [[0]] * 3
        twin.random(3)
        assert_same_generator(rng, twin)

    @pytest.mark.parametrize("spec", BRANCH_SPECS.values(), ids=BRANCH_SPECS.keys())
    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(2))
    def test_edge_branches(self, seed, warm_draws, spec):
        assert assert_draws_match_reference(spec, seed, warm_draws) == [2, *bulk_calls(spec)]

    @pytest.mark.parametrize("seed", [1, 2027])
    def test_benchmark_spec_reads_in_bulk_only(self, seed):
        # the synth size of perfbench/run.py's retrieve-5k workload: each part
        # makes as many Generator calls as at any size; the 4,000 words of the
        # vocabulary may repeat one, which costs a round of two calls
        spec = SynthSpec(num_clusters=100, docs_per_cluster=50, queries_per_cluster=20,
                         vocab_per_cluster=40)
        vocabulary, *rest = assert_draws_match_reference(spec, seed, 0)
        assert rest == [3, 3, 3]
        assert vocabulary in (2, 4)

    @pytest.mark.parametrize("warm_draws", [0, 1])
    def test_vocabulary_drops_a_repeated_word(self, warm_draws):
        # at these seeds the first round of 800 words draws one word twice
        spec, seed = SynthSpec(num_clusters=20, vocab_per_cluster=40), [0, 7][warm_draws]
        bulk, reference = warm_twins(seed, warm_draws)
        counted = CountingGenerator(bulk)
        vocabulary = data._make_vocabulary(spec, counted).tolist()
        assert vocabulary == reference_vocabulary(spec, reference)
        assert len(set(vocabulary)) == 800
        assert counted.calls == 4  # a second round drew the dropped word again
        assert_same_generator(bulk, reference)


class TestSynthEqualsNumpyDraws:
    """``synth_generate`` against ``reference_synth``: the same child streams,
    read by the per-word reference draws."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), spec=small_specs)
    def test_small_specs(self, seed, spec):
        assert synth_generate(spec, seed) == reference_synth(spec, seed)

    @pytest.mark.parametrize("spec", [
        SynthSpec(num_clusters=1, docs_per_cluster=1, doc_words=10001, query_words=201,
                  queries_per_cluster=2),
        SynthSpec(num_clusters=3, docs_per_cluster=6, queries_per_cluster=2,
                  vocab_per_cluster=15),
    ], ids=["tail_shuffle", "acceptance_like"])
    def test_named_specs(self, spec):
        # tail_shuffle: a document longer than 10,000 words with 201 picked
        assert synth_generate(spec, 1) == reference_synth(spec, 1)


# Lemire's method redraws a 32-bit value v when (v * n) mod 2**32 < (2**32 - n) mod n;
# for a range of n = 2**31 + 1 the bound is 2**31 - 1, so about half of all draws
# are redrawn.
REDRAW_POOL = 2**31 + 1


def pool_spec(own, clusters, count, words=1, noise_rate=0.5):
    """Documents of ``count`` words in all, ``words`` a row, from blocks of ``own``
    words in ``clusters`` clusters: the other pool has (clusters - 1) * own."""
    return SynthSpec(num_clusters=clusters, vocab_per_cluster=own,
                     docs_per_cluster=count // words // clusters, doc_words=words,
                     query_words=1, noise_rate=noise_rate)


def assert_docs_match_reference(spec, seed, warm_draws):
    rng, twin = warm_twins(seed, warm_draws)
    docs = data._documents(spec, rng)
    assert docs.tolist() == reference_docs(spec, twin)
    assert_same_generator(rng, twin)
    return docs


class TestSampleWordsBulkRead:
    """Document rows of ``_documents`` against the per-word reference draws,
    with blocks no vocabulary of a test's size has: of 2**31 + 1 words, a
    range that numpy redraws about half the time."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           own=st.one_of(st.integers(1, 60), st.just(REDRAW_POOL)),
           clusters=st.integers(1, 6),
           per=st.integers(1, 8),
           words=st.integers(1, 4),
           noise_rate=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
           warm_draws=st.integers(0, 3))
    def test_equals_per_word_draws(self, seed, own, clusters, per, words, noise_rate,
                                   warm_draws):
        spec = pool_spec(own, clusters, clusters * per * words, words, noise_rate)
        assert_docs_match_reference(spec, seed, warm_draws)

    @pytest.mark.parametrize("warm_draws", [0, 1], ids=["has_uint32_unset", "has_uint32_set"])
    @pytest.mark.parametrize("count", [29, 30], ids=["odd_count", "even_count"])
    @pytest.mark.parametrize("seed", range(5))
    def test_entry_buffer_and_count_parity(self, seed, count, warm_draws):
        # 9 documents of count words: an odd count of own words leaves half a
        # 64-bit value for the noise picks, or uses up the half left before
        spec = pool_spec(40, 9, 9 * count, count, 0.3)
        assert_docs_match_reference(spec, seed, warm_draws)

    @pytest.mark.parametrize("warm_draws", [0, 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_empty_other_draws_no_noise(self, seed, warm_draws):
        spec = pool_spec(40, 1, 31, noise_rate=0.5)
        docs = assert_docs_match_reference(spec, seed, warm_draws)
        rng = warm_twins(seed, warm_draws)[0]
        assert (docs == rng.integers(0, 40, size=(31, 1))).all()  # the own words and no more

    @pytest.mark.parametrize("own,clusters", [(1, 6), (1, 2), (1, 1)],
                             ids=["one_word_own", "one_word_both", "one_word_own_no_other"])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_word_pool(self, seed, own, clusters):
        spec = pool_spec(own, clusters, 30 * clusters, words=2)
        assert_docs_match_reference(spec, seed, seed % 2)

    @pytest.mark.parametrize("clusters", [1, 2], ids=["redraw_own_no_other", "redraw_own"])
    @pytest.mark.parametrize("seed", range(5))
    def test_lemire_redraw(self, seed, clusters):
        n, spec = 60 * clusters, pool_spec(REDRAW_POOL, clusters, 60 * clusters, words=2)
        assert_docs_match_reference(spec, seed, seed % 2)
        # numpy redrew: the draws took more 32-bit values than one a word
        rng, twin = warm_twins(seed, seed % 2)
        data._documents(spec, rng)
        twin.integers(0, 2**32, size=n, dtype=np.uint64)
        if clusters > 1:
            twin.random(n)
            twin.integers(0, 2**32, size=n, dtype=np.uint64)
        assert rng.bit_generator.state != twin.bit_generator.state
