from collections import Counter

import numpy as np
import pytest

from retrieval_lab.data import (
    Document,
    Qrels,
    SynthSpec,
    TrainingExample,
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

    def test_bad_line_cites_number(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q1\td1\t1\nq2\td2\n")
        with pytest.raises(ValueError, match=":2"):
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
