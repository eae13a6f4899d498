"""One table of repeated keys: each entry point that reads keyed records names
the first key met twice, in one message shape per layer. A file names its
path, the repeating line and the key's first line; an in-memory list names the
key alone."""

import numpy as np
import pytest

from retrieval_lab.data import (
    Document,
    load_corpus,
    load_neg_query_map,
    load_qrels,
    load_queries,
)
from retrieval_lab.encoder import EncoderConfig, init_params
from retrieval_lab.evaluation import EvalReport, compare_methods, load_run
from retrieval_lab.mining import DenseIndex, build_index, mine_random_negatives_many
from retrieval_lab.numerics import make_rng


def _from_file(loader, name, content):
    def run(tmp_path):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        loader(path)
    return run


def _build_index(tmp_path):
    # the last text has no words, so encoding it would raise: the repeated id
    # must be named before any encoding
    config = EncoderConfig(vocab_size=64, d_model=4, d_intermediate=8)
    corpus = [Document(doc_id, text) for doc_id, text in
              zip(["x", "b", "b", "y"], ["one two", "three", "four five", "!!!"])]
    build_index(corpus, init_params(config, 0), config)


def _dense_index(tmp_path):
    DenseIndex(["a", "b", "a"], np.eye(3), 3)


def _random_negatives(tmp_path):
    mine_random_negatives_many(["x", "b", "b", "x"], [set()], 2, make_rng(0))


def _compare_methods(tmp_path):
    compare_methods([EvalReport("m1", "a", 5, {}, 0.5), EvalReport("m2", "a", 5, {}, 0.6),
                     EvalReport("m1", "a", 5, {}, 0.7)])


@pytest.mark.parametrize("entry, message", [
    (_from_file(load_corpus, "corpus.jsonl",
                '{"id": "a", "text": "x"}\n{"id": "b", "text": "y"}\n{"id": "a", "text": "z"}\n'),
     "{tmp}/corpus.jsonl:3: duplicate id 'a' (first seen on line 1)"),
    (_from_file(load_queries, "queries.jsonl",
                '{"id": "q1", "text": "x"}\n\n{"id": 7, "text": "y"}\n{"id": "7", "text": "z"}\n'),
     "{tmp}/queries.jsonl:4: duplicate id '7' (first seen on line 3)"),
    (_from_file(load_neg_query_map, "neg_queries.jsonl",
                '{"doc_id": "d", "queries": ["x"]}\n{"doc_id": 5, "queries": ["y"]}\n'
                '{"doc_id": "5", "queries": ["z"]}\n'),
     "{tmp}/neg_queries.jsonl:3: duplicate doc_id '5' (first seen on line 2)"),
    (_from_file(load_qrels, "qrels.tsv", "q1\td1\t1\nq1\td2\t1\n\nq1\td1\t0\n"),
     "{tmp}/qrels.tsv:4: duplicate judgment ('q1', 'd1') (first seen on line 1)"),
    (_from_file(load_run, "run.tsv", "q1\t1\td1\t0.9\nq2\t1\td1\t0.9\nq1\t2\td1\t0.8\n"),
     "{tmp}/run.tsv:3: duplicate ranked pair ('q1', 'd1') (first seen on line 1)"),
    (_build_index, "duplicate doc_id 'b'"),
    (_dense_index, "duplicate doc_id 'a'"),
    (_random_negatives, "duplicate doc_id 'b'"),
    (_compare_methods, "duplicate report ('m1', 'a')"),
], ids=["load_corpus", "load_queries", "load_neg_query_map", "load_qrels", "load_run",
        "build_index", "DenseIndex", "mine_random_negatives_many", "compare_methods"])
def test_repeated_key_names_the_key(tmp_path, entry, message):
    with pytest.raises(ValueError) as err:
        entry(tmp_path)
    assert str(err.value) == message.format(tmp=tmp_path)
