import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

from retrieval_lab.data import Document, Qrels, Query, SynthSpec, synth_generate
from retrieval_lab.encoder import EncoderConfig, init_params
from retrieval_lab.evaluation import (
    EvalReport,
    build_run,
    compare_methods,
    evaluate,
    load_report,
    load_run,
    ndcg_at_k,
    save_report,
    save_run,
    score_run,
)


def ranked(ids):
    return [(doc_id, 1.0 - 0.01 * i) for i, doc_id in enumerate(ids)]


class TestNdcgAtK:
    def test_perfect_ranking(self):
        assert ndcg_at_k(ranked(["a", "b", "c"]), {"a", "b"}, 3) == pytest.approx(1.0)

    def test_nothing_relevant_in_top_k(self):
        assert ndcg_at_k(ranked(["x", "y", "z"]), {"a"}, 3) == 0.0

    def test_single_relevant_at_rank_three(self):
        # DCG = 1/log2(4) = 0.5, IDCG = 1
        value = ndcg_at_k(ranked(["x", "y", "rel", "z", "w"]), {"rel"}, 5)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_bounded_zero_one(self):
        rng = np.random.default_rng(0)
        docs = [f"d{i}" for i in range(20)]
        for _ in range(200):
            order = list(rng.permutation(docs))
            relevant = set(rng.choice(docs, size=int(rng.integers(1, 6)), replace=False))
            v = ndcg_at_k(ranked(order), relevant, int(rng.integers(1, 10)))
            assert 0.0 <= v <= 1.0

    def test_permutation_below_k_is_irrelevant(self):
        head = ["a", "r1", "b", "c", "d"]
        tail1 = ["e", "f", "r2"]
        tail2 = ["r2", "e", "f"]
        relevant = {"r1", "r2"}
        assert ndcg_at_k(ranked(head + tail1), relevant, 5) == \
            ndcg_at_k(ranked(head + tail2), relevant, 5)

    def test_moving_relevant_up_one_rank_never_hurts(self):
        relevant = {"rel"}
        for pos in range(1, 6):
            lower = ["x"] * pos + ["rel"] + ["y"] * (6 - pos)
            upper = ["x"] * (pos - 1) + ["rel"] + ["y"] * (7 - pos)
            lower = [f"{d}{i}" if d != "rel" else d for i, d in enumerate(lower)]
            upper = [f"{d}{i}" if d != "rel" else d for i, d in enumerate(upper)]
            assert ndcg_at_k(ranked(upper), relevant, 6) >= \
                ndcg_at_k(ranked(lower), relevant, 6)

    def test_empty_relevant_set_errors(self):
        with pytest.raises(ValueError, match="relevant"):
            ndcg_at_k(ranked(["a"]), set(), 5)

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            ndcg_at_k(ranked(["a"]), {"a"}, 0)

    def test_repeated_doc_in_top_k_rejected(self):
        # counted twice, d0 would score 1.63
        with pytest.raises(ValueError, match=r"^duplicate doc_id 'd0'$"):
            ndcg_at_k([("d0", 1.0), ("d0", 0.9), ("d1", 0.5)], {"d0"}, 3)
        with pytest.raises(ValueError, match=r"^query 'q1': duplicate doc_id 'd0'$"):
            score_run({"q1": [("d0", 1.0), ("d0", 0.9)]}, Qrels({("q1", "d0"): 1}), 10)
        # below the top k, a repeat is never read
        assert ndcg_at_k(ranked(["d0", "d1", "d0"]), {"d0"}, 2) == 1.0

    def test_ideal_ranking_with_more_relevant_than_k(self):
        docs = [f"r{i}" for i in range(10)]
        assert ndcg_at_k(ranked(docs), set(docs), 5) == pytest.approx(1.0)


def verbatim_setup():
    """Corpus where each query is the exact text of its relevant document."""
    corpus = [Document(f"d{i}", f"unique topic number {i} words alpha{i} beta{i}")
              for i in range(12)]
    queries = [Query(f"q{i}", corpus[i].text) for i in range(6)]
    qrels = Qrels({(f"q{i}", f"d{i}"): 1 for i in range(6)})
    config = EncoderConfig(vocab_size=256, d_model=16, d_intermediate=32)
    params = init_params(config, 3)
    return params, config, corpus, queries, qrels


class TestEvaluate:
    def test_verbatim_duplicates_score_one(self):
        params, config, corpus, queries, qrels = verbatim_setup()
        report = evaluate(params, config, corpus, queries, qrels, k=5)
        assert report.mean_ndcg == pytest.approx(1.0)
        assert set(report.per_query) == {q.id for q in queries}

    def test_mean_is_arithmetic_mean(self):
        params, config, corpus, queries, qrels = verbatim_setup()
        report = evaluate(params, config, corpus, queries, qrels, k=5)
        values = [report.per_query[qid] for qid in sorted(report.per_query)]
        assert report.mean_ndcg == pytest.approx(sum(values) / len(values), abs=1e-12)

    def test_queries_without_relevant_docs_skipped(self, caplog):
        params, config, corpus, queries, qrels = verbatim_setup()
        queries = queries + [Query("qq", "orphan query text")]
        with caplog.at_level("WARNING"):
            report = evaluate(params, config, corpus, queries, qrels, k=5)
        assert "qq" not in report.per_query
        assert any("qq" in rec.message for rec in caplog.records)

    def test_run_without_judged_query_rejected(self):
        with pytest.raises(ValueError, match=r"^no query with relevant documents to score$"):
            score_run({"q1": ranked(["d1"])}, Qrels({("q1", "d1"): 0, ("q2", "d1"): 1}), 5)

    def test_repeated_query_id_rejected_before_encoding(self, monkeypatch):
        params, config, corpus, _, _ = verbatim_setup()

        def never(*args, **kwargs):
            raise AssertionError("encoded before the query ids were checked")

        monkeypatch.setattr("retrieval_lab.evaluation.build_index", never)
        monkeypatch.setattr("retrieval_lab.evaluation.encode_texts", never)
        with pytest.raises(ValueError, match=r"^duplicate query id 'q'$"):
            build_run(params, config, corpus, [Query("q", "one"), Query("q", "three")], k=5)

    def test_judged_doc_missing_from_corpus_counts_as_never_retrieved(self):
        # as in trec_eval: it enters the ideal DCG and is never in the ranking
        params, config, corpus, queries, qrels = verbatim_setup()
        qrels = Qrels({**qrels.judgments, ("q0", "gone"): 1})
        report = evaluate(params, config, corpus, queries, qrels, k=5)
        assert report.per_query["q0"] == pytest.approx(1.0 / (1.0 + 1.0 / math.log2(3)),
                                                       abs=1e-12)
        assert report.per_query["q1"] == pytest.approx(1.0)

    def test_deterministic(self):
        params, config, corpus, queries, qrels = verbatim_setup()
        a = evaluate(params, config, corpus, queries, qrels, k=5)
        b = evaluate(params, config, corpus, queries, qrels, k=5)
        assert a.per_query == b.per_query and a.mean_ndcg == b.mean_ndcg

    def test_report_equals_recompute_from_run_dump(self, tmp_path):
        spec = SynthSpec(num_clusters=3, docs_per_cluster=8, queries_per_cluster=4,
                         vocab_per_cluster=20, noise_rate=0.1)
        ds = synth_generate(spec, 21)
        config = EncoderConfig(vocab_size=512, d_model=16, d_intermediate=32)
        params = init_params(config, 4)
        run = build_run(params, config, ds.corpus, ds.queries, k=5)
        report = score_run(run, ds.qrels, k=5)

        path = tmp_path / "run.tsv"
        save_run(run, path)
        reloaded = load_run(path)

        # independent recompute straight from the dumped ranking
        for qid, per_query_value in report.per_query.items():
            relevant = ds.qrels.relevant_docs(qid)
            dcg = sum(1.0 / math.log2(rank + 1)
                      for rank, (doc_id, _) in enumerate(reloaded[qid], start=1)
                      if doc_id in relevant)
            idcg = sum(1.0 / math.log2(r + 1)
                       for r in range(1, min(5, len(relevant)) + 1))
            assert per_query_value == pytest.approx(dcg / idcg, abs=1e-12)
        recomputed_mean = sum(report.per_query.values()) / len(report.per_query)
        assert report.mean_ndcg == pytest.approx(recomputed_mean, abs=1e-12)

    def test_k5_vs_k10_consistent_with_dumped_rankings(self):
        spec = SynthSpec(num_clusters=2, docs_per_cluster=10, queries_per_cluster=5,
                         vocab_per_cluster=15, noise_rate=0.1)
        ds = synth_generate(spec, 22)
        config = EncoderConfig(vocab_size=512, d_model=16, d_intermediate=32)
        params = init_params(config, 5)
        run10 = build_run(params, config, ds.corpus, ds.queries, k=10)
        r5 = score_run({q: lst[:5] for q, lst in run10.items()}, ds.qrels, k=5)
        r10 = score_run(run10, ds.qrels, k=10)
        for qid in r5.per_query:
            rel = ds.qrels.relevant_docs(qid)
            top5 = {d for d, _ in run10[qid][:5]}
            if rel <= top5:
                # all relevant docs already inside the top 5: widening k only
                # grows the discount table, never the gain
                assert r10.per_query[qid] <= r5.per_query[qid] + 1e-12


class TestRunDump:
    def test_round_trip(self, tmp_path):
        run = {"q1": [("d1", 0.9), ("d2", 0.5)], "q0": [("d9", 1.0)]}
        path = tmp_path / "run.tsv"
        save_run(run, path)
        assert load_run(path) == run

    def test_dump_is_deterministic(self, tmp_path):
        run = {"q1": [("d1", 0.123456789012345), ("d2", 0.5)]}
        save_run(run, tmp_path / "a.tsv")
        save_run(run, tmp_path / "b.tsv")
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_report_round_trip(self, tmp_path):
        report = EvalReport(method="m", dataset="ds", k=5,
                            per_query={"q1": 0.5, "q2": 1.0}, mean_ndcg=0.75)
        save_report(report, tmp_path / "r.json")
        assert load_report(tmp_path / "r.json") == report

    def test_truncated_report_names_file(self, tmp_path):
        report = EvalReport("m", "ds", 5, {"q1": 0.5}, 0.5)
        save_report(report, tmp_path / "r.json")
        (tmp_path / "r.json").write_text((tmp_path / "r.json").read_text()[:30])
        with pytest.raises(ValueError, match=r"r\.json:\d+: malformed JSON"):
            load_report(tmp_path / "r.json")

    def test_report_without_dataset_names_file(self, tmp_path):
        (tmp_path / "r.json").write_text(
            '{"k": 5, "mean_ndcg": 0.5, "method": "m", "per_query": {"q1": 0.5}}\n')
        with pytest.raises(ValueError, match=r"r\.json: missing key 'dataset'$"):
            load_report(tmp_path / "r.json")

    def test_report_not_utf8_names_file(self, tmp_path):
        (tmp_path / "r.json").write_bytes(b'{"method": "m\xff"}\n')
        with pytest.raises(ValueError) as err:
            load_report(tmp_path / "r.json")
        assert str(err.value).startswith(
            f"{tmp_path / 'r.json'}: 'utf-8' codec can't decode byte 0xff in position ")

    def test_non_object_report_names_file(self, tmp_path):
        (tmp_path / "r.json").write_text('["x"]\n')
        with pytest.raises(ValueError, match=r"r\.json: expected a JSON object, got list$"):
            load_report(tmp_path / "r.json")

    @pytest.mark.parametrize("key, value, what", [
        ("method", ["m"], "a string"),
        ("dataset", 3, "a string"),
        ("k", 5.0, "an integer"),
        ("k", True, "an integer"),
        ("per_query", [0.5], "an object of numbers"),
        ("per_query", {"q1": "0.5"}, "an object of numbers"),
        ("per_query", {"q1": False}, "an object of numbers"),
        ("mean_ndcg", "x", "a number"),
        ("mean_ndcg", True, "a number"),
        ("mean_ndcg", None, "a number"),
    ])
    def test_report_field_of_wrong_type_names_file(self, tmp_path, key, value, what):
        doc = asdict(EvalReport("m", "ds", 5, {"q1": 0.5}, 0.5))
        (tmp_path / "r.json").write_text(json.dumps({**doc, key: value}))
        with pytest.raises(ValueError, match=rf"r\.json: '{key}' must be {what}$"):
            load_report(tmp_path / "r.json")

    @pytest.mark.parametrize("key, value, message", [
        ("k", 0, "'k' must be >= 1, got 0"),
        ("k", -3, "'k' must be >= 1, got -3"),
        ("per_query", {"q1": 0.5, "q2": 2.5},
         "'per_query' value of 'q2' must be in [0, 1], got 2.5"),
        ("per_query", {"q1": float("nan")},
         "'per_query' value of 'q1' must be in [0, 1], got nan"),
        ("mean_ndcg", float("nan"), "'mean_ndcg' must be in [0, 1], got nan"),
        ("mean_ndcg", float("inf"), "'mean_ndcg' must be in [0, 1], got inf"),
        ("mean_ndcg", -0.25, "'mean_ndcg' must be in [0, 1], got -0.25"),
        ("mean_ndcg", 2.5, "'mean_ndcg' must be in [0, 1], got 2.5"),
        ("mean_ndcg", 0.75, "'mean_ndcg' 0.75 is not the mean of 'per_query', 0.5"),
    ], ids=["k_zero", "k_negative", "per_query_above_one", "per_query_nan", "mean_nan",
            "mean_inf", "mean_negative", "mean_above_one", "mean_not_of_scores"])
    def test_report_value_score_run_never_writes_names_file(self, tmp_path, key, value, message):
        doc = asdict(EvalReport("m", "ds", 5, {"q1": 0.5}, 0.5))
        (tmp_path / "r.json").write_text(json.dumps({**doc, key: value}))
        with pytest.raises(ValueError) as err:
            load_report(tmp_path / "r.json")
        assert str(err.value) == f"{tmp_path / 'r.json'}: {message}"

    @pytest.mark.parametrize("per_query, mean", [
        ({"q1": 0.25, "q2": 0.25}, 0.25 + 1e-13),
        ({}, 0.9),  # no scores to check it against
    ], ids=["within_1e-12", "no_scores"])
    def test_mean_within_tolerance_loads(self, tmp_path, per_query, mean):
        report = EvalReport("m", "ds", 5, per_query, mean)
        save_report(report, tmp_path / "r.json")
        assert load_report(tmp_path / "r.json") == report

    def test_report_with_integer_numbers_loads(self, tmp_path):
        (tmp_path / "r.json").write_text(
            '{"dataset": "ds", "k": 5, "mean_ndcg": 1, "method": "m", "per_query": {"q1": 1}}')
        assert load_report(tmp_path / "r.json") == EvalReport("m", "ds", 5, {"q1": 1}, 1)

    def test_non_integer_rank_names_line(self, tmp_path):
        (tmp_path / "run.tsv").write_text("q1\t1\td1\t0.9\nq1\ttwo\td2\t0.5\n")
        with pytest.raises(ValueError, match=r"run\.tsv:2: invalid literal for int"):
            load_run(tmp_path / "run.tsv")

    def test_non_float_score_names_line(self, tmp_path):
        (tmp_path / "run.tsv").write_text("q1\t1\td1\thigh\n")
        with pytest.raises(ValueError, match=r"run\.tsv:1: could not convert string to float"):
            load_run(tmp_path / "run.tsv")


    @pytest.mark.parametrize("rank", ["+1", " 1", "1 ", "\u0661", "1_0"])
    def test_rank_that_is_not_plain_digits_names_line(self, tmp_path, rank):
        # int() reads each of these as a number
        (tmp_path / "run.tsv").write_text(f"q0\t1\td1\t0.9\nq1\t{rank}\td1\t0.9\n")
        with pytest.raises(ValueError, match=rf"run\.tsv:2: rank must be decimal digits, "
                                             rf"got {re.escape(repr(rank))}$"):
            load_run(tmp_path / "run.tsv")

    @pytest.mark.parametrize("score", ["nan", "-inf", "Infinity", "1e999", "1_0.5", " 0.5",
                                       "0.5 ", "\u0660.5"])
    def test_score_that_is_not_a_finite_decimal_names_line(self, tmp_path, score):
        # float() reads each of these as a number
        (tmp_path / "run.tsv").write_text(f"q1\t1\td1\t0.9\nq1\t2\td2\t{score}\n")
        with pytest.raises(ValueError, match=rf"run\.tsv:2: score must be a finite decimal "
                                             rf"number, got {re.escape(repr(score))}$"):
            load_run(tmp_path / "run.tsv")

    def test_every_saved_score_loads(self, tmp_path):
        scores = [-0.0, 0.0, 1e-300, -2.5e-07, 1e16, 0.1 + 0.2, 5e-324, -1.7976931348623157e308]
        run = {"q1": [(f"d{i}", score) for i, score in enumerate(scores)]}
        save_run(run, tmp_path / "run.tsv")
        assert load_run(tmp_path / "run.tsv") == run

    @pytest.mark.parametrize("line", ["q1\t2\td2", "q1\t2\td2\t0.5\t", "q1 2 d2 0.5"])
    def test_wrong_field_count_names_line(self, tmp_path, line):
        (tmp_path / "run.tsv").write_text(f"q1\t1\td1\t0.9\n{line}\n")
        with pytest.raises(ValueError, match=r"run\.tsv:2: expected 4 tab-separated fields$"):
            load_run(tmp_path / "run.tsv")

    @pytest.mark.parametrize("line, field", [("q1\t2\t\t0.5", "doc_id"),
                                             ("\t1\td2\t0.5", "query_id")])
    def test_empty_id_names_line(self, tmp_path, line, field):
        (tmp_path / "run.tsv").write_text(f"q1\t1\td1\t0.9\n{line}\n")
        with pytest.raises(ValueError, match=rf"run\.tsv:2: {field} must be nonempty$"):
            load_run(tmp_path / "run.tsv")

    def test_rank_gap_names_line(self, tmp_path):
        (tmp_path / "run.tsv").write_text("q1\t1\td1\t0.9\nq1\t3\td2\t0.5\n")
        with pytest.raises(ValueError, match=r"run\.tsv:2: ranks must be contiguous from 1$"):
            load_run(tmp_path / "run.tsv")

    def test_repeated_doc_in_a_ranking_names_line(self, tmp_path):
        # counted twice, d1 would score nDCG@10 = 1.63 for q1
        (tmp_path / "run.tsv").write_text("q0\t1\td1\t0.9\nq1\t1\td1\t0.9\nq1\t2\td1\t0.8\n")
        with pytest.raises(ValueError,
                           match=r"run\.tsv:3: duplicate ranked pair \('q1', 'd1'\) "
                                 r"\(first seen on line 2\)$"):
            load_run(tmp_path / "run.tsv")

class TestCompareMethods:
    def test_single_method_single_dataset(self):
        rep = EvalReport("only", "ds1", 5, {}, 0.6)
        markdown, tsv = compare_methods([rep])
        assert "| only | **0.6000** | **0.6000** |" in markdown
        assert tsv.splitlines()[1] == "only\t0.6000\t0.6000"

    def test_average_column_is_hand_mean(self):
        reports = [
            EvalReport("m1", "a", 5, {}, 0.4), EvalReport("m1", "b", 5, {}, 0.8),
            EvalReport("m2", "a", 5, {}, 0.6), EvalReport("m2", "b", 5, {}, 0.6),
        ]
        _, tsv = compare_methods(reports)
        lines = tsv.splitlines()
        assert lines[0] == "method\ta\tb\taverage"
        assert lines[1].split("\t")[-1] == "0.6000"
        assert lines[2].split("\t")[-1] == "0.6000"

    def test_bolds_column_maxima(self):
        reports = [
            EvalReport("weak", "a", 5, {}, 0.2), EvalReport("weak", "b", 5, {}, 0.9),
            EvalReport("strong", "a", 5, {}, 0.7), EvalReport("strong", "b", 5, {}, 0.3),
        ]
        markdown, _ = compare_methods(reports)
        weak_row = next(line for line in markdown.splitlines() if "| weak |" in line)
        strong_row = next(line for line in markdown.splitlines() if "| strong |" in line)
        assert "**0.9000**" in weak_row and "**0.7000**" in strong_row

    def test_no_reports_rejected(self):
        with pytest.raises(ValueError, match=r"^need at least one report$"):
            compare_methods([])

    def test_mismatched_datasets_error(self):
        reports = [EvalReport("m1", "a", 5, {}, 0.5), EvalReport("m2", "b", 5, {}, 0.5)]
        with pytest.raises(ValueError, match="datasets"):
            compare_methods(reports)

    def test_reports_of_different_k_rejected(self):
        # nDCG@5 and nDCG@50 are different measures; one table would rank them as one
        reports = [EvalReport("m1", "a", 5, {}, 0.5), EvalReport("m2", "a", 50, {}, 0.7)]
        with pytest.raises(ValueError, match=r"^report \('m2', 'a'\) scores nDCG@50, "
                                             r"the first report nDCG@5$"):
            compare_methods(reports)

    def test_golden_two_method_table(self):
        reports = [
            EvalReport("random-dataset", "synth", 5, {}, 0.41231),
            EvalReport("ance-dataset", "synth", 5, {}, 0.52344),
        ]
        markdown, tsv = compare_methods(reports)
        assert markdown == (
            "| method | synth | average |\n"
            "|---|---|---|\n"
            "| random-dataset | 0.4123 | 0.4123 |\n"
            "| ance-dataset | **0.5234** | **0.5234** |\n"
        )
        assert tsv == (
            "method\tsynth\taverage\n"
            "random-dataset\t0.4123\t0.4123\n"
            "ance-dataset\t0.5234\t0.5234\n"
        )
