"""Retrieval-run construction and nDCG@k scoring.

A run encodes every query in one pass and ranks them all with the batched
exact search (``mining.search_many``, one matmul per block of queries).
Binary gains with the log2(rank+1) discount (trec convention). Queries
without any relevant document are skipped with a warning rather than
scored as zero. Reports aggregate the arithmetic mean over scored queries,
accumulated in query-id order so the result is order-independent.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .data import Document, Qrels, Query, _read_tsv
from .encoder import encode  # unused here; perfbench/tracer.py wraps evaluation.encode
from .encoder import EncoderConfig, EncoderParams, encode_texts
from .mining import RankedList, build_index, search_many
from .mining import search_top_k  # unused here; perfbench/tracer.py wraps evaluation.search_top_k
from .numerics import _atomic_open, _reading

log = logging.getLogger(__name__)

RetrievalRun = dict[str, RankedList]


@dataclass
class EvalReport:
    method: str
    dataset: str
    k: int
    per_query: dict[str, float]
    mean_ndcg: float

    def to_dict(self) -> dict:
        return {"method": self.method, "dataset": self.dataset, "k": self.k,
                "per_query": self.per_query, "mean_ndcg": self.mean_ndcg}


def ndcg_at_k(ranking: RankedList, relevant: set[str], k: int) -> float:
    """Normalized discounted cumulative gain over the top k ranks."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = 0.0
    for i, (doc_id, _) in enumerate(ranking[:k]):
        if doc_id in relevant:
            dcg += 1.0 / math.log2(i + 2)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(relevant))))
    return dcg / ideal


def build_run(params: EncoderParams, config: EncoderConfig, corpus: list[Document],
              queries: list[Query], k: int) -> RetrievalRun:
    """Retrieve the top-k ranking for every query under the given parameters.

    Queries are encoded in one pass and searched in blocks by ``search_many``.
    """
    index = build_index(corpus, params, config)
    ranked = search_many(index, encode_texts(params, config, [q.text for q in queries]), k)
    return {q.id: ranking for q, ranking in zip(queries, ranked)}


def score_run(run: RetrievalRun, qrels: Qrels, k: int,
              method: str = "", dataset: str = "") -> EvalReport:
    """nDCG@k per query plus the arithmetic mean over scored queries."""
    per_query: dict[str, float] = {}
    for qid in sorted(run):
        relevant = qrels.relevant_docs(qid)
        if not relevant:
            log.warning("query %s has no relevant documents; skipped", qid)
            continue
        per_query[qid] = ndcg_at_k(run[qid], relevant, k)
    if not per_query:
        raise ValueError("no query with relevant documents to score")
    mean = sum(per_query[qid] for qid in sorted(per_query)) / len(per_query)
    return EvalReport(method=method, dataset=dataset, k=k,
                      per_query=per_query, mean_ndcg=mean)


def evaluate(params: EncoderParams, config: EncoderConfig, corpus: list[Document],
             queries: list[Query], qrels: Qrels, k: int,
             method: str = "", dataset: str = "") -> EvalReport:
    """Index the corpus, search every query and score nDCG@k."""
    run = build_run(params, config, corpus, queries, k)
    return score_run(run, qrels, k, method=method, dataset=dataset)


def save_run(run: RetrievalRun, path: str | Path) -> None:
    """TSV dump: query_id, rank (1-based), doc_id, score per line."""
    with _atomic_open(path) as fh:
        for qid in sorted(run):
            for rank, (doc_id, score) in enumerate(run[qid], start=1):
                fh.write(f"{qid}\t{rank}\t{doc_id}\t{score!r}\n")


def load_run(path: str | Path) -> RetrievalRun:
    run: RetrievalRun = {}
    ranked: set[tuple[str, str]] = set()  # (query_id, doc_id) pairs read so far
    for lineno, (qid, rank_text, doc_id, score_text) in _read_tsv(path, 4):
        try:
            rank, score = int(rank_text), float(score_text)
            # int() and float() also take signs, spaces, "_", other scripts' digits, nan, inf
            if not (rank_text.isascii() and rank_text.isdigit()):
                raise ValueError(f"rank must be decimal digits, got {rank_text!r}")
            if not math.isfinite(score) or score_text.strip("0123456789.eE+-"):
                raise ValueError(f"score must be a finite decimal number, got {score_text!r}")
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from err
        entries = run.setdefault(qid, [])
        if rank != len(entries) + 1:
            raise ValueError(f"{path}:{lineno}: ranks must be contiguous from 1")
        if (qid, doc_id) in ranked:
            raise ValueError(
                f"{path}:{lineno}: duplicate doc_id {doc_id!r} in the ranking of {qid!r}")
        ranked.add((qid, doc_id))
        entries.append((doc_id, score))
    return run


def save_report(report: EvalReport, path: str | Path) -> None:
    with _atomic_open(path) as fh:
        fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_report(path: str | Path) -> EvalReport:
    """The report ``path`` holds; a field of the wrong JSON type names ``path``."""
    with _reading(path) as d:
        report = EvalReport(method=d["method"], dataset=d["dataset"], k=d["k"],
                            per_query=d["per_query"], mean_ndcg=d["mean_ndcg"])
    checks = [
        ("method", isinstance(report.method, str), "a string"),
        ("dataset", isinstance(report.dataset, str), "a string"),
        ("k", isinstance(report.k, int) and not isinstance(report.k, bool), "an integer"),
        ("per_query", isinstance(report.per_query, dict)
         and all(map(_is_number, report.per_query.values())), "an object of numbers"),
        ("mean_ndcg", _is_number(report.mean_ndcg), "a number"),
    ]
    for key, fits, what in checks:
        if not fits:
            raise ValueError(f"{path}: {key!r} must be {what}")
    return report


def compare_methods(reports: list[EvalReport]) -> tuple[str, str]:
    """Method-by-dataset score table with a trailing average column.

    Returns (markdown, tsv). Rows keep first-seen method order; columns are
    sorted dataset names plus the arithmetic mean. Markdown bolds each
    column's maximum. Every method must cover the same dataset set.
    """
    if not reports:
        raise ValueError("need at least one report")
    methods: list[str] = []
    cells: dict[str, dict[str, float]] = {}
    for rep in reports:
        if rep.method not in cells:
            methods.append(rep.method)
            cells[rep.method] = {}
        if rep.dataset in cells[rep.method]:
            raise ValueError(f"duplicate report for ({rep.method!r}, {rep.dataset!r})")
        cells[rep.method][rep.dataset] = rep.mean_ndcg

    datasets = sorted(cells[methods[0]])
    for method in methods:
        if sorted(cells[method]) != datasets:
            raise ValueError(
                f"method {method!r} covers datasets {sorted(cells[method])}, "
                f"expected {datasets}")

    rows = []
    for method in methods:
        values = [cells[method][ds] for ds in datasets]
        rows.append((method, values + [sum(values) / len(values)]))

    columns = datasets + ["average"]
    col_max = [max(row[1][i] for row in rows) for i in range(len(columns))]
    fmt = "{:.4f}".format

    md_lines = ["| method | " + " | ".join(columns) + " |",
                "|" + "---|" * (len(columns) + 1)]
    for method, values in rows:
        rendered = [f"**{fmt(v)}**" if v == col_max[i] else fmt(v)
                    for i, v in enumerate(values)]
        md_lines.append("| " + " | ".join([method] + rendered) + " |")
    markdown = "\n".join(md_lines) + "\n"

    tsv_lines = ["\t".join(["method"] + columns)]
    for method, values in rows:
        tsv_lines.append("\t".join([method] + [fmt(v) for v in values]))
    tsv = "\n".join(tsv_lines) + "\n"
    return markdown, tsv
