"""Retrieval-run construction and nDCG@k scoring.

A run encodes every query in one pass and ranks them all with the batched
exact search (``mining.search_many``, one matmul per block of queries).
Binary gains with the log2(rank+1) discount (trec convention). Queries
without any relevant document are skipped with a warning rather than
scored as zero. A report's mean, ``_mean``, is the arithmetic mean over scored
queries, summed in query-id order (order-independent); ``load_report`` checks it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .data import Document, Qrels, Query, _as_id, _read_tsv, _unique
from .encoder import encode  # unused here; perfbench/tracer.py wraps evaluation.encode
from .encoder import EncoderConfig, EncoderParams, encode_texts
from .mining import RankedList, _rows, build_index, search_many
from .mining import search_top_k  # unused here; perfbench/tracer.py wraps evaluation.search_top_k
from .numerics import _atomic_open, _from_fields, _reading, _write_json

log = logging.getLogger(__name__)

RetrievalRun = dict[str, RankedList]


@dataclass
class EvalReport:
    method: str
    dataset: str
    k: int
    per_query: dict[str, float]
    mean_ndcg: float


def ndcg_at_k(ranking: RankedList, relevant: set[str], k: int) -> float:
    """Normalized discounted cumulative gain over the top k ranks; no document may repeat."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = 0.0
    for doc_id, i in _rows([doc_id for doc_id, _ in ranking[:k]]).items():  # a repeat raises
        if doc_id in relevant:
            dcg += 1.0 / math.log2(i + 2)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(k, len(relevant))))
    return dcg / ideal


def build_run(params: EncoderParams, config: EncoderConfig, corpus: list[Document],
              queries: list[Query], k: int) -> RetrievalRun:
    """Retrieve the top-k ranking for every query under the given parameters.

    Queries are encoded in one pass and searched in blocks by ``search_many``.
    """
    _rows([q.id for q in queries], "query id")  # a repeated id fails before any encoding
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
        try:
            per_query[qid] = ndcg_at_k(run[qid], relevant, k)
        except ValueError as err:
            raise ValueError(f"query {qid!r}: {err}") from err
    if not per_query:
        raise ValueError("no query with relevant documents to score")
    return EvalReport(method=method, dataset=dataset, k=k,
                      per_query=per_query, mean_ndcg=_mean(per_query))


def _mean(per_query: dict[str, float]) -> float:
    """The arithmetic mean of the scores, summed in query-id order."""
    return sum(per_query[qid] for qid in sorted(per_query)) / len(per_query)


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
    def parse(qid, rank_text, doc_id, score_text):
        rank, score = int(rank_text), float(score_text)
        # int() and float() also take signs, spaces, "_", other scripts' digits, nan, inf
        if not (rank_text.isascii() and rank_text.isdigit()):
            raise ValueError(f"rank must be decimal digits, got {rank_text!r}")
        if not math.isfinite(score) or score_text.strip("0123456789.eE+-"):
            raise ValueError(f"score must be a finite decimal number, got {score_text!r}")
        return _as_id(qid, "query_id"), rank, _as_id(doc_id, "doc_id"), score

    run: RetrievalRun = {}
    for lineno, (qid, rank, doc_id, score) in _unique(
            path, _read_tsv(path, 4, parse), "ranked pair", lambda r: (r[0], r[2])):
        entries = run.setdefault(qid, [])
        if rank != len(entries) + 1:
            raise ValueError(f"{path}:{lineno}: ranks must be contiguous from 1")
        entries.append((doc_id, score))
    return run


def save_report(report: EvalReport, path: str | Path) -> None:
    _write_json(path, asdict(report))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_report(path: str | Path) -> EvalReport:
    """The report ``path`` holds; a field of the wrong JSON type or range, or a
    ``mean_ndcg`` more than 1e-12 from a nonempty ``per_query``'s mean, names ``path``."""
    with _reading(path) as d:
        report = _from_fields(EvalReport, d)
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
    if report.k < 1:
        raise ValueError(f"{path}: 'k' must be >= 1, got {report.k}")
    scores = [(f"'per_query' value of {qid!r}", v) for qid, v in report.per_query.items()]
    for name, value in scores + [("'mean_ndcg'", report.mean_ndcg)]:
        if not 0 <= value <= 1:  # NaN fails both comparisons
            raise ValueError(f"{path}: {name} must be in [0, 1], got {value}")
    if report.per_query and abs(report.mean_ndcg - (mean := _mean(report.per_query))) > 1e-12:
        raise ValueError(f"{path}: 'mean_ndcg' {report.mean_ndcg} is not the mean of "
                         f"'per_query', {mean}")
    return report


def compare_methods(reports: list[EvalReport]) -> tuple[str, str]:
    """Method-by-dataset score table with a trailing average column.

    Returns (markdown, tsv). Rows keep first-seen method order; columns are
    sorted dataset names plus the arithmetic mean. Markdown bolds each
    column's maximum. Reports must share one k, and methods one dataset set.
    """
    if not reports:
        raise ValueError("need at least one report")
    _rows([(rep.method, rep.dataset) for rep in reports], "report")
    cells: dict[str, dict[str, float]] = {}  # method -> dataset -> score, first-seen order
    for rep in reports:
        if rep.k != reports[0].k:
            raise ValueError(f"report ({rep.method!r}, {rep.dataset!r}) scores nDCG@{rep.k}, "
                             f"the first report nDCG@{reports[0].k}")
        cells.setdefault(rep.method, {})[rep.dataset] = rep.mean_ndcg

    datasets = sorted(cells[reports[0].method])
    for method, row in cells.items():
        if sorted(row) != datasets:
            raise ValueError(
                f"method {method!r} covers datasets {sorted(row)}, "
                f"expected {datasets}")

    rows = []
    for method, row in cells.items():
        values = [row[ds] for ds in datasets]
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
