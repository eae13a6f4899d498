"""Output checks against oracles that share no code with the path under test.

Each check returns ``None`` when the outputs are right and a one-line
reason when they are not.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from retrieval_lab.encoder import encode, load_checkpoint

NDCG_TOL = 1e-12


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _relevant(qrels_path: Path) -> dict[str, set[str]]:
    relevant: dict[str, set[str]] = {}
    with open(qrels_path, encoding="utf-8") as fh:
        for line in fh:
            qid, did, rel = line.rstrip("\n").split("\t")
            if int(rel) == 1:
                relevant.setdefault(qid, set()).add(did)
    return relevant


def ndcg_matches_report(eval_dir: Path, qrels_path: Path, k: int) -> str | None:
    """Recompute nDCG@k from run.tsv and qrels.tsv; match report.json within 1e-12."""
    ranked: dict[str, list[str]] = {}
    with open(eval_dir / "run.tsv", encoding="utf-8") as fh:
        for line in fh:
            qid, _rank, did, _score = line.rstrip("\n").split("\t")
            ranked.setdefault(qid, []).append(did)
    relevant = _relevant(qrels_path)
    per_query = {}
    for qid in sorted(ranked):
        rel = relevant.get(qid)
        if not rel:
            continue
        dcg = sum(1.0 / math.log2(rank + 1)
                  for rank, did in enumerate(ranked[qid][:k], start=1) if did in rel)
        ideal = sum(1.0 / math.log2(rank + 1) for rank in range(1, min(k, len(rel)) + 1))
        per_query[qid] = dcg / ideal
    report = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
    if sorted(report["per_query"]) != sorted(per_query):
        return "report.json scores a different query set than run.tsv"
    for qid, value in per_query.items():
        if abs(report["per_query"][qid] - value) > NDCG_TOL:
            return f"nDCG of {qid}: report {report['per_query'][qid]!r}, recomputed {value!r}"
    mean = sum(per_query[qid] for qid in sorted(per_query)) / len(per_query)
    if abs(report["mean_ndcg"] - mean) > NDCG_TOL:
        return f"mean nDCG: report {report['mean_ndcg']!r}, recomputed {mean!r}"
    return None


def negatives_match_full_sort(data_dir: Path, checkpoint: Path, train_file: Path,
                              k: int) -> str | None:
    """Every mined negative list equals a full stable sort of the index scores.

    Scores are computed exactly as the index does (unit document rows times
    the normalised query), then ordered by descending score with ties to the
    ascending doc id; the first relevant doc is the positive and is skipped.
    """
    params, config = load_checkpoint(checkpoint)
    docs = read_jsonl(data_dir / "corpus.jsonl")
    doc_ids = [d["id"] for d in docs]
    id_rank = np.argsort(np.array(doc_ids), kind="stable")
    tiebreak = np.empty(len(doc_ids), dtype=np.int64)
    tiebreak[id_rank] = np.arange(len(doc_ids))
    vectors = np.array([encode(params, config, d["text"]) for d in docs])
    relevant = _relevant(data_dir / "qrels.tsv")
    examples = read_jsonl(train_file)
    queries = [q for q in read_jsonl(data_dir / "queries.jsonl") if relevant.get(q["id"])]
    if len(examples) != len(queries):
        return f"{len(examples)} mined examples for {len(queries)} queries with judgments"
    for query, example in zip(queries, examples):
        rel = relevant[query["id"]]
        positive = sorted(rel)[0]
        q = encode(params, config, query["text"])
        scores = vectors @ (q / np.linalg.norm(q))
        order = np.lexsort((tiebreak, -scores))
        top = [i for i in order[:k + 1] if doc_ids[i] != positive][:k]
        expected = [docs[i]["text"] for i in top if doc_ids[i] not in rel]
        if example["query"] != query["text"] or example["neg"] != expected:
            return f"negatives of {query['id']} differ from the full-sort oracle"
    return None


def frozen_tensors_unchanged(initial: Path, trained: Path) -> str | None:
    """Under moe_only every tensor outside the experts and the gate keeps its bytes."""
    before = json.loads(initial.read_text(encoding="utf-8"))["tensors"]
    after = json.loads(trained.read_text(encoding="utf-8"))["tensors"]
    for name, entry in before.items():
        if name.startswith(("w_up", "b_up")) or name == "gate":
            continue
        if base64.b64decode(after[name]["data"]) != base64.b64decode(entry["data"]):
            return f"frozen tensor {name} changed in training"
    return None


def hashes_identical(outdirs: list[Path]) -> str | None:
    """Every repetition of one command wrote the same hashes.json."""
    first = (outdirs[0] / "hashes.json").read_bytes()
    for outdir in outdirs[1:]:
        if (outdir / "hashes.json").read_bytes() != first:
            return f"{outdir / 'hashes.json'} differs from {outdirs[0] / 'hashes.json'}"
    return None
