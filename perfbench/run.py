#!/usr/bin/env python3
"""Benchmark of the retrieval-lab pipeline: synth -> mine -> train -> eval.

Drives ``retrieval_lab.cli.main`` in-process on a seeded synthetic workload,
checks the outputs against independent oracles, prints a metric table and
ends with one JSON line. Run it from the repository root:

    python3 perfbench/run.py --workload train-dense-clp --seed 1 --seconds 9 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 9

``--trace 0`` reports the end-to-end metrics with the package untouched.
``--trace 1`` wraps the package's public functions in spans and reports the
per-layer metrics instead. ``all`` runs every workload both ways, each in a
process of its own, and prints the tracing overhead. The full record of a
run, with its environment stamp, is written to ``.bench_work/results/``.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = WORK / "results"

# One BLAS thread: the gemms are small, and a spinning second thread on a
# two-core machine only adds noise. Never more than the cores we may use.
BLAS_THREADS = 1
# Tune on any seed but this one; a claimed gain must also hold on it.
HELD_OUT_SEED = 2027

K = 10
LEARNING_RATE = "1e-3"
EPOCHS = 1
GRAD_ACCUM_STEPS = 4  # the CLI default, restated for the token-sharing count
VOCAB_PER_CLUSTER = 40
# MAX_SETUPS set-ups when they fit in SETUP_BUDGET_S, else MIN_SETUPS. Each
# is followed by at least one pass, and by passes until its share of
# --seconds of pass time is used.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 2, 3, 6.0


@dataclass(frozen=True)
class Workload:
    clusters: int
    docs_per_cluster: int
    queries_per_cluster: int
    preset: str | None  # training preset; None runs no training
    moe: bool
    why: str


WORKLOADS = {
    "train-dense-clp": Workload(
        10, 50, 10, "ance-clp", False,
        "training-bound dense CLP at the acceptance size; high token sharing "
        "(many repeated ids per accumulation group), MoE idle"),
    "train-moe-wide": Workload(
        100, 5, 1, "ance-clp-moe-intermediate", True,
        "per-token MoE routing loop and moe_only freeze mask on a 4,000-word "
        "vocabulary; low token sharing"),
    "retrieve-5k": Workload(
        100, 50, 20, None, False,
        "read path only at 5,000 docs and 2,000 queries: forward, index build, "
        "top-k search, nDCG scoring; heavy synth set-up"),
}

# name: (unit, better, scope). "gate": on every workload, never 0, and listed
# in BENCHMARK.json, so a later change is held to its bound. The rest are
# printed and recorded only: "all" on every workload, "train" where the
# workload trains, "read" where it does not (on the training workloads mining
# and eval last ~0.1 s and swing by a third, so they count there only through
# pipeline_s).
END_TO_END = {
    "setup_s": ("s", "lower", "gate"),
    "pipeline_s": ("s", "lower", "gate"),
    "ndcg_at_10": ("nDCG", "higher", "gate"),
    "peak_rss_mb": ("MB", "lower", "gate"),
    "train_examples_per_s": ("examples/s", "higher", "train"),
    "train_loss_last_epoch": ("nats", "lower", "train"),
    "mine_queries_per_s": ("queries/s", "higher", "read"),
    "eval_queries_per_s": ("queries/s", "higher", "read"),
    "error_rate": ("share", "lower", "all"),
}
# Scope "all" metrics are in BENCHMARK.json. The "train" ones time layers that
# only training runs: on a workload without training they would read 0.0 on
# every run, so they are printed and recorded where the workload trains.
PER_LAYER = {
    "data.synth_s": ("s", "lower", "all"),
    "data.load_s": ("s", "lower", "all"),
    "data.save_s": ("s", "lower", "all"),
    "data.relevant_docs_calls": ("count", "lower", "all"),
    "data.relevant_docs_s": ("s", "lower", "all"),
    "encoder.forward_calls": ("count", "lower", "all"),
    "encoder.forward_s": ("s", "lower", "all"),
    "encoder.forward_tokens_per_s": ("tokens/s", "higher", "all"),
    "encoder.backward_calls": ("count", "lower", "all"),
    "encoder.backward_s": ("s", "lower", "train"),
    "encoder.zero_grads_s": ("s", "lower", "train"),
    "encoder.tokens": ("count", "lower", "all"),
    "encoder.unique_token_share": ("share", "lower", "all"),
    "encoder.checkpoint_save_s": ("s", "lower", "all"),
    "encoder.checkpoint_load_s": ("s", "lower", "all"),
    "encoder.checkpoint_bytes": ("B", "lower", "all"),
    "losses.calls": ("count", "lower", "all"),
    "losses.loss_s": ("s", "lower", "train"),
    "losses.grad_s": ("s", "lower", "train"),
    "losses.penalty_texts": ("count", "lower", "all"),
    "numerics.cosine_calls": ("count", "lower", "all"),
    "numerics.cosine_s": ("s", "lower", "train"),
    "mining.index_build_calls": ("count", "lower", "all"),
    "mining.index_build_s": ("s", "lower", "all"),
    "mining.index_docs": ("count", "lower", "all"),
    "mining.search_calls": ("count", "lower", "all"),
    "mining.search_s": ("s", "lower", "all"),
    "mining.negatives_fill_ratio": ("share", "higher", "all"),
    "training.train_s": ("s", "lower", "train"),
    "training.examples": ("count", "higher", "all"),
    "training.optimizer_steps": ("count", "lower", "all"),
    "training.adam_s": ("s", "lower", "train"),
    "training.self_s": ("s", "lower", "train"),
    "training.useful_grad_share": ("share", "higher", "all"),
    "evaluation.build_run_s": ("s", "lower", "all"),
    "evaluation.score_s": ("s", "lower", "all"),
    "evaluation.queries": ("count", "higher", "all"),
    "cli.mine_s": ("s", "lower", "all"),
    "cli.train_s": ("s", "lower", "train"),
    "cli.eval_s": ("s", "lower", "all"),
    "cli.self_s": ("s", "lower", "all"),
}


def _applies(scope: str, trains: bool) -> bool:
    return scope in ("gate", "all") or scope == ("train" if trains else "read")


def _driver_metrics(trace: bool) -> dict:
    """The metrics of the last output line, as listed in BENCHMARK.json."""
    if trace:
        return {k: v for k, v in PER_LAYER.items() if v[2] == "all"}
    return {k: v for k, v in END_TO_END.items() if v[2] == "gate"}


class Ops:
    """Attempted and failed operations: CLI commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, str | None] = {}

    def command(self, tracer, stage: str, argv: list[str]) -> float | None:
        """Run one CLI command under a ``cli.<stage>`` span; seconds, or None on failure."""
        from retrieval_lab import cli

        self.attempted += 1
        start = perf_counter()
        tracer.begin(f"cli.{stage}")
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a crash is one failed operation, reported, not fatal
            traceback.print_exc()
            code = None
        finally:
            tracer.end()
        elapsed = perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"error: {argv[0]} command failed (exit {code})", file=sys.stderr)
            return None
        return elapsed

    def check(self, name: str, reason: str | None) -> None:
        self.attempted += 1
        self.checks[name] = reason
        if reason is not None:
            self.failed += 1
            print(f"error: check {name} failed: {reason}", file=sys.stderr)


def _synth_argv(w: Workload, seed: int, outdir: Path) -> list[str]:
    return ["synth", "--clusters", str(w.clusters), "--docs-per-cluster", str(w.docs_per_cluster),
            "--queries-per-cluster", str(w.queries_per_cluster),
            "--vocab-per-cluster", str(VOCAB_PER_CLUSTER), "--seed", str(seed),
            "--outdir", str(outdir)]


def _pipeline(w: Workload, seed: int, data: Path, init: Path, out: Path) -> list[tuple]:
    bundle = ["--corpus", str(data / "corpus.jsonl"), "--queries", str(data / "queries.jsonl"),
              "--qrels", str(data / "qrels.tsv")]
    stages = [("mine", ["mine", "--strategy", "ance", "--k", str(K), "--checkpoint", str(init),
                        *bundle, "--neg-query-map", str(data / "neg_queries.jsonl"),
                        "--seed", str(seed), "--outdir", str(out / "mine")])]
    checkpoint = init
    if w.preset is not None:
        stages.append(("train", ["train", "--train-file", str(out / "mine" / "train.jsonl"),
                                 "--preset", w.preset, "--checkpoint", str(init),
                                 "--epochs", str(EPOCHS), "--learning-rate", LEARNING_RATE,
                                 "--seed", str(seed), "--outdir", str(out / "train")]))
        checkpoint = out / "train" / "checkpoint.json"
    stages.append(("eval", ["eval", "--checkpoint", str(checkpoint), *bundle, "--k", str(K),
                            "--method", w.preset or "untrained", "--dataset", "synth",
                            "--outdir", str(out / "eval")]))
    return stages


def _median_item(items: list, key):
    """The middle item by ``key`` (the lower middle for an even count)."""
    return sorted(items, key=key)[(len(items) - 1) // 2]


def _step_texts(example: dict) -> list[str]:
    """Texts one CLP training step encodes (and backpropagates) for an example."""
    texts = [example["query"], example["pos"][0], *example["neg"]]
    for queries in example.get("neg_queries") or []:
        texts.extend(queries)
    return texts


def input_properties(w: Workload, seed: int, data: Path, train_file: Path, init: Path) -> dict:
    """Exact, untimed counts of what the workload feeds the layers."""
    import numpy as np
    from checks import read_jsonl
    from retrieval_lab import cli, training
    from retrieval_lab.encoder import FreezeMode, load_checkpoint, tokenize
    from retrieval_lab.numerics import make_rng

    params, config = load_checkpoint(init)
    ids_of: dict[str, list[int]] = {}

    def ids(text: str) -> list[int]:
        if text not in ids_of:
            ids_of[text] = tokenize(text, config)
        return ids_of[text]

    docs = [d["text"] for d in read_jsonl(data / "corpus.jsonl")]
    queries = [q["text"] for q in read_jsonl(data / "queries.jsonl")]
    examples = read_jsonl(train_file)
    step_texts = [_step_texts(ex) for ex in examples]
    corpus_ids = [i for text in docs for i in ids(text)]
    props = {
        "docs": len(docs),
        "queries": len(queries),
        "examples": len(examples),
        "texts_per_example": sum(map(len, step_texts)) / len(examples),
        "corpus_tokens": len(corpus_ids),
        "query_tokens": sum(len(ids(text)) for text in queries),
        "train_tokens_per_epoch": 0,
        # Distinct ids per token in the texts the encoder handles together:
        # one gradient-accumulation group when training, else the corpus.
        "unique_token_share": len(set(corpus_ids)) / len(corpus_ids),
        # Trainable gradient entries per computed entry; 0 with no training.
        "useful_grad_share": 0.0,
    }
    if w.preset is not None:
        order = make_rng(seed).permutation(len(examples))  # train()'s first-epoch order
        distinct = tokens = 0
        for start in range(0, len(order), GRAD_ACCUM_STEPS):
            group = [i for n in order[start:start + GRAD_ACCUM_STEPS]
                     for text in step_texts[n] for i in ids(text)]
            distinct += len(set(group))
            tokens += len(group)
        props["train_tokens_per_epoch"] = tokens
        props["unique_token_share"] = distinct / tokens
        ones = {name: np.ones_like(t) for name, t in params.named_tensors().items()}
        kept = training.apply_freeze(ones, FreezeMode(cli.PRESETS[w.preset]["freeze"]))
        props["useful_grad_share"] = (sum(int(np.count_nonzero(g)) for g in kept.values())
                                      / sum(g.size for g in ones.values()))
    return props


def layer_metrics(units: list, props: dict) -> tuple[dict, dict]:
    """Per-layer values of one set-up plus one pass, and training's span breakdown."""
    from collections import Counter, defaultdict

    from retrieval_lab.encoder import tokenize

    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    own: dict[str, float] = defaultdict(float)
    children: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    tokens = {"forward": 0, "backward": 0}
    ntok: dict[str, int] = {}
    for unit in units:
        for acc, part in zip((total, calls, own, children), unit.totals()):
            for name, value in part.items():
                acc[name] += value
        counts.update(unit.counts)
        for config, text, kind in unit.texts:
            if text not in ntok:
                ntok[text] = len(tokenize(text, config))
            tokens[kind] += ntok[text]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {
        "data.synth_s": total["data.synth"],
        "data.load_s": total["data.load"],
        "data.save_s": total["data.save"],
        "data.relevant_docs_calls": calls["data.relevant_docs"],
        "data.relevant_docs_s": total["data.relevant_docs"],
        "encoder.forward_calls": calls["encoder.forward"],
        "encoder.forward_s": total["encoder.forward"],
        "encoder.forward_tokens_per_s": ratio(tokens["forward"], total["encoder.forward"]),
        "encoder.backward_calls": calls["encoder.backward"],
        "encoder.backward_s": total["encoder.backward"],
        "encoder.zero_grads_s": total["encoder.zero_grads"],
        "encoder.tokens": tokens["forward"] + tokens["backward"],
        "encoder.unique_token_share": props["unique_token_share"],
        "encoder.checkpoint_save_s": total["encoder.checkpoint_save"],
        "encoder.checkpoint_load_s": total["encoder.checkpoint_load"],
        "encoder.checkpoint_bytes": counts["checkpoint_bytes"],
        "losses.calls": calls["losses.loss"] + calls["losses.grad"],
        "losses.loss_s": total["losses.loss"],
        "losses.grad_s": total["losses.grad"],
        "losses.penalty_texts": counts["penalty_texts"],
        "numerics.cosine_calls": calls["numerics.cosine"],
        "numerics.cosine_s": total["numerics.cosine"],
        "mining.index_build_calls": calls["mining.index_build"],
        "mining.index_build_s": total["mining.index_build"],
        "mining.index_docs": counts["index_docs"],
        "mining.search_calls": calls["mining.search"],
        "mining.search_s": total["mining.search"],
        "mining.negatives_fill_ratio": ratio(counts["negatives_returned"],
                                             counts["negatives_requested"]),
        "training.train_s": total["training.train"],
        "training.examples": counts["training_examples"],
        "training.optimizer_steps": calls["training.adam"],
        "training.adam_s": total["training.adam"],
        "training.self_s": own["training.train"],
        "training.useful_grad_share": props["useful_grad_share"],
        "evaluation.build_run_s": total["evaluation.build_run"],
        "evaluation.score_s": total["evaluation.score"],
        "evaluation.queries": counts["eval_queries"],
        "cli.mine_s": total["cli.mine"],
        "cli.train_s": total["cli.train"],
        "cli.eval_s": total["cli.eval"],
        "cli.self_s": own["cli.mine"] + own["cli.train"] + own["cli.eval"],
    }
    breakdown = dict(sorted(children.items()))
    breakdown["self"] = own["training.train"]
    breakdown["total"] = total["training.train"]
    return m, breakdown


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip()


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure passes for ``seconds``, check outputs; the full record."""
    import checks
    import tracer as tracing
    from retrieval_lab import cli
    from retrieval_lab.encoder import EncoderConfig, MoEConfig, init_params, save_checkpoint

    w = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    ops = Ops()
    tr = tracing.Tracer()
    config = EncoderConfig(moe=MoEConfig() if w.moe else None)
    setups: list[tuple] = []  # (seconds, unit, directory)
    passes: list[tuple] = []  # ({stage: seconds}, unit, directory)
    if trace:
        tr.install()
    try:
        n_setups = MAX_SETUPS
        while len(setups) < n_setups and ops.failed == 0:
            outdir = work / f"setup{len(setups)}"
            start = perf_counter()
            if ops.command(tr, "synth", _synth_argv(w, seed, outdir / "data")) is None:
                break
            params = init_params(config, seed)
            tr.begin("encoder.checkpoint_save")
            save_checkpoint(params, config, outdir / "init.json")
            tr.end()
            elapsed = perf_counter() - start
            tr.counts["checkpoint_bytes"] += (outdir / "init.json").stat().st_size
            setups.append((elapsed, tr.take(), outdir))
            if len(setups) == 1 and elapsed * MAX_SETUPS > SETUP_BUDGET_S:
                n_setups = MIN_SETUPS
            # This set-up's share of the passes, so that the timed passes are
            # spread over the whole run rather than one stretch of it.
            share = seconds * len(setups) / n_setups
            while ops.failed == 0:
                times = {}
                pass_dir = work / f"pass{len(passes)}"
                for stage, argv in _pipeline(w, seed, outdir / "data", outdir / "init.json",
                                             pass_dir):
                    times[stage] = ops.command(tr, stage, argv)
                    if times[stage] is None:
                        break
                passes.append((times, tr.take(), pass_dir))
                if sum(sum(p[0].values()) for p in passes) >= share:
                    break
    finally:
        tr.uninstall()
    data, init = work / "setup0" / "data", work / "setup0" / "init.json"

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(seed), "inputs": None,
              "samples": {"setup_s": [s[0] for s in setups],
                          "passes": [p[0] for p in passes]}}
    if ops.failed == 0:
        first = passes[0][2]
        train_file = first / "mine" / "train.jsonl"
        ops.check("ndcg_matches_report",
                  checks.ndcg_matches_report(first / "eval", data / "qrels.tsv", K))
        ops.check("negatives_match_full_sort",
                  checks.negatives_match_full_sort(data, init, train_file, K))
        if w.preset is not None and cli.PRESETS[w.preset]["freeze"] == "moe_only":
            ops.check("frozen_tensors_unchanged", checks.frozen_tensors_unchanged(
                init, first / "train" / "checkpoint.json"))
        ops.check("synth_hashes_identical", checks.hashes_identical([s[2] / "data" for s in setups]))
        for stage in passes[0][0]:
            ops.check(f"{stage}_hashes_identical",
                      checks.hashes_identical([p[2] / stage for p in passes]))
        props = input_properties(w, seed, data, train_file, init)
        record["inputs"] = props
        trains = w.preset is not None
        e2e = _end_to_end(w, setups, passes, first, props, ops)
        record["end_to_end"] = {k: e2e[k] for k, v in END_TO_END.items() if _applies(v[2], trains)}
        if trace:
            setup = _median_item(setups, key=lambda s: s[0])
            one_pass = _median_item(passes, key=lambda p: sum(p[0].values()))
            layers, breakdown = layer_metrics([setup[1], one_pass[1]], props)
            record["per_layer"] = {k: layers[k] for k, v in PER_LAYER.items()
                                   if _applies(v[2], trains)}
            if trains:
                record["training_breakdown_s"] = breakdown
    else:
        record["end_to_end"] = {"error_rate": ops.failed / ops.attempted}
    record.update(checks=ops.checks, attempted=ops.attempted, failed=ops.failed,
                  correct=ops.failed == 0)
    shutil.rmtree(work, ignore_errors=True)
    return record


def _end_to_end(w: Workload, setups, passes, first: Path, props: dict, ops: Ops) -> dict:
    med = statistics.median
    times = [p[0] for p in passes]
    report = json.loads((first / "eval" / "report.json").read_text(encoding="utf-8"))
    m = {
        "setup_s": med(s[0] for s in setups),
        "pipeline_s": med(sum(t.values()) for t in times),
        "mine_queries_per_s": med(props["queries"] / t["mine"] for t in times),
        "eval_queries_per_s": med(props["queries"] / t["eval"] for t in times),
        "ndcg_at_10": report["mean_ndcg"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if w.preset is not None:
        run = json.loads((first / "train" / "run.json").read_text(encoding="utf-8"))
        m["train_examples_per_s"] = med(props["examples"] * EPOCHS / t["train"] for t in times)
        m["train_loss_last_epoch"] = run["final_metrics"]["mean_loss_last_epoch"]
    m["error_rate"] = ops.failed / ops.attempted
    return m


def _results_path(name: str, seed: int, trace: int) -> Path:
    return RESULTS / f"{name}-seed{seed}-trace{trace}.json"


def _row(name: str, value, unit: str, better: str) -> str:
    return f"  {name:<30} {value!r:>24} {unit:<11} {better} is better"


def main_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    record = run_workload(name, seed, seconds, trace)
    RESULTS.mkdir(parents=True, exist_ok=True)
    _results_path(name, seed, int(trace)).write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    values = record.get("per_layer" if trace else "end_to_end") or {}
    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"set-ups {len(record['samples']['setup_s'])}  passes {len(record['samples']['passes'])}")
    for metric, (unit, better, _) in (PER_LAYER if trace else END_TO_END).items():
        if metric in values:
            print(_row(metric, values[metric], unit, better))
    if record.get("training_breakdown_s"):
        print("  training.train_s = " + " + ".join(
            f"{k} {v:.4f}" for k, v in record["training_breakdown_s"].items() if k != "total"))
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, (unit, _, _) in _driver_metrics(trace).items()
                    if metric in values}}))
    return 0 if record["correct"] else 1


def main_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    summary = {"seed": seed, "seconds": seconds, "environment": environment(seed),
               "workloads": {}}
    attempted = failed = 0
    for name in WORKLOADS:
        entry = {}
        for label, trace in (("untraced", 0), ("traced", 1)):
            path = _results_path(name, seed, trace)
            path.unlink(missing_ok=True)
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            try:
                proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
                print(proc.stdout, end="", flush=True)
            except subprocess.TimeoutExpired:
                print(f"error: {name} --trace {trace} timed out", file=sys.stderr)
            record = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None
            entry[label] = record
            attempted += record["attempted"] if record else 1
            failed += record["failed"] if record else 1
        plain = (entry["untraced"] or {}).get("end_to_end", {})
        traced = (entry["traced"] or {}).get("end_to_end", {})
        entry["tracing_overhead"] = {k: traced[k] - v for k, v in plain.items() if k in traced}
        summary["workloads"][name] = entry

    print(f"\nseed {seed}: end-to-end metrics, untraced / traced / tracing overhead")
    for name, entry in summary["workloads"].items():
        print(name)
        plain = (entry["untraced"] or {}).get("end_to_end", {})
        traced = (entry["traced"] or {}).get("end_to_end", {})
        for metric, (unit, better, _) in END_TO_END.items():
            if metric in plain and metric in traced:
                print(f"  {metric:<24} {plain[metric]:>14.6g} {traced[metric]:>14.6g} "
                      f"{entry['tracing_overhead'][metric]:>+12.4g}  {unit} ({better} is better)")
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"all-seed{seed}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"summary written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {}}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes for at least this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from spans inside the package")
    args = parser.parse_args(argv)

    # Pin BLAS threads before anything imports numpy.
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    if not (SRC / "retrieval_lab" / "__init__.py").is_file():
        print(f"error: {SRC / 'retrieval_lab'} not found; run from a retrieval-lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import retrieval_lab

    if Path(retrieval_lab.__file__).resolve().parent != SRC / "retrieval_lab":
        print(f"error: imported retrieval_lab from {retrieval_lab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return main_all(args.seed, args.seconds)
    return main_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
