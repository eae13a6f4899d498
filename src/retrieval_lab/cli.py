"""Command-line pipeline: synth, mine, train, eval, compare.

Options can come from a JSON config file (--config) whose keys mirror the
flag names one-to-one and whose values have the flags' types; explicit flags
win over preset values, which win over the config file. Every command is
deterministic given identical inputs and seed, and writes a hashes.json
manifest (sha256 per output file) into its output directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import data as data_mod
from . import evaluation, mining, training
from .encoder import (
    EncoderConfig,
    EncoderParams,
    FreezeMode,
    MoEConfig,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .losses import LossConfig
from .numerics import _atomic_open, _reading, make_rng

# Each preset pins {mining strategy, loss, freeze mode, MoE on/off}.
PRESETS: dict[str, dict] = {
    "random-dataset": {"strategy": "random", "loss": "cl", "freeze": "full", "moe": False},
    "ance-dataset": {"strategy": "ance", "loss": "cl", "freeze": "full", "moe": False},
    "ance-clp": {"strategy": "ance", "loss": "clp", "freeze": "full", "moe": False},
    "ance-clp-intermediate": {"strategy": "ance", "loss": "clp",
                              "freeze": "intermediate_only", "moe": False},
    "ance-clp-moe-intermediate": {"strategy": "ance", "loss": "clp",
                                  "freeze": "moe_only", "moe": True},
}


class CliError(Exception):
    """User-facing error: printed to stderr, exit code 1."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_hashes(outdir: Path, names: list[str]) -> None:
    hashes = {name: _sha256(outdir / name) for name in sorted(names)}
    with _atomic_open(outdir / "hashes.json") as fh:
        fh.write(json.dumps(hashes, sort_keys=True, indent=2) + "\n")


def _require_file(path_str: str | None, what: str) -> Path:
    if not path_str:
        raise CliError(f"missing required path: {what}")
    path = Path(path_str)
    if not path.is_file():
        raise CliError(f"{what} not found: {path}")
    return path


def _config_value_fault(action: argparse.Action, value) -> str | None:
    """What a config-file ``value`` for ``action``'s flag must be; None when it is that."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return None if isinstance(value, bool) else "true or false"
    if action.nargs == "*":
        fits = isinstance(value, list) and all(isinstance(v, str) for v in value)
        return None if fits else "a list of strings"
    kinds, what = {int: ((int,), "an integer"), float: ((int, float), "a number")}.get(
        action.type, ((str,), "a string"))
    return None if isinstance(value, kinds) and not isinstance(value, bool) else what


class Options:
    """Flag > preset > config-file > default resolution."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.config: dict = {}
        config_path = getattr(ns, "config", None)
        if config_path:
            path = _require_file(config_path, "config file")
            with _reading(path) as config:
                self.config = config
            sub = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
            actions = {a.dest: a for p in sub.choices.values() for a in p._actions
                       if a.dest not in ("help", "config")}
            for key, value in self.config.items():
                if key not in actions:
                    raise CliError(f"config file {path}: unknown key {key!r}")
                if wanted := _config_value_fault(actions[key], value):
                    raise CliError(f"config file {path}: {key!r} must be {wanted}")
        preset_name = getattr(ns, "preset", None) or self.config.get("preset")
        if preset_name is not None and preset_name not in PRESETS:
            raise CliError(f"unknown preset {preset_name!r}; choose from {sorted(PRESETS)}")
        self.preset = PRESETS.get(preset_name, {})

    def get(self, key: str, default=None):
        flag = getattr(self.ns, key, None)
        if flag is not None:
            return flag
        return self.preset.get(key, self.config.get(key, default))


def _encoder_config(opts: Options) -> EncoderConfig:
    moe_on = bool(opts.get("moe", False))
    moe = MoEConfig(num_experts=int(opts.get("num_experts", 2))) if moe_on else None
    return EncoderConfig(
        vocab_size=int(opts.get("vocab_size", 4096)),
        d_model=int(opts.get("d_model", 64)),
        d_intermediate=int(opts.get("d_intermediate", 256)),
        moe=moe,
    )


def _load_or_init_params(opts: Options) -> tuple[EncoderParams, EncoderConfig]:
    checkpoint = opts.get("checkpoint")
    if checkpoint:
        return load_checkpoint(_require_file(checkpoint, "checkpoint"))
    config = _encoder_config(opts)
    return init_params(config, int(opts.get("init_seed", 0))), config


def _outdir(opts: Options) -> Path:
    outdir = Path(opts.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir


def cmd_synth(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    spec = data_mod.SynthSpec(
        num_clusters=int(opts.get("clusters", 10)),
        docs_per_cluster=int(opts.get("docs_per_cluster", 50)),
        queries_per_cluster=int(opts.get("queries_per_cluster", 10)),
        vocab_per_cluster=int(opts.get("vocab_per_cluster", 40)),
        noise_rate=float(opts.get("noise_rate", 0.1)),
        doc_words=int(opts.get("doc_words", 30)),
        query_words=int(opts.get("query_words", 5)),
        neg_queries_per_doc=int(opts.get("neg_queries_per_doc", 1)),
    )
    seed = int(opts.get("seed", 0))
    outdir = _outdir(opts)
    dataset = data_mod.synth_generate(spec, seed)
    data_mod.save_id_text(dataset.corpus, outdir / "corpus.jsonl")
    data_mod.save_id_text(dataset.queries, outdir / "queries.jsonl")
    data_mod.save_qrels(dataset.qrels, outdir / "qrels.tsv")
    data_mod.save_neg_query_map(dataset.neg_query_map, outdir / "neg_queries.jsonl")
    _write_hashes(outdir, ["corpus.jsonl", "queries.jsonl", "qrels.tsv", "neg_queries.jsonl"])
    print(f"wrote {len(dataset.corpus)} docs, {len(dataset.queries)} queries to {outdir}")
    return 0


def _load_bundle(opts: Options):
    """Corpus, queries, qrels and the neg-query map (None when not given)."""
    corpus = data_mod.load_corpus(_require_file(opts.get("corpus"), "corpus"))
    queries = data_mod.load_queries(_require_file(opts.get("queries"), "queries"))
    qrels = data_mod.load_qrels(_require_file(opts.get("qrels"), "qrels"))
    neg_query_map = None
    if opts.get("neg_query_map"):
        neg_query_map = data_mod.load_neg_query_map(
            _require_file(opts.get("neg_query_map"), "neg-query map"))
    return corpus, queries, qrels, neg_query_map


def _miner(opts: Options):
    """The mining step of ``mine`` and of ``train --refresh-per-epoch``: loads
    the bundle once and returns the strategy and ``(params, config) -> examples``."""
    corpus, queries, qrels, neg_query_map = _load_bundle(opts)
    strategy = opts.get("strategy", "ance")
    k = int(opts.get("k", mining.DEFAULT_NEGATIVES))
    rng = make_rng(int(opts.get("seed", 0)))

    def mine(params, config):
        return mining.mine_dataset(corpus, queries, qrels, neg_query_map,
                                   params, config, strategy, k, rng)

    return strategy, mine


def cmd_mine(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    strategy, mine = _miner(opts)
    params, config = _load_or_init_params(opts) if strategy == "ance" else (None, None)
    examples = mine(params, config)
    outdir = _outdir(opts)
    data_mod.save_train_set(examples, outdir / "train.jsonl")
    _write_hashes(outdir, ["train.jsonl"])
    print(f"mined {len(examples)} training examples ({strategy}) to {outdir}")
    return 0


def _train_config(opts: Options) -> training.TrainConfig:
    freeze = opts.get("freeze", "full")
    try:
        freeze_mode = FreezeMode(freeze)
    except ValueError:
        raise CliError(f"unknown freeze mode {freeze!r}") from None
    loss_cfg = LossConfig(tau=float(opts.get("tau", 0.05)),
                          lam=float(opts.get("penalty_weight", 0.1)))
    return training.TrainConfig(
        learning_rate=float(opts.get("learning_rate", 1e-5)),
        epochs=int(opts.get("epochs", 1)),
        grad_accum_steps=int(opts.get("grad_accum_steps", 4)),
        loss=opts.get("loss", "cl"),
        loss_cfg=loss_cfg,
        freeze=freeze_mode,
        seed=int(opts.get("seed", 0)),
        stop_grad_neg_queries=bool(opts.get("stop_grad_neg_queries", False)),
    )


def cmd_train(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    params, config = _load_or_init_params(opts)
    cfg = _train_config(opts)
    refresh = bool(opts.get("refresh_per_epoch", False))

    dataset: list[data_mod.TrainingExample] = []
    refresh_fn = None
    if refresh:
        _, mine = _miner(opts)

        def refresh_fn(current_params):
            return mine(current_params, config)

        dataset_hash = _sha256(Path(opts.get("corpus")))
    else:
        train_file = _require_file(opts.get("train_file"), "train file")
        dataset = data_mod.load_train_set(train_file)
        dataset_hash = _sha256(train_file)

    result = training.train(params, config, dataset, cfg, refresh_fn=refresh_fn)

    outdir = _outdir(opts)
    save_checkpoint(result.params, config, outdir / "checkpoint.json")
    with _atomic_open(outdir / "loss_trace.csv") as fh:
        fh.write("step,loss\n")
        for step, loss in enumerate(result.loss_trace):
            fh.write(f"{step},{loss!r}\n")
    per_epoch = max(1, len(result.loss_trace) // max(cfg.epochs, 1))
    last_epoch = result.loss_trace[-per_epoch:] if result.loss_trace else []
    manifest = {
        "config": {
            "encoder": config.to_dict(),
            "learning_rate": cfg.learning_rate,
            "epochs": cfg.epochs,
            "grad_accum_steps": cfg.grad_accum_steps,
            "loss": cfg.loss,
            "tau": cfg.loss_cfg.tau,
            "penalty_weight": cfg.loss_cfg.lam,
            "freeze": cfg.freeze.value,
            "stop_grad_neg_queries": cfg.stop_grad_neg_queries,
            "refresh_per_epoch": refresh,
        },
        "seed": cfg.seed,
        "dataset_sha256": dataset_hash,
        "final_metrics": {
            "final_loss": result.loss_trace[-1] if result.loss_trace else None,
            "mean_loss_last_epoch": (sum(last_epoch) / len(last_epoch)
                                     if last_epoch else None),
        },
        "loss_trace_path": "loss_trace.csv",
    }
    with _atomic_open(outdir / "run.json") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    _write_hashes(outdir, ["checkpoint.json", "loss_trace.csv", "run.json"])
    print(f"trained {cfg.epochs} epoch(s), {len(result.loss_trace)} examples seen; "
          f"outputs in {outdir}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    params, config = load_checkpoint(_require_file(opts.get("checkpoint"), "checkpoint"))
    corpus, queries, qrels, _ = _load_bundle(opts)
    k = int(opts.get("k", 5))
    method = opts.get("method", "unnamed")
    dataset_label = opts.get("dataset", "dataset")

    run = evaluation.build_run(params, config, corpus, queries, k)
    report = evaluation.score_run(run, qrels, k, method=method, dataset=dataset_label)

    outdir = _outdir(opts)
    evaluation.save_run(run, outdir / "run.tsv")
    evaluation.save_report(report, outdir / "report.json")
    md_lines = [f"| query | nDCG@{k} |", "|---|---|"]
    md_lines += [f"| {qid} | {score:.4f} |" for qid, score in sorted(report.per_query.items())]
    md_lines.append(f"| **mean** | **{report.mean_ndcg:.4f}** |")
    with _atomic_open(outdir / "report.md") as fh:
        fh.write("\n".join(md_lines) + "\n")
    _write_hashes(outdir, ["run.tsv", "report.json", "report.md"])
    print(f"mean nDCG@{k} = {report.mean_ndcg:.4f} over {len(report.per_query)} queries")
    return 0


def cmd_compare(ns: argparse.Namespace) -> int:
    opts = Options(ns)
    paths = ns.reports or opts.config.get("reports", [])
    if not paths:
        raise CliError("compare needs at least one report.json path")
    reports = [evaluation.load_report(_require_file(p, "report")) for p in paths]
    try:
        markdown, tsv = evaluation.compare_methods(reports)
    except ValueError as err:
        raise CliError(str(err)) from None
    outdir = _outdir(opts)
    for name, text in (("comparison.md", markdown), ("comparison.tsv", tsv)):
        with _atomic_open(outdir / name) as fh:
            fh.write(text)
    _write_hashes(outdir, ["comparison.md", "comparison.tsv"])
    print(markdown, end="")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--outdir", help="output directory (default .)")


def _add_encoder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", help="start from this checkpoint file")
    parser.add_argument("--init-seed", type=int, dest="init_seed",
                        help="seed for fresh parameter init (default 0)")
    parser.add_argument("--vocab-size", type=int, dest="vocab_size")
    parser.add_argument("--d-model", type=int, dest="d_model")
    parser.add_argument("--d-intermediate", type=int, dest="d_intermediate")
    parser.add_argument("--moe", action=argparse.BooleanOptionalAction, default=None,
                        help="enable the mixture-of-experts intermediate layer")
    parser.add_argument("--num-experts", type=int, dest="num_experts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrieval-lab",
        description="Contrastive fine-tuning lab: synth, mine, train, eval, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus/queries/qrels bundle")
    _add_common(p)
    p.add_argument("--clusters", type=int)
    p.add_argument("--docs-per-cluster", type=int, dest="docs_per_cluster")
    p.add_argument("--queries-per-cluster", type=int, dest="queries_per_cluster")
    p.add_argument("--vocab-per-cluster", type=int, dest="vocab_per_cluster")
    p.add_argument("--noise-rate", type=float, dest="noise_rate")
    p.add_argument("--doc-words", type=int, dest="doc_words")
    p.add_argument("--query-words", type=int, dest="query_words")
    p.add_argument("--neg-queries-per-doc", type=int, dest="neg_queries_per_doc")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mine", help="write train.jsonl with mined negatives")
    _add_common(p)
    _add_encoder_flags(p)
    p.add_argument("--corpus")
    p.add_argument("--queries")
    p.add_argument("--qrels")
    p.add_argument("--neg-query-map", dest="neg_query_map")
    p.add_argument("--strategy", choices=["ance", "random"])
    p.add_argument("--k", type=int)
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("train", help="fine-tune and write checkpoint + run manifest")
    _add_common(p)
    _add_encoder_flags(p)
    p.add_argument("--train-file", dest="train_file")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--loss", choices=["cl", "clp"])
    p.add_argument("--freeze", choices=[m.value for m in FreezeMode])
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--grad-accum-steps", type=int, dest="grad_accum_steps")
    p.add_argument("--tau", type=float)
    p.add_argument("--penalty-weight", type=float, dest="penalty_weight")
    p.add_argument("--stop-grad-neg-queries", action=argparse.BooleanOptionalAction,
                   default=None, dest="stop_grad_neg_queries")
    p.add_argument("--refresh-per-epoch", action=argparse.BooleanOptionalAction,
                   default=None, dest="refresh_per_epoch",
                   help="re-mine negatives from the live model before each epoch")
    p.add_argument("--corpus", help="needed with --refresh-per-epoch")
    p.add_argument("--queries", help="needed with --refresh-per-epoch")
    p.add_argument("--qrels", help="needed with --refresh-per-epoch")
    p.add_argument("--neg-query-map", dest="neg_query_map")
    p.add_argument("--strategy", choices=["ance", "random"])
    p.add_argument("--k", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="retrieve, score nDCG@k and write run + report")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--corpus")
    p.add_argument("--queries")
    p.add_argument("--qrels")
    p.add_argument("--k", type=int)
    p.add_argument("--method", help="method label for the report")
    p.add_argument("--dataset", help="dataset label for the report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="combine eval reports into a method table")
    _add_common(p)
    p.add_argument("reports", nargs="*", help="report.json paths")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (CliError, ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
