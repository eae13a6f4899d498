"""Command-line pipeline: synth, mine, train, eval, compare.

Each flag declares its default once, from the dataclass field it sets where
there is one, and a command builds each config dataclass from the flags named
like its fields (``_from_fields``). Four fields map otherwise: ``num_clusters``
from --clusters, ``loss_cfg`` from --tau and --penalty-weight, ``freeze`` from
--freeze as a ``FreezeMode``, and ``moe`` from --moe and --num-experts.

A JSON config file (--config), whose keys are flag names and whose values fit
the flags' types and choices, and a preset replace defaults: explicit flags
win over preset values, which win over the config file. Every command is
deterministic given identical inputs and seed, and names each output once, to
``_outputs``, which removes the old hashes.json manifest (sha256 per output)
first and writes the new one last.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from . import data as data_mod
from . import evaluation, mining, training
from .data import SynthSpec
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
from .numerics import _atomic_open, _from_fields, _reading, _write_json, make_rng
from .training import TrainConfig

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


@contextmanager
def _outputs(ns: argparse.Namespace):
    """Yield ``out(name)``, output ``name``'s path in ``--outdir`` (created here); a clean
    exit writes ``hashes.json`` over exactly the names given, a raise none, and the
    previous one is gone from the start."""
    outdir = Path(ns.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "hashes.json").unlink(missing_ok=True)  # an old one would outlive a failed rerun
    paths: dict[str, Path] = {}

    def out(name: str) -> Path:
        paths[name] = outdir / name
        return paths[name]

    yield out
    _write_json(outdir / "hashes.json", {name: _sha256(path) for name, path in paths.items()})


def _require_file(path_str: str | None, what: str) -> Path:
    if not path_str:
        raise CliError(f"missing required path: {what}")
    path = Path(path_str)
    if not path.is_file():
        raise CliError(f"{what} not found: {path}")
    return path


def _config_value_fault(action: argparse.Action, value) -> str | None:
    """What a config-file ``value`` for ``action``'s flag must be; None when it is
    that. A value outside the flag's choices fails, as argparse fails the flag."""
    if action.choices is not None and value not in action.choices:
        return f"one of {list(action.choices)}"
    if isinstance(action, argparse.BooleanOptionalAction):
        return None if isinstance(value, bool) else "true or false"
    if action.nargs == "*":
        fits = isinstance(value, list) and all(isinstance(v, str) for v in value)
        return None if fits else "a list of strings"
    kinds, what = {int: ((int,), "an integer"), float: ((int, float), "a number")}.get(
        action.type, ((str,), "a string"))
    return None if isinstance(value, kinds) and not isinstance(value, bool) else what


def _with_config_and_preset(parser: argparse.ArgumentParser, ns: argparse.Namespace,
                            argv: list[str] | None) -> argparse.Namespace:
    """``ns`` with the config file's values, then the preset's, as the command's
    defaults: ``argv`` is parsed again so that explicit flags win over both."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    config: dict = {}
    if ns.config:
        path = _require_file(ns.config, "config file")
        with _reading(path) as doc:
            config = doc
        actions = {a.dest: a for p in sub.choices.values() for a in p._actions
                   if a.dest not in ("help", "config")}
        for key, value in config.items():
            if key not in actions:
                raise CliError(f"config file {path}: unknown key {key!r}")
            if wanted := _config_value_fault(actions[key], value):
                raise CliError(f"config file {path}: {key!r} must be {wanted}")
            if actions[key].type is float:  # argparse leaves a non-string default as it is
                config[key] = float(value)
    preset = getattr(ns, "preset", None) or config.get("preset")
    if not config and preset is None:
        return ns
    sub.choices[ns.command].set_defaults(**{**config, **PRESETS.get(preset, {})})
    return parser.parse_args(argv)


def _load_or_init_params(ns: argparse.Namespace) -> tuple[EncoderParams, EncoderConfig]:
    if ns.checkpoint:
        return load_checkpoint(_require_file(ns.checkpoint, "checkpoint"))
    config = _from_fields(EncoderConfig, vars(ns),
                          moe=_from_fields(MoEConfig, vars(ns)) if ns.moe else None)
    return init_params(config, ns.init_seed), config


def cmd_synth(ns: argparse.Namespace) -> int:
    spec = _from_fields(SynthSpec, vars(ns), num_clusters=ns.clusters)
    with _outputs(ns) as out:
        dataset = data_mod.synth_generate(spec, ns.seed)
        data_mod.save_id_text(dataset.corpus, out("corpus.jsonl"))
        data_mod.save_id_text(dataset.queries, out("queries.jsonl"))
        data_mod.save_qrels(dataset.qrels, out("qrels.tsv"))
        data_mod.save_neg_query_map(dataset.neg_query_map, out("neg_queries.jsonl"))
    print(f"wrote {len(dataset.corpus)} docs, {len(dataset.queries)} queries to {Path(ns.outdir)}")
    return 0


def _load_bundle(ns: argparse.Namespace):
    return (data_mod.load_corpus(_require_file(ns.corpus, "corpus")),
            data_mod.load_queries(_require_file(ns.queries, "queries")),
            data_mod.load_qrels(_require_file(ns.qrels, "qrels")))


def _miner(ns: argparse.Namespace):
    """The mining step of ``mine`` and of ``train --refresh-per-epoch``: loads the
    bundle and the neg-query map (when given) once; ``(params, config) -> examples``."""
    corpus, queries, qrels = _load_bundle(ns)
    neg_query_map = (data_mod.load_neg_query_map(_require_file(ns.neg_query_map, "neg-query map"))
                     if ns.neg_query_map else None)
    rng = make_rng(ns.seed)

    def mine(params, config):
        return mining.mine_dataset(corpus, queries, qrels, neg_query_map,
                                   params, config, ns.strategy, ns.k, rng)

    return mine


def cmd_mine(ns: argparse.Namespace) -> int:
    mine = _miner(ns)
    params, config = _load_or_init_params(ns) if ns.strategy == "ance" else (None, None)
    examples = mine(params, config)
    with _outputs(ns) as out:
        data_mod.save_train_set(examples, out("train.jsonl"))
    print(f"mined {len(examples)} training examples ({ns.strategy}) to {Path(ns.outdir)}")
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    if ns.epochs < 1:  # TrainConfig allows 0 epochs; a run that trains nothing is an error
        raise CliError("epochs must be >= 1")
    params, config = _load_or_init_params(ns)
    cfg = _from_fields(TrainConfig, vars(ns), freeze=FreezeMode(ns.freeze),
                       loss_cfg=_from_fields(LossConfig, vars(ns), lam=ns.penalty_weight))

    if ns.refresh_per_epoch:
        examples = partial(_miner(ns), config=config)  # params -> this epoch's examples
        digests = [_sha256(Path(path)) for path in
                   (ns.corpus, ns.queries, ns.qrels, ns.neg_query_map) if path]
        dataset_hash = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
    else:
        train_file = _require_file(ns.train_file, "train file")
        examples = data_mod.load_train_set(train_file)
        dataset_hash = _sha256(train_file)

    result = training.train(params, config, examples, cfg)

    last_epoch = result.loss_trace[-(len(result.loss_trace) // cfg.epochs):]
    with _outputs(ns) as out:
        save_checkpoint(result.params, config, out("checkpoint.json"))
        trace = out("loss_trace.csv")
        with _atomic_open(trace) as fh:
            fh.write("step,loss\n")
            for step, loss in enumerate(result.loss_trace):
                fh.write(f"{step},{loss!r}\n")
        _write_json(out("run.json"), {
            "config": {"encoder": config.to_dict(), **{key: getattr(ns, key) for key in (
                "learning_rate", "epochs", "grad_accum_steps", "loss", "tau", "penalty_weight",
                "freeze", "stop_grad_neg_queries", "refresh_per_epoch")}},
            "seed": cfg.seed,
            "dataset_sha256": dataset_hash,
            "final_metrics": {
                "final_loss": result.loss_trace[-1],
                "mean_loss_last_epoch": sum(last_epoch) / len(last_epoch),
            },
            "loss_trace_path": trace.name,
        })
    print(f"trained {cfg.epochs} epoch(s), {len(result.loss_trace)} examples seen; "
          f"outputs in {Path(ns.outdir)}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    params, config = load_checkpoint(_require_file(ns.checkpoint, "checkpoint"))
    corpus, queries, qrels = _load_bundle(ns)

    run = evaluation.build_run(params, config, corpus, queries, ns.k)
    report = evaluation.score_run(run, qrels, ns.k, method=ns.method, dataset=ns.dataset)

    with _outputs(ns) as out:
        evaluation.save_run(run, out("run.tsv"))
        evaluation.save_report(report, out("report.json"))
        md_lines = [f"| query | nDCG@{ns.k} |", "|---|---|"]
        md_lines += [f"| {qid} | {score:.4f} |" for qid, score in sorted(report.per_query.items())]
        md_lines.append(f"| **mean** | **{report.mean_ndcg:.4f}** |")
        with _atomic_open(out("report.md")) as fh:
            fh.write("\n".join(md_lines) + "\n")
    print(f"mean nDCG@{ns.k} = {report.mean_ndcg:.4f} over {len(report.per_query)} queries")
    return 0


def cmd_compare(ns: argparse.Namespace) -> int:
    if not ns.reports:
        raise CliError("compare needs at least one report.json path")
    reports = [evaluation.load_report(_require_file(p, "report")) for p in ns.reports]
    first: dict[tuple[str, str], int] = {}  # (method, dataset) -> its first report's index
    for i, key in enumerate((report.method, report.dataset) for report in reports):
        if (j := first.setdefault(key, i)) < i:
            raise CliError(f"{ns.reports[i]}: duplicate report {key!r} (first in {ns.reports[j]})")
    markdown, tsv = evaluation.compare_methods(reports)
    with _outputs(ns) as out:
        for name, text in (("comparison.md", markdown), ("comparison.tsv", tsv)):
            with _atomic_open(out(name)) as fh:
                fh.write(text)
    print(markdown, end="")
    return 0


def _add_encoder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", help="start from this checkpoint file")
    parser.add_argument("--init-seed", type=int, default=0, help="seed for fresh parameter init")
    parser.add_argument("--vocab-size", type=int, default=EncoderConfig.vocab_size,
                        help="hashed token ids")
    parser.add_argument("--d-model", type=int, default=EncoderConfig.d_model,
                        help="embedding width")
    parser.add_argument("--d-intermediate", type=int, default=EncoderConfig.d_intermediate,
                        help="intermediate layer width")
    parser.add_argument("--moe", action=argparse.BooleanOptionalAction, default=False,
                        help="enable the mixture-of-experts intermediate layer")
    parser.add_argument("--num-experts", type=int, default=MoEConfig.num_experts,
                        help="experts of the --moe layer")


def _add_bundle_flags(parser: argparse.ArgumentParser) -> None:
    for flag, name in (("--corpus", "corpus.jsonl"), ("--queries", "queries.jsonl"),
                       ("--qrels", "qrels.tsv")):
        parser.add_argument(flag, help=f"the bundle's {name}")


def _add_mining_flags(parser: argparse.ArgumentParser) -> None:
    _add_bundle_flags(parser)
    parser.add_argument("--neg-query-map", help="neg_queries.jsonl: each document's own queries")
    parser.add_argument("--strategy", choices=["ance", "random"], default="ance",
                        help="negatives top-ranked by the model, or drawn at random")
    parser.add_argument("--k", type=int, default=mining.DEFAULT_NEGATIVES,
                        help="negatives per query")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="pins --strategy, --loss, --freeze and --moe")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retrieval-lab",
        description="Contrastive fine-tuning lab: synth, mine, train, eval, compare.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, summary: str, *, seeded: bool) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file; flags override its keys")
        if seeded:  # the commands that draw random numbers
            p.add_argument("--seed", type=int, default=TrainConfig.seed, help="random seed")
        p.add_argument("--outdir", default=".", help="output directory")
        return p

    p = command("synth", cmd_synth, "generate a synthetic corpus/queries/qrels bundle", seeded=True)
    p.add_argument("--clusters", type=int, default=SynthSpec.num_clusters, help="topic clusters")
    p.add_argument("--docs-per-cluster", type=int, default=SynthSpec.docs_per_cluster,
                   help="documents per cluster")
    p.add_argument("--queries-per-cluster", type=int, default=SynthSpec.queries_per_cluster,
                   help="queries per cluster")
    p.add_argument("--vocab-per-cluster", type=int, default=SynthSpec.vocab_per_cluster,
                   help="words of each cluster's own vocabulary")
    p.add_argument("--noise-rate", type=float, default=SynthSpec.noise_rate,
                   help="chance that a word comes from another cluster")
    p.add_argument("--doc-words", type=int, default=SynthSpec.doc_words, help="words per document")
    p.add_argument("--query-words", type=int, default=SynthSpec.query_words, help="words per query")
    p.add_argument("--neg-queries-per-doc", type=int, default=SynthSpec.neg_queries_per_doc,
                   help="own queries per document in neg_queries.jsonl")

    p = command("mine", cmd_mine, "write train.jsonl with mined negatives", seeded=True)
    _add_encoder_flags(p)
    _add_mining_flags(p)

    p = command("train", cmd_train, "fine-tune and write checkpoint + run manifest", seeded=True)
    _add_encoder_flags(p)
    p.add_argument("--train-file", help="train.jsonl written by mine")
    p.add_argument("--loss", choices=["cl", "clp"], default=TrainConfig.loss,
                   help="contrastive loss, or with the penalty term")
    p.add_argument("--freeze", choices=[m.value for m in FreezeMode],
                   default=TrainConfig.freeze.value, help="which tensors train")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs, help="passes over the data")
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate,
                   help="Adam step size")
    p.add_argument("--grad-accum-steps", type=int, default=TrainConfig.grad_accum_steps,
                   help="examples per optimizer step")
    p.add_argument("--tau", type=float, default=LossConfig.tau, help="softmax temperature")
    p.add_argument("--penalty-weight", type=float, default=LossConfig.lam,
                   help="weight lambda of the penalty term")
    p.add_argument("--stop-grad-neg-queries", action=argparse.BooleanOptionalAction,
                   default=TrainConfig.stop_grad_neg_queries,
                   help="treat the negatives' own queries as constants")
    p.add_argument("--refresh-per-epoch", action=argparse.BooleanOptionalAction, default=False,
                   help="re-mine negatives from the live model before each epoch "
                        "(reads the bundle flags instead of --train-file)")
    _add_mining_flags(p)

    p = command("eval", cmd_eval, "retrieve, score nDCG@k and write run + report", seeded=False)
    p.add_argument("--checkpoint", help="checkpoint to evaluate")
    _add_bundle_flags(p)
    p.add_argument("--k", type=int, default=5, help="ranking depth and nDCG cutoff")
    p.add_argument("--method", default="unnamed", help="method label for the report")
    p.add_argument("--dataset", default="dataset", help="dataset label for the report")

    p = command("compare", cmd_compare, "combine eval reports into a method table", seeded=False)
    p.add_argument("reports", nargs="*", help="report.json paths")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(_with_config_and_preset(parser, ns, argv))
    except (CliError, ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
