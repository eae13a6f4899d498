"""Run every CLI command over one small bundle and list each hashes.json digest.

    python tools/check_set.py OUTDIR

Runs, in this process through ``cli.main`` and on the ``src/`` beside this
script: synth; mine with ANCE, random and ANCE+MoE negatives; train for each
preset, once from ``--train-file`` and once with ``--refresh-per-epoch``, and
the MoE preset from its file under ``--freeze full`` and ``intermediate_only``
too; eval of each trained checkpoint; compare of the eval reports; then two
runs started by ``--checkpoint`` from a trained model: ANCE re-mining from
``train-ance-clp-file``'s, and the MoE preset trained on from its own. The
flags sit at values other than their defaults, so each one reaches the bytes it
sets. Last come the score-path runs: a 10 x 50 x 10 synth, then mine, one epoch
of train and eval for the ``ance-clp`` and MoE presets at the default encoder
sizes, where eval's score block is large enough for BLAS to split it over
threads. One run, ``train-ance-clp-file``, reads the training values from a
``--config`` file that this script writes, ``training.json``; the file holds
another penalty weight, and an explicit ``--penalty-weight`` restores the one
the other runs train with.

Prints ``<path> <sha256>`` for each command's ``hashes.json``, in run order
and relative to OUTDIR (best a fresh directory), then the same for
``stdout.txt``, the commands' captured stdout. Two runs of one tree, or of
two trees, match exactly when their listings do: ``diff`` them. Exits 1 when
a command fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from retrieval_lab import cli  # noqa: E402

ENCODER = ["--init-seed", "3", "--vocab-size", "512", "--d-model", "16",
           "--d-intermediate", "32", "--num-experts", "3"]
BUNDLE = ["--corpus", "data/corpus.jsonl", "--queries", "data/queries.jsonl",
          "--qrels", "data/qrels.tsv"]
MINING = [*BUNDLE, "--neg-query-map", "data/neg_queries.jsonl", "--k", "3"]
TRAINING = ["--epochs", "2", "--learning-rate", "0.01", "--grad-accum-steps", "3",
            "--tau", "0.1", "--penalty-weight", "0.2", "--seed", "5"]
# the run that reads TRAINING from CONFIG_FILE, and the flag that overrides one of its values
CONFIG_RUN, CONFIG_FILE = "train-ance-clp-file", "training.json"
OVERRIDE = TRAINING[TRAINING.index("--penalty-weight"):][:2]
# the mined set each preset trains from: its strategy, and MoE where it has one
TRAIN_FILES = {"random-dataset": "mine-random", "ance-dataset": "mine-ance",
               "ance-clp": "mine-ance", "ance-clp-intermediate": "mine-ance",
               "ance-clp-moe-intermediate": "mine-ance-moe"}
# the MoE preset's other freeze modes: they train the embedding, w_down and b_down
# through the routed layer
MOE_FREEZES = ("full", "intermediate_only")
# the score-path runs' bundle, and the presets they mine, train and eval at default sizes
SCORE_BUNDLE = ["--corpus", "scores/corpus.jsonl", "--queries", "scores/queries.jsonl",
                "--qrels", "scores/qrels.tsv"]
SCORE_PRESETS = ("ance-clp", "ance-clp-moe-intermediate")


def commands() -> list[list[str]]:
    steps = [
        ["synth", "--clusters", "4", "--docs-per-cluster", "8", "--queries-per-cluster", "3",
         "--vocab-per-cluster", "20", "--noise-rate", "0.2", "--doc-words", "20",
         "--query-words", "4", "--neg-queries-per-doc", "2", "--seed", "7", "--outdir", "data"],
        ["mine", "--strategy", "ance", *ENCODER, *MINING, "--outdir", "mine-ance"],
        ["mine", "--strategy", "random", *MINING, "--seed", "2", "--outdir", "mine-random"],
        ["mine", "--strategy", "ance", "--moe", *ENCODER, *MINING, "--outdir", "mine-ance-moe"],
    ]
    runs = []
    for preset, mined in TRAIN_FILES.items():
        for source, data in (("file", ["--train-file", f"{mined}/train.jsonl"]),
                             ("refresh", ["--refresh-per-epoch", "--stop-grad-neg-queries",
                                          *MINING])):
            runs.append(f"train-{preset}-{source}")
            training = ["--config", CONFIG_FILE, *OVERRIDE] if runs[-1] == CONFIG_RUN else TRAINING
            steps.append(["train", "--preset", preset, *ENCODER, *training, *data,
                          "--outdir", runs[-1]])
    for freeze in MOE_FREEZES:
        runs.append(f"train-ance-clp-moe-{freeze}-file")
        steps.append(["train", "--preset", "ance-clp-moe-intermediate", "--freeze", freeze,
                      *ENCODER, *TRAINING, "--train-file", "mine-ance-moe/train.jsonl",
                      "--outdir", runs[-1]])
    for run in runs:
        steps.append(["eval", "--checkpoint", f"{run}/checkpoint.json", *BUNDLE, "--k", "4",
                      "--method", run, "--dataset", "check-set", "--outdir", f"eval-{run}"])
    steps.append(["compare", *(f"eval-{run}/report.json" for run in runs),
                  "--outdir", "comparison"])
    steps.append(["mine", "--strategy", "ance", "--checkpoint",
                  f"{CONFIG_RUN}/checkpoint.json", *MINING, "--outdir", "mine-ance-remined"])
    steps.append(["train", "--preset", "ance-clp-moe-intermediate", "--checkpoint",
                  "train-ance-clp-moe-intermediate-file/checkpoint.json", *TRAINING,
                  "--train-file", "mine-ance-moe/train.jsonl",
                  "--outdir", "train-ance-clp-moe-intermediate-resumed"])
    steps.append(["synth", "--clusters", "10", "--docs-per-cluster", "50",
                  "--queries-per-cluster", "10", "--seed", "1", "--outdir", "scores"])
    for preset in SCORE_PRESETS:
        steps += [["mine", "--preset", preset, "--init-seed", "1", *SCORE_BUNDLE,
                   "--neg-query-map", "scores/neg_queries.jsonl",
                   "--outdir", f"scores-mine-{preset}"],
                  ["train", "--preset", preset, "--init-seed", "1", "--epochs", "1",
                   "--train-file", f"scores-mine-{preset}/train.jsonl",
                   "--outdir", f"scores-train-{preset}"],
                  ["eval", "--checkpoint", f"scores-train-{preset}/checkpoint.json",
                   *SCORE_BUNDLE, "--k", "10", "--outdir", f"scores-eval-{preset}"]]
    return steps


def training_config() -> dict:
    """TRAINING as a --config document, with a penalty weight that OVERRIDE replaces."""
    doc = {flag[2:].replace("-", "_"): json.loads(value)
           for flag, value in zip(TRAINING[::2], TRAINING[1::2])}
    return {**doc, "penalty_weight": 0.5}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)  # relative paths, so the outputs and stdout name no directory
    Path(CONFIG_FILE).write_text(json.dumps(training_config()), encoding="utf-8")
    stdout, steps = io.StringIO(), commands()
    for step in steps:
        with contextlib.redirect_stdout(stdout):
            status = cli.main(step)
        if status != 0:
            print(f"check set: command failed: {' '.join(step)}", file=sys.stderr)
            return 1
    Path("stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    for path in [*(Path(step[-1]) / "hashes.json" for step in steps), Path("stdout.txt")]:
        print(path.as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
