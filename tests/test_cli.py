import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from retrieval_lab import cli
from retrieval_lab.data import load_train_set
from retrieval_lab.encoder import CHECKPOINT_FORMAT, load_checkpoint


def run_cli(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synth", "--clusters", 3, "--docs-per-cluster", 6,
                   "--queries-per-cluster", 2, "--vocab-per-cluster", 15,
                   "--noise-rate", 0.1, "--seed", 5, "--outdir", out) == 0
    return out


def read_hashes(outdir: Path) -> dict:
    return json.loads((outdir / "hashes.json").read_text())


ENC_FLAGS = ("--vocab-size", 128, "--d-model", 8, "--d-intermediate", 16)


class TestSynth:
    def test_writes_expected_files(self, synth_dir):
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.tsv",
                     "neg_queries.jsonl", "hashes.json"):
            assert (synth_dir / name).is_file()

    def test_rerun_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_cli("synth", "--clusters", 2, "--docs-per-cluster", 4,
                    "--queries-per-cluster", 2, "--vocab-per-cluster", 12,
                    "--seed", 9, "--outdir", out)
            outs.append(read_hashes(out))
        assert outs[0] == outs[1]

    def test_bundle_bytes_pinned(self, synth_dir):
        # sha256 of the synth_dir spec's files; a change to the generator
        # or the file writers must not alter a single byte
        assert read_hashes(synth_dir) == {
            "corpus.jsonl": "6f9d3556359f46bb79e2daa3e65edff1a3aeaee171c257d8f6edea9776a66218",
            "neg_queries.jsonl": "c12edb032173ce2e6c90783ce7f346896bead969fda27c09e04f182bce5538bc",
            "qrels.tsv": "57f6e970b8a7281dc53bf2e1462109d278ed8adc7641bdd214b67f5eba689fc6",
            "queries.jsonl": "9e3d96b239797a5a70993ed6c27843d42751a1c628a56d23e09c314c05f42aa8",
        }

    def test_missing_outdir_created(self, tmp_path):
        nested = tmp_path / "x" / "y" / "z"
        assert run_cli("synth", "--clusters", 1, "--docs-per-cluster", 2,
                       "--queries-per-cluster", 1, "--vocab-per-cluster", 10,
                       "--seed", 0, "--outdir", nested) == 0
        assert (nested / "corpus.jsonl").is_file()


class TestMine:
    def test_random_strategy_stable(self, synth_dir, tmp_path):
        outs = []
        for sub in ("m1", "m2"):
            out = tmp_path / sub
            assert run_cli("mine", "--strategy", "random", "--k", 4, "--seed", 3,
                           "--corpus", synth_dir / "corpus.jsonl",
                           "--queries", synth_dir / "queries.jsonl",
                           "--qrels", synth_dir / "qrels.tsv",
                           "--outdir", out) == 0
            outs.append(read_hashes(out))
        assert outs[0] == outs[1]

    def test_ance_attaches_neg_queries(self, synth_dir, tmp_path):
        out = tmp_path / "mined"
        assert run_cli("mine", "--strategy", "ance", "--k", 4,
                       "--init-seed", 1, *ENC_FLAGS,
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv",
                       "--neg-query-map", synth_dir / "neg_queries.jsonl",
                       "--outdir", out) == 0
        examples = load_train_set(out / "train.jsonl")
        assert examples
        for ex in examples:
            assert len(ex.neg) == 4
            assert ex.neg_queries is not None
            assert len(ex.neg_queries) == len(ex.neg)

    def test_unknown_positive_nonzero_exit(self, synth_dir, tmp_path, capsys):
        bad_qrels = tmp_path / "bad.tsv"
        bad_qrels.write_text("q0000\tdoes-not-exist\t1\n")
        code = run_cli("mine", "--strategy", "random", "--k", 2, "--seed", 0,
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", bad_qrels,
                       "--outdir", tmp_path / "m")
        assert code == 1
        assert "unknown doc_id" in capsys.readouterr().err

    def test_non_object_line_names_file_and_line(self, synth_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text((synth_dir / "corpus.jsonl").read_text() + "[1, 2]\n")
        lineno = len(corpus.read_text().splitlines())
        assert run_cli("mine", "--corpus", corpus, "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv", "--strategy", "random",
                       "--outdir", tmp_path / "m") == 1
        assert capsys.readouterr().err == (
            f"error: {corpus}:{lineno}: expected a JSON object, got list\n")

    def test_preset_sets_strategy(self, synth_dir, tmp_path):
        out_r = tmp_path / "ra"
        out_p = tmp_path / "pa"
        run_cli("mine", "--strategy", "random", "--k", 3, "--seed", 2,
                "--corpus", synth_dir / "corpus.jsonl",
                "--queries", synth_dir / "queries.jsonl",
                "--qrels", synth_dir / "qrels.tsv", "--outdir", out_r)
        run_cli("mine", "--preset", "random-dataset", "--k", 3, "--seed", 2,
                "--corpus", synth_dir / "corpus.jsonl",
                "--queries", synth_dir / "queries.jsonl",
                "--qrels", synth_dir / "qrels.tsv", "--outdir", out_p)
        assert read_hashes(out_r) == read_hashes(out_p)


@pytest.fixture
def mined_dir(synth_dir, tmp_path):
    out = tmp_path / "mined"
    run_cli("mine", "--strategy", "ance", "--k", 4, "--init-seed", 1, *ENC_FLAGS,
            "--corpus", synth_dir / "corpus.jsonl",
            "--queries", synth_dir / "queries.jsonl",
            "--qrels", synth_dir / "qrels.tsv",
            "--neg-query-map", synth_dir / "neg_queries.jsonl",
            "--outdir", out)
    return out


class TestTrain:
    def test_zero_epochs_checkpoint_equals_init(self, mined_dir, tmp_path):
        out = tmp_path / "t0"
        assert run_cli("train", "--train-file", mined_dir / "train.jsonl",
                       "--init-seed", 7, *ENC_FLAGS, "--epochs", 0,
                       "--seed", 1, "--outdir", out) == 0
        params, config = load_checkpoint(out / "checkpoint.json")
        from retrieval_lab.encoder import init_params
        fresh = init_params(config, 7)
        for name, t in fresh.named_tensors().items():
            assert params.named_tensors()[name].tobytes() == t.tobytes()

    def test_rerun_identical_checkpoint_hash(self, mined_dir, tmp_path):
        hashes = []
        for sub in ("t1", "t2"):
            out = tmp_path / sub
            assert run_cli("train", "--train-file", mined_dir / "train.jsonl",
                           "--init-seed", 7, *ENC_FLAGS, "--epochs", 1,
                           "--learning-rate", 1e-3, "--seed", 4,
                           "--outdir", out) == 0
            hashes.append(read_hashes(out))
        assert hashes[0] == hashes[1]

    def test_manifest_contents(self, mined_dir, tmp_path):
        out = tmp_path / "t3"
        run_cli("train", "--train-file", mined_dir / "train.jsonl",
                "--preset", "ance-clp", "--init-seed", 7, *ENC_FLAGS,
                "--epochs", 1, "--learning-rate", 1e-3, "--seed", 4,
                "--outdir", out)
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["config"]["loss"] == "clp"
        assert manifest["config"]["freeze"] == "full"
        assert manifest["seed"] == 4
        assert len(manifest["dataset_sha256"]) == 64
        assert manifest["loss_trace_path"] == "loss_trace.csv"
        assert manifest["final_metrics"]["final_loss"] is not None
        trace_lines = (out / "loss_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "step,loss"
        assert len(trace_lines) > 1

    def test_moe_preset_trains_moe(self, mined_dir, tmp_path):
        out = tmp_path / "t4"
        assert run_cli("train", "--train-file", mined_dir / "train.jsonl",
                       "--preset", "ance-clp-moe-intermediate",
                       "--init-seed", 7, *ENC_FLAGS, "--epochs", 1,
                       "--learning-rate", 1e-3, "--seed", 4,
                       "--outdir", out) == 0
        params, config = load_checkpoint(out / "checkpoint.json")
        assert config.moe is not None
        assert params.gate is not None

    def test_config_file_with_flag_override(self, mined_dir, tmp_path):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "train_file": str(mined_dir / "train.jsonl"),
            "init_seed": 7, "vocab_size": 128, "d_model": 8, "d_intermediate": 16,
            "epochs": 1, "learning_rate": 1e-3, "seed": 4,
            "outdir": str(tmp_path / "cfg_out"), "loss": "cl",
        }))
        assert run_cli("train", "--config", config_path, "--loss", "clp") == 0
        manifest = json.loads((tmp_path / "cfg_out" / "run.json").read_text())
        assert manifest["config"]["loss"] == "clp"  # flag beat the config file
        assert manifest["config"]["epochs"] == 1

    def test_missing_train_file_nonzero(self, tmp_path, capsys):
        assert run_cli("train", "--train-file", tmp_path / "nope.jsonl",
                       "--outdir", tmp_path / "x") == 1
        assert "not found" in capsys.readouterr().err

    def test_non_string_query_names_line(self, tmp_path, capsys):
        train_file = tmp_path / "train.jsonl"
        train_file.write_text('{"query": ["a", "b"], "pos": ["p"], "neg": []}\n')
        assert run_cli("train", "--train-file", train_file, *ENC_FLAGS,
                       "--outdir", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err == (f"error: {train_file}:1: invalid training example "
                       "(query must be a string, got list)\n")

    def test_refresh_per_epoch(self, synth_dir, tmp_path):
        out = tmp_path / "t5"
        assert run_cli("train", "--refresh-per-epoch", "--strategy", "ance",
                       "--k", 3, "--init-seed", 7, *ENC_FLAGS,
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv",
                       "--epochs", 2, "--learning-rate", 1e-3, "--seed", 4,
                       "--outdir", out) == 0
        assert (out / "checkpoint.json").is_file()

    def test_mean_loss_last_epoch_with_a_skipped_query(self, synth_dir, tmp_path):
        # q0000 loses its only judgment, so every re-mining skips it; each
        # epoch still sees the same queries, so the trace splits evenly
        qrels = synth_dir / "qrels.tsv"
        lines = qrels.read_text().splitlines(keepends=True)
        qrels.write_text("".join(line for line in lines if not line.startswith("q0000\t")))
        judged = {line.split("\t")[0] for line in qrels.read_text().splitlines()}
        out = tmp_path / "t7"
        assert run_cli("train", "--refresh-per-epoch", "--preset", "ance-clp",
                       "--k", 3, "--init-seed", 7, *ENC_FLAGS,
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", qrels,
                       "--neg-query-map", synth_dir / "neg_queries.jsonl",
                       "--epochs", 2, "--learning-rate", 1e-3, "--seed", 4,
                       "--outdir", out) == 0
        rows = (out / "loss_trace.csv").read_text().splitlines()[1:]
        losses = [float(row.split(",")[1]) for row in rows]
        assert len(losses) == 2 * len(judged)
        last_epoch = losses[len(judged):]
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["final_metrics"]["mean_loss_last_epoch"] == pytest.approx(
            sum(last_epoch) / len(last_epoch), rel=1e-15)

    def test_refresh_rejects_unknown_strategy_from_config(self, synth_dir, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"strategy": "bogus"}))
        assert run_cli("train", "--config", config_path, "--refresh-per-epoch",
                       "--k", 3, "--init-seed", 7, *ENC_FLAGS,
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv",
                       "--epochs", 1, "--outdir", tmp_path / "t6") == 1
        assert "strategy must be" in capsys.readouterr().err


@pytest.fixture
def trained_dir(mined_dir, tmp_path):
    out = tmp_path / "trained"
    run_cli("train", "--train-file", mined_dir / "train.jsonl",
            "--init-seed", 7, *ENC_FLAGS, "--epochs", 1,
            "--learning-rate", 1e-3, "--seed", 4, "--outdir", out)
    return out


class TestEvalAndCompare:
    def test_eval_outputs(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "eval"
        assert run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv",
                       "--k", 5, "--method", "ance-cl", "--dataset", "synth",
                       "--outdir", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == "ance-cl"
        assert 0.0 <= report["mean_ndcg"] <= 1.0
        assert (out / "run.tsv").is_file()
        assert (out / "report.md").is_file()

    def test_eval_rerun_identical(self, synth_dir, trained_dir, tmp_path):
        hashes = []
        for sub in ("e1", "e2"):
            out = tmp_path / sub
            run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                    "--corpus", synth_dir / "corpus.jsonl",
                    "--queries", synth_dir / "queries.jsonl",
                    "--qrels", synth_dir / "qrels.tsv",
                    "--k", 5, "--method", "m", "--dataset", "synth",
                    "--outdir", out)
            hashes.append(read_hashes(out))
        assert hashes[0] == hashes[1]

    def test_compare(self, synth_dir, trained_dir, tmp_path):
        reports = []
        for i, method in enumerate(["m1", "m2"]):
            out = tmp_path / f"ev{i}"
            run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                    "--corpus", synth_dir / "corpus.jsonl",
                    "--queries", synth_dir / "queries.jsonl",
                    "--qrels", synth_dir / "qrels.tsv",
                    "--k", 5, "--method", method, "--dataset", "synth",
                    "--outdir", out)
            reports.append(out / "report.json")
        out = tmp_path / "cmp"
        assert run_cli("compare", *reports, "--outdir", out) == 0
        table = (out / "comparison.tsv").read_text().splitlines()
        assert table[0] == "method\tsynth\taverage"
        assert len(table) == 3

    def test_compare_without_reports_fails(self, tmp_path, capsys):
        assert run_cli("compare", "--outdir", tmp_path / "c") == 1
        assert "at least one" in capsys.readouterr().err

    def test_compare_report_without_dataset_names_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('{"k": 5, "mean_ndcg": 0.5, "method": "m", "per_query": {}}\n')
        assert run_cli("compare", report, "--outdir", tmp_path / "c") == 1
        assert capsys.readouterr().err == f"error: {report}: missing key 'dataset'\n"

    def test_eval_checkpoint_array_names_file(self, tmp_path, capsys):
        checkpoint = tmp_path / "ckpt.json"
        checkpoint.write_text("[1, 2]\n")
        assert run_cli("eval", "--checkpoint", checkpoint, "--outdir", tmp_path / "e") == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint}: expected a JSON object, got list\n")

    @pytest.mark.parametrize("field", ["config", "tensors"])
    def test_eval_checkpoint_array_entry_names_file(self, tmp_path, capsys, field):
        doc = {"format": CHECKPOINT_FORMAT, "tensors": {},
               "config": {"vocab_size": 8, "d_model": 2, "d_intermediate": 4, "moe": None}}
        doc[field] = []
        checkpoint = tmp_path / "ckpt.json"
        checkpoint.write_text(json.dumps(doc) + "\n")
        assert run_cli("eval", "--checkpoint", checkpoint, "--outdir", tmp_path / "e") == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint}: malformed entry ('list' object has no attribute 'get')\n")

    def test_compare_report_array_names_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('["x"]\n')
        assert run_cli("compare", report, "--outdir", tmp_path / "c") == 1
        assert capsys.readouterr().err == f"error: {report}: expected a JSON object, got list\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "retrieval_lab.cli", "synth",
             "--clusters", "1", "--docs-per-cluster", "2",
             "--queries-per-cluster", "1", "--vocab-per-cluster", "10",
             "--seed", "0", "--outdir", str(tmp_path / "cli_out")],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "cli_out" / "corpus.jsonl").is_file()

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--preset", "bogus"])


class TestConfigFileValidation:
    def test_unknown_key_rejected(self, mined_dir, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"train_file": str(mined_dir / "train.jsonl"),
                                           "epochz": 1}))
        assert run_cli("train", "--config", config_path, "--outdir", tmp_path / "t") == 1
        err = capsys.readouterr().err
        assert str(config_path) in err and "unknown key 'epochz'" in err
        assert not (tmp_path / "t").exists()

    @pytest.mark.parametrize("key", ["moe", "refresh_per_epoch", "stop_grad_neg_queries"])
    def test_string_boolean_rejected(self, mined_dir, tmp_path, capsys, key):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"train_file": str(mined_dir / "train.jsonl"),
                                           key: "false"}))
        assert run_cli("train", "--config", config_path, "--outdir", tmp_path / "t") == 1
        err = capsys.readouterr().err
        assert str(config_path) in err and f"{key!r} must be true or false" in err

    def test_keys_of_other_subcommands_accepted(self, synth_dir, tmp_path):
        # one config file can drive the whole pipeline
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"clusters": 2, "epochs": 1, "moe": False,
                                           "method": "m", "reports": []}))
        assert run_cli("synth", "--config", config_path, "--docs-per-cluster", 2,
                       "--outdir", tmp_path / "s") == 0


_PIPELINE = """
import sys
from retrieval_lab.cli import main
out = sys.argv[1]
steps = [["synth", "--clusters", "3", "--docs-per-cluster", "6", "--queries-per-cluster", "3",
          "--vocab-per-cluster", "15", "--seed", "5", "--outdir", out + "/data"]]
bundle = [arg for flag, name in [("--corpus", "corpus.jsonl"), ("--queries", "queries.jsonl"),
                                 ("--qrels", "qrels.tsv"), ("--neg-query-map", "neg_queries.jsonl")]
          for arg in (flag, out + "/data/" + name)]
for preset in ("ance-clp", "ance-clp-intermediate", "ance-clp-moe-intermediate"):
    steps += [["mine", "--preset", preset, "--k", "4", "--init-seed", "1", *bundle,
               "--outdir", out + "/mine-" + preset],
              ["train", "--preset", preset,
               "--train-file", out + "/mine-" + preset + "/train.jsonl",
               "--init-seed", "1", "--epochs", "2", "--learning-rate", "1e-3", "--seed", "4",
               "--outdir", out + "/train-" + preset]]
for step in steps:
    if main(step) != 0:
        sys.exit(1)
"""


# one encode_texts call over 4,000 distinct words (about 2,550 distinct ids)
# on the default encoder, so the token-table gemms span thousands of rows
_ENCODE = """
import hashlib
from retrieval_lab.encoder import EncoderConfig, MoEConfig, encode_texts, init_params, tokenize
texts = [" ".join(f"w{(40 * i + j) % 4000}" for j in range(1 + i % 40)) for i in range(2000)]
for moe in (False, True):
    config = EncoderConfig(moe=MoEConfig() if moe else None)
    assert len({t for text in texts for t in tokenize(text, config)}) >= 2000
    print(hashlib.sha256(encode_texts(init_params(config, 3), config, texts).tobytes()).hexdigest())
"""


class TestBlasThreadDeterminism:
    def test_checkpoints_equal_across_blas_thread_counts(self, tmp_path):
        # default encoder sizes, so the group gemms are large enough for
        # OpenBLAS to split them over threads
        digests = []
        for run, threads in enumerate((1, min(2, os.cpu_count() or 1))):
            out = tmp_path / f"run{run}-threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
            result = subprocess.run([sys.executable, "-c", _PIPELINE, str(out)], env=env,
                                    capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            digests.append([hashlib.sha256((out / f"train-{p}" / "checkpoint.json")
                                           .read_bytes()).hexdigest()
                            for p in ("ance-clp", "ance-clp-intermediate",
                                      "ance-clp-moe-intermediate")])
        assert digests[0] == digests[1]

    def test_encodings_equal_across_blas_thread_counts(self):
        digests = []
        for threads in (1, min(2, os.cpu_count() or 1)):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
            result = subprocess.run([sys.executable, "-c", _ENCODE], env=env,
                                    capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            digests.append(result.stdout.split())
        assert len(digests[0]) == 2  # dense and MoE
        assert digests[0] == digests[1]
