import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from retrieval_lab import cli
from retrieval_lab.data import (
    SynthSpec,
    load_train_set,
    save_id_text,
    save_neg_query_map,
    save_qrels,
    synth_generate,
)
from retrieval_lab.encoder import CHECKPOINT_FORMAT, EncoderConfig, load_checkpoint
from retrieval_lab.losses import LossConfig
from retrieval_lab.training import TrainConfig


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
        # sha256 of the synth_dir spec's files: a regression pin of this
        # generator under numpy 2.4, not an oracle independent of the code. A
        # change to the generator, to numpy's Generator algorithms or to the
        # file writers shows here
        assert read_hashes(synth_dir) == {
            "corpus.jsonl": "f44db552b7082bcf870b0fa43dbdf6ea0a13a1b118b96c5261245d77f6259e86",
            "neg_queries.jsonl": "ef58b86b0424f763a576004171a12b5811d71f0952f1baf845fb5316b51321de",
            "qrels.tsv": "7067a3d905cab75cfc58dc0eeaaa84afb884315ae6c6e6b0cafd9df7074ad1b4",
            "queries.jsonl": "10405380ba9d1f6956262b3ec73c6bca88846ab73cc9c0f201f6554070e4cfad",
        }

    # the benchmark's three synth sizes, one cluster and one-word vocabularies
    @pytest.mark.parametrize("flags,expected", [
        (("--clusters", 100, "--docs-per-cluster", 50, "--queries-per-cluster", 20,
          "--vocab-per-cluster", 40, "--seed", 1), {
            "corpus.jsonl": "79a740ef7e4d8b16c9aa9478bd16cd8152660a1c86ade4a6dda1e97edde3e17d",
            "neg_queries.jsonl": "518a36145e838b944137db0d4f23aec815fa2f307ed6591ebd84d598acdac2df",
            "qrels.tsv": "01ab511d6973f03003cf3e6631aa846dee5125e69373e3556ddd3a9072193ac4",
            "queries.jsonl": "d6f5d051d581cc6a80f8bb950727b809270b88f3923062cb821b6219a2bec7c3"}),
        (("--clusters", 10, "--docs-per-cluster", 50, "--queries-per-cluster", 10,
          "--vocab-per-cluster", 40, "--seed", 1), {
            "corpus.jsonl": "66cebec79026c60bb809484347d3333a624b1ac2e9a2096a5fbad102f76d111d",
            "neg_queries.jsonl": "385169dbdc343654e0b7db1e886f20c92010dfcb87f005e58b49c1f1dadba2be",
            "qrels.tsv": "61bc6ca2479c41cfadad2760eb4db5ecc48b6a2f5e78801e04adf508a7bd9651",
            "queries.jsonl": "29ce7e8d5873ec2ad13ba7d5b94e47a7fdf32ba78334d423c023f15f34bc2563"}),
        (("--clusters", 100, "--docs-per-cluster", 5, "--queries-per-cluster", 1,
          "--vocab-per-cluster", 40, "--seed", 1), {
            "corpus.jsonl": "af2cfc4d9ca1ffa896f89634d9a6e83e397f6774234db766a0eed8cab220b887",
            "neg_queries.jsonl": "ac72263340363260e8ce7b7081d41d5f4e66c99de42089f6e5256139159f012f",
            "qrels.tsv": "80a6d82c4d68c77ea9bc09f3417b2479d9f628a39027d763aa4f0a826e062e66",
            "queries.jsonl": "c9772a8e8494a8b3e96bcec32972f66963fe0015e242f922e5c6b367a9824092"}),
        (("--clusters", 1, "--seed", 1), {
            "corpus.jsonl": "16b0bb7838e29753cb9c38b358f26be73490924cb734fb6147ff9826b682a84e",
            "neg_queries.jsonl": "06133ff43005beba02dc992cc9040a21d22eeb92eeca46f42f2d7f4cdcb2ac4d",
            "qrels.tsv": "fdc86b8be77de858a93274632b2b3e79e0bfde6a935c9e575b4b25b52e1b1f65",
            "queries.jsonl": "979bffc792ee94d3d71f6bc5570ee21943e19dcc5a7f8d2606bed0ebb668e739"}),
        (("--clusters", 2, "--vocab-per-cluster", 1, "--doc-words", 1, "--query-words", 1,
          "--noise-rate", 0.9, "--seed", 1), {
            "corpus.jsonl": "f2838106018394a7afb29eb1d2ae3d5de05c886dff94584462b40b7c0c4e9c86",
            "neg_queries.jsonl": "fff8caadabe747217da9b48465c3412ce9f73c121cb9416c09e27d62fee6447e",
            "qrels.tsv": "573b0fcab4461183099e289747fc4f7dfd38fb662011b4914b579e541eb2b17a",
            "queries.jsonl": "d3cc88c760c01e18bb1ee7639db729b699935e3d62e8c92223ca9f7b312c5678"}),
    ], ids=["retrieve-5k", "train-dense-clp", "train-moe-wide", "one-cluster",
            "one-word-vocabularies"])
    def test_bundle_bytes_pinned_across_specs(self, tmp_path, flags, expected):
        # sha256 of each spec's files: regression pins of this generator under
        # numpy 2.4, like test_bundle_bytes_pinned
        assert run_cli("synth", *flags, "--outdir", tmp_path) == 0
        assert read_hashes(tmp_path) == expected

    @pytest.mark.parametrize("flags,expected", [
        (("--clusters", 1, "--docs-per-cluster", 1, "--doc-words", 10001, "--query-words", 201,
          "--queries-per-cluster", 2, "--seed", 0), {
            "corpus.jsonl": "9dbd5cba44b9d8e0c14b241e00639600dda5b463e31f78c8dabab0f3beacbcb6",
            "neg_queries.jsonl": "bda7e37fd70e0738c8f7b4c752c16e6ceee0f78079401cb1a7970de69cf69e4f",
            "qrels.tsv": "c4e4b9f0032a401de952683a2ffb56225c6dc01c6dc0516db82df73a40cc0d13",
            "queries.jsonl": "d0c86ef005e926fdb110ef6bc2855f6a946b580c2196bdcd74178c89d6950380"}),
        (("--clusters", 1, "--docs-per-cluster", 1, "--doc-words", 10001, "--query-words", 201,
          "--queries-per-cluster", 2, "--seed", 1), {
            "corpus.jsonl": "b0885a32ea4838b196fd303504424114e3add4b36c0827d40c04f917c1514d19",
            "neg_queries.jsonl": "b340631e8f7cc4d784fa089d242f0ac84089e316b0d31045f66d3adbe9b2c5e3",
            "qrels.tsv": "c4e4b9f0032a401de952683a2ffb56225c6dc01c6dc0516db82df73a40cc0d13",
            "queries.jsonl": "5db8febd144cebe40ed94bce97222fbaece72f2abdbc1ec2d524e71334a43150"}),
        (("--clusters", 2, "--docs-per-cluster", 2, "--queries-per-cluster", 1,
          "--vocab-per-cluster", 3, "--noise-rate", 0.5, "--neg-queries-per-doc", 3, "--seed", 0), {
            "corpus.jsonl": "f401aacef73ea5f331b40f5c8d2b43d66d0947f5e033607e7227bf03414f22e5",
            "neg_queries.jsonl": "dda6ad642417b9960932a623cf53a06506b98384a3d0976d261f0cc77c593262",
            "qrels.tsv": "d6423b88a07154b2bbfa1213c0a6fed4384f56175111a55560c1b6fa6d0fde24",
            "queries.jsonl": "4fb319fc86e52364e6edd4e361e1bc79eb8129214ff2f820b192ea506cd48c6a"}),
        (("--clusters", 2, "--docs-per-cluster", 2, "--queries-per-cluster", 1,
          "--vocab-per-cluster", 3, "--noise-rate", 0.5, "--neg-queries-per-doc", 3, "--seed", 1), {
            "corpus.jsonl": "286c979f5ae91f3c2570f38f4263f6644e27484aa70061f6a909f442e57b5c4a",
            "neg_queries.jsonl": "c2bdeb941c237b9b80b28033feb53644734d141a830516744da49a60f827dc98",
            "qrels.tsv": "caf051c7cfc597b9f0c3331787d99681fece0b64500f4fbdcd3d3e136d1e2a77",
            "queries.jsonl": "abe91c50483079a3a81abc717cebfc9f84572c00a2219d3bf9267947fbd85f68"}),
    ], ids=["tail-shuffle-seed0", "tail-shuffle-seed1", "noise-swaps-seed0", "noise-swaps-seed1"])
    def test_query_draws_pinned(self, tmp_path, flags, expected):
        # regression pins of the query draws, like test_bundle_bytes_pinned: a
        # document longer than 10,000 words with 201 picked (the ids name the
        # branch numpy's choice() would take there; the query draw does not call
        # choice()), and noise swaps at noise_rate 0.5 with three neg queries
        assert run_cli("synth", *flags, "--outdir", tmp_path) == 0
        assert read_hashes(tmp_path) == expected

    @pytest.mark.parametrize("flags,expected", [
        (("--clusters", 3, "--docs-per-cluster", 4, "--queries-per-cluster", 3,
          "--vocab-per-cluster", 8, "--doc-words", 6, "--query-words", 6, "--noise-rate", 0.3,
          "--seed", 0), {
            "corpus.jsonl": "a00b37a98f491fcff8ecba0270a224941daae7fd86eda05cf9d51c9db8484f39",
            "neg_queries.jsonl": "acb3a75fd89199ac85daec3e0f1c8044371e7325582be039cada86322649e044",
            "qrels.tsv": "3c1edfa8d42fec6e8daf77c46556a54251aeb6cc3e5f26f984a173bbb9cc29e1",
            "queries.jsonl": "85d9135db29ee7bdfb1e31d1c236cc97d299f63430836a50c0ffe015302eae05"}),
        (("--clusters", 3, "--docs-per-cluster", 1, "--queries-per-cluster", 4,
          "--vocab-per-cluster", 10, "--noise-rate", 0.3, "--seed", 0), {
            "corpus.jsonl": "ec013d698fc27d35f7e5d1ce8e225b5d949573cf611df8cb9e68003e495e5933",
            "neg_queries.jsonl": "eaf2c8aa9c3a7e0b73bf0948f358144e462a816768545a164d7142a1adc96e36",
            "qrels.tsv": "ca1698fec691683e8e556ac8262953287cbc9bf8b29bc50688b490f7752560b6",
            "queries.jsonl": "62e4e2055714e1d82705ae2173aee4e2d0db7e10c31afdcc0f7195cd1d1a3e50"}),
        (("--clusters", 1, "--docs-per-cluster", 5, "--queries-per-cluster", 4,
          "--vocab-per-cluster", 10, "--seed", 0), {
            "corpus.jsonl": "c378adf0575262ceb26dbf8e1273e00eab1e2ca2856d99105027c8fa16130163",
            "neg_queries.jsonl": "dc5f61cb7906a476d62bc9b68c38d3ed6622b82c3b60c47d10a42aa620dee53b",
            "qrels.tsv": "59f2488fbc10876b3f81337f7e04da354ab195ceba922304259d2fbc15dacdb9",
            "queries.jsonl": "b5e964339776be3ce3e0d828b968a400c1764e7158a917b1161c614aff4a3955"}),
        (("--clusters", 2, "--vocab-per-cluster", 1, "--docs-per-cluster", 4,
          "--queries-per-cluster", 3, "--doc-words", 8, "--query-words", 4, "--noise-rate", 0.5,
          "--seed", 0), {
            "corpus.jsonl": "52a4c645a38b79adc347317fdb2c816c8f2966b804fbdb2676f23275bed7b359",
            "neg_queries.jsonl": "facaa3a8eb6a73efe1c2846cbfe6c2dee9ca59346da3283c06d105366452c511",
            "qrels.tsv": "1cdc3e03b04befbf83d9b5794283489c06143e6cff3018f4d6944afaa5b511b4",
            "queries.jsonl": "decc5768e63c66e8e58e4bea3e8d9235294505f9fb21a68c009fc3417592a885"}),
        (("--clusters", 3, "--docs-per-cluster", 4, "--queries-per-cluster", 2,
          "--vocab-per-cluster", 10, "--neg-queries-per-doc", 3, "--noise-rate", 0, "--seed", 0), {
            "corpus.jsonl": "3495f9d66efe457bb3eb62fefef4f99c6b4f8e8a001465a4e938fcab3ba8825a",
            "neg_queries.jsonl": "dac3e30d835a4deab823d2decbc5ac4a0400c3f01b9274f4f51ee6dc260b0247",
            "qrels.tsv": "3be04a8f339f3ec6755b85a3002abf94bdba7a5418dab5a884a4c66a26e621f5",
            "queries.jsonl": "85cb6278fdd54992bb95b4ace071e58eaf46a38b273d83fccdab05da2a3c3a61"}),
    ], ids=["query-words-eq-doc-words", "one-doc-per-cluster", "one-cluster-small",
            "one-word-other-pool", "three-neg-queries-no-noise"])
    def test_one_value_draws_pinned(self, tmp_path, flags, expected):
        # regression pins, like test_bundle_bytes_pinned, of specs with a draw of
        # one value (all pick keys ranked at query_words == doc_words, a target
        # among one document per cluster, a swap from a one-word pool), a run
        # without noise draws (one cluster) or a run without a noise swap
        assert run_cli("synth", *flags, "--outdir", tmp_path) == 0
        assert read_hashes(tmp_path) == expected

    def test_no_flags_write_the_default_spec(self, tmp_path):
        assert run_cli("synth", "--outdir", tmp_path / "cli") == 0
        dataset = synth_generate(SynthSpec(), 0)
        save_id_text(dataset.corpus, tmp_path / "corpus.jsonl")
        save_id_text(dataset.queries, tmp_path / "queries.jsonl")
        save_qrels(dataset.qrels, tmp_path / "qrels.tsv")
        save_neg_query_map(dataset.neg_query_map, tmp_path / "neg_queries.jsonl")
        for name in ("corpus.jsonl", "queries.jsonl", "qrels.tsv", "neg_queries.jsonl"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()

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

    @pytest.mark.parametrize("strategy, expected", [
        ("random", "aab334bd7e154125acfd47a8ff72d4aecd3d7eeccce43a62b445c4267d3e7350"),
        ("ance", "79cd2fdddf965c5bf1e6beb1f940b0061a27ef5e4aa923be52b2c62349fd6091"),
    ], ids=["random", "ance"])
    def test_train_set_bytes_pinned(self, synth_dir, tmp_path, strategy, expected):
        # sha256 of the mined examples, each rendered apart from save_train_set
        # as json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n" (with
        # "neg_queries" only when set): the train-set writer must match it byte
        # for byte
        flags = (["--seed", 3] if strategy == "random" else
                 ["--init-seed", 1, *ENC_FLAGS, "--neg-query-map", synth_dir / "neg_queries.jsonl"])
        out = tmp_path / "mined"
        assert run_cli("mine", "--strategy", strategy, "--k", 4, *flags,
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv", "--outdir", out) == 0
        assert hashlib.sha256((out / "train.jsonl").read_bytes()).hexdigest() == expected

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

    @pytest.mark.parametrize("strategy", ["ance", "random"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, synth_dir, tmp_path, capsys, strategy, k):
        assert run_cli("mine", "--strategy", strategy, "--k", k, *ENC_FLAGS,
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv",
                       "--outdir", tmp_path / "m") == 1
        assert capsys.readouterr().err == "error: k must be >= 1\n"
        assert not (tmp_path / "m" / "train.jsonl").exists()

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
    @pytest.mark.parametrize("refresh", [False, True], ids=["train-file", "refresh-per-epoch"])
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, mined_dir, synth_dir, tmp_path, capsys, epochs,
                                       refresh):
        # TrainConfig(epochs=0) returns the initial parameters; the CLI refuses
        # a run that trains nothing instead of writing them as a checkpoint
        data = (["--refresh-per-epoch", "--corpus", synth_dir / "corpus.jsonl",
                 "--queries", synth_dir / "queries.jsonl", "--qrels", synth_dir / "qrels.tsv"]
                if refresh else ["--train-file", mined_dir / "train.jsonl"])
        out = tmp_path / "t0"
        assert run_cli("train", *data, "--init-seed", 7, *ENC_FLAGS, "--epochs", epochs,
                       "--seed", 1, "--outdir", out) == 1
        assert capsys.readouterr().err == "error: epochs must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("--learning-rate", "nan", "learning_rate"), ("--learning-rate", "inf", "learning_rate"),
        ("--tau", "inf", "tau"), ("--tau", "nan", "tau")])
    def test_non_finite_setting_rejected(self, mined_dir, tmp_path, capsys, flag, value, name):
        out = tmp_path / "t0"
        assert run_cli("train", "--train-file", mined_dir / "train.jsonl", "--init-seed", 7,
                       *ENC_FLAGS, flag, value, "--outdir", out) == 1
        assert capsys.readouterr().err == f"error: {name} must be a finite number > 0\n"
        assert not out.exists()

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

    def test_precedence_ladder(self, mined_dir, tmp_path):
        # one key per rung: flag default, config file, preset over config, flag over preset
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({
            "train_file": str(mined_dir / "train.jsonl"), "init_seed": 7, "vocab_size": 128,
            "d_model": 8, "d_intermediate": 16, "epochs": 1, "seed": 4,
            "learning_rate": 1, "loss": "cl"}))
        assert run_cli("train", "--config", config_path, "--preset", "ance-clp",
                       "--freeze", "intermediate_only", "--outdir", tmp_path / "t") == 0
        recorded = json.loads((tmp_path / "t" / "run.json").read_text())["config"]
        assert recorded["grad_accum_steps"] == TrainConfig.grad_accum_steps
        assert recorded["learning_rate"] == 1.0
        assert isinstance(recorded["learning_rate"], float)  # written as 1.0, not 1
        assert recorded["loss"] == "clp"
        assert recorded["freeze"] == "intermediate_only"

    def test_no_training_flags_record_the_dataclass_defaults(self, mined_dir, tmp_path):
        assert run_cli("train", "--train-file", mined_dir / "train.jsonl",
                       "--outdir", tmp_path / "t") == 0
        manifest = json.loads((tmp_path / "t" / "run.json").read_text())
        train_cfg, loss_cfg = TrainConfig(), LossConfig()
        assert manifest["config"] == {
            "encoder": EncoderConfig().to_dict(),
            "learning_rate": train_cfg.learning_rate,
            "epochs": train_cfg.epochs,
            "grad_accum_steps": train_cfg.grad_accum_steps,
            "loss": train_cfg.loss,
            "tau": loss_cfg.tau,
            "penalty_weight": loss_cfg.lam,
            "freeze": train_cfg.freeze.value,
            "stop_grad_neg_queries": train_cfg.stop_grad_neg_queries,
            "refresh_per_epoch": False,
        }
        assert manifest["seed"] == train_cfg.seed

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

    @pytest.mark.parametrize("strategy", ["ance", "random"])
    def test_refresh_with_k_below_one_rejected(self, synth_dir, tmp_path, capsys, strategy):
        out = tmp_path / "t6"
        assert run_cli("train", "--refresh-per-epoch", "--strategy", strategy,
                       "--k", 0, *ENC_FLAGS,
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv",
                       "--outdir", out) == 1
        assert capsys.readouterr().err == "error: k must be >= 1\n"
        assert not (out / "checkpoint.json").exists()

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

    @pytest.mark.parametrize("name", ["corpus.jsonl", "qrels.tsv"])
    def test_eval_bad_bundle_line_names_file(self, synth_dir, trained_dir, tmp_path, capsys,
                                             name):
        path = synth_dir / name
        lines = path.read_text().splitlines()
        if name == "corpus.jsonl":  # a text the tokenizer splits into no words
            lines.append('{"id": "dx", "text": "!!! ---"}')
            message = "text has no word characters: '!!! ---'"
        else:  # a second judgment of the first line's pair
            qid, did, _ = lines[0].split("\t")
            lines.append(f"{qid}\t{did}\t0")
            message = f"duplicate judgment ({qid!r}, {did!r}) (first seen on line 1)"
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                       "--corpus", synth_dir / "corpus.jsonl",
                       "--queries", synth_dir / "queries.jsonl",
                       "--qrels", synth_dir / "qrels.tsv", "--outdir", tmp_path / "e") == 1
        assert capsys.readouterr().err == f"error: {path}:{len(lines)}: {message}\n"

    def test_compare_report_array_names_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('["x"]\n')
        assert run_cli("compare", report, "--outdir", tmp_path / "c") == 1
        assert capsys.readouterr().err == f"error: {report}: expected a JSON object, got list\n"

    def test_compare_report_of_wrong_type_names_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text('{"dataset": "d", "k": 5, "mean_ndcg": "x", "method": "m", '
                          '"per_query": {}}\n')
        assert run_cli("compare", report, "--outdir", tmp_path / "c") == 1
        assert capsys.readouterr().err == f"error: {report}: 'mean_ndcg' must be a number\n"


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

    @pytest.mark.parametrize("text, message", [
        ('{"epochs": [1]}', "'epochs' must be an integer"),
        ('{"epochs": "two"}', "'epochs' must be an integer"),
        ('{"epochs": 1.7}', "'epochs' must be an integer"),
        ('{"epochs": true}', "'epochs' must be an integer"),
        ('{"learning_rate": null}', "'learning_rate' must be a number"),
        ('{"tau": "0.1"}', "'tau' must be a number"),
        ('{"corpus": 5}', "'corpus' must be a string"),
        ('{"reports": ["a", 1]}', "'reports' must be a list of strings"),
    ], ids=["list", "string", "float", "bool", "null", "string_number", "int_path",
            "int_report"])
    def test_wrong_type_value_rejected(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(text)
        assert run_cli("train", "--config", config_path, "--outdir", tmp_path / "t") == 1
        assert capsys.readouterr().err == f"error: config file {config_path}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ('{"epochs": 1,\n', ":2: malformed JSON ("), ("[1]", ": expected a JSON object, got list")],
        ids=["truncated", "array"])
    def test_malformed_file_names_file(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(text)
        assert run_cli("train", "--config", config_path, "--outdir", tmp_path / "t") == 1
        assert capsys.readouterr().err.startswith(f"error: {config_path}{message}")

    def test_keys_of_other_subcommands_accepted(self, synth_dir, tmp_path):
        # one config file can drive the whole pipeline; an integer fits a float flag
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps({"clusters": 2, "epochs": 1, "moe": False,
                                           "method": "m", "reports": [], "tau": 1}))
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
