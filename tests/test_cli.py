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
        # sha256 of the synth_dir spec's files; a change to the generator
        # or the file writers must not alter a single byte
        assert read_hashes(synth_dir) == {
            "corpus.jsonl": "6f9d3556359f46bb79e2daa3e65edff1a3aeaee171c257d8f6edea9776a66218",
            "neg_queries.jsonl": "c12edb032173ce2e6c90783ce7f346896bead969fda27c09e04f182bce5538bc",
            "qrels.tsv": "57f6e970b8a7281dc53bf2e1462109d278ed8adc7641bdd214b67f5eba689fc6",
            "queries.jsonl": "9e3d96b239797a5a70993ed6c27843d42751a1c628a56d23e09c314c05f42aa8",
        }

    @pytest.mark.parametrize("flags,expected", [
        (("--clusters", 100, "--docs-per-cluster", 50, "--queries-per-cluster", 20,
          "--vocab-per-cluster", 40), {
            "corpus.jsonl": "c84b9aa9cb0e2479476c8713dd5f85e2e8a7be2ddcef585057b2296b79b6931a",
            "neg_queries.jsonl": "079c1859e6aa9d73ca3b6339a7b786e5c62383d44a03361c9e4e16a94acd504f",
            "qrels.tsv": "607ac6926e320fb5ea73f8a9b236f6496a15eaa2cd763105f8d5a90c10c4372f",
            "queries.jsonl": "4f9621fa56e02666e956b8083a2827ae3b95d712206f31ce1c58e357715fc013"}),
        (("--clusters", 10, "--docs-per-cluster", 50, "--queries-per-cluster", 10,
          "--vocab-per-cluster", 40), {
            "corpus.jsonl": "cbe22edf5c43ba3e4a48ccf4b1375bb126f5d65f8e3958ba9bee28d445153a01",
            "neg_queries.jsonl": "236f75867cdcdcbd01ba1e58a5eca48af1d53baa23b60dd5722be1e816d62db0",
            "qrels.tsv": "f167d49794c54a2cba25d7a4a11591e3ac7980bdaf6285faab0d2fbb7d553300",
            "queries.jsonl": "8a6bdc69317d31cb0bdf8a63c6d463df8af036d3f05dcb118edc0fe824a78345"}),
        (("--clusters", 100, "--docs-per-cluster", 5, "--queries-per-cluster", 1,
          "--vocab-per-cluster", 40), {
            "corpus.jsonl": "54c171cb9e3c106d9bee937922b40ea5d014d7bba501c6eb033a8b3507ce4ddd",
            "neg_queries.jsonl": "487f2785ba4a54700c4fdc69c641dba2a9c1d9d4c1b2757a53c1f18728c5e7c4",
            "qrels.tsv": "1b528b9d711e4d6ae7950b7c1906b0de825c66ccd3188d372a7b154840b0920b",
            "queries.jsonl": "379b184d5ec3514cf83059b482b5f7da39e5f156cf9b8d52bccda4e320958b75"}),
        (("--clusters", 1), {
            "corpus.jsonl": "5f9b79486bf53331c4aad0c8f3b7e0e1bfbfe81e8f157ab56dbcb90606b9785c",
            "neg_queries.jsonl": "ca83f68bd8c0cd815015aee87c20c690ed7795e9b3a99420851b47247aa87370",
            "qrels.tsv": "f1089067538793a1a91af74cdd165fac84587eccb2f77ca2373d23225c202863",
            "queries.jsonl": "94b0888c059b75863909b528035f5873cc4f4015223233eb0dc81e6aee9a7a4c"}),
        (("--clusters", 2, "--vocab-per-cluster", 1, "--doc-words", 1, "--query-words", 1,
          "--noise-rate", 0.9), {
            "corpus.jsonl": "ce9d1ed8ae12f6f69c6868c43c5f6525c27a8d7424580ed7b0d7e3a2fc73e2b8",
            "neg_queries.jsonl": "f67508aa629369850588e33cbdcf3f6e7dfd3c6e9be6253f0ea507163a3b3b4e",
            "qrels.tsv": "e79c637c7a82986a4f05d842a2932aef62b446556baab053236317598db61277",
            "queries.jsonl": "17d7709ce926b9382214166bf0935438a572d7118a02b1e910be58224eb2a35c"}),
    ], ids=["retrieve-5k", "train-dense-clp", "train-moe-wide", "one-cluster",
            "one-word-vocabularies"])
    def test_bundle_bytes_pinned_across_specs(self, tmp_path, flags, expected):
        # sha256 recorded from the per-word generator, before synth read its
        # document words in bulk: an oracle independent of the current code
        assert run_cli("synth", *flags, "--seed", 1, "--outdir", tmp_path) == 0
        assert read_hashes(tmp_path) == expected

    @pytest.mark.parametrize("flags,expected", [
        (("--clusters", 1, "--docs-per-cluster", 1, "--doc-words", 10001, "--query-words", 201,
          "--queries-per-cluster", 2, "--seed", 0), {
            "corpus.jsonl": "4c007de9c9325bf82a070bc5caa4914e1738dcc887524fb0769b18be8e12b5da",
            "neg_queries.jsonl": "8a7ac858cfee63276fd703ec433ed4c866a214f8e933a62f98b84f76c098bd3c",
            "qrels.tsv": "c4e4b9f0032a401de952683a2ffb56225c6dc01c6dc0516db82df73a40cc0d13",
            "queries.jsonl": "9383a46dce4c61118be75a6f14761bbf4ca07cee70148e0121c893b09ecbf558"}),
        (("--clusters", 1, "--docs-per-cluster", 1, "--doc-words", 10001, "--query-words", 201,
          "--queries-per-cluster", 2, "--seed", 1), {
            "corpus.jsonl": "bc255d6cee1ecc22da5a259fc552f65a898bef425999c96144f963b152baa69a",
            "neg_queries.jsonl": "f3daa265295e80e64cff50ffb1a98a7525cdc4ad42237f198cfeaa96ff8f15c5",
            "qrels.tsv": "c4e4b9f0032a401de952683a2ffb56225c6dc01c6dc0516db82df73a40cc0d13",
            "queries.jsonl": "5e04fe6eb5aa0de11971ff3d14460ecaa5ea8c62d336b51c6cb33fd61c4341a5"}),
        (("--clusters", 2, "--docs-per-cluster", 2, "--queries-per-cluster", 1,
          "--vocab-per-cluster", 3, "--noise-rate", 0.5, "--neg-queries-per-doc", 3,
          "--seed", 0), {
            "corpus.jsonl": "e0e754e4088ac249b709e1474cb7604cf75a8c9725378545bdafbe5fd97beab0",
            "neg_queries.jsonl": "15ae20180dfda1e10778263a33a0dab594fa29fd0bea6a3d13a9b447c9fa5cd1",
            "qrels.tsv": "caf051c7cfc597b9f0c3331787d99681fece0b64500f4fbdcd3d3e136d1e2a77",
            "queries.jsonl": "7b312e170f159750ac4210c316ae78638f465978b0abb3de3d771dc4bcc6455a"}),
        (("--clusters", 2, "--docs-per-cluster", 2, "--queries-per-cluster", 1,
          "--vocab-per-cluster", 3, "--noise-rate", 0.5, "--neg-queries-per-doc", 3,
          "--seed", 1), {
            "corpus.jsonl": "bc0e338f148e4ee54418bac26dc1bd3c388e534a7762c68dd44375c0dde670f3",
            "neg_queries.jsonl": "33d00424b1dec8e9b00d5bc694da7427b80bd5d05d94cbb425aa537322cbf4fc",
            "qrels.tsv": "427531d7a015948d21f1edf88aabfc9a48abd00a8d9512eec889fa5a02f8a2dc",
            "queries.jsonl": "4e794e1f846abcfc99a0ed3fedd79d03f4311349bc7328022f41a60dbe26a65e"}),
    ], ids=["tail-shuffle-seed0", "tail-shuffle-seed1", "noise-swaps-seed0", "noise-swaps-seed1"])
    def test_query_draws_pinned(self, tmp_path, flags, expected):
        # sha256 recorded from numpy's own choice/random/integers calls, before
        # synth replayed them from bulk reads; the first spec is the one whose
        # word picks take numpy's tail-shuffle branch (10,001 words, 201 picked)
        assert run_cli("synth", *flags, "--outdir", tmp_path) == 0
        assert read_hashes(tmp_path) == expected

    @pytest.mark.parametrize("flags,expected", [
        (("--clusters", 3, "--docs-per-cluster", 4, "--queries-per-cluster", 3,
          "--vocab-per-cluster", 8, "--doc-words", 6, "--query-words", 6, "--noise-rate", 0.3), {
            "corpus.jsonl": "44ed028e8b7c43956560e2039cec1fd599d727cd0f0055ec3e8a20784c6eee97",
            "neg_queries.jsonl": "7c03c17820bfc4544c92556519e3487c88b14a3bf0ffff24bcbec7a8008b9537",
            "qrels.tsv": "ae3a43d5bb341f5ff6a7b42b2b04c1d426f8ba2f60b95d79a0b9e7eb748ec602",
            "queries.jsonl": "1120f822bff809872f54d618223c5f30330ec71b8014b9dca6d7c7140edbfdd8"}),
        (("--clusters", 3, "--docs-per-cluster", 1, "--queries-per-cluster", 4,
          "--vocab-per-cluster", 10, "--noise-rate", 0.3), {
            "corpus.jsonl": "de2a185a399ad07a06d3614751d23c79645359defaca453e890e8bb606acf77b",
            "neg_queries.jsonl": "51ad7ee9ccac5979c709201937c7914b56a18934abdcbadc06fc2aaccfa03c4a",
            "qrels.tsv": "ca1698fec691683e8e556ac8262953287cbc9bf8b29bc50688b490f7752560b6",
            "queries.jsonl": "cc2014d9b80e2c7af6814a536c0b4ac31316edcb0f3b47ca02072488fee2a2e9"}),
        (("--clusters", 1, "--docs-per-cluster", 5, "--queries-per-cluster", 4,
          "--vocab-per-cluster", 10), {
            "corpus.jsonl": "608616f94024ea3d24ec5ba8dda79b9f46b72378b9ea8b5c7ecf4c58fd742aaa",
            "neg_queries.jsonl": "b92e9f5532f958bf5f31b7631f7349f1e01c695285c25551e051092f0176fffd",
            "qrels.tsv": "3dd5a770d42a52515bc903f9edb8c763a07a43391c14b2ac4e4688caffc0d9c8",
            "queries.jsonl": "6451268763ba4568cceae6d60326cd3da3d2b30f21124ddd3d5df08dcfe8ff4d"}),
        (("--clusters", 2, "--vocab-per-cluster", 1, "--docs-per-cluster", 4,
          "--queries-per-cluster", 3, "--doc-words", 8, "--query-words", 4, "--noise-rate", 0.5), {
            "corpus.jsonl": "dfb3c77ef33ada7e365d02609229e92fdc591d593aebf7401af43f770ce3d70d",
            "neg_queries.jsonl": "b2355ee7e2a54925623be7e33403e86f24650e71454be4541e2a1e80f171c270",
            "qrels.tsv": "bd00c365da8045c7f01cca9f7dd65b8a65540c75f1dd47de7f27ed435bfd245f",
            "queries.jsonl": "3bba8fca1903227e73e91293cc51873a5840e22f0c27746dd3174e426f328b0a"}),
        (("--clusters", 3, "--docs-per-cluster", 4, "--queries-per-cluster", 2,
          "--vocab-per-cluster", 10, "--neg-queries-per-doc", 3, "--noise-rate", 0), {
            "corpus.jsonl": "b72c79a98285f3d944be44c29870b5e2e3ca9ca5d5226cb6cf8b798d7936142f",
            "neg_queries.jsonl": "c3949fe74d141fd0b174f56a65c6eb951db331a20d0276b145f58be4dafd1afe",
            "qrels.tsv": "b62ab8715e63753af3360da135e1a8dfd90012034e5f1fd58f4a8eb2044c3a9c",
            "queries.jsonl": "15fc1896448549f28f1bbacf4cd4c29ff19d21611cb6a1a1abf5420ad4a0272e"}),
    ], ids=["query-words-eq-doc-words", "one-doc-per-cluster", "one-cluster-small",
            "one-word-other-pool", "three-neg-queries-no-noise"])
    def test_one_value_draws_pinned(self, tmp_path, flags, expected):
        # sha256 recorded from numpy's own calls, before synth replayed the query
        # and vocabulary draws in bulk; each spec has a draw of one value (which
        # reads nothing), a run without random() or a run without a noise swap
        assert run_cli("synth", *flags, "--seed", 0, "--outdir", tmp_path) == 0
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
        ("random", "3a311618d58591b4f4eb31ab2bdcda6d0fb4e7a0bdcf4fdd1c59f5c16917bedd"),
        ("ance", "12c90835c5ead0233fc011b4d8cb9c9b75be3d09e14f91bc65ef64d7420af232"),
    ])
    def test_train_set_bytes_pinned(self, synth_dir, tmp_path, strategy, expected):
        # sha256 recorded from train.jsonl written by json.dumps per example;
        # the train-set writer must not alter a single byte
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
