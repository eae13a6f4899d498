import base64
import hashlib
import json
import re
import string
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrieval_lab import encoder
from retrieval_lab.data import SynthSpec, synth_generate
from retrieval_lab.encoder import (
    EncoderConfig,
    EncoderParams,
    MoEConfig,
    _TOKEN_RE,
    _backward,
    _forward,
    _mean_rows,
    _words,
    encode,
    encode_texts,
    encode_with_grad,
    init_params,
    load_checkpoint,
    moe_intermediate_forward,
    save_checkpoint,
    stable_token_id,
    tokenize,
    zero_grads,
)
from retrieval_lab.numerics import make_rng, row_norms

from conftest import encoder_instance, finite_diff_params, random_text, rel_error, token_rows


def straight_line_encode(params, config, text):
    """Independent re-derivation of the forward pass, token by token."""
    ids = tokenize(text, config)
    ys = []
    for t in ids:
        x = params.embedding[t]
        if params.is_moe:
            logits = np.array([float(x @ params.gate[:, e])
                               for e in range(params.gate.shape[1])])
            exps = np.exp(logits - logits.max())
            p = exps / exps.sum()
            e = int(np.argmax(p))
            h = p[e] * np.maximum(x @ params.w_up[e] + params.b_up[e], 0.0)
        else:
            h = np.maximum(x @ params.w_up + params.b_up, 0.0)
        ys.append(h @ params.w_down + params.b_down + x)
    pool = sum(ys) / len(ys)
    return pool / np.linalg.norm(pool)


class TestTokenize:
    def test_empty(self):
        assert tokenize("", EncoderConfig()) == []

    def test_case_folding(self):
        ids = tokenize("The THE the", EncoderConfig())
        assert len(ids) == 3
        assert len(set(ids)) == 1

    def test_punctuation_boundaries(self):
        config = EncoderConfig()
        assert tokenize("car, vehicle!", config) == tokenize("car vehicle", config)

    def test_stable_across_calls(self):
        config = EncoderConfig()
        assert tokenize("retrieval lab", config) == tokenize("retrieval lab", config)

    def test_distinct_words_usually_distinct(self):
        ids = tokenize("car vehicle", EncoderConfig())
        assert len(ids) == 2

    def test_pairwise_collision_rate(self):
        # 10k distinct words into 4096 buckets: the chance two given words
        # share a bucket should stay near 1/4096, far under 5%
        words = [f"word{i}x{i * 7}" for i in range(10_000)]
        assert len(set(words)) == 10_000
        buckets = {}
        for w in words:
            buckets.setdefault(stable_token_id(w, 4096), 0)
            buckets[stable_token_id(w, 4096)] += 1
        colliding_pairs = sum(c * (c - 1) // 2 for c in buckets.values())
        total_pairs = 10_000 * 9_999 // 2
        assert colliding_pairs / total_pairs < 0.05


# Characters whose handling differs between str.split(), str.isalnum() and the
# regex: separators outside ASCII, a digit that is not decimal, a capital
# whose lowercase is two code points (i plus a combining dot), and a CJK letter.
_TRICKY = "\t\n\x1c\x85\xa0\u2028\u3000\u00b2\u0130\u4e2d"


def _regex_ids(text, config):
    """The tokenizer's definition: hash every regex word of the lowered text."""
    return [stable_token_id(w, config.vocab_size) for w in _TOKEN_RE.findall(text.lower())]


class TestWords:
    """``_words`` splits on whitespace when every other character is a word
    character; these tests check that shortcut against the regex it replaces."""

    def test_word_characters_are_isalnum_or_underscore_and_never_split_on(self):
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        word = re.compile(r"\w")
        mismatched = [ch for ch in everything
                      if (word.fullmatch(ch) is not None) != (ch.isalnum() or ch == "_")]
        assert mismatched == []
        separators = set(everything) - set("".join(everything.split()))
        assert separators == {ch for ch in everything if ch.isspace()}
        assert not any(word.fullmatch(ch) for ch in separators)

    @given(st.text(alphabet=string.ascii_letters + string.digits + "_" + string.punctuation
                   + _TRICKY + " "))
    @settings(max_examples=300, deadline=None)
    def test_words_equal_regex_findall(self, text):
        assert _words(text) == _TOKEN_RE.findall(text.lower())
        assert tokenize(text, EncoderConfig()) == _regex_ids(text, EncoderConfig())

    @pytest.mark.parametrize("text, split", [
        ("The cat_2 SAT\u3000on\x85the mat\u00b2 \u4e2d", True),
        # \u0130 lowercases to "i" plus U+0307, which is not a word character
        ("The cat-2 sat, on the (mat)! \u0130x", False),
    ])
    def test_tokenize_matches_regex_on_each_path(self, text, split):
        lowered = text.lower()
        assert "".join(lowered.split()).replace("_", "a").isalnum() == split
        config = EncoderConfig()
        assert tokenize(text, config) == _regex_ids(text, config)
        assert _words(text) == _TOKEN_RE.findall(lowered)


class TestEncode:
    def test_unit_norm(self):
        params, config = _dense_instance(0)
        for seed in range(10):
            text = random_text(make_rng(seed), 5)
            vec = encode(params, config, text)
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12

    def test_deterministic(self):
        params, config = _dense_instance(1)
        a = encode(params, config, "alpha beta gamma")
        b = encode(params, config, "alpha beta gamma")
        assert a.tobytes() == b.tobytes()

    def test_empty_input(self):
        params, config = _dense_instance(2)
        with pytest.raises(ValueError, match="empty input"):
            encode(params, config, "...")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_pool_norm_raises(self):
        # the pool norms overflow to inf, which would divide every row to zeros
        params, config = _dense_instance(3)
        params.embedding *= 1e200
        with pytest.raises(ValueError, match=r"^cannot normalize: pool norm inf outside"):
            encode_texts(params, config, ["alpha beta", "gamma"])

    def test_matches_straight_line_oracle(self):
        params, config = _dense_instance(42)
        vec = encode(params, config, "abc")
        np.testing.assert_allclose(vec, straight_line_encode(params, config, "abc"),
                                   rtol=1e-12, atol=1e-14)

    def test_golden_seed_42_abc(self):
        config = EncoderConfig(vocab_size=32, d_model=4, d_intermediate=8)
        params = init_params(config, 42)
        vec = encode(params, config, "abc")
        expected = np.array([-0.13745308545187881, -0.458339090383425,
                             -0.6256188632741327, 0.6161436240373139])
        np.testing.assert_allclose(vec, expected, atol=1e-15)

    def test_moe_matches_straight_line_oracle(self):
        for seed in range(5):
            params, config, text, _ = encoder_instance(seed, moe=True)
            np.testing.assert_allclose(encode(params, config, text),
                                       straight_line_encode(params, config, text),
                                       rtol=1e-12, atol=1e-14)


def _dense_instance(seed, vocab=32, d_model=4, d_int=8):
    config = EncoderConfig(vocab_size=vocab, d_model=d_model, d_intermediate=d_int)
    return init_params(config, seed), config


def _moe_instance(seed, vocab=32, d_model=4, d_int=8, experts=2):
    config = EncoderConfig(vocab_size=vocab, d_model=d_model, d_intermediate=d_int,
                           moe=MoEConfig(num_experts=experts))
    return init_params(config, seed), config


class TestMoEForward:
    def test_requires_moe(self):
        params, config = _dense_instance(0)
        with pytest.raises(ValueError, match="MoE"):
            moe_intermediate_forward(np.zeros(4), params, config)

    def test_rejects_wrong_width(self):
        params, config = _moe_instance(2)
        with pytest.raises(ValueError, match=r"^x has dimension 5, expected 4$"):
            moe_intermediate_forward(np.ones(5), params, config)

    def test_saturated_gate_matches_selected_expert(self):
        params, config = _moe_instance(3)
        x = make_rng(5).standard_normal(4)
        # force logits to (+20, -20) for this x by construction
        direction = x / np.linalg.norm(x) ** 2
        params.gate[:, 0] = 20.0 * direction
        params.gate[:, 1] = -20.0 * direction
        h, route, gate_prob = moe_intermediate_forward(x, params, config)
        assert route == 0
        dense = np.maximum(x @ params.w_up[0] + params.b_up[0], 0.0)
        np.testing.assert_allclose(h, dense, atol=1e-8)
        assert gate_prob == pytest.approx(1.0, abs=1e-8)

    def test_tie_breaks_to_lowest_index_at_half_weight(self):
        params, config = _moe_instance(4)
        params.w_up[1] = params.w_up[0].copy()
        params.b_up[1] = params.b_up[0].copy()
        params.gate[:] = 0.0
        x = make_rng(6).standard_normal(4)
        h, route, gate_prob = moe_intermediate_forward(x, params, config)
        assert route == 0
        assert gate_prob == pytest.approx(0.5, abs=1e-15)
        dense = np.maximum(x @ params.w_up[0] + params.b_up[0], 0.0)
        np.testing.assert_allclose(h, 0.5 * dense, atol=1e-15)

    def test_matches_evaluate_all_oracle(self):
        params, config = _moe_instance(7)
        rng = make_rng(7)
        for _ in range(20):
            x = rng.standard_normal(4)
            h, route, gate_prob = moe_intermediate_forward(x, params, config)
            logits = x @ params.gate
            exps = np.exp(logits - logits.max())
            p = exps / exps.sum()
            all_outputs = [p[e] * np.maximum(x @ params.w_up[e] + params.b_up[e], 0.0)
                           for e in range(2)]
            best = int(np.argmax(p))
            assert route == best
            np.testing.assert_allclose(h, all_outputs[best], rtol=1e-12, atol=1e-15)

    def test_gate_probs_sum_to_one(self):
        params, config = _moe_instance(8, experts=2)
        rng = make_rng(9)
        for _ in range(20):
            x = rng.standard_normal(4)
            logits = x @ params.gate
            exps = np.exp(logits - logits.max())
            assert abs((exps / exps.sum()).sum() - 1.0) <= 1e-12


class TestEncodeWithGrad:
    def test_zero_upstream_zero_grads(self):
        params, config, text, _ = encoder_instance(0, moe=False)
        _, grads = encode_with_grad(params, config, text, np.zeros(8))
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_rejects_wrong_width_upstream(self):
        params, config, text, _ = encoder_instance(0, moe=False)
        with pytest.raises(ValueError, match=r"^upstream has dimension 7, expected 8$"):
            encode_with_grad(params, config, text, np.ones(7))

    def test_returns_forward_output(self):
        params, config, text, upstream = encoder_instance(1, moe=False)
        out, _ = encode_with_grad(params, config, text, upstream)
        np.testing.assert_allclose(out, encode(params, config, text), atol=0)

    @pytest.mark.parametrize("moe", [False, True])
    def test_finite_differences(self, moe):
        for seed in range(10):
            params, config, text, upstream = encoder_instance(seed, moe=moe)
            _, grads = encode_with_grad(params, config, text, upstream)
            fd = finite_diff_params(params, config, text, upstream)
            for name in grads:
                assert rel_error(grads[name], fd[name]) < 1e-5, name

    def test_moe_only_routed_expert_gets_gradient(self):
        for seed in range(10):
            params, config, text, upstream = encoder_instance(seed, moe=True, n_tokens=1)
            ids = tokenize(text, config)
            _, route, _ = moe_intermediate_forward(params.embedding[ids[0]], params, config)
            _, grads = encode_with_grad(params, config, text, upstream)
            other = 1 - route
            assert np.all(grads[f"w_up.{other}"] == 0.0)
            assert np.all(grads[f"b_up.{other}"] == 0.0)
            assert np.any(grads[f"w_up.{route}"] != 0.0)

    @pytest.mark.parametrize("moe", [False, True])
    def test_accumulates_into_given_dict(self, moe):
        params, config, text_a, up_a = encoder_instance(4, moe=moe)
        _, _, text_b, up_b = encoder_instance(5, moe=moe)
        _, fresh_a = encode_with_grad(params, config, text_a, up_a)
        _, fresh_b = encode_with_grad(params, config, text_b, up_b)
        grads = zero_grads(params)
        _, returned = encode_with_grad(params, config, text_a, up_a, grads)
        assert returned is grads
        _, returned = encode_with_grad(params, config, text_b, up_b, grads)
        assert returned is grads
        for name in grads:
            np.testing.assert_allclose(grads[name], fresh_a[name] + fresh_b[name],
                                       rtol=1e-15, atol=1e-15, err_msg=name)

    def test_moe_two_experts_match_per_token_oracle(self):
        rng = make_rng(31)
        params, config = _moe_instance(31, vocab=64, d_model=8, d_int=16)
        while True:
            text = random_text(rng, 6)
            ids = tokenize(text, config)
            routed = [moe_intermediate_forward(params.embedding[t], params, config)
                      for t in ids]
            if {route for _, route, _ in routed} == {0, 1}:
                break
        ys = [h @ params.w_down + params.b_down + params.embedding[t]
              for (h, _, _), t in zip(routed, ids)]
        pool = sum(ys) / len(ys)
        np.testing.assert_allclose(encode(params, config, text), pool / np.linalg.norm(pool),
                                   rtol=0, atol=1e-12)
        _, grads = encode_with_grad(params, config, text, rng.standard_normal(8))
        for e in (0, 1):
            assert np.any(grads[f"w_up.{e}"] != 0.0)
            assert np.any(grads[f"b_up.{e}"] != 0.0)

    def test_untouched_embedding_rows_zero(self):
        params, config, text, upstream = encoder_instance(3, moe=False)
        ids = set(tokenize(text, config))
        _, grads = encode_with_grad(params, config, text, upstream)
        for row in range(config.vocab_size):
            if row not in ids:
                assert np.all(grads["embedding"][row] == 0.0)


class TestMoEDenseAgreement:
    def test_saturated_moe_equals_dense_encoder(self):
        dense_params, config = _dense_instance(11, vocab=64, d_model=8, d_int=16)
        moe_config = EncoderConfig(vocab_size=64, d_model=8, d_intermediate=16,
                                   moe=MoEConfig(num_experts=2))
        moe_params = init_params(moe_config, 12)
        moe_params.embedding = dense_params.embedding.copy()
        moe_params.w_down = dense_params.w_down.copy()
        moe_params.b_down = dense_params.b_down.copy()
        moe_params.w_up[0] = dense_params.w_up.copy()
        moe_params.b_up[0] = dense_params.b_up.copy()
        # constant embedding feature drives the gate hard toward expert 0
        moe_params.embedding[:, 0] = 1.0
        dense_params.embedding[:, 0] = 1.0
        moe_params.gate[:] = 0.0
        moe_params.gate[0, 0] = 40.0
        moe_params.gate[0, 1] = -40.0
        rng = make_rng(13)
        for _ in range(50):
            text = random_text(rng, int(rng.integers(1, 8)))
            a = encode(moe_params, moe_config, text)
            b = encode(dense_params, config, text)
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_one_expert_moe_is_the_dense_encoder_bit_for_bit(self):
        # one expert's gate probability is exactly 1: the routed layer is the dense one
        dense, config = _dense_instance(14, vocab=256, d_model=8, d_int=16)
        moe, moe_config = _moe_instance(15, vocab=256, d_model=8, d_int=16, experts=1)
        moe.embedding, moe.w_down, moe.b_down = dense.embedding, dense.w_down, dense.b_down
        moe.w_up, moe.b_up = [dense.w_up], [dense.b_up]
        rng = make_rng(16)
        texts = [random_text(rng, int(rng.integers(1, 12))) for _ in range(200)]
        upstreams = rng.standard_normal((len(texts), 8))

        def encode_and_backprop(params, cfg):
            out, ctx = _forward(params, cfg, texts)
            grads = zero_grads(params)
            _backward(params, ctx, upstreams, grads)
            return out, grads

        dense_out, dense_grads = encode_and_backprop(dense, config)
        moe_out, moe_grads = encode_and_backprop(moe, moe_config)
        assert moe_out.tobytes() == dense_out.tobytes()
        assert not np.any(moe_grads.pop("gate"))
        assert list(moe_grads) == ["embedding", "w_up.0", "b_up.0", "w_down", "b_down"]
        for name, grad in moe_grads.items():
            assert np.any(grad), name
            assert grad.tobytes() == dense_grads[name.removesuffix(".0")].tobytes(), name


class TestCheckpoint:
    @pytest.mark.parametrize("moe", [False, True])
    def test_round_trip_bit_exact(self, tmp_path, moe):
        if moe:
            params, config = _moe_instance(21)
        else:
            params, config = _dense_instance(20)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, path)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        for name, tensor in params.named_tensors().items():
            assert loaded.named_tensors()[name].tobytes() == tensor.tobytes()

    def test_loads_a_file_that_records_experts_per_token(self, tmp_path):
        # files written before MoEConfig lost its one-value field carry it
        params, config = _moe_instance(23, experts=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, path)
        doc = json.loads(path.read_text())
        assert doc["config"]["moe"] == {"num_experts": 3}
        doc["config"]["moe"]["experts_per_token"] = 1
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        loaded, loaded_config = load_checkpoint(path)
        assert loaded_config == config
        assert list(loaded.named_tensors()) == list(params.named_tensors())
        for name, tensor in params.named_tensors().items():
            assert loaded.named_tensors()[name].tobytes() == tensor.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        params, config = _dense_instance(22)
        save_checkpoint(params, config, tmp_path / "a.json")
        save_checkpoint(params, config, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a"):
            load_checkpoint(path)

    @pytest.mark.parametrize("experts", [None, 2, 3])
    def test_bytes_equal_one_dumps_of_the_whole_document(self, tmp_path, experts):
        # d_model=4, d_int=8: the 32- and 64-byte biases end their base64 in
        # "=" and "==" padding
        if experts is None:
            params, config = _dense_instance(24, vocab=48)
        else:
            params, config = _moe_instance(24, vocab=48, experts=experts)
        expected = one_dumps_checkpoint(params, config)
        payloads = [entry["data"] for entry in json.loads(expected)["tensors"].values()]
        assert any(data.endswith("==") for data in payloads)
        assert any(data.endswith("=") and not data.endswith("==") for data in payloads)
        assert any("+" in data for data in payloads) and any("/" in data for data in payloads)
        save_checkpoint(params, config, tmp_path / "ckpt.json")
        assert (tmp_path / "ckpt.json").read_bytes() == expected


def one_dumps_checkpoint(params, config) -> bytes:
    """The v1 checkpoint as one ``json.dumps`` over the full base64 payloads."""
    tensors = {name: {"shape": list(t.shape), "dtype": "<f8",
                      "data": base64.b64encode(t.astype("<f8").tobytes()).decode("ascii")}
               for name, t in params.named_tensors().items()}
    doc = {"format": "retrieval-lab-checkpoint-v1", "config": config.to_dict(),
           "tensors": tensors}
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


class TestParams:
    def test_named_tensors_order_dense(self):
        params, _ = _dense_instance(0)
        assert list(params.named_tensors()) == [
            "embedding", "w_up", "b_up", "w_down", "b_down"]

    def test_named_tensors_order_moe(self):
        params, _ = _moe_instance(0)
        assert list(params.named_tensors()) == [
            "embedding", "w_up.0", "b_up.0", "w_up.1", "b_up.1",
            "w_down", "b_down", "gate"]

    def test_copy_is_deep(self):
        params, _ = _dense_instance(1)
        clone = params.copy()
        clone.embedding[0, 0] += 1.0
        assert params.embedding[0, 0] != clone.embedding[0, 0]

    def test_zero_grads_shapes(self):
        params, _ = _moe_instance(2)
        grads = zero_grads(params)
        for name, tensor in params.named_tensors().items():
            assert grads[name].shape == tensor.shape
            assert np.all(grads[name] == 0.0)

    def test_shape_check_rejects_mismatch(self):
        params, config = _dense_instance(3)
        params.w_down = params.w_down[:-1]
        with pytest.raises(ValueError):
            params.check_shapes(config)
        dense, dense_config = _dense_instance(3)
        moe, moe_config = _moe_instance(3)
        moe.check_shapes(moe_config)
        wrong_gate, one_up = moe.copy(), moe.copy()
        wrong_gate.gate = wrong_gate.gate[:, :1]
        del one_up.w_up[1]
        for params, config in [
                (dense, moe_config), (moe, dense_config),
                (moe, _moe_instance(3, experts=3)[1]), (_moe_instance(3, experts=3)[0], moe_config),
                (wrong_gate, moe_config), (one_up, moe_config)]:
            with pytest.raises(ValueError):
                params.check_shapes(config)

    @pytest.mark.parametrize("experts", [None, 2, 3])
    def test_init_draws_pinned(self, experts):
        # sha256 prefixes of each tensor's little-endian bytes, recorded when the
        # draw order was embedding, w_up (per expert), w_down, gate; biases are zero
        params, _ = (_dense_instance(5, vocab=48) if experts is None
                     else _moe_instance(5, vocab=48, experts=experts))
        shared = {"embedding": "8d34a9a58671ca8a", "b_down": "66687aadf862bd77",
                  "w_up.0": "51a259e5366d59e9", "w_up.1": "3d7a9114849737a6",
                  "w_up.2": "083494978f40084a"}
        expected = {
            None: {"w_up": "51a259e5366d59e9", "w_down": "d6e665c93798c1a7"},
            2: {"w_down": "240d8fcffc94130e", "gate": "a83eae8d76a215fa"},
            3: {"w_down": "78c603a9cb462b99", "gate": "b37ab92df467ce4f"},
        }[experts]
        for name, tensor in params.named_tensors().items():
            digest = hashlib.sha256(np.ascontiguousarray(tensor, "<f8").tobytes()).hexdigest()
            if name.startswith("b_up"):
                assert not np.any(tensor), name
            else:
                assert digest[:16] == expected.get(name, shared.get(name)), name

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(vocab_size=1)
        with pytest.raises(ValueError):
            EncoderConfig(d_model=64, d_intermediate=32)


# Every text has at least two distinct words: a one-row product goes through
# BLAS gemv, whose rounding can differ from the gemm a larger table uses.
_BATCH = ["alpha beta gamma", "delta alpha alpha epsilon", "alpha beta gamma",
          "zeta eta, theta zeta zeta iota", "Gamma DELTA"]


class TestTokenTable:
    @pytest.mark.parametrize("moe", [False, True])
    def test_batch_rows_equal_single_text_encodings(self, moe):
        make = _moe_instance if moe else _dense_instance
        params, config = make(40, vocab=4096, d_model=8, d_int=16)
        rows = encode_texts(params, config, _BATCH)
        assert rows.shape == (len(_BATCH), 8)
        assert rows[0].tobytes() == rows[2].tobytes()  # the repeated text
        for row, text in zip(rows, _BATCH):
            single = encode(params, config, text)
            if moe:
                np.testing.assert_allclose(row, single, rtol=0, atol=1e-15)
            else:
                assert row.tobytes() == single.tobytes(), text

    def test_matches_straight_line_oracle(self):
        for moe in (False, True):
            params, config, _, _ = encoder_instance(42, moe=moe)
            rows = encode_texts(params, config, _BATCH)
            for row, text in zip(rows, _BATCH):
                np.testing.assert_allclose(row, straight_line_encode(params, config, text),
                                           rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("moe", [False, True])
    def test_one_backward_equals_sum_of_single_text_grads(self, moe):
        make = _moe_instance if moe else _dense_instance
        params, config = make(43, vocab=64, d_model=8, d_int=16)
        upstreams = make_rng(43).standard_normal((len(_BATCH), 8))
        expected = zero_grads(params)
        for text, upstream in zip(_BATCH, upstreams):
            encode_with_grad(params, config, text, upstream, expected)
        grads = zero_grads(params)
        _backward(params, _forward(params, config, _BATCH)[1], upstreams, grads)
        for name in grads:
            assert np.any(grads[name] != 0.0), name
            # summation order differs; entries that cancel keep the rounding
            # of the tensor's largest terms, so atol scales with them
            scale = max(1.0, float(np.abs(expected[name]).max()))
            np.testing.assert_allclose(grads[name], expected[name],
                                       rtol=1e-15, atol=1e-15 * scale, err_msg=name)

    def test_synth_texts_alone_equal_their_batch_rows(self):
        # dense only: an MoE gate logit depends on the row's position in the
        # table, so an MoE text alone may differ in its last bits (ROADMAP item 8)
        bundle = synth_generate(SynthSpec(), seed=1)
        texts = [d.text for d in bundle.corpus[:300]] + [q.text for q in bundle.queries[:100]]
        config = EncoderConfig()
        params = init_params(config, 1)
        rows = encode_texts(params, config, texts)
        assert [i for i, text in enumerate(texts)
                if encode(params, config, text).tobytes() != rows[i].tobytes()] == []

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_empty_text_anywhere_raises(self, where):
        params, config = _dense_instance(44)
        texts = list(_BATCH)
        texts[where] = " ... "
        with pytest.raises(ValueError, match="empty input"):
            encode_texts(params, config, texts)

    def test_no_texts_no_rows(self):
        params, config = _dense_instance(45)
        assert encode_texts(params, config, []).shape == (0, 4)


def mean_pool_oracle(table, ctx, texts, config):
    """Per text: its rows of ``table`` averaged with ``.mean(axis=0)``, then scaled
    by ``sqrt(row @ row)``. ``table`` is in ``ctx``'s row order: distinct id
    ``ctx["uniq"][r]`` is its row ``r``."""
    row_of = {i: r for r, i in enumerate(ctx["uniq"].tolist())}
    rows = []
    for text in texts:
        pool = table[[row_of[i] for i in tokenize(text, config)]].mean(axis=0)
        rows.append(pool / np.sqrt(pool @ pool))
    return np.array(rows)


def _wide_texts(seed, count):
    """``count`` texts of 1-40 words drawn from 2,000 distinct words."""
    rng = make_rng(seed)
    return [" ".join(f"w{int(i)}" for i in rng.integers(0, 2000, size=int(rng.integers(1, 41))))
            for _ in range(count)]


class TestOneTablePerCall:
    @pytest.mark.parametrize("moe", [False, True])
    def test_bitwise_equal_to_mean_pool_oracle(self, moe):
        make = _moe_instance if moe else _dense_instance
        params, config = make(47, vocab=1024, d_model=16, d_int=32)
        texts = _wide_texts(47, 320)  # more than two of the 128-text blocks encode_texts once used
        out, ctx = _forward(params, config, texts)
        table = ctx["h"] @ params.w_down + params.b_down + ctx["x"]
        expected = mean_pool_oracle(table, ctx, texts, config)
        assert encode_texts(params, config, texts).tobytes() == expected.tobytes()
        assert out.tobytes() == expected.tobytes()

    def test_negative_zero_column_pools_like_mean(self):
        rng = make_rng(48)
        table = rng.standard_normal((6, 3))
        table[:, 1] = -0.0
        lengths = np.array([1, 4, 2, 5])
        inv = rng.integers(0, len(table), size=int(lengths.sum()))
        starts = np.cumsum(lengths) - lengths
        expected = np.array([table[inv[s:s + n]].mean(axis=0) for s, n in zip(starts, lengths)])
        pooled = _mean_rows(table, inv, lengths)
        assert pooled.tobytes() == expected.tobytes()
        assert np.array_equal(np.signbit(pooled[:, 1]), np.signbit(expected[:, 1]))

    def test_table_rows_are_the_distinct_ids(self):
        params, config = _moe_instance(49, vocab=1024, d_model=8, d_int=16)
        texts = _wide_texts(49, 300)
        ctx = _forward(params, config, texts)[1]
        ids = sorted({i for text in texts for i in tokenize(text, config)})
        assert sorted(ctx["uniq"].tolist()) == ids
        assert len(ctx["x"]) == len(ids)

    def test_one_forward_per_call(self, monkeypatch):
        params, config = _dense_instance(50, vocab=1024, d_model=8, d_int=16)
        forward, calls = encoder._forward, []

        def counting(params, config, texts, *args):
            calls.append(len(texts))
            return forward(params, config, texts, *args)

        monkeypatch.setattr(encoder, "_forward", counting)
        assert encode_texts(params, config, _wide_texts(50, 1000)).shape == (1000, 8)
        assert calls == [1000]

    @pytest.mark.parametrize("moe", [False, True])
    def test_skewed_lengths_match_mean_pool_oracle(self, moe):
        make = _moe_instance if moe else _dense_instance
        params, config = make(52, vocab=1024, d_model=8, d_int=16)
        rng = make_rng(52)
        texts = _wide_texts(52, 1500) + [
            " ".join(f"w{int(i)}" for i in rng.integers(0, 2000, size=3000))]
        texts.insert(700, texts.pop())  # the long text among the short ones
        out, ctx = _forward(params, config, texts)
        table = ctx["h"] @ params.w_down + params.b_down + ctx["x"]
        assert out.tobytes() == mean_pool_oracle(table, ctx, texts, config).tobytes()

    def test_pooling_memory_grows_with_tokens_not_texts_times_longest(self):
        rng = make_rng(53)
        table = rng.standard_normal((50, 8))
        lengths = np.concatenate([rng.integers(1, 4, size=2000), [3000]])
        inv = rng.integers(0, len(table), size=int(lengths.sum()))
        tracemalloc.start()
        try:
            pooled = _mean_rows(table, inv, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pooled[-1].tobytes() == table[inv[-3000:]].mean(axis=0).tobytes()
        # a (texts x longest text) index matrix alone would take 48 MB here
        assert peak < len(lengths) * lengths.max() * inv.itemsize / 10

    def test_each_distinct_word_hashed_once(self, monkeypatch):
        params, config = _dense_instance(51, vocab=1024, d_model=8, d_int=16)
        texts = _wide_texts(51, 400)
        hashed = []

        def counting(token, vocab_size):
            hashed.append(token)
            return stable_token_id(token, vocab_size)

        monkeypatch.setattr(encoder, "stable_token_id", counting)
        encoder._word_ids.cache_clear()
        encode_texts(params, config, texts)
        assert sorted(hashed) == sorted({w for text in texts for w in text.split()})
        encode_texts(params, config, texts[::-1])  # a later call reuses the ids
        tokenize(texts[0], config)
        assert len(hashed) == len(set(hashed))

    def test_memo_is_keyed_by_vocabulary_size(self):
        # one regex-path text and one split-path text of ``_words``, at one
        # size, another, then the first again, in one process
        encoder._word_ids.cache_clear()
        texts = ["Ünïcode, a-b x²", "memo keyed by size"]
        for vocab_size in (64, 4096, 64):
            config = EncoderConfig(vocab_size=vocab_size, d_model=4, d_intermediate=8)
            want = [_regex_ids(text, config) for text in texts]
            assert [tokenize(text, config) for text in texts] == want, vocab_size
            uniq = _forward(init_params(config, 55), config, texts)[1]["uniq"]
            assert uniq.tolist() == sorted({i for ids in want for i in ids}), vocab_size


# trainable sets of the freeze modes, plus two subsets that split the gate
# from the input-gradient chain
_SUBSETS = {
    "full": lambda name: True,
    "intermediate_only": lambda name: name.startswith(("w_up", "b_up")),
    "moe_only": lambda name: name.startswith(("w_up", "b_up", "gate")),
    "all_but_gate": lambda name: name != "gate",
    "gate_and_down": lambda name: name in ("gate", "w_down", "b_down"),
}


class TestPartialBackward:
    @pytest.mark.parametrize("moe", [False, True])
    @pytest.mark.parametrize("subset", sorted(_SUBSETS))
    def test_partial_dict_matches_full_dict_bitwise(self, moe, subset):
        make = _moe_instance if moe else _dense_instance
        params, config = make(43, vocab=64, d_model=8, d_int=16)
        upstreams = make_rng(43).standard_normal((len(_BATCH), 8))
        ctx = _forward(params, config, _BATCH)[1]
        full = zero_grads(params)
        _backward(params, ctx, upstreams, full)
        names = [name for name in full if _SUBSETS[subset](name)]
        partial = {name: np.zeros_like(full[name]) for name in names}
        _backward(params, ctx, upstreams, partial)
        assert list(partial) == names  # nothing frozen was added
        for name in names:
            assert np.any(full[name] != 0.0), name
            assert partial[name].tobytes() == full[name].tobytes(), name

    def test_empty_dict_stays_empty(self):
        params, config = _moe_instance(43, vocab=64, d_model=8, d_int=16)
        grads = {}
        _backward(params, _forward(params, config, _BATCH)[1],
                  np.ones((len(_BATCH), 8)), grads)
        assert grads == {}


def _gather_scatter_forward(params, config, texts):
    """The forward with id-ordered table rows: each expert gathers its rows of
    ``x``, multiplies them and scatters the product into ``h``. Returns the
    encodings and the context ``_gather_scatter_backward`` reads."""
    uniq, inv, lengths = token_rows(texts, config)
    x = params.embedding[uniq]
    names = encoder._expert_names(config)
    p = route = pe = None
    experts = [0]
    if params.is_moe:
        logits = x @ params.gate
        z = np.exp(logits - logits.max(1, keepdims=True))
        p = z / z.sum(1, keepdims=True)
        route = p.argmax(1)
        pe = p.max(1)
        experts = np.bincount(route).nonzero()[0].tolist()
    groups = [(slice(None) if len(experts) == 1 else (route == e).nonzero()[0], *names[e])
              for e in experts]
    h = None if len(groups) == 1 else np.empty((len(x), config.d_intermediate))
    for rows, w_name, b_name in groups:
        u = x[rows] @ params._tensor(w_name)
        u += params._tensor(b_name)
        if h is None:
            h = u
        else:
            h[rows] = u
    np.maximum(h, 0.0, out=h)
    if pe is not None:
        h *= pe[:, None]
    table = h @ params.w_down
    table += params.b_down
    table += x
    pool = _mean_rows(table, inv, lengths)
    norms = row_norms(pool, "pool")
    pool /= norms[:, None]
    return pool, dict(h=h, p=p, route=route, pe=pe, groups=groups, uniq=uniq, inv=inv,
                      lengths=lengths, x=x, norms=norms, out=pool)


def _gather_scatter_backward(params, ctx, upstreams, grads):
    """``_backward`` on ``_gather_scatter_forward``'s id-ordered rows; its three
    sums over all rows (``b_down``, ``w_down``, the gate) run in stable (route,
    id) order, as their bits depend on the order."""
    out, lengths, inv, x, h = (ctx[k] for k in ("out", "lengths", "inv", "x", "h"))
    by_route = slice(None) if ctx["route"] is None else ctx["route"].argsort(kind="stable")

    def add(name, grad):
        if name in grads:
            grads[name] += grad()

    dpool = (upstreams - out * np.sum(out * upstreams, axis=1)[:, None]) / ctx["norms"][:, None]
    n, m = len(lengths), len(ctx["uniq"])
    counts = np.bincount(np.repeat(np.arange(n) * m, lengths) + inv, minlength=n * m)
    dtable = counts.reshape(n, m).T.astype(np.float64) @ (dpool / lengths[:, None])
    add("b_down", lambda: dtable[by_route].sum(axis=0))
    add("w_down", lambda: h[by_route].T @ dtable[by_route])
    dh = dtable @ params.w_down.T
    want_dx = "embedding" in grads
    p, pe = ctx["p"], ctx["pe"]
    du = (h > 0) * (dh if pe is None else pe[:, None] * dh)
    dx = dtable
    if p is not None and (want_dx or "gate" in grads):
        onehot = ctx["route"][:, None] == np.arange(p.shape[1])
        dlogits = np.sum(h * dh, axis=1)[:, None] * (onehot - p)
        add("gate", lambda: x[by_route].T @ dlogits[by_route])
        if want_dx:
            dx = dtable + dlogits @ params.gate.T
    for rows, w_name, b_name in ctx["groups"]:
        add(b_name, lambda: du[rows].sum(axis=0))
        add(w_name, lambda: x[rows].T @ du[rows])
        if want_dx:
            dx[rows] += du[rows] @ params._tensor(w_name).T
    if want_dx:
        grads["embedding"][ctx["uniq"]] += dx


_ROUTINGS = [(None, "spread")] + [(e, r) for e in (1, 2, 3, 4)
                                  for r in ("spread", "one_idle", "one_takes_all")
                                  if e > 1 or r == "spread"]


class TestExpertMajorTable:
    @pytest.mark.parametrize("experts, routing", _ROUTINGS)
    def test_bitwise_equal_to_gather_scatter_oracle(self, experts, routing):
        config = EncoderConfig(vocab_size=256, d_model=8, d_intermediate=16,
                               moe=None if experts is None else MoEConfig(experts))
        params = init_params(config, 60)
        if routing != "spread":  # a constant last input column carries a gate bias
            params.embedding[:, -1] = 1.0
            if routing == "one_idle":  # expert 1 never wins
                params.gate[-1, 1] = -50.0
            else:  # the last expert wins every row
                params.gate[-1, -1] = 50.0
        texts = _wide_texts(60, 80)
        texts.insert(40, texts[3])  # a repeated text
        out, ctx = _forward(params, config, texts)
        want_out, want_ctx = _gather_scatter_forward(params, config, texts)
        assert out.tobytes() == want_out.tobytes()
        assert encode_texts(params, config, texts).tobytes() == want_out.tobytes()
        # one row order: ids map to rows and rows to ids both ways, x is the rows'
        # embeddings, and each expert's span holds its rows in ascending id order
        uniq, spans = ctx["uniq"], ctx["spans"]
        assert uniq[ctx["inv"]].tolist() == [i for text in texts for i in tokenize(text, config)]
        assert ctx["x"].tobytes() == params.embedding[uniq].tobytes()
        bounds = [0] + [b for _, b, *_ in spans]
        assert [(a, b) for a, b, *_ in spans] == list(zip(bounds, bounds[1:]))
        assert bounds[-1] == len(uniq)
        for a, b, w_name, _ in spans:
            assert np.all(np.diff(uniq[a:b]) > 0), w_name
            if experts:
                assert np.all(ctx["route"][a:b] == int(w_name.partition(".")[2])), w_name
        loads = np.bincount(ctx["route"], minlength=experts) if experts else None
        if experts:
            assert np.all(np.diff(ctx["route"]) >= 0)
        if routing == "spread" and (experts or 0) > 1:
            assert np.any(np.diff(uniq) < 0)  # the rows were reordered
            assert np.all(loads > 0)
        elif routing == "one_idle":
            assert loads[1] == 0 and loads.sum() == len(ctx["uniq"])
        elif routing == "one_takes_all":
            assert loads[-1] == len(ctx["uniq"])
        upstreams = make_rng(61).standard_normal((len(texts), 8))
        for subset in ("full", "intermediate_only", "moe_only"):
            names = [name for name in params.named_tensors() if _SUBSETS[subset](name)]
            grads = {name: np.zeros_like(params._tensor(name)) for name in names}
            want = {name: np.zeros_like(params._tensor(name)) for name in names}
            _backward(params, ctx, upstreams, grads)
            _gather_scatter_backward(params, want_ctx, upstreams, want)
            assert list(grads) == names
            for name in names:
                assert grads[name].tobytes() == want[name].tobytes(), (subset, name)
                # zero only for an expert no row routed to, and for a gate of one expert
                expert = name.partition(".")[2]
                zero = loads[int(expert)] == 0 if expert else name == "gate" and experts == 1
                assert np.any(grads[name] != 0.0) != zero, (subset, name)


class TestCheckpointValidation:
    def _doc(self, tmp_path):
        params, config = _dense_instance(46)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, path)
        return path, json.loads(path.read_text())

    def test_truncated_payload(self, tmp_path):
        path, doc = self._doc(tmp_path)
        raw = base64.b64decode(doc["tensors"]["w_down"]["data"])
        doc["tensors"]["w_down"]["data"] = base64.b64encode(raw[:-8]).decode("ascii")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"ckpt\.json: tensor 'w_down' has \d+ bytes"):
            load_checkpoint(path)

    def test_nan_value(self, tmp_path):
        path, doc = self._doc(tmp_path)
        values = np.frombuffer(base64.b64decode(doc["tensors"]["b_up"]["data"]), "<f8").copy()
        values[3] = np.nan
        doc["tensors"]["b_up"]["data"] = base64.b64encode(values.tobytes()).decode("ascii")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"ckpt\.json: tensor 'b_up' holds non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("data, reason", [("abc", "Incorrect padding"),
                                              ("AAAAéAAA", "only ASCII characters")],
                             ids=["padding", "non_ascii"])
    def test_payload_not_base64_names_file_and_tensor(self, tmp_path, data, reason):
        path, doc = self._doc(tmp_path)
        doc["tensors"]["b_up"]["data"] = data
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"ckpt\.json: tensor 'b_up' data is not base64 "
                                             rf"\(.*{reason}.*\)$"):
            load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        path, doc = self._doc(tmp_path)
        del doc["tensors"]["embedding"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"ckpt\.json: tensor 'embedding' is missing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, edit, message", [
        ("embedding", lambda entry: entry.update(dtype="<f4"),
         "tensor 'embedding' has dtype '<f4', not '<f8'"),
        ("b_down", lambda entry: entry.pop("dtype"), "missing key 'dtype'"),
    ], ids=["f4", "missing"])
    def test_dtype_other_than_f8_rejected(self, tmp_path, name, edit, message):
        path, doc = self._doc(tmp_path)
        edit(doc["tensors"][name])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"ckpt\.json: {message}$"):
            load_checkpoint(path)

    def test_truncated_json(self, tmp_path):
        path, _ = self._doc(tmp_path)
        text = path.read_text()
        path.write_text(text[:text.index('"data": "') + 20])  # cut inside a base64 string
        with pytest.raises(ValueError, match=r"ckpt\.json:\d+: malformed JSON \(Unterminated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("doc", ["[1, 2]", '"ckpt"', "null"])
    def test_non_object_document_names_file(self, tmp_path, doc):
        path = tmp_path / "ckpt.json"
        path.write_text(doc + "\n")
        with pytest.raises(ValueError, match=r"ckpt\.json: expected a JSON object, got "):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["config"].update(vocab_size="4096"), "not supported between"),
        (lambda doc: doc["tensors"]["w_down"].update(shape="x"), ""),
        (lambda doc: doc.update(config=[]), "'list' object has no attribute 'get'"),
        (lambda doc: doc.update(tensors=[]), "'list' object has no attribute 'get'"),
    ], ids=["string_vocab_size", "string_shape", "config_array",
            "tensors_array"])
    def test_wrong_type_names_file(self, tmp_path, edit, message):
        path, doc = self._doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"ckpt\.json: malformed entry \(.*{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("experts, edit, message", [
        (None, lambda doc: doc["config"].update(moe={"num_experts": 2, "experts_per_token": 1}),
         "tensor 'w_up.0' is missing"),
        (2, lambda doc: doc["config"].update(moe=None), "tensor 'w_up' is missing"),
        (2, lambda doc: doc["config"]["moe"].update(num_experts=3), "tensor 'w_up.2' is missing"),
        (3, lambda doc: doc["config"]["moe"].update(num_experts=2),
         r"ckpt\.json: tensor 'gate' has shape \[4, 3\], not \[4, 2\]$"),
        (2, lambda doc: doc["tensors"].update({"w_up.2": doc["tensors"]["w_up.1"]}),
         r"ckpt\.json: tensors \['w_up.2'\] are not in the config's layout$"),
        (2, lambda doc: doc["tensors"]["gate"].update(
            shape=[4, 1], data=base64.b64encode(bytes(32)).decode("ascii")),
         r"ckpt\.json: tensor 'gate' has shape \[4, 1\], not \[4, 2\]$"),
        (2, lambda doc: doc["tensors"].pop("w_up.1"), "tensor 'w_up.1' is missing"),
    ], ids=["dense_under_moe", "moe_under_dense", "too_few_experts", "too_many_experts",
            "extra_expert", "wrong_gate_shape", "missing_w_up_1"])
    def test_layout_mismatch_rejected(self, tmp_path, experts, edit, message):
        params, config = (_dense_instance(47) if experts is None
                          else _moe_instance(47, experts=experts))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("experts, edit, message", [
        (None, lambda doc: doc["config"].update(d_intermediate=3),
         "d_intermediate must be >= d_model"),
        (None, lambda doc: doc["config"].update(d_model=0), "d_model must be positive"),
        (2, lambda doc: doc["config"]["moe"].update(experts_per_token=2),
         "only experts_per_token == 1 is supported"),
        (2, lambda doc: doc["config"]["moe"].update(num_experts=0),
         "num_experts must be positive"),
        (None, lambda doc: doc["config"].update(extra=3), r"unknown keys \['extra'\]"),
        (2, lambda doc: doc["config"].update(zeta=None, alpha=1),
         r"unknown keys \['alpha', 'zeta'\]"),
        (2, lambda doc: doc["config"]["moe"].update(experts=1), r"moe: unknown keys \['experts'\]"),
        (2, lambda doc: doc["config"]["moe"].update(topk=1, experts_per_token=1),
         r"moe: unknown keys \['topk'\]"),
        (2, lambda doc: doc["config"].update(moe=[2]), "moe: expected an object, got list"),
        (2, lambda doc: doc["config"].update(moe="top-1"), "moe: expected an object, got str"),
    ], ids=["d_intermediate_below_d_model", "d_model_zero", "two_experts_per_token",
            "no_experts", "unknown_key", "unknown_keys_under_moe", "unknown_moe_key",
            "unknown_key_in_moe", "moe_array", "moe_string"])
    def test_bad_config_names_file(self, tmp_path, experts, edit, message):
        params, config = (_dense_instance(48) if experts is None
                          else _moe_instance(48, experts=experts))
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: config: {message}$"):
            load_checkpoint(path)

    def test_config_without_d_model(self, tmp_path):
        path, doc = self._doc(tmp_path)
        del doc["config"]["d_model"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"ckpt\.json: missing key 'd_model'$"):
            load_checkpoint(path)

    def test_moe_without_num_experts(self, tmp_path):
        params, config = _moe_instance(48)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, config, path)
        doc = json.loads(path.read_text())
        doc["config"]["moe"] = {"experts_per_token": 1}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"ckpt\.json: missing key 'num_experts'$"):
            load_checkpoint(path)
