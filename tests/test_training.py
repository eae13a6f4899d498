import re

import numpy as np
import pytest

from retrieval_lab.data import SynthSpec, TrainingExample, synth_generate
from retrieval_lab import encoder, mining, training
from retrieval_lab.encoder import (
    EncoderConfig,
    MoEConfig,
    encode,
    encode_with_grad,
    init_params,
    zero_grads,
)
from retrieval_lab.encoder import FreezeMode
from retrieval_lab.losses import (ContrastiveBatch, LossConfig, cl_loss_grad, clp_loss,
                                  clp_loss_grad)
from retrieval_lab.numerics import make_rng
from retrieval_lab.training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    apply_freeze,
    train,
)

from conftest import token_rows


def tiny_dataset(n=6, with_neg_queries=True, seed=0):
    spec = SynthSpec(num_clusters=2, docs_per_cluster=6, queries_per_cluster=3,
                     vocab_per_cluster=15, noise_rate=0.1, doc_words=12, query_words=4)
    ds = synth_generate(spec, seed)
    doc_by_id = {d.id: d for d in ds.corpus}
    examples = []
    for q in ds.queries[:n]:
        pos_id = sorted(ds.qrels.relevant_docs(q.id))[0]
        neg_ids = [d.id for d in ds.corpus if d.id != pos_id][:4]
        examples.append(TrainingExample(
            query=q.text,
            pos=[doc_by_id[pos_id].text],
            neg=[doc_by_id[n_].text for n_ in neg_ids],
            neg_queries=[ds.neg_query_map[n_] for n_ in neg_ids] if with_neg_queries else None,
        ))
    return examples


def tiny_encoder(moe=False, seed=0):
    moe_cfg = MoEConfig(num_experts=2) if moe else None
    config = EncoderConfig(vocab_size=128, d_model=8, d_intermediate=16, moe=moe_cfg)
    return init_params(config, seed), config


def params_bytes(params):
    return {name: t.tobytes() for name, t in params.named_tensors().items()}


class TestAdamStep:
    def test_zero_gradients_leave_params_unchanged(self):
        params, config = tiny_encoder()
        before = params_bytes(params)
        state = OptimizerState.init(params)
        adam_step(params, zero_grads(params), state, lr=0.1)
        assert params_bytes(params) == before
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        params, config = tiny_encoder()
        grads = {name: np.full_like(t, 3.0) for name, t in params.named_tensors().items()}
        before = {name: t.copy() for name, t in params.named_tensors().items()}
        state = OptimizerState.init(params)
        adam_step(params, grads, state, lr=0.01)
        for name, t in params.named_tensors().items():
            np.testing.assert_allclose(before[name] - t, 0.01, rtol=1e-6)

    def test_three_step_quadratic_matches_hand_trace(self):
        # independently computed trajectory of Adam on f(x) = x^2 from x0 = 1
        config = EncoderConfig(vocab_size=2, d_model=1, d_intermediate=1)
        params = init_params(config, 0)
        params.embedding[:] = 0.0
        params.w_up[:] = 0.0
        params.b_up[:] = 0.0
        params.w_down[:] = 0.0
        params.b_down[:] = 1.0  # the scalar under optimization
        state = OptimizerState.init(params)
        expected = [0.9000000005, 0.8004122286917928, 0.7015862729460303]
        for want in expected:
            grads = zero_grads(params)
            grads["b_down"][:] = 2.0 * params.b_down
            adam_step(params, grads, state, lr=0.1)
            assert params.b_down[0] == pytest.approx(want, abs=1e-15)


class TestApplyFreeze:
    def test_full_is_identity(self):
        params, _ = tiny_encoder()
        grads = {name: np.full_like(t, 1.5) for name, t in params.named_tensors().items()}
        out = apply_freeze(grads, FreezeMode.FULL)
        assert out is grads

    def test_intermediate_only_dense(self):
        params, _ = tiny_encoder()
        grads = {name: np.full_like(t, 1.5) for name, t in params.named_tensors().items()}
        out = apply_freeze(grads, FreezeMode.INTERMEDIATE_ONLY)
        assert np.all(out["embedding"] == 0.0)
        assert np.all(out["w_down"] == 0.0)
        assert np.all(out["b_down"] == 0.0)
        assert np.all(out["w_up"] == 1.5)
        assert np.all(out["b_up"] == 1.5)

    def test_intermediate_only_moe_keeps_experts_not_gate(self):
        params, _ = tiny_encoder(moe=True)
        grads = {name: np.full_like(t, 2.0) for name, t in params.named_tensors().items()}
        out = apply_freeze(grads, FreezeMode.INTERMEDIATE_ONLY)
        assert np.all(out["gate"] == 0.0)
        for e in range(2):
            assert np.all(out[f"w_up.{e}"] == 2.0)

    def test_moe_only_keeps_experts_and_gate(self):
        params, _ = tiny_encoder(moe=True)
        grads = {name: np.full_like(t, 2.0) for name, t in params.named_tensors().items()}
        out = apply_freeze(grads, FreezeMode.MOE_ONLY)
        assert np.all(out["embedding"] == 0.0)
        assert np.all(out["w_down"] == 0.0)
        assert np.all(out["gate"] == 2.0)
        assert np.all(out["w_up.1"] == 2.0)

    def test_moe_only_without_moe_errors(self):
        params, _ = tiny_encoder(moe=False)
        grads = zero_grads(params)
        with pytest.raises(ValueError, match="moe_only"):
            apply_freeze(grads, FreezeMode.MOE_ONLY)


class TestTrain:
    def test_zero_epochs_returns_params_unchanged(self):
        params, config = tiny_encoder()
        cfg = TrainConfig(epochs=0, seed=1)
        result = train(params, config, tiny_dataset(), cfg)
        assert params_bytes(result.params) == params_bytes(params)
        assert result.loss_trace == []

    def test_tiny_learning_rate_barely_moves_params(self):
        params, config = tiny_encoder()
        cfg = TrainConfig(learning_rate=1e-300, epochs=1, grad_accum_steps=1, seed=1)
        result = train(params, config, tiny_dataset(n=1), cfg)
        for name, t in result.params.named_tensors().items():
            assert np.max(np.abs(t - params.named_tensors()[name])) < 1e-12

    def test_deterministic(self):
        params, config = tiny_encoder()
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, grad_accum_steps=2, seed=9)
        a = train(params, config, tiny_dataset(), cfg)
        b = train(params, config, tiny_dataset(), cfg)
        assert params_bytes(a.params) == params_bytes(b.params)
        assert a.loss_trace == b.loss_trace

    def test_loss_trace_finite_and_counted(self):
        params, config = tiny_encoder()
        dataset = tiny_dataset()
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, seed=4)
        result = train(params, config, dataset, cfg)
        assert len(result.loss_trace) == 3 * len(dataset)
        assert all(np.isfinite(x) for x in result.loss_trace)

    def test_overfit_single_example(self):
        params, config = tiny_encoder()
        dataset = tiny_dataset(n=1)
        cfg = TrainConfig(learning_rate=1e-3, epochs=20, grad_accum_steps=1,
                          loss="cl", seed=3)
        result = train(params, config, dataset, cfg)
        trace = result.loss_trace
        assert all(trace[i] > trace[i + 1] for i in range(5))

    def test_clp_missing_neg_queries_fails_before_any_step(self):
        params, config = tiny_encoder()
        dataset = tiny_dataset(with_neg_queries=False)
        cfg = TrainConfig(loss="clp", seed=0)
        with pytest.raises(ValueError, match="neg_queries"):
            train(params, config, dataset, cfg)

    def test_clp_lambda_zero_bit_identical_to_cl(self):
        params, config = tiny_encoder()
        dataset = tiny_dataset()
        base = dict(learning_rate=1e-3, epochs=2, grad_accum_steps=2, seed=11)
        cl_run = train(params, config, dataset,
                       TrainConfig(loss="cl", loss_cfg=LossConfig(lam=0.0), **base))
        clp_run = train(params, config, dataset,
                        TrainConfig(loss="clp", loss_cfg=LossConfig(lam=0.0), **base))
        assert params_bytes(cl_run.params) == params_bytes(clp_run.params)
        assert cl_run.loss_trace == clp_run.loss_trace

    def test_frozen_tensors_bitwise_stable(self):
        params, config = tiny_encoder(moe=True)
        dataset = tiny_dataset()
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, loss="clp",
                          freeze=FreezeMode.MOE_ONLY, seed=5)
        before = params_bytes(params)
        result = train(params, config, dataset, cfg)
        after = params_bytes(result.params)
        for name in ("embedding", "w_down", "b_down"):
            assert after[name] == before[name], name
        changed = [name for name in after if after[name] != before[name]]
        assert changed  # the trainable set did move

    def test_refresh_fn_called_each_epoch(self):
        params, config = tiny_encoder()
        calls = []

        def refresh(current):
            calls.append(len(calls))
            return tiny_dataset(n=2)

        cfg = TrainConfig(learning_rate=1e-3, epochs=3, seed=6)
        result = train(params, config, [], cfg, refresh_fn=refresh)
        assert calls == [0, 1, 2]
        assert len(result.loss_trace) == 6

    def test_stop_grad_neg_queries_changes_result(self):
        params, config = tiny_encoder()
        dataset = tiny_dataset()
        base = dict(learning_rate=1e-3, epochs=1, loss="clp",
                    loss_cfg=LossConfig(lam=0.5), seed=8)
        full = train(params, config, dataset, TrainConfig(**base))
        stopped = train(params, config, dataset,
                        TrainConfig(stop_grad_neg_queries=True, **base))
        assert params_bytes(full.params) != params_bytes(stopped.params)
        # forward passes agree until the first optimizer step diverges them
        accum = TrainConfig(**base).grad_accum_steps
        assert full.loss_trace[:accum] == stopped.loss_trace[:accum]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_loss_aborts_with_step(self):
        params, config = tiny_encoder()
        params.embedding *= 1e200  # guarantees overflow in the forward pass
        dataset = tiny_dataset(n=1)
        cfg = TrainConfig(epochs=1, seed=0)
        with pytest.raises((RuntimeError, ValueError, FloatingPointError)):
            train(params, config, dataset, cfg)

    def test_partial_group_steps_at_epoch_end(self):
        # one example never fills a group of 4, yet each epoch must end with
        # a step averaged over that one example
        params, config = tiny_encoder()
        dataset = tiny_dataset(n=1)
        base = dict(learning_rate=1e-3, epochs=2, seed=3)
        partial = train(params, config, dataset, TrainConfig(grad_accum_steps=4, **base))
        single = train(params, config, dataset, TrainConfig(grad_accum_steps=1, **base))
        assert params_bytes(partial.params) == params_bytes(single.params)
        assert params_bytes(partial.params) != params_bytes(params)

    def test_empty_dataset_rejected(self):
        params, config = tiny_encoder()
        with pytest.raises(ValueError, match="nonempty"):
            train(params, config, [], TrainConfig())

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match=r"^learning_rate must be a finite number > 0$"):
            TrainConfig(learning_rate=lr)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(grad_accum_steps=0)
        with pytest.raises(ValueError):
            TrainConfig(loss="triplet")

    def test_each_distinct_word_hashed_once_per_run(self, monkeypatch):
        params, config = tiny_encoder()
        dataset = tiny_dataset()
        stable_token_id, hashed = encoder.stable_token_id, []

        def counting(token, vocab_size):
            hashed.append(token)
            return stable_token_id(token, vocab_size)

        monkeypatch.setattr(encoder, "stable_token_id", counting)
        encoder._word_ids.cache_clear()
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, grad_accum_steps=2, loss="clp", seed=1)
        train(params, config, dataset, cfg)
        texts = [t for ex in dataset
                 for t in [ex.query, ex.pos[0], *ex.neg, *(q for qs in ex.neg_queries for q in qs)]]
        assert sorted(hashed) == sorted({w for t in texts for w in re.findall(r"\w+", t.lower())})

    def test_group_token_rows_equal_the_tokenizer(self, monkeypatch):
        # groups repeat texts, and two texts take the regex path of the tokenizer
        params, config = tiny_encoder()
        dataset = tiny_dataset(n=6)
        for i, ex in enumerate(dataset):
            ex.neg[i % 4] = ["Ünïcode, a-b", "x²"][i % 2]
            ex.neg_queries[0] = [dataset[0].query, "x²"]
        forward, groups = training._forward, []

        def checking(params, config, texts):
            out, ctx = forward(params, config, texts)
            for name, want in zip(("uniq", "inv", "lengths"), token_rows(texts, config)):
                assert ctx[name].dtype == want.dtype and np.array_equal(ctx[name], want), name
            groups.append(len(texts))
            return out, ctx

        monkeypatch.setattr(training, "_forward", checking)
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, grad_accum_steps=3, loss="clp", seed=4)
        train(params, config, dataset, cfg)
        assert len(groups) == 4

    def test_text_without_tokens_raises(self):
        params, config = tiny_encoder()
        dataset = tiny_dataset(n=4)
        dataset[2].neg[1] = "?! -- ..."
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, grad_accum_steps=1, loss="clp", seed=1)
        with pytest.raises(ValueError, match="empty input"):
            train(params, config, dataset, cfg)

def reference_clp_step(params, config, group, cfg):
    """One optimizer step built from per-text encode / encode_with_grad calls."""
    params = params.copy()
    accum = zero_grads(params)
    losses = []
    for ex in group:
        def vec(text):
            return encode(params, config, text)
        batch = ContrastiveBatch(vec(ex.query), vec(ex.pos[0]), [vec(t) for t in ex.neg],
                                 [[vec(q) for q in qs] for qs in ex.neg_queries])
        losses.append(clp_loss(batch, cfg.loss_cfg))
        g = clp_loss_grad(batch, cfg.loss_cfg)
        pairs = [(ex.query, g.query_emb), (ex.pos[0], g.pos_emb), *zip(ex.neg, g.neg_embs)]
        for texts, upstreams in zip(ex.neg_queries, g.neg_query_embs):
            pairs += zip(texts, upstreams)
        for text, upstream in pairs:
            encode_with_grad(params, config, text, upstream, accum)
    mean = {name: g / len(group) for name, g in accum.items()}
    adam_step(params, apply_freeze(mean, cfg.freeze), OptimizerState.init(params),
              cfg.learning_rate)
    return params, losses


class TestGroupPass:
    @pytest.mark.parametrize("moe, freeze", [(False, FreezeMode.FULL),
                                             (True, FreezeMode.MOE_ONLY)])
    def test_step_matches_per_text_reference(self, moe, freeze):
        params, config = tiny_encoder(moe=moe, seed=3)
        dataset = tiny_dataset(n=4)
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, grad_accum_steps=4, loss="clp",
                          loss_cfg=LossConfig(lam=0.3), freeze=freeze, seed=5)
        result = train(params, config, dataset, cfg)
        group = [dataset[int(i)] for i in make_rng(cfg.seed).permutation(len(dataset))]
        expected, losses = reference_clp_step(params, config, group, cfg)
        np.testing.assert_allclose(result.loss_trace, losses, rtol=0, atol=1e-12)
        for name, tensor in expected.named_tensors().items():
            np.testing.assert_allclose(result.params.named_tensors()[name], tensor,
                                       rtol=0, atol=1e-12, err_msg=name)
        assert params_bytes(result.params) != params_bytes(params)

    def test_nonfinite_loss_names_its_example_step(self, monkeypatch):
        params, config = tiny_encoder()
        calls = []

        def nan_at_step_5(batch, cfg):
            calls.append(None)
            grads = cl_loss_grad(batch, cfg)
            if len(calls) == 6:
                grads.loss = float("nan")
            return grads

        monkeypatch.setattr(training, "cl_loss_grad", nan_at_step_5)
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, grad_accum_steps=4, seed=1)
        with pytest.raises(RuntimeError, match="non-finite loss at example step 5$"):
            train(params, config, tiny_dataset(n=6), cfg)

    @pytest.mark.parametrize("moe", [False, True])
    def test_ragged_neg_queries_match_per_text_reference(self, moe):
        # the negatives of each example own 1, 2 or 3 queries, so every
        # example splits its neg-query rows unevenly
        params, config = tiny_encoder(moe=moe, seed=4)
        dataset = tiny_dataset(n=4)
        pool = [q for ex in dataset for qs in ex.neg_queries for q in qs]
        for i, ex in enumerate(dataset):
            ex.neg_queries = [pool[i + j:i + j + 1 + (i + j) % 3] for j in range(len(ex.neg))]
        assert len({len(qs) for ex in dataset for qs in ex.neg_queries}) == 3
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, grad_accum_steps=4, loss="clp",
                          loss_cfg=LossConfig(lam=0.3), seed=2)
        result = train(params, config, dataset, cfg)
        group = [dataset[int(i)] for i in make_rng(cfg.seed).permutation(len(dataset))]
        expected, losses = reference_clp_step(params, config, group, cfg)
        np.testing.assert_allclose(result.loss_trace, losses, rtol=0, atol=1e-12)
        for name, tensor in expected.named_tensors().items():
            np.testing.assert_allclose(result.params.named_tensors()[name], tensor,
                                       rtol=0, atol=1e-12, err_msg=name)


def dense_adam(tensors, grads, m, v, t, lr):
    """Adam written out over every entry of every tensor: no row mask, no skips."""
    bc1 = 1.0 - 0.9 ** t
    bc2 = 1.0 - 0.999 ** t
    for name, tensor in tensors.items():
        g = grads[name]
        m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
        v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
        tensor -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8)


def assert_same_bits(actual, expected, name):
    assert np.array_equal(actual, expected), name
    assert np.array_equal(np.signbit(actual), np.signbit(expected)), name


def reference_train(params, config, dataset, cfg, refresh_fn=None):
    """train() the old way: a full zero_grads dict per group, g / count,
    apply_freeze and dense Adam over every tensor."""
    params = params.copy()
    tensors = params.named_tensors()
    m, v = zero_grads(params), zero_grads(params)
    rng = make_rng(cfg.seed)
    trace, t = [], 0
    for _ in range(cfg.epochs):
        if refresh_fn is not None:
            dataset = refresh_fn(params)
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), cfg.grad_accum_steps):
            group = [dataset[int(i)] for i in order[start:start + cfg.grad_accum_steps]]
            accum = zero_grads(params)
            trace += training._group_grads(params, config, group, cfg, accum, len(trace))[0]
            t += 1
            mean = apply_freeze({name: g / len(group) for name, g in accum.items()}, cfg.freeze)
            dense_adam(tensors, mean, m, v, t, cfg.learning_rate)
    return params, trace


class TestSparseAdam:
    def test_ever_touched_rows_match_dense_oracle(self):
        # Row 1's gradients 1, 2 then -0.9, -1.8 cancel its m to exactly 0
        # while v stays positive, so a "m is nonzero now" rule would stop
        # decaying v before its next gradient at step 40. (Plain decay does
        # not get there: under round-to-nearest 0.9 * m sticks at a few
        # subnormal ulps.) Row 0 is touched at step 1 only, then decays
        # for 7,299 steps.
        config = EncoderConfig(vocab_size=6, d_model=2, d_intermediate=2)
        params = init_params(config, 0)
        params.embedding[3:5] = -0.0  # row 3 is never touched, row 4 only in column 0
        oracle = params.copy()
        expected = oracle.named_tensors()
        m, v = zero_grads(oracle), zero_grads(oracle)
        state = OptimizerState.init(params)
        rng = make_rng(7)
        sporadic = {2: [1.0, 2.0], 3: [-0.9, -1.8], 40: None, 7_200: None}
        for t in range(1, 7_301):
            g = np.zeros_like(params.embedding)
            if t == 1:
                g[0] = [-0.7, 1.3]
                g[4, 0] = -1.5
            if t in sporadic:
                g[1] = sporadic[t] if sporadic[t] else rng.standard_normal(2)
            adam_step(params, {"embedding": g}, state, lr=1e-3)
            dense_adam(expected, {**zero_grads(oracle), "embedding": g}, m, v, t, 1e-3)
            if t == 3:
                assert np.all(m["embedding"][1] == 0.0) and np.all(v["embedding"][1] > 0.0)
        assert np.signbit(params.embedding[3:5]).tolist() == [[True, True], [False, True]]
        for name, tensor in params.named_tensors().items():
            assert_same_bits(tensor, expected[name], name)
        assert state.step == 7_300

    @pytest.mark.parametrize("moe, freeze", [(False, FreezeMode.INTERMEDIATE_ONLY),
                                             (True, FreezeMode.INTERMEDIATE_ONLY),
                                             (True, FreezeMode.MOE_ONLY)])
    def test_frozen_tensors_zeroed_or_left_out_agree(self, moe, freeze):
        params, _ = tiny_encoder(moe=moe)
        ones = {name: np.ones_like(t) for name, t in params.named_tensors().items()}
        trainable = [name for name, g in apply_freeze(ones, freeze).items() if g.any()]
        zeroed, left_out = params.copy(), params.copy()
        state_zeroed, state_left_out = OptimizerState.init(zeroed), OptimizerState.init(left_out)
        rng = make_rng(3)
        for _ in range(5):
            grads = {name: rng.standard_normal(t.shape) * (rng.random(t.shape) < 0.3)
                     for name, t in params.named_tensors().items()}
            adam_step(zeroed, apply_freeze(grads, freeze), state_zeroed, lr=1e-2)
            adam_step(left_out, {name: grads[name] for name in trainable}, state_left_out,
                      lr=1e-2)
        for name, tensor in left_out.named_tensors().items():
            assert_same_bits(tensor, zeroed.named_tensors()[name], name)
        assert params_bytes(left_out) != params_bytes(params)


def _ance_refresh(config):
    """Re-mines 4 ANCE negatives per query of a tiny synth from the live params."""
    spec = SynthSpec(num_clusters=2, docs_per_cluster=6, queries_per_cluster=3,
                     vocab_per_cluster=15, noise_rate=0.1, doc_words=12, query_words=4)
    ds = synth_generate(spec, 0)
    rng = make_rng(2)
    return lambda current: mining.mine_dataset(ds.corpus, ds.queries, ds.qrels, ds.neg_query_map,
                                               current, config, "ance", 4, rng)


class TestTrainMatchesFullPath:
    @pytest.mark.parametrize("refresh", [False, True])
    @pytest.mark.parametrize("moe, freeze", [(False, FreezeMode.FULL),
                                             (False, FreezeMode.INTERMEDIATE_ONLY),
                                             (True, FreezeMode.INTERMEDIATE_ONLY),
                                             (True, FreezeMode.MOE_ONLY)])
    def test_params_and_trace_bitwise(self, moe, freeze, refresh):
        params, config = tiny_encoder(moe=moe, seed=2)
        dataset = tiny_dataset(n=6)  # groups of 4 and 2: the partial group steps too
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, grad_accum_steps=4, loss="clp",
                          loss_cfg=LossConfig(lam=0.3), freeze=freeze, seed=5)
        result = train(params, config, dataset, cfg,
                       refresh_fn=_ance_refresh(config) if refresh else None)
        expected, trace = reference_train(params, config, dataset, cfg,
                                          refresh_fn=_ance_refresh(config) if refresh else None)
        assert result.loss_trace == trace
        for name, tensor in result.params.named_tensors().items():
            assert_same_bits(tensor, expected.named_tensors()[name], name)
        assert params_bytes(result.params) != params_bytes(params)

    @pytest.mark.parametrize("accum", [1, 3])
    @pytest.mark.parametrize("moe, freeze", [(False, FreezeMode.FULL),
                                             (True, FreezeMode.FULL),
                                             (True, FreezeMode.MOE_ONLY)])
    def test_reused_buffer_bitwise(self, moe, freeze, accum):
        # 5 examples: groups of 1, or of 3 and a partial 2, share some rows
        params, config = tiny_encoder(moe=moe, seed=7)
        dataset = tiny_dataset(n=5)
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, grad_accum_steps=accum, loss="clp",
                          loss_cfg=LossConfig(lam=0.3), freeze=freeze, seed=8)
        result = train(params, config, dataset, cfg)
        expected, trace = reference_train(params, config, dataset, cfg)
        assert result.loss_trace == trace
        for name, tensor in result.params.named_tensors().items():
            assert_same_bits(tensor, expected.named_tensors()[name], name)

    def test_rows_one_group_wrote_and_the_next_did_not(self):
        params, config = tiny_encoder(seed=9)
        words = [f"word{i}" for i in range(40)]
        dataset = [TrainingExample(query=" ".join(words[8 * i:8 * i + 2]),
                                   pos=[" ".join(words[8 * i + 2:8 * i + 5])],
                                   neg=[" ".join(words[8 * i + 5:8 * i + 8])])
                   for i in range(5)]
        cfg = TrainConfig(learning_rate=1e-2, epochs=2, grad_accum_steps=1, seed=3)
        rows = [{i for text in (ex.query, ex.pos[0], *ex.neg) for i in encoder.tokenize(text, config)}
                for ex in dataset]
        order = make_rng(cfg.seed).permutation(len(dataset))
        assert all(rows[a] - rows[b] for a, b in zip(order, order[1:]))
        result = train(params, config, dataset, cfg)
        expected, trace = reference_train(params, config, dataset, cfg)
        assert result.loss_trace == trace
        for name, tensor in result.params.named_tensors().items():
            assert_same_bits(tensor, expected.named_tensors()[name], name)
