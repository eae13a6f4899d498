import re

import numpy as np
import pytest

from retrieval_lab.data import SynthSpec, TrainingExample, synth_generate
from retrieval_lab import encoder, mining, training
from retrieval_lab.encoder import (
    EncoderConfig,
    MoEConfig,
    encode,
    encode_texts,
    encode_with_grad,
    init_params,
    zero_grads,
)
from retrieval_lab.encoder import FreezeMode
from retrieval_lab.losses import (ContrastiveBatch, LossConfig, _group_loss_grad, clp_loss,
                                  clp_loss_grad)
from retrieval_lab.numerics import make_rng
from retrieval_lab.training import (
    OptimizerState,
    TrainConfig,
    adam_step,
    apply_freeze,
    train,
)

from conftest import (FD_STEP, random_unit, reference_cl_loss_grad, reference_clp_loss_grad,
                      rel_error, token_rows)


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
        state = OptimizerState.init(params.named_tensors())
        adam_step(params, zero_grads(params), state, lr=0.1)
        assert params_bytes(params) == before
        assert state.step == 1

    def test_first_step_magnitude_is_lr(self):
        params, config = tiny_encoder()
        grads = {name: np.full_like(t, 3.0) for name, t in params.named_tensors().items()}
        before = {name: t.copy() for name, t in params.named_tensors().items()}
        state = OptimizerState.init(params.named_tensors())
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
        state = OptimizerState.init(params.named_tensors())
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

    def test_examples_function_called_each_epoch(self):
        params, config = tiny_encoder()
        calls = []

        def refresh(current):
            calls.append(len(calls))
            return tiny_dataset(n=2)

        cfg = TrainConfig(learning_rate=1e-3, epochs=3, seed=6)
        result = train(params, config, refresh, cfg)
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

    def test_examples_function_result_checked_each_epoch(self):
        # the second call returns what a list would be refused for
        params, config = tiny_encoder()
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, loss="clp", seed=6)
        for bad, match in (([], "nonempty"), (tiny_dataset(with_neg_queries=False), "neg_queries")):
            calls = []

            def remine(current):
                calls.append(current.embedding.copy())
                return tiny_dataset() if len(calls) == 1 else bad

            with pytest.raises(ValueError, match=match):
                train(params, config, remine, cfg)
            assert len(calls) == 2 and not np.array_equal(calls[0], calls[1])

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -float("inf"), 0.0, -1e-3])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match=r"^learning_rate must be a finite number > 0$"):
            TrainConfig(learning_rate=lr)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match=r"^epochs must be >= 0$"):
            TrainConfig(epochs=-1)

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

    def test_each_distinct_text_tokenized_once_per_run(self, monkeypatch):
        params, config = tiny_encoder(moe=True)
        dataset = tiny_dataset(n=6)
        words, tokenized = encoder._words, []

        def counting(text):
            tokenized.append(text)
            return words(text)

        def texts(examples):
            return {t for ex in examples for t in [ex.query, ex.pos[0], *ex.neg,
                                                   *(q for qs in ex.neg_queries for q in qs)]}

        monkeypatch.setattr(encoder, "_words", counting)
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, grad_accum_steps=2, loss="clp", seed=1)
        for _ in range(2):  # the second run tokenizes every text again: no memo outlived the first
            tokenized.clear()
            train(params, config, dataset, cfg)
            assert sorted(tokenized) == sorted(texts(dataset))
        # re-mined sets, one per epoch, that share two examples
        tokenized.clear()
        sets = [dataset[:4], dataset[2:]]
        train(params, config, lambda live: sets.pop(0), cfg)
        assert sets == [] and sorted(tokenized) == sorted(texts(dataset))
        tokenized.clear()
        encode_texts(params, config, [dataset[0].query, dataset[0].query])
        assert tokenized == [dataset[0].query]

    def test_group_token_rows_equal_the_tokenizer(self, monkeypatch):
        # groups repeat texts, and two texts take the regex path of the tokenizer
        params, config = tiny_encoder()
        dataset = tiny_dataset(n=6)
        for i, ex in enumerate(dataset):
            ex.neg[i % 4] = ["Ünïcode, a-b", "x²"][i % 2]
            ex.neg_queries[0] = [dataset[0].query, "x²"]
        forward, groups = training._forward, []

        def checking(params, config, texts, tokens=None):
            out, ctx = forward(params, config, texts, tokens)
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

    def test_query_without_words_is_named(self):
        params, config = tiny_encoder()
        dataset = tiny_dataset(n=4)
        dataset[1].query = "?!"
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, grad_accum_steps=1, loss="cl", seed=1)
        # one example per group, so the query is the group's first text
        with pytest.raises(ValueError, match=r"^empty input: texts\[0\] has no words: '\?!'$"):
            train(params, config, dataset, cfg)


def random_group(seed):
    """A random accumulation group, a unit vector for each of its texts and a
    config: 1-8 examples, 0-11 negatives with 1-3 own queries each, d 8 or 64.
    A quarter of the groups mix two example shapes."""
    rng = make_rng(seed)
    dim = int(rng.choice([8, 64]))

    def shape():
        k = int(rng.integers(0, 12))
        return k, rng.integers(1, 4, size=k).tolist()

    shapes = [shape(), shape()] if rng.random() < 0.25 else [shape()]
    group, vecs = [], {}
    for i in range(int(rng.integers(1, 9))):
        k, counts = shapes[int(rng.integers(len(shapes)))]
        neg_queries = [[f"e{i}n{j}q{r}" for r in range(c)] for j, c in enumerate(counts)]
        if k == 0 and rng.random() < 0.5:
            neg_queries = None
        ex = TrainingExample(query=f"e{i}q", pos=[f"e{i}p"],
                             neg=[f"e{i}n{j}" for j in range(k)], neg_queries=neg_queries)
        group.append(ex)
        for text in [ex.query, ex.pos[0], *ex.neg, *(q for qs in neg_queries or [] for q in qs)]:
            vecs[text] = random_unit(rng, dim)
    cfg = TrainConfig(loss=str(rng.choice(["cl", "clp"])),
                      loss_cfg=LossConfig(tau=float(rng.choice([1e-3, 0.05, 2.0])),
                                          lam=float(rng.choice([0.0, 0.1, 0.3, 1.0]))),
                      stop_grad_neg_queries=bool(rng.integers(2)))
    return group, vecs, cfg


def reference_group(group, vecs, cfg):
    """Each example's loss, and the upstream of each text, from one reference
    loss call per example. An example without negatives but with
    ``neg_queries == []`` takes the CLP reference."""
    use_penalty = cfg.loss == "clp" and cfg.loss_cfg.lam != 0.0
    losses, ups = [], {}
    for ex in group:
        neg_queries = ex.neg_queries if use_penalty else None
        batch = ContrastiveBatch(vecs[ex.query], vecs[ex.pos[0]], [vecs[t] for t in ex.neg],
                                 None if neg_queries is None else
                                 [[vecs[q] for q in qs] for qs in neg_queries])
        loss_grad = reference_cl_loss_grad if neg_queries is None else reference_clp_loss_grad
        g = loss_grad(batch, cfg.loss_cfg)
        losses.append(g.loss)
        ups.update({ex.query: g.query_emb, ex.pos[0]: g.pos_emb, **dict(zip(ex.neg, g.neg_embs))})
        for texts, rows in zip(neg_queries or [], g.neg_query_embs or []):
            ups.update(zip(texts, np.zeros_like(rows) if cfg.stop_grad_neg_queries else rows))
    return losses, ups


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
    adam_step(params, apply_freeze(mean, cfg.freeze),
              OptimizerState.init(params.named_tensors()), cfg.learning_rate)
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
        seen = 0

        def nan_at_steps_5_and_7(vecs, k, counts, cfg):
            nonlocal seen
            losses, ups = _group_loss_grad(vecs, k, counts, cfg)
            for step in (5, 7):
                if seen <= step < seen + len(losses):
                    losses[step - seen] = float("nan")
            seen += len(losses)
            return losses, ups

        monkeypatch.setattr(training, "_group_loss_grad", nan_at_steps_5_and_7)
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, grad_accum_steps=4, seed=1)
        with pytest.raises(RuntimeError, match="non-finite loss at example step 5$"):
            train(params, config, tiny_dataset(n=8), cfg)

    def test_losses_and_upstreams_match_per_example_reference(self, monkeypatch):
        # the encoder is replaced by a table of random unit vectors, one per
        # text, and the backward by a recorder of the upstreams it is given
        seen = {}

        def forward(params, config, texts, tokens=None):
            seen["texts"] = texts
            return np.array([seen["vecs"][t] for t in texts]), {"uniq": None}

        def backward(params, ctx, upstreams, grads):
            seen["upstreams"] = upstreams

        monkeypatch.setattr(training, "_forward", forward)
        monkeypatch.setattr(training, "_backward", backward)
        mixed = 0
        for seed in range(300):
            group, seen["vecs"], cfg = random_group(seed)
            mixed += len({len(ex.neg) for ex in group}) > 1
            losses, _ = training._group_grads(None, None, group, cfg, {}, 0)
            want_losses, want_ups = reference_group(group, seen["vecs"], cfg)
            assert np.array(losses).tobytes() == np.array(want_losses).tobytes(), seed
            assert sorted(seen["texts"]) == sorted(want_ups), seed
            want = np.array([want_ups[t] for t in seen["texts"]])
            assert seen["upstreams"].tobytes() == want.tobytes(), seed
        assert mixed >= 30

    def test_mixed_group_matches_finite_differences(self):
        params, config = tiny_encoder(seed=6)
        group = tiny_dataset(n=4)
        # k = 4 with one own query per negative, k = 4 with 1, 2 or 3, k = 2,
        # and no negatives at all
        group[1].neg_queries = [qs * (1 + j % 3) for j, qs in enumerate(group[1].neg_queries)]
        group[2].neg, group[2].neg_queries = group[2].neg[:2], group[2].neg_queries[:2]
        group[3].neg, group[3].neg_queries = [], None
        cfg = TrainConfig(loss="clp", loss_cfg=LossConfig(lam=0.3))
        tensors = params.named_tensors()
        grads = {name: np.zeros_like(t) for name, t in tensors.items()}
        _, uniq = training._group_grads(params, config, group, cfg, grads, 0)

        def total_loss():
            return sum(training._group_grads(params, config, group, cfg, {}, 0)[0])

        used = set(uniq.tolist())
        for name, tensor in tensors.items():
            fd = np.zeros_like(tensor)
            for at in np.ndindex(tensor.shape):
                if name == "embedding" and at[0] not in used:
                    continue  # no text of the group uses this row
                orig = tensor[at]
                tensor[at] = orig + FD_STEP
                up = total_loss()
                tensor[at] = orig - FD_STEP
                down = total_loss()
                tensor[at] = orig
                fd[at] = (up - down) / (2 * FD_STEP)
            assert rel_error(grads[name], fd) < 1e-6, name

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


def reference_train(params, config, examples, cfg):
    """train() the old way: a full zero_grads dict per group, g / count,
    apply_freeze and dense Adam over every tensor. ``examples`` is a list or
    a function of the live params called at each epoch's start."""
    params = params.copy()
    tensors = params.named_tensors()
    m, v = zero_grads(params), zero_grads(params)
    rng = make_rng(cfg.seed)
    trace, t = [], 0
    for _ in range(cfg.epochs):
        dataset = examples(params) if callable(examples) else examples
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
        self.check_sporadic_rows(hinted=False)

    def test_written_rows_match_dense_oracle(self):
        # each step names the rows it wrote; step 3 names every row, so
        # rows 2, 3 and 5 are written with +0.0 and must still not move
        self.check_sporadic_rows(hinted=True)

    @staticmethod
    def check_sporadic_rows(hinted):
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
        state = OptimizerState.init(params.named_tensors())
        rng = make_rng(7)
        sporadic = {2: [1.0, 2.0], 3: [-0.9, -1.8], 40: None, 7_200: None}
        for t in range(1, 7_301):
            g = np.zeros_like(params.embedding)
            if t == 1:
                g[0] = [-0.7, 1.3]
                g[4, 0] = -1.5
            if t in sporadic:
                g[1] = sporadic[t] if sporadic[t] else rng.standard_normal(2)
            written = {"embedding": np.flatnonzero(g.any(axis=1) | (t == 3))} if hinted else None
            adam_step(params, {"embedding": g}, state, lr=1e-3, written=written)
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
        state_zeroed = OptimizerState.init(zeroed.named_tensors())
        state_left_out = OptimizerState.init(left_out.named_tensors())
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
        result = train(params, config, _ance_refresh(config) if refresh else dataset, cfg)
        expected, trace = reference_train(params, config,
                                          _ance_refresh(config) if refresh else dataset, cfg)
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


class TestOptimizerAllocation:
    @pytest.mark.parametrize("moe, freeze, expected", [
        (False, FreezeMode.FULL, ["embedding", "w_up", "b_up", "w_down", "b_down"]),
        (False, FreezeMode.INTERMEDIATE_ONLY, ["w_up", "b_up"]),
        (True, FreezeMode.FULL,
         ["embedding", "w_up.0", "b_up.0", "w_up.1", "b_up.1", "w_down", "b_down", "gate"]),
        (True, FreezeMode.INTERMEDIATE_ONLY, ["w_up.0", "b_up.0", "w_up.1", "b_up.1"]),
        (True, FreezeMode.MOE_ONLY, ["w_up.0", "b_up.0", "w_up.1", "b_up.1", "gate"])])
    def test_moments_only_for_trainable_tensors(self, monkeypatch, moe, freeze, expected):
        params, config = tiny_encoder(moe=moe)
        init, states = OptimizerState.init, []

        def recording(tensors):
            states.append(init(tensors))
            return states[-1]

        monkeypatch.setattr(OptimizerState, "init", staticmethod(recording))
        cfg = TrainConfig(learning_rate=1e-3, epochs=2, freeze=freeze, seed=1)
        train(params, config, tiny_dataset(), cfg)
        (state,) = states
        assert training._trainable(params.named_tensors(), freeze) == expected
        assert list(state.m) == list(state.v) == list(state.touched) == expected
        for name in expected:
            shape = params.named_tensors()[name].shape
            assert state.m[name].shape == state.v[name].shape == shape, name
        assert state.step == 4  # 6 examples in groups of 4 and 2, twice


class TestEpochPrefix:
    @pytest.mark.parametrize("remine", [False, True], ids=["list", "re-mining"])
    @pytest.mark.parametrize("moe, freeze", [(False, FreezeMode.FULL),
                                             (True, FreezeMode.MOE_ONLY)])
    def test_first_epochs_equal_a_shorter_run(self, monkeypatch, moe, freeze, remine):
        # the params after epoch e of a 3-epoch run, taken after that epoch's
        # last Adam step, and the trace up to there equal an e-epoch run
        params, config = tiny_encoder(moe=moe, seed=2)
        dataset = tiny_dataset(n=6)

        def run(epochs):
            cfg = TrainConfig(learning_rate=1e-2, epochs=epochs, grad_accum_steps=4, loss="clp",
                              loss_cfg=LossConfig(lam=0.3), freeze=freeze, seed=5)
            return train(params, config, _ance_refresh(config) if remine else dataset, cfg)

        adam, after_step = training.adam_step, []

        def recording(params, *args, **kwargs):
            out = adam(params, *args, **kwargs)
            after_step.append(params_bytes(params))
            return out

        monkeypatch.setattr(training, "adam_step", recording)
        full = run(3)
        assert len(full.loss_trace) == 3 * 6 and len(after_step) == 3 * 2
        assert after_step[-1] == params_bytes(full.params)
        for e in (1, 2):
            short = run(e)
            assert full.loss_trace[:6 * e] == short.loss_trace, e
            assert after_step[2 * e - 1] == params_bytes(short.params), e
        assert after_step[1] != after_step[3] != after_step[5]  # every epoch moved the params

    @pytest.mark.parametrize("remine", [False, True], ids=["list", "re-mining"])
    @pytest.mark.parametrize("moe, freeze", [(False, FreezeMode.FULL),
                                             (True, FreezeMode.MOE_ONLY)])
    def test_steps_read_after_each_epoch_equal_a_shorter_run(self, moe, freeze, remine):
        # the params read from steps at the last step of epoch e (counting
        # from 1) and the losses up to there equal an e-epoch train() run
        params, config = tiny_encoder(moe=moe, seed=2)
        dataset = tiny_dataset(n=6)
        before = params_bytes(params)

        def cfg(epochs):
            return TrainConfig(learning_rate=1e-2, epochs=epochs, grad_accum_steps=4, loss="clp",
                               loss_cfg=LossConfig(lam=0.3), freeze=freeze, seed=5)

        live, epochs, losses, after_epoch = params.copy(), [], [], {}
        for epoch, group_losses in training.steps(
                live, config, _ance_refresh(config) if remine else dataset, cfg(3)):
            epochs.append(epoch)
            losses += group_losses
            after_epoch[epoch + 1] = params_bytes(live)  # the last write per epoch stays
        assert epochs == [0, 0, 1, 1, 2, 2]  # 6 examples in groups of 4 and 2
        for e in (1, 2, 3):
            short = train(params, config, _ance_refresh(config) if remine else dataset, cfg(e))
            assert losses[:6 * e] == short.loss_trace, e
            assert after_epoch[e] == params_bytes(short.params), e
        assert after_epoch[1] != after_epoch[2] != after_epoch[3]  # every epoch moved them
        assert params_bytes(params) == before  # train() trained copies

    def test_steps_is_lazy_and_checks_a_list_before_any_step(self):
        params, config = tiny_encoder()
        dataset = tiny_dataset()
        dataset[3] = TrainingExample(query=dataset[3].query, pos=dataset[3].pos,
                                     neg=dataset[3].neg)  # no neg_queries
        before = params_bytes(params)
        cfg = TrainConfig(learning_rate=1e-2, loss="clp", seed=0)
        iterator = training.steps(params, config, dataset, cfg)
        with pytest.raises(ValueError, match="neg_queries on every example; missing at index 3"):
            next(iterator)
        assert params_bytes(params) == before
