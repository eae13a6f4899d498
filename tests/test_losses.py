import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrieval_lab.losses import (
    BatchGrads,
    ContrastiveBatch,
    LossConfig,
    cl_loss,
    cl_loss_grad,
    clp_loss,
    clp_loss_grad,
)
from retrieval_lab.numerics import (
    cosine_similarity,
    cosine_similarity_grad,
    make_rng,
)

from conftest import random_unit, rel_error, softmax_temperature

FD_STEP = 1e-6


def unit_with_cos(anchor: np.ndarray, target_cos: float, rng) -> np.ndarray:
    """Unit vector at a prescribed cosine to the (unit) anchor."""
    noise = rng.standard_normal(anchor.shape[0])
    ortho = noise - (noise @ anchor) * anchor
    ortho /= np.linalg.norm(ortho)
    return target_cos * anchor + math.sqrt(1.0 - target_cos**2) * ortho


def random_batch(seed: int, dim: int = 8, n_negs: int = 4, n_queries: int = 2,
                 with_queries: bool = True) -> ContrastiveBatch:
    rng = make_rng(seed)
    neg_queries = None
    if with_queries:
        neg_queries = [[random_unit(rng, dim) for _ in range(n_queries)]
                       for _ in range(n_negs)]
    return ContrastiveBatch(
        query_emb=random_unit(rng, dim),
        pos_emb=random_unit(rng, dim),
        neg_embs=[random_unit(rng, dim) for _ in range(n_negs)],
        neg_query_embs=neg_queries,
    )


# --- independent straight-line loss formulas (finite-difference oracles) ---

def _cos(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def raw_cl(query, pos, negs, tau):
    sims = np.array([_cos(query, pos)] + [_cos(query, n) for n in negs])
    z = sims / tau
    return float(np.log(np.sum(np.exp(z - z.max()))) + z.max() - z[0])


def raw_clp(query, pos, negs, neg_queries, tau, lam):
    base = raw_cl(query, pos, negs, tau)
    if not negs:
        return base if lam == 0 else (1 - lam) * base
    penalty = np.mean([1.0 - np.mean([_cos(n, q) for q in qs])
                       for n, qs in zip(negs, neg_queries)])
    return (1 - lam) * base + lam * float(penalty)


class TestClLoss:
    def test_zero_negatives(self):
        batch = random_batch(0, n_negs=0, with_queries=False)
        assert cl_loss(batch, LossConfig(tau=0.05)) == 0.0

    def test_equal_similarity_gives_ln2(self):
        rng = make_rng(1)
        query = random_unit(rng, 8)
        pos = unit_with_cos(query, 0.4, rng)
        neg = unit_with_cos(query, 0.4, rng)
        batch = ContrastiveBatch(query, pos, [neg])
        assert cl_loss(batch, LossConfig(tau=0.7)) == pytest.approx(math.log(2), abs=1e-9)

    def test_derived_reference_value(self):
        # tau=1, sim+=0.8, sim-=0.2  ->  ln(1 + e^{-0.6})
        rng = make_rng(2)
        query = random_unit(rng, 8)
        pos = unit_with_cos(query, 0.8, rng)
        neg = unit_with_cos(query, 0.2, rng)
        batch = ContrastiveBatch(query, pos, [neg])
        expected = math.log(1.0 + math.exp(-0.6))
        assert cl_loss(batch, LossConfig(tau=1.0)) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.437488, abs=1e-6)

    def test_matches_raw_formula(self):
        for seed in range(20):
            batch = random_batch(seed, with_queries=False)
            got = cl_loss(batch, LossConfig(tau=0.05))
            want = raw_cl(batch.query_emb, batch.pos_emb, batch.neg_embs, 0.05)
            assert got == pytest.approx(want, abs=1e-12)

    def test_nonnegative(self):
        for seed in range(50):
            batch = random_batch(seed, with_queries=False)
            assert cl_loss(batch, LossConfig(tau=0.05)) >= 0.0

    def test_order_invariant_negatives(self):
        batch = random_batch(3, with_queries=False)
        flipped = ContrastiveBatch(batch.query_emb, batch.pos_emb,
                                   list(reversed(batch.neg_embs)))
        cfg = LossConfig(tau=0.05)
        assert cl_loss(batch, cfg) == pytest.approx(cl_loss(flipped, cfg), abs=1e-12)

    def test_extreme_temperature_stays_finite(self):
        batch = random_batch(4, with_queries=False)
        assert math.isfinite(cl_loss(batch, LossConfig(tau=1e-4)))


class TestClpLoss:
    def test_lambda_zero_equals_cl(self):
        for seed in range(20):
            batch = random_batch(seed)
            cfg = LossConfig(tau=0.05, lam=0.0)
            assert clp_loss(batch, cfg) == cl_loss(batch, cfg)

    def test_lambda_one_is_pure_penalty(self):
        batch = random_batch(5)
        cfg = LossConfig(tau=0.05, lam=1.0)
        penalty = np.mean([1.0 - np.mean([_cos(n, q) for q in qs])
                           for n, qs in zip(batch.neg_embs, batch.neg_query_embs)])
        assert clp_loss(batch, cfg) == pytest.approx(float(penalty), abs=1e-12)

    def test_derived_reference_value(self):
        # 0.9 * ln(1+e^-0.6) + 0.1 * (1 - 0.5) = 0.443739...
        rng = make_rng(6)
        query = random_unit(rng, 8)
        pos = unit_with_cos(query, 0.8, rng)
        neg = unit_with_cos(query, 0.2, rng)
        neg_query = unit_with_cos(neg, 0.5, rng)
        batch = ContrastiveBatch(query, pos, [neg], [[neg_query]])
        got = clp_loss(batch, LossConfig(tau=1.0, lam=0.1))
        expected = 0.9 * math.log(1.0 + math.exp(-0.6)) + 0.1 * 0.5
        assert got == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.443739, abs=1e-6)

    def test_requires_neg_queries(self):
        batch = random_batch(7, with_queries=False)
        with pytest.raises(ValueError, match="negative-query"):
            clp_loss(batch, LossConfig())

    def test_lambda_interpolation_bound(self):
        # |clp - cl| <= lam * (cl + 2) since the penalty lives in [0, 2]
        for seed in range(30):
            batch = random_batch(seed)
            for lam in (0.1, 0.5, 0.9):
                cfg = LossConfig(tau=0.05, lam=lam)
                base = cl_loss(batch, cfg)
                assert abs(clp_loss(batch, cfg) - base) <= lam * (base + 2.0) + 1e-12

    def test_nonnegative(self):
        for seed in range(30):
            batch = random_batch(seed)
            assert clp_loss(batch, LossConfig(tau=0.05, lam=0.3)) >= 0.0

    def test_permutation_of_negatives_with_queries(self):
        batch = random_batch(8)
        perm = [2, 0, 3, 1]
        shuffled = ContrastiveBatch(
            batch.query_emb, batch.pos_emb,
            [batch.neg_embs[i] for i in perm],
            [batch.neg_query_embs[i] for i in perm],
        )
        cfg = LossConfig(tau=0.05, lam=0.2)
        assert clp_loss(batch, cfg) == pytest.approx(clp_loss(shuffled, cfg), abs=1e-12)

    @given(st.integers(0, 10_000), st.floats(0.05, 50.0), st.floats(0.05, 50.0))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_through_raw_formula(self, seed, alpha, beta):
        batch = random_batch(seed % 100)
        cfg = LossConfig(tau=0.05, lam=0.25)
        reference = clp_loss(batch, cfg)
        scaled = raw_clp(alpha * batch.query_emb, beta * batch.pos_emb,
                         [alpha * n for n in batch.neg_embs],
                         [[beta * q for q in qs] for qs in batch.neg_query_embs],
                         cfg.tau, cfg.lam)
        assert scaled == pytest.approx(reference, abs=1e-9)


def _flatten(grads: BatchGrads) -> np.ndarray:
    parts = [grads.query_emb, grads.pos_emb, *grads.neg_embs]
    if grads.neg_query_embs is not None:
        for qs in grads.neg_query_embs:
            parts.extend(qs)
    return np.concatenate(parts)


def _fd_over_arrays(arrays: list[np.ndarray], loss_fn) -> list[np.ndarray]:
    """Central differences of loss_fn(arrays) over every entry of every array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        for i in range(arr.size):
            orig = arr.flat[i]
            arr.flat[i] = orig + FD_STEP
            fp = loss_fn(arrays)
            arr.flat[i] = orig - FD_STEP
            fm = loss_fn(arrays)
            arr.flat[i] = orig
            g.flat[i] = (fp - fm) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def _batch_arrays(batch: ContrastiveBatch) -> tuple[list[np.ndarray], int]:
    arrays = [batch.query_emb.copy(), batch.pos_emb.copy()]
    arrays += [n.copy() for n in batch.neg_embs]
    n_negs = len(batch.neg_embs)
    if batch.neg_query_embs is not None:
        for qs in batch.neg_query_embs:
            arrays += [q.copy() for q in qs]
    return arrays, n_negs


def fd_cl_grads(batch: ContrastiveBatch, cfg: LossConfig) -> BatchGrads:
    arrays, n_negs = _batch_arrays(batch)

    def loss(a):
        return raw_cl(a[0], a[1], a[2:2 + n_negs], cfg.tau)

    g = _fd_over_arrays(arrays[:2 + n_negs], loss)
    return BatchGrads(g[0], g[1], g[2:])


def fd_clp_grads(batch: ContrastiveBatch, cfg: LossConfig) -> BatchGrads:
    arrays, n_negs = _batch_arrays(batch)
    counts = [len(qs) for qs in batch.neg_query_embs]

    def unpack(a):
        queries = []
        at = 2 + n_negs
        for c in counts:
            queries.append(a[at:at + c])
            at += c
        return a[0], a[1], a[2:2 + n_negs], queries

    def loss(a):
        query, pos, negs, queries = unpack(a)
        return raw_clp(query, pos, negs, queries, cfg.tau, cfg.lam)

    g = _fd_over_arrays(arrays, loss)
    _, _, gnegs, gqueries = unpack(g)
    return BatchGrads(g[0], g[1], list(gnegs), [list(qs) for qs in gqueries])


class TestClLossGrad:
    def test_zero_negatives_zero_grads(self):
        batch = random_batch(0, n_negs=0, with_queries=False)
        grads = cl_loss_grad(batch, LossConfig(tau=0.05))
        assert np.all(grads.query_emb == 0.0)
        assert np.all(grads.pos_emb == 0.0)

    def test_positive_gradient_decreases_loss(self):
        # moving the positive along -grad must not increase similarity pressure:
        # the directional derivative of the loss along its gradient is >= 0,
        # and the gradient points away from higher sim(query, pos)
        for seed in range(20):
            batch = random_batch(seed, with_queries=False)
            cfg = LossConfig(tau=0.1)
            grads = cl_loss_grad(batch, cfg)
            step = 1e-7
            moved = batch.pos_emb - step * grads.pos_emb
            lowered = raw_cl(batch.query_emb, moved, batch.neg_embs, cfg.tau)
            assert lowered <= cl_loss(batch, cfg) + 1e-15

    def test_matches_finite_differences(self):
        for seed in range(30):
            batch = random_batch(seed, with_queries=False)
            cfg = LossConfig(tau=0.05)
            analytic = cl_loss_grad(batch, cfg)
            numeric = fd_cl_grads(batch, cfg)
            assert rel_error(_flatten(analytic), _flatten(numeric)) < 1e-5


class TestClpLossGrad:
    def test_lambda_zero_equals_cl_grad_bitwise(self):
        for seed in range(10):
            batch = random_batch(seed)
            cfg = LossConfig(tau=0.05, lam=0.0)
            a = clp_loss_grad(batch, cfg)
            b = cl_loss_grad(batch, cfg)
            assert a.query_emb.tobytes() == b.query_emb.tobytes()
            assert a.pos_emb.tobytes() == b.pos_emb.tobytes()
            for x, y in zip(a.neg_embs, b.neg_embs):
                assert x.tobytes() == y.tobytes()
            for qs in a.neg_query_embs:
                for g in qs:
                    assert np.all(g == 0.0)

    def test_lambda_one_zeroes_query_and_pos(self):
        batch = random_batch(11)
        grads = clp_loss_grad(batch, LossConfig(tau=0.05, lam=1.0))
        np.testing.assert_allclose(grads.query_emb, 0.0, atol=1e-18)
        np.testing.assert_allclose(grads.pos_emb, 0.0, atol=1e-18)

    def test_matches_finite_differences(self):
        for seed in range(30):
            batch = random_batch(seed)
            cfg = LossConfig(tau=0.05, lam=0.3)
            analytic = clp_loss_grad(batch, cfg)
            numeric = fd_clp_grads(batch, cfg)
            assert rel_error(_flatten(analytic), _flatten(numeric)) < 1e-5

    def test_requires_neg_queries(self):
        batch = random_batch(12, with_queries=False)
        with pytest.raises(ValueError, match="negative-query"):
            clp_loss_grad(batch, LossConfig())


class TestValidation:
    def test_rejects_non_unit(self):
        rng = make_rng(13)
        with pytest.raises(ValueError, match="unit norm"):
            ContrastiveBatch(rng.standard_normal(8) * 2,
                             random_unit(rng, 8), [])

    def test_rejects_dim_mismatch(self):
        rng = make_rng(14)
        with pytest.raises(ValueError, match="dimension"):
            ContrastiveBatch(random_unit(rng, 8), random_unit(rng, 6), [])

    def test_rejects_misaligned_neg_queries(self):
        rng = make_rng(15)
        with pytest.raises(ValueError, match="one entry list per negative"):
            ContrastiveBatch(random_unit(rng, 8), random_unit(rng, 8),
                             [random_unit(rng, 8)], [])

    def test_rejects_non_unit_negative_row(self):
        batch = random_batch(16)
        negs = batch.neg_embs.copy()
        negs[2] *= 1.5
        with pytest.raises(ValueError, match=r"^neg_embs\[2\] must be unit norm"):
            ContrastiveBatch(batch.query_emb, batch.pos_emb, negs, batch.neg_query_embs)

    def test_rejects_non_unit_row_inside_neg_query_entry(self):
        batch = ragged_batch(17)
        entries = [qs.copy() for qs in batch.neg_query_embs]
        entries[1][2] *= 0.5
        with pytest.raises(ValueError, match=r"^neg_query_embs\[1\]\[2\] must be unit norm"):
            ContrastiveBatch(batch.query_emb, batch.pos_emb, batch.neg_embs, entries)

    def test_rejects_non_finite_neg_query_row(self):
        batch = ragged_batch(18)
        entries = [qs.copy() for qs in batch.neg_query_embs]
        entries[2][0, 3] = np.nan
        with pytest.raises(ValueError, match=r"^neg_query_embs\[2\]\[0\] contains non-finite"):
            ContrastiveBatch(batch.query_emb, batch.pos_emb, batch.neg_embs, entries)

    def test_rejects_negative_of_wrong_dimension(self):
        rng = make_rng(19)
        with pytest.raises(ValueError, match=r"^neg_embs .*dimension"):
            ContrastiveBatch(random_unit(rng, 8), random_unit(rng, 8),
                             [random_unit(rng, 8), random_unit(rng, 6)])
        with pytest.raises(ValueError, match=r"^neg_query_embs\[0\] .*dimension 8"):
            ContrastiveBatch(random_unit(rng, 8), random_unit(rng, 8),
                             [random_unit(rng, 8)], [[random_unit(rng, 6)]])

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -float("inf"), 0.0, -0.05])
    def test_tau_must_be_finite_and_positive(self, tau):
        with pytest.raises(ValueError, match=r"^tau must be a finite number > 0$"):
            LossConfig(tau=tau)

    def test_loss_config_bounds(self):
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)
        with pytest.raises(ValueError):
            LossConfig(lam=1.5)


def per_vector_grads(batch: ContrastiveBatch, tau: float, lam: float | None) -> BatchGrads:
    """Straight-line gradients built one vector pair at a time from
    numerics.cosine_similarity(_grad); ``lam=None`` is the CL loss."""
    docs = [batch.pos_emb, *batch.neg_embs]
    probs = softmax_temperature([cosine_similarity(batch.query_emb, d) for d in docs], tau)
    keep = 1.0 if lam is None else 1.0 - lam
    d_query = np.zeros_like(batch.query_emb)
    d_docs = []
    for i, doc in enumerate(docs):
        dscore = keep * (probs[i] - (i == 0)) / tau
        da, db = cosine_similarity_grad(batch.query_emb, doc)
        d_query += dscore * da
        d_docs.append(dscore * db)
    if lam is None:
        return BatchGrads(d_query, d_docs[0], d_docs[1:])
    d_neg_queries = []
    for j, (neg, queries) in enumerate(zip(batch.neg_embs, batch.neg_query_embs)):
        coeff = -lam / (len(batch.neg_embs) * len(queries))
        d_neg_queries.append([])
        for q in queries:
            da, db = cosine_similarity_grad(neg, q)
            d_docs[1 + j] = d_docs[1 + j] + coeff * da
            d_neg_queries[j].append(coeff * db)
    return BatchGrads(d_query, d_docs[0], d_docs[1:], d_neg_queries)


def assert_grads_close(got: BatchGrads, want: BatchGrads, atol: float) -> None:
    np.testing.assert_allclose(got.query_emb, want.query_emb, rtol=0, atol=atol)
    np.testing.assert_allclose(got.pos_emb, want.pos_emb, rtol=0, atol=atol)
    assert len(got.neg_embs) == len(want.neg_embs)
    for g, w in zip(got.neg_embs, want.neg_embs):
        np.testing.assert_allclose(g, w, rtol=0, atol=atol)
    assert (got.neg_query_embs is None) == (want.neg_query_embs is None)
    for gs, ws in zip(got.neg_query_embs or [], want.neg_query_embs or []):
        assert len(gs) == len(ws)
        for g, w in zip(gs, ws):
            np.testing.assert_allclose(g, w, rtol=0, atol=atol)


class TestPerVectorOracle:
    """The matrix-form gradients against a reference that takes every cosine
    and its partials one vector pair at a time."""

    @pytest.mark.parametrize("n_negs", [0, 1, 4])
    def test_cl_grad(self, n_negs):
        for seed in range(10):
            batch = random_batch(seed, n_negs=n_negs, with_queries=False)
            assert_grads_close(cl_loss_grad(batch, LossConfig(tau=0.05)),
                               per_vector_grads(batch, 0.05, None), atol=1e-12)

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    @pytest.mark.parametrize("n_negs", [0, 1, 4])
    def test_clp_grad(self, lam, n_negs):
        for seed in range(10):
            batch = random_batch(seed, n_negs=n_negs, n_queries=1 + seed % 3)
            assert_grads_close(clp_loss_grad(batch, LossConfig(tau=0.05, lam=lam)),
                               per_vector_grads(batch, 0.05, lam), atol=1e-12)


def ragged_batch(seed: int, counts=(1, 3, 2), dim: int = 8) -> ContrastiveBatch:
    rng = make_rng(seed)
    return ContrastiveBatch(
        query_emb=random_unit(rng, dim),
        pos_emb=random_unit(rng, dim),
        neg_embs=[random_unit(rng, dim) for _ in counts],
        neg_query_embs=[[random_unit(rng, dim) for _ in range(c)] for c in counts],
    )


class TestRaggedNegQueries:
    """Negatives with different numbers of own queries (1, 3 and 2)."""

    def test_loss_matches_raw_formula(self):
        for seed in range(10):
            batch = ragged_batch(seed)
            for lam in (0.0, 0.3, 1.0):
                want = raw_clp(batch.query_emb, batch.pos_emb, list(batch.neg_embs),
                               batch.neg_query_embs, 0.05, lam)
                assert clp_loss(batch, LossConfig(tau=0.05, lam=lam)) == pytest.approx(
                    want, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        for seed in range(10):
            batch = ragged_batch(seed)
            cfg = LossConfig(tau=0.05, lam=0.3)
            analytic = clp_loss_grad(batch, cfg)
            assert [g.shape for g in analytic.neg_query_embs] == [(1, 8), (3, 8), (2, 8)]
            assert rel_error(_flatten(analytic), _flatten(fd_clp_grads(batch, cfg))) < 1e-5

    def test_batch_keeps_one_matrix_per_negative(self):
        batch = ragged_batch(0)
        assert batch.neg_embs.shape == (3, 8)
        assert [len(qs) for qs in batch.neg_query_embs] == [1, 3, 2]
