import numpy as np
import pytest

from retrieval_lab import mining
from retrieval_lab.data import Document, Qrels, Query
from retrieval_lab import encoder
from retrieval_lab.encoder import EncoderConfig, TokenCache, encode, init_params
from retrieval_lab.mining import (
    DenseIndex,
    build_index,
    mine_ance_negatives,
    mine_ance_negatives_many,
    mine_dataset,
    mine_random_negatives,
    mine_random_negatives_many,
    search_many,
    search_top_k,
)
from retrieval_lab.numerics import cosine_similarity, make_rng

from conftest import random_text


def small_setup(seed=0, n_docs=20, vocab=256, d_model=8, d_int=16):
    config = EncoderConfig(vocab_size=vocab, d_model=d_model, d_intermediate=d_int)
    params = init_params(config, seed)
    rng = make_rng(seed + 1)
    corpus = [Document(f"d{i:03d}", random_text(rng, 6)) for i in range(n_docs)]
    return corpus, params, config


def brute_force_ranking(index: DenseIndex, query_vec) -> list[tuple[str, float]]:
    """Full-sort oracle: per-pair cosine, then sort by (-score, id)."""
    pairs = [(doc_id, cosine_similarity(query_vec, index.vector(doc_id)))
             for doc_id in index.doc_ids]
    return sorted(pairs, key=lambda p: (-p[1], p[0]))


class TestBuildIndex:
    def test_single_doc(self):
        corpus, params, config = small_setup(n_docs=1)
        index = build_index(corpus, params, config)
        assert len(index) == 1
        assert corpus[0].id in index

    def test_rebuild_identical(self):
        corpus, params, config = small_setup()
        a = build_index(corpus, params, config)
        b = build_index(corpus, params, config)
        assert a.vectors.tobytes() == b.vectors.tobytes()

    def test_entries_match_fresh_encode(self):
        corpus, params, config = small_setup(n_docs=100)
        index = build_index(corpus, params, config)
        for doc in corpus:
            np.testing.assert_array_equal(index.vector(doc.id),
                                          encode(params, config, doc.text))

    def test_duplicate_id_rejected(self):
        corpus, params, config = small_setup(n_docs=2)
        corpus[1] = Document(corpus[0].id, corpus[1].text)
        with pytest.raises(ValueError, match="duplicate"):
            build_index(corpus, params, config)

    def test_empty_text_rejected_with_id(self):
        corpus, params, config = small_setup(n_docs=2)
        corpus[1] = Document("dbad", "")
        with pytest.raises(ValueError, match="dbad"):
            build_index(corpus, params, config)

    def test_empty_corpus_rejected(self):
        _, params, config = small_setup()
        with pytest.raises(ValueError, match="nonempty"):
            build_index([], params, config)


class TestSearchTopK:
    def test_k_at_least_corpus_size_ranks_everything(self):
        corpus, params, config = small_setup()
        index = build_index(corpus, params, config)
        ranked = search_top_k(index, index.vector(corpus[0].id), 1000)
        assert len(ranked) == len(corpus)

    def test_self_query_is_rank_one(self):
        corpus, params, config = small_setup(seed=3)
        index = build_index(corpus, params, config)
        ranked = search_top_k(index, index.vector(corpus[5].id), 3)
        assert ranked[0][0] == corpus[5].id
        assert ranked[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_full_sort_oracle_1000_docs(self):
        config = EncoderConfig(vocab_size=512, d_model=8, d_intermediate=16)
        rng = make_rng(9)
        vectors = rng.standard_normal((1000, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        index = DenseIndex([f"d{i:04d}" for i in range(1000)], vectors, 8)
        for seed in range(10):
            q = make_rng(100 + seed).standard_normal(8)
            got = search_top_k(index, q, 10)
            want = brute_force_ranking(index, q)[:10]
            assert [d for d, _ in got] == [d for d, _ in want]

    def test_all_k_against_oracle(self):
        corpus, params, config = small_setup(seed=4, n_docs=17)
        index = build_index(corpus, params, config)
        q = make_rng(5).standard_normal(8)
        oracle = brute_force_ranking(index, q)
        for k in range(1, 20):
            got = search_top_k(index, q, k)
            assert [d for d, _ in got] == [d for d, _ in oracle[:k]]

    def test_exact_ties_break_by_ascending_id(self):
        v = np.array([1.0, 0.0])
        index = DenseIndex(["b", "a", "c"], np.array([v, v, v]), 2)
        ranked = search_top_k(index, np.array([1.0, 0.0]), 2)
        assert [d for d, _ in ranked] == ["a", "b"]

    def test_dimension_mismatch(self):
        corpus, params, config = small_setup()
        index = build_index(corpus, params, config)
        with pytest.raises(ValueError, match="dimension"):
            search_top_k(index, np.ones(5), 3)

    def test_scores_descending(self):
        corpus, params, config = small_setup(seed=8)
        index = build_index(corpus, params, config)
        ranked = search_top_k(index, make_rng(6).standard_normal(8), 20)
        scores = [s for _, s in ranked]
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))


class TestMineAnce:
    def test_positive_excluded(self):
        corpus, params, config = small_setup(seed=10, n_docs=30)
        index = build_index(corpus, params, config)
        for doc in corpus[:5]:
            negs = mine_ance_negatives(index, params, config, doc.text, doc.id, k=10)
            assert doc.id not in negs
            assert len(negs) == 10

    def test_positive_at_rank_one_gives_ranks_2_to_k_plus_1(self):
        corpus, params, config = small_setup(seed=11, n_docs=30)
        index = build_index(corpus, params, config)
        doc = corpus[3]
        query_vec = encode(params, config, doc.text)
        full = search_top_k(index, query_vec, len(corpus))
        assert full[0][0] == doc.id  # self-retrieval puts the positive first
        negs = mine_ance_negatives(index, params, config, doc.text, doc.id, k=10)
        assert negs == [d for d, _ in full[1:11]]

    def test_small_corpus_returns_all_non_positive(self):
        corpus, params, config = small_setup(seed=12, n_docs=5)
        index = build_index(corpus, params, config)
        negs = mine_ance_negatives(index, params, config, corpus[0].text,
                                   corpus[0].id, k=10)
        assert sorted(negs) == sorted(d.id for d in corpus[1:])

    def test_matches_brute_force_oracle(self):
        corpus, params, config = small_setup(seed=13, n_docs=50)
        index = build_index(corpus, params, config)
        rng = make_rng(14)
        for _ in range(10):
            query = random_text(rng, 5)
            positive = corpus[int(rng.integers(0, len(corpus)))].id
            got = mine_ance_negatives(index, params, config, query, positive, k=10)
            ranking = brute_force_ranking(index, encode(params, config, query))
            want = [d for d, _ in ranking if d != positive][:10]
            assert got == want

    def test_unknown_positive(self):
        corpus, params, config = small_setup()
        index = build_index(corpus, params, config)
        with pytest.raises(ValueError, match="unknown positive_id"):
            mine_ance_negatives(index, params, config, "text", "nope", k=5)


class TestIndexStaleness:
    def test_index_is_a_snapshot_and_remining_reflects_new_params(self):
        corpus, params, config = small_setup(seed=20, n_docs=25)
        index = build_index(corpus, params, config)
        frozen = index.vectors.copy()

        updated = params.copy()
        updated.embedding += 0.05  # stand-in for a training update
        stale = mine_ance_negatives(index, params, config,
                                    corpus[0].text, corpus[0].id, k=5)
        # the old index is untouched by the parameter change
        assert index.vectors.tobytes() == frozen.tobytes()
        assert stale == mine_ance_negatives(index, params, config,
                                            corpus[0].text, corpus[0].id, k=5)
        # an explicit re-mine from a rebuilt index sees the new parameters
        fresh_index = build_index(corpus, updated, config)
        fresh = mine_ance_negatives(fresh_index, updated, config,
                                    corpus[0].text, corpus[0].id, k=5)
        for doc in corpus:
            np.testing.assert_array_equal(fresh_index.vector(doc.id),
                                          encode(updated, config, doc.text))
        assert len(fresh) == 5


class TestMineRandom:
    def test_k_equal_pool_returns_all(self):
        ids = [f"d{i}" for i in range(10)]
        negs = mine_random_negatives(ids, "d3", 9, make_rng(0))
        assert sorted(negs) == sorted(d for d in ids if d != "d3")

    def test_deterministic_per_seed(self):
        ids = [f"d{i}" for i in range(50)]
        a = mine_random_negatives(ids, "d0", 10, make_rng(7))
        b = mine_random_negatives(ids, "d0", 10, make_rng(7))
        assert a == b

    def test_never_returns_positive_no_duplicates(self):
        ids = [f"d{i}" for i in range(30)]
        rng = make_rng(8)
        for _ in range(50):
            negs = mine_random_negatives(ids, "d7", 10, rng)
            assert "d7" not in negs
            assert len(set(negs)) == len(negs) == 10

    def test_uniformity_chi_square(self):
        from scipy import stats

        ids = [f"d{i:02d}" for i in range(20)]
        rng = make_rng(99)
        counts = dict.fromkeys(ids, 0)
        draws = 10_000
        k = 5
        for _ in range(draws):
            for d in mine_random_negatives(ids, "d00", k, rng):
                counts[d] += 1
        observed = np.array([counts[d] for d in ids if d != "d00"])
        _, p = stats.chisquare(observed)
        assert p > 0.01


def random_negatives_oracle(corpus_ids, excluded, k, rng):
    """The list-comprehension pool sampler: every id outside ``excluded``, then one draw."""
    pool = [doc_id for doc_id in corpus_ids if doc_id not in excluded]
    if len(pool) <= k:
        return [pool[i] for i in rng.permutation(len(pool))]
    return [pool[i] for i in rng.choice(len(pool), size=k, replace=False)]


def duplicate_row_index(n=1003, copies=(3, 501, 1001), dim=64, seed=31):
    """Random unit rows with one vector repeated at ``copies``; ids descend
    with the row, so ascending id order is the reverse of row order."""
    vectors = make_rng(seed).standard_normal((n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors[list(copies)] = vectors[copies[0]]
    ids = [f"d{n - 1 - i:04d}" for i in range(n)]
    return DenseIndex(ids, vectors, dim), [ids[r] for r in copies]


class TestSearchMany:
    def test_every_k_matches_oracle_over_several_blocks(self, monkeypatch):
        corpus, params, config = small_setup(seed=4, n_docs=17)
        index = build_index(corpus, params, config)
        monkeypatch.setattr(mining, "_BLOCK_SCORES", 4 * len(index))  # 4 queries per block
        queries = make_rng(41).standard_normal((11, 8))
        oracles = [brute_force_ranking(index, q) for q in queries]
        for k in range(1, len(index) + 3):
            got = search_many(index, queries, k)
            assert len(got) == len(queries)
            for ranked, oracle in zip(got, oracles):
                assert [d for d, _ in ranked] == [d for d, _ in oracle[:k]]
                np.testing.assert_allclose([s for _, s in ranked],
                                           [s for _, s in oracle[:k]], rtol=0, atol=1e-12)

    def test_rankings_with_ties_match_full_sort_oracle(self, monkeypatch):
        index, _ = duplicate_row_index()
        n = len(index)
        monkeypatch.setattr(mining, "_BLOCK_SCORES", 4 * n)  # 4 queries per block
        rng = make_rng(42)
        # each block mixes rows without ties and rows whose k-th boundary falls
        # inside the tied copies: at the top (the copy itself, k = 1, 2) or at
        # the bottom (its negation, k = n - 1)
        copy, anti = index.vectors[[3, 1001]], -index.vectors[[501, 3]]
        plain = rng.standard_normal((6, 64))
        queries = np.vstack([plain[0], copy[0], plain[1], anti[0], plain[2], copy[1],
                             plain[3], anti[1], plain[4], plain[5]])
        oracles = [brute_force_ranking(index, q) for q in queries]
        for k in (1, 2, n - 1, n, n + 2):
            got = search_many(index, queries, k)
            assert len(got) == len(queries)
            for ranked, oracle in zip(got, oracles):
                assert [d for d, _ in ranked] == [d for d, _ in oracle[:k]]
                np.testing.assert_allclose([s for _, s in ranked],
                                           [s for _, s in oracle[:k]], rtol=0, atol=1e-12)

    def test_duplicate_rows_tie_exactly_and_rank_by_id(self):
        index, copy_ids = duplicate_row_index()
        assert 2 ** 18 // len(index) < 600  # the batch below spans several blocks
        rng = make_rng(43)
        queries = rng.standard_normal((600, 64))
        batched = search_many(index, queries, len(index))
        for q, ranked in list(zip(queries, batched))[:200] + [
                (q, search_top_k(index, q, len(index))) for q in queries[:200]]:
            position = {doc_id: i for i, (doc_id, _) in enumerate(ranked)}
            scores = {ranked[position[d]][1] for d in copy_ids}
            assert len(scores) == 1
            spots = sorted(position[d] for d in copy_ids)
            assert spots == list(range(spots[0], spots[0] + len(copy_ids)))
            assert [ranked[i][0] for i in spots] == sorted(copy_ids)
        # a copy queried with itself: the k-th boundary falls inside the tie
        for k in (1, 2):
            for ranked in (search_many(index, index.vectors[[1001, 3]], k)
                           + [search_top_k(index, index.vectors[501], k)]):
                assert [d for d, _ in ranked] == sorted(copy_ids)[:k]

    def test_zero_query_batch(self):
        index, _ = duplicate_row_index(n=20, copies=(1, 2))
        assert search_many(index, np.empty((0, 64)), 5) == []

    def test_empty_index_gives_empty_rankings(self):
        index = DenseIndex([], np.empty((0, 4)), 4)
        assert search_many(index, np.ones((2, 4)), 3) == [[], []]

    @pytest.mark.parametrize("queries, k, match", [
        (np.ones((2, 8)), 0, "k must be"),
        (np.ones((2, 5)), 3, "dimension"),
        (np.ones(8), 3, "2-D"),
        (np.zeros((2, 8)), 3, "zero-norm"),
        (np.full((1, 8), np.nan), 3, "non-finite"),
    ])
    def test_bad_input_rejected(self, queries, k, match):
        corpus, params, config = small_setup()
        index = build_index(corpus, params, config)
        with pytest.raises(ValueError, match=match):
            search_many(index, queries, k)


class TestMineAnceMany:
    def test_equals_single_query_mining(self):
        corpus, params, config = small_setup(seed=13, n_docs=50)
        index = build_index(corpus, params, config)
        rng = make_rng(44)
        queries = [random_text(rng, 5) for _ in range(12)]
        positives = [corpus[int(i)].id for i in rng.integers(0, len(corpus), size=12)]
        got = mine_ance_negatives_many(index, params, config, queries,
                                       [{p} for p in positives], k=7)
        for query, positive, negatives in zip(queries, positives, got):
            assert negatives == mine_ance_negatives(index, params, config, query, positive, k=7)

    def test_several_relevant_docs_fill_k(self):
        corpus, params, config = small_setup(seed=15, n_docs=50)
        index = build_index(corpus, params, config)
        query = random_text(make_rng(45), 5)
        ranking = brute_force_ranking(index, encode(params, config, query))
        relevant = {ranking[0][0], ranking[2][0], ranking[5][0]}
        got = mine_ance_negatives_many(index, params, config, [query], [relevant], k=10)
        assert got == [[d for d, _ in ranking if d not in relevant][:10]]

    def test_mine_dataset_fills_k_with_several_relevant_docs(self):
        corpus, params, config = small_setup(seed=16, n_docs=40)
        index = build_index(corpus, params, config)
        rng = make_rng(46)
        queries = [Query(f"q{i}", random_text(rng, 5)) for i in range(4)]
        qrels = Qrels()
        wanted = []
        for query in queries:
            ranking = [d for d, _ in brute_force_ranking(index, encode(params, config, query.text))]
            relevant = {ranking[1], ranking[2], ranking[4]}
            for doc_id in relevant:
                qrels.set(query.id, doc_id, 1)
            wanted.append([d for d in ranking if d not in relevant][:6])
        text_of = {doc.id: doc.text for doc in corpus}
        examples = mine_dataset(corpus, queries, qrels, None, params, config,
                                "ance", 6, make_rng(0))
        assert [ex.neg for ex in examples] == [[text_of[d] for d in w] for w in wanted]

    def test_remining_with_one_token_cache_tokenizes_each_text_once(self, monkeypatch):
        corpus, params, config = small_setup(seed=17, n_docs=30)
        rng = make_rng(47)
        queries = [Query(f"q{i}", random_text(rng, 5)) for i in range(6)]
        qrels = Qrels()
        for i, query in enumerate(queries):
            qrels.set(query.id, corpus[i].id, 1)
        token_ids, tokenized = encoder._token_ids, []

        def counting(texts, config):
            tokenized.extend(texts)
            return token_ids(texts, config)

        monkeypatch.setattr(encoder, "_token_ids", counting)
        tokens = TokenCache(config)
        for step in range(3):  # each re-mine sees new params
            params.embedding *= 1.5 - step
            cached = mine_dataset(corpus, queries, qrels, None, params, config,
                                  "ance", 5, make_rng(0), tokens)
            before = len(tokenized)
            assert cached == mine_dataset(corpus, queries, qrels, None, params, config,
                                          "ance", 5, make_rng(0))
            del tokenized[before:]  # the uncached call tokenizes again
        assert sorted(tokenized) == sorted({text for text in
                                            [doc.text for doc in corpus] + [q.text for q in queries]})

    def test_zero_queries(self):
        corpus, params, config = small_setup()
        index = build_index(corpus, params, config)
        assert mine_ance_negatives_many(index, params, config, [], [], k=3) == []

    def test_unknown_excluded_doc(self):
        corpus, params, config = small_setup()
        index = build_index(corpus, params, config)
        with pytest.raises(ValueError, match="unknown positive_id 'nope'"):
            mine_ance_negatives_many(index, params, config, ["a b", "c d"],
                                     [{corpus[0].id}, {corpus[1].id, "nope"}], k=3)


class TestMineRandomMany:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pool_oracle(self, seed):
        ids = [f"d{i:02d}" for i in range(12)]
        positives = ["d00", "d11", "d05", "absent", "d07", "d00"]
        for k in (1, 5, 10, 11, 12, 20):
            got = mine_random_negatives_many(ids, [{p} for p in positives], k, make_rng(seed))
            oracle_rng = make_rng(seed)
            want = [random_negatives_oracle(ids, {p}, k, oracle_rng) for p in positives]
            assert got == want
            single_rng = make_rng(seed)
            assert [mine_random_negatives(ids, p, k, single_rng) for p in positives] == want

    def test_mine_dataset_fills_k_with_several_relevant_docs(self):
        corpus, _, _ = small_setup(seed=16, n_docs=40)
        ids = [doc.id for doc in corpus]
        rng = make_rng(46)
        queries = [Query(f"q{i}", random_text(rng, 5)) for i in range(4)]
        qrels = Qrels()
        relevant_sets = []
        for i, query in enumerate(queries):
            relevant = {ids[i], ids[10 + 3 * i], ids[39 - i]}
            for doc_id in relevant:
                qrels.set(query.id, doc_id, 1)
            relevant_sets.append(relevant)
        oracle_rng = make_rng(0)
        wanted = [random_negatives_oracle(ids, relevant, 6, oracle_rng)
                  for relevant in relevant_sets]
        text_of = {doc.id: doc.text for doc in corpus}
        examples = mine_dataset(corpus, queries, qrels, None, None, None,
                                "random", 6, make_rng(0))
        assert [ex.neg for ex in examples] == [[text_of[d] for d in w] for w in wanted]
        assert all(len(ex.neg) == 6 for ex in examples)

    @pytest.mark.parametrize("seed", range(5))
    def test_excluded_sets_match_pool_oracle(self, seed):
        ids = [f"d{i:02d}" for i in range(12)]
        excluded = [{"d00", "d11", "d05"}, {"d03", "absent"}, set(), {"d01", "d02", "d03"},
                    set(ids) - {"d06"}, set(ids)]
        for k in (1, 3, 8, 9, 12, 20):
            got = mine_random_negatives_many(ids, excluded, k, make_rng(seed))
            oracle_rng = make_rng(seed)
            assert got == [random_negatives_oracle(ids, skip, k, oracle_rng) for skip in excluded]
