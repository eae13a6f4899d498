import numpy as np
import pytest

from retrieval_lab import mining
from retrieval_lab.data import Document, Qrels, Query
from retrieval_lab.encoder import EncoderConfig, encode, encode_texts, init_params
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
from retrieval_lab.numerics import cosine_similarity, make_rng, row_norms

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

    def test_text_without_words_names_it(self):
        corpus, params, config = small_setup(n_docs=3)
        corpus[1] = Document("d0", "!!!")
        with pytest.raises(ValueError, match=r"^empty input: texts\[1\] has no words: '!!!'$"):
            build_index(corpus, params, config)


class TestDenseIndexRows:
    def test_names_first_non_unit_row(self):
        vectors = np.eye(3)
        vectors[1] *= 2.0
        vectors[2] *= 3.0
        with pytest.raises(ValueError, match=r"^index vector 'd0001' must be unit norm, got \|v\| = 2\.0$"):
            DenseIndex(["d0000", "d0001", "d0002"], vectors, 3)

    def test_names_first_non_finite_row(self):
        vectors = np.eye(3)
        vectors[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"^index vector 'd0002' contains non-finite entries$"):
            DenseIndex(["d0000", "d0001", "d0002"], vectors, 3)

    def test_list_of_rows_searches_like_the_array(self):
        vectors = make_rng(7).standard_normal((6, 3))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        ids = [f"d{i}" for i in range(6)]
        from_list = DenseIndex(ids, vectors.tolist(), 3)
        from_array = DenseIndex(ids, vectors, 3)
        assert from_list.vectors.tobytes() == from_array.vectors.tobytes()
        queries = make_rng(8).standard_normal((4, 3))
        assert search_many(from_list, queries, 4) == search_many(from_array, queries, 4)
        assert DenseIndex(["a"], [[1.0]], 1).vector("a").tolist() == [1.0]

    def test_list_of_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="vectors shape inconsistent"):
            DenseIndex(["a", "b"], [[1.0, 0.0], [0.0, 1.0]], 3)


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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_query_norm_raises(self):
        # finite entries whose norm overflows to inf would score every document 0.0
        index = DenseIndex(["a", "b", "c"], np.eye(3), 3)
        with pytest.raises(ValueError, match=r"^cannot normalize: query norm inf outside"):
            search_top_k(index, [0.0, 1e200, 1e200], 3)

    def test_query_checked_once(self, monkeypatch):
        index = DenseIndex(["a", "b"], np.eye(2), 2)
        monkeypatch.setattr(mining, "as_matrix", None)  # search_top_k must not reach it
        assert search_top_k(index, [0.0, 2.0], 2) == [("b", 1.0), ("a", 0.0)]
        with pytest.raises(ValueError, match=r"^query_vec has dimension 3, expected 2$"):
            search_top_k(index, [1.0, 0.0, 0.0], 2)
        with pytest.raises(ValueError, match=r"^query_vec must be 1-D"):
            search_top_k(index, [[1.0, 0.0]], 2)

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

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        corpus, params, config = small_setup()
        index = build_index(corpus, params, config)
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            mine_ance_negatives(index, params, config, corpus[0].text, corpus[0].id, k)


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
    """The keys oracle, ranked in plain Python: one ``rng.random()`` key per
    corpus id, then the ids outside ``excluded`` by (descending key, corpus
    position), first k kept."""
    keys = rng.random(len(corpus_ids))
    outside = [i for i, doc_id in enumerate(corpus_ids) if doc_id not in excluded]
    return [corpus_ids[i] for i in sorted(outside, key=lambda i: (-keys[i], i))[:k]]


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

    @pytest.mark.parametrize("keep", [1, 5, 64, 65, 200, 999, 1000])
    def test_block_top_equals_full_sort(self, keep):
        # rows whose best keys crowd into one chunk of the threshold's maxima,
        # rows of few distinct keys (ties across the boundary) and rows with
        # excluded columns, against a full lexsort of every key
        rng = make_rng(44)
        n = 1000
        keys = rng.standard_normal((6, n))
        keys[0, 100:120] += 10.0
        keys[1] = rng.integers(0, 3, size=n)
        keys[2] = 0.0
        keys[3, 990:] += 5.0
        excluded = [[], [], [7, 8], [995, 0], [], list(range(0, n, 2))]
        tie_rank = rng.permutation(n)
        want = keys.copy()
        for row, cols in enumerate(excluded):
            want[row, cols] = -np.inf
        cols, values = mining._block_top(keys, lambda rows, cols, near: near, 0.0, keep,
                                         tie_rank, excluded)
        for row in range(len(keys)):
            order = np.lexsort((tie_rank, -want[row]))[:keep]
            got = slice(row * keep, (row + 1) * keep)
            assert cols[got] == order.tolist(), row
            assert values[got] == want[row, order].tolist(), row

    def test_zero_query_batch(self):
        index, _ = duplicate_row_index(n=20, copies=(1, 2))
        assert search_many(index, np.empty((0, 64)), 5) == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_query_norm_among_good_rows_raises(self):
        index = DenseIndex(["a", "b", "c"], np.eye(3), 3)
        queries = np.array([[1.0, 0.0, 0.0], [0.0, 1e200, 1e200], [0.0, 0.0, 2.0]])
        with pytest.raises(ValueError, match=r"^cannot normalize: query norm inf outside"):
            search_many(index, queries, 2)

    def test_empty_index_gives_empty_rankings(self):
        index = DenseIndex([], np.empty((0, 4)), 4)
        assert search_many(index, np.ones((2, 4)), 3) == [[], []]

    @pytest.mark.parametrize("queries, k, match", [
        (np.ones((2, 8)), 0, "k must be"),
        (np.ones((2, 5)), 3, "dimension"),
        (np.ones(8), 3, "2-D"),
        pytest.param(np.zeros((2, 8)), 3, r"^cannot normalize: query norm 0\.0 outside",
                     id="queries3-3-zero-norm"),
        (np.full((1, 8), np.nan), 3, "non-finite"),
    ])
    def test_bad_input_rejected(self, queries, k, match):
        corpus, params, config = small_setup()
        index = build_index(corpus, params, config)
        with pytest.raises(ValueError, match=match):
            search_many(index, queries, k)


def fixed_order_ranking(index: DenseIndex, query_vec, excluded=frozenset()):
    """Full-sort oracle over the scores a search returns: each document's
    fixed-order row dot with the normalized query, ties by id, excluded ids dropped."""
    q = query_vec / row_norms(query_vec[None, :], "query")[0]
    scores = np.einsum("ij,ij->i", np.tile(q, (len(index), 1)), index.vectors)
    pairs = [(d, s) for d, s in zip(index.doc_ids, scores.tolist()) if d not in excluded]
    return sorted(pairs, key=lambda p: (-p[1], p[0]))


def near_tie_index(bases, n=1000, group=12, seed=51):
    """Random unit rows and, for each base row, ``group`` rows each component of
    which is the base's or one ulp off it (the first an exact copy), scattered
    over the index: their scores with a query near the base lie within a few
    ulps. Ids follow no row order."""
    rng = make_rng(seed)
    vectors = rng.standard_normal((n, bases.shape[1]))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    spots = rng.permutation(n)[:group * len(bases)].reshape(len(bases), group)
    for base, rows in zip(bases, spots):
        step = rng.integers(-1, 2, size=(group, len(base)))
        step[0] = 0
        vectors[rows] = np.where(step == 0, base, np.nextafter(base, step * 2.0))
    ids = [f"d{7919 * i % n:04d}" for i in range(n)]
    return DenseIndex(ids, vectors, bases.shape[1]), [[ids[r] for r in rows] for rows in spots]


class TestShortlistBound:
    """Scores that lie within a few ulps of a row's k-th: every result must be
    the full sort of the fixed-order dots, whatever the block or batch."""

    def test_search_equals_full_sort_of_fixed_order_dots(self, monkeypatch):
        corpus, params, config = small_setup(seed=21, n_docs=5, d_model=64, d_int=64)
        bases = encode_texts(params, config, [doc.text for doc in corpus])
        index, _ = near_tie_index(bases)
        noise = make_rng(53).standard_normal(bases.shape) * 1e-3
        queries = np.vstack([bases, bases + noise])
        oracles = [fixed_order_ranking(index, q) for q in queries]
        for k in (1, 2, 5, 11, 12, 13, 40):
            want = [oracle[:k] for oracle in oracles]
            # each query alone, then all in one batch at three block sizes
            # (one query per block, three, the default): the same bits
            assert [search_top_k(index, q, k) for q in queries] == want
            for block_scores in (1, 3 * len(index), mining._BLOCK_SCORES):
                monkeypatch.setattr(mining, "_BLOCK_SCORES", block_scores)
                assert search_many(index, queries, k) == want

    def test_ance_negatives_equal_full_sort_of_fixed_order_dots(self, monkeypatch):
        corpus, params, config = small_setup(seed=22, n_docs=4, d_model=64, d_int=64)
        texts = [doc.text for doc in corpus]
        query_vecs = encode_texts(params, config, texts)
        index, groups = near_tie_index(query_vecs, seed=54)
        # none, part of the near-tie group, and all but 3 documents (fewer than k)
        excluded = [set(), set(groups[1][1::3]), set(index.doc_ids[3:]), {groups[3][0]}]
        for k in (1, 4, 10):
            want = [[d for d, _ in fixed_order_ranking(index, q, skip)][:k]
                    for q, skip in zip(query_vecs, excluded)]
            for block_scores in (1, 2 * len(index), mining._BLOCK_SCORES):
                monkeypatch.setattr(mining, "_BLOCK_SCORES", block_scores)
                assert mine_ance_negatives_many(index, params, config, texts, excluded, k) == want

    @pytest.mark.parametrize("keep", [1, 4, 30, 200])
    def test_block_top_rekeys_every_column_within_slack(self, keep):
        # shortlist keys up to slack / 2 either side of final keys that sit on
        # levels closer than the slack, so the two orders disagree; rows with
        # excluded columns, one with fewer than keep left
        rng = make_rng(55)
        n, slack = 200, 1e-3
        final = rng.integers(0, 8, size=(5, n)) * (slack / 3)
        final[4] = rng.standard_normal(n)
        keys = final + rng.uniform(-slack / 2, slack / 2, size=final.shape)
        excluded = [[], [3, 4, 5], list(range(0, n, 2)), list(range(2, n)), []]
        tie_rank = rng.permutation(n)
        want = final.copy()
        for row, cols in enumerate(excluded):
            want[row, cols] = -np.inf
        calls = []

        def rekey(rows, cols, near):
            # only columns keyed within slack of their row's keep-th key (keys
            # holds the -inf of the excluded columns by now)
            assert np.array_equal(near, keys[rows, cols])
            assert np.all(near >= np.sort(keys, axis=1)[rows, n - keep] - slack)
            calls.append(len(rows))
            return final[rows, cols]

        cols, values = mining._block_top(keys, rekey, slack, keep, tie_rank, excluded)
        assert len(calls) == 1
        for row in range(len(keys)):
            order = np.lexsort((tie_rank, -want[row]))[:keep]
            got = slice(row * keep, (row + 1) * keep)
            assert cols[got] == order.tolist(), row
            assert values[got] == want[row, order].tolist(), row


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

    def test_one_excluded_set_per_query(self):
        corpus, params, config = small_setup(n_docs=4)
        index = build_index(corpus, params, config)
        with pytest.raises(ValueError, match=r"^0 excluded sets for 1 queries$"):
            mine_ance_negatives_many(index, params, config, ["a b"], [], 2)

    def test_several_relevant_docs_fill_k(self, monkeypatch):
        corpus, params, config = small_setup(seed=15, n_docs=50)
        index = build_index(corpus, params, config)
        monkeypatch.setattr(mining, "_BLOCK_SCORES", 2 * len(index))  # 2 queries per block
        rng = make_rng(45)
        queries = [random_text(rng, 5) for _ in range(5)]
        rankings = [[d for d, _ in brute_force_ranking(index, encode(params, config, q))]
                    for q in queries]
        # several relevant docs at scattered ranks, a set that leaves only 3
        # documents, fewer than k, and an empty set
        excluded = [{r[0], r[2], r[5]} for r in rankings[:3]] + [set(rankings[3][3:]), set()]
        got = mine_ance_negatives_many(index, params, config, queries, excluded, k=10)
        assert got == [[d for d in ranking if d not in skip][:10]
                       for ranking, skip in zip(rankings, excluded)]
        assert [len(negatives) for negatives in got] == [10, 10, 10, 3, 10]

    def test_mine_dataset_fills_k_with_several_relevant_docs(self):
        corpus, params, config = small_setup(seed=16, n_docs=40)
        index = build_index(corpus, params, config)
        rng = make_rng(46)
        queries = [Query(f"q{i}", random_text(rng, 5)) for i in range(4)]
        judgments = {}
        wanted = []
        for query in queries:
            ranking = [d for d, _ in brute_force_ranking(index, encode(params, config, query.text))]
            relevant = {ranking[1], ranking[2], ranking[4]}
            judgments.update({(query.id, doc_id): 1 for doc_id in relevant})
            wanted.append([d for d in ranking if d not in relevant][:6])
        qrels = Qrels(judgments)
        text_of = {doc.id: doc.text for doc in corpus}
        examples = mine_dataset(corpus, queries, qrels, None, params, config,
                                "ance", 6, make_rng(0))
        assert [ex.neg for ex in examples] == [[text_of[d] for d in w] for w in wanted]

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
        positives = ["d00", "d11", "d05", "d09", "d07", "d00"]
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
        relevant_sets = [{ids[i], ids[10 + 3 * i], ids[39 - i]} for i in range(len(queries))]
        qrels = Qrels({(query.id, doc_id): 1
                       for query, relevant in zip(queries, relevant_sets) for doc_id in relevant})
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
        excluded = [{"d00", "d11", "d05"}, {"d03"}, set(), {"d01", "d02", "d03"},
                    set(ids) - {"d06"}, set(ids)]
        for k in (1, 3, 8, 9, 12, 20):
            got = mine_random_negatives_many(ids, excluded, k, make_rng(seed))
            oracle_rng = make_rng(seed)
            assert got == [random_negatives_oracle(ids, skip, k, oracle_rng) for skip in excluded]

    def test_draws_do_not_depend_on_block_size(self, monkeypatch):
        ids = [f"d{i}" for i in range(5)]
        excluded = [{"d0"}, {"d1", "d3"}, set(), {"d4"}, set(ids) - {"d2"},
                    set(ids), {"d0", "d4"}]
        oracle_rng = make_rng(11)
        want = [random_negatives_oracle(ids, skip, 3, oracle_rng) for skip in excluded]
        # 1, 2 and all 7 sets per block
        for block_scores in (1, 12, mining._BLOCK_SCORES):
            monkeypatch.setattr(mining, "_BLOCK_SCORES", block_scores)
            rng = make_rng(11)
            assert mine_random_negatives_many(ids, excluded, 3, rng) == want
            # one key per corpus id per set, no more
            assert rng.random() == make_rng(11).random(len(ids) * len(excluded) + 1)[-1]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            mine_random_negatives([f"d{i}" for i in range(5)], "d0", k, make_rng(0))


class TestMineDatasetFaults:
    @pytest.mark.parametrize("strategy, judged, neg_query_map, message", [
        ("bm25", {"d0": 1}, None, "strategy must be 'ance' or 'random', got 'bm25'"),
        ("random", {"d0": 0}, None, r"no mineable queries \(qrels empty or ids mismatched\)"),
        ("random", {"d0": 1}, {"d0": ["a"], "d1": ["b"]},
         r"neg-query map missing entries for \['d2'\]"),
    ], ids=["unknown_strategy", "no_judged_query", "neg_query_map_gap"])
    def test_fault_rejected(self, strategy, judged, neg_query_map, message):
        corpus, params, config = small_setup(n_docs=3)
        corpus = [Document(f"d{i}", doc.text) for i, doc in enumerate(corpus)]
        qrels = Qrels({("q0", doc_id): rel for doc_id, rel in judged.items()})
        with pytest.raises(ValueError, match=rf"^{message}$"):
            mine_dataset(corpus, [Query("q0", "a b")], qrels, neg_query_map, params, config,
                         strategy, 2, make_rng(0))


def mine_by(strategy, corpus_ids, excluded, k, rng):
    """``strategy``'s batched miner over the documents ``corpus_ids``."""
    if strategy == "random":
        return mine_random_negatives_many(corpus_ids, excluded, k, rng)
    corpus, params, config = small_setup(n_docs=len(corpus_ids))
    index = DenseIndex(corpus_ids, build_index(corpus, params, config).vectors, config.d_model)
    return mine_ance_negatives_many(index, params, config, ["a b"] * len(excluded), excluded, k)


class TestOneIdRule:
    """Both strategies resolve doc ids alike: a repeated corpus id and an
    excluded id outside the corpus raise, and an excluded id is never mined."""

    @pytest.mark.parametrize("strategy", ["ance", "random"])
    def test_unknown_excluded_id_raises(self, strategy):
        rng = make_rng(3)
        with pytest.raises(ValueError, match=r"^unknown positive_id 'nope'$"):
            mine_by(strategy, ["a", "b", "c"], [{"a"}, {"b", "nope"}], 2, rng)
        assert rng.random() == make_rng(3).random()  # raised before any draw

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("skip", [{"c"}, {"a"}])
    def test_repeated_id_raises_rather_than_mining_it(self, skip, seed):
        # excluding one row of a repeated id must not let its other row be drawn
        with pytest.raises(ValueError, match=r"^duplicate doc_id 'a'$"):
            mine_random_negatives_many(["a", "a", "b", "c"], [skip], 3, make_rng(seed))

    def test_repeated_id_named_as_build_index_names_it(self):
        corpus, params, config = small_setup(n_docs=4)
        ids = ["x", "b", "b", "x"]
        corpus = [Document(doc_id, doc.text) for doc_id, doc in zip(ids, corpus)]
        with pytest.raises(ValueError, match=r"^duplicate doc_id 'b'$"):
            build_index(corpus, params, config)
        with pytest.raises(ValueError, match=r"^duplicate doc_id 'b'$"):
            mine_random_negatives_many(ids, [set()], 2, make_rng(0))

    @pytest.mark.parametrize("strategy", ["ance", "random"])
    def test_mine_dataset_rejects_repeated_corpus_id(self, strategy):
        corpus, params, config = small_setup(n_docs=4)
        corpus[1] = Document(corpus[0].id, corpus[1].text)
        qrels = Qrels({("q0", corpus[2].id): 1})
        with pytest.raises(ValueError, match=rf"^duplicate doc_id '{corpus[0].id}'$"):
            mine_dataset(corpus, [Query("q0", "a b")], qrels, None, params, config,
                         strategy, 2, make_rng(0))

    @pytest.mark.parametrize("strategy", ["ance", "random"])
    def test_excluded_ids_never_mined(self, strategy):
        ids = [f"d{i:02d}" for i in range(12)]
        rng = make_rng(5)
        excluded = [{ids[i] for i in rng.permutation(12)[:rng.integers(0, 13)]}
                    for _ in range(40)]
        for skip, negatives in zip(excluded, mine_by(strategy, ids, excluded, 12, make_rng(6))):
            assert sorted(negatives) == sorted(set(ids) - skip)
