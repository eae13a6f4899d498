import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrieval_lab.data import Document, save_id_text
from retrieval_lab.evaluation import save_run
from retrieval_lab.numerics import (
    _atomic_open,
    as_matrix,
    as_vector,
    check_unit,
    cosine_similarity,
    cosine_similarity_grad,
    make_rng,
    row_norms,
    seeded_init,
)

from conftest import finite_diff, rel_error, softmax_temperature


class TestCosineSimilarity:
    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_parallel_scale_invariant(self):
        assert cosine_similarity([2, 4], [1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_forty_five_degrees(self):
        assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_symmetric(self):
        rng = make_rng(1)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_similarity([1, 0], [1, 0, 0])

    def test_zero_norm(self):
        with pytest.raises(ValueError, match=r"^cannot normalize: input norm 0\.0 outside"):
            cosine_similarity([0, 0], [1, 0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("fn", [cosine_similarity, cosine_similarity_grad])
    def test_overflowing_norm_raises(self, fn):
        # finite entries whose norm overflows to inf would divide to zeros
        with pytest.raises(ValueError, match=r"^cannot normalize: input norm inf outside"):
            fn([1e200, 1e200], [1.0, 1.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            cosine_similarity([np.nan, 1.0], [1.0, 0.0])

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0), st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, alpha, beta, seed):
        rng = make_rng(seed)
        a = rng.standard_normal(6) + 0.1
        b = rng.standard_normal(6) + 0.1
        assert cosine_similarity(alpha * a, beta * b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-12)


class TestCosineSimilarityGrad:
    def test_equal_vectors_zero_grad(self):
        v = np.array([0.3, -1.2, 2.0])
        da, db = cosine_similarity_grad(v, v)
        np.testing.assert_allclose(da, 0.0, atol=1e-15)
        np.testing.assert_allclose(db, 0.0, atol=1e-15)

    def test_hand_derived_orthogonal(self):
        da, db = cosine_similarity_grad([1, 0], [0, 1])
        np.testing.assert_allclose(da, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(db, [1.0, 0.0], atol=1e-15)

    def test_matches_finite_differences(self):
        for seed in range(100):
            rng = make_rng(seed)
            a = rng.standard_normal(8)
            b = rng.standard_normal(8)
            da, db = cosine_similarity_grad(a, b)
            fa = finite_diff(lambda x: cosine_similarity(x, b), a)
            fb = finite_diff(lambda x: cosine_similarity(a, x), b)
            assert rel_error(da, fa) < 1e-6
            assert rel_error(db, fb) < 1e-6


class TestSoftmaxTemperature:
    def test_uniform_on_equal_scores(self):
        out = softmax_temperature([2.5, 2.5, 2.5], tau=0.3)
        np.testing.assert_allclose(out, 1 / 3, atol=1e-15)

    def test_two_way_reference(self):
        # direct evaluation: e / (e + 1)
        expected = math.e / (math.e + 1.0)
        out = softmax_temperature([1.0, 0.0], tau=1.0)
        np.testing.assert_allclose(out, [expected, 1 - expected], atol=1e-12)
        assert out[0] == pytest.approx(0.7310586, abs=1e-7)

    def test_shift_invariance_no_overflow(self):
        out = softmax_temperature([1000.0, 999.0], tau=1.0)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, softmax_temperature([1.0, 0.0], tau=1.0), atol=1e-12)

    def test_rejects_nonpositive_tau(self):
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError, match="temperature"):
                softmax_temperature([1.0, 2.0], tau)

    @given(st.integers(0, 2**31), st.integers(1, 12), st.floats(0.01, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_probability_vector(self, seed, dim, tau):
        rng = make_rng(seed)
        scores = rng.standard_normal(dim) * 10
        # strictly positive entries require exp(z - max) to stay above the
        # f64 underflow threshold (~exp(-745))
        if (scores.max() - scores.min()) / tau > 700:
            scores = scores * tau / 100.0
        out = softmax_temperature(scores, tau)
        assert np.all(out > 0) and np.all(out <= 1)
        assert abs(out.sum() - 1.0) <= 1e-12


class TestVectorContract:
    def test_widths_checked(self):
        assert as_vector([1.0, 2.0], "v", 2).shape == (2,)
        with pytest.raises(ValueError, match=r"^v has dimension 3, expected 2$"):
            as_vector([1.0, 2.0, 3.0], "v", 2)
        with pytest.raises(ValueError, match=r"^m has dimension 3, expected 2$"):
            as_matrix(np.ones((2, 3)), "m", 2)
        with pytest.raises(ValueError, match=r"^m must have dimension > 0$"):
            as_matrix(np.ones((2, 0)), "m")

    def test_matrix_may_have_no_rows(self):
        m = as_matrix(np.empty((0, 8)), "m", 8)
        assert m.shape == (0, 8)
        assert row_norms(m, "m").shape == (0,)

    def test_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError, match=r"^m contains non-finite entries$"):
            as_matrix([[1.0, np.inf]], "m")

    def test_row_norms_match_per_row_dot(self):
        m = make_rng(3).standard_normal((5, 7))
        assert row_norms(m, "m").tolist() == [math.sqrt(row @ row) for row in m]

    @pytest.mark.parametrize("row, shown", [([0.0, 1e-31], "1e-31"), ([np.nan, 1.0], "nan")])
    def test_row_norms_name_the_first_bad_norm(self, row, shown):
        with pytest.raises(ValueError, match=rf"^cannot normalize: m norm {shown} outside \[1e-30, inf\)$"):
            row_norms(np.array([[1.0, 0.0], row]), "m")

    def test_check_unit_names_first_bad_row(self):
        m = np.array([[1.0, 0.0], [0.0, 2.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match=r"^row 1 must be unit norm, got \|v\| = 2\.0$"):
            check_unit(m, "row {}".format)
        with pytest.raises(ValueError, match=r"^row 1 contains non-finite entries$"):
            check_unit(m[[0, 2]], "row {}".format)
        check_unit(m[:1], "row {}".format)


class TestSeededInit:
    def test_same_seed_identical(self):
        a = seeded_init(make_rng(42), 3, 4, 0.5)
        b = seeded_init(make_rng(42), 3, 4, 0.5)
        assert a.tobytes() == b.tobytes()

    def test_zero_scale(self):
        assert np.all(seeded_init(make_rng(1), 2, 2, 0.0) == 0.0)

    def test_range(self):
        m = seeded_init(make_rng(3), 50, 50, 0.1)
        assert np.all(np.abs(m) <= 0.1)

    def test_golden_seed_42(self):
        # frozen snapshot of the PCG64 stream; guards the PRNG choice
        m = seeded_init(make_rng(42), 2, 2, 0.1)
        expected = np.array([
            [0.05479120971119267, -0.012224312049589537],
            [0.0717195839822765, 0.039473605811872786],
        ])
        np.testing.assert_allclose(m, expected, atol=1e-18)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            seeded_init(make_rng(0), 0, 3, 1.0)


class TestAtomicOpen:
    def test_clean_exit_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with _atomic_open(path) as fh:
            fh.write("new\n")
            assert path.read_bytes() == b"old\n"  # nothing visible before the block ends
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_error_inside_the_block_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(RuntimeError, match="boom"):
            with _atomic_open(path) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_writer_failing_partway_keeps_the_old_file(self, tmp_path):
        # the first line reaches the temporary file before the second fails
        path = tmp_path / "corpus.jsonl"
        save_id_text([Document("d1", "alpha"), Document("d2", "beta")], path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_id_text([Document("d1", "gamma"), SimpleNamespace(id="d2", text={1})], path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["corpus.jsonl"]

    def test_run_dump_failing_partway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "run.tsv"
        save_run({"q1": [("d1", 0.5)]}, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_run({"q1": [("d1", 0.25)], "q2": [("d1", 0.5, "extra")]}, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["run.tsv"]
