import math

import numpy as np
import pytest

from loraroute import ValidationError, l2_norm, shannon_entropy, softmax


class TestL2Norm:
    def test_three_four_five(self):
        assert l2_norm(np.array([3.0, 4.0])) == 5.0

    def test_zero_vector(self):
        assert l2_norm(np.zeros(8)) == 0.0

    def test_non_negative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=int(rng.integers(1, 100)))
            assert l2_norm(v) >= 0.0

    def test_scaling_by_power_of_two_is_exact(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=16)
        assert l2_norm(2.0 * v) == 2.0 * l2_norm(v)


class TestSoftmax:
    def test_constant_vector_is_uniform(self):
        out = softmax(np.full(4, 3.25))
        np.testing.assert_allclose(out, np.full(4, 0.25), rtol=0, atol=1e-15)

    def test_sums_to_one_large_magnitude(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            d = int(rng.integers(1, 300))
            v = rng.uniform(-1e4, 1e4, size=d)
            out = softmax(v)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.uniform(-10, 10, size=int(rng.integers(2, 64)))
            c = float(rng.uniform(-100, 100))
            np.testing.assert_allclose(softmax(v + c), softmax(v), rtol=0, atol=1e-12)

    def test_monotone_order_preserved(self):
        v = np.array([0.1, 2.0, -3.0, 2.0])
        out = softmax(v)
        assert np.argmax(out) == np.argmax(v)


class TestShannonEntropy:
    @pytest.mark.parametrize("d", [2, 4, 8, 64])
    def test_uniform_gives_log_d(self, d):
        assert shannon_entropy(np.full(d, 1.0 / d)) == pytest.approx(math.log(d), abs=1e-9)

    def test_one_hot_gives_zero(self):
        p = np.zeros(10)
        p[3] = 1.0
        assert shannon_entropy(p) == 0.0

    def test_zero_times_log_zero_is_zero(self):
        # Half the mass split over two entries, the rest exactly zero.
        p = np.array([0.5, 0.5, 0.0, 0.0])
        assert shannon_entropy(p) == pytest.approx(math.log(2), abs=1e-12)

    def test_entropy_bounds_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 128))
            p = rng.dirichlet(np.ones(d))
            h = shannon_entropy(p)
            assert -1e-12 <= h <= math.log(d) + 1e-9

    def test_rejects_negative_components(self):
        with pytest.raises(ValidationError):
            shannon_entropy(np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            shannon_entropy(np.array([0.5, 0.6]))


class TestValidation:
    def test_empty_vector_rejected(self):
        with pytest.raises(ValidationError):
            l2_norm([])


class TestRowWise:
    KERNELS = {
        "l2_norm": l2_norm,
        "softmax": softmax,
        "entropy_of_softmax": lambda v: shannon_entropy(softmax(v)),
    }

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_block_rows_match_single_vectors_bitwise(self, name):
        kernel = self.KERNELS[name]
        rows = np.random.default_rng(9).normal(size=(7, 33))
        # A Fortran-ordered block must score like its rows taken one at a time.
        block = kernel(np.asfortranarray(rows))
        assert len(block) == len(rows)
        for got, row in zip(block, rows):
            np.testing.assert_array_equal(got, kernel(row))

    def test_rejects_one_non_finite_row(self):
        rows = np.ones((3, 4))
        rows[1, 2] = np.inf
        with pytest.raises(ValidationError):
            l2_norm(rows)

    def test_entropy_rejects_one_bad_row_sum(self):
        rows = np.full((3, 4), 0.25)
        rows[2, 0] = 0.5
        with pytest.raises(ValidationError, match="1.25"):
            shannon_entropy(rows)
