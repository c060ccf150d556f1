import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harecast.errors import ConfigError, ShapeError
from harecast.tensor_core import SeededRng, mse, softmax_rows

from oracles import box_muller_normal, reference_softmax_rows


class TestSoftmaxRows:
    def test_symmetric(self):
        np.testing.assert_allclose(softmax_rows([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-15)

    def test_no_overflow_at_extreme_scores(self):
        out = softmax_rows([[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)

    def test_closed_form(self):
        # softmax(ln 2, 0) = (2, 1) / 3.
        np.testing.assert_allclose(
            softmax_rows([[np.log(2.0), 0.0]]), [[2 / 3, 1 / 3]], rtol=1e-14
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 6),
        st.floats(-50, 50), st.integers(0, 2**32 - 1),
    )
    def test_rows_sum_to_one(self, m, n, shift, seed):
        a = SeededRng(seed).normal((m, n)) * 10 + shift
        out = softmax_rows(a)
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(m), atol=1e-12)
        assert np.all(out >= 0)


    @pytest.mark.parametrize("n", range(1, 10))
    def test_bitwise_equals_reference(self, n):
        # short rows are reduced column by column, 8 or more by NumPy
        rng = SeededRng(13, stream=n)
        a = rng.normal((300, 3, n)) * (1.0 + 40.0 * rng.uniform((300, 3, 1))) - 5.0
        got, want = softmax_rows(a), reference_softmax_rows(a)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_extreme_row_bitwise_equals_reference(self):
        a = np.array([[1000.0, 0.0], [0.0, 1000.0], [-1000.0, 0.0]])
        np.testing.assert_array_equal(softmax_rows(a).view(np.uint64),
                                      reference_softmax_rows(a).view(np.uint64))


class TestMse:
    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 4, 5)])
    def test_bitwise_inline_formula(self, shape):
        pred, target = SeededRng(40).normal(shape), SeededRng(41).normal(shape)
        loss, per_sample, grad = mse(pred, target)
        diff = pred - target
        count = diff.size
        axes = tuple(range(1, len(shape)))
        want = (
            float(np.sum(diff * diff)) / count,
            np.sum(diff * diff, axis=axes) * (shape[0] / count),
            2.0 * diff / count,
        )
        for got, expected in zip((np.float64(loss), per_sample, grad), want):
            np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(expected).view(np.uint64))
        assert isinstance(loss, float) and per_sample.shape == (shape[0],)


class TestSeededRng:
    def test_determinism(self):
        for method in ("normal", "uniform"):
            a = getattr(SeededRng(42), method)((5, 7))
            b = getattr(SeededRng(42), method)((5, 7))
            np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = SeededRng(42, stream=0).normal((8,))
        b = SeededRng(42, stream=1).normal((8,))
        assert not np.array_equal(a, b)

    def test_normal_moments(self):
        z = SeededRng(123).normal((1_000_000,))
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_uniform_support(self):
        u = SeededRng(9).uniform((1_000_000,))
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_empty_shape_rejected(self):
        with pytest.raises(ShapeError):
            SeededRng(1).normal(())

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ShapeError):
            SeededRng(1).uniform((3, 0))

    def test_odd_count_normals(self):
        z = SeededRng(4).normal((3, 3))
        assert z.shape == (3, 3) and np.all(np.isfinite(z))

    @pytest.mark.parametrize("shapes", [
        [(1,), (2,), (7,), (1_000_000, 1)],
        [(10_001, 3), (10_000, 6)],
        [(10_000, 32, 1), (3, 5, 7)],
        [(8, 20, 32, 32), (2_000, 32, 16)],
    ])
    def test_normal_bitwise_equals_out_of_place_box_muller(self, shapes):
        # successive draws from one stream, odd and even counts, 1-D to 4-D
        fast, ref = SeededRng(11, stream=3), SeededRng(11, stream=3)
        for shape in shapes:
            got = fast.normal(shape)
            want = box_muller_normal(ref.uniform, shape)
            assert got.shape == want.shape == shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("key", [
        {"seed": -3}, {"seed": 2**64}, {"seed": 2**64 - 3, "stream": -1}, {"seed": 0, "stream": 2**64},
    ])
    def test_key_outside_philox_range_rejected(self, key):
        # masking would make SeededRng(-3) draw what SeededRng(2**64 - 3) draws
        with pytest.raises(ConfigError, match="must be in \\[0, 2\\*\\*64\\)"):
            SeededRng(**key)

    def test_largest_key_accepted(self):
        top = 2**64 - 1
        assert SeededRng(top, stream=top).uniform((3,)).shape == (3,)


def assert_bitwise(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


class TestPositionedReads:
    """SeededRng.at reads a key's uniform stream from any position."""

    @pytest.mark.parametrize("position", [*range(10), 4 * 25 - 1, 4 * 25 + 1, 4 * 1000 - 1, 4 * 1000 + 1])
    def test_at_equals_sequential_slice(self, position):
        want = SeededRng(21, stream=5).uniform((position + 9,))[position:]
        assert_bitwise(SeededRng(21, stream=5).at(position).uniform((9,)), want)

    def test_at_after_draws_of_odd_length(self):
        # positions count from the key's first draw, whatever the instance has drawn
        rng = SeededRng(21, stream=5)
        first, second, third = rng.uniform((7,)), rng.uniform((5,)), rng.uniform((3,))
        assert_bitwise(rng.at(7).uniform((5,)), second)
        assert_bitwise(rng.at(12).uniform((3,)), third)
        assert_bitwise(rng.at(3).uniform((4,)), first[3:])

    def test_negative_position_rejected(self):
        with pytest.raises(ConfigError, match="position"):
            SeededRng(1).at(-1)

    def test_fill_uniform_continues_the_stream(self):
        rng, ref = SeededRng(22), SeededRng(22)
        out = np.empty((3, 5))
        rng.fill_uniform(out)
        assert_bitwise(out, ref.uniform((3, 5)))
        assert_bitwise(rng.uniform((3,)), ref.uniform((3,)))

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 1001, 1002])
    @pytest.mark.parametrize("block", [1, 3, 500, 10_000])
    def test_normal_blocks_equal_normal_halves(self, n, block):
        # normal_rows at block_rows = block, for each (rows, width) with rows * width = n
        # among these widths: odd and even n, width 1, a single row, and a row
        # shared by the cos and sin halves of the draw
        for width in sorted({1, n} | {w for w in (2, 3, 5, 7) if n % w == 0}):
            rows = n // width
            rng = SeededRng(23, stream=2)
            rng.uniform((5,))  # the draw starts at position 5
            want = rng.normal((rows, width))
            got = np.full((rows, width), np.nan)
            yielded = np.zeros(rows, dtype=int)
            for first, values in SeededRng(23, stream=2).normal_rows(5, rows, width, block):
                assert values.shape[1:] == (width,) and 1 <= len(values) <= block
                got[first:first + len(values)] = values
                yielded[first:first + len(values)] += 1
            assert yielded.tolist() == [1] * rows
            assert_bitwise(got, want)
