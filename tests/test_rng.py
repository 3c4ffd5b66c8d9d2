"""Random stream determinism and distribution sanity."""

import numpy as np
import numpy.testing as npt

from cotrain.rng import Rng


def test_same_key_same_sequence():
    a = Rng(42, 7).normal((100,))
    b = Rng(42, 7).normal((100,))
    npt.assert_array_equal(a, b)


def test_streams_are_independent():
    a = Rng(42, 0).normal((100,))
    b = Rng(42, 1).normal((100,))
    assert np.abs(a - b).max() > 1e-3


def test_seeds_are_independent():
    a = Rng(1, 0).uniform((50,))
    b = Rng(2, 0).uniform((50,))
    assert not np.array_equal(a, b)


def test_truncated_normal_bounded():
    draws = Rng(3, 3).truncated_normal((10_000,), std=0.02)
    assert np.abs(draws).max() <= 0.04 + 1e-12
    assert abs(draws.mean()) < 1e-3


def test_uniform_range():
    draws = Rng(4, 0).uniform((1000,), low=2.0, high=3.0)
    assert draws.min() >= 2.0 and draws.max() < 3.0


def test_integers_range():
    draws = Rng(5, 0).integers(0, 4, shape=(1000,))
    assert set(np.unique(draws)) <= {0, 1, 2, 3}


def test_permutation_is_bijection():
    perm = Rng(6, 0).permutation(20)
    npt.assert_array_equal(np.sort(perm), np.arange(20))


def test_draw_order_matters_not_batch_shape():
    # one generator consumed twice differs from a fresh one: state advances
    rng = Rng(8, 0)
    first = rng.normal((5,))
    second = rng.normal((5,))
    assert not np.array_equal(first, second)
