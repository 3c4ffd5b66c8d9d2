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


_DRAWS = (
    # 32-bit words, none rejected at a power-of-two range; the odd length
    # leaves half a 64-bit word buffered.
    lambda rng: rng.integers(0, 1 << 16, shape=3),
    lambda rng: rng.normal((4, 3), std=0.5),
    lambda rng: rng.uniform(),
    lambda rng: rng.choice(5, size=4, p=[0.1, 0.2, 0.3, 0.25, 0.15]),
    lambda rng: rng.integers(0, 7, shape=5),
)


def test_rekey_equals_a_fresh_stream_after_any_draws():
    streams = [0, 9, (3 << 40) ^ 17, (7 << 40) ^ 255, 1 << 63, (1 << 63) + 1, (1 << 64) - 1]
    for before in range(len(_DRAWS) + 1):
        for stream in streams:
            rng = Rng(21, 4)
            for draw in _DRAWS[:before]:
                draw(rng)
            assert rng.rekey(stream) is rng and rng.stream == stream
            fresh = Rng(21, stream)
            for draw in _DRAWS:
                got, want = draw(rng), draw(fresh)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                npt.assert_array_equal(got, want)


def test_rekey_masks_the_stream_as_the_constructor_does():
    rng = Rng(5, 0).rekey(-1)
    assert rng.stream == (1 << 64) - 1
    npt.assert_array_equal(rng.normal((6,)), Rng(5, -1).normal((6,)))


def test_streams_from_two_to_the_63_are_distinct():
    # Key words are passed as uint64: through a float64 these three collided.
    draws = [Rng(3, (1 << 63) + d).normal((4,)) for d in range(3)]
    assert not np.array_equal(draws[0], draws[1]) and not np.array_equal(draws[1], draws[2])
    assert not np.array_equal(Rng(-1, 0).normal((4,)), Rng(0, 0).normal((4,)))
