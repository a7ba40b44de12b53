from collections import Counter

import pytest

from labelprop.rng import Stream, mix64


def test_mix64_deterministic_and_order_sensitive():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert mix64(1, 2) != mix64(2, 1)
    assert mix64(0) != mix64(1)
    assert 0 <= mix64(-5, 7) < 2**64


def test_stream_sequences_are_reproducible():
    a = [Stream(99).next64() for _ in range(5)]
    b = [Stream(99).next64() for _ in range(5)]
    assert a == b
    assert a != [Stream(100).next64() for _ in range(5)]


def test_below_respects_bounds():
    s = Stream(3)
    draws = [s.below(7) for _ in range(1000)]
    assert all(0 <= d < 7 for d in draws)
    assert set(draws) == set(range(7))


@pytest.mark.parametrize("bound", [0, -1])
def test_below_refuses_a_bound_below_one(bound):
    with pytest.raises(ValueError, match=r"^below\(\) needs a positive bound$"):
        Stream(3).below(bound)


def test_below_is_roughly_uniform():
    s = Stream(11)
    counts = Counter(s.below(4) for _ in range(40_000))
    for value in range(4):
        assert abs(counts[value] / 40_000 - 0.25) < 0.02


def test_permutation_covers_range():
    s = Stream(5)
    perm = s.permutation(20)
    assert sorted(perm) == list(range(20))
    assert Stream(5).permutation(20) == perm
    assert Stream(6).permutation(20) != perm
