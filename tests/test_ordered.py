"""``ordered_sum`` and ``ordered_sums`` against ``reduce(add, ...)``: the same
value, type and bits on every supported Python version, though ``sum()``
compensates rounding from 3.12 on."""

import random
import sys
from functools import reduce
from itertools import repeat
from operator import add

import pytest

from udgsolver.ordered import ordered_sum, ordered_sums

INF = float("inf")


def _bits(x):
    return type(x), x.hex() if isinstance(x, float) else x


@pytest.mark.parametrize("terms, start", [
    ([1e16, 1.0, -1e16, 1.0], 0.0),  # compensated: 2.0; one at a time: 1.0
    ([1e16, 1.0, -1e16, 1.0], 0),
    ([1.0, 1e100, 1.0, -1e100], 0.0),
    ([-0.0], 0),  # 0 + -0.0 is 0.0
    ([-0.0], 0.0),
    ([-0.0], -0.0),
    ([-0.0, -0.0], -0.0),
    ([0.0, -0.0], -0.0),
    ([1e308, 1e308, -1e308], 0.0),  # overflows to inf, which stays inf
    ([-1e308, -1e308], 0),
    ([INF, -INF], 0.0),
    ([0.1] * 10, 0),
    ([], 0),  # an empty input gives the start, the int 0 included
    ([], 0.0),
    ([], -0.0),
    ([], 2.5),
])
def test_ordered_sum_is_reduce_bit_for_bit(terms, start):
    expected = _bits(reduce(add, terms, start))
    assert _bits(ordered_sum(terms, start)) == expected
    assert _bits(ordered_sum(iter(terms), start)) == expected
    assert _bits(ordered_sums([tuple(terms)] * 3, (start,) * 3)[2]) == expected


def test_sum_compensates_where_ordered_sum_does_not():
    terms = [1e16, 1.0, -1e16, 1.0]
    assert sum(terms, 0.0) == (2.0 if sys.version_info >= (3, 12) else 1.0)
    assert ordered_sum(terms, 0.0) == 1.0


def test_ordered_sums_are_reduce_bit_for_bit_on_random_columns():
    rng = random.Random(20)

    def draw():
        return rng.choice([0.0, -0.0, 1.0, 1e16, -1e16, 1e308, rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20)])

    for _ in range(3000):
        width, length = rng.randint(1, 6), rng.randint(0, 12)
        columns = [tuple(draw() for _ in range(length)) for _ in range(width)]
        starts = tuple(rng.choice([0, 0.0, -0.0, draw()]) for _ in range(width))
        expected = [_bits(reduce(add, c, s)) for c, s in zip(columns, starts)]
        assert list(map(_bits, ordered_sums(columns, starts))) == expected
        assert [_bits(ordered_sum(c, s)) for c, s in zip(columns, starts)] == expected
        from_zero = [_bits(reduce(add, c, 0)) for c in columns]
        assert list(map(_bits, ordered_sums(columns, repeat(0)))) == from_zero
