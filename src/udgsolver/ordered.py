"""Float sums added one term at a time, in order, on every Python version.

Scores are sums of float terms, and their bits must not depend on the
Python version. ``functools.reduce(operator.add, terms, start)`` gives the
same floats everywhere, but it calls ``operator.add`` once per term.
``sum()`` is faster, but from Python 3.12 on it compensates rounding in its
loop for an exact ``float`` total. So the start is picked by version:

- on 3.10 and 3.11, ``start`` itself: ``sum()``'s float loop adds C doubles
  one at a time, in order (an int start is added to the first term first,
  and the float loop goes on from there), so ``ordered_sum`` is ``sum``;
- from 3.12 on, ``start`` as a ``_Start``, a float subclass with no
  instance dict: ``sum()`` then takes its generic loop, which calls ``+``
  once per term, as ``reduce`` does. The first ``+`` is ``float.__add__``,
  which returns a plain float, so no subclass leaves this module.

Either way ``ordered_sum(terms, start)`` is ``reduce(add, terms, start)``
in value, type and bits, for float terms, and an empty ``terms`` gives
``start`` (from 3.12 on the object itself; before, an equal one of the same
type and bits).
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import Iterable, Sequence

_COMPENSATES = sys.version_info >= (3, 12)


class _Start(float):
    """A float that keeps ``sum()`` off its compensated loop."""

    __slots__ = ()


def _generic_sum(terms: Iterable[float], start: float = 0) -> float:
    """``sum()`` of ``terms`` from ``start`` as a ``_Start``."""
    first = _Start(start)
    total = sum(terms, first)
    return start if total is first else total


ordered_sum = _generic_sum if _COMPENSATES else sum


def ordered_sums(columns: Sequence[Sequence[float]], starts: Iterable[float]) -> tuple[float, ...]:
    """``ordered_sum`` of each column from its start, for columns of one
    length (the columns of one block). ``starts`` holds a start per column,
    or more; with no rows the starts themselves are given, and nothing is
    added."""
    if not (columns and columns[0]):
        return tuple(islice(starts, len(columns)))
    return tuple(map(sum, columns, map(_Start, starts) if _COMPENSATES else starts))
