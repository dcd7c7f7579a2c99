"""Enumeration helpers used by the decision procedures.

The deciders of the paper enumerate subsets of tuples; that enumeration is
intrinsically exponential, and :func:`powerset` makes the loop explicit.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


def powerset(items: Sequence[T], include_empty: bool = True) -> Iterator[tuple[T, ...]]:
    """All subsets of ``items``, smallest first.

    Used by the weak-model minimality check (Theorem 5.6 upper bound), which
    must inspect every non-empty ``Δ ⊆ T``.
    """
    start = 0 if include_empty else 1
    for size in range(start, len(items) + 1):
        yield from itertools.combinations(items, size)

