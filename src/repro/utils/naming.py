"""Fresh constant and variable name supply.

The ``Adom`` construction of the paper (Proposition 3.3, Theorem 4.1) extends
the constants of the input with a set ``New`` of *fresh* values, one per
variable.  The helpers here generate such values deterministically so that
runs are reproducible and the fresh values can never collide with the input
constants (they are tagged strings).
"""

from __future__ import annotations

from repro.relational.domains import Constant

#: Prefix used for generated fresh constants.  The prefix is deliberately
#: unusual so generated values never collide with realistic data values.
FRESH_PREFIX = "★new"


class FreshNameSupply:
    """A deterministic supply of fresh names with a common prefix."""

    def __init__(self, prefix: str = FRESH_PREFIX) -> None:
        self._prefix = prefix
        self._counter = 0

    def next(self, hint: str = "") -> str:
        """The next fresh name; ``hint`` is embedded for readability."""
        self._counter += 1
        if hint:
            return f"{self._prefix}:{hint}:{self._counter}"
        return f"{self._prefix}:{self._counter}"

    def take(self, count: int, hint: str = "") -> list[str]:
        """A list of ``count`` fresh names."""
        return [self.next(hint) for _ in range(count)]


def is_fresh_constant(value: Constant) -> bool:
    """Whether ``value`` was generated by this module."""
    return isinstance(value, str) and value.startswith(FRESH_PREFIX)
