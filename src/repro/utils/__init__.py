"""Small shared utilities (subset enumeration, fresh-name supply)."""

from repro.utils.itertools_ext import powerset
from repro.utils.naming import FreshNameSupply

__all__ = [
    "FreshNameSupply",
    "powerset",
]
