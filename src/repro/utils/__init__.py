"""Small shared utilities (bounded enumeration, fresh-name supply)."""

from repro.utils.itertools_ext import bounded_product, limited, powerset
from repro.utils.naming import FreshNameSupply

__all__ = [
    "FreshNameSupply",
    "bounded_product",
    "limited",
    "powerset",
]
