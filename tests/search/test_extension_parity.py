"""Three-way engine parity for the engine-routed extension searches.

``completeness/extensions.py`` now rides the engine registry like every
other decider: single-tuple, tableau and bounded extension enumeration are
world searches over an instance augmented with candidate extension rows.
These tests run the :data:`~tests.search.harness.EXTENSION_FIXTURES` family
through all three engines via
:func:`~tests.search.harness.assert_extension_engine_parity` (which also
pins every engine against the independent brute-force oracles), exercise the
extensibility decider across engines, and check that a dynamically
registered fourth engine is reachable from the extension surface too.
"""

from __future__ import annotations

import pytest

from repro.completeness.consistency import (
    extensibility_active_domain,
    is_extensible,
)
from repro.completeness.extensions import single_tuple_extensions
from repro.search.engine import WorldSearch
from repro.search.registry import register_engine, unregister_engine

from tests.search.harness import (
    ALL_ENGINES,
    EXTENSION_FIXTURES,
    assert_decider_parity,
    assert_extension_engine_parity,
    oracle_single_tuple_extensions,
)


@pytest.mark.parametrize(
    "fixture", EXTENSION_FIXTURES, ids=[f.label for f in EXTENSION_FIXTURES]
)
def test_three_way_extension_parity(fixture):
    assert_extension_engine_parity(fixture)


@pytest.mark.parametrize(
    "fixture", EXTENSION_FIXTURES, ids=[f.label for f in EXTENSION_FIXTURES]
)
def test_extensibility_decider_parity(fixture):
    adom = extensibility_active_domain(
        fixture.base, fixture.master, list(fixture.constraints)
    )
    verdict = assert_decider_parity(
        lambda engine: is_extensible(
            fixture.base, fixture.master, list(fixture.constraints),
            adom, engine=engine,
        )
    )
    oracle = oracle_single_tuple_extensions(
        fixture.base, fixture.master, fixture.constraints, adom
    )
    assert verdict.holds == bool(oracle)


def test_extensibility_witness_is_a_valid_extension():
    fixture = EXTENSION_FIXTURES[1]  # bool-pair-seeded: extensions exist
    for engine in ALL_ENGINES:
        decision = is_extensible(
            fixture.base, fixture.master, list(fixture.constraints),
            witness=True, engine=engine,
        )
        assert decision.holds
        assert decision.witness.size == fixture.base.size + 1
        assert decision.engine_used == engine


def test_registered_engine_reaches_extension_search():
    """A drop-in engine is selectable from the extension surface untouched."""
    fixture = EXTENSION_FIXTURES[0]
    adom = extensibility_active_domain(
        fixture.base, fixture.master, list(fixture.constraints)
    )
    created = []

    def factory(cinstance, master, constraints, adom, *, checker,
                break_symmetry, **options):
        search = WorldSearch(
            cinstance, master, constraints, adom,
            break_symmetry=break_symmetry, checker=checker, **options,
        )
        created.append(search)
        return search

    register_engine("ext-test-engine", factory)
    try:
        produced = set(
            single_tuple_extensions(
                fixture.base, fixture.master, fixture.constraints, adom,
                engine="ext-test-engine",
            )
        )
    finally:
        unregister_engine("ext-test-engine")
    assert created, "the registered engine was never instantiated"
    assert produced == oracle_single_tuple_extensions(
        fixture.base, fixture.master, fixture.constraints, adom
    )
