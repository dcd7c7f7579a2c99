"""Fixture-driven tests for every registered reprolint rule.

Each rule carries its own ``must_flag`` / ``must_pass`` snippets; these
tests lint every snippet *as if* it lived at the rule's ``fixture_path``.
The meta-test at the bottom guarantees that no rule can ship without both
fixture kinds, so a new rule is untestable-by-construction only if this
suite fails.
"""

import pytest

from tools.reprolint import all_rules, get_rule, lint_source

RULES = all_rules()
RULE_IDS = [rule.code for rule in RULES]


def _codes(violations):
    return {v.rule for v in violations}


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_must_flag_fixtures_are_flagged(rule):
    for index, snippet in enumerate(rule.must_flag):
        violations = lint_source(snippet, rule.fixture_path, [rule])
        assert rule.code in _codes(violations), (
            f"{rule.code} must_flag fixture #{index} produced no {rule.code} "
            f"violation:\n{snippet}"
        )


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_must_pass_fixtures_are_clean(rule):
    for index, snippet in enumerate(rule.must_pass):
        violations = lint_source(snippet, rule.fixture_path, [rule])
        assert not violations, (
            f"{rule.code} must_pass fixture #{index} was flagged: "
            f"{[v.format() for v in violations]}\n{snippet}"
        )


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_applies_to_its_own_fixture_path(rule):
    assert rule.applies_to(rule.fixture_path)


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_metadata_is_complete(rule):
    """Every rule documents itself: code, name, rationale, fixtures."""
    assert rule.code.startswith("R") and rule.code[1:].isdigit()
    assert rule.name
    assert rule.rationale
    assert rule.fixture_path.endswith(".py")
    assert rule.must_flag, f"{rule.code} ships no must_flag fixture"
    assert rule.must_pass, f"{rule.code} ships no must_pass fixture"


def test_all_rules_sorted_and_unique():
    codes = [rule.code for rule in RULES]
    assert codes == sorted(codes)
    assert len(codes) == len(set(codes))
    assert len(codes) >= 5  # determinism, session balance, registry
    # contract, decision discipline, stats-ledger accumulation


def test_get_rule_round_trips_and_rejects_unknown():
    for rule in RULES:
        assert get_rule(rule.code) is rule
    with pytest.raises(KeyError):
        get_rule("R999")


def test_rules_do_not_fire_outside_their_scope():
    """A snippet that would be flagged in scope is ignored off scope."""
    for rule in RULES:
        if rule.applies_to("some/unrelated/module.py"):
            continue  # a globally-scoped rule has no off-scope path
        for snippet in rule.must_flag:
            assert not lint_source(snippet, "some/unrelated/module.py", [rule])


def test_syntax_error_reports_r000():
    violations = lint_source("def broken(:\n", "src/repro/search/x.py")
    assert [v.rule for v in violations] == ["R000"]
    assert "parse" in violations[0].message
