"""Waiver syntax and semantics: inline disables, `all`, unknown codes."""

from tools.reprolint import lint_source, parse_waivers

# A snippet R001 flags at the iteration line (determinism rule scope).
FIXTURE_PATH = "src/repro/search/engine.py"
FLAGGED = "for row in {1, 2, 3}:\n    print(row)\n"


def _codes(violations):
    return {v.rule for v in violations}


def test_trailing_waiver_suppresses_the_line():
    source = "for row in {1, 2, 3}:  # reprolint: disable=R001\n    print(row)\n"
    assert not lint_source(source, FIXTURE_PATH)


def test_trailing_waiver_with_justification_text():
    source = (
        "for row in {1, 2}:  # reprolint: disable=R001 -- order irrelevant\n"
        "    print(row)\n"
    )
    assert not lint_source(source, FIXTURE_PATH)


def test_standalone_comment_waiver_covers_next_code_line():
    source = (
        "# reprolint: disable=R001 -- membership only\n"
        "for row in {1, 2}:\n"
        "    print(row)\n"
    )
    assert not lint_source(source, FIXTURE_PATH)


def test_multi_line_comment_waiver_extends_to_first_code_line():
    source = (
        "# reprolint: disable=R001 -- a justification long enough\n"
        "# to need a second comment line before the statement.\n"
        "for row in {1, 2}:\n"
        "    print(row)\n"
    )
    assert not lint_source(source, FIXTURE_PATH)


def test_waiver_on_wrong_line_does_not_suppress():
    source = (
        "x = 1  # reprolint: disable=R001\n"
        "y = 2\n"
        "for row in {1, 2}:\n"
        "    print(row)\n"
    )
    assert "R001" in _codes(lint_source(source, FIXTURE_PATH))


def test_disable_all_suppresses_every_rule():
    source = "for row in {1, 2}:  # reprolint: disable=all\n    print(row)\n"
    assert not lint_source(source, FIXTURE_PATH)


def test_waiver_for_other_rule_does_not_suppress():
    source = "for row in {1, 2}:  # reprolint: disable=R002\n    print(row)\n"
    assert "R001" in _codes(lint_source(source, FIXTURE_PATH))


def test_unknown_waiver_code_reports_r000():
    # Concatenated so this test file's own source line is not parsed as a
    # (stale) waiver when the repository lints itself.
    source = "x = 1  # reprolint: " + "disable=R998\n"
    violations = lint_source(source, FIXTURE_PATH)
    assert [v.rule for v in violations] == ["R000"]
    assert "R998" in violations[0].message


def test_comma_separated_codes_parse():
    waived = parse_waivers("x = 1  # reprolint: disable=R001, R002\n")
    assert waived[1] == {"R001", "R002"}
    assert waived[2] == {"R001", "R002"}  # trailing waivers cover line below


def test_respect_waivers_false_surfaces_waived_findings():
    source = "for row in {1, 2}:  # reprolint: disable=R001\n    print(row)\n"
    assert "R001" in _codes(
        lint_source(source, FIXTURE_PATH, respect_waivers=False)
    )
