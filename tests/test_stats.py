"""The attack verdict as a pure function of its counts."""

from support import attack_verdict_disagreements


def test_verdicts_on_fixed_counts():
    assert attack_verdict_disagreements() == []
