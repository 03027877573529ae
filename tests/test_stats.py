"""The attack verdict, the delta budget and the ring penalty as pure functions."""

from ringbreak.stats import delta_budget, ring_penalty
from support import attack_verdict_disagreements


def test_verdicts_on_fixed_counts():
    assert attack_verdict_disagreements() == []


def test_delta_budget_and_ring_penalty():
    assert [delta_budget(trials, 4) for trials in (0, 800, 1000)] == [100, 100, 125]
    assert ring_penalty(4, 0.5) == 3.5 and ring_penalty(10, 0.0) == 0.0
