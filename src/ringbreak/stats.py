"""Small statistics helpers shared by the experiment modules."""

from __future__ import annotations

import math
from dataclasses import dataclass


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z = 1.96  # two-sided 95% normal quantile
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def proportion_sigma(successes: int, trials: int) -> float:
    """Std. error of a proportion with an Agresti-Coull style floor.

    The +2/+4 adjustment keeps the estimate away from zero when the
    empirical count sits at 0 or n, so 3-sigma guards stay meaningful.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = (successes + 2) / (trials + 4)
    return math.sqrt(p * (1 - p) / trials)


def delta_budget(trials: int, m: int) -> int:
    """Trials per embedding adversary of a delta estimate that runs beside
    `trials` attack or forced runs on a ring of m copies."""
    return max(100, trials // (2 * m))


def ring_penalty(m: int, delta_hat: float) -> float:
    """What inconsistency costs a bound: (1.5m+1)*delta_hat for m ring copies."""
    return (1.5 * m + 1.0) * delta_hat


@dataclass(frozen=True)
class AttackVerdict:
    """The ring attack's success check, named after its report keys."""

    success_rate: float
    success_ci: tuple[float, float]
    bound: float
    bound_holds: bool
    inconclusive: bool


def attack_verdict(success: int, ran: int, m: int, delta_hat: float) -> AttackVerdict:
    """Check `success` of `ran` attack runs against 1 - (1.5m+1)*delta_hat - 3 sigma.

    With no run the rate is 0, the interval [0, 1] and 3 sigma is 1. A bound
    at or below 0 holds vacuously, so the verdict is inconclusive.
    """
    rate = success / ran if ran else 0.0
    ci = wilson_interval(success, ran) if ran else (0.0, 1.0)
    sigma3 = 3 * proportion_sigma(success, ran) if ran else 1.0
    bound = 1.0 - ring_penalty(m, delta_hat) - sigma3
    return AttackVerdict(rate, ci, bound, rate >= bound, bound <= 0.0)


def statistical_distance(p: dict, q: dict) -> float:
    """Total variation distance between two distributions given as dicts.

    `fsum` is exact, so the result does not depend on the order of `keys`:
    a set's order follows the per-process string hash seed, and a plain
    float sum's last bit with it, which made reports differ between runs.
    """
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys)
