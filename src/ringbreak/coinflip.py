"""Coin-flipping bias: measurement and the forcing attack.

A coin-flip protocol should hand every honest party the same near-uniform
bit. The ring attack turns any consistent protocol into a bias machine: run
the offline ring until the far slot outputs the value you want, then force
it online. The attacker excludes one value and repeats the offline phase
with fresh coins until the pre-committed output differs from it; with the
excluded value chosen to appear with probability at most 1/2, the attack
aborts with probability at most 2^-kappa.

Bias here is the statistical distance of the common honest output from a
uniform bit; runs where the honest parties disagree are tallied separately
and excluded from the distribution, the same conditioning the consistency
definition uses. Every bound reported is degraded by the measured
inconsistency rate delta of the protocol under the embedding family, so a
protocol that is not consistent to begin with yields an INCONCLUSIVE flag
rather than a vacuous claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .core import ConfigError, JointInput, ProtocolSpec, RUNNING, coalition_size, derive_seed
from .netsim import (AdversaryStrategy, estimate_consistency, run_honest, run_with_adversary,
                     tally)
from .ring import (attack_geometry, attack_n_party, embedding_family, phase1_strict,
                   require_strict)
from .stats import (delta_budget, proportion_sigma, ring_penalty, statistical_distance,
                    wilson_interval)

UNIFORM_BIT = {"0": 0.5, "1": 0.5, "other": 0.0}
# offline phase-1 runs that pick the excluded value of a bias verdict
PILOT_RUNS = 256


def _bucket(outcome) -> str:
    if outcome == b"\x00":
        return "0"
    if outcome == b"\x01":
        return "1"
    return "other"  # BOT, longer strings, non-bit bytes


@dataclass
class BiasReport:
    """Empirical distribution of the common honest output and its distance
    from a uniform bit. Conservative CI envelope from per-bucket Wilson
    intervals: the low end pulls every bucket toward uniform, the high end
    pushes it away."""

    spec: str
    adversary: Optional[str]
    trials: int
    consistent: int
    inconsistent: int
    counts: dict[str, int]
    distribution: dict[str, float]
    distance: float
    distance_ci: tuple[float, float]
    bucket_ci: dict[str, tuple[float, float]]
    forced_value: Optional[str] = None  # hex of the pre-announced value, if any


def _distance_envelope(counts: dict[str, int], total: int) -> tuple[float, float, dict]:
    ci = {b: wilson_interval(counts.get(b, 0), total) for b in ("0", "1", "other")}
    toward = {}
    away = {}
    for b in ("0", "1", "other"):
        lo, hi = ci[b]
        target = UNIFORM_BIT[b]
        toward[b] = min(max(target, lo), hi)   # closest admissible point to uniform
        away[b] = hi if abs(hi - target) >= abs(lo - target) else lo
    return statistical_distance(toward, UNIFORM_BIT), statistical_distance(away, UNIFORM_BIT), ci


def _bias_trial(ctx: tuple, i: int) -> tuple:
    """(bucket of trial i's common honest output,), or ("inconsistent",)."""
    spec, adversary, seed = ctx
    tseed = derive_seed(seed, "bias-measure", i)
    joint = JointInput.sample(spec, tseed)
    if adversary is None:
        res = run_honest(spec, joint, tseed)
    else:
        res = run_with_adversary(spec, adversary, joint, tseed)
    outs = res.honest_outcomes()
    first = outs[0]
    if first is RUNNING or any(o != first for o in outs[1:]):
        return ("inconsistent",)
    return (_bucket(first),)


def require_bias_trials(trials: int) -> None:
    """Refuse a bias measurement of fewer than 1000 trials."""
    if trials < 1000:
        raise ConfigError("need at least 1000 trials")


def measure_bias(spec: ProtocolSpec, adversary: Optional[AdversaryStrategy],
                 trials: int, seed: int, *, forced_value: Optional[bytes] = None,
                 jobs: int = 1) -> Optional[BiasReport]:
    """Empirical output distribution over consistent runs, or None when no
    run was consistent: then the adversary breaks agreement outright and the
    conditional distribution is empty.

    Honest inputs are resampled per trial; coin-flip protocols ignore them,
    but the measurement stays meaningful for input-dependent outputs too.
    The report does not depend on `jobs`.
    """
    require_bias_trials(trials)
    seen = tally(_bias_trial, (spec, adversary, seed), trials, jobs)
    counts = {b: seen[b] for b in ("0", "1", "other")}
    inconsistent = seen["inconsistent"]
    consistent = trials - inconsistent
    if consistent == 0:
        return None
    distribution = {b: c / consistent for b, c in counts.items()}
    lo, hi, ci = _distance_envelope(counts, consistent)
    return BiasReport(
        spec=spec.name,
        adversary=adversary.describe() if adversary is not None else None,
        trials=trials,
        consistent=consistent,
        inconsistent=inconsistent,
        counts=counts,
        distribution=distribution,
        distance=statistical_distance(distribution, UNIFORM_BIT),
        distance_ci=(lo, hi),
        bucket_ci=ci,
        forced_value=forced_value.hex() if forced_value is not None else None,
    )


@dataclass
class BiasAttackResult:
    """Outcome of the repeated-phase-1 search for a non-excluded value."""

    aborted: bool
    attempts: int
    excluded: bytes
    y_star: Optional[bytes]
    corrupted: tuple[int, ...]
    adversary: Optional[AdversaryStrategy] = field(repr=False, default=None)


def default_bias_coalition(n: int) -> tuple[int, ...]:
    """The last ceil(n/3) parties: the coalition a bias run corrupts unless told."""
    return tuple(range(n - math.ceil(n / 3), n))


def _bias_coalition(n: int, corrupted: tuple[int, ...],
                    kappa: int) -> tuple[tuple[int, ...], int]:
    """Check a bias attack's coalition and kappa; returns the sorted
    coalition and the attack's t = n/3, for which `coalition_size` is t."""
    if n % 3:
        raise ConfigError(f"the bias attack needs n divisible by 3, got n={n}")
    t = n // 3
    corrupt = tuple(sorted(set(corrupted)))
    if any(not 0 <= i < n for i in corrupt):
        raise ConfigError(f"corrupted indices {list(corrupt)} out of range for n={n}")
    if len(corrupt) != coalition_size(n, t):
        raise ConfigError(f"bias attack corrupts exactly n/3={t} parties")
    if kappa < 1:
        raise ConfigError("need kappa >= 1 attempts")
    return corrupt, t


def bias_attack(spec: ProtocolSpec, corrupted: tuple[int, ...], kappa: int, seed: int,
                *, exclude: bytes = b"\x00") -> BiasAttackResult:
    """Search for a forcing adversary whose pre-committed value is not
    `exclude`, redoing the offline ring phase with fresh seeds up to kappa
    times. Aborting is a result, not an error.

    Without coins every attempt is the same run, so the attack on a
    coin-free protocol (whose fused 3-party form is coin-free too) is built
    once and stands for every attempt.
    """
    corrupt, t = _bias_coalition(spec.n, corrupted, kappa)
    atk = None
    for attempt in range(1, kappa + 1):
        if atk is None or not spec.coin_free:
            atk = attack_n_party(spec, t, corrupt, derive_seed(seed, "bias-attack", attempt))
        y = atk.y_star
        if y not in (b"\x00", b"\x01"):
            raise ConfigError(
                f"{spec.name} produced non-bit value {y!r}; not a coin-flip protocol")
        if y != exclude:
            return BiasAttackResult(aborted=False, attempts=attempt, excluded=exclude,
                                    y_star=y, corrupted=corrupt, adversary=atk.adversary)
    return BiasAttackResult(aborted=True, attempts=kappa, excluded=exclude,
                            y_star=None, corrupted=corrupt, adversary=None)


@dataclass
class BiasVerdict:
    """verify_no_nontrivial_bias output: measured forcing distance vs the
    consistency-degraded bound. A non-positive bound means the protocol is
    too inconsistent for the inequality to say anything: INCONCLUSIVE."""

    spec: str
    kappa: int
    m: int
    corrupted: tuple[int, ...]
    excluded: str               # hex
    pilot_counts: dict[str, int]
    delta_hat: float
    delta_ci: tuple[float, float]
    attack_aborted: bool
    attempts: int
    y_star: Optional[str]       # hex
    forced: Optional[BiasReport]
    distance: Optional[float]
    sigma3: Optional[float]
    bound: float
    holds: Optional[bool]
    inconclusive: bool


def _pilot_trial(ctx: tuple, i: int) -> tuple:
    """(bucket of pilot run i's pre-committed value,); a non-bit value raises."""
    spec, seed = ctx
    y = phase1_strict(spec, derive_seed(seed, "pilot", i)).y_star
    if y not in (b"\x00", b"\x01"):
        raise ConfigError(f"{spec.name} is not bit-valued; saw {y!r}")
    return (_bucket(y),)


def pilot_polarity(spec: ProtocolSpec, runs: int, seed: int, *,
                   jobs: int = 1) -> tuple[bytes, dict[str, int]]:
    """Estimate which value the offline phase favors; exclude the minority.

    Ties exclude 0, matching the convention that the attack forces a nonzero
    value when there is nothing to choose between. The counts, and the error
    a non-bit value raises (the first run's), do not depend on `jobs`.
    """
    seen = tally(_pilot_trial, (spec, seed), runs, jobs)
    counts = {b: seen[b] for b in ("0", "1")}
    excluded = b"\x00" if counts["0"] <= counts["1"] else b"\x01"
    return excluded, counts


def verify_no_nontrivial_bias(spec: ProtocolSpec, kappa: int, trials: int, seed: int, *,
                              corrupted: Optional[tuple[int, ...]] = None,
                              delta_trials: Optional[int] = None,
                              jobs: int = 1) -> BiasVerdict:
    """Measure how far the forcing adversary pushes the coin from uniform.

    The asserted inequality is distance >= 1/2 - 2^-kappa - (3m/2+1)*delta
    - 3*sigma, with delta measured under the embedding family (the exact
    family the consistency argument consumes) and sigma the standard error
    of the forced-bucket frequency. `jobs` workers share the delta estimate,
    the pilot and the forced measurement; the verdict does not depend on it.
    """
    require_strict(spec)
    n = spec.n
    if corrupted is None:
        corrupted = default_bias_coalition(n)
    if n != 3:
        raise ConfigError("the bias verdict is implemented for 3-party protocols")
    require_bias_trials(trials)
    _bias_coalition(n, corrupted, kappa)
    m = attack_geometry(spec.q, "strict")[0]

    family = embedding_family(spec, m)
    if delta_trials is None:
        delta_trials = delta_budget(trials, m)
    consistency = estimate_consistency(spec, family, delta_trials,
                                       derive_seed(seed, "bias-delta"), jobs=jobs)
    delta_hat = consistency.delta_hat

    excluded, pilot_counts = pilot_polarity(spec, PILOT_RUNS, derive_seed(seed, "bias-pilot"),
                                            jobs=jobs)
    attack = bias_attack(spec, corrupted, kappa, derive_seed(seed, "bias-search"),
                         exclude=excluded)

    bound = 0.5 - 2.0 ** (-kappa) - ring_penalty(m, delta_hat)
    forced = sigma3 = None
    if not attack.aborted:
        # None when no run was consistent: then the inequality says nothing
        forced = measure_bias(spec, attack.adversary, trials, derive_seed(seed, "bias-forced"),
                              forced_value=attack.y_star, jobs=jobs)
    if forced is not None:
        sigma3 = 3 * proportion_sigma(forced.counts[_bucket(attack.y_star)], forced.consistent)
        bound -= sigma3
    return BiasVerdict(
        spec=spec.name, kappa=kappa, m=m, corrupted=corrupted,
        excluded=excluded.hex(), pilot_counts=pilot_counts, delta_hat=delta_hat,
        delta_ci=consistency.delta_ci,
        attack_aborted=attack.aborted, attempts=attack.attempts,
        y_star=None if attack.aborted else attack.y_star.hex(),
        forced=forced,
        distance=None if forced is None else forced.distance,
        sigma3=sigma3, bound=bound,
        holds=None if forced is None else forced.distance >= bound,
        inconclusive=forced is None or bound <= 0,
    )
