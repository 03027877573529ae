"""Two-threshold ideal model and the full-security wrapper.

The lower bound says nothing survives the ring attack unless the adversary's
block can already force the output; this module is the matching upper bound.
A threshold oracle computes f but lets an adversary corrupting more than t1
parties force a unanimous BOT. The wrapper turns that into full security for
(n-2t)-dominated f: every party replaces BOT by the dominating value y*.
The simulator argument is replayed literally: a simulator facing the
no-abort full ideal reproduces the wrapper's output distribution exactly,
because an abort can only be triggered by a coalition big enough (|I| > t1,
so |I| >= n-2t) to force y* through its own inputs.

This covers the whole honest-majority band n/3 <= t < n/2, including
s = n-2t = 1: there t1 = 0, so any coalition may abort, and the 1-dominance
witness lets any single corrupted party force y*. t >= n/2 is refused. The
threshold oracle is used as an ideal primitive; realizing it from concrete
protocols is out of scope here.

Adversaries for this module are declarative: a corrupted set plus
probability-weighted decisions, with exact Fraction weights. A joint outcome
depends only on the decision taken, so the real-vs-ideal comparison
evaluates each branch once on each side and weighs it, exactly or by its
Monte-Carlo draw count.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from typing import Any, Optional, Sequence

from .core import (BOT, Catalog, CoinStream, ConfigError, SpecViolation, coalition_size,
                   derive_seed, is_int, outcome_repr, parse_selector)
from .dominance import DominanceWitness, FunctionTable, Token, is_k_dominated


@dataclass(frozen=True)
class IdealDecision:
    """What the ideal adversary tells the oracle: substituted inputs or abort."""

    abort: bool = False
    inputs: tuple[tuple[int, Token], ...] = ()

    def __post_init__(self):
        if self.abort and self.inputs:
            raise ConfigError("an aborting decision carries no inputs")

    @staticmethod
    def substitute(mapping: dict[int, Token]) -> "IdealDecision":
        return IdealDecision(inputs=tuple(sorted(mapping.items())))

    def inputs_dict(self) -> dict[int, Token]:
        return dict(self.inputs)

    def describe(self) -> str:
        if self.abort:
            return "ABORT"
        return "sub(" + ",".join(f"{i}={v!r}" for i, v in self.inputs) + ")"


def _in_domain(f: FunctionTable, i: int, value: Any) -> bool:
    return is_int(value) and 0 <= value < f.domains[i]


def full_ideal_exec(f: FunctionTable, honest_inputs: dict[int, int],
                    adv_inputs: dict[int, Any], corrupted: Sequence[int]) -> Token:
    """Fully secure ideal computation: everyone learns f(x'), no abort.

    A corrupted party's missing or out-of-domain value falls back to 0;
    honest values must be in-domain.
    """
    corrupt = set(corrupted)
    if set(honest_inputs) | corrupt != set(range(f.n)):
        raise ConfigError("inputs must cover every party")
    if set(honest_inputs) & corrupt:
        raise ConfigError("party listed as both honest and corrupted")
    if not set(adv_inputs) <= corrupt:
        raise ConfigError("adversary substituted an input for an honest party")
    x = [0] * f.n
    for i, v in honest_inputs.items():
        if not _in_domain(f, i, v):
            raise ConfigError(f"honest input {v!r} outside domain of party {i}")
        x[i] = v
    for i in corrupt:
        v = adv_inputs.get(i)
        x[i] = v if _in_domain(f, i, v) else 0
    return f.value(x)


@dataclass(frozen=True)
class HybridAdversary:
    """Declarative adversary: corrupted set plus weighted oracle decisions.

    Weights are exact Fractions summing to 1, so the induced distributions
    can be enumerated instead of sampled.
    """

    corrupted: tuple[int, ...]
    branches: tuple[tuple[Fraction, IdealDecision], ...]

    def __post_init__(self):
        if not self.branches:
            raise ConfigError("adversary needs at least one branch")
        total = Fraction(0)
        for w, _ in self.branches:
            if w <= 0:
                raise ConfigError("branch weights must be positive")
            total += w
        if total != 1:
            raise ConfigError(f"branch weights sum to {total}, not 1")

    @cached_property
    def _cutoffs(self) -> list[int]:
        """Branch i is drawn for a 64-bit uniform u below cutoff i: the exact
        test u / 2^64 < w_0 + ... + w_i, in integers."""
        return [math.ceil(acc * 2 ** 64) for acc in accumulate(w for w, _ in self.branches)]

    def draw(self, seed: int) -> tuple[int, IdealDecision]:
        """Sample a branch; exact threshold comparison on a 64-bit uniform."""
        idx = bisect_right(self._cutoffs, CoinStream(seed, b"hybrid-branch").u64(0))
        return idx, self.branches[idx][1]


def never_abort_adversary(corrupted: Sequence[int], inputs: dict[int, Token]) -> HybridAdversary:
    return HybridAdversary(tuple(sorted(corrupted)),
                           ((Fraction(1), IdealDecision.substitute(inputs)),))


def always_abort_adversary(corrupted: Sequence[int]) -> HybridAdversary:
    return HybridAdversary(tuple(sorted(corrupted)),
                           ((Fraction(1), IdealDecision(abort=True)),))


def coin_abort_adversary(corrupted: Sequence[int], p_abort: Fraction,
                         inputs: dict[int, Token]) -> HybridAdversary:
    if not 0 < p_abort < 1:
        raise ConfigError("abort probability must be strictly between 0 and 1")
    return HybridAdversary(tuple(sorted(corrupted)), (
        (p_abort, IdealDecision(abort=True)),
        (Fraction(1) - p_abort, IdealDecision.substitute(inputs)),
    ))


# each builder takes the coalition and the inputs it forwards when it does not abort
ADVERSARIES: Catalog = {
    "never": ((), never_abort_adversary),
    "abort": ((), lambda corrupted, inputs: always_abort_adversary(corrupted)),
    "coin": ((("p", Fraction),),
             lambda corrupted, inputs, p: coin_abort_adversary(corrupted, p, inputs)),
}


def make_adversary(selector: str, corrupted: Sequence[int],
                   inputs: Sequence[int]) -> HybridAdversary:
    """An ideal adversary from a selector like 'coin:1/2'; the coalition
    forwards its own entries of `inputs` whenever it does not abort."""
    build, _ = parse_selector(selector, ADVERSARIES, "adversary")
    return build(corrupted, {i: inputs[i] for i in corrupted})


@dataclass(frozen=True)
class RunRecord:
    """Joint outcome of one wrapper (or simulated-ideal) execution."""

    honest_outputs: tuple[Any, ...]
    adv_output: str

    def key(self) -> tuple:
        return (tuple(outcome_repr(o) for o in self.honest_outputs), self.adv_output)


def _adv_output(branch: int, decision: IdealDecision, view: Any) -> str:
    return f"b{branch}:{decision.describe()}->{outcome_repr(view)}"


@dataclass(frozen=True)
class WrappedProtocol:
    """The full-security wrapper around one threshold-oracle call.

    The oracle computes f but lets a coalition of more than t1 (and at most
    t2) parties force a unanimous BOT. Each party submits its input to the
    oracle and outputs the oracle's answer, except that a BOT answer is
    replaced by the dominating value y*.
    """

    f: FunctionTable
    n: int
    t: int
    s: int
    t1: int
    t2: int
    y_star: Token
    witness: DominanceWitness = field(repr=False)

    def oracle(self, honest_inputs: dict[int, int], decision: IdealDecision,
               corrupted: Sequence[int]) -> Token:
        """One oracle call: BOT on a legal abort, f(x') otherwise."""
        k = len(set(corrupted))
        if k > self.t2:
            raise ConfigError(f"oracle tolerates at most t2={self.t2} corruptions")
        if not decision.abort:
            return full_ideal_exec(self.f, honest_inputs, decision.inputs_dict(), corrupted)
        if k <= self.t1:
            raise SpecViolation(f"abort needs more than t1={self.t1} corrupted parties, got {k}")
        return BOT

    def run_decision(self, inputs: Sequence[int], adv_corrupted: Sequence[int],
                     decision: IdealDecision, branch: int = 0) -> RunRecord:
        corrupt = sorted(set(adv_corrupted))
        honest = {i: inputs[i] for i in range(self.n) if i not in corrupt}
        view = self.oracle(honest, decision, corrupt)
        out = self.y_star if view is BOT else view
        return RunRecord((out,) * len(honest), _adv_output(branch, decision, view))


def wrap_dominated(f: FunctionTable, n: int, t: int) -> WrappedProtocol:
    """Build the wrapper for an s-dominated f, s = `coalition_size(n, t)`,
    with an honest majority (t < n/2); t1 = s-1 and t2 = t."""
    if f.n != n:
        raise ConfigError(f"table arity {f.n} does not match n={n}")
    s = coalition_size(n, t)
    if 2 * t >= n:
        raise ConfigError(f"the wrapper needs t < n/2; got n={n}, t={t}")
    witness = is_k_dominated(f, s)
    if witness is None:
        raise ConfigError(f"{f.name} is not {s}-dominated; the wrapper does not apply")
    return WrappedProtocol(f=f, n=n, t=t, s=s, t1=s - 1, t2=t,
                           y_star=witness.y_star, witness=witness)


def forcing_inputs(wrapped: WrappedProtocol, corrupted: Sequence[int]) -> dict[int, int]:
    """Inputs for the s lowest corrupted indices that pin f to y*; the rest
    of the coalition submits 0."""
    corrupt = sorted(set(corrupted))
    if len(corrupt) < wrapped.s:
        raise ConfigError("coalition too small to force the output")
    subset = tuple(corrupt[:wrapped.s])
    assignment, tok = wrapped.witness.per_subset[subset]
    assert tok == wrapped.y_star
    sub = dict.fromkeys(corrupt, 0)
    sub.update(zip(subset, assignment))
    return sub


def simulate_ideal(wrapped: WrappedProtocol, inputs: Sequence[int], corrupted: Sequence[int],
                   decision: IdealDecision, branch: int = 0) -> RunRecord:
    """The simulator: same decision, full ideal, identical joint outcome.

    The simulator plays the oracle towards the adversary. A forwarded
    decision goes straight to the full ideal; an abort is replaced by the
    witness inputs that force y*, while the adversary is shown the BOT it
    expects.
    """
    corrupt = sorted(set(corrupted))
    honest = {i: inputs[i] for i in range(wrapped.n) if i not in corrupt}
    if decision.abort:
        view = wrapped.oracle(honest, decision, corrupt)  # checks the abort is legal
        y = full_ideal_exec(wrapped.f, honest, forcing_inputs(wrapped, corrupt), corrupt)
        assert y == wrapped.y_star
    else:
        view = y = full_ideal_exec(wrapped.f, honest, decision.inputs_dict(), corrupt)
    return RunRecord((y,) * len(honest), _adv_output(branch, decision, view))


def enumerate_decisions(wrapped: WrappedProtocol, corrupted: Sequence[int]) -> list[IdealDecision]:
    """Every decision open to a coalition: all substitutions, plus abort if legal."""
    corrupt = sorted(set(corrupted))
    decisions = []
    if len(corrupt) > wrapped.t1:
        decisions.append(IdealDecision(abort=True))
    doms = [range(wrapped.f.domains[i]) for i in corrupt]
    for values in product(*doms):
        decisions.append(IdealDecision.substitute(dict(zip(corrupt, values))))
    return decisions


@dataclass
class ComparisonReport:
    method: str                 # "exhaustive" | "monte-carlo"
    distance: float
    exact_zero: Optional[bool]  # exhaustive only
    trials: Optional[int]
    real_dist: dict
    ideal_dist: dict


def _dist_to_json(dist: dict) -> dict:
    return {repr(k): float(v) for k, v in sorted(dist.items(), key=lambda kv: repr(kv[0]))}


def compare_real_ideal(wrapped: WrappedProtocol, adversary: HybridAdversary,
                       inputs: Sequence[int], *, exhaustive: bool = True,
                       trials: int = 100_000, seed: int = 0) -> ComparisonReport:
    """Statistical distance between wrapper and simulated-ideal joint outputs.

    A record depends only on the branch, so each branch's real and simulated
    record is computed once and weighted. Exhaustive mode weights it by its
    exact probability; Monte-Carlo mode, per side, by the share of trials
    whose own seed draws it. The distance is one exact sum either way.
    """
    if exhaustive:
        weights = [(w, w) for w, _ in adversary.branches]
    else:
        if trials < 1:
            raise ConfigError(f"Monte-Carlo comparison needs at least one trial, got {trials}")
        draws = [[0, 0] for _ in adversary.branches]
        for i in range(trials):
            draws[adversary.draw(derive_seed(seed, "compare", i))[0]][0] += 1
            draws[adversary.draw(derive_seed(seed, "compare-sim", i))[0]][1] += 1
        weights = [(Fraction(r, trials), Fraction(s, trials)) for r, s in draws]
    corrupt = adversary.corrupted
    real: dict = {}
    ideal: dict = {}
    for branch, ((w_real, w_ideal), (_, decision)) in enumerate(zip(weights, adversary.branches)):
        if w_real:
            key = wrapped.run_decision(inputs, corrupt, decision, branch).key()
            real[key] = real.get(key, 0) + w_real
        if w_ideal:
            key = simulate_ideal(wrapped, inputs, corrupt, decision, branch).key()
            ideal[key] = ideal.get(key, 0) + w_ideal
    tv = sum(abs(real.get(k, 0) - ideal.get(k, 0)) for k in set(real) | set(ideal)) / 2
    return ComparisonReport(method="exhaustive" if exhaustive else "monte-carlo",
                            distance=float(tv), exact_zero=(tv == 0) if exhaustive else None,
                            trials=None if exhaustive else trials,
                            real_dist=_dist_to_json(real), ideal_dist=_dist_to_json(ideal))
