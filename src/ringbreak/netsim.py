"""Synchronous lockstep execution over point-to-point secure channels.

Round r has a send phase and a receive phase: every active party emits its
round-r messages as a function of state alone, then all round-r messages are
delivered and become visible to the round-(r+1) step calls. There is no
broadcast primitive; a message travels on exactly one directed edge, and the
adversary sees only traffic addressed to corrupted parties (secure channels).
Delivery is non-rushing: corrupted parties' round-r messages are produced
before the adversary sees any honest round-r message. The adversary steps
only in rounds whose sends an honest party can read: it is not called in a
round after which no honest party runs, nor in the flush round past the cap,
so its sends there are never computed or route-checked.

`tally` is every Monte-Carlo trial loop: it counts the keys a per-trial
function returns, over `trial_chunks` mapped by `pmap` serially or on one
reused process pool. `validate_spec` probes a protocol's declared contract
on this engine.
"""

from __future__ import annotations

import atexit
import hashlib
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from .core import (
    RUNNING,
    ConfigError,
    JointEntry,
    JointInput,
    PartyProgram,
    ProtocolSpec,
    SpecViolation,
    TopologyViolation,
    derive_seed,
    outcome_repr,
)
from .stats import wilson_interval

MESSAGE_CAP = 4096
CHUNKS_PER_WORKER = 4


# Transcript record: (round, sender, receiver, payload).
TranscriptRecord = tuple[int, int, int, bytes]
# One message of one round: (sender, receiver, payload).
Send = tuple[int, int, bytes]


def step_parties(programs: Sequence[PartyProgram] | dict[int, PartyProgram],
                 states: dict[int, Any], live: Iterable[int], round_no: int,
                 inboxes: dict[int, dict[int, bytes]]) -> list[Send]:
    """The lockstep kernel: step every party in `live` once on its inbox.

    `programs` and `states` are indexed by party id, and `states` is updated
    in place. Callers pass the parties that have not halted (the contract
    probe in `_execute` passes halted ones too). The round's sends come back
    in `live` order, each party's in outbox order; that is the order
    `deliver` fills the next round's inboxes in.
    """
    sends: list[Send] = []
    for i in live:
        states[i], outbox = programs[i].step(states[i], round_no, inboxes.get(i, {}))
        for dst, payload in outbox.items():
            sends.append((i, dst, payload))
    return sends


def deliver(sends: Iterable[Send],
            inboxes: Optional[dict[int, dict[int, bytes]]] = None) -> dict[int, dict[int, bytes]]:
    """Add each send to its receiver's inbox (a new set when none is given),
    keyed by sender, in send order."""
    inboxes = {} if inboxes is None else inboxes
    for src, dst, payload in sends:
        inboxes.setdefault(dst, {})[src] = payload
    return inboxes


@dataclass
class ExecutionResult:
    """Everything observable about one finished (or cut-off) execution."""

    n: int
    corrupted: frozenset[int]
    outcomes: list[Any]            # Outcome | RUNNING for honest, None for corrupted
    halt_rounds: list[Optional[int]]
    rounds: int                    # send-phase rounds executed
    transcript: Optional[list[TranscriptRecord]]
    pre_announced: Optional[bytes] = None
    probe_violations: list[str] = field(default_factory=list)

    def honest(self) -> list[int]:
        return [i for i in range(self.n) if i not in self.corrupted]

    def honest_outcomes(self) -> list[Any]:
        return [self.outcomes[i] for i in self.honest()]


class AdversaryContext:
    """What the adversary legitimately starts with: the corrupted parties'
    inputs and coin labels, and the run's master seed."""

    def __init__(self, entries: dict[int, JointEntry], seed: int):
        self.entries = entries
        self.seed = seed


class AdversaryStrategy:
    """Round-driven adversary controlling a fixed corrupted set.

    `step` is called in every round after which some honest party still
    runs, and never in the flush round past the cap, with the messages
    addressed to corrupted parties in the previous round; the returned
    outbound maps directed edges (corrupted sender, receiver) to payloads
    for this round. pre_announce is read once, before any message has been
    seen.
    """

    corrupted: frozenset[int] = frozenset()

    def describe(self) -> str:
        return type(self).__name__

    def init(self, ctx: AdversaryContext) -> Any:
        return None

    def pre_announce(self, state: Any) -> Optional[bytes]:
        return None

    def step(self, state: Any, round_no: int,
             inbound: dict[tuple[int, int], bytes]) -> tuple[Any, dict[tuple[int, int], bytes]]:
        return state, {}


def _route_check(n: int, src: int, dst: int, payload: bytes) -> None:
    """Every run is on the complete graph: any two distinct parties share an edge."""
    if dst == src or not 0 <= dst < n:
        raise TopologyViolation(f"no edge {src}->{dst}")
    if not isinstance(payload, bytes):
        raise SpecViolation(f"message {src}->{dst} is not bytes")
    if len(payload) > MESSAGE_CAP:
        raise SpecViolation(f"message {src}->{dst} exceeds {MESSAGE_CAP} byte cap ({len(payload)})")


def _execute(
    spec: ProtocolSpec,
    joint: JointInput,
    seed: int,
    *,
    adversary: Optional[AdversaryStrategy] = None,
    max_rounds: Optional[int] = None,
    record: bool = False,
    probe_halted: bool = False,
) -> ExecutionResult:
    n = spec.n
    corrupted = adversary.corrupted if adversary is not None else frozenset()
    # a strict spec is held to its declared bound unless the caller sets its own cap
    strict_q = spec.q if spec.round_bound.strict and max_rounds is None else None
    if max_rounds is None:
        max_rounds = 4 * spec.q if spec.round_bound.strict else 64 * spec.q

    if len(joint) != n:
        raise ValueError(f"expected {n} JointEntry values, got {len(joint)}")

    states: dict[int, Any] = {}
    outcomes: list[Any] = [None] * n
    halt_rounds: list[Optional[int]] = [None] * n
    probe_violations: list[str] = []
    for i in range(n):
        if i in corrupted:
            continue
        prog, entry = spec.programs[i], joint[i]
        states[i] = prog.init(entry.input, entry.coins(seed))
        fin = prog.finished(states[i])
        if fin is not None:
            outcomes[i] = fin
            halt_rounds[i] = 0

    adv_state = None
    pre_announced = None
    if adversary is not None:
        ctx = AdversaryContext({i: joint[i] for i in corrupted}, seed)
        adv_state = adversary.init(ctx)
        pre_announced = adversary.pre_announce(adv_state)

    transcript: Optional[list[TranscriptRecord]] = [] if record else None
    pending: dict[int, dict[int, bytes]] = {}
    adv_pending: dict[tuple[int, int], bytes] = {}
    honest_ids = [i for i in range(n) if i not in corrupted]

    r = 0
    rounds_executed = 0
    # with probe_halted we run one round past the last halt so post-halt
    # sends and outcome drift have a chance to show up
    probe_rounds_left = 1 if probe_halted else 0
    running = [i for i in honest_ids if outcomes[i] is None]
    while True:
        if not running:
            if probe_rounds_left <= 0:
                break
            probe_rounds_left -= 1
        r += 1
        flush = r > max_rounds
        sends = step_parties(spec.programs, states, honest_ids if probe_halted else running,
                             r, pending)
        if probe_halted:
            # contract probe only: nothing a halted party does is delivered
            noisy = {src for src, _, _ in sends if outcomes[src] is not None}
            sends = [send for send in sends if outcomes[send[0]] is None]
            for i in honest_ids:
                if outcomes[i] is None:
                    continue
                if i in noisy:
                    probe_violations.append(f"party {i} active after halt (round {r})")
                if spec.programs[i].finished(states[i]) != outcomes[i]:
                    probe_violations.append(f"party {i} outcome drift after halt (round {r})")
        for src, dst, payload in sends:
            _route_check(n, src, dst, payload)

        for i in running:
            fin = spec.programs[i].finished(states[i])
            if fin is not None:
                outcomes[i] = fin
                halt_rounds[i] = min(r, max_rounds)
        running = [i for i in running if outcomes[i] is None]

        # the adversary's round-r sends reach honest parties in round r+1:
        # with none left running, or in the flush round, nobody reads them
        if adversary is not None and running and not flush:
            adv_state, outbound = adversary.step(adv_state, r, adv_pending)
            for (src, dst), payload in outbound.items():
                if src not in corrupted:
                    raise TopologyViolation(f"adversary sent from honest party {src}")
                _route_check(n, src, dst, payload)
                sends.append((src, dst, payload))

        if strict_q is not None and r >= strict_q + 1 and running:
            raise SpecViolation(
                f"{spec.name}: parties {running} unfinished at declared round bound {strict_q}"
            )

        if flush:
            break
        rounds_executed = r

        if transcript is not None:
            transcript.extend((r, src, dst, payload) for src, dst, payload in sends)
        # inboxes of corrupted parties are never stepped; the adversary gets them by edge
        pending = deliver(sends)
        adv_pending = {(src, dst): payload for src, dst, payload in sends if dst in corrupted}

    for i in running:
        outcomes[i] = RUNNING

    return ExecutionResult(
        n=n,
        corrupted=corrupted,
        outcomes=outcomes,
        halt_rounds=halt_rounds,
        rounds=rounds_executed,
        transcript=transcript,
        pre_announced=pre_announced,
        probe_violations=probe_violations,
    )


def run_honest(spec: ProtocolSpec, joint: JointInput, seed: int, *,
               max_rounds: Optional[int] = None, record: bool = False,
               probe_halted: bool = False) -> ExecutionResult:
    """All-honest lockstep run from a JointInput and a master seed.

    Without `max_rounds` a strict spec must finish within its declared bound
    (else `SpecViolation`); with it, the run is cut off there instead and
    unfinished parties are reported RUNNING.
    """
    joint.validate(spec)
    return _execute(spec, joint, seed, max_rounds=max_rounds, record=record,
                    probe_halted=probe_halted)


def run_with_adversary(spec: ProtocolSpec, adversary: AdversaryStrategy,
                       joint: JointInput, seed: int, *,
                       record: bool = False) -> ExecutionResult:
    """Run with the adversary substituted for its corrupted parties.

    The adversary never observes honest-to-honest traffic; its view is the
    inbound bundles passed to step, which cover exactly the messages addressed
    to corrupted parties.
    """
    return _execute(spec, joint, seed, adversary=adversary, record=record)


def check_consistency(result: ExecutionResult) -> bool:
    """True iff all honest outcomes are equal (BOT counts as a value); with
    no honest party that holds vacuously.

    Raises if any honest party is still RUNNING: consistency of a cut-off
    execution is undefined.
    """
    outs = result.honest_outcomes()
    if any(o is RUNNING for o in outs):
        raise ValueError("consistency undefined: honest party still RUNNING")
    return all(o == outs[0] for o in outs[1:])


@dataclass
class AdversaryEstimate:
    adversary: str
    trials: int
    failures: int
    delta_hat: float
    ci: tuple[float, float]


@dataclass
class ConsistencyReport:
    protocol: str
    trials_per_adversary: int
    per_adversary: list[AdversaryEstimate]
    pooled_trials: int
    pooled_failures: int
    delta_hat: float
    delta_ci: tuple[float, float]


def trial_chunks(total: int, jobs: int) -> list[tuple[int, int]]:
    """Split trials 0..total into contiguous [lo, hi) chunks, in order, about
    CHUNKS_PER_WORKER per worker so an uneven chunk does not idle the rest."""
    size = max(1, math.ceil(total / max(1, jobs * CHUNKS_PER_WORKER)))
    return [(lo, min(lo + size, total)) for lo in range(0, total, size)]


# (worker count, executor) of this process's pool, or None before the first
# parallel map and after shutdown_pool
_pool: Optional[tuple[int, ProcessPoolExecutor]] = None


def shutdown_pool() -> None:
    """Stop the pool's workers, if it has any; the next parallel map starts
    a fresh pool."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown()


atexit.register(shutdown_pool)


def pmap(fn: Callable, tasks: list, jobs: int) -> list:
    """`[fn(t) for t in tasks]`, on min(jobs, len(tasks)) pool workers when
    that is more than one. `fn` and the tasks must pickle; results come back
    in task order, and an error raised by `fn` is raised here.

    The pool starts on the first parallel map and is reused by every later
    one at the same worker count. Its workers are forked (the platform
    default on Linux) when it starts, so a module patch made after that is
    not seen by them: a test that patches a module must run at --jobs 1, or
    start the pool after patching. Forking is safe because ringbreak starts
    no thread of its own before the pool. Spawned workers would each import
    ringbreak afresh (about 0.35 s on a 2-core host), which is more than a
    short CLI run's loops save.
    """
    global _pool
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    if _pool is None or _pool[0] != workers:
        shutdown_pool()
        _pool = (workers, ProcessPoolExecutor(max_workers=workers))
    try:
        return list(_pool[1].map(fn, tasks))
    except BrokenProcessPool:
        _pool = None  # a worker died; the next map starts a fresh pool
        raise


def _tally_chunk(task: tuple) -> Counter:
    """`tally`'s count over one [lo, hi) range of trials."""
    trial, ctx, lo, hi = task
    counts: Counter = Counter()
    for i in range(lo, hi):
        counts.update(trial(ctx, i))
    return counts


def tally(trial: Callable, ctx: Any, total: int, jobs: int) -> Counter:
    """How often each key comes back from `trial(ctx, i)` over i in
    range(total); a trial returns its keys (none, one or several).

    The trials run in `trial_chunks` through `pmap`, so `trial` must be a
    module-level function and `ctx` must pickle; the count does not depend
    on `jobs`.
    """
    tasks = [(trial, ctx, lo, hi) for lo, hi in trial_chunks(total, jobs)]
    return sum(pmap(_tally_chunk, tasks, jobs), Counter())


def _consistency_trial(ctx: tuple, k: int) -> tuple:
    """(adversary index,) when trial k of the flattened (adversary, trial)
    index ends inconsistent, else ()."""
    spec, family, trials, seed = ctx
    a_idx, t = divmod(k, trials)
    tseed = derive_seed(seed, "consistency", a_idx, t)
    joint = JointInput.sample(spec, tseed)
    res = run_with_adversary(spec, family[a_idx], joint, tseed)
    return () if check_consistency(res) else (a_idx,)


def estimate_consistency(spec: ProtocolSpec, adversary_family: Sequence[AdversaryStrategy],
                         trials: int, seed: int, *, jobs: int = 1) -> ConsistencyReport:
    """Monte-Carlo estimate of the inconsistency rate delta against a family.

    Honest inputs are drawn uniformly from the declared domains and every
    trial gets an independently derived seed, so the whole report is a pure
    function of (spec, family, trials, seed), whatever `jobs` is.
    """
    if trials < 100:
        raise ConfigError("need at least 100 trials for a meaningful estimate")
    pooled_total = len(adversary_family) * trials
    failures = tally(_consistency_trial, (spec, adversary_family, trials, seed),
                     pooled_total, jobs)
    per = [AdversaryEstimate(adv.describe(), trials, failures[a_idx],
                             failures[a_idx] / trials, wilson_interval(failures[a_idx], trials))
           for a_idx, adv in enumerate(adversary_family)]
    pooled_fail = failures.total()
    return ConsistencyReport(
        protocol=spec.name,
        trials_per_adversary=trials,
        per_adversary=per,
        pooled_trials=pooled_total,
        pooled_failures=pooled_fail,
        delta_hat=pooled_fail / pooled_total,
        delta_ci=wilson_interval(pooled_fail, pooled_total),
    )


def result_fingerprint(result: ExecutionResult) -> str:
    """Order-stable hash of outcomes plus transcript; replay equality check."""
    h = hashlib.sha256()
    for i, out in enumerate(result.outcomes):
        h.update(b"|%d=" % i + outcome_repr(out).encode())
    if result.transcript is not None:
        for rec in result.transcript:
            h.update(b"#%d:%d>%d:" % rec[:3] + rec[3])
    return h.hexdigest()


@dataclass
class ValidationReport:
    """Outcome of validate_spec: contract violations found over sampled runs."""

    spec_name: str
    trials: int
    violations: list[str] = field(default_factory=list)
    transcript_hash: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_spec(spec: ProtocolSpec, trials: int, seed: int) -> ValidationReport:
    """Probe a protocol against its declared contract.

    Checks, over `trials` honest runs with sampled inputs: the strict round
    bound (every party finished once round q's messages are consumed), halt
    absorption (no post-halt sends, no outcome drift), and replay determinism
    (same seed twice gives identical transcript and outcomes).
    """
    if trials < 1:
        raise ConfigError("validate needs at least one trial")
    report = ValidationReport(spec.name, trials)
    first_hash = None
    for trial in range(trials):
        tseed = derive_seed(seed, "validate", trial)
        joint = JointInput.sample(spec, tseed)
        # strict specs get 2 rounds of headroom past the declared bound so the
        # post-halt probe actually runs; laggards are caught via halt_rounds
        cap = (spec.q + 2) if spec.round_bound.strict else 64 * spec.q
        try:
            res = run_honest(
                spec, joint, tseed,
                max_rounds=cap,
                record=True, probe_halted=True,
            )
        except SpecViolation as e:
            report.violations.append(f"trial {trial}: {e}")
            continue
        report.violations.extend(f"trial {trial}: {v}" for v in res.probe_violations)
        if spec.round_bound.strict:
            for i, out in enumerate(res.outcomes):
                # round q's messages are consumed by step call q+1
                if out is RUNNING or res.halt_rounds[i] > spec.q + 1:
                    report.violations.append(
                        f"trial {trial}: party {i} unfinished at declared round bound {spec.q}"
                    )
        if trial == 0:
            h1 = result_fingerprint(res)
            res2 = run_honest(
                spec, joint, tseed,
                max_rounds=cap,
                record=True, probe_halted=True,
            )
            h2 = result_fingerprint(res2)
            if h1 != h2:
                report.violations.append("trial 0: nondeterministic replay (transcript mismatch)")
            first_hash = h1
    report.transcript_hash = first_hash or ""
    return report
