"""Test oracles and fixtures that the library itself never uses.

The full-ring reference run that the light-cone simulator is checked
against, with its own relabeling of role programs onto ring slots; mutant
and coin-revealing programs, test adversaries, input helpers, and the checks
the planted-defect table reruns: the regime grid over classify and the
wrapper, and the attack verdict's fixed counts. Test modules import them as
`from support import ...`.
"""

from __future__ import annotations

from typing import Optional

import ringbreak.stats as stats
from ringbreak.compiler import wrap_dominated
from ringbreak.core import (
    ConfigError,
    JointEntry,
    JointInput,
    PartyProgram,
    ProtocolSpec,
    RawInput,
    RoundBound,
    SpecViolation,
    TopologyViolation,
    coalition_size,
    outcome_repr,
)
from ringbreak.dominance import FunctionTable, Token, classify, or_table
from ringbreak.netsim import (
    AdversaryContext,
    AdversaryStrategy,
    ExecutionResult,
    deliver,
    run_honest,
    step_parties,
)
from ringbreak.ring import RingNetwork, SampledRingInput
from ringbreak.zoo import INPUT_BYTES, _uniform

# Ring slots the real honest parties can occupy, over all corruption choices.
HONEST_WINDOW = (0, 1, 2, 3)


def zeros(spec: ProtocolSpec) -> JointInput:
    """All-zero inputs with the coin labels p/0, p/1, ..."""
    return JointInput(tuple(
        JointEntry(spec.domains[i].zero(), b"p/%d" % i)
        for i in range(spec.n)
    ))


def range_tokens(table: FunctionTable) -> list[Token]:
    """The table's distinct outputs, in code order."""
    return list(table._coded[0])


def sample_w(ring: RingNetwork, seed: int) -> JointInput:
    """Every slot's entry of `SampledRingInput(ring, seed, b"ring")`, drawn eagerly."""
    w = SampledRingInput(ring, seed, b"ring")
    return JointInput(tuple(w[s] for s in range(ring.size)))


class RelabeledSlot(PartyProgram):
    """A role program on ring slot `slot`, for the full-ring references.

    Translates between the program's local ids {0,1,2} and the slots of the
    two ring neighbours with tables of its own, so a relabeling fault in the
    simulator's `RingNetwork.neighbours` cannot hide in a comparison with
    these references. Refuses a message from any other slot and a send to a
    local id that names no neighbour (or is not a plain int).
    """

    def __init__(self, base: PartyProgram, slot: int, size: int):
        role = slot % 3
        self.base = base
        self.slot = slot
        self.to_local = {(slot - 1) % size: (role - 1) % 3, (slot + 1) % size: (role + 1) % 3}
        self.to_slot = {local: s for s, local in self.to_local.items()}
        self.init = base.init
        self.finished = base.finished

    def step(self, state, round_no, inbox):
        local = {}
        for src, payload in inbox.items():
            if src not in self.to_local:
                raise TopologyViolation(f"slot {self.slot} received from non-neighbor {src}")
            local[self.to_local[src]] = payload
        state, outbox = self.base.step(state, round_no, local)
        out = {}
        for dst, payload in outbox.items():
            if type(dst) is not int or dst not in self.to_slot:
                raise SpecViolation(f"slot {self.slot} sent to unmapped local id {dst}")
            out[self.to_slot[dst]] = payload
        return state, out


def slot_programs(ring: RingNetwork,
                  overrides: Optional[dict[int, PartyProgram]] = None) -> tuple[RelabeledSlot, ...]:
    """Every slot's role program relabeled onto its slot; `overrides` maps a
    slot to a role program (local ids, not slot ids) that replaces its own."""
    overrides = overrides or {}
    return tuple(RelabeledSlot(overrides.get(s, ring.spec3.programs[s % 3]), s, ring.size)
                 for s in range(ring.size))


def engine_spec(ring: RingNetwork,
                overrides: Optional[dict[int, PartyProgram]] = None) -> ProtocolSpec:
    """ProtocolSpec over all slots of the ring, each running `slot_programs`."""
    domains = tuple(ring.spec3.domains[s % 3] for s in range(ring.size))
    return ProtocolSpec(
        name=f"ring({ring.spec3.name},m={ring.m})",
        programs=slot_programs(ring, overrides),
        round_bound=ring.spec3.round_bound,
        domains=domains,
    )


def emulate_ring(ring: RingNetwork, w: JointInput, rounds_cap: int, seed: int, *,
                 record: bool = False,
                 overrides: Optional[dict[int, PartyProgram]] = None) -> ExecutionResult:
    """Honest lockstep run of the ring, cut off after rounds_cap rounds.

    Slots that have not produced an Outcome by the cap are reported RUNNING;
    passing the cap leaves the declared round bound unenforced, because rings
    are the attack surface, not the protocol under test. Each slot reaches
    only its two ring neighbours: the reference's own `RelabeledSlot` refuses
    any other edge.
    Every slot is stepped; this is the full-ring reference that the light
    cones `VirtualRing` runs are checked against.
    """
    return run_honest(engine_spec(ring, overrides), w, seed, max_rounds=rounds_cap,
                      record=record)


def node_view(result: ExecutionResult, node: int) -> bytes:
    """Canonical bytes of a node's local traffic (the transcript records
    incident to it) plus its outcome."""
    if result.transcript is None:
        raise ValueError("run was not recorded")
    lines = [b"%d|%d|%d|" % rec[:3] + rec[3].hex().encode()
             for rec in result.transcript if rec[1] == node or rec[2] == node]
    lines.append(b"out|" + outcome_repr(result.outcomes[node]).encode())
    return b"\n".join(lines)


class PassiveAdversary(AdversaryStrategy):
    """Corrupted parties follow the protocol exactly; adversary only watches."""

    def __init__(self, spec: ProtocolSpec, corrupted: frozenset[int]):
        self.spec = spec
        self.corrupted = frozenset(corrupted)

    def init(self, ctx: AdversaryContext):
        return {i: self.spec.programs[i].init(ctx.entries[i].input, ctx.entries[i].coins(ctx.seed))
                for i in sorted(self.corrupted)}

    def step(self, states, round_no, inbound):
        programs = self.spec.programs
        live = [i for i in states if programs[i].finished(states[i]) is None]
        inboxes = deliver((src, dst, payload) for (src, dst), payload in inbound.items())
        sends = step_parties(programs, states, live, round_no, inboxes)
        return states, {(src, dst): payload for src, dst, payload in sends}


class EquivocatorAdversary(AdversaryStrategy):
    """Round-1 equivocation: tells the lowest honest party 0 and the rest 1."""

    def __init__(self, corrupted_party: int, n: int):
        self.corrupted = frozenset([corrupted_party])
        self.n = n

    def step(self, state, round_no, inbound):
        if round_no != 1:
            return state, {}
        c = min(self.corrupted)
        honest = [i for i in range(self.n) if i != c]
        out = {}
        for rank, i in enumerate(sorted(honest)):
            out[(c, i)] = bytes([0 if rank == 0 else 1])
        return state, out


class ByteSpewerProgram(PartyProgram):
    """Chatter mutant for locality experiments: random bytes every round, never halts."""

    WIDTH = 24

    def __init__(self, n: int, me: int):
        self.n = n
        self.me = me

    def init(self, input_bytes, coins):
        return (coins, 0)

    def step(self, state, round_no, inbox):
        coins, k = state
        sends = {}
        for j in range(self.n):
            if j != self.me:
                sends[j] = coins.read(self.WIDTH * (k * self.n + j), self.WIDTH)
        return (coins, k + 1), sends

    def finished(self, state):
        return None


class CoinFlashProgram(PartyProgram):
    """Outputs its own first coin bit after one silent round (test vehicle)."""

    def __init__(self, n: int, me: int):
        self.n = n
        self.me = me

    def init(self, input_bytes, coins):
        return ("init", coins.bit(0))

    def step(self, state, round_no, inbox):
        if state[0] == "init":
            return ("done", state[1]), {}
        return state, {}

    def finished(self, state):
        return bytes([state[1]]) if state[0] == "done" else None


def make_coin_flash(n: int) -> ProtocolSpec:
    return _uniform("coin_flash", n, lambda i: CoinFlashProgram(n, i),
                    RoundBound("strict", 1), RawInput(INPUT_BYTES))


class OneSendProgram(PartyProgram):
    """Topology mutant: sends b"x" to `dst` in round 1, then halts with 0."""

    def __init__(self, dst: int):
        self.dst = dst

    def init(self, input_bytes, coins):
        return 0

    def step(self, state, round_no, inbox):
        return 1, {} if state else {self.dst: b"x"}

    def finished(self, state):
        return b"\x00" if state else None


def make_one_send(n: int, dst_of) -> ProtocolSpec:
    """n parties, party i sending once to dst_of(i)."""
    return _uniform("one_send", n, lambda i: OneSendProgram(dst_of(i)),
                    RoundBound("strict", 1), RawInput(INPUT_BYTES))


def tuned_halt_probability(calls: int) -> float:
    """p with Pr[halted after `calls` step calls] = 1/2 for the geometric halter.

    Careful with the off-by-one: a run capped at R rounds gives each party
    R+1 step calls (the last one is the terminal delivery call), so a cap-R
    experiment wants tuned_halt_probability(R + 1).
    """
    return 1.0 - 2.0 ** (-1.0 / calls)


def or_refusal(make):
    """make(), or the text of the ConfigError it raises."""
    try:
        return make()
    except ConfigError as e:
        return str(e)


def table_regime_disagreements(ns=range(3, 9)) -> list[str]:
    """Each (n, t), -1 <= t <= n, where `classify` or `wrap_dominated` on
    or_table(n) refuses otherwise than `coalition_size` or settles on another
    k. On top of the rule, the wrapper refuses t >= n/2."""
    out = []
    for n in ns:
        f = or_table(n)
        for t in range(-1, n + 1):
            want = or_refusal(lambda: coalition_size(n, t))
            got = or_refusal(lambda: classify(f, n, t).k)
            if got != want:
                out.append(f"classify n={n} t={t}: {got!r}, rule {want!r}")
            got = or_refusal(lambda: wrap_dominated(f, n, t).s)
            if isinstance(want, int) and 2 * t >= n:
                ok = isinstance(got, str)
            else:
                ok = got == want
            if not ok:
                out.append(f"wrap_dominated n={n} t={t}: {got!r}, rule {want!r}")
    return out


# (success, ran, m, delta_hat) -> (bound_holds, inconclusive)
ATTACK_VERDICTS = {
    (0, 400, 4, 0.0): (False, False),     # nothing forced on a consistent ring
    (380, 400, 4, 0.0): (False, False),   # 0.95 < bound 0.966
    (390, 400, 4, 0.0): (True, False),    # 0.975 >= bound 0.9745
    (400, 400, 4, 0.0): (True, False),
    (380, 400, 4, 0.01): (True, False),   # delta lowers the bound to 0.896
    (360, 400, 4, 0.01): (True, False),   # 0.9 >= 0.884; a halved penalty gives 0.919
    (0, 400, 4, 0.5): (True, True),       # bound < 0: holds vacuously
    (0, 0, 4, 0.0): (True, True),         # no run: bound 1 - 3 sigma = 0
}


def attack_verdict_disagreements() -> list[str]:
    """Counts in ATTACK_VERDICTS on which `stats.attack_verdict`, looked up
    at call time, gives another (bound_holds, inconclusive)."""
    out = []
    for args, want in ATTACK_VERDICTS.items():
        v = stats.attack_verdict(*args)
        if (v.bound_holds, v.inconclusive) != want:
            out.append(f"{args}: {(v.bound_holds, v.inconclusive)}, want {want}")
    return out
