"""Ring composition of a 3-party protocol, and the attacks built on it.

A ring run chains m copies of the roles A,B,C of a 3-party protocol around a
cycle of 3m slots (A1 B1 C1 A2 ... Cm). Each slot runs its role's unmodified
program, and a slot's two neighbours hold exactly the two other roles, so
locally every slot sees a perfectly ordinary 3-party execution: the program
addresses a neighbour by its role, and `RingNetwork.neighbours` turns that
local id into the neighbour's slot. Information travels one hop per round,
so any slot's view over r rounds is determined by the slots within distance r.
The simulator (`VirtualRing`) runs on that rule: it is told which slots are
observed, lets a slot at distance d from them run d steps behind, and never
runs a step that cannot reach an observed slot before the run ends. The one
bridge below (`RingBridge`) drops real honest parties into adjacent slots and
simulates the remaining ring, observing the slots next to the real parties.
The full-ring run that steps every slot (`emulate_ring`) is the tests'
reference for this simulator and lives in tests/support.py.
The consistency probe and the attack are that bridge over two rings: the
probe bridges into a freshly sampled ring, the attack into the offline phase-1
ring, whose far slot P* (the one slot phase 1 observes) has its output
announced before the first message is sent.

The n-party reduction partitions the parties into three groups and fuses each
group into one super-party, turning any n-party protocol into a 3-party one
with the same round structure. At n = 3 every group is one party, so a
3-party protocol is attacked as it is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Collection, Optional, Sequence

from .core import (
    INPUT_STRIDE,
    RUNNING,
    CoinStream,
    ConfigError,
    FusedInput,
    JointEntry,
    JointInput,
    PartyProgram,
    ProtocolSpec,
    SpecViolation,
    coalition_size,
    derive_seed,
)
from .netsim import (
    AdversaryContext,
    AdversaryStrategy,
    Send,
    _route_check,
    deliver,
    step_parties,
)


def ring_distance(size: int, u: int, v: int) -> int:
    """Minimal number of ring edges between two slots."""
    d = abs(u - v) % size
    return min(d, size - d)


@dataclass(frozen=True)
class RingNetwork:
    """m chained copies of a 3-party protocol on a 3m-cycle."""

    spec3: ProtocolSpec
    m: int

    def __post_init__(self):
        if self.spec3.n != 3:
            raise ConfigError("ring composition needs a 3-party protocol")
        if self.m < 2:
            raise ConfigError("need at least m=2 copies")

    @property
    def size(self) -> int:
        return 3 * self.m

    @cached_property
    def slot_programs(self) -> tuple[PartyProgram, ...]:
        """Each slot's role program, as it is: slot s runs role s % 3."""
        return tuple(self.spec3.programs[s % 3] for s in range(self.size))

    @cached_property
    def neighbours(self) -> tuple[dict[int, int], ...]:
        """Per slot, each local id its role program sends to (the role of a
        neighbour) -> that neighbour's slot. The ring's one id translation."""
        size = self.size
        return tuple({(s - 1) % 3: (s - 1) % size, (s + 1) % 3: (s + 1) % size}
                     for s in range(size))

    @cached_property
    def zeros_w(self) -> JointInput:
        """The all-zero ring input, built once per ring."""
        return JointInput(tuple(
            JointEntry(self.spec3.domains[s % 3].zero(), b"ring/%d" % s)
            for s in range(self.size)
        ))


class SampledRingInput:
    """A sampled ring input drawn slot by slot: w[s] reads its input at
    offset INPUT_STRIDE*s of one coin stream, so a slot that is never read
    is never drawn, and every slot that is gets the same bytes as an eager
    draw of the whole ring (`sample_w` in tests/support.py)."""

    def __init__(self, ring: RingNetwork, seed: int, label_prefix: bytes):
        self.domains = ring.spec3.domains
        self.src = CoinStream(seed, b"ring-input-sample")
        self.label_prefix = label_prefix

    def __getitem__(self, s: int) -> JointEntry:
        return JointEntry(self.domains[s % 3].sample(self.src, offset=INPUT_STRIDE * s),
                          self.label_prefix + b"/%d" % s)


@lru_cache(maxsize=64)
def _ring_network(spec3: ProtocolSpec, m: int) -> RingNetwork:
    """The ring of m copies of spec3, built once per (spec3, m), so repeated
    phase-1 runs and probes share its slot programs and zero input."""
    return RingNetwork(spec3, m)


@lru_cache(maxsize=128)
def attack_geometry(q: int, variant: str) -> tuple[int, int, int]:
    """Phase-1 ring for a round budget q: copies m, far slot P* and P*'s
    distance from the honest window 0..3.

    P* is the lowest slot farthest from the window: the middle of the arc
    from slot 3 round to slot 0, which is 3m - 3 edges long. Influence
    travels one hop per round, so P* must sit more than q hops (strict) or
    m hops (expected, where the cap is m) from every slot a real honest
    party might occupy. m is the smallest even number of copies that does
    so and is at least the round cap phase 1 needs, q (strict) or 2q
    (expected); at m >= 6 P* is already more than m hops away.
    """
    if q < 1:
        raise ConfigError(f"round bound must be >= 1, got {q}")
    if variant == "strict":
        m = max(4, q + (q % 2))
        while (3 * m - 3) // 2 <= q:
            m += 2
    elif variant == "expected":
        m = max(6, 2 * q)
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    return m, (3 * m + 3) // 2, (3 * m - 3) // 2


@dataclass
class AttackPhase1Result:
    """Outcome of the offline ring run(s) that pre-commit the forced value."""

    m: int
    pstar: int
    pstar_distance: int
    y_star: Optional[bytes]
    w: JointInput
    seed: int                 # execution seed of the selected iteration
    iterations_used: int
    aborted: bool
    pstar_halt_round: Optional[int]
    ring: RingNetwork = field(repr=False)


def run_honest(ring: RingNetwork, w: JointInput, seed: int, rounds_cap: int,
               slot: int) -> tuple[object, Optional[int]]:
    """One slot's outcome and halt round in the honest ring run cut off after
    rounds_cap rounds, computed from that slot's light cone alone.

    Matches the full-ring reference run (`emulate_ring` in tests/support.py,
    which steps every slot) at the slot: steps
    1..rounds_cap+1 run, the last being the flush step whose sends are
    dropped; a halt at step r is recorded as min(r, rounds_cap), a halt at
    init as 0, and no halt as (RUNNING, None).
    """
    vring = VirtualRing(ring, w, seed, {}, _light_cone(ring.size, (), (slot,)))
    for r in range(rounds_cap + 2):
        if r:
            vring.step(r, ())
        y = vring.outcome(slot)
        if y is not None:
            return y, min(r, rounds_cap)
    return RUNNING, None


def _phase1(spec3: ProtocolSpec, variant: str, q: int, z: int, seed: int) -> AttackPhase1Result:
    """Up to z offline ring runs on fixed w, each with fresh coins and cut off
    after m rounds; the first in which P* halts fixes y*."""
    m, pstar, dist = attack_geometry(q, variant)
    ring = _ring_network(spec3, m)
    w = ring.zeros_w
    for it in range(1, z + 1):
        exec_seed = derive_seed(seed, "phase1", it)
        y, halt_round = run_honest(ring, w, exec_seed, m, pstar)
        if y is not RUNNING:
            break
    return AttackPhase1Result(
        m=m, pstar=pstar, pstar_distance=dist,
        y_star=None if y is RUNNING else y, w=w, seed=exec_seed, iterations_used=it,
        aborted=y is RUNNING, pstar_halt_round=halt_round, ring=ring,
    )


def phase1_strict(spec3: ProtocolSpec, seed: int) -> AttackPhase1Result:
    """One offline ring emulation on fixed w; P*'s output becomes y*."""
    phase1 = _phase1(spec3, "strict", spec3.q, 1, seed)
    if phase1.aborted:
        raise SpecViolation("phase 1: far slot still RUNNING at the strict bound")
    return phase1


def require_strict(spec: ProtocolSpec) -> None:
    """Refuse a strict attack on a protocol without a strict round bound."""
    if not spec.round_bound.strict:
        raise ConfigError("strict attack needs a strict-round protocol")


def require_iterations(z: int) -> None:
    """Refuse an expected-variant phase 1 of fewer than one iteration."""
    if z < 1:
        raise ConfigError("need z >= 1 iterations")


def phase1_expected(spec3: ProtocolSpec, q_expected: int, z: int, seed: int) -> AttackPhase1Result:
    """Repeat the offline ring run until P* halts within m rounds.

    Each iteration uses fresh coins; at most z iterations are attempted. An
    iteration where P* has not halted by round m is discarded, so by Markov
    each iteration succeeds with probability at least 1/2 for a protocol with
    expected round complexity q_expected, and Pr[abort] <= 2^-z.
    """
    require_iterations(z)
    return _phase1(spec3, "expected", q_expected, z, seed)


def honest_slots(corrupted: frozenset[int], copy: int = 1) -> dict[int, int]:
    """Which ring slot each real honest party occupies: adjacent slots of
    copy `copy` whose roles match the parties' own, starting at the honest
    role whose predecessor role is corrupted."""
    if not frozenset() < corrupted < frozenset(range(3)):
        raise ConfigError(f"corrupted set {sorted(corrupted)} not a proper subset of 3 parties")
    start = min(h for h in range(3) if h not in corrupted and (h - 1) % 3 in corrupted)
    return {(start + i) % 3: 3 * (copy - 1) + start + i for i in range(3 - len(corrupted))}


# a VirtualRing's light cone: its slots by lag, and per lag the out-of-order slots
LightCone = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


@lru_cache(maxsize=256)
def _lag_layers(size: int, external: tuple[int, ...], observed: tuple[int, ...]) -> LightCone:
    """The simulated slots by lag, their ring distance to the nearest observed
    slot, each layer in ascending slot order; and per layer, the slots whose
    lower-numbered neighbour lags more than the higher-numbered one, so that
    their two simulated senders' messages arrive out of slot order."""
    lag = {s: min(ring_distance(size, s, o) for o in observed)
           for s in range(size) if s not in external}
    layers = tuple(tuple(s for s in range(size) if lag.get(s) == d)
                   for d in range(max(lag.values()) + 1))

    def out_of_order(s: int) -> bool:
        lo, hi = sorted(((s - 1) % size, (s + 1) % size))
        return lo in lag and hi in lag and lag[lo] > lag[hi]

    return layers, tuple(tuple(filter(out_of_order, layer)) for layer in layers)


def _light_cone(size: int, external: Sequence[int],
                observed: Optional[Sequence[int]] = None) -> LightCone:
    """The lag layers of the slots not in `external`, observed from
    `observed`, by default the simulated neighbours of the external slots."""
    if observed is None:
        observed = {(e + d) % size for e in external for d in (-1, 1)} - set(external)
    return _lag_layers(size, tuple(sorted(external)), tuple(sorted(observed)))


class VirtualRing:
    """Adversary-internal emulation of the ring minus the real parties'
    slots, run only as far as the observed slots can see.

    `external` holds the real parties' slots; the party on slot s is s % 3.
    Messages from the real parties are fed in as sends from those slots, and
    the sends the simulated slots address to them are returned for the
    adversary to deliver over real channels. `w` and `seed` give every
    slot's input and coins (the external slots' entries are not read; the
    slots of a coin-free protocol all get its `no_coins`). `cone` is the
    `_light_cone` of the external slots; by default the observed slots are
    their simulated neighbours.

    Every slot runs its role program as it is, in the program's own ids: an
    inbox is keyed by each sender's role (src % 3), which is the receiver's
    local id for that neighbour, and each send's local id goes through
    `RingNetwork.neighbours` to the receiving slot. A local id that names no
    neighbour (or is not a plain int) is refused.

    Lag rule: a slot at ring distance d from the nearest observed slot runs d
    steps behind them, so in real round r it takes its step r - d. Each real
    round steps the lag groups farthest first through `step_parties`, so a
    message reaches its receiver's step exactly when it would in the full
    ring, and each inbox holds what the full ring gives it in the same order:
    simulated senders in ascending slot order, then the fed real sends. Steps
    a slot would take after r - d cannot reach an observed slot by round r,
    and are not run. A slot's program starts on its first step. Every
    computed send is route-checked on slot ids; a send in a step that is not
    computed is never checked, so a protocol that breaks the route or size
    rules only outside the light cone runs on where the full ring would raise.
    """

    def __init__(self, ring: RingNetwork, w: JointInput | SampledRingInput, seed: int,
                 external: Collection[int], cone: Optional[LightCone] = None):
        self.w = w
        self.seed = seed
        self.external = external
        self.layers, self.out_of_order = _light_cone(ring.size, external) if cone is None else cone
        self.programs = ring.slot_programs  # one per slot, indexed by slot
        self.neighbours = ring.neighbours
        self.no_coins = ring.spec3.no_coins
        self.states: dict[int, object] = {}
        self.live: list[list[int]] = [[] for _ in self.layers]  # per lag, unhalted slots
        # step -> receiver slot -> inbox keyed by sender role
        self.inboxes: dict[int, dict[int, dict[int, bytes]]] = {}
        self._start(0)

    def _start(self, lag: int) -> None:
        w, seed, programs, states = self.w, self.seed, self.programs, self.states
        live, no_coins = self.live[lag], self.no_coins
        for s in self.layers[lag]:
            entry = w[s]
            prog = programs[s]
            state = states[s] = prog.init(entry.input, no_coins or entry.coins(seed))
            if prog.finished(state) is None:
                live.append(s)

    def outcome(self, slot: int):
        """Outcome of a started slot, None while it runs."""
        return self.programs[slot].finished(self.states[slot])

    def step(self, round_no: int, fed: Sequence[Send]) -> list[Send]:
        programs, states, inboxes, live_by_lag = self.programs, self.states, self.inboxes, self.live
        neighbours, external, last = self.neighbours, self.external, len(self.layers) - 1
        size = len(programs)
        boundary: list[Send] = []
        for lag in range(min(round_no - 1, last), -1, -1):
            k = round_no - lag
            if k == 1 and lag:
                self._start(lag)
            # this layer's slots read step k's inboxes now; the last layer
            # is the last to read them
            boxes = inboxes.pop(k, None) if lag == last else inboxes.get(k)
            live = live_by_lag[lag]
            if not live:
                continue
            if boxes is None:
                boxes = {}
            for s in self.out_of_order[lag]:
                box = boxes.get(s)
                if box is not None and len(box) > 1:
                    slot_of = neighbours[s]
                    boxes[s] = dict(sorted(box.items(), key=lambda item: slot_of[item[0]]))
            if lag == 0:
                for src, dst, payload in fed:
                    boxes.setdefault(dst, {})[src % 3] = payload
            sends = step_parties(programs, states, live, k, boxes)
            nxt = inboxes.setdefault(k + 1, {}) if sends else None
            for src, local, payload in sends:
                dst = neighbours[src].get(local) if type(local) is int else None
                if dst is None:
                    raise SpecViolation(f"slot {src} sent to unmapped local id {local}")
                _route_check(size, src, dst, payload)
                if dst in external:
                    boundary.append((src, dst, payload))
                else:
                    nxt.setdefault(dst, {})[src % 3] = payload
            still_running = []
            for s in live:
                if programs[s].finished(states[s]) is None:
                    still_running.append(s)
            live_by_lag[lag] = still_running
        return boundary


class RingBridge(AdversaryStrategy):
    """Real honest parties in adjacent slots of a ring the adversary simulates.

    `slots` maps each honest party to its slot, which holds the party's own
    role; the other roles are corrupted. The remaining slots run in a
    VirtualRing stepped in each real round the engine steps the adversary in
    (none after the honest parties' last step or past the engine's round
    cap), and each honest party's channel to a corrupted role bridges to its
    neighbouring virtual slot of that role. Subclasses choose the ring input
    and seed.
    """

    def __init__(self, ring: RingNetwork, slots: dict[int, int]):
        if any(slot % 3 != h for h, slot in slots.items()):
            raise ConfigError("honest window mapping broke role alignment")
        self.ring = ring
        self.corrupted = frozenset(range(3)) - frozenset(slots)
        self.external = frozenset(slots.values())
        # real edge (honest party, corrupted role) -> (its slot, virtual slot)
        self.bridge = {(h, c): (slot, ring.neighbours[slot][c])
                       for h, slot in slots.items() for c in self.corrupted}
        self.cone = _light_cone(ring.size, self.external)

    def ring_input(self, ctx: AdversaryContext) -> tuple[JointInput | SampledRingInput, int]:
        """Ring input w and execution seed of the simulated slots."""
        raise NotImplementedError

    def init(self, ctx: AdversaryContext):
        w, seed = self.ring_input(ctx)
        return VirtualRing(self.ring, w, seed, self.external, self.cone)

    def step(self, vring: VirtualRing, round_no: int, inbound):
        # traffic between corrupted parties has no bridge; nothing to simulate
        bridge = self.bridge
        fed = []
        for edge, payload in inbound.items():
            if edge in bridge:
                real_slot, vslot = bridge[edge]
                fed.append((real_slot, vslot, payload))
        outbound = {}
        for vslot, ext_slot, payload in vring.step(round_no, fed):
            outbound[(vslot % 3, ext_slot % 3)] = payload
        return vring, outbound


class NeighborEmbeddingAdversary(RingBridge):
    """Drops the two honest parties into slots (A_j, B_j) of a simulated ring.

    Corrupts party 2 and plays, toward each honest party, the neighboring
    virtual slot of a ring whose other 3m-2 slots it simulates internally.
    The honest pair's joint view is then exactly the view of two adjacent
    ring slots, which is what makes this family the right consistency probe.
    """

    def __init__(self, spec3: ProtocolSpec, m: int, j: int):
        if not 1 <= j <= m:
            raise ConfigError("copy index j out of range")
        self.j = j
        super().__init__(_ring_network(spec3, m), honest_slots(frozenset({2}), j))

    def describe(self) -> str:
        return f"embed[j={self.j},m={self.ring.m}]"

    def ring_input(self, ctx: AdversaryContext) -> tuple[SampledRingInput, int]:
        w = SampledRingInput(self.ring, derive_seed(ctx.seed, "embed-w", self.j), b"emb")
        return w, derive_seed(ctx.seed, "embed-run", self.j)


def embedding_family(spec3: ProtocolSpec, m: int) -> list[NeighborEmbeddingAdversary]:
    """The j-indexed family the consistency estimate runs against."""
    if m < 2:
        raise ConfigError(f"the embedding family needs m >= 2 copies, got m={m}")
    return [NeighborEmbeddingAdversary(spec3, m, j) for j in range(1, m + 1)]


class AttackAdversary(RingBridge):
    """Online phase of the ring attack: bridge the honest parties into the
    pre-committed ring and announce the far slot's output before round 1.

    The honest parties land on the window slots matching the corrupted set;
    every remaining slot replays its phase-1 program with the phase-1 coins,
    so the far slot P* is guaranteed to behave exactly as it did offline as
    long as honest influence cannot reach it in time (it sits farther than
    the round budget allows). It reads nothing from its context.
    """

    context_free = True

    def __init__(self, phase1: AttackPhase1Result, corrupted: frozenset[int]):
        if phase1.aborted:
            raise ConfigError("phase 1 aborted; no value to force")
        self.phase1 = phase1
        super().__init__(phase1.ring, honest_slots(corrupted))

    def describe(self) -> str:
        return f"ring-attack[corrupt={sorted(self.corrupted)},m={self.phase1.m}]"

    def ring_input(self, ctx: AdversaryContext) -> tuple[JointInput, int]:
        return self.phase1.w, self.phase1.seed

    def pre_announce(self, vring) -> Optional[bytes]:
        return self.phase1.y_star


def _bundle(triples: Sequence[tuple[int, int, bytes]]) -> bytes:
    """The sorted triples as the JSON text `[[src,dst,"hex"],...]`: the bytes
    of `json.dumps` with separators (",", ":"), written without an encoder.
    Hex order is byte order, so sorting the triples sorts the rows."""
    return b"[%s]" % b",".join([b'[%d,%d,"%s"]' % (s, d, p.hex().encode())
                                for s, d, p in sorted(triples)])


def _unbundle(data: bytes) -> list[tuple[int, int, bytes]]:
    return [(s, d, bytes.fromhex(h)) for s, d, h in json.loads(data.decode())]


@dataclass(frozen=True)
class Partition:
    """Three-way split of n parties: two benign groups and the corrupted set."""

    n: int
    groups: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    @property
    def corrupted(self) -> tuple[int, ...]:
        return self.groups[2]

    @property
    def group_of(self) -> dict[int, int]:
        """Member party -> index of its group."""
        return {p: g for g, grp in enumerate(self.groups) for p in grp}


def partition_to_three(n: int, t: int, corrupted: Sequence[int]) -> Partition:
    """Deterministic partition (B1, B2, I) used by the n-party reduction.

    I is the corrupted set, of exactly k = `coalition_size(n, t)` parties.
    B1 takes the smallest (n-k+1)//2 other indices and B2 the rest: |B1| =
    |B2| = t when t < n/2, and sizes (ceil((n-1)/2), floor((n-1)/2)) at
    t >= n/2, where k = 1.
    """
    k = coalition_size(n, t)
    corrupt = tuple(sorted(set(corrupted)))
    if any(i < 0 or i >= n for i in corrupt):
        raise ConfigError("corrupted indices out of range")
    if len(corrupt) != k:
        raise ConfigError(f"this regime needs exactly {k} corrupted parties, got {len(corrupt)}")
    rest = [i for i in range(n) if i not in corrupt]
    size1 = (n - k + 1) // 2
    return Partition(n=n, groups=(tuple(rest[:size1]), tuple(rest[size1:]), corrupt))


class FusedProgram(PartyProgram):
    """One super-party simulating a whole partition group in lockstep.

    Messages inside the group are buffered for the members' next round;
    messages between groups ride the three fused channels as sorted bundles
    of (original sender, original receiver, payload). The fused party halts
    when all members have halted and outputs the lowest-index member's
    Outcome, so round complexity is preserved exactly. Every member send is
    held to the engine's route and size rules on the n-party graph.
    """

    def __init__(self, spec: ProtocolSpec, partition: Partition, gid: int):
        self.spec = spec
        self.partition = partition
        self.gid = gid
        self.members = partition.groups[gid]
        self.group_of = partition.group_of

    def init(self, input_bytes, coins):
        states = []
        pos = 0
        for p in self.members:
            ln = self.spec.domains[p].length
            member_input = input_bytes[pos:pos + ln]
            pos += ln
            states.append((p, self.spec.programs[p].init(member_input, coins.sublabel(b"m%d" % p))))
        return (tuple(states), ())

    def step(self, state, round_no, inbox):
        programs = self.spec.programs
        member_states = dict(state[0])
        boxes = deliver(state[1])
        for packed in inbox.values():
            deliver(_unbundle(packed), boxes)
        live = [p for p in self.members if programs[p].finished(member_states[p]) is None]
        internal_next: list[Send] = []
        outward: dict[int, list[Send]] = {}
        for send in step_parties(programs, member_states, live, round_no, boxes):
            _route_check(self.spec.n, *send)
            g = self.group_of[send[1]]
            if g == self.gid:
                internal_next.append(send)
            else:
                outward.setdefault(g, []).append(send)
        sends = {g: _bundle(triples) for g, triples in outward.items()}
        return (tuple(member_states.items()), tuple(sorted(internal_next))), sends

    def finished(self, state):
        outs = []
        for p, st in state[0]:
            o = self.spec.programs[p].finished(st)
            if o is None:
                return None
            outs.append((p, o))
        return min(outs)[1]


def fuse_parties(spec: ProtocolSpec, partition: Partition) -> ProtocolSpec:
    """3-party protocol whose parties are the partition groups of `spec`."""
    if partition.n != spec.n:
        raise ConfigError("partition size does not match protocol")
    programs = tuple(FusedProgram(spec, partition, g) for g in range(3))
    domains = tuple(
        FusedInput(tuple(spec.domains[p] for p in partition.groups[g]))
        for g in range(3)
    )
    return ProtocolSpec(
        name=f"fused({spec.name};{partition.groups})",
        programs=programs,
        round_bound=spec.round_bound,
        domains=domains,
        coin_free=spec.coin_free,
    )


class UnfusedAttackAdversary(AdversaryStrategy):
    """n-party face of the fused 3-party ring attack.

    Bundles the real honest parties' traffic the way their fused super-party
    would, runs the 3-party attack adversary on the bundles, and unpacks its
    replies onto the real point-to-point edges. Like the inner attack, it
    reads nothing from its context.
    """

    context_free = True

    def __init__(self, spec: ProtocolSpec, partition: Partition, inner: AttackAdversary):
        self.spec = spec
        self.partition = partition
        self.inner = inner
        self.corrupted = frozenset(partition.corrupted)
        self.group_of = partition.group_of

    def describe(self) -> str:
        return f"nparty-attack[I={sorted(self.corrupted)}]"

    def init(self, ctx: AdversaryContext):
        return self.inner.init(ctx)

    def pre_announce(self, state) -> Optional[bytes]:
        return self.inner.pre_announce(state)

    def step(self, state, round_no, inbound):
        buckets: dict[int, list[tuple[int, int, bytes]]] = {}
        for (src, dst), payload in inbound.items():
            g = self.group_of[src]
            if g == 2:
                continue  # corrupted chatter to itself
            buckets.setdefault(g, []).append((src, dst, payload))
        fused_in = {(g, 2): _bundle(triples) for g, triples in buckets.items()}
        state, fused_out = self.inner.step(state, round_no, fused_in)
        out = {}
        for (fsrc, fdst), packed in fused_out.items():
            for src, dst, payload in _unbundle(packed):
                out[(src, dst)] = payload
        return state, out


@dataclass
class NPartyAttack:
    """Everything attack_n_party prepared: partition, the 3-party protocol
    phase 1 ran on (`spec` itself at n = 3), phase 1, adversary."""

    spec: ProtocolSpec
    partition: Partition
    fused_spec: ProtocolSpec
    phase1: AttackPhase1Result
    adversary: Optional[AdversaryStrategy]

    @property
    def y_star(self) -> Optional[bytes]:
        return self.phase1.y_star


@lru_cache(maxsize=64)
def three_party_form(spec: ProtocolSpec, partition: Partition) -> ProtocolSpec:
    """The 3-party protocol the ring attack breaks: `spec` itself when every
    group is a single party (n = 3), else the fused protocol of the groups.

    Built once per (spec, partition), so every trial of an n >= 4 attack runs
    phase 1 on the same fused spec and shares its ring (`_ring_network`)."""
    return spec if spec.n == 3 else fuse_parties(spec, partition)


def attack_n_party(spec: ProtocolSpec, t: int, corrupted: Sequence[int], seed: int, *,
                   variant: str = "strict", q_expected: Optional[int] = None,
                   z: int = 16) -> NPartyAttack:
    """Build the full n-party attack: partition, fuse (n >= 4), phase 1, bridge."""
    partition = partition_to_three(spec.n, t, corrupted)
    spec3 = three_party_form(spec, partition)
    if variant == "strict":
        require_strict(spec)
        phase1 = phase1_strict(spec3, seed)
    elif variant == "expected":
        if q_expected is None:
            q_expected = spec.q
        phase1 = phase1_expected(spec3, q_expected, z, seed)
        if phase1.aborted:
            return NPartyAttack(spec, partition, spec3, phase1, None)
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    if spec3 is spec:
        adversary = AttackAdversary(phase1, frozenset(partition.corrupted))
    else:
        adversary = UnfusedAttackAdversary(spec, partition,
                                           AttackAdversary(phase1, frozenset({2})))
    return NPartyAttack(spec, partition, spec3, phase1, adversary)
