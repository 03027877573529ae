"""Built-in protocol zoo.

Every entry is a complete-graph protocol whose parties address each other by
index. Bit-valued protocols carry their bit in the low bit of input byte 0;
outputs are single bytes. All entries satisfy the PartyProgram contract
(halt absorption, purity, declared round bounds) and are validated in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    BitInput,
    ConfigError,
    PartyProgram,
    ProtocolSpec,
    RawInput,
    RoundBound,
)

INPUT_BYTES = 8


def _bit(input_bytes: bytes) -> int:
    return input_bytes[0] & 1


class ConstProgram(PartyProgram):
    """Outputs the constant c after one round, sends nothing."""

    role_id = "const"

    def __init__(self, n: int, me: int, c: int):
        self.n = n
        self.me = me
        self.c = c & 0xFF

    def init(self, input_bytes, coins):
        return 0  # rounds seen

    def step(self, state, round_no, inbox):
        if state >= 1:
            return state, {}
        return 1, {}

    def finished(self, state):
        return bytes([self.c]) if state >= 1 else None


class ExchangeProgram(PartyProgram):
    """One full pairwise bit exchange; output = op over all n bits."""

    role_id = "exchange"

    def __init__(self, n: int, me: int, op: str):
        self.n = n
        self.me = me
        self.op = op  # "xor" | "or"

    def init(self, input_bytes, coins):
        return ("init", _bit(input_bytes))

    def step(self, state, round_no, inbox):
        phase, bit = state[0], state[1]
        if phase == "init":
            payload = bytes([bit])
            return ("sent", bit), {j: payload for j in range(self.n) if j != self.me}
        if phase == "sent":
            if self.op == "xor":
                out = bit
                for v in inbox.values():
                    out ^= v[0] & 1
            else:
                out = 1 if bit or any(v[0] & 1 for v in inbox.values()) else 0
            return ("done", bit, out), {}
        return state, {}

    def finished(self, state):
        return bytes([state[2]]) if state[0] == "done" else None


class FairCoinProgram(ExchangeProgram):
    """xor_exchange over fresh coin bits instead of inputs."""

    role_id = "coin"

    def init(self, input_bytes, coins):
        return ("init", coins.bit(0))


class EchoXorProgram(PartyProgram):
    """Bit exchange plus e echo-and-resolve rounds, output = XOR of beliefs.

    Each echo round every party re-broadcasts its current belief vector; the
    belief about party j flips only when every received echo of j disagrees
    with the value held so far, which damps single-channel equivocation.
    """

    role_id = "echo_xor"

    def __init__(self, n: int, me: int, echoes: int):
        if echoes < 1:
            raise ValueError("need at least one echo round")
        self.n = n
        self.me = me
        self.echoes = echoes

    def init(self, input_bytes, coins):
        # state: (calls_done, own bit, belief vector, output)
        return (0, _bit(input_bytes), None, None)

    def _broadcast(self, payload: bytes) -> dict[int, bytes]:
        return {j: payload for j in range(self.n) if j != self.me}

    def _resolved(self, beliefs: tuple, inbox: dict[int, bytes]) -> tuple:
        out = list(beliefs)
        for j in range(self.n):
            if j == self.me:
                continue
            claims = [p[j] & 1 for p in inbox.values() if len(p) == self.n]
            if claims and len(set(claims)) == 1 and claims[0] != out[j]:
                out[j] = claims[0]
        return tuple(out)

    def step(self, state, round_no, inbox):
        calls, bit, beliefs, out = state
        if out is not None:
            return state, {}
        if calls == 0:
            beliefs = [0] * self.n
            beliefs[self.me] = bit
            return (1, bit, tuple(beliefs), None), self._broadcast(bytes([bit]))
        if calls == 1:
            beliefs = list(beliefs)
            for src, payload in inbox.items():
                beliefs[src] = payload[0] & 1
            beliefs = tuple(beliefs)
            return (2, bit, beliefs, None), self._broadcast(bytes(beliefs))
        beliefs = self._resolved(beliefs, inbox)
        if calls <= self.echoes:
            return (calls + 1, bit, beliefs, None), self._broadcast(bytes(beliefs))
        val = 0
        for b in beliefs:
            val ^= b
        return (calls + 1, bit, beliefs, bytes([val])), {}

    def finished(self, state):
        return state[3]


class GeomHaltProgram(PartyProgram):
    """Halts each round independently with probability p; sends nothing."""

    role_id = "geom"

    def __init__(self, n: int, me: int, p: float):
        if not 0.0 < p <= 1.0:
            raise ValueError("halt probability must be in (0, 1]")
        self.n = n
        self.me = me
        self.p = p

    def init(self, input_bytes, coins):
        return ("run", coins, 0)

    def step(self, state, round_no, inbox):
        tag, coins, rounds = state
        if tag == "done":
            return state, {}
        if coins.uniform(8 * rounds) < self.p:
            return ("done", coins, rounds + 1), {}
        return ("run", coins, rounds + 1), {}

    def finished(self, state):
        return b"\x00" if state[0] == "done" else None


class ByteSpewerProgram(PartyProgram):
    """Chatter mutant for locality experiments: random bytes every round, never halts."""

    role_id = "spew"
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

    role_id = "coinflash"

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


@dataclass(frozen=True)
class ZooEntry:
    """Catalog row: how to build a ProtocolSpec for one named protocol."""

    name: str
    summary: str
    arity: str  # parameter hint for the CLI
    build: Callable[..., ProtocolSpec]


def tuned_halt_probability(calls: int) -> float:
    """p with Pr[halted after `calls` step calls] = 1/2 for the geometric halter.

    Careful with the off-by-one: a run capped at R rounds gives each party
    R+1 step calls (the last one is the terminal delivery call), so a cap-R
    experiment wants tuned_halt_probability(R + 1).
    """
    return 1.0 - 2.0 ** (-1.0 / calls)


def make_const(n: int, c: int) -> ProtocolSpec:
    return ProtocolSpec(
        name=f"const:{c}",
        programs=tuple(ConstProgram(n, i, c) for i in range(n)),
        round_bound=RoundBound("strict", 1),
        domains=tuple(RawInput(INPUT_BYTES) for _ in range(n)),
    )


def make_xor_exchange(n: int) -> ProtocolSpec:
    return ProtocolSpec(
        name="xor_exchange",
        programs=tuple(ExchangeProgram(n, i, "xor") for i in range(n)),
        round_bound=RoundBound("strict", 1),
        domains=tuple(BitInput(INPUT_BYTES) for _ in range(n)),
    )


def make_or_exchange(n: int) -> ProtocolSpec:
    return ProtocolSpec(
        name="or_exchange",
        programs=tuple(ExchangeProgram(n, i, "or") for i in range(n)),
        round_bound=RoundBound("strict", 1),
        domains=tuple(BitInput(INPUT_BYTES) for _ in range(n)),
    )


def make_echo_xor(n: int, echoes: int) -> ProtocolSpec:
    return ProtocolSpec(
        name=f"echo_xor:{echoes}",
        programs=tuple(EchoXorProgram(n, i, echoes) for i in range(n)),
        round_bound=RoundBound("strict", echoes + 1),
        domains=tuple(BitInput(INPUT_BYTES) for _ in range(n)),
    )


def make_fair_coin(n: int) -> ProtocolSpec:
    return ProtocolSpec(
        name="fair_coin",
        programs=tuple(FairCoinProgram(n, i, "xor") for i in range(n)),
        round_bound=RoundBound("strict", 1),
        domains=tuple(RawInput(INPUT_BYTES) for _ in range(n)),
    )


def make_geom_halt(n: int, p: float) -> ProtocolSpec:
    if not 0.0 < p <= 1.0:
        raise ValueError("halt probability must be in (0, 1]")
    expected_q = max(1, math.ceil(1.0 / p))
    return ProtocolSpec(
        name=f"geom_halt:{p:g}",
        programs=tuple(GeomHaltProgram(n, i, p) for i in range(n)),
        round_bound=RoundBound("expected", expected_q),
        domains=tuple(RawInput(INPUT_BYTES) for _ in range(n)),
    )


def make_coin_flash(n: int) -> ProtocolSpec:
    return ProtocolSpec(
        name="coin_flash",
        programs=tuple(CoinFlashProgram(n, i) for i in range(n)),
        round_bound=RoundBound("strict", 1),
        domains=tuple(RawInput(INPUT_BYTES) for _ in range(n)),
    )


ZOO: dict[str, ZooEntry] = {
    "const": ZooEntry("const", "everyone outputs the constant c", "const:<c>", make_const),
    "xor_exchange": ZooEntry("xor_exchange", "1-round pairwise bit exchange, output XOR", "xor_exchange", make_xor_exchange),
    "or_exchange": ZooEntry("or_exchange", "1-round pairwise bit exchange, output OR", "or_exchange", make_or_exchange),
    "echo_xor": ZooEntry("echo_xor", "bit exchange plus e echo-and-resolve rounds", "echo_xor:<e>", make_echo_xor),
    "fair_coin": ZooEntry("fair_coin", "fresh coin bit per party, output XOR", "fair_coin", make_fair_coin),
    "geom_halt": ZooEntry("geom_halt", "halts each round with probability p", "geom_halt:<p>", make_geom_halt),
}


def make_spec(selector: str, n: int) -> ProtocolSpec:
    """Build a zoo protocol from a CLI-style selector like 'echo_xor:2'."""
    name, _, arg = selector.partition(":")
    if name not in ZOO:
        raise ConfigError(f"unknown protocol {name!r}; known: {', '.join(sorted(ZOO))}")
    try:
        if name == "const":
            if arg == "":
                raise ValueError("const needs a value, e.g. const:0")
            return make_const(n, int(arg))
        if name == "echo_xor":
            if arg == "":
                raise ValueError("echo_xor needs an echo count, e.g. echo_xor:2")
            return make_echo_xor(n, int(arg))
        if name == "geom_halt":
            if arg == "":
                raise ValueError("geom_halt needs a probability, e.g. geom_halt:0.25")
            return make_geom_halt(n, float(arg))
        if arg:
            raise ValueError(f"protocol {name} takes no parameter")
        return ZOO[name].build(n)
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad protocol selector {selector!r}: {e}") from e
