"""Built-in protocol zoo.

Every entry is a complete-graph protocol whose parties address each other by
index. Bit-valued protocols carry their bit in the low bit of input byte 0;
outputs are single bytes. All entries satisfy the PartyProgram contract
(halt absorption, purity, declared round bounds) and are validated in tests.
"""

from __future__ import annotations

import math
from typing import Callable

from .core import (
    BitInput,
    Catalog,
    InputDomain,
    PartyProgram,
    ProtocolSpec,
    RawInput,
    RoundBound,
    parse_selector,
)

INPUT_BYTES = 8


def _bit(input_bytes: bytes) -> int:
    return input_bytes[0] & 1


class ConstProgram(PartyProgram):
    """Outputs the constant c after one round, sends nothing."""

    def __init__(self, n: int, me: int, c: int):
        self.n = n
        self.me = me
        self.c = c

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

    def __init__(self, n: int, me: int, op: str):
        self.n = n
        self.me = me
        self.op = op  # "xor" | "or"
        self.peers = tuple(j for j in range(n) if j != me)

    def init(self, input_bytes, coins):
        return ("init", _bit(input_bytes))

    def step(self, state, round_no, inbox):
        phase, bit = state[0], state[1]
        if phase == "init":
            payload = bytes([bit])
            return ("sent", bit), dict.fromkeys(self.peers, payload)
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

    def init(self, input_bytes, coins):
        return ("init", coins.bit(0))


class EchoXorProgram(PartyProgram):
    """Bit exchange plus e echo-and-resolve rounds, output = XOR of beliefs.

    Each echo round every party re-broadcasts its current belief vector; the
    belief about party j flips only when every received echo of j disagrees
    with the value held so far, which damps single-channel equivocation.
    """

    def __init__(self, n: int, me: int, echoes: int):
        if echoes < 1:
            raise ValueError("need at least one echo round")
        self.n = n
        self.me = me
        self.echoes = echoes
        self.peers = tuple(j for j in range(n) if j != me)

    def init(self, input_bytes, coins):
        # state: (calls_done, own bit, belief vector, output)
        return (0, _bit(input_bytes), None, None)

    def _broadcast(self, payload: bytes) -> dict[int, bytes]:
        return dict.fromkeys(self.peers, payload)

    def _resolved(self, beliefs: tuple, inbox: dict[int, bytes]) -> tuple:
        echoes = [p for p in inbox.values() if len(p) == self.n]
        if not echoes:
            return beliefs
        out = list(beliefs)
        for j in self.peers:
            claim = echoes[0][j] & 1
            for p in echoes[1:]:
                if p[j] & 1 != claim:
                    break
            else:
                out[j] = claim
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


def _uniform(name: str, n: int, program: Callable[[int], PartyProgram],
             bound: RoundBound, domain: InputDomain, coin_free: bool = False) -> ProtocolSpec:
    """n parties, party i running program(i), all with one input domain."""
    return ProtocolSpec(name=name, programs=tuple(program(i) for i in range(n)),
                        round_bound=bound, domains=(domain,) * n, coin_free=coin_free)


def make_const(n: int, c: int) -> ProtocolSpec:
    if not 0 <= c <= 255:
        raise ValueError(f"constant {c} is not a byte value 0..255")
    return _uniform(f"const:{c}", n, lambda i: ConstProgram(n, i, c),
                    RoundBound("strict", 1), RawInput(INPUT_BYTES), coin_free=True)


def make_xor_exchange(n: int) -> ProtocolSpec:
    return _uniform("xor_exchange", n, lambda i: ExchangeProgram(n, i, "xor"),
                    RoundBound("strict", 1), BitInput(INPUT_BYTES), coin_free=True)


def make_or_exchange(n: int) -> ProtocolSpec:
    return _uniform("or_exchange", n, lambda i: ExchangeProgram(n, i, "or"),
                    RoundBound("strict", 1), BitInput(INPUT_BYTES), coin_free=True)


def make_echo_xor(n: int, echoes: int) -> ProtocolSpec:
    return _uniform(f"echo_xor:{echoes}", n, lambda i: EchoXorProgram(n, i, echoes),
                    RoundBound("strict", echoes + 1), BitInput(INPUT_BYTES), coin_free=True)


def make_fair_coin(n: int) -> ProtocolSpec:
    return _uniform("fair_coin", n, lambda i: FairCoinProgram(n, i, "xor"),
                    RoundBound("strict", 1), RawInput(INPUT_BYTES))


def make_geom_halt(n: int, p: float) -> ProtocolSpec:
    if not 0.0 < p <= 1.0:
        raise ValueError("halt probability must be in (0, 1]")
    return _uniform(f"geom_halt:{p:g}", n, lambda i: GeomHaltProgram(n, i, p),
                    RoundBound("expected", max(1, math.ceil(1.0 / p))), RawInput(INPUT_BYTES))


# const: everyone outputs the byte c; xor_exchange / or_exchange: one pairwise
# bit exchange, output the XOR / OR; echo_xor: the exchange plus `echoes`
# echo-and-resolve rounds; fair_coin: a fresh coin bit per party, output the
# XOR; geom_halt: halt each round with probability p. Only fair_coin and
# geom_halt read coins; the others declare coin_free
ZOO: Catalog = {
    "const": ((("c", int),), make_const),
    "xor_exchange": ((), make_xor_exchange),
    "or_exchange": ((), make_or_exchange),
    "echo_xor": ((("echoes", int),), make_echo_xor),
    "fair_coin": ((), make_fair_coin),
    "geom_halt": ((("p", float),), make_geom_halt),
}


def make_spec(selector: str, n: int) -> ProtocolSpec:
    """Build a zoo protocol at n parties from a selector like 'echo_xor:2'."""
    return parse_selector(selector, ZOO, "protocol")[0](n)
