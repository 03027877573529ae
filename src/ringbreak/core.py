"""Core protocol model: party programs, coin streams, joint inputs.

Parties are deterministic state machines driven by a lockstep round engine
(see netsim). All randomness a party ever uses comes from its CoinStream,
which is a pure function of (master_seed, label), so any execution can be
replayed bit-for-bit from its seed and input vector.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

MASK64 = 0xFFFFFFFFFFFFFFFF


class SpecViolation(Exception):
    """A program broke its declared contract (round bound, halt absorption...)."""


class TopologyViolation(Exception):
    """A message was emitted on an edge that does not exist."""


class ConfigError(Exception):
    """Bad user-supplied configuration or input file."""


def coalition_size(n: int, t: int) -> int:
    """The coalition size k(n, t) that decides computability without broadcast.

    For n/3 <= t < n/2, f is computable exactly when it is k-dominated with
    k = n-2t; for t >= n/2, k = 1 (and f must also be computable with
    broadcast). Below n/3 broadcast can be built from point-to-point
    channels, so that regime is refused, as are n < 3 and t >= n.
    """
    if n < 3:
        raise ConfigError(f"need n >= 3 parties, got n={n}")
    if t >= n:
        raise ConfigError(f"t={t} corruptions must be fewer than n={n} parties")
    if 3 * t < n:
        raise ConfigError(f"t={t} is below n/3 for n={n}, where broadcast is achievable")
    return 1 if 2 * t >= n else n - 2 * t


def is_int(value: Any) -> bool:
    """An int that is not a bool: what a JSON integer loads as."""
    return isinstance(value, int) and not isinstance(value, bool)


# A selector is "name:p1:p2...", one name of a catalog and each of its
# parameters in order. A catalog maps a name to its parameters, each a (name,
# type) pair whose type converts the text, and to its builder, which takes the
# caller's leading arguments and then the parameters by name.
Catalog = dict[str, tuple[tuple[tuple[str, Callable[[str], Any]], ...], Callable[..., Any]]]


def selector_help(catalog: Catalog) -> str:
    """Every selector form of a catalog, e.g. 'const:<c>, fair_coin'."""
    return ", ".join(":".join([name, *(f"<{p}>" for p, _ in params)])
                     for name, (params, _) in catalog.items())


def parse_selector(selector: str, catalog: Catalog,
                   what: str) -> tuple[Callable[..., Any], dict[str, Any]]:
    """A selector's entry builder bound to its parameters, and the converted
    parameters. The parameter count must match exactly. A bad selector, or a
    builder refusing its parameters, raises ConfigError naming every form."""

    def bad(reason) -> ConfigError:
        return ConfigError(f"bad {what} {selector!r}: {reason}; have {selector_help(catalog)}")

    name, *raw = selector.split(":")
    if name not in catalog:
        raise bad(f"unknown name {name!r}")
    params, build = catalog[name]
    if len(raw) != len(params):
        raise bad(f"{name} takes {len(params)} parameter(s), got {len(raw)}")
    try:
        args = {p: kind(x) for (p, kind), x in zip(params, raw)}
    except (ValueError, ArithmeticError) as e:
        raise bad(e) from None

    def built(*lead):
        try:
            return build(*lead, **args)
        except (ValueError, ConfigError) as e:
            raise bad(e) from None

    return built, args


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __reduce__(self):
        # keep identity across pickling (process pools compare by "is")
        return (_sentinel_lookup, (self._name,))


BOT = _Sentinel("BOT")          # the distinguished abort output
RUNNING = _Sentinel("RUNNING")  # party still active when the run was cut off

_SENTINELS = {"BOT": BOT, "RUNNING": RUNNING}


def _sentinel_lookup(name: str) -> _Sentinel:
    return _SENTINELS[name]


# Outcome of a party: a byte-string, or BOT. RUNNING is a status, not an Outcome.
Outcome = Any


def outcome_repr(value: Any) -> str:
    """Stable printable form used in histograms and reports."""
    if value is BOT:
        return "BOT"
    if value is RUNNING:
        return "RUNNING"
    if isinstance(value, bytes):
        return value.hex()
    return repr(value)


# the fixed-width integers seeds and coin blocks are hashed over
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def derive_seed(master_seed: int, *parts: Any) -> int:
    """Stable 64-bit seed for a sub-experiment (trial, iteration, pilot...).

    Pure function of the master seed and the part labels; no global state.
    """
    buf = [b"ringbreak-seed", _U64.pack(master_seed & MASK64)]
    for p in parts:
        data = p if isinstance(p, bytes) else str(p).encode()
        buf += (_U32.pack(len(data)), data)
    return _U64.unpack_from(hashlib.sha256(b"".join(buf)).digest())[0]


class CoinStream:
    """Deterministic random byte stream, positionally addressable.

    Bytes are produced in 32-byte blocks via SHA-256 in counter mode over
    (master_seed, label, block_index). Distinct labels give computationally
    unrelated streams under the same seed. Reads are stateless: callers that
    need a cursor keep the offset in their own state, which keeps party
    `step` functions pure. The hash prefix is built when the first block is
    hashed, so a stream that is never read costs no hashing.
    """

    __slots__ = ("seed", "label", "_prefix", "_blocks")

    def __init__(self, seed: int, label: bytes):
        if not isinstance(label, bytes):
            raise TypeError("coin label must be bytes")
        self.seed = seed & MASK64
        self.label = label
        self._prefix: Optional[bytes] = None
        self._blocks: dict[int, bytes] = {}

    def _block(self, idx: int) -> bytes:
        blk = self._blocks.get(idx)
        if blk is None:
            if self._prefix is None:
                self._prefix = (b"ringbreak-coins" + _U64.pack(self.seed)
                                + _U32.pack(len(self.label)) + self.label)
            blk = self._blocks[idx] = hashlib.sha256(self._prefix + _U64.pack(idx)).digest()
        return blk

    def read(self, offset: int, n: int) -> bytes:
        if offset < 0 or n < 0:
            raise ValueError("negative coin read")
        idx, within = divmod(offset, 32)
        if within + n <= 32:
            return self._block(idx)[within:within + n]
        out = bytearray()
        while len(out) < n:
            out += self._block(idx)[within:]
            within = 0
            idx += 1
        return bytes(out[:n])

    def byte(self, i: int) -> int:
        if i < 0:
            raise ValueError("negative coin read")
        return self._block(i // 32)[i % 32]

    def bit(self, i: int) -> int:
        if i < 0:
            raise ValueError("negative coin read")
        return (self._block(i // 256)[i // 8 % 32] >> (i % 8)) & 1

    def u64(self, offset: int) -> int:
        if offset < 0:
            raise ValueError("negative coin read")
        idx, within = divmod(offset, 32)
        if within <= 24:  # all 8 bytes in one block
            return _U64.unpack_from(self._block(idx), within)[0]
        return _U64.unpack(self.read(offset, 8))[0]

    def uniform(self, offset: int) -> float:
        """Dyadic uniform in [0, 1) from 8 bytes at `offset`."""
        return self.u64(offset) / 2.0**64

    def sublabel(self, extra: bytes) -> "CoinStream":
        """Independent stream derived under the same seed (used by fused parties)."""
        return CoinStream(self.seed, self.label + b"/" + extra)

    def __repr__(self) -> str:
        return f"CoinStream(seed={self.seed:#x}, label={self.label!r})"


class NoCoins:
    """The one coin stream every party of a coin-free protocol is handed.

    The protocol declared that no party reads a coin, so every read raises
    `SpecViolation` naming it; `sublabel` returns the stream itself, so a
    fused party hands it on to its members.
    """

    def __init__(self, protocol: str):
        self.protocol = protocol

    def _refuse(self, *_args) -> None:
        raise SpecViolation(f"{self.protocol}: declared coin_free, but a party read a coin")

    read = byte = bit = u64 = uniform = _refuse

    def sublabel(self, extra: bytes) -> "NoCoins":
        return self


class PartyProgram:
    """Deterministic per-party state machine.

    Lifecycle per execution: init once, then one `step` call per round.
    The inbox passed to the round-r call holds the messages delivered at
    the end of round r-1 (empty for r=1), keyed by sender index. The
    returned outbox maps receiver index -> payload for round r. State must
    be treated as immutable: step returns a new value and must not mutate
    its argument (the engine may replay steps).

    Contract for honest programs: once finished(state) returns an Outcome,
    every later step returns the same state with an empty outbox, and the
    Outcome never changes.
    """

    def init(self, input_bytes: bytes, coins: CoinStream) -> Any:
        raise NotImplementedError

    def step(self, state: Any, round_no: int, inbox: dict[int, bytes]) -> tuple[Any, dict[int, bytes]]:
        raise NotImplementedError

    def finished(self, state: Any) -> Optional[Outcome]:
        raise NotImplementedError


@dataclass(frozen=True)
class RoundBound:
    """Declared round complexity: strict q-round, or expected q rounds."""

    kind: str  # "strict" | "expected"
    q: int

    def __post_init__(self):
        if self.kind not in ("strict", "expected"):
            raise ValueError(f"unknown round bound kind {self.kind!r}")
        if self.q < 1:
            raise ValueError("round bound must be >= 1")

    @property
    def strict(self) -> bool:
        return self.kind == "strict"


class InputDomain:
    """Declared per-party input domain; knows its byte length and sampling."""

    length: int

    def zero(self) -> bytes:
        return bytes(self.length)

    def sample(self, coins: CoinStream, offset: int = 0) -> bytes:
        raise NotImplementedError


@dataclass(frozen=True)
class BitInput(InputDomain):
    """A single bit, carried in the low bit of byte 0; remaining bytes are padding."""

    length: int = 1

    def sample(self, coins: CoinStream, offset: int = 0) -> bytes:
        return bytes([coins.byte(offset) & 1]) + bytes(self.length - 1)


@dataclass(frozen=True)
class RawInput(InputDomain):
    """Uniform byte-strings of the declared length."""

    length: int

    def sample(self, coins: CoinStream, offset: int = 0) -> bytes:
        return coins.read(offset, self.length)


@dataclass(frozen=True)
class FusedInput(InputDomain):
    """Concatenation of member domains (inputs of a fused party)."""

    members: tuple[InputDomain, ...]

    @property
    def length(self) -> int:  # type: ignore[override]
        return sum(m.length for m in self.members)

    def sample(self, coins: CoinStream, offset: int = 0) -> bytes:
        out = bytearray()
        pos = offset
        for m in self.members:
            out += m.sample(coins, pos)
            pos += 64  # fixed stride so member samples never overlap
        return bytes(out)


@dataclass(frozen=True)
class ProtocolSpec:
    """A complete n-party protocol: programs, round bound, input domains.

    `coin_free` declares that no party ever reads its coins. Runs then hand
    every party `no_coins`, so a read breaks the contract (`SpecViolation`)
    instead of drawing coins the declaration said are never drawn.
    """

    name: str
    programs: tuple[PartyProgram, ...]
    round_bound: RoundBound
    domains: tuple[InputDomain, ...]
    coin_free: bool = False
    # the party count, read on every routed message: set once, not compared
    n: int = field(init=False, repr=False, compare=False)
    # the coin stream of every party of a coin-free protocol, else None
    no_coins: Optional[NoCoins] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.programs) < 2:
            raise ValueError("need at least 2 parties")
        if len(self.domains) != len(self.programs):
            raise ValueError("one input domain per party")
        object.__setattr__(self, "n", len(self.programs))
        object.__setattr__(self, "no_coins", NoCoins(self.name) if self.coin_free else None)

    @property
    def q(self) -> int:
        return self.round_bound.q


# coin-stream bytes between consecutive parties' (or ring slots') sampled inputs
INPUT_STRIDE = 128


@dataclass(frozen=True)
class JointEntry:
    """One party's fixed execution inputs: input bytes plus a coin label.

    Together with a master seed this pins the party's entire behavior;
    serialized length is input length + the coin budget of the run.
    """

    input: bytes
    coin_label: bytes

    def coins(self, master_seed: int) -> CoinStream:
        return CoinStream(master_seed, self.coin_label)


@dataclass(frozen=True)
class JointInput:
    """Per-party JointEntry vector for one execution."""

    entries: tuple[JointEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> JointEntry:
        return self.entries[i]

    def validate(self, spec: ProtocolSpec) -> None:
        if len(self.entries) != spec.n:
            raise ValueError(f"expected {spec.n} entries, got {len(self.entries)}")
        for i, e in enumerate(self.entries):
            want = spec.domains[i].length
            if len(e.input) != want:
                raise ValueError(f"party {i}: input length {len(e.input)} != declared {want}")

    @staticmethod
    def sample(spec: ProtocolSpec, seed: int) -> "JointInput":
        """Inputs uniform over each party's declared domain; labels fixed."""
        src = CoinStream(seed, b"input-sample")
        entries = []
        for i in range(spec.n):
            entries.append(JointEntry(
                spec.domains[i].sample(src, offset=INPUT_STRIDE * i),
                b"p/%d" % i,
            ))
        return JointInput(tuple(entries))
