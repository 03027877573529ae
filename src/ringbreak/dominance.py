"""Dominance analysis of finite symmetric functionalities.

A functionality here is a dense output table over mixed-radix input tuples:
every party holds one coordinate, everyone receives the same output. A value
y* dominates through a coordinate set I if some assignment to I forces the
output to y* no matter what the other coordinates are. Strong k-dominance
asks for one y* that every k-set can force; the weak variant lets y* vary
with the set. These notions decide which functionalities survive the ring
attack: with t corruptions out of n, the attacker-controlled block has size
n-2t, and only (n-2t)-dominated functions remain computable.

Output tokens are compared by their JSON encoding (`token_key`), so 1 and
true are different values. A table is stored once as integer codes of its
distinct tokens in that order. Both deciders read one forcing map per
coordinate set, built by a single all-equal reduction over the coded table;
`forced_value` slices the table independently to recheck their witnesses.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Any, Optional, Sequence

import numpy as np

from .core import ConfigError, is_int

PROFILE_BUDGET = 2 ** 24

Token = Any  # JSON scalar: int, str, bool, None


def token_key(token: Token) -> bytes:
    """Stable byte encoding used for tie-breaking among candidate values."""
    return json.dumps(token, sort_keys=True, separators=(",", ":")).encode()


def _check_token(token: Token) -> None:
    # list/dict entries would denote a distribution; only deterministic
    # single-valued tables are supported
    if not isinstance(token, (int, str, bool)) and token is not None:
        raise ConfigError(f"output token {token!r} is not a scalar; "
                          "randomized tables are not supported")


@dataclass(frozen=True)
class FunctionTable:
    """Dense mixed-radix output table; first coordinate most significant."""

    n: int
    domains: tuple[int, ...]
    outputs: tuple[Token, ...]
    name: str = "f"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("need at least one party")
        if len(self.domains) != self.n:
            raise ConfigError("one domain size per party required")
        if any(d < 1 for d in self.domains):
            raise ConfigError("domain sizes must be >= 1")
        if len(self.outputs) != prod(self.domains):
            raise ConfigError(
                f"table needs {prod(self.domains)} entries, got {len(self.outputs)}")
        for tok in self.outputs:
            _check_token(tok)

    @cached_property
    def _coded(self) -> tuple[tuple[Token, ...], np.ndarray]:
        """The distinct tokens in token_key order, and the table as their codes."""
        # the type tag keeps set() from merging 1 and True before token_key
        tagged = list(zip(map(type, self.outputs), self.outputs))
        key = {tt: token_key(tt[1]) for tt in set(tagged)}
        token = {k: tt[1] for tt, k in key.items()}
        order = sorted(token)
        code = {tt: order.index(k) for tt, k in key.items()}
        codes = np.array([code[tt] for tt in tagged], dtype=np.intp)
        return tuple(token[k] for k in order), codes.reshape(self.domains)

    @property
    def size(self) -> int:
        return len(self.outputs)

    def index(self, assignment: Sequence[int]) -> int:
        if len(assignment) != self.n:
            raise ConfigError("assignment must cover all coordinates")
        idx = 0
        for x, d in zip(assignment, self.domains):
            if not 0 <= x < d:
                raise ConfigError(f"coordinate value {x} outside domain of size {d}")
            idx = idx * d + x
        return idx

    def value(self, assignment: Sequence[int]) -> Token:
        return self.outputs[self.index(assignment)]

    def range_tokens(self) -> list[Token]:
        return list(self._coded[0])

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "domains": list(self.domains), "outputs": list(self.outputs),
             "name": self.name},
            sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(data: str | bytes | dict) -> "FunctionTable":
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except json.JSONDecodeError as e:
                raise ConfigError(f"table is not valid JSON: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError("table JSON must be an object")
        missing = {"n", "domains", "outputs"} - set(data)
        if missing:
            raise ConfigError(f"table JSON missing fields: {sorted(missing)}")
        n, domains, outputs = data["n"], data["domains"], data["outputs"]
        if not is_int(n):
            raise ConfigError(f"table n must be an integer, got {n!r}")
        if not isinstance(domains, list) or not all(map(is_int, domains)):
            raise ConfigError(f"table domains must be a list of integers, got {domains!r}")
        if not isinstance(outputs, list):
            raise ConfigError(f"table outputs must be a list, got {outputs!r}")
        return FunctionTable(n=n, domains=tuple(domains), outputs=tuple(outputs),
                             name=str(data.get("name", "f")))


def forced_value(f: FunctionTable, positions: Sequence[int], values: Sequence[int]) -> Optional[Token]:
    """The output forced by fixing the given coordinates, if it is constant.

    Slices the coded table along the fixed coordinates and checks the
    remaining block for constancy; None when any two complements disagree.
    """
    positions = list(positions)
    values = list(values)
    if len(positions) != len(values):
        raise ConfigError("positions and values must pair up")
    if len(set(positions)) != len(positions):
        raise ConfigError("duplicate positions")
    indexer: list[Any] = [slice(None)] * f.n
    for pos, val in zip(positions, values):
        if not 0 <= pos < f.n:
            raise ConfigError(f"position {pos} out of range")
        if not 0 <= val < f.domains[pos]:
            raise ConfigError(f"value {val} outside domain of coordinate {pos}")
        indexer[pos] = val
    tokens, codes = f._coded
    block = np.ravel(codes[tuple(indexer)])
    return tokens[block[0]] if (block == block[0]).all() else None


def _forcible_tokens(f: FunctionTable, positions: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """The code of every token some assignment to these positions forces,
    with the first forcing assignment (mixed-radix order) for each."""
    rest = [p for p in range(f.n) if p not in positions]
    dims = tuple(f.domains[p] for p in positions)
    rows = f._coded[1].transpose(list(positions) + rest).reshape(prod(dims), -1)
    forcing = np.flatnonzero((rows == rows[:, :1]).all(axis=1))
    forced, first = np.unique(rows[forcing, 0], return_index=True)
    assignments = zip(*np.unravel_index(forcing[first], dims))
    return {int(c): tuple(map(int, a)) for c, a in zip(forced, assignments)}


@dataclass(frozen=True)
class DominanceWitness:
    """Evidence for a dominance verdict, re-checkable against the table.

    Strong: one y_star plus, per k-subset, an assignment forcing it.
    Weak: per k-subset, the first forcing assignment and its forced value.
    """

    k: int
    kind: str  # "weak" | "strong"
    y_star: Optional[Token]
    qualifying: tuple[Token, ...]   # strong only: every value that works
    per_subset: dict[tuple[int, ...], tuple[tuple[int, ...], Token]]

    def recheck(self, f: FunctionTable) -> bool:
        for subset, (assignment, tok) in self.per_subset.items():
            if token_key(forced_value(f, subset, assignment)) != token_key(tok):
                return False
            if self.kind == "strong" and token_key(tok) != token_key(self.y_star):
                return False
        return True


def is_weakly_k_dominated(f: FunctionTable, k: int) -> Optional[DominanceWitness]:
    """Witness iff every k-subset of coordinates can force *some* value."""
    if not 0 < k <= f.n:
        raise ConfigError("k must be in 1..n")
    tokens = f._coded[0]
    per_subset = {}
    for subset in itertools.combinations(range(f.n), k):
        fmap = _forcible_tokens(f, subset)
        if not fmap:
            return None
        assignment, code = min((a, c) for c, a in fmap.items())
        per_subset[subset] = (assignment, tokens[code])
    w = DominanceWitness(k=k, kind="weak", y_star=None, qualifying=(), per_subset=per_subset)
    assert w.recheck(f)
    return w


def is_k_dominated(f: FunctionTable, k: int) -> Optional[DominanceWitness]:
    """Witness iff one value can be forced by *every* k-subset.

    When several values qualify they are all listed; y_star is the smallest
    by byte encoding, which is the smallest code.
    """
    if not 0 < k <= f.n:
        raise ConfigError("k must be in 1..n")
    subsets = list(itertools.combinations(range(f.n), k))
    forcible = [_forcible_tokens(f, s) for s in subsets]
    common = set(forcible[0])
    for fmap in forcible[1:]:
        common &= set(fmap)
        if not common:
            return None
    tokens = f._coded[0]
    y_code = min(common)
    qualifying = tuple(tokens[c] for c in sorted(common))
    y_star = tokens[y_code]
    per_subset = {s: (fmap[y_code], y_star) for s, fmap in zip(subsets, forcible)}
    w = DominanceWitness(k=k, kind="strong", y_star=y_star, qualifying=qualifying,
                         per_subset=per_subset)
    assert w.recheck(f)
    return w


@dataclass(frozen=True)
class DominanceProfile:
    name: str
    n: int
    weak: tuple[bool, ...]      # index k-1
    strong: tuple[bool, ...]
    minimal_strong_k: Optional[int]
    y_star_by_k: tuple[Optional[Token], ...]

    def rows(self) -> list[dict]:
        return [
            {"k": k + 1, "weak": self.weak[k], "strong": self.strong[k],
             "y_star": self.y_star_by_k[k]}
            for k in range(self.n)
        ]


def dominance_profile(f: FunctionTable, budget: int = PROFILE_BUDGET) -> DominanceProfile:
    """Per-k weak/strong flags for k = 1..n plus the minimal strong k."""
    if f.size > budget:
        raise ConfigError(f"table has {f.size} entries, over the budget {budget}")
    weak, strong, ystars = [], [], []
    for k in range(1, f.n + 1):
        wk = is_weakly_k_dominated(f, k)
        sk = is_k_dominated(f, k)
        weak.append(wk is not None)
        strong.append(sk is not None)
        ystars.append(sk.y_star if sk is not None else None)
    for k in range(f.n - 1):
        # any (k+1)-set contains a forcing k-set, so this cannot regress
        if strong[k] and not strong[k + 1]:
            raise AssertionError(f"dominance monotonicity broken at k={k + 1}")
    minimal = next((k + 1 for k in range(f.n) if strong[k]), None)
    return DominanceProfile(
        name=f.name, n=f.n, weak=tuple(weak), strong=tuple(strong),
        minimal_strong_k=minimal, y_star_by_k=tuple(ystars),
    )


@dataclass(frozen=True)
class CollapseVerdict:
    """Result of checking weak => strong at m <= n/3."""

    m: int
    weakly_dominated: bool
    strongly_dominated: bool
    holds: bool
    y_star: Optional[Token]


def verify_weak_implies_strong(f: FunctionTable, m: int) -> CollapseVerdict:
    """Check the collapse: weakly m-dominated implies m-dominated, for m <= n/3.

    The collapse provably holds in that range, so a verdict that does not
    hold means the deciders disagree with it and something is broken.
    """
    if 3 * m > f.n:
        raise ConfigError(f"collapse requires m <= n/3; got m={m}, n={f.n}")
    weak = is_weakly_k_dominated(f, m) is not None
    strong = is_k_dominated(f, m)
    return CollapseVerdict(
        m=m,
        weakly_dominated=weak,
        strongly_dominated=strong is not None,
        holds=not weak or strong is not None,
        y_star=strong.y_star if strong is not None else None,
    )


COMPUTABLE = "COMPUTABLE"
NOT_COMPUTABLE = "NOT_COMPUTABLE"
CONDITIONAL = "CONDITIONAL"


@dataclass(frozen=True)
class Classification:
    verdict: str
    n: int
    t: int
    k: int                      # dominance level the verdict hinges on
    dominated: bool
    y_star: Optional[Token]
    reason: str


def classify(f: FunctionTable, n: int, t: int) -> Classification:
    """Computability of f against t corruptions without broadcast.

    Honest-majority band (n/3 <= t < n/2): computable exactly when f is
    (n-2t)-dominated. At t >= n/2 the lack of 1-dominance is already fatal;
    with 1-dominance the answer additionally depends on broadcast-model
    feasibility, which is outside this analyzer, hence CONDITIONAL.
    """
    if n < 3:
        raise ConfigError("classification needs n >= 3")
    if f.n != n:
        raise ConfigError(f"table arity {f.n} does not match n={n}")
    if 3 * t < n:
        raise ConfigError("t below n/3 is a different regime (broadcast achievable)")
    if t >= n:
        raise ConfigError(f"t={t} corruptions must be fewer than n={n} parties")
    if 2 * t < n:
        k = n - 2 * t
        witness = is_k_dominated(f, k)
        if witness is not None:
            return Classification(COMPUTABLE, n, t, k, True, witness.y_star,
                                  f"{k}-dominated with y*={witness.y_star!r}")
        return Classification(NOT_COMPUTABLE, n, t, k, False, None,
                              f"not {k}-dominated")
    witness = is_k_dominated(f, 1)
    if witness is None:
        return Classification(NOT_COMPUTABLE, n, t, 1, False, None,
                              "not 1-dominated")
    return Classification(CONDITIONAL, n, t, 1, True, witness.y_star,
                          "requires a t-secure broadcast-model protocol for f")


def table_from_fn(n: int, domains: Sequence[int], fn, name: str = "f") -> FunctionTable:
    """Materialize f(x_1..x_n) into a dense table, row-major."""
    domains = tuple(domains)
    outputs = tuple(fn(*xs) for xs in itertools.product(*(range(d) for d in domains)))
    return FunctionTable(n=n, domains=domains, outputs=outputs, name=name)


def or_table(n: int) -> FunctionTable:
    return table_from_fn(n, [2] * n, lambda *xs: int(any(xs)), name=f"or{n}")


def and_table(n: int) -> FunctionTable:
    return table_from_fn(n, [2] * n, lambda *xs: int(all(xs)), name=f"and{n}")


def xor_table(n: int) -> FunctionTable:
    return table_from_fn(n, [2] * n, lambda *xs: sum(xs) % 2, name=f"xor{n}")


def threshold_table(n: int, k: int) -> FunctionTable:
    """1 iff at least k coordinates are 1 (the k-of-n table)."""
    return table_from_fn(n, [2] * n, lambda *xs: int(sum(xs) >= k), name=f"{k}of{n}")


def constant_table(n: int, c: Token) -> FunctionTable:
    return FunctionTable(n=n, domains=(2,) * n, outputs=(c,) * 2 ** n, name=f"const{c!r}")


def pair_and_or_table() -> FunctionTable:
    """(x1 and x2) or (x3 and x4): weakly 2-dominated but not 2-dominated."""
    return table_from_fn(4, [2] * 4,
                         lambda a, b, c, d: int((a and b) or (c and d)),
                         name="pairs")
