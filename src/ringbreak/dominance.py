"""Dominance analysis of finite symmetric functionalities.

A functionality here is a dense output table over mixed-radix input tuples:
every party holds one coordinate, everyone receives the same output. A value
y* dominates through a coordinate set I if some assignment to I forces the
output to y* no matter what the other coordinates are. Strong k-dominance
asks for one y* that every k-set can force; the weak variant lets y* vary
with the set. These notions decide which functionalities survive the ring
attack: with t corruptions out of n, the attacker-controlled block has size
n-2t, and only (n-2t)-dominated functions remain computable.

Everything is exhaustive enumeration over the table; domains stay small by
design, so the deciders are direct transcriptions of the definitions above.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Any, Iterable, Optional, Sequence

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
    def _array(self) -> np.ndarray:
        arr = np.empty(len(self.outputs), dtype=object)
        arr[:] = self.outputs
        return arr.reshape(self.domains)

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
        return sorted(set(self.outputs), key=token_key)

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

    Slices the table along the fixed coordinates and checks the remaining
    block for constancy; None when any two complements disagree.
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
    block = f._array[tuple(indexer)]
    flat = block.ravel() if isinstance(block, np.ndarray) else np.array([block], dtype=object)
    first = flat[0]
    for tok in flat[1:]:
        if tok != first:
            return None
    return first


def _assignments(f: FunctionTable, positions: Sequence[int]) -> Iterable[tuple[int, ...]]:
    return itertools.product(*(range(f.domains[p]) for p in positions))


def _forcible_tokens(f: FunctionTable, positions: tuple[int, ...]) -> dict[Token, tuple[int, ...]]:
    """All tokens some assignment to these positions forces, with the first
    forcing assignment (mixed-radix order) for each."""
    out: dict[Token, tuple[int, ...]] = {}
    for assignment in _assignments(f, positions):
        tok = forced_value(f, positions, assignment)
        if tok is not None and tok not in out:
            out[tok] = assignment
    return out


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
            if forced_value(f, subset, assignment) != tok:
                return False
            if self.kind == "strong" and tok != self.y_star:
                return False
        return True


def is_weakly_k_dominated(f: FunctionTable, k: int) -> Optional[DominanceWitness]:
    """Witness iff every k-subset of coordinates can force *some* value."""
    if not 0 < k <= f.n:
        raise ConfigError("k must be in 1..n")
    per_subset = {}
    for subset in itertools.combinations(range(f.n), k):
        hit = None
        for assignment in _assignments(f, subset):
            tok = forced_value(f, subset, assignment)
            if tok is not None:
                hit = (assignment, tok)
                break
        if hit is None:
            return None
        per_subset[subset] = hit
    w = DominanceWitness(k=k, kind="weak", y_star=None, qualifying=(), per_subset=per_subset)
    assert w.recheck(f)
    return w


def is_k_dominated(f: FunctionTable, k: int) -> Optional[DominanceWitness]:
    """Witness iff one value can be forced by *every* k-subset.

    When several values qualify they are all listed; y_star is the smallest
    by byte encoding.
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
    qualifying = tuple(sorted(common, key=token_key))
    y_star = qualifying[0]
    per_subset = {s: (fmap[y_star], y_star) for s, fmap in zip(subsets, forcible)}
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
    counterexample: Optional[dict]


def verify_weak_implies_strong(f: FunctionTable, m: int) -> CollapseVerdict:
    """Check the collapse: weakly m-dominated implies m-dominated, for m <= n/3.

    The collapse provably holds in that range, so a returned counterexample
    means the deciders disagree with it and something is broken.
    """
    if 3 * m > f.n:
        raise ConfigError(f"collapse requires m <= n/3; got m={m}, n={f.n}")
    weak = is_weakly_k_dominated(f, m)
    strong = is_k_dominated(f, m)
    if weak is not None and strong is None:
        counter = {
            "table": f.to_json(),
            "m": m,
            "weak_witness": {str(k): v for k, v in weak.per_subset.items()},
        }
        return CollapseVerdict(m=m, weakly_dominated=True, strongly_dominated=False,
                               holds=False, y_star=None, counterexample=counter)
    return CollapseVerdict(
        m=m,
        weakly_dominated=weak is not None,
        strongly_dominated=strong is not None,
        holds=True,
        y_star=strong.y_star if strong is not None else None,
        counterexample=None,
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
