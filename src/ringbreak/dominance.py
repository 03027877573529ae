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
distinct tokens in that order. Forcing is summarized per level: for every
k-set, the first assignment (mixed-radix order) that forces each code. A
level is built on demand, once per table, by one batched pass: gather the
coded table into each set's (assignment, rest) rows and reduce every row to
all-equal or not. Both deciders, at every k, read those summaries. Every
witness they return is rechecked against the table without the level: its
claimed blocks are gathered by the table's strides in one numpy pass per
chunk of sets, and its first block is read once more through `forced_value`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, prod
from typing import Any, Optional, Sequence

import numpy as np

from .core import Catalog, ConfigError, is_int, parse_selector

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

    @cached_property
    def _levels(self) -> dict[int, "_Level"]:
        return {}

    def _level(self, k: int) -> "_Level":
        """Forcing summary of every k-set, built on first use."""
        if k not in self._levels:
            self._levels[k] = _build_level(self, k)
        return self._levels[k]

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


def _forced_code(f: FunctionTable, positions: Sequence[int], values: Sequence[int]) -> Optional[int]:
    """The code of the output forced by fixing the given coordinates, if any.

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
        if not (is_int(val) and 0 <= val < f.domains[pos]):
            raise ConfigError(f"value {val!r} outside domain of coordinate {pos}")
        indexer[pos] = val
    block = f._coded[1][tuple(indexer)].ravel()
    return int(block[0]) if (block == block[0]).all() else None


def forced_value(f: FunctionTable, positions: Sequence[int], values: Sequence[int]) -> Optional[Token]:
    """The output forced by fixing the given coordinates, if it is constant.

    None when the remaining block is not constant, and also when it is
    constantly the null token.
    """
    code = _forced_code(f, positions, values)
    return None if code is None else f._coded[0][code]


_UNFORCED = np.iinfo(np.intp).max

# Layouts depend only on (domains, k, chunk), so tables of one shape share
# them. Only layouts of at most this many cells are kept, 32 at most.
_LAYOUT_CACHE_CELLS = 2 ** 16


def _chunks(f: FunctionTable, k: int):
    """The k-sets in chunks (lo, hi) of at most PROFILE_BUDGET table cells, at
    least one set each, and whether a chunk is small enough to cache."""
    total = comb(f.n, k)
    chunk = max(1, PROFILE_BUDGET // f.size)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        yield lo, hi, (hi - lo) * f.size <= _LAYOUT_CACHE_CELLS


@lru_cache(maxsize=32)
def _layout(domains: tuple[int, ...], k: int, lo: int, hi: int):
    """How to gather the k-sets lo..hi-1 (combinations order) out of a flat table.

    Taking the flat table at `gather` lists, set by set and assignment by
    assignment (mixed-radix order of the set's values), the cells that
    assignment leaves open; one row per assignment, starting at `starts`.
    `row_set` and `row_assignment` name each row, and `dims` holds each
    set's domain sizes.
    """
    n = len(domains)
    cells = np.arange(prod(domains)).reshape(domains)
    subsets = list(itertools.islice(itertools.combinations(range(n), k), lo, hi))
    gather = np.concatenate([
        cells.transpose(list(s) + [p for p in range(n) if p not in s]).ravel()
        for s in subsets])
    dims = np.array([[domains[p] for p in s] for s in subsets], dtype=np.intp)
    rows = dims.prod(axis=1)
    row_set = np.repeat(np.arange(len(subsets)), rows)
    row_assignment = np.arange(len(row_set)) - np.repeat(np.cumsum(rows) - rows, rows)
    row_len = np.repeat(cells.size // rows, rows)
    starts = np.cumsum(row_len) - row_len
    return subsets, gather, starts, row_set, row_assignment, dims


@lru_cache(maxsize=32)
def _blocks(domains: tuple[int, ...], k: int, lo: int, hi: int):
    """Where the blocks of the k-sets lo..hi-1 (combinations order) sit in a
    C-order flat table.

    `dims` and `strides` hold each set's domain sizes (flat, set by set) and
    the table strides of its coordinates, (sets, k); an assignment's block
    starts at assignment · strides. `offsets` lists every set's block cells
    relative to that start, set after set, and `owner` names each one's set.
    """
    n = len(domains)
    cells = np.arange(prod(domains)).reshape(domains)
    sets = list(itertools.islice(itertools.combinations(range(n), k), lo, hi))
    at = np.array(sets, dtype=np.intp)
    stride = np.array([prod(domains[p + 1:]) for p in range(n)], dtype=np.intp)
    blocks = [cells[tuple(0 if p in s else slice(None) for p in range(n))].ravel()
              for s in sets]
    owner = np.repeat(np.arange(len(sets)), [len(b) for b in blocks])
    return sets, np.array(domains)[at].ravel(), stride[at], np.concatenate(blocks), owner


@dataclass(frozen=True)
class _Level:
    """For every k-set (combinations order) and every code: the first
    assignment, as a mixed-radix index, that forces it, or _UNFORCED."""

    subsets: list[tuple[int, ...]]
    first: np.ndarray   # (sets, codes)
    dims: np.ndarray    # (sets, k) domain sizes of each set's coordinates

    @cached_property
    def _strides(self) -> np.ndarray:
        """(sets, k) mixed-radix place values of each set's coordinates."""
        strides = np.cumprod(self.dims[:, :0:-1], axis=1)[:, ::-1]
        return np.concatenate([strides, np.ones((len(self.dims), 1), np.intp)], axis=1)

    def assignments(self, index: np.ndarray) -> list[tuple[int, ...]]:
        """Per set, the assignment with the given mixed-radix index."""
        return list(map(tuple, (index[:, None] // self._strides % self.dims).tolist()))


def _build_level(f: FunctionTable, k: int) -> _Level:
    """One segmented all-equal reduction over every k-set's rows, in chunks
    of at most PROFILE_BUDGET cells (at least one set per chunk)."""
    tokens, codes = f._coded
    flat = codes.ravel()
    subsets, firsts, dims = [], [], []
    for lo, hi, cached in _chunks(f, k):
        layout = (_layout if cached else _layout.__wrapped__)(f.domains, k, lo, hi)
        sets, gather, starts, row_set, row_assignment, set_dims = layout
        vals = flat[gather]
        low = np.minimum.reduceat(vals, starts)
        forced = low == np.maximum.reduceat(vals, starts)
        first = np.full((len(sets), len(tokens)), _UNFORCED, dtype=np.intp)
        np.minimum.at(first, (row_set[forced], low[forced]), row_assignment[forced])
        subsets += sets
        firsts.append(first)
        dims.append(set_dims)
    return _Level(subsets, np.concatenate(firsts), np.concatenate(dims))


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
        """True iff the witness lists exactly the k-subsets of f's
        coordinates, each with an in-domain int assignment of length k that
        forces its token (y_star for a strong witness).

        Reads the table itself, not f's levels: every claimed block is
        gathered by strides and must hold only the claimed code, and the
        first subset's block is read again through `forced_value`.
        """
        k = self.k
        if not 0 < k <= f.n or len(self.per_subset) != comb(f.n, k):
            return False
        tokens, codes = f._coded
        flat = codes.ravel()
        code_of = {(type(t), t): c for c, t in enumerate(tokens)}
        for lo, hi, cached in _chunks(f, k):
            blocks = (_blocks if cached else _blocks.__wrapped__)(f.domains, k, lo, hi)
            sets, dims, strides, offsets, owner = blocks
            try:
                rows = list(map(self.per_subset.__getitem__, sets))
                # a token outside the range, or not a scalar, has no code
                claimed = [code_of[type(t), t] for _, t in rows]
                if self.kind == "strong" and set(claimed) != {
                        code_of[type(self.y_star), self.y_star]}:
                    return False
                if {len(a) for a, _ in rows} != {k}:
                    return False
            except (KeyError, TypeError):
                return False
            values = [v for a, _ in rows for v in a]
            if not all(map(_is_int_type, set(map(type, values)))):
                return False
            try:
                values = np.array(values, dtype=np.intp)
            except OverflowError:
                return False
            if not ((0 <= values) & (values < dims)).all():
                return False
            start = (values.reshape(-1, k) * strides).sum(axis=1)
            if not (flat[start[owner] + offsets] == np.array(claimed)[owner]).all():
                return False
        first = tuple(range(k))
        assignment, tok = self.per_subset[first]
        # a second, independent block reader must agree on the first subset
        return _same_token(forced_value(f, first, assignment), tok)


def _is_int_type(t: type) -> bool:
    """`is_int` on a value's type."""
    return issubclass(t, int) and not issubclass(t, bool)


def _same_token(a: Token, b: Token) -> bool:
    """Equal as JSON scalars: on int, str, bool and None this agrees with
    comparing token_key, without encoding."""
    return type(a) is type(b) and a == b


def is_weakly_k_dominated(f: FunctionTable, k: int) -> Optional[DominanceWitness]:
    """Witness iff every k-subset of coordinates can force *some* value.

    Each subset's witness is its first forcing assignment.
    """
    if not 0 < k <= f.n:
        raise ConfigError("k must be in 1..n")
    level = f._level(k)
    best = level.first.min(axis=1)
    if (best == _UNFORCED).any():
        return None
    codes = level.first.argmin(axis=1)
    tokens = f._coded[0]
    per_subset = {s: (a, tokens[c]) for s, a, c in
                  zip(level.subsets, level.assignments(best), codes.tolist())}
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
    level = f._level(k)
    common = np.flatnonzero((level.first != _UNFORCED).all(axis=0)).tolist()
    if not common:
        return None
    tokens = f._coded[0]
    y_star = tokens[common[0]]
    per_subset = {s: (a, y_star) for s, a in
                  zip(level.subsets, level.assignments(level.first[:, common[0]]))}
    w = DominanceWitness(k=k, kind="strong", y_star=y_star,
                         qualifying=tuple(tokens[c] for c in common), per_subset=per_subset)
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
    if m < 1:
        raise ConfigError(f"collapse requires m >= 1; got m={m}")
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


# every builtin is boolean; all but pairs (n = 4) take the party count n
BUILTINS: Catalog = {
    "or": ((("n", int),), or_table),
    "and": ((("n", int),), and_table),
    "xor": ((("n", int),), xor_table),
    "thresh": ((("k", int), ("n", int)), threshold_table),
    "const": ((("c", int), ("n", int)), constant_table),
    "pairs": ((), pair_and_or_table),
}


def make_table(selector: str, budget: int) -> FunctionTable:
    """Build a builtin table, refusing one over `budget` cells before building it."""
    build, args = parse_selector(selector, BUILTINS, "builtin table")
    cells = 2 ** args.get("n", 4)
    if cells > budget:
        raise ConfigError(f"table has {cells} entries, over the budget {budget}")
    return build()
