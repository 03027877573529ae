"""The benchmark's workloads: experiment configs generated from a seed.

Every experiment is a `(name, kind, config)` triple that `ringbreak.cli.run_config`
accepts, exactly as `ringbreak <kind> ...` would build it from flags. The
workload seed fixes every experiment seed and every generated table, so the
same seed always yields the same inputs; nothing here imports ringbreak.
"""

from __future__ import annotations

import hashlib
import random

WORKLOADS = ("ring-attack", "coin-consistency", "table-analysis")

N_TABLES = 150
N_TERNARY = 15


def sub_seed(workload: str, seed: int, *parts) -> int:
    """32-bit experiment seed derived from the workload seed and a label."""
    text = "/".join(["ringbreak-bench", workload, str(seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def _ring_attack(seed: int) -> list[tuple[str, str, dict]]:
    """Phase 1, the online bridge and fused framing (groups of 3 at n=9),
    phase-1 retries (expected variant), and the serial delta estimate."""
    s = lambda label: sub_seed("ring-attack", seed, label)  # noqa: E731
    return [
        ("attack-echo_xor2-n3", "attack",
         {"protocol": "echo_xor:2", "n": 3, "t": 1, "trials": 400, "seed": s("echo")}),
        # exits 1 today (known fused-sampling overlap); a verdict, not a failure
        ("attack-or_exchange-n9", "attack",
         {"protocol": "or_exchange", "n": 9, "t": 3, "trials": 100, "seed": s("or9")}),
        ("attack-geom_halt-expected", "attack",
         {"protocol": "geom_halt:0.25", "n": 3, "t": 1, "trials": 100,
          "variant": "expected", "z": 8, "seed": s("geom")}),
    ]


def _coin_consistency(seed: int) -> list[tuple[str, str, dict]]:
    """Many short unfused 3-party runs: per-run engine, seeding and coin costs."""
    s = lambda label: sub_seed("coin-consistency", seed, label)  # noqa: E731
    return [
        ("coinflip-verify", "coinflip",
         {"protocol": "fair_coin", "mode": "verify", "trials": 4000, "seed": s("verify")}),
        ("coinflip-honest", "coinflip",
         {"protocol": "fair_coin", "mode": "honest", "trials": 8000, "seed": s("honest")}),
        ("consistency-echo_xor2", "consistency",
         {"protocol": "echo_xor:2", "trials": 200, "seed": s("consistency")}),
    ]


def _boolean_outputs(rng: random.Random, n: int) -> list[int]:
    """One of three table shapes, so dominance verdicts vary across the set."""
    size = 2 ** n
    shape = rng.randrange(3)
    if shape == 0:  # uniform random: almost never dominated
        return [rng.randrange(2) for _ in range(size)]
    if shape == 1:  # biased toward one value
        p = rng.choice((0.8, 0.9, 0.97))
        hot = rng.randrange(2)
        return [hot if rng.random() < p else 1 - hot for _ in range(size)]
    # k-of-n threshold with a few flipped cells: dominated at some levels
    k = rng.randrange(1, n + 1)
    out = [int(bin(x).count("1") >= k) for x in range(size)]
    for _ in range(rng.randrange(3)):
        cell = rng.randrange(size)
        out[cell] = 1 - out[cell]
    return out


def _ternary_outputs(rng: random.Random, n: int) -> list[int]:
    size = 3 ** n
    if rng.randrange(2) == 0:
        return [rng.randrange(3) for _ in range(size)]
    out = []
    for x in range(size):
        digits = []
        for _ in range(n):
            x, d = divmod(x, 3)
            digits.append(d)
        out.append(max(digits))
    for _ in range(rng.randrange(4)):
        out[rng.randrange(size)] = rng.randrange(3)
    return out


def random_tables(seed: int, count: int = N_TABLES, ternary: int = N_TERNARY) -> list[dict]:
    """`count` tables in FunctionTable JSON form; the last `ternary` are n=5 over {0,1,2}."""
    rng = random.Random(sub_seed("table-analysis", seed, "tables"))
    tables = []
    for i in range(count):
        if i >= count - ternary:
            n, d = 5, 3
            outputs = _ternary_outputs(rng, n)
        else:
            n, d = rng.choice((6, 7)), 2
            outputs = _boolean_outputs(rng, n)
        tables.append({"n": n, "domains": [d] * n, "outputs": outputs, "name": f"rt{i}"})
    return tables


def _table_analysis(seed: int) -> list[tuple[str, str, dict]]:
    """Only dominance and compiler work; nothing in netsim or ring."""
    exps = []
    for table in random_tables(seed):
        n = table["n"]
        # collapse needs 3m <= n, so the n=5 tables check m=1 instead of m=2;
        # t is the smallest threshold classify accepts (3t >= n)
        exps.append((f"dominance-{table['name']}", "dominance",
                     {"table_data": table, "t": -(-n // 3), "collapse_m": 2 if n >= 6 else 1}))
    exps.append(("compile-thresh3of9", "compile",
                 {"builtin": "thresh:3:9", "t": 3, "adv": "coin:1/2", "mc_trials": 5000,
                  "seed": sub_seed("table-analysis", seed, "compile")}))
    return exps


def build(workload: str, seed: int) -> list[tuple[str, str, dict]]:
    """The workload's experiments, in the order they run."""
    if workload == "ring-attack":
        return _ring_attack(seed)
    if workload == "coin-consistency":
        return _coin_consistency(seed)
    if workload == "table-analysis":
        return _table_analysis(seed)
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
