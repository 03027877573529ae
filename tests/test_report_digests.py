"""Every benchmark report, and every pinned report, keeps its bytes.

`report_digests.json` holds, for each experiment that
`bench/workloads.build(workload, seed)` lists at seeds 1 and 7, and for each
config of `PINNED` below (rows `pins/<id>`), the sha256 of the report
`run_config` + `render_report` produce and its exit code. The test
recomputes every row at --jobs 1. A moved row means a report changed: that
has to be a deliberate, documented decision, and the manifest is rewritten
with it:

    PYTHONPATH=src python tests/test_report_digests.py [--rewrite] [--jobs N]

The tests also hand every report to `report_checks.check`, which re-derives
its verdicts and exit code from its own numbers; a digest alone cannot tell
a report whose verdict and bytes changed together.

Without --rewrite the script only compares and prints the rows that moved
(exit 1 if any did); with it, it also writes the new manifest. --jobs runs
the experiments on N workers, whose reports must match the same rows.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest
from report_checks import check

from ringbreak.cli import run_config
from ringbreak.netsim import shutdown_pool
from ringbreak.reports import render_report

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).resolve().parent / "report_digests.json"
SEEDS = (1, 7)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()

# Configs pinned beside the benchmark's. The first attack, the const:1
# coinflip attack and the xor_exchange consistency rows are the configs of
# acceptance criterion c10; the rest cover every subcommand, fused groups of
# three (or_exchange at n=9, t=3), the expected-round attack variant, a
# coin-free attack whose phase 1 aborts and a coin-flip attack at n=6.
PINNED = [
    ("attack", {"protocol": "echo_xor:2", "n": 3, "t": 1, "trials": 60, "seed": 5,
                "delta_trials": 100}),
    ("attack", {"protocol": "or_exchange", "n": 9, "t": 3, "trials": 20, "seed": 3,
                "delta_trials": 100}),
    ("attack", {"protocol": "geom_halt:0.25", "n": 3, "t": 1, "variant": "expected",
                "z": 8, "trials": 20, "seed": 4, "delta_trials": 100}),
    ("dominance", {"builtin": "thresh:2:4", "t": 2, "collapse_m": 1}),
    ("coinflip", {"protocol": "const:1", "mode": "attack", "trials": 1000, "seed": 6}),
    ("coinflip", {"protocol": "fair_coin", "mode": "verify", "kappa": 4, "trials": 1000,
                  "delta_trials": 100, "seed": 8}),
    # distance_ci[1] is the exactly rounded 0.045784249020781466; before
    # statistical_distance used fsum it also read ...46 under some hash seeds
    ("coinflip", {"protocol": "fair_coin", "mode": "honest", "trials": 1000, "seed": 12}),
    ("compile", {"builtin": "thresh:2:6", "t": 2, "adv": "coin:1/2", "mc_trials": 200,
                 "seed": 9}),
    ("consistency", {"protocol": "xor_exchange", "trials": 120, "seed": 7}),
    ("consistency", {"protocol": "echo_xor:2", "trials": 100, "seed": 11}),
    ("validate", {"protocol": "echo_xor:2", "trials": 5, "seed": 2}),
    ("validate", {"protocol": "fair_coin", "trials": 10, "seed": 2}),
    # a strict attack at n=3 on a protocol that reads coins: phase 1 runs on
    # the protocol itself, so its coins carry no fused member sub-label
    ("attack", {"protocol": "fair_coin", "n": 3, "t": 1, "trials": 40, "seed": 2,
                "delta_trials": 100}),
    # s = n-2t = 1: t1 = 0, so the lone corrupted party may abort
    ("compile", {"builtin": "or:3", "t": 1, "adv": "coin:1/2", "mc_trials": 200, "seed": 9}),
    # --q-expected below q: the one kind of config where a virtual-ring
    # round cap of 64*q_expected would sit below the engine's 64*q
    ("attack", {"protocol": "geom_halt:0.25", "n": 3, "t": 1, "variant": "expected",
                "q_expected": 2, "z": 8, "trials": 20, "seed": 13, "delta_trials": 100}),
    # the bias coalition at n > 3: two of six parties, attacked at t = 2
    ("coinflip", {"protocol": "fair_coin", "n": 6, "mode": "attack", "trials": 1000,
                  "seed": 6}),
    # a coin-free expected-variant attack whose phase 1 aborts: at q_expected
    # 1 the ring's round cap ends before echo_xor:8's far slot halts, so all
    # 50 trials abort and it exits 1 (digest recorded while every trial still
    # built its own phase 1)
    ("attack", {"protocol": "echo_xor:8", "n": 3, "t": 1, "trials": 50, "variant": "expected",
                "q_expected": 1, "z": 3, "seed": 2}),
]


PIN_IDS = [f"{kind}-{cfg.get('protocol') or cfg.get('builtin')}-{cfg.get('seed', 0)}"
           for kind, cfg in PINNED]


def _run(kind: str, config: dict, jobs: int) -> tuple[bytes, int]:
    """The report's bytes and the exit code of one experiment."""
    # a JSON copy, as bench/run.py passes it
    report, code, _csv = run_config(kind, json.loads(json.dumps(config)), jobs=jobs)
    return render_report(report), code


def _row(data: bytes, code: int) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest()}


def _problems(data: bytes, code: int) -> list[str]:
    return check(json.loads(data), code)


def reports(workload: str, seed: int, jobs: int = 1) -> dict[str, tuple[bytes, int]]:
    """`{"<workload>/<seed>/<name>": (report bytes, exit code)}` for one workload seed."""
    return {f"{workload}/{seed}/{name}": _run(kind, config, jobs)
            for name, kind, config in WORKLOADS.build(workload, seed)}


def digests(workload: str, seed: int, jobs: int = 1) -> dict[str, dict]:
    """`{"<workload>/<seed>/<name>": {"exit", "sha256"}}` for one workload seed."""
    return {key: _row(*run) for key, run in reports(workload, seed, jobs).items()}


def pin_digests(jobs: int = 1) -> dict[str, dict]:
    """`{"pins/<id>": {"exit", "sha256"}}` for every pinned config."""
    return {f"pins/{pin}": _row(*_run(kind, cfg, jobs))
            for pin, (kind, cfg) in zip(PIN_IDS, PINNED)}


def manifest() -> dict[str, dict]:
    return json.loads(MANIFEST.read_text())


def _select(rows: dict[str, dict], workload: str, seed: int) -> dict[str, dict]:
    prefix = f"{workload}/{seed}/"
    return {key: row for key, row in rows.items() if key.startswith(prefix)}


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_reports_keep_their_bytes(workload, seed):
    runs = reports(workload, seed)
    assert {key: _row(*run) for key, run in runs.items()} == _select(manifest(), workload, seed)
    assert [(key, problem) for key, run in runs.items() for problem in _problems(*run)] == []


@pytest.mark.parametrize("pin,kind,cfg", [(p, k, c) for p, (k, c) in zip(PIN_IDS, PINNED)],
                         ids=PIN_IDS)
def test_report_bytes_pinned(pin, kind, cfg):
    run = _run(kind, cfg, 1)
    assert _row(*run) == manifest()[f"pins/{pin}"]
    assert _problems(*run) == []


def test_pin_ids_are_unique():
    # pytest would rename a repeated id to ...-4_0 / ...-4_1, silently
    # renaming a pinned test, and the manifest would hold one row for both;
    # a new row needs a new kind, protocol or seed
    assert sorted(i for i in PIN_IDS if PIN_IDS.count(i) > 1) == []


def test_manifest_covers_exactly_the_benchmark_experiments():
    keys = {f"{w}/{s}/{name}" for w in WORKLOADS.WORKLOADS for s in SEEDS
            for name, _, _ in WORKLOADS.build(w, s)}
    assert set(manifest()) == keys | {f"pins/{pin}" for pin in PIN_IDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rewrite", action="store_true",
                        help="write the recomputed digests to the manifest")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    old = manifest() if MANIFEST.exists() else {}
    new = {}
    try:
        for workload in WORKLOADS.WORKLOADS:
            for seed in SEEDS:
                new.update(digests(workload, seed, args.jobs))
        new.update(pin_digests(args.jobs))
    finally:
        shutdown_pool()
    moved = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    for key in moved:
        print(f"{key}: {old.get(key)} -> {new.get(key)}")
    print(f"{len(moved)} of {len(new)} rows moved")
    if args.rewrite:
        lines = [f" {json.dumps(key)}: {json.dumps(new[key], sort_keys=True)}" for key in sorted(new)]
        MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
