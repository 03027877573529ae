"""Every benchmark report keeps its bytes.

`report_digests.json` holds, for each experiment that
`bench/workloads.build(workload, seed)` lists at seeds 1 and 7, the sha256 of
the report `run_config` + `render_report` produce and its exit code. The test
recomputes every row at --jobs 1. A moved row means a report changed: that
has to be a deliberate, documented decision, and the manifest is rewritten
with it:

    PYTHONPATH=src python tests/test_report_digests.py [--rewrite] [--jobs N]

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


def digests(workload: str, seed: int, jobs: int = 1) -> dict[str, dict]:
    """`{"<workload>/<seed>/<name>": {"exit", "sha256"}}` for one workload seed."""
    rows = {}
    for name, kind, config in WORKLOADS.build(workload, seed):
        # a JSON copy, as bench/run.py passes it
        report, code, _csv = run_config(kind, json.loads(json.dumps(config)), jobs=jobs)
        rows[f"{workload}/{seed}/{name}"] = {
            "exit": code, "sha256": hashlib.sha256(render_report(report)).hexdigest()}
    return rows


def manifest() -> dict[str, dict]:
    return json.loads(MANIFEST.read_text())


def _select(rows: dict[str, dict], workload: str, seed: int) -> dict[str, dict]:
    prefix = f"{workload}/{seed}/"
    return {key: row for key, row in rows.items() if key.startswith(prefix)}


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
@pytest.mark.parametrize("seed", SEEDS)
def test_benchmark_reports_keep_their_bytes(workload, seed):
    assert digests(workload, seed) == _select(manifest(), workload, seed)


def test_manifest_covers_exactly_the_benchmark_experiments():
    keys = {f"{w}/{s}/{name}" for w in WORKLOADS.WORKLOADS for s in SEEDS
            for name, _, _ in WORKLOADS.build(w, s)}
    assert set(manifest()) == keys


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
