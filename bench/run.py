#!/usr/bin/env python3
"""ringbreak benchmark: end-to-end and per-layer timings with output checks.

    python3 bench/run.py --workload ring-attack --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports ringbreak from `src/`.
Every experiment goes through `ringbreak.cli.run_config` and
`ringbreak.reports.render_report`, the path `ringbreak <cmd>` and
`ringbreak rerun` take. Workloads are in `workloads.py`; inputs come from
`--seed` only.

`--trace 0` measures the end-to-end metrics with tracing off. setup_s is the
median of several fresh interpreters that import ringbreak and build the
inputs. One iteration runs each experiment at --jobs 1 from its config, then
re-runs the report's embedded config at --jobs 2 (never more workers than
cores), so one byte comparison covers both the worker count and `rerun`. An
untimed warm-up iteration pins the reference report bytes; timed iterations
follow while the set-up, the warm-up and another iteration fit in --seconds.
Times are medians over the timed iterations.

`--trace 1` measures the per-layer metrics: a warm-up and one untraced
iteration as the reference, then a traced pass at --jobs 1 over the embedded
configs, with spans installed by `spans.py` from outside `src/`. The traced
reports must match the untraced bytes and the traced call counts must
reproduce the reports' success, ran and delta counts. Per-layer figures the
workload does not exercise (e.g. dominance on ring-attack) come from a small
fixed probe of that layer, marked "probe" in the results file.

Each run writes `.bench_results/<workload>-seed<seed>-trace<t>.json` with the
environment, every report's sha256 and every check; the last stdout line is
the JSON summary `{"correct", "attempted", "failed", "metrics"}`.
Exit status: 0 when a summary was printed, 2 when ringbreak cannot be
imported from this checkout or the arguments are bad.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 7
UNITS = {
    # end to end (--trace 0)
    "setup_s": "s", "wall_s": "s", "wall_s_jobs2": "s", "jobs2_speedup": "x",
    "peak_rss_mb": "MB",
    # per layer (--trace 1)
    "core.derive_seed_us": "us", "core.joint_sample_us": "us", "core.coin_read_us": "us",
    "netsim.run_honest_us": "us", "netsim.consistency_trial_us": "us",
    "netsim.rounds_per_run": "count", "netsim.messages_per_run": "count",
    "netsim.payload_bytes_per_run": "bytes",
    "ring.phase1_ms": "ms", "ring.phase1_iterations_mean": "count",
    "ring.attack_build_ms": "ms", "ring.online_run_ms": "ms", "ring.fused_run_us": "us",
    "ring.framing_overhead_us": "us",
    "cli.attack_serial_s": "s", "cli.attack_serial_share": "fraction",
    "cli.amdahl_bound_x": "x",
    "coinflip.measure_bias_trial_us": "us", "coinflip.pilot_ms": "ms",
    "coinflip.bias_attack_ms": "ms", "coinflip.bias_attempts": "count",
    "dominance.profile_ms": "ms", "dominance.collapse_ms": "ms",
    "dominance.classify_ms": "ms", "dominance.forced_value_calls": "count",
    "compiler.wrap_ms": "ms", "compiler.mc_trial_us": "us",
    "compiler.exhaustive_sweep_ms": "ms", "compiler.decisions_swept": "count",
    "reports.render_ms": "ms", "reports.report_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in
       ("cli", "core", "netsim", "ring", "coinflip", "dominance", "compiler", "reports")},
    "trace.overhead_s": "s",
}
# Framing probe: the ring-attack protocols run plain and fused, same inputs seed.
FRAMING_PROBE = (("echo_xor:2", 3, 1, 150), ("or_exchange", 9, 3, 40),
                 ("geom_halt:0.25", 3, 1, 150))


def import_ringbreak():
    """Import ringbreak from this checkout's src/, never from elsewhere."""
    if not (SRC / "ringbreak" / "__init__.py").is_file():
        raise ImportError(f"no ringbreak package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ringbreak
    if Path(ringbreak.__file__).resolve().parent != (SRC / "ringbreak").resolve():
        raise ImportError(f"ringbreak imported from {ringbreak.__file__}, not {SRC}")
    import ringbreak.cli
    import ringbreak.reports
    return ringbreak


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(args, jobs2: int) -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ringbreak").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "workload": args.workload,
            "seed": args.seed, "jobs": [1, jobs2], "trace": args.trace,
            "seconds": args.seconds}


def measure_setup(args) -> list[float]:
    """Fresh interpreter -> ringbreak imported and inputs built, several times.
    One untimed start first, so every timed one finds the bytecode cache."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-400:]}")
        if i:
            times.append(elapsed)
    return times


class Experiment:
    """One config of the workload and everything checked about it."""

    def __init__(self, name: str, kind: str, config: dict):
        self.name, self.kind, self.config = name, kind, config
        self.embedded: dict | None = None   # the jobs-1 report's resolved config
        self.report: dict | None = None
        self.data: bytes | None = None
        self.code: int | None = None
        self.failures: list[str] = []
        self.seconds: dict[str, list[float]] = {"jobs1": [], "jobs2": []}

    def record(self) -> dict:
        return {"name": self.name, "kind": self.kind, "exit_code": self.code,
                "sha256": hashlib.sha256(self.data).hexdigest() if self.data else None,
                "report_bytes": len(self.data) if self.data else None,
                "seconds": self.seconds, "failures": self.failures}


def run_one(kind: str, config: dict, jobs: int) -> tuple[dict, int, bytes, float]:
    """One experiment through run_config and render_report, timed."""
    from ringbreak import cli, reports
    t0 = time.perf_counter()
    report, code, _ = cli.run_config(kind, config, jobs=jobs)
    data = reports.render_report(report)
    return report, code, data, time.perf_counter() - t0


def checked_run(exp: Experiment, config: dict, jobs: int, label: str):
    """run_one, with a raise or a usage exit recorded as the experiment failing."""
    from ringbreak.core import ConfigError
    try:
        report, code, data, seconds = run_one(exp.kind, json.loads(json.dumps(config)), jobs)
    except ConfigError as e:
        exp.failures.append(f"{label}: usage error (exit 2): {e}")
        return None
    except Exception:  # any other raise is a failed experiment, not a crashed bench
        exp.failures.append(f"{label}: raised\n{traceback.format_exc(limit=4)}")
        return None
    if code not in (0, 1):
        exp.failures.append(f"{label}: exit code {code}")
    return report, code, data, seconds


def iteration(exps: list[Experiment], jobs2: int) -> tuple[float, float, int]:
    """Every experiment at jobs 1, then its embedded config at jobs2.
    Returns (jobs-1 seconds, jobs-2 seconds, experiments failed)."""
    from checks import invariant_violations
    wall1 = wall2 = 0.0
    failed = 0
    for exp in exps:
        before = len(exp.failures)
        first = checked_run(exp, exp.config, 1, "jobs1")
        if first is not None:
            report, code, data, seconds = first
            wall1 += seconds
            exp.seconds["jobs1"].append(seconds)
            if exp.data is None:
                exp.report, exp.code, exp.data = report, code, data
                exp.embedded = report["config"]
                exp.failures += invariant_violations(exp.kind, report)
            elif data != exp.data or code != exp.code:
                exp.failures.append("jobs1: report differs from the previous iteration")
            second = checked_run(exp, exp.embedded, jobs2, f"jobs{jobs2}-rerun")
            if second is not None:
                _, code2, data2, seconds2 = second
                wall2 += seconds2
                exp.seconds["jobs2"].append(seconds2)
                if data2 != exp.data or code2 != exp.code:
                    exp.failures.append(
                        f"rerun of the embedded config at jobs {jobs2} gave other bytes")
        failed += len(exp.failures) > before
    return wall1, wall2, failed


# ------------------------------------------------------------ trace mode

def traced_pass(exps: list[Experiment], tracer) -> tuple[float, int]:
    """Every experiment's embedded config at jobs 1 with spans installed.
    Returns (seconds, experiments failed the cross-check)."""
    from ringbreak import cli, reports
    from spans import traced

    def experiment(kind: str, config: dict) -> tuple[dict, bytes]:
        report, _, _ = cli.run_config(kind, config, jobs=1)
        return report, reports.render_report(report)

    experiment = tracer.wrap(experiment, "experiment", "cli")  # root span per experiment
    failed = 0
    t_all = 0.0
    for exp in exps:
        if exp.embedded is None:
            continue
        before = dict(tracer.counters)
        aborted_from = len(tracer.values["attack_aborted"])
        with traced(tracer):
            t0 = time.perf_counter()
            try:
                report, data = experiment(exp.kind, json.loads(json.dumps(exp.embedded)))
            except Exception:
                exp.failures.append(f"traced: raised\n{traceback.format_exc(limit=4)}")
                failed += 1
                continue
            finally:
                t_all += time.perf_counter() - t0
        delta = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
        aborted = tracer.values["attack_aborted"][aborted_from:]
        problems = [] if data == exp.data else ["traced report bytes differ from untraced"]
        problems += cross_check(exp.kind, report, delta, aborted)
        if problems:
            exp.failures += [f"traced: {p}" for p in problems]
            failed += 1
    return t_all, failed


def cross_check(kind: str, rep: dict, c: dict, aborted: list) -> list[str]:
    """Counts seen at the shims must reproduce the report's own counts."""
    out = []

    def same(label, seen, reported):
        if seen != reported:
            out.append(f"{label}: traced {seen!r} != report {reported!r}")

    def delta(inconsistent, trials, reported):
        same("delta_hat", inconsistent / trials if trials else None, reported)

    if kind == "attack":
        same("ran", c.get("online_ran", 0), rep["ran"])
        same("success", c.get("online_success", 0), rep["success"])
        same("aborts", sum(aborted[:rep["trials"]]), rep.get("aborts", 0))
        delta(c.get("inconsistent", 0), c.get("consistency_checks", 0), rep["delta_hat"])
    elif kind == "consistency":
        same("pooled_failures", c.get("inconsistent", 0), rep["pooled_failures"])
        same("pooled_trials", c.get("consistency_checks", 0), rep["pooled_trials"])
    elif kind == "coinflip" and rep["mode"] == "verify":
        v = rep["verdict"]
        delta(c.get("inconsistent", 0), c.get("consistency_checks", 0), v["delta_hat"])
        if v["forced"] is not None:
            same("forced trials", c.get("bias_trials", 0), v["forced"]["trials"])
    elif kind == "coinflip" and rep["mode"] == "honest":
        same("trials", c.get("bias_trials", 0), rep["bias"]["trials"])
        same("engine runs", c.get("engine_runs", 0), rep["bias"]["trials"])
    elif kind == "compile" and rep.get("mc_trials"):
        same("mc_trials", c.get("mc_trials", 0), rep["mc_trials"])
    return out


def attack_serial(embedded: dict, delta_hat: float) -> tuple[float, str | None]:
    """cmd_attack's serial part, called directly: the trial-0 probe build and
    the delta estimate. Returns (seconds, mismatch message or None)."""
    from ringbreak.core import derive_seed
    from ringbreak.netsim import estimate_consistency
    from ringbreak.ring import attack_n_party, embedding_family
    from ringbreak.zoo import make_spec
    cfg = embedded
    spec = make_spec(cfg["protocol"], cfg["n"])
    t0 = time.perf_counter()
    probe = attack_n_party(spec, cfg["t"], tuple(cfg["corrupt"]),
                           derive_seed(cfg["seed"], "attack-trial", 0),
                           variant=cfg["variant"], q_expected=cfg["q_expected"], z=cfg["z"])
    m = probe.phase1.m
    trials = cfg["delta_trials"] or max(100, cfg["trials"] // (2 * m))
    rep = estimate_consistency(probe.fused_spec, embedding_family(probe.fused_spec, m),
                               trials, derive_seed(cfg["seed"], "delta"))
    seconds = time.perf_counter() - t0
    bad = None if rep.delta_hat == delta_hat else \
        f"direct delta estimate {rep.delta_hat} != report {delta_hat}"
    return seconds, bad


def framing_probe(seed: int) -> tuple[float, float]:
    """Mean microseconds of run_honest on the fused 3-party spec and on the
    plain spec of the same protocol, over the ring-attack protocols."""
    from ringbreak.core import JointInput, derive_seed
    from ringbreak.netsim import run_honest
    from ringbreak.ring import fuse_parties, partition_to_three
    from ringbreak.zoo import make_spec
    fused_s = plain_s = 0.0
    runs = 0
    for selector, n, t, count in FRAMING_PROBE:
        spec = make_spec(selector, n)
        s = 1 if 2 * t >= n else n - 2 * t
        fused = fuse_parties(spec, partition_to_three(n, t, range(n - s, n)))
        for i in range(count):
            rseed = derive_seed(seed, "framing", selector, i)
            plain_in, fused_in = JointInput.sample(spec, rseed), JointInput.sample(fused, rseed)
            t0 = time.perf_counter()
            run_honest(spec, plain_in, rseed)
            t1 = time.perf_counter()
            run_honest(fused, fused_in, rseed)
            fused_s += time.perf_counter() - t1
            plain_s += t1 - t0
            runs += 1
    return fused_s / runs * 1e6, (fused_s - plain_s) / runs * 1e6


def layer_probes(seed: int) -> dict[str, list[tuple]]:
    """Small fixed experiments per layer, for figures a workload never exercises."""
    s = lambda label: workloads.sub_seed("probe", seed, label)  # noqa: E731
    attack = [("probe-attack", "attack",
               {"protocol": "echo_xor:2", "n": 3, "t": 1, "trials": 200, "seed": s("attack")})]
    tables = workloads.random_tables(s("tables"), count=6, ternary=0)
    return {
        "core": attack, "netsim": attack, "ring": attack, "cli": attack,
        "coinflip": [("probe-coinflip", "coinflip",
                      {"protocol": "fair_coin", "mode": "verify", "trials": 1000,
                       "delta_trials": 100, "seed": s("coinflip")})],
        "dominance": [(f"probe-dominance-{t['name']}", "dominance",
                       {"table_data": t, "t": -(-t["n"] // 3), "collapse_m": 2})
                      for t in tables],
        "compiler": [("probe-compile", "compile",
                      {"builtin": "thresh:3:9", "t": 3, "adv": "coin:1/2",
                       "mc_trials": 2000, "seed": s("compile")})],
    }


def run_trace(args, exps: list[Experiment], jobs2: int, result: dict) -> dict:
    from spans import Tracer, layer_metrics
    failed = iteration(exps, jobs2)[2]  # warm-up; pins the reference report bytes
    wall1, _, failed_again = iteration(exps, jobs2)
    tracer = Tracer()
    traced_s, failed_traced = traced_pass(exps, tracer)
    result["attempted"] = 3 * len(exps)
    result["failed"] = failed + failed_again + failed_traced

    probes = layer_probes(args.seed)
    probed: dict[str, tuple[list[Experiment], dict]] = {}

    def probe(layer: str) -> tuple[str, list[Experiment], dict]:
        key = probes[layer][0][0]
        if key not in probed:
            pexps = [Experiment(*p) for p in probes[layer]]
            iteration(pexps, jobs2)
            ptracer = Tracer()
            traced_pass(pexps, ptracer)
            probed[key] = (pexps, layer_metrics(ptracer))
            result["attempted"] += 2 * len(pexps)
        return key, *probed[key]

    metrics = layer_metrics(tracer)
    source = {k: "workload" for k, v in metrics.items() if v is not None}
    for name in [k for k, v in metrics.items() if v is None]:
        key, _, pmetrics = probe(name.split(".")[0])
        metrics[name] = pmetrics[name]
        source[name] = f"probe:{key}"

    # serial share of the attack path and the Amdahl bound it implies
    attacks = [e for e in exps if e.kind == "attack" and e.embedded is not None]
    if attacks:
        serial_source = "direct"
    else:
        key, attacks, _ = probe("cli")
        serial_source = f"probe:{key}"
    serial = 0.0
    for exp in attacks:
        seconds, bad = attack_serial(exp.embedded, exp.report["delta_hat"])
        serial += seconds
        if bad:
            exp.failures.append(f"serial: {bad}")
    attack_j1 = sum(statistics.median(e.seconds["jobs1"]) for e in attacks)
    attack_j2 = sum(statistics.median(e.seconds["jobs2"]) for e in attacks)
    share = serial / attack_j1
    amdahl = 1.0 / (share + (1.0 - share) / jobs2)
    metrics["cli.attack_serial_s"] = serial
    metrics["cli.attack_serial_share"] = share
    metrics["cli.amdahl_bound_x"] = amdahl
    for k in ("cli.attack_serial_s", "cli.attack_serial_share", "cli.amdahl_bound_x"):
        source[k] = serial_source
    probe_exps = [e for pexps, _ in probed.values() for e in pexps]
    result["failed"] += sum(bool(e.failures) for e in probe_exps)
    result["failed"] += sum(any(f.startswith("serial:") for f in e.failures) for e in exps)

    fused_us, framing_us = framing_probe(args.seed)
    metrics["ring.fused_run_us"] = fused_us
    metrics["ring.framing_overhead_us"] = framing_us
    source["ring.fused_run_us"] = source["ring.framing_overhead_us"] = "direct"

    metrics["trace.overhead_s"] = traced_s - wall1
    source["trace.overhead_s"] = "workload"
    result["span_count"] = len(tracer)

    print(f"amdahl: attack serial share {share:.3f} ({serial:.3f} s of {attack_j1:.3f} s "
          f"at jobs 1, {serial_source}) bounds the {jobs2}-worker speedup at {amdahl:.2f}x; "
          f"measured jobs{jobs2}_speedup {attack_j1 / attack_j2:.2f}x")
    print(f"trace: traced pass {traced_s:.3f} s vs untraced {wall1:.3f} s "
          f"({len(tracer)} spans)")
    result["amdahl"] = {"serial_s": serial, "serial_share": share, "workers": jobs2,
                        "bound_x": amdahl, "jobs1_s": attack_j1, "jobs2_s": attack_j2,
                        "measured_speedup_x": attack_j1 / attack_j2}
    result["span_table"] = tracer.table()
    result["metric_source"] = source
    result["probes"] = [e.record() for e in probe_exps]
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-spans.npz"
    tracer.save(spans_path)
    result["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics


def run_end_to_end(args, exps: list[Experiment], jobs2: int, result: dict) -> dict:
    t_start = time.perf_counter()
    setup = measure_setup(args)
    walls1, walls2 = [], []
    # the first iteration only warms caches and pins the reference report bytes
    failed = iteration(exps, jobs2)[2]
    attempted = len(exps)
    while True:
        t0 = time.perf_counter()
        w1, w2, f = iteration(exps, jobs2)
        walls1.append(w1)
        walls2.append(w2)
        failed += f
        attempted += len(exps)
        last = time.perf_counter() - t0
        if time.perf_counter() - t_start + last > args.seconds:
            break
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(attempted=attempted, failed=failed, iterations=len(walls1),
                  setup_runs_s=setup, wall_s_runs=walls1, wall_s_jobs2_runs=walls2)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls1),
        "wall_s_jobs2": statistics.median(walls2),
        "jobs2_speedup": statistics.median(a / b for a, b in zip(walls1, walls2)),
        # own peak plus the largest child's (pool workers, setup interpreters)
        "peak_rss_mb": (self_kb + child_kb) / 1024.0,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        import_ringbreak()
    except ImportError as e:
        print(f"bench: cannot import ringbreak from this checkout: {e}", file=sys.stderr)
        return 2
    exps = [Experiment(*e) for e in workloads.build(args.workload, args.seed)]
    if args.setup_probe:
        return 0

    jobs2 = min(2, nproc())
    result: dict = {"environment": environment(args, jobs2)}
    t0 = time.perf_counter()
    if args.trace:
        metrics = run_trace(args, exps, jobs2, result)
    else:
        metrics = run_end_to_end(args, exps, jobs2, result)
    result["elapsed_s"] = time.perf_counter() - t0

    for exp in exps:
        rec = exp.record()
        flag = "FAILED " + "; ".join(exp.failures) if exp.failures else "ok"
        print(f"experiment {exp.name}: exit {rec['exit_code']} sha256 {rec['sha256']} {flag}")
    units = {k: UNITS[k] for k in metrics}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    correct = result["failed"] == 0 and all(v is not None for v in metrics.values())
    summary = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    result["experiments"] = [e.record() for e in exps]
    result["summary"] = summary
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"results: {out.relative_to(ROOT)}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
