"""Spans around ringbreak's public entry points, installed from outside.

`traced(tracer)` rebinds each entry point at the names its callers look it up
by (for example `ringbreak.cli.attack_n_party` and
`ringbreak.ring.phase1_strict`) and restores them on exit; nothing under
`src/` changes. A span records name, layer, start, end and the span that
caused it. Spans stay in flat in-memory arrays until the run ends.
`layer_metrics` turns them into the per-layer metrics; per-call figures count
only the outermost span when an entry point calls itself through another
shimmed name (e.g. `CoinStream.uniform` -> `u64` -> `read`).
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import fmean

import numpy as np

LAYERS = ("cli", "core", "netsim", "ring", "coinflip", "dominance", "compiler", "reports")


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.kinds: list[tuple[str, str]] = []  # span kind id -> (name, layer)
        self._kind_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.values: defaultdict[str, list] = defaultdict(list)
        self.sums: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []   # open span indices
        self._stack_kind: list[int] = []

    def kind_id(self, name: str, layer: str) -> int:
        if name not in self._kind_ids:
            self._kind_ids[name] = len(self.kinds)
            self.kinds.append((name, layer))
        return self._kind_ids[name]

    def wrap(self, fn, name: str, layer: str, observe=None):
        """`fn` recorded as a span; `observe(tracer, args, kwargs, result, seconds)`
        runs after each outermost call, with result None when the call raised."""
        kid = self.kind_id(name, layer)
        stack, stack_kind = self._stack, self._stack_kind
        kinds, parents, starts, ends = self.kind, self.parent, self.start, self.end
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if stack_kind and stack_kind[-1] == kid:
                return fn(*args, **kwargs)
            idx = len(kinds)
            kinds.append(kid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            stack_kind.append(kid)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                stack_kind.pop()
                starts[idx] = t0
                ends[idx] = t1
                if observe is not None:
                    observe(self, args, kwargs, out, t1 - t0)

        return shim

    def count(self, fn, observe):
        """`fn` with a counter hook only: for calls too frequent to be spans."""
        def shim(*args, **kwargs):
            out = fn(*args, **kwargs)
            observe(self, args, kwargs, out)
            return out

        return shim

    def __len__(self) -> int:
        return len(self.kind)

    def table(self) -> dict:
        """Per span name: calls, total and self seconds (self = duration minus
        the part of it covered by child spans)."""
        if not len(self):
            return {}
        kind = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(kind))
        selft = dur - child
        k = len(self.kinds)
        calls = np.bincount(kind, minlength=k)
        total = np.bincount(kind, weights=dur, minlength=k)
        own = np.bincount(kind, weights=selft, minlength=k)
        return {name: {"layer": layer, "calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, (name, layer) in enumerate(self.kinds) if calls[i]}

    def save(self, path) -> None:
        """Every span (kind index, parent index, start, end) plus the kind names."""
        np.savez_compressed(
            path, kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            names=np.array([f"{layer}/{name}" for name, layer in self.kinds]))


# ------------------------------------------------------------------ hooks

# Span hooks see result None when the call raised; only _on_measure_bias,
# which counts the trials requested, acts on such calls.

def _on_engine_run(tr, args, kwargs, res, _s):
    if res is None:
        return
    tr.counters["engine_runs"] += 1
    tr.counters["rounds"] += res.rounds


def _on_route(tr, args, kwargs, _out):
    tr.counters["messages"] += 1
    tr.counters["payload_bytes"] += len(args[3])


def _on_check_consistency(tr, args, kwargs, consistent):
    tr.counters["consistency_checks"] += 1
    if not consistent:
        tr.counters["inconsistent"] += 1


def _on_estimate(tr, args, kwargs, rep, _s):
    if rep is not None:
        tr.counters["delta_trials"] += rep.pooled_trials


def _on_phase1(tr, args, kwargs, res, _s):
    if res is not None:
        tr.values["phase1_iterations"].append(res.iterations_used)


def _on_cli_attack_build(tr, args, kwargs, atk, _s):
    if atk is not None:
        tr.values["attack_aborted"].append(atk.phase1.aborted)


def _on_cli_online(tr, args, kwargs, res, _s):
    # an attack trial succeeds when every honest output is the pre-announced y*
    if res is None:
        return
    tr.counters["online_ran"] += 1
    if all(o == res.pre_announced for o in res.honest_outcomes()):
        tr.counters["online_success"] += 1


def _on_measure_bias(tr, args, kwargs, _rep, _s):
    # measure_bias(spec, adversary, trials, seed, ...) raises when no run was
    # consistent, after doing all of its trials
    tr.counters["bias_trials"] += args[2]


def _on_bias_attack(tr, args, kwargs, res, _s):
    if res is not None:
        tr.values["bias_attempts"].append(res.attempts)


def _on_forced_value(tr, args, kwargs, _out):
    tr.counters["forced_value_calls"] += 1


def _on_compare(tr, args, kwargs, rep, seconds):
    if rep is not None and rep.method == "monte-carlo":
        tr.counters["mc_trials"] += rep.trials
        tr.sums["mc_s"] += seconds


def _on_render(tr, args, kwargs, data, _s):
    if data is not None:
        tr.values["report_bytes"].append(len(data))


def _shim_table():
    """(owner, attribute, span name or None for a counter, layer, hook)."""
    import ringbreak.cli as cli
    import ringbreak.coinflip as coinflip
    import ringbreak.compiler as compiler
    import ringbreak.core as core
    import ringbreak.dominance as dominance
    import ringbreak.netsim as netsim
    import ringbreak.reports as reports
    import ringbreak.ring as ring

    rows = [(m, "derive_seed", "derive_seed", "core", None)
            for m in (cli, netsim, ring, coinflip, compiler, core)]
    rows += [(core.JointInput, "sample", "joint_sample", "core", None)]
    rows += [(core.CoinStream, a, "coin_read", "core", None)
             for a in ("read", "byte", "bit", "u64", "uniform")]
    rows += [
        (netsim, "_execute", "engine_run", "netsim", _on_engine_run),
        (netsim, "_route_check", None, "netsim", _on_route),
        (netsim, "check_consistency", None, "netsim", _on_check_consistency),
        (ring, "run_honest", "run_honest", "netsim", None),
        (coinflip, "run_honest", "run_honest", "netsim", None),
        (netsim, "run_with_adversary", "run_with_adversary", "netsim", None),
        (cli, "run_with_adversary", "online_run", "netsim", _on_cli_online),
        (coinflip, "run_with_adversary", "online_run", "netsim", None),
        (cli, "estimate_consistency", "estimate_consistency", "netsim", _on_estimate),
        (coinflip, "estimate_consistency", "estimate_consistency", "netsim", _on_estimate),
        (ring, "phase1_strict", "phase1", "ring", _on_phase1),
        (coinflip, "phase1_strict", "phase1", "ring", _on_phase1),
        (ring, "phase1_expected", "phase1", "ring", _on_phase1),
        (cli, "attack_n_party", "attack_build", "ring", _on_cli_attack_build),
        (coinflip, "attack_n_party", "attack_build", "ring", None),
        (ring.VirtualRing, "step", "virtual_ring_step", "ring", None),
        (ring.FusedProgram, "step", "fused_step", "ring", None),
        (cli, "measure_bias", "measure_bias", "coinflip", _on_measure_bias),
        (coinflip, "measure_bias", "measure_bias", "coinflip", _on_measure_bias),
        (coinflip, "pilot_polarity", "pilot", "coinflip", None),
        (cli, "bias_attack", "bias_attack", "coinflip", _on_bias_attack),
        (coinflip, "bias_attack", "bias_attack", "coinflip", _on_bias_attack),
        (cli, "verify_no_nontrivial_bias", "verify_bias", "coinflip", None),
        (cli, "dominance_profile", "profile", "dominance", None),
        (cli, "verify_weak_implies_strong", "collapse", "dominance", None),
        (cli, "classify", "classify", "dominance", None),
        (dominance, "forced_value", None, "dominance", _on_forced_value),
        (cli, "wrap_dominated", "wrap", "compiler", None),
        (compiler, "wrap_dominated", "wrap", "compiler", None),
        (cli, "compare_real_ideal", "compare", "compiler", _on_compare),
        (cli, "enumerate_decisions", "enumerate_decisions", "compiler", None),
        (compiler.WrappedProtocol, "run_decision", "run_decision", "compiler", None),
        (reports, "render_report", "render", "reports", _on_render),
    ]
    return rows


@contextmanager
def traced(tracer: Tracer):
    """Install every shim for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attr, name, layer, hook in _shim_table():
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = (tracer.count(fn, hook) if name is None
                   else tracer.wrap(fn, name, layer, hook))
            saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(new) if isinstance(raw, staticmethod) else new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# ---------------------------------------------------------------- metrics

def _sweep(tracer: Tracer) -> tuple[float, int, int]:
    """Exhaustive wrapper sweep in cmd_compile: enumerate_decisions plus the
    run_decision calls made directly under the experiment root (the ones under
    compare_real_ideal belong to the real-vs-ideal comparison instead).
    Returns (seconds, decisions, sweeps)."""
    ids = tracer._kind_ids
    if "experiment" not in ids or "run_decision" not in ids:
        return 0.0, 0, 0
    kind = np.frombuffer(tracer.kind, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    parent_kind = np.full(len(kind), -1, dtype=np.int32)
    parent_kind[has_parent] = kind[parent[has_parent]]
    root = parent_kind == ids["experiment"]
    decisions = root & (kind == ids["run_decision"])
    enum = root & (kind == ids.get("enumerate_decisions", -2))
    sweeps = len(np.unique(parent[decisions]))
    return float(dur[decisions].sum() + dur[enum].sum()), int(decisions.sum()), sweeps


def layer_metrics(tracer: Tracer) -> dict[str, float | None]:
    """Per-layer metrics measurable from spans; None where the pass made no
    call that measures it."""
    tab = tracer.table()
    c = tracer.counters

    def mean_of(name, scale):
        row = tab.get(name)
        return row["total_s"] / row["calls"] * scale if row else None

    def per(total, n, scale=1.0):
        return total / n * scale if n else None

    def total_of(name):
        return tab[name]["total_s"] if name in tab else 0.0

    sweep_s, decisions, sweeps = _sweep(tracer)
    v = tracer.values
    out = {
        "core.derive_seed_us": mean_of("derive_seed", 1e6),
        "core.joint_sample_us": mean_of("joint_sample", 1e6),
        "core.coin_read_us": mean_of("coin_read", 1e6),
        "netsim.run_honest_us": mean_of("run_honest", 1e6),
        "netsim.consistency_trial_us": per(total_of("estimate_consistency"),
                                           c["delta_trials"], 1e6),
        "netsim.rounds_per_run": per(c["rounds"], c["engine_runs"]),
        "netsim.messages_per_run": per(c["messages"], c["engine_runs"]),
        "netsim.payload_bytes_per_run": per(c["payload_bytes"], c["engine_runs"]),
        "ring.phase1_ms": mean_of("phase1", 1e3),
        "ring.phase1_iterations_mean": fmean(v["phase1_iterations"])
        if v["phase1_iterations"] else None,
        "ring.attack_build_ms": mean_of("attack_build", 1e3),
        "ring.online_run_ms": mean_of("online_run", 1e3),
        "coinflip.measure_bias_trial_us": per(total_of("measure_bias"), c["bias_trials"], 1e6),
        "coinflip.pilot_ms": mean_of("pilot", 1e3),
        "coinflip.bias_attack_ms": mean_of("bias_attack", 1e3),
        "coinflip.bias_attempts": fmean(v["bias_attempts"]) if v["bias_attempts"] else None,
        "dominance.profile_ms": mean_of("profile", 1e3),
        "dominance.collapse_ms": mean_of("collapse", 1e3),
        "dominance.classify_ms": mean_of("classify", 1e3),
        "dominance.forced_value_calls": c["forced_value_calls"] or None,
        "compiler.wrap_ms": mean_of("wrap", 1e3),
        "compiler.mc_trial_us": per(tracer.sums["mc_s"], c["mc_trials"], 1e6),
        "compiler.exhaustive_sweep_ms": per(sweep_s, sweeps, 1e3),
        "compiler.decisions_swept": per(decisions, sweeps),
        "reports.render_ms": mean_of("render", 1e3),
        "reports.report_bytes": fmean(v["report_bytes"]) if v["report_bytes"] else None,
    }
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    touched = set()
    for row in tab.values():
        self_by_layer[row["layer"]] += row["self_s"]
        touched.add(row["layer"])
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_by_layer[layer] if layer in touched else None
    return out
