"""The benchmark's span shims must find every entry point they rebind.

`bench/spans.py` reads `owner.__dict__[attr]` for each row of its shim table,
so an entry point that moves to another module or class crashes
`bench/run.py --trace 1`. This test turns that crash into a tier-1 failure.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shim_target_is_defined_on_its_owner():
    rows = _load_spans()._shim_table()
    assert rows
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in rows if attr not in owner.__dict__]
    assert missing == []


def test_every_dominance_metric_has_a_value():
    # `bench/run.py --trace 1` formats every metric; a dominance metric with
    # no source would be null there
    from ringbreak.cli import run_config

    spans = _load_spans()
    with spans.traced(spans.Tracer()) as tracer:
        run_config("dominance", {"builtin": "thresh:2:6", "t": 2, "collapse_m": 2})
    metrics = spans.layer_metrics(tracer)
    dominance = {k: v for k, v in metrics.items() if k.startswith("dominance.")}
    assert len(dominance) >= 5
    assert [k for k, v in dominance.items() if v is None] == []


def _traced_run(kind, cfg):
    from ringbreak.cli import run_config

    spans = _load_spans()
    with spans.traced(spans.Tracer()) as tracer:
        report, _code, _csv = run_config(kind, cfg)
    return report, tracer.counters


def test_traced_attack_counts_reproduce_the_report():
    # the shims count online runs at cli.run_with_adversary and delta trials
    # at netsim.check_consistency; a hot path that bypasses either fails here
    report, c = _traced_run("attack", {"protocol": "echo_xor:2", "n": 3, "t": 1, "trials": 30,
                                       "seed": 5, "delta_trials": 100})
    assert report["success"] > 0 and report["delta_hat"] > 0
    assert (c["online_ran"], c["online_success"]) == (report["ran"], report["success"])
    assert c["inconsistent"] / c["consistency_checks"] == report["delta_hat"]


def test_traced_consistency_counts_reproduce_the_report():
    report, c = _traced_run("consistency", {"protocol": "echo_xor:2", "trials": 100, "seed": 11})
    assert report["pooled_failures"] > 0
    assert (c["consistency_checks"], c["inconsistent"]) == (report["pooled_trials"],
                                                            report["pooled_failures"])
