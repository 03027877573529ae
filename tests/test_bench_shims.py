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
