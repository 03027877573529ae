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
