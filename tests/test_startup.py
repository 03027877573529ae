"""Only a dominance level build loads numpy.

Importing ringbreak and running the attack-side subcommands must not load
numpy, which costs about as much start-up time as all of ringbreak; the
dominance side loads it on its first level build. Each check runs in a fresh
interpreter, since this one has numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json, sys
import ringbreak, ringbreak.cli
from ringbreak.cli import run_config
loaded = {"import": "numpy" in sys.modules}
for kind, cfg in [
        ("attack", {"protocol": "echo_xor:2", "t": 1, "trials": 20, "seed": 1}),
        ("coinflip", {"protocol": "fair_coin", "mode": "honest", "trials": 1000, "seed": 1}),
        ("consistency", {"protocol": "xor_exchange", "trials": 100, "seed": 1}),
        ("validate", {"protocol": "geom_halt:0.25", "trials": 5, "seed": 1}),
        ("dominance", {"builtin": "xor:3", "t": 1})]:
    run_config(kind, cfg)
    loaded[kind] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_numpy_loads_only_for_a_level_build():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert json.loads(out.stdout) == {
        "import": False, "attack": False, "coinflip": False, "consistency": False,
        "validate": False, "dominance": True}
