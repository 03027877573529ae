"""Pinned report bytes: refactors of the engine must not move a single byte.

Each row is one experiment config and the sha256 of its rendered report.
The first attack, the const:1 coinflip attack and the xor_exchange
consistency rows are the configs of acceptance criterion c10; the rest cover
every subcommand, fused groups of three (or_exchange at n=9, t=3), the
expected-round attack variant, a coin-free attack whose phase 1 aborts and a
coin-flip attack at n=6. A changed
digest means the reports changed: that has to be a deliberate, documented
decision, never a side effect.
"""

import hashlib

import pytest

from ringbreak.cli import run_config
from ringbreak.reports import render_report

PINNED = [
    ("attack", {"protocol": "echo_xor:2", "n": 3, "t": 1, "trials": 60, "seed": 5,
                "delta_trials": 100},
     "ce99c41ea8fcd82618cfcfb28517598b927fc48c723c4ee6e5bf0ab8a3447b63"),
    ("attack", {"protocol": "or_exchange", "n": 9, "t": 3, "trials": 20, "seed": 3,
                "delta_trials": 100},
     "0d9f199190cf01d6917640aa9fb938d512908fcae0482a0240872e8414f694ea"),
    ("attack", {"protocol": "geom_halt:0.25", "n": 3, "t": 1, "variant": "expected",
                "z": 8, "trials": 20, "seed": 4, "delta_trials": 100},
     "45f95c7c8f5e69320072522170a9a2e458c8555d9c4b28df884a85129663f19e"),
    ("dominance", {"builtin": "thresh:2:4", "t": 2, "collapse_m": 1},
     "2980bcf8d76b4ed26521e3ce80872ba8b2fd5c0410d69ec6e3b17cddf3e696a2"),
    ("coinflip", {"protocol": "const:1", "mode": "attack", "trials": 1000, "seed": 6},
     "9df9f8ccddbf299d16144d0ea73f4901387d54c89e0045fb9a0e40510957e6e3"),
    ("coinflip", {"protocol": "fair_coin", "mode": "verify", "kappa": 4, "trials": 1000,
                  "delta_trials": 100, "seed": 8},
     "c2343624b2514102cf958a689823819229b53289bfd8fca77271f9d844deddcd"),
    # distance_ci[1] is the exactly rounded 0.045784249020781466; before
    # statistical_distance used fsum it also read ...46 under some hash seeds
    ("coinflip", {"protocol": "fair_coin", "mode": "honest", "trials": 1000, "seed": 12},
     "d1b6c8c4d8289f1be921aa4ef0bad90710656c04a03d0895b12e39fd98b01114"),
    ("compile", {"builtin": "thresh:2:6", "t": 2, "adv": "coin:1/2", "mc_trials": 200,
                 "seed": 9},
     "e42af3fbc20cbc8e9eb6de33f095bc02adc288e7ae5bed4b17130f49bfbf2cb8"),
    ("consistency", {"protocol": "xor_exchange", "trials": 120, "seed": 7},
     "4d1460da073a1fea309b94737578c9f6f1ea26ad5d9dd7f629b26a30ecc66da8"),
    ("consistency", {"protocol": "echo_xor:2", "trials": 100, "seed": 11},
     "55ce8fdc69e2a8c7660bbf1b7b3cb0ac2392a3b413a33fb27d265d8f511e3fda"),
    ("validate", {"protocol": "echo_xor:2", "trials": 5, "seed": 2},
     "ed35587e0e6ba7c90eadb70c0435d3a4777aa328b70fa9ef95521c866842450b"),
    ("validate", {"protocol": "fair_coin", "trials": 10, "seed": 2},
     "f39c5ee6c9667db30cc3218f8b27a6afc60612ecdf5230c980a2ff2dfb435c38"),
    # a strict attack at n=3 on a protocol that reads coins: phase 1 runs on
    # the protocol itself, so its coins carry no fused member sub-label
    ("attack", {"protocol": "fair_coin", "n": 3, "t": 1, "trials": 40, "seed": 2,
                "delta_trials": 100},
     "3c2dba4e8bc364be5b2bf637dac304dff97aa198102c54a2d4360f67f224a9ac"),
    # s = n-2t = 1: t1 = 0, so the lone corrupted party may abort
    ("compile", {"builtin": "or:3", "t": 1, "adv": "coin:1/2", "mc_trials": 200, "seed": 9},
     "223ffd65f69cab835668f3dc08d5529a9f89d11e351ca60d04c0f1d92b3fa42d"),
    # --q-expected below q: the one kind of config where a virtual-ring
    # round cap of 64*q_expected would sit below the engine's 64*q
    ("attack", {"protocol": "geom_halt:0.25", "n": 3, "t": 1, "variant": "expected",
                "q_expected": 2, "z": 8, "trials": 20, "seed": 13, "delta_trials": 100},
     "1abaa2e3c9a382e9334513e822bd1c59328676a79155aa7efc2412ccd7ab9b8c"),
    # the bias coalition at n > 3: two of six parties, attacked at t = 2
    ("coinflip", {"protocol": "fair_coin", "n": 6, "mode": "attack", "trials": 1000,
                  "seed": 6},
     "37ba5b085706cecf20ab4eec2b6157734f566840ad58dc323262f4246a49ab2c"),
    # a coin-free expected-variant attack whose phase 1 aborts: at q_expected
    # 1 the ring's round cap ends before echo_xor:8's far slot halts, so all
    # 50 trials abort and it exits 1 (digest recorded while every trial still
    # built its own phase 1)
    ("attack", {"protocol": "echo_xor:8", "n": 3, "t": 1, "trials": 50, "variant": "expected",
                "q_expected": 1, "z": 3, "seed": 2},
     "baa32eb8374fdbcf14590766a2c35c1c74c3fce89b689b8ce1d141ad9a47a92e"),
]


IDS = [f"{kind}-{cfg.get('protocol') or cfg.get('builtin')}-{cfg.get('seed', 0)}"
       for kind, cfg, _ in PINNED]


def test_pin_ids_are_unique():
    # pytest would rename a repeated id to ...-4_0 / ...-4_1, silently
    # renaming a pinned test; a new row needs a new kind, protocol or seed
    assert sorted(i for i in IDS if IDS.count(i) > 1) == []


@pytest.mark.parametrize("kind,cfg,digest", PINNED, ids=IDS)
def test_report_bytes_pinned(kind, cfg, digest):
    report, _code, _csv = run_config(kind, dict(cfg))
    assert hashlib.sha256(render_report(report)).hexdigest() == digest
