"""Planted defects: each one is applied with monkeypatch to a single function,
and a semantic check (never a report digest) must fail under it.

Rows so far: a dominance level that drops its last k-set, and one that marks
an unforced row as forced. The deciders' witness recheck reads the table
without the level, so both must end in an AssertionError. The regime rule
without its t >= n/2 branch must break the regime grid and c07's or4@(4,2)
verdict. An attack verdict that always holds, and a ring penalty halved, must
break the verdict's fixed-count unit test. fair_coin wrongly declared
coin_free must fail `validate_spec` and make its ring attack exit 1, rather
than let one phase-1 run stand in for every trial's. The consistency probe,
which reads its seed, wrongly declared context_free must make `consistency`
exit 1 through its sealed context, rather than let one probe run stand in for
every trial with the same honest inputs.

The ring simulator's rows: skipping its inbox reordering must break phase 1's
light-cone comparison; a bridge that drops each round's first message to the
real parties must break c03 and the view coupling with a true ring; an inbox
keyed by the sender's slot instead of its role, for simulated or for fed
real senders, must break the attack bridge's light-cone comparison, whose
reference relabels slots on its own. An attack whose exit code ignores its
verdict must be caught by the report checker.
"""

import inspect
import json
import textwrap
from dataclasses import replace

import pytest
import test_acceptance
import test_ring
from report_checks import check

import ringbreak.cli as cli
import ringbreak.dominance as dominance
import ringbreak.ring as ring
import ringbreak.stats as stats
import ringbreak.zoo as zoo
from ringbreak.cli import main
from ringbreak.reports import render_report
from ringbreak.dominance import (CONDITIONAL, classify, is_k_dominated, is_weakly_k_dominated,
                                 or_table, xor_table)
from ringbreak.netsim import validate_spec
from support import attack_verdict_disagreements, or_refusal, table_regime_disagreements


def drop_last_set(level):
    return replace(level, subsets=level.subsets[:-1], first=level.first[:-1],
                   dims=level.dims[:-1])


def force_unforced(level):
    # claim that assignment 0 of every set forces every code it does not
    first = level.first.copy()
    first[first == dominance._UNFORCED] = 0
    return replace(level, first=first)


# (defect, table, k): the unplanted deciders find a witness for or3 at k=2;
# xor3 has none at k=2, so only a planted defect can produce one
DEFECTS = [
    (drop_last_set, or_table, 2),
    (force_unforced, xor_table, 2),
]


@pytest.mark.parametrize("defect, make_table, k", DEFECTS,
                         ids=[d.__name__ for d, *_ in DEFECTS])
@pytest.mark.parametrize("decider", [is_weakly_k_dominated, is_k_dominated],
                         ids=["weak", "strong"])
def test_broken_level_trips_the_witness_recheck(monkeypatch, defect, make_table, k, decider):
    real = dominance._build_level
    monkeypatch.setattr(dominance, "_build_level", lambda f, k: defect(real(f, k)))
    with pytest.raises(AssertionError):
        decider(make_table(3), k)


def test_rule_without_its_dishonest_majority_branch(monkeypatch):
    real = dominance.coalition_size

    def honest_majority_everywhere(n, t):
        real(n, t)  # same refusals
        return n - 2 * t

    monkeypatch.setattr(dominance, "coalition_size", honest_majority_everywhere)
    assert table_regime_disagreements() != []
    assert or_refusal(lambda: classify(or_table(4), 4, 2).verdict) != CONDITIONAL


def test_attack_verdict_always_holds(monkeypatch):
    real = stats.attack_verdict
    monkeypatch.setattr(stats, "attack_verdict",
                        lambda *counts: replace(real(*counts), bound_holds=True))
    assert attack_verdict_disagreements() != []


def test_halved_ring_penalty(monkeypatch):
    real = stats.ring_penalty
    monkeypatch.setattr(stats, "ring_penalty", lambda m, delta_hat: real(m, delta_hat) / 2)
    assert attack_verdict_disagreements() != []


def test_coin_reader_declared_coin_free(monkeypatch, capsys):
    real = zoo.make_fair_coin
    monkeypatch.setitem(zoo.ZOO, "fair_coin", ((), lambda n: replace(real(n), coin_free=True)))
    report = validate_spec(zoo.make_spec("fair_coin", 3), trials=3, seed=1)
    assert report.violations and "declared coin_free" in report.violations[0]
    assert main(["attack", "--protocol", "fair_coin", "--n", "3", "--t", "1", "--seed", "1"]) == 1
    assert "fair_coin: declared coin_free" in capsys.readouterr().err


def test_seed_reader_declared_context_free(monkeypatch, capsys):
    monkeypatch.setattr(ring.NeighborEmbeddingAdversary, "context_free", True)
    assert main(["consistency", "--protocol", "echo_xor:2", "--trials", "100", "--seed", "1"]) == 1
    assert "NeighborEmbeddingAdversary: declared context_free" in capsys.readouterr().err


def rewritten(func, old: str, new: str):
    """`func` compiled again from its source with the one occurrence of
    `old` replaced by `new`: a defect planted in a single line."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    scope: dict = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(func), "exec"),
         func.__globals__, scope)
    return scope[func.__name__]


def test_inboxes_left_out_of_slot_order(monkeypatch):
    real = ring._lag_layers

    def no_out_of_order(size, external, observed):
        layers, _ = real(size, external, observed)
        return layers, tuple(() for _ in layers)

    monkeypatch.setattr(ring, "_lag_layers", no_out_of_order)
    with pytest.raises(AssertionError):
        test_ring.TestLightCone().test_phase1_matches_full_ring()


def test_bridge_drops_its_first_message(monkeypatch):
    real = ring.RingBridge.step

    def drop_first(self, vring, round_no, inbound):
        vring, outbound = real(self, vring, round_no, inbound)
        return vring, dict(list(outbound.items())[1:])

    monkeypatch.setattr(ring.RingBridge, "step", drop_first)
    monkeypatch.setattr(test_acceptance, "ACCEPTANCE_LINES", [])
    with pytest.raises(AssertionError):
        test_acceptance.test_c03_strict_attack_success_bound()
    with pytest.raises(AssertionError):
        test_ring.TestEmbedding().test_view_coupling_with_true_ring()


@pytest.mark.parametrize("line", ["nxt.setdefault(dst, {})[src % 3]",
                                  "boxes.setdefault(dst, {})[src % 3]"],
                         ids=["simulated", "fed"])
def test_inbox_keyed_by_sender_slot(monkeypatch, line):
    monkeypatch.setattr(ring.VirtualRing, "step",
                        rewritten(ring.VirtualRing.step, line, line.replace("src % 3", "src")))
    # the zoo programs index their inboxes by local id, so most runs end in
    # an IndexError or KeyError before the comparison can
    with pytest.raises((AssertionError, IndexError, KeyError)):
        test_ring.TestLightCone().test_attack_bridge_matches_full_ring(monkeypatch)


def test_attack_exit_code_ignores_its_verdict(monkeypatch):
    real, help_text, schema = cli.EXPERIMENTS["attack"]

    def always_ok(cfg, jobs=1):
        body, _code, csv_rows = real(cfg, jobs)
        return body, cli.EXIT_OK, csv_rows

    monkeypatch.setitem(cli.EXPERIMENTS, "attack", (always_ok, help_text, schema))
    # a failed success bound, then a failed abort check
    for cfg in ({"protocol": "or_exchange", "n": 9, "t": 3, "trials": 20, "seed": 3,
                 "delta_trials": 100},
                {"protocol": "echo_xor:8", "t": 1, "trials": 50, "variant": "expected",
                 "q_expected": 1, "z": 3, "seed": 2}):
        report, code, _csv = cli.run_config("attack", cfg)
        assert code == cli.EXIT_OK
        problems = check(json.loads(render_report(report)), code)
        assert problems == ["exit code is 0, its numbers give 1"]
