"""Wrapper-around-threshold-oracle tests: legality, forcing, real-vs-ideal."""

from fractions import Fraction
from itertools import combinations

import pytest

from ringbreak import compiler
from ringbreak.cli import run_config
from ringbreak.compiler import (
    HybridAdversary,
    IdealDecision,
    WrappedProtocol,
    always_abort_adversary,
    coin_abort_adversary,
    compare_real_ideal,
    enumerate_decisions,
    forcing_inputs,
    full_ideal_exec,
    never_abort_adversary,
    simulate_ideal,
    wrap_dominated,
)
from ringbreak.core import BOT, ConfigError, SpecViolation
from ringbreak.dominance import (
    COMPUTABLE,
    and_table,
    classify,
    constant_table,
    or_table,
    threshold_table,
    xor_table,
)


class TestFullIdeal:
    def test_plain_computation(self):
        f = threshold_table(4, 2)
        assert full_ideal_exec(f, {0: 1, 1: 0, 2: 1, 3: 0}, {}, corrupted=[]) == 1

    def test_adversary_defaults(self):
        f = or_table(3)
        # missing, boolean and out-of-domain substitutions all fall to 0
        for bad in ({}, {2: True}, {2: 7}, {2: "x"}):
            assert full_ideal_exec(f, {0: 0, 1: 0}, bad, corrupted=[2]) == 0
        assert full_ideal_exec(f, {0: 0, 1: 0}, {2: 1}, corrupted=[2]) == 1

    def test_honest_input_must_be_in_domain(self):
        f = or_table(3)
        with pytest.raises(ConfigError):
            full_ideal_exec(f, {0: 2, 1: 0}, {}, corrupted=[2])
        with pytest.raises(ConfigError):
            full_ideal_exec(f, {0: True, 1: 0}, {}, corrupted=[2])

    def test_party_cover_and_overlap(self):
        f = or_table(3)
        with pytest.raises(ConfigError):
            full_ideal_exec(f, {0: 0}, {}, corrupted=[2])  # party 1 unaccounted
        with pytest.raises(ConfigError):
            full_ideal_exec(f, {0: 0, 1: 0, 2: 0}, {}, corrupted=[2])
        with pytest.raises(ConfigError):
            full_ideal_exec(f, {0: 0, 1: 0}, {0: 1}, corrupted=[2])  # sub for honest


class TestThresholdIdeal:
    def wrapped(self):
        return wrap_dominated(threshold_table(6, 2), 6, 2)  # t1=1, t2=2

    def test_abort_needs_large_coalition(self):
        honest = {i: 0 for i in range(6) if i not in (4, 5)}
        assert self.wrapped().oracle(honest, IdealDecision(abort=True), [4, 5]) is BOT
        with pytest.raises(SpecViolation):
            self.wrapped().oracle({i: 0 for i in range(5)}, IdealDecision(abort=True), [5])

    def test_tolerance_cap(self):
        honest = {i: 0 for i in range(3)}
        with pytest.raises(ConfigError):
            self.wrapped().oracle(honest, IdealDecision.substitute({3: 0, 4: 0, 5: 0}),
                                  [3, 4, 5])

    def test_substitute_path_matches_full_ideal(self):
        honest = {0: 1, 1: 0, 2: 0, 3: 0}
        dec = IdealDecision.substitute({4: 1, 5: 0})
        y = self.wrapped().oracle(honest, dec, [4, 5])
        assert y == full_ideal_exec(threshold_table(6, 2), honest, {4: 1, 5: 0},
                                    corrupted=[4, 5]) == 1


class TestDecisionsAndAdversaries:
    def test_abort_carries_no_inputs(self):
        with pytest.raises(ConfigError):
            IdealDecision(abort=True, inputs=((0, 1),))
        assert IdealDecision.substitute({3: 1, 1: 0}).inputs_dict() == {1: 0, 3: 1}

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            HybridAdversary((0,), ())
        with pytest.raises(ConfigError):
            HybridAdversary((0,), ((Fraction(1, 2), IdealDecision(abort=True)),))
        with pytest.raises(ConfigError):
            HybridAdversary((0,), (
                (Fraction(-1, 2), IdealDecision(abort=True)),
                (Fraction(3, 2), IdealDecision.substitute({})),
            ))
        with pytest.raises(ConfigError):
            coin_abort_adversary([0], Fraction(1), {})

    def test_draw_deterministic_and_calibrated(self):
        adv = coin_abort_adversary([4, 5], Fraction(1, 3), {4: 0, 5: 0})
        assert adv.draw(1234) == adv.draw(1234)
        aborts = sum(1 for s in range(3000) if adv.draw(s)[1].abort)
        assert 850 < aborts < 1150  # ~1000 expected


class TestWrapper:
    def test_parameter_arithmetic_sweep(self):
        for n in range(3, 13):
            for t in range((n + 2) // 3, (n - 1) // 2 + 1):
                w = wrap_dominated(or_table(n), n, t)
                assert w.s == n - 2 * t
                assert w.t1 == n - 2 * t - 1 and w.t2 == t
                if w.s < 2:
                    assert w.t1 == 0  # any coalition may abort
                assert w.t1 <= w.t2 and w.t1 + 2 * w.t2 < n
                assert w.y_star == 1

    def test_one_extra_honest_party_is_exact(self):
        # s = n-2t = 1: every coalition may abort, and one corrupted party's
        # input already forces y*
        w = wrap_dominated(or_table(5), 5, 2)
        assert (w.s, w.t1, w.t2, w.y_star) == (1, 0, 2, 1)
        for inputs in ([0] * 5, [0, 1, 0, 0, 1]):
            for size in (1, 2):
                for coalition in combinations(range(5), size):
                    sub = dict.fromkeys(coalition, 0)
                    for adv in (never_abort_adversary(coalition, sub),
                                always_abort_adversary(coalition),
                                coin_abort_adversary(coalition, Fraction(1, 3), sub)):
                        rep = compare_real_ideal(w, adv, inputs, exhaustive=True)
                        assert rep.exact_zero is True and rep.distance == 0.0

    @pytest.mark.parametrize("n", range(3, 10))
    def test_computable_exactly_when_wrappable(self, n):
        tables = [or_table(n), and_table(n), xor_table(n), constant_table(n, 1),
                  *(threshold_table(n, k) for k in range(1, n + 1))]
        for t in range((n + 2) // 3, (n - 1) // 2 + 1):
            for f in tables:
                try:
                    wrap_dominated(f, n, t)
                    wrapped = True
                except ConfigError:
                    wrapped = False
                assert (classify(f, n, t).verdict == COMPUTABLE) == wrapped, (f.name, t)

    def test_out_of_band_t_rejected(self):
        with pytest.raises(ConfigError):
            wrap_dominated(or_table(9), 9, 2)   # t < n/3
        with pytest.raises(ConfigError):
            wrap_dominated(or_table(8), 8, 4)   # t >= n/2
        with pytest.raises(ConfigError):
            wrap_dominated(or_table(8), 9, 3)   # arity mismatch

    def test_undominated_table_rejected(self):
        with pytest.raises(ConfigError):
            wrap_dominated(xor_table(6), 6, 2)  # xor needs all 6, not 2

    def test_honest_run_has_no_substitutions(self):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        rec = w.run_decision([1, 1, 0, 0, 0, 0], [], IdealDecision.substitute({}))
        assert rec.honest_outputs == (1,) * 6

    def test_adversary_over_tolerance(self):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        with pytest.raises(ConfigError):
            w.run_decision([0] * 6, [3, 4, 5], IdealDecision.substitute({}))

    def test_abort_becomes_y_star(self):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        rec = w.run_decision([0] * 6, [4, 5], IdealDecision(abort=True))
        assert rec.honest_outputs == (1,) * 4
        assert "ABORT" in rec.adv_output

    def test_small_coalition_cannot_abort(self):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        with pytest.raises(SpecViolation):
            w.run_decision([0] * 6, [5], IdealDecision(abort=True))


class TestEnumerationAndSweep:
    def test_decision_counts(self):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        assert len(enumerate_decisions(w, [5])) == 2        # t1=1: no abort
        assert len(enumerate_decisions(w, [4, 5])) == 5     # 4 subs + abort

    def test_no_honest_bot_anywhere(self):
        # compile sweeps every coalition up to t2 and every decision
        report, _code, _csv = run_config("compile", {"builtin": "thresh:2:6", "t": 2,
                                                     "inputs": [0, 1, 0, 1, 0, 1]})
        assert report["no_bot"] is True
        assert report["abort_forces_y_star"] is True


class TestForcingInputs:
    def test_forced_output_is_y_star(self):
        w = wrap_dominated(threshold_table(9, 3), 9, 3)
        for coalition in ((0, 1, 2), (2, 5, 8), (6, 7, 8)):
            sub = forcing_inputs(w, coalition)
            honest = {i: 0 for i in range(9) if i not in coalition}
            assert full_ideal_exec(w.f, honest, sub, corrupted=list(coalition)) == w.y_star

    def test_coalition_too_small(self):
        w = wrap_dominated(threshold_table(9, 3), 9, 3)
        with pytest.raises(ConfigError):
            forcing_inputs(w, (0, 1))


class TestRealVsIdeal:
    def test_exhaustive_distance_exactly_zero(self):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        inputs = [0, 1, 0, 0, 0, 0]
        advs = [
            never_abort_adversary([4, 5], {4: 1, 5: 1}),
            always_abort_adversary([4, 5]),
            coin_abort_adversary([4, 5], Fraction(1, 2), {4: 0, 5: 0}),
        ]
        for adv in advs:
            rep = compare_real_ideal(w, adv, inputs, exhaustive=True)
            assert rep.method == "exhaustive"
            assert rep.exact_zero is True and rep.distance == 0.0

    def test_exhaustive_zero_across_coalitions_and_inputs(self):
        w = wrap_dominated(threshold_table(9, 3), 9, 3)
        for coalition in ((6, 7, 8), (0, 4, 8), (1, 2)):
            for inputs in ([0] * 9, [1] * 9, [0, 1] * 4 + [0]):
                sub = {i: 1 for i in coalition}
                adv = (coin_abort_adversary(coalition, Fraction(1, 3), sub)
                       if len(coalition) > 2 else never_abort_adversary(coalition, sub))
                rep = compare_real_ideal(w, adv, inputs, exhaustive=True)
                assert rep.exact_zero is True

    def test_monte_carlo_distance_small(self):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        adv = coin_abort_adversary([4, 5], Fraction(1, 2), {4: 1, 5: 1})
        rep = compare_real_ideal(w, adv, [0, 1, 0, 1, 0, 0],
                                 exhaustive=False, trials=4000, seed=5)
        assert rep.method == "monte-carlo" and rep.trials == 4000
        assert rep.exact_zero is None
        assert rep.distance < 0.05

    @pytest.mark.parametrize("trials", [0, -3])
    def test_monte_carlo_needs_a_trial(self, trials):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        adv = coin_abort_adversary([4, 5], Fraction(1, 2), {4: 1, 5: 1})
        with pytest.raises(ConfigError):
            compare_real_ideal(w, adv, [0] * 6, exhaustive=False, trials=trials)

    def test_monte_carlo_evaluates_each_branch_once(self, monkeypatch):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        adv = coin_abort_adversary([4, 5], Fraction(1, 2), {4: 1, 5: 1})
        calls = []
        run_decision, sim = WrappedProtocol.run_decision, compiler.simulate_ideal
        monkeypatch.setattr(WrappedProtocol, "run_decision",
                            lambda *a, **kw: calls.append("real") or run_decision(*a, **kw))
        monkeypatch.setattr(compiler, "simulate_ideal",
                            lambda *a, **kw: calls.append("ideal") or sim(*a, **kw))
        rep = compare_real_ideal(w, adv, [0, 1, 0, 1, 0, 0],
                                 exhaustive=False, trials=2000, seed=5)
        assert rep.trials == 2000 and rep.distance < 0.1
        assert 1 <= calls.count("real") <= len(adv.branches)
        assert 1 <= calls.count("ideal") <= len(adv.branches)

    def test_simulator_shows_bot_on_abort(self):
        w = wrap_dominated(threshold_table(6, 2), 6, 2)
        rec = simulate_ideal(w, [0] * 6, [4, 5], IdealDecision(abort=True))
        # honest see the forced value, the adversary still sees an abort
        assert set(rec.honest_outputs) == {w.y_star}
        assert rec.adv_output.endswith("->BOT")
