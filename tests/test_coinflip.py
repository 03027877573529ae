"""Coin-flip bias measurement, the forcing search, and the distance verdict."""

import os
import subprocess
import sys
from dataclasses import asdict

import pytest

from ringbreak.coinflip import (
    bias_attack,
    measure_bias,
    pilot_polarity,
    verify_no_nontrivial_bias,
)
from ringbreak.core import ConfigError, derive_seed
from ringbreak.ring import attack_ring_size
from ringbreak.zoo import make_spec


class TestStatisticalDistance:
    # 0.1 + 0.2 + 0.3 rounds to 0.6 or 0.6000000000000001 depending on the
    # order it is summed in; the exact sum is the former
    PARTS = {"0": 0.1, "1": 0.2, "other": 0.3}

    def test_same_under_every_hash_seed(self):
        # a set's iteration order follows PYTHONHASHSEED; reports must not
        code = ("from ringbreak.stats import statistical_distance as d; "
                f"print(repr(d({self.PARTS!r}, {{}})))")
        seen = set()
        for hash_seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=60)
            seen.add(out.stdout.strip())
        assert seen == {"0.3"}


class TestMeasureBias:
    def test_fair_coin_is_close_to_uniform(self):
        spec = make_spec("fair_coin", 3)
        rep = measure_bias(spec, None, 2000, seed=11)
        assert rep.consistent == 2000 and rep.inconsistent == 0
        assert rep.counts["other"] == 0
        assert rep.distance <= 0.05
        low, high = rep.distance_ci
        assert low <= rep.distance <= high

    def test_minimum_trials(self):
        spec = make_spec("fair_coin", 3)
        with pytest.raises(ConfigError):
            measure_bias(spec, None, 999, seed=0)

    def test_constant_zero_is_maximally_biased_bit(self):
        rep = measure_bias(make_spec("const:0", 3), None, 1000, seed=1)
        assert rep.counts == {"0": 1000, "1": 0, "other": 0}
        assert rep.distance == 0.5

    def test_non_bit_output_lands_in_other(self):
        rep = measure_bias(make_spec("const:5", 3), None, 1000, seed=1)
        assert rep.counts["other"] == 1000
        assert rep.distance == 1.0

    def test_forced_value_is_recorded(self):
        rep = measure_bias(make_spec("const:0", 3), None, 1000, seed=1,
                           forced_value=b"\x01")
        assert rep.forced_value == "01"
        assert asdict(rep)["forced_value"] == "01"


class TestBiasAttack:
    def test_forces_nonzero_constant_first_try(self):
        res = bias_attack(make_spec("const:1", 3), (2,), kappa=8, seed=5)
        assert not res.aborted and res.attempts == 1
        assert res.y_star == b"\x01" and res.adversary is not None

    def test_aborts_when_only_excluded_value_appears(self):
        res = bias_attack(make_spec("const:0", 3), (2,), kappa=6, seed=5)
        assert res.aborted and res.attempts == 6
        assert res.y_star is None and res.adversary is None
        assert res.excluded == b"\x00"

    def test_exclude_override(self):
        res = bias_attack(make_spec("const:0", 3), (2,), kappa=6, seed=5,
                          exclude=b"\x01")
        assert not res.aborted and res.y_star == b"\x00"

    def test_coalition_size_is_fixed(self):
        spec = make_spec("fair_coin", 3)
        with pytest.raises(ConfigError):
            bias_attack(spec, (1, 2), kappa=4, seed=0)
        with pytest.raises(ConfigError):
            bias_attack(spec, (), kappa=4, seed=0)

    def test_kappa_must_be_positive(self):
        with pytest.raises(ConfigError):
            bias_attack(make_spec("fair_coin", 3), (2,), kappa=0, seed=0)

    def test_non_bit_protocol_rejected(self):
        with pytest.raises(ConfigError):
            bias_attack(make_spec("const:5", 3), (2,), kappa=4, seed=0)

    def test_found_adversary_actually_forces(self):
        spec = make_spec("const:1", 3)
        res = bias_attack(spec, (0,), kappa=8, seed=9)
        forced = measure_bias(spec, res.adversary, 1000, seed=10,
                              forced_value=res.y_star)
        assert forced.counts["1"] == forced.consistent
        assert forced.distance == 0.5

    def test_no_consistent_run_measures_nothing(self):
        # the fair_coin forcing adversary at this seed breaks agreement in
        # every trial: the conditional distribution is empty, not an error
        spec = make_spec("fair_coin", 3)
        res = bias_attack(spec, (2,), kappa=10, seed=derive_seed(3, "bias-search"))
        assert not res.aborted
        assert measure_bias(spec, res.adversary, 1000, seed=derive_seed(3, "bias-forced"),
                            forced_value=res.y_star) is None

    def test_fair_coin_search_terminates(self):
        res = bias_attack(make_spec("fair_coin", 3), (2,), kappa=12, seed=21)
        assert not res.aborted
        assert res.y_star == b"\x01"  # the default exclusion is 0


class TestPilotPolarity:
    def test_polarity_of_constants(self):
        exc, counts = pilot_polarity(make_spec("const:1", 3), 64, seed=3)
        assert exc == b"\x00" and counts == {"0": 0, "1": 64}
        exc, counts = pilot_polarity(make_spec("const:0", 3), 64, seed=3)
        assert exc == b"\x01" and counts == {"0": 64, "1": 0}

    def test_fair_coin_counts_sum(self):
        exc, counts = pilot_polarity(make_spec("fair_coin", 3), 50, seed=3)
        assert counts["0"] + counts["1"] == 50
        assert exc in (b"\x00", b"\x01")

    def test_non_bit_rejected(self):
        with pytest.raises(ConfigError):
            pilot_polarity(make_spec("const:5", 3), 16, seed=0)


class TestVerdict:
    def test_three_parties_only(self):
        with pytest.raises(ConfigError):
            verify_no_nontrivial_bias(make_spec("xor_exchange", 5), kappa=4,
                                      trials=1000, seed=0)

    @pytest.mark.parametrize("kwargs", [{"kappa": 0}, {"kappa": 4, "corrupted": (1, 2)},
                                        {"kappa": 4, "corrupted": (7,)}],
                             ids=["no-attempts", "coalition-too-large",
                                  "coalition-out-of-range"])
    def test_bad_attack_input_fails_before_any_run(self, kwargs, monkeypatch):
        import ringbreak.coinflip as coinflip

        def never(*a, **kw):
            raise AssertionError("estimated delta before checking the attack's inputs")

        monkeypatch.setattr(coinflip, "estimate_consistency", never)
        with pytest.raises(ConfigError):
            verify_no_nontrivial_bias(make_spec("fair_coin", 3), trials=1000, seed=0,
                                      **kwargs)

    def test_deterministic_coin_is_conclusive(self):
        # const has a perfectly consistent ring embedding, so delta_hat = 0
        # and the forcing distance 1/2 clears the bound with room to spare
        spec = make_spec("const:0", 3)
        v = verify_no_nontrivial_bias(spec, kappa=10, trials=1500, seed=7,
                                      delta_trials=100)
        assert v.delta_hat == 0.0
        assert not v.attack_aborted and v.attempts == 1
        assert v.y_star == "00" and v.excluded == "01"
        assert v.distance == 0.5
        assert 0 < v.bound < 0.5
        assert v.holds is True and not v.inconclusive
        assert v.m == attack_ring_size(spec.q, "strict")

    def test_fair_coin_verdict_shape(self):
        v = verify_no_nontrivial_bias(make_spec("fair_coin", 3), kappa=6,
                                      trials=1000, seed=3, delta_trials=100)
        d = asdict(v)
        for key in ("spec", "kappa", "m", "delta_hat", "bound", "holds",
                    "inconclusive", "pilot_counts", "attempts"):
            assert key in d
        if v.attack_aborted or v.distance is None:
            assert v.holds is None and v.inconclusive
        else:
            assert v.holds == (v.distance >= v.bound)
            assert v.inconclusive == (v.bound <= 0)

    def test_seed_determinism(self):
        a = verify_no_nontrivial_bias(make_spec("const:1", 3), kappa=8,
                                      trials=1000, seed=42, delta_trials=100)
        b = verify_no_nontrivial_bias(make_spec("const:1", 3), kappa=8,
                                      trials=1000, seed=42, delta_trials=100)
        assert asdict(a) == asdict(b)
