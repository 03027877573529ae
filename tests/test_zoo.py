"""Zoo protocols against independent oracles."""

import math
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from ringbreak.core import ConfigError, JointEntry, JointInput, derive_seed
from ringbreak.netsim import run_honest, validate_spec
from ringbreak.ring import fuse_parties, partition_to_three
from ringbreak.zoo import (
    ZOO,
    make_echo_xor,
    make_geom_halt,
    make_spec,
)
from support import make_coin_flash, tuned_halt_probability, zeros


def bits_joint(spec, bits):
    return JointInput(tuple(
        JointEntry(bytes([b]) + bytes(spec.domains[i].length - 1), b"p/%d" % i)
        for i, b in enumerate(bits)
    ))


class TestExchange:
    @given(st.lists(st.integers(0, 1), min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_xor_matches_reduce(self, bits):
        spec = make_spec("xor_exchange", len(bits))
        want = bytes([reduce(lambda a, b: a ^ b, bits)])
        res = run_honest(spec, bits_joint(spec, bits), 1)
        assert res.outcomes == [want] * len(bits)

    @given(st.lists(st.integers(0, 1), min_size=3, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_or_matches_any(self, bits):
        spec = make_spec("or_exchange", len(bits))
        want = bytes([1 if any(bits) else 0])
        res = run_honest(spec, bits_joint(spec, bits), 1)
        assert res.outcomes == [want] * len(bits)


class TestConst:
    def test_outputs_constant_regardless_of_input(self):
        spec = make_spec("const:9", 4)
        res = run_honest(spec, JointInput.sample(spec, 3), 3)
        assert res.outcomes == [b"\x09"] * 4

    def test_const_requires_value(self):
        with pytest.raises(ConfigError):
            make_spec("const", 3)


class TestEchoXor:
    def test_all_honest_equals_plain_xor(self):
        for bits in ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)):
            spec = make_echo_xor(3, 2)
            want = bytes([bits[0] ^ bits[1] ^ bits[2]])
            res = run_honest(spec, bits_joint(spec, bits), 1)
            assert res.outcomes == [want] * 3, bits

    def test_echo_resolution_flips_unanimous_disagreement(self):
        # hand-run of the resolve rule: a belief flips only when every echo
        # of that party disagrees with the held value
        prog = make_echo_xor(3, 1).programs[0]
        beliefs = (0, 1, 0)
        echoes = {1: bytes((0, 1, 1)), 2: bytes((0, 1, 1))}  # both claim p2=1
        assert prog._resolved(beliefs, echoes) == (0, 1, 1)
        echoes = {1: bytes((0, 1, 1)), 2: bytes((0, 1, 0))}  # split claims
        assert prog._resolved(beliefs, echoes) == (0, 1, 0)

    def test_needs_at_least_one_echo(self):
        with pytest.raises(ValueError):
            make_echo_xor(3, 0)

    def test_round_bound_echoes_plus_one(self):
        assert make_echo_xor(3, 5).q == 6


class TestFairCoin:
    def test_deterministic_per_seed(self):
        spec = make_spec("fair_coin", 3)
        a = run_honest(spec, zeros(spec), 11)
        b = run_honest(spec, zeros(spec), 11)
        assert a.outcomes == b.outcomes
        assert a.outcomes[0] in (b"\x00", b"\x01")

    def test_roughly_uniform(self):
        spec = make_spec("fair_coin", 3)
        ones = 0
        for i in range(400):
            res = run_honest(spec, zeros(spec), derive_seed(1, "coin", i))
            assert len(set(res.outcomes)) == 1
            ones += res.outcomes[0][0]
        assert 140 < ones < 260


class TestGeomHalt:
    def test_halt_distribution_matches_closed_form(self):
        # Pr[halted within k step calls] = 1 - (1-p)^k
        p = 0.3
        spec = make_geom_halt(3, p)
        n_runs = 600
        halted_by_3 = 0
        for i in range(n_runs):
            res = run_honest(spec, zeros(spec), derive_seed(2, "geom", i),
                             max_rounds=2)
            # cap 2 send rounds = 3 step calls (third is the flush call)
            if res.outcomes[0] == b"\x00":
                halted_by_3 += 1
        expect = 1 - (1 - p) ** 3
        sigma = math.sqrt(expect * (1 - expect) / n_runs)
        assert abs(halted_by_3 / n_runs - expect) < 4 * sigma

    def test_tuned_probability_halves(self):
        p = tuned_halt_probability(7)
        assert abs((1 - p) ** 7 - 0.5) < 1e-12

    def test_declared_q(self):
        assert make_geom_halt(3, 0.25).q == 4
        assert make_geom_halt(3, 1.0).q == 1

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            make_geom_halt(3, 0.0)


class TestCoinFlash:
    def test_outputs_own_first_coin_bit(self):
        spec = make_coin_flash(3)
        joint = zeros(spec)
        res = run_honest(spec, joint, 5)
        for i in range(3):
            assert res.outcomes[i] == bytes([joint[i].coins(5).bit(0)])


# one selector per zoo entry, and whether the entry declares coin_free
SELECTORS = {
    "const": ("const:3", True),
    "xor_exchange": ("xor_exchange", True),
    "or_exchange": ("or_exchange", True),
    "echo_xor": ("echo_xor:2", True),
    "fair_coin": ("fair_coin", False),
    "geom_halt": ("geom_halt:0.5", False),
}


class TestCatalog:
    def test_every_entry_validates(self):
        assert set(SELECTORS) == set(ZOO)
        for sel, _ in SELECTORS.values():
            rep = validate_spec(make_spec(sel, 3), trials=6, seed=2)
            assert rep.ok, (sel, rep.violations)

    @pytest.mark.parametrize("sel, coin_free", SELECTORS.values(), ids=list(SELECTORS))
    def test_coin_free_declaration(self, sel, coin_free):
        spec = make_spec(sel, 9)
        assert spec.coin_free is coin_free
        # the fused 3-party form declares what the protocol it fuses does
        fused = fuse_parties(spec, partition_to_three(9, 3, (6, 7, 8)))
        assert fused.coin_free is coin_free
        # a coin-free run hands every party a stream that refuses reads, so
        # two more seeds of honest runs put the declaration to the test
        for seed in (3, 4):
            assert validate_spec(spec, trials=4, seed=seed).ok, (sel, seed)

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            make_spec("quantum_dice", 3)

    def test_stray_parameter_rejected(self):
        with pytest.raises(ConfigError):
            make_spec("fair_coin:2", 3)

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ConfigError):
            make_spec("echo_xor:two", 3)
        with pytest.raises(ConfigError):
            make_spec("geom_halt:", 3)
