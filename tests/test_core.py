"""Core model: coin streams, seeds, domains, joint inputs, contract probing."""

import hashlib
import pickle
import struct

import pytest
from hypothesis import given, strategies as st

from ringbreak.core import (
    BOT,
    BitInput,
    CoinStream,
    FusedInput,
    JointEntry,
    JointInput,
    PartyProgram,
    ProtocolSpec,
    RUNNING,
    RawInput,
    RoundBound,
    derive_seed,
    outcome_repr,
)
from ringbreak.netsim import validate_spec
from ringbreak.zoo import make_spec, make_xor_exchange
from support import zeros


class TestCoinStream:
    def test_deterministic(self):
        a = CoinStream(42, b"x")
        b = CoinStream(42, b"x")
        assert a.read(0, 64) == b.read(0, 64)

    def test_label_separates(self):
        assert CoinStream(42, b"x").read(0, 32) != CoinStream(42, b"y").read(0, 32)

    def test_seed_separates(self):
        assert CoinStream(1, b"x").read(0, 32) != CoinStream(2, b"x").read(0, 32)

    def test_positional_reads_consistent(self):
        s = CoinStream(7, b"p")
        whole = s.read(0, 100)
        # stateless: any (offset, length) slice agrees with the full stream
        assert s.read(13, 40) == whole[13:53]
        assert bytes([s.byte(i) for i in range(100)]) == whole

    def test_bit_matches_byte(self):
        s = CoinStream(9, b"b")
        for i in range(64):
            assert s.bit(i) == (s.byte(i // 8) >> (i % 8)) & 1

    def test_u64_uniform_range(self):
        s = CoinStream(3, b"u")
        v = s.uniform(0)
        assert 0.0 <= v < 1.0
        assert s.u64(8) == int.from_bytes(s.read(8, 8), "little")

    def test_read_crosses_blocks(self):
        s = CoinStream(5, b"z")
        assert s.read(30, 10) == s.read(0, 40)[30:40]

    def test_sublabel_independent(self):
        s = CoinStream(11, b"base")
        assert s.sublabel(b"m0").read(0, 16) != s.read(0, 16)
        assert s.sublabel(b"m0").read(0, 16) == CoinStream(11, b"base/m0").read(0, 16)

    def test_rejects_bad_args(self):
        with pytest.raises(TypeError):
            CoinStream(1, "not-bytes")
        with pytest.raises(ValueError):
            CoinStream(1, b"x").read(-1, 4)

    @pytest.mark.parametrize("reader", ["byte", "bit", "u64", "uniform"])
    @pytest.mark.parametrize("position", [-1, -8, -33])
    def test_negative_positions_are_refused(self, reader, position):
        with pytest.raises(ValueError, match="negative coin read"):
            getattr(CoinStream(1, b"x"), reader)(position)

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=80))
    def test_read_slices_agree(self, offset, n):
        s = CoinStream(1234, b"hyp")
        assert s.read(offset, n) == s.read(0, offset + n)[offset:]

    @staticmethod
    def _loop_read(seed, label, offset, n):
        """The block loop every read took before single-block reads were
        sliced: SHA-256 blocks over (seed, label, index), concatenated."""
        prefix = b"ringbreak-coins" + struct.pack("<Q", seed) + struct.pack("<I", len(label)) + label
        out = bytearray()
        idx, within = divmod(offset, 32)
        while len(out) < n:
            out += hashlib.sha256(prefix + struct.pack("<Q", idx)).digest()[within:]
            within = 0
            idx += 1
        return bytes(out[:n])

    @given(st.integers(min_value=0, max_value=2000), st.integers(min_value=0, max_value=100))
    def test_reads_match_block_loop(self, offset, n):
        # single-block reads take the sliced fast path, the rest the loop;
        # offsets 25..31 make every u64 read cross a block boundary
        s = CoinStream(99, b"loop")
        assert s.read(offset, n) == self._loop_read(99, b"loop", offset, n)
        want = int.from_bytes(self._loop_read(99, b"loop", offset, 8), "little")
        assert s.u64(offset) == want
        assert s.uniform(offset) == want / 2.0**64

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.binary(max_size=12))
    def test_every_reader_agrees_with_read(self, seed, label):
        # each reader on a fresh stream, so each one hashes its first block
        # itself; offsets 25..31 put 8 bytes across two blocks
        def fresh():
            return CoinStream(seed, label)

        whole = fresh().read(0, 256 + 8)
        for offset in range(257):
            want = int.from_bytes(whole[offset:offset + 8], "little")
            assert fresh().byte(offset) == whole[offset]
            assert fresh().bit(offset) == (whole[offset // 8] >> (offset % 8)) & 1
            assert fresh().u64(offset) == want
            assert fresh().uniform(offset) == want / 2.0**64

    @pytest.mark.parametrize("seed,label,idx", [(0, b"", 0), (1, b"p/0", 0), (7, b"ring/5", 3),
                                                (2**64 - 1, b"hybrid-branch", 9)])
    def test_blocks_are_sha256_of_seed_label_and_index(self, seed, label, idx):
        block = hashlib.sha256(b"ringbreak-coins" + seed.to_bytes(8, "little")
                               + len(label).to_bytes(4, "little") + label
                               + idx.to_bytes(8, "little")).digest()
        assert CoinStream(seed, label).read(32 * idx, 32) == block
        assert CoinStream(seed, label).u64(32 * idx + 24) == int.from_bytes(block[24:], "little")

    def test_u64_at_every_block_position(self):
        s = CoinStream(5, b"pos")
        for offset in range(64):
            want = self._loop_read(5, b"pos", offset, 8)
            assert s.read(offset, 8) == want
            assert s.u64(offset) == int.from_bytes(want, "little")


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_parts_matter(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
        assert derive_seed(1) != derive_seed(2)

    def test_no_concatenation_collision(self):
        # length-prefixed parts: ("ab", "c") must differ from ("a", "bc")
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")

    def test_range(self):
        assert 0 <= derive_seed(2**70, b"wide") < 2**64


class TestSentinels:
    def test_repr(self):
        assert repr(BOT) == "BOT"
        assert repr(RUNNING) == "RUNNING"

    def test_pickle_identity(self):
        assert pickle.loads(pickle.dumps(BOT)) is BOT
        assert pickle.loads(pickle.dumps(RUNNING)) is RUNNING

    def test_outcome_repr(self):
        assert outcome_repr(BOT) == "BOT"
        assert outcome_repr(RUNNING) == "RUNNING"
        assert outcome_repr(b"\x01\xff") == "01ff"


class TestDomains:
    def test_bit_input(self):
        d = BitInput(4)
        assert d.zero() == b"\x00\x00\x00\x00"
        s = CoinStream(1, b"d")
        v = d.sample(s)
        assert len(v) == 4 and v[0] in (0, 1) and v[1:] == b"\x00\x00\x00"

    def test_raw_input(self):
        d = RawInput(8)
        assert d.zero() == bytes(8)
        assert d.sample(CoinStream(2, b"d"), offset=5) == CoinStream(2, b"d").read(5, 8)

    def test_fused_input(self):
        d = FusedInput((BitInput(1), RawInput(3)))
        assert d.length == 4
        assert d.zero() == bytes(4)
        v = d.sample(CoinStream(3, b"f"))
        assert len(v) == 4

    def test_bit_sample_unbiased_smoke(self):
        d = BitInput(1)
        s = CoinStream(17, b"bits")
        ones = sum(d.sample(s, offset=i)[0] for i in range(2000))
        assert 850 < ones < 1150


class TestJointInput:
    def test_zeros_and_sample_shapes(self):
        spec = make_xor_exchange(3)
        z = zeros(spec)
        assert len(z) == 3
        assert all(z[i].input == spec.domains[i].zero() for i in range(3))
        assert z[1].coin_label == b"p/1"
        j = JointInput.sample(spec, 5)
        j.validate(spec)

    def test_sample_deterministic(self):
        spec = make_xor_exchange(3)
        a = JointInput.sample(spec, 5)
        b = JointInput.sample(spec, 5)
        assert all(a[i].input == b[i].input for i in range(3))

    def test_validate_rejects_wrong_length(self):
        spec = make_xor_exchange(3)
        bad = JointInput((JointEntry(b"\x00\x00", b"p/0"),) + zeros(spec).entries[1:])
        with pytest.raises(ValueError):
            bad.validate(spec)

    def test_entry_coins_derive(self):
        e = JointEntry(b"", b"lbl")
        assert e.coins(4).read(0, 8) == CoinStream(4, b"lbl").read(0, 8)


class _OutcomeDrifter(PartyProgram):
    """Deliberately broken: keeps sending and changes its answer after halting."""

    def init(self, input_bytes, coins):
        return 0

    def step(self, state, round_no, inbox):
        return state + 1, {}

    def finished(self, state):
        if state >= 1:
            return bytes([state & 0xFF])  # drifts every round
        return None


class _PostHaltSender(PartyProgram):
    def __init__(self, me: int):
        self.me = me

    def init(self, input_bytes, coins):
        return 0

    def step(self, state, round_no, inbox):
        # keeps emitting even after finished() is an Outcome
        return state + 1, {1 - self.me: b"x"}

    def finished(self, state):
        return b"\x00" if state >= 1 else None


class TestValidateSpec:
    def test_zoo_specs_pass(self):
        for sel in ("const:0", "xor_exchange", "or_exchange", "echo_xor:2", "fair_coin"):
            rep = validate_spec(make_spec(sel, 3), trials=8, seed=1)
            assert rep.ok, (sel, rep.violations)

    def test_expected_kind_passes(self):
        rep = validate_spec(make_spec("geom_halt:0.5", 3), trials=8, seed=1)
        assert rep.ok, rep.violations

    def test_catches_outcome_drift(self):
        spec = ProtocolSpec(
            name="drift",
            programs=(_OutcomeDrifter(), _OutcomeDrifter()),
            round_bound=RoundBound("strict", 1),
            domains=(RawInput(1), RawInput(1)),
        )
        rep = validate_spec(spec, trials=2, seed=0)
        assert not rep.ok
        assert any("drift" in v for v in rep.violations)

    def test_catches_post_halt_send(self):
        spec = ProtocolSpec(
            name="chatty",
            programs=(_PostHaltSender(0), _PostHaltSender(1)),
            round_bound=RoundBound("strict", 1),
            domains=(RawInput(1), RawInput(1)),
        )
        rep = validate_spec(spec, trials=2, seed=0)
        assert not rep.ok
        assert any("active after halt" in v for v in rep.violations)

    def test_replay_hash_stable(self):
        spec = make_spec("echo_xor:1", 3)
        a = validate_spec(spec, trials=3, seed=9)
        b = validate_spec(spec, trials=3, seed=9)
        assert a.transcript_hash == b.transcript_hash != ""


class TestSpecConstruction:
    def test_round_bound_validation(self):
        with pytest.raises(ValueError):
            RoundBound("sloppy", 1)
        with pytest.raises(ValueError):
            RoundBound("strict", 0)
        assert RoundBound("strict", 2).strict
        assert not RoundBound("expected", 2).strict

    def test_spec_needs_matching_domains(self):
        spec = make_xor_exchange(3)
        with pytest.raises(ValueError):
            ProtocolSpec("bad", spec.programs, spec.round_bound, spec.domains[:2])

    def test_n_and_q(self):
        spec = make_spec("echo_xor:2", 4)
        assert spec.n == 4 and spec.q == 3
