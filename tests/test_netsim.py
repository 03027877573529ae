"""Engine semantics: delivery timing, flush, strict bounds, adversary plumbing."""

import inspect
from collections import Counter
from concurrent.futures.process import BrokenProcessPool

import pytest

import ringbreak.netsim as netsim

from ringbreak.core import (
    ConfigError,
    JointEntry,
    JointInput,
    PartyProgram,
    ProtocolSpec,
    RUNNING,
    RawInput,
    RoundBound,
    SpecViolation,
    TopologyViolation,
)
from ringbreak.netsim import (
    MESSAGE_CAP,
    AdversaryStrategy,
    check_consistency,
    estimate_consistency,
    result_fingerprint,
    run_honest,
    run_with_adversary,
    tally,
    trial_chunks,
    validate_spec,
)
from ringbreak.ring import embedding_family
from ringbreak.zoo import make_const, make_echo_xor, make_spec, make_xor_exchange
from support import EquivocatorAdversary, PassiveAdversary, make_one_send, zeros


def bits_joint(spec, bits):
    return JointInput(tuple(
        JointEntry(bytes([b]) + bytes(spec.domains[i].length - 1), b"p/%d" % i)
        for i, b in enumerate(bits)
    ))


def test_engine_options_are_pinned():
    def options(fn):
        return [p.name for p in inspect.signature(fn).parameters.values()
                if p.kind is p.KEYWORD_ONLY]

    assert options(run_honest) == ["max_rounds", "record", "probe_halted"]
    assert options(run_with_adversary) == ["record"]


class TestDeliveryTiming:
    def test_const_finishes_on_first_call(self):
        res = run_honest(make_const(3, 7), zeros(make_const(3, 7)), 1)
        assert res.outcomes == [b"\x07"] * 3
        assert res.halt_rounds == [1, 1, 1]

    def test_xor_exchange_consumes_round1_in_call2(self):
        spec = make_xor_exchange(3)
        res = run_honest(spec, bits_joint(spec, (1, 0, 1)), 1, record=True)
        assert res.outcomes == [b"\x00"] * 3
        assert res.halt_rounds == [2, 2, 2]
        # all round-1 sends, no round-2 traffic
        assert {rec[0] for rec in res.transcript} == {1}
        assert len(res.transcript) == 6

    def test_echo_xor_q_is_echoes_plus_one(self):
        spec = make_echo_xor(3, 2)
        assert spec.q == 3
        res = run_honest(spec, bits_joint(spec, (1, 1, 0)), 1)
        # finishes on the call that consumes round q's messages
        assert res.halt_rounds == [4, 4, 4]
        assert res.outcomes == [b"\x00"] * 3

    def test_flush_call_still_steps_parties(self):
        spec = make_xor_exchange(3)
        # cap 1 send round: call 2 is the flush call, outputs still appear
        res = run_honest(spec, bits_joint(spec, (1, 1, 1)), 1, max_rounds=1)
        assert res.outcomes == [b"\x01"] * 3
        assert res.rounds == 1

    def test_cap_zero_rounds_leaves_running(self):
        spec = make_xor_exchange(3)
        res = run_honest(spec, bits_joint(spec, (0, 0, 0)), 1, max_rounds=0)
        assert res.outcomes == [RUNNING] * 3

    def test_cut_off_echo_leaves_running(self):
        spec = make_echo_xor(3, 2)
        res = run_honest(spec, bits_joint(spec, (0, 0, 0)), 1, max_rounds=2)
        assert res.outcomes == [RUNNING] * 3


class _Laggard(PartyProgram):
    """Finishes one round after the declared strict bound."""

    role_id = "laggard"

    def __init__(self, rounds):
        self.rounds = rounds

    def init(self, input_bytes, coins):
        return 0

    def step(self, state, round_no, inbox):
        return state + 1, {}

    def finished(self, state):
        return b"\x00" if state >= self.rounds else None


class _OneShot(PartyProgram):
    """Puts `payload` in its round-1 outbox to the other party, then halts."""

    role_id = "one-shot"

    def __init__(self, me, payload):
        self.me = me
        self.payload = payload

    def init(self, input_bytes, coins):
        return 0

    def step(self, state, round_no, inbox):
        if state >= 1:
            return state, {}
        return 1, {1 - self.me: self.payload}

    def finished(self, state):
        return b"\x00" if state >= 1 else None


def one_shot_spec(payload):
    return ProtocolSpec(
        name="one-shot",
        programs=(_OneShot(0, payload), _OneShot(1, payload)),
        round_bound=RoundBound("strict", 1),
        domains=(RawInput(1), RawInput(1)),
    )


class TestStrictEnforcement:
    def _spec(self, declared_q, actual_calls):
        return ProtocolSpec(
            name="lag",
            programs=(_Laggard(actual_calls), _Laggard(actual_calls)),
            round_bound=RoundBound("strict", declared_q),
            domains=(RawInput(1), RawInput(1)),
        )

    def test_violation_raises(self):
        spec = self._spec(declared_q=1, actual_calls=4)
        with pytest.raises(SpecViolation):
            run_honest(spec, zeros(spec), 1)

    def test_exactly_on_time_is_fine(self):
        # q=1 allows finishing on call 2 (the call that consumes round 1)
        spec = self._spec(declared_q=1, actual_calls=2)
        res = run_honest(spec, zeros(spec), 1)
        assert res.outcomes == [b"\x00"] * 2

    def test_enforcement_can_be_disabled(self):
        # a caller-set round cap replaces the declared bound
        spec = self._spec(declared_q=1, actual_calls=4)
        res = run_honest(spec, zeros(spec), 1, max_rounds=4)
        assert res.outcomes == [b"\x00"] * 2


class TestTopology:
    @pytest.mark.parametrize("dst", [2, 3, -1, "1", True, 1.0],
                             ids=["self", "n", "negative", "str", "bool", "float"])
    def test_send_off_the_complete_graph_raises(self, dst):
        class Stray(AdversaryStrategy):
            corrupted = frozenset({2})

            def step(self, state, round_no, inbound):
                return state, {(2, dst): b"x"}

        spec = make_xor_exchange(3)
        with pytest.raises(TopologyViolation, match="no edge"):
            run_with_adversary(spec, Stray(), bits_joint(spec, (0, 0, 0)), 1)

    def test_validate_records_a_self_send(self):
        rep = validate_spec(make_one_send(3, lambda i: i), trials=2, seed=1)
        assert not rep.ok
        assert rep.violations == ["trial 0: no edge 0->0", "trial 1: no edge 0->0"]

    def test_message_cap_enforced(self):
        spec = one_shot_spec(bytes(MESSAGE_CAP))
        assert run_honest(spec, zeros(spec), 1).outcomes == [b"\x00"] * 2
        spec = one_shot_spec(bytes(MESSAGE_CAP + 1))
        with pytest.raises(SpecViolation, match="byte cap"):
            run_honest(spec, zeros(spec), 1)

    def test_non_bytes_payload_is_a_spec_violation(self):
        spec = one_shot_spec(7)
        with pytest.raises(SpecViolation, match="not bytes"):
            run_honest(spec, zeros(spec), 1)


class RoundRecorder(AdversaryStrategy):
    """Corrupts party 2, sends nothing and records the rounds it is called in."""

    corrupted = frozenset({2})

    def __init__(self):
        self.rounds = []

    def step(self, state, round_no, inbound):
        self.rounds.append(round_no)
        return state, {}


class TestAdversaryPlumbing:
    def test_passive_is_byte_identical_to_honest(self):
        spec = make_echo_xor(3, 2)
        joint = bits_joint(spec, (1, 0, 1))
        plain = run_honest(spec, joint, 7, record=True)
        adv = PassiveAdversary(spec, frozenset({2}))
        with_adv = run_with_adversary(spec, adv, joint, 7, record=True)
        assert with_adv.honest_outcomes() == [plain.outcomes[0], plain.outcomes[1]]
        # identical traffic on every edge, both directions
        assert sorted(with_adv.transcript) == sorted(plain.transcript)

    def test_adversary_cannot_send_from_honest(self):
        class Spoofer(AdversaryStrategy):
            corrupted = frozenset({2})

            def step(self, state, round_no, inbound):
                return state, {(0, 1): b"fake"}

        spec = make_xor_exchange(3)
        with pytest.raises(TopologyViolation):
            run_with_adversary(spec, Spoofer(), bits_joint(spec, (0, 0, 0)), 1)

    def test_equivocator_splits_views(self):
        spec = make_xor_exchange(3)
        adv = EquivocatorAdversary(2, 3)
        res = run_with_adversary(spec, adv, bits_joint(spec, (0, 0, 0)), 1)
        # party 0 hears 0, party 1 hears 1: outputs differ
        assert res.outcomes[0] != res.outcomes[1]
        assert not check_consistency(res)

    def test_adversary_view_is_delayed_one_round(self):
        seen = {}

        class Recorder(AdversaryStrategy):
            corrupted = frozenset({2})

            def step(self, state, round_no, inbound):
                seen[round_no] = dict(inbound)
                return state, {}

        # echo_xor:1 runs 3 rounds, so round 2 is played
        spec = make_echo_xor(3, 1)
        run_with_adversary(spec, Recorder(), bits_joint(spec, (1, 1, 0)), 1)
        assert seen[1] == {}  # round-1 call precedes any delivery
        assert seen[2] == {(0, 2): b"\x01", (1, 2): b"\x01"}

    def test_adversary_skips_the_round_after_the_last_honest_step(self):
        # xor_exchange halts every honest party in round 2; what the
        # adversary would send in round 2 reaches nobody
        recorder = RoundRecorder()
        spec = make_xor_exchange(3)
        res = run_with_adversary(spec, recorder, bits_joint(spec, (1, 1, 0)), 1)
        assert res.halt_rounds[:2] == [2, 2]
        assert recorder.rounds == [1]

    def test_adversary_skips_the_flush_round(self):
        # an expected-round spec whose parties never halt is cut off at
        # 64 * q = 64 rounds; round 65 is the flush round
        spec = ProtocolSpec("stall", tuple(_Laggard(10**9) for _ in range(3)),
                            RoundBound("expected", 1), tuple(RawInput(1) for _ in range(3)))
        recorder = RoundRecorder()
        res = run_with_adversary(spec, recorder, zeros(spec), 1)
        assert res.rounds == 64
        assert res.honest_outcomes() == [RUNNING, RUNNING]
        assert recorder.rounds == list(range(1, 65))

    def test_bad_send_in_an_unplayed_round_is_not_checked(self):
        # a send on an edge that does not exist raises in a played round,
        # and is never computed in the round after xor_exchange's last step
        class StrayAt(AdversaryStrategy):
            corrupted = frozenset({2})

            def __init__(self, bad_round):
                self.bad_round = bad_round

            def step(self, state, round_no, inbound):
                return state, {(2, 7): b"x"} if round_no == self.bad_round else {}

        spec = make_xor_exchange(3)
        joint = bits_joint(spec, (1, 1, 0))
        with pytest.raises(TopologyViolation, match="no edge 2->7"):
            run_with_adversary(spec, StrayAt(1), joint, 1)
        res = run_with_adversary(spec, StrayAt(2), joint, 1)
        assert res.honest_outcomes() == [b"\x00", b"\x00"]

    def test_pre_announce_lands_in_result(self):
        class Announcer(AdversaryStrategy):
            corrupted = frozenset({2})

            def pre_announce(self, state):
                return b"\x42"

        spec = make_const(3, 0)
        res = run_with_adversary(spec, Announcer(), zeros(spec), 1)
        assert res.pre_announced == b"\x42"
        assert res.outcomes[2] is None  # corrupted party has no honest outcome

    def test_secure_channels_hide_honest_traffic(self):
        views = []

        class Eavesdropper(AdversaryStrategy):
            corrupted = frozenset({3})

            def step(self, state, round_no, inbound):
                views.append(set(inbound))
                return state, {}

        spec = make_xor_exchange(4)
        run_with_adversary(spec, Eavesdropper(), bits_joint(spec, (1, 0, 1, 0)), 1)
        for v in views:
            assert all(dst == 3 for (_, dst) in v)


class TestConsistency:
    def test_check_consistency_raises_on_running(self):
        spec = make_echo_xor(3, 2)
        res = run_honest(spec, bits_joint(spec, (0, 0, 0)), 1, max_rounds=1)
        with pytest.raises(ValueError):
            check_consistency(res)

    def test_check_consistency_holds_with_no_honest_party(self):
        spec = make_xor_exchange(3)
        res = run_with_adversary(spec, PassiveAdversary(spec, frozenset({0, 1, 2})),
                                 bits_joint(spec, (1, 0, 1)), 1)
        assert res.honest_outcomes() == []
        assert check_consistency(res)

    def test_estimate_needs_trials(self):
        spec = make_spec("const:0", 3)
        with pytest.raises(ConfigError):
            estimate_consistency(spec, embedding_family(spec, 4), 10, 1)

    def test_estimate_shape_and_determinism(self):
        spec = make_spec("const:0", 3)
        rep = estimate_consistency(spec, embedding_family(spec, 4), 100, 1)
        assert rep.pooled_trials == 400
        assert rep.delta_hat == 0.0
        rep2 = estimate_consistency(spec, embedding_family(spec, 4), 100, 1)
        assert rep.pooled_failures == rep2.pooled_failures
        assert [a.failures for a in rep.per_adversary] == [a.failures for a in rep2.per_adversary]


def test_trial_chunks_cover_every_trial_once_in_order():
    for jobs in range(1, 9):
        for total in range(1, 501):
            chunks = trial_chunks(total, jobs)
            assert [i for lo, hi in chunks for i in range(lo, hi)] == list(range(total))
            assert all(lo < hi for lo, hi in chunks)
            assert len(chunks) <= jobs * netsim.CHUNKS_PER_WORKER


def _keys(ctx, i):
    """No key when ctx divides i; else i mod 3, plus "odd" twice for odd i."""
    if i % ctx == 0:
        return ()
    return [i % 3, "odd", "odd"] if i % 2 else [i % 3]


def test_tally_equals_the_serial_count(inline_pool):
    for total in range(61):
        serial = Counter()
        for i in range(total):
            serial.update(_keys(5, i))
        for jobs in range(1, 5):
            assert tally(_keys, 5, total, jobs) == serial, (total, jobs)
    assert tally(_keys, 5, 0, 3) == Counter()
    assert tally(_keys, 5, 3, 1) == Counter({1: 1, 2: 1, "odd": 2})


class TestPool:
    def test_serial_map_builds_no_pool(self, inline_pool):
        assert netsim.pmap(str, [1, 2, 3], 1) == ["1", "2", "3"]
        assert netsim.pmap(str, [4], 8) == ["4"]
        assert inline_pool.built == []

    def test_never_more_workers_than_chunks(self, inline_pool):
        assert netsim.pmap(str, [1, 2, 3], 8) == ["1", "2", "3"]
        assert inline_pool.built == [3]

    def test_pool_is_reused_per_worker_count(self, inline_pool):
        for _ in range(3):
            netsim.pmap(str, list(range(10)), 2)
        netsim.pmap(str, list(range(10)), 4)
        assert inline_pool.built == [2, 4]

    def test_broken_pool_is_dropped(self, inline_pool, monkeypatch):
        class Broken(inline_pool):
            def map(self, fn, tasks):
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(netsim, "ProcessPoolExecutor", Broken)
        with pytest.raises(BrokenProcessPool):
            netsim.pmap(str, [1, 2], 2)
        assert netsim._pool is None
        monkeypatch.setattr(netsim, "ProcessPoolExecutor", inline_pool)
        assert netsim.pmap(str, [1, 2], 2) == ["1", "2"]
        assert inline_pool.built == [2, 2]

    def test_estimate_does_not_depend_on_jobs(self, inline_pool):
        spec = make_spec("echo_xor:2", 3)
        family = embedding_family(spec, 4)
        one = estimate_consistency(spec, family, 100, 5)
        assert one.pooled_failures > 0
        for jobs in (2, 3, 8):
            assert estimate_consistency(spec, family, 100, 5, jobs=jobs) == one


class TestFingerprint:
    def test_replay_stable_and_input_sensitive(self):
        spec = make_echo_xor(3, 1)
        a = run_honest(spec, bits_joint(spec, (1, 0, 0)), 3, record=True)
        b = run_honest(spec, bits_joint(spec, (1, 0, 0)), 3, record=True)
        c = run_honest(spec, bits_joint(spec, (0, 0, 0)), 3, record=True)
        assert result_fingerprint(a) == result_fingerprint(b)
        assert result_fingerprint(a) != result_fingerprint(c)

    def test_missing_honest_entry_rejected(self):
        spec = make_xor_exchange(3)
        adv = PassiveAdversary(spec, frozenset({2}))
        joint = JointInput((JointEntry(b"\x00" * 8, b"p/0"),))  # parties 1 and 2 missing
        with pytest.raises(ValueError):
            run_with_adversary(spec, adv, joint, 1)
