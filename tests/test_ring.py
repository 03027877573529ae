"""Ring composition, locality, bridging adversaries, fusion, n-party attack."""

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

import ringbreak.ring as ring_module
from ringbreak.core import (
    CoinStream,
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
    derive_seed,
)
from ringbreak.netsim import MESSAGE_CAP, deliver, run_honest, run_with_adversary, step_parties
from ringbreak.ring import (
    AttackAdversary,
    NeighborEmbeddingAdversary,
    RingBridge,
    RingNetwork,
    SampledRingInput,
    VirtualRing,
    _bundle,
    _lag_layers,
    _unbundle,
    attack_geometry,
    attack_n_party,
    embedding_family,
    fuse_parties,
    honest_slots,
    partition_to_three,
    phase1_expected,
    phase1_strict,
    ring_distance,
)
from ringbreak.zoo import (
    make_echo_xor,
    make_geom_halt,
    make_spec,
    make_xor_exchange,
)
from support import (
    HONEST_WINDOW,
    ByteSpewerProgram,
    RelabeledSlot,
    emulate_ring,
    make_coin_flash,
    make_one_send,
    node_view,
    sample_w,
    slot_programs,
    tuned_halt_probability,
    zeros,
)


def bits_joint(spec, bits):
    return JointInput(tuple(
        JointEntry(bytes([b]) + bytes(spec.domains[i].length - 1), b"p/%d" % i)
        for i, b in enumerate(bits)
    ))


class ZeroRingBridge(RingBridge):
    """Real parties on `slots` of a ring on all-zero input, at seed 1."""

    def ring_input(self, ctx):
        return self.ring.zeros_w, 1


class TrueSendProgram(PartyProgram):
    """Roles 0 and 2 send b"x" to local id True on their first step, which
    the engine refuses although True == 1; every role outputs 0 after its
    second step, so the messages of step 1 are read."""

    def __init__(self, me):
        self.me = me

    def init(self, input_bytes, coins):
        return 0

    def step(self, state, round_no, inbox):
        return state + 1, {True: b"x"} if state == 0 and self.me != 1 else {}

    def finished(self, state):
        return b"\x00" if state >= 2 else None


def true_sender_spec():
    return ProtocolSpec("true_send", tuple(TrueSendProgram(i) for i in range(3)),
                        RoundBound("strict", 2), tuple(RawInput(8) for _ in range(3)))


class FixedRingEmbedding(NeighborEmbeddingAdversary):
    """Embedding adversary that simulates a given ring input and seed."""

    def __init__(self, spec3, m, j, w, seed):
        super().__init__(spec3, m, j)
        self.w, self.seed = w, seed

    def ring_input(self, ctx):
        return self.w, self.seed


def ring_bits_w(ring, bits):
    assert len(bits) == ring.size
    return JointInput(tuple(
        JointEntry(bytes([b]) + bytes(ring.spec3.domains[s % 3].length - 1), b"ring/%d" % s)
        for s, b in enumerate(bits)
    ))


# the six placements of the real honest parties in the window near copy 1
HONEST_SLOT_TABLE = {
    frozenset({2}): {0: 0, 1: 1},
    frozenset({0}): {1: 1, 2: 2},
    frozenset({1}): {2: 2, 0: 3},
    frozenset({0, 1}): {2: 2},
    frozenset({1, 2}): {0: 0},
    frozenset({0, 2}): {1: 1},
}


def far_slot_scan(size):
    """The lowest slot farthest from the honest window, and that distance."""
    best_slot, best_d = 0, -1
    for s in range(size):
        d = min(ring_distance(size, s, h) for h in HONEST_WINDOW)
        if d > best_d:
            best_slot, best_d = s, d
    return best_slot, best_d


class TestGeometry:
    def test_slot_layout_m2(self):
        ring = RingNetwork(make_xor_exchange(3), 2)
        assert ring.size == 6
        assert [s % 3 for s in range(6)] == [0, 1, 2, 0, 1, 2]
        assert [s // 3 + 1 for s in range(6)] == [1, 1, 1, 2, 2, 2]
        # honest {2, 0}: C1 then A2
        assert honest_slots(frozenset({1})) == {2: 2, 0: 3}

    def test_ring_distance(self):
        assert ring_distance(30, 0, 15) == 15
        assert ring_distance(30, 0, 29) == 1
        assert ring_distance(30, 5, 5) == 0

    def test_same_role_copies_distance(self):
        # copies of the same role sit 3 hops per copy apart, shorter way round wins
        ring = RingNetwork(make_xor_exchange(3), 10)
        a1 = honest_slots(frozenset({2}), 1)[0]
        assert ring_distance(ring.size, a1, honest_slots(frozenset({2}), 6)[0]) == 15
        assert ring_distance(ring.size, a1, honest_slots(frozenset({2}), 5)[0]) == 12

    def test_best_far_slot_small_rings(self):
        # m=4, size 12: slot 7 at distance 4 from the window {0,1,2,3}
        assert attack_geometry(1, "strict") == (4, 7, 4)
        # m=6, size 18: slot 10 is 7 hops from slot 3 and 8 from slot 0
        assert attack_geometry(6, "strict") == (6, 10, 7)
        assert attack_geometry(3, "expected") == (6, 10, 7)

    def test_best_far_slot_matches_the_scan(self):
        for variant in ("strict", "expected"):
            for q in range(1, 65):
                m, pstar, dist = attack_geometry(q, variant)
                assert (pstar, dist) == far_slot_scan(3 * m), (q, variant)

    def test_attack_ring_size_clears_budget(self):
        # m is the smallest even number of copies that covers phase 1's round
        # cap (q strict, 2q expected) and puts P* beyond the budget (q strict,
        # the cap m expected)
        def smallest(cap, budget):
            return next(m for m in range(2, 1000, 2)
                        if m >= cap and far_slot_scan(3 * m)[1] > budget(m))

        for q in range(1, 65):
            assert attack_geometry(q, "strict")[0] == smallest(q, lambda m: q), q
            assert attack_geometry(q, "expected")[0] == smallest(2 * q, lambda m: m), q

    def test_geometry_refusals(self):
        with pytest.raises(ConfigError, match="round bound must be >= 1, got 0"):
            attack_geometry(0, "strict")
        with pytest.raises(ConfigError, match="unknown variant 'loose'"):
            attack_geometry(3, "loose")

    def test_needs_two_copies(self):
        with pytest.raises(ConfigError):
            RingNetwork(make_xor_exchange(3), 1)
        with pytest.raises(ConfigError):
            RingNetwork(make_xor_exchange(4), 2)


class TestRingEmulation:
    def test_slots_run_one_clean_exchange(self):
        # on the ring each slot XORs its own bit with its two neighbors' bits
        spec = make_xor_exchange(3)
        ring = RingNetwork(spec, 2)
        bits = [1, 0, 0, 1, 1, 0]
        res = emulate_ring(ring, ring_bits_w(ring, bits), rounds_cap=2, seed=1)
        for s in range(6):
            want = bits[s] ^ bits[(s - 1) % 6] ^ bits[(s + 1) % 6]
            assert res.outcomes[s] == bytes([want]), s

    def test_cap_leaves_far_slots_running(self):
        spec = make_echo_xor(3, 2)
        ring = RingNetwork(spec, 4)
        res = emulate_ring(ring, ring.zeros_w, rounds_cap=1, seed=1)
        assert all(o is RUNNING for o in res.outcomes)

    def test_locality_mutation_beyond_horizon_is_invisible(self):
        # a run capped at r rounds cannot see changes farther than r hops away
        spec = make_echo_xor(3, 2)
        ring = RingNetwork(spec, 4)
        w = ring.zeros_w
        cap = 3
        probe, far = 0, 6  # distance 6 > cap
        base = emulate_ring(ring, w, cap, seed=9, record=True)
        # overrides are role programs: local ids, not slot ids
        mutant = emulate_ring(ring, w, cap, seed=9, record=True,
                              overrides={far: ByteSpewerProgram(3, far % 3)})
        assert node_view(base, probe) == node_view(mutant, probe)

    def test_locality_mutation_within_horizon_is_visible(self):
        spec = make_echo_xor(3, 2)
        ring = RingNetwork(spec, 4)
        w = ring.zeros_w
        near = 1  # adjacent to the probe, well inside the horizon
        base = emulate_ring(ring, w, 3, seed=9, record=True)
        mutant = emulate_ring(ring, w, 3, seed=9, record=True,
                              overrides={near: ByteSpewerProgram(3, near % 3)})
        assert node_view(base, 0) != node_view(mutant, 0)

    def test_reference_slot_refuses_a_non_neighbour(self):
        ring = RingNetwork(make_xor_exchange(3), 2)
        slot = RelabeledSlot(ring.spec3.programs[1], 1, ring.size)  # between slots 0 and 2
        state = slot.init(bytes(8), CoinStream(1, b"x"))
        assert slot.step(state, 1, {0: b"\x01", 2: b"\x00"})[1] == {0: b"\x00", 2: b"\x00"}
        with pytest.raises(TopologyViolation, match="slot 1 received from non-neighbor 4"):
            slot.step(state, 1, {0: b"\x01", 4: b"\x00"})

    def test_virtual_ring_refuses_an_unmapped_local_id(self):
        # a role program that sends to its own local id has no ring edge for it
        ring = RingNetwork(make_one_send(3, lambda i: i), 2)
        with pytest.raises(SpecViolation, match="slot 1 sent to unmapped local id 1"):
            ring_module.run_honest(ring, ring.zeros_w, 1, 1, 1)

    def test_phase1_refuses_a_local_id_that_is_not_an_int(self):
        # True hashes as role 1's id, a neighbour of roles 0 and 2; the ring
        # refuses it as the engine does. P* = slot 7 hears slots 6 and 8
        spec = true_sender_spec()
        with pytest.raises(TopologyViolation, match="no edge 0->True"):
            run_honest(spec, zeros(spec), 1)
        with pytest.raises(SpecViolation, match="slot 6 sent to unmapped local id True"):
            phase1_strict(spec, 1)
        with pytest.raises(SpecViolation, match="unmapped local id True"):
            full_ring_phase1(spec, "strict", 2, 1, 1)

    def test_bridge_refuses_a_local_id_that_is_not_an_int(self):
        # party 1 is real; its simulated neighbours 0 and 2 send to True
        spec = true_sender_spec()
        bridge = ZeroRingBridge(RingNetwork(spec, 4), honest_slots(frozenset({0, 2})))
        with pytest.raises(SpecViolation, match="slot 0 sent to unmapped local id True"):
            run_with_adversary(spec, bridge, zeros(spec), 1)

    def test_bridge_refuses_slots_off_their_roles(self):
        ring = RingNetwork(make_xor_exchange(3), 4)
        with pytest.raises(ConfigError, match="broke role alignment"):
            ZeroRingBridge(ring, {0: 1, 1: 2})


class TestPhase1:
    def test_strict_deterministic(self):
        spec = make_echo_xor(3, 2)
        a = phase1_strict(spec, 5)
        b = phase1_strict(spec, 5)
        assert a.y_star == b.y_star
        assert a.m == 4 and a.pstar == 7 and a.pstar_distance == 4
        assert not a.aborted and a.iterations_used == 1

    def test_strict_coin_flash_oracle(self):
        # coin_flash outputs its own first coin bit, so y* is predictable
        # from the phase-1 seed and P*'s ring coin label alone
        spec = make_coin_flash(3)
        p1 = phase1_strict(spec, 123)
        expect = CoinStream(p1.seed, b"ring/%d" % p1.pstar).bit(0)
        assert p1.y_star == bytes([expect])

    def test_expected_succeeds_fast_halter(self):
        spec = make_geom_halt(3, 0.9)
        p1 = phase1_expected(spec, 1, z=8, seed=3)
        assert not p1.aborted
        assert p1.y_star == b"\x00"
        assert p1.m == 6
        assert p1.pstar_halt_round <= p1.m

    def test_expected_aborts_slow_halter(self):
        # p tiny: halting within m rounds is essentially impossible
        spec = make_geom_halt(3, 1e-9)
        p1 = phase1_expected(spec, 1, z=3, seed=3)
        assert p1.aborted and p1.y_star is None
        assert p1.iterations_used == 3

    def test_needs_three_party(self):
        with pytest.raises(ConfigError):
            phase1_strict(make_xor_exchange(4), 1)


class TestHonestSlotMap:
    def test_all_six_corrupted_sets(self):
        for corrupted, table_row in HONEST_SLOT_TABLE.items():
            mapping = honest_slots(corrupted)
            assert mapping == table_row
            assert set(mapping) == {0, 1, 2} - corrupted
            for party, slot in mapping.items():
                assert slot % 3 == party      # role-aligned placement
                assert slot in HONEST_WINDOW

    def test_copies_shift_by_three_slots(self):
        for corrupted, table_row in HONEST_SLOT_TABLE.items():
            for copy in range(1, 6):
                assert honest_slots(corrupted, copy) == \
                    {h: 3 * (copy - 1) + slot for h, slot in table_row.items()}

    def test_rejects_degenerate_sets(self):
        for corrupted in (frozenset(), frozenset({0, 1, 2})):
            with pytest.raises(ConfigError, match="not a proper subset of 3 parties"):
                honest_slots(corrupted)
        with pytest.raises(ConfigError):
            honest_slots(frozenset({3}))


class TestEmbedding:
    def test_sampled_ring_input_draws_the_sample_w_bytes(self):
        ring = RingNetwork(make_echo_xor(3, 2), 5)
        w = SampledRingInput(ring, 31, b"ring")
        assert [w[s] for s in reversed(range(ring.size))] == \
            list(reversed(sample_w(ring, 31).entries))

    def test_probe_draws_only_the_slots_it_starts(self, monkeypatch):
        spec = make_xor_exchange(3)
        adv = embedding_family(spec, 4)[0]
        drawn = []
        real = SampledRingInput.__getitem__
        monkeypatch.setattr(SampledRingInput, "__getitem__",
                            lambda self, s: drawn.append(s) or real(self, s))
        started = []
        real_start = VirtualRing._start

        def start(self, lag):
            started.extend(self.layers[lag])
            real_start(self, lag)

        monkeypatch.setattr(VirtualRing, "_start", start)
        run_with_adversary(spec, adv, JointInput.sample(spec, 3), 3)
        assert drawn == started and len(set(drawn)) == len(drawn) < adv.ring.size - 2

    def test_view_coupling_with_true_ring(self):
        """The honest pair plus the embedding adversary reproduce, byte for
        byte, the local views of two adjacent slots of a genuine ring run."""
        spec = make_echo_xor(3, 2)
        m, j = 4, 2
        ring = RingNetwork(spec, m)
        w = sample_w(ring, 77)
        seed = 909
        full = emulate_ring(ring, w, rounds_cap=4 * spec.q, seed=seed, record=True)

        e_a, e_b = 3 * (j - 1), 3 * (j - 1) + 1
        adv = FixedRingEmbedding(spec, m, j, w, seed)
        # party 2 is corrupted: the adversary never reads its entry
        joint = JointInput((w[e_a], w[e_b], w[e_b + 1]))
        res = run_with_adversary(spec, adv, joint, seed, record=True)
        assert res.outcomes[0] == full.outcomes[e_a]
        assert res.outcomes[1] == full.outcomes[e_b]

        # translate the 3-party transcript onto ring slot ids and compare
        relabel = {0: e_a, 1: e_b}
        border = {(2, 0): (e_a - 1) % ring.size, (2, 1): (e_b + 1) % ring.size,
                  (0, 2): (e_a - 1) % ring.size, (1, 2): (e_b + 1) % ring.size}
        got = set()
        for r, src, dst, payload in res.transcript:
            s = relabel.get(src, border.get((src, dst)))
            d = relabel.get(dst, border.get((dst, src)))
            got.add((r, s, d, payload))
        keep = {e_a, e_b}
        want = {rec for rec in map(tuple, full.transcript)
                if rec[1] in keep or rec[2] in keep}
        assert got == want

    def test_family_indexing(self):
        fam = embedding_family(make_xor_exchange(3), 5)
        assert len(fam) == 5
        assert [a.j for a in fam] == [1, 2, 3, 4, 5]
        with pytest.raises(ConfigError):
            NeighborEmbeddingAdversary(make_xor_exchange(3), 5, 6)

    def test_family_sits_on_a_j_and_b_j(self):
        for m in (2, 5, 9):
            for adv in embedding_family(make_xor_exchange(3), m):
                assert adv.external == {3 * (adv.j - 1), 3 * (adv.j - 1) + 1}
                assert adv.corrupted == frozenset({2})

    def test_xor_exchange_boundary_inconsistency_rate(self):
        """xor_exchange honest parties disagree exactly when the two virtual
        boundary bits differ, which happens for half of all sampled rings."""
        from ringbreak.netsim import estimate_consistency

        spec = make_xor_exchange(3)
        rep = estimate_consistency(spec, embedding_family(spec, 4), 250, 31)
        assert 0.40 < rep.delta_hat < 0.60


class TestAttackThreeParty:
    def test_forces_preannounced_value_const(self):
        spec = make_spec("const:5", 3)
        p1 = phase1_strict(spec, 2)
        assert p1.y_star == b"\x05"
        adv = AttackAdversary(p1, frozenset({2}))
        res = run_with_adversary(spec, adv, bits_joint(spec, (0, 0, 0)), 8)
        assert res.pre_announced == b"\x05"
        assert res.honest_outcomes() == [b"\x05", b"\x05"]

    def test_same_phase1_forces_same_value_any_corrupted_set(self):
        # one offline run serves every corrupted set: the announced value is
        # the same and (for a deterministic protocol) forced every time
        spec = make_echo_xor(3, 2)
        p1 = phase1_strict(spec, 42)
        for corrupted in ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}):
            adv = AttackAdversary(p1, frozenset(corrupted))
            res = run_with_adversary(spec, adv, zeros(spec),
                                     derive_seed(1, *sorted(corrupted)))
            assert res.pre_announced == p1.y_star, corrupted
            for o in res.honest_outcomes():
                assert o == p1.y_star, corrupted

    def test_rejects_aborted_phase1(self):
        spec = make_geom_halt(3, 1e-9)
        p1 = phase1_expected(spec, 1, z=2, seed=1)
        with pytest.raises(ConfigError):
            AttackAdversary(p1, frozenset({2}))

    def test_expected_variant_pstar_halts_within_m(self):
        spec = make_geom_halt(3, tuned_halt_probability(7))
        p1 = phase1_expected(spec, 3, z=16, seed=6)
        assert not p1.aborted
        assert p1.pstar_halt_round <= p1.m
        adv = AttackAdversary(p1, frozenset({2}))
        res = run_with_adversary(spec, adv, zeros(spec), 14)
        assert res.honest_outcomes() == [b"\x00", b"\x00"]

    def test_attack_view_matches_ring_locally(self):
        """Honest parties under attack see exactly their window slots' views
        from the offline ring run (same w, same seed)."""
        spec = make_echo_xor(3, 2)
        p1 = phase1_strict(spec, 9)
        offline = emulate_ring(p1.ring, p1.w, rounds_cap=p1.m, seed=p1.seed, record=True)
        adv = AttackAdversary(p1, frozenset({2}))
        res = run_with_adversary(spec, adv, JointInput(p1.w.entries[:3]), 400, record=True)
        assert res.outcomes[0] == offline.outcomes[0]
        assert res.outcomes[1] == offline.outcomes[1]


class TestBundling:
    def test_roundtrip_and_canonical_order(self):
        triples = [(2, 0, b"\xaa"), (0, 1, b""), (1, 0, b"\x00\x01")]
        data = _bundle(triples)
        assert _unbundle(data) == sorted(triples)
        assert _bundle(reversed(triples)) == data

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000), st.binary(max_size=5)),
                    max_size=8))
    def test_bytes_are_the_compact_json_of_the_sorted_rows(self, triples):
        rows = sorted([s, d, p.hex()] for s, d, p in triples)
        assert _bundle(triples) == json.dumps(rows, separators=(",", ":")).encode()


class TestPartition:
    def test_honest_majority_sizes(self):
        p = partition_to_three(9, 3, (6, 7, 8))
        assert p.groups == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        p = partition_to_three(5, 2, (4,))
        assert p.groups == ((0, 1), (2, 3), (4,))

    def test_dishonest_majority_sizes(self):
        p = partition_to_three(6, 3, (5,))
        assert p.groups == ((0, 1, 2), (3, 4), (5,))
        p = partition_to_three(7, 4, (0,))
        assert p.groups == ((1, 2, 3), (4, 5, 6), (0,))

    def test_scattered_corrupted_set(self):
        p = partition_to_three(9, 3, (1, 4, 7))
        assert p.corrupted == (1, 4, 7)
        assert p.groups[0] == (0, 2, 3) and p.groups[1] == (5, 6, 8)

    def test_wrong_coalition_size_rejected(self):
        with pytest.raises(ConfigError):
            partition_to_three(9, 3, (8,))
        with pytest.raises(ConfigError):
            partition_to_three(9, 2, (7, 8))  # t below n/3


class TestFusion:
    def test_fused_xor_exchange_matches_plain(self):
        spec = make_xor_exchange(5)
        part = partition_to_three(5, 2, (4,))
        fused = fuse_parties(spec, part)
        assert fused.n == 3 and fused.q == spec.q

        bits = (1, 1, 0, 0, 1)
        plain = run_honest(spec, bits_joint(spec, bits), 21)
        want = plain.outcomes[0]
        assert want == bytes([1 ^ 1 ^ 0 ^ 0 ^ 1])

        entries = []
        for g in range(3):
            blob = b"".join(bytes([bits[p]]) + bytes(spec.domains[p].length - 1)
                            for p in part.groups[g])
            entries.append(JointEntry(blob, b"g/%d" % g))
        res = run_honest(fused, JointInput(tuple(entries)), 21)
        assert res.outcomes == [want] * 3
        assert res.halt_rounds == plain.halt_rounds[:1] * 3

    def test_fused_round_structure_preserved(self):
        spec = make_echo_xor(6, 2)
        part = partition_to_three(6, 2, (4, 5))
        fused = fuse_parties(spec, part)
        res = run_honest(fused, zeros(fused), 4)
        plain = run_honest(spec, zeros(spec), 4)
        assert res.halt_rounds == [plain.halt_rounds[0]] * 3
        assert res.outcomes == [plain.outcomes[0]] * 3


    @pytest.mark.parametrize("dst_of, edge", [(lambda i: i, "0->0"), (lambda i: 6, "0->6")],
                             ids=["self", "outside"])
    def test_member_send_off_the_graph_raises(self, dst_of, edge):
        spec = make_one_send(6, dst_of)
        fused = fuse_parties(spec, partition_to_three(6, 2, (4, 5)))
        with pytest.raises(TopologyViolation, match=f"^no edge {edge}$"):
            run_honest(fused, zeros(fused), 1)


class TestNPartyAttack:
    def test_const_nine_parties(self):
        spec = make_spec("const:3", 9)
        atk = attack_n_party(spec, 3, (6, 7, 8), 5)
        assert atk.y_star == b"\x03"
        res = run_with_adversary(spec, atk.adversary, zeros(spec), 17)
        assert res.pre_announced == b"\x03"
        assert res.honest_outcomes() == [b"\x03"] * 6

    def test_xor_exchange_five_parties_forced(self):
        spec = make_xor_exchange(5)
        atk = attack_n_party(spec, 2, (4,), 5)
        res = run_with_adversary(spec, atk.adversary, bits_joint(spec, (1,) * 5), 3)
        outs = res.honest_outcomes()
        # honest parties agree with each other on the forced bit
        assert len(set(outs)) == 1
        assert outs[0] in (b"\x00", b"\x01")

    def test_dishonest_majority_partition(self):
        spec = make_spec("const:1", 6)
        atk = attack_n_party(spec, 3, (5,), 2)
        assert atk.partition.groups == ((0, 1, 2), (3, 4), (5,))
        res = run_with_adversary(spec, atk.adversary, zeros(spec), 11)
        assert res.honest_outcomes() == [b"\x01"] * 5

    def test_three_parties_attacked_as_they_are(self):
        # n=3 runs phase 1 on the protocol itself: the same coins as
        # phase1_strict, and a plain AttackAdversary for the corrupted party
        spec = make_spec("fair_coin", 3)
        for corrupted in ((2,), (0,)):
            for seed in range(16):
                atk = attack_n_party(spec, 1, corrupted, seed)
                p1 = phase1_strict(spec, seed)
                got = (atk.phase1.y_star, atk.phase1.seed, atk.phase1.w)
                assert got == (p1.y_star, p1.seed, p1.w), (corrupted, seed)
                assert isinstance(atk.adversary, AttackAdversary)
                assert atk.adversary.corrupted == frozenset(corrupted)

    def test_strict_variant_needs_strict_bound(self):
        spec = make_geom_halt(5, 0.5)
        with pytest.raises(ConfigError):
            attack_n_party(spec, 2, (4,), 1, variant="strict")

    def test_trials_share_one_fused_ring(self):
        # every trial of an n >= 4 attack runs phase 1 on one fused spec, so
        # the ring is built once, not once per trial
        from ringbreak.cli import run_config

        ring_module._ring_network.cache_clear()
        run_config("attack", {"protocol": "or_exchange", "n": 9, "t": 3, "trials": 50,
                              "seed": 1})
        assert ring_module._ring_network.cache_info().misses <= 2

    def test_expected_abort_returns_none_adversary(self):
        spec = make_geom_halt(5, 1e-9)
        atk = attack_n_party(spec, 2, (4,), 1, variant="expected", q_expected=1, z=2)
        assert atk.phase1.aborted and atk.adversary is None and atk.y_star is None


class FullVirtualRing:
    """Reference bridge simulator: steps every simulated slot once per real
    round, the way the ring itself runs, with no light cone (so `cone` is
    not read), each slot relabeled by the reference's own `RelabeledSlot`."""

    def __init__(self, ring, entries, seed, external, cone=None):
        self.external = external
        self.programs = {s: p for s, p in enumerate(slot_programs(ring)) if s not in external}
        self.states = {s: p.init(entries[s].input, entries[s].coins(seed))
                       for s, p in self.programs.items()}
        self.live = [s for s, p in self.programs.items() if p.finished(self.states[s]) is None]
        self.pending = {}

    def step(self, round_no, fed):
        deliver(fed, self.pending)
        sends = step_parties(self.programs, self.states, self.live, round_no, self.pending)
        self.live = [s for s in self.live if self.programs[s].finished(self.states[s]) is None]
        self.pending = deliver(sends)
        return [send for send in sends if send[1] in self.external]


def full_ring_phase1(spec3, variant, q, z, seed):
    """Phase 1 over `emulate_ring`, stepping every slot of the engine ring."""
    m, pstar, _ = attack_geometry(q, variant)
    ring = RingNetwork(spec3, m)
    w = ring.zeros_w
    for it in range(1, z + 1):
        res = emulate_ring(ring, w, rounds_cap=m, seed=derive_seed(seed, "phase1", it))
        if res.outcomes[pstar] is not RUNNING:
            break
    y = res.outcomes[pstar]
    return (None if y is RUNNING else y, res.halt_rounds[pstar], it, y is RUNNING)


def count_slot_steps(monkeypatch):
    """Role-program steps that `ring` runs through the lockstep kernel from
    now on: at n = 3 these are the VirtualRing's slot steps (at n >= 4 each
    FusedProgram steps its members through it too)."""
    calls = [0]
    real = ring_module.step_parties

    def counting(programs, states, live, round_no, inboxes):
        calls[0] += len(live)
        return real(programs, states, live, round_no, inboxes)

    monkeypatch.setattr(ring_module, "step_parties", counting)
    return calls


def spew_spec():
    """A 3-party protocol that chatters every round and never halts."""
    return ProtocolSpec("spew", tuple(ByteSpewerProgram(3, i) for i in range(3)),
                        RoundBound("expected", 1), tuple(RawInput(8) for _ in range(3)))


class OversizeProgram(PartyProgram):
    """Two silent steps, then output 0; on step `loud` it sends its
    predecessor (local id me-1) one message over the engine's byte cap."""

    def __init__(self, me, loud):
        self.me, self.loud = me, loud

    def init(self, input_bytes, coins):
        return 0

    def step(self, state, round_no, inbox):
        if state >= 2:
            return state, {}
        sends = {(self.me - 1) % 3: bytes(MESSAGE_CAP + 1)} if state + 1 == self.loud else {}
        return state + 1, sends

    def finished(self, state):
        return b"\x00" if state >= 2 else None


class InboxOrderProgram(PartyProgram):
    """Hashes its inbox in iteration order, sends the digest both ways, and
    outputs the digest of its third step: any change in inbox order shows."""

    def __init__(self, me):
        self.me = me

    def init(self, input_bytes, coins):
        return (0, coins.read(0, 4))

    def step(self, state, round_no, inbox):
        k, acc = state
        if k >= 3:
            return state, {}
        h = hashlib.sha256(acc)
        for src, payload in inbox.items():
            h.update(bytes([src]) + payload)
        acc = h.digest()[:4]
        return (k + 1, acc), {j: acc for j in range(3) if j != self.me}

    def finished(self, state):
        return state[1] if state[0] >= 3 else None


def order_spec():
    return ProtocolSpec("order", tuple(InboxOrderProgram(i) for i in range(3)),
                        RoundBound("strict", 3), tuple(RawInput(8) for _ in range(3)))


CORRUPTED_SETS = ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2})
STRICT_SELECTORS = ("xor_exchange", "or_exchange", "echo_xor:1", "echo_xor:2",
                    "const:5", "fair_coin")


class TestLightCone:
    """The lagged simulator against a reference that steps every slot."""

    @staticmethod
    def both_runs(monkeypatch, spec, adversary, seed):
        joint = JointInput.sample(spec, seed)
        lagged = run_with_adversary(spec, adversary, joint, seed, record=True)
        with monkeypatch.context() as patch:
            patch.setattr(ring_module, "VirtualRing", FullVirtualRing)
            full = run_with_adversary(spec, adversary, joint, seed, record=True)
        return lagged, full

    def test_lag_layers(self):
        # external {0, 1} on a 12-ring: slots 11 and 2 are observed
        layers, out_of_order = _lag_layers(12, (0, 1), (2, 11))
        assert layers == ((2, 11), (3, 10), (4, 9), (5, 8), (6, 7))
        # slot 10 hears 9 (lag 2) after 11 (lag 0); so do 9, 8 and 7
        assert out_of_order == ((), (10,), (9,), (8,), (7,))
        layers, _ = _lag_layers(12, (), (7,))
        assert layers == ((7,), (6, 8), (5, 9), (4, 10), (3, 11), (0, 2), (1,))

    def test_attack_bridge_matches_full_ring(self, monkeypatch):
        for spec in [make_spec(sel, 3) for sel in STRICT_SELECTORS] + [order_spec()]:
            selector = spec.name
            for seed in range(3):
                p1 = phase1_strict(spec, derive_seed(31, selector, seed))
                for corrupted in CORRUPTED_SETS:
                    adv = AttackAdversary(p1, frozenset(corrupted))
                    tseed = derive_seed(32, selector, seed, *sorted(corrupted))
                    lagged, full = self.both_runs(monkeypatch, spec, adv, tseed)
                    assert lagged.honest_outcomes() == full.honest_outcomes()
                    assert lagged.transcript == full.transcript, (selector, corrupted)

    def test_expected_attack_bridge_matches_full_ring(self, monkeypatch):
        spec = make_spec("geom_halt:0.3", 3)
        for seed in range(4):
            p1 = phase1_expected(spec, 3, 16, derive_seed(33, seed))
            assert not p1.aborted
            for corrupted in CORRUPTED_SETS:
                adv = AttackAdversary(p1, frozenset(corrupted))
                lagged, full = self.both_runs(monkeypatch, spec, adv,
                                              derive_seed(34, seed, *sorted(corrupted)))
                assert lagged.honest_outcomes() == full.honest_outcomes()
                assert lagged.halt_rounds == full.halt_rounds
                assert lagged.transcript == full.transcript, corrupted

    def test_embedding_bridge_matches_full_ring(self, monkeypatch):
        specs = [make_spec(sel, 3) for sel in STRICT_SELECTORS + ("geom_halt:0.3",)]
        for spec in specs + [order_spec()]:
            selector = spec.name
            for adv in embedding_family(spec, 4):
                lagged, full = self.both_runs(monkeypatch, spec, adv,
                                              derive_seed(35, selector, adv.j))
                assert lagged.honest_outcomes() == full.honest_outcomes()
                assert lagged.transcript == full.transcript, (selector, adv.j)

    def test_fused_nine_party_bridge_matches_full_ring(self, monkeypatch):
        for selector in ("or_exchange", "echo_xor:1"):
            spec = make_spec(selector, 9)
            for seed in range(2):
                atk = attack_n_party(spec, 3, (6, 7, 8), derive_seed(36, selector, seed))
                lagged, full = self.both_runs(monkeypatch, spec, atk.adversary,
                                              derive_seed(37, selector, seed))
                assert lagged.honest_outcomes() == full.honest_outcomes()
                assert lagged.transcript == full.transcript, selector

    def test_phase1_matches_full_ring(self):
        m = attack_geometry(3, "expected")[0]
        cases = [(make_spec("geom_halt:%.17g" % tuned_halt_probability(m + 1), 3), z)
                 for z in (1, 2, 3)]
        cases += [(make_spec("const:5", 3), 1), (spew_spec(), 2), (order_spec(), 1)]
        for spec, z in cases:
            for seed in range(200):
                p1 = phase1_expected(spec, 3, z, seed)
                got = (p1.y_star, p1.pstar_halt_round, p1.iterations_used, p1.aborted)
                assert got == full_ring_phase1(spec, "expected", 3, z, seed), (spec.name, z, seed)

    def test_strict_phase1_matches_full_ring(self):
        for selector in ("echo_xor:2", "fair_coin"):
            spec = make_spec(selector, 3)
            for seed in range(50):
                p1 = phase1_strict(spec, seed)
                got = (p1.y_star, p1.pstar_halt_round, p1.iterations_used, p1.aborted)
                assert got == full_ring_phase1(spec, "strict", spec.q, 1, seed), (selector, seed)

    def test_phase1_steps_only_the_light_cone(self, monkeypatch):
        # echo_xor:2 on the 12-ring halts at step 4; P* = slot 7 steps 4 times,
        # the slots 1, 2, 3 hops away 3, 2, 1 times each: 16, not 12 x 4
        calls = count_slot_steps(monkeypatch)
        p1 = phase1_strict(make_spec("echo_xor:2", 3), 5)
        assert (p1.m, p1.pstar, p1.pstar_halt_round) == (4, 7, 4)
        assert calls[0] == 16

    def test_embedding_run_steps_only_the_light_cone(self, monkeypatch):
        # the real pair halts in round 4, so the ring is stepped in rounds
        # 1-3 only, with lags 0, 0-1 and 0-2 of two slots each: 2 + 4 + 6
        # steps; 10 virtual slots would take 40 steps in the full ring
        spec = make_spec("echo_xor:2", 3)
        adv = NeighborEmbeddingAdversary(spec, 4, 2)
        calls = count_slot_steps(monkeypatch)
        run_with_adversary(spec, adv, JointInput.sample(spec, 3), 3)
        assert calls[0] == 12

    @pytest.mark.parametrize("selector,steps", [("echo_xor:2", 12), ("fair_coin", 2)])
    def test_online_attack_steps_only_rounds_an_honest_party_reads(self, monkeypatch,
                                                                  selector, steps):
        # as the embedding run: echo_xor:2 is stepped in rounds 1-3 (2 + 4 + 6
        # slot steps); fair_coin halts in round 2, so only round 1's two
        # observed slots step
        spec = make_spec(selector, 3)
        adv = AttackAdversary(phase1_strict(spec, 5), frozenset({2}))
        calls = count_slot_steps(monkeypatch)
        run_with_adversary(spec, adv, JointInput.sample(spec, 3), 3)
        assert calls[0] == steps

    def test_small_attack_slot_steps(self, monkeypatch):
        # work pin: phase 1, 20 online trials and the delta estimate's 400
        # probe runs step 4864 virtual slots in all; a change that claims the
        # same work keeps this count
        from ringbreak.cli import run_config

        calls = count_slot_steps(monkeypatch)
        run_config("attack", {"protocol": "echo_xor:2", "n": 3, "t": 1, "trials": 20, "seed": 1})
        assert calls[0] == 4864

    def test_oversize_message_in_pstar_cone_raises(self):
        # role 2 on slot 8 sits next to P* = slot 7 and oversteps the cap on
        # its first step, which P* hears on its second
        spec = ProtocolSpec("oversize", tuple(OversizeProgram(i, 1 if i == 2 else 0)
                                              for i in range(3)),
                            RoundBound("strict", 2), tuple(RawInput(8) for _ in range(3)))
        assert attack_geometry(2, "strict")[1] == 7
        with pytest.raises(SpecViolation, match="byte cap"):
            phase1_strict(spec, 1)
        with pytest.raises(SpecViolation, match="byte cap"):
            full_ring_phase1(spec, "strict", 2, 1, 1)

    def test_oversize_message_outside_pstar_cone_is_not_checked(self):
        # role 0 oversteps the cap on its second step; P* = slot 7 halts on
        # its own second step, before slot 6 (one hop away) takes its second,
        # so phase 1 never computes the bad send. The full ring steps every
        # slot to the flush step and refuses it: only computed steps are
        # checked against the engine's rules.
        spec = ProtocolSpec("oversize", tuple(OversizeProgram(i, 2 if i == 0 else 0)
                                              for i in range(3)),
                            RoundBound("strict", 2), tuple(RawInput(8) for _ in range(3)))
        p1 = phase1_strict(spec, 1)
        assert (p1.pstar, p1.y_star, p1.pstar_halt_round) == (7, b"\x00", 2)
        with pytest.raises(SpecViolation, match="byte cap"):
            full_ring_phase1(spec, "strict", 2, 1, 1)

    def test_virtual_to_virtual_sends_are_route_checked(self):
        # with the real pair on slots 3, 4 the role-1 slot 1 steps first in
        # real round 2 and oversteps the cap toward slot 0: no real party
        # ever receives that message, and the simulator still refuses it
        spec = ProtocolSpec("oversize", tuple(OversizeProgram(i, 1 if i == 1 else 0)
                                              for i in range(3)),
                            RoundBound("strict", 2), tuple(RawInput(8) for _ in range(3)))
        ring = RingNetwork(spec, 4)
        vring = VirtualRing(ring, ring.zeros_w, 1, {3, 4})
        assert vring.step(1, ()) == []
        with pytest.raises(SpecViolation, match="message 1->0 exceeds"):
            vring.step(2, ())
