"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Statistical criteria are inequalities against measured quantities with the
tolerance (3-sigma unless stated) built into the check, not benchmarks.
Every run is fully seeded, so the verdicts are reproducible bit for bit.
"""

import json
import random
import time
from fractions import Fraction

from conftest import ACCEPTANCE_LINES
from support import ByteSpewerProgram, emulate_ring, node_view, sample_w, tuned_halt_probability

from ringbreak.cli import main
from ringbreak.coinflip import bias_attack, verify_no_nontrivial_bias
from ringbreak.compiler import (
    always_abort_adversary,
    coin_abort_adversary,
    compare_real_ideal,
    enumerate_decisions,
    never_abort_adversary,
    wrap_dominated,
)
from ringbreak.core import BOT, JointInput, RUNNING, derive_seed
from ringbreak.dominance import (
    FunctionTable,
    classify,
    dominance_profile,
    is_k_dominated,
    is_weakly_k_dominated,
    or_table,
    pair_and_or_table,
    threshold_table,
    verify_weak_implies_strong,
    xor_table,
)
from ringbreak.netsim import run_with_adversary
from ringbreak.ring import (
    RingNetwork,
    _best_far_slot,
    attack_n_party,
    attack_ring_size,
    embedding_family,
    phase1_expected,
    ring_distance,
)
from ringbreak.netsim import estimate_consistency
from ringbreak.stats import proportion_sigma
from ringbreak.zoo import make_spec


def record(idx: int, name: str, ok: bool, detail: str, t0: float):
    line = (f"[{idx:2d}] {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {time.time() - t0:.1f}s)")
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_c01_ring_locality_is_exact():
    t0 = time.time()
    spec = make_spec("echo_xor:2", 3)
    assert spec.q == 3
    m = 4
    ring = RingNetwork(spec, m)
    pstar, _ = _best_far_slot(ring.size)
    mutants = [v for v in range(ring.size)
               if ring_distance(ring.size, pstar, v) > m]
    assert mutants  # the window slots sit 5 and 6 hops away on a 12-ring
    identical = 0
    perturbed = 0
    for i in range(100):
        w = sample_w(ring, derive_seed(101, "locality-w", i))
        ex = derive_seed(101, "locality-x", i)
        base = emulate_ring(ring, w, rounds_cap=spec.q, seed=ex, record=True)
        assert base.outcomes[pstar] is not RUNNING
        overrides = {v: ByteSpewerProgram(3, v % 3) for v in mutants}
        mut = emulate_ring(ring, w, rounds_cap=spec.q, seed=ex, record=True,
                           overrides=overrides)
        if node_view(base, pstar) == node_view(mut, pstar):
            identical += 1
        if sorted(base.transcript) != sorted(mut.transcript):
            perturbed += 1  # the mutants really did change global traffic
    record(1, "ring locality", identical == 100 and perturbed == 100,
           f"far-slot view byte-identical {identical}/100 under mutated slots "
           f"{mutants}, global transcript perturbed {perturbed}/100", t0)


def test_c02_degenerate_forcing_is_total():
    t0 = time.time()
    good = 0
    total = 0
    for c in (0, 7):
        for n, t in ((3, 1), (5, 2)):
            spec = make_spec(f"const:{c}", n)
            corrupt = (n - 1,)
            for i in range(1000):
                tseed = derive_seed(202, f"const-{c}-{n}", i)
                atk = attack_n_party(spec, t, corrupt, tseed)
                joint = JointInput.sample(spec, derive_seed(tseed, "inputs"))
                res = run_with_adversary(spec, atk.adversary, joint,
                                         derive_seed(tseed, "online"))
                total += 1
                if (not atk.phase1.aborted and atk.y_star == bytes([c])
                        and all(o == bytes([c]) for o in res.honest_outcomes())):
                    good += 1
    record(2, "constant-protocol forcing", good == total == 4000,
           f"{good}/{total} trials pre-announced and forced the constant "
           "(c in {0,7}, n in {3,5})", t0)


def test_c03_strict_attack_success_bound():
    t0 = time.time()
    spec = make_spec("echo_xor:2", 3)
    trials = 2000
    success = 0
    m = None
    for i in range(trials):
        tseed = derive_seed(303, "attack-trial", i)
        atk = attack_n_party(spec, 1, (2,), tseed)
        m = atk.phase1.m
        joint = JointInput.sample(spec, derive_seed(tseed, "inputs"))
        res = run_with_adversary(spec, atk.adversary, joint,
                                 derive_seed(tseed, "online"))
        if all(o == atk.y_star for o in res.honest_outcomes()):
            success += 1
    family = embedding_family(spec, m)
    cons = estimate_consistency(spec, family, trials // len(family),
                                derive_seed(303, "delta"))
    rate = success / trials
    sigma3 = 3 * proportion_sigma(success, trials)
    bound = 1.0 - (1.5 * m + 1.0) * cons.delta_hat - sigma3
    note = " [bound <= 0: inequality holds vacuously]" if bound <= 0 else ""
    record(3, "strict attack success bound", rate >= bound,
           f"rate {rate:.3f} >= 1-(3m/2+1)*delta-3s = {bound:.3f} with m={m}, "
           f"delta_hat {cons.delta_hat:.3f} over {cons.pooled_trials} "
           f"embedding trials{note}", t0)


def test_c04_expected_attack_abort_probability():
    t0 = time.time()
    # tuned so one capped offline attempt fails with probability exactly 1/2:
    # cap m rounds = m+1 step calls, so (1-p)^(m+1) = 1/2
    m = attack_ring_size(3, "expected")
    p = tuned_halt_probability(m + 1)
    assert m == 6 and abs((1.0 - p) ** (m + 1) - 0.5) < 1e-12
    spec = make_spec("geom_halt:%.17g" % p, 3)

    runs = 100_000
    fails = [phase1_expected(spec, 3, 1, derive_seed(404, "p1", i)).aborted
             for i in range(runs)]
    parts = []
    ok = True
    freq1 = None
    for z in range(1, 9):
        blocks = runs // z
        aborts = sum(1 for j in range(blocks)
                     if all(fails[j * z:(j + 1) * z]))
        freq = aborts / blocks
        bound = 2.0 ** (-z) + 3 * proportion_sigma(aborts, blocks)
        if freq > bound:
            ok = False
            parts.append(f"z={z}: {freq:.4f} > {bound:.4f}")
        if z == 1:
            freq1 = freq
    if freq1 < 0.45:
        ok = False
        parts.append(f"z=1 not tight: {freq1:.3f} < 0.45")
    # cross-check the blocking construction against real z=8 searches
    real = sum(phase1_expected(spec, 3, 8, derive_seed(404, "real", i)).aborted
               for i in range(2000))
    rbound = 2.0 ** (-8) + 3 * proportion_sigma(real, 2000)
    if real / 2000 > rbound:
        ok = False
        parts.append(f"real z=8: {real / 2000:.4f} > {rbound:.4f}")
    record(4, "expected-round attack abort rate", ok,
           f"abort freq <= 2^-z+3s for z=1..8 over {runs} offline attempts "
           f"(z=1 freq {freq1:.3f}, real z=8 freq {real / 2000:.4f})"
           + ("; ".join([""] + parts) if parts else ""), t0)


def test_c05_dominance_worked_examples():
    t0 = time.time()
    w_or = is_k_dominated(or_table(3), 1)
    pairs = pair_and_or_table()
    checks = {
        "or3 1-dominated y*=1": w_or is not None and w_or.y_star == 1,
        "pairs weakly-2": is_weakly_k_dominated(pairs, 2) is not None,
        "pairs not 2-dominated": is_k_dominated(pairs, 2) is None,
        "2-of-4 2-dominated y*=1": (lambda w: w is not None and w.y_star == 1)(
            is_k_dominated(threshold_table(4, 2), 2)),
        "xor3 not 2-dominated": is_k_dominated(xor_table(3), 2) is None,
    }
    bad = [k for k, v in checks.items() if not v]
    record(5, "dominance worked examples", not bad,
           "all four verdicts exact" if not bad else f"wrong: {bad}", t0)


def test_c06_weak_implies_strong_and_monotonicity():
    t0 = time.time()
    rng = random.Random(606)
    collapse_viol = 0
    mono_viol = 0
    for _ in range(10_000):
        n = rng.choice((6, 7))
        f = FunctionTable(n=n, domains=(2,) * n,
                          outputs=tuple(rng.getrandbits(1) for _ in range(2 ** n)))
        if not verify_weak_implies_strong(f, 2).holds:
            collapse_viol += 1
        prof = dominance_profile(f)
        for k in range(n - 1):
            if ((prof.weak[k] and not prof.weak[k + 1])
                    or (prof.strong[k] and not prof.strong[k + 1])):
                mono_viol += 1
    record(6, "weak=>strong collapse at m<=n/3", collapse_viol == 0 and mono_viol == 0,
           f"10000 random boolean tables (n in {{6,7}}, m=2): "
           f"{collapse_viol} collapse violations, {mono_viol} monotonicity violations", t0)


def test_c07_computability_classification():
    t0 = time.time()
    verdicts = {
        "xor3@(3,1)": classify(xor_table(3), 3, 1).verdict,
        "or3@(3,1)": classify(or_table(3), 3, 1).verdict,
        "xor4@(4,2)": classify(xor_table(4), 4, 2).verdict,
        "or4@(4,2)": classify(or_table(4), 4, 2).verdict,
    }
    want = {
        "xor3@(3,1)": "NOT_COMPUTABLE",
        "or3@(3,1)": "COMPUTABLE",
        "xor4@(4,2)": "NOT_COMPUTABLE",
        "or4@(4,2)": "CONDITIONAL",
    }
    bad = {k: v for k, v in verdicts.items() if v != want[k]}
    record(7, "classification verdicts", not bad,
           "4/4 exact" if not bad else f"wrong: {bad}", t0)


def test_c08_wrapper_full_security():
    t0 = time.time()
    f = threshold_table(9, 3)
    wrapped = wrap_dominated(f, 9, 3)
    from itertools import combinations
    no_bot = True
    abort_forces = True
    for inputs in ([0] * 9, [0, 1, 0, 1, 0, 1, 0, 1, 0]):
        for size in range(1, wrapped.t2 + 1):
            for coalition in combinations(range(9), size):
                for dec in enumerate_decisions(wrapped, coalition):
                    rec = wrapped.run_decision(inputs, coalition, dec)
                    if any(o is BOT for o in rec.honest_outputs):
                        no_bot = False
                    if dec.abort and any(o != wrapped.y_star
                                         for o in rec.honest_outputs):
                        abort_forces = False
    inputs = [0, 1, 0, 1, 0, 1, 0, 1, 0]
    exact_ok = True
    for adv in (never_abort_adversary((6, 7, 8), {6: 1, 7: 0, 8: 1}),
                never_abort_adversary((0, 4), {0: 0, 4: 0}),
                always_abort_adversary((6, 7, 8))):
        rep = compare_real_ideal(wrapped, adv, inputs, exhaustive=True)
        if not rep.exact_zero:
            exact_ok = False
    mc = compare_real_ideal(
        wrapped,
        coin_abort_adversary((6, 7, 8), Fraction(1, 2), {6: 1, 7: 1, 8: 1}),
        inputs, exhaustive=False, trials=100_000, seed=808)
    ok = no_bot and abort_forces and exact_ok and mc.distance < 0.01
    record(8, "wrapper full security", ok,
           f"no honest BOT {no_bot}, abort forces y* {abort_forces}, exhaustive "
           f"distance exactly 0 {exact_ok}, monte-carlo distance "
           f"{mc.distance:.4f} < 0.01 at {mc.trials} trials", t0)


def test_c09_coin_forcing_distance_and_abort_rate():
    t0 = time.time()
    spec = make_spec("fair_coin", 3)
    v = verify_no_nontrivial_bias(spec, kappa=10, trials=10_000, seed=909)
    dist_ok = (v.holds is True) or (v.inconclusive and v.bound <= 0)
    aborts = sum(
        bias_attack(spec, (2,), 10, derive_seed(909, "construction", i)).aborted
        for i in range(2000))
    abound = 2.0 ** (-10) + 3 * proportion_sigma(aborts, 2000)
    abort_ok = aborts / 2000 <= abound
    dist_txt = "n/a" if v.distance is None else f"{v.distance:.3f}"
    note = " [bound <= 0: inequality holds vacuously]" if v.bound <= 0 else ""
    record(9, "coin-flip forcing", dist_ok and abort_ok,
           f"distance {dist_txt} vs bound {v.bound:.3f} (delta_hat "
           f"{v.delta_hat:.3f}, kappa=10, m={v.m}){note}; abort freq "
           f"{aborts / 2000:.4f} <= 2^-10+3s = {abound:.4f} over 2000 searches", t0)


def test_c10_reports_rerun_byte_identically(tmp_path):
    t0 = time.time()
    ok = True
    details = []
    jobs_args = ["--jobs", "1"]
    experiments = [
        ["attack", "--protocol", "echo_xor:2", "--t", "1", "--trials", "60",
         "--seed", "5", "--delta-trials", "100"],
        ["coinflip", "--protocol", "const:1", "--mode", "attack",
         "--trials", "1000", "--seed", "6"],
        ["consistency", "--protocol", "xor_exchange", "--trials", "120",
         "--seed", "7"],
    ]
    for idx, args in enumerate(experiments):
        first = tmp_path / f"r{idx}a.json"
        second = tmp_path / f"r{idx}b.json"
        assert main([*args, "--report", str(first), *jobs_args]) in (0, 1)
        assert main(["rerun", "--from", str(first), "--report", str(second),
                     *jobs_args]) in (0, 1)
        same = first.read_bytes() == second.read_bytes()
        ok = ok and same
        details.append(f"{args[0]}={'same' if same else 'DIFFERS'}")
        # embedded config really is the whole experiment
        rep = json.loads(first.read_bytes())
        assert "config" in rep and "kind" in rep
    record(10, "report determinism", ok, ", ".join(details), t0)
