"""Dominance deciders against a from-scratch oracle and the known examples."""

import itertools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ringbreak.core import ConfigError
from ringbreak.dominance import (
    COMPUTABLE,
    CONDITIONAL,
    DominanceWitness,
    FunctionTable,
    NOT_COMPUTABLE,
    PROFILE_BUDGET,
    and_table,
    classify,
    constant_table,
    dominance_profile,
    forced_value,
    is_k_dominated,
    is_weakly_k_dominated,
    or_table,
    pair_and_or_table,
    table_from_fn,
    threshold_table,
    token_key,
    verify_weak_implies_strong,
    xor_table,
)
from support import range_tokens


# ---------------------------------------------------------------- oracle
# Independent re-derivation, no shared helpers: iterate full input vectors
# instead of slicing, and scan subsets in a different order.

def oracle_forced_key(table, fixed):
    """fixed: dict pos->val. token_key of the constant output, None if the
    output varies."""
    seen = set()
    axes = [range(d) if i not in fixed else [fixed[i]] for i, d in enumerate(table.domains)]
    for x in itertools.product(*axes):
        seen.add(token_key(table.value(list(x))))
        if len(seen) > 1:
            return None
    return seen.pop()


def oracle_forced(table, fixed):
    """The constant output under `fixed`, None if the output varies."""
    key = oracle_forced_key(table, fixed)
    return None if key is None else json.loads(key)


def oracle_first_forcing(table, subset, want=None):
    """First assignment to subset, in mixed-radix order, that forces some
    value (or the value whose key is `want`); None if there is none."""
    for vals in itertools.product(*(range(table.domains[i]) for i in subset)):
        key = oracle_forced_key(table, dict(zip(subset, vals)))
        if key is not None and (want is None or key == want):
            return vals
    return None


def oracle_forcible_set(table, subset):
    out = set()
    for vals in itertools.product(*(range(table.domains[i]) for i in subset)):
        key = oracle_forced_key(table, dict(zip(subset, vals)))
        if key is not None:
            out.add(key)
    return out


def oracle_weak(table, k):
    return all(
        len(oracle_forcible_set(table, subset)) > 0
        for subset in itertools.combinations(range(table.n), k)
    )


def oracle_strong(table, k):
    common = None
    for subset in itertools.combinations(range(table.n), k):
        forcible = oracle_forcible_set(table, subset)
        common = forcible if common is None else common & forcible
        if not common:
            return False
    return bool(common)


def random_table(rng, n, max_dom=2):
    domains = [rng.randint(2, max_dom) for _ in range(n)]
    size = 1
    for d in domains:
        size *= d
    outputs = [rng.randint(0, 1) for _ in range(size)]
    return FunctionTable(n=n, domains=tuple(domains), outputs=tuple(outputs))


def mixed_table(rng):
    """n in 1..5, domain sizes 1..4, up to three tokens among ints, null,
    booleans and strings; one token is hot, so some sets force it."""
    n = rng.randint(1, 5)
    domains = tuple(rng.randint(1, 4) for _ in range(n))
    size = 1
    for d in domains:
        size *= d
    pool = rng.sample([0, 1, None, True, False, "a", "1"], rng.randint(1, 3))
    hot, p = pool[0], rng.random()
    outputs = tuple(hot if rng.random() < p else rng.choice(pool) for _ in range(size))
    return FunctionTable(n=n, domains=domains, outputs=outputs)


def sliced_recheck(table, w):
    """The recheck as one `forced_value` slice per subset; null outputs are
    told from varying ones by the full-vector oracle."""
    if not 0 < w.k <= table.n:
        return False
    if set(w.per_subset) != set(itertools.combinations(range(table.n), w.k)):
        return False
    for subset, (assignment, tok) in w.per_subset.items():
        try:
            got = forced_value(table, subset, assignment)
        except ConfigError:  # wrong length, or not an in-domain int
            return False
        if type(got) is not type(tok) or got != tok:
            return False
        if tok is None and oracle_forced_key(table, dict(zip(subset, assignment))) != b"null":
            return False
        if w.kind == "strong" and (type(tok) is not type(w.y_star) or tok != w.y_star):
            return False
    return True


TAMPERS = ("none", "flip_value", "swap_token", "foreign_token", "missing", "extra",
           "longer", "shorter", "bool_value", "float_value", "strong_token", "strong_y_star")


def tamper(rng, table, w, how):
    """`w` with one defect of kind `how` planted in a random subset."""
    per = dict(w.per_subset)
    subset = rng.choice(sorted(per))
    assignment, tok = per[subset]
    others = [t for t in range_tokens(table) if token_key(t) != token_key(tok)]
    if how == "flip_value":
        i = rng.randrange(len(assignment))
        d = table.domains[subset[i]]
        flipped = list(assignment)
        flipped[i] = (flipped[i] + rng.randrange(1, d)) % d if d > 1 else flipped[i]
        per[subset] = (tuple(flipped), tok)
    elif how == "swap_token" and others:
        per[subset] = (assignment, rng.choice(others))
    elif how == "foreign_token":
        per[subset] = (assignment, rng.choice([2, "b", 1.0, [tok], (tok,)]))
    elif how == "missing":
        del per[subset]
    elif how == "extra":
        per[tuple(reversed(subset)) if w.k > 1 else (table.n,)] = (assignment, tok)
    elif how == "longer":
        per[subset] = (assignment + (0,), tok)
    elif how == "shorter":
        per[subset] = (assignment[:-1], tok)
    elif how == "bool_value":
        per[subset] = (tuple(bool(v) if v < 2 else v for v in assignment), tok)
    elif how == "float_value":
        per[subset] = (tuple(map(float, assignment)), tok)
    elif how == "strong_token" and others:
        return replace(w, kind="strong", per_subset={**per, subset: (assignment, others[0])})
    elif how == "strong_y_star" and others:
        return replace(w, kind="strong", y_star=others[0])
    return replace(w, per_subset=per)


def guessed_witness(rng, table, k):
    """A witness with random assignments and tokens, mostly false."""
    tokens = range_tokens(table)
    return DominanceWitness(k=k, kind="weak", y_star=None, per_subset={
        s: (tuple(rng.randrange(table.domains[p]) for p in s), rng.choice(tokens))
        for s in itertools.combinations(range(table.n), k)})


class TestFunctionTable:
    def test_index_and_value(self):
        f = table_from_fn(3, (2, 3, 2), lambda a, b, c: a * 100 + b * 10 + c)
        assert f.value([1, 2, 0]) == 120
        assert f.value([0, 0, 1]) == 1
        # first position most significant
        assert f.index((1, 0, 0)) == 6

    def test_validation(self):
        with pytest.raises(ConfigError):
            FunctionTable(n=2, domains=(2,), outputs=(0, 0))
        with pytest.raises(ConfigError):
            FunctionTable(n=2, domains=(2, 2), outputs=(0, 0, 0))
        with pytest.raises(ConfigError):
            FunctionTable(n=2, domains=(2, 0), outputs=())

    def test_json_roundtrip(self):
        f = pair_and_or_table()
        g = FunctionTable.from_json(f.to_json())
        assert g.n == f.n and g.domains == f.domains and g.outputs == f.outputs

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FunctionTable.from_json("[1,2,3]")
        with pytest.raises(ConfigError):
            FunctionTable.from_json(json.dumps({"n": 2, "domains": [2, 2]}))
        with pytest.raises(ConfigError):
            FunctionTable.from_json(json.dumps(
                {"n": 2, "domains": [2, 2], "outputs": [0, 1, 2, [3]]}))
        for bad in ({"n": "x"}, {"domains": 2}, {"domains": ["a"]}, {"outputs": "abcd"}):
            table = {"n": 2, "domains": [2, 2], "outputs": [0, 1, 1, 0], **bad}
            with pytest.raises(ConfigError):
                FunctionTable.from_json(json.dumps(table))

    def test_range_tokens_sorted(self):
        f = table_from_fn(2, (2, 2), lambda a, b: ["b", "a", "a", "c"][a * 2 + b])
        assert range_tokens(f) == ["a", "b", "c"]


class TestForcedValue:
    def test_or_forcing(self):
        f = or_table(3)
        assert forced_value(f, (0,), (1,)) == 1
        assert forced_value(f, (0,), (0,)) is None
        assert forced_value(f, (0, 1, 2), (0, 0, 0)) == 0

    def test_rejects_bad_positions(self):
        f = or_table(3)
        with pytest.raises(ConfigError):
            forced_value(f, (0, 0), (1, 1))
        with pytest.raises(ConfigError):
            forced_value(f, (5,), (1,))
        with pytest.raises(ConfigError):
            forced_value(f, (0,), (7,))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_random(self, seed):
        import random
        rng = random.Random(seed)
        f = random_table(rng, rng.randint(2, 4))
        k = rng.randint(1, f.n)
        subset = tuple(sorted(rng.sample(range(f.n), k)))
        vals = tuple(rng.randrange(f.domains[i]) for i in subset)
        assert forced_value(f, subset, vals) == oracle_forced(f, dict(zip(subset, vals)))


class TestDeciders:
    def test_or_is_1_dominated(self):
        w = is_k_dominated(or_table(3), 1)
        assert w is not None and w.y_star == 1

    def test_and_is_1_dominated_by_zero(self):
        w = is_k_dominated(and_table(3), 1)
        assert w is not None and w.y_star == 0

    def test_xor_only_full_control(self):
        f = xor_table(3)
        assert is_weakly_k_dominated(f, 2) is None
        assert is_k_dominated(f, 2) is None
        w = is_k_dominated(f, 3)
        assert w is not None and w.y_star == 0  # both forcible; smallest encoding wins

    def test_pairs_weak_but_not_strong_at_2(self):
        f = pair_and_or_table()
        weak = is_weakly_k_dominated(f, 2)
        assert weak is not None
        # different pairs force different values: {0,1} can force 1, {0,2} only 0
        assert weak.per_subset[(0, 1)][1] == 1
        assert weak.per_subset[(0, 2)][1] == 0
        assert is_k_dominated(f, 2) is None
        strong3 = is_k_dominated(f, 3)
        assert strong3 is not None

    def test_threshold_table_dominated_by_one(self):
        # any 3 of 9 parties can push a 3-of-9 threshold over the top
        w = is_k_dominated(threshold_table(9, 3), 3)
        assert w is not None and w.y_star == 1

    def test_witness_recheck_detects_tampering(self):
        w = is_k_dominated(or_table(3), 1)
        assert w.recheck(or_table(3))
        assert not w.recheck(and_table(3))

    def test_constant_table_forces_its_constant(self):
        w = is_k_dominated(constant_table(3, 5), 1)
        assert w.y_star == 5

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_weak_matches_oracle(self, seed):
        import random
        rng = random.Random(seed)
        f = mixed_table(rng)
        k = rng.randint(1, f.n)
        w = is_weakly_k_dominated(f, k)
        assert (w is not None) == oracle_weak(f, k)
        for subset, (assignment, tok) in (w.per_subset.items() if w else ()):
            assert assignment == oracle_first_forcing(f, subset)
            assert token_key(tok) == oracle_forced_key(f, dict(zip(subset, assignment)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_strong_matches_oracle(self, seed):
        import random
        rng = random.Random(seed)
        f = mixed_table(rng)
        k = rng.randint(1, f.n)
        w = is_k_dominated(f, k)
        assert (w is not None) == oracle_strong(f, k)
        for subset, (assignment, tok) in (w.per_subset.items() if w else ()):
            assert token_key(tok) == token_key(w.y_star)
            assert assignment == oracle_first_forcing(f, subset, token_key(w.y_star))

    def test_recheck_needs_every_subset(self):
        w = is_k_dominated(or_table(3), 2)
        assert not replace(w, per_subset={}).recheck(xor_table(3))
        assert not replace(w, k=4, per_subset={}).recheck(or_table(3))
        missing = dict(list(w.per_subset.items())[1:])
        assert not replace(w, per_subset=missing).recheck(or_table(3))
        extra = {**w.per_subset, (0, 0): ((1, 1), 1)}
        assert not replace(w, per_subset=extra).recheck(or_table(3))

    @pytest.mark.parametrize("assignment", [(1,), (1, 1, 1), (1, 2), (1, True), (1, 0.5)])
    def test_recheck_needs_in_domain_assignments(self, assignment):
        w = is_k_dominated(or_table(3), 2)
        bad = {**w.per_subset, (0, 1): (assignment, 1)}
        assert not replace(w, per_subset=bad).recheck(or_table(3))

    def test_recheck_tells_varying_from_null(self):
        claim = {(0,): ((0,), None), (1,): ((1,), 1)}
        w = DominanceWitness(k=1, kind="weak", y_star=None, per_subset=claim)
        # x0 = 0 leaves null and 1
        assert not w.recheck(FunctionTable(n=2, domains=(2, 2), outputs=(None, 1, 1, 1)))
        forced_null = {(0,): ((0,), None), (1,): ((0,), None)}
        assert replace(w, per_subset=forced_null).recheck(
            FunctionTable(n=2, domains=(2, 2), outputs=(None, None, None, 1)))

    @given(st.integers(0, 10_000), st.sampled_from(TAMPERS), st.sampled_from([PROFILE_BUDGET, 1]))
    @settings(max_examples=300, deadline=None)
    def test_recheck_matches_sliced_recheck(self, seed, how, budget):
        import random
        from unittest import mock
        import ringbreak.dominance as dominance

        rng = random.Random(seed)
        f = mixed_table(rng)
        k = rng.randint(1, f.n)
        real = [w for w in (is_weakly_k_dominated(f, k), is_k_dominated(f, k)) if w]
        # budget 1: the recheck gathers one set per chunk
        with mock.patch.object(dominance, "PROFILE_BUDGET", budget):
            assert all(w.recheck(f) for w in real)
            for w in real + [guessed_witness(rng, f, k)]:
                bad = tamper(rng, f, w, how)
                assert bad.recheck(f) == sliced_recheck(f, bad), (f.to_json(), bad)

    def test_chunked_levels_match_unchunked(self, monkeypatch):
        import random
        import ringbreak.dominance as dominance

        rng = random.Random(5)
        tables = [mixed_table(rng) for _ in range(30)] + [threshold_table(6, 2)]
        whole = [[(is_weakly_k_dominated(f, k), is_k_dominated(f, k))
                  for k in range(1, f.n + 1)] for f in tables]
        for budget in (1, 150):  # one set per chunk; a few sets per chunk
            monkeypatch.setattr(dominance, "PROFILE_BUDGET", budget)
            fresh = [FunctionTable(n=f.n, domains=f.domains, outputs=f.outputs) for f in tables]
            assert [[(is_weakly_k_dominated(f, k), is_k_dominated(f, k))
                     for k in range(1, f.n + 1)] for f in fresh] == whole

    def test_one_and_true_are_different_outputs(self):
        # a relabelled XOR: Python's True == 1 must not merge the two outputs
        f = FunctionTable.from_json(json.dumps(
            {"n": 3, "domains": [2, 2, 2], "outputs": [1, True, True, 1, True, 1, 1, True]}))
        assert [token_key(y) for y in range_tokens(f)] == [b"1", b"true"]
        assert classify(f, 3, 1).verdict == NOT_COMPUTABLE


class TestProfile:
    def test_profile_or3(self):
        p = dominance_profile(or_table(3))
        assert p.weak == (True, True, True)
        assert p.strong == (True, True, True)
        assert p.minimal_strong_k == 1

    def test_profile_xor3(self):
        p = dominance_profile(xor_table(3))
        assert p.weak == (False, False, True)
        assert p.strong == (False, False, True)
        assert p.minimal_strong_k == 3

    def test_profile_monotone_random(self):
        import random
        rng = random.Random(99)
        for _ in range(50):
            p = dominance_profile(random_table(rng, rng.randint(2, 5)))
            for k in range(p.n - 1):
                assert not (p.strong[k] and not p.strong[k + 1])
                assert not (p.weak[k] and not p.weak[k + 1])

    def test_budget_enforced(self):
        f = or_table(3)
        with pytest.raises(ConfigError):
            dominance_profile(f, budget=7)


class TestCollapse:
    def test_range_guard(self):
        with pytest.raises(ConfigError):
            verify_weak_implies_strong(or_table(3), 2)  # 3m > n

    def test_holds_on_examples(self):
        assert verify_weak_implies_strong(or_table(3), 1).holds
        assert verify_weak_implies_strong(xor_table(6), 2).holds
        v = verify_weak_implies_strong(threshold_table(9, 3), 3)
        assert v.holds and v.strongly_dominated and v.y_star == 1

    def test_holds_on_random_boolean_tables(self):
        import random
        rng = random.Random(7)
        for _ in range(300):
            n = rng.choice((6, 7))
            f = random_table(rng, n)
            v = verify_weak_implies_strong(f, 2)
            assert v.holds, f.to_json()


class TestClassify:
    def test_honest_majority_band(self):
        c = classify(or_table(9), 9, 3)   # k = 9-6 = 3
        assert c.verdict == COMPUTABLE and c.k == 3
        c = classify(xor_table(9), 9, 3)
        assert c.verdict == NOT_COMPUTABLE

    def test_dishonest_majority(self):
        c = classify(xor_table(4), 4, 2)
        assert c.verdict == NOT_COMPUTABLE and c.k == 1
        c = classify(or_table(4), 4, 2)
        assert c.verdict == CONDITIONAL and c.y_star == 1

    def test_out_of_scope_t(self):
        with pytest.raises(ConfigError):
            classify(or_table(9), 9, 2)  # t < n/3
        with pytest.raises(ConfigError):
            classify(or_table(9), 8, 3)  # arity mismatch
        with pytest.raises(ConfigError):
            classify(or_table(3), 3, 5)  # more corruptions than parties
