"""One regime rule: every entry point takes k(n, t) from `coalition_size`.

For 3 <= n <= 30 and -1 <= t <= n, `partition_to_three` and the `attack`
experiment must refuse exactly the (n, t) the rule refuses, with its text,
and use a coalition of exactly k parties; `classify` and `wrap_dominated`
must do the same on or_table(n) for 3 <= n <= 8. `bias_attack` with its
default ceil(n/3) parties must run exactly where the rule at t = ceil(n/3)
gives a coalition of that size.
"""

import math
import types

import pytest

import ringbreak.cli as cli
import ringbreak.coinflip as coinflip
from ringbreak.coinflip import bias_attack, default_bias_coalition
from ringbreak.core import ConfigError, coalition_size
from ringbreak.ring import partition_to_three
from ringbreak.zoo import make_spec
from support import or_refusal, table_regime_disagreements

GRID = [(n, t) for n in range(3, 31) for t in range(-1, n + 1)]


def test_rule_values():
    assert [coalition_size(9, t) for t in (3, 4, 5, 8)] == [3, 1, 1, 1]
    assert [coalition_size(7, t) for t in (3, 4)] == [1, 1]
    assert coalition_size(3, 1) == 1 and coalition_size(5, 2) == 1 and coalition_size(6, 2) == 2


@pytest.mark.parametrize("n, t, text", [
    (2, 1, "need n >= 3 parties, got n=2"),
    (3, 3, "t=3 corruptions must be fewer than n=3 parties"),
    (9, 2, "t=2 is below n/3 for n=9, where broadcast is achievable"),
    (9, -1, "t=-1 is below n/3 for n=9, where broadcast is achievable"),
])
def test_rule_refusals(n, t, text):
    with pytest.raises(ConfigError) as e:
        coalition_size(n, t)
    assert str(e.value) == text


def test_partition_follows_the_rule():
    bad = []
    for n, t in GRID:
        want = or_refusal(lambda: coalition_size(n, t))
        if isinstance(want, str):
            got = or_refusal(lambda: partition_to_three(n, t, ()))
        else:
            got = or_refusal(lambda: len(partition_to_three(n, t, range(n - want, n)).corrupted))
            for size in (want - 1, want + 1):
                if not isinstance(or_refusal(lambda: partition_to_three(n, t, range(size))), str):
                    bad.append(f"n={n} t={t}: took a coalition of {size}")
        if got != want:
            bad.append(f"n={n} t={t}: {got!r}, rule {want!r}")
    assert bad == []


def test_attack_follows_the_rule(monkeypatch):
    # the delta estimate reads only the 3-party form, never k, and is the
    # bulk of an attack's cost, so it is stubbed out here
    monkeypatch.setattr(cli, "estimate_consistency", lambda *a, **kw: types.SimpleNamespace(
        delta_hat=0.0, delta_ci=(0.0, 0.0)))
    bad = []
    for n, t in GRID:
        want = or_refusal(lambda: coalition_size(n, t))
        cfg = {"protocol": "const:0", "n": n, "t": t, "trials": 1, "seed": 1}
        rep = or_refusal(lambda: cli.run_config("attack", cfg)[0])
        got = rep if isinstance(rep, str) else rep["s"]
        if got != want:
            bad.append(f"n={n} t={t}: {got!r}, rule {want!r}")
        elif not isinstance(rep, str) and rep["corrupted"] != list(range(n - want, n)):
            bad.append(f"n={n} t={t}: default coalition {rep['corrupted']}")
    assert bad == []


def test_bias_attack_follows_the_rule(monkeypatch):
    # the phase-1 search is stubbed as the attack grid stubs delta; the stub
    # records the t the search was handed
    handed = []

    def search(spec, t, corrupt, seed):
        handed.append(t)
        return types.SimpleNamespace(y_star=b"\x01", adversary=None)

    monkeypatch.setattr(coinflip, "attack_n_party", search)
    bad = []
    for n in range(3, 31):
        want = math.ceil(n / 3)
        ok = coalition_size(n, want) == want
        handed.clear()
        got = or_refusal(lambda: bias_attack(make_spec("const:1", n),
                                             default_bias_coalition(n), 1, 1).corrupted)
        if isinstance(got, str):
            if ok or f"n={n}" not in got:
                bad.append(f"n={n}: refused with {got!r}")
        elif not ok or len(got) != want or coalition_size(n, handed[0]) != want:
            bad.append(f"n={n}: ran with {got}, searched at t={handed[0]}")
    assert bad == []


def test_classify_and_wrapper_follow_the_rule():
    assert table_regime_disagreements() == []
