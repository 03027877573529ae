"""Planted defects: each one is applied with monkeypatch to a single function,
and a semantic check (never a report digest) must fail under it.

Rows so far: a dominance level that drops its last k-set, and one that marks
an unforced row as forced. The deciders' witness recheck reads the table
without the level, so both must end in an AssertionError.
"""

from dataclasses import replace

import pytest

import ringbreak.dominance as dominance
from ringbreak.dominance import is_k_dominated, is_weakly_k_dominated, or_table, xor_table


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
