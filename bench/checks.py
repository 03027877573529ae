"""Output checks that hold for any correct ringbreak, whatever its speed.

Each function takes a report (the dict `run_config` returns) and yields one
message per violated invariant; an empty result means the report passes.
"""

from __future__ import annotations


def _attack(rep: dict):
    trials, ran = rep["trials"], rep["ran"]
    aborts = rep.get("aborts", 0)
    if ran + aborts != trials:
        yield f"ran {ran} + aborts {aborts} != trials {trials}"
    if not 0 <= rep["success"] <= ran:
        yield f"success {rep['success']} outside 0..ran {ran}"
    if sum(rep["y_star_histogram"].values()) != ran:
        yield "y* histogram does not sum to ran"
    honest = rep["n"] - len(rep["corrupted"])
    if sum(rep["outcome_histogram"].values()) != ran * honest:
        yield "outcome histogram does not count one output per honest party per run"
    if not 0.0 <= rep["delta_hat"] <= 1.0:
        yield f"delta_hat {rep['delta_hat']} outside [0, 1]"


def _bias(b: dict, label: str):
    if sum(b["counts"].values()) != b["consistent"]:
        yield f"{label}: bucket counts do not sum to consistent"
    if b["consistent"] + b["inconsistent"] != b["trials"]:
        yield f"{label}: consistent + inconsistent != trials"


def _coinflip(rep: dict):
    if rep["mode"] == "honest":
        yield from _bias(rep["bias"], "honest")
    elif rep["mode"] == "verify":
        v = rep["verdict"]
        if v["forced"] is not None:
            yield from _bias(v["forced"], "forced")
        if not 0.0 <= v["delta_hat"] <= 1.0:
            yield f"delta_hat {v['delta_hat']} outside [0, 1]"
    elif rep["mode"] == "attack" and rep.get("forced"):
        yield from _bias(rep["forced"], "forced")


def _consistency(rep: dict):
    per = rep["per_adversary"]
    if sum(a["failures"] for a in per) != rep["pooled_failures"]:
        yield "per-adversary failures do not sum to pooled_failures"
    if sum(a["trials"] for a in per) != rep["pooled_trials"]:
        yield "per-adversary trials do not sum to pooled_trials"
    if len(per) != rep["m"]:
        yield f"{len(per)} adversaries for m={rep['m']}"


def _compile(rep: dict):
    for key in ("no_bot", "abort_forces_y_star", "exact_zero"):
        if rep[key] is not True:
            yield f"{key} is {rep[key]!r}"


def _dominance(rep: dict):
    rows = rep["profile"]
    if [r["k"] for r in rows] != list(range(1, rep["n"] + 1)):
        yield "profile rows are not k = 1..n"
    for lo, hi in zip(rows, rows[1:]):
        if lo["weak"] and not hi["weak"]:
            yield f"weak dominance not monotone at k={lo['k']}"
        if lo["strong"] and not hi["strong"]:
            yield f"strong dominance not monotone at k={lo['k']}"
    for r in rows:
        if r["strong"] and not r["weak"]:
            yield f"strong without weak at k={r['k']}"
        if r["strong"] != (r["y_star"] is not None):
            yield f"y* present iff strong violated at k={r['k']}"
    first_strong = next((r["k"] for r in rows if r["strong"]), None)
    if rep["minimal_strong_k"] != first_strong:
        yield "minimal_strong_k disagrees with the profile"
    collapse = rep.get("collapse")
    if collapse is not None and collapse["holds"] is not True:
        yield f"weak => strong collapse failed at m={collapse['m']}"


CHECKS = {
    "attack": _attack,
    "coinflip": _coinflip,
    "consistency": _consistency,
    "compile": _compile,
    "dominance": _dominance,
}


def invariant_violations(kind: str, report: dict) -> list[str]:
    try:
        return list(CHECKS[kind](report))
    except (KeyError, TypeError) as e:
        return [f"report lacks an expected field: {e!r}"]
