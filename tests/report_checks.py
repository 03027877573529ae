"""A second reading of the reports: each verdict and exit code re-derived
from the report's own numbers, with this module's own arithmetic.

`check(report, exit_code)` takes a report as its JSON reads back and returns
one line per disagreement, none when the report is coherent. Only the
attack and consistency kinds have checks so far; any other kind passes.
"""

from __future__ import annotations

import math

Z95 = 1.96  # two-sided 95% normal quantile


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _wilson(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval of k successes in n trials."""
    p = k / n
    a = Z95 * Z95 / n
    centre = (p + a / 2) / (1 + a)
    half = Z95 * math.sqrt(p * (1 - p) / n + a / (4 * n)) / (1 + a)
    return max(0.0, centre - half), min(1.0, centre + half)


def _three_sigma(k: int, n: int) -> float:
    """Three standard errors of k/n with two pseudo-successes and two
    pseudo-failures added, as the reports' 3-sigma guards use."""
    p = (k + 2) / (n + 4)
    return 3 * math.sqrt(p * (1 - p) / n)


def _differs(out: list[str], name: str, got, want) -> None:
    if isinstance(want, float):
        same = isinstance(got, (int, float)) and _close(got, want)
    elif isinstance(want, (tuple, list)):
        same = (isinstance(got, list) and len(got) == len(want)
                and all(_close(g, w) for g, w in zip(got, want)))
    else:
        same = got == want
    if not same:
        out.append(f"{name} is {got!r}, its numbers give {want!r}")


def check_attack(report: dict, exit_code: int) -> list[str]:
    out: list[str] = []
    trials, ran, success, m = report["trials"], report["ran"], report["success"], report["m"]
    expected = report["config"]["variant"] == "expected"
    aborts = report["aborts"] if expected else 0
    _differs(out, "ran + aborts", ran + aborts, trials)
    if not 0 <= success <= ran:
        return out + [f"success {success} is not within 0..ran = {ran}"]
    y_hist = report["y_star_histogram"]
    _differs(out, "y* histogram total", sum(y_hist.values()), ran)
    y_star = max(y_hist, key=lambda y: (y_hist[y], y)) if y_hist else None
    _differs(out, "y_star", report["y_star"], y_star)
    totals: dict[str, int] = {}
    for party, outputs in report["per_party_outputs"].items():
        _differs(out, f"party {party}'s output total", sum(outputs.values()), ran)
        for y, c in outputs.items():
            totals[y] = totals.get(y, 0) + c
    _differs(out, "outcome_histogram", report["outcome_histogram"], totals)

    pooled = m * report["delta_trials_per_adversary"]
    failures = round(report["delta_hat"] * pooled)
    _differs(out, "delta_hat", report["delta_hat"], failures / pooled)
    _differs(out, "delta_ci", report["delta_ci"], _wilson(failures, pooled))

    rate = success / ran if ran else 0.0
    bound = 1.0 - (1.5 * m + 1.0) * report["delta_hat"] - (_three_sigma(success, ran)
                                                            if ran else 1.0)
    _differs(out, "success_rate", report["success_rate"], rate)
    _differs(out, "success_ci", report["success_ci"], _wilson(success, ran) if ran else (0.0, 1.0))
    _differs(out, "bound", report["bound"], bound)
    holds = rate >= bound
    if not _close(rate, bound):  # a tie is too close to call in floats
        _differs(out, "bound_holds", report["bound_holds"], holds)
    _differs(out, "inconclusive", report["inconclusive"], bound <= 0.0)
    ok = holds
    if expected:
        abort_rate = aborts / trials
        abort_bound = 2.0 ** -report["config"]["z"] + _three_sigma(aborts, trials)
        _differs(out, "abort_rate", report["abort_rate"], abort_rate)
        _differs(out, "abort_bound", report["abort_bound"], abort_bound)
        _differs(out, "abort_ok", report["abort_ok"], abort_rate <= abort_bound)
        ok = ok and abort_rate <= abort_bound
    _differs(out, "exit code", exit_code, 0 if ok else 1)
    return out


def check_consistency(report: dict, exit_code: int) -> list[str]:
    out: list[str] = []
    per = report["per_adversary"]
    trials = report["trials_per_adversary"]
    _differs(out, "number of adversaries", len(per), report["m"])
    for a in per:
        name = a["adversary"]
        _differs(out, f"{name} trials", a["trials"], trials)
        _differs(out, f"{name} delta_hat", a["delta_hat"], a["failures"] / trials)
        _differs(out, f"{name} ci", a["ci"], _wilson(a["failures"], trials))
    pooled = len(per) * trials
    failures = sum(a["failures"] for a in per)
    _differs(out, "pooled_trials", report["pooled_trials"], pooled)
    _differs(out, "pooled_failures", report["pooled_failures"], failures)
    _differs(out, "delta_hat", report["delta_hat"], failures / pooled)
    _differs(out, "delta_ci", report["delta_ci"], _wilson(failures, pooled))
    _differs(out, "exit code", exit_code, 0)
    return out


CHECKS = {"attack": check_attack, "consistency": check_consistency}


def check(report: dict, exit_code: int) -> list[str]:
    """What the report's own numbers contradict in it, one line each."""
    kind_check = CHECKS.get(report["kind"])
    return kind_check(report, exit_code) if kind_check else []
