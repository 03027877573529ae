"""Experiment runner CLI.

One binary, six experiment subcommands plus `rerun`. Every run emits a JSON
report embedding the resolved experiment config; `rerun --from report.json`
re-executes that config and must reproduce the report byte for byte. Flags
beat config-file values, which beat built-in defaults. Output paths and
worker count are not part of the experiment config. The master seed falls
back to the RINGBREAK_SEED environment variable, then to 1.

Exit codes: 0 success, 1 a checked bound or validation failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict
from typing import Any, Callable, Optional

from .coinflip import bias_attack, measure_bias, verify_no_nontrivial_bias
from .compiler import (ADVERSARIES, compare_real_ideal, enumerate_decisions, make_adversary,
                       wrap_dominated)
from .core import (
    BOT,
    ConfigError,
    JointInput,
    SpecViolation,
    derive_seed,
    is_int,
    outcome_repr,
    selector_help,
)
from .dominance import (
    BUILTINS,
    PROFILE_BUDGET,
    FunctionTable,
    classify,
    dominance_profile,
    make_table,
    verify_weak_implies_strong,
)
from .netsim import (estimate_consistency, run_with_adversary, shutdown_pool, tally,
                     validate_spec)
from .reports import make_report, write_csv, write_report
from .ring import (
    attack_geometry,
    attack_n_party,
    attack_ring_size,
    embedding_family,
    partition_to_three,
    three_party_form,
)
from .stats import proportion_sigma, wilson_interval
from .zoo import ZOO, make_spec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _seed_fallback(value: Optional[int]) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("RINGBREAK_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"RINGBREAK_SEED={env!r} is not an integer")
    return 1


def _load_table(cfg: dict) -> FunctionTable:
    """Resolve the table, refusing one over the cell budget; normalizes cfg
    so the embedded config is self-contained."""
    budget = cfg.get("budget", PROFILE_BUDGET)
    if cfg.get("table_data"):
        table = FunctionTable.from_json(cfg["table_data"])
    elif cfg.get("table"):
        try:
            with open(cfg["table"]) as fh:
                raw = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read table file: {e}")
        table = FunctionTable.from_json(raw)
    elif cfg.get("builtin"):
        table = make_table(cfg["builtin"], budget)
    else:
        raise ConfigError("need --table FILE or --builtin SELECTOR")
    if table.size > budget:
        raise ConfigError(f"table has {table.size} entries, over the budget {budget}")
    if not cfg.get("table_data"):
        cfg["table_data"] = json.loads(table.to_json())
        cfg["table"] = None
    return table


# ---------------------------------------------------------------- attack

def _attack_trial(ctx: tuple, i: int) -> list[tuple]:
    """Keys of attack trial i: ("aborts",) alone when phase 1 aborted, else
    ("ran",), ("y*", hex), ("success",) when every honest output is y*, and
    ("party", pid, outcome) per honest party."""
    spec, cfg = ctx
    tseed = derive_seed(cfg["seed"], "attack-trial", i)
    atk = attack_n_party(spec, cfg["t"], tuple(cfg["corrupt"]), tseed, variant=cfg["variant"],
                         q_expected=cfg["q_expected"], z=cfg["z"])
    if atk.phase1.aborted:
        return [("aborts",)]
    joint = JointInput.sample(spec, derive_seed(tseed, "inputs"))
    res = run_with_adversary(spec, atk.adversary, joint, derive_seed(tseed, "online"))
    y = atk.y_star
    outs = res.honest_outcomes()
    keys = [("ran",), ("y*", y.hex())]
    if all(o == y for o in outs):
        keys.append(("success",))
    keys += [("party", pid, outcome_repr(out)) for pid, out in zip(res.honest(), outs)]
    return keys


def _require_protocol(cfg: dict) -> str:
    if not cfg.get("protocol"):
        raise ConfigError(f"need --protocol, one of: {selector_help(ZOO)}")
    return cfg["protocol"]


def cmd_attack(cfg: dict, jobs: int = 1):
    spec = make_spec(_require_protocol(cfg), cfg["n"])
    n, t = cfg["n"], cfg["t"]
    if t is None:
        raise ConfigError("attack needs --t")
    if cfg["q_expected"] is not None and cfg["variant"] == "strict":
        raise ConfigError("--q-expected applies only to --variant expected")
    s = 1 if 2 * t >= n else n - 2 * t
    corrupt = cfg["corrupt"] if cfg["corrupt"] is not None else list(range(n - s, n))
    cfg["corrupt"] = list(corrupt)
    trials = cfg["trials"]
    if trials < 1:
        raise ConfigError("need at least one trial")
    spec3 = three_party_form(spec, partition_to_three(n, t, corrupt))

    counts = tally(_attack_trial, (spec, cfg), trials, jobs)
    success, ran, aborts = (counts[(k,)] for k in ("success", "ran", "aborts"))
    y_hist = {key[1]: c for key, c in counts.items() if key[0] == "y*"}
    outcomes: Counter = Counter()
    per_party: dict[str, dict[str, int]] = {}
    for key, c in counts.items():
        if key[0] == "party":
            outcomes[key[2]] += c
            per_party.setdefault(str(key[1]), {})[key[2]] = c

    q_expected = cfg["q_expected"]
    m, pstar, _ = attack_geometry(spec.q if q_expected is None else q_expected, cfg["variant"])

    delta_trials = cfg["delta_trials"]
    if delta_trials is None:
        delta_trials = max(100, trials // (2 * m))
    consistency = estimate_consistency(spec3, embedding_family(spec3, m),
                                       delta_trials, derive_seed(cfg["seed"], "delta"),
                                       jobs=jobs)
    delta_hat = consistency.delta_hat

    rate = success / ran if ran else 0.0
    lo, hi = wilson_interval(success, ran) if ran else (0.0, 1.0)
    sigma3 = 3 * proportion_sigma(success, ran) if ran else 1.0
    bound = 1.0 - (1.5 * m + 1.0) * delta_hat - sigma3
    holds = rate >= bound
    code = EXIT_OK if holds else EXIT_FAIL

    body: dict = {
        "protocol": spec.name,
        "n": n, "t": t, "s": s, "m": m, "q": spec.q, "pstar": pstar,
        "corrupted": list(corrupt),
        "trials": trials,
        "ran": ran,
        "success": success,
        "success_rate": rate,
        "success_ci": [lo, hi],
        "delta_hat": delta_hat,
        "delta_ci": consistency.delta_ci,
        "delta_trials_per_adversary": delta_trials,
        "bound": bound,
        "bound_holds": holds,
        "inconclusive": bound <= 0.0,
        "y_star": max(y_hist, key=lambda k: (y_hist[k], k)) if y_hist else None,
        "y_star_histogram": dict(sorted(y_hist.items())),
        "outcome_histogram": dict(sorted(outcomes.items())),
        "per_party_outputs": {k: dict(sorted(v.items())) for k, v in sorted(per_party.items())},
    }
    if cfg["variant"] == "expected":
        abort_rate = aborts / trials
        asigma3 = 3 * proportion_sigma(aborts, trials)
        abort_bound = 2.0 ** (-cfg["z"]) + asigma3
        body.update({"aborts": aborts, "abort_rate": abort_rate,
                     "abort_bound": abort_bound, "abort_ok": abort_rate <= abort_bound})
        if not body["abort_ok"]:
            code = EXIT_FAIL
    csv_rows = ("outcome,count", sorted(outcomes.items()))
    return body, code, csv_rows


# ------------------------------------------------------------- dominance

def cmd_dominance(cfg: dict, jobs: int = 1):
    table = _load_table(cfg)
    profile = dominance_profile(table, budget=cfg["budget"])
    body: dict = {
        "table_name": table.name,
        "n": table.n,
        "domains": list(table.domains),
        "profile": profile.rows(),
        "minimal_strong_k": profile.minimal_strong_k,
    }
    code = EXIT_OK
    if cfg["t"] is not None:
        body["classification"] = asdict(classify(table, table.n, cfg["t"]))
    if cfg["collapse_m"] is not None:
        v = verify_weak_implies_strong(table, cfg["collapse_m"])
        body["collapse"] = asdict(v)
        if not v.holds:
            code = EXIT_FAIL
    csv_rows = ("k,weak,strong,y_star",
                [(r["k"], int(r["weak"]), int(r["strong"]), r["y_star"])
                 for r in profile.rows()])
    return body, code, csv_rows


# ------------------------------------------------------------- coinflip

def cmd_coinflip(cfg: dict, jobs: int = 1):
    spec = make_spec(cfg["protocol"], cfg["n"])
    n = cfg["n"]
    want = math.ceil(n / 3)
    corrupt = cfg["corrupt"] if cfg["corrupt"] is not None else list(range(n - want, n))
    cfg["corrupt"] = list(corrupt)
    mode = cfg["mode"]
    code = EXIT_OK
    if mode == "honest":
        rep = measure_bias(spec, None, cfg["trials"], cfg["seed"], jobs=jobs)
        if rep is None:
            raise ConfigError("no consistent runs; nothing to measure")
        body = {"mode": mode, "bias": asdict(rep)}
        counts = rep.counts
    elif mode == "attack":
        if cfg["trials"] < 1000:
            raise ConfigError("need at least 1000 trials")
        atk = bias_attack(spec, tuple(corrupt), cfg["kappa"],
                          derive_seed(cfg["seed"], "bias-search"))
        body = {"mode": mode, "kappa": cfg["kappa"], "aborted": atk.aborted,
                "attempts": atk.attempts,
                "y_star": atk.y_star.hex() if atk.y_star is not None else None}
        counts = {}
        if not atk.aborted:
            rep = measure_bias(spec, atk.adversary, cfg["trials"],
                               derive_seed(cfg["seed"], "bias-forced"),
                               forced_value=atk.y_star, jobs=jobs)
            body["forced"] = None if rep is None else asdict(rep)
            counts = {} if rep is None else rep.counts
    elif mode == "verify":
        v = verify_no_nontrivial_bias(spec, cfg["kappa"], cfg["trials"], cfg["seed"],
                                      corrupted=tuple(corrupt),
                                      delta_trials=cfg["delta_trials"], jobs=jobs)
        body = {"mode": mode, "verdict": asdict(v)}
        counts = v.forced.counts if v.forced is not None else {}
        if v.holds is False:
            code = EXIT_FAIL
    else:
        raise ConfigError(f"unknown coinflip mode {mode!r}")
    csv_rows = ("bucket,count", sorted(counts.items()))
    return body, code, csv_rows


# -------------------------------------------------------------- compile

def cmd_compile(cfg: dict, jobs: int = 1):
    table = _load_table(cfg)
    n, t = table.n, cfg["t"]
    if t is None:
        raise ConfigError("compile needs --t")
    if (cfg["mc_trials"] or 0) < 0:
        raise ConfigError("--mc-trials must be >= 0")
    wrapped = wrap_dominated(table, n, t)
    inputs = cfg["inputs"] if cfg["inputs"] is not None else [0] * n
    cfg["inputs"] = list(inputs)
    if len(inputs) != n:
        raise ConfigError(f"need {n} inputs, got {len(inputs)}")
    for i, (v, d) in enumerate(zip(inputs, table.domains)):
        if not is_int(v) or not 0 <= v < d:
            raise ConfigError(f"input {v!r} of party {i} outside its domain of size {d}")
    corrupt = cfg["corrupt"] if cfg["corrupt"] is not None else list(range(n - t, n))
    cfg["corrupt"] = list(corrupt)
    if any(not 0 <= i < n for i in corrupt):
        raise ConfigError(f"corrupted ids must lie in 0..{n - 1}, got {corrupt}")
    if len(corrupt) > wrapped.t2:
        raise ConfigError(f"coalition of {len(corrupt)} exceeds t2={wrapped.t2}")
    adv = make_adversary(cfg["adv"], corrupt, inputs)
    if any(d.abort for _, d in adv.branches) and len(corrupt) <= wrapped.t1:
        raise ConfigError(f"--adv {cfg['adv']} can abort, which needs more than "
                          f"t1={wrapped.t1} corrupted parties; got {len(corrupt)}")

    # exhaustive sweep: no honest party ever outputs BOT, and every legal
    # abort lands on y*
    from itertools import combinations
    no_bot = True
    abort_forces = True
    for size in range(1, wrapped.t2 + 1):
        for coalition in combinations(range(n), size):
            for decision in enumerate_decisions(wrapped, coalition):
                rec = wrapped.run_decision(inputs, coalition, decision)
                if any(o is BOT for o in rec.honest_outputs):
                    no_bot = False
                if decision.abort and any(o != wrapped.y_star for o in rec.honest_outputs):
                    abort_forces = False

    comparison = compare_real_ideal(wrapped, adv, inputs, exhaustive=True)
    body: dict = {
        "table_name": table.name,
        "n": n, "t": t, "s": wrapped.s, "t1": wrapped.t1, "t2": wrapped.t2,
        "y_star": wrapped.y_star,
        "adv": cfg["adv"],
        "corrupted": list(corrupt),
        "no_bot": no_bot,
        "abort_forces_y_star": abort_forces,
        "distance_exhaustive": comparison.distance,
        "exact_zero": comparison.exact_zero,
        "real_dist": comparison.real_dist,
        "ideal_dist": comparison.ideal_dist,
    }
    if cfg["mc_trials"]:
        mc = compare_real_ideal(wrapped, adv, inputs, exhaustive=False,
                                trials=cfg["mc_trials"], seed=cfg["seed"])
        body["distance_mc"] = mc.distance
        body["mc_trials"] = cfg["mc_trials"]
    ok = no_bot and abort_forces and comparison.exact_zero
    return body, EXIT_OK if ok else EXIT_FAIL, None


# ---------------------------------------------------- consistency / validate

def cmd_consistency(cfg: dict, jobs: int = 1):
    spec = make_spec(_require_protocol(cfg), cfg["n"])
    if spec.n != 3:
        raise ConfigError("the embedding family probes 3-party protocols; use --n 3")
    m = cfg["m"] if cfg["m"] is not None else attack_ring_size(spec.q, "strict")
    cfg["m"] = m
    rep = estimate_consistency(spec, embedding_family(spec, m), cfg["trials"], cfg["seed"],
                               jobs=jobs)
    csv_rows = ("adversary,trials,failures,delta_hat",
                [(a.adversary, a.trials, a.failures, a.delta_hat) for a in rep.per_adversary])
    return {"m": m, **asdict(rep)}, EXIT_OK, csv_rows


def cmd_validate(cfg: dict, jobs: int = 1):
    spec = make_spec(_require_protocol(cfg), cfg["n"])
    rep = validate_spec(spec, cfg["trials"], cfg["seed"])
    body = {
        "protocol": spec.name,
        "n": spec.n,
        "declared_rounds": {"kind": spec.round_bound.kind, "q": spec.round_bound.q},
        "trials": cfg["trials"],
        "violations": rep.violations,
        "ok": rep.ok,
        "transcript_hash": rep.transcript_hash,
    }
    return body, EXIT_OK if rep.ok else EXIT_FAIL, None


# argparse type, choices and help of each config key's flag, written once;
# `build_parser` adds key `delta_trials` as `--delta-trials`.
FLAGS: dict[str, dict[str, Any]] = {
    "protocol": {"help": f"zoo protocol, one of: {selector_help(ZOO)}"},
    "n": {"type": int},
    "t": {"type": int, "help": "corruption threshold (dominance: also classify at it)"},
    "corrupt": {"type": _parse_int_list, "help": "corrupted ids, e.g. 7,8"},
    "trials": {"type": int, "help": "trials (consistency: per family member)"},
    "variant": {"choices": ["strict", "expected"]},
    "z": {"type": int, "help": "offline iterations for the expected variant"},
    "q_expected": {"type": int, "help": "round bound --variant expected assumes"},
    "delta_trials": {"type": int},
    "seed": {"type": int},
    "table": {"help": "JSON table file"},
    "builtin": {"help": f"builtin table, one of: {selector_help(BUILTINS)}"},
    "collapse_m": {"type": int, "help": "also check weak=>strong at this m"},
    "budget": {"type": int},
    "mode": {"choices": ["honest", "attack", "verify"]},
    "kappa": {"type": int, "help": "offline attempts of the bias search; "
                                   "it aborts with probability <= 2^-kappa"},
    "adv": {"help": f"ideal adversary, one of: {selector_help(ADVERSARIES)}"},
    "inputs": {"type": _parse_int_list},
    "mc_trials": {"type": int},
    "m": {"type": int},
}

# kind -> (handler, help, config schema with defaults). Every schema key but
# table_data is also a flag; a kind is seeded when its schema has "seed".
EXPERIMENTS: dict[str, tuple[Callable, str, dict[str, Any]]] = {
    "attack": (cmd_attack, "run the ring attack and check the success bound",
               {"protocol": None, "n": 3, "t": None, "corrupt": None, "trials": 1000,
                "variant": "strict", "z": 16, "q_expected": None, "delta_trials": None,
                "seed": None}),
    "dominance": (cmd_dominance, "dominance profile and computability verdict",
                  {"table": None, "builtin": None, "table_data": None, "t": None,
                   "collapse_m": None, "budget": 2 ** 24}),
    "coinflip": (cmd_coinflip, "bias measurement and the forcing attack",
                 {"protocol": "fair_coin", "n": 3, "mode": "verify", "kappa": 10,
                  "trials": 10000, "corrupt": None, "delta_trials": None, "seed": None}),
    "compile": (cmd_compile, "wrapper correctness and real-vs-ideal comparison",
                {"table": None, "builtin": None, "table_data": None, "t": None,
                 "adv": "never", "inputs": None, "corrupt": None, "mc_trials": 0,
                 "seed": None}),
    "consistency": (cmd_consistency, "estimate delta under the embedding family",
                    {"protocol": None, "n": 3, "m": None, "trials": 500, "seed": None}),
    "validate": (cmd_validate, "check a zoo protocol against its declared contract",
                 {"protocol": None, "n": 3, "trials": 25, "seed": None}),
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags take precedence")
    p.add_argument("--report", help="write the JSON report here (default stdout)")
    p.add_argument("--csv", help="write a CSV summary here")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for every Monte-Carlo trial loop (default 1); "
                        "the report is byte-identical at any N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringbreak",
        description="Attack laboratory for broadcast-free multiparty protocols.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for kind, (_, help_text, schema) in EXPERIMENTS.items():
        p = sub.add_parser(kind, help=help_text)
        for key in schema:
            if key != "table_data":
                p.add_argument("--" + key.replace("_", "-"), dest=key, **FLAGS[key])
        _add_common(p)
    p = sub.add_parser("rerun", help="re-execute a report's embedded config")
    p.add_argument("--from", dest="from_path", required=True, help="existing report JSON")
    _add_common(p)
    return parser


def _check_value(key: str, value, default) -> None:
    """Reject a config value its flag could not have produced; null only
    where the default is null."""
    if value is None:
        if default is not None:
            raise ConfigError(f"config key {key!r} cannot be null")
        return
    flag = FLAGS[key]
    kind = flag.get("type", str)
    if "choices" in flag:
        ok, want = value in flag["choices"], "one of " + ", ".join(flag["choices"])
    elif kind is int:
        ok, want = is_int(value), "an integer"
    elif kind is _parse_int_list:
        ok, want = isinstance(value, list) and all(map(is_int, value)), "a list of integers"
        if ok and key == "corrupt" and len(set(value)) < len(value):
            ok, want = False, "a list of distinct integers"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"config key {key!r} must be {want}, got {value!r}")


def run_config(kind: str, cfg: dict, jobs: int = 1) -> tuple[dict, int, Any]:
    """Execute one experiment config; returns (report, exit_code, csv payload)."""
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    handler, _, schema = EXPERIMENTS[kind]
    unknown = set(cfg) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {kind}: {sorted(unknown)}")
    for key, value in cfg.items():
        if key != "table_data":  # FunctionTable.from_json checks it
            _check_value(key, value, schema[key])
    merged = {**schema, **cfg}
    if "seed" in schema:
        merged["seed"] = _seed_fallback(merged["seed"])
    body, code, csv_payload = handler(merged, jobs=jobs)
    return make_report(kind, merged, body), code, csv_payload


def _load_object(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read {what}: {e}")
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must hold a JSON object")
    return data


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "rerun":
            old = _load_object(args.from_path, "report")
            if not isinstance(old.get("kind"), str) or not isinstance(old.get("config"), dict):
                raise ConfigError("not a ringbreak report: needs a kind and a config object")
            report, code, csv_payload = run_config(old["kind"], old["config"], jobs=args.jobs)
        else:
            cfg = _load_object(args.config, "config file") if args.config else {}
            schema = EXPERIMENTS[args.cmd][2]
            cfg.update((k, v) for k, v in vars(args).items() if k in schema and v is not None)
            report, code, csv_payload = run_config(args.cmd, cfg, jobs=args.jobs)
        data = write_report(report, args.report)
        if not args.report:
            sys.stdout.write(data.decode())
        if args.csv and csv_payload:
            header, rows = csv_payload
            write_csv(args.csv, header.split(","), rows)
        return code
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SpecViolation as e:
        print(f"contract violation: {e}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        shutdown_pool()


if __name__ == "__main__":
    sys.exit(main())
