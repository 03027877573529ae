"""End-to-end CLI runs: exit codes, report plumbing, reruns, seeds."""

import csv
import json
import multiprocessing
import re
from dataclasses import replace

import pytest

import ringbreak.cli as cli
import ringbreak.coinflip as coinflip
import ringbreak.netsim as netsim
import ringbreak.ring as ring
from ringbreak.cli import main
from ringbreak.core import (ConfigError, JointInput, SpecViolation, TopologyViolation,
                            coalition_size, derive_seed)
from ringbreak.reports import render_report
from ringbreak.ring import attack_n_party
from ringbreak.zoo import make_spec


def run(tmp_path, *argv, name="report.json"):
    """Invoke the CLI writing the report to a temp file; return (code, report)."""
    path = tmp_path / name
    code = main([*argv, "--report", str(path)])
    report = json.loads(path.read_bytes()) if path.exists() else None
    return code, report


class TestValidate:
    def test_zoo_protocol_passes(self, tmp_path):
        code, rep = run(tmp_path, "validate", "--protocol", "xor_exchange",
                        "--trials", "10", "--seed", "1")
        assert code == 0
        assert rep["kind"] == "validate" and rep["ok"] is True
        assert rep["config"]["protocol"] == "xor_exchange"
        assert rep["declared_rounds"] == {"kind": "strict", "q": 1}

    def test_unknown_protocol_is_usage_error(self, tmp_path):
        code, rep = run(tmp_path, "validate", "--protocol", "wat", "--seed", "1")
        assert code == 2 and rep is None

    def test_protocol_required(self, tmp_path):
        code, _ = run(tmp_path, "validate", "--seed", "1")
        assert code == 2


class TestAttack:
    def test_constant_protocol_is_fully_forced(self, tmp_path):
        code, rep = run(tmp_path, "attack", "--protocol", "const:5", "--t", "1",
                        "--trials", "50", "--seed", "7")
        assert code == 0
        assert rep["success_rate"] == 1.0 and rep["y_star"] == "05"
        assert rep["delta_hat"] == 0.0
        assert rep["bound_holds"] and not rep["inconclusive"]
        assert rep["corrupted"] == [2]  # default: the last s parties

    def test_stdout_report_when_no_file(self, capsys):
        code = main(["attack", "--protocol", "const:0", "--t", "1",
                     "--trials", "20", "--seed", "1"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["kind"] == "attack" and rep["success"] == 20

    def test_oversize_message_in_phase1_light_cone_exits_1(self, capsys):
        # at n=27 each fused echo_xor:2 round-2 bundle carries 81 member
        # messages (5176 bytes): P* sends one on its own second step
        code = main(["attack", "--protocol", "echo_xor:2", "--n", "27", "--t", "9",
                     "--trials", "1", "--delta-trials", "100", "--seed", "1"])
        assert code == 1
        assert "exceeds 4096 byte cap" in capsys.readouterr().err

    def test_builds_one_attack_per_trial(self, tmp_path, monkeypatch):
        # a protocol that reads coins gets a phase 1 of its own per trial; a
        # coin-free one runs the same phase 1 in every trial, so it is built once
        calls = []
        real = cli.attack_n_party

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "attack_n_party", counting)
        for protocol, builds in (("fair_coin", 7), ("const:1", 1)):
            calls.clear()
            code, _ = run(tmp_path, "attack", "--protocol", protocol, "--t", "1",
                          "--trials", "7", "--delta-trials", "100", "--seed", "2",
                          "--jobs", "1")
            assert code == 0, protocol
            assert len(calls) == builds, protocol
            assert calls[0][3] == derive_seed(2, "attack-trial", 0)

    @pytest.mark.parametrize("flags, message", [
        (["--delta-trials", "5"], "need at least 100 trials for a meaningful estimate"),
        (["--variant", "expected", "--z", "0"], "need z >= 1 iterations"),
        (["--z", "-3"], "need z >= 1 iterations"),
    ], ids=["delta-trials", "z", "z-strict"])
    def test_bad_flags_are_refused_before_any_trial(self, flags, message, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("an attack was built")

        monkeypatch.setattr(cli, "attack_n_party", never)
        code = main(["attack", "--protocol", "echo_xor:2", "--t", "1", "--trials", "4000",
                     "--seed", "1", *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # every coin-free zoo protocol at n=3, and fused groups of three at n=9
    COIN_FREE_CONFIGS = [
        *[{"protocol": p, "n": 3, "t": 1}
          for p in ("const:1", "xor_exchange", "or_exchange", "echo_xor:2")],
        {"protocol": "echo_xor:2", "n": 3, "t": 1, "variant": "expected", "z": 2},
        *[{"protocol": p, "n": 9, "t": 3} for p in ("or_exchange", "xor_exchange")],
    ]

    @pytest.mark.parametrize(
        "cfg", COIN_FREE_CONFIGS,
        ids=lambda c: f"{c['protocol']}-n{c['n']}-{c.get('variant', 'strict')}")
    def test_one_build_reports_what_a_build_per_trial_does(self, cfg, monkeypatch):
        cfg = {**cfg, "trials": 12, "delta_trials": 100, "seed": 4}
        hoisted = render_report(cli.run_config("attack", dict(cfg))[0])
        real = cli.make_spec
        monkeypatch.setattr(cli, "make_spec",
                            lambda *a: replace(real(*a), coin_free=False))
        assert render_report(cli.run_config("attack", dict(cfg))[0]) == hoisted

    @pytest.mark.parametrize(
        "cfg", COIN_FREE_CONFIGS,
        ids=lambda c: f"{c['protocol']}-n{c['n']}-{c.get('variant', 'strict')}")
    def test_shared_online_run_equals_a_fresh_run(self, cfg):
        # against the context-free attack a coin-free run depends on the
        # honest inputs alone: the run shared with other corrupted inputs and
        # another seed must be the one the engine computes afresh
        spec = make_spec(cfg["protocol"], cfg["n"])
        n, t = cfg["n"], cfg["t"]
        atk = attack_n_party(spec, t, range(n - coalition_size(n, t), n), 4,
                             variant=cfg.get("variant", "strict"), z=cfg.get("z", 16))
        adv = atk.adversary
        for i in range(6):
            first = JointInput.sample(spec, derive_seed(4, "first", i))
            other = JointInput.sample(spec, derive_seed(4, "other", i))
            joint = JointInput(tuple(other[p] if p in adv.corrupted else first[p]
                                     for p in range(n)))
            computed = netsim.run_with_adversary(spec, adv, first, derive_seed(4, "seed", i))
            shared = netsim.run_with_adversary(spec, adv, joint, derive_seed(4, "again", i))
            fresh = netsim._execute(spec, joint, derive_seed(4, "again", i), adversary=adv)
            assert shared is computed
            assert (shared.outcomes, shared.halt_rounds, shared.rounds, shared.pre_announced) \
                == (fresh.outcomes, fresh.halt_rounds, fresh.rounds, fresh.pre_announced)
        assert 1 <= len(adv.runs) <= 6

    def test_one_online_run_per_distinct_honest_input(self, monkeypatch):
        # work pin: at --jobs 1 a coin-free attack runs the engine once per
        # distinct honest input vector, however many trials draw it
        online = []
        real = netsim._execute

        def counting(spec, joint, seed, **kwargs):
            if isinstance(kwargs.get("adversary"), ring.AttackAdversary):
                online.append(joint.entries[0].input + joint.entries[1].input)
            return real(spec, joint, seed, **kwargs)

        monkeypatch.setattr(netsim, "_execute", counting)
        cfg = {"protocol": "echo_xor:2", "n": 3, "t": 1, "trials": 40, "delta_trials": 100,
               "seed": 1}
        assert cli.run_config("attack", dict(cfg))[0]["ran"] == 40
        spec = make_spec("echo_xor:2", 3)
        drawn = set()
        for i in range(40):
            joint = JointInput.sample(spec, derive_seed(derive_seed(1, "attack-trial", i), "inputs"))
            drawn.add(joint.entries[0].input + joint.entries[1].input)
        assert sorted(online) == sorted(drawn) and len(drawn) == 4

    def test_ring_geometry_is_trial_zeros(self, tmp_path):
        # m, q and P* in the report are those of trial 0's phase-1 ring
        configs = [
            ("echo_xor:2", "--n", "3", "--t", "1"),
            ("or_exchange", "--n", "9", "--t", "3"),
            ("geom_halt:0.25", "--t", "1", "--variant", "expected"),
            ("geom_halt:0.25", "--t", "1", "--variant", "expected", "--q-expected", "2"),
        ]
        seen = set()
        for protocol, *rest in configs:
            _, rep = run(tmp_path, "attack", "--protocol", protocol, *rest,
                         "--trials", "2", "--delta-trials", "100", "--seed", "4")
            cfg = rep["config"]
            atk = attack_n_party(make_spec(protocol, cfg["n"]), cfg["t"], tuple(cfg["corrupt"]),
                                 derive_seed(cfg["seed"], "attack-trial", 0),
                                 variant=cfg["variant"], q_expected=cfg["q_expected"],
                                 z=cfg["z"])
            got = (rep["m"], rep["q"], rep["pstar"])
            assert got == (atk.phase1.m, atk.fused_spec.q, atk.phase1.pstar), protocol
            seen.add(got)
        assert len(seen) == len(configs)  # each config exercises its own ring

    def test_three_party_attack_runs_unfused(self, monkeypatch):
        # n=3 attacks the protocol as it is; n=9 fuses groups of three
        calls = []
        real = ring.FusedProgram.step

        def counting(self, *args):
            calls.append(args[1])  # round number
            return real(self, *args)

        monkeypatch.setattr(ring.FusedProgram, "step", counting)
        for protocol, n, t, fused in (("echo_xor:2", 3, 1, False), ("or_exchange", 9, 3, True)):
            calls.clear()
            cli.run_config("attack", {"protocol": protocol, "n": n, "t": t, "trials": 2,
                                      "delta_trials": 100, "seed": 3})
            assert bool(calls) == fused, protocol

    def test_rerun_is_byte_identical(self, tmp_path):
        code, _ = run(tmp_path, "attack", "--protocol", "const:1", "--t", "1",
                      "--trials", "30", "--seed", "9", name="first.json")
        assert code == 0
        code2, _ = run(tmp_path, "rerun", "--from", str(tmp_path / "first.json"),
                       name="second.json")
        assert code2 == 0
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_q_expected_rejected_for_strict_variant(self, tmp_path, capsys):
        # the strict ring ignores q_expected, so accepting it would embed an
        # unused value in the report config
        args = ["attack", "--protocol", "echo_xor:2", "--t", "1", "--trials", "2",
                "--seed", "1", "--delta-trials", "100"]
        code, rep = run(tmp_path, *args, "--q-expected", "9")
        assert code == 2 and rep is None
        assert capsys.readouterr().err.startswith("error: --q-expected")
        code, rep = run(tmp_path, *args)
        assert code == 0 and rep["config"]["q_expected"] is None

    @pytest.mark.parametrize("t", [3, 5])
    def test_t_not_below_n_is_a_usage_error(self, t, tmp_path, capsys):
        code, rep = run(tmp_path, "attack", "--protocol", "xor_exchange", "--n", "3",
                        "--t", str(t), "--trials", "10", "--delta-trials", "100")
        assert code == 2 and rep is None
        assert capsys.readouterr().err == \
            f"error: t={t} corruptions must be fewer than n=3 parties\n"

    def test_rerun_rejects_non_report(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        assert main(["rerun", "--from", str(bogus)]) == 2
        assert main(["rerun", "--from", str(tmp_path / "missing.json")]) == 2


class TestConfigPlumbing:
    def test_flags_override_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(
            {"protocol": "const:1", "trials": 30, "seed": 5}))
        code, rep = run(tmp_path, "validate", "--config", str(cfgfile),
                        "--protocol", "const:0")
        assert code == 0
        assert rep["config"]["protocol"] == "const:0"
        assert rep["config"]["trials"] == 30 and rep["config"]["seed"] == 5

    def test_unknown_config_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"protocol": "const:1", "trails": 9}))
        code, _ = run(tmp_path, "validate", "--config", str(cfgfile))
        assert code == 2

    def test_malformed_config_file(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text("not json")
        assert main(["validate", "--config", str(cfgfile)]) == 2
        cfgfile.write_text("[1,2]")
        assert main(["validate", "--config", str(cfgfile)]) == 2

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RINGBREAK_SEED", "77")
        code, rep = run(tmp_path, "validate", "--protocol", "const:0",
                        "--trials", "5")
        assert code == 0 and rep["config"]["seed"] == 77
        monkeypatch.setenv("RINGBREAK_SEED", "abc")
        code, _ = run(tmp_path, "validate", "--protocol", "const:0", name="r2.json")
        assert code == 2

    def test_csv_output(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        code = main(["dominance", "--builtin", "or:3",
                     "--report", str(tmp_path / "r.json"), "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "k,weak,strong,y_star"
        assert len(lines) == 4  # one row per k

    def test_attack_csv_is_the_outcome_histogram(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, rep = run(tmp_path, *JOBS_CASES["attack-n3"], "--csv", str(csv_path))
        assert code in (0, 1)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["outcome"]: int(r["count"]) for r in rows} == rep["outcome_histogram"]
        assert sum(int(r["count"]) for r in rows) == 2 * rep["ran"]  # two honest parties

    def test_consistency_csv_is_per_adversary(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, rep = run(tmp_path, *JOBS_CASES["consistency"], "--csv", str(csv_path))
        assert code == 0
        with open(csv_path, newline="") as fh:
            rows = [(r["adversary"], int(r["trials"]), int(r["failures"]),
                     float(r["delta_hat"])) for r in csv.DictReader(fh)]
        assert rows == [(a["adversary"], a["trials"], a["failures"], a["delta_hat"])
                        for a in rep["per_adversary"]]
        assert len(rows) > 1 and sum(r[2] for r in rows) == rep["pooled_failures"] > 0


JOBS_CASES = {
    "coinflip-verify": ["coinflip", "--mode", "verify", "--trials", "1000",
                        "--delta-trials", "100", "--seed", "3"],
    "coinflip-honest": ["coinflip", "--mode", "honest", "--trials", "1000", "--seed", "3"],
    "coinflip-attack": ["coinflip", "--mode", "attack", "--trials", "1000", "--seed", "3"],
    "consistency": ["consistency", "--protocol", "echo_xor:2", "--trials", "100",
                    "--seed", "3"],
    "attack-n3": ["attack", "--protocol", "echo_xor:2", "--t", "1", "--trials", "40",
                  "--seed", "3", "--delta-trials", "100"],
    "attack-n9": ["attack", "--protocol", "or_exchange", "--n", "9", "--t", "3",
                  "--trials", "8", "--seed", "3", "--delta-trials", "100"],
}


@pytest.mark.parametrize("case", [*JOBS_CASES, "rerun"])
def test_jobs_do_not_change_the_report(case, tmp_path):
    if case == "rerun":
        code, _ = run(tmp_path, *JOBS_CASES["coinflip-verify"], name="first.json")
        args = ["rerun", "--from", str(tmp_path / "first.json")]
    else:
        args = JOBS_CASES[case]
    code1, _ = run(tmp_path, *args, "--jobs", "1", name="j1.json")
    code2, _ = run(tmp_path, *args, "--jobs", "2", name="j2.json")
    assert code1 == code2
    assert (tmp_path / "j1.json").read_bytes() == (tmp_path / "j2.json").read_bytes()
    if case == "rerun":
        assert code1 == code
        assert (tmp_path / "j1.json").read_bytes() == (tmp_path / "first.json").read_bytes()


@pytest.mark.parametrize("jobs", ["0", "-2"])
@pytest.mark.parametrize("kind", [*cli.EXPERIMENTS, "rerun"])
def test_jobs_below_one_is_a_usage_error(kind, jobs, tmp_path, inline_pool, capsys):
    if kind == "rerun":
        assert run(tmp_path, "validate", "--protocol", "const:1", "--trials", "3")[0] == 0
        argv = ["rerun", "--from", str(tmp_path / "report.json")]
    else:
        argv = [kind]
    capsys.readouterr()
    assert main([*argv, "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert inline_pool.built == []


def test_one_coinflip_run_builds_one_pool(tmp_path, inline_pool):
    code, rep = run(tmp_path, *JOBS_CASES["coinflip-verify"], "--jobs", "2")
    # the delta estimate and the forced measurement both ran on the pool
    assert code == 0 and rep["verdict"]["attack_aborted"] is False
    assert inline_pool.built == [2]
    assert netsim._pool is None  # main shut it down


def test_honest_coin_with_no_consistent_run_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(coinflip, "_bias_trial", lambda ctx, i: ("inconsistent",))
    assert main(["coinflip", "--mode", "honest", "--trials", "1000", "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no consistent runs; nothing to measure\n"


def test_no_worker_outlives_main(tmp_path):
    assert run(tmp_path, *JOBS_CASES["consistency"], "--jobs", "2")[0] == 0
    assert multiprocessing.active_children() == []


def _config_error_trial(ctx, i):
    raise ConfigError("raised in a worker")


def _spec_violation_trial(ctx, i):
    raise SpecViolation("raised in a worker")


def test_errors_cross_the_pool_with_their_exit_codes(monkeypatch, capsys):
    # every attack trial raises SpecViolation, then ConfigError, inside a worker
    monkeypatch.setattr(cli, "_attack_trial", _spec_violation_trial)
    code = main(["attack", "--protocol", "const:1", "--t", "1", "--trials", "4",
                 "--seed", "1", "--jobs", "2"])
    assert code == 1
    assert capsys.readouterr().err == "contract violation: raised in a worker\n"
    monkeypatch.setattr(cli, "_attack_trial", _config_error_trial)
    code = main(["attack", "--protocol", "const:1", "--t", "1", "--trials", "4",
                 "--seed", "1", "--jobs", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: raised in a worker\n"
    assert multiprocessing.active_children() == []


def test_topology_violation_is_a_contract_violation(monkeypatch, capsys):
    def off_graph(ctx, i):
        raise TopologyViolation("no edge 0->7")

    monkeypatch.setattr(cli, "_attack_trial", off_graph)
    code = main(["attack", "--protocol", "const:1", "--t", "1", "--trials", "4", "--seed", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "contract violation: no edge 0->7\n"


COMMON_FLAGS = {"--config", "--report", "--csv", "--jobs"}


@pytest.mark.parametrize("kind", [*cli.EXPERIMENTS, "rerun"])
def test_help_lists_one_flag_per_config_key(kind, capsys):
    with pytest.raises(SystemExit) as exc:
        main([kind, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
    if kind == "rerun":
        want = {"--from"}
    else:
        want = {"--" + key.replace("_", "-") for key in cli.EXPERIMENTS[kind][2]
                if key != "table_data"}
    assert listed == want | COMMON_FLAGS


@pytest.mark.parametrize("argv", [
    ["consistency", "--protocol", "xor_exchange", "--trials", "50"],
    ["attack", "--protocol", "const:1", "--t", "1", "--trials", "5", "--delta-trials", "50"],
    ["attack", "--protocol", "const:1", "--n", "2", "--t", "1"],
    ["compile", "--builtin", "thresh:2:6", "--t", "2", "--mc-trials", "-5"],
    ["compile", "--builtin", "thresh:2:6", "--t", "2", "--corrupt", "9,10"],
    ["consistency", "--protocol", "echo_xor:2", "--m", "0"],
    ["coinflip", "--protocol", "geom_halt:0.5", "--mode", "attack"],
    ["coinflip", "--protocol", "geom_halt:0.5", "--mode", "verify", "--trials", "1000"],
    ["validate", "--protocol", "echo_xor:2", "--trials", "0"],
    ["validate", "--protocol", "echo_xor:2", "--trials", "-3"],
    ["attack", "--protocol", "const:1", "--t", "1", "--corrupt", "2,2", "--trials", "3",
     "--delta-trials", "100"],
    ["coinflip", "--mode", "attack", "--corrupt", "2,2", "--trials", "1000"],
    ["compile", "--builtin", "thresh:3:9", "--t", "3", "--corrupt", "6,6,7"],
    ["compile", "--builtin", "thresh:3:9", "--t", "3", "--adv", "abort", "--corrupt", "8"],
    ["compile", "--builtin", "thresh:3:9", "--t", "3", "--adv", "coin:1/2", "--corrupt", "7,8"],
    ["attack", "--protocol", "geom_halt:0.5", "--t", "1", "--variant", "expected",
     "--q-expected", "-3", "--trials", "3"],
    ["dominance", "--builtin", "or:3", "--t", "5"],
    ["dominance", "--builtin", "or:3:7"],
    ["dominance", "--builtin", "pairs:9"],
    ["validate", "--protocol", "xor_exchange:"],
    ["attack", "--protocol", "const:300", "--t", "1"],
], ids=["consistency-few-trials", "attack-few-delta-trials", "attack-two-parties",
        "compile-negative-mc-trials", "compile-corrupt-out-of-range",
        "consistency-no-copies", "coinflip-strict-attack-on-expected-rounds",
        "coinflip-verify-on-expected-rounds", "validate-no-trials",
        "validate-negative-trials", "attack-repeated-corrupt", "coinflip-repeated-corrupt",
        "compile-repeated-corrupt", "compile-abort-by-small-coalition",
        "compile-coin-abort-by-small-coalition", "attack-negative-q-expected",
        "dominance-t-not-below-n", "builtin-extra-parameter", "builtin-pairs-parameter",
        "protocol-empty-parameter", "protocol-const-not-a-byte"])
def test_bad_input_is_a_usage_error(argv, capsys):
    seeded = "seed" in cli.EXPERIMENTS[argv[0]][2]
    assert main([*argv, *(["--seed", "1"] if seeded else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("n", [4, 5, 7, 8])
def test_coinflip_attack_names_an_n_not_divisible_by_3(n, capsys):
    argv = ["coinflip", "--protocol", "fair_coin", "--mode", "attack", "--trials", "1000"]
    assert main([*argv, "--n", str(n), "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the bias attack needs n divisible by 3, got n={n}\n"


@pytest.mark.parametrize("argv,message", [
    (["compile", "--builtin", "thresh:3:9", "--t", "3", "--inputs", "0,0,0,0,0,0,0,0,5"],
     "input 5 of party 8 outside its domain of size 2"),
    (["compile", "--builtin", "thresh:3:9", "--t", "3", "--inputs", "0,-1,0,0,0,0,0,0,0"],
     "input -1 of party 1 outside its domain of size 2"),
    (["dominance", "--builtin", "xor:3", "--collapse-m", "0"], "m >= 1; got m=0"),
    (["dominance", "--builtin", "xor:3", "--collapse-m", "-1"], "m >= 1; got m=-1"),
], ids=["compile-corrupted-input-out-of-domain", "compile-honest-input-negative",
        "dominance-collapse-m-zero", "dominance-collapse-m-negative"])
def test_usage_error_names_the_bad_value(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv", [
    ["dominance", "--builtin", "or:5", "--budget", "16"],
    ["compile", "--builtin", "or:5", "--t", "1"],
], ids=["dominance-budget", "compile-profile-budget"])
def test_oversized_builtin_table_is_refused_unbuilt(argv, monkeypatch, capsys):
    import ringbreak.dominance as dominance

    built = []
    real = dominance.table_from_fn
    monkeypatch.setattr(dominance, "table_from_fn",
                        lambda *a, **kw: built.append(a[0]) or real(*a, **kw))
    monkeypatch.setattr(cli, "PROFILE_BUDGET", 16)
    assert main(argv) == 2
    assert built == []
    assert capsys.readouterr().err.startswith("error: table has 32 entries")


@pytest.mark.parametrize("source", ["table-file", "table-data"])
def test_oversized_table_is_refused_from_every_source(source, tmp_path, monkeypatch, capsys):
    from ringbreak.dominance import threshold_table

    table = threshold_table(6, 2).to_json()
    if source == "table-file":
        (tmp_path / "t.json").write_text(table)
        argv = ["compile", "--table", str(tmp_path / "t.json")]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"table_data": json.loads(table)}))
        argv = ["compile", "--config", str(tmp_path / "c.json")]
    monkeypatch.setattr(cli, "PROFILE_BUDGET", 16)
    assert main([*argv, "--t", "2", "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: table has 64 entries")


ATTACK_CFG = {"protocol": "const:1", "t": 1, "trials": 5}


@pytest.mark.parametrize("flag,text", [
    ("--config", json.dumps({**ATTACK_CFG, "trials": "5"})),
    ("--config", json.dumps({**ATTACK_CFG, "trials": None})),
    ("--config", json.dumps({**ATTACK_CFG, "corrupt": "2"})),
    ("--config", json.dumps({**ATTACK_CFG, "t": True})),
    ("--config", json.dumps({**ATTACK_CFG, "protocol": 3})),
    ("--config", json.dumps({**ATTACK_CFG, "seed": "3"})),
    ("--config", json.dumps({**ATTACK_CFG, "corrupt": [2, 2]})),
    ("--from", json.dumps(["kind", "config"])),
    ("--from", '{"kind": "attack", "config": '),
    ("--from", json.dumps({"kind": "attack", "config": ["protocol"]})),
], ids=["trials-string", "trials-null", "corrupt-string", "t-bool", "protocol-int",
        "seed-string", "corrupt-repeated", "report-list", "report-malformed",
        "report-config-list"])
def test_bad_json_file_is_a_usage_error(flag, text, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(text)
    argv = ["rerun", "--from", str(path)] if flag == "--from" else \
        ["attack", "--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


class TestDominanceCommand:
    def test_profile_and_classification(self, tmp_path):
        code, rep = run(tmp_path, "dominance", "--builtin", "pairs")
        assert code == 0 and rep["minimal_strong_k"] == 3
        code, rep = run(tmp_path, "dominance", "--builtin", "or:4", "--t", "2")
        assert code == 0
        assert rep["classification"]["verdict"] == "CONDITIONAL"
        assert rep["classification"]["y_star"] == 1

    def test_collapse_check(self, tmp_path):
        code, rep = run(tmp_path, "dominance", "--builtin", "xor:6",
                        "--collapse-m", "2")
        assert code == 0 and rep["collapse"]["holds"] is True

    def test_table_file_roundtrip(self, tmp_path):
        from ringbreak.dominance import threshold_table
        tfile = tmp_path / "t.json"
        tfile.write_text(threshold_table(4, 2).to_json())
        code, rep = run(tmp_path, "dominance", "--table", str(tfile))
        assert code == 0 and rep["minimal_strong_k"] == 2
        # the table itself is embedded so the report reruns without the file
        assert rep["config"]["table_data"]["n"] == 4

    def test_rerun_after_table_file_vanishes(self, tmp_path):
        from ringbreak.dominance import or_table
        tfile = tmp_path / "t.json"
        tfile.write_text(or_table(3).to_json())
        code, _ = run(tmp_path, "dominance", "--table", str(tfile), name="a.json")
        assert code == 0
        tfile.unlink()
        code, _ = run(tmp_path, "rerun", "--from", str(tmp_path / "a.json"),
                      name="b.json")
        assert code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_each_level_is_built_once(self, tmp_path, monkeypatch):
        import ringbreak.dominance as dominance

        built = []
        real = dominance._build_level
        monkeypatch.setattr(dominance, "_build_level",
                            lambda f, k: built.append((id(f), k)) or real(f, k))
        code, rep = run(tmp_path, "dominance", "--builtin", "thresh:2:6",
                        "--t", "2", "--collapse-m", "2")
        assert code == 0 and rep["collapse"]["holds"] is True
        assert sorted(k for _, k in built) == [1, 2, 3, 4, 5, 6]
        assert len({table for table, _ in built}) == 1

    def test_missing_and_malformed_table(self, tmp_path):
        assert main(["dominance", "--table", str(tmp_path / "nope.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 2}")
        assert main(["dominance", "--table", str(bad)]) == 2
        assert main(["dominance", "--builtin", "wat:3"]) == 2
        assert main(["dominance"]) == 2  # neither table nor builtin


class TestCompileCommand:
    def test_wrapper_ok_with_coin_adversary(self, tmp_path):
        code, rep = run(tmp_path, "compile", "--builtin", "thresh:2:6", "--t", "2",
                        "--adv", "coin:1/2", "--seed", "1")
        assert code == 0
        assert rep["no_bot"] and rep["abort_forces_y_star"]
        assert rep["exact_zero"] is True and rep["distance_exhaustive"] == 0.0
        assert rep["t1"] == 1 and rep["t2"] == 2 and rep["y_star"] == 1

    def test_monte_carlo_extra(self, tmp_path):
        code, rep = run(tmp_path, "compile", "--builtin", "thresh:2:6", "--t", "2",
                        "--adv", "coin:1/3", "--mc-trials", "800", "--seed", "2")
        assert code == 0
        assert rep["mc_trials"] == 800 and rep["distance_mc"] < 0.1

    def test_not_dominated_is_usage_error(self, tmp_path):
        assert main(["compile", "--builtin", "xor:6", "--t", "2", "--seed", "1"]) == 2

    def test_not_one_dominated_is_usage_error(self, capsys):
        assert main(["compile", "--builtin", "thresh:2:5", "--t", "2",
                     "--seed", "1"]) == 2
        assert "not 1-dominated" in capsys.readouterr().err

    @pytest.mark.parametrize("builtin,t,adv", [
        ("or:3", "1", "coin:1/2"),
        ("or:5", "2", "abort"),
    ])
    def test_one_extra_honest_party_is_wrapped(self, tmp_path, builtin, t, adv):
        code, rep = run(tmp_path, "compile", "--builtin", builtin, "--t", t,
                        "--adv", adv, "--seed", "1")
        assert code == 0
        assert rep["exact_zero"] is True
        assert rep["no_bot"] is True and rep["abort_forces_y_star"] is True
        assert rep["s"] == 1 and rep["t1"] == 0

    def test_bad_adversary_selector(self, tmp_path):
        assert main(["compile", "--builtin", "thresh:2:6", "--t", "2",
                     "--adv", "sometimes", "--seed", "1"]) == 2

    def test_dominance_is_decided_once(self, tmp_path, monkeypatch):
        import ringbreak.compiler as compiler

        calls = []
        real = compiler.is_k_dominated
        monkeypatch.setattr(compiler, "is_k_dominated",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        code, _ = run(tmp_path, "compile", "--builtin", "thresh:2:6", "--t", "2",
                      "--adv", "coin:1/2", "--mc-trials", "200", "--seed", "1")
        assert code == 0
        assert calls == [2]


class TestCoinflipCommand:
    def test_honest_mode(self, tmp_path):
        code, rep = run(tmp_path, "coinflip", "--protocol", "fair_coin",
                        "--mode", "honest", "--trials", "1000", "--seed", "2")
        assert code == 0
        assert rep["bias"]["distance"] <= 0.1

    def test_attack_mode_forces_constant(self, tmp_path):
        code, rep = run(tmp_path, "coinflip", "--protocol", "const:1",
                        "--mode", "attack", "--trials", "1000", "--seed", "2")
        assert code == 0
        assert rep["y_star"] == "01" and rep["forced"]["counts"]["1"] == 1000

    @pytest.mark.parametrize("protocol, attempts", [("const:0", 10), ("const:1", 1)])
    def test_one_bias_build_reports_what_a_build_per_attempt_does(self, protocol, attempts,
                                                                  monkeypatch):
        # a coin-free protocol's attempts are all the same run, so the search
        # builds one attack; attempts and aborted must not move
        builds = []
        real_build = coinflip.attack_n_party
        monkeypatch.setattr(coinflip, "attack_n_party",
                            lambda *a, **kw: builds.append(a) or real_build(*a, **kw))
        cfg = {"protocol": protocol, "mode": "attack", "trials": 1000, "kappa": 10, "seed": 1}
        body = cli.run_config("coinflip", dict(cfg))[0]
        assert len(builds) == 1 and body["attempts"] == attempts
        real = cli.make_spec
        monkeypatch.setattr(cli, "make_spec", lambda *a: replace(real(*a), coin_free=False))
        assert render_report(cli.run_config("coinflip", dict(cfg))[0]) == render_report(body)
        assert len(builds) == 1 + attempts

    def test_verify_mode_reports_verdict(self, tmp_path):
        code, rep = run(tmp_path, "coinflip", "--protocol", "const:0",
                        "--mode", "verify", "--trials", "1000", "--seed", "2",
                        "--delta-trials", "100")
        assert code == 0
        assert rep["verdict"]["holds"] is True


class TestConsistencyCommand:
    def test_constant_protocol_is_perfectly_consistent(self, tmp_path):
        code, rep = run(tmp_path, "consistency", "--protocol", "const:0",
                        "--trials", "100", "--seed", "1")
        assert code == 0
        assert rep["delta_hat"] == 0.0
        assert rep["m"] == 4 and len(rep["per_adversary"]) == 4
        assert all(a["failures"] == 0 for a in rep["per_adversary"])

    def test_three_party_only(self, tmp_path):
        assert main(["consistency", "--protocol", "xor_exchange", "--n", "4",
                     "--seed", "1"]) == 2
