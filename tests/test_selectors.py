"""One selector grammar, `name:param:...`, read through three catalogs:
zoo protocols, builtin tables and ideal adversaries."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from ringbreak.cli import EXPERIMENTS, main
from ringbreak.compiler import ADVERSARIES, HybridAdversary, make_adversary
from ringbreak.core import ConfigError, ProtocolSpec, parse_selector, selector_help
from ringbreak.dominance import BUILTINS, PROFILE_BUDGET, FunctionTable, make_table
from ringbreak.zoo import ZOO, make_spec

README = Path(__file__).resolve().parent.parent / "README.md"

# a sample value for every parameter name the catalogs use
SAMPLE = {"c": "1", "echoes": "2", "p": "0.5", "n": "3", "k": "2"}

# config key of the flag -> (catalog, what it names, build from a selector, built type)
CATALOGS = {
    "protocol": (ZOO, "protocol", lambda sel: make_spec(sel, 3), ProtocolSpec),
    "builtin": (BUILTINS, "builtin table", lambda sel: make_table(sel, PROFILE_BUDGET),
                FunctionTable),
    "adv": (ADVERSARIES, "adversary", lambda sel: make_adversary(sel, [2], [0, 0, 0]),
            HybridAdversary),
}


@pytest.mark.parametrize("key", CATALOGS)
def test_every_catalog_entry_builds_and_is_listed(key, capsys):
    catalog, _, build, kind = CATALOGS[key]
    forms = selector_help(catalog).split(", ")
    assert [form.split(":")[0] for form in forms] == list(catalog)
    for name, (params, _) in catalog.items():
        assert isinstance(build(":".join([name, *(SAMPLE[p] for p, _ in params)])), kind)
    cmds = [cmd for cmd, (_, _, schema) in EXPERIMENTS.items() if key in schema]
    assert cmds
    for cmd in cmds:
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        assert selector_help(catalog) in " ".join(capsys.readouterr().out.split()), cmd


def test_parameters_are_named_and_typed():
    assert parse_selector("thresh:3:9", BUILTINS, "builtin table")[1] == {"k": 3, "n": 9}
    assert parse_selector("coin:1/3", ADVERSARIES, "adversary")[1] == {"p": Fraction(1, 3)}
    assert parse_selector("fair_coin", ZOO, "protocol")[1] == {}
    assert make_spec("geom_halt:0.250", 3).name == "geom_halt:0.25"


@pytest.mark.parametrize("key,selector", [
    ("protocol", "quantum_dice"), ("protocol", "const"), ("protocol", "xor_exchange:"),
    ("protocol", "echo_xor:1:2"), ("protocol", "echo_xor:two"), ("protocol", "echo_xor:0"),
    ("protocol", "const:256"), ("protocol", "const:-1"), ("protocol", "geom_halt:0"),
    ("builtin", "or:3:7"), ("builtin", "pairs:9"), ("builtin", "thresh:3"), ("builtin", "or:0"),
    ("adv", "never:1"), ("adv", "coin:1/0"), ("adv", "coin:2"), ("adv", ""),
])
def test_bad_selector_is_one_config_error_form(key, selector):
    catalog, what, build, _ = CATALOGS[key]
    with pytest.raises(ConfigError) as exc:
        build(selector)
    pattern = rf"bad {what} {re.escape(repr(selector))}: .+; have {re.escape(selector_help(catalog))}"
    assert re.fullmatch(pattern, str(exc.value))


def test_readme_selectors_parse_through_their_catalogs():
    blocks = "\n".join(re.findall(r"```[a-z]*\n(.*?)```", README.read_text(), re.S))
    found = re.findall(r"--(protocol|builtin|adv) (\S+)", blocks)
    assert {key for key, _ in found} == set(CATALOGS)
    for key, selector in found:
        _, _, build, kind = CATALOGS[key]
        assert isinstance(build(selector), kind), selector
