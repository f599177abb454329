"""Every golden output under tests/golden/ is reproduced.

In the numpy, BLAS and SIMD build that made the files the check is
bytewise; in any other build every number must agree within 1e-12
relative (1e-12 absolute) and the text around the numbers exactly.
"""

import json

import pytest

import golden_outputs
from golden_outputs import (
    COMMANDS,
    ENVIRONMENT,
    GOLDEN,
    ROOT,
    environment,
    render,
    value_mismatch,
)


def test_golden_directory_holds_exactly_the_commands():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*COMMANDS, ENVIRONMENT.name])


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_golden(name):
    text, golden = render(COMMANDS[name]), (GOLDEN / name).read_text()
    if environment() == json.loads(ENVIRONMENT.read_text()):
        assert text == golden
    else:
        assert value_mismatch(text, golden) is None, value_mismatch(text, golden)


def test_committed_fig2_table_is_the_default_fig2_output():
    # `hbnoma fig2 --out results/fig2.csv` writes it; the value rule, because it is kept
    # without a build record
    committed = (ROOT / "results" / "fig2.csv").read_text()
    assert value_mismatch(render(["fig2"]), committed) is None


def test_value_rule_tolerances():
    golden = "rate,1.2345678901234567\nleakage: 7.242e-18\nname x86 -3,NaN\n"
    assert value_mismatch(golden, golden) is None
    # relative 1e-13 and absolute noise below 1e-12 pass
    assert value_mismatch(golden.replace("1.2345678901234567", "1.2345678901235"), golden) is None
    assert value_mismatch(golden.replace("7.242e-18", "3.1e-17"), golden) is None
    # relative 1e-11, a changed integer, a NaN that became a number, changed text fail
    assert value_mismatch(golden.replace("1.2345678901234567", "1.23456789014"), golden)
    assert value_mismatch(golden.replace("-3", "-4"), golden)
    assert value_mismatch(golden.replace("NaN", "0.0"), golden)
    assert value_mismatch(golden.replace("leakage", "leakages"), golden)
    # a dotted version is text, not numbers
    assert value_mismatch('"version": "0.4.0"', '"version": "0.3.1"') == (
        "the text around the numbers differs"
    )


def test_compare_exits_1_when_a_file_differs(tmp_path, monkeypatch, capsys):
    # one cheap command against a golden copy of this build's own output
    name = "validate_demo.txt"
    monkeypatch.setattr(golden_outputs, "COMMANDS", {name: COMMANDS[name]})
    monkeypatch.setattr(golden_outputs, "GOLDEN", tmp_path)
    text = render(COMMANDS[name])
    (tmp_path / name).write_text(text)
    assert golden_outputs.compare() == 0
    assert capsys.readouterr().out == f"{name}: identical\n"
    (tmp_path / name).write_text(text.replace("2 clusters", "3 clusters", 1))
    assert golden_outputs.compare() == 1
    assert capsys.readouterr().out.startswith(f"{name}: 1 of ")
