"""Each run setting's flags and bounds, walked over the RunConfig rows."""

import argparse
from dataclasses import fields

import pytest

from moodsig.cli import RunConfig, build_parser, main

# every dest each command's parser sets, "help" aside
COMMON = {"config", "output", "seed"}
TASK = COMMON | {"input", "window_length", "signature_level", "n_trees", "max_depth",
                 "min_leaf", "features_per_split"}
EVALUATE = {"split_fraction", "bootstrap_samples"}
EXPECTED_DESTS = {
    "synth": COMMON | {"synth_sizes", "synth_weeks"},
    "classify": TASK | EVALUATE,
    "predict-state": TASK | EVALUATE | {"instrument", "groups"},
    "predict-score": TASK | EVALUATE | {"instrument", "groups"},
    "spectrum": TASK | {"instrument", "groups", "spectrum_source", "resolution", "bandwidth"},
    "sig": {"points", "level"},
}

# the one error line for a value one step outside a bounded setting's range
EXPECTED_BOUND_LINES = {
    ("seed", -1): "seed must be >= 0, got -1",
    ("window_length", 10_002): "window_length must be at most 10001, got 10002",
    ("signature_level", 0): "signature_level must be 1..5, got 0",
    ("signature_level", 6): "signature_level must be 1..5, got 6",
    ("n_trees", 0): "n_trees must be 1..10000, got 0",
    ("n_trees", 10_001): "n_trees must be 1..10000, got 10001",
    ("bootstrap_samples", 0): "bootstrap_samples must be 1..100000, got 0",
    ("bootstrap_samples", 100_001): "bootstrap_samples must be 1..100000, got 100001",
    ("synth_weeks", 10_002): "synth_weeks must be at most 10001, got 10002",
    ("resolution", 1): "resolution must be 2..1000, got 1",
    ("resolution", 1_001): "resolution must be 2..1000, got 1001",
}

# the bounds only the library dataclasses check, reached through the CLI
LIBRARY_BOUND_LINES = [
    (["classify", "--window-length", "1"], "window_length must be >= 2"),
    (["synth", "--weeks", "19"], "weeks must be >= 20"),
    (["synth", "--sizes", "0,1,1"], "sizes must be three counts >= 1"),
    (["classify", "--min-leaf", "0"], "min_leaf must be >= 1"),
    (["classify", "--max-depth", "0"], "max_depth must be >= 1 or None"),
    (["classify", "--features-per-split", "0"], "features_per_split must be >= 1 or None"),
    (["classify", "--split-fraction", "0"], "split_fraction must lie in (0,1)"),
    (["classify", "--split-fraction", "1"], "split_fraction must lie in (0,1)"),
]


def _commands():
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _row_bound_cases():
    """(setting, value) one step below and above each bounded row's range."""
    for f in fields(RunConfig):
        lo, hi = f.metadata.get("bounds", (None, None))
        if lo is not None:
            yield f.name, lo - 1
        if hi is not None:
            yield f.name, hi + 1


def _fails_with_one_line(tmp_path, capsys, argv, line):
    out = tmp_path / "runs"
    # the input does not exist, so the setting must be checked first
    if argv[0] != "synth":
        argv = argv + ["--input", str(tmp_path / "absent.csv")]
    assert main(argv + ["-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"moodsig: error: {line}"]
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(EXPECTED_DESTS))
def test_each_command_takes_exactly_its_flags(command):
    parser = _commands()[command]
    assert {a.dest for a in parser._actions} - {"help"} == EXPECTED_DESTS[command]


def test_every_command_has_an_expected_flag_set():
    assert set(_commands()) == set(EXPECTED_DESTS)


@pytest.mark.parametrize(
    "name,value", sorted(set(EXPECTED_BOUND_LINES) | set(_row_bound_cases()))
)
def test_out_of_bounds_setting_is_one_error_line(tmp_path, capsys, name, value):
    assert (name, value) in EXPECTED_BOUND_LINES, f"no expected line for {name}={value}"
    # the first command, in the parser's order, that takes the setting
    command, flag = next(
        (command, action.option_strings[-1])
        for command, parser in _commands().items()
        for action in parser._actions if action.dest == name
    )
    _fails_with_one_line(tmp_path, capsys, [command, flag, str(value)],
                         EXPECTED_BOUND_LINES[name, value])


@pytest.mark.parametrize("argv,line", LIBRARY_BOUND_LINES)
def test_library_bound_is_one_error_line(tmp_path, capsys, argv, line):
    _fails_with_one_line(tmp_path, capsys, argv, line)


def test_expected_bound_lines_are_exactly_the_row_bounds():
    assert set(EXPECTED_BOUND_LINES) == set(_row_bound_cases())
