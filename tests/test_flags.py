"""Flags, checked by generation: every option of every subcommand, given a
text drawn from its type's invalid set, is a usage error: exit 2, no
traceback, a last stderr line that names the option, nothing on stdout and
nothing written.  The invalid sets: empty and non-numeric text, nan and inf
for numbers; zero and negatives, in plain and exponent form, below a type's
lower bound (0 for counts); non-integer text for integers; a bad entry or a
wrong length for lists; values outside the choices; the empty text for
--out; and an explicit value for a store-true flag.  An integer type that
states no lower bound is taken for a count.  An option with no type names
an input file: the empty text or a missing file, which the error line may
name in the option's place."""

import argparse
import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from sparseland import cli
from sparseland.cli import build_parser, main

# a short command line of each subcommand that runs once one option is
# appended to it, as (option, value) pairs; None stands for a positional
BASE = {"verify": [(None, "cnn-same-valley")],
        "train": [("--dims", "3,4,1"), ("--epochs", "5")],
        "trials": [("--n", "2"), ("--epochs", "5")],
        "path": [("--samples", "10")],
        "prune": [("--spec", "net.json")],
        "rank": [],
        "conv-rank": [("--mode", "same"), ("--d", "2"), ("--kernel", "1")],
        "replay": [(None, "run.manifest.json")]}


# each subcommand's parser
PARSERS = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices
# (command, action) of every option and positional of every subcommand
OPTIONS = [(command, action) for command, parser in PARSERS.items()
           for action in parser._actions if not isinstance(action, argparse._HelpAction)]


def _name(action) -> str:
    return action.option_strings[0] if action.option_strings else action.dest


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


NOT_NUMBERS = (st.sampled_from(["", " ", "x", "1,", "0x1", "1e", "--", "one", "1..2"])
               | st.text(max_size=4).filter(lambda t: not _reads_as_float(t)))
NOT_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e999", "-1e999"])
NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False)  # -0.0 is not below 0
NEGATIVE_TEXTS = NEGATIVE.map(repr) | NEGATIVE.map(lambda x: f"{x:e}")
ZEROS = st.sampled_from(["0", "-0", "0.0", "0e5", "-0e-3"])
FINITE_TEXTS = st.sampled_from(["1", "0.5", "-2", "3e-1"])
BAD_ENTRIES = NOT_NUMBERS.filter(lambda t: "," not in t) | NOT_FINITE  # one entry of a list


def _int_below(low: int):
    """Integer texts below low, and texts that are not integers."""
    return (st.integers(max_value=low - 1).map(str)
            | st.sampled_from(["1.5", "2.0", "1e3", "nan", "inf"]) | NOT_NUMBERS)


@st.composite
def _bad_list(draw, bad_entry, good_entry, lengths=None):
    """Comma-joined entries with one bad entry among good ones, or good
    entries in a number outside `lengths` (when given)."""
    if lengths is not None and draw(st.booleans()):
        n = draw(st.integers(0, 6).filter(lambda n: n not in lengths))
        return ",".join(draw(st.lists(good_entry, min_size=n, max_size=n)))
    entries = draw(st.lists(good_entry, max_size=3))
    entries.insert(draw(st.integers(0, len(entries))), draw(bad_entry))
    return ",".join(entries)


def _invalid(action):
    """The strategy of texts the action must reject, or None for a type with
    no invalid set here."""
    kind = action.type
    if action.nargs == 0:  # a store-true flag takes no value
        return st.text(max_size=4)
    if action.choices is not None:
        def outside(text):
            try:
                return (kind or str)(text) not in action.choices
            except (ValueError, TypeError, argparse.ArgumentTypeError):
                return True
        texts = st.text(max_size=12) | st.sampled_from(["", "polynomial", "2", "0", "-1", "full2"])
        return texts.filter(outside)
    if kind is cli._out_path:
        return st.just("")
    if kind is None:  # an input file; the working directory is empty
        return st.just("") | st.text("abc.-_", min_size=1, max_size=8)
    if kind in (float, cli._finite_float):
        return NOT_NUMBERS | NOT_FINITE
    if kind is cli._nonnegative_float:
        return NOT_NUMBERS | NOT_FINITE | NEGATIVE_TEXTS
    if kind is cli._positive_float:
        return NOT_NUMBERS | NOT_FINITE | NEGATIVE_TEXTS | ZEROS
    if kind is int or hasattr(kind, "low"):
        return _int_below(getattr(kind, "low", 1))
    if kind is cli._parse_floats:
        return _bad_list(BAD_ENTRIES, FINITE_TEXTS)
    if kind is cli._four_floats:
        return _bad_list(BAD_ENTRIES, FINITE_TEXTS, lengths=(4,))
    if kind is cli._parse_dims:
        bad_size = st.sampled_from(["0", "-1", "1.5", "x", "", "nan"]) | st.integers(max_value=0).map(str)
        return _bad_list(bad_size, st.sampled_from(["1", "2", "3"]), lengths=range(3, 7))
    return None


def test_the_walk_covers_every_option():
    # every subcommand is walked, and every option and positional of it has an
    # invalid set, so the test below draws for each of them
    assert sorted({command for command, _ in OPTIONS}) == sorted([*cli.HANDLERS, "replay"])
    assert sorted(BASE) == sorted({command for command, _ in OPTIONS})
    assert [(c, _name(a)) for c, a in OPTIONS if _invalid(a) is None] == []


def _argv(command, action, text):
    """BASE[command] without the option under test or one exclusive with it,
    then the option with text; a positional under test replaces the base's."""
    rivals = {o for group in PARSERS[command]._mutually_exclusive_groups if action in group._group_actions
              for a in group._group_actions for o in a.option_strings}
    words, positional = [command], []
    for option, value in BASE[command]:
        if option is None:
            positional.append(value)
        elif option not in rivals and option not in action.option_strings:
            words += [option, value]
    if action.option_strings:
        words.append(f"{action.option_strings[0]}={text}")
    else:
        positional = [text]
    return words + ["--", *positional] if positional else words


@pytest.mark.parametrize("command,action", OPTIONS, ids=[f"{c} {_name(a)}" for c, a in OPTIONS])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_an_invalid_flag_value_is_a_usage_error(command, action, data):
    text = data.draw(_invalid(action), label="text")
    argv = _argv(command, action, text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as e:
                    code = e.code
        finally:
            os.chdir(cwd)
        written = os.listdir(tmp)
    assert code == 2, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue() and out.getvalue() == ""
    last = err.getvalue().splitlines()[-1]
    named = re.search(rf"(?<![\w-]){re.escape(_name(action))}(?![\w-])", last)
    if action.type is None and action.choices is None:  # or the input file
        named = named or f" {text}:" in last
    assert "error: " in last and named, (argv, last)
    assert written == [], (argv, written)


def test_a_double_dash_value_is_the_options_own():
    # argparse alone drops a "--" given as an option's value, leaving the option []
    parse = build_parser().parse_args
    assert parse(["prune", "--spec=--"]).spec == "--"
    assert parse(["prune", "--spec", "a.json", "--out=--"]).out == "--"
