"""Flags, checked by generation from the rule each option's type states.

Invalid values: every option of every subcommand, given a text drawn from
its type's invalid set, is a usage error: exit 2, no traceback, a last
stderr line that names the option, nothing on stdout and nothing written.
The invalid sets: empty and non-numeric text, nan and inf for numbers;
numbers outside a number type's bounds, in plain and exponent form, an
open bound itself included; non-integer text for integers; a bad entry or a
wrong count for lists; values outside the choices; the empty text for
--out; and an explicit value for a store-true flag.  A bare int is taken
for a count.  An option with no type names an input file: the empty text
or a missing file, which the error line may name in the option's place.

Valid values: a number or list option parses a text drawn inside its rule
(a closed bound itself, and -0 where that bound is 0) to the number that
the text spells.  Replay: a recorded manifest whose config holds a text
from an option's invalid set exits 2 with one error line and writes nothing."""

import argparse
import io
import json
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
# the net.json of prune's BASE run
SPEC = {"layers": [{"weights": [[1.0, 0.0], [0.0, 1.0]]}, {"weights": [[1.0, 1.0]]}],
        "activation": {"kind": "linear"}}


PARSER = build_parser()
# each subcommand's parser
PARSERS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
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
NOT_INTEGERS = st.sampled_from(["1.5", "2.0", "1e3", "nan", "inf"])


def _rule(kind):
    """(kind, low, open_low, high) that a number type states; a bare float
    states no bound, and a bare int is taken for a count."""
    return (getattr(kind, "kind", kind), getattr(kind, "low", 1 if kind is int else None),
            getattr(kind, "open_low", False), getattr(kind, "high", None))


def _admits(rule, x) -> bool:
    """Whether the number x lies within the rule's bounds."""
    _, low, open_low, high = rule
    return ((low is None or (x > low if open_low else x >= low))
            and (high is None or x < high))


def _float_texts(values, rule, inside: bool):
    """Plain and exponent-form texts of the drawn floats, kept on the given
    side of the rule's bounds: the exponent form rounds, which may cross one."""
    texts = values.map(repr) | values.map(lambda x: f"{x:e}")
    return texts.filter(lambda t: _admits(rule, float(t)) == inside)


def _bound_texts(kind, bound):
    """The bound itself, as texts of the kind."""
    return st.sampled_from([str(bound)] if kind is int
                           else [str(bound), repr(float(bound)), f"{float(bound):e}"])


def _bad_number(rule):
    """Texts a number type with this rule rejects: no number of its kind, not
    finite, or outside its bounds, an open bound itself included."""
    kind, low, open_low, high = rule
    if kind is int:
        texts = [NOT_NUMBERS, NOT_INTEGERS]
        if low is not None:
            texts.append(st.integers(max_value=low if open_low else low - 1).map(str))
        if high is not None:
            texts.append(st.integers(min_value=high).map(str))
        return st.one_of(texts)
    texts = [NOT_NUMBERS, NOT_FINITE]
    if low is not None:
        texts.append(_float_texts(st.floats(max_value=low, allow_infinity=False), rule, False))
        if open_low:
            texts.append(_bound_texts(kind, low))
    if high is not None:
        texts.append(_float_texts(st.floats(min_value=high, allow_infinity=False), rule, False))
        texts.append(_bound_texts(kind, high))
    return st.one_of(texts)


def _good_number(rule):
    """Finite texts a number type with this rule reads: plain and exponent
    form, a closed low bound itself, and -0 where that bound is 0."""
    kind, low, open_low, high = rule
    closed = [] if low is None or open_low else [_bound_texts(kind, low)]
    closed += [st.just("-0")] * (low == 0 and not open_low)
    if kind is int:
        return st.one_of([st.integers(min_value=None if low is None else low + open_low,
                                      max_value=None if high is None else high - 1).map(str),
                          *closed])
    values = st.floats(min_value=low, max_value=high, exclude_min=open_low,
                       exclude_max=high is not None, allow_nan=False, allow_infinity=False)
    return st.one_of([_float_texts(values, rule, True), *closed])


@st.composite
def _bad_list(draw, kind):
    """Comma-joined entries of a list type with one bad entry among good ones,
    or good entries in a number outside least..most."""
    good = _good_number(_rule(kind.item)).filter(lambda t: "," not in t)
    if draw(st.booleans()):
        n = draw(st.integers(0, 6).filter(lambda n: not kind.least <= n <= kind.most))
        return ",".join(draw(st.lists(good, min_size=n, max_size=n)))
    entries = draw(st.lists(good, max_size=3))
    bad = _bad_number(_rule(kind.item)).filter(lambda t: "," not in t)
    entries.insert(draw(st.integers(0, len(entries))), draw(bad))
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
    if hasattr(kind, "item"):
        return _bad_list(kind)
    if kind in (float, int) or hasattr(kind, "kind"):
        return _bad_number(_rule(kind))
    return None


def test_the_walk_covers_every_option():
    # every subcommand is walked, and every option and positional of it has an
    # invalid set, so the test below draws for each of them
    assert sorted({command for command, _ in OPTIONS}) == sorted([*cli.HANDLERS, "replay"])
    assert sorted(BASE) == sorted({command for command, _ in OPTIONS})
    assert [(c, _name(a)) for c, a in OPTIONS if _invalid(a) is None] == []


def _argv(command, action=None, text=None):
    """BASE[command] without the option under test or one exclusive with it,
    then the option with text; a positional under test replaces the base's.
    With no action, BASE[command] itself."""
    rivals = {o for group in PARSERS[command]._mutually_exclusive_groups if action in group._group_actions
              for a in group._group_actions for o in a.option_strings}
    words, positional = [command], []
    for option, value in BASE[command]:
        if option is None:
            positional.append(value)
        elif option not in rivals and (action is None or option not in action.option_strings):
            words += [option, value]
    if action is not None and action.option_strings:
        words.append(f"{action.option_strings[0]}={text}")
    elif action is not None:
        positional = [text]
    return words + ["--", *positional] if positional else words


def _main(argv, where):
    """(exit code, stdout, stderr, files left) of main(argv) run in the
    directory where."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    before = set(os.listdir(where))
    os.chdir(where)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), sorted(set(os.listdir(where)) - before)


@pytest.mark.parametrize("command,action", OPTIONS, ids=[f"{c} {_name(a)}" for c, a in OPTIONS])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_an_invalid_flag_value_is_a_usage_error(command, action, data):
    text = data.draw(_invalid(action), label="text")
    argv = _argv(command, action, text)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, written = _main(argv, tmp)
    assert code == 2, (argv, code, err)
    assert "Traceback" not in err and out == ""
    last = err.splitlines()[-1]
    named = re.search(rf"(?<![\w-]){re.escape(_name(action))}(?![\w-])", last)
    if action.type is None and action.choices is None:  # or the input file
        named = named or f" {text}:" in last
    assert "error: " in last and named, (argv, last)
    assert written == [], (argv, written)


# (command, action) of every option whose type is a number or list type
TYPED = [(c, a) for c, a in OPTIONS if hasattr(a.type, "kind") or hasattr(a.type, "item")]


def _valid(action):
    """(strategy of texts the action reads, the value each text spells)."""
    kind = action.type
    if hasattr(kind, "item"):
        item = _rule(kind.item)
        good = _good_number(item).filter(lambda t: "," not in t)
        texts = st.lists(good, min_size=kind.least, max_size=min(kind.most, kind.least + 3))
        return texts.map(",".join), lambda text: tuple(map(item[0], text.split(",")))
    return _good_number(_rule(kind)), kind.kind


@pytest.mark.parametrize("command,action", TYPED, ids=[f"{c} {_name(a)}" for c, a in TYPED])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_valid_flag_value_parses_to_the_number_it_spells(command, action, data):
    # the parser alone: a value inside the flag's rule may still be one the
    # run rejects (verify --radius 1e-300 cannot resolve the line test)
    texts, spelled = _valid(action)
    text = data.draw(texts, label="text")
    got = getattr(PARSER.parse_args(_argv(command, action, text)), action.dest)
    assert repr(got) == repr(spelled(text)), (text, got)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """The manifest of each subcommand's BASE run, by command."""
    where = tmp_path_factory.mktemp("recorded")
    (where / "net.json").write_text(json.dumps(SPEC))
    manifests = {}
    for command in cli.HANDLERS:
        code, _, err, _ = _main(_argv(command), where)
        assert code in (0, 1), (command, err)
        manifests[command] = json.loads((where / f"{command}.manifest.json").read_text())
    return manifests


# (command, action) of every option a manifest's config records
CONFIG = [(c, a) for c, a in OPTIONS if c in cli.HANDLERS and a.dest not in cli._NON_CONFIG]


@pytest.mark.parametrize("command,action", CONFIG, ids=[f"{c} {_name(a)}" for c, a in CONFIG])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_an_invalid_replayed_value_is_a_usage_error(recorded, command, action, data):
    text = data.draw(_invalid(action), label="text")
    manifest = recorded[command]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as f:
            json.dump(dict(manifest, config={**manifest["config"], action.dest: text}), f)
        code, out, err, written = _main(["replay", path, "--out", "r.out"], tmp)
    assert code == 2 and out == "" and written == [], (text, code, err, written)
    lines = err.splitlines()
    assert len(lines) == 1, (text, err)
    if action.type is None and action.choices is None:  # an input file the parser may accept
        assert lines[0].startswith(f"error: bad manifest {path}: ") or f" {text}:" in lines[0]
    else:
        assert lines[0].startswith(f"error: bad manifest {path}: "), (text, lines)


def test_a_double_dash_value_is_the_options_own():
    # argparse alone drops a "--" given as an option's value, leaving the option []
    parse = build_parser().parse_args
    assert parse(["prune", "--spec=--"]).spec == "--"
    assert parse(["prune", "--spec", "a.json", "--out=--"]).out == "--"
