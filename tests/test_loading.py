"""The package loads on demand: `import sparseland` and the CLI's front door
(`--version`, `--help`, usage errors) import no numpy, and each command
imports only the modules it runs.  These are module-set checks on fresh
interpreters, not timings."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparseland
from sparseland import activations, cli, convmodes, counterexamples, trainer

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(sparseland.__file__).resolve().parent


def imported_modules(argv, cwd) -> set:
    """Every module that `python -m sparseland.cli *argv` imports, read from
    the interpreter's own `-X importtime` report."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "sparseland.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode in (0, 1, 2), proc.stderr[-500:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "imported package" not in line}


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["rank", "--n", "0"],
                                  ["conv-rank", "--mode", "diagonal", "--d", "3"],
                                  ["train", "--help"], ["verify", "--help"]])
def test_front_door_imports_no_numerical_code(tmp_path, argv):
    modules = imported_modules(argv, tmp_path)  # `-m` runs sparseland.cli as __main__
    assert "sparseland" in modules
    assert {m for m in modules if m.startswith("sparseland.")} <= {"sparseland.cli"}
    assert "numpy" not in modules


@pytest.mark.parametrize("command,loaded,skipped", [
    ("prune", {"network", "activations"}, {"calculus", "counterexamples", "landscape", "trainer"}),
    ("verify", {"counterexamples", "calculus"}, {"landscape", "trainer"}),
])
def test_commands_import_only_what_they_run(tmp_path, command, loaded, skipped):
    spec = {"layers": [{"weights": [[1.0, 0.0], [0.0, 2.0]], "mask": [[1, 0], [0, 1]]},
                       {"weights": [[3.0, 0.0]], "mask": [[1, 0]]}],
            "activation": {"kind": "relu"}}
    (tmp_path / "net.json").write_text(json.dumps(spec))
    argv = {"prune": ["prune", "--spec", "net.json"],
            "verify": ["verify", "sd-minimum", "--probes", "10"]}[command]
    modules = imported_modules(argv, tmp_path)
    assert {f"sparseland.{m}" for m in loaded} <= modules
    assert not {f"sparseland.{m}" for m in skipped} & modules
    assert (tmp_path / f"{command}.manifest.json").exists()  # the command ran to its end


@pytest.mark.parametrize("name", sparseland.__all__)
def test_exports_resolve_to_their_definitions(name):
    module = importlib.import_module(f"sparseland.{sparseland._EXPORTS[name]}")
    assert getattr(sparseland, name) is getattr(module, name)
    assert getattr(getattr(module, name), "__module__", module.__name__) == module.__name__


def test_unknown_export_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'conv_patches'"):
        sparseland.conv_patches
    assert not hasattr(sparseland, "nonexistent")
    assert set(sparseland.__all__) <= set(dir(sparseland))


def test_parser_name_lists_match_their_modules():
    # the CLI holds copies so that building its parser loads no numpy
    assert cli.KINDS == activations.KINDS
    assert cli.MODES == convmodes.MODES
    assert cli.STRICT_Y == counterexamples.STRICT_Y


def test_every_train_config_field_is_read_by_descend():
    # TrainConfig is the rule both descents share: a setting that only one
    # descent reads is that descent's own parameter
    tree = ast.parse((PACKAGE / "trainer.py").read_text())
    descend = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_descend")
    read = {node.attr for node in ast.walk(descend) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "config"}
    fields = {field.name for field in dataclasses.fields(trainer.TrainConfig)}
    assert not fields - read, fields - read


# public methods of exported classes that no workflow calls: each names who
# calls it
METHODS_NOT_REACHED = {
    "Activation.derivative": "test_activations.py's derivative checks and the "
                             "textbook backprop oracle of test_trainer.py",
}


def _uses(tree, names: dict) -> set:
    """The definitions a tree names: each name that `names` maps to a
    definition of sparseland, plus ".attr" for each attribute it reads (a
    method is known at its call sites only by its name)."""
    return {f".{node.attr}" if isinstance(node, ast.Attribute) else names[node.id]
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and node.id in names}


def _imports(tree) -> dict:
    """{local name: definition name} of what tree imports from sparseland,
    by `from .x import` in the package or `from sparseland import` in a test."""
    return {alias.asname or alias.name: alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").split(".")[0] == "sparseland")
            for alias in node.names}


def _names(path) -> tuple:
    """(tree, names) of a module of sparseland: a name resolves to a
    definition only where the module defines it at top level or imports it,
    so a local variable that shares an export's name reaches nothing."""
    tree = ast.parse(path.read_text())
    defined = {node.name for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    return tree, {**_imports(tree), **{name: name for name in defined}}


def _is_public_method(node) -> bool:
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


def definitions():
    """(uses, methods): what each top-level definition of sparseland uses, and
    each class's public methods.  A public method is keyed ".name" apart from
    its class, so it is reached only through an attribute of that name;
    dunder and private methods go with their class."""
    uses, methods = {}, {}
    for path in PACKAGE.glob("*.py"):
        tree, names = _names(path)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                public = [m for m in node.body if _is_public_method(m)]
                methods[node.name] = [m.name for m in public]
                for m in public:
                    uses.setdefault(f".{m.name}", set()).update(_uses(m, names))
                node.body = [m for m in node.body if not _is_public_method(m)]
                uses.setdefault(node.name, set()).update(_uses(node, names))
            elif isinstance(node, ast.FunctionDef):
                uses.setdefault(node.name, set()).update(_uses(node, names))
            elif isinstance(node, ast.Assign):
                for name in set().union(*(_uses(t, names) for t in node.targets)):
                    uses.setdefault(name, set()).update(_uses(node.value, names))
    return uses, methods


def reached_names() -> set:
    """Names used by the CLI or the acceptance tests, closed under the names
    each definition of sparseland uses in turn."""
    uses, _ = definitions()
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    todo = list(_uses(*_names(PACKAGE / "cli.py")) | _uses(acceptance, _imports(acceptance)))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(uses.get(name, ()))
    return reached


# exported and reached only from tests: each names why the tests need it
REACHED_BY_TESTS_ONLY = {}


def test_every_export_is_reached_or_planned():
    reached = reached_names()
    listed = REACHED_BY_TESTS_ONLY.keys()
    assert not set(sparseland.__all__) - reached - listed
    assert not listed & reached  # a listed name that is now reached leaves its list
    assert listed <= set(sparseland.__all__)


def unreached_methods() -> set:
    """Each public method of an exported class, as "Class.method", that is not
    reached."""
    reached = reached_names()
    _, methods = definitions()
    return {f"{cls}.{m}" for cls in sparseland.__all__ for m in methods.get(cls, ())
            if f".{m}" not in reached}


def test_every_public_method_is_reached_or_listed():
    unreached = unreached_methods()
    assert not unreached - METHODS_NOT_REACHED.keys()
    assert not METHODS_NOT_REACHED.keys() - unreached  # a method that gains a caller leaves the list


# defaulted parameters that no call under src/ passes: each names the test
# that sets it by keyword
SET_ONLY_BY_TESTS = {
    ("fd_gradient", "h"): "test_calculus.py::test_fd_steps_set_the_truncation_error",
    ("fd_hessian", "h"): "test_calculus.py::test_fd_steps_set_the_truncation_error",
}


def unpassed_defaults() -> set:
    """(function, parameter) for each defaulted parameter of an exported
    function that no call under src/ passes, by name or by position."""
    calls = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call, i, param):
        if any(k.arg in (param.name, None) for k in call.keywords):  # None: **kwargs
            return True
        return param.kind != param.KEYWORD_ONLY and (
            len(call.args) > i or any(isinstance(a, ast.Starred) for a in call.args))

    unpassed = set()
    for name in sparseland.__all__:
        func = getattr(sparseland, name)
        if not inspect.isfunction(func):
            continue
        for i, param in enumerate(inspect.signature(func).parameters.values()):
            if param.default is not param.empty and not any(
                    passed(call, i, param) for call in calls.get(name, ())):
                unpassed.add((name, param.name))
    return unpassed


def test_every_option_has_a_caller_or_a_test_that_sets_it():
    # a keyword that nothing sets to another value is a constant, not an option
    unpassed = unpassed_defaults()
    assert not unpassed - SET_ONLY_BY_TESTS.keys()
    assert not SET_ONLY_BY_TESTS.keys() - unpassed  # a parameter that gains a caller leaves the list
    for (func, param), where in SET_ONLY_BY_TESTS.items():
        file, test = where.split("::")
        body = next(node for node in ast.parse((ROOT / "tests" / file).read_text()).body
                    if isinstance(node, ast.FunctionDef) and node.name == test)
        assert any(isinstance(node, ast.Call) and func in ast.unparse(node.func)
                   and any(k.arg == param for k in node.keywords)
                   for node in ast.walk(body)), (func, param, where)
