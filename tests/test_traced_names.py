"""The benchmark's tracer (perfbench/tracing.py) wraps sparseland functions
by name and reads its per-layer metrics from spans with those names.  A name
that no longer resolves is skipped silently and its metric reads 0, so every
traced name must still resolve to an object its module defines."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SPAN_READERS = {"calls": None, "total": None, "under": None, "self_of": None, "info_sum": 1}


def traced_names() -> set:
    """INFO keys, plus the span names passed to the metric helpers
    (info_sum's second argument is an info key, not a span name)."""
    names = set()
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "INFO" for t in node.targets):
            names.update(k.value for k in node.value.keys)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in SPAN_READERS:
            args = node.args[:SPAN_READERS[node.func.id]]
            names.update(a.value for a in args if isinstance(a, ast.Constant))
    return names


def test_tracer_reads_at_least_the_known_names():
    names = traced_names()
    assert len(names) >= 20
    assert {"trainer.grad_net", "counterexamples.SpuriousValleyInstance.grad",
            "calculus.classify_stationary", "cli._sha256"} <= names


@pytest.mark.parametrize("name", sorted(traced_names()))
def test_traced_name_resolves(name):
    layer, attr, *rest = name.split(".")
    module = importlib.import_module(f"sparseland.{layer}")
    obj = getattr(module, attr)
    assert obj.__module__ == module.__name__, f"{name} is imported, not defined, in {layer}"
    for part in rest:
        obj = getattr(obj, part)
