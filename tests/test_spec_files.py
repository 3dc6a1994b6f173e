"""Spec files, checked by generation: a valid network spec with one value
replaced by a drawn JSON value either loads (and the command exits 0 or 1)
or is a usage error (exit 2, one `error:` line, no manifest).  A value that
breaks a file rule must be the latter.  The rules: weight rows, biases and
polynomial coeffs are JSON lists of finite numbers (or strings that read as
one JSON number; true/false are not numbers), masks are 0/1 matrices, and
an activation's params is an object that names at most the one parameter
its kind reads."""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from sparseland.activations import KINDS
from sparseland.cli import main

PARAMS = {"leaky_relu": {"slope": 0.2}, "elu": {"alpha": 1.5},
          "polynomial": {"coeffs": [0.0, 1.0, 0.5]}}
READS = {kind: next(iter(params)) for kind, params in PARAMS.items()}

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["nan", "inf", "-inf", "0", "1", "0.5", "12", "tanh", "slope", "",
                     "1_0", "1e2", " 1", "0x1", "true"]),
    st.text(max_size=3),
)
KEYS = st.sampled_from(["slope", "alpha", "coeffs", "kind", "params", "x"])
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=2),
    max_leaves=8)


@st.composite
def valid_specs(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=3, max_size=4))
    layers = []
    for n_in, n_out in zip(dims, dims[1:]):
        mask = draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=n_in, max_size=n_in),
                             min_size=n_out, max_size=n_out))
        layer = {"weights": [[draw(st.floats(-2, 2)) if m else 0.0 for m in row] for row in mask],
                 "mask": mask}
        if draw(st.booleans()):
            layer["bias"] = draw(st.lists(st.floats(-2, 2), min_size=n_out, max_size=n_out))
        layers.append(layer)
    kind = draw(st.sampled_from(KINDS))
    return {"layers": layers, "activation": {"kind": kind, "params": dict(PARAMS.get(kind, {}))}}


def _finite_number(v) -> bool:
    """A JSON number, or a string holding one JSON number and nothing else,
    that is finite as a float."""
    if isinstance(v, str):
        try:
            v = json.loads(v) if v == v.strip() else None
        except ValueError:
            return False
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _finite_list(value) -> bool:
    return isinstance(value, list) and all(_finite_number(v) for v in value)


def _params_break(kind, params) -> bool:
    reads = READS.get(kind)
    if not isinstance(params, dict) or set(params) - {reads}:
        return True
    return reads in params and not (_finite_list if reads == "coeffs" else _finite_number)(
        params[reads])


@st.composite
def mutated_specs(draw):
    """(spec, breaks): a valid spec with one value replaced, and whether the
    replacement breaks a file rule."""
    spec = draw(valid_specs())
    slot = draw(st.sampled_from(["row", "bias", "mask", "params", "coeffs", "kind"]))
    # a short list, which may match the slot's length, or any JSON value
    value = draw(st.lists(SCALARS, min_size=1, max_size=3) | JSON_VALUES)
    layer = draw(st.sampled_from(spec["layers"]))
    activation = spec["activation"]
    if slot == "row":
        layer["weights"][draw(st.integers(0, len(layer["weights"]) - 1))] = value
        breaks = not _finite_list(value)
    elif slot == "bias":
        layer["bias"] = value
        breaks = value is not None and not _finite_list(value)
    elif slot == "mask":
        layer["mask"] = value
        breaks = not isinstance(value, list)
    elif slot == "params":
        activation["params"] = value
        breaks = _params_break(activation["kind"], value)
    elif slot == "coeffs":
        spec["activation"] = {"kind": "polynomial", "params": {"coeffs": value}}
        breaks = _params_break("polynomial", {"coeffs": value})
    else:
        activation["kind"] = value
        breaks = value not in KINDS or _params_break(value, activation["params"])
    return spec, breaks


@given(mutated_specs(), st.sampled_from(["prune", "rank"]))
@settings(max_examples=120, deadline=None)
def test_a_mutated_spec_loads_or_is_a_usage_error(case, command):
    spec, breaks = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "n.json"
        path.write_text(json.dumps(spec))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, "--spec", str(path), "--out", str(Path(tmp) / "out.json")])
        written = sorted(p.name for p in Path(tmp).iterdir())
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: bad network spec in {path}: ")
        assert out.getvalue() == "" and written == ["n.json"]
    assert not breaks or code == 2, (spec, code, out.getvalue())
