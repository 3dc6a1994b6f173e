"""In-process span tracing of the sparseland layers, installed from outside.

`Tracer.install()` wraps the public functions and classes of each sparseland
module (and the few private helpers a metric needs) with timing wrappers.
A function is rebound in every sparseland module that imported it, and in
module-level dicts such as `cli.HANDLERS`; a class keeps its identity and has
its methods wrapped in place, its constructor under the class name.  Nothing
under `src/` is edited; `uninstall()` restores every original.

A span is (id, layer, name, start, end, parent id, op id, info).  Spans stay
in memory until `write()`.  A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter

import numpy as np

LAYERS = ("cli", "network", "activations", "calculus", "landscape", "convmodes",
          "counterexamples", "trainer")
PRIVATE = {"cli": ("_sha256", "_load_net_spec")}
SPAN_FIELDS = ("id", "layer", "name", "start", "end", "parent", "op", "info")


def _grad_net_flops(args, kwargs, result):
    """Dense flops of one grad_net call, computed from the shapes."""
    net, X = args[0], args[1]
    n = X.shape[1]
    flops = 0
    for k, layer in enumerate(net.layers):
        per = 2 * layer.n_out * layer.n_in * n
        flops += per * (3 if k > 0 else 2)  # forward, weight grad, back-propagated G
    return flops


def _trials_info(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs["config"]
    n = len(result.labels)
    loop_epochs = int(result.epochs.max())
    return {"loop_epochs": loop_epochs, "active": int(result.epochs.sum()),
            "computed": loop_epochs * n, "history_bytes": (config.max_epochs + 1) * n * 8}


def _probe_evals(args, kwargs, result):
    ev = result.probe_evidence
    return ev["n_directions"] * len(ev["radii"])


INFO = {
    "cli._sha256": lambda a, k, r: len(a[0].encode()),
    "activations.Activation.__call__": lambda a, k, r: np.size(a[1]),
    "activations.Activation.derivative": lambda a, k, r: np.size(a[1]),
    "trainer.grad_net": _grad_net_flops,
    "trainer.gd_train": lambda a, k, r: r.epochs,
    "trainer.run_trials": _trials_info,
    "calculus.classify_stationary": _probe_evals,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []
        self._next_id = 0
        self._undo = []

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        info = INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                tracer.spans.append((sid, layer, name, t0, perf_counter(), parent, tracer.op, None))
                raise
            t1 = perf_counter()
            tracer._stack.pop()
            tracer.spans.append((sid, layer, name, t0, t1, parent, tracer.op,
                                 info(args, kwargs, result) if info else None))
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sparseland.{layer}") for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(layer, f"{layer}.{attr}", obj)
        namespaces = [importlib.import_module("sparseland"), *modules.values()]
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced:
                    self._undo.append((setattr, mod, attr, val))
                    setattr(mod, attr, replaced[id(val)])
                elif isinstance(val, dict):
                    for key, v in list(val.items()):
                        if id(v) in replaced:
                            self._undo.append((dict.__setitem__, val, key, v))
                            val[key] = replaced[id(v)]

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, v in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__call__"):
                continue
            name = f"{layer}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
            if isinstance(v, (classmethod, staticmethod)):
                new = type(v)(self._wrap(layer, name, v.__func__))
            elif inspect.isfunction(v):
                new = self._wrap(layer, name, v)
            else:
                continue  # properties and plain class attributes
            self._undo.append((setattr, cls, attr, v))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for restore, owner, key, original in reversed(self._undo):
            restore(owner, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as f:
            f.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                f.write(json.dumps(span, default=int) + "\n")


def layer_metrics(spans, wall: float) -> dict:
    """Per-layer metrics of one traced pass whose wall time was `wall`."""
    child_time = {}
    for sid, layer, name, t0, t1, parent, op, info in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    by_name = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    parent_name = {s[0]: s[2] for s in spans}
    for sid, layer, name, t0, t1, parent, op, info in spans:
        self_s[layer] += (t1 - t0) - child_time.get(sid, 0.0)
        by_name.setdefault(name, []).append((t1 - t0, info, parent_name.get(parent)))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def total(*names):
        return sum(d for n in names for d, _, _ in by_name.get(n, ()))

    def info_sum(name, key=None):
        return sum((i if key is None else i[key])
                   for _, i, _ in by_name.get(name, ()) if i is not None)

    def under(name, parent):
        return [d for d, _, p in by_name.get(name, ()) if p == parent]

    def self_of(name):
        return sum((t1 - t0) - child_time.get(sid, 0.0)
                   for sid, _, n, t0, t1, _, _, _ in spans if n == name)

    grad_ms = sorted(d * 1e3 for d, _, _ in by_name.get("trainer.grad_net", ()))
    grad_s = total("trainer.grad_net")
    trial_loss = under("counterexamples.SpuriousValleyInstance.loss", "trainer.run_trials")
    trial_grad = under("counterexamples.SpuriousValleyInstance.grad", "trainer.run_trials")
    computed = info_sum("trainer.run_trials", "computed")
    probe_evals = info_sum("calculus.classify_stationary")
    classify_s = total("calculus.classify_stationary")
    root_s = child_time.get(-1, 0.0)

    m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    m.update({
        "cli.hash_s": total("cli._sha256"),
        "cli.hash_bytes": info_sum("cli._sha256"),
        "cli.spec_load_s": total("cli._load_net_spec"),
        "network.layer_builds": calls("network.SparseLayer"),
        "network.layer_build_s": total("network.SparseLayer"),
        "network.net_builds": calls("network.SparseNet"),
        "network.net_build_s": total("network.SparseNet"),
        "network.forward_calls": calls("network.SparseLayer.affine"),
        "network.forward_s": total("network.SparseLayer.affine"),
        "activations.calls": calls("activations.Activation.__call__"),
        "activations.call_s": total("activations.Activation.__call__"),
        "activations.deriv_calls": calls("activations.Activation.derivative"),
        "activations.deriv_s": total("activations.Activation.derivative"),
        "activations.elements": (info_sum("activations.Activation.__call__")
                                 + info_sum("activations.Activation.derivative")),
        "trainer.grad_net_calls": len(grad_ms),
        "trainer.grad_net_s": grad_s,
        "trainer.grad_net_p50_ms": statistics.median(grad_ms) if grad_ms else 0.0,
        "trainer.grad_net_p99_ms": float(np.percentile(grad_ms, 99)) if grad_ms else 0.0,
        "trainer.grad_net_gflop_per_s": (info_sum("trainer.grad_net") / grad_s / 1e9
                                         if grad_s else 0.0),
        "trainer.gd_epochs": info_sum("trainer.gd_train"),
        "trainer.gd_self_s": self_of("trainer.gd_train"),
        "trainer.trial_loop_epochs": info_sum("trainer.run_trials", "loop_epochs"),
        "trainer.trial_epochs_active": info_sum("trainer.run_trials", "active"),
        "trainer.trial_epochs_computed": computed,
        "trainer.trial_useful_ratio": (info_sum("trainer.run_trials", "active") / computed
                                       if computed else 0.0),
        "trainer.trials_self_s": self_of("trainer.run_trials"),
        "trainer.history_bytes": info_sum("trainer.run_trials", "history_bytes"),
        "counterexamples.build_s": total("counterexamples.spurious_minimum_instance",
                                         "counterexamples.valley_instance",
                                         "counterexamples.conv_valley_instance"),
        "counterexamples.objective_loss_calls": len(trial_loss),
        "counterexamples.objective_loss_s": sum(trial_loss),
        "counterexamples.objective_grad_calls": len(trial_grad),
        "counterexamples.objective_grad_s": sum(trial_grad),
        "counterexamples.probe_s": total("counterexamples.verify_spurious_minimum",
                                         "counterexamples.probe_valley",
                                         "counterexamples.probe_conv_valley"),
        "calculus.classify_s": classify_s,
        "calculus.probe_evals": probe_evals,
        "calculus.probe_eval_us": classify_s / probe_evals * 1e6 if probe_evals else 0.0,
        "calculus.hessian_s": total("calculus.hessian_two_layer_linear", "calculus.fd_hessian"),
        "landscape.rank_calls": calls("landscape.numerical_rank"),
        "landscape.rank_s": total("landscape.numerical_rank"),
        "landscape.path_s": total("landscape.nonincreasing_path_overparam",
                                  "landscape.nonincreasing_path_scalar_output"),
        "landscape.zero_column_s": total("landscape.zero_column_transform"),
        "convmodes.matrix_calls": calls("convmodes.conv_matrix"),
        "convmodes.matrix_s": total("convmodes.conv_matrix"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - root_s,
        "trace.spans": len(spans),
    })
    return m
