"""Masked feed-forward networks and the structural operations on them.

A network here is a stack of :class:`SparseLayer` objects (linear output,
shared hidden activation).  Masks are hard structural constraints: a masked
entry holds the exact float 0.0 at all times (+0.0 where the package writes
it), and every operation in the package preserves that invariant bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .activations import Activation, spec_number


def _as_mask(mask, shape) -> np.ndarray:
    """A locked bool copy of mask; non-bool entries must be exactly 0 or 1."""
    m = np.asarray(mask)
    if m.shape != shape:
        raise ValueError(f"mask shape {m.shape} != weight shape {shape}")
    out = m.astype(bool)
    if m.dtype != bool and not np.array_equal(out, m):
        raise ValueError("mask entries must be 0/1")
    out.setflags(write=False)
    return out


def _locked(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SparseLayer:
    """One affine layer with a binary mask (and optional masked bias).

    weights: (n_out, n_in), both at least 1; mask: same shape, True =
    trainable/connected.
    Masked positions must carry weight exactly 0.0; the constructor rejects
    anything else rather than silently projecting.
    """

    weights: np.ndarray
    mask: np.ndarray
    bias: np.ndarray | None = None
    bias_mask: np.ndarray | None = None

    def __post_init__(self):
        w = _locked(self.weights)
        if w.ndim != 2 or 0 in w.shape:
            raise ValueError(f"weights must be a 2-d array with no empty axis, "
                             f"got shape {w.shape}")
        m = _as_mask(self.mask, w.shape)
        # nonzero (NaN and inf included) where the mask is False, counted with no gather
        bad = np.count_nonzero((w != 0) > m)
        if bad:
            raise ValueError(f"{bad} masked weight entries are nonzero; masks pin exact zeros")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mask", m)
        if self.bias is not None:
            b = _locked(self.bias)
            if b.shape != (w.shape[0],):
                raise ValueError(f"bias shape {b.shape} != ({w.shape[0]},)")
            bm = _as_mask(self.bias_mask if self.bias_mask is not None
                         else np.ones(b.shape, dtype=bool), b.shape)
            if np.count_nonzero((b != 0) > bm):
                raise ValueError("masked bias entries must be exactly zero")
            object.__setattr__(self, "bias", b)
            object.__setattr__(self, "bias_mask", bm)
        elif self.bias_mask is not None:
            raise ValueError("bias_mask given without bias")

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    def affine(self, X: np.ndarray) -> np.ndarray:
        out = self.weights @ X
        if self.bias is not None:
            out = out + self.bias[:, None]
        return out


@dataclass(frozen=True)
class SparseNet:
    """>= 2 masked affine layers; hidden activations, linear output layer."""

    layers: tuple
    activation: Activation

    def __post_init__(self):
        layers = tuple(self.layers)
        if len(layers) < 2:
            raise ValueError("a network needs at least 2 layers (one hidden)")
        for a, b in zip(layers, layers[1:]):
            if b.n_in != a.n_out:
                raise ValueError(f"layer dims mismatch: {a.n_out} -> {b.n_in}")
        object.__setattr__(self, "layers", layers)

    @property
    def dims(self) -> tuple:
        """(d_in, hidden..., d_out)"""
        return (self.layers[0].n_in,) + tuple(l.n_out for l in self.layers)

    @property
    def sparsity(self) -> float:
        """The share of weight entries that the masks pin to zero."""
        total = sum(layer.mask.size for layer in self.layers)
        zeros = sum(layer.mask.size - np.count_nonzero(layer.mask) for layer in self.layers)
        return zeros / total

    @property
    def n_params(self) -> int:
        """The length of theta."""
        return sum(layer.weights.size + (0 if layer.bias is None else layer.n_out)
                   for layer in self.layers)

    @property
    def theta(self) -> np.ndarray:
        """The flat parameter vector: layer by layer, the weights row-major
        (masked positions hold their exact 0.0), then the bias if there is one."""
        return np.concatenate([p.ravel() for layer in self.layers
                               for p in (layer.weights, layer.bias) if p is not None])

    def views(self, theta: np.ndarray) -> list:
        """[(W_k, b_k), ...]: each layer's weights and bias (None where the
        layer has none) as shaped views into the 1-d theta, cut by slicing."""
        if theta.shape != (self.n_params,):
            raise ValueError(f"theta shape {theta.shape} != ({self.n_params},)")
        out, start = [], 0
        for layer in self.layers:
            W = theta[start:start + layer.weights.size].reshape(layer.weights.shape)
            start += W.size
            b = None if layer.bias is None else theta[start:start + layer.n_out]
            start += 0 if b is None else b.size
            out.append((W, b))
        return out

    def with_theta(self, theta) -> SparseNet:
        """This net's masks and activation with theta's parameters, checked by SparseLayer."""
        theta = np.asarray(theta, dtype=float)
        return SparseNet(tuple(SparseLayer(W, layer.mask, b, layer.bias_mask)
                               for (W, b), layer in zip(self.views(theta), self.layers)),
                         self.activation)


def _checked_input(net: SparseNet, X) -> np.ndarray:
    """X as floats, which must be (d_in, n) for net."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != net.layers[0].n_in:
        raise ValueError(f"X must be ({net.layers[0].n_in}, n)")
    return X


def _checked_target(net: SparseNet, n: int, Y) -> np.ndarray:
    """Y as floats, which must be net's output shape on n samples, (d_out, n)."""
    Y = np.asarray(Y, dtype=float)
    shape = (net.layers[-1].n_out, n)
    if Y.shape != shape:
        raise ValueError(f"Y shape {Y.shape} != output shape {shape}")
    return Y


def forward(net: SparseNet, X: np.ndarray):
    """Network output plus the post-activation hidden outputs, in order.

    X is (d_in, n).  Returns (output (d_out, n), [hidden_1, ..., hidden_{L-1}]).
    """
    X = _checked_input(net, X)
    hiddens = []
    h = X
    for layer in net.layers[:-1]:
        h = net.activation(layer.affine(h))
        hiddens.append(h)
    out = net.layers[-1].affine(h)
    return out, hiddens


def loss(net: SparseNet, X: np.ndarray, Y: np.ndarray) -> float:
    """0.5 * squared Frobenius residual of the network on (X, Y)."""
    out, _ = forward(net, X)
    r = out - _checked_target(net, out.shape[1], Y)
    return 0.5 * float(np.sum(r * r))


# ---------------------------------------------------------------------------
# effective subnetwork reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemovalReport:
    """What the reduction removed.

    removed_edges: (layer index 0-based, out neuron, in neuron) triples and
    removed_biases: (layer, neuron) pairs, each in sorted order.
    neutered: (level, neuron) hidden nodes left with no surviving path role;
    their rows/columns are zero but the indexing of the net is unchanged.
    isolated_inputs / isolated_outputs: indices with no surviving connection.
    """

    removed_edges: tuple
    removed_biases: tuple
    neutered: tuple
    isolated_inputs: tuple
    isolated_outputs: tuple

    @property
    def is_effective(self) -> bool:
        return not self.isolated_inputs and not self.isolated_outputs


def _removed(k: int, old: np.ndarray, new: np.ndarray) -> list:
    """(k, *index) for each entry of layer k that old keeps and new drops, in index order."""
    return [(k, *idx) for idx in np.argwhere(old & ~new).tolist()]


def effective_subnetwork(net: SparseNet):
    """Strip connections that cannot lie on any input-to-output path.

    Two boolean sweeps find the live neurons.  Forward, every input is live,
    and a neuron is live when a live neuron of the level below or a live
    bias of its own feeds it.  Backward, every output is live, and a neuron
    is live when it feeds a live neuron of the level above.  An edge
    survives iff its tail is forward-live and its head backward-live; a
    hidden bias survives iff its neuron is backward-live, and the output
    bias is kept.

    Returns (reduced net, RemovalReport).  The reduced net has the same
    shapes; removed positions are masked and hold +0.0, so evaluating it agrees
    with the original whenever the removed parameters are zero.
    """
    layers = net.layers
    fwd = [np.ones(net.dims[0], dtype=bool)]  # fwd[k]: forward-live neurons of level k
    for layer in layers:
        fed = (layer.mask & fwd[-1]).any(axis=1)
        fwd.append(fed if layer.bias_mask is None else fed | layer.bias_mask)
    bwd = [np.ones(net.dims[-1], dtype=bool)]  # bwd[k]: backward-live neurons of level k
    for layer in reversed(layers):
        bwd.insert(0, (layer.mask & bwd[0][:, None]).any(axis=0))

    new_layers, removed_edges, removed_biases = [], [], []
    for k, layer in enumerate(layers):
        m = layer.mask & np.outer(bwd[k + 1], fwd[k])
        removed_edges += _removed(k, layer.mask, m)
        bm = layer.bias_mask
        if bm is not None and k < len(layers) - 1:
            bm = bm & bwd[k + 1]
            removed_biases += _removed(k, layer.bias_mask, bm)
        # np.where, not a product: a negative weight times False is -0.0
        bias = None if layer.bias is None else np.where(bm, layer.bias, 0.0)
        new_layers.append(SparseLayer(np.where(m, layer.weights, 0.0), m, bias, bm))
    reduced = SparseNet(tuple(new_layers), net.activation)

    report = RemovalReport(
        removed_edges=tuple(removed_edges),
        removed_biases=tuple(removed_biases),
        # level numbering: inputs are level 0
        neutered=tuple((k, j) for k in range(1, len(layers))
                       for j in np.flatnonzero(~(fwd[k] & bwd[k])).tolist()),
        isolated_inputs=tuple(np.flatnonzero(~new_layers[0].mask.any(axis=0)).tolist()),
        isolated_outputs=tuple(np.flatnonzero(~new_layers[-1].mask.any(axis=1)).tolist()),
    )
    return reduced, report


# ---------------------------------------------------------------------------
# JSON network specs
# ---------------------------------------------------------------------------

def _parse_numbers(values, what: str) -> list:
    """A JSON list of finite numbers or decimal strings ("0.125") as floats,
    read by spec_number; a float entry, the common case, is taken as it is."""
    if not isinstance(values, list):
        raise TypeError(f"{what} must be a JSON list, got {values!r}")
    out = [v if type(v) is float else spec_number(v) for v in values]
    if not all(map(math.isfinite, out)):
        raise ValueError(f"{what} entries must be finite numbers or decimal strings, "
                         f"got {values!r}")
    return out


def net_from_json(obj: dict) -> SparseNet:
    """Build a network from the parsed JSON layout used by the CLI.

    {"layers": [{"weights": [[...]], "mask": [[...]], "bias": [...]?,
                 "bias_mask": [...]?}, ...],
     "activation": {"kind": ..., "params": {...}}}

    Weight rows and biases are JSON lists of finite numbers.
    """
    layers = []
    for spec in obj["layers"]:
        rows = spec["weights"]
        if not isinstance(rows, list):
            raise TypeError(f"weights must be a JSON list of rows, got {rows!r}")
        w = np.array([_parse_numbers(row, "weight row") for row in rows])
        bias = spec.get("bias")
        if bias is not None:
            bias = _parse_numbers(bias, "bias")
        # SparseLayer judges the masks: their entries must be 0/1
        layers.append(SparseLayer(w, spec.get("mask", np.ones_like(w)), bias, spec.get("bias_mask")))
    act = Activation.from_json(obj.get("activation", {"kind": "linear"}))
    return SparseNet(tuple(layers), act)


def net_to_json(net: SparseNet) -> dict:
    out = {"layers": [], "activation": net.activation.to_json()}
    for layer in net.layers:
        spec = {
            "weights": layer.weights.tolist(),
            "mask": layer.mask.astype(int).tolist(),
        }
        if layer.bias is not None:
            spec["bias"] = layer.bias.tolist()
            spec["bias_mask"] = layer.bias_mask.astype(int).tolist()
        out["layers"].append(spec)
    return out
