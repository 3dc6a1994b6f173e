"""Finite-difference gradient of a masked network, the tests' independent
route to `trainer.grad_net`."""

import numpy as np

from sparseland import SparseLayer, SparseNet, loss
from sparseland.calculus import GRAD_FD_STEP


def grad_fd(net: SparseNet, X: np.ndarray, Y: np.ndarray, h: float = GRAD_FD_STEP) -> list:
    """FD loss gradient of a network; masked coordinates are exactly 0.

    Returns [(dW_layer, dbias_layer or None), ...].
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    weights = [l.weights.copy() for l in net.layers]
    biases = [None if l.bias is None else l.bias.copy() for l in net.layers]

    def eval_loss():
        layers = tuple(SparseLayer(w, l.mask, b, l.bias_mask)
                       for w, b, l in zip(weights, biases, net.layers))
        return loss(SparseNet(layers, net.activation), X, Y)

    out = []
    for li, layer in enumerate(net.layers):
        gw = np.zeros_like(layer.weights)
        for (i, j) in zip(*np.nonzero(layer.mask)):
            orig = weights[li][i, j]
            weights[li][i, j] = orig + h
            fp = eval_loss()
            weights[li][i, j] = orig - h
            fm = eval_loss()
            weights[li][i, j] = orig
            gw[i, j] = (fp - fm) / (2 * h)
        gb = None
        if layer.bias is not None:
            gb = np.zeros_like(layer.bias)
            for i in np.flatnonzero(layer.bias_mask):
                orig = biases[li][i]
                biases[li][i] = orig + h
                fp = eval_loss()
                biases[li][i] = orig - h
                fm = eval_loss()
                biases[li][i] = orig
                gb[i] = (fp - fm) / (2 * h)
        out.append((gw, gb))
    return out
