"""Gradient-descent training for masked nets, plus a batched trial harness.

Everything here is full-batch plain GD on data given as two arrays, X
(d_in, n) and Y (d_out, n); the only adaptivity is optional step halving
when a step would increase the loss (off by default).  Masks are enforced
by zeroing the corresponding gradient entries, so pruned coordinates never
move.  A trace's loss rise and CSV text come from landscape's `loss_rise`
and `csv_text`, which the descent paths use too.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .activations import Activation
from .landscape import csv_text, layer_ranks, loss_rise
from .network import SparseLayer, SparseNet, _checked_input, _checked_target, loss

DIVERGE_FACTOR = 1e12
CLUSTER_REL_TOL = 1e-3  # loss_clusters: relative distance that joins a loss to a cluster

# SeedSequence spawn key per purpose, one each, so no two purposes share draws.  Masks
# (the root: default_rng(seed)) and data (children 0-2) keep the draws they always had.
STREAMS = {"mask": (), "data": (0,), "target": (1,), "noise": (2,),
           "weights": (3,), "init": (4,), "rank": (5,)}


def stream(seed: int, purpose: str) -> np.random.Generator:
    """The random stream that `purpose` (a key of STREAMS) draws from under seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=STREAMS[purpose]))


def gen_synthetic(n: int, d_x: int, d_y: int, seed: int = 0, a_norm: float = 5.0,
                  noise: float = 1.0, target: str = "gaussian"):
    """(X, Y): X (d_x, n) ~ N(0,1), Y = A X + noise * eps with ||A||_F scaled to a_norm.

    target "identity" uses A = the first d_y rows of I instead (then a_norm
    is ignored, and the CLI rejects --a-norm with it).  X, A and eps each
    draw from their own stream of seed.
    """
    rng_x, rng_a, rng_e = (stream(seed, purpose) for purpose in ("data", "target", "noise"))
    X = rng_x.standard_normal((d_x, n))
    if target == "gaussian":
        A = rng_a.standard_normal((d_y, d_x))
        A *= a_norm / np.linalg.norm(A)
    elif target == "identity":
        A = np.eye(d_y, d_x)
    else:
        raise ValueError(f"unknown target {target!r}")
    Y = A @ X + noise * rng_e.standard_normal((d_y, n))
    return X, Y


@dataclass(frozen=True)
class TrainConfig:
    """The one step-and-stop rule that _descend applies to both descents."""

    learning_rate: float = 0.01
    max_epochs: int = 50000
    grad_tol: float = 1e-8
    plateau_rel: float = 1e-12
    plateau_window: int = 200
    backtrack: bool = False    # halve the step while it would increase the loss


def init_net(net: SparseNet, scale: float, seed: int, purpose: str = "init") -> SparseNet:
    """net with fresh weights on its masks: uniform(-s/sqrt(fan_in), s/sqrt(fan_in))
    per layer with s = scale, drawn from the `purpose` stream of seed.  Masked
    entries hold +0.0: a draw times False would leave -0.0 under a negative draw."""
    rng = stream(seed, purpose)
    theta = np.empty(net.n_params)
    for (W, b), layer in zip(net.views(theta), net.layers):
        bound = scale / math.sqrt(layer.n_in)
        W[...] = np.where(layer.mask, rng.uniform(-bound, bound, size=W.shape), 0.0)
        if b is not None:
            b[...] = np.where(layer.bias_mask, rng.uniform(-bound, bound, size=b.shape), 0.0)
    return net.with_theta(theta)


def grad_net(net: SparseNet, X: np.ndarray, Y: np.ndarray):
    """The masked gradient of 0.5 ||net(X) - Y||_F^2 and its value.

    Returns (grad, value), grad laid out like net.theta, so net.views(grad)
    gives it per layer.  X must be (d_in, n) and Y (d_out, n).

    A linear net is one affine map, so its gradients are grouped through the
    matrix chain (_chain_grads); other nets take backprop.
    """
    X = _checked_input(net, X)
    Y = _checked_target(net, X.shape[1], Y)
    act = net.activation
    L = len(net.layers)
    with np.errstate(over="ignore", invalid="ignore"):
        if act.kind == "linear":
            return _chain_grads(net, X, Y)

        hiddens = [X]
        derivs = []  # sigma'(pre) of each hidden layer, from the forward pass
        for k, layer in enumerate(net.layers):
            pre = layer.affine(hiddens[-1])
            if k == L - 1:
                hiddens.append(pre)
            else:
                h, d = act.value_and_derivative(pre)
                hiddens.append(h)
                derivs.append(d)
        resid = hiddens[-1] - Y
        value = 0.5 * float(np.sum(resid * resid))

        grad = np.empty(net.n_params)
        views = net.views(grad)
        G = resid
        for k in range(L - 1, -1, -1):
            layer = net.layers[k]
            gW, gb = views[k]
            np.multiply(G @ hiddens[k].T, layer.mask, out=gW)
            if gb is not None:
                np.multiply(G.sum(axis=1), layer.bias_mask, out=gb)
            if k > 0:
                G = layer.weights.T @ G
                G *= derivs[k - 1]
        return grad, value


def _chain_grads(net: SparseNet, X: np.ndarray, Y: np.ndarray):
    """grad_net of a linear net, its matrix chain grouped from the narrow ends.

    With A_k = W_k ... W_1 and offsets a_k = W_k a_{k-1} + b_k (A_0 = I,
    a_0 = 0), and B_k = W_L ... W_{k+1} (B_L = I), the residual is
    R = A_L X + a_L 1^T - Y, and
        dW_k = mask_k * B_k^T (S A_{k-1}^T + rho a_{k-1}^T)
        db_k = bias_mask_k * B_k^T rho
    with S = R X^T and rho = R 1: the n samples enter only through S and rho.
    The loss is taken from R itself, not from a Gram form that would cancel
    near the optimum; where it is not finite, from the layer-by-layer `loss`,
    which reads an overflowed output as inf, as backprop does, not as NaN.
    """
    layers = net.layers
    d_x, n = X.shape
    biased = any(layer.bias is not None for layer in layers)
    # heads[k] = [A_k | a_k], or A_k alone when no layer has a bias, for k >= 1;
    # heads[0] = [I | 0] is never formed.  Xh = [X; 1^T] to match, so that
    # heads[k] @ Xh = A_k X + a_k 1^T.
    first = layers[0]
    H = first.weights
    if biased:
        H = np.column_stack([H, np.zeros(first.n_out) if first.bias is None else first.bias])
    heads = [None, H]
    for layer in layers[1:]:
        H = layer.weights @ H
        if layer.bias is not None:
            H[:, -1] += layer.bias
        heads.append(H)
    Xh = np.vstack([X, np.ones((1, n))]) if biased else X
    resid = heads[-1] @ Xh - Y
    value = 0.5 * float(np.sum(resid * resid))
    if not math.isfinite(value):
        value = loss(net, X, Y)
    M = resid @ Xh.T  # [S | rho]

    grad = np.empty(net.n_params)
    views = net.views(grad)
    Bt = None  # B_k^T; None stands for B_L = I
    for k in range(len(layers) - 1, -1, -1):
        layer = layers[k]
        gW, gb = views[k]
        C = M @ heads[k].T if k else M[:, :d_x]
        np.multiply(C if Bt is None else Bt @ C, layer.mask, out=gW)
        if gb is not None:
            np.multiply(M[:, -1] if Bt is None else Bt @ M[:, -1], layer.bias_mask, out=gb)
        if k > 0:
            Bt = layer.weights.T if Bt is None else layer.weights.T @ Bt
    return grad, value


@dataclass(frozen=True)
class TrainTrace:
    losses: np.ndarray              # per epoch, including epoch 0
    net: SparseNet                  # final parameters
    stop_reason: str                # converged_grad | plateau | max_epochs | diverged
    ranks: tuple = ()               # ((epoch, (rank_h1, ...)), ...); None: not finite

    @property
    def final_loss(self) -> float:
        return float(self.losses[-1])

    @property
    def epochs(self) -> int:
        return len(self.losses) - 1

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"

    @property
    def monotone_violation(self) -> float:
        return loss_rise(self.losses)

    def to_csv(self) -> str:
        n_layers = len(self.net.layers)
        rank_at = {epoch: r for epoch, r in self.ranks}
        header = ["epoch", "loss"] + [f"rank_layer_{k+1}" for k in range(n_layers)]
        rows = ([str(e), repr(float(lv))]
                + ["" if v is None else str(v)  # None: no sample, or not measured
                   for v in rank_at.get(e, (None,) * n_layers)]
                for e, lv in enumerate(self.losses))
        return csv_text(header, rows)


def _descend(value_and_grad, theta, config: TrainConfig, observe=None):
    """Plain GD on T independent runs under one stopping rule.

    theta is a (T, P) array, one run's parameters per row, and
    value_and_grad(theta) gives the (T,) losses and the (T, P) gradients of
    the rows it is passed.  Each epoch tests every run for, in order:
    "diverged" (the loss is NaN or exceeds DIVERGE_FACTOR times its start in
    magnitude: a loss below minus that limit diverges too, though every
    objective of the package is a sum of squares), "converged_grad" (gradient
    norm below grad_tol), "plateau" (loss fell by at most plateau_rel over
    plateau_window epochs, first at epoch plateau_window + 1), "max_epochs".
    The tests form one stop mask per epoch; a run that stops gets the first
    reason that holds for it, is written out once and leaves the batch, so
    later epochs evaluate only the runs still moving.  Leaving keeps theta's
    memory order, so a coordinate-major (Fortran-order) theta stays
    coordinate-major.  With backtrack each run halves its own step while it
    would raise its loss, down to 1e-16 of the learning rate.

    observe(epoch, theta, values) runs before each epoch's tests and sees
    only the runs not yet stopped; it must not write to them, and no step or
    stop depends on whether it is given.  A run converges when its gradient
    norm is below grad_tol; the norms are skipped at an epoch where each
    run's entry in one witness column of the gradients is at least grad_tol
    or NaN, which proves that no run converges.  An epoch where the proof
    fails computes the norms and moves the witness to the column whose least
    |g| over the runs (NaN skipped) is largest, even where that least is
    below grad_tol (a dead relu unit gives exact zeros): the proof is sound
    on any column.  Every epoch computes the norms while grad_tol < 2**-511
    or a run has no parameters.
    Returns (theta, values, stop_epoch, stop_reason), each over all T runs.
    """
    lr, w = config.learning_rate, config.plateau_window
    tol, rel = config.grad_tol, config.plateau_rel
    with np.errstate(over="ignore", invalid="ignore"):
        values, grads = value_and_grad(theta)
        n = len(values)
        out_theta = np.empty_like(theta)
        out_values = np.empty_like(values)
        stop_epoch = np.full(n, config.max_epochs)
        stop_reason = np.full(n, "max_epochs", dtype=object)
        runs = np.arange(n)  # the original index of each run still in the batch
        # capped, so that an infinite loss exceeds it where the product overflows
        limit = np.minimum(DIVERGE_FACTOR * np.maximum(1.0, np.abs(values)), np.finfo(float).max)
        # ring buffer over the last w + 1 epochs: the plateau test reads epoch - w
        history = np.empty((min(w, config.max_epochs) + 1, n))
        depth = len(history)
        # A run with an entry |g| >= grad_tol has a norm >= grad_tol: its square is
        # normal while grad_tol >= 2**-511, so sqrt(fl(g * g)) == |g|, and rounding a
        # sum of non-negative terms is monotone.  A run with a NaN entry has a NaN
        # norm.  So no run converges at an epoch where each run's entry in column
        # col is at least grad_tol or NaN.
        col = 0 if tol >= 2.0 ** -511 and theta.shape[1] > 0 else None  # the witness; None: off

        for epoch in range(config.max_epochs + 1):
            history[epoch % depth] = values
            if observe is not None:
                observe(epoch, theta, values)
            if col is not None and not np.count_nonzero(np.abs(grads[:, col]) < tol):
                converged = np.zeros(len(values), dtype=bool)
            else:
                converged = _grad_norms(grads) < tol
                if col is not None:
                    # the column whose least |g| over the runs, NaN skipped, is largest
                    col = np.fmin.reduce(np.abs(grads), axis=0).argmax()
            diverged = ~(np.abs(values) <= limit)
            stop = diverged | converged
            plateau = None
            if epoch > w:
                past = history[(epoch - w) % depth]
                plateau = past - values <= rel * np.maximum(1.0, np.abs(past))
                stop |= plateau
            if epoch == config.max_epochs:
                stop[:] = True
            stopped = np.count_nonzero(stop)
            if stopped:
                # later writes win, so a run keeps the first reason that holds for it
                for reason, hit in (("plateau", plateau), ("converged_grad", converged),
                                    ("diverged", diverged)):
                    if hit is not None:
                        stop_reason[runs[hit]] = reason
                stop_epoch[runs[stop]] = epoch
                out_values[runs[stop]] = values[stop]
                out_theta[runs[stop]] = theta[stop]
                if stopped == len(stop):
                    break
                keep = ~stop
                runs, values, limit, history = runs[keep], values[keep], limit[keep], history[:, keep]
                theta, grads = _rows(theta, keep), _rows(grads, keep)

            step = lr  # one per run once a run has backtracked
            while True:
                trial = theta - (step[:, None] if isinstance(step, np.ndarray) else step) * grads
                new_values, new_grads = value_and_grad(trial)
                if not config.backtrack:
                    break
                worse = ~(new_values <= values) & (step >= 1e-16 * lr)
                if not worse.any():
                    break
                step = np.where(worse, 0.5 * step, step)
            theta, values, grads = trial, new_values, new_grads
    return out_theta, out_values, stop_epoch, stop_reason


def _grad_norms(grads: np.ndarray) -> np.ndarray:
    """Each row's norm; the squares are taken in C order, so each row is
    summed alike whatever grads' memory order."""
    return np.sqrt(np.square(grads, order="C").sum(axis=1))


def _rows(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """a[keep] in a's memory order (a[keep] alone always gives C order).

    This keeps the order only, not a copy: np.compress gathers into a C-order
    temporary and copies that into out.
    """
    out = np.empty_like(a, shape=(np.count_nonzero(keep),) + a.shape[1:])
    return np.compress(keep, a, axis=0, out=out)


def gd_train(net: SparseNet, X: np.ndarray, Y: np.ndarray,
             config: TrainConfig = TrainConfig(), rank_every: int = 0) -> TrainTrace:
    """Full-batch GD on 0.5 ||net(X) - Y||_F^2 from net's own parameters (one
    _descend run over net.theta), the layer_ranks of its outputs sampled
    every rank_every epochs (0: never).  grad_net checks X and Y on the first step."""

    def value_and_grad(theta):
        grad, value = grad_net(net.with_theta(theta[0]), X, Y)
        return np.array([value]), grad[None]

    losses, ranks = [], []

    def observe(epoch, theta, values):
        losses.append(values[0])
        if rank_every and epoch % rank_every == 0:
            ranks.append((epoch, layer_ranks(net.with_theta(theta[0]), X)))

    theta, _, _, stop_reason = _descend(value_and_grad, net.theta[None], config, observe)
    return TrainTrace(losses=np.asarray(losses), net=net.with_theta(theta[0]),
                      stop_reason=stop_reason[0], ranks=tuple(ranks))


# ---------------------------------------------------------------------------
# batched independent trials on a flat-vector objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialStats:
    labels: tuple                  # one label per trial
    final_losses: np.ndarray
    final_thetas: np.ndarray
    epochs: np.ndarray
    counts: dict
    clusters: tuple                # ((loss_center, size), ...) sorted by center

    def fraction(self, label: str) -> float:
        return self.counts.get(label, 0) / len(self.labels)

    def to_json(self) -> dict:
        return {
            "trials": [
                {"label": lab, "final_loss": float(lv), "epochs": int(e)}
                for lab, lv, e in zip(self.labels, self.final_losses, self.epochs)
            ],
            "clusters": [{"loss": c, "size": s} for c, s in self.clusters],
            "counts": dict(self.counts),
            "fractions": {k: v / len(self.labels) for k, v in self.counts.items()},
        }


def loss_clusters(losses) -> tuple:
    """Greedy 1-d clustering of final losses: sorted values join the current
    cluster while within CLUSTER_REL_TOL of its running mean (floored at 1)."""
    vals = np.sort(np.asarray(losses, dtype=float))
    vals = vals[np.isfinite(vals)]
    if len(vals) == 0:
        return ()
    clusters = []
    mean, count = float(vals[0]), 1
    for v in vals[1:]:
        if abs(v - mean) <= CLUSTER_REL_TOL * max(1.0, abs(mean)):
            mean = float(mean + (v - mean) / (count + 1))
            count += 1
        else:
            clusters.append((mean, count))
            mean, count = float(v), 1
    clusters.append((mean, count))
    return tuple(clusters)


def run_trials(objective, n_trials: int, config: TrainConfig = TrainConfig(),
               seed: int = 0) -> TrialStats:
    """n_trials independent GD runs, advanced together by one _descend.

    The objective (a SpuriousValleyInstance in the trials command) has
    loss and grad, which broadcast over the leading axis of a (T, P) stack
    of points and are called grad first; init_bounds, of shape (P,), whose
    entry b bounds a coordinate's uniform start to [-b, b]; and
    classify(final_loss, theta), the label of a trial that did not diverge.
    Trial t draws its start from default_rng(seed + t), so results
    are identical whether trials run alone or batched.  All per-step work
    is elementwise across trials; a finished trial leaves the batch.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    bounds = objective.init_bounds
    # coordinate-major: each coordinate's column over the trials is contiguous
    theta = np.empty((len(bounds), n_trials)).T
    for t in range(n_trials):
        theta[t] = np.random.default_rng(seed + t).uniform(-bounds, bounds)

    def value_and_grad(theta):
        # grad first: an objective may keep its loss for the loss call on this array
        g = objective.grad(theta)
        return objective.loss(theta), g

    theta, final_losses, epochs, stop_reason = _descend(value_and_grad, theta, config)
    diverged = stop_reason == "diverged"
    labels = tuple("diverged" if bad else objective.classify(float(lv), th)
                   for bad, lv, th in zip(diverged, final_losses, theta))
    return TrialStats(
        labels=labels,
        final_losses=final_losses,
        final_thetas=theta,
        epochs=epochs,
        counts=dict(Counter(labels)),
        clusters=loss_clusters(final_losses[~diverged]),
    )


# ---------------------------------------------------------------------------
# random masked nets
# ---------------------------------------------------------------------------

def _draw_mask(rng, shape, sparsity: float) -> np.ndarray:
    """One (p, d) Bernoulli mask from rng with zero-probability `sparsity` per
    entry, then one entry drawn from rng for each all-zero row, then for each
    all-zero column, so that every row and column is nonzero."""
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    mask = rng.random(shape) >= sparsity
    for i in np.flatnonzero(~mask.any(axis=1)):
        mask[i, rng.integers(mask.shape[1])] = True
    for j in np.flatnonzero(~mask.any(axis=0)):
        mask[rng.integers(mask.shape[0]), j] = True
    return mask


def random_sparse_mask(shape, sparsity: float, seed: int) -> np.ndarray:
    """_draw_mask's (p, d) mask, drawn from the mask stream of seed."""
    return _draw_mask(stream(seed, "mask"), shape, sparsity)


def random_effective_net(dims, sparsity: float, seed: int = 0,
                         activation: Activation = Activation("linear"),
                         init_scale: float = 1.0):
    """Random masked net over the dim chain, its layers' masks drawn in order
    from one mask stream with every row and column repaired to be nonzero,
    which keeps the net effective (the reduction finds nothing to strip).

    dims = (d_x, p_1, ..., d_y).
    """
    dims = [int(d) for d in dims]
    if len(dims) < 3:
        raise ValueError("need at least input, one hidden and output dims")
    rng = stream(seed, "mask")
    masks = [_draw_mask(rng, (n_out, n_in), sparsity) for n_in, n_out in zip(dims, dims[1:])]
    blank = SparseNet(tuple(SparseLayer(np.zeros(m.shape), m) for m in masks), activation)
    return init_net(blank, init_scale, seed, "weights")
