import csv
import dataclasses
import hashlib
import io
import itertools
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseland import (
    Activation,
    SparseLayer,
    SparseNet,
    TrainConfig,
    effective_subnetwork,
    gd_train,
    gen_synthetic,
    grad_net,
    init_net,
    loss,
    loss_clusters,
    random_effective_net,
    random_sparse_mask,
    run_trials,
    valley_instance,
)
from sparseland.counterexamples import EXPERIMENT_Y
from sparseland.trainer import STREAMS, stream

from fd_oracle import grad_fd
from stop_oracle import reference_descend


def small_net(seed=0, act=None, biases=True):
    r = np.random.default_rng(seed)
    m1 = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=bool)
    m2 = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=bool)
    W = r.standard_normal((4, 3)) * m1
    U = r.standard_normal((2, 4)) * m2
    if biases:
        layers = (SparseLayer(W, m1, r.standard_normal(4)),
                  SparseLayer(U, m2, r.standard_normal(2)))
    else:
        layers = (SparseLayer(W, m1), SparseLayer(U, m2))
    return SparseNet(layers, act or Activation("tanh"))


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def test_gen_synthetic_norm_and_determinism():
    X, Y = gen_synthetic(50, 7, 3, seed=11, a_norm=5.0)
    # A read back from the noiseless data by least squares
    _, Y0 = gen_synthetic(50, 7, 3, seed=11, a_norm=5.0, noise=0.0)
    A = np.linalg.lstsq(X.T, Y0.T, rcond=None)[0].T
    assert np.linalg.norm(A) == pytest.approx(5.0, abs=1e-12)
    assert X.shape == (7, 50) and Y.shape == (3, 50)
    X2, Y2 = gen_synthetic(50, 7, 3, seed=11, a_norm=5.0)
    assert np.array_equal(X, X2) and np.array_equal(Y, Y2)
    X3, _ = gen_synthetic(50, 7, 3, seed=12, a_norm=5.0)
    assert not np.array_equal(X, X3)


def test_gen_synthetic_noiseless_and_identity():
    X, Y = gen_synthetic(20, 4, 2, seed=3, noise=0.0)
    A = stream(3, "target").standard_normal((2, 4))  # A redrawn from its stream
    A *= 5.0 / np.linalg.norm(A)
    assert np.array_equal(Y, A @ X)
    X, Y = gen_synthetic(20, 4, 2, seed=3, noise=0.0, target="identity")
    assert np.array_equal(Y, X[:2])
    with pytest.raises(ValueError, match="target"):
        gen_synthetic(10, 2, 1, target="laplace")


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("act", [Activation("tanh"), Activation("sigmoid"),
                                 Activation("softplus")], ids=lambda a: a.kind)
def test_grad_net_matches_fd(act):
    net = small_net(seed=1, act=act)
    r = np.random.default_rng(2)
    X, Y = r.standard_normal((3, 12)), r.standard_normal((2, 12))
    grad, value = grad_net(net, X, Y)
    w_grads, b_grads = zip(*net.views(grad))
    assert value == pytest.approx(loss(net, X, Y), rel=1e-14)
    fd = grad_fd(net, X, Y)
    for k, (fw, fb) in enumerate(fd):
        assert np.allclose(w_grads[k], fw, rtol=1e-6, atol=1e-7), k
        assert np.allclose(b_grads[k], fb, rtol=1e-6, atol=1e-7), k
        # masked coordinates carry exactly zero gradient
        assert np.all(w_grads[k][~net.layers[k].mask] == 0.0)


def test_grad_net_no_bias():
    net = small_net(seed=4, biases=False)
    r = np.random.default_rng(5)
    X, Y = r.standard_normal((3, 6)), r.standard_normal((2, 6))
    grad, _ = grad_net(net, X, Y)
    assert grad.shape == (12 + 8,)
    _, b_grads = zip(*net.views(grad))
    assert b_grads == (None, None)


def reference_backprop(net, X, Y):
    """Textbook backprop with separate act(z) and act.derivative(z) calls."""
    act = net.activation
    hs, pres = [X], []
    for k, layer in enumerate(net.layers):
        pre = layer.weights @ hs[-1]
        if layer.bias is not None:
            pre = pre + layer.bias[:, None]
        pres.append(pre)
        hs.append(pre if k == len(net.layers) - 1 else act(pre))
    resid = hs[-1] - Y
    w_grads, b_grads, G = [], [], resid
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        w_grads.insert(0, (G @ hs[k].T) * layer.mask)
        b_grads.insert(0, None if layer.bias is None else G.sum(axis=1) * layer.bias_mask)
        if k > 0:
            G = (layer.weights.T @ G) * act.derivative(pres[k - 1])
    return w_grads, b_grads, 0.5 * float(np.sum(resid * resid))


@pytest.mark.parametrize("act", [Activation("tanh"), Activation("sigmoid"),
                                 Activation("relu"), Activation("softplus")],
                         ids=lambda a: a.kind)
def test_grad_net_equals_reference_backprop_bitwise(act):
    r = np.random.default_rng(6)
    dims = (3, 5, 4, 2)
    layers = []
    for n_in, n_out in zip(dims, dims[1:]):
        mask = r.random((n_out, n_in)) < 0.7
        bias_mask = r.random(n_out) < 0.7
        layers.append(SparseLayer(r.standard_normal((n_out, n_in)) * mask, mask,
                                  r.standard_normal(n_out) * bias_mask, bias_mask))
    net = SparseNet(tuple(layers), act)
    X, Y = r.standard_normal((3, 9)), r.standard_normal((2, 9))
    grad, value = grad_net(net, X, Y)
    ref_w, ref_b, ref_value = reference_backprop(net, X, Y)
    assert value == ref_value
    for (got_w, got_b), want_w, want_b in zip(net.views(grad), ref_w, ref_b):
        assert got_w.tobytes() == want_w.tobytes()
        assert got_b.tobytes() == want_b.tobytes()


def random_linear_net(r, dims, biases):
    """A masked linear net over dims; biases: None (no layer has one), "some"
    (each layer has one with probability 1/2, under a random bias mask) or
    "all" (every layer has one, with no bias mask)."""
    layers = []
    for n_in, n_out in zip(dims, dims[1:]):
        mask = r.random((n_out, n_in)) < 0.7
        W = r.standard_normal((n_out, n_in)) * mask / math.sqrt(n_in)
        if biases == "all":
            layers.append(SparseLayer(W, mask, r.standard_normal(n_out)))
        elif biases == "some" and r.random() < 0.5:
            bias_mask = r.random(n_out) < 0.7
            layers.append(SparseLayer(W, mask, r.standard_normal(n_out) * bias_mask, bias_mask))
        else:
            layers.append(SparseLayer(W, mask))
    return SparseNet(tuple(layers), Activation("linear"))


# Rounding error of the chain form and of backprop: each computes a gradient
# entry as a sum over products of at most 6 factors with inner dimensions up
# to 40, so each is within about (6 + 40) * 2**-53 ~ 5e-15 of the exact value,
# relative to the same sum taken in absolute values.  That sum may exceed the
# largest gradient entry by cancellation, so the bound allows a factor 100:
# 1e-12 of each layer's largest entry (and of the loss).  Fixed from float64
# before any comparison was run.
CHAIN_RTOL = 1e-12


@pytest.mark.parametrize("biases", [None, "some", "all"])
def test_linear_grad_net_matches_reference_backprop(biases):
    # the chain form against the textbook route: depths 2-5, on 40 samples
    # and on 1-3
    r = np.random.default_rng({None: 30, "some": 31, "all": 32}[biases])
    for trial in range(40):
        depth = 2 + trial % 4
        dims = tuple(int(d) for d in r.integers(1, 9, size=depth + 1))
        n = 40 if trial % 2 else int(r.integers(1, 4))
        net = random_linear_net(r, dims, biases)
        X, Y = r.standard_normal((dims[0], n)), r.standard_normal((dims[-1], n))
        grad, value = grad_net(net, X, Y)
        w_grads, b_grads = zip(*net.views(grad))
        ref_w, ref_b, ref_value = reference_backprop(net, X, Y)
        assert abs(value - ref_value) <= CHAIN_RTOL * max(1.0, ref_value)
        for k, layer in enumerate(net.layers):
            scale = max(np.max(np.abs(ref_w[k])), 1e-300)
            assert np.max(np.abs(w_grads[k] - ref_w[k])) <= CHAIN_RTOL * scale, (trial, k)
            # masked coordinates carry exactly zero gradient
            assert np.all(w_grads[k][~layer.mask] == 0.0)
            if layer.bias is None:
                assert b_grads[k] is None and ref_b[k] is None
            else:
                scale = max(np.max(np.abs(ref_b[k])), 1e-300)
                assert np.max(np.abs(b_grads[k] - ref_b[k])) <= CHAIN_RTOL * scale, (trial, k)
                assert np.all(b_grads[k][~layer.bias_mask] == 0.0)


@pytest.mark.parametrize("dims,biases", [((3, 5, 2), None), ((2, 4, 3, 2), "all"),
                                         ((3, 4, 4, 3, 2, 1), "some")])
def test_linear_chain_form_matches_fd(dims, biases):
    r = np.random.default_rng(len(dims))
    net = random_linear_net(r, dims, biases)
    X, Y = r.standard_normal((dims[0], 30)), r.standard_normal((dims[-1], 30))
    grad, value = grad_net(net, X, Y)
    w_grads, b_grads = zip(*net.views(grad))
    assert value == pytest.approx(loss(net, X, Y), rel=1e-14)
    for k, (fw, fb) in enumerate(grad_fd(net, X, Y)):
        assert np.allclose(w_grads[k], fw, rtol=1e-6, atol=1e-7), k
        if fb is not None:
            assert np.allclose(b_grads[k], fb, rtol=1e-6, atol=1e-7), k


@pytest.mark.parametrize("act", ["linear", "tanh"])  # the chain form and backprop
def test_grad_net_checks_data_shapes(act):
    net = random_effective_net((3, 4, 2), 0.0, seed=1, activation=Activation(act))
    X, Y = gen_synthetic(10, 3, 1)
    with pytest.raises(ValueError, match=re.escape("Y shape (1, 10) != output shape (2, 10)")):
        grad_net(net, X, Y)
    with pytest.raises(ValueError, match=re.escape("Y shape (1, 10) != output shape (2, 10)")):
        gd_train(net, X, Y, TrainConfig(max_epochs=50))
    with pytest.raises(ValueError, match=re.escape("X must be (3, n)")):
        grad_net(net, np.zeros((4, 10)), np.zeros((2, 10)))
    with pytest.raises(ValueError, match=re.escape("X must be (3, n)")):
        gd_train(net, np.zeros(3), np.zeros((2, 1)), TrainConfig(max_epochs=50))


def test_gd_train_takes_one_tanh_pass_per_hidden_layer(monkeypatch):
    # 10 epochs evaluate grad_net 11 times; each of the 2 hidden layers needs
    # one tanh pass for both sigma and sigma'
    calls = []
    tanh = np.tanh

    def counting_tanh(z, *args, **kwargs):
        calls.append(np.shape(z))
        return tanh(z, *args, **kwargs)

    net = random_effective_net((3, 6, 6, 2), sparsity=0.0, seed=1,
                               activation=Activation("tanh"))
    X, Y = gen_synthetic(8, 3, 2, seed=2)
    monkeypatch.setattr(np, "tanh", counting_tanh)
    trace = gd_train(net, X, Y, TrainConfig(max_epochs=10))
    assert trace.epochs == 10
    assert len(calls) == 22


# ---------------------------------------------------------------------------
# gd_train
# ---------------------------------------------------------------------------

def test_train_linear_reaches_optimum():
    X, Y = gen_synthetic(30, 5, 2, seed=7, noise=0.5)
    net = random_effective_net((5, 8, 2), sparsity=0.0, seed=1)
    cfg = TrainConfig(learning_rate=0.005, max_epochs=20000, grad_tol=1e-10)
    trace = gd_train(net, X, Y, cfg)
    # dense linear net: the optimum is ordinary least squares
    A_star, *_ = np.linalg.lstsq(X.T, Y.T, rcond=None)
    best = 0.5 * np.sum((A_star.T @ X - Y) ** 2)
    assert trace.final_loss - best < 1e-6
    assert trace.monotone_violation <= 1e-12  # ulp wobble once at the floor
    assert trace.stop_reason in ("converged_grad", "plateau")
    assert trace.epochs == len(trace.losses) - 1


def test_train_keeps_masked_weights_zero():
    X, Y = gen_synthetic(25, 3, 2, seed=0)
    net = small_net(seed=3)
    trace = gd_train(net, X, Y, TrainConfig(max_epochs=300))
    for layer in trace.net.layers:
        assert np.all(layer.weights[~layer.mask] == 0.0)


def test_train_deterministic():
    X, Y = gen_synthetic(20, 3, 2, seed=5)
    net = small_net(seed=6)
    cfg = TrainConfig(max_epochs=200)
    t1 = gd_train(net, X, Y, cfg)
    t2 = gd_train(net, X, Y, cfg)
    assert np.array_equal(t1.losses, t2.losses)
    for a, b in zip(t1.net.layers, t2.net.layers):
        assert np.array_equal(a.weights, b.weights)


def test_train_divergence_recorded():
    X, Y = gen_synthetic(20, 3, 2, seed=5)
    net = small_net(seed=6, act=Activation("linear"))
    trace = gd_train(net, X, Y, TrainConfig(learning_rate=10.0, max_epochs=500))
    assert trace.stop_reason == "diverged"
    assert not math.isfinite(trace.final_loss) or trace.final_loss > 1e6


def test_backtracking_prevents_divergence():
    X, Y = gen_synthetic(20, 3, 2, seed=5)
    net = small_net(seed=6, act=Activation("linear"))
    cfg = TrainConfig(learning_rate=10.0, max_epochs=400, backtrack=True)
    trace = gd_train(net, X, Y, cfg)
    assert not trace.diverged
    assert trace.monotone_violation == 0.0


def test_train_plateau_stop_epoch():
    # all-zero linear weights have zero gradient, so the loss never moves;
    # the plateau test first fires at plateau_window + 1, as in run_trials
    zero = SparseNet((SparseLayer(np.zeros((4, 3)), np.ones((4, 3))),
                      SparseLayer(np.zeros((2, 4)), np.ones((2, 4)))), Activation("linear"))
    X, Y = gen_synthetic(10, 3, 2, seed=1)
    cfg = TrainConfig(max_epochs=100, grad_tol=0.0, plateau_window=5)
    trace = gd_train(zero, X, Y, cfg)
    assert trace.stop_reason == "plateau"
    assert trace.epochs == 6


def test_init_net_bounds_and_kept_weights():
    # gd_train starts from the weights it is given
    net = small_net(seed=8)
    X, Y = gen_synthetic(10, 3, 2, seed=1)
    kept = gd_train(net, X, Y, TrainConfig(max_epochs=0))
    assert kept.losses[0] == pytest.approx(loss(net, X, Y), rel=1e-14)
    for got, want in zip(kept.net.layers, net.layers):
        assert np.array_equal(got.weights, want.weights)
        assert np.array_equal(got.bias, want.bias)

    fresh = init_net(net, 0.1, 0)
    for layer, old in zip(fresh.layers, net.layers):
        bound = 0.1 / math.sqrt(layer.n_in)
        assert 0.0 < np.max(np.abs(layer.weights)) <= bound
        assert 0.0 < np.max(np.abs(layer.bias)) <= bound
        assert np.all(layer.weights[~layer.mask] == 0.0)
        assert np.array_equal(layer.mask, old.mask)
    again = init_net(net, 0.1, 0)
    assert all(np.array_equal(a.weights, b.weights) for a, b in zip(fresh.layers, again.layers))


def biased_elu_net():
    """A 3-5-4-2 elu net with a bias on every layer, each under a mixed bias mask."""
    r = np.random.default_rng(14)
    dims = (3, 5, 4, 2)
    layers = []
    for n_in, n_out in zip(dims, dims[1:]):
        mask = r.random((n_out, n_in)) < 0.7
        bias_mask = r.random(n_out) < 0.6
        layers.append(SparseLayer(r.standard_normal((n_out, n_in)) * mask / math.sqrt(n_in), mask,
                                  r.standard_normal(n_out) * bias_mask, bias_mask))
    return SparseNet(tuple(layers), Activation("elu", alpha=0.7))


# SHA-256 of the losses, final weights and biases, stop reason and ranks of
# gd_train on a biased elu net (backtracking, max_epochs) and on a linear
# random_effective_net (plateau), pinned so that a rewrite of the parameter
# handling of gd_train cannot move training rounding silently
TRAIN_DIGEST = "0a254e97c440e9d67eb151a1005641cbba6e4eca7d992121383b9711eb21f970"


def test_gd_train_results_are_pinned():
    runs = [
        (biased_elu_net(), gen_synthetic(30, 3, 2, seed=4),
         TrainConfig(learning_rate=0.5, max_epochs=300, backtrack=True), 40),
        (random_effective_net((4, 7, 6, 3), 0.3, seed=2), gen_synthetic(25, 4, 3, seed=6),
         TrainConfig(learning_rate=0.002, max_epochs=3000, grad_tol=1e-6), 250),
    ]
    h = hashlib.sha256()
    stops = []
    for net, (X, Y), config, rank_every in runs:
        trace = gd_train(net, X, Y, config, rank_every)
        stops.append((trace.epochs, trace.stop_reason))
        h.update(np.asarray(trace.losses, dtype="<f8").tobytes())
        for layer in trace.net.layers:
            h.update(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
            if layer.bias is not None:
                h.update(np.asarray(layer.bias, dtype="<f8").tobytes())
        h.update(trace.stop_reason.encode())
        h.update(repr(trace.ranks).encode())
    assert stops == [(300, "max_epochs"), (1992, "plateau")]
    assert h.hexdigest() == TRAIN_DIGEST


def test_trace_csv_rank_columns():
    X, Y = gen_synthetic(15, 3, 2, seed=2)
    net = small_net(seed=1)
    trace = gd_train(net, X, Y, TrainConfig(max_epochs=6, grad_tol=0.0, plateau_window=10**6),
                     rank_every=2)
    rows = list(csv.reader(io.StringIO(trace.to_csv())))
    assert rows[0] == ["epoch", "loss", "rank_layer_1", "rank_layer_2"]
    assert len(rows) == trace.epochs + 2
    by_epoch = {int(r[0]): r for r in rows[1:]}
    for e, ranks in trace.ranks:
        assert by_epoch[e][2:] == [str(v) for v in ranks]
    assert {e for e, _ in trace.ranks} == {0, 2, 4, 6}
    # unsampled epochs leave the rank cells empty
    assert by_epoch[1][2:] == ["", ""]
    assert float(by_epoch[3][1]) == trace.losses[3]


# ---------------------------------------------------------------------------
# batched trials
# ---------------------------------------------------------------------------

def quadratic_objective(dim=3):
    target = np.arange(1.0, dim + 1)

    def lf(th):
        d = th - target
        out = np.sum(d * d, axis=-1)
        return out if out.ndim else float(out)

    return types.SimpleNamespace(
        loss=lf,
        grad=lambda th: 2 * (th - target),
        init_bounds=np.ones(dim),
        classify=lambda lv, th: "near" if lv < 1e-6 else "far",
    )


def test_run_trials_without_coordinates_converge_at_once():
    # an empty gradient has norm 0, and there is no witness column to read
    stats = run_trials(quadratic_objective(dim=0), 3, TrainConfig(max_epochs=5))
    assert stats.epochs.tolist() == [0, 0, 0]
    assert stats.labels == ("near",) * 3


def test_run_trials_quadratic_all_converge():
    stats = run_trials(quadratic_objective(), 6,
                       TrainConfig(learning_rate=0.1, max_epochs=2000))
    assert stats.labels == ("near",) * 6
    assert stats.fraction("near") == 1.0
    assert len(stats.clusters) == 1
    assert stats.clusters[0][1] == 6


@pytest.mark.parametrize("n_trials", [0, -1])
def test_run_trials_rejects_fewer_than_one_trial(monkeypatch, n_trials):
    def no_draws(*args, **kwargs):
        raise AssertionError("run_trials drew a start before checking n_trials")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=f"n_trials must be at least 1, got {n_trials}"):
        run_trials(quadratic_objective(), n_trials)


def test_run_trials_single_equals_batched():
    obj = valley_instance(EXPERIMENT_Y)
    cfg = TrainConfig(learning_rate=0.01, max_epochs=300)
    batch = run_trials(obj, 4, cfg, seed=40)
    for t in range(4):
        solo = run_trials(obj, 1, cfg, seed=40 + t)
        assert solo.final_losses[0] == batch.final_losses[t]      # bitwise
        assert np.array_equal(solo.final_thetas[0], batch.final_thetas[t])
        assert solo.epochs[0] == batch.epochs[t]
        assert solo.labels[0] == batch.labels[t]


def test_run_trials_divergence_label():
    stats = run_trials(quadratic_objective(), 3,
                       TrainConfig(learning_rate=5.0, max_epochs=200), seed=1)
    assert set(stats.labels) == {"diverged"}
    assert stats.clusters == ()  # diverged trials excluded from clustering


def test_run_trials_backtracking():
    # the same learning rate that diverges above converges once each
    # trial halves its own step until the loss falls
    stats = run_trials(quadratic_objective(), 3,
                       TrainConfig(learning_rate=5.0, max_epochs=200, backtrack=True), seed=1)
    assert stats.labels == ("near",) * 3


def test_run_trials_backtrack_per_trial():
    # each trial halves its own step: a batch gives what the trials give alone
    obj = valley_instance(EXPERIMENT_Y)
    cfg = TrainConfig(learning_rate=2.0, max_epochs=300, backtrack=True)
    batch = run_trials(obj, 4, cfg, seed=7)
    for t in range(4):
        solo = run_trials(obj, 1, cfg, seed=7 + t)
        assert np.array_equal(solo.final_thetas[0], batch.final_thetas[t])
        assert solo.epochs[0] == batch.epochs[t]
    assert "diverged" not in batch.labels


@pytest.mark.parametrize("flat_from,window,max_epochs,stop", [
    (0, 5, 100, 6),       # constant loss: the plateau test first fires at window + 1
    (0, 1, 100, 2),
    (30, 4, 100, 34),     # loss falls by 1 per epoch until epoch 30, then is flat
    (50, 7, 100, 57),
    (0, 50, 20, 20),      # window longer than the run: max_epochs stops it
])
def test_run_trials_plateau_stop_epoch(flat_from, window, max_epochs, stop):
    # theta starts at 0 and each lr=1 step adds 1, so theta equals the epoch
    objective = types.SimpleNamespace(
        loss=lambda th: np.maximum(flat_from - th[..., 0], 0.0),
        grad=lambda th: -np.ones_like(th),
        init_bounds=np.zeros(1),
        classify=lambda lv, th: "flat",
    )
    config = TrainConfig(learning_rate=1.0, max_epochs=max_epochs, plateau_window=window)
    stats = run_trials(objective, 3, config)
    assert stats.epochs.tolist() == [stop] * 3
    assert stats.labels == ("flat",) * 3


def mixed_stop_objective(rows):
    """Rows (x, c, b) with loss c x^2 and gradient (2 c x + b, 0, 0).

    At lr 0.1: c = 1000 diverges, c = 2.5 converges by gradient, c = 0 with
    b = 1 sits on a flat loss, c = 1e-3 is still descending at epoch 60.
    """
    x0 = np.random.default_rng(5).uniform(0.5, 1.5, size=len(rows))
    theta = np.column_stack([x0, np.asarray(rows, dtype=float)])

    def value_and_grad(theta):
        x, c, b = theta.T
        grad = np.zeros_like(theta)
        grad[:, 0] = 2 * c * x + b
        return c * x * x, grad

    return value_and_grad, theta


MIXED_ROWS = [(1000, 0), (2.5, 0), (0, 1), (1e-3, 0), (2.5, 0), (1000, 0), (1e-3, 0), (0, 1)]
MIXED_CONFIG = TrainConfig(learning_rate=0.1, max_epochs=60, plateau_rel=0.0, plateau_window=5)


@pytest.mark.parametrize("max_epochs,reasons", [
    (60, ["diverged", "converged_grad", "plateau", "max_epochs",
          "converged_grad", "diverged", "max_epochs", "plateau"]),
    # a run whose test fires at the last epoch keeps that test's reason
    (6, ["diverged", "max_epochs", "plateau", "max_epochs",
         "max_epochs", "diverged", "max_epochs", "plateau"]),
])
def test_descend_batch_equals_each_run_alone(max_epochs, reasons):
    from sparseland.trainer import _descend

    config = dataclasses.replace(MIXED_CONFIG, max_epochs=max_epochs)
    value_and_grad, start = mixed_stop_objective(MIXED_ROWS)
    theta, values, stop_epoch, stop_reason = _descend(value_and_grad, start, config)
    assert list(stop_reason) == reasons
    for t in range(len(MIXED_ROWS)):
        solo, solo_values, solo_epoch, solo_reason = _descend(value_and_grad, start[t:t + 1],
                                                              config)
        assert solo.tobytes() == theta[t:t + 1].tobytes()
        assert solo_values.tobytes() == values[t:t + 1].tobytes()
        assert (solo_epoch[0], solo_reason[0]) == (stop_epoch[t], stop_reason[t])

    # the same runs held coordinate-major give the same bytes, epochs and reasons
    theta_f, values_f, epoch_f, reason_f = _descend(
        value_and_grad, np.asfortranarray(start), config)
    assert theta_f.flags.f_contiguous
    assert theta_f.tobytes(order="C") == theta.tobytes()
    assert values_f.tobytes() == values.tobytes()
    assert np.array_equal(epoch_f, stop_epoch)
    assert list(reason_f) == reasons


def coincident_stop_objective():
    """Rows (x, d): loss d / x^2 and gradient (x / 2, 0).

    At lr 1 each step halves x from 1, so at epoch k the gradient norm is
    2^-(k+1) and the loss is d 4^k: with d = 1 it first exceeds 1e12 times
    its start at epoch 20; with d = 0 it is flat.
    """
    def value_and_grad(theta):
        x, d = theta.T
        grad = np.zeros_like(theta)
        grad[:, 0] = 0.5 * x
        return d / (x * x), grad

    return value_and_grad, np.array([[1.0, 1.0], [1.0, 0.0]])


def test_descend_keeps_the_first_reason_of_a_coincident_stop():
    # at epoch 20 the gradient falls below grad_tol and the first plateau test
    # runs; the rising run also diverges.  Each keeps the earliest reason of
    # diverged, converged_grad, plateau.
    from sparseland.trainer import _descend

    value_and_grad, theta = coincident_stop_objective()
    config = TrainConfig(learning_rate=1.0, max_epochs=100, grad_tol=0.75 * 0.5 ** 20,
                         plateau_rel=0.0, plateau_window=19)
    _, _, stop_epoch, stop_reason = _descend(value_and_grad, theta, config)
    assert stop_epoch.tolist() == [20, 20]
    assert list(stop_reason) == ["diverged", "converged_grad"]


@pytest.mark.parametrize("order", ["C", "F"])
def test_descend_keeps_the_memory_order_of_params(order):
    from sparseland.trainer import _descend

    value_and_grad, theta = mixed_stop_objective(MIXED_ROWS)
    seen = []

    def recording(theta):
        seen.append(theta.flags[f"{order}_CONTIGUOUS"])
        return value_and_grad(theta)

    theta, _, stop_epoch, _ = _descend(recording, np.asarray(theta, order=order), MIXED_CONFIG)
    assert len(set(stop_epoch.tolist())) > 2  # the batch was compacted more than once
    assert all(seen)
    assert theta.flags[f"{order}_CONTIGUOUS"]


def test_descend_grad_norms_do_not_depend_on_memory_order():
    # a row sum in another order can move the last bit of a norm, and with
    # it a converged_grad stop; coordinate-major valley gradients are summed
    # as row-major ones
    from sparseland.trainer import _grad_norms

    inst = valley_instance(EXPERIMENT_Y)
    theta = np.random.default_rng(2).uniform(-2, 2, size=(200, 8))
    grads = inst.grad(np.asfortranarray(theta))
    assert grads.flags.f_contiguous
    by_rows = np.sqrt(np.square(np.ascontiguousarray(grads)).sum(axis=1))
    assert _grad_norms(grads).tobytes() == by_rows.tobytes()
    assert _grad_norms(np.ascontiguousarray(grads)).tobytes() == by_rows.tobytes()


def counting_valley_objective(inst, calls):
    """The valley instance as a trial objective, recording each theta its loss
    and grad see."""
    def count(kind, fn):
        def wrapped(theta):
            calls.append((kind, theta))
            return fn(theta)
        return wrapped

    return types.SimpleNamespace(loss=count("loss", inst.loss), grad=count("grad", inst.grad),
                                 init_bounds=inst.init_bounds, classify=inst.classify)


# trials stop at epochs from 19 to 400, so run_trials compacts its batch
STAGGERED = TrainConfig(learning_rate=0.05, max_epochs=400, plateau_window=10, plateau_rel=1e-4)


def test_run_trials_holds_thetas_coordinate_major():
    calls = []
    stats = run_trials(counting_valley_objective(valley_instance(EXPERIMENT_Y), calls),
                       12, STAGGERED, seed=3)
    sizes = [len(theta) for _, theta in calls]
    assert len(set(sizes)) > 2 and min(sizes) < 12
    for _, theta in calls:
        assert all(theta[:, i].flags.c_contiguous for i in range(theta.shape[1]))
    assert stats.final_thetas.flags.f_contiguous


def test_run_trials_calls_the_objective_once_per_epoch():
    # one loss and one grad call before the loop and after each step, as the
    # trials-batch trace of the benchmark requires
    calls = []
    stats = run_trials(counting_valley_objective(valley_instance(EXPERIMENT_Y), calls),
                       12, STAGGERED, seed=3)
    loop = int(stats.epochs.max())
    kinds = [kind for kind, _ in calls]
    assert (kinds.count("loss"), kinds.count("grad")) == (loop + 1, loop + 1)


# SHA-256 of the final thetas, losses, epochs and labels of
# run_trials(valley_instance(EXPERIMENT_Y), 12, STAGGERED, seed=3),
# pinned so that a rewrite of the objective or the loop cannot move trial
# rounding (and with it the digests replay compares) silently
TRIALS_DIGEST = "a2a13262292d5312246284efad05b4112fc7a0e1351b6519760ac54877e7e4ba"


def test_run_trials_results_are_pinned():
    stats = run_trials(valley_instance(EXPERIMENT_Y), 12, STAGGERED, seed=3)
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(stats.final_thetas, dtype="<f8").tobytes())
    h.update(np.asarray(stats.final_losses, dtype="<f8").tobytes())
    h.update(np.asarray(stats.epochs, dtype="<i8").tobytes())
    h.update("\n".join(stats.labels).encode())
    assert h.hexdigest() == TRIALS_DIGEST, (stats.epochs.tolist(), stats.labels)


def test_descend_evaluates_only_moving_runs():
    # a run that stops at epoch e is evaluated at its start and after each of
    # its e steps; stopped runs are not carried to the end of the batch
    from sparseland.trainer import _descend

    value_and_grad, theta = mixed_stop_objective(MIXED_ROWS)
    rows = []

    def recording(theta):
        rows.append(len(theta))
        return value_and_grad(theta)

    _, _, stop_epoch, _ = _descend(recording, theta, MIXED_CONFIG)
    assert sum(rows) == len(MIXED_ROWS) + stop_epoch.sum()
    assert len(rows) == stop_epoch.max() + 1


def scripted_objective(grads, values):
    """Runs with a scripted gradient and loss: at call e, run i has gradient
    grads[e % len(grads), i] in its coordinates 1.. and loss
    (100 - e) * values[e % len(values), i].  Coordinate 0 has gradient 0 and
    holds i, so each row keeps its script when the batch shrinks."""
    calls = []

    def value_and_grad(theta):
        run, e = theta[:, 0].astype(int), len(calls)
        calls.append(e)
        g = np.zeros_like(theta)
        g[:, 1:] = grads[e % len(grads)][run]
        return (100.0 - e) * values[e % len(values)][run], g

    return value_and_grad


@st.composite
def gradient_scripts(draw):
    # grad_tol in [1e-300, 1], half of the draws log-uniform, so that about a
    # quarter of them fall below 2**-511, where squares of entries near it underflow
    tol = draw(st.one_of(st.floats(min_value=1e-300, max_value=1.0),
                         st.floats(min_value=-300, max_value=0).map(lambda e: 10.0 ** e)))
    dim, n_runs, n_calls = (draw(st.integers(1, k)) for k in (4, 5, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # entries at and around tol, signed zeros, non-finite values, entries whose
    # squares sum to about tol**2, and uniform draws from [0, 2 tol)
    near = np.array([tol, np.nextafter(tol, 0), np.nextafter(tol, np.inf), tol / 2, 2 * tol,
                     tol / math.sqrt(dim), np.nextafter(tol / math.sqrt(dim), np.inf),
                     0.0, np.nan, np.inf])
    shape = (n_calls, n_runs, dim)
    pick = rng.integers(0, len(near) + 2, size=shape)
    grads = np.where(pick < len(near), near[np.minimum(pick, len(near) - 1)],
                     rng.uniform(0, 2 * tol, size=shape)) * rng.choice([-1.0, 1.0], size=shape)
    values = rng.choice([1.0, 1.0, 1.0, np.nan, np.inf], size=(n_calls, n_runs))
    config = TrainConfig(learning_rate=draw(st.sampled_from([0.5, 1.0])),
                         max_epochs=draw(st.integers(0, 6)), grad_tol=tol,
                         plateau_rel=0.0, plateau_window=2)
    return grads, values, config


@settings(max_examples=150, deadline=None)
@given(gradient_scripts())
def test_descend_grad_screen_is_exact(script):
    # _descend computes gradient norms only when some run's entry in its
    # witness column is below grad_tol, or when there is no witness; the
    # reference computes every norm at every epoch, and both must stop each
    # run alike
    from sparseland.trainer import _descend

    grads, values, config = script
    n_runs, dim = grads.shape[1:]
    theta = np.column_stack([np.arange(n_runs, dtype=float), np.ones((n_runs, dim))])
    with np.errstate(invalid="ignore", over="ignore"):
        screened = _descend(scripted_objective(grads, values), theta, config)
        exact = reference_descend(scripted_objective(grads, values), theta, config)
    assert screened[2].tolist() == exact[2].tolist()
    assert list(screened[3]) == list(exact[3])
    assert screened[1].tobytes() == exact[1].tobytes()
    assert screened[0].tobytes() == exact[0].tobytes()


# Scripts for scripted_objective at grad_tol 1e-3: one string per epoch, one
# word per run, one letter per scripted coordinate: B (1.0, above grad_tol),
# s (1e-4, below), m (6e-4, below, though four of them have a norm above) or
# n (NaN).  Coordinate 0's gradient is 0, so epoch 0, and the first epoch
# after runs leave a batch that had no witness column, always compute the
# norms and pick the column anew.  So does an epoch where some run's witness
# entry is below; a pick that finds no column at least grad_tol in every run
# leaves no witness, and every later epoch computes the norms until runs
# leave.  Each case gives the (stop epoch, reason) of each run and how many
# epochs compute the norms.
COLUMN_SCREEN_CASES = {
    # run 0's witness entry drops below grad_tol at epoch 1: the norms are
    # computed, the column moves to coordinate 2, and nothing stops; at epoch 3
    # every entry of run 0 is below, its witness entry too, and epoch 4 picks
    # the column on run 1 alone
    "witness-entry-drops": (["BBB BBB", "sBB BBB", "sBB BBB", "sss BBB", "BBB BBB", "BBB BBB"],
                            [(3, "converged_grad"), (5, "max_epochs")], 4),
    "runs-converge": (["BBB BBB BBB", "sss BBB BBB", "BBB BBB BBB", "BBB BBB sss",
                       "BBB BBB BBB", "BBB BBB BBB"],
                      [(1, "converged_grad"), (5, "max_epochs"), (3, "converged_grad")], 5),
    # a NaN in the witness column reads as not below; the column is picked
    # skipping NaN (epoch 2 picks coordinate 3), and a column of NaN alone is
    # picked first (epoch 4), which leaves run 1's NaN norm unconverged
    "nan-in-column": (["BBB BBB", "nss BBB", "nsB sBB", "sss BBB", "BBB sBn", "BBB ssn"],
                      [(3, "converged_grad"), (5, "max_epochs")], 4),
    # run 0 leaves the batch at epoch 1, and the column is picked on the two
    # runs left at epoch 2, and again at epoch 3 when run 1's entry drops
    "compacts-between-picks": (["BBB BBB BBB", "sss BBB BBB", "BBB BBB BBB", "BBB sBB BBB",
                                "BBB sss BBB", "BBB BBB BBB"],
                               [(1, "converged_grad"), (4, "converged_grad"), (5, "max_epochs")],
                               6),
    # each column holds an entry below grad_tol at epoch 0, so there is no
    # witness and epochs 1 and 2 compute the norms, which stops run 0 at
    # epoch 2; once it has left, epoch 3 picks coordinate 1 and the witness
    # holds from then on
    "no-witness-column": (["sBB BsB BBs", "sBB BsB BBs", "sss BsB BBs", "BBB BBB BBB",
                           "BBB BBB BBB", "BBB BBB BBB"],
                          [(2, "converged_grad"), (5, "max_epochs"), (5, "max_epochs")], 4),
    # a lone run with every entry below grad_tol and its norm above: epoch 1
    # finds no witness, and epochs 1-5 compute its norm
    "one-run-below-entrywise": (["BBBB", "mmmm", "mmmm", "mmmm", "mmmm", "ssss"],
                                [(5, "converged_grad")], 6),
    # the same in a batch: norms at epochs 1-3, until run 0 leaves; epoch 4
    # picks a witness for run 1
    "batch-below-entrywise": (["BBBB BBBB", "mmmm BBBB", "mmmm BBBB", "ssss BBBB", "BBBB BBBB",
                               "BBBB BBBB"], [(3, "converged_grad"), (5, "max_epochs")], 5),
}


@pytest.mark.parametrize("case", COLUMN_SCREEN_CASES.values(), ids=COLUMN_SCREEN_CASES.keys())
def test_descend_witness_column_screen_is_exact(case, monkeypatch):
    from sparseland import trainer

    script, stops, norm_calls = case
    letters = {"B": 1.0, "s": 1e-4, "m": 6e-4, "n": np.nan}
    grads = np.array([[[letters[c] for c in word] for word in line.split()] for line in script])
    n_calls, n_runs, dim = grads.shape
    values = np.ones((n_calls, n_runs))
    config = TrainConfig(learning_rate=1.0, max_epochs=n_calls - 1, grad_tol=1e-3,
                         plateau_rel=0.0, plateau_window=2)
    theta = np.column_stack([np.arange(n_runs, dtype=float), np.ones((n_runs, dim))])
    exact = reference_descend(scripted_objective(grads, values), theta, config)
    norms = []
    monkeypatch.setattr(trainer, "_grad_norms",
                        lambda g: norms.append(len(g)) or np.sqrt(np.square(g).sum(axis=1)))
    screened = trainer._descend(scripted_objective(grads, values), theta, config)
    assert list(zip(screened[2].tolist(), screened[3])) == stops
    assert len(norms) == norm_calls
    assert screened[2].tolist() == exact[2].tolist()
    assert list(screened[3]) == list(exact[3])
    assert screened[1].tobytes() == exact[1].tobytes()
    assert screened[0].tobytes() == exact[0].tobytes()


def valley_descent_batch():
    """(value_and_grad, theta) of 200 tanh valley trials from default_rng(4)."""
    obj = valley_instance(EXPERIMENT_Y)
    bounds = obj.init_bounds
    theta = np.random.default_rng(4).uniform(-bounds, bounds, size=(200, len(bounds)))

    def value_and_grad(theta):
        g = obj.grad(theta)  # grad first, as run_trials calls them
        return obj.loss(theta), g

    return value_and_grad, theta


def test_descend_witness_keeps_the_norms_rare(monkeypatch):
    # on the tanh valley batch the witness column holds at all but the first
    # epoch, so trials do not fall back to a norm pass every epoch
    from sparseland import trainer

    value_and_grad, theta = valley_descent_batch()
    norms, grad_norms = [], trainer._grad_norms
    monkeypatch.setattr(trainer, "_grad_norms", lambda g: norms.append(len(g)) or grad_norms(g))
    stop_epoch = trainer._descend(value_and_grad, theta, TrainConfig(max_epochs=3000))[2]
    assert stop_epoch.max() == 3000
    assert len(norms) <= 1


@pytest.mark.parametrize("batch", ["mixed", "valley"])
def test_descend_observer_changes_nothing(batch, monkeypatch):
    # observe sees each epoch's moving runs, and the norm passes and every
    # stop are those of the same descent without it
    from sparseland import trainer

    if batch == "mixed":
        value_and_grad, theta = mixed_stop_objective(MIXED_ROWS)
        config = MIXED_CONFIG
    else:
        value_and_grad, theta = valley_descent_batch()
        config = STAGGERED
    norms, grad_norms = [], trainer._grad_norms
    monkeypatch.setattr(trainer, "_grad_norms", lambda g: norms.append(len(g)) or grad_norms(g))
    plain = trainer._descend(value_and_grad, theta, config)
    plain_norms = norms.copy()
    norms.clear()
    seen = []
    observed = trainer._descend(value_and_grad, theta, config,
                                lambda epoch, theta, values: seen.append((epoch, len(theta))))
    assert norms == plain_norms
    stop_epoch = plain[2]
    assert seen == [(e, np.count_nonzero(stop_epoch >= e)) for e in range(stop_epoch.max() + 1)]
    assert observed[2].tolist() == stop_epoch.tolist()
    assert list(observed[3]) == list(plain[3])
    assert observed[1].tobytes() == plain[1].tobytes()
    assert observed[0].tobytes() == plain[0].tobytes()


def test_descend_diverged_is_a_loss_beyond_the_limit_in_magnitude():
    # the limit is DIVERGE_FACTOR times the start's magnitude, floored at 1 and
    # capped at the largest float; a NaN loss, or one beyond the limit on either
    # side, diverges
    from sparseland.trainer import DIVERGE_FACTOR, _descend

    inf, big = np.inf, np.finfo(float).max
    limit = DIVERGE_FACTOR * 2.0
    above = np.nextafter(limit, inf)
    cases = [  # (start loss, loss at epoch 1, stop epoch, reason)
        (2.0, np.nan, 1, "diverged"), (2.0, inf, 1, "diverged"), (2.0, -inf, 1, "diverged"),
        (2.0, limit, 2, "max_epochs"), (2.0, above, 1, "diverged"),
        (2.0, limit / 2, 2, "max_epochs"), (2.0, -limit, 2, "max_epochs"),
        (2.0, -above, 1, "diverged"),
        (inf, 1.0, 0, "diverged"), (1e300, inf, 1, "diverged"), (1e300, big, 2, "max_epochs"),
    ]
    script = np.array([[c[0] for c in cases], [c[1] for c in cases], [1.0] * len(cases)])

    calls = []

    def value_and_grad(theta):
        # coordinate 0 holds the run's index and does not move
        calls.append(None)
        grad = np.ones_like(theta)
        grad[:, 0] = 0.0
        return script[len(calls) - 1][theta[:, 0].astype(int)], grad

    theta = np.column_stack([np.arange(len(cases), dtype=float), np.zeros(len(cases))])
    config = TrainConfig(learning_rate=1.0, max_epochs=2, plateau_window=5)
    _, _, stop_epoch, stop_reason = _descend(value_and_grad, theta, config)
    assert list(zip(stop_epoch.tolist(), stop_reason)) == [c[2:] for c in cases]


def test_trial_stats_json():
    stats = run_trials(quadratic_objective(), 5,
                       TrainConfig(learning_rate=0.1, max_epochs=2000), seed=3)
    blob = stats.to_json()
    assert set(blob) == {"trials", "clusters", "counts", "fractions"}
    assert len(blob["trials"]) == 5
    assert {"label", "final_loss", "epochs"} == set(blob["trials"][0])
    assert blob["fractions"]["near"] == 1.0
    assert blob["clusters"][0]["size"] == 5


# ---------------------------------------------------------------------------
# loss clustering
# ---------------------------------------------------------------------------

def test_loss_clusters_frozen_cases():
    assert loss_clusters([]) == ()
    got = loss_clusters([2.0, 1.0, 1.0005])
    assert [s for _, s in got] == [2, 1]
    assert got[0][0] == pytest.approx(1.00025, rel=1e-12) and got[1][0] == 2.0
    # the relative tolerance floors at 1, merging tiny near-zero values
    assert loss_clusters([1e-4, 5e-4]) == ((pytest.approx(3e-4, rel=1e-12), 2),)
    got = loss_clusters([5.0, 5.004, 5.008, 7.0])
    assert [size for _, size in got] == [2, 1, 1]
    centers = [c for c, _ in got]
    assert centers == sorted(centers)
    assert all(isinstance(c, float) and not isinstance(c, np.floating) for c in centers)
    assert loss_clusters([1.0, float("nan"), float("inf"), 1.0]) == ((1.0, 2),)


# ---------------------------------------------------------------------------
# random masks and nets
# ---------------------------------------------------------------------------

def test_single_mask_draw():
    m = random_sparse_mask((6, 5), 0.0, seed=0)
    assert m.all()
    with pytest.raises(ValueError, match="sparsity"):
        random_sparse_mask((6, 5), 1.0, seed=0)
    m = random_sparse_mask((4, 4), 0.75, seed=0)
    assert m.any(axis=1).all() and m.any(axis=0).all()
    again = random_sparse_mask((4, 4), 0.75, seed=0)
    assert np.array_equal(m, again)


def test_repaired_mask_keeps_its_sparsity():
    m = random_sparse_mask((400, 400), 0.9, seed=0)
    assert m.any(axis=1).all() and m.any(axis=0).all()
    realized = 1.0 - np.count_nonzero(m) / m.size
    assert realized >= 0.9      # this fixed seed keeps the target after repair
    assert abs(realized - 0.9) < 0.01


def test_streams_are_distinct_per_purpose():
    seed = 4
    for a, b in itertools.combinations(STREAMS, 2):
        assert not np.any(stream(seed, a).random(8) == stream(seed, b).random(8)), (a, b)

    # the consumers: mask, net weights, a re-init and the data take their own streams
    net = random_effective_net((3, 4, 2), sparsity=0.0, seed=seed)
    bound = 1.0 / math.sqrt(3)
    draw = stream(seed, "weights").uniform(-bound, bound, size=(4, 3))
    assert np.array_equal(net.layers[0].weights, draw)
    redrawn = init_net(net, 1.0, seed)
    draw = stream(seed, "init").uniform(-bound, bound, size=(4, 3))
    assert np.array_equal(redrawn.layers[0].weights, draw)

    # masks and data keep the draws they had before the purpose keys
    mask = random_sparse_mask((30, 30), 0.3, seed=seed)
    assert np.array_equal(mask, np.random.default_rng(seed).random((30, 30)) >= 0.3)
    X, Y = gen_synthetic(9, 4, 2, seed=seed, noise=0.5)
    rng_x, rng_a, rng_e = (np.random.default_rng(s)
                           for s in np.random.SeedSequence(seed).spawn(3))
    X_drawn = rng_x.standard_normal((4, 9))
    A = rng_a.standard_normal((2, 4))
    A *= 5.0 / np.linalg.norm(A)
    assert np.array_equal(X, X_drawn)
    assert np.array_equal(Y, A @ X_drawn + 0.5 * rng_e.standard_normal((2, 9)))


def test_masked_entries_hold_positive_zero():
    # a product with a False mask entry leaves -0.0 under a negative value;
    # every producer writes +0.0, and prune reports the reduced net's weights
    def masked_signs(net):
        return [np.signbit(p[~m]).any() for layer in net.layers
                for p, m in ((layer.weights, layer.mask), (layer.bias, layer.bias_mask))
                if p is not None]

    net = biased_elu_net()
    assert not any(masked_signs(init_net(net, 1.0, 3)))
    assert not any(masked_signs(random_effective_net((5, 9, 9, 3), 0.5, seed=3)))
    # every weight and bias -1, and hidden neuron 2 feeds nothing, so the
    # reduction removes its three edges in and its bias
    feeds = np.array([[1, 1, 0], [1, 1, 0]], dtype=bool)
    negative = SparseNet((SparseLayer(-np.ones((3, 3)), np.ones((3, 3)), -np.ones(3)),
                          SparseLayer(np.where(feeds, -1.0, 0.0), feeds, -np.ones(2)),
                          SparseLayer(-np.ones((1, 2)), np.ones((1, 2)))), Activation("tanh"))
    reduced, report = effective_subnetwork(negative)
    assert report.removed_edges == ((0, 2, 0), (0, 2, 1), (0, 2, 2))
    assert report.removed_biases == ((0, 2),)
    assert not any(masked_signs(reduced))


def test_random_effective_net():
    net = random_effective_net((6, 10, 10, 2), sparsity=0.4, seed=12)
    assert net.dims == (6, 10, 10, 2)
    assert 0.2 < net.sparsity < 0.5
    assert net.activation.kind == "linear"
    for layer in net.layers:
        assert np.all(layer.weights[~layer.mask] == 0.0)
    # repaired masks leave nothing for the reduction to strip
    reduced, report = effective_subnetwork(net)
    assert report.removed_edges == ()
    assert report.is_effective
    net2 = random_effective_net((6, 10, 10, 2), sparsity=0.4, seed=12)
    for a, b in zip(net.layers, net2.layers):
        assert np.array_equal(a.weights, b.weights)
    with pytest.raises(ValueError):
        random_effective_net((6, 2), sparsity=0.1)
