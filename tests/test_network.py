import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseland import (
    Activation,
    SparseLayer,
    SparseNet,
    effective_subnetwork,
    forward,
    loss,
    net_from_json,
    net_to_json,
)

rng = np.random.default_rng(20240817)


def rand_net(mask_w, mask_u, act=None, biases=False, seed=0):
    r = np.random.default_rng(seed)
    mask_w = np.asarray(mask_w, dtype=bool)
    mask_u = np.asarray(mask_u, dtype=bool)
    W = r.standard_normal(mask_w.shape) * mask_w
    U = r.standard_normal(mask_u.shape) * mask_u
    kw = {}
    if biases:
        layers = (
            SparseLayer(W, mask_w, r.standard_normal(mask_w.shape[0])),
            SparseLayer(U, mask_u, r.standard_normal(mask_u.shape[0])),
        )
    else:
        layers = (SparseLayer(W, mask_w), SparseLayer(U, mask_u))
    return SparseNet(layers, act or Activation("tanh"))


# ---------------------------------------------------------------------------
# layer / net validation
# ---------------------------------------------------------------------------

def test_layer_rejects_nonzero_masked_entries():
    w = np.array([[1.0, 0.5], [0.0, 2.0]])
    mask = np.array([[1, 0], [0, 1]], dtype=bool)
    with pytest.raises(ValueError, match="masks pin exact zeros"):
        SparseLayer(w, mask)
    with pytest.raises(ValueError, match=r"mask shape \(2, 1\) != weight shape \(2, 2\)"):
        SparseLayer(w, mask[:, :1])
    with pytest.raises(ValueError, match="weights must be a 2-d array"):
        SparseLayer(w[0], mask[0])
    with pytest.raises(ValueError, match=re.escape("no empty axis, got shape (0, 2)")):
        SparseLayer(np.zeros((0, 2)), np.ones((0, 2)))


@pytest.mark.parametrize("dtype", [int, float, bool])
def test_layer_accepts_01_masks_of_any_dtype(dtype):
    given = np.array([[1, 0], [0, 1]], dtype=dtype)
    layer = SparseLayer(np.diag([1.0, 2.0]), given, bias=np.array([1.0, 0.0]),
                        bias_mask=np.array([1, 0], dtype=dtype))
    assert layer.mask.dtype == bool and layer.bias_mask.dtype == bool
    assert layer.mask.tolist() == [[True, False], [False, True]]
    assert layer.bias_mask.tolist() == [True, False]
    assert not layer.mask.flags.writeable
    assert given.flags.writeable  # the caller's array is copied, not frozen


@pytest.mark.parametrize("bad", [2, 0.5, np.nan, -1])
def test_layer_rejects_non_01_mask_entries(bad):
    with pytest.raises(ValueError, match="0/1"):
        SparseLayer(np.zeros((2, 2)), np.array([[1.0, bad], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="0/1"):
        SparseLayer(np.zeros((2, 2)), np.ones((2, 2)), bias=np.zeros(2),
                    bias_mask=np.array([1.0, bad]))


# exact zeros of both signs, ordinary values, subnormals and non-finite values
WEIGHT_POOL = [0.0, -0.0, 1.0, -2.5, 1e-300, 5e-324, -5e-324, np.nan, np.inf, -np.inf]


@st.composite
def masked_layer_inputs(draw):
    n_out, n_in = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entries = st.sampled_from(WEIGHT_POOL)
    w = np.array(draw(st.lists(entries, min_size=n_out * n_in, max_size=n_out * n_in)))
    m = np.array(draw(st.lists(st.booleans(), min_size=n_out * n_in, max_size=n_out * n_in)))
    b = np.array(draw(st.lists(entries, min_size=n_out, max_size=n_out)))
    bm = np.array(draw(st.lists(st.booleans(), min_size=n_out, max_size=n_out)))
    return w.reshape(n_out, n_in), m.reshape(n_out, n_in), b, bm


@settings(max_examples=300, deadline=None)
@given(masked_layer_inputs())
def test_layer_accepts_exactly_when_no_masked_entry_is_nonzero(inputs):
    # reference: gather the masked entries and count the nonzero ones
    w, m, b, bm = inputs
    bad = np.count_nonzero(w[~m])
    if bad:
        with pytest.raises(ValueError, match=f"^{bad} masked weight entries are nonzero"):
            SparseLayer(w, m)
    else:
        assert SparseLayer(w, m).weights.tobytes() == w.tobytes()
    w_ok = np.where(m, w, 0.0)
    if np.count_nonzero(b[~bm]):
        with pytest.raises(ValueError, match="masked bias entries must be exactly zero"):
            SparseLayer(w_ok, m, b, bm)
    else:
        assert SparseLayer(w_ok, m, b, bm).bias.tobytes() == b.tobytes()


def test_layer_mask_is_a_copy_of_the_callers_bool_mask():
    given_mask = np.array([[True, False], [True, True]])
    given_bias_mask = np.array([True, False])
    layer = SparseLayer(np.zeros((2, 2)), given_mask, np.zeros(2), given_bias_mask)
    given_mask[0, 1] = True
    given_bias_mask[1] = True
    assert layer.mask.tolist() == [[True, False], [True, True]]
    assert layer.bias_mask.tolist() == [True, False]


def test_layer_copies_even_a_locked_bool_mask():
    # an array that owns its memory can be made writeable again, so a layer
    # never shares its mask with the caller
    given = np.array([[True, False], [True, True]])
    given.setflags(write=False)
    layer = SparseLayer(np.zeros((2, 2)), given)
    given.setflags(write=True)
    given[0, 1] = True
    assert layer.mask.tolist() == [[True, False], [True, True]]
    assert not layer.mask.flags.writeable


def test_layer_bias_validation():
    w = np.zeros((2, 3))
    mask = np.ones((2, 3), dtype=bool)
    with pytest.raises(ValueError):
        SparseLayer(w, mask, bias=np.zeros(3))  # wrong length
    with pytest.raises(ValueError):
        SparseLayer(w, mask, bias_mask=np.ones(2, dtype=bool))  # mask without bias
    with pytest.raises(ValueError):
        SparseLayer(w, mask, bias=np.array([1.0, 0.5]),
                    bias_mask=np.array([True, False]))  # masked bias nonzero
    layer = SparseLayer(w, mask, bias=np.array([1.0, 0.0]),
                        bias_mask=np.array([True, False]))
    assert layer.bias_mask.dtype == bool


def test_net_needs_two_layers_and_matching_dims():
    l1 = SparseLayer(np.zeros((3, 2)), np.ones((3, 2), dtype=bool))
    with pytest.raises(ValueError):
        SparseNet((l1,), Activation("relu"))
    l_bad = SparseLayer(np.zeros((1, 4)), np.ones((1, 4), dtype=bool))
    with pytest.raises(ValueError, match="mismatch"):
        SparseNet((l1, l_bad), Activation("relu"))


def test_dims_and_forward_shapes():
    net = rand_net(np.ones((4, 3)), np.ones((2, 4)))
    assert net.dims == (3, 4, 2)
    X = rng.standard_normal((3, 7))
    out, hiddens = forward(net, X)
    assert out.shape == (2, 7)
    assert len(hiddens) == 1 and hiddens[0].shape == (4, 7)
    # hidden is post-activation of the first affine map
    assert np.allclose(hiddens[0], net.activation(net.layers[0].weights @ X))


def masked_bias_net():
    """rand_net with biases, the first layer's under a bias mask."""
    net = rand_net([[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1]], biases=True, seed=3)
    first, second = net.layers
    bias_mask = np.array([False, True])
    first = SparseLayer(first.weights, first.mask, first.bias * bias_mask, bias_mask)
    return SparseNet((first, second), net.activation)


THETA_NETS = {
    "no-biases": lambda: rand_net([[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1]], seed=1),
    "all-biases": lambda: rand_net([[1, 0, 1], [1, 1, 0]], [[1, 1], [0, 1]], biases=True, seed=2),
    "masked-biases": masked_bias_net,
}


@pytest.mark.parametrize("make", THETA_NETS.values(), ids=THETA_NETS.keys())
def test_theta_round_trips_bit_for_bit(make):
    net = make()
    theta = net.theta
    # layer by layer: the weights row-major, masked zeros included, then the bias
    parts = [p.ravel() for layer in net.layers for p in (layer.weights, layer.bias)
             if p is not None]
    assert theta.tobytes() == np.concatenate(parts).tobytes()
    assert theta.shape == (net.n_params,)
    for (W, b), layer in zip(net.views(theta), net.layers):
        assert np.shares_memory(W, theta) and W.tobytes() == layer.weights.tobytes()
        assert (b is None) == (layer.bias is None)
        if b is not None:
            assert np.shares_memory(b, theta) and b.tobytes() == layer.bias.tobytes()
    again = net.with_theta(theta)
    assert again.activation == net.activation
    for got, want in zip(again.layers, net.layers):
        for name in ("weights", "mask", "bias", "bias_mask"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


def test_with_theta_rejects_a_theta_of_the_wrong_length():
    net = masked_bias_net()
    assert net.n_params == 6 + 2 + 4 + 2
    for bad in (np.zeros(13), np.zeros(15), np.zeros((1, 14))):
        with pytest.raises(ValueError, match=re.escape(f"theta shape {bad.shape} != (14,)")):
            net.with_theta(bad)


def test_with_theta_rejects_nonzero_masked_entries():
    net = masked_bias_net()
    weight = net.theta
    weight[1] = 0.5  # the first layer's masked weight (0, 1)
    with pytest.raises(ValueError, match="masks pin exact zeros"):
        net.with_theta(weight)
    bias = net.theta
    bias[6] = 0.5  # the first layer's masked bias entry 0
    with pytest.raises(ValueError, match="masked bias entries must be exactly zero"):
        net.with_theta(bias)


def test_loss_is_half_frobenius():
    net = rand_net(np.ones((3, 2)), np.ones((2, 3)))
    X = rng.standard_normal((2, 5))
    Y = rng.standard_normal((2, 5))
    out, _ = forward(net, X)
    assert loss(net, X, Y) == pytest.approx(0.5 * np.sum((out - Y) ** 2), rel=1e-14)


# ---------------------------------------------------------------------------
# effective subnetwork reduction
# ---------------------------------------------------------------------------

def test_reduction_cascade_isolates_input():
    # hidden 1 feeds only hidden 2 of the next level; that one has no
    # out-edges, so the whole chain back to input 2 dies.
    m1 = np.array([[1, 0], [0, 1]], dtype=bool)          # 2 inputs -> 2 hidden
    m2 = np.array([[1, 0], [0, 1]], dtype=bool)          # -> 2 hidden
    m3 = np.array([[1, 0]], dtype=bool)                  # -> 1 output, node 1 dead
    net = SparseNet(
        (SparseLayer(np.ones((2, 2)) * m1, m1),
         SparseLayer(np.ones((2, 2)) * m2, m2),
         SparseLayer(np.array([[1.0, 0.0]]), m3)),
        Activation("relu"),
    )
    reduced, report = effective_subnetwork(net)
    assert report.isolated_inputs == (1,)
    assert (1, 1, 1) in report.removed_edges   # layer 1 edge into dead node
    assert (0, 1, 1) in report.removed_edges   # cascaded removal at layer 0
    assert not report.is_effective
    assert reduced.layers[0].mask[1, 1] == False  # noqa: E712


def test_live_bias_keeps_out_edges():
    # hidden node 1 has no inputs but a live bias: its constant output
    # still reaches the output layer, so the out-edge must survive.
    m1 = np.array([[1, 1], [0, 0]], dtype=bool)
    net = SparseNet(
        (SparseLayer(np.array([[1.0, 2.0], [0.0, 0.0]]), m1,
                     bias=np.array([0.0, 3.0]),
                     bias_mask=np.array([False, True])),
         SparseLayer(np.array([[1.0, 4.0]]), np.ones((1, 2), dtype=bool))),
        Activation("relu"),
    )
    reduced, report = effective_subnetwork(net)
    assert report.removed_edges == ()
    assert report.removed_biases == ()
    assert reduced.layers[1].mask[0, 1]  # edge from biased node survives
    # and the constant actually propagates
    X = np.array([[1.0, -2.0], [0.5, 0.5]])
    assert np.allclose(forward(reduced, X)[0], forward(net, X)[0], atol=0)


def test_dead_bias_is_removed_and_recorded():
    # same node but with the out-edge masked away: out-degree 0, so the
    # reduction drops its bias too and reports it.
    m1 = np.array([[1, 1], [0, 0]], dtype=bool)
    m2 = np.array([[1, 0]], dtype=bool)
    net = SparseNet(
        (SparseLayer(np.array([[1.0, 2.0], [0.0, 0.0]]), m1,
                     bias=np.array([0.0, 3.0]),
                     bias_mask=np.array([False, True])),
         SparseLayer(np.array([[1.0, 0.0]]), m2)),
        Activation("relu"),
    )
    reduced, report = effective_subnetwork(net)
    assert report.removed_biases == ((0, 1),)
    assert (1, 1) in report.neutered
    assert reduced.layers[0].bias[1] == 0.0
    assert not reduced.layers[0].bias_mask[1]


def reachability_edges(masks):
    """Oracle for bias-free nets: an edge survives iff its tail is reachable
    from some input and its head reaches some output (both in the original
    graph)."""
    L = len(masks)
    widths = [masks[0].shape[1]] + [m.shape[0] for m in masks]
    fwd = [np.ones(widths[0], dtype=bool)]
    for m in masks:
        fwd.append(m @ fwd[-1] > 0)
    bwd = [np.ones(widths[-1], dtype=bool)]
    for m in reversed(masks):
        bwd.append(m.T @ bwd[-1] > 0)
    bwd = bwd[::-1]
    keep = []
    for k, m in enumerate(masks):
        keep.append(m & np.outer(bwd[k + 1], fwd[k]))
    return keep


@pytest.mark.parametrize("seed", range(12))
def test_biasfree_reduction_matches_reachability(seed):
    r = np.random.default_rng(seed)
    widths = [int(r.integers(2, 6)) for _ in range(4)]
    masks = [r.random((widths[i + 1], widths[i])) < 0.45 for i in range(3)]
    layers = tuple(SparseLayer(r.standard_normal(m.shape) * m, m) for m in masks)
    net = SparseNet(layers, Activation("tanh"))
    reduced, _ = effective_subnetwork(net)
    want = reachability_edges(masks)
    for layer, w in zip(reduced.layers, want):
        assert np.array_equal(layer.mask, w)


def path_oracle(layers):
    """Brute force for nets with biases: a DFS from each input and each live
    hidden bias walks every path along mask edges, and records the edges,
    the hidden biases and the neurons of the paths that reach an output."""
    L = len(layers)
    edges, biases = set(), set()

    def walk(level, j, path):
        if level == L:
            edges.update(path)
            return True
        found = False
        for i in np.flatnonzero(layers[level].mask[:, j]).tolist():
            found |= walk(level + 1, i, path + ((level, i, j),))
        return found

    for j in range(layers[0].n_in):
        walk(0, j, ())
    for k, layer in enumerate(layers[:-1]):
        if layer.bias_mask is not None:
            biases.update((k, j) for j in np.flatnonzero(layer.bias_mask).tolist()
                          if walk(k + 1, j, ()))
    neurons = {(k, j) for k, _, j in edges} | {(k + 1, i) for k, i, _ in edges}
    return edges, biases, neurons


def random_biased_net(r):
    n_layers = int(r.integers(2, 5))
    widths = [int(r.integers(1, 6)) for _ in range(n_layers + 1)]
    density = r.random()
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        m = r.random((n_out, n_in)) < density
        if r.random() < 0.6:
            bm = r.random(n_out) < r.random()
            layers.append(SparseLayer(r.standard_normal(m.shape) * m, m,
                                      r.standard_normal(n_out) * bm, bm))
        else:
            layers.append(SparseLayer(r.standard_normal(m.shape) * m, m))
    return SparseNet(tuple(layers), Activation("tanh"))


def test_reduction_matches_path_enumeration_with_biases():
    r = np.random.default_rng(42)
    for _ in range(240):
        net = random_biased_net(r)
        reduced, report = effective_subnetwork(net)
        edges, biases, neurons = path_oracle(net.layers)
        L = len(net.layers)
        old_edges, old_biases = set(), set()
        for k, (layer, new) in enumerate(zip(net.layers, reduced.layers)):
            old_edges |= {(k, *e) for e in np.argwhere(layer.mask).tolist()}
            assert {(k, *e) for e in np.argwhere(new.mask).tolist()} == \
                {e for e in edges if e[0] == k}
            assert np.array_equal(new.weights, layer.weights * new.mask)
            if layer.bias_mask is None:
                assert new.bias is None
            elif k == L - 1:  # the output bias is kept
                assert np.array_equal(new.bias_mask, layer.bias_mask)
            else:
                old_biases |= {(k, j) for j in np.flatnonzero(layer.bias_mask).tolist()}
                assert {(k, j) for j in np.flatnonzero(new.bias_mask).tolist()} == \
                    {b for b in biases if b[0] == k}
        dims = net.dims
        assert report.neutered == tuple((k, j) for k in range(1, L) for j in range(dims[k])
                                        if (k, j) not in neurons)
        assert report.isolated_inputs == tuple(j for j in range(dims[0]) if (0, j) not in neurons)
        assert report.isolated_outputs == tuple(i for i in range(dims[-1])
                                                if (L, i) not in neurons)
        # removal lists: exactly the lost entries, in sorted order
        assert list(report.removed_edges) == sorted(old_edges - edges)
        assert list(report.removed_biases) == sorted(old_biases - biases)


def test_reduced_forward_agrees_when_removed_params_zero():
    r = np.random.default_rng(5)
    m1 = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]], dtype=bool)
    m2 = np.array([[1, 0, 0], [0, 1, 0]], dtype=bool)  # hidden 2 is dead
    W = r.standard_normal((3, 3)) * m1
    U = r.standard_normal((2, 3)) * m2
    net = SparseNet((SparseLayer(W, m1), SparseLayer(U, m2)), Activation("sigmoid"))
    reduced, report = effective_subnetwork(net)
    assert report.removed_edges  # something actually got stripped
    # removed positions held zero weight, so outputs agree everywhere
    X = r.standard_normal((3, 20))
    assert np.allclose(forward(reduced, X)[0], forward(net, X)[0], atol=0)


def test_reduction_idempotent():
    r = np.random.default_rng(9)
    masks = [r.random((5, 4)) < 0.4, r.random((3, 5)) < 0.4, r.random((2, 3)) < 0.5]
    layers = tuple(SparseLayer(r.standard_normal(m.shape) * m, m) for m in masks)
    net = SparseNet(layers, Activation("relu"))
    once, _ = effective_subnetwork(net)
    twice, rep2 = effective_subnetwork(once)
    assert rep2.removed_edges == () and rep2.removed_biases == ()
    for a, b in zip(once.layers, twice.layers):
        assert np.array_equal(a.mask, b.mask)


def test_effective_net_reduces_to_itself():
    net = rand_net(np.ones((3, 2)), np.ones((2, 3)), biases=True, seed=2)
    reduced, report = effective_subnetwork(net)
    assert report.is_effective
    assert report.removed_edges == () and report.neutered == ()


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    net = rand_net(np.array([[1, 0], [1, 1]], dtype=bool),
                   np.array([[1, 1]], dtype=bool), biases=True, seed=7)
    back = net_from_json(net_to_json(net))
    assert back.dims == net.dims
    assert back.activation == net.activation
    for a, b in zip(back.layers, net.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.bias, b.bias)
        assert np.array_equal(a.bias_mask, b.bias_mask)


def test_json_masks_accept_zero_one_as_ints_bools_and_floats():
    for mask in ([[1, 0], [0, 1]], [[True, False], [False, True]], [[1.0, 0.0], [0.0, 1.0]]):
        spec = {"layers": [{"weights": [[1, 0], [0, 2]], "mask": mask,
                            "bias": [1, 0], "bias_mask": mask[0]}, {"weights": [[1, 1]]}]}
        layer = net_from_json(spec).layers[0]
        assert layer.mask.dtype == bool and np.array_equal(layer.mask, np.eye(2, dtype=bool))
        assert layer.bias_mask.dtype == bool and layer.bias_mask.tolist() == [True, False]


def test_json_accepts_decimal_strings_and_defaults():
    spec = {
        "layers": [
            {"weights": [["0.125", -2], ["1e-3", "4.5"]]},
            {"weights": [[1, 1]], "bias": ["0.5"]},
        ],
    }
    net = net_from_json(spec)
    assert net.activation.kind == "linear"          # default
    assert np.all(net.layers[0].mask)               # mask defaults to ones
    assert net.layers[0].weights[0, 0] == 0.125
    assert net.layers[0].weights[1, 0] == 1e-3
    assert net.layers[1].bias[0] == 0.5
    assert net.layers[0].bias is None
