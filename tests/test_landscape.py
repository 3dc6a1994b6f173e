import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparseland import (
    Activation,
    SparseLayer,
    SparseNet,
    TwoLayerLinearInstance,
    check_assumptions,
    layer_ranks,
    nonincreasing_path_overparam,
    nonincreasing_path_scalar_output,
    numerical_rank,
    poly_feature_maps,
    random_grouped_instance,
    zero_column_transform,
)
from sparseland.landscape import PathTrace, _pivoted_row_basis, loss_rise


def grouped_optimum(inst):
    """Best achievable loss once the hidden layer can express any linear map
    of the stacked slices: 0.5 * ||Y - Y Z^+ Z||_F^2."""
    Z = np.vstack(inst.zs)
    R = inst.Y - inst.Y @ np.linalg.pinv(Z) @ Z
    return 0.5 * float(np.sum(R * R))


# ---------------------------------------------------------------------------
# zero-column output rewrite
# ---------------------------------------------------------------------------

def test_zero_column_hand_example():
    # W's second row is 2x the first; the pivoted basis keeps row 1 and the
    # dependent column of U folds in with coefficient 1/2.
    res = zero_column_transform(np.array([[1.0, 2.0]]),
                                np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert res.rank == 1
    assert np.allclose(res.U0, [[0.0, 2.5]], atol=0)
    assert res.zero_columns == (0,)
    assert res.basis_rows == (1,)


@pytest.mark.parametrize("seed", range(10))
def test_zero_column_random_rank_deficient(seed):
    r = np.random.default_rng(seed)
    p, d = int(r.integers(3, 8)), int(r.integers(2, 6))
    rank = int(r.integers(1, min(p, d) + 1))
    W = r.standard_normal((p, rank)) @ r.standard_normal((rank, d))
    U = r.standard_normal((2, p))
    res = zero_column_transform(U, W)
    assert res.rank == rank
    # the product is preserved ...
    scale = max(1.0, np.max(np.abs(U @ W)))
    assert np.max(np.abs(res.U0 @ W - U @ W)) < 1e-10 * scale
    # ... and exactly p - rank columns are exact zeros
    zero_cols = [j for j in range(p) if np.all(res.U0[:, j] == 0.0)]
    assert len(zero_cols) >= p - rank
    assert set(res.zero_columns) <= set(zero_cols)
    assert len(res.zero_columns) == p - rank


def test_zero_column_full_rank_is_identity():
    r = np.random.default_rng(3)
    W = r.standard_normal((3, 5))  # full row rank almost surely
    U = r.standard_normal((2, 3))
    res = zero_column_transform(U, W)
    assert res.rank == 3
    assert res.zero_columns == ()
    assert np.allclose(res.U0, U, atol=1e-12)


def test_zero_column_zero_matrix():
    res = zero_column_transform(np.array([[1.0, 2.0]]), np.zeros((2, 3)))
    assert res.rank == 0
    assert np.all(res.U0 == 0.0)
    assert res.zero_columns == (0, 1)


@pytest.mark.parametrize("p,n", [(2, 5), (4, 7), (4, 4), (6, 6), (5, 3), (8, 2)])
def test_pivoted_row_basis_matches_lapack(p, n):
    # the oracle is LAPACK's column-pivoted QR of W^T: on full-rank W the
    # pivots agree exactly and |diag R| to rounding
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(10 * p + n)
    for _ in range(20):
        W = rng.standard_normal((p, n))
        _, R, piv = scipy_linalg.qr(W.T, mode="economic", pivoting=True)
        diag, got = _pivoted_row_basis(W)
        assert got.tolist() == piv.tolist()
        assert np.allclose(diag, np.abs(np.diag(R)), rtol=1e-12, atol=0)
        assert zero_column_transform(np.eye(p), W).rank == min(p, n)


@pytest.mark.parametrize("seed", range(10))
def test_pivoted_row_basis_rank_deficient_matches_lapack(seed):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(seed)
    p, n = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    rank = int(rng.integers(1, min(p, n)))
    W = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, n))
    R = scipy_linalg.qr(W.T, mode="economic", pivoting=True)[1]
    diag = np.abs(np.diag(R))
    assert zero_column_transform(np.eye(p), W).rank == rank
    assert int(np.count_nonzero(diag > 1e-10 * diag[0])) == rank


def test_pivoted_row_basis_ties_go_to_the_first_row():
    # rows 1-3 tie at norm 2 and have disjoint supports, so every residual
    # norm is exact: step 1 takes row 1 over rows 2 and 3, step 2 row 2
    # over row 3, and the p > n tail keeps LAPACK's swap order
    W = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0], [2.0, 0.0, 0.0]])
    diag, piv = _pivoted_row_basis(W)
    assert piv.tolist() == [1, 2, 3, 0]
    assert diag.tolist() == [2.0, 2.0, 2.0]
    scipy_linalg = pytest.importorskip("scipy.linalg")
    assert scipy_linalg.qr(W.T, mode="economic", pivoting=True)[2].tolist() == [1, 2, 3, 0]


def test_zero_column_shape_check():
    with pytest.raises(ValueError, match="columns"):
        zero_column_transform(np.zeros((1, 3)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# non-increasing paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_overparam_path(seed):
    inst, theta = random_grouped_instance("overparam", seed=seed)
    trace = nonincreasing_path_overparam(inst, theta, n_samples=400)
    assert trace.monotone_violation <= 1e-10
    assert trace.end_loss <= trace.losses[0] + 1e-12
    assert abs(trace.end_loss - grouped_optimum(inst)) < 1e-8
    names = trace.names
    assert names[-1] == "solve_output"
    assert all(n.startswith(("rewire_output_g", "complete_rank_g", "solve_output"))
               for n in names)
    # losses really are the objective at the sampled parameters: at the
    # start t = k/K of segment k, the loss at points[k]
    K = len(names)
    for k in range(K):
        (i,) = np.flatnonzero(trace.t == k / K)
        assert trace.losses[i] == inst.loss_at(trace.points[k])


@pytest.mark.parametrize("seed", range(6))
def test_scalar_path(seed):
    inst, theta = random_grouped_instance("scalar", seed=seed)
    trace = nonincreasing_path_scalar_output(inst, theta, n_samples=400)
    assert trace.monotone_violation <= 1e-10
    assert abs(trace.end_loss - grouped_optimum(inst)) < 1e-8
    assert trace.names[-1] == "solve_hidden"


@pytest.mark.parametrize("cond,build", [("overparam", nonincreasing_path_overparam),
                                        ("scalar", nonincreasing_path_scalar_output)])
def test_path_segments_are_consecutive_points(cond, build):
    # the path starts at the instance's parameters, each name ends one
    # segment at the next point, and end_loss is the loss at the last point
    for seed in range(4):
        inst, theta = random_grouped_instance(cond, seed=seed)
        trace = build(inst, theta, n_samples=20)
        assert np.array_equal(trace.points[0], theta)
        assert len(trace.points) == len(trace.names) + 1
        assert trace.end_loss == inst.loss_at(trace.points[-1])


def test_scalar_path_parks_and_revives_zero_output_neurons():
    inst, theta = random_grouped_instance("scalar", seed=0)
    assert sum(int(np.count_nonzero(u == 0.0)) for u, _ in inst.blocks(theta)) >= 1
    names = nonincreasing_path_scalar_output(inst, theta).names
    assert any(n.startswith("park_w_") for n in names)
    assert any(n.startswith("revive_u_") for n in names)
    # park and revive segments hold the loss exactly constant at both ends
    trace = nonincreasing_path_scalar_output(inst, theta, n_samples=50)
    for name, start, end in zip(trace.names, trace.points, trace.points[1:]):
        if name.startswith(("park_w_", "revive_u_")):
            assert inst.loss_at(start) == pytest.approx(inst.loss_at(end), rel=1e-12)


def test_overparam_path_rewires_and_completes_rank_deficient_groups():
    inst, theta = random_grouped_instance("overparam", seed=0)
    assert any(np.linalg.matrix_rank(w) < w.shape[1] for _, w in inst.blocks(theta))
    trace = nonincreasing_path_overparam(inst, theta, n_samples=50)
    names = trace.names
    assert any(n.startswith("rewire_output_") for n in names)
    assert any(n.startswith("complete_rank_") for n in names)
    # rewire and complete segments hold the loss constant at both ends
    for name, start, end in zip(names, trace.points, trace.points[1:]):
        if name.startswith(("rewire_output_", "complete_rank_")):
            assert inst.loss_at(start) == pytest.approx(inst.loss_at(end), rel=1e-12)


def test_path_shape_requirements():
    bad = TwoLayerLinearInstance((np.ones((2, 4)),), (1,), np.ones((1, 4)))
    with pytest.raises(ValueError, match="p_i >= d_i"):
        nonincreasing_path_overparam(bad, np.ones(3))
    two_out = TwoLayerLinearInstance((np.ones((2, 4)),), (1,), np.ones((2, 4)))
    with pytest.raises(ValueError, match="d_y = 1"):
        nonincreasing_path_scalar_output(two_out, np.ones(4))


def test_trace_grid_and_csv():
    inst, theta = random_grouped_instance("overparam", seed=2)
    trace = nonincreasing_path_overparam(inst, theta, n_samples=100)
    assert np.all(np.diff(trace.t) > 0)
    assert trace.t[0] == 0.0 and trace.t[-1] < 1.0
    assert len(trace.losses) == len(trace.t)

    rows = list(csv.reader(io.StringIO(trace.to_csv())))
    assert rows[0] == ["t", "loss"]
    assert len(rows) == len(trace.t) + 2  # header + samples + terminal point
    assert float(rows[-1][0]) == 1.0
    assert float(rows[-1][1]) == trace.end_loss
    # values round-trip exactly through repr
    assert float(rows[1][1]) == trace.losses[0]


def test_loss_rise():
    assert loss_rise([]) == 0.0 and loss_rise([3.0]) == 0.0
    assert loss_rise([3.0, 2.0, 2.0, 1.0]) == 0.0
    assert loss_rise([3.0, 2.0, 2.5, 1.0, 1.25]) == 0.5
    assert loss_rise([1.0, math.inf]) == math.inf
    # a NaN loss is no evidence of descent: max(0.0, nan) read it as no rise
    assert math.isnan(loss_rise([3.0, math.nan]))
    assert math.isnan(loss_rise([3.0, math.nan, 1.0]))
    trace = PathTrace(t=np.array([0.0, 0.5]), losses=np.array([2.0, math.nan]), names=("a",),
                      points=np.zeros((2, 1)), end_loss=1.0)
    assert math.isnan(trace.monotone_violation)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_path_monotone_property(seed):
    inst, theta = random_grouped_instance("overparam", seed=seed, n_groups=2, n=8)
    trace = nonincreasing_path_overparam(inst, theta, n_samples=60)
    assert trace.monotone_violation <= 1e-9


def test_random_grouped_instance_contracts():
    for seed in range(5):
        inst, theta = random_grouped_instance("overparam", seed=seed)
        assert all(w.shape[0] >= w.shape[1] for _, w in inst.blocks(theta))
        assert inst.d_y == 2
        inst, theta = random_grouped_instance("scalar", seed=seed)
        assert inst.d_y == 1
    with pytest.raises(ValueError):
        random_grouped_instance("other", seed=0)


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

def test_check_assumptions():
    good = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -7.0]])
    assert check_assumptions(good, np.array([[1, 0], [0, 1]])) is True
    assert check_assumptions(np.array([[1.0, 0.0, 2.0]]), np.ones((1, 1))) is False
    # equal magnitudes with opposite signs still collide
    assert check_assumptions(np.array([[2.0, -2.0, 1.0]]), np.ones((1, 1))) is False
    # a mask row with no connections
    assert check_assumptions(good, np.array([[1, 1], [0, 0]])) is False


def generic_by_loops(X, mask) -> bool:
    """check_assumptions' rule, one entry and one pair at a time."""
    for row in X:
        for i, a in enumerate(row):
            if a == 0.0 or any(abs(a) == abs(b) for b in row[i + 1:]):
                return False
    return all(any(v != 0 for v in row) for row in mask)


def test_check_assumptions_matches_the_rule_stated_by_loops():
    rng = np.random.default_rng(5)
    pool = np.array([0.0, -0.0, 1.5, -1.5, 0.25, -0.25, 3.0, np.nan, np.inf, -np.inf])
    for _ in range(3000):
        rows, cols = rng.integers(1, 4), rng.integers(0, 5)
        X = rng.choice(pool, (rows, cols)) * rng.choice((1.0, 1.0, 1.0 + 2.0 ** -52), (rows, cols))
        mask = rng.random((rng.integers(1, 4), rng.integers(1, 4))) < 0.3
        assert check_assumptions(X, mask) is generic_by_loops(X, mask), (X, mask)


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def test_numerical_rank():
    assert numerical_rank(np.zeros((3, 4))) == 0
    assert numerical_rank(np.zeros((0, 3))) == 0
    assert numerical_rank(np.eye(5)) == 5
    v = np.arange(1.0, 5.0)
    assert numerical_rank(np.outer(v, v)) == 1
    # a perturbation below RANK_TOL does not raise the rank, one above it does
    assert numerical_rank(np.outer(v, v) + 1e-14 * np.eye(4)) == 1
    assert numerical_rank(np.outer(v, v) + 1e-6 * np.eye(4)) == 4
    # large finite entries: the SVD of M itself overflows to rank 0
    assert numerical_rank(np.full((3, 3), 1e308)) == 1
    assert numerical_rank(1e308 * np.eye(3)) == 3
    assert numerical_rank(5e-324 * np.eye(3)) == 3


def test_hidden_rank_certificate():
    r = np.random.default_rng(1)
    W = r.standard_normal((4, 3))
    W[3] = W[2]  # duplicated neuron cannot add rank
    U = r.standard_normal((2, 4))
    net = SparseNet(
        (SparseLayer(W, np.ones_like(W, dtype=bool)),
         SparseLayer(U, np.ones_like(U, dtype=bool))),
        Activation("tanh"),
    )
    X = r.standard_normal((3, 10))
    # the hidden layer, then the output: 2 rows of rank 2
    assert layer_ranks(net, X) == (3, 2)


@pytest.mark.parametrize("scales,layer", [((1e200, 1.0, 1.0), 1), ((1.0, 1e200, 1.0), 2),
                                          ((1.0, 1.0, 1e200), 3)])
def test_layer_ranks_of_an_overflowing_layer(scales, layer):
    # a linear net whose output of `layer` (3: the net's own) overflows to
    # inf, and every later one with it: those have no measured rank, and
    # each earlier one has rank 1 (every entry 1e200)
    eye = np.eye(3)
    net = SparseNet(tuple(SparseLayer(s * eye, np.ones((3, 3))) for s in scales),
                    Activation("linear"))
    ranks = layer_ranks(net, 1e200 * np.ones((3, 4)))
    assert ranks == (1,) * (layer - 1) + (None,) * (4 - layer)


# ---------------------------------------------------------------------------
# polynomial feature maps
# ---------------------------------------------------------------------------

def test_quadratic_feature_layout():
    maps = poly_feature_maps((0.0, 0.0, 1.0), d=2)  # sigma(z) = z^2
    assert maps.feature_dim == math.comb(2 + 2, 2) == 6
    assert maps.exponents == ((2, 0), (0, 2), (1, 1), (1, 0), (0, 1), (0, 0))
    x = np.array([3.0, 5.0])
    assert np.array_equal(maps.phi(x), [9.0, 25.0, 15.0, 3.0, 5.0, 1.0])
    # (w.x)^2 expands to w1^2 x1^2 + w2^2 x2^2 + 2 w1 w2 x1 x2
    w = np.array([2.0, -1.0])
    assert np.allclose(maps.psi(w), [4.0, 1.0, -4.0, 0.0, 0.0, 0.0], atol=0)


@pytest.mark.parametrize("coeffs,d", [
    ((0.0, 0.0, 1.0), 2),
    ((0.5, 1.0, 0.25), 3),
    ((0.1, 1.0, -0.5, 1.0 / 3), 2),
    ((1.0,), 4),
])
def test_feature_identity(coeffs, d):
    act = Activation("polynomial", coeffs=coeffs)
    maps = poly_feature_maps(coeffs, d)
    assert maps.feature_dim == math.comb(d + maps.degree, maps.degree)
    r = np.random.default_rng(42)
    for _ in range(50):
        w = r.standard_normal(d)
        x = r.standard_normal(d)
        b = float(r.standard_normal())
        want = float(act(w @ x + b))
        assert maps.psi(w, b) @ maps.phi(x) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_feature_maps_shape_checks():
    maps = poly_feature_maps((0.0, 1.0), d=2)
    with pytest.raises(ValueError):
        maps.psi(np.zeros(3))
    with pytest.raises(ValueError):
        maps.phi(np.zeros(1))
    with pytest.raises(ValueError):
        poly_feature_maps((1.0,), d=0)
