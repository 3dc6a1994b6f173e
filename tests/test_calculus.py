import json

import numpy as np
import pytest

from sparseland import (
    Activation,
    SparseLayer,
    SparseNet,
    TwoLayerLinearInstance,
    classify_stationary,
    fd_gradient,
    fd_hessian,
    hessian_two_layer_linear,
    sym_eig,
)
from sparseland.calculus import PROBE_BLOCK, pack_blocks
from sparseland.cli import _finite_json

from fd_oracle import grad_fd


def random_instance(seed, n_groups=2, d_y=2, width=1, n=10):
    """(instance, theta) with u, w and z drawn per group, then Y."""
    r = np.random.default_rng(seed)
    blocks, zs = [], []
    for _ in range(n_groups):
        d = int(r.integers(1, 4))
        blocks.append((r.standard_normal((d_y, width)), r.standard_normal((width, d))))
        zs.append(r.standard_normal((d, n)))
    inst = TwoLayerLinearInstance(zs, [width] * n_groups, r.standard_normal((d_y, n)))
    return inst, pack_blocks(blocks)


def hand_loss(inst, theta):
    """0.5 ||sum_i U_i W_i Z_i - Y||^2 at one flat point, written out."""
    R = sum((u @ w @ z for (u, w), z in zip(inst.blocks(theta), inst.zs)), -inst.Y)
    return 0.5 * float(np.sum(R * R))


# ---------------------------------------------------------------------------
# construction and basic algebra
# ---------------------------------------------------------------------------

def test_block_shape_validation():
    with pytest.raises(ValueError, match="at least one group"):
        TwoLayerLinearInstance((), (), np.zeros((1, 1)))
    for widths in ((1, 1), (0,)):
        with pytest.raises(ValueError, match="one width >= 1 per group"):
            TwoLayerLinearInstance((np.zeros((3, 5)),), widths, np.zeros((2, 5)))
    for zs, Y in (((np.zeros((3, 5)),), np.zeros((2, 4))),
                  ((np.zeros((3, 5)), np.zeros((1, 4))), np.zeros((2, 5))),
                  ((np.zeros((3, 5)),), np.zeros((2, 5, 1)))):
        with pytest.raises(ValueError, match="one n"):
            TwoLayerLinearInstance(zs, [1] * len(zs), Y)


def test_residual_and_loss_hand_value():
    # single group, 1x1 everywhere: residual = u*w*z - y
    inst = TwoLayerLinearInstance(([[1.0, -1.0]],), (1,), [[5.0, 0.0]])
    theta = np.array([2.0, 3.0])
    assert inst.d_y == 1
    assert np.array_equal(inst.residual_at(theta), [[1.0, -6.0]])
    assert inst.loss_at(theta) == pytest.approx(0.5 * 37.0, abs=0)


def test_pack_unpack_roundtrip():
    inst, theta = random_instance(1, n_groups=3)
    blocks = inst.blocks(theta)
    assert [(u.shape, w.shape) for u, w in blocks] == [((2, 1), (1, z.shape[0])) for z in inst.zs]
    assert all(np.shares_memory(part, theta) for block in blocks for part in block)
    assert np.array_equal(pack_blocks(blocks), theta)
    with pytest.raises(ValueError, match="wrong length"):
        inst.blocks(theta[:-1])
    with pytest.raises(ValueError, match="one point"):
        hessian_two_layer_linear(inst, theta[None])
    assert inst.loss_at(theta) == hand_loss(inst, theta)


# ---------------------------------------------------------------------------
# gradients: analytic vs central differences (the independent route)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,n_groups,d_y,width", [
    (0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 2, 2), (3, 2, 3, 4),
])
def test_grad_matches_fd(seed, n_groups, d_y, width):
    inst, theta = random_instance(seed, n_groups=n_groups, d_y=d_y, width=width)
    fd = fd_gradient(inst.loss_at, theta)
    assert np.allclose(inst.value_and_grad_at(theta)[1], fd, rtol=1e-6, atol=1e-7)


def test_grad_fd_respects_masks():
    r = np.random.default_rng(11)
    mask = np.array([[1, 0], [0, 1], [1, 1]], dtype=bool)
    W = r.standard_normal((3, 2)) * mask
    U = r.standard_normal((1, 3))
    net = SparseNet(
        (SparseLayer(W, mask), SparseLayer(U, np.ones_like(U, dtype=bool))),
        Activation("tanh"),
    )
    X, Y = r.standard_normal((2, 8)), r.standard_normal((1, 8))
    gw0, gb0 = grad_fd(net, X, Y)[0]
    assert gw0[~mask].tolist() == [0.0, 0.0]  # masked coords pinned, exactly
    assert np.any(gw0[mask] != 0)
    assert gb0 is None


# ---------------------------------------------------------------------------
# analytic Hessian for every group shape
# ---------------------------------------------------------------------------

# (seed, n_groups, width, d_y); ids 0-5 have the shape of the certified
# minimum (2 groups of width 1, d_y = 2); the rest vary all three
HESSIAN_CASES = [pytest.param(seed, 2, 1, 2, id=str(seed)) for seed in range(6)] + [
    pytest.param(seed, n_groups, width, d_y, id=f"{n_groups}x{width}-dy{d_y}")
    for seed, (n_groups, width, d_y) in enumerate([
        (3, 1, 1), (3, 1, 3), (2, 2, 1), (2, 2, 3), (1, 3, 1), (1, 3, 3), (4, 3, 2),
    ], start=6)
]


@pytest.mark.parametrize("seed,n_groups,width,d_y", HESSIAN_CASES)
def test_hessian_matches_fd(seed, n_groups, width, d_y):
    inst, theta = random_instance(seed, n_groups=n_groups, d_y=d_y, width=width)
    H = hessian_two_layer_linear(inst, theta)
    Hfd = fd_hessian(inst.loss_at, theta)
    scale = max(1.0, np.max(np.abs(H)))
    assert np.max(np.abs(H - Hfd)) < 1e-4 * scale
    assert np.array_equal(H, H.T)


# ---------------------------------------------------------------------------
# symmetric eigensolver against a characteristic-polynomial oracle
# ---------------------------------------------------------------------------

def test_fd_steps_set_the_truncation_error():
    # at x = 1 the central differences of x^3 and x^4 are off by exactly
    # their h^2 terms: h^2 and 4 h^2 in the gradient, 2 h^2 in the Hessian
    f = lambda x: float(x[0] ** 3 + x[1] ** 4)
    x = np.array([1.0, 1.0])
    for h in (0.1, 0.01):
        assert fd_gradient(f, x, h=h) == pytest.approx([3 + h * h, 4 + 4 * h * h], rel=1e-9)
        assert fd_hessian(f, x, h=h) == pytest.approx(np.diag([6.0, 12 + 2 * h * h]), rel=1e-6, abs=1e-6)


def charpoly_coeffs(A):
    """Faddeev-LeVerrier recursion; independent of any eigensolver."""
    n = A.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(A @ M) / k)
    return np.array(coeffs)


@pytest.mark.parametrize("seed", range(5))
def test_sym_eig_matches_charpoly_roots(seed):
    r = np.random.default_rng(seed)
    B = r.standard_normal((4, 4))
    A = B + B.T
    w, V = sym_eig(A)
    assert np.all(np.diff(w) >= 0)
    roots = np.sort(np.roots(charpoly_coeffs(A)).real)
    assert np.allclose(w, roots, atol=1e-8)
    # and the pairs actually solve the eigenproblem
    assert np.allclose(A @ V, V @ np.diag(w), atol=1e-10)


def test_sym_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        sym_eig(np.zeros((2, 3)))


@pytest.mark.parametrize("A", [[[1.0, 5.0], [0.0, np.nan]], [[np.inf, 5.0], [0.0, 1.0]],
                               [[1.0, np.nan], [0.0, 1.0]], [[1.0, np.inf], [-np.inf, 1.0]],
                               [[1.0, np.inf], [1e300, 1.0]]],
                         ids=["nan-diagonal", "inf-diagonal", "nan-pair", "opposite-infs",
                              "inf-against-finite"])
def test_sym_eig_rejects_asymmetry_beside_non_finite_entries(A):
    # a NaN made the largest |A - A.T| NaN, and an inf made the tolerance inf,
    # so each of these passed the check and eigh read the lower triangle alone
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(np.array(A))


def test_sym_eig_symmetry_scale_is_the_largest_finite_entry():
    # matched non-finite pairs pass; the tolerance is 1e-10 x max(1, largest finite |entry|)
    for bad in (np.nan, np.inf, -np.inf):
        sym_eig(np.array([[bad, 2.0], [2.0, 1.0]]))
        sym_eig(np.array([[1.0, bad], [bad, 1.0]]))
    sym_eig(np.array([[np.inf, 1e6], [1e6 + 5e-5, 1.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(np.array([[np.inf, 1e6], [1e6 + 2e-4, 1.0]]))
    sym_eig(np.array([[np.nan, 1.0], [1.0 + 5e-11, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eig(np.array([[np.nan, 1.0], [1.0 + 5e-10, 0.0]]))


# ---------------------------------------------------------------------------
# stationary-point classification on known landscapes
# ---------------------------------------------------------------------------

def fd_derivatives(f, x0):
    """(gradient, Hessian) of f at x0 by central differences."""
    return fd_gradient(f, x0), fd_hessian(f, x0)


def test_classify_pd_quadratic_is_strict():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = lambda x: np.einsum("...i,ij,...j->...", x, A, x)
    rep = classify_stationary(f, np.zeros(2), *fd_derivatives(f, np.zeros(2)))
    assert rep.min_probe == "strict_local_min"
    assert rep.grad_norm < 1e-8
    assert rep.null_basis.shape[1] == 0


def test_classify_saddle():
    f = lambda x: x[..., 0] ** 2 - x[..., 1] ** 2
    rep = classify_stationary(f, np.zeros(2), *fd_derivatives(f, np.zeros(2)))
    assert rep.min_probe == "saddle"


def test_classify_flat_is_nonstrict():
    f = lambda x: np.zeros(x.shape[:-1])
    rep = classify_stationary(f, np.zeros(3), *fd_derivatives(f, np.zeros(3)))
    assert rep.min_probe == "local_min_nonstrict"


def test_classify_quartic_needs_probes():
    # exact Hessian is zero here; only the kernel probes see the strict growth
    f = lambda x: np.sum(x ** 4, axis=-1)
    rep = classify_stationary(f, np.zeros(2), fd_gradient(f, np.zeros(2)), np.zeros((2, 2)))
    assert rep.min_probe == "strict_local_min"
    assert rep.probe_evidence["null_dim"] == 2


def test_classify_quartic_saddle_via_kernel_probe():
    # PSD Hessian diag(2, 0), but the flat direction falls off quartically
    f = lambda x: x[..., 0] ** 2 - x[..., 1] ** 4
    rep = classify_stationary(f, np.zeros(2), *fd_derivatives(f, np.zeros(2)))
    assert rep.min_probe == "saddle"


def test_classify_nonstationary_is_inconclusive():
    f = lambda x: x[..., 0]
    rep = classify_stationary(f, np.zeros(2), *fd_derivatives(f, np.zeros(2)))
    assert rep.min_probe == "inconclusive"
    assert rep.grad_norm > 0.5


def test_report_json():
    f = lambda x: np.sum(x * x, axis=-1)
    rep = classify_stationary(f, np.zeros(2), *fd_derivatives(f, np.zeros(2)))
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["min_probe"] == "strict_local_min"
    assert len(blob["eigenvalues"]) == 2
    assert isinstance(blob["probe_evidence"]["worst_probe_delta"], float)


def test_classify_uses_supplied_derivatives():
    A = np.diag([1.0, 3.0])
    x0 = np.zeros(2)
    rep = classify_stationary(lambda x: np.einsum("...i,ij,...j->...", x, A, x), x0,
                              2 * A @ x0, 2 * A)
    assert rep.min_probe == "strict_local_min"
    assert np.allclose(rep.eigenvalues, [2.0, 6.0], atol=0)


def test_classify_rejects_batch_collapsing_loss():
    # summing the whole (K, P) probe stack to one number must not certify
    f = lambda x: float(np.sum(x ** 4))
    with pytest.raises(ValueError, match=r"expected \(\d+,\)"):
        classify_stationary(f, np.zeros(2), fd_gradient(f, np.zeros(2)), np.zeros((2, 2)))


# probe counts that span more than two full blocks and end in a partial one;
# fixed numbers, so that a test's name does not move with the block size
MANY_BLOCKS = (16387, 24577)
assert all(n > 2 * PROBE_BLOCK and n % PROBE_BLOCK for n in MANY_BLOCKS)


@pytest.mark.parametrize("n_probes", [1, 7, 500, MANY_BLOCKS[0]])
@pytest.mark.parametrize("flat_hessian", [False, True])
def test_classify_one_loss_call_per_radius(n_probes, flat_hessian):
    # a zero Hessian adds kernel directions to the random ones
    A = np.diag([1.0, 3.0])
    shapes, radii = [], []

    def loss_fn(x):
        shapes.append(x.shape)
        if x.ndim == 2:  # every probe of one call lies at one radius around the origin
            radii.append(float(np.linalg.norm(x[0])))
        return np.einsum("...i,ij,...j->...", x, A, x)

    rep = classify_stationary(loss_fn, np.zeros(2), np.zeros(2), 0 * A if flat_hessian else 2 * A,
                              n_probes=n_probes)
    K = rep.probe_evidence["n_directions"]
    assert K > n_probes if flat_hessian else K == n_probes
    assert shapes[0] == (2,)
    assert all(len(s) == 2 and 1 <= s[0] <= PROBE_BLOCK and s[1] == 2 for s in shapes[1:])
    for r in rep.probe_evidence["radii"]:
        assert sum(s[0] for s, q in zip(shapes[1:], radii) if np.isclose(q, r)) == K
    if not flat_hessian and K <= PROBE_BLOCK:
        assert shapes == [(2,), (K, 2), (K, 2)]
    assert rep.min_probe == "strict_local_min"


def _kernel_loss(x):
    # Hessian diag(2, 0, 0) at the origin: a two-dimensional kernel
    return x[..., 0] ** 2 + x[..., 1] ** 4 + x[..., 2] ** 4 + x[..., 1] ** 2 * x[..., 2] ** 2


@pytest.mark.parametrize("kernel,n_probes", [
    (False, MANY_BLOCKS[0]), (True, MANY_BLOCKS[0]), (True, MANY_BLOCKS[1]),
])
def test_classify_blocks_equal_one_batch(kernel, n_probes):
    # the one-batch route: every direction drawn and evaluated at once
    A = np.diag([1.0, 3.0, 2.0])
    loss_fn = _kernel_loss if kernel else (lambda x: np.einsum("...i,ij,...j->...", x, A, x))
    H = np.diag([2.0, 0.0, 0.0]) if kernel else 2 * A
    x0 = np.zeros(3)
    rep = classify_stationary(loss_fn, x0, np.zeros(3), H, n_probes=n_probes, seed=5)
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((n_probes, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    N = rep.null_basis
    assert N.shape[1] == (2 if kernel else 0)
    if kernel:
        mix = rng.standard_normal((max(2 * n_probes // 10, 8), N.shape[1]))
        mix /= np.linalg.norm(mix, axis=1, keepdims=True)
        kdirs = mix @ N.T
        dirs = np.vstack([dirs, N.T, -N.T, kdirs, -kdirs])
    deltas = [loss_fn(x0 + r * dirs) - loss_fn(x0) for r in rep.probe_evidence["radii"]]
    assert rep.probe_evidence["n_directions"] == len(dirs)
    assert rep.probe_evidence["worst_probe_delta"] == float(np.min(deltas))
    assert rep.min_probe == "strict_local_min"


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_classify_non_finite_probe_is_inconclusive(bad):
    # one non-finite probe among many is enough
    def loss_fn(x):
        values = np.einsum("...i,...i->...", x, x)
        if values.ndim:
            values[-1] = bad
        return values

    rep = classify_stationary(loss_fn, np.zeros(2), np.zeros(2), 2 * np.eye(2), n_probes=50)
    assert rep.min_probe == "inconclusive"


def test_classify_all_infinite_probes_are_inconclusive():
    # every probe "increases" the loss to +inf, which proves nothing
    rep = classify_stationary(lambda x: np.where(np.any(x, axis=-1), np.inf, 0.0), np.zeros(2),
                              np.zeros(2), 2 * np.eye(2))
    assert rep.probe_evidence["worst_probe_delta"] == np.inf
    assert rep.min_probe == "inconclusive"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classify_non_finite_hessian_is_inconclusive(bad):
    # a NaN eigenvalue made the eigenvalue scale NaN, which switched off the
    # saddle test, and the probes of sum(x * x) then read strict_local_min
    loss_fn = lambda x: np.sum(x * x, axis=-1)
    rep = classify_stationary(loss_fn, np.zeros(2), np.zeros(2), np.diag([-1.0, bad]))
    assert rep.probe_evidence["worst_probe_delta"] > 0  # the probes alone say strict
    assert rep.min_probe == "inconclusive"


def test_classify_non_finite_gradient_is_inconclusive():
    rep = classify_stationary(lambda x: np.sum(x * x, axis=-1), np.zeros(2),
                              np.array([np.nan, 0.0]), 2 * np.eye(2))
    assert rep.min_probe == "inconclusive"


def test_report_json_writes_non_finite_numbers_as_null():
    rep = classify_stationary(lambda x: np.where(np.any(x, axis=-1), np.inf, 0.0), np.zeros(2),
                              np.zeros(2), 2 * np.eye(2))
    payload = json.loads(json.dumps(_finite_json(rep.to_json()), allow_nan=False))
    assert payload["probe_evidence"]["worst_probe_delta"] is None
    assert payload["probe_evidence"]["f0"] == 0.0
    assert payload["eigenvalues"] == [2.0, 2.0]
    nan_hessian = classify_stationary(lambda x: np.sum(x * x, axis=-1), np.zeros(2),
                                      np.zeros(2), np.diag([np.nan, 2.0]))
    payload = json.loads(json.dumps(_finite_json(nan_hessian.to_json()), allow_nan=False))
    assert payload["eigenvalues"] == [None, 2.0]


# ---------------------------------------------------------------------------
# batched loss evaluation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,n_groups,width,d_y", [
    (20, 1, 1, 1), (21, 3, 1, 2), (22, 2, 2, 3), (23, 4, 3, 1), (24, 4, 3, 3),
])
def test_loss_at_batch_matches_rowwise_unpack(seed, n_groups, width, d_y):
    inst, theta = random_instance(seed, n_groups=n_groups, d_y=d_y, width=width)
    P = theta.size
    stack = np.random.default_rng(seed).standard_normal((9, P))
    got = inst.loss_at(stack)
    assert got.shape == (9,)
    assert np.array_equal(got, [hand_loss(inst, row) for row in stack])
    assert isinstance(inst.loss_at(stack[0]), float)
    assert inst.loss_at(stack[0]) == got[0]


@pytest.mark.parametrize("seed,n_groups,width,d_y", [
    (20, 1, 1, 1), (21, 3, 1, 2), (22, 2, 2, 3), (23, 4, 3, 1), (24, 4, 3, 3),
])
def test_value_and_grad_at_batch_matches_rowwise(seed, n_groups, width, d_y):
    inst, theta = random_instance(seed, n_groups=n_groups, d_y=d_y, width=width)
    P = theta.size
    stack = np.random.default_rng(seed).standard_normal((9, P))
    values, grads = inst.value_and_grad_at(stack)
    assert values.shape == (9,) and grads.shape == (9, P)
    assert np.array_equal(values, inst.loss_at(stack))
    for row, value, grad in zip(stack, values, grads):
        v, g = inst.value_and_grad_at(row)
        assert isinstance(v, float) and v == value == inst.loss_at(row)
        assert np.array_equal(g, grad)
    cube = stack[:6].reshape(2, 3, P)
    values, grads = inst.value_and_grad_at(cube)
    assert values.shape == (2, 3) and grads.shape == (2, 3, P)
    assert np.array_equal(grads.reshape(6, P), inst.value_and_grad_at(stack[:6])[1])
    with pytest.raises(ValueError, match="wrong length"):
        inst.value_and_grad_at(stack[:, :-1])


def test_loss_at_keeps_leading_shape():
    inst, theta = random_instance(25, n_groups=2, d_y=2, width=2)
    cube = np.random.default_rng(25).standard_normal((2, 3, theta.size))
    got = inst.loss_at(cube)
    assert got.shape == (2, 3)
    want = [[hand_loss(inst, row) for row in plane] for plane in cube]
    assert np.array_equal(got, want)


def test_loss_at_rejects_wrong_length():
    inst, theta = random_instance(26, n_groups=3)
    P = theta.size
    for bad in (np.zeros(P - 1), np.zeros((4, P + 1)), np.zeros((2, 3, P - 2)), np.float64(1.0)):
        with pytest.raises(ValueError, match="wrong length"):
            inst.loss_at(bad)
