"""The certified instances are re-derived here through independent routes:
exact rational arithmetic for the stationarity and loss values of the
strict-minimum instance, finite differences for the analytic gradients, and
direct dense linear algebra for the convolutional objective."""

import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import sparseland.counterexamples as counterexamples
from sparseland import (
    Activation,
    ConstructionError,
    conv_matrix,
    ConvSpec,
    conv_valley_instance,
    ConvValleyInstance,
    fd_gradient,
    fd_hessian,
    loss as net_loss,
    probe_conv_valley,
    probe_valley,
    random_grouped_instance,
    SparseLayer,
    SparseNet,
    spurious_minimum_instance,
    SpuriousValleyInstance,
    sym_eig,
    valley_instance,
    verify_spurious_minimum,
)
from sparseland.activations import KINDS
from sparseland.calculus import PROBE_BLOCK
from sparseland.cli import _finite_json, main
from sparseland.counterexamples import (
    BETTER_LOSS_BOUND,
    CONV_RADIUS,
    EIGENVALUES_REF,
    EXPERIMENT_Y,
    HESSIAN_REF,
    MIN_LOSS_REF,
    RESIDUAL_Z1_REF,
    RESIDUAL_Z2_REF,
    STRICT_Y,
)

from valley_oracle import valley_grad, valley_loss


# ---------------------------------------------------------------------------
# strict-minimum instance: exact rational oracle
# ---------------------------------------------------------------------------

def fmat(rows):
    return [[Fraction(v) for v in row] for row in rows]


def fmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
            for i in range(len(A))]


def fadd(A, B, sign=1):
    return [[A[i][j] + sign * B[i][j] for j in range(len(A[0]))] for i in range(len(A))]


# the data Gram structure: Z1 Z1^T = Z2 Z2^T = I, Z1 Z2^T = diag(3/5, 4/5)
D = fmat([[Fraction(3, 5), 0], [0, Fraction(4, 5)]])
A1 = fmat([[Fraction(7, 8), Fraction(7, 9)], [Fraction(3, 4), Fraction(5, 3)]])
A2 = fmat([[Fraction(15, 8), Fraction(16, 9)], [Fraction(7, 4), Fraction(11, 3)]])
M1 = fmat([[1, 1], [1, 1]])      # u1 w1^T at theta
M2 = fmat([[1, 2], [2, 4]])      # u2 w2^T at theta
B1 = fadd(M1, A1, sign=-1)
B2 = fadd(M2, A2, sign=-1)


def test_rational_stationarity():
    # R Z1^T = B1 + B2 D and R Z2^T = B1 D + B2; the gradient blocks are
    # (R Zi^T) wi and ui^T (R Zi^T), all zero in exact arithmetic
    RZ1 = fadd(B1, fmul(B2, D))
    RZ2 = fadd(fmul(B1, D), B2)
    u1, w1 = [Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]
    u2, w2 = [Fraction(1), Fraction(2)], [Fraction(1), Fraction(2)]
    for RZ, u, w in ((RZ1, u1, w1), (RZ2, u2, w2)):
        assert [RZ[0][0] * w[0] + RZ[0][1] * w[1],
                RZ[1][0] * w[0] + RZ[1][1] * w[1]] == [0, 0]
        assert [u[0] * RZ[0][0] + u[1] * RZ[1][0],
                u[0] * RZ[0][1] + u[1] * RZ[1][1]] == [0, 0]


def test_rational_loss_value():
    # ||R||^2 = tr(B1 B1^T) + 2 tr(B1 D B2^T) + tr(B2 B2^T) = 2 * 221/360
    def tr_prod(A, B):  # tr(A B^T)
        return sum(A[i][j] * B[i][j] for i in range(2) for j in range(2))

    total = tr_prod(B1, B1) + 2 * tr_prod(fmul(B1, D), B2) + tr_prod(B2, B2)
    assert total == Fraction(221, 180)
    assert Fraction(221, 360) == total / 2


def test_rational_residual_displays_match_frozen():
    RZ1 = fadd(B1, fmul(B2, D))
    RZ2 = fadd(fmul(B1, D), B2)
    for RZ, ref in ((RZ1, RESIDUAL_Z1_REF), (RZ2, RESIDUAL_Z2_REF)):
        got = np.array([[float(v) for v in row] for row in RZ])
        assert np.max(np.abs(got - ref)) < 1e-12


def test_builder_self_validates():
    inst = spurious_minimum_instance()
    z1, z2 = inst.minimum.zs
    assert np.allclose(z1 @ z1.T, np.eye(2), atol=1e-15)
    assert np.allclose(z2 @ z2.T, np.eye(2), atol=1e-15)
    assert np.allclose(z1 @ z2.T, np.diag([0.6, 0.8]), atol=1e-15)
    assert inst.minimum.loss_at(inst.theta) == pytest.approx(MIN_LOSS_REF, abs=1e-14)
    assert np.vstack([z1, z2]).shape == (4, 4)
    assert np.array_equal(inst.theta, (1, 1, 1, 1, 1, 2, 1, 2))


# Each self-check of a builder is broken on its own, by moving what it
# compares against; the ConstructionError names that identity and no other.

@pytest.mark.parametrize("name,value,problem", [
    ("RESIDUAL_Z1_REF", RESIDUAL_Z1_REF + 1e-9, "R Z1^T: max deviation "),
    ("RESIDUAL_Z2_REF", RESIDUAL_Z2_REF - 1e-9, "R Z2^T: max deviation "),
    ("MIN_LOSS_REF", MIN_LOSS_REF + 1e-9, "loss at theta: max deviation "),
    ("BETTER_LOSS_BOUND", 0.5, "better point: loss "),
], ids=["residual-z1", "residual-z2", "min-loss", "better-point"])
def test_minimum_builder_names_the_broken_identity(monkeypatch, name, value, problem):
    monkeypatch.setattr(counterexamples, name, value)
    with pytest.raises(ConstructionError) as ei:
        spurious_minimum_instance()
    message = str(ei.value)
    assert message.startswith("minimum instance failed validation: " + problem)
    assert "; " not in message


@pytest.mark.parametrize("name,change,identity", [
    ("Z1_REF", lambda z: 2 * z, "Z1 Z1^T = I"),
    ("Z2_REF", lambda z: 2 * z, "Z2 Z2^T = I"),
    ("Z2_REF", lambda z: z[::-1], "Z1 Z2^T = diag(0.6, 0.8)"),  # rows swapped: still orthonormal
], ids=["z1-gram", "z2-gram", "cross-gram"])
def test_minimum_builder_checks_the_data_gram(monkeypatch, name, change, identity):
    # the data also enter the target and the residual, so more checks fail
    monkeypatch.setattr(counterexamples, name, change(getattr(counterexamples, name)))
    with pytest.raises(ConstructionError) as ei:
        spurious_minimum_instance()
    problems = str(ei.value).removeprefix("minimum instance failed validation: ").split("; ")
    assert any(p.startswith(identity + ": max deviation ") for p in problems)


def test_verification_report():
    inst = spurious_minimum_instance()
    v = verify_spurious_minimum(inst)
    assert v.passed
    assert list(v.checks) == ["grad_zero", "hessian_match", "hessian_psd", "eigs_match",
                              "strict_probe_pass", "better_point_exists"]
    assert all(value is True for value in v.checks.values())
    assert v.details["hessian_max_err"] < 1e-12
    assert v.details["eig_max_err"] <= 1e-3
    assert v.details["grad_norm"] < 1e-10
    assert v.details["loss_theta_prime"] < BETTER_LOSS_BOUND
    blob = json.loads(json.dumps(v.to_json()))
    assert list(blob) == [*v.checks, "passed", "report", "details"]
    assert blob["passed"] is True
    assert blob["report"]["min_probe"] == "strict_local_min"


def test_verification_builds_one_hessian(monkeypatch):
    # the Hessian checked against HESSIAN_REF is the one the classification uses
    import sparseland.counterexamples as ce
    calls = []
    real = ce.hessian_two_layer_linear
    monkeypatch.setattr(ce, "hessian_two_layer_linear",
                        lambda inst, theta: calls.append(inst) or real(inst, theta))
    assert verify_spurious_minimum(spurious_minimum_instance(), n_probes=50).passed
    assert len(calls) == 1


def test_hessian_against_fd():
    # second independent route to the frozen 8x8 matrix
    inst = spurious_minimum_instance()
    Hfd = fd_hessian(inst.minimum.loss_at, inst.theta)
    assert np.max(np.abs(Hfd - HESSIAN_REF)) < 1e-4


def test_eigenvalues_frozen():
    w, _ = sym_eig(HESSIAN_REF)
    assert np.max(np.abs(w - np.array(EIGENVALUES_REF))) <= 1e-3
    assert abs(w[0]) < 1e-12 and abs(w[1]) < 1e-12  # two exact flat directions
    assert w[2] > 0.09  # strictly positive from the third eigenvalue on


def test_better_point():
    inst = spurious_minimum_instance()
    lp = inst.minimum.loss_at(inst.theta_prime)
    assert lp < BETTER_LOSS_BOUND < MIN_LOSS_REF
    assert lp == pytest.approx(0.5719920, abs=1e-6)


def test_minimum_loss_at_batch_matches_group_instances():
    inst = spurious_minimum_instance()
    r = np.random.default_rng(3)
    stack = np.vstack([inst.theta, inst.theta_prime,
                       inst.theta + 0.1 * r.standard_normal((6, 8))])
    got = inst.minimum.loss_at(stack)
    assert got.shape == (8,)
    z1, z2 = inst.minimum.zs

    def hand_loss(th):
        # theta = (u1, w1, u2, w2) sliced by hand; R = sum_i u_i w_i z_i - Y
        u1, w1, u2, w2 = (th[k:k + 2] for k in (0, 2, 4, 6))
        R = -inst.minimum.Y + u1[:, None] @ w1[None, :] @ z1 + u2[:, None] @ w2[None, :] @ z2
        return 0.5 * float(np.sum(R * R))

    assert np.array_equal(got, [hand_loss(row) for row in stack])
    assert inst.minimum.loss_at(inst.theta) == hand_loss(inst.theta)


def grouped_as_masked_net(inst, theta):
    """(net, X): the grouped linear objective at flat theta as a masked
    2-layer linear net on X = [Z_1; ...; Z_k], built by hand: group i's p_i
    hidden rows read only its d_i columns, and U = [U_1 ... U_k] is dense.
    theta is sliced here in its pack order, vec(U_1), vec(W_1), vec(U_2), ...
    each row-major."""
    ds = [z.shape[0] for z in inst.zs]
    W = np.zeros((sum(inst.widths), sum(ds)))
    mask = np.zeros(W.shape, dtype=bool)
    us, k, row, col = [], 0, 0, 0
    for p, d in zip(inst.widths, ds):
        us.append(theta[k:k + inst.d_y * p].reshape(inst.d_y, p))
        k += inst.d_y * p
        W[row:row + p, col:col + d] = theta[k:k + p * d].reshape(p, d)
        mask[row:row + p, col:col + d] = True
        k, row, col = k + p * d, row + p, col + d
    assert k == theta.size
    U = np.hstack(us)
    layers = (SparseLayer(W, mask), SparseLayer(U, np.ones_like(U, dtype=bool)))
    return SparseNet(layers, Activation("linear")), np.vstack(inst.zs)


def test_minimum_as_network_matches_group_loss():
    # the same objective as a masked 2-layer linear net on X = [Z1; Z2]
    inst = spurious_minimum_instance()
    for th in (inst.theta, inst.theta_prime):
        net, X = grouped_as_masked_net(inst.minimum, th)
        assert net_loss(net, X, inst.minimum.Y) == pytest.approx(inst.minimum.loss_at(th), rel=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("cond", ["overparam", "scalar"])
def test_grouped_instance_as_network_matches_group_loss(cond, seed):
    # groups up to 5 wide, so one block of the mask holds several hidden rows
    inst, theta = random_grouped_instance(cond, seed)
    net, X = grouped_as_masked_net(inst, theta)
    assert net_loss(net, X, inst.Y) == pytest.approx(inst.loss_at(theta), rel=1e-14)


# ---------------------------------------------------------------------------
# spurious valley
# ---------------------------------------------------------------------------

VALLEY_ACTS = [Activation("tanh"), Activation("shifted_sigmoid"),
               Activation("leaky_relu", slope=0.1), Activation("elu", alpha=1.0)]


@pytest.mark.parametrize("act", VALLEY_ACTS, ids=lambda a: a.kind)
def test_valley_losses_all_activations(act):
    inst = valley_instance(STRICT_Y, act)
    assert inst.loss(inst.valley_theta) == pytest.approx(4.0, abs=1e-12)
    assert inst.valley_loss == 4.0
    want_escape = 1.0 * (9.0 / 11.0) ** 2
    assert inst.loss(inst.escape_theta) == pytest.approx(want_escape, rel=1e-12)
    assert inst.escape_loss < 1.0 < inst.valley_loss  # ordering with y1^2
    assert inst.constraints_ok


def test_valley_rejects_sigmoid():
    with pytest.raises(ConstructionError, match="sigma\\(0\\) = 0"):
        valley_instance(STRICT_Y, Activation("sigmoid"))


def test_experimental_y_flags_constraint():
    inst = valley_instance(EXPERIMENT_Y)
    assert not inst.constraints["y3 > 4*y4"]    # 6 < 8, flagged only
    assert not inst.constraints_ok
    assert inst.valley_loss == 4.0              # losses still exact
    assert inst.loss(inst.valley_theta) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("level,value,problem", [
    ("valley_loss", 5.0, "valley loss 4.0 != y4^2 = 5.0"),
    ("escape_loss", 0.0, f"escape loss {(9.0 / 11.0) ** 2!r} != 0.0"),
], ids=["valley", "escape"])
def test_valley_builder_names_the_broken_level(monkeypatch, level, value, problem):
    monkeypatch.setattr(SpuriousValleyInstance, level, property(lambda self: value))
    with pytest.raises(ConstructionError) as ei:
        valley_instance(STRICT_Y)
    assert str(ei.value) == "valley instance failed validation: " + problem


def test_valley_builder_checks_the_ordering_and_the_scale():
    # y2 < 0 puts the escape level above y1^2; tanh still reaches the scale
    # targets, relu cannot reach the negative one
    with pytest.raises(ConstructionError) as ei:
        valley_instance((1, -2, 9, 2))
    assert str(ei.value) == "valley instance failed validation: ordering escape < y1^2 < y4^2 failed"
    with pytest.raises(ConstructionError) as ei:
        valley_instance((1, -2, 9, 2), Activation("relu"))
    assert str(ei.value) == f"no valid scale: {-2 / 7!r} outside range of relu"


def test_valley_theta_is_stationary():
    inst = valley_instance(STRICT_Y)
    g = inst.grad(inst.valley_theta)
    # the sigma-inverse in the construction leaves ~1 ulp residuals
    assert np.max(np.abs(g)) < 1e-12


@pytest.mark.parametrize("act", VALLEY_ACTS, ids=lambda a: a.kind)
def test_valley_grad_matches_fd(act):
    inst = valley_instance(STRICT_Y, act)
    r = np.random.default_rng(0)
    for _ in range(5):
        th = r.uniform(-1.5, 1.5, 8)
        th[4:] += 0.3  # keep clear of the relu-family kink
        fd = fd_gradient(lambda t: float(inst.loss(t)), th)
        assert np.allclose(inst.grad(th), fd, rtol=1e-5, atol=1e-6)


def test_valley_batched_loss_and_grad():
    inst = valley_instance(STRICT_Y)
    r = np.random.default_rng(1)
    thetas = r.standard_normal((7, 8))
    L = inst.loss(thetas)
    G = inst.grad(thetas)
    assert L.shape == (7,) and G.shape == (7, 8)
    for i in range(7):
        assert L[i] == pytest.approx(inst.loss(thetas[i]), abs=0)
        assert np.array_equal(G[i], inst.grad(thetas[i]))


# every activation valley_instance builds with: sigma(0) = 0 and 1/a in range
VALLEY_BUILDS = [Activation("linear"), Activation("relu"), Activation("leaky_relu", slope=0.1),
                 Activation("elu", alpha=1.0), Activation("tanh"), Activation("shifted_sigmoid")]


def test_valley_builds_list_is_every_accepted_kind():
    accepted = set()
    for kind in KINDS:
        act = (Activation("polynomial", coeffs=(0.0, 1.0, 0.5)) if kind == "polynomial"
               else Activation(kind))
        try:
            valley_instance(STRICT_Y, act)
        except (ConstructionError, ValueError):
            continue
        accepted.add(kind)
    assert accepted == {act.kind for act in VALLEY_BUILDS}


# the scale a of each kind: the least power of two with 1/a in sigma's range
VALLEY_SCALES = {"linear": 1.0, "relu": 1.0, "leaky_relu": 1.0, "elu": 1.0,
                 "tanh": 2.0, "shifted_sigmoid": 4.0}


@pytest.mark.parametrize("act", VALLEY_BUILDS, ids=lambda a: a.kind)
def test_valley_scale_is_the_least_power_of_two_in_range(act):
    a = VALLEY_SCALES[act.kind]
    inst = valley_instance(STRICT_Y, act)
    assert inst.valley_theta[:3].tolist() == [1.0 * a, 2.0 * a, 9.0 * a]
    assert inst.valley_theta[4] == act.inverse(1.0 / a)


# SHA-256 of valley_theta then escape_theta bytes, for every VALLEY_BUILDS kind
# at STRICT_Y and then EXPERIMENT_Y, pinned so that a rewrite of the range rule
# cannot move the preimages sigma^-1 places in the two points silently
VALLEY_POINTS_DIGEST = "8651c81f68fe99d85d366ed4da6949b63ccef0346cf56099b223dec54b642d9c"


def test_valley_points_are_pinned():
    h = hashlib.sha256()
    for act in VALLEY_BUILDS:
        for y in (STRICT_Y, EXPERIMENT_Y):
            inst = valley_instance(y, act)
            h.update(inst.valley_theta.tobytes())
            h.update(inst.escape_theta.tobytes())
    assert h.hexdigest() == VALLEY_POINTS_DIGEST


def test_valley_scale_of_a_polynomial_is_a_range_query_error():
    with pytest.raises(ValueError, match="range query not supported for polynomial"):
        valley_instance(STRICT_Y, Activation("polynomial", coeffs=(0.0, 1.0)))


@pytest.mark.parametrize("act", VALLEY_BUILDS, ids=lambda a: a.kind)
def test_valley_builds_mixed_scale_targets(act):
    # each residual at the two points rounds by about max|y| eps, so a level
    # check with a tolerance relative to the level alone rejected large y3,
    # y4 beside small y1, y2: tanh from 10^9, shifted_sigmoid from 10^12
    for e in range(1, 16):
        inst = valley_instance((1.0, 2.0, 9 * 10.0 ** e, 10.0 ** e), act)
        assert inst.constraints_ok


@pytest.mark.parametrize("y", [(1, 2, -2, 2), (0, 0, 0, 0), (1, 1, -1, 2)])
def test_valley_builder_rejects_y2_plus_y3_zero(y):
    # the escape point and the escape level both divide by y2 + y3
    with pytest.raises(ConstructionError) as ei:
        valley_instance(y)
    assert str(ei.value) == f"valley construction needs y2 + y3 != 0, got {float(y[1])} + {float(y[2])}"


def valley_layouts():
    """Thetas of every shape and memory order the objective is called with,
    with overflowing, subnormal and signed-zero entries among the rows."""
    base = np.random.default_rng(5).uniform(-3, 3, (60, 8))
    base[1] *= 1e160
    base[2] *= 1e-170
    base[3, ::2] = -0.0
    base[4] = 0.0
    return {"1-d": base[0], "1-d zero": base[4], "C": base[:17], "F": np.asfortranarray(base[:40]),
            "3-d": base.reshape(3, 20, 8), "3-d F": np.asfortranarray(base.reshape(3, 20, 8))}


@pytest.mark.parametrize("y", [STRICT_Y, EXPERIMENT_Y], ids=["strict", "experiment"])
@pytest.mark.parametrize("act", VALLEY_BUILDS, ids=lambda a: a.kind)
def test_valley_objective_matches_the_column_oracle_bit_for_bit(act, y):
    inst = valley_instance(y, act)
    with np.errstate(all="ignore"):
        for name, th in valley_layouts().items():
            # the second loss call returns the value the grad call kept
            for new, old in ((inst.loss, valley_loss), (inst.grad, valley_grad),
                             (inst.loss, valley_loss)):
                got, want = new(th), old(inst, th)
                assert type(got) is type(want), (name, new.__name__)  # a float for 1-d
                got, want = np.asarray(got), np.asarray(want)
                assert got.shape == want.shape, (name, new.__name__)
                assert got.tobytes() == want.tobytes(), (name, new.__name__)


def test_valley_loss_takes_the_kept_value_once_and_for_that_array_only():
    inst = valley_instance(EXPERIMENT_Y)
    th1, th2 = valley_layouts()["F"].copy(), valley_layouts()["C"]
    with np.errstate(all="ignore"):
        inst.grad(th1)
        assert inst.loss(th2).tobytes() == valley_loss(inst, th2).tobytes()
        th1[:, 4:] += 0.5  # a kept value of the old th1 would now be stale
        assert inst.loss(th1).tobytes() == valley_loss(inst, th1).tobytes()
        inst.grad(th1)
        assert inst.loss(th1).tobytes() == valley_loss(inst, th1).tobytes()
        th1[:, :4] *= 2.0
        assert inst.loss(th1).tobytes() == valley_loss(inst, th1).tobytes()


@pytest.mark.parametrize("act", VALLEY_BUILDS, ids=lambda a: a.kind)
def test_valley_batch_rows_equal_rows_alone(act):
    inst = valley_instance(EXPERIMENT_Y, act)
    thetas = valley_layouts()["F"]
    with np.errstate(all="ignore"):
        L, G = inst.loss(thetas), inst.grad(thetas)
        for i, th in enumerate(thetas):
            assert np.float64(inst.loss(th)).tobytes() == L[i].tobytes()
            assert inst.grad(th).tobytes() == G[i].tobytes()


# SHA-256 of probe_valley(valley_instance(y), n_probes=20000, seed=3).to_json()
# as sorted-key JSON, pinned so that a rewrite of the objective cannot move
# the probe rounding (and with it the digests replay compares) silently
PROBE_DIGESTS = {
    STRICT_Y: "b1f1b995c7142dbf46e0d02285db0f50184ccff5c6d21cbd50072510ea92a06a",
    EXPERIMENT_Y: "12b6ea099ae2b24be8b8c06bb69efc5ab37883905de78ab489518ea9e9d252a0",
}


@pytest.mark.parametrize("y", list(PROBE_DIGESTS), ids=["strict", "experiment"])
def test_valley_probe_report_is_pinned(y):
    report = probe_valley(valley_instance(y), n_probes=20000, seed=3).to_json()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == PROBE_DIGESTS[y], report


@pytest.mark.parametrize("y,least", [("1e8,2e8,9e8,2e8", "230"), ("1e6,2e6,9e6,2e6", "1.8")])
def test_verify_names_the_least_radius_that_resolves_the_line_test(tmp_path, monkeypatch, capsys,
                                                                  y, least):
    # the line test's least step, radius/20 along w4, raises the loss by
    # (radius/20 sigma(w7))^2: at the default radius that is below one ulp
    # of y4^2, and the valley would read falsified with no probe below it
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "ss-valley", "--y", y, "--probes", "10"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: probe radius 0.05 cannot resolve the line test at valley loss ")
    assert cap.err.endswith(f"; the least radius that does is {least}\n")
    assert cap.err.count("\n") == 1
    assert not list(tmp_path.iterdir())  # no manifest
    assert main(["verify", "ss-valley", "--y", y, "--probes", "10", "--radius", least, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_probe_valley_rejects_a_radius_just_below_the_least():
    inst = valley_instance((1e6, 2e6, 9e6, 2e6))
    s7 = float(inst.activation(inst.valley_theta[6]))
    least = 20 * math.sqrt(4 * math.ulp(inst.valley_loss)) / s7
    assert probe_valley(inst, n_probes=10, radius=least).line_strict_ok
    with pytest.raises(ValueError, match="least radius that does is 1.8$"):
        probe_valley(inst, n_probes=10, radius=least * (1 - 1e-9))


def test_probe_valley_names_no_radius_when_every_resolving_one_overflows():
    # y4^2 is the largest float below the overflow: the least radius that
    # resolves the line test, 1.2e148, already lifts a corner's loss past it,
    # so the default radius and that one are both refused without a radius named
    inst = valley_instance((1.0, 2.0, 9.0, math.sqrt(np.finfo(float).max)))
    for radius in (0.05, 1.2e148):
        with pytest.raises(ValueError, match="^no probe radius both resolves the line test and "
                                             "keeps the probe losses finite at valley loss "
                                             f"{re.escape(repr(inst.valley_loss))}$"):
            probe_valley(inst, n_probes=10, radius=radius)


# payload_sha256 of `verify ss-valley --y Y --json`, the same as before the
# radius check: a radius that resolves the line test keeps its bytes
RESOLVED_PAYLOADS = {
    "1,2,9,2": "6cb59f75a368a3b032eaa60969e356b93bfca0923d4522a82732e4203f54213c",
    "1e4,2e4,9e4,2e4": "c1258af47d5eedab3db2f246df04302a39f43a4853a7f9a31898711c2c5f2393",
}


@pytest.mark.parametrize("y", list(RESOLVED_PAYLOADS))
def test_verify_payload_of_a_resolved_radius_is_pinned(tmp_path, monkeypatch, capsys, y):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "ss-valley", "--y", y, "--json"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "verify.manifest.json").read_text())
    assert manifest["payload_sha256"] == RESOLVED_PAYLOADS[y]


# (instance, option, a value past the bound, the bound named, the next
# two-digit value past it): the line test cannot show its least step (the
# 4-ulp rule), or the probe losses can overflow
VALLEY_BOUNDS = {
    "scale-1e7": ("cnn-same-valley", "--scale", "1e7", "the largest scale that does is 670000",
                  "680000"),
    "scale-1e6": ("cnn-same-valley", "--scale", "1e6", "the largest scale that does is 670000",
                  "680000"),
    "scale-1e-160": ("cnn-same-valley", "--scale", "1e-160",
                     "the least scale that does not is 4.3e-155", "4.2e-155"),
    "radius-1e154": ("ss-valley", "--radius", "1e154",
                     "the largest radius that does not is 4.2e+153", "4.3e153"),
    "radius-1e160": ("ss-valley", "--radius", "1e160",
                     "the largest radius that does not is 4.2e+153", "4.3e153"),
}


@pytest.mark.parametrize("instance,option,value,named,beyond", list(VALLEY_BOUNDS.values()),
                         ids=list(VALLEY_BOUNDS))
def test_verify_names_a_valley_bound_that_verifies(tmp_path, monkeypatch, capsys,
                                                   instance, option, value, named, beyond):
    # a value the probes cannot judge is bad input, exit 2 before any probe,
    # not exit 1 ("falsified"); the bound it names verifies, and the next
    # two-digit value past that bound is rejected too
    monkeypatch.chdir(tmp_path)
    for v in (value, beyond):
        assert main(["verify", instance, option, v]) == 2
        cap = capsys.readouterr()
        assert cap.out == "" and cap.err.startswith("error: ") and cap.err.count("\n") == 1
        assert cap.err.endswith(f"; {named}\n"), cap.err
    assert not list(tmp_path.iterdir())  # no manifest
    bound = named.rsplit(" ", 1)[1]
    assert main(["verify", instance, option, bound, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def test_the_largest_conv_scale_shows_its_least_step():
    # at the largest scale probe_conv_valley admits, the loss the line test
    # reads at its least step is at least 4 ulps above 1/2, and one past it
    # is rejected
    inst = conv_valley_instance(671088.0)
    assert probe_conv_valley(inst, n_probes=20).ok
    step = np.zeros(6)
    step[4] = CONV_RADIUS / 20
    assert inst.loss(inst.valley_point() + step) - 0.5 >= 4 * math.ulp(0.5)
    with pytest.raises(ValueError, match="largest scale that does is 670000$"):
        probe_conv_valley(conv_valley_instance(671089.0), n_probes=20)


@pytest.mark.parametrize("a,message", [
    (1e7, "scale 10000000.0 cannot resolve the line test at valley loss 0.5: its least step "
          "raises the loss by 2e-18, below 4 ulps; the largest scale that does is 670000"),
    (1e-160, "scale 1e-160 lets the probe losses overflow; the least scale that does not is "
             "4.3e-155"),
], ids=["1e7", "1e-160"])
def test_probe_conv_valley_rejects_a_scale_it_cannot_judge(monkeypatch, a, message):
    # a library call judges its scale before any draw, as verify does: a true
    # valley is not reported as falsified
    def no_draw(*args, **kwargs):
        raise AssertionError("drew probes")

    monkeypatch.setattr(counterexamples, "_probe", no_draw)
    with pytest.raises(ValueError) as ei:
        probe_conv_valley(conv_valley_instance(a))
    assert str(ei.value) == message


def test_verify_cnn_default_payload_is_pinned(tmp_path, monkeypatch, capsys):
    # payload_sha256 of `verify cnn-same-valley --json` at its default
    # scales, the same as before the scale bounds (ss-valley's at the
    # default radius is RESOLVED_PAYLOADS["1,2,9,2"])
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "cnn-same-valley", "--json"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "verify.manifest.json").read_text())
    assert manifest["payload_sha256"] == \
        "8ebde436d7b3d50133620ee85a5a0d0673e0583ef1abddf34d240809b9a49ede"


def test_valley_probe_holds():
    inst = valley_instance(STRICT_Y)
    rep = probe_valley(inst, n_probes=5000, seed=3)
    assert rep.ok
    assert rep.falsifications == 0
    assert rep.line_strict_ok
    assert rep.min_excess >= -1e-10
    blob = rep.to_json()
    assert blob["ok"] is True and blob["n_probes"] == 5000


def test_valley_as_network_half_loss():
    # the valley's 3-2-3 masked net: first layer rows (w5, w6, 0), (0, w7, w8),
    # second layer [[w1, 0], [w2, w3], [0, w4]].  Its theta holds the first
    # layer's weights row-major, then the second's, so the unmasked entries
    # are (w5, ..., w8, w1, ..., w4) in order.  The network loss is
    # 0.5 ||.||_F^2 while the instance uses the unscaled square, so the two
    # differ by exactly a factor 2
    inst = valley_instance(STRICT_Y)
    masks = (np.array([[1, 1, 0], [0, 1, 1]], dtype=bool),
             np.array([[1, 0], [1, 1], [0, 1]], dtype=bool))
    blank = SparseNet(tuple(SparseLayer(np.zeros(m.shape), m) for m in masks), inst.activation)
    on_mask = np.concatenate([m.ravel() for m in masks])
    X = np.eye(3)
    y1, y2, y3, y4 = inst.y
    Y = np.array([[y1, y1, 0.0], [y2, y2 + y3, 0.0], [0.0, 0.0, y4]])
    for th in (inst.valley_theta, inst.escape_theta):
        theta = np.zeros(blank.n_params)
        theta[on_mask] = np.concatenate([th[4:], th[:4]])
        net = blank.with_theta(theta)
        assert net.layers[1].weights[1].tolist() == [th[1], th[2]]  # w2, w3
        assert net_loss(net, X, Y) == pytest.approx(inst.loss(th) / 2, rel=1e-13)


def test_trial_objective_classification():
    inst = valley_instance(EXPERIMENT_Y)
    assert inst.init_bounds.shape == (8,)
    at_valley = inst.valley_theta.copy()
    assert inst.classify(4.0, at_valley) == "valley"
    assert inst.classify(4.0 * 1.0005, at_valley) == "valley"    # inside 1e-3 rel
    off = at_valley.copy()
    off[3] = 0.01                                                 # w4 too large
    assert inst.classify(4.0, off) == "other"
    assert inst.classify(3.0, off) == "escaped"                   # > 5% below
    assert inst.classify(3.99, off) == "other"
    # fan-in init bounds: 1/sqrt(2) for output entries, 1/sqrt(3) for hidden
    assert np.allclose(inst.init_bounds[:4], 1 / math.sqrt(2), atol=0)
    assert np.allclose(inst.init_bounds[4:], 1 / math.sqrt(3), atol=0)


# ---------------------------------------------------------------------------
# SAME-mode convolution valley
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_conv_valley_exact_levels(a):
    inst = conv_valley_instance(a)
    assert inst.loss(inst.valley_point()) == 0.5        # exact float equality
    assert inst.loss(inst.global_witness()) == 0.0
    with pytest.raises(ValueError, match="a > 0"):
        conv_valley_instance(-1.0)


@pytest.mark.parametrize("target,name,value,problems", [
    (ConvValleyInstance, "valley_point", lambda self: np.zeros(6),
     ["valley loss at a=1.0 is 8.5, expected exactly 0.5"]),
    (ConvValleyInstance, "global_witness", lambda self: np.zeros(6),
     ["global witness loss 8.5 not < 1e-20"]),
    (counterexamples, "conv_matrix", lambda spec: conv_matrix(spec).T,
     ["conv matrix layout unexpected: [[1.0, 0.0], [2.0, 1.0]]"]),
], ids=["valley-level", "witness", "conv-layout"])
def test_conv_valley_builder_names_the_broken_identity(monkeypatch, target, name, value, problems):
    monkeypatch.setattr(target, name, value)
    with pytest.raises(ConstructionError) as ei:
        conv_valley_instance()
    assert str(ei.value) == "conv valley failed validation: " + "; ".join(problems)


def test_conv_valley_loss_matches_dense_route():
    inst = conv_valley_instance()
    r = np.random.default_rng(5)
    for _ in range(20):
        th = r.standard_normal(6)
        U = th[:4].reshape(2, 2)
        F = conv_matrix(ConvSpec(th[4:], 2, "same"))
        want = 0.5 * np.sum((U @ F - np.diag([1.0, 4.0])) ** 2)
        assert inst.loss(th) == pytest.approx(want, rel=1e-13)
        assert np.array_equal(inst.f(th[4:]), F)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_conv_valley_probe(a):
    rep = probe_conv_valley(conv_valley_instance(a), n_probes=2000, seed=1)
    assert rep.ok
    assert rep.falsifications == 0
    assert rep.min_excess >= -1e-12
    assert rep.line_strict_ok  # kernel-tap perturbations strictly increase


# ---------------------------------------------------------------------------
# probes in blocks
# ---------------------------------------------------------------------------

N_BLOCKED = 2 * PROBE_BLOCK + 3  # two full blocks and a partial one


def _one_batch(loss, theta, level, deltas, tol):
    """(min_excess, falsifications) of every delta evaluated at once."""
    losses = loss(theta + deltas)
    excess = losses - level
    return float(np.min(excess)), int(np.count_nonzero(~np.isfinite(losses) | (excess < -tol)))


@pytest.mark.parametrize("y,radius", [(STRICT_Y, 0.05), (EXPERIMENT_Y, 0.5)])
def test_valley_probe_blocks_equal_one_batch(y, radius):
    inst = valley_instance(y)
    rep = probe_valley(inst, n_probes=N_BLOCKED, radius=radius, seed=4)
    theta, act = inst.valley_theta, inst.activation
    deltas = np.random.default_rng(4).uniform(-radius, radius, size=(N_BLOCKED, 8))
    deltas[:, 2] = np.clip(deltas[:, 2], -abs(theta[2]) / 2, abs(theta[2]) / 2)
    s7 = float(act(theta[6]))
    for _ in range(60):
        bad = np.abs(act(theta[6] + deltas[:, 6]) - s7) > abs(s7) / 2
        if not bad.any():
            break
        deltas[bad, 6] *= 0.5
    assert rep.n_probes == N_BLOCKED
    assert (rep.min_excess, rep.falsifications) == _one_batch(
        inst.loss, theta, inst.valley_loss, deltas, 1e-10)


def _conv_deltas(a, n, seed):
    """The n probe deltas probe_conv_valley draws at scale a, in one batch."""
    deltas = np.random.default_rng(seed).uniform(-CONV_RADIUS, CONV_RADIUS, size=(n, 6))
    deltas[:, 1] = np.clip(deltas[:, 1], -0.25 / a, 0.25 / a)
    deltas[:, 2] = np.clip(deltas[:, 2], -0.5 / a, 0.5 / a)
    deltas[:, 5] = np.clip(deltas[:, 5], -0.1 * a, 0.1 * a)
    return deltas


def _conv_probe(a, deltas):
    """_probe with the conv loss at scale a, fed deltas in blocks."""
    inst = ConvValleyInstance(a=a)
    blocks = iter(np.split(deltas, range(PROBE_BLOCK, len(deltas), PROBE_BLOCK)))
    return counterexamples._probe(inst.loss, inst.valley_point(), inst.valley_loss,
                                  lambda k: next(blocks), len(deltas), 1e-12, coord=4,
                                  radius=CONV_RADIUS)


@pytest.mark.parametrize("a", [0.5, 2.0, 1e-155])
def test_conv_probe_blocks_equal_one_batch(a):
    # at a = 1e-155 about two thirds of the probe losses overflow to inf:
    # _probe counts each as a falsification, and probe_conv_valley rejects
    # the scale before it draws
    inst = ConvValleyInstance(a=a)
    deltas = _conv_deltas(a, N_BLOCKED, seed=4)
    with np.errstate(over="ignore"):
        rep = _conv_probe(a, deltas)
        want = _one_batch(inst.loss, inst.valley_point(), inst.valley_loss, deltas, 1e-12)
    assert (rep.min_excess, rep.falsifications) == want
    assert (rep.falsifications > 0) == (a == 1e-155) == (not rep.ok)
    if a == 1e-155:
        with pytest.raises(ValueError, match="overflow"):
            probe_conv_valley(inst, n_probes=N_BLOCKED, seed=4)
    else:
        assert probe_conv_valley(inst, n_probes=N_BLOCKED, seed=4) == rep


def test_conv_probe_non_finite_losses_falsify():
    # every probe loss overflows at a = 1e-300: no evidence, so no certificate
    with np.errstate(over="ignore"):
        rep = _conv_probe(1e-300, _conv_deltas(1e-300, 50, seed=0))
    assert rep.falsifications == 50
    assert not rep.line_strict_ok and not rep.ok
    assert rep.min_excess == np.inf
    blob = _finite_json(rep.to_json())
    assert blob["min_excess"] is None
    assert "Infinity" not in json.dumps(blob)


CERTIFY = {
    "valley": lambda n: probe_valley(valley_instance(STRICT_Y), n_probes=n),
    "conv-valley": lambda n: probe_conv_valley(conv_valley_instance(), n_probes=n),
    "minimum": lambda n: verify_spurious_minimum(spurious_minimum_instance(), n_probes=n),
}


def _traced_peak(certify, n_probes) -> int:
    """The most bytes held at once while certify(n_probes) runs, as
    tracemalloc counts them; it sees numpy's buffers."""
    tracemalloc.start()
    try:
        certify(n_probes)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name,n_probes", [
    ("valley", 400_000), ("conv-valley", 400_000), ("minimum", 100_000)], ids=list(CERTIFY))
def test_probe_memory_does_not_grow_with_probes(name, n_probes):
    # a (n_probes, P) stack would add megabytes
    certify = CERTIFY[name]
    small, large = _traced_peak(certify, n_probes // 10), _traced_peak(certify, n_probes)
    assert large - small <= 2 ** 20, (small, large)


@pytest.mark.parametrize("name", list(CERTIFY))
def test_probe_memory_is_bounded_at_two_blocks(name):
    # the temporaries of one block bound the peak: 0.35-0.67 MiB at blocks of
    # 2048 rows, 0.94-2.6 MiB at 8192
    peak = _traced_peak(CERTIFY[name], 2 * PROBE_BLOCK + 3)
    assert peak <= 7 * 2 ** 17, peak  # 7/8 MiB
