"""Certified bad points of masked-network objectives.

Three constructions, each self-validating (the builders recompute the
defining identities and abort on any mismatch rather than hand out an
unverified instance):

* a spurious strict local minimum of a two-group masked linear net
  (dense output layer, loss 0.5 ||.||_F^2);
* a spurious valley of a 3-input/2-hidden/3-output net with both layers
  masked (unscaled ||.||_F^2 loss, so the valley level is y4^2 on the nose);
* a spurious valley of a single-channel length-2 SAME-mode conv layer
  (loss 0.5 ||.||_F^2, valley level exactly 1/2).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .activations import Activation
from .calculus import (
    PROBE_BLOCK,
    TwoLayerLinearInstance,
    StationaryReport,
    classify_stationary,
    hessian_two_layer_linear,
)
from .convmodes import ConvSpec, conv_matrix


class ConstructionError(ValueError):
    """A certified instance failed its own defining identities."""


# ---------------------------------------------------------------------------
# spurious strict minimum (masked linear, dense output layer)
# ---------------------------------------------------------------------------

_SQ = math.sqrt
Z1_REF = np.array([[_SQ(0.9), 0.0, _SQ(0.1), 0.0], [0.0, _SQ(0.8), 0.0, _SQ(0.2)]])
Z2_REF = np.array([[_SQ(0.1), 0.0, _SQ(0.9), 0.0], [0.0, _SQ(0.2), 0.0, _SQ(0.8)]])
A1_REF = np.array([[7 / 8, 7 / 9], [3 / 4, 5 / 3]])
A2_REF = np.array([[15 / 8, 16 / 9], [7 / 4, 11 / 3]])

RESIDUAL_Z1_REF = np.array([[-0.4, 0.4], [0.4, -0.4]])
RESIDUAL_Z2_REF = np.array([[-0.8, 0.4], [0.4, -0.2]])
MIN_LOSS_REF = 221.0 / 360.0
BETTER_LOSS_BOUND = 0.572

HESSIAN_REF = np.array([
    [2.0, 0.0, 0.6, 1.4, 2.2, 0.0, 0.6, 0.8],
    [0.0, 2.0, 1.4, 0.6, 0.0, 2.2, 1.2, 1.6],
    [0.6, 1.4, 2.0, 0.0, 0.6, 0.6, 1.8, 0.0],
    [1.4, 0.6, 0.0, 2.0, 1.6, 1.6, 0.0, 2.4],
    [2.2, 0.0, 0.6, 1.6, 5.0, 0.0, 0.2, 2.4],
    [0.0, 2.2, 0.6, 1.6, 0.0, 5.0, 2.4, 3.8],
    [0.6, 1.2, 1.8, 0.0, 0.2, 2.4, 5.0, 0.0],
    [0.8, 1.6, 0.0, 2.4, 2.4, 3.8, 0.0, 5.0],
])
EIGENVALUES_REF = (0.0, 0.0, 0.0997, 1.2886, 1.8647, 5.2568, 7.1369, 12.3533)


@dataclass(frozen=True)
class SpuriousMinimumInstance:
    """The grouped instance, its certified minimum and a strictly better point.

    Two groups of one neuron each: U_i is (2, 1), W_i is (1, 2) and Z_i is
    (2, 4), so theta = (u1, w1, u2, w2) in R^8.
    """

    minimum: TwoLayerLinearInstance  # the objective
    theta: np.ndarray                # the certified minimum
    theta_prime: np.ndarray          # a strictly better point elsewhere


def spurious_minimum_instance() -> SpuriousMinimumInstance:
    """Build and self-validate the certified strict-minimum instance.

    The target is Y = A1 Z1 + A2 Z2 for fixed rational A1, A2; the data
    groups are orthonormal within themselves and correlated across
    (Z1 Z2^T = diag(0.6, 0.8)), which is what pins the gradient to zero
    at theta while leaving room for a strictly better point.
    """
    minimum = TwoLayerLinearInstance((Z1_REF, Z2_REF), (1, 1), A1_REF @ Z1_REF + A2_REF @ Z2_REF)
    theta = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0, 2.0])  # u1 = w1 = (1, 1), u2 = w2 = (1, 2)
    theta_prime = np.array([0.25, 1.0, 0.65, 2.2, 0.8, 1.0, 2.2, 2.9])

    problems = []

    def check(name, got, want, tol):
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        if err > tol:
            problems.append(f"{name}: max deviation {err:.3e} > {tol:.0e}")

    z1, z2 = minimum.zs
    I2 = np.eye(2)
    check("Z1 Z1^T = I", z1 @ z1.T, I2, 1e-12)
    check("Z2 Z2^T = I", z2 @ z2.T, I2, 1e-12)
    check("Z1 Z2^T = diag(0.6, 0.8)", z1 @ z2.T, np.diag([0.6, 0.8]), 1e-12)

    R = minimum.residual_at(theta)
    check("R Z1^T", R @ z1.T, RESIDUAL_Z1_REF, 1e-12)
    check("R Z2^T", R @ z2.T, RESIDUAL_Z2_REF, 1e-12)
    check("loss at theta", minimum.loss_at(theta), MIN_LOSS_REF, 1e-12)

    loss_prime = minimum.loss_at(theta_prime)
    if not (loss_prime < BETTER_LOSS_BOUND < MIN_LOSS_REF):
        problems.append(
            f"better point: loss {loss_prime!r} must be < {BETTER_LOSS_BOUND} < {MIN_LOSS_REF!r}"
        )

    if problems:
        raise ConstructionError("minimum instance failed validation: " + "; ".join(problems))
    return SpuriousMinimumInstance(minimum, theta, theta_prime)


@dataclass(frozen=True)
class MinimumVerification:
    report: StationaryReport
    checks: dict  # check name -> bool, in payload order
    details: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            **self.checks,
            "passed": self.passed,
            "report": self.report.to_json(),
            "details": {k: float(v) for k, v in self.details.items()},
        }


def verify_spurious_minimum(inst: SpuriousMinimumInstance, n_probes: int = 500,
                            seed: int = 0) -> MinimumVerification:
    """Re-derive every certified property of the minimum instance."""
    minimum, theta = inst.minimum, inst.theta
    H = hessian_two_layer_linear(minimum, theta)
    report = classify_stationary(minimum.loss_at, theta, minimum.value_and_grad_at(theta)[1], H,
                                 n_probes=n_probes, seed=seed)
    evals = report.eigenvalues
    hess_err = float(np.max(np.abs(H - HESSIAN_REF)))
    eig_err = float(np.max(np.abs(evals - np.asarray(EIGENVALUES_REF))))
    loss_prime = minimum.loss_at(inst.theta_prime)
    loss_theta = minimum.loss_at(theta)
    return MinimumVerification(
        report=report,
        checks={
            "grad_zero": report.grad_norm < 1e-10,
            "hessian_match": hess_err < 1e-12,
            "hessian_psd": bool(evals[0] >= -1e-8 * max(1.0, float(evals[-1]))),
            "eigs_match": eig_err <= 1e-3,
            "strict_probe_pass": report.min_probe == "strict_local_min",
            "better_point_exists": bool(loss_prime < BETTER_LOSS_BOUND < loss_theta),
        },
        details={
            "hessian_max_err": hess_err,
            "eig_max_err": eig_err,
            "loss_theta": loss_theta,
            "loss_theta_prime": loss_prime,
            "grad_norm": report.grad_norm,
        },
    )


# ---------------------------------------------------------------------------
# spurious valley (both layers masked)
# ---------------------------------------------------------------------------

# STRICT_Y satisfies every recorded y-constraint;
# EXPERIMENT_Y trips "y3 > 4*y4" but still builds (flag-only).
STRICT_Y = (1.0, 2.0, 9.0, 2.0)
EXPERIMENT_Y = (1.0, 2.0, 6.0, 2.0)

# the rows of w = theta[:4] and of s = sigma(theta[4:]) whose products fill
# the slots of the valley's residual table
_W_ROWS = np.array([0, 0, 1, 1, 2, 2, 3, 3])
_S_ROWS = np.array([0, 1, 0, 1, 2, 3, 2, 3])


@dataclass(frozen=True)
class SpuriousValleyInstance:
    """8-parameter masked 2-layer net on X = I_3 with an unscaled
    squared-Frobenius loss.

    theta = (w1, w2, w3, w4, w5, w6, w7, w8): first layer rows
    (w5, w6, 0), (0, w7, w8); second layer [[w1, 0], [w2, w3], [0, w4]].
    On the valley (w4 = 0 branch) the loss is pinned at y4^2 while a
    disconnected region reaches y1^2 (y3 / (y2+y3))^2 < y4^2.
    """

    y: tuple
    activation: Activation
    valley_theta: np.ndarray
    escape_theta: np.ndarray
    constraints: dict
    # the targets of _residuals' table (slot 4 holds no residual), kept at the
    # width of the last table: a same-shape subtraction skips numpy's
    # broadcasting set-up, which costs more than the arithmetic at trial widths
    _targets: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # (theta, loss) of the last grad call, for a loss call on that same array
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def valley_loss(self) -> float:
        return self.y[3] ** 2

    @property
    def escape_loss(self) -> float:
        y1, y2, y3, _ = self.y
        return y1 ** 2 * (y3 / (y2 + y3)) ** 2

    @property
    def constraints_ok(self) -> bool:
        return all(self.constraints.values())

    @property
    def init_bounds(self) -> np.ndarray:
        """Fan-in bounds of a trial's uniform start: 1/sqrt(2) for the
        second layer's w1..w4, 1/sqrt(3) for the first layer's w5..w8."""
        return np.array([1 / math.sqrt(2)] * 4 + [1 / math.sqrt(3)] * 4)

    def classify(self, final_loss: float, theta: np.ndarray) -> str:
        """A trial's label: "valley" when the final loss sits at y4^2 (1e-3
        relative) with |w4| <= 1e-4; "escaped" when the loss is at least 5%
        below y4^2; "other" otherwise."""
        y4sq = self.valley_loss
        if abs(final_loss - y4sq) <= 1e-3 * y4sq and abs(theta[3]) <= 1e-4:
            return "valley"
        if final_loss < y4sq * 0.95:
            return "escaped"
        return "other"

    def _residuals(self, c, s):
        """The (8, n) residual table r of M(theta) - Y for coordinate-major
        rows c (8, n) and s = sigma(c[4:]) (4, n), with the gathered rows it
        is made of: with w = c[:4], slot m holds w[_W_ROWS[m]] s[_S_ROWS[m]] -
        target, and w2 s6 + w3 s7 in slot 3.  So r11, r12, r21, r22, r23, r32,
        r33 are the slots 0, 1, 2, 3, 5, 6 and 7; slot 4 holds w3 s7, no
        residual.  Returns (r, w[_W_ROWS], s[_S_ROWS]), three C-order (8, n)
        tables joined by one same-shape multiply: at trial widths a gather or
        such a multiply costs a fraction of a broadcasting one.  With the kept
        targets that is 8 x PROBE_BLOCK floats per table for a probe block."""
        n = c.shape[1]
        w, s = c.take(_W_ROWS, axis=0), s.take(_S_ROWS, axis=0)
        r = w * s
        r[3] += r[4]
        t = self._targets
        if t is None or t.shape[-1] != n:
            y1, y2, y3, y4 = self.y
            t = np.repeat([y1, y1, y2, y2 + y3, 0.0, 0.0, 0.0, y4], n).reshape(8, n)
            object.__setattr__(self, "_targets", t)
        r -= t
        return r, w, s

    @staticmethod
    def _value(r, shape):
        """The loss of a residual table: the seven squares added in order, one
        row at a time (a reduce over the table may sum pairwise, and then a
        row's loss would depend on the batch), shaped to theta's leading axes."""
        q = np.square(r)
        L = q[0] + q[1]
        for k in (2, 3, 5, 6, 7):
            L += q[k]
        L = L.reshape(shape)
        return L if L.ndim else float(L)

    def loss(self, theta) -> np.ndarray | float:
        """Unscaled ||M(theta) - Y||_F^2, broadcasting over leading axes.

        Called on the very array object the last grad call took, it returns
        the loss that call computed, once: a trial epoch computes its
        gradient and then its loss at the same point, and so makes one sigma
        pass and one table.  theta must not change in between."""
        kept = self._kept
        if kept is not None:
            object.__setattr__(self, "_kept", None)
            if kept[0] is theta:
                return kept[1]
        th = np.asarray(theta, dtype=float)
        c = th.reshape(-1, 8).T
        return self._value(self._residuals(c, self.activation(c[4:]))[0], th.shape[:-1])

    def grad(self, theta) -> np.ndarray:
        """The gradient of loss; the loss value is kept for a loss call on theta."""
        th = np.asarray(theta, dtype=float)
        c = th.reshape(-1, 8).T
        n = c.shape[1]
        s, ds = self.activation.value_and_derivative(c[4:])
        r, w, s = self._residuals(c, s)
        object.__setattr__(self, "_kept", (theta, self._value(r, th.shape[:-1])))
        r[4] = r[3]  # r22 enters both the w3 and the s7 pair
        g = np.empty((8, n))
        rs = (r * s).reshape(4, 2, n)
        np.add(rs[:, 0], rs[:, 1], out=g[:4])  # dL/dw: pairs over s
        rw = (r * w).reshape(2, 2, 2, n)
        np.add(rw[:, 0], rw[:, 1], out=g[4:].reshape(2, 2, n))  # dL/ds: pairs over w
        g[4:] *= ds
        g *= 2  # the d/dM factor, applied once: doubling is exact
        return g.T.reshape(th.shape)


def valley_instance(y_values=STRICT_Y,
                    activation: Activation = Activation("tanh")) -> SpuriousValleyInstance:
    """Build and self-validate the two-layer valley instance.

    Requires sigma(0) = 0, y2 + y3 != 0, and the scale targets 1/a and
    y2 / ((y2 + y3) a) in sigma's range.  The y-constraints (y3 > 4 y4 >
    4 y1 > 0, y2 > 0) are recorded as booleans.  A set that violates them
    still builds (the probes' lower bound is then not guaranteed), so that
    measured/legacy value sets stay usable, unless y4 > y1 holds and the
    ordering escape < y1^2 < y4^2 fails: that raises ConstructionError.  So
    (1, 2, 3, 2) and (1, -2, 9, 0.5) build, while (1, -2, 9, 2), whose y2 < 0
    lifts the escape level above y1^2, and (0, 2, 9, 2) are rejected.
    """
    y1, y2, y3, y4 = (float(v) for v in y_values)
    if y2 + y3 == 0.0:
        raise ConstructionError(f"valley construction needs y2 + y3 != 0, got {y2} + {y3}")
    if float(activation(0.0)) != 0.0:
        raise ConstructionError(f"valley construction needs sigma(0) = 0, "
                                f"got {activation(0.0)} for {activation.kind}")

    # a: the least power of two with 1/a in sigma's range (1 when none up to
    # 2^63 is, which the check below rejects)
    a = next((2.0 ** k for k in range(64) if activation.inverse(2.0 ** -k) is not None), 1.0)
    targets = (1.0 / a, y2 / ((y2 + y3) * a))
    z1, z2 = zs = [activation.inverse(t) for t in targets]
    for target, z in zip(targets, zs):
        if z is None:
            raise ConstructionError(f"no valid scale: {target} outside range of {activation.kind}")

    valley_theta = np.array([y1 * a, y2 * a, y3 * a, 0.0, z1, z1, z1, 0.0])
    escape_theta = np.array([y1 * a, (y2 + y3) * a, 0.0, y4 * a, z2, z1, 0.0, z1])
    constraints = {
        "y1 > 0": y1 > 0,
        "y2 > 0": y2 > 0,
        "y4 > y1": y4 > y1,
        "y3 > 4*y4": y3 > 4 * y4,
    }
    inst = SpuriousValleyInstance(
        y=(y1, y2, y3, y4), activation=activation,
        valley_theta=valley_theta, escape_theta=escape_theta, constraints=constraints,
    )
    for level in ("valley loss", "escape loss"):
        try:
            getattr(inst, level.replace(" ", "_"))
        except OverflowError:  # a float ** raises where * would give inf
            raise ConstructionError(f"valley construction needs a finite {level}, "
                                    f"got an overflow at y = {inst.y}") from None

    # Each of the seven residuals at the two points rounds by up to about
    # e = 4 max|y| eps (a sigma(sigma^-1(1/a)) is 1 within an ulp or two),
    # which moves a loss L by up to 2 e sqrt(7 L) + 7 e^2.
    e = 4.0 * max(abs(v) for v in inst.y) * math.ulp(1.0)

    def off(got, level):  # a loss that is not finite is off
        tol = max(1e-12 * max(1.0, level), 2 * e * math.sqrt(7 * level) + 7 * e * e)
        return not (math.isfinite(got) and abs(got - level) <= tol)

    problems = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        lv, le = inst.loss(valley_theta), inst.loss(escape_theta)
    if off(lv, inst.valley_loss):
        problems.append(f"valley loss {lv!r} != y4^2 = {inst.valley_loss!r}")
    if off(le, inst.escape_loss):
        problems.append(f"escape loss {le!r} != {inst.escape_loss!r}")
    if inst.constraints["y4 > y1"] and not (inst.escape_loss < y1 ** 2 < inst.valley_loss):
        problems.append("ordering escape < y1^2 < y4^2 failed")
    if problems:
        raise ConstructionError("valley instance failed validation: " + "; ".join(problems))
    return inst


@dataclass(frozen=True)
class ValleyProbeReport:
    n_probes: int
    radius: float
    min_excess: float          # min over probes of loss - valley loss
    falsifications: int        # probes more than a tolerance below the valley loss
    line_strict_ok: bool       # moving w4 alone (conv: the kernel's w1) strictly increases

    @property
    def ok(self) -> bool:
        return self.falsifications == 0 and self.line_strict_ok

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def probe_valley(inst: SpuriousValleyInstance, n_probes: int = 1000,
                 radius: float = 0.05, seed: int = 0) -> ValleyProbeReport:
    """Random bounded perturbations around the valley point.

    The guarantee needs |delta_3| <= |w3|/2 and sigma(w7 + delta_7) within
    a factor 2 of sigma(w7); deltas are clipped/shrunk into that set.  The
    lower bound only holds for constraint-satisfying y-values.  The line
    test's least step, radius/20 along w4, raises the loss by
    (radius/20 sigma(w7))^2; a radius whose rise is below 4 ulps of the
    valley loss cannot show it, and one whose probe losses can overflow
    (_corner_losses_finite) shows nothing: each raises ValueError naming a
    radius that works, or saying that none does.
    """
    theta = inst.valley_theta
    act = inst.activation
    w3 = theta[2]
    s7 = float(act(theta[6]))
    level = inst.valley_loss
    least = 20 * math.sqrt(4 * math.ulp(level)) / abs(s7)

    def finite(r):
        return _corner_losses_finite(inst.loss, theta, r)

    if not finite(least):  # a larger box holds this one, so it overflows too
        raise ValueError(f"no probe radius both resolves the line test and keeps the probe "
                         f"losses finite at valley loss {level!r}")
    if radius < least:
        raise ValueError(f"probe radius {radius!r} cannot resolve the line test at valley loss "
                         f"{level!r}: its least step raises the loss by "
                         f"{(radius / 20 * s7) ** 2:.3g}, below 4 ulps; the least radius that "
                         f"does is {_two_digits(least, up=True):g}")
    if not finite(radius):
        raise ValueError(f"probe radius {radius!r} lets the probe losses overflow at valley loss "
                         f"{level!r}; the largest radius that does not is "
                         f"{_edge(finite, least, radius):g}")
    rng = np.random.default_rng(seed)

    def draw(k):
        deltas = rng.uniform(-radius, radius, size=(k, 8))
        deltas[:, 2] = np.clip(deltas[:, 2], -abs(w3) / 2, abs(w3) / 2)
        for _ in range(60):  # shrink delta_7 until sigma stays within factor 2
            bad = np.abs(np.asarray(act(theta[6] + deltas[:, 6])) - s7) > abs(s7) / 2
            if not bad.any():
                break
            deltas[bad, 6] *= 0.5
        return deltas

    return _probe(inst.loss, theta, level, draw, n_probes, 1e-10, coord=3, radius=radius)


def _corner_losses_finite(loss, theta, half_width) -> bool:
    """Whether loss is finite at each corner of the box theta +- half_width.
    A valley loss with a monotone sigma is largest over the box at a corner:
    it is a sum of squares of terms affine in each weight and in each sigma(z),
    and sigma(z) is monotone in z.  The box holds every probe, clipped or not."""
    corners = np.array(list(product((-1.0, 1.0), repeat=theta.size)))
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(loss(theta + half_width * corners)).all())


def _edge(holds, good: float, bad: float) -> float:
    """A value at which holds() holds, near its edge between good, where it
    holds, and bad, where it fails: geometric bisection to within 1%, rounded
    to two digits towards good."""
    while max(good, bad) > 1.01 * min(good, bad):
        mid = math.sqrt(good) * math.sqrt(bad)
        good, bad = (mid, bad) if holds(mid) else (good, mid)
    return _two_digits(good, up=good > bad)


def _two_digits(x: float, up: bool) -> float:
    digit = 10.0 ** (math.floor(math.log10(x)) - 1)
    return (math.ceil if up else math.floor)(x / digit) * digit


def _probe(loss, theta, level, draw, n_probes, tol, coord, radius) -> ValleyProbeReport:
    """Probe a valley point theta at loss `level` with n_probes deltas, drawn
    by draw(k) in blocks of at most PROBE_BLOCK rows: a probe theta + delta
    falsifies it when its loss is not finite or below level - tol, and the 40
    points 0 < |t| <= radius along coordinate `coord` must have finite losses
    above level."""
    min_excess, falsifications = np.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss falsifies
        for start in range(0, n_probes, PROBE_BLOCK):
            # coordinate-major rows, so the loss reads each coordinate contiguously
            losses = loss(np.add(theta[None, :], draw(min(PROBE_BLOCK, n_probes - start)), order="F"))
            excess = losses - level
            min_excess = np.minimum(min_excess, np.min(excess))  # a NaN stays
            falsifications += int(np.count_nonzero(~np.isfinite(losses) | (excess < -tol)))
        line = np.zeros((40, theta.size))
        line[:, coord] = np.linspace(-radius, radius, 41)[np.arange(41) != 20]  # skip 0
        line_losses = loss(theta[None, :] + line)
    return ValleyProbeReport(
        n_probes=n_probes,
        radius=radius,
        min_excess=float(min_excess),
        falsifications=falsifications,
        line_strict_ok=bool(np.all(np.isfinite(line_losses) & (line_losses > level))),
    )


# ---------------------------------------------------------------------------
# SAME-mode convolution valley (single channel)
# ---------------------------------------------------------------------------

CONV_TARGET = np.diag([1.0, 4.0])
CONV_RADIUS = 0.1  # probe_conv_valley: the bound of each perturbation and of its line test


@dataclass(frozen=True)
class ConvValleyInstance:
    """L(U, w) = 0.5 || U f(w) - CONV_TARGET ||_F^2 with f the SAME-mode
    conv matrix of a length-2 kernel on length-2 inputs.

    theta = (u1, u2, u3, u4, w1, w2), U row-major.  The branch w1 = 0,
    w2 = a > 0, u3 = 4/a holds the loss at exactly 1/2 under the bounded
    perturbations below, yet the witness point reaches loss 0.
    """

    a: float

    @property
    def valley_loss(self) -> float:
        return 0.5

    def f(self, w: np.ndarray) -> np.ndarray:
        return conv_matrix(ConvSpec(w, 2, "same"))

    def loss(self, theta) -> np.ndarray | float:
        th = np.asarray(theta, dtype=float)
        u = th[..., 0:4]
        w1, w2 = th[..., 4], th[..., 5]
        # entries of U @ [[w1, w2], [0, w1]] - CONV_TARGET
        r11 = u[..., 0] * w1 - CONV_TARGET[0, 0]
        r12 = u[..., 0] * w2 + u[..., 1] * w1 - CONV_TARGET[0, 1]
        r21 = u[..., 2] * w1 - CONV_TARGET[1, 0]
        r22 = u[..., 2] * w2 + u[..., 3] * w1 - CONV_TARGET[1, 1]
        L = 0.5 * (r11 ** 2 + r12 ** 2 + r21 ** 2 + r22 ** 2)
        return L if L.ndim else float(L)

    def valley_point(self) -> np.ndarray:
        return np.array([0.0, 0.0, 4.0 / self.a, 0.0, 0.0, self.a])

    def global_witness(self) -> np.ndarray:
        return np.array([1.0, 0.0, 0.0, 4.0, 1.0, 0.0])


def conv_valley_instance(a: float = 1.0) -> ConvValleyInstance:
    if a <= 0:
        raise ValueError("the valley branch needs a > 0")
    inst = ConvValleyInstance(a=float(a))
    problems = []
    with np.errstate(over="ignore", invalid="ignore"):  # a loss that is not finite fails below
        lv = inst.loss(inst.valley_point())
    if lv != 0.5:
        problems.append(f"valley loss at a={inst.a} is {lv!r}, expected exactly 0.5")
    lw = inst.loss(inst.global_witness())
    if not lw < 1e-20:
        problems.append(f"global witness loss {lw!r} not < 1e-20")
    F = inst.f(np.array([1.0, 2.0]))
    if not np.array_equal(F, np.array([[1.0, 2.0], [0.0, 1.0]])):
        problems.append(f"conv matrix layout unexpected: {F.tolist()}")
    if problems:
        raise ConstructionError("conv valley failed validation: " + "; ".join(problems))
    return inst


def probe_conv_valley(inst: ConvValleyInstance, n_probes: int = 500,
                      seed: int = 0) -> ValleyProbeReport:
    """Bounded perturbations around the SAME-mode valley point.

    Bound set: |eps_i|, |delta_i| <= 0.1 with eps_3 further clipped to
    0.5/a, eps_2 to 0.25/a and delta_2 to 0.1 a; the strict line moves
    the kernel entry w1 alone.  A scale a whose probes could not certify a
    true valley is a ValueError before any draw.
    """
    a = inst.a
    _check_conv_scale(a)
    rng = np.random.default_rng(seed)

    def draw(k):
        deltas = rng.uniform(-CONV_RADIUS, CONV_RADIUS, size=(k, 6))
        deltas[:, 1] = np.clip(deltas[:, 1], -0.25 / a, 0.25 / a)  # eps_2 (u2)
        deltas[:, 2] = np.clip(deltas[:, 2], -0.5 / a, 0.5 / a)    # eps_3 (u3)
        deltas[:, 5] = np.clip(deltas[:, 5], -0.1 * a, 0.1 * a)    # delta_2 (w2)
        return deltas

    return _probe(inst.loss, inst.valley_point(), inst.valley_loss, draw, n_probes, 1e-12,
                  coord=4, radius=CONV_RADIUS)


def _check_conv_scale(a: float) -> None:
    """Raise ValueError, naming a scale that works, when probe_conv_valley at
    scale a could not certify a true valley: the line test's least step,
    t = CONV_RADIUS/20 along w1, raises the loss by 0.5 (4 t / a)^2, which
    above a ~ 6.7e5 is below 4 ulps of 1/2, and below a ~ 4.3e-155 the probe
    losses can overflow."""
    t = CONV_RADIUS / 20
    largest = 4 * t / math.sqrt(8 * math.ulp(0.5))  # where the rise is 4 ulps
    if a > largest:
        raise ValueError(f"scale {a!r} cannot resolve the line test at valley loss 0.5: its "
                         f"least step raises the loss by {0.5 * (4 * t / a) ** 2:.3g}, below "
                         f"4 ulps; the largest scale that does is "
                         f"{_two_digits(largest, up=False):g}")

    def finite(scale):
        inst = ConvValleyInstance(a=scale)
        return _corner_losses_finite(inst.loss, inst.valley_point(), CONV_RADIUS)

    if not finite(a):
        raise ValueError(f"scale {a!r} lets the probe losses overflow; the least scale that "
                         f"does not is {_edge(finite, 1.0, a):g}")
