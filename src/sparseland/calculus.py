"""Derivatives, spectra and stationary-point classification.

The analytic gradient/Hessian here cover the grouped two-layer linear
objective

    L(U, W) = 0.5 * || sum_i U_i W_i Z_i  -  Y ||_F^2

for any number of groups, any group widths and any output dimension; that
is where the interesting certified points live.  Finite differences
(fd_gradient, fd_hessian) cross-check derivatives; classify_stationary
takes a loss's gradient and Hessian from its caller and adds direct loss
probes.

Losses broadcast over leading axes: a flat parameter vector (P,) gives a
scalar and a stack (..., P) gives shape (...), so the probes of a
classification run as batched loss calls of at most PROBE_BLOCK points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GRAD_FD_STEP = 1e-5
HESS_FD_STEP = 1e-4
NULL_TOL = 1e-6
PROBE_RADIUS = 1e-2
PROBE_BLOCK = 1 << 13  # most probe points per loss call, so memory does not grow with n_probes


def pack_blocks(blocks) -> np.ndarray:
    """Flat vectors (..., P) = concat(vec(U_1), vec(W_1), vec(U_2), ...) of
    blocks [(U_i, W_i)] with leading axes (...), each block row-major."""
    return np.concatenate([part.reshape(part.shape[:-2] + (-1,))
                           for u, w in blocks for part in (u, w)], axis=-1)


@dataclass(frozen=True)
class TwoLayerLinearInstance:
    """Data of the grouped two-layer linear objective: data blocks zs (Z_i,
    each (d_i, n)), group widths p_i and target Y (d_y, n).  The weights
    U_i (d_y, p_i) and W_i (p_i, d_i) are a flat theta in pack_blocks order."""

    zs: tuple
    widths: tuple
    Y: np.ndarray

    def __post_init__(self):
        zs = tuple(np.array(z, dtype=float, ndmin=2) for z in self.zs)
        widths = tuple(int(p) for p in self.widths)
        Y = np.array(self.Y, dtype=float, ndmin=2)
        if not zs:
            raise ValueError("need at least one group")
        if len(widths) != len(zs) or min(widths) < 1:
            raise ValueError(f"need one width >= 1 per group, got {widths} for {len(zs)} groups")
        if Y.ndim != 2 or any(z.ndim != 2 or z.shape[1] != Y.shape[1] for z in zs):
            raise ValueError(f"Y and every Z_i must be 2-d with one n, got Y {Y.shape}, "
                             f"Z {[z.shape for z in zs]}")
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "Y", Y)

    @property
    def d_y(self) -> int:
        return self.Y.shape[0]

    def blocks(self, theta) -> list:
        """[(U_i, W_i)] views of flat parameters theta (..., P), the inverse of pack_blocks."""
        theta = np.asarray(theta, dtype=float)
        shapes = [s for p, z in zip(self.widths, self.zs) for s in ((self.d_y, p), (p, z.shape[0]))]
        sizes = [a * b for a, b in shapes]
        if theta.shape[-1:] != (sum(sizes),):
            raise ValueError(f"flat vector has wrong length: shape {theta.shape}, need (..., {sum(sizes)})")
        parts = np.split(theta, np.cumsum(sizes)[:-1], axis=-1)
        parts = [part.reshape(theta.shape[:-1] + shape) for part, shape in zip(parts, shapes)]
        return list(zip(parts[0::2], parts[1::2]))

    def _residual(self, blocks) -> np.ndarray:
        """R = sum_i U_i W_i Z_i - Y for blocks [(U_i, W_i)] with leading axes (...)."""
        return sum((u @ w @ z for (u, w), z in zip(blocks, self.zs)), -self.Y)

    def residual_at(self, theta) -> np.ndarray:
        """R (..., d_y, n) at flat parameters theta (..., P)."""
        return self._residual(self.blocks(theta))

    def loss_at(self, theta):
        """Loss at flat parameters theta (..., P): shape (...), a float for 1-D theta."""
        theta = np.asarray(theta, dtype=float)
        R = self.residual_at(theta)
        loss = 0.5 * np.sum(R * R, axis=(-2, -1))
        return float(loss) if theta.ndim == 1 else loss

    def value_and_grad_at(self, theta):
        """(loss_at(theta), gradient (..., P) in pack_blocks order) at flat theta (..., P).

        With R = sum U_i W_i Z_i - Y: dU_i = R (W_i Z_i)^T, dW_i = U_i^T R Z_i^T.
        """
        theta = np.asarray(theta, dtype=float)
        blocks = self.blocks(theta)
        R = self._residual(blocks)
        loss = 0.5 * np.sum(R * R, axis=(-2, -1))
        grad = pack_blocks((R @ np.swapaxes(w @ z, -1, -2), np.swapaxes(u, -1, -2) @ R @ z.T)
                           for (u, w), z in zip(blocks, self.zs))
        return (float(loss) if theta.ndim == 1 else loss), grad


def hessian_two_layer_linear(inst: TwoLayerLinearInstance, theta) -> np.ndarray:
    """Exact Hessian at one flat point theta (P,), in pack_blocks order, for
    any number and width of groups.

    With the row-major identity vec(A B C) = (A kron C^T) vec(B), the
    Jacobian of vec(R) has the blocks [I kron (W_i Z_i)^T, U_i kron Z_i^T]
    per group, and H = J^T J plus the residual coupling <R, dU_i dW_i Z_i>
    between U_i and W_i of the same group (Magnus & Neudecker, Matrix
    Differential Calculus).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"the Hessian is taken at one point, got theta of shape {theta.shape}")
    blocks = inst.blocks(theta)
    I_dy = np.eye(inst.d_y)
    J = np.hstack([
        block
        for (u, w), z in zip(blocks, inst.zs)
        for block in (np.kron(I_dy, (w @ z).T), np.kron(u, z.T))
    ])
    H = J.T @ J
    R = inst.residual_at(theta)
    off = 0
    for (u, w), z in zip(blocks, inst.zs):
        nu, nw = u.size, w.size
        # d^2 L / dU[a, j] dW[l, k] = (R Z^T)[a, k] * [j == l]
        C = np.einsum("ak,jl->ajlk", R @ z.T, np.eye(w.shape[0])).reshape(nu, nw)
        H[off:off + nu, off + nu:off + nu + nw] += C
        H[off + nu:off + nu + nw, off:off + nu] += C.T
        off += nu + nw

    asym = np.max(np.abs(H - H.T))
    if asym > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise AssertionError(f"Hessian asymmetry {asym}")
    return H


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_gradient(f, x: np.ndarray, h: float = GRAD_FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def fd_hessian(f, x: np.ndarray, h: float = HESS_FD_STEP) -> np.ndarray:
    """Central second-difference Hessian, symmetrized."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2 * f0 + f(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4 * h**2)
            H[j, i] = H[i, j]
    return H


# ---------------------------------------------------------------------------
# spectra and stationary-point classification
# ---------------------------------------------------------------------------

def sym_eig(A: np.ndarray):
    """Eigendecomposition of a symmetric matrix, ascending eigenvalues.

    Rejects visibly asymmetric input instead of silently symmetrizing.  A
    pair (A[i, j], A[j, i]) is symmetric when it is equal (both NaN, or the
    same infinity) or within 1e-10 x the largest finite |entry|, floored at 1.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("square matrix required")
    scale = float(np.max(np.abs(A), where=np.isfinite(A), initial=1.0))
    if not np.isclose(A, A.T, rtol=0.0, atol=1e-10 * scale, equal_nan=True).all():
        raise ValueError("matrix is not symmetric")
    w, V = np.linalg.eigh(A)
    return w, V


@dataclass(frozen=True)
class StationaryReport:
    grad_norm: float
    eigenvalues: np.ndarray
    null_basis: np.ndarray  # (n, k), columns span the numerical kernel
    min_probe: str  # strict_local_min | local_min_nonstrict | saddle | inconclusive
    probe_evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The report without its null basis, an arbitrary rotation inside
        the kernel; the kernel's size is probe_evidence["null_dim"]."""
        return {
            "grad_norm": self.grad_norm,
            "eigenvalues": self.eigenvalues.tolist(),
            "min_probe": self.min_probe,
            "probe_evidence": {k: (float(v) if isinstance(v, (int, float, np.floating)) else v)
                               for k, v in self.probe_evidence.items()},
        }


def classify_stationary(loss_fn, point: np.ndarray, grad: np.ndarray, hessian: np.ndarray,
                        n_probes: int = 500, seed: int = 0) -> StationaryReport:
    """Probe-backed second-order classification of a candidate minimum.

    ``loss_fn`` must broadcast: it maps a point (P,) to a scalar and a
    stack of points (K, P) to their K losses, shape (K,); any other result
    shape raises ValueError.  ``grad`` and ``hessian`` are the gradient and
    Hessian at ``point`` (fd_gradient and fd_hessian take them by finite
    differences).  Probes evaluate the loss directly along random unit
    directions and along the numerical kernel of the Hessian (where flat
    quadratics hide quartic behavior), each at radii
    {PROBE_RADIUS, PROBE_RADIUS/10}, in blocks of at most PROBE_BLOCK points
    per loss call.  Hessian eigenvalues within NULL_TOL of the largest in
    magnitude count as zero.  The verdict is conservative: "strict_local_min"
    only if every probe strictly increased the loss, and "inconclusive" if
    the gradient norm, any Hessian entry or any probe loss is not finite.
    """
    x0 = np.asarray(point, dtype=float)
    f0 = float(loss_fn(x0))
    grad_norm = float(np.linalg.norm(np.asarray(grad, dtype=float)))
    H = np.asarray(hessian, dtype=float)
    evals, evecs = sym_eig(H)

    lam_scale = float(np.max(np.abs(evals))) if evals.size else 0.0
    null_cols = np.flatnonzero(np.abs(evals) <= NULL_TOL * max(lam_scale, 1e-300))
    null_basis = evecs[:, null_cols]

    scale = max(1.0, abs(f0))
    dec_tol = 1e-12 * scale  # any decrease beyond this kills minimality
    pos_tol = 1e-14 * scale  # strictness demands growth above noise

    radii = [PROBE_RADIUS, PROBE_RADIUS / 10.0]
    worst, finite, n_directions = np.inf, True, 0

    def probe(dirs):
        nonlocal worst, finite, n_directions
        for r in radii:
            losses = np.asarray(loss_fn(x0 + r * dirs), dtype=float)
            if losses.shape != dirs.shape[:1]:
                raise ValueError(f"loss_fn mapped probes of shape {dirs.shape} to shape "
                                 f"{losses.shape}, expected {dirs.shape[:1]}")
            deltas = losses - f0
            worst = np.minimum(worst, np.min(deltas))
            finite &= bool(np.isfinite(deltas).all())
        n_directions += len(dirs)

    # Row blocks of one default_rng draw equal the whole draw, and the minimum
    # does not depend on order: the evidence is that of a single batch.
    rng = np.random.default_rng(seed)

    def unit_rows(k, width):
        dirs = rng.standard_normal((k, width))
        return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    for start in range(0, n_probes, PROBE_BLOCK):
        probe(unit_rows(min(PROBE_BLOCK, n_probes - start), x0.size))
    # kernel directions and random kernel mixtures, both signs
    half, null_dim = PROBE_BLOCK // 2, null_basis.shape[1]
    for start in range(0, null_dim, half):
        kdirs = null_basis.T[start:start + half]
        probe(np.vstack([kdirs, -kdirs]))
    n_mix = max(2 * n_probes // 10, 8) if null_dim else 0
    for start in range(0, n_mix, half):
        kdirs = unit_rows(min(half, n_mix - start), null_dim) @ null_basis.T
        probe(np.vstack([kdirs, -kdirs]))

    evidence = {
        "f0": f0,
        "worst_probe_delta": float(worst),
        "n_directions": n_directions,
        "radii": radii,
        "null_dim": null_dim,
    }

    # a non-finite gradient, Hessian entry or probe loss proves nothing
    if not (grad_norm <= 1e-6 * scale and finite and np.isfinite(H).all()):
        verdict = "inconclusive"
    elif evals.size and evals[0] < -NULL_TOL * max(lam_scale, 1e-300):
        verdict = "saddle"
    elif worst < -dec_tol:
        verdict = "saddle"
    elif worst > pos_tol:
        verdict = "strict_local_min"
    else:  # finite, so worst is a number in [-dec_tol, pos_tol]
        verdict = "local_min_nonstrict"

    return StationaryReport(
        grad_norm=grad_norm,
        eigenvalues=evals,
        null_basis=null_basis,
        min_probe=verdict,
        probe_evidence=evidence,
    )

