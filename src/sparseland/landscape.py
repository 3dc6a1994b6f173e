"""Descent paths, data and mask assumption checks and rank certificates.

The path builders emit piecewise-linear parameter paths whose sampled loss
is non-increasing; they are the constructive side of the "no spurious
valley" guarantees for grouped two-layer linear objectives.  Their traces
and trainer's share one loss-rise rule and one CSV writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .calculus import TwoLayerLinearInstance, pack_blocks
from .network import SparseNet, forward

RANK_TOL = 1e-8
BASIS_TOL = 1e-10  # zero_column_transform: a pivot at most this x the largest is no basis row


# ---------------------------------------------------------------------------
# loss traces: paths here, GD runs in trainer
# ---------------------------------------------------------------------------

def loss_rise(losses) -> float:
    """Largest rise between consecutive losses, 0.0 when none rises.  A NaN
    loss gives NaN, so a NaN never reads as "no rise"."""
    return float(np.max(np.diff(losses), initial=0.0))


def csv_text(header, rows) -> str:
    """CSV text of string cells holding no comma or quote: the header, then
    one line per row, each line ending in \\n."""
    return "".join(",".join(cells) + "\n" for cells in (header, *rows))


@dataclass(frozen=True)
class PathTrace:
    """Sampled piecewise-linear path through points (K + 1, P): segment k,
    named names[k], runs from points[k] to points[k + 1] over t in
    [k/K, (k+1)/K).  t runs over [0, 1); the loss at the terminal point,
    points[-1], is reported separately as end_loss."""

    t: np.ndarray
    losses: np.ndarray
    names: tuple
    points: np.ndarray
    end_loss: float

    @property
    def monotone_violation(self) -> float:
        """Largest rise between consecutive sampled losses, end_loss last."""
        return loss_rise(np.append(self.losses, self.end_loss))

    def to_csv(self) -> str:
        rows = [[repr(float(t)), repr(float(l))] for t, l in zip(self.t, self.losses)]
        return csv_text(["t", "loss"], rows + [[repr(1.0), repr(float(self.end_loss))]])


def _trace(inst: TwoLayerLinearInstance, theta, moves, n_samples: int) -> PathTrace:
    """The path from flat parameters theta through one point per name that
    moves(us, ws) yields, each the packed blocks us, ws as moves left them
    (moves edits copies of theta's blocks in place).  t is a uniform grid
    plus every segment start."""
    blocks = inst.blocks(np.array(theta, dtype=float))  # a copy, for moves to edit
    us, ws = [u for u, _ in blocks], [w for _, w in blocks]
    names, points = [], [np.asarray(theta, dtype=float)]
    for name in moves(us, ws):
        names.append(name)
        points.append(pack_blocks(zip(us, ws)))
    K = len(names)
    ts = set(np.linspace(0.0, 1.0, n_samples, endpoint=False).tolist())
    ts.update(k / K for k in range(K))
    ts = np.array(sorted(ts))
    k = np.minimum((ts * K).astype(int), K - 1)
    s = (ts * K - k)[:, None]
    P = np.array(points)
    return PathTrace(
        t=ts,
        losses=inst.loss_at((1.0 - s) * P[k] + s * P[k + 1]),
        names=tuple(names),
        points=P,
        end_loss=float(inst.loss_at(P[-1])),
    )


@dataclass(frozen=True)
class ZeroColumnResult:
    """Output rewrite U -> U0 with U0 @ W = U @ W and U0 zero on the
    redundant-row positions of W."""

    U0: np.ndarray
    rank: int
    permutation: tuple  # pivot order: first `rank` entries index basis rows of W

    @property
    def basis_rows(self) -> tuple:
        return self.permutation[:self.rank]

    @property
    def zero_columns(self) -> tuple:
        return tuple(sorted(self.permutation[self.rank:]))


def _pivoted_row_basis(W: np.ndarray):
    """|diag R| and the pivot order of the column-pivoted QR of W^T
    (Businger & Golub 1965), by Gram-Schmidt over the rows of W.

    Step j swaps the remaining row with the largest residual norm into place
    (ties go to the first, as LAPACK's idamax does) and projects its direction
    out of the later rows twice ("twice is enough").
    """
    A = W.copy()
    p, n = A.shape
    piv = np.arange(p)
    diag = np.zeros(min(p, n))
    for j in range(diag.size):
        norms = np.linalg.norm(A[j:], axis=1)
        k = j + int(np.argmax(norms))
        A[[j, k]], piv[[j, k]] = A[[k, j]], piv[[k, j]]
        diag[j] = norms[k - j]
        if diag[j] == 0.0:
            break  # the remaining rows are all zero
        q = A[j] / diag[j]
        for _ in range(2):
            A[j + 1:] -= np.outer(A[j + 1:] @ q, q)
    return diag, piv


def zero_column_transform(U: np.ndarray, W: np.ndarray) -> ZeroColumnResult:
    """Rewrite U so the product U @ W is carried by a row basis of W.

    W is (p, n) with rank r; the returned U0 satisfies U0 @ W = U @ W and
    has exact zeros in the p - r columns matching W's redundant rows
    (Gram-Schmidt with row pivoting, the column-pivoted QR of W^T, picks
    the basis).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    W = np.atleast_2d(np.asarray(W, dtype=float))
    p = W.shape[0]
    if U.shape[1] != p:
        raise ValueError(f"U has {U.shape[1]} columns, W has {p} rows")
    diag, piv = _pivoted_row_basis(W)
    top = diag[0] if diag.size else 0.0
    r = int(np.count_nonzero(diag > BASIS_TOL * top)) if top > 0 else 0
    basis, dep = piv[:r], piv[r:]
    U0 = np.zeros_like(U)
    if r:
        U0[:, basis] = U[:, basis]
        if dep.size:
            # rows W[dep] = C @ W[basis]; fold the dependent columns of U in
            C = np.linalg.lstsq(W[basis].T, W[dep].T, rcond=None)[0].T
            U0[:, basis] += U[:, dep] @ C
    return ZeroColumnResult(U0=U0, rank=r, permutation=tuple(int(i) for i in piv))


def _full_rank_completion(W: np.ndarray, res: ZeroColumnResult) -> np.ndarray:
    """Replace redundant rows of W so the result has full column rank.

    Keeps the basis rows; the first d - r freed rows get an orthonormal
    basis of the orthogonal complement, remaining freed rows are zeroed.
    W needs at least as many rows as columns.
    """
    d, r = W.shape[1], res.rank
    dep = list(res.permutation[r:])
    W0 = W.copy()
    W0[dep] = 0.0
    if r < d:
        vt = np.linalg.svd(W[list(res.basis_rows)], full_matrices=True)[2] if r else np.eye(d)
        W0[dep[:d - r]] = vt[r:]
    return W0


def least_squares_optimum(X: np.ndarray, Y: np.ndarray) -> float:
    """Minimum over A of 0.5 ||A X - Y||_F^2, i.e. 0.5 ||Y - Y X^+ X||_F^2."""
    return 0.5 * float(np.sum((Y - (Y @ np.linalg.pinv(X)) @ X) ** 2))


def nonincreasing_path_overparam(inst: TwoLayerLinearInstance, theta,
                                 n_samples: int = 1000) -> PathTrace:
    """Non-increasing path from flat parameters theta to the grouped optimum
    when every group has at least as many neurons as support coordinates
    (p_i >= d_i).

    Per deficient group: rewrite the output weights onto a row basis (loss
    constant), then complete the freed rows to full column rank (loss
    constant); finally move all output blocks jointly to the least-squares
    solution (convex segment ending at its minimum).
    """
    for i, (p_i, z) in enumerate(zip(inst.widths, inst.zs)):
        d_i = z.shape[0]
        if p_i < d_i:
            raise ValueError(f"group {i} has width {p_i} < support {d_i}; path needs p_i >= d_i")

    def moves(us, ws):
        for i in range(len(ws)):
            res = zero_column_transform(us[i], ws[i])
            if res.rank == ws[i].shape[1]:
                continue  # already full column rank; nothing to free
            us[i] = res.U0
            yield f"rewire_output_g{i}"
            ws[i] = _full_rank_completion(ws[i], res)
            yield f"complete_rank_g{i}"

        Z = np.vstack(inst.zs)
        M = inst.Y @ np.linalg.pinv(Z)
        parts = np.split(M, np.cumsum([z.shape[0] for z in inst.zs])[:-1], axis=1)
        us[:] = [m @ np.linalg.pinv(w) for m, w in zip(parts, ws)]
        yield "solve_output"

    return _trace(inst, theta, moves, n_samples)


def nonincreasing_path_scalar_output(inst: TwoLayerLinearInstance, theta,
                                     n_samples: int = 1000) -> PathTrace:
    """Non-increasing path from flat parameters theta to the dense optimum
    for scalar-output instances.

    Neurons with exactly zero output weight are parked (w -> 0, loss
    constant) and revived (u: 0 -> 1, loss constant); the hidden weights
    then move jointly to the least-squares solution of the resulting linear
    model, a convex segment ending at its minimum.
    """
    if inst.d_y != 1:
        raise ValueError("path construction requires d_y = 1")

    def moves(us, ws):
        for i, p_i in enumerate(inst.widths):
            for k in range(p_i):
                if us[i][0, k] == 0.0:
                    if np.any(ws[i][k] != 0.0):
                        ws[i][k] = 0.0
                        yield f"park_w_g{i}n{k}"
                    us[i][0, k] = 1.0
                    yield f"revive_u_g{i}n{k}"

        # stacked linear model in the hidden weights: row (i, k) is u_ik * z_i,
        # so the solution holds each group's W_i neuron-major
        Phi = np.vstack([u[0, k] * z for u, z in zip(us, inst.zs) for k in range(u.shape[1])])
        v_star = np.linalg.lstsq(Phi.T, inst.Y.ravel(), rcond=None)[0]
        parts = np.split(v_star, np.cumsum([w.size for w in ws])[:-1])
        ws[:] = [v.reshape(w.shape) for v, w in zip(parts, ws)]
        yield "solve_hidden"

    return _trace(inst, theta, moves, n_samples)


def random_grouped_instance(cond: str, seed: int = 0, n_groups: int = 3, n: int = 12):
    """(instance, theta): a random grouped two-layer linear instance shaped
    for one of the two path constructions, and flat parameters on it.

    cond "overparam": d_y = 2; group widths p_i = d_i + r with r cycling 0,
    1, 2, so every group satisfies p_i >= d_i, and even-indexed groups with
    d_i >= 2 get W_i of column rank d_i - 1 to exercise the rewire/complete
    moves.  cond "scalar": d_y = 1, widths are unconstrained and roughly a
    quarter of the output weights are exact zeros to exercise the
    park/revive moves.
    """
    if cond not in ("overparam", "scalar"):
        raise ValueError(f"cond must be 'overparam' or 'scalar', got {cond!r}")
    rng = np.random.default_rng(seed)
    d_y = 1 if cond == "scalar" else 2
    zs, blocks = [], []
    for i in range(n_groups):
        d_i = int(rng.integers(1, 4))
        if cond == "overparam":
            p_i = d_i + (i % 3)
        else:
            p_i = int(rng.integers(1, 5))
        z = rng.standard_normal((d_i, n))
        u = rng.standard_normal((d_y, p_i))
        w = rng.standard_normal((p_i, d_i))
        if cond == "overparam" and i % 2 == 0 and d_i >= 2:
            w[:, -1] = 0.0
            w = w @ np.linalg.qr(rng.standard_normal((d_i, d_i)))[0]
        if cond == "scalar":
            u = u * (rng.random((d_y, p_i)) >= 0.25)
        zs.append(z)
        blocks.append((u, w))
    Y = rng.standard_normal((d_y, n))
    return TwoLayerLinearInstance(zs, [w.shape[0] for _, w in blocks], Y), pack_blocks(blocks)


# ---------------------------------------------------------------------------
# assumption checks
# ---------------------------------------------------------------------------

def check_assumptions(X: np.ndarray, mask: np.ndarray) -> bool:
    """Whether the data and mask are generic for the rank certificates: every
    data row has nonzero entries with pairwise distinct magnitudes, and no
    mask row is all zero.  Exact float comparisons by design, so a NaN entry
    is neither zero nor equal to another."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mags = np.sort(np.abs(X), axis=1)
    mask = np.atleast_2d(np.asarray(mask)).astype(bool)
    return bool(not (X == 0.0).any() and not (mags[:, 1:] == mags[:, :-1]).any()
                and mask.any(axis=1).all())


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def numerical_rank(M: np.ndarray) -> int:
    """Count of singular values above RANK_TOL * s_max."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    # scaled by an exact power of two to max |M| in [0.5, 1): the rank is the
    # same, and the SVD cannot overflow on large finite entries
    M = np.ldexp(M, -math.frexp(np.max(np.abs(M)))[1])
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def layer_ranks(net: SparseNet, X: np.ndarray) -> tuple:
    """Numerical rank of every layer output on X: each hidden layer's, post
    activation, then the net's.  An output that is not finite (the forward
    pass overflowed) has no measured rank: None."""
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        out, hiddens = forward(net, X)
    return tuple(numerical_rank(h) if np.isfinite(h).all() else None for h in (*hiddens, out))


# ---------------------------------------------------------------------------
# polynomial feature maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeatureMaps:
    """Finite feature factorization of a polynomial activation:
    sigma(w . x + b) = psi(w, b) . phi(x) for all w, x."""

    exponents: tuple  # multi-indices over the d data coordinates
    coeffs: tuple
    d: int
    degree: int

    @property
    def feature_dim(self) -> int:
        return len(self.exponents)

    def psi(self, w, b: float = 0.0) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (self.d,):
            raise ValueError(f"w must have shape ({self.d},)")
        out = np.empty(self.feature_dim)
        for idx, alpha in enumerate(self.exponents):
            total = sum(alpha)
            w_pow = math.prod(w[i] ** a for i, a in enumerate(alpha) if a)
            acc = 0.0
            for k in range(total, self.degree + 1):
                c = self.coeffs[k] if k < len(self.coeffs) else 0.0
                if c == 0.0:
                    continue
                multi = math.factorial(k)
                for a in alpha:
                    multi //= math.factorial(a)
                multi //= math.factorial(k - total)
                acc += c * multi * w_pow * b ** (k - total)
            out[idx] = acc
        return out

    def phi(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise ValueError(f"x must have shape ({self.d},)")
        return np.array([
            math.prod(x[i] ** a for i, a in enumerate(alpha) if a) for alpha in self.exponents
        ])


def poly_feature_maps(coeffs, d: int) -> FeatureMaps:
    """Feature maps for sigma(z) = sum_k coeffs[k] z^k acting on R^d inputs.

    feature_dim = C(d + t, t) with t the true degree.  Component order:
    total degree descending, variable count ascending, then first-variable-
    heavy lexicographic (matches the usual worked quadratic layout).
    """
    coeffs = tuple(float(c) for c in coeffs)
    if d < 1:
        raise ValueError("d must be >= 1")
    nz = [i for i, c in enumerate(coeffs) if c != 0.0]
    t = max(nz) if nz else 0
    exps = []
    for total in range(t + 1):
        for combo in combinations_with_replacement(range(d), total):
            alpha = [0] * d
            for i in combo:
                alpha[i] += 1
            exps.append(tuple(alpha))
    exps.sort(key=lambda a: (-sum(a), sum(1 for v in a if v), tuple(-v for v in a)))
    maps = FeatureMaps(exponents=tuple(exps), coeffs=coeffs, d=d, degree=t)
    assert maps.feature_dim == math.comb(d + t, t)
    return maps
