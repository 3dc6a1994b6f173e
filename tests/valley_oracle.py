"""The valley objective written one residual column at a time, the tests'
reference for `SpuriousValleyInstance.loss` and `.grad`: the residual table
must reproduce these formulas bit for bit, so that trial and probe rounding
(and with it `replay`) does not depend on how the table is laid out."""

import numpy as np


def _columns(a: np.ndarray) -> tuple:
    return a[..., 0], a[..., 1], a[..., 2], a[..., 3]


def _residuals(inst, w, s):
    """r11, r12, r21, r22, r23, r32, r33 of M(theta) - Y."""
    y1, y2, y3, y4 = inst.y
    w1, w2, w3, w4 = w
    s5, s6, s7, s8 = s
    return (w1 * s5 - y1, w1 * s6 - y1, w2 * s5 - y2, w2 * s6 + w3 * s7 - (y2 + y3),
            w3 * s8, w4 * s7, w4 * s8 - y4)


def valley_loss(inst, theta):
    """Unscaled ||M(theta) - Y||_F^2: the seven squares added in order."""
    th = np.asarray(theta, dtype=float)
    L = sum(map(np.square, _residuals(inst, _columns(th), _columns(inst.activation(th[..., 4:8])))))
    return L if L.ndim else float(L)


def valley_grad(inst, theta):
    th = np.asarray(theta, dtype=float)
    sig, ds = inst.activation.value_and_derivative(th[..., 4:8])
    w, s = _columns(th), _columns(sig)
    r11, r12, r21, r22, r23, r32, r33 = _residuals(inst, w, s)
    w1, w2, w3, w4 = w
    s5, s6, s7, s8 = s
    g = np.empty_like(th)
    g[..., 0] = r11 * s5 + r12 * s6
    g[..., 1] = r21 * s5 + r22 * s6
    g[..., 2] = r22 * s7 + r23 * s8
    g[..., 3] = r32 * s7 + r33 * s8
    g[..., 4] = (r11 * w1 + r21 * w2) * ds[..., 0]
    g[..., 5] = (r12 * w1 + r22 * w2) * ds[..., 1]
    g[..., 6] = (r22 * w3 + r32 * w4) * ds[..., 2]
    g[..., 7] = (r23 * w3 + r33 * w4) * ds[..., 3]
    g *= 2
    return g
