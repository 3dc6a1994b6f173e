"""The stopping rule of `trainer._descend` written plainly, the tests' reference
for its witness column: every run stays in the batch to the end, every
gradient norm is computed at every epoch and the whole loss history is kept.
No witness column, no compaction, no backtracking."""

import numpy as np

from sparseland.trainer import DIVERGE_FACTOR

REASONS = ("diverged", "converged_grad", "plateau", "max_epochs")  # first that holds wins


def reference_descend(value_and_grad, theta, config):
    """(theta, values, stop_epoch, stop_reason) of plain GD at config's
    learning rate, each run stopped by the first reason that holds for it at
    the first epoch where one does.  value_and_grad sees every run at every
    epoch, so it must give each row's loss and gradient alone."""
    assert not config.backtrack
    values, grads = value_and_grad(theta)
    n = len(values)
    limit = np.minimum(DIVERGE_FACTOR * np.maximum(1.0, np.abs(values)), np.finfo(float).max)
    out_theta, out_values = np.empty_like(theta), np.empty_like(values)
    stop_epoch = np.full(n, -1)
    stop_reason = np.full(n, None, dtype=object)
    history = []
    for epoch in range(config.max_epochs + 1):
        history.append(values)
        norms = np.sqrt(np.square(np.ascontiguousarray(grads)).sum(axis=1))
        plateau = np.zeros(n, dtype=bool)
        if epoch > config.plateau_window:
            past = history[epoch - config.plateau_window]
            plateau = past - values <= config.plateau_rel * np.maximum(1.0, np.abs(past))
        hits = (~(np.abs(values) <= limit), norms < config.grad_tol, plateau,
                np.full(n, epoch == config.max_epochs))
        for reason, hit in zip(REASONS, hits):
            new = hit & (stop_epoch < 0)
            stop_epoch[new], stop_reason[new] = epoch, reason
            out_theta[new], out_values[new] = theta[new], values[new]
        if np.all(stop_epoch >= 0):
            break
        theta = theta - config.learning_rate * grads
        values, grads = value_and_grad(theta)
    return out_theta, out_values, stop_epoch, stop_reason
