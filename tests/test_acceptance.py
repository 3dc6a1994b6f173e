"""End-to-end acceptance checks.  Each test prints one PASS/FAIL line with
the measured quantities, then asserts; run with `pytest -s` to see every
line, or rely on the failure output otherwise."""

import math
import time

import numpy as np
import pytest

from sparseland import (
    Activation,
    TrainConfig,
    check_assumptions,
    conv_matrix,
    conv_rank_expected,
    conv_valley_instance,
    ConvSpec,
    fd_gradient,
    fd_hessian,
    gd_train,
    gen_synthetic,
    hessian_two_layer_linear,
    init_net,
    MODES,
    nonincreasing_path_overparam,
    nonincreasing_path_scalar_output,
    numerical_rank,
    poly_feature_maps,
    probe_conv_valley,
    probe_valley,
    random_effective_net,
    random_grouped_instance,
    random_sparse_mask,
    run_trials,
    spurious_minimum_instance,
    TwoLayerLinearInstance,
    valley_instance,
    verify_spurious_minimum,
    zero_column_transform,
)
from sparseland.calculus import pack_blocks
from sparseland.counterexamples import EXPERIMENT_Y, MIN_LOSS_REF


def report(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    return ok


def grouped_optimum(inst):
    Z = np.vstack(inst.zs)
    R = inst.Y - inst.Y @ np.linalg.pinv(Z) @ Z
    return 0.5 * float(np.sum(R * R))


def test_criterion_1_minimum_verification():
    t0 = time.perf_counter()
    inst = spurious_minimum_instance()
    v = verify_spurious_minimum(inst, n_probes=500)
    loss_err = abs(inst.minimum.loss_at(inst.theta) - MIN_LOSS_REF)
    elapsed = time.perf_counter() - t0
    ok = (v.passed and loss_err < 1e-12 and elapsed < 1.0)
    assert report(1, ok,
                  f"grad {v.details['grad_norm']:.2e}, hessian err "
                  f"{v.details['hessian_max_err']:.2e}, eig err {v.details['eig_max_err']:.2e}, "
                  f"loss err {loss_err:.2e}, L(theta') = {v.details['loss_theta_prime']:.7f}, "
                  f"probe {v.report.min_probe}, {elapsed * 1000:.0f} ms")


def test_criterion_2_residual_identities():
    inst = spurious_minimum_instance()
    R = inst.minimum.residual_at(inst.theta)
    z1, z2 = inst.minimum.zs
    err1 = np.max(np.abs(R @ z1.T - np.array([[-0.4, 0.4], [0.4, -0.4]])))
    err2 = np.max(np.abs(R @ z2.T - np.array([[-0.8, 0.4], [0.4, -0.2]])))
    ok = err1 < 1e-12 and err2 < 1e-12
    assert report(2, ok, f"R Z1^T err {err1:.2e}, R Z2^T err {err2:.2e}")


def test_criterion_3_paths():
    t0 = time.perf_counter()
    worst_viol = worst_gap = 0.0
    for seed in range(50):
        inst, theta = random_grouped_instance("overparam", seed=seed)
        tr = nonincreasing_path_overparam(inst, theta, n_samples=500)
        worst_viol = max(worst_viol, tr.monotone_violation)
        worst_gap = max(worst_gap, abs(tr.end_loss - grouped_optimum(inst)))
    for seed in range(50):
        inst, theta = random_grouped_instance("scalar", seed=seed)
        tr = nonincreasing_path_scalar_output(inst, theta, n_samples=500)
        worst_viol = max(worst_viol, tr.monotone_violation)
        worst_gap = max(worst_gap, abs(tr.end_loss - grouped_optimum(inst)))
    elapsed = time.perf_counter() - t0
    ok = worst_viol <= 1e-10 and worst_gap <= 1e-8 and elapsed < 30.0
    assert report(3, ok, f"100 paths, worst violation {worst_viol:.2e}, "
                         f"worst optimum gap {worst_gap:.2e}, {elapsed:.1f} s")


def test_criterion_4_zero_columns():
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    exact_count_ok = True
    for _ in range(200):
        p = int(rng.integers(2, 9))
        d = int(rng.integers(1, 7))
        r = int(rng.integers(1, min(p, d) + 1))
        W = rng.standard_normal((p, r)) @ rng.standard_normal((r, d))
        U = rng.standard_normal((int(rng.integers(1, 4)), p))
        res = zero_column_transform(U, W)
        prod = U @ W
        scale = max(np.max(np.abs(prod)), 1e-300)
        worst_rel = max(worst_rel, np.max(np.abs(res.U0 @ W - prod)) / scale)
        n_zero = sum(1 for j in range(p) if np.all(res.U0[:, j] == 0.0))
        if res.rank != r or n_zero < p - r or len(res.zero_columns) != p - r:
            exact_count_ok = False
    ok = worst_rel <= 1e-10 and exact_count_ok
    assert report(4, ok, f"200 draws, worst relative product error {worst_rel:.2e}, "
                         f"zero-column counts exact: {exact_count_ok}")


def test_criterion_5_conv_rank_sweep():
    rng = np.random.default_rng(99)
    mismatches = 0
    combos = 0
    for mode in MODES:
        for d1 in range(1, 6):
            d_lo = d1 if mode == "valid" else 1
            for d in range(d_lo, 10):
                spec0 = ConvSpec(np.zeros(d1), d, mode)
                combos += 1
                if numerical_rank(conv_matrix(spec0)) != conv_rank_expected(spec0):
                    mismatches += 1
                for j0 in range(d1):
                    combos += 1
                    for _ in range(200):
                        w = np.zeros(d1)
                        m = d1 - j0
                        # ratio-bounded taps keep the exact rank visible
                        w[j0:] = rng.uniform(0.5, 1.5, m) * rng.choice([-1.0, 1.0], m)
                        spec = ConvSpec(w, d, mode)
                        if numerical_rank(conv_matrix(spec)) != conv_rank_expected(spec):
                            mismatches += 1
    ok = mismatches == 0
    assert report(5, ok, f"{combos} (mode, d1, d, leading-zeros) combos x 200 draws, "
                         f"{mismatches} mismatches")


def test_criterion_6_same_valley():
    worst_excess = math.inf
    exact = True
    witness_worst = 0.0
    for a in (0.5, 1.0, 2.0):
        inst = conv_valley_instance(a)
        if inst.loss(inst.valley_point()) != 0.5:
            exact = False
        rep = probe_conv_valley(inst, n_probes=500, seed=0)
        worst_excess = min(worst_excess, rep.min_excess)
        if rep.falsifications or not rep.line_strict_ok:
            exact = False
        witness_worst = max(witness_worst, float(inst.loss(inst.global_witness())))
    ok = exact and worst_excess >= -1e-12 and witness_worst < 1e-20
    assert report(6, ok, f"valley exactly 0.5 for a in (0.5, 1, 2): {exact}, "
                         f"probe min excess {worst_excess:.2e}, witness loss {witness_worst:.2e}")


def test_criterion_7_full_rank_certificate():
    d, scale, sparsity = 5, 2.0, 0.3
    bound = scale / math.sqrt(d)
    results = []
    for act in (Activation("sigmoid"), Activation("tanh")):
        for n in (6, 8, 12):
            hits = 0
            for s in range(100):
                rng = np.random.default_rng(17 + s)
                for _ in range(50):  # redraw until the genericity checks pass
                    mask = random_sparse_mask((n, d), sparsity, seed=int(rng.integers(2**31)))
                    X = rng.standard_normal((d, n))
                    if check_assumptions(X, mask):
                        break
                W = rng.uniform(-bound, bound, (n, d)) * mask
                if numerical_rank(np.asarray(act(W @ X))) == n:
                    hits += 1
            results.append((act.kind, n, hits))
    ok = all(h >= 99 for _, _, h in results)
    assert report(7, ok, "; ".join(f"{k} n={n}: {h}/100" for k, n, h in results))


def test_criterion_8_valley_trials():
    t0 = time.perf_counter()
    cfg = TrainConfig(learning_rate=0.01, max_epochs=50000)
    outcomes = {}
    for act in (Activation("tanh"), Activation("shifted_sigmoid"), Activation("relu")):
        inst = valley_instance(EXPERIMENT_Y, act)
        stats = run_trials(inst, 100, cfg, seed=0)
        outcomes[act.kind] = (stats.fraction("valley"), len(stats.clusters))
    elapsed = time.perf_counter() - t0
    ok = (outcomes["tanh"][0] >= 0.80
          and outcomes["shifted_sigmoid"][0] >= 0.70
          and outcomes["relu"][1] > 2
          and elapsed < 300.0)
    assert report(8, ok,
                  f"valley fraction tanh {outcomes['tanh'][0]:.2f} (need >= 0.80), "
                  f"shifted_sigmoid {outcomes['shifted_sigmoid'][0]:.2f} (need >= 0.70), "
                  f"relu clusters {outcomes['relu'][1]} (need > 2), {elapsed:.0f} s")


def test_criterion_9_deep_sparse_linear():
    net = random_effective_net((20, 100, 100, 100, 100, 1), sparsity=0.45,
                               seed=7, activation=Activation("linear"))
    realized = net.sparsity
    net = init_net(net, 1.0, 3)
    X, Y = gen_synthetic(100, 20, 1, seed=11)
    trace = gd_train(net, X, Y, TrainConfig(learning_rate=3e-4, max_epochs=50000,
                                            grad_tol=1e-10))
    l_star = 0.5 * float(np.sum((Y - (Y @ np.linalg.pinv(X)) @ X) ** 2))
    gap = trace.final_loss - l_star
    viol = trace.monotone_violation
    ok = realized <= 0.5 and gap < 1e-3 and viol <= 1e-10 and not trace.diverged
    assert report(9, ok, f"sparsity {realized:.3f} (<= 0.5), L - L* = {gap:.2e} (< 1e-3), "
                         f"monotone violation {viol:.2e}, {trace.epochs} epochs "
                         f"({trace.stop_reason})")


def random_instance(rng, n_groups, width):
    """(instance, theta) with u, w and z drawn per group, then Y."""
    blocks, zs = [], []
    n = int(rng.integers(6, 14))
    d_y = int(rng.integers(1, 4))
    for _ in range(n_groups):
        d = int(rng.integers(1, 5))
        blocks.append((rng.standard_normal((d_y, width)), rng.standard_normal((width, d))))
        zs.append(rng.standard_normal((d, n)))
    inst = TwoLayerLinearInstance(zs, [width] * n_groups, rng.standard_normal((d_y, n)))
    return inst, pack_blocks(blocks)


def test_criterion_10_derivative_cross_checks():
    rng = np.random.default_rng(31)
    worst_grad = 0.0
    for _ in range(100):
        inst, theta = random_instance(rng, n_groups=int(rng.integers(1, 4)),
                                      width=int(rng.integers(1, 4)))
        g = inst.value_and_grad_at(theta)[1]
        fd = fd_gradient(inst.loss_at, theta)
        rel = np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g)))
        worst_grad = max(worst_grad, rel)
    worst_hess = 0.0
    for _ in range(20):
        inst, theta = random_instance(rng, n_groups=2, width=1)
        H = hessian_two_layer_linear(inst, theta)
        Hfd = fd_hessian(inst.loss_at, theta)
        worst_hess = max(worst_hess, np.max(np.abs(H - Hfd)) / max(1.0, np.max(np.abs(H))))
    ok = worst_grad < 1e-6 and worst_hess < 1e-4
    assert report(10, ok, f"100 gradients, worst rel err {worst_grad:.2e} (< 1e-6); "
                          f"20 Hessians, worst err {worst_hess:.2e} (< 1e-4)")


def test_criterion_11_feature_maps():
    rng = np.random.default_rng(7)
    worst = 0.0
    dims_ok = True
    for coeffs in ((0.3, 1.0, 0.5), (0.1, 1.0, -0.5, 1.0 / 3)):
        act = Activation("polynomial", coeffs=coeffs)
        t = len(coeffs) - 1
        for d in (2, 3, 4):
            maps = poly_feature_maps(coeffs, d)
            if maps.feature_dim != math.comb(d + t, t):
                dims_ok = False
            for _ in range(1000 // 3 + 1):
                w = rng.standard_normal(d)
                x = rng.standard_normal(d)
                b = float(rng.standard_normal())
                got = maps.psi(w, b) @ maps.phi(x)
                worst = max(worst, abs(got - float(act(w @ x + b))))
    ok = worst <= 1e-10 and dims_ok
    assert report(11, ok, f"degrees 2 and 3, 2000+ draws, worst identity error {worst:.2e}, "
                          f"feature_dim = C(d+t, t): {dims_ok}")
