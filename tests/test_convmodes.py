import numpy as np
import pytest

from sparseland import (
    MODES,
    ConvSpec,
    conv_matrix,
    conv_rank_expected,
    numerical_rank,
)


def test_spec_validation():
    with pytest.raises(ValueError, match="non-empty"):
        ConvSpec(np.array([]), 4, "full")
    with pytest.raises(ValueError, match="mode"):
        ConvSpec(np.array([1.0]), 4, "circular")
    with pytest.raises(ValueError):
        ConvSpec(np.array([1.0]), 0, "full")
    with pytest.raises(ValueError, match="valid"):
        ConvSpec(np.array([1.0, 2.0, 3.0]), 2, "valid")
    spec = ConvSpec(np.array([1.0, 2.0]), 3, "same")
    assert not spec.kernel.flags.writeable


def test_out_len_and_window_starts():
    w = np.array([1.0, -1.0, 2.0])
    assert ConvSpec(w, 5, "full").out_len == 7
    assert ConvSpec(w, 5, "same").out_len == 5
    assert ConvSpec(w, 5, "valid").out_len == 3
    assert list(ConvSpec(w, 5, "full").window_starts()) == [-2, -1, 0, 1, 2, 3, 4]
    assert list(ConvSpec(w, 5, "same").window_starts()) == [0, 1, 2, 3, 4]
    assert list(ConvSpec(w, 5, "valid").window_starts()) == [0, 1, 2]
    for mode in MODES:
        spec = ConvSpec(w, 5, mode)
        assert len(spec.window_starts()) == spec.out_len


def test_same_matrix_two_tap_structure():
    # the 2x2 same-mode matrix: second output only sees the first tap
    w1, w2 = 3.0, -5.0
    F = conv_matrix(ConvSpec(np.array([w1, w2]), 2, "same"))
    assert np.array_equal(F, [[w1, w2], [0.0, w1]])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("mode", MODES)
def test_conv_matrix_against_numpy(mode, seed):
    # row k of f(w) computes a correlation window; np.convolve with the
    # flipped kernel over the mode's zero padding is the reference
    r = np.random.default_rng(seed)
    d1 = int(r.integers(1, 5))
    d = int(r.integers(d1, 9))
    w = r.standard_normal(d1)
    x = r.standard_normal(d)
    got = conv_matrix(ConvSpec(w, d, mode)) @ x
    if mode == "full":
        want = np.convolve(x, w[::-1], mode="full")
    elif mode == "valid":
        want = np.convolve(x, w[::-1], mode="valid")
    else:
        xp = np.concatenate([x, np.zeros(d1 - 1)])
        want = np.convolve(xp, w[::-1], mode="valid")
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# rank formula
# ---------------------------------------------------------------------------

def test_rank_formula_hand_cases():
    w = np.array([0.0, 2.0, 1.0])  # one leading zero
    assert conv_rank_expected(ConvSpec(w, 4, "full")) == 4
    assert conv_rank_expected(ConvSpec(w, 4, "same")) == 3
    assert conv_rank_expected(ConvSpec(w, 4, "valid")) == 2
    assert conv_rank_expected(ConvSpec(np.zeros(3), 4, "full")) == 0


def test_same_rank_clamps_at_zero():
    w = np.array([0.0, 0.0, 0.0, 1.0])
    spec = ConvSpec(w, 2, "same")
    assert conv_rank_expected(spec) == 0
    assert np.all(conv_matrix(spec) == 0.0)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("j0", range(4))
def test_rank_formula_vs_numeric(mode, j0):
    # leading zeros steer the same-mode rank; draws keep tap magnitudes
    # within one order so the numeric rank is unambiguous
    r = np.random.default_rng(j0 * 10 + len(mode))
    d1, d = 4, 7
    for _ in range(25):
        w = np.zeros(d1)
        m = d1 - j0
        w[j0:] = r.uniform(0.5, 1.5, m) * r.choice([-1.0, 1.0], m)
        spec = ConvSpec(w, d, mode)
        F = conv_matrix(spec)
        assert numerical_rank(F) == conv_rank_expected(spec), (mode, j0, w)
