import math
import sys

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from sparseland import Activation

ALL_KINDS = [
    Activation("linear"),
    Activation("relu"),
    Activation("leaky_relu", slope=0.01),
    Activation("leaky_relu", slope=0.2),
    Activation("elu", alpha=1.0),
    Activation("elu", alpha=0.7),
    Activation("tanh"),
    Activation("sigmoid"),
    Activation("shifted_sigmoid"),
    Activation("softplus"),
    Activation("polynomial", coeffs=(0.5, 1.0, 0.25)),
    Activation("polynomial", coeffs=(0.1, 1.0, -0.5, 1.0 / 3)),
]

Z = sp.symbols("z")


def sympy_expr(act):
    """Symbolic counterpart of the smooth activations with no closed numpy form below."""
    if act.kind == "tanh":
        return sp.tanh(Z)
    if act.kind == "sigmoid":
        return 1 / (1 + sp.exp(-Z))
    if act.kind == "shifted_sigmoid":
        return 1 / (1 + sp.exp(-Z)) - sp.Rational(1, 2)
    if act.kind == "softplus":
        return sp.log(1 + sp.exp(Z))
    raise ValueError(act.kind)


# ---------------------------------------------------------------------------
# values and derivatives
# ---------------------------------------------------------------------------

def test_values_match_reference_grid():
    z = np.linspace(-6, 6, 241)
    for act in ALL_KINDS:
        got = act(z)
        if act.kind == "relu":
            want = np.where(z > 0, z, 0.0)
        elif act.kind == "leaky_relu":
            want = np.where(z > 0, z, act.slope * z)
        elif act.kind == "elu":
            want = np.where(z > 0, z, act.alpha * (np.exp(z) - 1))
        elif act.kind == "linear":
            want = z
        elif act.kind == "polynomial":
            want = sum(c * z**k for k, c in enumerate(act.coeffs))
        else:
            f = sp.lambdify(Z, sympy_expr(act), "numpy")
            want = f(z)
        assert np.allclose(got, want, atol=1e-12), act.kind


def test_extreme_arguments_do_not_overflow():
    z = np.array([-745.0, -710.0, 710.0, 745.0])
    with np.errstate(over="raise"):
        assert np.all(np.isfinite(Activation("softplus")(z)))
        assert np.all(np.isfinite(Activation("sigmoid")(z)))
        assert np.all(np.isfinite(Activation("elu")(z)))
    assert Activation("softplus")(np.array([745.0]))[0] == 745.0
    assert Activation("sigmoid")(np.array([-745.0]))[0] < 1e-300
    assert Activation("sigmoid")(np.array([745.0]))[0] == 1.0


def test_derivative_matches_fd():
    zs = np.array([-3.0, -1.2, -0.4, 0.3, 0.9, 2.5])  # away from kinks
    h = 1e-6
    for act in ALL_KINDS:
        fd = (act(zs + h) - act(zs - h)) / (2 * h)
        assert np.allclose(act.derivative(zs), fd, atol=5e-6), act.kind


def test_derivative_kink_convention():
    # documented: relu-family derivatives take the z > 0 branch at 0
    assert Activation("relu").derivative(np.array([0.0]))[0] == 0.0
    assert Activation("leaky_relu", slope=0.3).derivative(np.array([0.0]))[0] == 0.3
    assert Activation("elu", alpha=2.0).derivative(np.array([0.0]))[0] == 2.0


@pytest.mark.parametrize("act", ALL_KINDS, ids=lambda a: a.kind)
def test_value_and_derivative_is_bitwise(act):
    rng = np.random.default_rng(0)
    inputs = (0.7, 0.0, -745.0, np.linspace(-6, 6, 25),
              np.array([-745.0, -1.0, 0.0, 1e-300, 745.0]), 3 * rng.standard_normal((6, 4)))
    for z in inputs:
        value, deriv = act.value_and_derivative(z)
        for got, want in ((value, act(z)), (deriv, act.derivative(z))):
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (act.kind, z)


def test_sigmoid_derivatives_are_of_the_unshifted_logistic():
    # s * (1 - s) of the logistic s itself: s rebuilt as shifted_sigmoid's
    # value + 0.5 rounds once s < 0.25 (here from z = -1.2 down)
    from sparseland.activations import _logistic

    z = np.array([-745.0, -40.0, -3.0, -1.2, -1.0, 0.0, 0.5, 3.0, 745.0, np.inf, -np.inf, np.nan])
    s = _logistic(z)
    for kind in ("sigmoid", "shifted_sigmoid"):
        assert Activation(kind).derivative(z).tobytes() == (s * (1.0 - s)).tobytes(), kind


def test_shifted_sigmoid_value_and_derivative_take_one_logistic_pass(monkeypatch):
    # sigma = s - 0.5 and sigma' = s (1 - s) of one unshifted logistic s, bit
    # for bit the value of __call__ and the derivative pinned above
    import sparseland.activations as activations

    logistic, calls = activations._logistic, []

    def counted(z):
        calls.append(z)
        return logistic(z)

    monkeypatch.setattr(activations, "_logistic", counted)
    z = np.array([-745.0, -40.0, -3.0, -1.2, -1.0, 0.0, 0.5, 3.0, 745.0, np.inf, -np.inf, np.nan])
    act = Activation("shifted_sigmoid")
    v, d = act.value_and_derivative(z)
    assert len(calls) == 1
    s = logistic(z)
    assert v.tobytes() == act(z).tobytes() == (s - 0.5).tobytes()
    assert d.tobytes() == (s * (1.0 - s)).tobytes()


def masked_logistic(z):
    """The logistic function by boolean gathers and scatters, one branch per sign."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_logistic_equals_masked_formula_bitwise():
    from sparseland.activations import _logistic

    extremes = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                         800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324])
    rng = np.random.default_rng(1)
    inputs = [extremes, 40 * rng.standard_normal((500, 4)), 0.3, -0.0, -800.0, np.nan]
    with np.errstate(over="ignore"):
        for z in inputs:
            got, want = _logistic(z), masked_logistic(z)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(z)
            assert got.tobytes() == want.tobytes(), z


def test_scalar_and_array_agree():
    for act in ALL_KINDS:
        assert float(act(0.7)) == pytest.approx(float(act(np.array([0.7]))[0]), abs=0)


# ---------------------------------------------------------------------------
# range and inversion
# ---------------------------------------------------------------------------

def test_inverse_is_none_off_the_range():
    assert Activation("tanh").inverse(0.5) is not None and Activation("tanh").inverse(1.0) is None
    assert (Activation("sigmoid").inverse(0.25) is not None
            and Activation("sigmoid").inverse(-0.1) is None)
    assert (Activation("shifted_sigmoid").inverse(0.49) is not None
            and Activation("shifted_sigmoid").inverse(0.5) is None)
    assert Activation("relu").inverse(0.0) is not None and Activation("relu").inverse(-1e-9) is None
    assert (Activation("elu", alpha=1.0).inverse(-0.9) is not None
            and Activation("elu", alpha=1.0).inverse(-1.0) is None)
    assert (Activation("softplus").inverse(1e-8) is not None
            and Activation("softplus").inverse(0.0) is None)
    assert Activation("linear").inverse(-1e9) is not None


@given(st.floats(min_value=-20, max_value=20))
@settings(max_examples=60, deadline=None)
def test_inverse_roundtrip(z):
    for act in (Activation("tanh"), Activation("sigmoid"), Activation("shifted_sigmoid"),
                Activation("softplus"), Activation("linear"), Activation("leaky_relu", slope=0.1),
                Activation("elu", alpha=1.3)):
        y = float(act(z))
        if act.inverse(y) is None:  # saturation can round onto the boundary
            continue
        # value-space roundtrip is well conditioned everywhere
        assert float(act(act.inverse(y))) == pytest.approx(y, rel=1e-9, abs=1e-12), act.kind
        if abs(z) <= 5:  # z-space only where the map is not saturated
            assert act.inverse(y) == pytest.approx(z, abs=1e-6), act.kind


def test_inverse_rejects_out_of_range():
    assert Activation("tanh").inverse(1.5) is None
    assert Activation("softplus").inverse(-0.1) is None
    with pytest.raises(ValueError, match="range query not supported for polynomial"):
        Activation("polynomial", coeffs=(0.0, 1.0)).inverse(0.5)


def test_softplus_inverse_past_the_overflow_of_expm1():
    act = Activation("softplus")
    for y in (710.0, 1e300, sys.float_info.max):
        z = act.inverse(y)
        assert z == y and float(act(z)) == y, y
    # below the overflow the preimage keeps the bits of log(expm1(y))
    for y in [*np.linspace(1e-300, 709.78, 2001), *np.geomspace(5e-324, 709.78, 2001)]:
        assert act.inverse(float(y)) == math.log(math.expm1(float(y))), y


# sigma's range per kind as (low end, whether sigma attains it, high end), the
# high end attained only when it is +inf; linear and leaky_relu take every y,
# NaN and both infinities included
RANGE_ENDS = {"relu": (0.0, True, math.inf), "elu": (None, False, math.inf),
              "tanh": (-1.0, False, 1.0), "sigmoid": (0.0, False, 1.0),
              "shifted_sigmoid": (-0.5, False, 0.5), "softplus": (0.0, False, math.inf)}


def attains(act, y):
    if act.kind in ("linear", "leaky_relu"):
        return True
    low, closed, high = RANGE_ENDS[act.kind]
    low = -act.alpha if low is None else low
    above = y > low or closed and y == low
    return above and (y < high or y == high == math.inf)


def range_grid():
    ends = {0.0, 0.5, 1.0, 0.7}  # every range end of ALL_KINDS, up to sign
    ys = {0.0, math.inf, 5e-324, math.ulp(0.0) * 2, math.nextafter(2.0 ** -1022, 0.0)}
    for e in ends:
        ys |= {math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)}
    return [math.nan, -math.nan, -0.0] + sorted(ys | {-y for y in ys})  # a set holds one zero


@pytest.mark.parametrize("act", [a for a in ALL_KINDS if a.kind != "polynomial"],
                         ids=lambda a: "-".join([a.kind, *map(str, a.to_json()["params"].values())]))
def test_inverse_is_none_exactly_off_the_range_table(act):
    for y in range_grid():
        z = act.inverse(y)
        if not attains(act, y):
            assert z is None, (act.kind, y)
            continue
        assert type(z) is float, (act.kind, y)
        if math.isfinite(y):
            assert float(act(z)) == pytest.approx(y, rel=1e-9, abs=1e-12), (act.kind, y)
        else:  # an infinite or NaN level is its own preimage
            assert z == y or math.isnan(z) and math.isnan(y), (act.kind, y)


# ---------------------------------------------------------------------------
# construction, lookup, serialization
# ---------------------------------------------------------------------------

def test_validation():
    with pytest.raises(ValueError, match="unknown activation kind 'bogus'"):
        Activation("bogus")
    with pytest.raises(ValueError):
        Activation("polynomial", coeffs=())
    with pytest.raises(ValueError):
        Activation("polynomial", coeffs=(1.0, float("nan")))
    with pytest.raises(ValueError):
        Activation("leaky_relu", slope=0.0)
    with pytest.raises(ValueError):
        Activation("elu", alpha=-1.0)


def test_json_roundtrip():
    for act in ALL_KINDS:
        back = Activation.from_json(act.to_json())
        assert back == act, act.kind


def test_shifted_sigmoid_identity():
    z = np.linspace(-8, 8, 101)
    assert np.allclose(Activation("shifted_sigmoid")(z), Activation("sigmoid")(z) - 0.5, atol=0)
