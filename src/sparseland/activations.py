"""Scalar activation functions.

Every activation used by the package is represented by a frozen
:class:`Activation` value: vectorized evaluation, first derivatives (needed
for backprop), inverses that are None off sigma's range (needed to place
the valley instance's points), and a JSON form for network specs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

KINDS = (
    "linear",
    "relu",
    "leaky_relu",
    "elu",
    "tanh",
    "sigmoid",
    "shifted_sigmoid",
    "softplus",
    "polynomial",
)

# the one parameter each parametrized kind reads; every other kind reads none
PARAM = {"leaky_relu": "slope", "elu": "alpha", "polynomial": "coeffs"}


def _logistic(z):
    # e = exp(-|z|) never overflows: 1/(1+e) for z >= 0, e/(1+e) below;
    # np.minimum passes a NaN through with its sign bit, as exp(z) would
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# the form of a JSON number, in which a spec may also write one as a string
_JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")


def spec_number(v) -> float:
    """A number of a network spec as a float: a JSON number, or a string in
    JSON-number form ("0.125").  Anything else (true, "1_0", "inf", null)
    reads as NaN, which the finiteness rule of every spec number rejects."""
    if type(v) in (int, float) or type(v) is str and _JSON_NUMBER.fullmatch(v):
        try:
            return float(v)
        except OverflowError:  # an integer beyond the float range
            return math.inf
    return math.nan


@dataclass(frozen=True)
class Activation:
    """A scalar activation sigma, applied elementwise.

    A kind reads at most the one parameter ``PARAM`` names and ignores the others.
    ``coeffs`` lists polynomial coefficients in ascending powers
    (sigma(z) = coeffs[0] + coeffs[1] z + ...).
    """

    kind: str
    slope: float = 0.01
    alpha: float = 1.0
    coeffs: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "polynomial":
            if len(self.coeffs) == 0:
                raise ValueError("polynomial activation needs at least one coefficient")
            c = tuple(float(v) for v in self.coeffs)
            if not all(math.isfinite(v) for v in c):
                raise ValueError("polynomial coefficients must be finite")
            object.__setattr__(self, "coeffs", c)
        elif self.kind in PARAM and not 0 < getattr(self, PARAM[self.kind]) < math.inf:
            raise ValueError(f"{self.kind} {PARAM[self.kind]} must be positive and finite")

    # -- evaluation ------------------------------------------------------
    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        k = self.kind
        if k == "linear":
            return z.copy()
        if k == "relu":
            return np.maximum(z, 0.0)
        if k == "leaky_relu":
            return np.where(z >= 0, z, self.slope * z)
        if k == "elu":
            return np.where(z >= 0, z, self.alpha * np.expm1(np.minimum(z, 0.0)))
        if k == "tanh":
            return np.tanh(z)
        if k == "sigmoid":
            return _logistic(z)
        if k == "shifted_sigmoid":
            return _logistic(z) - 0.5
        if k == "softplus":
            # overflow-safe: log(1+e^z) = log1p(e^{-|z|}) + max(z, 0)
            return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)
        # polynomial, Horner
        acc = np.zeros_like(z)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def derivative(self, z):
        """sigma'(z), elementwise: value_and_derivative(z)[1]."""
        return self.value_and_derivative(z)[1]

    def value_and_derivative(self, z):
        """(sigma(z), sigma'(z)), elementwise; the value is self(z).
        relu/leaky_relu take the z>0 branch of sigma' at 0.

        tanh and sigmoid take sigma' from the value; shifted_sigmoid takes it
        from the unshifted logistic s, since value + 0.5 rounds once s < 0.25.
        """
        z = np.asarray(z, dtype=float)
        k, v = self.kind, self(z)
        if k == "tanh":
            return v, 1.0 - v * v
        if k == "sigmoid":
            return v, v * (1.0 - v)
        if k == "shifted_sigmoid":
            s = _logistic(z)
            return v, s * (1.0 - s)
        if k == "linear":
            d = np.ones_like(z)
        elif k == "relu":
            d = (z > 0).astype(float)
        elif k == "leaky_relu":
            d = np.where(z > 0, 1.0, self.slope)
        elif k == "elu":
            d = np.where(z > 0, 1.0, self.alpha * np.exp(np.minimum(z, 0.0)))
        elif k == "softplus":
            d = _logistic(z)
        else:
            d = np.zeros_like(z)
            for j in range(len(self.coeffs) - 1, 0, -1):
                d = d * z + j * self.coeffs[j]
        return v, d

    # -- inversion (monotone kinds) ---------------------------------------
    def inverse(self, y: float) -> float | None:
        """A preimage of y under sigma, or None where sigma does not attain y
        over the reals.  Monotone kinds only: a polynomial raises ValueError."""
        k = self.kind
        if k == "linear" or k == "relu" and y >= 0:
            return float(y)
        if k == "leaky_relu":
            return float(y) if y >= 0 else float(y) / self.slope
        if k == "elu" and y > -self.alpha:
            return float(y) if y >= 0 else math.log1p(y / self.alpha)
        if k == "tanh" and -1.0 < y < 1.0:
            return math.atanh(y)
        if k == "sigmoid" and 0.0 < y < 1.0:
            return math.log(y / (1.0 - y))
        if k == "shifted_sigmoid" and -0.5 < y < 0.5:
            return math.log((y + 0.5) / (0.5 - y))
        if k == "softplus" and y > 0:  # y = log(1+e^z)  =>  z = log(e^y - 1)
            try:
                return math.log(math.expm1(y))
            except OverflowError:  # e^y past the float range: z = y + log(1 - e^-y), which is y
                return y + math.log(-math.expm1(-y))
        if k == "polynomial":
            raise ValueError(f"range query not supported for {k}")
        return None

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        params = {}
        if self.kind in PARAM:
            value = getattr(self, PARAM[self.kind])
            params[PARAM[self.kind]] = list(value) if isinstance(value, tuple) else value
        return {"kind": self.kind, "params": params}

    @classmethod
    def from_json(cls, obj: dict) -> "Activation":
        """The activation a spec's {"kind": ..., "params": {...}} names.
        params, when given, is an object naming at most the one parameter
        ``PARAM`` gives the kind."""
        if not isinstance(obj, dict):
            raise TypeError(f"activation must be a JSON object, got {obj!r}")
        kind, params = obj["kind"], obj.get("params", {})
        if kind not in KINDS:
            raise ValueError(f"unknown activation kind {kind!r}")
        if not isinstance(params, dict):
            raise TypeError(f"activation params must be a JSON object, got {params!r}")
        reads = PARAM.get(kind)
        unread = sorted(set(params) - {reads})
        if unread:
            raise ValueError(f"{kind} activation reads no param {', '.join(map(repr, unread))}")
        if kind != "polynomial":
            return cls(kind, **{name: spec_number(v) for name, v in params.items()})
        coeffs = params.get("coeffs")
        if not isinstance(coeffs, list):
            raise TypeError(f"polynomial coeffs must be a JSON list, got {coeffs!r}")
        return cls(kind, coeffs=tuple(spec_number(c) for c in coeffs))
