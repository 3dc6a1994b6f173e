"""1-d convolution as structured sparse matrices (stride 1).

Three padding modes: "full" (kernel and input overlap anywhere), "same"
(output length = input length, zero padding on the right only), "valid"
(no padding).  The induced weight matrix rows are shifted copies of the
kernel, so their span and rank are fully predictable; the closed-form rank
is exposed next to the constructor for certification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MODES = ("full", "same", "valid")


@dataclass(frozen=True)
class ConvSpec:
    """Kernel (length d1) sliding over inputs of length d, stride 1."""

    kernel: np.ndarray
    input_len: int
    mode: str

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float).reshape(-1).copy()
        if k.size == 0:
            raise ValueError("kernel must be non-empty")
        k.setflags(write=False)
        object.__setattr__(self, "kernel", k)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.input_len < 1:
            raise ValueError("input_len must be >= 1")
        if self.mode == "valid" and self.input_len < k.size:
            raise ValueError("valid mode needs input_len >= kernel length")

    @property
    def kernel_len(self) -> int:
        return int(self.kernel.size)

    @property
    def out_len(self) -> int:
        return len(self.window_starts())

    def window_starts(self) -> range:
        """Start offset of the kernel window for each output row."""
        d1, d = self.kernel_len, self.input_len
        if self.mode == "full":
            return range(-(d1 - 1), d)
        if self.mode == "same":
            return range(0, d)
        return range(0, d - d1 + 1)


def conv_matrix(spec: ConvSpec) -> np.ndarray:
    """The (out_len, input_len) matrix f(w) with f(w) @ x = conv(w, x)."""
    d1, d = spec.kernel_len, spec.input_len
    F = np.zeros((spec.out_len, d))
    for row, a in enumerate(spec.window_starts()):
        for m in range(d1):
            j = a + m
            if 0 <= j < d:
                F[row, j] = spec.kernel[m]
    return F


def conv_rank_expected(spec: ConvSpec) -> int:
    """Closed-form rank of conv_matrix(spec).

    Zero kernel: 0.  Otherwise with j0 the first nonzero kernel index:
    full -> input_len; same -> max(input_len - j0, 0); valid -> out_len.
    """
    w = spec.kernel
    nz = np.flatnonzero(w != 0.0)
    if nz.size == 0:
        return 0
    j0 = int(nz[0])
    if spec.mode == "full":
        return spec.input_len
    if spec.mode == "same":
        return max(spec.input_len - j0, 0)
    return spec.out_len
