"""Boolean-mask versions of the closed-form antiderivatives, kept as a test reference.

Each piece of a piecewise antiderivative is evaluated on the elements that
a boolean mask gathers and scattered back. The package picks the pieces
with ``np.where`` instead wherever that is faster, and must give the same
bits.
"""

import numpy as np

from funcbin.kernels import _GAUSS_MASS, _gauss_cdf, _gauss_phi


def rect_antider(t, order):
    if order == 1:
        return np.clip(t, -0.5, 0.5) + 0.5
    lo = t <= -0.5
    hi = t >= 0.5
    mid = ~(lo | hi)
    out = np.empty_like(t)
    out[lo] = 0.0
    out[mid] = 0.5 * (t[mid] + 0.5) ** 2
    out[hi] = t[hi]
    return out


def gauss_antider(t, order):
    t = np.asarray(t, dtype=float)
    lo = t <= -1.5
    hi = t >= 1.5
    mid = ~(lo | hi)
    out = np.empty_like(t)
    if order == 1:
        out[lo] = 0.0
        out[mid] = _gauss_cdf(t[mid]) - _gauss_cdf(np.full(1, -1.5))
        out[hi] = _GAUSS_MASS
        return out
    cdf_lo = _gauss_cdf(np.full(1, -1.5))[0]
    phi_lo = _gauss_phi(np.full(1, -1.5))[0]

    def inner(tt):
        return tt * _gauss_cdf(tt) + _gauss_phi(tt) - (-1.5 * cdf_lo + phi_lo) - cdf_lo * (tt + 1.5)

    out[lo] = 0.0
    out[mid] = inner(t[mid])
    out[hi] = inner(np.full(1, 1.5))[0] + _GAUSS_MASS * (t[hi] - 1.5)
    return out
