"""Binning kernels, reconstruction kernels, and their convolution.

A binning kernel ``k`` spreads each weighted point over nearby bins. A
reconstruction kernel ``l`` (unit mass) encodes the smoothness prior used to
rebuild a continuous adjoint signal from per-bin values. Their convolution
``kappa = l * k`` is the kernel whose derivative replaces the (possibly
nonexistent) derivative of ``k`` in the backward pass.

All kernels here are symmetric with compact support. ``kappa`` is available
in closed form whenever ``l`` is the linear spline; every other pairing is
tabulated by numerical convolution on a uniform grid and fitted with a
natural cubic spline, whose piecewise coefficients are evaluated by direct
interval lookup.
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import erf

_SQRT2 = np.sqrt(2.0)
_SQRT_2PI = np.sqrt(2.0 * np.pi)


class BinningKernel(str, Enum):
    RECT = "rect"
    LINEAR = "linear"
    GAUSS_TRUNC = "gauss"


class ReconKernel(str, Enum):
    LINEAR = "linear"
    CUBIC = "cubic"
    LANCZOS = "lanczos"


BINNING_SUPPORT = {
    BinningKernel.RECT: 0.5,
    BinningKernel.LINEAR: 1.0,
    BinningKernel.GAUSS_TRUNC: 1.5,
}

RECON_SUPPORT = {
    ReconKernel.LINEAR: 1.0,
    ReconKernel.CUBIC: 2.0,
    ReconKernel.LANCZOS: 2.0,
}

# knot spacing of a tabulated kappa, and the Simpson spacing of its convolution
TABLE_STEP = 1e-3


def eval_binning_kernel(kind: BinningKernel, x) -> np.ndarray:
    """Evaluate the binning kernel k at x (vectorized, exact zero outside support).

    The rect kernel is half-open, 1 on [-1/2, 1/2), so a point on a bin edge
    counts in exactly one bin: the upper one, as in ``np.histogram2d``.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if kind == BinningKernel.RECT:
        return np.where((x >= -0.5) & (x < 0.5), 1.0, 0.0)
    if kind == BinningKernel.LINEAR:
        return np.where(a < 1.0, 1.0 - a, 0.0)
    if kind == BinningKernel.GAUSS_TRUNC:
        return np.where(a < 1.5, np.exp(-0.5 * x * x) / _SQRT_2PI, 0.0)
    raise ValueError(f"unknown binning kernel {kind!r}")


def eval_binning_kernel_prime(kind: BinningKernel, x) -> np.ndarray:
    """Pointwise derivative of k (the 'naive' gradient rule; zero a.e. for rect)."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if kind == BinningKernel.RECT:
        return np.zeros_like(x)
    if kind == BinningKernel.LINEAR:
        return np.where(a < 1.0, -np.sign(x), 0.0)
    if kind == BinningKernel.GAUSS_TRUNC:
        return np.where(a < 1.5, -x * np.exp(-0.5 * x * x) / _SQRT_2PI, 0.0)
    raise ValueError(f"unknown binning kernel {kind!r}")


@functools.lru_cache(maxsize=None)
def _lanczos_mass() -> float:
    xs = np.linspace(-2.0, 2.0, 400001)
    return float(simpson(_lanczos_raw(xs), x=xs))


def _lanczos_raw(x: np.ndarray) -> np.ndarray:
    a = np.abs(x)
    out = np.zeros_like(x)
    inside = a <= 2.0
    xi = x[inside]
    with np.errstate(invalid="ignore", divide="ignore"):
        val = 2.0 * np.sin(np.pi * xi) * np.sin(0.5 * np.pi * xi) / (np.pi * xi) ** 2
    val = np.where(xi == 0.0, 1.0, val)
    out[inside] = val
    return out


def eval_recon_kernel(kind: ReconKernel, x) -> np.ndarray:
    """Evaluate the reconstruction kernel l at x.

    Lanczos is the windowed sinc renormalized to unit mass.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    if kind == ReconKernel.LINEAR:
        return np.maximum(1.0 - a, 0.0)
    if kind == ReconKernel.CUBIC:
        inner = 1.5 * a**3 - 2.5 * a**2 + 1.0
        outer = 2.5 * a**2 - 0.5 * a**3 - 4.0 * a + 2.0
        return np.where(a < 1.0, inner, np.where(a <= 2.0, outer, 0.0))
    if kind == ReconKernel.LANCZOS:
        return _lanczos_raw(x) / _lanczos_mass()
    raise ValueError(f"unknown reconstruction kernel {kind!r}")


# ---------------------------------------------------------------------------
# kappa = l * k
# ---------------------------------------------------------------------------


class SynthesizedKernel:
    """The convolution kappa = l * k and its derivative.

    Immutable after construction; evaluation is pure and thread-safe.
    """

    def __init__(self, k_kind: BinningKernel, l_kind: ReconKernel):
        self.k_kind = k_kind
        self.l_kind = l_kind
        self.support_radius = BINNING_SUPPORT[k_kind] + RECON_SUPPORT[l_kind]

    def kappa(self, x) -> np.ndarray:
        raise NotImplementedError

    def kappa_prime(self, x) -> np.ndarray:
        raise NotImplementedError


# The antiderivatives below are piecewise. Where evaluating every piece's
# formula on every element and picking with np.where is faster than
# gathering each piece's elements through a boolean mask, they do that, with
# the same per-element formulas and so the same results, except that the
# triangle's K2 cubes by products where the masks used pow (the rounding
# differs; see tests/kernel_oracle.py). The erf piece of the Gaussian's K2 is
# dearer than the gathers, so it keeps its masks.


def _rect_antider(t: np.ndarray, order: int) -> np.ndarray:
    # K1 / K2: first and second antiderivatives of k_rect, vanishing at -inf.
    if order == 1:
        return np.clip(t, -0.5, 0.5) + 0.5
    # K2(0.5) = 0.5, slope 1 beyond
    return np.where(t <= -0.5, 0.0, np.where(t >= 0.5, t, 0.5 * (t + 0.5) ** 2))


def _linear_antider(t: np.ndarray, order: int) -> np.ndarray:
    a = np.abs(t)
    s = np.sign(t)
    if order == 1:
        core = 0.5 + s * (np.minimum(a, 1.0) - 0.5 * np.minimum(a, 1.0) ** 2)
        return core
    # second antiderivative of the triangle, vanishing for t <= -1
    u = t + 1.0
    neg = u * u * u / 6.0
    pos = 1.0 / 6.0 + 0.5 * t + 0.5 * t * t - t * t * t / 6.0
    # K2(1) = 1, slope 1 beyond
    return np.where(t <= -1.0, 0.0, np.where(t < 0.0, neg, np.where(t < 1.0, pos, t)))


def _gauss_phi(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * t * t) / _SQRT_2PI


def _gauss_cdf(t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(t / _SQRT2))


_GAUSS_MASS = float(erf(1.5 / _SQRT2))


def _gauss_antider(t: np.ndarray, order: int) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    lo = t <= -1.5
    hi = t >= 1.5
    if order == 1:
        return np.where(lo, 0.0, np.where(hi, _GAUSS_MASS, _gauss_cdf(t) - _gauss_cdf(np.full(1, -1.5))))
    mid = ~(lo | hi)
    out = np.empty_like(t)
    # second antiderivative: integral of the above from -1.5
    cdf_lo = _gauss_cdf(np.full(1, -1.5))[0]
    phi_lo = _gauss_phi(np.full(1, -1.5))[0]

    def inner(tt):
        return tt * _gauss_cdf(tt) + _gauss_phi(tt) - (-1.5 * cdf_lo + phi_lo) - cdf_lo * (tt + 1.5)

    out[lo] = 0.0
    out[mid] = inner(t[mid])
    k2_hi = inner(np.full(1, 1.5))[0]
    out[hi] = k2_hi + _GAUSS_MASS * (t[hi] - 1.5)
    return out


_ANTIDERS = {
    BinningKernel.RECT: _rect_antider,
    BinningKernel.LINEAR: _linear_antider,
    BinningKernel.GAUSS_TRUNC: _gauss_antider,
}


class _ClosedFormKernel(SynthesizedKernel):
    """Exact kappa for l = linear spline.

    Convolving with the triangle equals a second difference of the second
    antiderivative of k: kappa(x) = K2(x+1) - 2 K2(x) + K2(x-1), and
    kappa'(x) = K1(x+1) - 2 K1(x) + K1(x-1). This reproduces the piecewise
    polynomial / erf branch formulas exactly and is stable at branch edges.
    """

    def kappa(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = _ANTIDERS[self.k_kind]
        out = f(x + 1.0, 2) - 2.0 * f(x, 2) + f(x - 1.0, 2)
        return np.where(np.abs(x) >= self.support_radius, 0.0, out)

    def kappa_prime(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        f = _ANTIDERS[self.k_kind]
        out = f(x + 1.0, 1) - 2.0 * f(x, 1) + f(x - 1.0, 1)
        return np.where(np.abs(x) >= self.support_radius, 0.0, out)


class _TabulatedKernel(SynthesizedKernel):
    """kappa sampled on a uniform grid and fitted with a natural cubic spline.

    Evaluation looks up the interval ``(x + r) / TABLE_STEP`` directly and applies
    Horner's rule to the spline's own piecewise coefficients.
    """

    def __init__(self, k_kind, l_kind):
        super().__init__(k_kind, l_kind)
        r = self.support_radius
        xs = np.arange(-r, r + TABLE_STEP / 2, TABLE_STEP)
        vals = _convolve_on_grid(k_kind, l_kind, xs)
        self._spline = CubicSpline(xs, vals, bc_type="natural")
        c = self._spline.c
        self._coeffs = tuple(c)
        self._dcoeffs = (3.0 * c[0], 2.0 * c[1], c[2])

    def _lookup(self, x, coeffs) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        r = self.support_radius
        knots = self._spline.x
        # x off the support is clipped onto it for the lookup, then zeroed
        i = np.minimum(((np.clip(x, -r, r) + r) / TABLE_STEP).astype(np.int64), len(knots) - 2)
        t = x - knots[i]
        out = coeffs[0][i]
        for c in coeffs[1:]:
            out = out * t + c[i]
        return np.where(np.abs(x) < r, out, 0.0)

    def kappa(self, x) -> np.ndarray:
        return self._lookup(x, self._coeffs)

    def kappa_prime(self, x) -> np.ndarray:
        return self._lookup(x, self._dcoeffs)


def _simpson_nodes(r: float, step: float) -> np.ndarray:
    """Nodes of Simpson's rule on [-r, r]: the fewest even number of intervals of spacing <= ``step``."""
    n = int(np.ceil(2 * r / step))
    return np.linspace(-r, r, n + n % 2 + 1)


def _convolve_on_grid(k_kind, l_kind, xs) -> np.ndarray:
    """Simpson evaluation of (l * k)(xs), integrating over k's support.

    Integrating over the binning kernel's variable keeps its jump
    discontinuities at the fixed integration limits, so the integrand is
    piecewise smooth and Simpson converges fast.
    """
    rk = BINNING_SUPPORT[k_kind]
    ys = _simpson_nodes(rk, TABLE_STEP)
    ky = eval_binning_kernel(k_kind, np.clip(ys, -rk + 1e-12, rk - 1e-12))
    out = np.empty(len(xs))
    block = 512
    for i in range(0, len(xs), block):
        xb = np.asarray(xs[i : i + block])
        lv = eval_recon_kernel(l_kind, xb[:, None] - ys[None, :])
        out[i : i + block] = simpson(lv * ky[None, :], x=ys, axis=1)
    return out


@functools.lru_cache(maxsize=None)
def synthesize_kappa(k_kind: BinningKernel, l_kind: ReconKernel) -> SynthesizedKernel:
    """Build kappa = l * k: closed form when l is linear, tabulated otherwise."""
    if l_kind == ReconKernel.LINEAR:
        return _ClosedFormKernel(k_kind, l_kind)
    return _TabulatedKernel(k_kind, l_kind)
