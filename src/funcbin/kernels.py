"""Binning kernels, reconstruction kernels, and their convolution.

A binning kernel ``k`` spreads each weighted point over nearby bins. A
reconstruction kernel ``l`` (unit mass) encodes the smoothness prior used to
rebuild a continuous adjoint signal from per-bin values. Their convolution
``kappa = l * k`` is the kernel whose derivative replaces the (possibly
nonexistent) derivative of ``k`` in the backward pass.

All kernels here are symmetric with compact support. When ``k`` is a
B-spline (rect, linear) and ``l`` is piecewise polynomial on unit pieces
(linear, Keys' cubic), ``kappa`` is exact: on each tap of a binning window it
is one polynomial of the point's fractional offset, with coefficients derived
in rational arithmetic from ``l``'s pieces. The truncated Gaussian with the
linear ``l`` has an exact erf form. Every other pairing (the Gaussian with
the cubic, and each kernel with Lanczos) is tabulated by numerical
convolution on a uniform grid and fitted with a natural cubic spline, whose
piecewise coefficients are evaluated by direct interval lookup.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction

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


# The reconstruction kernels that are one polynomial per unit interval: piece j
# covers |x| in [j, j + 1), coefficients in ascending powers of |x|. Keys'
# cubic is the a = -1/2 member of his family (Keys 1981).
_RECON_PIECES = {
    ReconKernel.LINEAR: ((1, -1),),
    ReconKernel.CUBIC: ((1, 0, Fraction(-5, 2), Fraction(3, 2)), (2, -4, Fraction(5, 2), Fraction(-1, 2))),
}

# the binning kernels that are B-splines, by order: rect * rect = linear
_BSPLINE_ORDER = {BinningKernel.RECT: 1, BinningKernel.LINEAR: 2}


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


def _gauss_phi(t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * t * t) / _SQRT_2PI


def _gauss_cdf(t: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + erf(t / _SQRT2))


_GAUSS_MASS = float(erf(1.5 / _SQRT2))


# K1 picks its pieces with np.where; K2 gathers the elements of its erf piece
# through a mask instead, since evaluating erf on every element costs more.
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


class _ClosedFormKernel(SynthesizedKernel):
    """Exact kappa for the truncated Gaussian k and l = linear spline.

    Convolving with the triangle equals a second difference of the second
    antiderivative of k: kappa(x) = K2(x+1) - 2 K2(x) + K2(x-1), and
    kappa'(x) = K1(x+1) - 2 K1(x) + K1(x-1), in the erf form of K1 and K2.
    """

    def kappa(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = _gauss_antider(x + 1.0, 2) - 2.0 * _gauss_antider(x, 2) + _gauss_antider(x - 1.0, 2)
        return np.where(np.abs(x) >= self.support_radius, 0.0, out)

    def kappa_prime(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = _gauss_antider(x + 1.0, 1) - 2.0 * _gauss_antider(x, 1) + _gauss_antider(x - 1.0, 1)
        return np.where(np.abs(x) >= self.support_radius, 0.0, out)


# Exact polynomial arithmetic on coefficient lists in ascending powers.


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _poly_compose_affine(p, a, b):
    """Coefficients of p(a + b s) in s, by the binomial expansion of each power."""
    return [b**i * sum(c * math.comb(k, i) * a ** (k - i) for k, c in enumerate(p[i:], i)) for i in range(len(p))]


def _poly_integral(p):
    """The antiderivative of p that vanishes at s = 0."""
    return [Fraction(0)] + [Fraction(c) / (i + 1) for i, c in enumerate(p)]


def _unit_pieces(l_kind: ReconKernel, order: int, lo: int, hi: int) -> list[list[list[Fraction]]]:
    """Local polynomials of l's antiderivatives on the unit intervals [j, j + 1), j = lo .. hi - 1.

    Entry [m][j - lo] holds L_m(j + s) as a polynomial in s in [0, 1), with
    L_0 = l and L_m the antiderivative of L_(m-1) vanishing at -inf, for
    m = 0 .. order. ``lo`` must not exceed -R, where l vanishes.
    """
    pieces = _RECON_PIECES[l_kind]
    R = len(pieces)
    # l(j + s): |x| = j + s on the right half, -j - s on the left
    level = [
        _poly_compose_affine(pieces[j], j, 1) if 0 <= j < R
        else _poly_compose_affine(pieces[-j - 1], -j, -1) if -R <= j < 0
        else [0]
        for j in range(lo, hi)
    ]
    out = [level]
    for _ in range(order):
        value, nxt = Fraction(0), []
        for p in level:
            q = _poly_integral(p)
            q[0] += value
            value = sum(q)
            nxt.append(q)
        out.append(level := nxt)
    return out


class PolynomialKernel(SynthesizedKernel):
    """Exact kappa when k is a B-spline (rect, linear) and l is piecewise polynomial on unit pieces.

    For k the B-spline of order m (rect m = 1, linear m = 2), kappa = l * k is the
    m-th central difference of L_m, the m-th antiderivative of l:

        kappa(x)  = sum_i (-1)^i C(m, i) L_m(x + m/2 - i),
        kappa'(x) = sum_i (-1)^i C(m, i) L_(m-1)(x + m/2 - i).

    Both break only where x + m/2 is an integer, so on the tap t of a binning
    window, offset x = s + r - 1 - t with s in [0, 1), each is one polynomial
    in s. Their coefficients are derived in exact rational arithmetic from l's
    pieces and rounded once; ``tap_tables`` evaluates every tap with one
    product of the power basis of s and the (degree + 1, 2 count) coefficient
    matrix, and ``kappa``/``kappa_prime`` evaluate the same pieces pointwise.
    """

    def __init__(self, k_kind, l_kind):
        super().__init__(k_kind, l_kind)
        m = _BSPLINE_ORDER[k_kind]
        R = len(_RECON_PIECES[l_kind])
        self.count = count = m + 2 * R
        lo = -R - m
        L = _unit_pieces(l_kind, m, lo, R + m)
        # tap t, term i: L(x + m/2 - i) at x = s + r - 1 - t is piece j = R - 1 - t + m - i
        cols = [
            functools.reduce(
                _poly_add,
                ([(-1) ** i * math.comb(m, i) * c for c in L[order][R - 1 - t + m - i - lo]] for i in range(m + 1)),
            )
            for order in (m, m - 1)
            for t in range(count)
        ]
        deg = max(len(c) for c in cols)
        self.tap_coeffs = np.array([[float(c[d]) if d < len(c) else 0.0 for c in cols] for d in range(deg)])

    def tap_tables(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n, count) tables of kappa and kappa' at the offsets s + r - 1 - t of each window."""
        powers = np.empty((len(self.tap_coeffs), len(s)))
        powers[0] = 1.0
        for d in range(1, len(powers)):
            np.multiply(powers[d - 1], s, out=powers[d])
        tables = powers.T @ self.tap_coeffs
        return tables[:, : self.count], tables[:, self.count :]

    def _pointwise(self, x: np.ndarray, first_col: int) -> np.ndarray:
        # kappa is even and kappa' odd, so the piece is found for |x| = s + r - 1 - t.
        # Few arrays live at once: allocating them costs more than the arithmetic.
        s = np.abs(x).reshape(-1)
        s -= self.support_radius - 1.0
        minus_t = np.floor(s)
        s -= minus_t
        off_support = minus_t > 0
        np.minimum(minus_t, 0.0, out=minus_t)
        cols = (first_col - minus_t).astype(np.int64)
        del minus_t
        out = self.tap_coeffs[-1].take(cols)
        term = np.empty_like(out)
        for c in self.tap_coeffs[-2::-1]:
            out *= s
            out += c.take(cols, out=term, mode="clip")
        out[off_support] = 0.0
        return out.reshape(x.shape)

    def kappa(self, x) -> np.ndarray:
        return self._pointwise(np.asarray(x, dtype=float), 0)

    def kappa_prime(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self._pointwise(x, self.count)
        out *= np.sign(x)
        return out


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
    """Build kappa = l * k: exact per-tap polynomials when k is rect or linear and l
    linear or cubic, the erf closed form for the Gaussian and linear l, tabulated otherwise."""
    if k_kind in _BSPLINE_ORDER and l_kind in _RECON_PIECES:
        return PolynomialKernel(k_kind, l_kind)
    if l_kind == ReconKernel.LINEAR:
        return _ClosedFormKernel(k_kind, l_kind)
    return _TabulatedKernel(k_kind, l_kind)
