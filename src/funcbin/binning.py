"""Binning primal, forward-mode tangent (JVP), and reverse-mode adjoint (VJP).

The primal scatters weighted points into a frame with a binning kernel k.
The derivative passes use a selectable rule for the per-axis derivative
factor: the pointwise kernel derivative (naive), the synthesized derivative
kappa' = (l * k)' of the convolved kernel, or a heuristic surrogate (STE /
sigmoid). The forward pass never depends on the rule.

Every pass shares one separable core. Each kernel factorises per axis, so
the core builds, per axis, the window of bins u in (x - r, x + r] around
each point and the (n x count) tables of g and g' over that window: for the
exact polynomial kappas one matrix product of the powers of each point's
fractional offset, otherwise the rule's functions evaluated pointwise. The
primal and the JVP are then one ``bincount`` into the frame padded by count
bins on every side, cropped afterwards; the VJP gathers each point's
count x count window of the zero-padded adjoint and contracts it with an
``einsum``. The 1D passes are the same core on one axis.

Contributions falling outside the grid are dropped, not clamped: they land
in the padding, and a window wholly off the grid is moved onto it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidGridError, LengthMismatchError, ShapeMismatchError
from .kernels import (
    BINNING_SUPPORT,
    BinningKernel,
    PolynomialKernel,
    ReconKernel,
    eval_binning_kernel,
    eval_binning_kernel_prime,
    synthesize_kappa,
)


@dataclass(frozen=True)
class FrameGrid:
    """Uniform bin grid: ``width x height`` bins of spacing ``delta``.

    Bin (u, v) is centered at ``origin + (u, v) * delta`` in point coordinates,
    which for the objective are warped event coordinates. Points scaled by s
    land in the bins that the grid ``(delta / s, origin / s)`` gives them.
    """

    width: int
    height: int
    delta: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not (self.width >= 1 and self.height >= 1 and 0.0 < self.delta < np.inf and np.isfinite(self.origin).all()):
            raise InvalidGridError(
                "need width >= 1, height >= 1, finite delta > 0 and a finite origin; "
                f"got {self.width}x{self.height}, delta={self.delta}, origin={self.origin}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.width, self.height)


@dataclass
class WeightedPoints:
    """Parallel arrays of point coordinates and weights."""

    xs: np.ndarray
    ys: np.ndarray
    ws: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        self.ws = np.asarray(self.ws, dtype=float)
        if not (len(self.xs) == len(self.ys) == len(self.ws)):
            raise LengthMismatchError(
                f"xs, ys, ws lengths differ: {len(self.xs)}, {len(self.ys)}, {len(self.ws)}"
            )
        for name, arr in (("xs", self.xs), ("ys", self.ys), ("ws", self.ws)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")

    def __len__(self) -> int:
        return len(self.xs)


@dataclass
class Frame:
    """A binned frame: values[u, v] indexed x-major to match the grid."""

    grid: FrameGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ShapeMismatchError(f"values shape {self.values.shape} != grid {self.grid.shape}")


# --- gradient rules ---------------------------------------------------------


@dataclass(frozen=True)
class GradMode:
    """Base tag for the backward-pass derivative rule; ``name`` is its label in reports."""

    name: ClassVar[str]


@dataclass(frozen=True)
class Naive(GradMode):
    """Pointwise kernel derivative k' (zero a.e. for the rect kernel)."""

    name = "naive"


@dataclass(frozen=True)
class FBP(GradMode):
    """Synthesized derivative kappa' with kappa = l * k."""

    recon: ReconKernel = ReconKernel.LINEAR

    @property
    def name(self) -> str:
        return f"fbp-{self.recon.value}"


@dataclass(frozen=True)
class STE(GradMode):
    """Straight-through estimator: kappa'(x) = -sgn(x) on |x| < 1."""

    name = "ste"


@dataclass(frozen=True)
class Sigmoid(GradMode):
    """Sigmoid surrogate: difference of sigmoid derivatives at edges scaled by ``SIGMOID_SLOPE``."""

    name = "sigmoid"


SIGMOID_SLOPE = 10.0


def _sigma_prime(z: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 - s)


def ste_derivative(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, -np.sign(x), 0.0)


def sigmoid_derivative(x) -> np.ndarray:
    # derivative of the sigmoid-smoothed unit step pair sigma(s(x+1/2)) - sigma(s(x-1/2))
    # with s = SIGMOID_SLOPE; the slope factor comes from the chain rule
    x = np.asarray(x, dtype=float)
    return SIGMOID_SLOPE * (_sigma_prime(SIGMOID_SLOPE * (x + 0.5)) - _sigma_prime(SIGMOID_SLOPE * (x - 0.5)))


def _axis_rule(k: BinningKernel, mode: GradMode):
    """Resolve (loop radius, tap source) for the derivative passes.

    The source is the rule's pair (g, g') of pointwise functions, or the
    polynomial kappa whose ``tap_tables`` give both tables at once. STE /
    sigmoid keep the FBP-linear kappa as the smoothing factor on the
    non-differentiated axis, so surrogate modes differ only in the 1D rule.
    """
    if isinstance(mode, Naive):
        return BINNING_SUPPORT[k], (lambda x: eval_binning_kernel(k, x), lambda x: eval_binning_kernel_prime(k, x))
    if isinstance(mode, FBP):
        sk = synthesize_kappa(k, mode.recon)
        return sk.support_radius, sk if isinstance(sk, PolynomialKernel) else (sk.kappa, sk.kappa_prime)
    sk = synthesize_kappa(k, ReconKernel.LINEAR)
    if isinstance(mode, STE):
        return sk.support_radius, (sk.kappa, ste_derivative)
    if isinstance(mode, Sigmoid):
        return sk.support_radius, (sk.kappa, sigmoid_derivative)
    raise ValueError(f"unknown grad mode {mode!r}")


# --- separable scatter/gather core ------------------------------------------


def _axis_taps(coords: np.ndarray, size: int, radius: float, source):
    """Kernel window of each coordinate on one axis of ``size`` bins.

    The window is the count = ``ceil(2 radius)`` bins u = u0 + t, t < count, in
    (coord - radius, coord + radius], so tap t sits at offset
    coord - u = s + radius - 1 - t with s = coord - radius - floor(coord - radius)
    in [0, 1). Returns each window's first bin on the axis padded by count bins
    on both sides, clipped so that a window wholly off the grid lies in the
    padding, then the (n, count) tables of ``source``: a polynomial kappa's
    ``tap_tables(s)``, or each pointwise fn at the offsets coord - u.
    """
    count = int(np.ceil(2.0 * radius))
    f = coords - radius
    fl = np.floor(f)
    first = fl + 1.0
    # clip before the cast, so a coordinate far off the grid never overflows int64
    start = np.clip(first, -count, size).astype(np.int64) + count
    if isinstance(source, PolynomialKernel):
        return start, *source.tap_tables(f - fl)
    offsets = coords[:, None] - (first[:, None] + np.arange(count))
    return start, *(fn(offsets) for fn in source)


def _grid_taps(pts: WeightedPoints, grid: FrameGrid, radius: float, source):
    """:func:`_axis_taps` of the x and then the y coordinates, in bin units."""
    W, H = grid.shape
    xn = (pts.xs - grid.origin[0]) / grid.delta
    yn = (pts.ys - grid.origin[1]) / grid.delta
    return _axis_taps(xn, W, radius, source), _axis_taps(yn, H, radius, source)


def _scatter(ux: np.ndarray, uy: np.ndarray, vals: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """Sum the (n, count, count) tap values of windows starting at padded bins (ux, uy) into the frame."""
    W, H = grid.shape
    count = vals.shape[1]
    taps = np.arange(count)
    Hp = H + 2 * count
    flat = (ux[:, None] + taps)[:, :, None] * Hp + (uy[:, None] + taps)[:, None, :]
    padded = np.bincount(flat.ravel(), weights=vals.ravel(), minlength=(W + 2 * count) * Hp).reshape(-1, Hp)
    # a contiguous frame: numpy may sum a strided view in another order, and the objective's bits would move
    return np.ascontiguousarray(padded[count : count + W, count : count + H])


def _scatter_1d(u: np.ndarray, vals: np.ndarray, width: int) -> np.ndarray:
    """Sum the (n, count) tap values of windows starting at padded bins u into the axis."""
    count = vals.shape[1]
    padded = np.bincount((u[:, None] + np.arange(count)).ravel(), weights=vals.ravel(), minlength=width + 2 * count)
    return padded[count : count + width]


def bin_forward(pts: WeightedPoints, grid: FrameGrid, k: BinningKernel) -> Frame:
    """Scatter weighted points into the frame with binning kernel k."""
    (ux, gx), (uy, gy) = _grid_taps(pts, grid, BINNING_SUPPORT[k], (lambda x: eval_binning_kernel(k, x),))
    vals = (pts.ws[:, None] * gx)[:, :, None] * gy[:, None, :]
    return Frame(grid, _scatter(ux, uy, vals, grid))


def bin_jvp(
    pts: WeightedPoints,
    tangents: tuple[np.ndarray, np.ndarray],
    grid: FrameGrid,
    k: BinningKernel,
    mode: GradMode,
) -> np.ndarray:
    """Frame-shaped tangent of the binning output along point tangents."""
    xdot = np.asarray(tangents[0], dtype=float)
    ydot = np.asarray(tangents[1], dtype=float)
    if len(xdot) != len(pts) or len(ydot) != len(pts):
        raise LengthMismatchError("tangents must match point count")
    (ux, gx, gpx), (uy, gy, gpy) = _grid_taps(pts, grid, *_axis_rule(k, mode))
    wx = (pts.ws * xdot / grid.delta)[:, None] * gpx
    wy = (pts.ws * ydot / grid.delta)[:, None] * gpy
    vals = wx[:, :, None] * gy[:, None, :] + gx[:, :, None] * wy[:, None, :]
    return _scatter(ux, uy, vals, grid)


def bin_vjp(
    pts: WeightedPoints,
    adjoint: np.ndarray,
    grid: FrameGrid,
    k: BinningKernel,
    mode: GradMode,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point gradients (g_x, g_y); exact transpose of :func:`bin_jvp`."""
    adjoint = np.asarray(adjoint, dtype=float)
    if adjoint.shape != grid.shape:
        raise ShapeMismatchError(f"adjoint shape {adjoint.shape} != grid {grid.shape}")
    (ux, gx, gpx), (uy, gy, gpy) = _grid_taps(pts, grid, *_axis_rule(k, mode))
    count = gx.shape[1]
    padded = np.pad(adjoint, count)
    a = sliding_window_view(padded, (count, count))[ux, uy]
    s = pts.ws / grid.delta
    # contract the gathered adjoint with the undifferentiated axis first
    return (
        s * np.einsum("ni,ni->n", np.einsum("nij,nj->ni", a, gy), gpx),
        s * np.einsum("nj,nj->n", np.einsum("nij,ni->nj", a, gx), gpy),
    )


# --- 1D variants: the same core on one axis ---------------------------------


def _check_1d(xs, ws, width: int, delta: float, origin: float, **per_point) -> tuple[np.ndarray, np.ndarray]:
    """Check a 1D pass's grid and per-point arrays as the 2D types do; returns xs and ws as float arrays."""
    if not (width >= 1 and 0.0 < delta < np.inf and np.isfinite(origin)):
        raise InvalidGridError(f"need width >= 1, finite delta > 0 and a finite origin; got {width}, {delta}, {origin}")
    xs = np.asarray(xs, dtype=float)
    ws = np.asarray(ws, dtype=float)
    for name, arr in (("ws", ws), *per_point.items()):
        if np.shape(arr) != xs.shape:
            raise LengthMismatchError(f"{name} has shape {np.shape(arr)}, xs {xs.shape}")
    for name, arr in (("xs", xs), ("ws", ws)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite entries in {name}")
    return xs, ws


def bin_forward_1d(xs, ws, width: int, delta: float, origin: float, k: BinningKernel) -> np.ndarray:
    """1D binning primal; mirrors the 2D pass on a single axis."""
    xs, ws = _check_1d(xs, ws, width, delta, origin)
    u, g = _axis_taps((xs - origin) / delta, width, BINNING_SUPPORT[k], (lambda x: eval_binning_kernel(k, x),))
    return _scatter_1d(u, ws[:, None] * g, width)


def bin_jvp_1d(xs, ws, xdot, width, delta, origin, k: BinningKernel, mode: GradMode) -> np.ndarray:
    """1D tangent pass."""
    xdot = np.asarray(xdot, dtype=float)
    xs, ws = _check_1d(xs, ws, width, delta, origin, xdot=xdot)
    u, _, gpx = _axis_taps((xs - origin) / delta, width, *_axis_rule(k, mode))
    return _scatter_1d(u, (ws * xdot / delta)[:, None] * gpx, width)


def bin_vjp_1d(xs, ws, adjoint, width, delta, origin, k: BinningKernel, mode: GradMode) -> np.ndarray:
    """1D adjoint pass; transpose of :func:`bin_jvp_1d`."""
    xs, ws = _check_1d(xs, ws, width, delta, origin)
    adjoint = np.asarray(adjoint, dtype=float)
    if adjoint.shape != (width,):
        raise ShapeMismatchError(f"adjoint shape {adjoint.shape} != ({width},)")
    u, _, gpx = _axis_taps((xs - origin) / delta, width, *_axis_rule(k, mode))
    count = gpx.shape[1]
    a = sliding_window_view(np.pad(adjoint, count), count)[u]
    return ws / delta * np.einsum("ni,ni->n", a, gpx)
