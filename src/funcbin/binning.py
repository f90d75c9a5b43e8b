"""Binning primal, forward-mode tangent (JVP), and reverse-mode adjoint (VJP).

The primal scatters weighted points into a frame with a binning kernel k.
The derivative passes use a selectable rule for the per-axis derivative
factor: the pointwise kernel derivative (naive), the synthesized derivative
kappa' = (l * k)' of the convolved kernel, or a heuristic surrogate (STE /
sigmoid). The forward pass never depends on the rule.

Every pass shares one separable core. Each kernel factorises per axis, so
the core builds, per axis, the window of bins u in (x - r, x + r] around
each point and the (n x count) tables of g and g' over that window. The
primal and the JVP are then one ``bincount`` over the flattened bin index;
the VJP is one gather of the adjoint plus an ``einsum``. The 1D passes are
the same core on one axis.

Contributions falling outside the grid are dropped, not clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InvalidGridError, LengthMismatchError, ShapeMismatchError
from .kernels import (
    BINNING_SUPPORT,
    BinningKernel,
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
    """Resolve (g, g', loop radius) for the derivative passes.

    STE / sigmoid keep the FBP-linear kappa as the smoothing factor on the
    non-differentiated axis, so surrogate modes differ only in the 1D rule.
    """
    if isinstance(mode, Naive):
        g = lambda x: eval_binning_kernel(k, x)
        gp = lambda x: eval_binning_kernel_prime(k, x)
        return g, gp, BINNING_SUPPORT[k]
    if isinstance(mode, FBP):
        sk = synthesize_kappa(k, mode.recon)
        return sk.kappa, sk.kappa_prime, sk.support_radius
    sk = synthesize_kappa(k, ReconKernel.LINEAR)
    if isinstance(mode, STE):
        return sk.kappa, ste_derivative, sk.support_radius
    if isinstance(mode, Sigmoid):
        return sk.kappa, sigmoid_derivative, sk.support_radius
    raise ValueError(f"unknown grad mode {mode!r}")


# --- separable scatter/gather core ------------------------------------------


def _axis_taps(coords: np.ndarray, size: int, radius: float, *fns):
    """Kernel window of each coordinate on one axis of ``size`` bins.

    The window is the ``ceil(2 radius)`` bins u in (coord - radius, coord + radius],
    so each fn is evaluated at offsets coord - u in [-radius, radius). Returns the
    (n, count) bin indices clamped into the grid, then for each fn its (n, count)
    table fn(coord - u), zero at taps that fall off the grid.
    """
    u = (np.floor(coords - radius).astype(np.int64) + 1)[:, None] + np.arange(int(np.ceil(2.0 * radius)))
    offsets = coords[:, None] - u
    on_grid = (u >= 0) & (u < size)
    return (np.clip(u, 0, size - 1), *(np.where(on_grid, f(offsets), 0.0) for f in fns))


def _grid_taps(pts: WeightedPoints, grid: FrameGrid, radius: float, *fns):
    """:func:`_axis_taps` of the x and then the y coordinates, in bin units."""
    W, H = grid.shape
    xn = (pts.xs - grid.origin[0]) / grid.delta
    yn = (pts.ys - grid.origin[1]) / grid.delta
    return _axis_taps(xn, W, radius, *fns), _axis_taps(yn, H, radius, *fns)


def _scatter(ux: np.ndarray, uy: np.ndarray, vals: np.ndarray, grid: FrameGrid) -> np.ndarray:
    """Sum the (n, count_x, count_y) tap values into the frame at bins (ux, uy)."""
    W, H = grid.shape
    flat = ux[:, :, None] * H + uy[:, None, :]
    return np.bincount(flat.ravel(), weights=vals.ravel(), minlength=W * H).reshape(W, H)


def bin_forward(pts: WeightedPoints, grid: FrameGrid, k: BinningKernel) -> Frame:
    """Scatter weighted points into the frame with binning kernel k."""
    (ux, gx), (uy, gy) = _grid_taps(pts, grid, BINNING_SUPPORT[k], lambda x: eval_binning_kernel(k, x))
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
    g, gp, r = _axis_rule(k, mode)
    (ux, gx, gpx), (uy, gy, gpy) = _grid_taps(pts, grid, r, g, gp)
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
    g, gp, r = _axis_rule(k, mode)
    (ux, gx, gpx), (uy, gy, gpy) = _grid_taps(pts, grid, r, g, gp)
    a = adjoint[ux[:, :, None], uy[:, None, :]]
    s = pts.ws / grid.delta
    # contract the gathered adjoint with the undifferentiated axis first
    return (
        s * np.einsum("ni,ni->n", np.einsum("nij,nj->ni", a, gy), gpx),
        s * np.einsum("nj,nj->n", np.einsum("nij,ni->nj", a, gx), gpy),
    )


# --- 1D variants: the same core on one axis ---------------------------------


def bin_forward_1d(xs, ws, width: int, delta: float, origin: float, k: BinningKernel) -> np.ndarray:
    """1D binning primal; mirrors the 2D pass on a single axis."""
    if not (width >= 1 and 0.0 < delta < np.inf and np.isfinite(origin)):
        raise InvalidGridError(f"need width >= 1, finite delta > 0 and a finite origin; got {width}, {delta}, {origin}")
    xs = np.asarray(xs, dtype=float)
    ws = np.asarray(ws, dtype=float)
    if len(xs) != len(ws):
        raise LengthMismatchError("xs and ws lengths differ")
    u, g = _axis_taps((xs - origin) / delta, width, BINNING_SUPPORT[k], lambda x: eval_binning_kernel(k, x))
    return np.bincount(u.ravel(), weights=(ws[:, None] * g).ravel(), minlength=width)


def bin_jvp_1d(xs, ws, xdot, width, delta, origin, k: BinningKernel, mode: GradMode) -> np.ndarray:
    """1D tangent pass."""
    xs = np.asarray(xs, dtype=float)
    ws = np.asarray(ws, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    _, gp, r = _axis_rule(k, mode)
    u, gpx = _axis_taps((xs - origin) / delta, width, r, gp)
    return np.bincount(u.ravel(), weights=((ws * xdot / delta)[:, None] * gpx).ravel(), minlength=width)


def bin_vjp_1d(xs, ws, adjoint, width, delta, origin, k: BinningKernel, mode: GradMode) -> np.ndarray:
    """1D adjoint pass; transpose of :func:`bin_jvp_1d`."""
    adjoint = np.asarray(adjoint, dtype=float)
    if adjoint.shape != (width,):
        raise ShapeMismatchError(f"adjoint shape {adjoint.shape} != ({width},)")
    xs = np.asarray(xs, dtype=float)
    ws = np.asarray(ws, dtype=float)
    _, gp, r = _axis_rule(k, mode)
    u, gpx = _axis_taps((xs - origin) / delta, width, r, gp)
    return ws / delta * np.einsum("ni,ni->n", adjoint[u], gpx)
