"""Event containers and parametric warps with analytic Jacobians.

Events are lifted to homogeneous coordinates (x, y, 1), moved by a
rotational or translational model scaled by the time offset to the packet
reference time, then perspective-projected back to 2D. Jacobians of the
projected coordinates with respect to the three motion parameters are
computed by the chain rule and validated against finite differences in the
test suite. They are built lazily, on the first access of
``WarpResult.jacobian``, so a warp whose points are only binned (an
objective value) never pays for them; each of the six entries is built as
one column over the kept events.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .binning import WeightedPoints
from .errors import LengthMismatchError, NonFiniteThetaError

PROJECTION_GUARD = 1e-6


@dataclass(frozen=True, slots=True)
class Event:
    """A single sensor spike: the row type of ``synth_events`` and ``write_events_txt``."""

    t: float
    x: float
    y: float
    polarity: int

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise ValueError(f"polarity must be -1 or +1, got {self.polarity}")
        if not math.isfinite(self.t):
            raise ValueError("timestamp must be finite")


@dataclass
class EventPacket:
    """A time-sorted batch of events with a reference time."""

    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    ps: np.ndarray
    t_ref: float

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        self.ps = np.asarray(self.ps, dtype=int)
        n = len(self.ts)
        if n < 1:
            raise ValueError("packet must contain at least one event")
        if not (len(self.xs) == len(self.ys) == len(self.ps) == n):
            raise LengthMismatchError("event arrays disagree in length")
        if np.any(np.diff(self.ts) < 0):
            raise ValueError("timestamps must be nondecreasing")
        if not (self.ts[0] <= self.t_ref <= self.ts[-1]):
            raise ValueError(f"t_ref {self.t_ref} outside [{self.ts[0]}, {self.ts[-1]}]")

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True)
class MotionParams:
    """Planted or estimated motion: 'rot' (rad/s) or 'trans' (units/s)."""

    model: str
    vec: tuple[float, float, float]

    def __post_init__(self):
        if self.model not in ("rot", "trans"):
            raise ValueError(f"model must be 'rot' or 'trans', got {self.model!r}")
        object.__setattr__(self, "vec", tuple(float(v) for v in self.vec))
        if not all(np.isfinite(self.vec)):
            raise ValueError("motion parameters must be finite")


@dataclass
class WarpResult:
    """Projected points, weights and bookkeeping, with the per-event 2x3 Jacobians on demand.

    ``jacobian`` is an (n_kept, 2, 3) array built on first access from the
    warp's own intermediates and kept from then on. A caller that only bins
    the points, as the objective value does, never builds it.
    """

    points: WeightedPoints
    kept: np.ndarray  # boolean mask over the input packet
    n_excluded: int
    _build_jacobian: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @functools.cached_property
    def jacobian(self) -> np.ndarray:
        J = self._build_jacobian()
        self._build_jacobian = None  # let the intermediates go
        return J


def _motion_vector(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise NonFiniteThetaError(f"motion parameters theta must be finite, got {theta.tolist()}")
    return theta


def _project(h0: np.ndarray, h1: np.ndarray, h2: np.ndarray, guard: float):
    """Perspective divide of the columns h0, h1, h2 with a guard; returns (x, y, keep mask, divisor)."""
    keep = np.abs(h2) >= guard
    hz = np.where(keep, h2, 1.0)
    return h0 / hz, h1 / hz, keep, hz


def _projection_rows(h0: np.ndarray, h1: np.ndarray, hz: np.ndarray, keep: np.ndarray) -> tuple[tuple, tuple]:
    """The two rows of d(projection)/dh at the kept events, each three columns over them."""
    zero = np.zeros(np.count_nonzero(keep))
    hz = hz[keep]
    inv = 1.0 / hz
    return (inv, zero, -h0[keep] / hz**2), (zero, inv, -h1[keep] / hz**2)


def _warp_result(px, py, keep, build_jacobian) -> WarpResult:
    # every event weighs one, whatever its polarity
    pts = WeightedPoints(px[keep], py[keep], np.ones(np.count_nonzero(keep)))
    return WarpResult(pts, keep, int(np.count_nonzero(~keep)), build_jacobian)


def warp_rotational(
    packet: EventPacket,
    omega,
    *,
    guard: float = PROJECTION_GUARD,
) -> WarpResult:
    """Rotate homogeneous event coordinates by the angular-velocity model.

    Each event moves to ``(t_ref - t) * omega x X + X`` with ``X = (x, y, 1)``,
    followed by the perspective divide. Events whose projection denominator
    falls under the guard are excluded and counted.
    """
    w0, w1, w2 = _motion_vector(omega)
    xs, ys = packet.xs, packet.ys
    dt = packet.t_ref - packet.ts
    # h = X + dt (omega x X) with X = (x, y, 1), one column at a time. Each
    # cross-product column takes np.cross's terms in np.cross's order, so the
    # points keep the bits of the stacked np.cross construction
    h0 = xs + dt * (w1 - w2 * ys)
    h1 = ys + dt * (w2 * xs - w0)
    h2 = 1.0 + dt * (w0 * ys - w1 * xs)
    px, py, keep, hz = _project(h0, h1, h2, guard)

    def jacobian():
        # d(omega x X)/d(omega) = -[X]_x, so dh/domega = -dt [X]_x. Each entry of
        # P @ Jh is summed as a matrix product sums it, from 0.0 and in the order
        # j = 0, 1, 2 with the exact-zero terms, so the result is the same bits
        x, y = xs[keep], ys[keep]
        ndt = -dt[keep]
        zero = ndt * 0.0
        Jh = (
            (zero, -ndt, ndt * y),
            (ndt, zero, ndt * -x),
            (ndt * -y, ndt * x, zero),
        )
        P = _projection_rows(h0, h1, hz, keep)
        J = np.empty((len(ndt), 2, 3))
        for i in range(2):
            for col in range(3):
                J[:, i, col] = 0.0 + P[i][0] * Jh[0][col] + P[i][1] * Jh[1][col] + P[i][2] * Jh[2][col]
        return J

    return _warp_result(px, py, keep, jacobian)


def warp_translational(
    packet: EventPacket,
    v,
    *,
    guard: float = PROJECTION_GUARD,
) -> WarpResult:
    """Translate homogeneous event coordinates by the linear-velocity model."""
    v0, v1, v2 = _motion_vector(v)
    dt = packet.t_ref - packet.ts
    h0, h1, h2 = packet.xs + dt * v0, packet.ys + dt * v1, 1.0 + dt * v2
    px, py, keep, hz = _project(h0, h1, h2, guard)

    def jacobian():
        # dh/dv = dt I, so the Jacobian is dt times d(projection)/dh
        dtk = dt[keep]
        P = _projection_rows(h0, h1, hz, keep)
        J = np.empty((len(dtk), 2, 3))
        for i in range(2):
            for col in range(3):
                J[:, i, col] = dtk * P[i][col]
        return J

    return _warp_result(px, py, keep, jacobian)


def warp(
    packet: EventPacket,
    model: str,
    theta,
    *,
    guard: float = PROJECTION_GUARD,
) -> WarpResult:
    """Dispatch to the rotational or translational warp by model tag."""
    if model == "rot":
        return warp_rotational(packet, theta, guard=guard)
    if model == "trans":
        return warp_translational(packet, theta, guard=guard)
    raise ValueError(f"unknown motion model {model!r}")
