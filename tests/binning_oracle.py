"""Per-tap loop versions of the binning passes, kept as a test reference.

Each pass visits the kernel window one tap (du, dv) at a time and scatters
or gathers every point for that tap, recomputing the kernel factors of both
axes. The window is the one the package uses: the ``ceil(2 r)`` bins u in
(x - r, x + r]. The package's separable core must agree with these loops up
to float summation order.
"""

import numpy as np

from funcbin.binning import _axis_rule
from funcbin.kernels import BINNING_SUPPORT, eval_binning_kernel


def _window(coords, radius):
    """First bin index and bin count of the window u in (coord - radius, coord + radius]."""
    return np.floor(coords - radius).astype(np.int64) + 1, int(np.ceil(2.0 * radius))


def _normalized(pts, grid):
    return (pts.xs - grid.origin[0]) / grid.delta, (pts.ys - grid.origin[1]) / grid.delta


def forward(pts, grid, k):
    W, H = grid.shape
    xn, yn = _normalized(pts, grid)
    r = BINNING_SUPPORT[k]
    u0, nu = _window(xn, r)
    v0, nv = _window(yn, r)
    flat = np.zeros(W * H)
    for du in range(nu):
        u = u0 + du
        wx = eval_binning_kernel(k, xn - u)
        for dv in range(nv):
            v = v0 + dv
            wy = eval_binning_kernel(k, yn - v)
            m = (u >= 0) & (u < W) & (v >= 0) & (v < H)
            flat += np.bincount(u[m] * H + v[m], weights=(pts.ws * wx * wy)[m], minlength=W * H)
    return flat.reshape(W, H)


def jvp(pts, tangents, grid, k, mode):
    xdot, ydot = tangents
    W, H = grid.shape
    d = grid.delta
    xn, yn = _normalized(pts, grid)
    g, gp, r = _axis_rule(k, mode)
    u0, nu = _window(xn, r)
    v0, nv = _window(yn, r)
    flat = np.zeros(W * H)
    for du in range(nu):
        u = u0 + du
        dx = xn - u
        gx, gpx = g(dx), gp(dx)
        for dv in range(nv):
            v = v0 + dv
            dy = yn - v
            gy, gpy = g(dy), gp(dy)
            vals = pts.ws * (gpx * gy * xdot + gx * gpy * ydot) / d
            m = (u >= 0) & (u < W) & (v >= 0) & (v < H)
            flat += np.bincount(u[m] * H + v[m], weights=vals[m], minlength=W * H)
    return flat.reshape(W, H)


def vjp(pts, adjoint, grid, k, mode):
    W, H = grid.shape
    d = grid.delta
    xn, yn = _normalized(pts, grid)
    g, gp, r = _axis_rule(k, mode)
    u0, nu = _window(xn, r)
    v0, nv = _window(yn, r)
    n = len(pts)
    out_x = np.zeros(n)
    out_y = np.zeros(n)
    for du in range(nu):
        u = u0 + du
        dx = xn - u
        gx, gpx = g(dx), gp(dx)
        for dv in range(nv):
            v = v0 + dv
            dy = yn - v
            gy, gpy = g(dy), gp(dy)
            m = (u >= 0) & (u < W) & (v >= 0) & (v < H)
            a = np.zeros(n)
            a[m] = adjoint[u[m], v[m]]
            out_x += a * pts.ws * gpx * gy / d
            out_y += a * pts.ws * gx * gpy / d
    return out_x, out_y


def forward_1d(xs, ws, width, delta, origin, k):
    xn = (xs - origin) / delta
    u0, nu = _window(xn, BINNING_SUPPORT[k])
    out = np.zeros(width)
    for du in range(nu):
        u = u0 + du
        w = eval_binning_kernel(k, xn - u)
        m = (u >= 0) & (u < width)
        np.add.at(out, u[m], (ws * w)[m])
    return out


def jvp_1d(xs, ws, xdot, width, delta, origin, k, mode):
    xn = (xs - origin) / delta
    _, gp, r = _axis_rule(k, mode)
    u0, nu = _window(xn, r)
    out = np.zeros(width)
    for du in range(nu):
        u = u0 + du
        vals = ws * gp(xn - u) * xdot / delta
        m = (u >= 0) & (u < width)
        np.add.at(out, u[m], vals[m])
    return out


def vjp_1d(xs, ws, adjoint, width, delta, origin, k, mode):
    xn = (xs - origin) / delta
    _, gp, r = _axis_rule(k, mode)
    u0, nu = _window(xn, r)
    out = np.zeros(len(xs))
    for du in range(nu):
        u = u0 + du
        m = (u >= 0) & (u < width)
        a = np.zeros(len(xs))
        a[m] = adjoint[u[m]]
        out += a * ws * gp(xn - u) / delta
    return out
