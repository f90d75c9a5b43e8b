"""Per-tap loop versions of the binning passes, kept as a test reference.

Each pass visits the kernel window one tap (du, dv) at a time and scatters
or gathers every point for that tap, recomputing the kernel factors of both
axes. The window is the one the package uses: the ``ceil(2 r)`` bins u in
(x - r, x + r]. Bin indices stay floats until a mask has kept the taps on
the grid, so a coordinate far off it never reaches an integer cast. Every
factor is evaluated pointwise, with the rule's functions resolved here. The
package's separable core must agree with these loops up to float summation
order and the rounding of its per-tap polynomial tables.
"""

import numpy as np

from funcbin import FBP, STE, Naive, Sigmoid
from funcbin.binning import sigmoid_derivative, ste_derivative
from funcbin.kernels import (
    BINNING_SUPPORT,
    ReconKernel,
    eval_binning_kernel,
    eval_binning_kernel_prime,
    synthesize_kappa,
)


def _axis_rule(k, mode):
    """(g, g', radius) of a derivative rule, as pointwise functions."""
    if isinstance(mode, Naive):
        return lambda x: eval_binning_kernel(k, x), lambda x: eval_binning_kernel_prime(k, x), BINNING_SUPPORT[k]
    sk = synthesize_kappa(k, mode.recon if isinstance(mode, FBP) else ReconKernel.LINEAR)
    gp = {FBP: sk.kappa_prime, STE: ste_derivative, Sigmoid: sigmoid_derivative}[type(mode)]
    return sk.kappa, gp, sk.support_radius


def _window(coords, radius):
    """First bin (a float) and bin count of the window u in (coord - radius, coord + radius]."""
    return np.floor(coords - radius) + 1.0, int(np.ceil(2.0 * radius))


def _on_grid(m, *idx):
    """The bin indices ``idx`` of the taps that mask ``m`` keeps, as integers."""
    return tuple(i[m].astype(np.int64) for i in idx)


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
            um, vm = _on_grid(m, u, v)
            flat += np.bincount(um * H + vm, weights=(pts.ws * wx * wy)[m], minlength=W * H)
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
            um, vm = _on_grid(m, u, v)
            flat += np.bincount(um * H + vm, weights=vals[m], minlength=W * H)
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
            a[m] = adjoint[_on_grid(m, u, v)]
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
        np.add.at(out, _on_grid(m, u), (ws * w)[m])
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
        np.add.at(out, _on_grid(m, u), vals[m])
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
        a[m] = adjoint[_on_grid(m, u)]
        out += a * ws * gp(xn - u) / delta
    return out
