"""Test references for the kernels.

- A boolean-mask version of the Gaussian's closed-form antiderivatives: each
  piece is evaluated on the elements that a boolean mask gathers and
  scattered back. The package picks its first antiderivative's pieces with
  ``np.where`` instead, and must give the same bits.
- Quadrature oracles: an independent trapezoid-rule convolution and the
  masses of k and kappa.
"""

import numpy as np
from scipy.integrate import simpson

from funcbin.kernels import (
    _GAUSS_MASS,
    BINNING_SUPPORT,
    RECON_SUPPORT,
    BinningKernel,
    ReconKernel,
    SynthesizedKernel,
    _gauss_cdf,
    _gauss_phi,
    eval_binning_kernel,
    eval_recon_kernel,
)


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


# Interior discontinuities / kinks of each binning kernel, used to split
# quadrature domains so trapezoid rules stay accurate across jumps.
_BINNING_BREAKS = {
    BinningKernel.RECT: (-0.5, 0.5),
    BinningKernel.LINEAR: (-1.0, 0.0, 1.0),
    BinningKernel.GAUSS_TRUNC: (-1.5, 1.5),
}

_RECON_BREAKS = {
    ReconKernel.LINEAR: (-1.0, 0.0, 1.0),
    ReconKernel.CUBIC: (-2.0, -1.0, 0.0, 1.0, 2.0),
    ReconKernel.LANCZOS: (-2.0, 2.0),
}


def numeric_convolve_oracle(k_kind: BinningKernel, l_kind: ReconKernel, xs, step: float = 1e-4):
    """Independent trapezoid-rule evaluation of integral l(y) k(x - y) dy.

    The y-domain is split at every discontinuity of l(y) and of k(x - y) so
    the trapezoid rule sees only smooth pieces.
    """
    rl = RECON_SUPPORT[l_kind]
    out = []
    for x in np.atleast_1d(np.asarray(xs, dtype=float)):
        brks = set(_RECON_BREAKS[l_kind])
        for e in _BINNING_BREAKS[k_kind]:
            y = x - e
            if -rl < y < rl:
                brks.add(y)
        brks.update((-rl, rl))
        pts = sorted(brks)
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            if b - a < 1e-12:
                continue
            n = max(int(np.ceil((b - a) / step)), 2)
            ys = np.linspace(a, b, n + 1)
            # evaluate just inside the piece so jumps at the edges use limits
            ye = np.clip(ys, a + 1e-12, b - 1e-12)
            total += np.trapezoid(eval_recon_kernel(l_kind, ye) * eval_binning_kernel(k_kind, x - ye), ys)
        out.append(total)
    return np.asarray(out)


def kernel_mass(kind: BinningKernel, step: float = 1e-5) -> float:
    """Quadrature mass of the binning kernel over its support."""
    r = BINNING_SUPPORT[kind]
    n = int(np.ceil(2 * r / step))
    if n % 2 == 1:
        n += 1
    xs = np.linspace(-r, r, n + 1)
    vals = eval_binning_kernel(kind, np.clip(xs, -r + 1e-12, r - 1e-12))
    return float(simpson(vals, x=xs))


def kappa_mass(sk: SynthesizedKernel, step: float = 1e-5) -> float:
    """Quadrature mass of kappa over its support."""
    r = sk.support_radius
    n = int(np.ceil(2 * r / step))
    if n % 2 == 1:
        n += 1
    xs = np.linspace(-r, r, n + 1)
    return float(simpson(sk.kappa(xs), x=xs))
