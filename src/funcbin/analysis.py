"""Gradient-bias measurement harness.

Compares analytic gradients under each derivative rule against central
finite differences of the contrast objective, at given parameters
(``bias_report``) or on a uniform grid of them (``bias_grid``), and runs
the integration-by-parts precision battery for synthesized kernel
derivatives.

Each parameter vector is evaluated once (``estimator._Evaluation``) and
every rule's gradient comes from that evaluation. Objective values are
kept as floats keyed on the parameters' bytes, so a finite-difference
stencil point that is also a sampled point, or another sample's stencil
point, is not evaluated again.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .binning import GradMode
from .estimator import ObjectiveConfig, _Evaluation, objective_value
from .kernels import (
    BINNING_SUPPORT,
    BinningKernel,
    ReconKernel,
    eval_binning_kernel,
    synthesize_kappa,
)
from .warp import EventPacket


def fd_gradient(value_fn, theta, step: float) -> np.ndarray:
    """Componentwise central finite difference of a scalar function."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    theta = np.asarray(theta, dtype=float)
    out = np.empty_like(theta)
    for i in range(len(theta)):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += step
        tm[i] -= step
        out[i] = (value_fn(tp) - value_fn(tm)) / (2.0 * step)
    return out


def mode_name(mode: GradMode) -> str:
    """The label of a gradient rule in reports: naive, fbp-<recon>, ste or sigmoid."""
    from .binning import FBP, Naive, STE, Sigmoid

    if isinstance(mode, Naive):
        return "naive"
    if isinstance(mode, FBP):
        return f"fbp-{mode.recon.value}"
    if isinstance(mode, STE):
        return "ste"
    if isinstance(mode, Sigmoid):
        return "sigmoid"
    return repr(mode)


@dataclass
class BiasReport:
    """Per-grid-point analytic vs finite-difference gradients.

    ``analytic`` maps mode name -> (n_samples, 3); the FD reference is
    shared across modes because the forward objective is mode-invariant.
    """

    thetas: np.ndarray
    fd: np.ndarray
    analytic: dict[str, np.ndarray]
    fd_step: float

    @property
    def n_evaluations(self) -> int:
        return len(self.thetas)

    @property
    def n_gradient_components(self) -> int:
        return self.thetas.size

    def bias(self, mode_name: str) -> np.ndarray:
        return self.analytic[mode_name] - self.fd

    def summary(self) -> dict:
        fd_scale = float(np.max(np.abs(self.fd))) or 1.0
        per_mode = {}
        for name, an in self.analytic.items():
            b = an - self.fd
            agree = np.sign(an) == np.sign(self.fd)
            per_mode[name] = {
                "mean_abs_bias": float(np.mean(np.abs(b))),
                "mean_abs_bias_normalized": float(np.mean(np.abs(b)) / fd_scale),
                "sign_agreement": float(np.mean(agree)),
            }
        return {
            "n_evaluations": self.n_evaluations,
            "n_gradient_components": self.n_gradient_components,
            "fd_step": self.fd_step,
            "per_mode": per_mode,
        }

    def write_csv(self, path) -> None:
        fd_scale = float(np.max(np.abs(self.fd))) or 1.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["mode", "theta1", "theta2", "theta3", "axis", "g_analytic", "g_fd", "bias", "bias_normalized", "fd_sign"]
            )
            for name, an in self.analytic.items():
                for i, th in enumerate(self.thetas):
                    for ax in range(3):
                        b = an[i, ax] - self.fd[i, ax]
                        w.writerow(
                            [
                                name,
                                repr(float(th[0])),
                                repr(float(th[1])),
                                repr(float(th[2])),
                                ax,
                                repr(float(an[i, ax])),
                                repr(float(self.fd[i, ax])),
                                repr(float(b)),
                                repr(float(b / fd_scale)),
                                int(np.sign(self.fd[i, ax])),
                            ]
                        )

    def write_json_summary(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")


def bias_report(
    cfg: ObjectiveConfig,
    packet: EventPacket,
    thetas: np.ndarray,
    modes: list[GradMode],
    fd_step: float,
) -> BiasReport:
    """Analytic gradients under each mode and the central FD reference at each theta.

    One evaluation per theta serves every mode; the FD reference uses the
    forward objective only, so it is shared across modes. The results are
    those of ``objective_grad`` per mode and ``fd_gradient`` of
    ``objective_value``, bit for bit.
    """
    if fd_step <= 0:  # before the gradients, not after them
        raise ValueError(f"step must be positive, got {fd_step}")
    thetas = np.asarray(thetas, dtype=float)
    values: dict[bytes, float] = {}
    analytic = {mode_name(mode): np.empty_like(thetas) for mode in modes}
    for i, th in enumerate(thetas):
        ev = _Evaluation(cfg, packet, th)
        values[th.tobytes()] = ev.value
        for mode in modes:
            analytic[mode_name(mode)][i] = ev.grad(mode)

    def value(th) -> float:
        key = th.tobytes()
        if key not in values:
            values[key] = objective_value(cfg, packet, th)
        return values[key]

    fd = np.empty_like(thetas)
    for i, th in enumerate(thetas):
        fd[i] = fd_gradient(value, th, fd_step)
    return BiasReport(thetas, fd, analytic, fd_step)


def bias_grid(
    cfg: ObjectiveConfig,
    packet: EventPacket,
    modes: list[GradMode],
    lo: float = -5.0,
    hi: float = 5.0,
    n: int = 11,
    fd_step: float = 1.0,
) -> BiasReport:
    """``bias_report`` on a uniform n^3 parameter grid over [lo, hi]^3."""
    if n < 2:
        raise ValueError(f"need n >= 2 grid samples per axis, got {n}")
    axis = np.linspace(lo, hi, n)
    return bias_report(cfg, packet, np.array(list(itertools.product(axis, axis, axis))), modes, fd_step)


def degree_of_precision(
    k: BinningKernel,
    l: ReconKernel,
    n_max: int = 3,
    step: float = 1e-4,
) -> list[tuple[int, float, float, float]]:
    """Integration-by-parts residuals of the synthesized derivative.

    For each polynomial degree n, compares lhs = integral x^n kappa'(x) dx
    with rhs = -n integral x^(n-1) k(x) dx; a vanishing residual means the
    synthesized rule reproduces the weak derivative exactly at that degree.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    sk = synthesize_kappa(k, l)
    r = sk.support_radius
    npts = int(np.ceil(2 * r / step))
    if npts % 2 == 1:
        npts += 1
    xs = np.linspace(-r, r, npts + 1)
    kp = sk.kappa_prime(xs)
    rk = BINNING_SUPPORT[k]
    nk = int(np.ceil(2 * rk / step))
    if nk % 2 == 1:
        nk += 1
    xk = np.linspace(-rk, rk, nk + 1)
    kv = eval_binning_kernel(k, np.clip(xk, -rk + 1e-12, rk - 1e-12))
    out = []
    for deg in range(n_max + 1):
        lhs = float(simpson(xs**deg * kp, x=xs))
        rhs = -deg * float(simpson(xk ** (deg - 1) * kv, x=xk)) if deg >= 1 else 0.0
        out.append((deg, lhs, rhs, abs(lhs - rhs)))
    return out
