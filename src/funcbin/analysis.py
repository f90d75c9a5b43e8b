"""Gradient-bias measurement harness.

Samples the contrast objective on a parameter grid, compares analytic
gradients under each derivative rule against central finite differences,
and runs the integration-by-parts precision battery for synthesized
kernel derivatives.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import simpson

from .binning import GradMode
from .estimator import ObjectiveConfig, objective_grad, objective_value
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


def fd_objective_gradient(cfg: ObjectiveConfig, packet: EventPacket, theta, step: float) -> np.ndarray:
    """Central finite difference of the contrast objective."""
    return fd_gradient(lambda th: objective_value(cfg, packet, th), theta, step)


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


def bias_grid(
    cfg: ObjectiveConfig,
    packet: EventPacket,
    modes: list[GradMode],
    lo: float = -5.0,
    hi: float = 5.0,
    n: int = 11,
    fd_step: float = 1.0,
) -> BiasReport:
    """Evaluate analytic and FD gradients on a uniform n^3 parameter grid.

    The FD reference uses the forward objective only and is computed once,
    then shared across all requested modes.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 grid samples per axis, got {n}")
    axis = np.linspace(lo, hi, n)
    thetas = np.array(list(itertools.product(axis, axis, axis)))
    fd = np.empty_like(thetas)
    for i, th in enumerate(thetas):
        fd[i] = fd_objective_gradient(cfg, packet, th, fd_step)
    analytic = {}
    for mode in modes:
        mcfg = replace(cfg, mode=mode)
        an = np.empty_like(thetas)
        for i, th in enumerate(thetas):
            an[i] = objective_grad(mcfg, packet, th)
        analytic[mode_name(mode)] = an
    return BiasReport(thetas, fd, analytic, fd_step)


def compare_surrogates(
    cfg: ObjectiveConfig,
    packet: EventPacket,
    modes: list[GradMode],
    lo: float = -5.0,
    hi: float = 5.0,
    n: int = 11,
    fd_step: float = 1.0,
) -> list[dict]:
    """Rank derivative rules by mean |bias| against the shared FD reference."""
    report = bias_grid(cfg, packet, modes, lo, hi, n, fd_step)
    summary = report.summary()["per_mode"]
    rows = [
        {"mode": name, **stats}
        for name, stats in summary.items()
    ]
    rows.sort(key=lambda r: r["mean_abs_bias"])
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank if len(rows) > 1 else None
    return rows


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
