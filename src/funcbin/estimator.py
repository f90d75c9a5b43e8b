"""Warp -> binning -> score composition and L-BFGS maximization.

The objective is a scalar function of the three motion parameters. The
warped events are binned as they are, on a grid in event coordinates. Its
gradient flows backward through the score adjoint, the binning VJP under
the configured derivative rule, and the analytic warp Jacobians.

One evaluation of theta (``_Evaluation``) is the only value-and-gradient
path. It warps, bins and scores once, and completes the gradient under any
derivative rule on demand from the same warped points, frame and score
adjoint; the warp Jacobian is built only then. ``objective_value`` and
``objective_grad`` are its one-rule cases, ``lbfgs_maximize`` keeps a memo
of the last theta evaluated, and ``analysis.bias_report`` takes every
rule's gradient from one evaluation per theta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.optimize import line_search

from .binning import FrameGrid, GradMode, bin_forward, bin_vjp
from .errors import LengthMismatchError
from .kernels import BinningKernel
from .objectives import ScoreKind, adjoint, score
from .warp import EventPacket, warp


@dataclass(frozen=True)
class ObjectiveConfig:
    """Everything that fixes the objective apart from the parameters."""

    kernel: BinningKernel
    mode: GradMode
    score: ScoreKind
    grid: FrameGrid
    model: str = "rot"


class _Evaluation:
    """warp -> bin_forward -> score at one theta, with gradients completed on demand.

    The warp's points are binned on ``cfg.grid`` as they are. A gradient
    (score adjoint -> ``bin_vjp`` -> warp Jacobian chain) reuses those
    points and the frame of the value. The adjoint and the Jacobian are
    shared by every rule, and each rule's gradient is computed at most once.
    """

    def __init__(self, cfg: ObjectiveConfig, packet: EventPacket, theta):
        self.cfg = cfg
        self.res = warp(packet, cfg.model, theta)
        self.frame = bin_forward(self.res.points, cfg.grid, cfg.kernel)
        self.value = score(self.frame, cfg.score)
        self._grads: dict[GradMode, np.ndarray] = {}

    @cached_property
    def _adjoint(self) -> np.ndarray:
        return adjoint(self.frame, self.cfg.score)

    def grad(self, mode: GradMode | None = None) -> np.ndarray:
        """d value / d theta under ``mode``, by default ``cfg.mode``."""
        mode = self.cfg.mode if mode is None else mode
        if mode not in self._grads:
            cfg = self.cfg
            gx, gy = bin_vjp(self.res.points, self._adjoint, cfg.grid, cfg.kernel, mode)
            J = self.res.jacobian
            # chain through the per-event warp Jacobians
            contrib = gx[:, None] * J[:, 0, :] + gy[:, None] * J[:, 1, :]
            self._grads[mode] = contrib.sum(axis=0)
        return self._grads[mode]

    @property
    def has_grad(self) -> bool:
        """Whether the gradient under ``cfg.mode`` is complete."""
        return self.cfg.mode in self._grads


def objective_value(cfg: ObjectiveConfig, packet: EventPacket, theta) -> float:
    """score(bin(warp(packet, theta))). Independent of the gradient mode."""
    return _Evaluation(cfg, packet, theta).value


def objective_grad(cfg: ObjectiveConfig, packet: EventPacket, theta) -> np.ndarray:
    """Analytic d objective / d theta via the VJP chain."""
    return _Evaluation(cfg, packet, theta).grad()


# --- optimizer --------------------------------------------------------------


class LineSearch(NamedTuple):
    """How one iteration's line search ended.

    ``outcome`` is "wolfe" (scipy's strong-Wolfe search found the step),
    "armijo" (the backtracking fallback found it), "stall" (on the
    objective's plateau the fallback reached a trial that leaves f flat, and
    the run ends converged) or "failure" (no search found a step, and the
    run stops). ``alpha`` is the step length taken (None when the run ends),
    ``f_calls`` the objective calls the iteration's searches made, memo hits
    included, and ``restart`` whether the L-BFGS history was dropped for a
    steepest-descent direction, before the search or after a failed search
    along the L-BFGS direction.
    """

    outcome: str
    alpha: float | None
    f_calls: int
    restart: bool


@dataclass
class OptTrace:
    """Accepted iterates of one optimization run, and the line search of each iteration.

    ``f_evals`` counts the objective evaluations (warp and forward binning)
    that ``lbfgs_maximize`` made and ``g_evals`` the gradients it completed;
    repeats served from its memo are not counted. Both stay 0 when
    ``_lbfgs_minimize`` is called with plain functions. ``line_searches``
    holds one ``LineSearch`` per iteration, the failed or stalled last one
    included.
    """

    thetas: list = field(default_factory=list)
    values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    converged: bool = False
    reason: str = "max_iter"
    f_evals: int = 0
    g_evals: int = 0
    line_searches: list = field(default_factory=list)

    def record(self, theta, value, gnorm):
        self.thetas.append(np.array(theta, dtype=float))
        self.values.append(float(value))
        self.grad_norms.append(float(gnorm))


# L-BFGS settings
HISTORY = 10  # (s, y) pairs kept
MAX_ITER = 100
GRAD_TOL = 1e-6
# stop after PATIENCE consecutive steps with relative objective change below
# FTOL (piecewise-constant forwards never reach GRAD_TOL)
FTOL = 1e-10
PATIENCE = 3
C1, C2 = 1e-4, 0.9  # strong-Wolfe sufficient-decrease and curvature constants


def _lbfgs_minimize(f, g, x0) -> tuple[np.ndarray, OptTrace]:
    """Unbounded L-BFGS with a safeguarded strong-Wolfe line search.

    The direction comes from the two-loop recursion, the step from scipy's
    strong-Wolfe search with an Armijo backtracking fallback, safeguarded
    as in Nocedal & Wright, *Numerical Optimization*, sections 3.5 and 7.2:

    - when both searches fail along an L-BFGS direction, the history is
      dropped and one more search runs along -g (a restart);
    - once an accepted step changed f by at most ``FTOL`` (relative), f may
      have reached its plateau, and the next search's Armijo fallback stops
      at its first trial that changes f by at most ``FTOL``. A trial that
      does change f can still be taken, so a flat step away from the plateau
      does not end the run; on the plateau of a piecewise-constant forward
      the fallback stops after a few trials instead of halving the step
      until its required decrease rounds away.

    The run ends with ``reason``:

    - "grad_tol": the gradient norm is at most ``GRAD_TOL``;
    - "ftol": ``PATIENCE`` accepted steps in a row changed f by at most ``FTOL``;
    - "stall": a search after a flat step stopped at a flat trial, which
      counts as converged;
    - "line_search_failure": no search found a step, the restart's included;
    - "max_iter": ``MAX_ITER`` iterations ran.
    """
    x = np.asarray(x0, dtype=float).copy()
    trace = OptTrace()
    fx = f(x)
    gx = g(x)
    trace.record(x, fx, np.linalg.norm(gx))
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    flat = 0  # accepted steps in a row that changed f by at most FTOL
    for _ in range(MAX_ITER):
        gnorm = np.linalg.norm(gx)
        if gnorm <= GRAD_TOL:
            trace.converged = True
            trace.reason = "grad_tol"
            break
        d = _two_loop_direction(gx, s_hist, y_hist)
        # restart along -g with the history dropped when d is not a descent
        # direction, or when both searches failed along the L-BFGS direction d
        restart = bool(np.dot(d, gx) >= 0)
        f_calls = 0
        if not restart:
            alpha, outcome, f_calls = _wolfe_step(f, g, x, d, fx, gx, plateau=flat > 0)
            restart = outcome == "failure" and bool(s_hist)
        if restart:
            d = -gx
            s_hist.clear()
            y_hist.clear()
            alpha, outcome, more_calls = _wolfe_step(f, g, x, d, fx, gx, plateau=flat > 0)
            f_calls += more_calls
        trace.line_searches.append(LineSearch(outcome, alpha, f_calls, restart))
        if alpha is None:
            trace.converged = outcome == "stall"
            trace.reason = "stall" if trace.converged else "line_search_failure"
            break
        x_new = x + alpha * d
        f_new = f(x_new)
        g_new = g(x_new)
        s = x_new - x
        yv = g_new - gx
        if np.dot(s, yv) > 1e-12 * np.linalg.norm(s) * np.linalg.norm(yv):
            s_hist.append(s)
            y_hist.append(yv)
            if len(s_hist) > HISTORY:
                s_hist.pop(0)
                y_hist.pop(0)
        rel_change = abs(fx - f_new) / max(1.0, abs(fx))
        x, fx, gx = x_new, f_new, g_new
        trace.record(x, fx, np.linalg.norm(gx))
        flat = flat + 1 if rel_change <= FTOL else 0
        if flat >= PATIENCE:
            trace.converged = True
            trace.reason = "ftol"
            break
    else:
        trace.reason = "max_iter"
    if np.linalg.norm(gx) <= GRAD_TOL:
        trace.converged = True
        trace.reason = "grad_tol"
    return x, trace


def _two_loop_direction(gx, s_hist, y_hist) -> np.ndarray:
    q = gx.copy()
    alphas = []
    for s, y in zip(reversed(s_hist), reversed(y_hist)):
        rho = 1.0 / np.dot(y, s)
        a = rho * np.dot(s, q)
        alphas.append((a, rho, s, y))
        q -= a * y
    if y_hist:
        y_last = y_hist[-1]
        s_last = s_hist[-1]
        q *= np.dot(s_last, y_last) / np.dot(y_last, y_last)
    for a, rho, s, y in reversed(alphas):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return -q


def _wolfe_step(f, g, x, d, fx, gx, plateau: bool) -> tuple[float | None, str, int]:
    """(step length or None, outcome, f calls made) of one line search along d.

    On a ``plateau`` the Armijo fallback ends as "stall" at its first trial
    that changes f by at most ``FTOL`` (relative): on a piecewise-constant f
    every shorter step stays on x's piece, and could pass the Armijo test
    only once its required decrease rounds away.
    """
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alpha, f_calls, *_ = line_search(f, g, x, d, gfk=gx, old_fval=fx, c1=C1, c2=C2, maxiter=30)
    if alpha is not None and alpha > 0:
        return float(alpha), "wolfe", f_calls
    # Armijo backtracking fallback
    slope = np.dot(gx, d)
    alpha = 1.0
    for _ in range(40):
        f_calls += 1
        f_trial = f(x + alpha * d)
        if plateau and abs(f_trial - fx) <= FTOL * max(1.0, abs(fx)):
            return None, "stall", f_calls
        if f_trial <= fx + C1 * alpha * slope:
            return alpha, "armijo", f_calls
        alpha *= 0.5
    return None, "failure", f_calls


def lbfgs_maximize(
    cfg: ObjectiveConfig,
    packet: EventPacket,
    theta0,
) -> tuple[np.ndarray, OptTrace]:
    """Maximize the contrast objective; returns the best iterate and trace.

    Implemented as minimization of the negated score; the trace reports the
    un-negated (maximized) values. f and g share one evaluation of theta,
    memoized for the last theta alone (keyed on its bytes). The memo serves
    the repeats the solver makes: the line search asks for f and then g at
    the same step, the accepted step is evaluated again after the search,
    and the Armijo fallback's last point is the next iterate. A repeat reuses
    the warped points and frame, and the gradient is completed once per
    theta. The results are those of separate ``objective_value`` and
    ``objective_grad`` calls, bit for bit. The memo goes when this returns.
    """
    memo_key, memo = None, None
    f_evals = g_evals = 0

    def evaluate(theta) -> _Evaluation:
        nonlocal memo_key, memo, f_evals
        key = np.asarray(theta, dtype=float).tobytes()
        if key != memo_key:
            memo = None  # one evaluation alive at a time, also while the next is made
            memo_key, memo = key, _Evaluation(cfg, packet, theta)
            f_evals += 1
        return memo

    def f(theta):
        return -evaluate(theta).value

    def g(theta):
        nonlocal g_evals
        ev = evaluate(theta)
        g_evals += not ev.has_grad
        return -ev.grad()

    theta, trace = _lbfgs_minimize(f, g, theta0)
    trace.values = [-v for v in trace.values]
    trace.f_evals, trace.g_evals = f_evals, g_evals
    return theta, trace


def rms_error(estimates, truths, *, to_degrees: bool = False) -> float:
    """Root-mean-square parameter error over packets.

    With ``to_degrees=True`` the result is converted from rad/s to deg/s
    for rotational reporting.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truths, dtype=float)
    if est.shape != tru.shape or est.ndim != 2 or est.shape[0] == 0:
        raise LengthMismatchError(f"estimate/truth shapes disagree or empty: {est.shape} vs {tru.shape}")
    rms = float(np.sqrt(np.mean(np.sum((est - tru) ** 2, axis=1))))
    if to_degrees:
        rms *= 180.0 / np.pi
    return rms
