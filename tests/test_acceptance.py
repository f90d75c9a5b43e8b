"""Acceptance gate: one test per headline guarantee.

Each test prints a single PASS/FAIL line (visible with -v through the
test outcome, and in captured output via the report() helper) and
enforces the stated tolerance and runtime budget.
"""

import os
import time

import numpy as np
import pytest

from funcbin import (
    FBP,
    BinningKernel,
    FrameGrid,
    Naive,
    ObjectiveConfig,
    ReconKernel,
    STE,
    Sigmoid,
    ScoreKind,
    WeightedPoints,
    bin_forward,
    bin_jvp,
    bin_vjp,
    bias_grid,
    degree_of_precision,
    lbfgs_maximize,
    objective_grad,
    objective_value,
    synthesize_kappa,
    warp,
)
from funcbin.events_io import SyntheticScene, packet_from_scene, packetize, read_events_txt
from kernel_oracle import kappa_mass, kernel_mass, numeric_convolve_oracle

GRID = FrameGrid(200, 150, 0.01)
ALL_MODES = [
    Naive(),
    FBP(ReconKernel.LINEAR),
    FBP(ReconKernel.CUBIC),
    FBP(ReconKernel.LANCZOS),
    STE(),
    Sigmoid(),
]


def report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_closed_form_kappa_vs_quadrature_oracle():
    """Closed-form synthesized kernels agree with a quadrature oracle to 1e-6."""
    t0 = time.perf_counter()
    xs = np.linspace(-3.0, 3.0, 601)
    worst = 0.0
    for k in BinningKernel:
        sk = synthesize_kappa(k, ReconKernel.LINEAR)
        err = float(np.max(np.abs(sk.kappa(xs) - numeric_convolve_oracle(k, ReconKernel.LINEAR, xs))))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    report(
        "closed-form kappa vs quadrature oracle",
        worst < 1e-6 and elapsed < 1.0,
        f"max err {worst:.2e}, {elapsed:.2f}s",
    )


def test_adjoint_consistency():
    """<vbar, JVP(xdot)> == <VJP(vbar), xdot> across 100 instances and all rules."""
    # warm the cached kernel tables so the budget measures the passes themselves
    for k in BinningKernel:
        for l in ReconKernel:
            synthesize_kappa(k, l)
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        grid = FrameGrid(16, 12, 0.5)
        n = 25
        pts = WeightedPoints(
            rng.uniform(1.0, 7.0, n), rng.uniform(1.0, 5.0, n), rng.uniform(0.5, 2.0, n)
        )
        xdot = rng.normal(size=n)
        ydot = rng.normal(size=n)
        vbar = rng.normal(size=grid.shape)
        for k in BinningKernel:
            for mode in ALL_MODES:
                jvp = bin_jvp(pts, (xdot, ydot), grid, k, mode)
                gx, gy = bin_vjp(pts, vbar, grid, k, mode)
                lhs = float(np.sum(vbar * jvp))
                rhs = float(np.sum(gx * xdot) + np.sum(gy * ydot))
                denom = max(abs(lhs), abs(rhs), 1e-30)
                worst = max(worst, abs(lhs - rhs) / denom)
    elapsed = time.perf_counter() - t0
    report(
        "adjoint consistency (JVP/VJP transpose)",
        worst < 1e-9 and elapsed < 10.0,
        f"worst rel {worst:.2e}, {elapsed:.1f}s",
    )


def test_forward_invariance():
    """Binned frames are bit-identical regardless of the gradient rule."""
    pkt, _ = packet_from_scene(SyntheticScene(seed=5, n_points=20, events_per_point=10))
    theta = np.array([0.3, -0.7, 1.2])
    frames = []
    vals = []
    for mode in ALL_MODES:
        cfg = ObjectiveConfig(BinningKernel.RECT, mode, ScoreKind("var"), GRID)
        pts = warp(pkt, cfg.model, theta).points
        frames.append(bin_forward(pts, cfg.grid, cfg.kernel).values)
        vals.append(objective_value(cfg, pkt, theta))
    ok = all(np.array_equal(frames[0], f) for f in frames[1:]) and all(v == vals[0] for v in vals)
    report("forward invariance across gradient rules", ok)


def test_mass_preservation():
    """Every synthesized kernel keeps the mass of its binning kernel to 1e-8."""
    worst = 0.0
    for k in BinningKernel:
        for l in ReconKernel:
            sk = synthesize_kappa(k, l)
            worst = max(worst, abs(kappa_mass(sk) - kernel_mass(k)))
    report("mass preservation", worst < 1e-8, f"worst {worst:.2e}")


def test_degree_of_precision():
    """Integration-by-parts residuals vanish for degrees 0..2; known value at 3."""
    ok = True
    detail = []
    for k in (BinningKernel.RECT, BinningKernel.LINEAR, BinningKernel.GAUSS_TRUNC):
        rows = degree_of_precision(k, ReconKernel.LINEAR)
        for n, _, _, res in rows[:3]:
            if res >= 1e-8:
                ok = False
                detail.append(f"{k.value} n={n} res={res:.2e}")
    for k in (BinningKernel.RECT, BinningKernel.LINEAR):
        res3 = degree_of_precision(k, ReconKernel.LINEAR)[3][3]
        if abs(res3 - 0.5) >= 1e-6:
            ok = False
            detail.append(f"{k.value} n=3 res={res3}")
    report("degree of precision", ok, "; ".join(detail))


def _away_from_kinks(cfg, pkt, theta, margin=1e-3):
    """True when no warped event sits within margin bins of a kernel kink."""
    pts = warp(pkt, cfg.model, theta).points
    xn = pts.xs / cfg.grid.delta
    yn = pts.ys / cfg.grid.delta
    dist = min(
        float(np.min(np.abs(xn - np.round(xn)))),
        float(np.min(np.abs(yn - np.round(yn)))),
    )
    return dist > margin


def test_smooth_kernel_gradient_oracle():
    """Naive gradients of the linear-kernel objective match FD to 1e-3 relative.

    The objective is piecewise smooth; the analytic gradient is only defined
    away from the kernel kinks, so parameters that park an event on a bin
    boundary (where the central difference straddles the kink) are redrawn.
    """
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(50):
        scene = SyntheticScene(
            seed=1000 + i,
            n_points=int(rng.integers(10, 25)),
            events_per_point=int(rng.integers(5, 12)),
            duration=float(rng.uniform(0.05, 0.15)),
        )
        pkt, _ = packet_from_scene(scene)
        cfg = ObjectiveConfig(BinningKernel.LINEAR, Naive(), ScoreKind("var"), GRID)
        theta = rng.uniform(-2.0, 2.0, 3)
        while not _away_from_kinks(cfg, pkt, theta):
            theta = rng.uniform(-2.0, 2.0, 3)
        g = objective_grad(cfg, pkt, theta)
        eps = 1e-5
        fd = np.empty(3)
        for j in range(3):
            tp, tm = theta.copy(), theta.copy()
            tp[j] += eps
            tm[j] -= eps
            fd[j] = (objective_value(cfg, pkt, tp) - objective_value(cfg, pkt, tm)) / (2 * eps)
        rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-30))
        worst = max(worst, rel)
    report("smooth-kernel gradient oracle", worst < 1e-3, f"worst rel {worst:.2e}")


def test_truncated_gradient_failure_and_synthesized_recovery():
    """Naive rect gradients vanish; the synthesized rule still tracks FD signs."""
    t0 = time.perf_counter()
    scene = SyntheticScene(seed=0, n_points=60, events_per_point=25, noise_std=0.002, duration=0.02)
    pkt, _ = packet_from_scene(scene)
    rng = np.random.default_rng(0)
    naive_cfg = ObjectiveConfig(BinningKernel.RECT, Naive(), ScoreKind("var"), GRID)
    zero = sum(
        np.linalg.norm(objective_grad(naive_cfg, pkt, rng.uniform(-5, 5, 3))) < 1e-12
        for _ in range(200)
    )
    fbp_cfg = ObjectiveConfig(BinningKernel.RECT, FBP(ReconKernel.LINEAR), ScoreKind("var"), GRID)
    rep = bias_grid(fbp_cfg, pkt, [FBP(ReconKernel.LINEAR)], -5, 5, 11, 1.0)
    agree = rep.summary()["per_mode"]["fbp-linear"]["sign_agreement"]
    elapsed = time.perf_counter() - t0
    report(
        "truncated-gradient failure / synthesized recovery",
        zero >= 198 and agree > 0.90 and elapsed < 300.0,
        f"zero-grad {zero}/200, sign agreement {agree:.3f}, {elapsed:.0f}s",
    )


def test_surrogate_ranking():
    """Synthesized < sigmoid < straight-through in mean |bias|, 5 seeds agreeing."""
    modes = [FBP(ReconKernel.LINEAR), STE(), Sigmoid()]
    orderings = []
    details = []
    for seed in range(5):
        scene = SyntheticScene(
            seed=seed, n_points=60, events_per_point=25, noise_std=0.002, duration=0.1
        )
        pkt, _ = packet_from_scene(scene)
        cfg = ObjectiveConfig(BinningKernel.LINEAR, FBP(ReconKernel.LINEAR), ScoreKind("var"), GRID)
        rep = bias_grid(cfg, pkt, modes, -5, 5, 11, 1.0)
        stats = rep.summary()["per_mode"]
        ranked = sorted(stats, key=lambda m: stats[m]["mean_abs_bias"])
        orderings.append(tuple(ranked))
        details.append(
            "seed %d: %s" % (seed, {m: round(stats[m]["mean_abs_bias"], 5) for m in ranked})
        )
    ok = all(o == ("fbp-linear", "sigmoid", "ste") for o in orderings)
    report("surrogate ranking by mean |bias|", ok, "; ".join(details))


def test_planted_truth_estimation():
    """Synthesized-gradient optimization recovers planted motion; naive stalls."""
    t0 = time.perf_counter()
    truth = np.array([0.5, -0.3, 0.8])
    fbp_cfg = ObjectiveConfig(BinningKernel.RECT, FBP(ReconKernel.LINEAR), ScoreKind("var"), GRID)
    naive_cfg = ObjectiveConfig(BinningKernel.RECT, Naive(), ScoreKind("var"), GRID)
    recovered = 0
    stalled = 0
    for seed in range(20):
        pkt, _ = packet_from_scene(SyntheticScene(seed=seed))
        theta, _ = lbfgs_maximize(fbp_cfg, pkt, np.zeros(3))
        if np.linalg.norm(theta - truth) < 0.02 * np.linalg.norm(truth):
            recovered += 1
        theta_n, _ = lbfgs_maximize(naive_cfg, pkt, np.zeros(3))
        if np.linalg.norm(theta_n) < 1e-9:
            stalled += 1
    elapsed = time.perf_counter() - t0
    report(
        "planted-truth estimation",
        recovered >= 18 and stalled == 20 and elapsed < 120.0,
        f"recovered {recovered}/20, naive stalled {stalled}/20, {elapsed:.0f}s",
    )


def test_external_events_pipeline():
    """Full estimation pipeline on a user-supplied sensor recording."""
    path = os.environ.get("FUNCBIN_ECD_EVENTS", "")
    if not path or not os.path.exists(path):
        print("[SKIP] external events pipeline (set FUNCBIN_ECD_EVENTS to an events.txt)")
        pytest.skip("no external events file supplied")
    events = read_events_txt(path)
    packets = packetize(events, 20000)
    xs, ys = events.xs, events.ys
    scale = 0.9 * min(2.0 / max(np.ptp(xs), 1.0), 1.5 / max(np.ptp(ys), 1.0))
    # the scale folded into the grid, as the CLI does: spacing delta / scale, origin origin / scale
    grid = FrameGrid(GRID.width, GRID.height, GRID.delta / scale, (GRID.origin[0] / scale, GRID.origin[1] / scale))
    cfg = ObjectiveConfig(BinningKernel.RECT, FBP(ReconKernel.LINEAR), ScoreKind("var"), grid)
    estimates = [lbfgs_maximize(cfg, p, np.zeros(3))[0] for p in packets[:3]]
    ok = len(estimates) >= 1 and all(np.all(np.isfinite(e)) for e in estimates)
    report("external events pipeline", ok, f"{len(estimates)} packets estimated")
