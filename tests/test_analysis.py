"""Bias harness, finite differences, and the precision battery."""

import csv
import json
from dataclasses import replace

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
    ScoreKind,
    Sigmoid,
    bias_grid,
    degree_of_precision,
    fd_gradient,
    objective_grad,
    objective_value,
)
from funcbin.events_io import SyntheticScene, packet_from_scene

GRID = FrameGrid(100, 75, 0.02)


@pytest.fixture(scope="module")
def packet():
    pkt, _ = packet_from_scene(SyntheticScene(seed=2, n_points=20, events_per_point=10))
    return pkt


def _cfg(mode):
    return ObjectiveConfig(BinningKernel.RECT, mode, ScoreKind("var"), GRID)


def test_fd_exact_on_affine():
    a = np.array([2.0, -3.0, 0.5])
    f = lambda th: float(a @ th)
    for step in (1e-3, 0.1, 1.0):
        np.testing.assert_allclose(fd_gradient(f, np.array([1.0, 2.0, 3.0]), step), a, rtol=1e-12)


def test_fd_cubic_truncation_term():
    f = lambda th: float(th[0] ** 3)
    g = fd_gradient(f, np.array([1.0]), 0.1)
    assert g[0] == pytest.approx(3.01)


def test_fd_step_validated():
    with pytest.raises(ValueError):
        fd_gradient(lambda th: 0.0, np.zeros(3), 0.0)


def test_bias_grid_counts(packet):
    report = bias_grid(_cfg(FBP(ReconKernel.LINEAR)), packet, [FBP(ReconKernel.LINEAR)], -1, 1, 2, 1.0)
    assert report.n_evaluations == 8
    assert report.n_gradient_components == 24


def test_bias_grid_rejects_single_sample(packet):
    with pytest.raises(ValueError):
        bias_grid(_cfg(Naive()), packet, [Naive()], -1, 1, 1, 1.0)


def test_naive_rect_bias_equals_negative_fd(packet):
    report = bias_grid(_cfg(Naive()), packet, [Naive()], -2, 2, 2, 1.0)
    np.testing.assert_allclose(report.analytic["naive"], 0.0, atol=1e-12)
    np.testing.assert_allclose(report.bias("naive"), -report.fd)


def test_bias_report_serialization(tmp_path, packet):
    report = bias_grid(_cfg(Naive()), packet, [Naive(), STE()], -2, 2, 2, 1.0)
    csv_path = tmp_path / "bias.csv"
    json_path = tmp_path / "bias.json"
    report.write_csv(csv_path)
    report.write_json_summary(json_path)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "mode", "theta1", "theta2", "theta3", "axis",
        "g_analytic", "g_fd", "bias", "bias_normalized", "fd_sign",
    ]
    assert len(rows) == 1 + 2 * 8 * 3  # header + modes * samples * axes
    summary = json.loads(json_path.read_text())
    assert set(summary["per_mode"]) == {"naive", "ste"}


@pytest.mark.parametrize("fd_step", [1.0, 0.3])  # on and off the grid points
def test_bias_grid_matches_per_rule_loop(packet, fd_step):
    """One evaluation per theta gives the bits of a separate value or gradient call per use."""
    cfg = _cfg(Sigmoid())  # a cfg.mode outside the rules asked for
    modes = [Naive(), FBP(ReconKernel.LINEAR), STE()]
    report = bias_grid(cfg, packet, modes, -1, 1, 3, fd_step)
    assert list(report.analytic) == ["naive", "fbp-linear", "ste"]
    for i, th in enumerate(report.thetas):
        fd = fd_gradient(lambda t: objective_value(cfg, packet, t), th, fd_step)
        assert fd.tobytes() == report.fd[i].tobytes()
        for mode, an in zip(modes, report.analytic.values()):
            assert objective_grad(replace(cfg, mode=mode), packet, th).tobytes() == an[i].tobytes()


def test_bias_grid_evaluates_each_theta_once(packet, monkeypatch):
    """27 grid points, and the 54 stencil points of a step-1 stencil that are not grid points, warp once each."""
    from funcbin import estimator

    n_warps = 0
    real = estimator.warp

    def counting(*args, **kwargs):
        nonlocal n_warps
        n_warps += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(estimator, "warp", counting)
    bias_grid(_cfg(Naive()), packet, [Naive(), FBP(ReconKernel.LINEAR), STE()], -1, 1, 3, 1.0)
    assert n_warps == 27 + 54


@pytest.mark.parametrize("k", list(BinningKernel))
def test_degree_of_precision_low_orders_vanish(k):
    rows = degree_of_precision(k, ReconKernel.LINEAR)
    for n, lhs, rhs, res in rows[:3]:
        assert res < 1e-8, (k, n)


@pytest.mark.parametrize(
    "k,expected",
    [(BinningKernel.RECT, 0.5), (BinningKernel.LINEAR, 0.5)],
)
def test_degree_of_precision_cubic_residual(k, expected):
    # residual at degree 3 equals 3 * m2(linear) * mass(k) = 3 * (1/6) * 1
    rows = degree_of_precision(k, ReconKernel.LINEAR)
    n, lhs, rhs, res = rows[3]
    assert res == pytest.approx(expected, abs=1e-6)


def test_degree_of_precision_validates_nmax():
    with pytest.raises(ValueError):
        degree_of_precision(BinningKernel.RECT, ReconKernel.LINEAR, n_max=0)
