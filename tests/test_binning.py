"""Binning primal/JVP/VJP behavior and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcbin import (
    FBP,
    BinningKernel,
    Frame,
    FrameGrid,
    Naive,
    ReconKernel,
    STE,
    Sigmoid,
    WeightedPoints,
    bin_forward,
    bin_forward_1d,
    bin_jvp,
    bin_jvp_1d,
    bin_vjp,
    bin_vjp_1d,
)
from funcbin.errors import InvalidGridError, LengthMismatchError, ShapeMismatchError

import binning_oracle as oracle

ALL_MODES = [
    Naive(),
    FBP(ReconKernel.LINEAR),
    FBP(ReconKernel.CUBIC),
    FBP(ReconKernel.LANCZOS),
    STE(),
    Sigmoid(),
]


def _random_instance(rng, n=25, w=16, h=12):
    grid = FrameGrid(w, h, 0.5)
    pts = WeightedPoints(
        rng.uniform(1.0, (w - 2) * 0.5, n),
        rng.uniform(1.0, (h - 2) * 0.5, n),
        rng.uniform(0.5, 2.0, n),
    )
    return pts, grid


def test_grid_validation():
    with pytest.raises(InvalidGridError):
        FrameGrid(0, 5, 0.1)
    with pytest.raises(InvalidGridError):
        FrameGrid(5, 5, 0.0)
    # a non-finite spacing or origin fails every comparison a bare `delta <= 0` check makes
    for delta, origin in ((np.nan, 0.0), (np.inf, 0.0), (0.1, np.nan), (0.1, -np.inf)):
        with pytest.raises(InvalidGridError):
            FrameGrid(10, 10, delta, (0.0, origin))
        with pytest.raises(InvalidGridError):
            bin_forward_1d([0.5], [1.0], 10, delta, origin, BinningKernel.RECT)


def test_points_validation():
    with pytest.raises(LengthMismatchError):
        WeightedPoints([1.0, 2.0], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        WeightedPoints([np.nan], [0.0], [1.0])


def test_frame_shape_checked():
    with pytest.raises(ShapeMismatchError):
        Frame(FrameGrid(4, 3, 1.0), np.zeros((3, 4)))


def test_mass_conservation_interior_points():
    # rect and linear kernels form a partition of unity, so every interior
    # point deposits exactly its weight
    rng = np.random.default_rng(0)
    pts, grid = _random_instance(rng)
    for k in (BinningKernel.RECT, BinningKernel.LINEAR):
        frame = bin_forward(pts, grid, k)
        assert frame.values.sum() == pytest.approx(pts.ws.sum(), rel=1e-12)


def test_single_point_rect():
    grid = FrameGrid(8, 8, 1.0)
    pts = WeightedPoints([3.2], [4.9], [2.0])
    frame = bin_forward(pts, grid, BinningKernel.RECT)
    assert frame.values[3, 5] == 2.0
    assert frame.values.sum() == 2.0


def _histogram(xs, ys, grid):
    """Counts per bin, bin (u, v) covering [u - 1/2, u + 1/2) x [v - 1/2, v + 1/2) in units of delta."""
    edges = [np.arange(grid.width + 1) - 0.5, np.arange(grid.height + 1) - 0.5]
    counts, _, _ = np.histogram2d(np.asarray(xs) / grid.delta, np.asarray(ys) / grid.delta, bins=edges)
    return counts


def test_rect_point_on_bin_edge_counts_once():
    # x = 3.0 on a delta = 2.0 grid lies on the edge between bins 1 and 2
    grid = FrameGrid(8, 8, 2.0)
    pts = WeightedPoints([3.0], [7.0], [1.0])
    frame = bin_forward(pts, grid, BinningKernel.RECT)
    assert frame.values.sum() == 1.0
    assert frame.values[2, 4] == 1.0
    assert np.array_equal(frame.values, _histogram(pts.xs, pts.ys, grid))


def test_rect_integer_coordinates_even_delta():
    # with an even delta every odd integer coordinate lies on a bin edge; the
    # ranges stop short of the grid's upper edges, which np.histogram2d closes
    grid = FrameGrid(10, 6, 2.0)
    xs, ys = np.meshgrid(np.arange(-3, 19), np.arange(-3, 11), indexing="ij")
    pts = WeightedPoints(xs.ravel(), ys.ravel(), np.ones(xs.size))
    frame = bin_forward(pts, grid, BinningKernel.RECT)
    expected = _histogram(pts.xs, pts.ys, grid)
    assert np.array_equal(frame.values, expected)
    assert frame.values.sum() == 20 * 12


def test_linear_splits_between_bins():
    grid = FrameGrid(8, 8, 1.0)
    pts = WeightedPoints([3.25], [5.0], [1.0])
    frame = bin_forward(pts, grid, BinningKernel.LINEAR)
    assert frame.values[3, 5] == pytest.approx(0.75)
    assert frame.values[4, 5] == pytest.approx(0.25)


def test_outside_points_dropped():
    grid = FrameGrid(4, 4, 1.0)
    pts = WeightedPoints([-10.0, 50.0], [1.0, 1.0], [1.0, 1.0])
    frame = bin_forward(pts, grid, BinningKernel.RECT)
    assert frame.values.sum() == 0.0


def test_forward_is_deterministic():
    rng = np.random.default_rng(5)
    pts, grid = _random_instance(rng, n=500)
    a = bin_forward(pts, grid, BinningKernel.LINEAR).values
    b = bin_forward(pts, grid, BinningKernel.LINEAR).values
    assert np.array_equal(a, b)


def test_zero_tangents_give_zero_jvp():
    rng = np.random.default_rng(1)
    pts, grid = _random_instance(rng)
    z = np.zeros(len(pts))
    for mode in ALL_MODES:
        out = bin_jvp(pts, (z, z), grid, BinningKernel.RECT, mode)
        assert np.all(out == 0.0)


def test_jvp_1d_symmetric_kernel_center():
    # a point sitting exactly on a bin center has kappa'(0) = 0
    out = bin_jvp_1d([2.0], [1.0], [1.0], 5, 1.0, 0.0, BinningKernel.RECT, FBP(ReconKernel.LINEAR))
    assert out[2] == 0.0


@pytest.mark.parametrize("k", list(BinningKernel))
@pytest.mark.parametrize("mode", ALL_MODES)
def test_adjoint_consistency(k, mode):
    """<vbar, JVP(xdot)> must equal <VJP(vbar), xdot> for every rule."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        pts, grid = _random_instance(rng)
        xdot = rng.normal(size=len(pts))
        ydot = rng.normal(size=len(pts))
        vbar = rng.normal(size=grid.shape)
        jvp = bin_jvp(pts, (xdot, ydot), grid, k, mode)
        gx, gy = bin_vjp(pts, vbar, grid, k, mode)
        lhs = float(np.sum(vbar * jvp))
        rhs = float(np.sum(gx * xdot) + np.sum(gy * ydot))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_forward_invariant_across_modes():
    # the derivative rule must never leak into the primal
    rng = np.random.default_rng(9)
    pts, grid = _random_instance(rng, n=200)
    ref = bin_forward(pts, grid, BinningKernel.RECT).values
    # modes only enter jvp/vjp; re-binning with any mode config is identical
    again = bin_forward(pts, grid, BinningKernel.RECT).values
    assert np.array_equal(ref, again)


def test_jvp_matches_fd_of_forward_smooth_kernel():
    rng = np.random.default_rng(7)
    pts, grid = _random_instance(rng, n=40)
    xdot = rng.normal(size=len(pts))
    ydot = rng.normal(size=len(pts))
    eps = 1e-6
    shifted = lambda s: bin_forward(
        WeightedPoints(pts.xs + s * eps * xdot, pts.ys + s * eps * ydot, pts.ws),
        grid,
        BinningKernel.LINEAR,
    ).values
    fd = (shifted(1) - shifted(-1)) / (2 * eps)
    jvp = bin_jvp(pts, (xdot, ydot), grid, BinningKernel.LINEAR, Naive())
    np.testing.assert_allclose(jvp, fd, atol=1e-5)


def test_1d_forward_partition_of_unity():
    out = bin_forward_1d([1.3, 2.7, 4.1], [1.0, 2.0, 3.0], 8, 1.0, 0.0, BinningKernel.LINEAR)
    assert out.sum() == pytest.approx(6.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_mass_conservation_property(seed):
    rng = np.random.default_rng(seed)
    pts, grid = _random_instance(rng, n=12)
    frame = bin_forward(pts, grid, BinningKernel.LINEAR)
    assert frame.values.sum() == pytest.approx(pts.ws.sum(), rel=1e-10)


def _assert_close(new, ref, rtol=1e-12):
    """Agreement relative to the reference's largest magnitude."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.max(np.abs(new - ref), initial=0.0) <= rtol * np.max(np.abs(ref), initial=0.0)


@pytest.mark.parametrize("k", list(BinningKernel))
@pytest.mark.parametrize("mode", ALL_MODES)
def test_separable_core_matches_loop_oracle(k, mode):
    """Every 2D and 1D pass equals the per-tap loops on points partly off the grid."""
    rng = np.random.default_rng(11)
    W, H, d = 16, 12, 0.5
    grid = FrameGrid(W, H, d, origin=(0.25, -0.5))
    n = 200
    xs = rng.uniform(-2.0, W * d + 2.0, n)
    ys = rng.uniform(-2.0, H * d + 2.0, n)
    pts = WeightedPoints(xs, ys, rng.uniform(0.5, 2.0, n))
    xdot, ydot = rng.normal(size=n), rng.normal(size=n)
    vbar = rng.normal(size=grid.shape)
    _assert_close(bin_forward(pts, grid, k).values, oracle.forward(pts, grid, k))
    _assert_close(bin_jvp(pts, (xdot, ydot), grid, k, mode), oracle.jvp(pts, (xdot, ydot), grid, k, mode))
    for got, ref in zip(bin_vjp(pts, vbar, grid, k, mode), oracle.vjp(pts, vbar, grid, k, mode)):
        _assert_close(got, ref)
    o = grid.origin[0]
    _assert_close(bin_forward_1d(xs, pts.ws, W, d, o, k), oracle.forward_1d(xs, pts.ws, W, d, o, k))
    _assert_close(bin_jvp_1d(xs, pts.ws, xdot, W, d, o, k, mode), oracle.jvp_1d(xs, pts.ws, xdot, W, d, o, k, mode))
    vbar1 = vbar[:, 0]
    _assert_close(bin_vjp_1d(xs, pts.ws, vbar1, W, d, o, k, mode), oracle.vjp_1d(xs, pts.ws, vbar1, W, d, o, k, mode))


@pytest.mark.parametrize("k", list(BinningKernel))
@pytest.mark.parametrize("mode", ALL_MODES)
def test_adjoint_consistency_1d(k, mode):
    """<vbar, JVP_1D(xdot)> must equal <VJP_1D(vbar), xdot> for every rule."""
    rng = np.random.default_rng(43)
    width, delta, origin = 16, 0.5, -0.25
    for _ in range(10):
        xs = rng.uniform(-1.0, width * delta + 1.0, 25)
        ws = rng.uniform(0.5, 2.0, 25)
        xdot = rng.normal(size=25)
        vbar = rng.normal(size=width)
        lhs = float(np.sum(vbar * bin_jvp_1d(xs, ws, xdot, width, delta, origin, k, mode)))
        rhs = float(np.sum(bin_vjp_1d(xs, ws, vbar, width, delta, origin, k, mode) * xdot))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("k", list(BinningKernel))
@pytest.mark.parametrize("mode", ALL_MODES)
def test_mirrored_point_negates_x_gradient(k, mode):
    """A point mirrored about a bin centre, under an adjoint mirrored the same way, flips g_x.

    The window (x - r, x + r] is symmetric about each point, so this holds for
    rules whose derivative does not vanish at the window's edge (the sigmoid).
    """
    rng = np.random.default_rng(3)
    grid = FrameGrid(15, 9, 1.0)
    half = rng.normal(size=(8, 9))
    vbar = np.concatenate([half[:0:-1], half])  # column 7 is the mirror axis
    pts = WeightedPoints([7.25, 6.75], [4.375, 4.375], [1.0, 1.0])
    gx, gy = bin_vjp(pts, vbar, grid, k, mode)
    assert gx[1] == pytest.approx(-gx[0], rel=1e-12, abs=1e-15)
    assert gy[1] == pytest.approx(gy[0], rel=1e-12, abs=1e-15)
