"""Warp models, reference-time policies, and Jacobian correctness."""

import numpy as np
import pytest

from funcbin import (
    Event,
    EventPacket,
    MotionParams,
    RefTimePolicy,
    reference_time,
    warp,
    warp_rotational,
    warp_translational,
)
from funcbin.errors import NonFiniteThetaError

import warp_oracle


def _packet(n=40, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, 0.1, n))
    return EventPacket(
        ts,
        rng.uniform(0.3, 1.7, n),
        rng.uniform(0.3, 1.2, n),
        rng.choice([-1, 1], n),
        float(ts.mean()),
    )


def test_reference_time_policies():
    ts = np.array([0.0, 1.0, 5.0])
    assert reference_time(ts, RefTimePolicy.MEAN) == pytest.approx(2.0)
    assert reference_time(ts, RefTimePolicy.MIDPOINT) == pytest.approx(2.5)
    assert reference_time(ts, RefTimePolicy.FIRST) == 0.0
    assert reference_time(ts, RefTimePolicy.LAST) == 5.0


def test_event_polarity_validated():
    with pytest.raises(ValueError):
        Event(t=0.0, x=0.0, y=0.0, polarity=0)


def test_packet_requires_sorted_timestamps():
    with pytest.raises(ValueError):
        EventPacket([1.0, 0.5], [0, 0], [0, 0], [1, 1], 0.7)


def test_packet_tref_inside_range():
    with pytest.raises(ValueError):
        EventPacket([0.0, 1.0], [0, 0], [0, 0], [1, 1], 2.0)


def test_zero_motion_is_identity():
    pkt = _packet()
    for model in ("rot", "trans"):
        res = warp(pkt, model, np.zeros(3))
        np.testing.assert_allclose(res.points.xs, pkt.xs, atol=1e-14)
        np.testing.assert_allclose(res.points.ys, pkt.ys, atol=1e-14)
        assert res.n_excluded == 0


def test_events_at_reference_time_fixed():
    # an event exactly at t_ref never moves, whatever the parameters
    pkt = EventPacket([0.5], [1.2], [0.7], [1], 0.5)
    res = warp_rotational(pkt, [3.0, -2.0, 5.0])
    assert res.points.xs[0] == pytest.approx(1.2)
    assert res.points.ys[0] == pytest.approx(0.7)


def test_translational_known_shift():
    pkt = EventPacket([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1, 1], 0.0)
    # second event: dt = -1, v = (0.5, 0.25, 0) -> shifted by (-0.5, -0.25)
    res = warp_translational(pkt, [0.5, 0.25, 0.0])
    assert res.points.xs[1] == pytest.approx(0.5)
    assert res.points.ys[1] == pytest.approx(0.75)


@pytest.mark.parametrize("model", ["rot", "trans"])
def test_jacobian_matches_fd(model):
    pkt = _packet(seed=3)
    theta = np.array([0.8, -0.4, 1.1])
    res = warp(pkt, model, theta)
    eps = 1e-6
    for j in range(3):
        tp = theta.copy()
        tm = theta.copy()
        tp[j] += eps
        tm[j] -= eps
        rp = warp(pkt, model, tp)
        rm = warp(pkt, model, tm)
        fd_x = (rp.points.xs - rm.points.xs) / (2 * eps)
        fd_y = (rp.points.ys - rm.points.ys) / (2 * eps)
        np.testing.assert_allclose(res.jacobian[:, 0, j], fd_x, atol=1e-5)
        np.testing.assert_allclose(res.jacobian[:, 1, j], fd_y, atol=1e-5)


@pytest.mark.parametrize("model", ["rot", "trans"])
@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("guard", [1e-6, 1.0])
def test_points_match_stacked_oracle(model, project, guard):
    """The column-by-column warp gives the bits of the stacked np.cross construction."""
    pkt = _packet(n=500, seed=4)
    for theta in ([0.8, -0.4, 1.1], [30.0, -12.0, 45.0], [0.0, 0.0, 0.0], [-0.0, 2.5, -0.0]):
        res = warp(pkt, model, theta, project=project, guard=guard)
        xs, ys, keep = warp_oracle.points(pkt, model, theta, project=project, guard=guard)
        assert np.array_equal(res.kept, keep) and res.n_excluded == np.count_nonzero(~keep)
        assert np.array_equal(res.points.xs.view(np.uint64), xs.view(np.uint64))
        assert np.array_equal(res.points.ys.view(np.uint64), ys.view(np.uint64))


@pytest.mark.parametrize("model", ["rot", "trans"])
@pytest.mark.parametrize("project", [True, False])
@pytest.mark.parametrize("guard", [1e-6, 1.0])
def test_jacobian_matches_dense_oracle(model, project, guard):
    """The column-by-column Jacobian gives the dense einsum construction's bits."""
    pkt = _packet(n=500, seed=4)
    for theta in ([0.8, -0.4, 1.1], [30.0, -12.0, 45.0], [0.0, 0.0, 0.0]):
        res = warp(pkt, model, theta, project=project, guard=guard)
        if project and guard == 1.0 and any(theta):
            assert 0 < res.n_excluded < len(pkt)  # the guard excludes some events
        want = warp_oracle.jacobian(pkt, model, theta, project=project, guard=guard)
        J = res.jacobian
        assert J.shape == (len(res.points), 2, 3)
        assert np.array_equal(J.view(np.uint64), want.view(np.uint64))
        assert res.jacobian is J  # built once


def test_projection_guard_excludes_events():
    # drive the homogeneous third component to zero for one event
    pkt = EventPacket([0.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1, 1], 0.0)
    # dt = -1 for the second event; omega = (0, 1, 0) gives z' = 1 + dt*(-x) = ...
    res = warp_rotational(pkt, [1.0, -1.0, 0.0], guard=10.0)
    assert res.n_excluded >= 1
    assert len(res.points) == len(pkt) - res.n_excluded
    assert res.kept.sum() == len(res.points)


def test_polarity_weight_mode():
    pkt = _packet()
    res = warp_rotational(pkt, np.zeros(3), weight_mode="polarity")
    np.testing.assert_array_equal(res.points.ws, pkt.ps.astype(float))


def test_motion_params_validation():
    with pytest.raises(ValueError):
        MotionParams("spiral", (0, 0, 0))
    m = MotionParams("rot", (1, 2, 3))
    assert m.vec == (1.0, 2.0, 3.0)


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        warp(_packet(), "affine", np.zeros(3))


@pytest.mark.parametrize("model", ["rot", "trans"])
@pytest.mark.parametrize("theta", [[np.nan, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, np.inf], [-np.inf, 1.0, 2.0]])
def test_nonfinite_theta_rejected(model, theta):
    """A NaN theta would otherwise exclude every event through the projection guard and bin nothing."""
    with pytest.raises(NonFiniteThetaError, match="theta must be finite"):
        warp(_packet(), model, np.array(theta))
