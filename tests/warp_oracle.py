"""The warp points and Jacobians as the package once built them, kept as a test reference.

The homogeneous points are the stacked (n, 3) array of ``(x, y, 1)`` moved
by ``np.cross`` (rotational) or a broadcast add (translational). Each
event's 2 x 3 Jacobian is the matrix product of the perspective
projection's derivative P (n, 2, 3) and the homogeneous motion derivative
(n, 3, 3), built as dense tensors and contracted with ``einsum``. The
package builds the same values column by column, the Jacobian on demand.
"""

import numpy as np

from funcbin.warp import PROJECTION_GUARD


def _projection_derivative(h, guard):
    n = len(h)
    z = h[:, 2]
    keep = np.abs(z) >= guard
    hz = np.where(keep, z, 1.0)
    P = np.zeros((n, 2, 3))
    P[:, 0, 0] = 1.0 / hz
    P[:, 1, 1] = 1.0 / hz
    P[:, 0, 2] = -h[:, 0] / hz**2
    P[:, 1, 2] = -h[:, 1] / hz**2
    return keep, P


def _stacked(packet, model, theta):
    """(dt, X, h): time offsets, the (n, 3) homogeneous events and their warped rows."""
    theta = np.asarray(theta, dtype=float)
    dt = packet.t_ref - packet.ts
    X = np.stack([packet.xs, packet.ys, np.ones(len(packet))], axis=1)
    if model == "rot":
        return dt, X, X + dt[:, None] * np.cross(np.broadcast_to(theta, X.shape), X)
    return dt, X, X + dt[:, None] * theta[None, :]


def points(packet, model, theta, *, guard=PROJECTION_GUARD):
    """(xs, ys, keep): the projected points of ``funcbin.warp`` at the kept events, and the mask."""
    _, _, h = _stacked(packet, model, theta)
    keep = np.abs(h[:, 2]) >= guard
    hz = np.where(keep, h[:, 2], 1.0)
    return (h[:, 0] / hz)[keep], (h[:, 1] / hz)[keep], keep


def jacobian(packet, model, theta, *, guard=PROJECTION_GUARD):
    """The (n_kept, 2, 3) warp Jacobian of ``funcbin.warp`` by the dense construction."""
    dt, X, h = _stacked(packet, model, theta)
    keep, P = _projection_derivative(h, guard)
    if model == "rot":
        n = len(packet)
        skew = np.zeros((n, 3, 3))
        skew[:, 0, 1] = -X[:, 2]
        skew[:, 0, 2] = X[:, 1]
        skew[:, 1, 0] = X[:, 2]
        skew[:, 1, 2] = -X[:, 0]
        skew[:, 2, 0] = -X[:, 1]
        skew[:, 2, 1] = X[:, 0]
        Jh = -dt[:, None, None] * skew
        J = np.einsum("nij,njk->nik", P, Jh)
    else:
        J = dt[:, None, None] * P
    return J[keep]
