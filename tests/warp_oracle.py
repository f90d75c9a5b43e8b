"""The warp Jacobians as the package once built them, kept as a test reference.

Each event's 2 x 3 Jacobian is the matrix product of the perspective
projection's derivative P (n, 2, 3) and the homogeneous motion derivative
(n, 3, 3), built as dense tensors and contracted with ``einsum``. The
package builds the same sums column by column, on demand.
"""

import numpy as np

from funcbin.warp import PROJECTION_GUARD


def _projection_derivative(h, project, guard):
    n = len(h)
    if not project:
        keep = np.ones(n, dtype=bool)
        P = np.zeros((n, 2, 3))
        P[:, 0, 0] = 1.0
        P[:, 1, 1] = 1.0
        return keep, P
    z = h[:, 2]
    keep = np.abs(z) >= guard
    hz = np.where(keep, z, 1.0)
    P = np.zeros((n, 2, 3))
    P[:, 0, 0] = 1.0 / hz
    P[:, 1, 1] = 1.0 / hz
    P[:, 0, 2] = -h[:, 0] / hz**2
    P[:, 1, 2] = -h[:, 1] / hz**2
    return keep, P


def jacobian(packet, model, theta, *, project=True, guard=PROJECTION_GUARD):
    """The (n_kept, 2, 3) warp Jacobian of ``funcbin.warp`` by the dense construction."""
    theta = np.asarray(theta, dtype=float)
    dt = packet.t_ref - packet.ts
    X = np.stack([packet.xs, packet.ys, np.ones(len(packet))], axis=1)
    if model == "rot":
        h = X + dt[:, None] * np.cross(np.broadcast_to(theta, X.shape), X)
        keep, P = _projection_derivative(h, project, guard)
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
        h = X + dt[:, None] * theta[None, :]
        keep, P = _projection_derivative(h, project, guard)
        J = dt[:, None, None] * P
    return J[keep]
