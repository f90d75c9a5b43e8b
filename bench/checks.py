"""Output checks computed apart from funcbin, with numpy alone.

Every check returns a list of problems; an empty list means the output
passed. The reference computations here (closed-form rotation, histogram
frames, histogram finite differences) share no code with the package.
"""

from __future__ import annotations

import numpy as np

PLANTED_RTOL = 0.02  # relative L2 distance of an estimate from the planted motion
VALUE_RTOL = 1e-12  # trace value against np.var of the histogram frame
IDENTITY_RTOL = 1e-9  # VJP-chain gradient against JVP-chain directional derivatives
FD_RTOL = 1e-12  # program finite differences against histogram finite differences
WARP_ATOL = 1e-12  # program warp against the closed-form rotation
T_ATOL = 1e-9  # parsed timestamps against synthesized ones (9 decimals on disk)


def rotate(ts, xs, ys, t_ref, omega):
    """Closed-form rotational warp of (x, y, 1) by (t_ref - t) * omega x X, projected."""
    wx, wy, wz = (float(w) for w in omega)
    dt = t_ref - np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    hx = xs + dt * (wy - wz * ys)
    hy = ys + dt * (wz * xs - wx)
    hz = 1.0 + dt * (wx * ys - wy * xs)
    return hx / hz, hy / hz


def _normalized(xs, ys, delta, origin):
    return (np.asarray(xs) - origin[0]) / delta, (np.asarray(ys) - origin[1]) / delta


def histogram_frame(xs, ys, shape, delta, origin=(0.0, 0.0)) -> np.ndarray:
    """Counts per bin, bin (u, v) covering [u - 1/2, u + 1/2) x [v - 1/2, v + 1/2) in units of delta."""
    width, height = shape
    xn, yn = _normalized(xs, ys, delta, origin)
    edges = [np.arange(width + 1) - 0.5, np.arange(height + 1) - 0.5]
    counts, _, _ = np.histogram2d(xn, yn, bins=edges)
    return counts


def histogram_variance(ts, xs, ys, t_ref, omega, shape, delta) -> float:
    """The variance objective of a rect-binned packet, computed without funcbin."""
    wx, wy = rotate(ts, xs, ys, t_ref, omega)
    return float(np.var(histogram_frame(wx, wy, shape, delta)))


def histogram_fd(ts, xs, ys, t_ref, theta, step, shape, delta) -> np.ndarray:
    """Central finite difference of :func:`histogram_variance` in each motion component."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        plus = histogram_variance(ts, xs, ys, t_ref, theta + e, shape, delta)
        minus = histogram_variance(ts, xs, ys, t_ref, theta - e, shape, delta)
        out[i] = (plus - minus) / (2.0 * step)
    return out


def planted(theta, truth, rtol: float = PLANTED_RTOL) -> list[str]:
    truth = np.asarray(truth, dtype=float)
    err = float(np.linalg.norm(np.asarray(theta, dtype=float) - truth) / np.linalg.norm(truth))
    if not err <= rtol:
        return [f"estimate {np.asarray(theta).tolist()} is {err:.3%} from planted {truth.tolist()}"]
    return []


def value_matches(value: float, ref_frame: np.ndarray, rtol: float = VALUE_RTOL) -> list[str]:
    ref = float(np.var(ref_frame))
    if not abs(value - ref) <= rtol * abs(ref):
        return [f"final value {value!r} != histogram variance {ref!r}"]
    return []


def nondecreasing(values) -> list[str]:
    v = np.asarray(values, dtype=float)
    bad = np.flatnonzero(np.diff(v) < 0)
    if bad.size:
        i = int(bad[0])
        return [f"accepted value decreased at iterate {i + 1}: {v[i]!r} -> {v[i + 1]!r}"]
    return []


def frame_sum(frame: np.ndarray, xs, ys, delta, origin=(0.0, 0.0)) -> list[str]:
    """A rect frame holds exactly one unit per point strictly inside the grid."""
    width, height = frame.shape
    xn, yn = _normalized(xs, ys, delta, origin)
    inside = (xn > -0.5) & (xn < width - 0.5) & (yn > -0.5) & (yn < height - 0.5)
    n = int(np.count_nonzero(inside))
    if float(frame.sum()) != n:
        return [f"frame sum {float(frame.sum())!r} != {n} in-grid points"]
    return []


def frame_equals(frame: np.ndarray, ref: np.ndarray) -> list[str]:
    if frame.shape != ref.shape:
        return [f"frame shape {frame.shape} != {ref.shape}"]
    diff = np.argwhere(frame != ref)
    if diff.size:
        u, v = diff[0]
        return [f"frame differs from histogram in {len(diff)} bins, first ({u}, {v}): {frame[u, v]!r} != {ref[u, v]!r}"]
    return []


def gradient_identity(grad, directional, rtol: float = IDENTITY_RTOL) -> list[str]:
    g = np.asarray(grad, dtype=float)
    d = np.asarray(directional, dtype=float)
    scale = max(float(np.max(np.abs(g))), float(np.max(np.abs(d))))
    if not np.max(np.abs(g - d)) <= rtol * scale:
        return [f"VJP gradient {g.tolist()} != JVP directional derivatives {d.tolist()}"]
    return []


def all_zero(grads, label: str) -> list[str]:
    g = np.asarray(grads, dtype=float)
    if np.any(g != 0.0):
        return [f"{label}: {np.count_nonzero(g)} nonzero gradient components, expected exactly 0"]
    return []


def fd_matches(fd, ref, rtol: float = FD_RTOL) -> list[str]:
    fd = np.asarray(fd, dtype=float)
    ref = np.asarray(ref, dtype=float)
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    if not np.max(np.abs(fd - ref)) <= rtol * scale:
        return [f"finite difference {fd.tolist()} != histogram finite difference {ref.tolist()}"]
    return []


def close(a, b, atol: float, label: str) -> list[str]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return [f"{label}: shape {a.shape} != {b.shape}"]
    if a.size and not np.max(np.abs(a - b)) <= atol:
        return [f"{label}: off by {np.max(np.abs(a - b)):.3e} > {atol:g}"]
    return []


def columns(parsed, expected) -> list[str]:
    """Parsed (t, x, y, polarity) columns against the synthesized ones."""
    (pt, px, py, pp), (et, ex, ey, ep) = parsed, expected
    problems = close(pt, et, T_ATOL, "timestamps")
    problems += close(px, ex, 0.0, "x")
    problems += close(py, ey, 0.0, "y")
    problems += close(pp, ep, 0.0, "polarity")
    return problems
