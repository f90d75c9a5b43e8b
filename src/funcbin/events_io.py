"""Event file ingestion, packetization, and synthetic scene generation.

File format: ASCII, one event per line, "t x y p" with t in seconds and
p in {0, 1} (0 maps to polarity -1). Blank lines and lines starting with
'#' are skipped. Coordinates may be real-valued.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .warp import Event, EventPacket, MotionParams, RefTimePolicy, reference_time
from .errors import ParseError

log = logging.getLogger(__name__)


def read_events_txt(path) -> list[Event]:
    """Parse an events text file; raises ParseError with the line number."""
    events: list[Event] = []
    last_t = None
    warned = False
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(path, lineno, f"expected 4 fields, got {len(parts)}")
            try:
                t = float(parts[0])
                x = float(parts[1])
                y = float(parts[2])
                p = int(parts[3])
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from exc
            if p not in (0, 1):
                raise ParseError(path, lineno, f"polarity field must be 0 or 1, got {p}")
            if last_t is not None and t < last_t and not warned:
                log.warning("%s:%d: non-monotonic timestamp %r", path, lineno, t)
                warned = True
            last_t = t
            events.append(Event(t=t, x=x, y=y, polarity=-1 if p == 0 else 1))
    return events


def write_events_txt(path, events) -> None:
    """Write events in the text format; coordinates keep full precision."""
    with open(path, "w") as fh:
        for e in events:
            p = 0 if e.polarity < 0 else 1
            fh.write(f"{e.t:.9f} {float(e.x)!r} {float(e.y)!r} {p}\n")


def write_truth_txt(path, truths: list[MotionParams]) -> None:
    """One line per packet: index and the three motion components."""
    with open(path, "w") as fh:
        for i, m in enumerate(truths):
            fh.write(f"{i} {float(m.vec[0])!r} {float(m.vec[1])!r} {float(m.vec[2])!r}\n")


def read_truth_txt(path) -> list[np.ndarray]:
    out = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(path, lineno, f"expected 4 fields, got {len(parts)}")
            out.append(np.array([float(p) for p in parts[1:]]))
    return out


def packetize(events, n_e: int, policy: RefTimePolicy = RefTimePolicy.MEAN) -> list[EventPacket]:
    """Split into consecutive packets of exactly n_e events; remainder dropped."""
    if n_e < 1:
        raise ValueError(f"n_e must be >= 1, got {n_e}")
    packets = []
    for start in range(0, len(events) - n_e + 1, n_e):
        packets.append(EventPacket.from_events(events[start : start + n_e], policy))
    return packets


@dataclass(frozen=True)
class SyntheticScene:
    """Deterministic synthetic scene with planted motion.

    Features live in grid coordinates. Each feature emits uniformly spaced,
    randomly phased events over [0, duration] whose coordinates are chosen
    so that warping with the planted parameters collapses the feature back
    to a single point (up to the Gaussian jitter ``noise_std``).
    """

    seed: int = 0
    n_points: int = 60
    motion: MotionParams = MotionParams("rot", (0.5, -0.3, 0.8))
    duration: float = 0.1
    events_per_point: int = 30
    noise_std: float = 0.0
    extent: tuple[float, float, float, float] = (0.3, 1.7, 0.3, 1.2)


def _inverse_rot(feature_xy: np.ndarray, omega: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Event coordinates whose rotational warp projects back onto the feature."""
    n = len(dt)
    P = np.concatenate([feature_xy, [1.0]])
    out = np.empty((n, 2))
    wx, wy, wz = omega
    skew = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
    for i in range(n):
        A = np.eye(3) + dt[i] * skew
        Xe = np.linalg.solve(A, P)
        out[i] = Xe[:2] / Xe[2]
    return out


def synth_events(scene: SyntheticScene) -> tuple[list[Event], MotionParams]:
    """Generate an event stream with planted ground-truth motion."""
    rng = np.random.default_rng(scene.seed)
    x0, x1, y0, y1 = scene.extent
    feats = np.stack(
        [rng.uniform(x0, x1, scene.n_points), rng.uniform(y0, y1, scene.n_points)], axis=1
    )
    m = scene.events_per_point
    # uniformly spaced timestamps per feature with a random phase
    base = np.arange(m) / m * scene.duration
    phases = rng.uniform(0.0, scene.duration / m, scene.n_points)
    ts_all = phases[:, None] + base[None, :]
    t_ref = float(np.mean(ts_all))
    theta = np.asarray(scene.motion.vec)

    records = []
    for f in range(scene.n_points):
        dt = t_ref - ts_all[f]
        if scene.motion.model == "rot":
            xy = _inverse_rot(feats[f], theta, dt)
        else:
            # invert warp_translational: (xy + dt v[:2]) / (1 + dt vz) = feature
            xy = feats[f][None, :] * (1.0 + dt[:, None] * theta[2]) - dt[:, None] * theta[None, :2]
        if scene.noise_std > 0:
            xy = xy + rng.normal(0.0, scene.noise_std, xy.shape)
        pols = rng.choice([-1, 1], m)
        for i in range(m):
            records.append((ts_all[f, i], xy[i, 0], xy[i, 1], pols[i]))
    records.sort(key=lambda r: r[0])
    events = [Event(t=t, x=x, y=y, polarity=int(p)) for t, x, y, p in records]
    return events, scene.motion


def packet_from_scene(scene: SyntheticScene, policy: RefTimePolicy = RefTimePolicy.MEAN):
    """Convenience: one packet holding the entire synthetic stream."""
    events, truth = synth_events(scene)
    return EventPacket.from_events(events, policy), truth
