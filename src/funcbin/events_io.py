"""Event file ingestion, packetization, and synthetic scene generation.

File format: ASCII, one event per line, "t x y p" with t in seconds and
p in {0, 1} (0 maps to polarity -1). Blank lines and lines starting with
'#' are skipped. Coordinates may be real-valued.

Streams are held as columns, not as one object per event:
``read_events_txt`` and ``synth_columns`` return an ``EventColumns`` with
contiguous float64 ``ts``, ``xs``, ``ys`` and int64 polarities ``ps`` in
{-1, +1}, and ``packetize`` slices those columns into ``EventPacket``s.
``synth_events`` gives the same stream as ``Event`` rows, which is what
``write_events_txt`` takes.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .warp import Event, EventPacket, MotionParams, RefTimePolicy, reference_time
from .errors import ParseError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EventColumns:
    """An event stream as four parallel columns; ``len()`` is the number of events."""

    ts: np.ndarray  # float64
    xs: np.ndarray  # float64
    ys: np.ndarray  # float64
    ps: np.ndarray  # int64, -1 or +1

    def __len__(self) -> int:
        return len(self.ts)


def read_events_txt(path) -> EventColumns:
    """Parse an events text file into columns; raises ParseError with the line number.

    The file is read line by line into typed buffers, so no per-event object
    is made. Each field goes through ``float()`` or ``int()``, and a
    non-finite timestamp or coordinate is rejected.
    """
    ts, xs, ys, ps = array("d"), array("d"), array("d"), array("q")
    last_t = -math.inf
    warned = False
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 4:
                raise ParseError(path, lineno, f"expected 4 fields, got {len(parts)}")
            try:
                t = float(parts[0])
                x = float(parts[1])
                y = float(parts[2])
                p = int(parts[3])
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from exc
            if p != 0 and p != 1:
                raise ParseError(path, lineno, f"polarity field must be 0 or 1, got {p}")
            if not math.isfinite(t):
                raise ParseError(path, lineno, "timestamp must be finite")
            if not math.isfinite(x):
                raise ParseError(path, lineno, "x must be finite")
            if not math.isfinite(y):
                raise ParseError(path, lineno, "y must be finite")
            if t < last_t and not warned:
                log.warning("%s:%d: non-monotonic timestamp %r", path, lineno, t)
                warned = True
            last_t = t
            ts.append(t)
            xs.append(x)
            ys.append(y)
            ps.append(2 * p - 1)
    return EventColumns(np.frombuffer(ts), np.frombuffer(xs), np.frombuffer(ys), np.frombuffer(ps, dtype=np.int64))


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
    """The motion vector of each packet, in packet order.

    The index column must count 0, 1, 2, ..., so that truth i is the truth
    of packet i; a line that breaks the count raises ParseError.
    """
    out = []
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(path, lineno, f"expected 4 fields, got {len(parts)}")
            try:
                index = int(parts[0])
                vec = np.array([float(p) for p in parts[1:]])
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from exc
            if index != len(out):
                raise ParseError(path, lineno, f"packet index must be {len(out)}, got {index}")
            out.append(vec)
    return out


def packetize(events: EventColumns, n_e: int, policy: RefTimePolicy = RefTimePolicy.MEAN) -> list[EventPacket]:
    """Split into consecutive packets of exactly n_e events; remainder dropped.

    Each packet holds slices (views) of the stream's columns.
    """
    if n_e < 1:
        raise ValueError(f"n_e must be >= 1, got {n_e}")
    packets = []
    for start in range(0, len(events) - n_e + 1, n_e):
        s = slice(start, start + n_e)
        ts = events.ts[s]
        packets.append(EventPacket(ts, events.xs[s], events.ys[s], events.ps[s], reference_time(ts, policy)))
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


def synth_columns(scene: SyntheticScene) -> tuple[EventColumns, MotionParams]:
    """Generate an event stream with planted ground-truth motion, as time-sorted columns."""
    rng = np.random.default_rng(scene.seed)
    x0, x1, y0, y1 = scene.extent
    n, m = scene.n_points, scene.events_per_point
    feats = np.stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)], axis=1)
    # uniformly spaced timestamps per feature with a random phase
    base = np.arange(m) / m * scene.duration
    phases = rng.uniform(0.0, scene.duration / m, n)
    ts = phases[:, None] + base[None, :]  # (feature, event)
    t_ref = float(np.mean(ts))
    theta = np.asarray(scene.motion.vec)
    dt = t_ref - ts
    if scene.motion.model == "rot":
        # solve (I + dt [omega]x) X = (feature, 1) for every event in one stacked
        # call; LAPACK factors each 3 x 3 matrix on its own
        wx, wy, wz = theta
        skew = np.array([[0.0, -wz, wy], [wz, 0.0, -wx], [-wy, wx, 0.0]])
        A = np.eye(3) + dt[:, :, None, None] * skew
        P = np.concatenate([feats, np.ones((n, 1))], axis=1)
        X = np.linalg.solve(A, np.broadcast_to(P[:, None, :, None], (n, m, 3, 1)))[..., 0]
        xy = X[..., :2] / X[..., 2:]
    else:
        # invert warp_translational: (xy + dt v[:2]) / (1 + dt vz) = feature
        xy = feats[:, None, :] * (1.0 + dt[:, :, None] * theta[2]) - dt[:, :, None] * theta[:2]
    # per feature, the jitter draw and then the polarity draw
    pols = np.empty((n, m), dtype=np.int64)
    for f in range(n):
        if scene.noise_std > 0:
            xy[f] = xy[f] + rng.normal(0.0, scene.noise_std, (m, 2))
        pols[f] = rng.choice([-1, 1], m)
    order = np.argsort(ts.ravel(), kind="stable")
    xy = xy.reshape(-1, 2)
    return EventColumns(ts.ravel()[order], xy[order, 0], xy[order, 1], pols.ravel()[order]), scene.motion


def synth_events(scene: SyntheticScene) -> tuple[list[Event], MotionParams]:
    """``synth_columns`` as a time-sorted list of ``Event`` rows."""
    cols, motion = synth_columns(scene)
    rows = zip(cols.ts.tolist(), cols.xs.tolist(), cols.ys.tolist(), cols.ps.tolist())
    return [Event(t, x, y, p) for t, x, y, p in rows], motion


def packet_from_scene(scene: SyntheticScene, policy: RefTimePolicy = RefTimePolicy.MEAN):
    """Convenience: one packet holding the entire synthetic stream."""
    cols, truth = synth_columns(scene)
    return packetize(cols, len(cols), policy)[0], truth
