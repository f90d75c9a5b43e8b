"""The benchmark's four workloads: inputs, timed rounds, output checks, replays and probes.

Every workload bins onto the CLI's default 200 x 150 grid with delta 0.01,
with the rect kernel, the variance score and the rotational model. Inputs
are synthetic scenes with the planted rotation (0.5, -0.3, 0.8) rad/s, drawn
from the benchmark's seed and written to one events file during set-up.

A round is the workload's fixed timed job: it reads that file, packetizes
it and runs one operation per packet. Rounds repeat identically, so every
round attempts the same operations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import time
import traceback

import numpy as np

import checks

PLANTED = (0.5, -0.3, 0.8)
GRID = (200, 150, 0.01)
CANDIDATES_PER_SLOT = 8
CHAIN_SPANS = {
    "warp.warp",
    "binning.bin_forward",
    "objectives.score_adjoint",
    "binning.bin_vjp",
    "kernels.kappa_prime",
    "estimator.objective_value",
    "estimator.objective_grad",
}


class Layers:
    """The benchmark's calls into funcbin, each inside a span when a tracer is given."""

    def __init__(self, fb, tracer=None):
        self.fb = fb
        self.tracer = tracer

    def _span(self, name, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else contextlib.nullcontext({})

    def _taps(self, n, kernel, mode=None) -> int:
        """Kernel evaluations of one binning pass: points times the square window of the rule."""
        fb = self.fb
        r = fb.kernels.BINNING_SUPPORT[kernel]
        if mode is not None and not isinstance(mode, fb.Naive):
            recon = mode.recon if isinstance(mode, fb.FBP) else fb.ReconKernel.LINEAR
            r += fb.kernels.RECON_SUPPORT[recon]
        return n * (int(np.floor(2.0 * r)) + 1) ** 2

    def synth_events(self, scene):
        with self._span("events_io.synth_events"):
            return self.fb.synth_events(scene)

    def write_events_txt(self, path, events):
        with self._span("events_io.write_events_txt"):
            self.fb.write_events_txt(path, events)

    def read_events_txt(self, path):
        with self._span("events_io.read_events_txt"):
            return self.fb.read_events_txt(path)

    def packetize(self, events, ne):
        with self._span("events_io.packetize"):
            return self.fb.packetize(events, ne)

    def table_build(self, kernel, recon):
        with self._span("kernels.table_build"):
            return self.fb.synthesize_kappa(kernel, recon)

    def kappa_prime(self, sk, offsets):
        with self._span("kernels.kappa_prime"):
            return sk.kappa_prime(offsets)

    def warp(self, packet, theta):
        with self._span("warp.warp"):
            return self.fb.warp(packet, "rot", theta)

    def bin_forward(self, pts, grid, kernel):
        with self._span("binning.bin_forward", taps=self._taps(len(pts), kernel)):
            return self.fb.bin_forward(pts, grid, kernel)

    def score_adjoint(self, frame, kind):
        with self._span("objectives.score_adjoint"):
            return self.fb.score(frame, kind), self.fb.adjoint(frame, kind)

    def bin_vjp(self, pts, adjoint, grid, kernel, mode):
        with self._span("binning.bin_vjp", taps=self._taps(len(pts), kernel, mode)):
            return self.fb.bin_vjp(pts, adjoint, grid, kernel, mode)

    def bin_jvp(self, pts, tangents, grid, kernel, mode):
        with self._span("binning.bin_jvp", taps=self._taps(len(pts), kernel, mode)):
            return self.fb.bin_jvp(pts, tangents, grid, kernel, mode)

    def objective_value(self, cfg, packet, theta):
        with self._span("estimator.objective_value"):
            return self.fb.objective_value(cfg, packet, theta)

    def objective_grad(self, cfg, packet, theta):
        with self._span("estimator.objective_grad"):
            return self.fb.objective_grad(cfg, packet, theta)

    def lbfgs_maximize(self, cfg, packet, theta0):
        with self._span("estimator.lbfgs_maximize") as attrs:
            theta, trace = self.fb.lbfgs_maximize(cfg, packet, theta0)
            attrs["iterations"] = len(trace.values) - 1
        return theta, trace

    def fd_gradient(self, value_fn, theta, step):
        with self._span("analysis.fd_gradient"):
            return self.fb.fd_gradient(value_fn, theta, step)

    def bias_grid(self, cfg, packet, modes, lo, hi, n, step):
        with self._span("analysis.bias_grid"):
            return self.fb.bias_grid(cfg, packet, modes, lo, hi, n, step)


@dataclasses.dataclass
class Op:
    wall: float
    out: object  # None when the operation raised


@dataclasses.dataclass
class Round:
    packets: list
    ops: list[Op]


def timed(fn) -> Op:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc()
        out = None
    return Op(time.perf_counter() - t0, out)


def axis_offsets(coords, radius) -> np.ndarray:
    """Offsets from each coordinate to every bin of its kernel window (the binning loops' window)."""
    u0 = np.ceil(coords - radius)
    count = int(np.floor(2.0 * radius)) + 1
    return (coords[:, None] - (u0[:, None] + np.arange(count))).ravel()


def replay_chain(L: Layers, cfg, packet, theta) -> None:
    """warp -> bin_forward -> score/adjoint -> bin_vjp at theta, and kappa' over the VJP's kernel windows."""
    fb = L.fb
    res = L.warp(packet, theta)
    pts = res.points
    frame = L.bin_forward(pts, cfg.grid, cfg.kernel)
    _, vbar = L.score_adjoint(frame, cfg.score)
    L.bin_vjp(pts, vbar, cfg.grid, cfg.kernel, cfg.mode)
    if isinstance(cfg.mode, fb.FBP):
        sk = fb.synthesize_kappa(cfg.kernel, cfg.mode.recon)
        g = cfg.grid
        offsets = np.concatenate(
            [
                axis_offsets((pts.xs - g.origin[0]) / g.delta, sk.support_radius),
                axis_offsets((pts.ys - g.origin[1]) / g.delta, sk.support_radius),
            ]
        )
        L.kappa_prime(sk, offsets)


def replay_objective(L: Layers, cfg, packet, theta) -> None:
    """The whole objective value and gradient at theta, as the solver and the bias grid call them."""
    L.objective_value(cfg, packet, theta)
    L.objective_grad(cfg, packet, theta)


def jvp_directional(L: Layers, cfg, packet, theta) -> np.ndarray:
    """Directional derivatives of the objective along each motion axis, by the JVP chain."""
    res = L.warp(packet, theta)
    frame = L.bin_forward(res.points, cfg.grid, cfg.kernel)
    _, vbar = L.score_adjoint(frame, cfg.score)
    J = res.jacobian
    return np.array(
        [
            np.sum(vbar * L.bin_jvp(res.points, (J[:, 0, i], J[:, 1, i]), cfg.grid, cfg.kernel, cfg.mode))
            for i in range(3)
        ]
    )


class Workload:
    """Set-up, one timed round, the checks of a round, the traced replay and the layer probes."""

    n_packets: int
    n_points: int  # features per scene
    events_per_point: int
    recon = "linear"  # reconstruction kernel of the FBP rule
    builds_tables = True  # whether set-up builds the rule's kappa tables
    fd_step = 1.0

    def __init__(self, fb, seed: int, workdir):
        self.fb = fb
        self.seed = seed
        self.path = workdir / "events.txt"
        self.ne = self.n_points * self.events_per_point
        self.truth = np.array(PLANTED)
        self.cfg = fb.ObjectiveConfig(
            kernel=fb.BinningKernel.RECT,
            mode=fb.FBP(fb.ReconKernel(self.recon)),
            score=fb.ScoreKind("var"),
            grid=fb.FrameGrid(*GRID),
        )

    def setup(self, L: Layers) -> None:
        """Synthesize independent scenes, write them one after another into one events file, build tables."""
        fb = self.fb
        rng = np.random.default_rng(self.seed)
        motion = fb.MotionParams("rot", PLANTED)
        self.events = []
        for i, s in enumerate(self.scene_seeds(rng)):
            scene = fb.SyntheticScene(
                seed=s, n_points=self.n_points, events_per_point=self.events_per_point, motion=motion
            )
            events, _ = L.synth_events(scene)
            shift = i * scene.duration  # scene i follows scene i - 1 in time
            self.events.extend(dataclasses.replace(e, t=e.t + shift) for e in events)
        L.write_events_txt(self.path, self.events)
        if self.builds_tables:
            L.table_build(self.cfg.kernel, self.cfg.mode.recon)

    @property
    def n_scenes(self) -> int:
        return self.n_packets

    def scene_seeds(self, rng) -> list[int]:
        """The SyntheticScene seed of each packet slot."""
        return [int(s) for s in rng.integers(0, 2**31 - 1, self.n_scenes)]

    def read(self, L: Layers) -> list:
        return L.packetize(L.read_events_txt(self.path), self.ne)

    def count_problems(self, rnd: Round) -> list[str]:
        if len(rnd.packets) != self.n_packets:
            return [f"{len(rnd.packets)} packets, expected {self.n_packets}"]
        return []

    def round(self, L: Layers) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round, L: Layers) -> tuple[list[str], list[str]]:
        """(failed operations, problems): a failed operation ran but missed its target."""
        raise NotImplementedError

    def replay(self, rnd: Round, L: Layers, budget_s: float) -> None:
        """Traced runs only: call each layer on its own where the round's calls are opaque.

        Packets are replayed in order until the replay has taken ``budget_s``
        (at least one packet), which bounds the length of a traced run.
        """
        t0 = time.perf_counter()
        for i, (p, op) in enumerate(zip(rnd.packets, rnd.ops)):
            if op.out is not None:
                self.replay_packet(L, i, p, op.out)
            if time.perf_counter() - t0 >= budget_s:
                break

    def replay_packet(self, L: Layers, i: int, packet, out) -> None:
        """Replay the calls behind operation ``out`` on packet ``i``."""

    def probe(self, L: Layers, packet) -> None:
        """Traced runs only: call, on one of the workload's packets, each layer its round did not reach."""
        fb, cfg, theta = self.fb, self.cfg, self.truth
        steps = [
            ({"kernels.table_build"}, lambda: L.table_build(cfg.kernel, cfg.mode.recon)),
            (CHAIN_SPANS, lambda: (replay_chain(L, cfg, packet, theta), replay_objective(L, cfg, packet, theta))),
            ({"binning.bin_jvp"}, lambda: jvp_directional(L, cfg, packet, theta)),
            (
                {"analysis.fd_gradient"},
                lambda: L.fd_gradient(lambda th: fb.objective_value(cfg, packet, th), theta, self.fd_step),
            ),
            ({"estimator.lbfgs_maximize"}, lambda: L.lbfgs_maximize(cfg, packet, np.zeros(3))),
        ]
        for names, step in steps:
            if names - {s["name"] for s in L.tracer.spans}:
                step()


class EgoRect(Workload):
    """Independent 1,800-event scenes, each solved by L-BFGS from theta = 0 under FBP-linear."""

    n_packets, n_points, events_per_point = 12, 60, 30
    identity_check = False
    stops_early = (0, 52, 59)  # line_search_failure at 16%, 81% and 69% from the planted motion

    @classmethod
    def slot_candidates(cls, slot: int) -> range:
        return range(slot, cls.n_packets * CANDIDATES_PER_SLOT, cls.n_packets)

    def scene_seeds(self, rng):
        """One scene per slot, from the slot's candidates on which the solve reaches the planted motion.

        Slot i is shifted in time by i scene durations, which moves its
        timestamps by rounding, and a solve that stops early is sensitive to
        that. So each candidate seed was solved at its own slot, and those that
        stopped early (``stops_early``) are left out.
        """
        pools = [[s for s in self.slot_candidates(i) if s not in self.stops_early] for i in range(self.n_packets)]
        return [int(rng.choice(pool)) for pool in pools]

    def round(self, L):
        packets = self.read(L)
        return Round(packets, [timed(lambda p=p: L.lbfgs_maximize(self.cfg, p, np.zeros(3))) for p in packets])

    def check(self, rnd, L):
        failed, problems = [], self.count_problems(rnd)
        g = self.cfg.grid
        for i, (p, op) in enumerate(zip(rnd.packets, rnd.ops)):
            if op.out is None:
                failed.append(f"packet {i}: solve raised")
                continue
            theta, trace = op.out
            failed += [f"packet {i}: {m}" for m in checks.planted(theta, self.truth)]
            final = trace.thetas[-1]
            res = L.warp(p, final)
            xs, ys = res.points.xs, res.points.ys
            frame = L.bin_forward(res.points, g, self.cfg.kernel).values
            problems += checks.value_matches(trace.values[-1], checks.histogram_frame(xs, ys, g.shape, g.delta, g.origin))
            problems += checks.nondecreasing(trace.values)
            problems += checks.frame_sum(frame, xs, ys, g.delta, g.origin)
            if self.identity_check:
                grad = L.objective_grad(self.cfg, p, final)
                problems += checks.gradient_identity(grad, jvp_directional(L, self.cfg, p, final))
        return failed, problems

    def replay_packet(self, L, i, packet, out):
        for theta in out[1].thetas:
            replay_chain(L, self.cfg, packet, theta)
            replay_objective(L, self.cfg, packet, theta)


class EgoDenseCubic(EgoRect):
    """A few 20,000-event scenes solved under FBP-cubic, whose tabulated-kappa VJP dominates."""

    n_packets, n_points, events_per_point = 4, 200, 100
    recon = "cubic"
    identity_check = True
    stops_early = ()  # all 32 candidates reach the planted motion


class BiasSweep(Workload):
    """The gradient-bias grid of ``funcbin bias`` on 1,800-event scenes, under four gradient rules."""

    n_packets, n_points, events_per_point = 6, 60, 30
    lo, hi, grid_n = -5.0, 5.0, 3
    samples_per_packet = 2

    def __init__(self, fb, seed, workdir):
        super().__init__(fb, seed, workdir)
        self.modes = [fb.Naive(), fb.FBP(fb.ReconKernel.LINEAR), fb.STE(), fb.Sigmoid()]
        axis = np.linspace(self.lo, self.hi, self.grid_n)
        self.thetas = np.array(list(itertools.product(axis, axis, axis)))
        rng = np.random.default_rng([self.seed, 1])
        self.samples = [
            rng.choice(len(self.thetas), self.samples_per_packet, replace=False) for _ in range(self.n_packets)
        ]

    def _sweep(self, L, p):
        return L.bias_grid(self.cfg, p, self.modes, self.lo, self.hi, self.grid_n, self.fd_step)

    def round(self, L):
        packets = self.read(L)
        return Round(packets, [timed(lambda p=p: self._sweep(L, p)) for p in packets])

    def check(self, rnd, L):
        failed, problems = [], self.count_problems(rnd)
        g = self.cfg.grid
        for i, (p, op, idx) in enumerate(zip(rnd.packets, rnd.ops, self.samples)):
            if op.out is None:
                failed.append(f"packet {i}: bias grid raised")
                continue
            report = op.out
            problems += checks.close(report.thetas, self.thetas, 0.0, "bias grid points")
            analytic = list(report.analytic.values())
            if len(analytic) != len(self.modes):
                problems.append(f"{len(analytic)} rules in the bias report, expected {len(self.modes)}")
                continue
            problems += checks.all_zero(analytic[0], "naive rule on rect")
            for j in idx:
                theta = self.thetas[j]
                ref = checks.histogram_fd(p.ts, p.xs, p.ys, p.t_ref, theta, self.fd_step, g.shape, g.delta)
                problems += checks.fd_matches(report.fd[j], ref)
                for mode, an in zip(self.modes, analytic):
                    cfg = dataclasses.replace(self.cfg, mode=mode)
                    problems += checks.gradient_identity(an[j], jvp_directional(L, cfg, p, theta))
        return failed, problems

    def replay_packet(self, L, i, packet, out):
        for j in self.samples[i]:
            theta = self.thetas[j]
            for mode in self.modes:
                cfg = dataclasses.replace(self.cfg, mode=mode)
                replay_chain(L, cfg, packet, theta)
                replay_objective(L, cfg, packet, theta)
            L.fd_gradient(lambda th: self.fb.objective_value(self.cfg, packet, th), theta, self.fd_step)


class IngestFrames(Workload):
    """One 200,000-event scene parsed, packetized into 20,000-event packets, warped at the planted motion and binned."""

    n_points, events_per_point = 400, 500
    builds_tables = False  # forward only: no gradient rule
    n_scenes = 1

    def __init__(self, fb, seed, workdir):
        super().__init__(fb, seed, workdir)
        self.ne = 20_000
        self.n_packets = self.n_points * self.events_per_point // self.ne
        self.expected = None

    def _frame(self, L, p):
        res = L.warp(p, self.truth)
        return res, L.bin_forward(res.points, self.cfg.grid, self.cfg.kernel)

    def round(self, L):
        packets = self.read(L)
        return Round(packets, [timed(lambda p=p: self._frame(L, p)) for p in packets])

    def check(self, rnd, L):
        failed, problems = [], self.count_problems(rnd)
        if self.expected is None:  # synthesized columns, taken once set-up is over
            self.expected = tuple(np.array([getattr(e, a) for e in self.events]) for a in ("t", "x", "y", "polarity"))
            del self.events
        parsed = tuple(np.concatenate([getattr(p, a) for p in rnd.packets]) for a in ("ts", "xs", "ys", "ps"))
        problems += checks.columns(parsed, self.expected)
        g = self.cfg.grid
        for i, (p, op) in enumerate(zip(rnd.packets, rnd.ops)):
            if op.out is None:
                failed.append(f"packet {i}: framing raised")
                continue
            res, frame = op.out
            wx, wy = checks.rotate(p.ts, p.xs, p.ys, p.t_ref, self.truth)
            problems += checks.close(res.points.xs, wx, checks.WARP_ATOL, f"packet {i} warped x")
            problems += checks.close(res.points.ys, wy, checks.WARP_ATOL, f"packet {i} warped y")
            ref = checks.histogram_frame(res.points.xs, res.points.ys, g.shape, g.delta, g.origin)
            problems += checks.frame_equals(frame.values, ref)
        return failed, problems


WORKLOADS = {
    "ego-rect": EgoRect,
    "ego-dense-cubic": EgoDenseCubic,
    "bias-sweep": BiasSweep,
    "ingest-frames": IngestFrames,
}
