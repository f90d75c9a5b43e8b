"""Command-line interface.

Subcommands:
  bin        events -> binned frame, written as CSV
  grad       analytic-vs-finite-difference gradient check per mode
  bias       parameter-grid bias report (CSV + JSON summary)
  estimate   packetized motion estimation with L-BFGS
  precision  integration-by-parts residual table for a kernel pair
  synth      write a synthetic event stream with planted motion

Exit codes: 0 success, 1 runtime error, 2 argument error. Runtime errors
emit a single machine-readable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import bias_grid, bias_report, degree_of_precision
from .binning import FBP, Frame, FrameGrid, GradMode, Naive, STE, Sigmoid, WeightedPoints, bin_forward
from .errors import FuncbinError
from .estimator import ObjectiveConfig, lbfgs_maximize, rms_error
from .events_io import (
    SyntheticScene,
    packetize,
    read_events_txt,
    read_truth_txt,
    synth_events,
    write_events_txt,
    write_truth_txt,
)
from .kernels import BinningKernel, ReconKernel
from .objectives import NBParams, ScoreKind
from .warp import EventPacket, MotionParams


# every flag of the CLI and its argparse keywords; each subcommand takes the
# flags of its entry in _COMMANDS, and argparse rejects any other with exit code 2
_FLAGS = {
    "--in": dict(dest="infile", default=None, help="input events file"),
    "--out": dict(default=None, help="output file"),
    "--truth": dict(default=None, help="truth file (read by estimate, written by synth)"),
    "--kernel": dict(choices=[k.value for k in BinningKernel], default="rect"),
    "--recon": dict(choices=[r.value for r in ReconKernel], default="linear"),
    "--grad": dict(choices=["naive", "fbp", "ste", "sigmoid"], default="fbp"),
    "--score": dict(choices=["var", "ll"], default="var"),
    "--model": dict(choices=["rot", "trans"], default="rot"),
    "--ne": dict(type=int, default=20000, help="events per packet"),
    "--width": dict(type=int, default=200),
    "--height": dict(type=int, default=150),
    "--delta": dict(type=float, default=0.01),
    "--scale": dict(type=float, help="coordinate scale; default fits the event bounding box into the grid"),
    "--offset-x": dict(type=float, default=0.0),
    "--offset-y": dict(type=float, default=0.0),
    "--r": dict(type=float, default=0.3, help="negative-binomial r"),
    "--p": dict(type=float, default=0.8, help="negative-binomial p"),
    "--fd-step": dict(type=float, default=1.0),
    "--grid-lo": dict(type=float, default=-5.0),
    "--grid-hi": dict(type=float, default=5.0),
    "--grid-n": dict(type=int, default=11),
    "--seed": dict(type=int, default=0),
}

_GRID_MAPPING = ("--width", "--height", "--delta", "--scale", "--offset-x", "--offset-y")
# the flags of _objective_setup, apart from --grad
_OBJECTIVE = ("--in", "--ne", "--kernel", "--recon", "--score", "--r", "--p", "--model", *_GRID_MAPPING)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="funcbin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=fn)
    return parser


def _grad_mode(args):
    if args.grad == "naive":
        return Naive()
    if args.grad == "fbp":
        return FBP(ReconKernel(args.recon))
    if args.grad == "ste":
        return STE()
    return Sigmoid()


def _all_modes(args):
    return [Naive(), FBP(ReconKernel(args.recon)), STE(), Sigmoid()]


def _zero_motion_frame(args, events) -> tuple[Frame, float]:
    """The events binned at zero motion on the flags' grid, and the scale s.

    The grid is in event coordinates: spacing ``delta / s``, origin ``offset / s``.
    s is ``--scale``, or else fits the event bounding box into the grid interior
    with a 5% margin. A mapping under which no event reaches the grid is refused.
    """
    # refuse bad flags before the auto-scale can cancel them (a negative delta gives a positive delta / s)
    FrameGrid(args.width, args.height, args.delta, (args.offset_x, args.offset_y))
    if args.scale is None:
        span_x = float(events.xs.max() - events.xs.min()) or 1.0
        span_y = float(events.ys.max() - events.ys.min()) or 1.0
        s = 0.9 * min(args.width * args.delta / span_x, args.height * args.delta / span_y)
    elif args.scale > 0 and math.isfinite(args.scale):
        s = args.scale
    else:
        raise FuncbinError(f"--scale must be positive and finite, got {args.scale}")
    grid = FrameGrid(args.width, args.height, args.delta / s, (args.offset_x / s, args.offset_y / s))
    pts = WeightedPoints(events.xs, events.ys, np.ones(len(events)))
    frame = bin_forward(pts, grid, BinningKernel(args.kernel))
    if not frame.values.sum() > 0.0:
        raise FuncbinError(
            f"no event reaches the {grid.width}x{grid.height} grid at zero motion under scale {s:.6g}; "
            "check --scale and --offset-x/-y"
        )
    return frame, s


def _require_infile(args):
    if args.infile is None:
        raise FuncbinError("missing required --in events file")
    events = read_events_txt(args.infile)
    if len(events) == 0:
        raise FuncbinError(f"no events in {args.infile}")
    return events


def _objective_setup(args, mode: GradMode) -> tuple[ObjectiveConfig, list[EventPacket], float]:
    """The objective under ``mode``, the packets of ``--ne`` events (at most all) of ``--in``, and the scale."""
    events = _require_infile(args)
    packets = packetize(events, min(args.ne, len(events)))
    frame, scale = _zero_motion_frame(args, events)
    cfg = ObjectiveConfig(
        kernel=BinningKernel(args.kernel),
        mode=mode,
        score=ScoreKind(args.score, NBParams(r=args.r, p=args.p)),
        grid=frame.grid,
        model=args.model,
    )
    return cfg, packets, scale


def _write_frame_csv(path, frame) -> None:
    # one line per grid row (v fixed), width columns
    with open(path, "w") as fh:
        for v in range(frame.grid.height):
            fh.write(",".join(repr(float(x)) for x in frame.values[:, v]) + "\n")


def cmd_bin(args) -> int:
    """Bin events into a frame at zero motion and write it as CSV."""
    events = _require_infile(args)
    frame, scale = _zero_motion_frame(args, events)
    out = args.out or "frame.csv"
    _write_frame_csv(out, frame)
    print(f"wrote {out}: {frame.grid.width}x{frame.grid.height} frame, mass {frame.values.sum():.6f}, scale {scale:.6g}")
    return 0


def cmd_grad(args) -> int:
    """Compare analytic gradients under every mode against finite differences."""
    modes = _all_modes(args)
    cfg, packets, _ = _objective_setup(args, modes[0])  # unused: the report asks each mode by name
    rng = np.random.default_rng(args.seed)
    thetas = [np.zeros(3)] + [rng.uniform(args.grid_lo, args.grid_hi, 3) for _ in range(4)]
    rep = bias_report(cfg, packets[0], np.array(thetas), modes, args.fd_step)
    report = [
        {"theta": list(th), "fd": list(rep.fd[i]), **{name: list(an[i]) for name, an in rep.analytic.items()}}
        for i, th in enumerate(rep.thetas)
    ]
    text = json.dumps({"fd_step": args.fd_step, "points": report}, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def cmd_bias(args) -> int:
    """Run the parameter-grid bias report over all gradient modes."""
    modes = _all_modes(args)
    cfg, packets, _ = _objective_setup(args, modes[0])  # unused: the report asks each mode by name
    report = bias_grid(cfg, packets[0], modes, args.grid_lo, args.grid_hi, args.grid_n, args.fd_step)
    out = args.out or "bias.csv"
    report.write_csv(out)
    report.write_json_summary(out + ".json")
    summary = report.summary()
    print(f"wrote {out} and {out}.json ({summary['n_evaluations']} evaluations)")
    for name, stats in summary["per_mode"].items():
        print(
            f"  {name}: mean |bias| {stats['mean_abs_bias']:.6g}, "
            f"sign agreement {stats['sign_agreement']:.3f}"
        )
    return 0


def cmd_estimate(args) -> int:
    """Estimate motion per packet with L-BFGS; report RMS against optional truth."""
    cfg, packets, scale = _objective_setup(args, _grad_mode(args))
    truths = read_truth_txt(args.truth) if args.truth else None
    per_packet = []
    estimates = []
    for i, packet in enumerate(packets):
        theta, trace = lbfgs_maximize(cfg, packet, np.zeros(3))
        estimates.append(theta)
        per_packet.append(
            {
                "packet": i,
                "theta": list(theta),
                "value": trace.values[-1],
                "iterations": len(trace.values) - 1,
                "converged": trace.converged,
                "reason": trace.reason,
                "f_evals": trace.f_evals,
                "g_evals": trace.g_evals,
                "line_search": [ls._asdict() for ls in trace.line_searches],
            }
        )
    result = {
        "config": {
            "kernel": args.kernel,
            "grad": args.grad,
            "recon": args.recon,
            "score": args.score,
            "model": args.model,
            "ne": len(packets[0]),
            "grid": [args.width, args.height, args.delta],
            "scale": scale,
        },
        "n_packets": len(packets),
        "per_packet": per_packet,
    }
    if truths is not None:
        n = min(len(truths), len(estimates))
        result["rms"] = rms_error(estimates[:n], truths[:n], to_degrees=(args.model == "rot"))
        result["rms_unit"] = "deg/s" if args.model == "rot" else "units/s"
    text = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    for row in per_packet:
        th = ", ".join(f"{v:.6f}" for v in row["theta"])
        print(f"packet {row['packet']}: theta = [{th}] ({row['reason']})")
    if "rms" in result:
        print(f"rms = {result['rms']:.6f} {result['rms_unit']}")
    return 0


def cmd_precision(args) -> int:
    """Print the integration-by-parts residual table for the kernel pair."""
    rows = degree_of_precision(BinningKernel(args.kernel), ReconKernel(args.recon))
    print(f"kernel {args.kernel}, recon {args.recon}")
    print("n    lhs            rhs            residual")
    for n, lhs, rhs, res in rows:
        print(f"{n}    {lhs: .8e}  {rhs: .8e}  {res:.3e}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("n,lhs,rhs,residual\n")
            for n, lhs, rhs, res in rows:
                fh.write(f"{n},{float(lhs)!r},{float(rhs)!r},{float(res)!r}\n")
        print(f"wrote {args.out}")
    return 0


def cmd_synth(args) -> int:
    """Write a synthetic event stream and its ground-truth motion file."""
    if args.ne < 1:
        raise FuncbinError(f"--ne must be >= 1, got {args.ne}")
    motion = MotionParams(args.model, (0.5, -0.3, 0.8))
    scene = SyntheticScene(seed=args.seed, motion=motion)
    events, truth = synth_events(scene)
    out = args.out or "events.txt"
    write_events_txt(out, events)
    n_packets = max(1, len(events) // min(args.ne, len(events)))
    truth_path = args.truth or out + ".truth"
    write_truth_txt(truth_path, [truth] * n_packets)
    print(f"wrote {out} ({len(events)} events) and {truth_path}")
    return 0


_COMMANDS = {
    "bin": (cmd_bin, ("--in", "--out", "--kernel", *_GRID_MAPPING)),
    "grad": (cmd_grad, (*_OBJECTIVE, "--seed", "--grid-lo", "--grid-hi", "--fd-step", "--out")),
    "bias": (cmd_bias, (*_OBJECTIVE, "--grid-lo", "--grid-hi", "--grid-n", "--fd-step", "--out")),
    "estimate": (cmd_estimate, (*_OBJECTIVE, "--grad", "--truth", "--out")),
    "precision": (cmd_precision, ("--kernel", "--recon", "--out")),
    "synth": (cmd_synth, ("--seed", "--model", "--ne", "--out", "--truth")),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FuncbinError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
