"""Benchmark of the funcbin pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload ego-rect --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md). ``--workload all`` runs every workload, each in its
own process. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# BENCHMARK.json gates the first two; see README.md for why the others are run by hand.
WORKLOAD_NAMES = ["ego-rect", "ego-dense-cubic", "bias-sweep", "ingest-frames"]

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def _self_time(t, attrs):
    return t


def _per_tap(t, attrs):
    return 1e9 * t / attrs["taps"]


# metric -> (unit, span name, value of one span from its self time and attributes);
# each metric is the median of that value over the run's spans of that name.
PER_LAYER = {
    "kernels.table_build_s": ("s", "kernels.table_build", _self_time),
    "kernels.kappa_prime_s": ("s", "kernels.kappa_prime", _self_time),
    "warp.warp_s": ("s", "warp.warp", _self_time),
    "binning.bin_forward_s": ("s", "binning.bin_forward", _self_time),
    "binning.forward_ns_per_tap": ("ns", "binning.bin_forward", _per_tap),
    "binning.bin_vjp_s": ("s", "binning.bin_vjp", _self_time),
    "binning.vjp_ns_per_tap": ("ns", "binning.bin_vjp", _per_tap),
    "binning.bin_jvp_s": ("s", "binning.bin_jvp", _self_time),
    "objectives.score_adjoint_s": ("s", "objectives.score_adjoint", _self_time),
    "estimator.objective_value_s": ("s", "estimator.objective_value", _self_time),
    "estimator.objective_grad_s": ("s", "estimator.objective_grad", _self_time),
    "estimator.lbfgs_iterations": ("count", "estimator.lbfgs_maximize", lambda t, a: a["iterations"]),
    "analysis.fd_gradient_s": ("s", "analysis.fd_gradient", _self_time),
    "events_io.read_events_txt_s": ("s", "events_io.read_events_txt", _self_time),
    "events_io.packetize_s": ("s", "events_io.packetize", _self_time),
    "events_io.synth_events_s": ("s", "events_io.synth_events", _self_time),
    "events_io.write_events_txt_s": ("s", "events_io.write_events_txt", _self_time),
}
TRACE_OVERHEAD = ("trace.overhead_s", "s")


def process_age() -> float:
    """Seconds since this process started (the kernel's start time has 10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")


def import_funcbin():
    """Import funcbin from this checkout's ``src``, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import funcbin
    except ImportError as exc:
        sys.exit(f"cannot import funcbin from {ROOT / 'src'}: {exc}")
    if not Path(funcbin.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"funcbin was imported from {funcbin.__file__}, not from {ROOT / 'src'}")
    return funcbin


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="measured time; rounds repeat until it is reached")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def layer_metrics(tracer, plain_walls, traced_walls) -> dict:
    spans = tracer.by_name()
    out = {}
    for metric, (unit, name, value) in PER_LAYER.items():
        if name not in spans:
            raise RuntimeError(f"no {name} span for {metric}")
        out[metric] = (statistics.median(value(t, a) for t, a in spans[name]), unit)
    name, unit = TRACE_OVERHEAD
    out[name] = (statistics.median(traced_walls) - statistics.median(plain_walls), unit)
    return out


def run_workload(args) -> int:
    fb = import_funcbin()
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    plain = workloads.Layers(fb)
    traced = workloads.Layers(fb, tracer) if tracer else plain
    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        wl = workloads.WORKLOADS[args.workload](fb, args.seed, Path(workdir))
        wl.setup(traced)
        setup_s = process_age()

        # Rounds repeat until --seconds of rounds are measured. A traced run
        # alternates plain and traced rounds so that both walls are known.
        plain_walls, traced_walls, op_walls = [], [], []
        attempted, failed, problems = 0, [], []
        while True:
            traced_round = tracer is not None and len(plain_walls) > len(traced_walls)
            t0 = time.perf_counter()
            rnd = wl.round(traced if traced_round else plain)
            wall = time.perf_counter() - t0
            (traced_walls if traced_round else plain_walls).append(wall)
            op_walls += [op.wall for op in rnd.ops]
            attempted += len(rnd.ops)
            f, p = wl.check(rnd, traced)
            failed += f
            problems += p
            if traced_round and len(traced_walls) == 1:
                with tracer.span("replay"):
                    wl.replay(rnd, traced, budget_s=args.seconds / 2)
            if sum(plain_walls) + sum(traced_walls) >= args.seconds and (tracer is None or traced_walls):
                break
        if tracer:
            with tracer.span("probe"):
                wl.probe(traced, rnd.packets[0])

    if tracer:
        metrics = layer_metrics(tracer, plain_walls, traced_walls)
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(plain_walls),
            "op_s": statistics.median(op_walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for line in failed + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(results / f"{stem}.json", "w") as fh:
        walls = {"plain_round_walls": plain_walls, "traced_round_walls": traced_walls, "op_walls": op_walls}
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, **result, **walls}, fh, indent=2)
        fh.write("\n")
    if tracer:
        tracer.write(results / f"spans-{args.workload}-seed{args.seed}.json", workload=args.workload, seed=args.seed)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that each set-up is cold."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        status |= 0 if res["correct"] and res["failed"] == 0 else 1
        rows.append((name, res))
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({name: res for name, res in rows}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
