"""Solve every candidate scene of the solver workloads at its packet slot.

Prints one line per candidate and, per workload, the candidates on which
L-BFGS ends more than 2% from the planted motion. Those are the workload's
``stops_early``. Run from the root of the repository:

    python3 bench/check_pools.py ego-rect ego-dense-cubic
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
import workloads


def main(names) -> int:
    fb = run.import_funcbin()
    L = workloads.Layers(fb)
    for name in names:
        cls = workloads.WORKLOADS[name]
        stops = []
        for m in range(workloads.CANDIDATES_PER_SLOT):
            seeds = [cls.slot_candidates(i)[m] for i in range(cls.n_packets)]

            class Candidates(cls):
                def scene_seeds(self, rng):
                    return seeds

            (run.HERE / "work").mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.HERE / "work") as workdir:
                wl = Candidates(fb, 0, Path(workdir))
                wl.setup(L)
                rnd = wl.round(L)
            for s, op in zip(seeds, rnd.ops):
                if op.out is None:
                    stops.append(s)
                    continue
                theta, trace = op.out
                err = np.linalg.norm(theta - wl.truth) / np.linalg.norm(wl.truth)
                print(f"{name} scene {s}: {err:.3e} from planted, {len(trace.values) - 1} iterations, {trace.reason}")
                if checks.planted(theta, wl.truth):
                    stops.append(s)
        print(f"{name} stops_early = {tuple(stops)} (listed: {cls.stops_early})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(run.WORKLOAD_NAMES[:2])))
