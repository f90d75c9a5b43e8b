"""Each output check passes the program's real output and rejects a corrupted copy.

Run from the root of the repository: ``python3 -m pytest -q bench``.
"""

import dataclasses
import json

import numpy as np
import pytest

import checks
import run
import workloads

fb = run.import_funcbin()
GRID = fb.FrameGrid(*workloads.GRID)
CFG = fb.ObjectiveConfig(
    kernel=fb.BinningKernel.RECT, mode=fb.FBP(fb.ReconKernel.LINEAR), score=fb.ScoreKind("var"), grid=GRID
)
TRUTH = np.array(workloads.PLANTED)


@pytest.fixture(scope="module")
def packet():
    return fb.packet_from_scene(fb.SyntheticScene(seed=5))[0]


def test_planted_rejects_theta_moved_5_percent(packet):
    theta, trace = fb.lbfgs_maximize(CFG, packet, np.zeros(3))
    assert checks.planted(theta, TRUTH) == []
    assert checks.nondecreasing(trace.values) == []
    assert checks.planted(1.05 * theta, TRUTH)
    assert checks.nondecreasing(trace.values[:-1] + [trace.values[-2] - 1e-9])


def test_frame_checks_reject_one_count_moved_to_another_bin(packet):
    res = fb.warp(packet, "rot", TRUTH)
    xs, ys = res.points.xs, res.points.ys
    frame = fb.bin_forward(res.points, GRID, fb.BinningKernel.RECT).values
    ref = checks.histogram_frame(xs, ys, GRID.shape, GRID.delta)
    assert checks.frame_equals(frame, ref) == []
    assert checks.frame_sum(frame, xs, ys, GRID.delta) == []
    assert checks.value_matches(float(np.var(frame)), ref) == []

    moved = frame.copy()
    u, v = np.argwhere(moved > 0)[0]
    moved[u, v] -= 1.0
    moved[(u + 7) % GRID.width, (v + 3) % GRID.height] += 1.0
    assert checks.frame_equals(moved, ref)
    assert checks.value_matches(float(np.var(moved)), ref)
    # the move keeps the mass, so only the bin-by-bin checks can see it
    assert checks.frame_sum(moved, xs, ys, GRID.delta) == []
    dropped = frame.copy()
    dropped[u, v] -= 1.0
    assert checks.frame_sum(dropped, xs, ys, GRID.delta)


def test_warp_check_rejects_a_moved_coordinate(packet):
    res = fb.warp(packet, "rot", TRUTH)
    wx, _ = checks.rotate(packet.ts, packet.xs, packet.ys, packet.t_ref, TRUTH)
    assert checks.close(res.points.xs, wx, checks.WARP_ATOL, "x") == []
    bad = res.points.xs.copy()
    bad[17] += 1e-9
    assert checks.close(bad, wx, checks.WARP_ATOL, "x")


def test_columns_reject_one_flipped_polarity(tmp_path):
    events, _ = fb.synth_events(fb.SyntheticScene(seed=2))
    path = tmp_path / "events.txt"
    fb.write_events_txt(path, events)
    (p,) = fb.packetize(fb.read_events_txt(path), len(events))
    expected = tuple(np.array([getattr(e, a) for e in events]) for a in ("t", "x", "y", "polarity"))
    parsed = (p.ts, p.xs, p.ys, p.ps)
    assert checks.columns(parsed, expected) == []
    flipped = p.ps.copy()
    flipped[100] = -flipped[100]
    assert checks.columns((p.ts, p.xs, p.ys, flipped), expected)


@pytest.mark.parametrize("mode", [fb.FBP(fb.ReconKernel.LINEAR), fb.STE(), fb.Sigmoid()])
def test_identity_rejects_one_perturbed_gradient_component(packet, mode):
    cfg = dataclasses.replace(CFG, mode=mode)
    theta = np.array([0.3, -0.1, 0.6])
    grad = fb.objective_grad(cfg, packet, theta)
    directional = workloads.jvp_directional(workloads.Layers(fb), cfg, packet, theta)
    assert checks.gradient_identity(grad, directional) == []
    bad = grad.copy()
    bad[1] *= 1.0 + 1e-6
    assert checks.gradient_identity(bad, directional)


def test_naive_and_fd_checks_reject_a_perturbed_component(packet):
    theta = np.array([1.0, -2.0, 0.5])
    naive = fb.objective_grad(dataclasses.replace(CFG, mode=fb.Naive()), packet, theta)
    assert checks.all_zero(naive, "naive") == []
    assert checks.all_zero(naive + np.array([0.0, 1e-300, 0.0]), "naive")

    fd = fb.fd_gradient(lambda th: fb.objective_value(CFG, packet, th), theta, 1.0)
    ref = checks.histogram_fd(packet.ts, packet.xs, packet.ys, packet.t_ref, theta, 1.0, GRID.shape, GRID.delta)
    assert checks.fd_matches(fd, ref) == []
    bad = fd.copy()
    bad[2] *= 1.0 + 1e-9
    assert checks.fd_matches(bad, ref)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {k: unit for k, (unit, _, _) in run.PER_LAYER.items()}
    per_layer[run.TRACE_OVERHEAD[0]] = run.TRACE_OVERHEAD[1]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
