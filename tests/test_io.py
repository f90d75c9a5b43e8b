"""Event file parsing, packetization, and synthetic scene generation."""

import numpy as np
import pytest

from funcbin import (
    FBP,
    BinningKernel,
    FrameGrid,
    MotionParams,
    ObjectiveConfig,
    ReconKernel,
    ScoreKind,
    objective_value,
    warp,
)
from funcbin.errors import ParseError
from funcbin.events_io import (
    SyntheticScene,
    packet_from_scene,
    packetize,
    read_events_txt,
    read_truth_txt,
    synth_events,
    write_events_txt,
    write_truth_txt,
)
from funcbin.warp import EventPacket


def test_read_basic_line(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0.003811000 96 133 0\n")
    evs = read_events_txt(p)
    assert len(evs) == 1
    assert evs[0].t == pytest.approx(0.003811)
    assert evs[0].x == 96.0
    assert evs[0].y == 133.0
    assert evs[0].polarity == -1


def test_read_skips_blank_and_comments(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("# header\n\n0.1 1.5 2.5 1\n")
    evs = read_events_txt(p)
    assert len(evs) == 1
    assert evs[0].polarity == 1


def test_read_empty_file(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("")
    assert read_events_txt(p) == []


def test_parse_error_carries_line_number(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0.1 1 2 1\nabc\n")
    with pytest.raises(ParseError) as exc:
        read_events_txt(p)
    assert exc.value.lineno == 2


def test_parse_rejects_bad_polarity(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0.1 1 2 7\n")
    with pytest.raises(ParseError):
        read_events_txt(p)


def test_nonmonotonic_warns_but_parses(tmp_path, caplog):
    p = tmp_path / "e.txt"
    p.write_text("0.5 1 1 1\n0.1 2 2 0\n")
    with caplog.at_level("WARNING"):
        evs = read_events_txt(p)
    assert len(evs) == 2
    assert any("non-monotonic" in r.message for r in caplog.records)


def test_roundtrip_exact(tmp_path):
    events, _ = synth_events(SyntheticScene(seed=4, n_points=5, events_per_point=4))
    p = tmp_path / "e.txt"
    write_events_txt(p, events)
    back = read_events_txt(p)
    assert len(back) == len(events)
    for a, b in zip(events, back):
        assert abs(a.t - b.t) < 1e-9
        assert a.x == b.x  # coordinates serialize at full precision
        assert a.y == b.y
        assert a.polarity == b.polarity


def test_truth_roundtrip(tmp_path):
    p = tmp_path / "t.txt"
    truths = [MotionParams("rot", (0.5, -0.3, 0.8)), MotionParams("rot", (1, 2, 3))]
    write_truth_txt(p, truths)
    back = read_truth_txt(p)
    assert len(back) == 2
    np.testing.assert_allclose(back[0], [0.5, -0.3, 0.8])


def test_packetize_drops_remainder():
    events, _ = synth_events(SyntheticScene(seed=0, n_points=9, events_per_point=5))  # 45 events
    packets = packetize(events, 20)
    assert len(packets) == 2
    assert all(len(p) == 20 for p in packets)


def test_packetize_single_event_packets():
    events, _ = synth_events(SyntheticScene(seed=0, n_points=2, events_per_point=3))
    packets = packetize(events, 1)
    assert len(packets) == 6


def test_packetize_validates_ne():
    with pytest.raises(ValueError):
        packetize([], 0)


def test_synth_deterministic():
    a, _ = synth_events(SyntheticScene(seed=123))
    b, _ = synth_events(SyntheticScene(seed=123))
    assert a == b


def test_synth_noiseless_collapse():
    """Warping with the planted truth re-collapses each feature exactly."""
    scene = SyntheticScene(seed=6, n_points=8, events_per_point=12, noise_std=0.0)
    pkt, truth = packet_from_scene(scene)
    res = warp(pkt, truth.model, np.array(truth.vec))
    # events cluster into n_points locations; nearest-feature spread is ~0
    pts = np.stack([res.points.xs, res.points.ys], axis=1)
    rounded = np.round(pts, 6)
    uniq = np.unique(rounded, axis=0)
    assert len(uniq) == scene.n_points


def test_synth_translational_collapse():
    """The translational warp with the planted velocity, vz included, maps events onto their features."""
    scene = SyntheticScene(seed=6, n_points=8, events_per_point=12, motion=MotionParams("trans", (0.5, -0.3, 0.8)))
    pkt, truth = packet_from_scene(scene)
    res = warp(pkt, "trans", np.array(truth.vec))
    pts = np.stack([res.points.xs, res.points.ys], axis=1)
    feats = np.unique(np.round(pts, 9), axis=0)
    assert len(feats) == scene.n_points
    nearest = np.min(np.linalg.norm(pts[:, None, :] - feats[None, :, :], axis=2), axis=1)
    assert nearest.max() < 1e-9


@pytest.mark.parametrize("seed", range(20))
def test_sharpness_at_truth(seed):
    scene = SyntheticScene(seed=seed, n_points=15, events_per_point=8)
    pkt, truth = packet_from_scene(scene)
    cfg = ObjectiveConfig(
        BinningKernel.RECT, FBP(ReconKernel.LINEAR), ScoreKind("var"), FrameGrid(200, 150, 0.01)
    )
    t = np.array(truth.vec)
    assert objective_value(cfg, pkt, t) > objective_value(cfg, pkt, t + np.array([0.5, 0, 0]))


def test_packet_from_scene_mean_tref():
    pkt, _ = packet_from_scene(SyntheticScene(seed=1, n_points=4, events_per_point=6))
    assert isinstance(pkt, EventPacket)
    assert pkt.t_ref == pytest.approx(float(np.mean(pkt.ts)))
