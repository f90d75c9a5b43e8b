"""Event file parsing, packetization, and synthetic scene generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    EventColumns,
    SyntheticScene,
    packet_from_scene,
    packetize,
    read_events_txt,
    read_truth_txt,
    synth_columns,
    synth_events,
    write_events_txt,
    write_truth_txt,
)
from funcbin.warp import EventPacket, reference_time


def _columns(events) -> EventColumns:
    """Event rows as columns, built the way the per-event reader built its packets."""
    return EventColumns(
        np.array([e.t for e in events], dtype=float),
        np.array([e.x for e in events], dtype=float),
        np.array([e.y for e in events], dtype=float),
        np.array([e.polarity for e in events], dtype=int),
    )


def test_read_basic_line(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0.003811000 96 133 0\n")
    evs = read_events_txt(p)
    assert len(evs) == 1
    assert evs.ts[0] == pytest.approx(0.003811)
    assert evs.xs[0] == 96.0
    assert evs.ys[0] == 133.0
    assert evs.ps[0] == -1


def test_read_returns_contiguous_columns(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0.1 1.5 2.5 1\n0.2 3 4 0\n")
    evs = read_events_txt(p)
    for col in (evs.ts, evs.xs, evs.ys):
        assert col.dtype == np.float64 and col.flags.c_contiguous
    assert evs.ps.dtype == np.int64
    assert evs.ps.tolist() == [1, -1]


def test_read_skips_blank_and_comments(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("# header\n\n   \t \n  # indented comment\n0.1 1.5 2.5 1\n")
    evs = read_events_txt(p)
    assert len(evs) == 1
    assert evs.ps[0] == 1


def test_read_empty_file(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("")
    evs = read_events_txt(p)
    assert len(evs) == 0
    assert all(len(col) == 0 for col in (evs.ts, evs.xs, evs.ys, evs.ps))


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


@pytest.mark.parametrize(
    "bad,message",
    [
        ("0.3 1 2", "expected 4 fields, got 3"),
        ("0.3 1 2 1 5", "expected 4 fields, got 5"),
        ("0.3 one 2 1", "could not convert string to float: 'one'"),
        ("0.3 1 2 7", "polarity field must be 0 or 1, got 7"),
        ("0.3 1 2 1.0", "invalid literal for int() with base 10: '1.0'"),
        ("nan 1 2 1", "timestamp must be finite"),
    ],
)
def test_malformed_line_reports_its_line_number(tmp_path, bad, message):
    """Comment and blank lines count towards the line number but are not parsed."""
    p = tmp_path / "e.txt"
    p.write_text(f"# t x y p\n0.1 1 2 1\n\n   \n0.2 1 2 0\n{bad}\n0.4 1 2 1\n")
    with pytest.raises(ParseError) as exc:
        read_events_txt(p)
    assert exc.value.lineno == 6
    assert str(exc.value) == f"{p}:6: {message}"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_field = st.one_of(
    _finite.map(repr),
    _finite.map(lambda v: f"{v:.9f}"),
    _finite.map(lambda v: f"{v:e}"),
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 10**6).map(lambda v: f"+{v}.5"),
)
_line = st.one_of(
    st.tuples(_field, _field, _field, st.sampled_from(["0", "1", "+1", "00"]), st.sampled_from([" ", "\t", "  "])).map(
        lambda r: r[4].join(r[:4])
    ),
    st.sampled_from(["", "   ", "# a comment", "  #0 1 2 3"]),
)


@settings(max_examples=60, deadline=None)
@given(lines=st.lists(_line, max_size=40))
def test_parse_matches_per_line_float_oracle(tmp_path_factory, lines):
    """The columns carry the bits of float()/int() on each field of each event line, in file order."""
    p = tmp_path_factory.mktemp("parse") / "e.txt"
    p.write_text("".join(line + "\n" for line in lines))
    rows = [line.split() for line in lines if line.strip() and not line.strip().startswith("#")]
    evs = read_events_txt(p)
    want = [np.array([float(r[i]) for r in rows], dtype=np.float64) for i in range(3)]
    for got, ref in zip((evs.ts, evs.xs, evs.ys), want):
        assert got.tobytes() == ref.tobytes()
    assert evs.ps.tolist() == [-1 if int(r[3]) == 0 else 1 for r in rows]


def test_nonmonotonic_warns_but_parses(tmp_path, caplog):
    p = tmp_path / "e.txt"
    p.write_text("0.5 1 1 1\n0.1 2 2 0\n0.05 2 2 0\n")
    with caplog.at_level("WARNING"):
        evs = read_events_txt(p)
    assert len(evs) == 3
    warnings = [r.message for r in caplog.records if "non-monotonic" in r.message]
    assert warnings == [f"{p}:2: non-monotonic timestamp 0.1"]


def test_roundtrip_exact(tmp_path):
    events, _ = synth_events(SyntheticScene(seed=4, n_points=5, events_per_point=4))
    p = tmp_path / "e.txt"
    write_events_txt(p, events)
    back = read_events_txt(p)
    assert len(back) == len(events)
    for a, t, x, y, pol in zip(events, back.ts, back.xs, back.ys, back.ps):
        assert abs(a.t - t) < 1e-9
        assert a.x == x  # coordinates serialize at full precision
        assert a.y == y
        assert a.polarity == pol


def test_truth_roundtrip(tmp_path):
    p = tmp_path / "t.txt"
    truths = [MotionParams("rot", (0.5, -0.3, 0.8)), MotionParams("rot", (1, 2, 3))]
    write_truth_txt(p, truths)
    back = read_truth_txt(p)
    assert len(back) == 2
    np.testing.assert_allclose(back[0], [0.5, -0.3, 0.8])


@pytest.mark.parametrize(
    "text,lineno",
    [("0 1 2 3\n2 1 2 3\n", 2), ("1 1 2 3\n", 1), ("# header\n0 1 2 3\n\n0 4 5 6\n", 4)],
)
def test_truth_index_must_count_packets(tmp_path, text, lineno):
    p = tmp_path / "t.txt"
    p.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_truth_txt(p)
    assert exc.value.lineno == lineno
    assert "packet index" in str(exc.value)


def test_packetize_drops_remainder():
    events, _ = synth_columns(SyntheticScene(seed=0, n_points=9, events_per_point=5))  # 45 events
    packets = packetize(events, 20)
    assert len(packets) == 2
    assert all(len(p) == 20 for p in packets)


def test_packetize_single_event_packets():
    events, _ = synth_columns(SyntheticScene(seed=0, n_points=2, events_per_point=3))
    packets = packetize(events, 1)
    assert len(packets) == 6


def test_packetize_validates_ne():
    empty = EventColumns(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        packetize(empty, 0)


@pytest.mark.parametrize("policy", ["mean", "midpoint", "first", "last"])
def test_packets_are_slices_of_the_columns(policy):
    """Each packet holds its events' values and the reference time of its own events, bit for bit."""
    events, _ = synth_events(SyntheticScene(seed=2, n_points=13, events_per_point=7, noise_std=0.01))
    cols = _columns(events)
    packets = packetize(cols, 25, policy)
    assert len(packets) == len(events) // 25
    for i, p in enumerate(packets):
        rows = events[25 * i : 25 * (i + 1)]
        for got, name in ((p.ts, "t"), (p.xs, "x"), (p.ys, "y"), (p.ps, "polarity")):
            assert got.tobytes() == np.array([getattr(e, name) for e in rows], dtype=got.dtype).tobytes()
        assert p.t_ref == reference_time(np.array([e.t for e in rows]), policy)


@pytest.mark.parametrize("motion", ["rot", "trans"])
@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_synth_events_are_the_rows_of_synth_columns(motion, noise):
    scene = SyntheticScene(seed=8, n_points=11, events_per_point=6, noise_std=noise, motion=MotionParams(motion, (0.5, -0.3, 0.8)))
    events, truth = synth_events(scene)
    cols, truth_c = synth_columns(scene)
    assert truth == truth_c
    got = _columns(events)
    for a, b in zip((got.ts, got.xs, got.ys, got.ps), (cols.ts, cols.xs, cols.ys, cols.ps)):
        assert a.tobytes() == b.tobytes()
    assert np.all(np.diff(cols.ts) >= 0)


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
