"""End-to-end command-line interface checks."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from funcbin import (
    FBP,
    BinningKernel,
    FrameGrid,
    Naive,
    ReconKernel,
    STE,
    Sigmoid,
    WeightedPoints,
    bin_forward,
    objective_grad,
    read_events_txt,
)
from funcbin.cli import _objective_setup, _write_frame_csv, build_parser, main


@pytest.fixture(scope="module")
def events_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    path = d / "events.txt"
    rc = main(["synth", "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


def test_synth_writes_events_and_truth(events_file):
    assert events_file.exists()
    assert events_file.parent.joinpath(events_file.name + ".truth").exists()
    lines = events_file.read_text().strip().splitlines()
    assert len(lines) == 1800
    t, x, y, p = lines[0].split()
    assert p in ("0", "1")
    float(t), float(x), float(y)


def test_bin_writes_frame_csv(events_file, tmp_path):
    out = tmp_path / "frame.csv"
    rc = main(["bin", "--in", str(events_file), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 150
    assert len(rows[0].split(",")) == 200


def test_estimate_recovers_truth(events_file, tmp_path, capsys):
    out = tmp_path / "est.json"
    rc = main(
        [
            "estimate", "--in", str(events_file), "--ne", "1800",
            "--grad", "fbp", "--kernel", "rect", "--score", "var",
            "--truth", str(events_file) + ".truth", "--out", str(out),
        ]
    )
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["n_packets"] == 1
    truth = np.array([0.5, -0.3, 0.8])
    est = np.array(result["per_packet"][0]["theta"])
    assert np.linalg.norm(est - truth) < 0.02 * np.linalg.norm(truth)
    assert result["rms_unit"] == "deg/s"


def test_estimate_default_ne_fits_short_stream(events_file, tmp_path):
    """Without --ne, estimate on the 1,800-event synth stream solves it as one packet."""
    out = tmp_path / "est.json"
    rc = main(["estimate", "--in", str(events_file), "--truth", str(events_file) + ".truth", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    assert result["n_packets"] == 1
    assert result["config"]["ne"] == 1800
    row = result["per_packet"][0]
    # real evaluations: every iterate is a warp and a gradient, plus the line searches' trials
    assert row["f_evals"] >= row["g_evals"] >= row["iterations"] + 1
    searches = row["line_search"]
    assert len(searches) == row["iterations"] + (row["reason"] in ("line_search_failure", "stall"))
    assert set(searches[0]) == {"outcome", "alpha", "f_calls", "restart"}
    assert all(ls["outcome"] in ("wolfe", "armijo", "stall", "failure") for ls in searches)
    assert result["rms"] < 0.02 * np.degrees(np.linalg.norm([0.5, -0.3, 0.8]))


def test_trans_synth_estimate_recovers_truth(tmp_path):
    path = tmp_path / "trans.txt"
    assert main(["synth", "--model", "trans", "--seed", "3", "--out", str(path)]) == 0
    out = tmp_path / "est.json"
    rc = main(["estimate", "--in", str(path), "--model", "trans", "--truth", str(path) + ".truth", "--out", str(out)])
    assert rc == 0
    result = json.loads(out.read_text())
    truth = np.array([0.5, -0.3, 0.8])
    est = np.array(result["per_packet"][0]["theta"])
    assert np.linalg.norm(est - truth) < 0.02 * np.linalg.norm(truth)
    assert result["rms_unit"] == "units/s"


def test_precision_table(capsys):
    rc = main(["precision", "--kernel", "rect", "--recon", "linear"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "residual" in out
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 4  # degrees 0..3
    assert "5.000e-01" in lines[3]


def test_bias_outputs(events_file, tmp_path, capsys):
    out = tmp_path / "bias.csv"
    rc = main(
        ["bias", "--in", str(events_file), "--ne", "1800", "--grid-n", "2", "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()
    summary = json.loads((tmp_path / "bias.csv.json").read_text())
    assert summary["n_evaluations"] == 8
    assert "fbp-linear" in summary["per_mode"]


def test_grad_report(events_file, tmp_path):
    out = tmp_path / "grad.json"
    argv = ["grad", "--in", str(events_file), "--ne", "1800", "--out", str(out)]
    rc = main(argv)
    assert rc == 0
    rep = json.loads(out.read_text())
    assert len(rep["points"]) == 5
    assert "fd" in rep["points"][0]
    # naive + rect: analytic gradient is identically zero
    np.testing.assert_allclose(rep["points"][1]["naive"], 0.0, atol=1e-12)
    # every rule's gradient has the bits of its own objective_grad call
    args = build_parser().parse_args(argv)
    cfg, packets, _ = _objective_setup(args, Naive())
    modes = {"naive": Naive(), "fbp-linear": FBP(ReconKernel.LINEAR), "ste": STE(), "sigmoid": Sigmoid()}
    for point in rep["points"]:
        theta = np.array(point["theta"])
        assert set(point) == {"theta", "fd", *modes}
        for name, mode in modes.items():
            assert point[name] == objective_grad(replace(cfg, mode=mode), packets[0], theta).tolist()


@pytest.mark.parametrize("command", ["grad", "bias", "estimate"])
def test_zero_ne_is_runtime_error(events_file, tmp_path, capsys, command):
    rc = main([command, "--in", str(events_file), "--ne", "0", "--out", str(tmp_path / "out")])
    assert rc == 1
    parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert parsed["message"] == "n_e must be >= 1, got 0"


@pytest.mark.parametrize("ne", ["0", "-5"])
def test_synth_rejects_nonpositive_ne(tmp_path, capsys, ne):
    """--ne below 1 is refused before any file is written."""
    out = tmp_path / "events.txt"
    assert main(["synth", "--ne", ne, "--out", str(out)]) == 1
    parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert parsed["message"] == f"--ne must be >= 1, got {ne}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["bin", "estimate"])
@pytest.mark.parametrize("scale", ["0", "-2", "nan", "inf"])
def test_bad_scale_is_runtime_error(events_file, tmp_path, capsys, command, scale):
    """A scale that is not positive and finite is refused before anything is binned or solved."""
    out = tmp_path / "out"
    assert main([command, "--in", str(events_file), "--scale", scale, "--out", str(out)]) == 1
    parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert parsed["message"] == f"--scale must be positive and finite, got {float(scale)}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["bin", "estimate"])
@pytest.mark.parametrize("flags", [["--scale", "1000"], ["--offset-x", "100"]], ids=["scale", "offset"])
def test_mapping_with_no_event_on_the_grid_is_runtime_error(events_file, tmp_path, capsys, command, flags):
    """A mapping that puts every event off the grid is refused, not binned into an empty frame or solved to 0."""
    out = tmp_path / "out"
    assert main([command, "--in", str(events_file), *flags, "--out", str(out)]) == 1
    parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert parsed["error"] == "FuncbinError"
    assert "--scale" in parsed["message"] and "--offset-x/-y" in parsed["message"]
    assert not out.exists()


@pytest.mark.parametrize("kernel, reaches", [("rect", False), ("linear", True), ("gauss", True)])
def test_event_off_the_grid_counts_when_its_kernel_reaches_it(tmp_path, capsys, kernel, reaches):
    """An event 0.9 bins left of the grid puts mass into bin 0 under a kernel of support
    above 0.9 (linear 1, gauss 1.5), so only the rect kernel refuses the mapping."""
    path = tmp_path / "events.txt"
    path.write_text("0.0 0.0 0.5 1\n0.1 0.5 0.5 1\n0.2 1.0 0.5 1\n")
    out = tmp_path / "frame.csv"
    argv = ["bin", "--in", str(path), "--kernel", kernel, "--scale", "1", "--offset-x", "1.009", "--out", str(out)]
    assert main(argv) == (0 if reaches else 1)
    if reaches:
        assert np.loadtxt(out, delimiter=",")[:, 0].sum() > 0.0
    else:
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "FuncbinError"
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--delta", "--offset-x"])
def test_nonfinite_grid_flag_is_invalid_grid(events_file, tmp_path, capsys, flag):
    out = tmp_path / "frame.csv"
    assert main(["bin", "--in", str(events_file), flag, "nan", "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "InvalidGridError"
    assert not out.exists()


def test_bin_divides_spacing_and_origin_by_the_scale(tmp_path):
    """``bin --scale s --offset-x o`` bins the events on the grid (delta / s, o / s): the frame of
    the s-scaled events on the grid (delta, o), to the bit for s = 4."""
    rng = np.random.default_rng(0)
    path = tmp_path / "events.txt"
    xs, ys = rng.uniform(0.0, 0.5, 500), rng.uniform(0.0, 0.37, 500)
    path.write_text("".join(f"{i * 1e-4!r} {float(x)!r} {float(y)!r} 1\n" for i, (x, y) in enumerate(zip(xs, ys))))
    out = tmp_path / "frame.csv"
    assert main(["bin", "--in", str(path), "--scale", "4", "--offset-x", "0.03", "--out", str(out)]) == 0
    events = read_events_txt(path)
    pts = WeightedPoints(4.0 * events.xs, 4.0 * events.ys, np.ones(len(events)))
    frame = bin_forward(pts, FrameGrid(200, 150, 0.01, (0.03, 0.0)), BinningKernel.RECT)
    assert frame.values.sum() > 400
    _write_frame_csv(tmp_path / "expected.csv", frame)
    assert out.read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_nonfinite_coordinate_names_its_line(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("0.1 1.0 1.0 1\n0.2 nan 1.0 0\n0.3 1.0 1.0 1\n")
    assert main(["estimate", "--in", str(path), "--ne", "3", "--scale", "1"]) == 1
    parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert parsed["error"] == "ParseError"
    assert parsed["message"] == f"{path}:2: x must be finite"


def test_missing_input_is_runtime_error(capsys):
    rc = main(["estimate", "--in", "/nonexistent/events.txt"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    parsed = json.loads(err)
    assert "error" in parsed and "message" in parsed


def test_empty_input_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert main(["estimate", "--in", str(path)]) == 1
    parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert parsed["message"] == f"no events in {path}"


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--kernel", "cauchy"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bin", "--score", "ll"],
        ["grad", "--grad", "ste"],
        ["bias", "--grad", "ste"],
        ["estimate", "--seed", "1"],
        ["precision", "--in", "f"],
        ["synth", "--kernel", "gauss"],
    ],
    ids=lambda argv: argv[0],
)
def test_flag_a_subcommand_does_not_read_exits_2(argv, capsys):
    """Each subcommand takes only the flags it reads; any other is an argument error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model,sha256",
    [
        ("rot", "ab8d21294d419b9156a62e4ba9fa1875782d999a0860481fa2b2ff615de5f747"),
        ("trans", "bdb1b8be3e05c9037e685bac922086a7cbdaa2266f0c54cb401ed8c7f916be26"),
    ],
)
def test_synth_golden_bytes(tmp_path, model, sha256):
    """The synthesized stream keeps its bytes: planted-truth baselines were measured on them."""
    path = tmp_path / "e.txt"
    assert main(["synth", "--seed", "9", "--model", model, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_precision_golden_bytes(tmp_path):
    """The precision table keeps its bytes: the Simpson nodes of both integrals are unchanged."""
    path = tmp_path / "precision.csv"
    assert main(["precision", "--kernel", "rect", "--recon", "cubic", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "6ed386556da8f4c8a84eb2a080cacf87503c80b1037541eb4124dc549bf8621a"
    )


def test_estimate_rejects_misnumbered_truth(events_file, tmp_path, capsys):
    truth = tmp_path / "truth.txt"
    truth.write_text("1 0.5 -0.3 0.8\n")
    rc = main(["estimate", "--in", str(events_file), "--truth", str(truth)])
    assert rc == 1
    parsed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert parsed["error"] == "ParseError"
    assert parsed["message"] == f"{truth}:1: packet index must be 0, got 1"


def test_synth_deterministic_bytes(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["synth", "--seed", "9", "--out", str(a)]) == 0
    assert main(["synth", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
