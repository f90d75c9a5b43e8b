"""Objective composition, L-BFGS maximization, and error reporting."""

import numpy as np
import pytest

from funcbin import (
    FBP,
    BinningKernel,
    FrameGrid,
    MotionParams,
    Naive,
    ObjectiveConfig,
    ReconKernel,
    STE,
    Sigmoid,
    ScoreKind,
    lbfgs_maximize,
    objective_grad,
    objective_value,
    rms_error,
)
from funcbin import estimator
from funcbin.errors import LengthMismatchError
from funcbin.estimator import _lbfgs_minimize
from funcbin.events_io import SyntheticScene, packet_from_scene

GRID = FrameGrid(200, 150, 0.01)


def _cfg(kernel=BinningKernel.RECT, mode=None, score="var"):
    return ObjectiveConfig(kernel, mode or FBP(ReconKernel.LINEAR), ScoreKind(score), GRID)


@pytest.fixture(scope="module")
def packet():
    pkt, _ = packet_from_scene(SyntheticScene(seed=11, n_points=30, events_per_point=15))
    return pkt


def test_value_independent_of_grad_mode(packet):
    theta = np.array([0.4, -0.2, 0.9])
    vals = [
        objective_value(_cfg(mode=m), packet, theta)
        for m in (Naive(), FBP(ReconKernel.LINEAR), STE(), Sigmoid())
    ]
    assert all(v == vals[0] for v in vals)


def test_value_peaks_at_planted_motion(packet):
    cfg = _cfg()
    truth = np.array([0.5, -0.3, 0.8])
    v_true = objective_value(cfg, packet, truth)
    for scale in np.linspace(-1.0, 1.0, 21):
        if abs(scale) < 1e-9:
            continue
        off = truth + scale * np.array([1.0, 0.0, 0.0])
        assert objective_value(cfg, packet, off) < v_true


def test_naive_rect_gradient_vanishes(packet):
    cfg = _cfg(mode=Naive())
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = objective_grad(cfg, packet, rng.uniform(-5, 5, 3))
        assert np.linalg.norm(g) < 1e-12


def test_naive_linear_gradient_matches_fd(packet):
    cfg = _cfg(kernel=BinningKernel.LINEAR, mode=Naive())
    theta = np.array([0.7, 0.2, -0.4])
    g = objective_grad(cfg, packet, theta)
    eps = 1e-5
    fd = np.empty(3)
    for j in range(3):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += eps
        tm[j] -= eps
        fd[j] = (objective_value(cfg, packet, tp) - objective_value(cfg, packet, tm)) / (2 * eps)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-3


def test_lbfgs_exact_on_quadratic():
    c = np.array([1.5, -2.0, 0.25])
    f = lambda x: float(np.sum((x - c) ** 2))
    g = lambda x: 2.0 * (x - c)
    x, trace = _lbfgs_minimize(f, g, np.array([5.0, 5.0, 5.0]))
    assert np.linalg.norm(x - c) < 1e-8
    assert len(trace.values) - 1 <= 10
    assert trace.converged


def test_lbfgs_trace_monotone(packet):
    cfg = _cfg()
    _, trace = lbfgs_maximize(cfg, packet, np.zeros(3))
    vals = np.array(trace.values)
    assert np.all(np.diff(vals) >= -1e-12)


def test_recovers_planted_motion(packet):
    cfg = _cfg()
    theta, trace = lbfgs_maximize(cfg, packet, np.zeros(3))
    truth = np.array([0.5, -0.3, 0.8])
    assert np.linalg.norm(theta - truth) < 0.02 * np.linalg.norm(truth)


def _unmemoized_solve(cfg, packet, calls):
    """_lbfgs_minimize on plain value and gradient closures, logging each call's kind and theta."""

    def f(th):
        calls.append(("f", th.tobytes()))
        return -objective_value(cfg, packet, th)

    def g(th):
        calls.append(("g", th.tobytes()))
        return -objective_grad(cfg, packet, th)

    return _lbfgs_minimize(f, g, np.zeros(3))


@pytest.mark.parametrize("recon", [ReconKernel.LINEAR, ReconKernel.CUBIC])
def test_memoized_solve_matches_unmemoized(packet, recon):
    cfg = _cfg(mode=FBP(recon))
    theta, trace = lbfgs_maximize(cfg, packet, np.zeros(3))
    x, ref = _unmemoized_solve(cfg, packet, [])
    assert np.array_equal(np.array(trace.thetas), np.array(ref.thetas))
    assert trace.values == [-v for v in ref.values]
    assert np.array_equal(trace.grad_norms, ref.grad_norms)
    assert np.array_equal(theta, x)
    assert (trace.reason, trace.converged) == (ref.reason, ref.converged)
    assert trace.line_searches == ref.line_searches


@pytest.mark.parametrize(
    "kernel,mode,scene_seed",
    [
        (BinningKernel.RECT, FBP(ReconKernel.LINEAR), None),  # Wolfe steps, one Armijo step onto the plateau, a stall
        (BinningKernel.RECT, Sigmoid(), None),
        (BinningKernel.LINEAR, FBP(ReconKernel.LINEAR), 3),  # the first L-BFGS direction fails; a restart recovers
    ],
)
def test_line_search_record(packet, kernel, mode, scene_seed):
    """One record per iteration; the f calls of the searches, the start and the accepted steps are every f call."""
    if scene_seed is not None:
        packet, _ = packet_from_scene(SyntheticScene(seed=scene_seed))
    cfg = _cfg(kernel=kernel, mode=mode)
    calls = []
    theta, trace = _unmemoized_solve(cfg, packet, calls)
    searches = trace.line_searches
    n_iter = len(trace.values) - 1
    last = {"line_search_failure": "failure", "stall": "stall"}.get(trace.reason)
    assert len(searches) == n_iter + (last is not None)
    assert all(ls.outcome in ("wolfe", "armijo") and ls.alpha > 0 for ls in searches[:n_iter])
    if last is not None:
        assert searches[-1].outcome == last and searches[-1].alpha is None
    assert sum(kind == "f" for kind, _ in calls) == 1 + sum(ls.f_calls for ls in searches) + n_iter
    if scene_seed is not None:
        truth = np.array([0.5, -0.3, 0.8])
        assert any(ls.restart and ls.alpha is not None for ls in searches)
        assert np.linalg.norm(theta - truth) < 0.02 * np.linalg.norm(truth)


@pytest.mark.parametrize("recon", [ReconKernel.LINEAR, ReconKernel.CUBIC])
def test_plateau_ends_in_stall(packet, recon, monkeypatch):
    """After a flat step the Armijo fallback stops at its first flat trial, and the run ends converged."""
    cfg = _cfg(mode=FBP(recon))
    values = []  # every objective value the solve asks for, in order
    scipy_searches = []  # (calls made before the search, its own f calls)

    def counted(*args, _real=estimator.line_search, **kwargs):
        before = len(values)
        result = _real(*args, **kwargs)
        scipy_searches.append((before, result[1]))
        return result

    def f(th):
        values.append(-objective_value(cfg, packet, th))
        return values[-1]

    monkeypatch.setattr(estimator, "line_search", counted)
    _, trace = _lbfgs_minimize(f, lambda th: -objective_grad(cfg, packet, th), np.zeros(3))
    assert (trace.reason, trace.converged) == ("stall", True)

    def flat(a, b):
        return abs(a - b) <= estimator.FTOL * max(1.0, abs(a))

    vals, searches = trace.values, trace.line_searches
    steps_flat = [flat(a, b) for a, b in zip(vals, vals[1:])]
    assert steps_flat[-1]  # the stalled search followed a flat step
    # no Armijo step is taken onto the plateau from the plateau
    assert not any(a and b and ls.outcome == "armijo" for a, b, ls in zip(steps_flat, steps_flat[1:], searches[1:]))
    # the fallback's trials end at the first one that leaves f flat
    before, scipy_calls = scipy_searches[-1]
    trials = values[before + scipy_calls :]
    assert trials and flat(vals[-1], trials[-1]) and not any(flat(vals[-1], v) for v in trials[:-1])
    assert searches[-1] == ("stall", None, scipy_calls + len(trials), False)


# Scenes, of the first four 450-event scenes, on which L-BFGS from theta = 0
# ends within 2% of the planted motion: the recoveries measured for this
# solver. None is below that of an Armijo fallback after every failed
# strong-Wolfe search with no restart, which recovers (2, 3, 2, 0),
# (4, 4, 2, 3), (4, 3, 2, 3) and (4, 3, 4, 3) on the same scenes.
PLANTED_FLOORS = {
    ("rot", BinningKernel.RECT): (2, 3, 2, 1),
    ("rot", BinningKernel.LINEAR): (4, 4, 3, 4),
    ("trans", BinningKernel.RECT): (4, 3, 2, 4),
    ("trans", BinningKernel.LINEAR): (4, 3, 4, 3),
}
PLANTED_CELLS = [
    (model, kernel, mode, floor)
    for (model, kernel), floors in PLANTED_FLOORS.items()
    for mode, floor in zip((FBP(ReconKernel.LINEAR), FBP(ReconKernel.CUBIC), STE(), Sigmoid()), floors)
]


@pytest.mark.parametrize(
    "model,kernel,mode,floor", PLANTED_CELLS, ids=[f"{m}-{k.value}-{r.name}" for m, k, r, _ in PLANTED_CELLS]
)
def test_planted_truth_matrix(model, kernel, mode, floor):
    """L-BFGS from theta = 0 recovers planted motion on at least ``floor`` of the four scenes."""
    motion = MotionParams(model, (0.5, -0.3, 0.8))
    truth = np.array(motion.vec)
    cfg = ObjectiveConfig(kernel, mode, ScoreKind("var"), GRID, model=model)
    recovered = 0
    for seed in range(4):
        pkt, _ = packet_from_scene(SyntheticScene(seed=seed, n_points=30, events_per_point=15, motion=motion))
        theta, _ = lbfgs_maximize(cfg, pkt, np.zeros(3))
        recovered += bool(np.linalg.norm(theta - truth) < 0.02 * np.linalg.norm(truth))
    assert recovered >= floor


def test_trace_counts_real_evaluations(packet, monkeypatch):
    """f_evals and g_evals count warps and VJPs; repeats of the last theta are served from the memo."""
    cfg = _cfg()
    calls = []
    _unmemoized_solve(cfg, packet, calls)
    # a memo of the last theta evaluates when theta changes, and completes the
    # gradient once for each run of calls at one theta that asks for it
    runs = [[calls[0]]]
    for c in calls[1:]:
        if c[1] == runs[-1][-1][1]:
            runs[-1].append(c)
        else:
            runs.append([c])
    expect_f = len(runs)
    expect_g = sum(any(kind == "g" for kind, _ in run) for run in runs)

    counts = {"warp": 0, "bin_vjp": 0}
    for name in counts:
        real = getattr(estimator, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(estimator, name, counting)
    _, trace = lbfgs_maximize(cfg, packet, np.zeros(3))
    assert (trace.f_evals, trace.g_evals) == (counts["warp"], counts["bin_vjp"])
    assert (trace.f_evals, trace.g_evals) == (expect_f, expect_g)
    n_f_calls = sum(kind == "f" for kind, _ in calls)
    assert trace.f_evals < n_f_calls and trace.g_evals < len(calls) - n_f_calls


def test_naive_rect_makes_no_progress(packet):
    cfg = _cfg(mode=Naive())
    theta, trace = lbfgs_maximize(cfg, packet, np.zeros(3))
    assert np.linalg.norm(theta) < 1e-9


def test_rms_error_values():
    assert rms_error([[1, 2, 3]], [[1, 2, 3]]) == 0.0
    assert rms_error([[1, 0, 0]], [[0, 0, 0]], to_degrees=True) == pytest.approx(180 / np.pi)
    assert rms_error([[3, 0, 0], [0, 4, 0]], [[0, 0, 0], [0, 0, 0]]) == pytest.approx(
        np.sqrt((9 + 16) / 2)
    )


def test_rms_error_shape_check():
    with pytest.raises(LengthMismatchError):
        rms_error([[1, 2, 3]], [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(LengthMismatchError):
        rms_error([], [])
