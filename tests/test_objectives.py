"""Contrast scores and their adjoints."""

import math

import numpy as np
import pytest

from funcbin import Frame, FrameGrid, NBParams, ScoreKind, adjoint, score
from funcbin.errors import NegativeBinValueError
from funcbin.objectives import adjoint_loglik, adjoint_variance, score_loglik, score_variance


def _frame(values):
    values = np.asarray(values, dtype=float)
    return Frame(FrameGrid(values.shape[0], values.shape[1], 1.0), values)


def test_variance_known_value():
    f = _frame([[1.0, 2.0], [3.0, 6.0]])
    assert score_variance(f) == pytest.approx(np.var([1, 2, 3, 6]))


def test_variance_constant_frame_zero():
    f = _frame(np.full((4, 5), 2.5))
    assert score_variance(f) == 0.0


def test_variance_adjoint_matches_fd():
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 5, (4, 3))
    f = _frame(vals)
    adj = adjoint_variance(f)
    eps = 1e-6
    for u in range(4):
        for v in range(3):
            vp = vals.copy()
            vm = vals.copy()
            vp[u, v] += eps
            vm[u, v] -= eps
            fd = (score_variance(_frame(vp)) - score_variance(_frame(vm))) / (2 * eps)
            assert adj[u, v] == pytest.approx(fd, abs=1e-8)


def test_loglik_single_bin_manual():
    # one bin with value h: lnG(h+r) - lnG(h+1) - lnG(r) + r ln(1-p) + h ln p
    h, r, p = 2.0, 0.3, 0.8
    f = Frame(FrameGrid(1, 1, 1.0), np.array([[h]]))
    expect = (
        math.lgamma(h + r) - math.lgamma(h + 1) - math.lgamma(r)
        + r * math.log(1 - p) + h * math.log(p)
    )
    assert score_loglik(f, NBParams(r, p)) == pytest.approx(expect, rel=1e-12)


def test_loglik_adjoint_matches_fd():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0.1, 4.0, (3, 3))
    f = _frame(vals)
    nb = NBParams()
    adj = adjoint_loglik(f, nb)
    eps = 1e-6
    for u in range(3):
        for v in range(3):
            vp = vals.copy()
            vm = vals.copy()
            vp[u, v] += eps
            vm[u, v] -= eps
            fd = (score_loglik(_frame(vp), nb) - score_loglik(_frame(vm), nb)) / (2 * eps)
            assert adj[u, v] == pytest.approx(fd, abs=1e-7)


def test_loglik_rejects_negative_bins():
    f = _frame([[-0.5, 1.0]])
    with pytest.raises(NegativeBinValueError):
        score_loglik(f)
    with pytest.raises(NegativeBinValueError):
        adjoint_loglik(f)


def test_nb_params_validated():
    with pytest.raises(ValueError):
        NBParams(r=-1.0)
    with pytest.raises(ValueError):
        NBParams(p=1.0)


def test_score_kind_dispatch():
    f = _frame([[0.0, 1.0], [2.0, 3.0]])
    assert score(f, ScoreKind("var")) == score_variance(f)
    assert score(f, ScoreKind("ll")) == score_loglik(f)
    np.testing.assert_array_equal(adjoint(f, ScoreKind("var")), adjoint_variance(f))
    with pytest.raises(ValueError):
        ScoreKind("entropy")


def test_sharper_frame_scores_higher():
    # same mass, more concentrated -> higher variance and higher NB likelihood
    flat = _frame(np.full((5, 4), 1.0))
    sharp = np.zeros((5, 4))
    sharp[2, 2] = 20.0
    sharp_f = _frame(sharp)
    assert score_variance(sharp_f) > score_variance(flat)
    assert score_loglik(sharp_f) > score_loglik(flat)
