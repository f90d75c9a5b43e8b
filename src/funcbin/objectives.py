"""Contrast scores over frames and their adjoints.

Both scores are maximized: a sharper frame has higher variance and (with
suitable parameters) higher negative-binomial log-likelihood. The adjoints
are the per-bin derivatives seeding the binning VJP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln

from .binning import Frame
from .errors import NegativeBinValueError


@dataclass(frozen=True)
class NBParams:
    """Negative-binomial parameters.

    The pmf is gamma-extended so fractional bin values are admissible:
    log NB(h | r, p) = lnG(h+r) - lnG(h+1) - lnG(r) + r ln(1-p) + h ln(p).
    """

    r: float = 0.3
    p: float = 0.8

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError(f"r must be positive, got {self.r}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")


@dataclass(frozen=True)
class ScoreKind:
    """Score selector: 'var' or 'll' (with NB parameters)."""

    tag: str
    nb: NBParams = NBParams()

    def __post_init__(self):
        if self.tag not in ("var", "ll"):
            raise ValueError(f"score tag must be 'var' or 'll', got {self.tag!r}")


def score_variance(frame: Frame) -> float:
    """Population variance of the frame values."""
    return float(np.var(frame.values))


def adjoint_variance(frame: Frame) -> np.ndarray:
    """d Var / d values: (2 / N) (h - mean)."""
    v = frame.values
    return (2.0 / v.size) * (v - v.mean())


def score_loglik(frame: Frame, nb: NBParams = NBParams()) -> float:
    """Sum of per-bin negative-binomial log pmf values."""
    v = frame.values
    if np.any(v < 0):
        raise NegativeBinValueError("log-likelihood requires nonnegative bin values")
    ll = gammaln(v + nb.r) - gammaln(v + 1.0) - gammaln(nb.r) + nb.r * np.log(1.0 - nb.p) + v * np.log(nb.p)
    return float(np.sum(ll))


def adjoint_loglik(frame: Frame, nb: NBParams = NBParams()) -> np.ndarray:
    """d LL / d values: digamma(h+r) - digamma(h+1) + ln(p)."""
    v = frame.values
    if np.any(v < 0):
        raise NegativeBinValueError("log-likelihood requires nonnegative bin values")
    return digamma(v + nb.r) - digamma(v + 1.0) + np.log(nb.p)


def score(frame: Frame, kind: ScoreKind) -> float:
    """Evaluate the selected score."""
    if kind.tag == "var":
        return score_variance(frame)
    return score_loglik(frame, kind.nb)


def adjoint(frame: Frame, kind: ScoreKind) -> np.ndarray:
    """Adjoint of the selected score with respect to the frame values."""
    if kind.tag == "var":
        return adjoint_variance(frame)
    return adjoint_loglik(frame, kind.nb)
